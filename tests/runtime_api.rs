//! The host's and the bare sender's public API, one behaviour a test: what a
//! send refuses, what the injection caches hit, miss, invalidate and evict,
//! how a burst drains a shard's banks, and what the shard-local address space
//! keeps apart. The equivalence suites hold whole runs against a reference;
//! these hold the contracts those runs are made of.

mod support;

use support::{foreign_injected, ints, put, testbed, wire};
use two_chains_suite::jamvm::isa::Width;
use two_chains_suite::jamvm::{encode_program, GotImage, Instr, Reg, VerifyError};
use two_chains_suite::linker::{Package, RiedBuilder};
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{benchmark_package, indirect_put_args, ssum_args, BuiltinJam};
use twochains::frame::FrameView;
use twochains::{
    spec, AmError, AmResult, ElementId, Frame, InvocationMode, MessageSpec, ReceiveOutcome,
    RuntimeConfig, SecurityPolicy, TwoChainsHost, TwoChainsSender,
};

use InvocationMode::{Injected, Local};

/// A one-element message from loose sections.
fn msg(elem: ElementId, mode: InvocationMode, args: &[u8], usr: &[u8]) -> MessageSpec {
    spec(elem).mode(mode).args(args).usr(usr)
}

/// An injected Server-Side Sum over `1..=4`: its result is 10.
fn sum4(elem: ElementId) -> MessageSpec {
    msg(elem, Injected, &ssum_args(4), &ints(4))
}

fn hardened() -> RuntimeConfig {
    RuntimeConfig {
        security: SecurityPolicy::Hardened,
        ..RuntimeConfig::paper_default()
    }
}

fn ssum(rx: &TwoChainsHost) -> ElementId {
    rx.builtin_id(BuiltinJam::ServerSideSum).unwrap()
}

/// Send `message` into (`bank`, `slot`) and receive it there.
fn exchange(
    rx: &mut TwoChainsHost,
    tx: &mut TwoChainsSender,
    bank: usize,
    slot: usize,
    message: &MessageSpec,
) -> AmResult<ReceiveOutcome> {
    let target = rx.mailbox_target(bank, slot).unwrap();
    let sent = tx.send_spec(SimTime::ZERO, message, &target).unwrap();
    rx.receive(
        bank,
        slot,
        Some(sent.wire_bytes),
        sent.delivered(),
        SimTime::ZERO,
    )
}

/// `n` injected sums of `elem` through mailbox (`bank`, 0).
fn pump(
    rx: &mut TwoChainsHost,
    tx: &mut TwoChainsSender,
    elem: ElementId,
    bank: usize,
    n: usize,
) -> Vec<ReceiveOutcome> {
    (0..n)
        .map(|i| {
            let out = exchange(rx, tx, bank, 0, &sum4(elem)).unwrap();
            assert_eq!(out.result, 10, "message {i} result");
            out
        })
        .collect()
}

/// The frame `tx` encodes next for `message` (its sequence number spent), as
/// an owned [`Frame`] a test can edit.
fn encoded(tx: &mut TwoChainsSender, message: &MessageSpec) -> Frame {
    let mut wire = Vec::new();
    tx.encode_next(message, &mut wire).unwrap();
    let view = FrameView::parse(&wire).unwrap();
    Frame {
        header: view.header,
        chain: view.chain,
        got: view.got.to_vec(),
        code: view.code.to_vec(),
        args: view.args.to_vec(),
        usr: view.usr.to_vec(),
    }
}

/// Put forged `bytes` into mailbox (0, `slot`) raw; returns their arrival.
fn forge(rx: &TwoChainsHost, tx: &mut TwoChainsSender, slot: usize, bytes: &[u8]) -> SimTime {
    put(tx.endpoint_mut(), rx, 0, slot, SimTime::ZERO, bytes).delivered
}

fn word(bytes: Vec<u8>) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap())
}

// ---- what a send refuses ---------------------------------------------------

#[test]
fn injected_frames_are_larger_but_not_slower_for_big_payloads() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let mut wire = Vec::new();
    let mut wire_size = |mode| {
        let message = msg(id, mode, &indirect_put_args(1, 1, 4), &ints(1));
        tx.encode_next(&message, &mut wire).unwrap();
        wire.len()
    };
    assert_eq!(wire_size(Local), 64);
    assert_eq!(wire_size(Injected), 1472);
}

#[test]
fn oversized_frame_rejected_at_send_time() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.frame_capacity = 2048;
    let (rx, mut tx) = testbed(cfg);
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let message = msg(id, Injected, &indirect_put_args(1, 4096, 4), &ints(4096));
    let target = rx.mailbox_target(0, 0).unwrap();
    assert!(matches!(
        tx.send_spec(SimTime::ZERO, &message, &target),
        Err(AmError::FrameTooLarge { .. })
    ));
}

/// 70 000 bytes of ARGS do not fit the header's `u16` length: the send errs
/// instead of emitting a self-inconsistent header.
#[test]
fn oversized_args_rejected_at_the_sender() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let target = rx.mailbox_target(0, 0).unwrap();
    let big = msg(ssum(&rx), Local, &[0; 70_000], &[]);
    let err = tx.send_spec(SimTime::ZERO, &big, &target).unwrap_err();
    assert!(matches!(&err, AmError::BadFrame(m) if m.contains("ARGS")));
}

#[test]
fn injected_without_remote_got_fails_to_pack() {
    let wire = wire();
    let rx = wire.host(RuntimeConfig::paper_default());
    // This sender never received the receiver's exported GOT images.
    let mut tx = TwoChainsSender::new(wire.raw(), benchmark_package().unwrap());
    let id = ssum(&rx);
    let mut buf = Vec::new();
    let mut encode = |mode| tx.encode_next(&msg(id, mode, &ssum_args(1), &ints(1)), &mut buf);
    assert!(matches!(encode(Injected), Err(AmError::Link(_))));
    // Local frames need no GOT exchange.
    assert!(encode(Local).is_ok());
}

#[test]
fn builtin_id_reports_the_missing_name() {
    let wire = wire();
    let host = TwoChainsHost::new(&wire.fabric, wire.b, RuntimeConfig::paper_default()).unwrap();
    match host.builtin_id(BuiltinJam::IndirectPut) {
        Err(AmError::UnknownElementName(name)) => {
            assert_eq!(name, BuiltinJam::IndirectPut.element_name())
        }
        other => panic!("expected UnknownElementName, got {other:?}"),
    }
    // Same contract on the sender side, through a package lacking the element.
    let tx = TwoChainsSender::new(wire.raw(), Package::default());
    assert!(matches!(
        tx.builtin_id(BuiltinJam::ServerSideSum),
        Err(AmError::UnknownElementName(_))
    ));
}

#[test]
fn repeat_sends_are_byte_identical_without_repatching() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    // Two sends of the same element into two mailboxes, read before receiving.
    let wires: Vec<Vec<u8>> = (0..2)
        .map(|slot| {
            let target = rx.mailbox_target(0, slot).unwrap();
            let sent = tx.send_spec(SimTime::ZERO, &sum4(id), &target).unwrap();
            let mailbox = rx.banks().mailbox(0, slot).unwrap();
            mailbox.read_frame(sent.wire_bytes).unwrap()
        })
        .collect();
    // One GOT patch and code capture served both sends.
    assert_eq!(tx.stats().template_misses, 1);
    assert_eq!(tx.stats().template_hits, 1);
    // Byte-identical but for the sequence number: header bytes 4..8 and its
    // three-byte trailer echo.
    let (a, b) = (&wires[0], &wires[1]);
    assert_eq!(a.len(), b.len());
    let len = a.len();
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        if !((4..8).contains(&i) || (len - 4..len - 1).contains(&i)) {
            assert_eq!(x, y, "wire byte {i} differs between two sends");
        }
    }
}

#[test]
fn send_spec_puts_what_encode_next_encodes() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let message = msg(ssum(&rx), Injected, &ssum_args(8), &ints(8));
    let target = rx.mailbox_target(0, 0).unwrap();
    let sent = tx.send_spec(SimTime::ZERO, &message, &target).unwrap();
    let mut next = encoded(&mut tx, &message);
    // The two differ in their sequence number only.
    assert_eq!(next.header.sn, 2);
    next.header.sn = 1;
    let wire = rx
        .banks()
        .mailbox(0, 0)
        .unwrap()
        .read_frame(sent.wire_bytes);
    assert_eq!(wire.unwrap(), next.encode());
    // The §III-A packing model: 35 ns a frame, 0.002 ns a byte.
    let pack = SimTime::from_ns(35) + SimTime::from_ns_f64(sent.wire_bytes as f64 * 0.002);
    assert_eq!(sent.pack_time, pack);
    let out = rx
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    assert_eq!(out.result, 36);
}

// ---- the injection caches ----------------------------------------------------

#[test]
fn steady_state_injected_dispatch_hits_all_caches() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    let outs = pump(&mut rx, &mut tx, id, 0, 5);
    // One decode+verify and one GOT parse, ever: no decode and no program or
    // GOT clone after an element's first message.
    let stats = rx.stats();
    assert_eq!(stats.injected_code_cache_misses, 1);
    assert_eq!(stats.injected_code_cache_hits, 4);
    assert_eq!(stats.got_cache_misses, 1);
    assert_eq!(stats.got_cache_hits, 4);
    assert_eq!(rx.injected_cache_len(), 1);
    // Sender side: one template build, then pure memcpy sends.
    assert_eq!(tx.stats().template_misses, 1);
    assert_eq!(tx.stats().template_hits, 4);
    assert!(
        outs[4].dispatch_time < outs[0].dispatch_time,
        "warm dispatch ({}) should be cheaper than cold ({})",
        outs[4].dispatch_time,
        outs[0].dispatch_time
    );
}

#[test]
fn cache_invalidation_restores_the_cold_path() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    pump(&mut rx, &mut tx, id, 0, 2);
    assert_eq!(rx.stats().injected_code_cache_misses, 1);
    rx.invalidate_injection_caches();
    assert_eq!(rx.injected_cache_len(), 0);
    pump(&mut rx, &mut tx, id, 0, 1);
    let misses = rx.stats().injected_code_cache_misses;
    assert_eq!(misses, 2, "post-invalidation miss");
    // A package reinstall invalidates too: element ids may rebind.
    rx.install_package(benchmark_package().unwrap()).unwrap();
    assert_eq!(rx.injected_cache_len(), 0);
}

/// Loading any ried is a live update: no cached resolution survives it.
#[test]
fn live_update_invalidates_caches() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    pump(&mut rx, &mut tx, id, 0, 2);
    assert_eq!(rx.injected_cache_len(), 1);
    rx.load_ried(&RiedBuilder::new("ried_noop").build(), true)
        .unwrap();
    assert_eq!(rx.injected_cache_len(), 0);
    pump(&mut rx, &mut tx, id, 0, 1);
    assert_eq!(rx.stats().injected_code_cache_misses, 2);
}

#[test]
fn hardened_policy_reresolves_got_and_still_works() {
    let (mut rx, mut tx) = testbed(hardened());
    let id = ssum(&rx);
    // Corrupt the sender's notion of the GOT: the hardened receiver ignores it.
    tx.set_remote_got(id, &GotImage::with_slots(1));
    assert_eq!(
        exchange(&mut rx, &mut tx, 0, 0, &sum4(id)).unwrap().result,
        10
    );
}

#[test]
fn hardened_mode_caches_local_resolution() {
    let (mut rx, mut tx) = testbed(hardened());
    let id = ssum(&rx);
    pump(&mut rx, &mut tx, id, 0, 3);
    assert_eq!(rx.stats().got_cache_misses, 1, "one local re-resolution");
    assert_eq!(rx.stats().got_cache_hits, 2);
}

/// The resolution work is cached; the policy's modelled per-message cost is
/// not: warm hardened dispatch stays flat, and above the overhead itself.
#[test]
fn hardened_overhead_is_charged_on_every_message() {
    let (mut rx, mut tx) = testbed(hardened());
    let id = ssum(&rx);
    let outs = pump(&mut rx, &mut tx, id, 0, 3);
    let warm = outs[2].dispatch_time;
    assert_eq!(outs[1].dispatch_time, warm, "warm dispatch is steady");
    let overhead = SecurityPolicy::Hardened.per_message_overhead(1);
    assert!(overhead > SimTime::ZERO);
    assert!(
        warm > overhead,
        "warm hardened dispatch ({warm}) must include the per-message overhead ({overhead})"
    );
}

/// Message 1 fills the code cache; message 2 carries the same code but an
/// empty GOT. The cold path would refuse it at verify time, so a warm hit
/// must refuse it too, before executing.
#[test]
fn warm_hit_with_too_small_got_is_rejected_before_execution() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    pump(&mut rx, &mut tx, id, 0, 1);
    let good = encoded(&mut tx, &sum4(id));
    let sn = good.header.sn + 1;
    let bad = Frame::injected(sn, id.0, Vec::new(), good.code, good.args, good.usr);
    let delivered = forge(&rx, &mut tx, 0, &bad.encode());
    let executions = rx.stats().executions;
    let err = rx
        .receive(0, 0, Some(bad.wire_size()), delivered, SimTime::ZERO)
        .unwrap_err();
    assert!(
        matches!(
            err,
            AmError::Verify(VerifyError::BadGotSlot {
                slot: 0,
                got_slots: 0,
                ..
            })
        ),
        "expected a pre-execution GOT-size rejection, got {err:?}"
    );
    assert_eq!(rx.stats().executions, executions, "nothing executed");
}

/// Indirect Put arrives three times with its own code: with its own GOT, with
/// an empty one, then with its own plus a zero slot. The second and third hit
/// the cached program but not the image lowered against the first GOT: the
/// second is refused on the program's verifier floor, and the third is
/// lowered again and runs as the first did.
#[test]
fn a_cached_program_meeting_another_got_is_floor_checked_and_lowered_again() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let own = encoded(
        &mut tx,
        &msg(id, Injected, &indirect_put_args(2, 4, 4), &ints(4)),
    );
    assert_eq!(own.got.len(), 8, "Indirect Put's GOT has one slot");
    let mut widened = own.got.clone();
    widened.extend([0; 8]);
    let mut receive = |sn: u32, got: Vec<u8>| {
        let frame = Frame::injected(
            sn,
            id.0,
            got,
            own.code.clone(),
            own.args.clone(),
            own.usr.clone(),
        );
        let delivered = forge(&rx, &mut tx, 0, &frame.encode());
        rx.receive(0, 0, Some(frame.wire_size()), delivered, SimTime::ZERO)
    };
    let first = receive(own.header.sn, own.got.clone()).unwrap().result;
    assert_eq!(first, 2684497936, "the bucket address of key 2");
    let err = receive(own.header.sn + 1, Vec::new()).unwrap_err();
    assert!(
        matches!(
            err,
            AmError::Verify(VerifyError::BadGotSlot {
                slot: 0,
                got_slots: 0,
                ..
            })
        ),
        "{err:?}"
    );
    let third = receive(own.header.sn + 2, widened).unwrap().result;
    assert_eq!(third, first);
    let stats = rx.stats();
    assert_eq!(
        [
            stats.injected_code_cache_hits,
            stats.injected_code_cache_misses
        ],
        [1, 1]
    );
    assert_eq!(
        [stats.resolved_cache_hits, stats.resolved_cache_misses],
        [0, 3]
    );
    assert_eq!(stats.frames_rejected, 1);
}

/// One GOT-floor rule, one refusal: Indirect Put with an empty GOT is refused
/// with the verifier's own error whether its program is cached or not.
#[test]
fn a_too_small_got_gets_the_same_refusal_warm_and_cold() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let own = encoded(
        &mut tx,
        &msg(id, Injected, &indirect_put_args(2, 4, 4), &ints(4)),
    );
    let mut receive = |rx: &mut TwoChainsHost, sn: u32, got: Vec<u8>| {
        let frame = Frame::injected(
            sn,
            id.0,
            got,
            own.code.clone(),
            own.args.clone(),
            own.usr.clone(),
        );
        let delivered = forge(rx, &mut tx, 0, &frame.encode());
        rx.receive(0, 0, Some(frame.wire_size()), delivered, SimTime::ZERO)
    };
    receive(&mut rx, own.header.sn, own.got.clone()).unwrap();
    let warm = receive(&mut rx, own.header.sn + 1, Vec::new()).unwrap_err();
    rx.invalidate_injection_caches();
    let cold = receive(&mut rx, own.header.sn + 2, Vec::new()).unwrap_err();
    assert_eq!(warm, cold);
    assert!(
        matches!(
            warm,
            AmError::Verify(VerifyError::BadGotSlot {
                slot: 0,
                got_slots: 0,
                ..
            })
        ),
        "{warm:?}"
    );
}

#[test]
fn malformed_injected_code_is_rejected_not_cached() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    let mut frame = encoded(&mut tx, &msg(id, Injected, &ssum_args(1), &ints(1)));
    // Garbage of the declared length in place of the code.
    frame.code.fill(0xFF);
    let delivered = forge(&rx, &mut tx, 0, &frame.encode());
    let err = rx
        .receive(0, 0, Some(frame.wire_size()), delivered, SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, AmError::Decode(_)), "{err:?}");
    assert_eq!(rx.injected_cache_len(), 0, "garbage is not cached");
}

/// Past the cap (1 024 entries a cache), the segmented LRU evicts exactly
/// the overflow: the cap bounds what a sender churning code bodies can pin in
/// receiver memory, and clearing on full would throw away the working set.
#[test]
fn segmented_eviction_keeps_the_cache_bounded_and_counts_evictions() {
    const CAP: usize = 1024;
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    let base = encoded(&mut tx, &sum4(id));
    let bodies = CAP as u32 + 4;
    for i in 0..bodies {
        // An unreachable `load_imm r15, i` behind the final `ret` changes the
        // code's content hash but not its behaviour.
        let mut code = base.code.clone();
        let tail = [
            Instr::LoadImm {
                dst: Reg(15),
                imm: i.into(),
            },
            Instr::Ret,
        ];
        code.extend(encode_program(&tail));
        let frame = Frame::injected(i + 2, id.0, base.got.clone(), code, ssum_args(4), ints(4));
        let delivered = forge(&rx, &mut tx, 0, &frame.encode());
        let out = rx
            .receive(0, 0, Some(frame.wire_size()), delivered, SimTime::ZERO)
            .unwrap();
        assert_eq!(out.result, 10);
    }
    let stats = rx.stats();
    assert_eq!(stats.injected_code_cache_misses, bodies.into());
    assert_eq!(rx.injected_cache_len(), CAP, "full, not cleared");
    assert_eq!(stats.injected_code_cache_evictions, 4);
    // The GOT image was identical throughout: one parse, no GOT evictions.
    assert_eq!(stats.got_cache_misses, 1);
    assert_eq!(stats.got_cache_evictions, 0);
}

/// The shard's code-digest memo replaces a hash, never a probe: a stream that
/// interleaves two injected elements — runs of one, strict alternation, and a
/// cache invalidation in the middle of a run, where the memo still holds the
/// code whose cache entries are gone — reads the results and the cache
/// counters this scenario read before the memo existed. `receive_trace`'s
/// `burst-mixed` container pins the same property against its goldens.
#[test]
fn interleaved_injected_elements_read_the_same_results_and_cache_counters_as_without_a_memo() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let ssum = ssum(&rx);
    let iput = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let mut results = Vec::new();
    for (i, which) in b"SSPSPPSPSSSPPSPSPPSSPSPS".iter().enumerate() {
        if i == 10 {
            rx.invalidate_injection_caches();
        }
        let n = i % 7 + 1;
        let message = match which {
            b'S' => msg(ssum, Injected, &ssum_args(n as u32), &ints(n as u32)),
            _ => msg(
                iput,
                Injected,
                &indirect_put_args(i as u64 % 5, n as u32, 4),
                &ints(n as u32),
            ),
        };
        results.push(
            exchange(&mut rx, &mut tx, 0, i % 16, &message)
                .unwrap()
                .result,
        );
    }
    let stats = rx.stats();
    let counters = [
        stats.resolved_cache_hits,
        stats.resolved_cache_misses,
        stats.injected_code_cache_hits,
        stats.injected_code_cache_misses,
        stats.injected_code_cache_evictions,
        stats.got_cache_hits,
        stats.got_cache_misses,
        stats.got_cache_evictions,
    ];
    // Two elements, two cache epochs: four cold messages, twenty warm ones.
    assert_eq!(counters, [20, 4, 20, 4, 0, 20, 4, 0]);
    // Sums of `1..=n`; the address in shard 0's table instance each Indirect
    // Put key landed at.
    let (k0, k1, k2, k4) = (2684497968, 2684497992, 2684497936, 2684497948);
    assert_eq!(
        results,
        [1, 3, k2, 10, k4, k0, 28, k2, 3, 6, 10, k1, k2, 28, k4, 3, k1, k2, 15, 21, k0, 1, k2, 6]
    );
}

/// A message section is mapped in the buffers of one the shard unmapped
/// earlier. Nothing of that earlier section may be readable through it: a jam
/// reading past the end of its own 8-byte USR — at the very address where the
/// previous frame's 64-byte USR had its marker — faults as unmapped.
#[test]
fn a_recycled_section_holds_nothing_of_the_message_before_it() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    // r1 is the USR base on entry: read the second word of USR.
    let program = [
        Instr::Load {
            width: Width::B8,
            dst: Reg(0),
            addr: Reg(1),
            offset: 8,
        },
        Instr::Ret,
    ];
    let mut run = |sn: u32, usr: Vec<u8>| {
        let frame = foreign_injected(sn, &[], &program, &usr);
        let delivered = forge(&rx, &mut tx, 0, &frame);
        rx.receive(0, 0, Some(frame.len()), delivered, SimTime::ZERO)
            .map(|out| out.result)
    };
    assert_eq!(run(1, vec![0xAA; 64]).unwrap(), 0xAAAA_AAAA_AAAA_AAAA);
    match run(2, vec![0xBB; 8]) {
        Err(AmError::Exec(why)) => assert!(why.contains("unmapped"), "{why}"),
        other => panic!("read past an 8-byte USR: {other:?}"),
    }
    assert_eq!(run(3, vec![0xCC; 16]).unwrap(), 0xCCCC_CCCC_CCCC_CCCC);
}

// ---- shards and bursts -------------------------------------------------------

/// Bank `b` is shard `b % 2`'s; the merged view sums the shards, over one
/// shared code cache that decoded once.
#[test]
fn receive_routes_counters_to_the_owning_shard() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    assert_eq!(rx.num_shards(), 2);
    let id = ssum(&rx);
    pump(&mut rx, &mut tx, id, 0, 2);
    pump(&mut rx, &mut tx, id, 1, 3);
    assert_eq!(rx.shard_stats(0).unwrap().messages_received, 2);
    assert_eq!(rx.shard_stats(1).unwrap().messages_received, 3);
    assert!(rx.shard_stats(2).is_none());
    assert_eq!(rx.stats().messages_received, 5);
    assert_eq!(rx.stats().injected_code_cache_misses, 1);
    assert_eq!(rx.stats().injected_code_cache_hits, 4);
}

/// A reinstall may rebind element ids, so the shared cache's invalidation is
/// visible to both shards: one re-decodes, the other hits its entry.
#[test]
fn install_package_invalidation_is_visible_to_all_shards() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = ssum(&rx);
    pump(&mut rx, &mut tx, id, 0, 1);
    pump(&mut rx, &mut tx, id, 1, 1);
    assert_eq!(rx.stats().injected_code_cache_misses, 1);
    assert_eq!(rx.stats().injected_code_cache_hits, 1);
    rx.install_package(benchmark_package().unwrap()).unwrap();
    assert_eq!(rx.injected_cache_len(), 0);
    pump(&mut rx, &mut tx, id, 0, 1);
    pump(&mut rx, &mut tx, id, 1, 1);
    assert_eq!(rx.stats().injected_code_cache_misses, 2);
    assert_eq!(rx.shard_stats(0).unwrap().injected_code_cache_misses, 2);
    assert_eq!(rx.shard_stats(1).unwrap().injected_code_cache_hits, 2);
}

#[test]
fn receive_burst_drains_a_shards_banks_in_one_call() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = ssum(&rx);
    // Slots 0 and 1 of banks 0..4: eight frames.
    let mut delivered = SimTime::ZERO;
    for bank in 0..4 {
        for slot in 0..2 {
            let target = rx.mailbox_target(bank, slot).unwrap();
            let sent = tx.send_spec(SimTime::ZERO, &sum4(id), &target).unwrap();
            delivered = delivered.max(sent.delivered());
        }
    }
    // Shard 0 owns banks 0 and 2, shard 1 banks 1 and 3.
    let out0 = rx.receive_burst(0, usize::MAX, delivered).unwrap();
    assert_eq!(out0.len(), 4);
    assert!(out0.rejected.is_empty());
    let order: Vec<_> = out0.frames.iter().map(|f| (f.bank, f.slot)).collect();
    assert_eq!(
        order,
        [(0, 0), (0, 1), (2, 0), (2, 1)],
        "scan order is bank-major over owned banks"
    );
    assert!(out0.frames.iter().all(|f| f.outcome.result == 10));
    assert!(out0.drained_at > delivered);
    assert_eq!(rx.receive_burst(1, usize::MAX, delivered).unwrap().len(), 4);
    // Everything drained: another burst finds nothing.
    assert!(rx
        .receive_burst(0, usize::MAX, delivered)
        .unwrap()
        .is_empty());
    assert_eq!(rx.stats().messages_received, 8);
    assert_eq!(rx.stats().executions, 8);
    assert!(rx.receive_burst(5, 1, delivered).is_err(), "no such shard");
}

#[test]
fn receive_burst_respects_max_frames() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx);
    for slot in 0..3 {
        let target = rx.mailbox_target(0, slot).unwrap();
        tx.send_spec(SimTime::ZERO, &sum4(id), &target).unwrap();
    }
    let first = rx.receive_burst(0, 2, SimTime::from_us(100)).unwrap();
    assert_eq!(first.len(), 2);
    let rest = rx.receive_burst(0, 2, first.drained_at).unwrap();
    assert_eq!(rest.len(), 1);
    assert!(rx.receive_burst(0, 2, rest.drained_at).unwrap().is_empty());
}

/// The same five frames drained one by one and in one burst: the burst pays
/// the scan once instead of a wait per message, so it finishes sooner with
/// the same executions.
#[test]
fn receive_burst_amortises_the_per_message_wait() {
    let (mut rx_seq, mut tx_seq) = testbed(RuntimeConfig::paper_default());
    let (mut rx_burst, mut tx_burst) = testbed(RuntimeConfig::paper_default());
    let id = ssum(&rx_seq);
    let mut start = SimTime::ZERO;
    for (rx, tx) in [(&rx_seq, &mut tx_seq), (&rx_burst, &mut tx_burst)] {
        for slot in 0..5 {
            let target = rx.mailbox_target(0, slot).unwrap();
            let sent = tx.send_spec(SimTime::ZERO, &sum4(id), &target).unwrap();
            start = start.max(sent.delivered());
        }
    }
    let mut ready = start;
    for slot in 0..5 {
        ready = rx_seq
            .receive(0, slot, None, ready, ready)
            .unwrap()
            .handler_done;
    }
    let burst = rx_burst.receive_burst(0, usize::MAX, start).unwrap();
    assert_eq!(burst.len(), 5);
    assert_eq!(rx_burst.stats().executions, rx_seq.stats().executions);
    let (burst_wait, seq_wait) = (rx_burst.stats().wait_time, rx_seq.stats().wait_time);
    assert!(
        burst_wait < seq_wait,
        "burst wait ({burst_wait}) must undercut per-message polling ({seq_wait})"
    );
    assert!(
        burst.drained_at < ready,
        "burst completion ({}) should beat sequential draining ({ready})",
        burst.drained_at
    );
}

/// cluster2021 has 4 cores; a fifth shard would alias two shards onto one
/// core's bus and invalidation inbox.
#[test]
fn more_shards_than_cores_is_rejected() {
    let wire = wire();
    let mut cfg = RuntimeConfig::paper_default().with_shards(5);
    cfg.banks = 5;
    let err = TwoChainsHost::new(&wire.fabric, wire.b, cfg).unwrap_err();
    assert!(matches!(&err, AmError::InvalidConfig(m) if m.contains("cores")));
}

/// One capacity floor: a mailbox holds at least a header and a trailer, the
/// 40-byte frame with no sections. The configuration used to accept any
/// capacity over the header alone, so 37 to 43 passed `validate` and then
/// failed in the mailbox's own, stricter check, which refused 40 to 43
/// although a frame fits them.
#[test]
fn a_mailbox_holds_header_and_trailer_and_the_config_refuses_less() {
    let with_capacity = |bytes| {
        let mut cfg = RuntimeConfig::paper_default();
        cfg.frame_capacity = bytes;
        cfg
    };
    let wire = wire();
    assert!(with_capacity(39).validate().is_err());
    let err = TwoChainsHost::new(&wire.fabric, wire.b, with_capacity(39)).unwrap_err();
    assert!(
        matches!(&err, AmError::InvalidConfig(m) if m.contains("header + trailer")),
        "{err:?}"
    );

    let host = wire.host(with_capacity(40));
    let shortest = Frame::local(1, 0, Vec::new(), Vec::new()).encode();
    assert_eq!(shortest.len(), 40);
    put(&mut wire.raw(), &host, 0, 0, SimTime::ZERO, &shortest);
    let mailbox = host.banks().mailbox(0, 0).unwrap();
    assert_eq!(mailbox.poll_variable().unwrap(), Some(40));
}

#[test]
fn per_core_cache_stats_merge_into_the_global_view() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = ssum(&rx);
    pump(&mut rx, &mut tx, id, 0, 3);
    pump(&mut rx, &mut tx, id, 1, 3);
    let s0 = rx.shard_cache_stats(0).unwrap();
    let s1 = rx.shard_cache_stats(1).unwrap();
    assert!(rx.shard_cache_stats(2).is_none());
    // Both shards ran warm messages on their own cores' private caches.
    assert!(s0.l1_hits + s0.l2_hits > 0);
    assert!(s1.l1_hits + s1.l2_hits > 0);
    let global = rx.hierarchy_stats();
    assert_eq!(global.l1_hits, s0.l1_hits + s1.l1_hits);
    assert_eq!(global.l2_hits, s0.l2_hits + s1.l2_hits);
    // DMA delivered every frame: the invalidation contract reached both cores.
    assert!(s0.invalidations_applied > 0);
    assert!(s1.invalidations_applied > 0);
    rx.reset_stats();
    assert_eq!(rx.shard_cache_stats(0).unwrap(), Default::default());
}

// ---- the shard-local address space -------------------------------------------

/// The same key through two banks of two shards: each shard probes its own
/// table instance, so the addresses differ, each shard's bump cursor moved,
/// and a shard finds its own slot again.
#[test]
fn shard_local_space_partitions_writable_state_per_shard() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let key42 = msg(id, Injected, &indirect_put_args(42, 4, 4), &ints(4));
    let results: Vec<u64> = [(0, 0), (1, 0), (0, 1)]
        .into_iter()
        .map(|(bank, slot)| {
            exchange(&mut rx, &mut tx, bank, slot, &key42)
                .unwrap()
                .result
        })
        .collect();
    assert_ne!(
        results[0], results[1],
        "each shard claims a slot of its own"
    );
    assert_eq!(results[2], results[0], "and finds it again");
    for shard in 0..2 {
        assert_ne!(
            word(rx.read_shard_data(shard, "table.data", 0, 8).unwrap()),
            0
        );
    }
}
