//! Runtime tests: the end-to-end receive/send paths, the fast-path cache
//! behaviour, and the sharded burst-draining layer.

use twochains_fabric::SimFabric;
use twochains_jamvm::{encode_program, GotImage, Instr};
use twochains_linker::ElementId;
use twochains_memsim::{SimTime, TestbedConfig};

use super::{MessageSpec, ReceiveOutcome, TwoChainsHost, TwoChainsSender};
use crate::builtin::{benchmark_package, indirect_put_args, ssum_args, BuiltinJam};
use crate::config::{InvocationMode, RuntimeConfig};
use crate::error::AmError;
use crate::frame::Frame;
use crate::stats::RuntimeStats;

/// Build the standard two-host testbed with the benchmark package installed on
/// both sides and the receiver's GOT images exported to the sender.
fn testbed(cfg: RuntimeConfig) -> (TwoChainsHost, TwoChainsSender) {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut receiver = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    receiver
        .install_package(benchmark_package().unwrap())
        .unwrap();
    let ep = fabric.endpoint(a, b).unwrap();
    let mut sender = TwoChainsSender::new(ep, benchmark_package().unwrap());
    for jam in [BuiltinJam::ServerSideSum, BuiltinJam::IndirectPut] {
        let id = receiver.builtin_id(jam).unwrap();
        let got = receiver.export_got(id).unwrap();
        sender.set_remote_got(id, &got);
    }
    (receiver, sender)
}

/// A one-element message from loose sections.
fn msg(elem: ElementId, mode: InvocationMode, args: &[u8], usr: &[u8]) -> MessageSpec {
    super::spec(elem).mode(mode).args(args).usr(usr)
}

fn payload(n_ints: usize) -> Vec<u8> {
    (0..n_ints as u32)
        .flat_map(|v| (v + 1).to_le_bytes())
        .collect()
}

#[test]
fn injected_server_side_sum_end_to_end() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let frame = tx
        .pack(id, InvocationMode::Injected, ssum_args(8), payload(8))
        .unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
    let out = rx
        .receive(
            0,
            0,
            Some(frame.wire_size()),
            send.delivered(),
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(out.result, (1..=8u64).sum::<u64>());
    assert!(out.handler_done > send.delivered());
    assert!(out.exec.is_some());
    // Server-side array holds the sum.
    let arr = rx.read_data("array.base", 8, 8).unwrap();
    assert_eq!(u64::from_le_bytes(arr.try_into().unwrap()), 36);
    assert_eq!(rx.stats().injected_executions, 1);
}

#[test]
fn local_and_injected_produce_identical_results() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let mut results = Vec::new();
    for mode in InvocationMode::ALL {
        let frame = tx
            .pack(id, mode, indirect_put_args(42, 16, 4), payload(16))
            .unwrap();
        let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
        let out = rx
            .receive(
                0,
                0,
                Some(frame.wire_size()),
                send.delivered(),
                SimTime::ZERO,
            )
            .unwrap();
        results.push(out.result);
    }
    assert_eq!(
        results[0], results[1],
        "same key must land at the same offset"
    );
    assert_eq!(rx.stats().local_executions, 1);
    assert_eq!(rx.stats().injected_executions, 1);
}

#[test]
fn injected_frames_are_larger_but_not_slower_for_big_payloads() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let local = tx
        .pack(
            id,
            InvocationMode::Local,
            indirect_put_args(1, 1, 4),
            payload(1),
        )
        .unwrap();
    let injected = tx
        .pack(
            id,
            InvocationMode::Injected,
            indirect_put_args(1, 1, 4),
            payload(1),
        )
        .unwrap();
    assert_eq!(local.wire_size(), 64);
    assert_eq!(injected.wire_size(), 1472);
    let _ = (&rx, &target);
}

#[test]
fn without_execution_skips_the_handler() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().without_execution());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let frame = tx
        .pack(id, InvocationMode::Injected, ssum_args(4), payload(4))
        .unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
    let out = rx
        .receive(
            0,
            0,
            Some(frame.wire_size()),
            send.delivered(),
            SimTime::ZERO,
        )
        .unwrap();
    assert!(out.exec.is_none());
    assert_eq!(out.result, 0);
    assert_eq!(rx.stats().executions, 0);
    assert_eq!(rx.stats().messages_received, 1);
}

#[test]
fn hardened_policy_reresolves_got_and_still_works() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.security = crate::security::SecurityPolicy::hardened();
    let (mut rx, mut tx) = testbed(cfg);
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Corrupt the sender's notion of the GOT — the hardened receiver ignores it.
    tx.set_remote_got(id, &GotImage::with_slots(1));
    let frame = tx
        .pack(id, InvocationMode::Injected, ssum_args(4), payload(4))
        .unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
    let out = rx
        .receive(
            0,
            0,
            Some(frame.wire_size()),
            send.delivered(),
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(out.result, 10);
}

#[test]
fn unknown_local_element_is_rejected() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let frame = tx.pack(
        ElementId(999),
        InvocationMode::Local,
        ssum_args(1),
        payload(1),
    );
    // Packing a local frame for an unknown element succeeds (the id is opaque to
    // the sender) but the receiver rejects it.
    let frame = frame.unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
    let err = rx
        .receive(
            0,
            0,
            Some(frame.wire_size()),
            send.delivered(),
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(matches!(err, AmError::UnknownElement(999)));
}

#[test]
fn empty_mailbox_reports_empty() {
    let (mut rx, _tx) = testbed(RuntimeConfig::paper_default());
    let err = rx
        .receive(0, 0, Some(64), SimTime::ZERO, SimTime::ZERO)
        .unwrap_err();
    assert_eq!(err, AmError::Empty);
    let err = rx
        .receive(0, 1, None, SimTime::ZERO, SimTime::ZERO)
        .unwrap_err();
    assert_eq!(err, AmError::Empty);
}

#[test]
fn oversized_frame_rejected_at_send_time() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.frame_capacity = 2048;
    let (rx, mut tx) = testbed(cfg);
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let frame = tx
        .pack(
            id,
            InvocationMode::Injected,
            indirect_put_args(1, 4096, 4),
            payload(4096),
        )
        .unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    assert!(matches!(
        tx.send(SimTime::ZERO, &frame, &target),
        Err(AmError::FrameTooLarge { .. })
    ));
}

#[test]
fn injected_without_remote_got_fails_to_pack() {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut rx = TwoChainsHost::new(&fabric, b, RuntimeConfig::paper_default()).unwrap();
    rx.install_package(benchmark_package().unwrap()).unwrap();
    // This sender never received the receiver's exported GOT images.
    let mut tx = TwoChainsSender::new(fabric.endpoint(a, b).unwrap(), benchmark_package().unwrap());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let err = tx
        .pack(id, InvocationMode::Injected, ssum_args(1), payload(1))
        .unwrap_err();
    assert!(matches!(err, AmError::Link(_)));
    // Local frames need no GOT exchange.
    assert!(tx
        .pack(id, InvocationMode::Local, ssum_args(1), payload(1))
        .is_ok());
}

#[test]
fn wfe_reduces_wait_cycles_but_not_results() {
    let (mut rx_poll, mut tx1) = testbed(RuntimeConfig::paper_default());
    let (mut rx_wfe, mut tx2) = testbed(RuntimeConfig::paper_default().with_wfe());
    let id = rx_poll.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    for (rx, tx) in [(&mut rx_poll, &mut tx1), (&mut rx_wfe, &mut tx2)] {
        let frame = tx
            .pack(id, InvocationMode::Injected, ssum_args(8), payload(8))
            .unwrap();
        let target = rx.mailbox_target(0, 0).unwrap();
        let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
        let out = rx
            .receive(
                0,
                0,
                Some(frame.wire_size()),
                send.delivered(),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(out.result, 36);
    }
    assert!(
        rx_wfe.stats().cycles.waiting() < rx_poll.stats().cycles.waiting() / 4,
        "WFE should burn far fewer wait cycles ({} vs {})",
        rx_wfe.stats().cycles.waiting(),
        rx_poll.stats().cycles.waiting()
    );
}

#[test]
fn stashing_speeds_up_the_injected_handler() {
    let (mut rx_stash, mut tx1) = testbed(RuntimeConfig::paper_default());
    let (mut rx_nostash, mut tx2) = testbed(RuntimeConfig::paper_default());
    rx_nostash.set_stashing(false);
    let id = rx_stash.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let mut handler_times = Vec::new();
    for (rx, tx) in [(&mut rx_stash, &mut tx1), (&mut rx_nostash, &mut tx2)] {
        let frame = tx
            .pack(
                id,
                InvocationMode::Injected,
                indirect_put_args(7, 64, 4),
                payload(64),
            )
            .unwrap();
        let target = rx.mailbox_target(0, 0).unwrap();
        let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
        let out = rx
            .receive(
                0,
                0,
                Some(frame.wire_size()),
                send.delivered(),
                SimTime::ZERO,
            )
            .unwrap();
        handler_times.push(out.handler_time);
    }
    assert!(
        handler_times[0] < handler_times[1],
        "stashed handler ({}) should be faster than non-stashed ({})",
        handler_times[0],
        handler_times[1]
    );
}

// ---- fast-path cache behaviour -------------------------------------------------

/// Drive `n` injected sends+receives of `elem` through the fast path, into
/// mailbox (`bank`, 0).
fn pump_injected_into(
    rx: &mut TwoChainsHost,
    tx: &mut TwoChainsSender,
    elem: ElementId,
    bank: usize,
    n: usize,
) -> Vec<ReceiveOutcome> {
    let target = rx.mailbox_target(bank, 0).unwrap();
    let mut outs = Vec::with_capacity(n);
    for i in 0..n {
        let args = ssum_args(4);
        let usr = payload(4);
        let send = tx
            .send_spec(
                SimTime::ZERO,
                &msg(elem, InvocationMode::Injected, &args, &usr),
                &target,
            )
            .unwrap();
        let out = rx
            .receive(
                bank,
                0,
                Some(send.wire_bytes),
                send.delivered(),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(out.result, 10, "message {i} result");
        outs.push(out);
    }
    outs
}

/// Drive `n` injected sends+receives of `elem` through the fast path.
fn pump_injected(
    rx: &mut TwoChainsHost,
    tx: &mut TwoChainsSender,
    elem: ElementId,
    n: usize,
) -> Vec<ReceiveOutcome> {
    pump_injected_into(rx, tx, elem, 0, n)
}

#[test]
fn steady_state_injected_dispatch_hits_all_caches() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let outs = pump_injected(&mut rx, &mut tx, id, 5);
    // Exactly one decode+verify and one GOT parse, ever: the acceptance criterion
    // "zero decode_program calls and zero program/GOT clones after the first
    // message for a given element".
    assert_eq!(rx.stats().injected_code_cache_misses, 1);
    assert_eq!(rx.stats().injected_code_cache_hits, 4);
    assert_eq!(rx.stats().got_cache_misses, 1);
    assert_eq!(rx.stats().got_cache_hits, 4);
    assert_eq!(rx.injected_cache_len(), 1);
    // Sender side: one template build, then pure memcpy sends.
    assert_eq!(tx.stats().template_misses, 1);
    assert_eq!(tx.stats().template_hits, 4);
    // The modelled dispatch cost drops once the caches are warm.
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
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    pump_injected(&mut rx, &mut tx, id, 2);
    assert_eq!(rx.stats().injected_code_cache_misses, 1);
    rx.invalidate_injection_caches();
    assert_eq!(rx.injected_cache_len(), 0);
    pump_injected(&mut rx, &mut tx, id, 1);
    assert_eq!(
        rx.stats().injected_code_cache_misses,
        2,
        "post-invalidation miss"
    );
    // Package reinstall also invalidates (element ids may rebind).
    rx.install_package(benchmark_package().unwrap()).unwrap();
    assert_eq!(rx.injected_cache_len(), 0);
}

#[test]
fn live_update_invalidates_caches() {
    use twochains_linker::RiedBuilder;
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    pump_injected(&mut rx, &mut tx, id, 2);
    assert_eq!(rx.injected_cache_len(), 1);
    // Loading any ried is a live update: cached resolutions must not survive.
    rx.load_ried(&RiedBuilder::new("ried_noop").build(), true)
        .unwrap();
    assert_eq!(rx.injected_cache_len(), 0);
    pump_injected(&mut rx, &mut tx, id, 1);
    assert_eq!(rx.stats().injected_code_cache_misses, 2);
}

#[test]
fn hardened_mode_caches_local_resolution() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.security = crate::security::SecurityPolicy::hardened();
    let (mut rx, mut tx) = testbed(cfg);
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    pump_injected(&mut rx, &mut tx, id, 3);
    assert_eq!(rx.stats().got_cache_misses, 1, "one local re-resolution");
    assert_eq!(rx.stats().got_cache_hits, 2);
}

#[test]
fn repeat_sends_are_byte_identical_without_repatching() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let args = ssum_args(4);
    let usr = payload(4);
    // Two sends of the same element land in different mailboxes; capture both
    // wire images before receiving.
    let mut wires = Vec::new();
    for slot in 0..2 {
        let target = rx.mailbox_target(0, slot).unwrap();
        let send = tx
            .send_spec(
                SimTime::ZERO,
                &msg(id, InvocationMode::Injected, &args, &usr),
                &target,
            )
            .unwrap();
        wires.push(
            rx.banks()
                .mailbox(0, slot)
                .unwrap()
                .read_frame(send.wire_bytes)
                .unwrap(),
        );
    }
    // Only one GOT patch / code capture happened for both sends.
    assert_eq!(tx.stats().template_misses, 1);
    assert_eq!(tx.stats().template_hits, 1);
    // The frames are byte-identical except the sequence number (header bytes 4..8
    // and its 3-byte trailer echo).
    let (a, b) = (&wires[0], &wires[1]);
    assert_eq!(a.len(), b.len());
    let len = a.len();
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let sn_bytes = (4..8).contains(&i) || (len - 4..len - 1).contains(&i);
        if sn_bytes {
            continue;
        }
        assert_eq!(
            x, y,
            "wire byte {i} differs between two sends of the same element"
        );
    }
}

#[test]
fn send_spec_matches_pack_plus_send() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let args = ssum_args(8);
    let usr = payload(8);
    // Fast path into slot 0.
    let t0 = rx.mailbox_target(0, 0).unwrap();
    let fast = tx
        .send_spec(
            SimTime::ZERO,
            &msg(id, InvocationMode::Injected, &args, &usr),
            &t0,
        )
        .unwrap();
    // pack+send into slot 1.
    let t1 = rx.mailbox_target(0, 1).unwrap();
    let frame = tx
        .pack(id, InvocationMode::Injected, args.clone(), usr.clone())
        .unwrap();
    let slow = tx.send(SimTime::ZERO, &frame, &t1).unwrap();
    assert_eq!(fast.wire_bytes, slow.wire_bytes);
    assert_eq!(fast.pack_cost, slow.pack_cost, "identical pack-cost model");
    let out_fast = rx
        .receive(0, 0, Some(fast.wire_bytes), fast.delivered(), SimTime::ZERO)
        .unwrap();
    let out_slow = rx
        .receive(0, 1, Some(slow.wire_bytes), slow.delivered(), SimTime::ZERO)
        .unwrap();
    assert_eq!(out_fast.result, out_slow.result);
}

#[test]
fn warm_hit_with_too_small_got_is_rejected_before_execution() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Message 1: well-formed injected frame, populates the code cache.
    pump_injected(&mut rx, &mut tx, id, 1);
    // Message 2: same code, but an empty GOT image. The cold path would reject
    // this at verify time; a warm hit must reject it too, before executing.
    let good = tx
        .pack(id, InvocationMode::Injected, ssum_args(4), payload(4))
        .unwrap();
    let bad = Frame::injected(
        good.header.sn + 1,
        id.0,
        Vec::new(),
        good.code.clone(),
        ssum_args(4),
        payload(4),
    );
    let target = rx.mailbox_target(0, 0).unwrap();
    let send = tx.send(SimTime::ZERO, &bad, &target).unwrap();
    let executions_before = rx.stats().executions;
    let err = rx
        .receive(0, 0, Some(bad.wire_size()), send.delivered(), SimTime::ZERO)
        .unwrap_err();
    assert!(
        matches!(&err, AmError::BadFrame(m) if m.contains("GOT")),
        "expected a pre-execution GOT-size rejection, got {err:?}"
    );
    assert_eq!(
        rx.stats().executions,
        executions_before,
        "nothing must have executed"
    );
}

#[test]
fn hardened_overhead_is_charged_on_every_message() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.security = crate::security::SecurityPolicy::hardened();
    let (mut rx, mut tx) = testbed(cfg);
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let outs = pump_injected(&mut rx, &mut tx, id, 3);
    // The resolution work is cached, but the policy's modelled per-message cost
    // must not be: warm hardened dispatch stays flat, and stays above what the
    // overhead-free model would charge.
    assert_eq!(
        outs[1].dispatch_time, outs[2].dispatch_time,
        "warm dispatch is steady"
    );
    let overhead = crate::security::SecurityPolicy::hardened().per_message_overhead(1);
    assert!(overhead > SimTime::ZERO);
    assert!(
        outs[2].dispatch_time > overhead,
        "warm hardened dispatch ({}) must include the per-message overhead ({overhead})",
        outs[2].dispatch_time
    );
}

#[test]
fn oversized_args_rejected_at_the_sender() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    // 70000 > u16::MAX: the args length does not fit its wire field. Both send
    // paths must error instead of emitting a self-inconsistent header.
    let big = vec![0u8; 70_000];
    let err = tx
        .pack(id, InvocationMode::Local, big.clone(), Vec::new())
        .unwrap_err();
    assert!(matches!(&err, AmError::BadFrame(m) if m.contains("ARGS")));
    let err = tx
        .send_spec(
            SimTime::ZERO,
            &msg(id, InvocationMode::Local, &big, &[]),
            &target,
        )
        .unwrap_err();
    assert!(matches!(&err, AmError::BadFrame(m) if m.contains("ARGS")));
}

#[test]
fn malformed_injected_code_is_rejected_not_cached() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let mut frame = tx
        .pack(id, InvocationMode::Injected, ssum_args(1), payload(1))
        .unwrap();
    // Truncate the code section to garbage of the declared length.
    for b in frame.code.iter_mut() {
        *b = 0xFF;
    }
    let target = rx.mailbox_target(0, 0).unwrap();
    let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
    let err = rx
        .receive(
            0,
            0,
            Some(frame.wire_size()),
            send.delivered(),
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(matches!(err, AmError::BadFrame(_)));
    assert_eq!(
        rx.injected_cache_len(),
        0,
        "garbage must not populate the cache"
    );
}

// ---- sharded receive and burst draining ----------------------------------------

#[test]
fn receive_routes_counters_to_the_owning_shard() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    assert_eq!(rx.num_shards(), 2);
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Bank 0 -> shard 0, bank 1 -> shard 1.
    pump_injected_into(&mut rx, &mut tx, id, 0, 2);
    pump_injected_into(&mut rx, &mut tx, id, 1, 3);
    assert_eq!(rx.shard_stats(0).unwrap().messages_received, 2);
    assert_eq!(rx.shard_stats(1).unwrap().messages_received, 3);
    assert!(rx.shard_stats(2).is_none());
    // The aggregate view sums the shards; the shared code cache decoded once.
    assert_eq!(rx.stats().messages_received, 5);
    assert_eq!(rx.stats().injected_code_cache_misses, 1);
    assert_eq!(rx.stats().injected_code_cache_hits, 4);
}

#[test]
fn install_package_invalidation_is_visible_to_all_shards() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Warm both shards through their own banks (shared cache: one miss total).
    pump_injected_into(&mut rx, &mut tx, id, 0, 1);
    pump_injected_into(&mut rx, &mut tx, id, 1, 1);
    assert_eq!(rx.stats().injected_code_cache_misses, 1);
    assert_eq!(rx.stats().injected_code_cache_hits, 1);
    // Reinstall: element ids may rebind. The shared-cache invalidation must be
    // visible to *both* shards — each pays a fresh miss on its next message.
    rx.install_package(benchmark_package().unwrap()).unwrap();
    assert_eq!(rx.injected_cache_len(), 0);
    pump_injected_into(&mut rx, &mut tx, id, 0, 1);
    pump_injected_into(&mut rx, &mut tx, id, 1, 1);
    assert_eq!(
        rx.stats().injected_code_cache_misses,
        2,
        "exactly one shard re-decodes after the reinstall; the other hits its entry"
    );
    assert_eq!(rx.shard_stats(0).unwrap().injected_code_cache_misses, 2);
    assert_eq!(rx.shard_stats(1).unwrap().injected_code_cache_hits, 2);
}

#[test]
fn receive_burst_drains_a_shards_banks_in_one_call() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Land frames in banks 0..4 (slot 0 and 1 of each), 8 frames total.
    let mut delivered = SimTime::ZERO;
    for bank in 0..4 {
        for slot in 0..2 {
            let target = rx.mailbox_target(bank, slot).unwrap();
            let send = tx
                .send_spec(
                    SimTime::ZERO,
                    &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
                    &target,
                )
                .unwrap();
            delivered = delivered.max(send.delivered());
        }
    }
    // Shard 0 owns banks 0 and 2; shard 1 owns banks 1 and 3.
    let out0 = rx.receive_burst(0, usize::MAX, delivered).unwrap();
    assert_eq!(out0.len(), 4);
    assert!(out0.rejected.is_empty());
    assert_eq!(
        out0.frames
            .iter()
            .map(|f| (f.bank, f.slot))
            .collect::<Vec<_>>(),
        vec![(0, 0), (0, 1), (2, 0), (2, 1)],
        "scan order is bank-major over owned banks"
    );
    for f in &out0.frames {
        assert_eq!(f.outcome.result, 10);
    }
    assert!(out0.drained_at > delivered);
    let out1 = rx.receive_burst(1, usize::MAX, delivered).unwrap();
    assert_eq!(out1.len(), 4);
    // Everything drained: a second burst finds nothing.
    assert!(rx
        .receive_burst(0, usize::MAX, delivered)
        .unwrap()
        .is_empty());
    assert_eq!(rx.stats().messages_received, 8);
    assert_eq!(rx.stats().executions, 8);
    // max_frames is respected.
    assert!(rx.receive_burst(5, 1, delivered).is_err(), "no such shard");
}

#[test]
fn receive_burst_respects_max_frames() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    for slot in 0..3 {
        let target = rx.mailbox_target(0, slot).unwrap();
        tx.send_spec(
            SimTime::ZERO,
            &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
            &target,
        )
        .unwrap();
    }
    let first = rx.receive_burst(0, 2, SimTime::from_us(100)).unwrap();
    assert_eq!(first.len(), 2);
    let rest = rx.receive_burst(0, 2, first.drained_at).unwrap();
    assert_eq!(rest.len(), 1);
    assert!(rx.receive_burst(0, 2, rest.drained_at).unwrap().is_empty());
}

#[test]
fn receive_burst_amortises_the_per_message_wait() {
    // Same five frames, drained one-by-one vs in one burst: the burst pays the
    // scan once instead of one wait per message, so its per-message overhead is
    // strictly smaller while results and executions match.
    let (mut rx_seq, mut tx_seq) = testbed(RuntimeConfig::paper_default());
    let (mut rx_burst, mut tx_burst) = testbed(RuntimeConfig::paper_default());
    let id = rx_seq.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let mut sends = Vec::new();
    for (rx, tx) in [(&rx_seq, &mut tx_seq), (&rx_burst, &mut tx_burst)] {
        for slot in 0..5 {
            let target = rx.mailbox_target(0, slot).unwrap();
            let send = tx
                .send_spec(
                    SimTime::ZERO,
                    &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
                    &target,
                )
                .unwrap();
            sends.push(send);
        }
    }
    let start = sends
        .iter()
        .map(|s| s.delivered())
        .fold(SimTime::ZERO, SimTime::max);
    let mut ready = start;
    for slot in 0..5 {
        let out = rx_seq.receive(0, slot, None, ready, ready).unwrap();
        ready = out.handler_done;
    }
    let burst = rx_burst.receive_burst(0, usize::MAX, start).unwrap();
    assert_eq!(burst.len(), 5);
    assert_eq!(rx_burst.stats().executions, rx_seq.stats().executions);
    assert!(
        rx_burst.stats().wait_time < rx_seq.stats().wait_time,
        "burst wait ({}) must undercut per-message polling ({})",
        rx_burst.stats().wait_time,
        rx_seq.stats().wait_time
    );
    assert!(
        burst.drained_at < ready,
        "burst completion ({}) should beat sequential draining ({})",
        burst.drained_at,
        ready
    );
}

#[test]
fn receive_burst_drops_malformed_frames_and_frees_their_slots() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Slot 0: good frame. Slot 1: garbage code of the declared length.
    let t0 = rx.mailbox_target(0, 0).unwrap();
    tx.send_spec(
        SimTime::ZERO,
        &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
        &t0,
    )
    .unwrap();
    let mut bad = tx
        .pack(id, InvocationMode::Injected, ssum_args(4), payload(4))
        .unwrap();
    for b in bad.code.iter_mut() {
        *b = 0xFF;
    }
    let t1 = rx.mailbox_target(0, 1).unwrap();
    tx.send(SimTime::ZERO, &bad, &t1).unwrap();

    let out = rx
        .receive_burst(0, usize::MAX, SimTime::from_us(100))
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.frames[0].outcome.result, 10);
    assert_eq!(out.rejected.len(), 1);
    assert_eq!((out.rejected[0].0, out.rejected[0].1), (0, 1));
    assert!(matches!(out.rejected[0].2, AmError::BadFrame(_)));
    // The bad slot was cleared: the bank cannot wedge, and a rescan is clean.
    assert!(rx
        .receive_burst(0, usize::MAX, out.drained_at)
        .unwrap()
        .is_empty());
}

#[test]
fn shard_drains_split_the_host_for_parallel_draining() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(4));
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Warm the shared caches first so the parallel phase is deterministic (with a
    // cold cache, racing shards could each decode the first message for the key).
    pump_injected_into(&mut rx, &mut tx, id, 0, 1);
    for bank in 0..4 {
        let target = rx.mailbox_target(bank, 0).unwrap();
        tx.send_spec(
            SimTime::ZERO,
            &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
            &target,
        )
        .unwrap();
    }
    let now = SimTime::from_us(100);
    let drains = rx.shard_drains();
    assert_eq!(drains.len(), 4);
    // Genuinely parallel: each drain handle moves to its own OS thread.
    let counts: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = drains
            .into_iter()
            .map(|mut d| s.spawn(move || d.receive_burst(usize::MAX, now).unwrap().len()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(counts, vec![1, 1, 1, 1]);
    assert_eq!(rx.stats().messages_received, 5);
    assert_eq!(rx.stats().injected_code_cache_misses, 1, "shared cache");
    assert_eq!(rx.stats().injected_code_cache_hits, 4);
    // The server-side effect happened for every message (shared address space).
    assert_eq!(rx.stats().executions, 5);
}

#[test]
fn receive_burst_quarantines_poisoned_slots() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Slot 0: a good frame. Slot 1: a raw put whose header declares a frame far
    // larger than the mailbox — invisible to the readiness scan, and without the
    // quarantine sweep it would occupy the slot forever.
    let t0 = rx.mailbox_target(0, 0).unwrap();
    tx.send_spec(
        SimTime::ZERO,
        &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
        &t0,
    )
    .unwrap();
    let mut poison = Frame::local(1, 0, vec![0; 20], vec![0; 4]).encode();
    poison[8..12].copy_from_slice(&1_000_000u32.to_le_bytes());
    let t1 = rx.mailbox_target(0, 1).unwrap();
    tx.endpoint_mut()
        .put(SimTime::ZERO, &poison, &t1.region, t1.offset)
        .unwrap();

    let out = rx
        .receive_burst(0, usize::MAX, SimTime::from_us(100))
        .unwrap();
    assert_eq!(out.len(), 1, "the good frame is drained");
    assert_eq!(out.rejected.len(), 1, "the poisoned slot is quarantined");
    assert_eq!((out.rejected[0].0, out.rejected[0].1), (0, 1));
    assert!(matches!(out.rejected[0].2, AmError::BadFrame(_)));
    // The slot is reclaimed: nothing left to drain or quarantine, and a fresh
    // send into it works.
    assert!(rx
        .receive_burst(0, usize::MAX, out.drained_at)
        .unwrap()
        .is_empty());
    let send = tx
        .send_spec(
            SimTime::ZERO,
            &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
            &t1,
        )
        .unwrap();
    let out = rx.receive_burst(0, usize::MAX, send.delivered()).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.frames[0].outcome.result, 10);
}

#[test]
fn shard_drain_rejects_foreign_banks() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // A frame sits in bank 1 (owned by shard 1).
    let target = rx.mailbox_target(1, 0).unwrap();
    let send = tx
        .send_spec(
            SimTime::ZERO,
            &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
            &target,
        )
        .unwrap();
    let mut drains = rx.shard_drains();
    // Shard 0 must not be able to drain shard 1's bank (two threads could race
    // on the slot); shard 1 drains it fine.
    let err = drains[0]
        .receive(1, 0, Some(send.wire_bytes), send.delivered(), SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, AmError::InvalidConfig(_)));
    let out = drains[1]
        .receive(1, 0, Some(send.wire_bytes), send.delivered(), SimTime::ZERO)
        .unwrap();
    assert_eq!(out.result, 10);
}

#[test]
fn shard_local_space_partitions_writable_state_per_shard() {
    let (mut rx, mut tx) = testbed(
        RuntimeConfig::paper_default()
            .with_shards(2)
            .with_shard_local_space(),
    );
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    // The same key through two different banks (= two different shards): each
    // shard probes its own private table instance, so the returned addresses
    // live in disjoint per-shard ranges.
    let mut results = Vec::new();
    for bank in [0usize, 1] {
        let target = rx.mailbox_target(bank, 0).unwrap();
        let send = tx
            .send_spec(
                SimTime::ZERO,
                &msg(
                    id,
                    InvocationMode::Injected,
                    &indirect_put_args(42, 4, 4),
                    &payload(4),
                ),
                &target,
            )
            .unwrap();
        let out = rx
            .receive(
                bank,
                0,
                Some(send.wire_bytes),
                send.delivered(),
                SimTime::ZERO,
            )
            .unwrap();
        results.push(out.result);
    }
    assert_ne!(
        results[0], results[1],
        "each shard claims a slot in its own table instance"
    );
    // Each shard's bump cursor moved; the canonical (exclusive) instance did not.
    for shard in 0..2 {
        let cursor = rx.read_shard_data(shard, "table.data", 0, 8).unwrap();
        assert_ne!(u64::from_le_bytes(cursor.try_into().unwrap()), 0);
    }
    let exclusive_cursor = rx.read_data("table.data", 0, 8).unwrap();
    assert_eq!(u64::from_le_bytes(exclusive_cursor.try_into().unwrap()), 0);
    // Re-putting the key through the same shard reuses that shard's slot.
    let target = rx.mailbox_target(0, 1).unwrap();
    let send = tx
        .send_spec(
            SimTime::ZERO,
            &msg(
                id,
                InvocationMode::Injected,
                &indirect_put_args(42, 4, 4),
                &payload(4),
            ),
            &target,
        )
        .unwrap();
    let again = rx
        .receive(0, 1, Some(send.wire_bytes), send.delivered(), SimTime::ZERO)
        .unwrap();
    assert_eq!(again.result, results[0]);
}

#[test]
fn cross_shard_jam_falls_back_to_the_exclusive_space() {
    use twochains_linker::{JamDefinition, PackageBuilder, SymbolRef};
    // A jam that *declares* cross-shard writes: it appends to the process-wide
    // result array, so in shard-local mode it must run against the canonical
    // instance under the exclusive lock — from every shard.
    let mut asm = twochains_jamvm::Assembler::new();
    asm.load_imm(twochains_jamvm::Reg(0), 5)
        .call_extern(0, 1)
        .ret();
    let program = asm.finish().unwrap();
    let pkg = || {
        PackageBuilder::new("cross_pkg")
            .ried(crate::builtin::ried_array())
            .jam(
                JamDefinition::new("jam_cross_append", program.clone())
                    .with_got(vec![SymbolRef::func("array.append")])
                    .with_args_size(20)
                    .with_cross_shard_writes(),
            )
            .build()
            .unwrap()
    };
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut rx = TwoChainsHost::new(
        &fabric,
        b,
        RuntimeConfig::paper_default()
            .with_shards(2)
            .with_shard_local_space(),
    )
    .unwrap();
    rx.install_package(pkg()).unwrap();
    let mut tx = TwoChainsSender::new(fabric.endpoint(a, b).unwrap(), pkg());
    let id = rx.package().unwrap().id_of("jam_cross_append").unwrap();
    tx.set_remote_got(id, &rx.export_got(id).unwrap());
    for bank in [0usize, 1] {
        let target = rx.mailbox_target(bank, 0).unwrap();
        let send = tx
            .send_spec(
                SimTime::ZERO,
                &msg(id, InvocationMode::Injected, &[0u8; 20], &[]),
                &target,
            )
            .unwrap();
        rx.receive(
            bank,
            0,
            Some(send.wire_bytes),
            send.delivered(),
            SimTime::ZERO,
        )
        .unwrap();
    }
    // Both appends landed in the one canonical array, in order.
    let count = rx.read_data("array.base", 0, 8).unwrap();
    assert_eq!(u64::from_le_bytes(count.try_into().unwrap()), 2);
    // The per-shard instances stayed untouched.
    for shard in 0..2 {
        let local = rx.read_shard_data(shard, "array.base", 0, 8).unwrap();
        assert_eq!(u64::from_le_bytes(local.try_into().unwrap()), 0);
    }
}

#[test]
fn shard_local_rejects_writable_data_got_refs_without_declaration() {
    use twochains_linker::{JamDefinition, PackageBuilder, SymbolRef};
    // A GOT data slot on a writable export bakes in the canonical address,
    // which the lock-free shard-local path does not map: installing such a jam
    // without the cross-shard declaration must fail loudly at install time,
    // and succeed once declared (it then runs on the exclusive path).
    let mut asm = twochains_jamvm::Assembler::new();
    asm.ret();
    let program = asm.finish().unwrap();
    let pkg = |declared: bool| {
        let mut def = JamDefinition::new("jam_data_ref", program.clone())
            .with_got(vec![SymbolRef::data("table.data")]);
        if declared {
            def = def.with_cross_shard_writes();
        }
        PackageBuilder::new("data_ref_pkg")
            .ried(crate::builtin::ried_table())
            .jam(def)
            .build()
            .unwrap()
    };
    let (fabric, _, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut rx = TwoChainsHost::new(
        &fabric,
        b,
        RuntimeConfig::paper_default()
            .with_shards(2)
            .with_shard_local_space(),
    )
    .unwrap();
    let err = rx.install_package(pkg(false)).unwrap_err();
    assert!(
        matches!(&err, AmError::InvalidConfig(m) if m.contains("cross-shard")),
        "expected the install-time contract error, got {err:?}"
    );
    rx.install_package(pkg(true))
        .expect("declared cross-shard jam installs fine");
    // Exclusive mode never needed the declaration.
    let (fabric2, _, b2) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut rx2 = TwoChainsHost::new(&fabric2, b2, RuntimeConfig::paper_default()).unwrap();
    rx2.install_package(pkg(false)).unwrap();
}

#[test]
fn injected_writable_data_got_routes_to_the_exclusive_path() {
    // The runtime backstop behind the install-time contract check: an injected
    // frame for an element *outside* the installed package, carrying a GOT
    // data reference into a writable object's canonical range, must still
    // dispatch (on the exclusive path, where that address is mapped) instead
    // of faulting on the lock-free shard-local path.
    use twochains_jamvm::{encode_program, ExternRef};
    let (mut rx, mut tx) = testbed(
        RuntimeConfig::paper_default()
            .with_shards(2)
            .with_shard_local_space(),
    );
    // Recover the canonical address of the writable table heap by replaying
    // the deterministic namespace layout (same rieds, same load order, same
    // address cursor as the host's install).
    let mut ns = twochains_linker::LinkerNamespace::new();
    for ried in crate::builtin::benchmark_rieds() {
        ns.load_ried(&ried, true).unwrap();
    }
    let canonical = ns.data_addr("table.data").unwrap();

    let mut asm = twochains_jamvm::Assembler::new();
    asm.load_imm(twochains_jamvm::Reg(0), 0).ret();
    let code = encode_program(&asm.finish().unwrap());
    let got = GotImage::from_refs(vec![ExternRef::Data(canonical)]);
    let frame = Frame::injected(7, 999, got.to_bytes(), code, vec![0u8; 20], vec![]);
    let t = rx.mailbox_target(0, 0).unwrap();
    let send = tx.send(SimTime::ZERO, &frame, &t).unwrap();
    let out = rx
        .receive(
            0,
            0,
            Some(frame.wire_size()),
            send.delivered(),
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(out.result, 0, "the frame dispatched and executed");
    assert!(out.exec.is_some());
}

#[test]
fn more_shards_than_cores_is_rejected() {
    let (fabric, _, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    // cluster2021 has 4 cores; 5 shards would alias two shards onto one
    // core's bus and invalidation inbox.
    let mut cfg = RuntimeConfig::paper_default().with_shards(5);
    cfg.banks = 5;
    let err = TwoChainsHost::new(&fabric, b, cfg).unwrap_err();
    assert!(matches!(&err, AmError::InvalidConfig(m) if m.contains("cores")));
}

#[test]
fn shard_local_and_exclusive_modes_agree_on_results() {
    // The space mode is a concurrency strategy, not a semantics change for a
    // single shard: the same send stream produces the same results and the
    // same modelled times in both modes.
    let run = |cfg: RuntimeConfig| {
        let (mut rx, mut tx) = testbed(cfg);
        let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
        let outs = pump_injected(&mut rx, &mut tx, id, 4);
        outs.iter()
            .map(|o| (o.result, o.handler_time))
            .collect::<Vec<_>>()
    };
    let exclusive = run(RuntimeConfig::paper_default());
    let shard_local = run(RuntimeConfig::paper_default().with_shard_local_space());
    assert_eq!(exclusive, shard_local);
}

#[test]
fn per_core_cache_stats_merge_into_the_global_view() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().with_shards(2));
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    pump_injected_into(&mut rx, &mut tx, id, 0, 3);
    pump_injected_into(&mut rx, &mut tx, id, 1, 3);
    let s0 = rx.shard_cache_stats(0).unwrap();
    let s1 = rx.shard_cache_stats(1).unwrap();
    assert!(rx.shard_cache_stats(2).is_none());
    // Both shards executed warm messages on their own cores: each charged
    // private-cache traffic of its own.
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

#[test]
fn quarantine_and_rejection_counters_reach_the_merged_stats() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    // Slot 0: good. Slot 1: rejected at dispatch (garbage code). Slot 2: a
    // poisoned header quarantined by the scan.
    let t0 = rx.mailbox_target(0, 0).unwrap();
    tx.send_spec(
        SimTime::ZERO,
        &msg(id, InvocationMode::Injected, &ssum_args(4), &payload(4)),
        &t0,
    )
    .unwrap();
    let mut bad = tx
        .pack(id, InvocationMode::Injected, ssum_args(4), payload(4))
        .unwrap();
    for b in bad.code.iter_mut() {
        *b = 0xFF;
    }
    let t1 = rx.mailbox_target(0, 1).unwrap();
    tx.send(SimTime::ZERO, &bad, &t1).unwrap();
    let mut poison = Frame::local(1, 0, vec![0; 20], vec![0; 4]).encode();
    poison[8..12].copy_from_slice(&1_000_000u32.to_le_bytes());
    let t2 = rx.mailbox_target(0, 2).unwrap();
    tx.endpoint_mut()
        .put(SimTime::ZERO, &poison, &t2.region, t2.offset)
        .unwrap();

    let out = rx
        .receive_burst(0, usize::MAX, SimTime::from_us(100))
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rejected.len(), 2);
    // The per-shard counters made it into the merged host view (they used to
    // be visible only in the per-burst outcome).
    assert_eq!(rx.stats().frames_rejected, 1);
    assert_eq!(rx.stats().poisoned_quarantined, 1);
    assert_eq!(rx.shard_stats(0).unwrap().poisoned_quarantined, 1);
}

#[test]
fn segmented_eviction_keeps_the_cache_bounded_and_counts_evictions() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.injection_cache_entries = 8;
    let (mut rx, mut tx) = testbed(cfg);
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let base = tx
        .pack(id, InvocationMode::Injected, ssum_args(4), payload(4))
        .unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    // 12 distinct code bodies (trailing Nop padding changes the content hash but
    // not the behaviour) against a cache of 8: the old clear-on-full policy would
    // collapse the cache to ~1 entry at the cap; segmented LRU stays full and
    // evicts exactly the overflow.
    for i in 0..12u32 {
        let mut code = base.code.clone();
        let mut pad = vec![Instr::Nop; i as usize + 1];
        pad.push(Instr::Ret); // the verifier requires control flow to end at a Ret
        code.extend_from_slice(&encode_program(&pad));
        let frame = Frame::injected(
            1000 + i,
            id.0,
            base.got.clone(),
            code,
            ssum_args(4),
            payload(4),
        );
        let send = tx.send(SimTime::ZERO, &frame, &target).unwrap();
        let out = rx
            .receive(
                0,
                0,
                Some(frame.wire_size()),
                send.delivered(),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(out.result, 10);
    }
    assert_eq!(rx.stats().injected_code_cache_misses, 12);
    assert_eq!(
        rx.injected_cache_len(),
        8,
        "cache holds capacity instead of clearing on full"
    );
    assert_eq!(rx.stats().injected_code_cache_evictions, 4);
    // The GOT image was identical throughout: one parse, no GOT evictions.
    assert_eq!(rx.stats().got_cache_misses, 1);
    assert_eq!(rx.stats().got_cache_evictions, 0);
}

/// The shard's code-digest memo replaces a hash, never a probe: a stream that
/// interleaves two injected elements — runs of one, strict alternation, and a
/// cache invalidation in the middle of a run, where the memo still holds the
/// code whose cache entries are gone — reads the results and the cache
/// counters this scenario read before the memo existed (the constants were
/// captured on the parent commit). `tests/receive_trace.rs` pins the same
/// property against unedited goldens: its `burst-mixed` container interleaves
/// injected Server-Side Sum frames with Local ones behind an injected
/// Indirect Put.
#[test]
fn interleaved_injected_elements_read_the_same_results_and_cache_counters_as_without_a_memo() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let ssum = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let iput = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let mut results = Vec::new();
    for (i, which) in b"SSPSPPSPSSSPPSPSPPSSPSPS".iter().enumerate() {
        if i == 10 {
            rx.invalidate_injection_caches();
        }
        let n = i % 7 + 1;
        let spec = match which {
            b'S' => msg(
                ssum,
                InvocationMode::Injected,
                &ssum_args(n as u32),
                &payload(n),
            ),
            _ => msg(
                iput,
                InvocationMode::Injected,
                &indirect_put_args(i as u64 % 5, n as u32, 4),
                &payload(n),
            ),
        };
        let slot = i % 16;
        let target = rx.mailbox_target(0, slot).unwrap();
        let sent = tx.send_spec(SimTime::ZERO, &spec, &target).unwrap();
        let out = rx
            .receive(
                0,
                slot,
                Some(sent.wire_bytes),
                sent.delivered(),
                SimTime::ZERO,
            )
            .unwrap();
        results.push(out.result);
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
    // Sums of `1..=n`; the bucket address each Indirect Put key landed at.
    let (k0, k1, k2, k4) = (1073885232, 1073885256, 1073885200, 1073885212);
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
    use twochains_jamvm::{isa::Width, Assembler, Reg};
    for cfg in [
        RuntimeConfig::paper_default(),
        RuntimeConfig::paper_default().with_shard_local_space(),
    ] {
        let (mut rx, mut tx) = testbed(cfg);
        // r1 is the USR base on entry: read the second word of USR.
        let mut asm = Assembler::new();
        asm.load(Width::B8, Reg(0), Reg(1), 8).ret();
        let code = encode_program(&asm.finish().unwrap());
        let target = rx.mailbox_target(0, 0).unwrap();
        let mut run = |sn: u32, usr: Vec<u8>| {
            let got = GotImage::with_slots(0).to_bytes();
            let frame = Frame::injected(sn, 999, got, code.clone(), vec![0; 20], usr);
            let sent = tx.send(SimTime::ZERO, &frame, &target).unwrap();
            rx.receive(
                0,
                0,
                Some(frame.wire_size()),
                sent.delivered(),
                SimTime::ZERO,
            )
            .map(|out| out.result)
        };
        assert_eq!(run(1, vec![0xAA; 64]).unwrap(), 0xAAAA_AAAA_AAAA_AAAA);
        match run(2, vec![0xBB; 8]) {
            Err(AmError::Exec(why)) => assert!(why.contains("unmapped"), "{why}"),
            other => panic!("read past an 8-byte USR: {other:?}"),
        }
        assert_eq!(run(3, vec![0xCC; 16]).unwrap(), 0xCCCC_CCCC_CCCC_CCCC);
    }
}

// --- Sender fleet -----------------------------------------------------------

/// Build a host plus a connected [`SenderFleet`](super::SenderFleet) with the
/// given shard/stream count over the standard two-host testbed.
fn fleet_testbed(shards: usize, window: usize) -> (TwoChainsHost, super::SenderFleet) {
    let cfg = RuntimeConfig::paper_default()
        .with_shards(shards)
        .with_sender_streams(shards);
    fleet_testbed_with(cfg, window)
}

fn fleet_testbed_with(
    mut cfg: RuntimeConfig,
    window: usize,
) -> (TwoChainsHost, super::SenderFleet) {
    cfg.frame_capacity = 4096;
    cfg.completion_window = window;
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let fleet =
        super::SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap();
    (host, fleet)
}

/// Fill every slot once and burst-drain every shard, returning the merged
/// receiver stats — the shared scaffold of the credit-flush tests below.
fn fill_and_drain_once(host: &mut TwoChainsHost, fleet: &mut super::SenderFleet) -> RuntimeStats {
    let horizons = fleet
        .fill_all(
            host.builtin_id(BuiltinJam::IndirectPut).unwrap(),
            InvocationMode::Injected,
            0,
            &fleet_payload,
        )
        .unwrap();
    for (shard, &start) in horizons.iter().enumerate() {
        let out = host.receive_burst(shard, usize::MAX, start).unwrap();
        assert!(out.rejected.is_empty());
    }
    host.stats()
}

#[test]
fn adaptive_credit_flushes_coalesce_tokens_into_row_spans() {
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    let stats = fill_and_drain_once(&mut host, &mut fleet);
    let frames = host.config().total_mailboxes() as u64;
    // Token accounting: one credit and one wire byte per retired frame,
    // however the flushes batched them.
    assert_eq!(stats.credits_returned, frames);
    assert_eq!(stats.credit_put_bytes, frames);
    // The flush-shape counters tell the batching story: far fewer puts than
    // tokens, spans as wide as a whole bank row (each row fills during the
    // burst, and row-fill is an adaptive flush trigger).
    assert!(stats.credit_flushes > 0, "tokens must actually be posted");
    assert!(
        stats.credit_flushes < frames,
        "adaptive policy must batch tokens ({} flushes for {frames} credits)",
        stats.credit_flushes
    );
    assert!(
        stats.credit_flush_bytes >= frames,
        "spans cover every token"
    );
    let per_bank = host.config().mailboxes_per_bank as u64;
    assert_eq!(
        stats.credit_flush_max_span, per_bank,
        "a filled row flushes as one full-row span"
    );
    assert!(stats.credit_put_time > SimTime::ZERO, "posting is charged");
}

#[test]
fn lifetime_flush_totals_survive_stats_resets() {
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    fill_and_drain_once(&mut host, &mut fleet);
    let before: Vec<_> = (0..2)
        .map(|s| host.credit_flush_lifetime(s).unwrap())
        .collect();
    for &(puts, bytes, max_span) in &before {
        assert!(puts > 0 && bytes > 0 && max_span > 0);
    }
    host.reset_stats();
    let zeroed = host.stats();
    assert_eq!(zeroed.credit_flushes, 0);
    assert_eq!(zeroed.credit_flush_bytes, 0);
    assert_eq!(zeroed.credit_flush_max_span, 0);
    // The engine's own totals are deliberately immune to the reset: zeroing
    // them mid-phase would desynchronise the token sequence bookkeeping.
    for (s, &b) in before.iter().enumerate() {
        assert_eq!(host.credit_flush_lifetime(s).unwrap(), b);
    }
}

/// The deterministic Indirect Put payload the fleet tests fill with.
fn fleet_payload(ctx: super::SlotCtx) -> (Vec<u8>, Vec<u8>) {
    let key = ctx
        .round
        .wrapping_mul(13)
        .wrapping_add((ctx.bank * 16 + ctx.slot) as u64)
        % 48;
    (indirect_put_args(key, 4, 4), payload(4))
}

#[test]
fn session_handshake_partitions_banks_and_exports_gots() {
    let (host, _) = fleet_testbed(2, 64);
    let session = host.session_handshake().unwrap();
    assert_eq!(session.shards, 2);
    let handshakes = session.streams;
    assert_eq!(handshakes.len(), 2);
    let total: usize = handshakes.iter().map(|h| h.targets.len()).sum();
    assert_eq!(total, host.config().total_mailboxes());
    for hs in &handshakes {
        assert_eq!(hs.streams, 2);
        assert!(!hs.targets.is_empty());
        // Every target sits in a bank the stream owns, and the targets match
        // what mailbox_target() hands out slot for slot.
        for t in &hs.targets {
            assert_eq!(t.bank % 2, hs.stream);
            assert_eq!(host.mailbox_target(t.bank, t.slot).unwrap(), t.target);
        }
        // The handshake ships the receiver-resolved GOT image of every
        // installed element — identical to the one-at-a-time export_got path.
        assert_eq!(hs.gots.len(), 5, "every builtin jam exported");
        for (id, got) in &hs.gots {
            assert_eq!(host.export_got(*id).unwrap(), *got);
        }
    }
}

#[test]
fn handshake_without_package_is_rejected() {
    let (fabric, _, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let host = TwoChainsHost::new(&fabric, b, RuntimeConfig::paper_default()).unwrap();
    assert!(matches!(
        host.session_handshake(),
        Err(AmError::InvalidConfig(_))
    ));
}

#[test]
fn fleet_fill_drains_to_the_same_results_as_a_single_sender() {
    // The fleet's sequential fill over 2 streams must be observationally
    // identical to one sender filling every slot with the same generator.
    let (mut fleet_host, mut fleet) = fleet_testbed(2, 64);
    let horizons = fleet
        .fill_all(
            fleet_host.builtin_id(BuiltinJam::IndirectPut).unwrap(),
            InvocationMode::Injected,
            0,
            &fleet_payload,
        )
        .unwrap();
    assert_eq!(horizons.len(), 2);
    let mut fleet_results = Vec::new();
    for (shard, &start) in horizons.iter().enumerate() {
        let out = fleet_host.receive_burst(shard, usize::MAX, start).unwrap();
        assert!(out.rejected.is_empty());
        fleet_results.extend(out.frames.iter().map(|f| f.outcome.result));
    }

    let mut cfg = RuntimeConfig::paper_default();
    cfg.frame_capacity = 4096;
    let (mut rx, mut tx) = testbed(cfg);
    let elem = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let mut single_results = Vec::new();
    for bank in 0..rx.config().banks {
        for slot in 0..rx.config().mailboxes_per_bank {
            let (args, usr) = fleet_payload(super::SlotCtx {
                stream: bank % 2,
                bank,
                slot,
                round: 0,
            });
            let target = rx.mailbox_target(bank, slot).unwrap();
            let sent = tx
                .send_spec(
                    SimTime::ZERO,
                    &msg(elem, InvocationMode::Injected, &args, &usr),
                    &target,
                )
                .unwrap();
            let out = rx
                .receive(
                    bank,
                    slot,
                    Some(sent.wire_bytes),
                    sent.delivered(),
                    SimTime::ZERO,
                )
                .unwrap();
            single_results.push(out.result);
        }
    }
    fleet_results.sort_unstable();
    single_results.sort_unstable();
    assert_eq!(fleet_results, single_results);

    // Per-lane counters and the merged fleet view line up: every lane sent its
    // own slots with its own template cache (one miss each).
    let merged = fleet.stats();
    assert_eq!(merged.messages_sent as usize, fleet_results.len());
    for stream in 0..2 {
        let lane = fleet.lane(stream).unwrap();
        assert_eq!(lane.stream_id(), stream);
        assert_eq!(lane.stats().messages_sent as usize, lane.slots());
        assert_eq!(lane.stats().template_misses, 1, "per-lane template cache");
    }
    assert_eq!(merged.template_misses, 2);
}

#[test]
fn backpressure_pauses_only_the_saturated_stream() {
    // Window of 1: every send after a stream's first must harvest its own
    // completion queue. Drive lane 0 through three rounds while lane 1 sends
    // one round — lane 0 stalls repeatedly, lane 1 must never observe it.
    // Per-frame aggregation: the stall-per-send pattern is a property of
    // one tracked put per frame, which batching deliberately amortizes away.
    let cfg = RuntimeConfig::paper_default()
        .with_shards(2)
        .with_sender_streams(2)
        .with_per_frame_aggregation();
    let (host, mut fleet) = fleet_testbed_with(cfg, 1);
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let (head, tail) = fleet.lanes_mut().split_at_mut(1);
    let lane0 = &mut head[0];
    let lane1 = &mut tail[0];
    for round in 0..3u64 {
        lane0
            .fill(elem, InvocationMode::Injected, round, &fleet_payload)
            .unwrap();
    }
    lane1
        .fill(elem, InvocationMode::Injected, 0, &fleet_payload)
        .unwrap();
    let slots0 = lane0.stats().messages_sent;
    assert_eq!(slots0 as usize, 3 * host.config().total_mailboxes() / 2);
    assert!(
        lane0.stats().sends_backpressured >= slots0 - 1,
        "window 1 stalls every follow-up send"
    );
    assert_eq!(
        lane1.stats().sends_backpressured,
        lane1.stats().messages_sent - 1,
        "lane 1 pays only for its own window, never lane 0's saturation"
    );
    assert!(lane0.stats().completions_harvested >= lane0.stats().sends_backpressured);
    assert_eq!(
        fleet.stats().sends_backpressured,
        slots0 - 1 + fleet.lane(1).unwrap().stats().messages_sent - 1
    );
}

#[test]
fn connect_fleet_installs_the_credit_path() {
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(2)
        .with_sender_streams(2);
    cfg.frame_capacity = 4096;
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    assert!(!host.credit_path_installed());
    let _fleet =
        super::SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap();
    assert!(host.credit_path_installed());
}

#[test]
fn install_credit_returns_validates_geometry() {
    let mut cfg = RuntimeConfig::paper_default().with_shards(2);
    cfg.frame_capacity = 4096;
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let per_bank = host.config().mailboxes_per_bank;
    let region = fabric
        .host(a)
        .unwrap()
        .register(256, twochains_fabric::AccessFlags::rw())
        .unwrap();
    let hs = |stream: usize, streams: usize| super::CreditHandshake {
        stream,
        streams,
        per_bank,
        descriptor: region.descriptor(),
        nack: None,
    };
    // Wrong handshake count: the closed pairing needs one per shard.
    assert!(host
        .install_credit_returns(&fabric, vec![hs(0, 2)])
        .is_err());
    // Stream geometry that does not match the shard count.
    assert!(host
        .install_credit_returns(&fabric, vec![hs(0, 3), hs(1, 3)])
        .is_err());
    // Duplicate stream.
    assert!(host
        .install_credit_returns(&fabric, vec![hs(0, 2), hs(0, 2)])
        .is_err());
    // Mismatched mailbox geometry.
    let mut bad = hs(1, 2);
    bad.per_bank = per_bank + 1;
    assert!(host
        .install_credit_returns(&fabric, vec![hs(0, 2), bad])
        .is_err());
    // A region too small for the stream's bank rows.
    let tiny = fabric
        .host(a)
        .unwrap()
        .register(8, twochains_fabric::AccessFlags::rw())
        .unwrap();
    let mut small = hs(1, 2);
    small.descriptor = tiny.descriptor();
    assert!(host
        .install_credit_returns(&fabric, vec![hs(0, 2), small])
        .is_err());
    // Two streams over one region would clobber each other's token bytes.
    assert!(host
        .install_credit_returns(&fabric, vec![hs(0, 2), hs(1, 2)])
        .is_err());
    // A table the receiver cannot put into would only fail at drain time;
    // install must catch it up front.
    let ro = fabric
        .host(a)
        .unwrap()
        .register(256, twochains_fabric::AccessFlags::ro())
        .unwrap();
    let mut unwritable = hs(1, 2);
    unwritable.descriptor = ro.descriptor();
    assert!(host
        .install_credit_returns(&fabric, vec![hs(0, 2), unwritable])
        .is_err());
    // A well-formed pair — one disjoint writable region per stream — installs.
    let second = fabric
        .host(a)
        .unwrap()
        .register(256, twochains_fabric::AccessFlags::rw())
        .unwrap();
    let mut other = hs(1, 2);
    other.descriptor = second.descriptor();
    host.install_credit_returns(&fabric, vec![hs(0, 2), other])
        .unwrap();
    assert!(host.credit_path_installed());
}

#[test]
fn single_slot_receive_returns_the_credit_over_the_fabric() {
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let sent = fleet.lanes_mut()[0]
        .send_spec(
            0,
            0,
            &msg(
                elem,
                InvocationMode::Injected,
                &indirect_put_args(3, 4, 4),
                &payload(4),
            ),
        )
        .unwrap();
    assert!(!fleet.lane(0).unwrap().credit_pending(0, 0).unwrap());
    host.receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    // The retire produced one one-byte credit put, charged in virtual time
    // and visible in the owning lane's sender-side table.
    let stats = host.stats();
    assert_eq!(stats.credits_returned, 1);
    assert_eq!(stats.credit_put_bytes, 1);
    assert!(stats.credit_put_time > SimTime::ZERO);
    assert!(fleet.lane(0).unwrap().credit_pending(0, 0).unwrap());
    assert!(!fleet.lane(1).unwrap().credit_pending(1, 0).unwrap());
}

#[test]
fn rejected_single_slot_receive_still_retires_and_credits() {
    // The single-frame case of the burst engine must retire a rejected frame
    // the same way the burst does: clear the slot, count it, return its
    // credit — otherwise a lane whose frame was rejected on the `receive`
    // path would spin forever on a token that never changes.
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    let sent = fleet.lanes_mut()[0]
        .send_spec(
            0,
            0,
            &msg(ElementId(9999), InvocationMode::Local, &[], &payload(4)),
        )
        .unwrap();
    let err = host
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, AmError::UnknownElement(9999)));
    let stats = host.stats();
    assert_eq!(stats.frames_rejected, 1);
    assert_eq!(stats.credits_returned, 1);
    assert!(fleet.lane(0).unwrap().credit_pending(0, 0).unwrap());
    // The slot polls empty again: the bank cannot wedge.
    assert!(host
        .banks()
        .mailbox(0, 0)
        .unwrap()
        .poll_variable()
        .unwrap()
        .is_none());
    // An empty poll, by contrast, retires nothing and credits nothing.
    assert!(matches!(
        host.receive(0, 1, None, SimTime::ZERO, SimTime::ZERO),
        Err(AmError::Empty)
    ));
    assert_eq!(host.stats().credits_returned, 1);
}

#[test]
fn drive_pipeline_rejects_a_fleet_whose_credit_tables_were_replaced() {
    // A second connect replaces the host's credit returns; driving the first
    // fleet would put every token into the second fleet's tables while the
    // first one's lanes spin forever — the identity check must refuse.
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(2)
        .with_sender_streams(2);
    cfg.frame_capacity = 4096;
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let mut stale =
        super::SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap();
    let mut fresh =
        super::SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap();
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let err = super::drive_pipeline(
        &mut host,
        &mut stale,
        elem,
        InvocationMode::Injected,
        1,
        &fleet_payload,
    )
    .unwrap_err();
    match err {
        AmError::InvalidConfig(msg) => assert!(msg.contains("another fleet"), "{msg}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // The most recently connected fleet drives fine.
    let out = super::drive_pipeline(
        &mut host,
        &mut fresh,
        elem,
        InvocationMode::Injected,
        1,
        &fleet_payload,
    )
    .unwrap();
    assert_eq!(out.drained, host.config().total_mailboxes());
}

#[test]
fn drive_pipeline_requires_the_credit_path() {
    // Lanes match the shard count but the credit tables were never installed
    // (fleet connected against a different geometry): the pipeline must
    // refuse up front instead of spinning on tokens nobody will ever put.
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(1)
        .with_sender_streams(1);
    cfg.frame_capacity = 4096;
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg.clone()).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let mut fleet =
        super::SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap();
    assert!(host.credit_path_installed());
    let mut fresh = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    fresh.install_package(benchmark_package().unwrap()).unwrap();
    assert!(!fresh.credit_path_installed());
    let elem = fresh.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let err = super::drive_pipeline(
        &mut fresh,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        1,
        &fleet_payload,
    )
    .unwrap_err();
    match err {
        AmError::InvalidConfig(msg) => assert!(msg.contains("credit"), "{msg}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn fleet_lanes_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<super::SenderLane>();
    assert_send::<super::SenderFleet>();
    assert_send::<TwoChainsSender>();
}

#[test]
fn drive_pipeline_requires_one_lane_per_shard() {
    // A one-lane fleet (connected to a one-shard host) driven against a
    // two-shard host: no closed stream<->shard pairing, refused up front.
    let (_, mut fleet) = fleet_testbed(1, 64);
    let (mut host, _) = fleet_testbed(2, 64);
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let err = super::drive_pipeline(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        1,
        &fleet_payload,
    )
    .unwrap_err();
    match err {
        AmError::InvalidConfig(msg) => assert!(msg.contains("one sender lane per shard"), "{msg}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn builtin_id_reports_the_missing_name() {
    let (fabric, _, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let host = TwoChainsHost::new(&fabric, b, RuntimeConfig::paper_default()).unwrap();
    let err = host.builtin_id(BuiltinJam::IndirectPut).unwrap_err();
    match err {
        AmError::UnknownElementName(name) => {
            assert_eq!(name, BuiltinJam::IndirectPut.element_name())
        }
        other => panic!("expected UnknownElementName, got {other:?}"),
    }
    // Same contract on the sender side, through a package lacking the element.
    let (fabric2, a2, b2) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let tx = TwoChainsSender::new(
        fabric2.endpoint(a2, b2).unwrap(),
        twochains_linker::Package::default(),
    );
    assert!(matches!(
        tx.builtin_id(BuiltinJam::ServerSideSum),
        Err(AmError::UnknownElementName(_))
    ));
}

#[test]
#[should_panic(expected = "sender lane thread panicked")]
fn drive_pipeline_propagates_a_payload_panic_instead_of_hanging() {
    // A panic in the payload generator unwinds a sender thread without ever
    // returning Err; the abort guard must still release the drain threads
    // (whose frame quota is now unreachable) so the panic propagates instead
    // of the scope blocking forever.
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let _ = super::drive_pipeline(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        2,
        &|ctx| {
            if ctx.stream == 1 && ctx.round == 1 {
                panic!("payload generator failure injection");
            }
            fleet_payload(ctx)
        },
    );
}

// ---------------------------------------------------------------------------
// Receiver-side function chains: the MessageSpec construction path, the chain
// executor's result threading, and the per-stage rejection semantics.
// ---------------------------------------------------------------------------

#[test]
fn chained_spec_threads_results_and_matches_sequential_sends() {
    use crate::builtin::graph_args;
    use twochains_jamvm::isa::hash64;

    let key = 0xC0FFEEu64;
    let v1 = hash64(key);
    let v2 = if v1.is_multiple_of(2) { v1 } else { 0 };

    // One frame carrying the whole lookup -> filter -> aggregate chain.
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let lookup = rx.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let filter = rx.builtin_id(BuiltinJam::GraphFilter).unwrap();
    let agg = rx.builtin_id(BuiltinJam::GraphAggregate).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let s = super::spec(lookup)
        .local()
        .args(graph_args(key))
        .then(filter)
        .then(agg);
    let sent = tx.send_spec(SimTime::ZERO, &s, &target).unwrap();
    let out = rx
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    assert_eq!(out.result, v2, "chain result is the last stage's result");
    let st = rx.stats();
    assert_eq!(st.messages_received, 1);
    assert_eq!(st.executions, 3, "primary + two continuation stages");
    assert_eq!(st.chain_frames, 1);
    assert_eq!(st.chain_stages_executed, 2);

    // Three sequential messages, each carrying the previous result as ARGS —
    // must be result-equal and leave the identical accumulator state.
    let (mut rx2, mut tx2) = testbed(RuntimeConfig::paper_default());
    let target2 = rx2.mailbox_target(0, 0).unwrap();
    let mut carried = key;
    for elem in [lookup, filter, agg] {
        let s = super::spec(elem).local().args(graph_args(carried));
        let sent = tx2.send_spec(SimTime::ZERO, &s, &target2).unwrap();
        let out = rx2
            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
            .unwrap();
        carried = out.result;
    }
    assert_eq!(carried, out.result, "sequential schedule is result-equal");
    let accum_chain = rx.read_data("graph.accum", 0, 16).unwrap();
    let accum_seq = rx2.read_data("graph.accum", 0, 16).unwrap();
    assert_eq!(accum_chain, accum_seq, "aggregate oracle states match");
    let st2 = rx2.stats();
    assert_eq!(st2.messages_received, 3, "three dispatches vs one");
    assert_eq!(st2.executions, 3);
    assert_eq!(st2.chain_frames, 0);
}

#[test]
fn zero_stage_chain_dispatches_like_an_unchained_send() {
    use crate::builtin::graph_args;
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let lookup = rx.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let s = super::spec(lookup).local().args(graph_args(3));
    assert!(!s.is_chained());
    let sent = tx.send_spec(SimTime::ZERO, &s, &target).unwrap();
    let out = rx
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    assert_eq!(out.result, twochains_jamvm::isa::hash64(3));
    assert_eq!(rx.stats().chain_frames, 0);
    assert_eq!(rx.stats().chain_stages_executed, 0);
}

#[test]
fn failing_chain_stage_rejects_the_whole_frame_and_names_the_stage() {
    use crate::builtin::graph_args;
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let lookup = rx.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let filter = rx.builtin_id(BuiltinJam::GraphFilter).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    // Stage 0 resolves, stage 1 names an element the receiver does not have.
    let s = super::spec(lookup)
        .local()
        .args(graph_args(9))
        .then(filter)
        .then(ElementId(0xDEAD));
    let sent = tx.send_spec(SimTime::ZERO, &s, &target).unwrap();
    let err = rx
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap_err();
    match err {
        AmError::ChainStageFailed { stage, reason } => {
            assert_eq!(stage, 1, "the second continuation stage broke the chain");
            assert!(
                reason.contains("57005"),
                "reason names the element: {reason}"
            );
        }
        other => panic!("expected ChainStageFailed, got {other:?}"),
    }
    // The frame retired as a whole: one rejection, the mailbox reusable.
    assert_eq!(rx.stats().frames_rejected, 1);
    assert_eq!(
        rx.stats().chain_frames,
        0,
        "a broken chain retires no frame"
    );
    let s_ok = super::spec(lookup).local().args(graph_args(9));
    let sent = tx.send_spec(SimTime::ZERO, &s_ok, &target).unwrap();
    assert!(rx
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .is_ok());
}

#[test]
fn send_spec_refuses_overlong_chains() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let lookup = rx.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let mut overlong = super::spec(lookup).local();
    for _ in 0..crate::frame::CHAIN_MAX_STAGES + 1 {
        overlong = overlong.then(lookup);
    }
    assert!(matches!(
        tx.send_spec(SimTime::ZERO, &overlong, &target),
        Err(AmError::BadFrame(_))
    ));
}

#[test]
fn connect_fleet_lists_everything_missing_in_one_error() {
    // A host with streams != shards cannot export a session handshake; the
    // error names the mismatch (and the missing package) in one message.
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let cfg = RuntimeConfig::paper_default()
        .with_shards(2)
        .with_sender_streams(1);
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    let err =
        super::SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("connect_fleet cannot wire the session"),
        "{msg}"
    );
    assert!(msg.contains("no package installed"), "{msg}");
    assert!(
        msg.contains("sender_streams (1) != num_shards (2)"),
        "{msg}"
    );

    // Fixing everything it listed makes the same call connect — fully wired.
    let cfg = RuntimeConfig::paper_default()
        .with_shards(2)
        .with_sender_streams(2);
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let fleet =
        super::SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap();
    assert_eq!(fleet.lane_count(), 2);
    assert!(
        host.credit_path_installed(),
        "connect_fleet always installs the credit path"
    );
}

#[test]
fn fleet_send_spec_delivers_chained_frames() {
    use crate::builtin::graph_args;
    use twochains_jamvm::isa::hash64;
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    let lookup = host.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let filter = host.builtin_id(BuiltinJam::GraphFilter).unwrap();
    let key = 11u64;
    let s = super::spec(lookup)
        .local()
        .args(graph_args(key))
        .then(filter);
    // Bank 0 belongs to stream 0.
    fleet.lanes_mut()[0].send_spec(0, 0, &s).unwrap();
    let out = host
        .receive(0, 0, None, SimTime::ZERO, SimTime::ZERO)
        .unwrap();
    let v1 = hash64(key);
    assert_eq!(out.result, if v1.is_multiple_of(2) { v1 } else { 0 });
    assert_eq!(host.stats().chain_frames, 1);
}

// --- The send pipeline's stages, driven directly ------------------------------

#[test]
fn a_posted_entrys_claim_on_a_slot_ends_when_the_slot_is_resent() {
    let (_host, mut fleet) = fleet_testbed(1, 64);
    let lane = &mut fleet.lanes[0];
    let (a, b) = (0, 1);
    // Container one covers slots {a, b}; a's credit returns and a is re-sent
    // in container two; then b's credit returns.
    let (posted, in_flight) = (&mut lane.posted, &mut lane.in_flight);
    let entry = |bytes: &[u8], sns: &[u32], members: &[usize]| super::fleet::Posted {
        bytes: bytes.to_vec(),
        sns: sns.to_vec(),
        members: members.to_vec(),
        carrier: a,
    };
    super::fleet::remember(posted, in_flight, entry(b"container one", &[1, 2], &[a, b]));
    in_flight[a] = false;
    super::fleet::remember(posted, in_flight, entry(b"container two", &[3], &[a]));
    in_flight[b] = false;
    // Container one has no frame of its own outstanding. `in_flight[a]` is
    // true again, but through container two's frame: a retransmit of
    // container one would put stale bytes over a live mailbox.
    let live: Vec<&[u8]> = posted
        .iter()
        .filter(|entry| entry.members.iter().any(|&m| in_flight[m]))
        .map(|entry| &entry.bytes[..])
        .collect();
    assert_eq!(live, [&b"container two"[..]]);
    assert_eq!(
        lane.retransmit(None).unwrap(),
        1,
        "the watchdog re-puts it alone"
    );
    assert_eq!(lane.stats().frames_retransmitted, 1);
    assert_eq!(
        lane.retransmit(Some(2)).unwrap(),
        0,
        "a NACK for a dead entry's frame"
    );
    assert_eq!(lane.retransmit(Some(3)).unwrap(), 1);
}

/// A Server-Side Sum whose result is a pure function of the slot and round
/// (unlike Indirect Put, whose bump-allocated result depends on the order of
/// first probes — exactly what a schedule reshuffles).
fn ssum_payload(ctx: super::SlotCtx) -> (Vec<u8>, Vec<u8>) {
    let n = 1 + (ctx.bank * 16 + ctx.slot + ctx.round as usize) % 6;
    let usr = (0..n as u32)
        .flat_map(|i| (i * 7 + ctx.slot as u32 + 100 * ctx.round as u32).to_le_bytes())
        .collect();
    (ssum_args(n as u32), usr)
}

const STEPPED_ROUNDS: usize = 3;

/// Everything one single-threaded pipeline run produced, in a form two runs
/// can be compared by: per-shard frames in drain order, every clock, every
/// counter.
#[derive(Debug, PartialEq)]
struct SteppedRun {
    frames: Vec<Vec<(usize, usize, u64)>>,
    shard_clocks: Vec<SimTime>,
    lane_clocks: Vec<SimTime>,
    fleet_stats: String,
    host_stats: String,
    messages_sent: u64,
    credits_returned: u64,
}

impl SteppedRun {
    fn result_multiset(&self) -> Vec<u64> {
        let mut results: Vec<u64> = self.frames.iter().flatten().map(|f| f.2).collect();
        results.sort_unstable();
        results
    }
}

/// The pipeline on one thread: each lane's `LaneRun::step` and each shard's
/// `receive_burst`, one at a time, in an order a seeded LCG picks — no
/// thread, no sleep, no spin, no wall clock.
fn run_stepped(seed: u64) -> SteppedRun {
    use super::fleet::Step;
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let wants: Vec<usize> = (0..fleet.lane_count())
        .map(|s| STEPPED_ROUNDS * fleet.lane(s).unwrap().slots())
        .collect();
    let mut frames = vec![Vec::new(); wants.len()];
    let mut shard_clocks = vec![SimTime::ZERO; wants.len()];
    {
        let mut lanes = fleet
            .lane_runs(
                elem,
                InvocationMode::Injected,
                STEPPED_ROUNDS,
                &ssum_payload,
            )
            .unwrap();
        let mut drains = host.shard_drains();
        let mut done = vec![false; lanes.len()];
        let mut lcg = seed;
        let mut steps = 0usize;
        while done.contains(&false) || frames.iter().zip(&wants).any(|(f, &w)| f.len() < w) {
            steps += 1;
            assert!(
                steps < 100_000,
                "the stepped pipeline stopped making progress"
            );
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (lcg >> 33) as usize % (lanes.len() + drains.len());
            if let Some(lane) = lanes.get_mut(pick) {
                if !done[pick] {
                    done[pick] = lane.step().unwrap() == Step::Done;
                }
                continue;
            }
            let shard = pick - lanes.len();
            if frames[shard].len() == wants[shard] {
                continue;
            }
            let out = drains[shard]
                .receive_burst(usize::MAX, shard_clocks[shard])
                .unwrap();
            assert!(out.rejected.is_empty());
            if !out.is_empty() {
                shard_clocks[shard] = out.drained_at;
                frames[shard].extend(
                    out.frames
                        .iter()
                        .map(|f| (f.bank, f.slot, f.outcome.result)),
                );
            }
        }
    }
    SteppedRun {
        frames,
        shard_clocks,
        lane_clocks: (0..fleet.lane_count())
            .map(|s| fleet.lane(s).unwrap().clock())
            .collect(),
        fleet_stats: format!("{:?}", fleet.stats()),
        host_stats: format!("{:?}", host.stats()),
        messages_sent: fleet.stats().messages_sent,
        credits_returned: host.stats().credits_returned,
    }
}

#[test]
fn the_pipeline_stepped_on_one_thread_is_live_and_bit_reproducible() {
    let first = run_stepped(0xC0FFEE);
    assert_eq!(
        first,
        run_stepped(0xC0FFEE),
        "one seed, one schedule: results, clocks and counters repeat exactly"
    );
    let other = run_stepped(0x5EED_0002);
    assert_ne!(
        first.frames, other.frames,
        "another seed is another schedule"
    );
    assert_eq!(first.result_multiset(), other.result_multiset());

    // The threaded driver runs the same state machines: same multiset, same
    // order-independent counters.
    let (mut host, mut fleet) = fleet_testbed(2, 64);
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let out = super::drive_pipeline(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        STEPPED_ROUNDS,
        &ssum_payload,
    )
    .unwrap();
    assert_eq!(out.rejected, 0);
    let mut threaded: Vec<u64> = out.results.iter().map(|f| f.result).collect();
    threaded.sort_unstable();
    assert_eq!(first.result_multiset(), threaded);
    assert_eq!(first.messages_sent, fleet.stats().messages_sent);
    assert_eq!(first.credits_returned, host.stats().credits_returned);
}
