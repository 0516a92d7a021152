//! Property-based tests over the core data structures and invariants, spanning the
//! member crates.

mod support;

use proptest::prelude::*;

use two_chains_suite::jamvm::{
    decode_program, encode_program, resolve, verify, AddressSpace, ExternTable, GotImage, Instr,
    Program, Reg, Segment, Vm, VmConfig,
};
use two_chains_suite::memsim::cost::{
    POLL_INTERVAL, WFE_OVERHEAD_CYCLES, WFE_RECHECK_CYCLES, WFE_WAKE_LATENCY,
};
use two_chains_suite::memsim::cycles::{wait, WaitMode};
use two_chains_suite::memsim::{AccessKind, MemoryBus, SharedHierarchy, SimTime, TestbedConfig};
use twochains::frame::{Frame, FrameView};

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u8..16, any::<u64>()).prop_map(|(r, imm)| Instr::LoadImm { dst: Reg(r), imm }),
        (0u8..16, 0u8..16).prop_map(|(d, s)| Instr::Mov {
            dst: Reg(d),
            src: Reg(s)
        }),
        (0u8..16, 0u8..16, 0u8..16).prop_map(|(d, a, b)| Instr::Alu {
            op: two_chains_suite::jamvm::isa::AluOp::Add,
            dst: Reg(d),
            a: Reg(a),
            b: Reg(b)
        }),
        (0u8..16, 0u8..16).prop_map(|(d, s)| Instr::Hash {
            dst: Reg(d),
            src: Reg(s)
        }),
        (0u16..4, 0u8..4).prop_map(|(slot, nargs)| Instr::CallExtern { slot, nargs }),
        Just(Instr::Nop),
        Just(Instr::Ret),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any instruction sequence survives encode -> decode unchanged.
    #[test]
    fn bytecode_roundtrips(program in prop::collection::vec(arb_instr(), 0..200)) {
        let bytes = encode_program(&program);
        let decoded = decode_program(&bytes).expect("decodes");
        prop_assert_eq!(decoded.to_instrs(), program);
    }

    /// Frames survive encode -> parse for arbitrary section contents.
    #[test]
    fn frames_roundtrip(
        sn in any::<u32>(),
        elem in any::<u32>(),
        got in prop::collection::vec(any::<u8>(), 0..64),
        code in prop::collection::vec(any::<u8>(), 0..512),
        args in prop::collection::vec(any::<u8>(), 0..64),
        usr in prop::collection::vec(any::<u8>(), 0..1024),
        injected in any::<bool>(),
    ) {
        let frame = if injected {
            Frame::injected(sn, elem, got, code, args, usr)
        } else {
            Frame::local(sn, elem, args, usr)
        };
        let wire = frame.encode();
        let view = FrameView::parse(&wire).expect("frame parses");
        prop_assert_eq!(view.header, frame.header);
        prop_assert_eq!(view.chain, None);
        prop_assert_eq!(
            [view.got, view.code, view.args, view.usr],
            [&frame.got[..], &frame.code[..], &frame.args[..], &frame.usr[..]]
        );
    }

    /// Batch containers survive the wire for arbitrary inner-frame counts,
    /// shapes and destination slots: the parsed view yields the identical
    /// `(slot, frame bytes)` sequence, advertises the first inner frame's
    /// sequence number, and is recognised by the container sniffer while a
    /// plain frame is not.
    #[test]
    fn batch_containers_roundtrip(
        base_sn in any::<u32>(),
        specs in prop::collection::vec(
            (any::<u16>(), prop::collection::vec(any::<u8>(), 0..128), any::<bool>()),
            1..12,
        ),
    ) {
        use twochains::frame::{is_batch, BatchView, FrameBatch, BATCH_OVERHEAD, BATCH_PREFIX_SIZE};

        let frames: Vec<(u16, Vec<u8>)> = specs
            .iter()
            .enumerate()
            .map(|(i, (slot, usr, injected))| {
                let sn = base_sn.wrapping_add(i as u32);
                let frame = if *injected {
                    Frame::injected(sn, 7, vec![1; 8], vec![2; 16], vec![3; 20], usr.clone())
                } else {
                    Frame::local(sn, 7, vec![3; 20], usr.clone())
                };
                (*slot, frame.encode())
            })
            .collect();

        let mut batch = FrameBatch::new();
        for (slot, wire) in &frames {
            batch.push(*slot, wire).expect("push");
        }
        prop_assert_eq!(batch.len(), frames.len());
        let expected_size = BATCH_OVERHEAD
            + frames.iter().map(|(_, w)| BATCH_PREFIX_SIZE + w.len()).sum::<usize>();
        prop_assert_eq!(batch.wire_size(), expected_size);

        let mut wire = Vec::new();
        batch.finish_into(&mut wire).expect("finish");
        prop_assert_eq!(wire.len(), expected_size);
        prop_assert!(is_batch(&wire), "container not recognised by the sniffer");
        prop_assert!(!is_batch(&frames[0].1), "plain frame misread as a container");

        let view = BatchView::parse(&wire).expect("container parses");
        prop_assert_eq!(view.sn, base_sn);
        prop_assert_eq!(view.wire_len, wire.len());
        prop_assert_eq!(view.frames().len(), frames.len());
        for ((slot, inner), (want_slot, want_wire)) in view.frames().iter().zip(&frames) {
            prop_assert_eq!(slot, want_slot);
            prop_assert_eq!(*inner, &want_wire[..]);
        }
    }

    /// A container cut off mid-frame is rejected, and when the cut lands past
    /// the victim's header the error names that inner frame's sequence number
    /// — the forensic signal the sender's retransmit machinery keys on.
    #[test]
    fn truncated_batch_containers_name_the_victim_frame(
        base_sn in 0u32..1_000_000,
        sizes in prop::collection::vec(0usize..96, 2..8),
        victim_pick in any::<u32>(),
        cut_pick in any::<u32>(),
    ) {
        use twochains::frame::{
            BatchView, FrameBatch, BATCH_PREFIX_SIZE, FRAME_HEADER_SIZE,
        };

        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &usr)| {
                Frame::local(base_sn + i as u32, 9, vec![4; 12], vec![5; usr]).encode()
            })
            .collect();
        let mut batch = FrameBatch::new();
        for (i, wire) in frames.iter().enumerate() {
            batch.push(i as u16, wire).expect("push");
        }
        let mut wire = Vec::new();
        batch.finish_into(&mut wire).expect("finish");

        // Cut inside the victim frame, past its 8-byte (magic + sn) prologue
        // so the parser can still echo who the cut landed on.
        let victim = victim_pick as usize % frames.len();
        let start = FRAME_HEADER_SIZE
            + frames[..victim]
                .iter()
                .map(|w| BATCH_PREFIX_SIZE + w.len())
                .sum::<usize>()
            + BATCH_PREFIX_SIZE;
        let span = frames[victim].len() - 8;
        let cut = start + 8 + cut_pick as usize % span;
        let err = BatchView::parse(&wire[..cut]).expect_err("truncated container must not parse");
        let msg = err.to_string();
        let victim_sn = base_sn + victim as u32;
        prop_assert!(
            msg.contains(&format!("sn {victim_sn}")),
            "error must echo the victim's sn {victim_sn}: {msg}"
        );
    }

    /// A container's declared destination slots are hostile input. Whatever
    /// mix of valid inner frames, unparseable inner frames and slots the bank
    /// does not have arrives, the burst completes, exactly the inner frames
    /// whose declared slot exists earn a credit, and no mailbox other than a
    /// declared one has its credit token or its replay entry touched.
    #[test]
    fn hostile_container_slots_touch_only_the_slots_they_name(
        inner in prop::collection::vec(
            (prop_oneof![0u16..16, 16u16..64, Just(u16::MAX)], any::<bool>()),
            1..12,
        ),
    ) {
        use std::collections::BTreeSet;
        use support::{fleet_testbed, put, FleetBed};
        use twochains::builtin::{ssum_args, BuiltinJam};
        use twochains::frame::FrameBatch;
        use twochains::RuntimeConfig;

        // The session installs the credit path and arms the replay filter.
        let FleetBed { wire, mut host, fleet } = fleet_testbed(RuntimeConfig::paper_default(), None);
        let (banks, per_bank) = (host.config().banks, host.config().mailboxes_per_bank);
        let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap().0;
        let frame = |sn: u32| Frame::local(sn, elem, ssum_args(1), sn.to_le_bytes().to_vec()).encode();
        let mut raw = wire.raw();

        // Inner frames sn 2, 3, ...; an unparseable one has a torn sequence echo
        // (it still passes the builder's and the envelope's cheap checks).
        let mut batch = FrameBatch::new();
        for (i, &(slot, parses)) in inner.iter().enumerate() {
            let mut wire = frame(i as u32 + 2);
            if !parses {
                let echo = wire.len() - 3;
                wire[echo] ^= 0xFF;
            }
            batch.push(slot, &wire).unwrap();
        }
        let mut container = Vec::new();
        batch.finish_into(&mut container).unwrap();
        let landed = put(&mut raw, &host, 0, 0, SimTime::ZERO, &container);

        let out = host.receive_burst(0, usize::MAX, landed.delivered);
        prop_assert!(out.is_ok(), "the burst must not abort: {:?}", out.err());
        let out = out.unwrap();
        let exists = |slot: u16| (slot as usize) < per_bank;
        let executes = inner.iter().filter(|&&(slot, parses)| parses && exists(slot)).count();
        prop_assert_eq!(out.frames.len(), executes);
        prop_assert_eq!(out.rejected.len(), inner.len() - executes);
        let credited = inner.iter().filter(|&&(slot, _)| exists(slot)).count();
        prop_assert_eq!(host.stats().credits_returned, credited as u64);
        prop_assert_eq!(host.stats().executions, executes as u64);

        // Credit tokens: exactly the declared slots that exist, in bank 0.
        let declared: BTreeSet<usize> =
            inner.iter().filter(|&&(slot, _)| exists(slot)).map(|&(slot, _)| slot as usize).collect();
        let lane = fleet.lane(0).unwrap();
        for bank in 0..banks {
            for slot in 0..per_bank {
                prop_assert_eq!(
                    lane.credit_pending(bank, slot).unwrap(),
                    bank == 0 && declared.contains(&slot),
                    "credit token of ({}, {})", bank, slot
                );
            }
        }

        // Replay entries: an sn-1 frame into every mailbox executes unless an
        // inner frame (sn >= 2) executed against that very slot.
        let executed: BTreeSet<(usize, usize)> = inner
            .iter()
            .filter(|&&(slot, parses)| parses && exists(slot))
            .map(|&(slot, _)| (0, slot as usize))
            .collect();
        let mut now = out.drained_at;
        for bank in 0..banks {
            for slot in 0..per_bank {
                now = put(&mut raw, &host, bank, slot, now, &frame(1)).delivered;
            }
        }
        let probe = host.receive_burst(0, usize::MAX, now).unwrap();
        prop_assert!(probe.rejected.is_empty(), "{:?}", probe.rejected);
        let ran: BTreeSet<(usize, usize)> = probe.frames.iter().map(|f| (f.bank, f.slot)).collect();
        for bank in 0..banks {
            for slot in 0..per_bank {
                prop_assert_eq!(
                    ran.contains(&(bank, slot)),
                    !executed.contains(&(bank, slot)),
                    "replay entry of ({}, {})", bank, slot
                );
            }
        }
    }

    /// Chain descriptors survive the wire for every stage count the header can
    /// express — including the zero-stage descriptor, which must stay distinct
    /// from the unchained frame — with stage IDs and arg maps intact.
    #[test]
    fn chain_descriptors_roundtrip(
        sn in any::<u32>(),
        elem in any::<u32>(),
        args in prop::collection::vec(any::<u8>(), 0..32),
        usr in prop::collection::vec(any::<u8>(), 0..256),
        stages in prop::collection::vec(
            (any::<u32>(), any::<bool>()),
            0..twochains::CHAIN_MAX_STAGES + 1,
        ),
        chained in any::<bool>(),
    ) {
        use twochains::{ChainArgMap, ChainDescriptor, ChainStage};

        let mut frame = Frame::local(sn, elem, args, usr);
        if chained {
            let mut desc = ChainDescriptor::new();
            for &(stage_elem, keep) in &stages {
                let map = if keep { ChainArgMap::KeepArgs } else { ChainArgMap::Result };
                desc.push(ChainStage { elem_id: stage_elem, map }).expect("within CHAIN_MAX_STAGES");
            }
            frame = frame.with_chain(desc);
        }
        let wire = frame.encode();
        let view = FrameView::parse(&wire).expect("chained frame parses");
        prop_assert_eq!(view.header, frame.header);
        prop_assert_eq!(view.chain, frame.chain);
        prop_assert_eq!(
            [view.got, view.code, view.args, view.usr],
            [&frame.got[..], &frame.code[..], &frame.args[..], &frame.usr[..]]
        );
        // None vs Some-with-zero-stages must not collapse into each other.
        prop_assert_eq!(view.chain.is_some(), chained);
        if let Some(desc) = view.chain {
            prop_assert_eq!(desc.len(), stages.len());
            for (got, &(stage_elem, keep)) in desc.stages().iter().zip(&stages) {
                prop_assert_eq!(got.elem_id, stage_elem);
                let map = if keep { ChainArgMap::KeepArgs } else { ChainArgMap::Result };
                prop_assert_eq!(got.map, map);
            }
        }
    }

    /// Verified straight-line programs always terminate and never fault the host.
    #[test]
    fn verified_programs_execute_safely(program in prop::collection::vec(arb_instr(), 1..100)) {
        let mut program = program;
        program.push(Instr::Ret);
        // Give it a GOT large enough for any slot the generator can produce, with
        // every slot bound to a trivial extern.
        let mut externs = ExternTable::new();
        let idx = externs.register("id", std::sync::Arc::new(|_ctx, args| Ok(args.first().copied().unwrap_or(0))));
        let mut got = GotImage::with_slots(4);
        for s in 0..4 {
            got.set(s, two_chains_suite::jamvm::ExternRef::Resolved(idx));
        }
        let program = Program::from(&program[..]);
        prop_assert!(verify(&program, got.len()).is_ok());
        let image = resolve(&program, &got);
        let mut space = AddressSpace::new();
        let mut bus = two_chains_suite::memsim::hierarchy::FlatMemory::free();
        let cfg = VmConfig { fuel: 100_000, ..VmConfig::default() };
        let result = Vm::execute_resolved(&image, &externs, &mut space, &mut bus, &cfg);
        prop_assert!(result.is_ok(), "execution failed: {:?}", result);
    }

    /// The Server-Side Sum jam computes the same sum the host computes, for any
    /// payload, via the full runtime path.
    #[test]
    fn server_side_sum_matches_host_sum(values in prop::collection::vec(any::<u32>(), 1..64)) {
        use twochains::builtin::{ssum_args, BuiltinJam};
        use twochains::{spec, RuntimeConfig};

        let (mut rx, mut tx) = support::testbed(RuntimeConfig::paper_default());
        let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let message = spec(id).args(ssum_args(values.len() as u32)).usr(payload);
        let target = rx.mailbox_target(0, 0).unwrap();
        let sent = tx.send_spec(SimTime::ZERO, &message, &target).unwrap();
        let out = rx
            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
            .unwrap();
        let expected: u64 = values.iter().map(|&v| v as u64).sum::<u64>();
        // The jam accumulates in 64-bit registers from zero-extended 32-bit loads.
        prop_assert_eq!(out.result, expected);
    }

    /// Cache hierarchy invariant: a second access to the same address is never more
    /// expensive than the first, whatever the address pattern.
    #[test]
    fn caches_never_make_repeat_accesses_slower(addrs in prop::collection::vec(0u64..1_000_000, 1..64)) {
        let shared = std::sync::Arc::new(SharedHierarchy::new(TestbedConfig::tiny_for_tests()));
        let mut h = shared.core_bus(0);
        for &addr in &addrs {
            let first = h.access(0, addr, 8, AccessKind::Read);
            let second = h.access(0, addr, 8, AccessKind::Read);
            prop_assert!(second <= first, "addr {addr}: {second} > {first}");
        }
    }

    /// Wait-model invariant: WFE never burns more cycles than polling, and its
    /// latency penalty is bounded by the wake-up cost.
    #[test]
    fn wfe_dominates_polling_in_cycles(wait_ns in 0u64..1_000_000) {
        let dt = SimTime::from_ns(wait_ns);
        let poll = wait(WaitMode::Polling, dt);
        let wfe = wait(WaitMode::Wfe, dt);
        prop_assert!(wfe.cycles <= poll.cycles + WFE_OVERHEAD_CYCLES + WFE_RECHECK_CYCLES);
        prop_assert!(wfe.elapsed <= poll.elapsed + WFE_WAKE_LATENCY + POLL_INTERVAL);
    }

    /// Sharded burst draining is observationally equivalent to sequential
    /// single-slot receives: over a shuffled interleave of K senders, the burst
    /// host delivers the same multiset of results and the same receiver counters
    /// as a host draining the identical send stream one `receive` at a time.
    #[test]
    fn sharded_burst_drain_matches_sequential_receive(
        num_shards in 1usize..5,
        k in 1usize..5,
        per_sender in 1usize..6,
        seed in any::<u64>(),
    ) {
        use twochains::builtin::{ssum_args, BuiltinJam};
        use twochains::{spec, InvocationMode, RuntimeConfig, TwoChainsHost, TwoChainsSender};

        let banks = 4usize;
        let build = |shards: usize| -> (TwoChainsHost, Vec<TwoChainsSender>) {
            let wire = support::wire();
            let rx = wire.host(RuntimeConfig::paper_default().with_shards(shards));
            let senders = (0..k).map(|_| wire.sender(&rx)).collect();
            (rx, senders)
        };

        // A shuffled interleave of the K senders' messages.
        let mut order: Vec<(usize, usize)> = (0..k)
            .flat_map(|s| (0..per_sender).map(move |m| (s, m)))
            .collect();
        support::shuffle(&mut order, seed);

        // Drive the identical send stream into both hosts: message (s, m) uses a
        // payload derived from its identity, so its result identifies it.
        let send_all = |rx: &TwoChainsHost, txs: &mut Vec<TwoChainsSender>| {
            let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
            let mut sends = Vec::new();
            for (i, &(s, m)) in order.iter().enumerate() {
                let n_ints = 1 + (s + m) % 4;
                let val = (s * 8 + m + 1) as u32;
                let usr: Vec<u8> = (0..n_ints as u32).flat_map(|_| val.to_le_bytes()).collect();
                let (bank, slot) = (i % banks, i / banks);
                let target = rx.mailbox_target(bank, slot).unwrap();
                let msg = spec(id)
                    .mode(InvocationMode::Injected)
                    .args(ssum_args(n_ints as u32))
                    .usr(usr);
                let sent = txs[s].send_spec(SimTime::ZERO, &msg, &target).unwrap();
                sends.push((bank, slot, sent.wire_bytes, sent.delivered()));
            }
            sends
        };

        // Host A: sequential single-slot receives in send order.
        let (mut rx_seq, mut txs_seq) = build(1);
        let sends = send_all(&rx_seq, &mut txs_seq);
        let mut seq_results = Vec::new();
        let mut ready = SimTime::ZERO;
        for &(bank, slot, len, delivered) in &sends {
            let out = rx_seq.receive(bank, slot, Some(len), delivered, ready).unwrap();
            ready = out.handler_done;
            seq_results.push(out.result);
        }

        // Host B: sharded burst draining, one burst per shard until dry.
        let (mut rx_burst, mut txs_burst) = build(num_shards);
        let sends_b = send_all(&rx_burst, &mut txs_burst);
        let horizon = sends_b
            .iter()
            .map(|&(_, _, _, d)| d)
            .fold(SimTime::ZERO, SimTime::max);
        let mut burst_results = Vec::new();
        for shard in 0..num_shards {
            let mut now = horizon;
            loop {
                let out = rx_burst.receive_burst(shard, usize::MAX, now).unwrap();
                prop_assert!(out.rejected.is_empty(), "no frame may be rejected: {:?}", out.rejected);
                if out.frames.is_empty() {
                    break;
                }
                now = out.drained_at;
                burst_results.extend(out.frames.iter().map(|f| f.outcome.result));
            }
        }

        // Same frames delivered (multiset of results)...
        let mut a = seq_results.clone();
        let mut b = burst_results.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "result multisets diverge");
        // ...and the same receiver counters.
        let (ss, bs) = (rx_seq.stats(), rx_burst.stats());
        prop_assert_eq!(ss.messages_received, bs.messages_received);
        prop_assert_eq!(ss.executions, bs.executions);
        prop_assert_eq!(ss.injected_executions, bs.injected_executions);
        prop_assert_eq!(ss.injected_code_cache_misses, bs.injected_code_cache_misses);
        prop_assert_eq!(ss.injected_code_cache_hits, bs.injected_code_cache_hits);
        prop_assert_eq!(ss.got_cache_misses, bs.got_cache_misses);
        prop_assert_eq!(ss.got_cache_hits, bs.got_cache_hits);
        prop_assert_eq!(rx_seq.injected_cache_len(), rx_burst.injected_cache_len());
    }

    /// Address-space isolation: writes through one segment never alter another.
    #[test]
    fn segments_are_isolated(data in prop::collection::vec(any::<u8>(), 1..128), offset in 0usize..64) {
        let mut space = AddressSpace::new();
        space.map(Segment::new("a", 0x1000, vec![0xAA; 256], true)).unwrap();
        space.map(Segment::new("b", 0x2000, vec![0xBB; 256], true)).unwrap();
        let len = data.len().min(256 - offset);
        space.write(0x1000 + offset as u64, &data[..len]).unwrap();
        let b = space.segment("b").unwrap();
        prop_assert!(b.data.iter().all(|&x| x == 0xBB));
    }
}
