//! Receiver-side chain equivalence over the sender fleet: a frame carrying the
//! whole lookup → filter → aggregate graph pipeline must be observationally
//! equal to the same stages shipped as separate sequential messages — same
//! per-item results, same aggregate-oracle state (`graph.accum` counts every
//! contribution, order-independently), same execution counts — while retiring
//! N-fold fewer frames. The suite drives whole fleets (every mailbox, multiset
//! oracle, like `fleet_pipeline`) and arbitrary stage sequences (proptest:
//! any 1..=8-long walk over the three graph elements), pinning that chaining
//! changes message count and nothing else.
//!
//! A frame's sections are mapped once and refilled for each later stage, so
//! stages that write over their views must still be isolated from each other:
//! a package of such stages, on a host of its own, checks that every stage
//! reads the bytes that arrived, and that a failing stage leaves no section
//! mapped.

mod support;

use proptest::prelude::*;

use support::{fleet_config, fleet_testbed, testbed, wire, FleetBed};
use two_chains_suite::jamvm::isa::{hash64, Width};
use two_chains_suite::jamvm::{Assembler, Instr, Reg};
use two_chains_suite::linker::{JamDefinition, Package, PackageBuilder};
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{graph_args, ried_array, BuiltinJam};
use twochains::{
    spec, AmError, AmResult, ChainArgMap, ElementId, MessageSpec, RuntimeConfig, SenderFleet,
    TwoChainsHost,
};

const SHARDS: usize = 2;
const CHAIN_STAGES: usize = 3;

fn build() -> (TwoChainsHost, SenderFleet) {
    let FleetBed { host, fleet, .. } = fleet_testbed(fleet_config(SHARDS), None);
    (host, fleet)
}

fn graph_elems(host: &TwoChainsHost) -> [ElementId; 3] {
    [
        host.builtin_id(BuiltinJam::GraphLookup).unwrap(),
        host.builtin_id(BuiltinJam::GraphFilter).unwrap(),
        host.builtin_id(BuiltinJam::GraphAggregate).unwrap(),
    ]
}

/// Every shard's `graph.accum`, shard by shard: each shard aggregates the
/// items of the banks it drains into an instance of its own.
fn accum(host: &TwoChainsHost) -> Vec<u8> {
    (0..host.num_shards())
        .flat_map(|shard| host.read_shard_data(shard, "graph.accum", 0, 16).unwrap())
        .collect()
}

/// The per-item key: deterministic in (bank, slot) so both schedules process
/// the identical operand multiset.
fn key_for(bank: usize, slot: usize) -> u64 {
    ((bank as u64) << 16 | slot as u64).wrapping_mul(0x9E37_79B9) | 1
}

/// Every mailbox carries the full 3-stage chain in one frame; drained with
/// shard bursts. Returns (results multiset, aggregate oracle bytes, host).
fn run_chained_fleet() -> (Vec<u64>, Vec<u8>, TwoChainsHost) {
    let (mut host, mut fleet) = build();
    let [lookup, filter, agg] = graph_elems(&host);
    let cfg = host.config().clone();
    for (stream, lane) in fleet.lanes_mut().iter_mut().enumerate() {
        for bank in (0..cfg.banks).filter(|b| b % SHARDS == stream) {
            for slot in 0..cfg.mailboxes_per_bank {
                let msg = spec(lookup)
                    .local()
                    .args(graph_args(key_for(bank, slot)))
                    .then(filter)
                    .then(agg);
                lane.send_spec(bank, slot, &msg).unwrap();
            }
        }
    }
    let mut results = Vec::new();
    for shard in 0..SHARDS {
        let out = host
            .receive_burst(shard, usize::MAX, SimTime::from_ns(1_000_000))
            .unwrap();
        assert!(out.rejected.is_empty(), "rejected: {:?}", out.rejected);
        results.extend(out.frames.iter().map(|f| f.outcome.result));
    }
    fleet.harvest_completions();
    let accum = accum(&host);
    (results, accum, host)
}

/// The same operands through the same stages, one message per stage: each
/// item's intermediate result is carried back out and re-sent as the next
/// stage's ARGS. Single-slot receives keep the result feedback exact.
fn run_sequential_fleet() -> (Vec<u64>, Vec<u8>, TwoChainsHost) {
    let (mut host, mut fleet) = build();
    let elems = graph_elems(&host);
    let cfg = host.config().clone();
    let mut results = Vec::new();
    for (stream, lane) in fleet.lanes_mut().iter_mut().enumerate() {
        for bank in (0..cfg.banks).filter(|b| b % SHARDS == stream) {
            for slot in 0..cfg.mailboxes_per_bank {
                let mut carried = key_for(bank, slot);
                for elem in elems {
                    let msg = spec(elem).local().args(graph_args(carried));
                    let sent = lane.send_spec(bank, slot, &msg).unwrap();
                    let out = host
                        .receive(
                            bank,
                            slot,
                            Some(sent.wire_bytes),
                            sent.delivered(),
                            SimTime::ZERO,
                        )
                        .unwrap();
                    carried = out.result;
                }
                results.push(carried);
            }
        }
    }
    fleet.harvest_completions();
    let accum = accum(&host);
    (results, accum, host)
}

#[test]
fn chained_fleet_matches_sequential_sends() {
    let (mut chained, chain_accum, chain_host) = run_chained_fleet();
    let (mut sequential, seq_accum, seq_host) = run_sequential_fleet();
    let total = chain_host.config().total_mailboxes();

    // Same per-item pipeline results (drain order differs: compare multisets).
    chained.sort_unstable();
    sequential.sort_unstable();
    assert_eq!(chained, sequential, "result multisets diverge");

    // Same aggregate-oracle state: every contribution landed exactly once
    // under both schedules.
    assert_eq!(chain_accum, seq_accum, "graph.accum oracles diverge");
    assert!(
        chain_accum.chunks(16).all(|shard| shard != [0; 16]),
        "every shard aggregated: {chain_accum:?}"
    );

    // Same work, N-fold fewer frames.
    let (c, s) = (chain_host.stats(), seq_host.stats());
    assert_eq!(c.executions, (CHAIN_STAGES * total) as u64);
    assert_eq!(s.executions, (CHAIN_STAGES * total) as u64);
    assert_eq!(c.local_executions, s.local_executions);
    assert_eq!(c.messages_received, total as u64, "one frame per item");
    assert_eq!(
        s.messages_received,
        (CHAIN_STAGES * total) as u64,
        "one frame per stage"
    );
    assert_eq!(c.chain_frames, total as u64);
    assert_eq!(c.chain_stages_executed, ((CHAIN_STAGES - 1) * total) as u64);
    assert_eq!(s.chain_frames, 0);
    assert_eq!(s.chain_stages_executed, 0);
    assert_eq!(c.frames_rejected, 0);
    assert_eq!(s.frames_rejected, 0);

    // Flow control follows frames, not stages: every retired frame returned
    // exactly one credit under both schedules.
    assert_eq!(c.credits_returned, c.messages_received);
    assert_eq!(s.credits_returned, s.messages_received);
}

/// One item through one mailbox: primary = first stage, chain = the rest.
fn run_stage_walk_chained(stages: &[ElementId], key: u64) -> (u64, Vec<u8>) {
    let (mut host, mut fleet) = build();
    let mut msg = spec(stages[0]).local().args(graph_args(key));
    for &stage in &stages[1..] {
        msg = msg.then(stage);
    }
    let sent = fleet.lanes_mut()[0].send_spec(0, 0, &msg).unwrap();
    let out = host
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    let accum = accum(&host);
    assert_eq!(host.stats().executions, stages.len() as u64);
    assert_eq!(
        host.stats().chain_stages_executed,
        (stages.len() - 1) as u64
    );
    (out.result, accum)
}

fn run_stage_walk_sequential(stages: &[ElementId], key: u64) -> (u64, Vec<u8>) {
    let (mut host, mut fleet) = build();
    let mut carried = key;
    for &elem in stages {
        let msg = spec(elem).local().args(graph_args(carried));
        let sent = fleet.lanes_mut()[0].send_spec(0, 0, &msg).unwrap();
        let out = host
            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
            .unwrap();
        carried = out.result;
    }
    let accum = accum(&host);
    assert_eq!(host.stats().messages_received, stages.len() as u64);
    assert_eq!(host.stats().chain_frames, 0);
    (carried, accum)
}

proptest! {
    // Each case spins up two full fleets; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For ANY walk over the graph elements — up to the wire format's 8-stage
    /// ceiling, repeats allowed — the chained frame's result and aggregate
    /// side effects equal the stage-by-stage sequential schedule's.
    #[test]
    fn any_stage_walk_is_result_equal_to_sequential_sends(
        walk in prop::collection::vec(0usize..3, 1..9),
        key in any::<u64>(),
    ) {
        let (host, _fleet) = build();
        let elems = graph_elems(&host);
        let stages: Vec<ElementId> = walk.iter().map(|&i| elems[i]).collect();
        let (chained_result, chained_accum) = run_stage_walk_chained(&stages, key);
        let (seq_result, seq_accum) = run_stage_walk_sequential(&stages, key);
        prop_assert_eq!(chained_result, seq_result, "stage walk {:?}", walk);
        prop_assert_eq!(chained_accum, seq_accum, "aggregate oracle diverged");
    }
}

/// A spec with no `then` is no chain: it dispatches as an unchained send.
#[test]
fn zero_stage_chain_dispatches_like_an_unchained_send() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let lookup = rx.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let s = spec(lookup).local().args(graph_args(3));
    assert!(!s.is_chained());
    let sent = tx.send_spec(SimTime::ZERO, &s, &target).unwrap();
    let out = rx
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    assert_eq!(out.result, hash64(3));
    assert_eq!(rx.stats().chain_frames, 0);
    assert_eq!(rx.stats().chain_stages_executed, 0);
}

// ---- stage isolation: a frame's sections, refilled for every stage -----------

/// What every stage of the isolation package writes over both words its
/// entry registers point at, once it has read them.
const SCRIBBLE: u64 = 0x5C5C_5C5C_5C5C_5C5C;
/// The ARGS and USR words of the isolation tests' frames.
const A: u64 = 0x0123_4567_89AB_CDEF;
const U: u64 = 0xFEDC_BA98_7654_3210;

/// A stage that reads the words at `[r0]` and `[r1]`, scribbles over both,
/// reads them back and returns [`scribbled`] of what it read (plus what it
/// read back less the scribble: zero). As a primary or a standalone send
/// `[r0]` is ARGS and `[r1]` USR; a continuation stage under the `Result`
/// map gets the context cell and USR, under `KeepArgs` ARGS and the context
/// cell.
fn scribbling_stage() -> Vec<Instr> {
    let mut a = Assembler::new();
    a.load(Width::B8, Reg(3), Reg(0), 0)
        .load(Width::B8, Reg(4), Reg(1), 0)
        .load_imm(Reg(6), SCRIBBLE)
        .store(Width::B8, Reg(6), Reg(0), 0)
        .store(Width::B8, Reg(6), Reg(1), 0)
        .hash(Reg(5), Reg(3))
        .add(Reg(5), Reg(5), Reg(4))
        .hash(Reg(5), Reg(5));
    for view in [Reg(0), Reg(1)] {
        a.load(Width::B8, Reg(7), view, 0)
            .sub(Reg(7), Reg(7), Reg(6))
            .add(Reg(5), Reg(5), Reg(7));
    }
    a.mov(Reg(0), Reg(5)).ret();
    a.finish().unwrap()
}

/// What [`scribbling_stage`] returns for the words `x` at `[r0]` and `y` at
/// `[r1]`.
fn scribbled(x: u64, y: u64) -> u64 {
    hash64(hash64(x).wrapping_add(y))
}

/// A stage that scribbles over both words, then loads from address 0.
fn faulting_stage() -> Vec<Instr> {
    let mut a = Assembler::new();
    a.load_imm(Reg(6), SCRIBBLE)
        .store(Width::B8, Reg(6), Reg(0), 0)
        .store(Width::B8, Reg(6), Reg(1), 0)
        .load_imm(Reg(3), 0)
        .load(Width::B8, Reg(3), Reg(3), 0)
        .ret();
    a.finish().unwrap()
}

/// The isolation package: the scribbling stage and the faulting one, next to
/// the array ried, whose objects are what a shard's space holds between
/// frames.
fn isolation_package() -> Package {
    let jam = |name: &str, program| JamDefinition::new(name, program).with_args_size(8);
    PackageBuilder::new("isolation")
        .ried(ried_array())
        .jam(jam("iso_stage", scribbling_stage()))
        .jam(jam("iso_fault", faulting_stage()))
        .build()
        .unwrap()
}

/// A one-shard host with the isolation package, a fleet connected to it, and
/// the package's `[stage, fault]` elements.
fn isolation_bed() -> (FleetBed, [ElementId; 2]) {
    let wire = wire();
    let mut host = TwoChainsHost::new(&wire.fabric, wire.b, fleet_config(1)).unwrap();
    host.install_package(isolation_package()).unwrap();
    let fleet =
        SenderFleet::connect_fleet(&wire.fabric, wire.a, &mut host, isolation_package()).unwrap();
    let id = |name| host.package().unwrap().id_of(name).unwrap();
    let elems = [id("iso_stage"), id("iso_fault")];
    (FleetBed { wire, host, fleet }, elems)
}

/// `elem` over the words `args` and `usr`, then `stages` under their maps.
fn isolation_spec(elem: ElementId, args: u64, stages: &[(ElementId, ChainArgMap)]) -> MessageSpec {
    let mut msg = spec(elem)
        .local()
        .args(args.to_le_bytes())
        .usr(U.to_le_bytes());
    for &(stage, map) in stages {
        msg = msg.then(stage).map_result(map);
    }
    msg
}

/// Send `msg` into mailbox (0, 0) and receive it there.
fn exchange(bed: &mut FleetBed, msg: &MessageSpec) -> AmResult<u64> {
    let sent = bed.fleet.lanes_mut()[0].send_spec(0, 0, msg).unwrap();
    let out = bed
        .host
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO);
    bed.fleet.harvest_completions();
    out.map(|o| o.result)
}

/// Every stage of a three-stage chain reads the frame's ARGS and USR as they
/// arrived and the running result in the context cell, although every stage
/// before it wrote over all three: under each pair of maps, and again for a
/// second frame built in the first one's sections.
#[test]
fn every_chained_stage_sees_the_frames_bytes_and_the_running_result() {
    use ChainArgMap::{KeepArgs, Result};
    for maps in [
        [Result, Result],
        [KeepArgs, KeepArgs],
        [Result, KeepArgs],
        [KeepArgs, Result],
    ] {
        let (mut bed, [stage, _]) = isolation_bed();
        let msg = isolation_spec(stage, A, &maps.map(|map| (stage, map)));
        let want = maps.iter().fold(scribbled(A, U), |r, map| match map {
            Result => scribbled(r, U),
            KeepArgs => scribbled(A, r),
        });
        for frame in 0..2 {
            let got = exchange(&mut bed, &msg).unwrap();
            assert_eq!(got, want, "{maps:?} frame {frame}");
        }
        assert_eq!(bed.host.stats().executions, 6);
    }
}

/// A chain whose second stage is an element nobody installed, or a jam that
/// faults after scribbling over its sections, retires as one rejection with
/// one credit. The shard's space keeps no section of it, and the next frame
/// runs.
#[test]
fn a_chain_failing_at_its_second_stage_retires_once_and_leaves_only_persistent_segments() {
    for unknown in [true, false] {
        let (mut bed, [stage, fault]) = isolation_bed();
        let second = if unknown { ElementId(999) } else { fault };
        let what = format!("unknown element {unknown}");
        let good = isolation_spec(stage, A, &[(stage, ChainArgMap::Result); 2]);
        let want = exchange(&mut bed, &good).unwrap();
        let persistent = |host: &TwoChainsHost| host.mapped_segments(0).unwrap();
        let before = persistent(&bed.host);
        assert!(
            before.iter().all(|name| name.starts_with("array.")),
            "{what}: {before:?}"
        );
        let bad = isolation_spec(
            stage,
            A,
            &[(second, ChainArgMap::Result), (stage, ChainArgMap::Result)],
        );
        match exchange(&mut bed, &bad) {
            Err(AmError::ChainStageFailed { stage: 0, .. }) => {}
            other => panic!("{what}: {other:?}"),
        }
        let stats = bed.host.stats();
        assert_eq!(stats.frames_rejected, 1, "{what}");
        assert_eq!(stats.credits_returned, 2, "{what}: one credit a frame");
        assert_eq!(stats.chain_frames, 1, "{what}");
        assert_eq!(persistent(&bed.host), before, "{what}");
        assert_eq!(exchange(&mut bed, &good).unwrap(), want, "{what}");
    }
}

/// A chain longer than the descriptor can carry is refused at the sender.
#[test]
fn send_spec_refuses_overlong_chains() {
    let (rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let lookup = rx.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let mut overlong = spec(lookup).local();
    for _ in 0..twochains::CHAIN_MAX_STAGES + 1 {
        overlong = overlong.then(lookup);
    }
    assert!(matches!(
        tx.send_spec(SimTime::ZERO, &overlong, &target),
        Err(AmError::Unsendable(_))
    ));
}
