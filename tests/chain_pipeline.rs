//! Receiver-side chain equivalence over the sender fleet: a frame carrying the
//! whole lookup → filter → aggregate graph pipeline must be observationally
//! equal to the same stages shipped as separate sequential messages — same
//! per-item results, same aggregate-oracle state (`graph.accum` counts every
//! contribution, order-independently), same execution counts — while retiring
//! N-fold fewer frames. The suite drives whole fleets (every mailbox, multiset
//! oracle, like `fleet_pipeline`) and arbitrary stage sequences (proptest:
//! any 1..=8-long walk over the three graph elements), pinning that chaining
//! changes message count and nothing else.

mod support;

use proptest::prelude::*;

use support::{fleet_config, fleet_testbed, testbed, FleetBed};
use two_chains_suite::jamvm::isa::hash64;
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{graph_args, BuiltinJam};
use twochains::{spec, AmError, ElementId, RuntimeConfig, SenderFleet, TwoChainsHost};

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
    let accum = host.read_data("graph.accum", 0, 16).unwrap();
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
    let accum = host.read_data("graph.accum", 0, 16).unwrap();
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
    let accum = host.read_data("graph.accum", 0, 16).unwrap();
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
    let accum = host.read_data("graph.accum", 0, 16).unwrap();
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
        Err(AmError::BadFrame(_))
    ));
}
