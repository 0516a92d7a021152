//! The whole configuration matrix, not its corners.
//!
//! `RuntimeConfig` keeps three policy knobs — `aggregation_policy`,
//! `execution_policy`, `space_mode` — and each of the pairwise suites
//! (`frame_aggregation`, `resolved_exec`, `stress_parallel`) holds one of them
//! against its reference with the other two at a fixed value. A policy may
//! change *when* something happens and what it costs in virtual time; it may
//! never change what a message computes, how many frames retire, or how many
//! credits the sender can observe. This suite runs every combination of the
//! three (8) under both security presets, one and two shards and four traffic
//! shapes (16 classes), on the deterministic phased schedule (fill every slot,
//! drain, twice), and asserts that within a class every combination observes
//! the same results, the same receiver and sender counters and the same
//! sender-side token census — and that every retired frame minted exactly one
//! token the sender can see.
//!
//! A failure names the class, the combination and the first field that
//! differs from the class's first combination: a policy changed something
//! other than time.

use two_chains_suite::fabric::SimFabric;
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, graph_args, ssum_args, BuiltinJam};
use twochains::{
    spec, ElementId, InvocationMode, RuntimeConfig, SecurityPolicy, SenderFleet, TwoChainsHost,
};

/// Fills per slot. The first round's bursts are capped at [`CAP`] mailboxes,
/// so every burst ends on a part-filled credit row and only the closing flush
/// can publish its tokens; the second drains each shard in one scan, so rows
/// fill and the caches are warm.
const ROUNDS: u64 = 2;
const CAP: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Traffic {
    /// Injected Server-Side Sums through `fill_all`: containers form wherever
    /// the lanes aggregate.
    InjectedSums,
    /// The same sums by element id only.
    LocalSums,
    /// lookup → filter → aggregate in one frame, primaries alternating between
    /// Injected and Local.
    Chains,
    /// The same chains, one frame in five naming a last stage nobody
    /// installed: its primary and filter run, then the frame is rejected.
    ChainsWithBogusStage,
}

const TRAFFIC: [Traffic; 4] = [
    Traffic::InjectedSums,
    Traffic::LocalSums,
    Traffic::Chains,
    Traffic::ChainsWithBogusStage,
];

/// Every combination of the policy knobs, labelled by what it sets.
fn combinations(shards: usize, security: SecurityPolicy) -> Vec<(String, RuntimeConfig)> {
    let mut base = RuntimeConfig::paper_default()
        .with_shards(shards)
        .with_sender_streams(shards);
    base.frame_capacity = 4096;
    base.completion_window = base.total_mailboxes();
    base.security = security;
    let mut all = Vec::new();
    for per_frame in [false, true] {
        for interpreted in [false, true] {
            for shard_local in [false, true] {
                let mut cfg = base.clone();
                if per_frame {
                    cfg = cfg.with_per_frame_aggregation();
                }
                if interpreted {
                    cfg = cfg.with_interpreted_execution();
                }
                if shard_local {
                    cfg = cfg.with_shard_local_space();
                }
                let label = format!(
                    "{:?} aggregation, {:?} execution, {:?} space",
                    cfg.aggregation_policy, cfg.execution_policy, cfg.space_mode
                );
                all.push((label, cfg));
            }
        }
    }
    all
}

/// A value distinct per (bank, slot, round), so a result names its message.
fn operand(bank: usize, slot: usize, round: u64) -> u32 {
    (round as u32 * 4096) + (bank * 64 + slot + 1) as u32
}

/// Fill every mailbox once with round `round` of `traffic`.
fn send(host: &TwoChainsHost, fleet: &mut SenderFleet, traffic: Traffic, round: u64) {
    let id = |jam| host.builtin_id(jam).unwrap();
    match traffic {
        Traffic::InjectedSums | Traffic::LocalSums => {
            let mode = match traffic {
                Traffic::InjectedSums => InvocationMode::Injected,
                _ => InvocationMode::Local,
            };
            fleet
                .fill_all(id(BuiltinJam::ServerSideSum), mode, round, &|ctx| {
                    let val = operand(ctx.bank, ctx.slot, ctx.round);
                    let usr = (0..4).flat_map(|_| val.to_le_bytes()).collect();
                    (ssum_args(4), usr)
                })
                .unwrap();
        }
        Traffic::Chains | Traffic::ChainsWithBogusStage => {
            let cfg = host.config();
            let streams = fleet.lane_count();
            for (stream, lane) in fleet.lanes_mut().iter_mut().enumerate() {
                for bank in (0..cfg.banks).filter(|b| b % streams == stream) {
                    for slot in 0..cfg.mailboxes_per_bank {
                        let nth = bank * cfg.mailboxes_per_bank + slot;
                        let mode = match nth % 2 {
                            0 => InvocationMode::Injected,
                            _ => InvocationMode::Local,
                        };
                        let last = match traffic {
                            Traffic::ChainsWithBogusStage if nth.is_multiple_of(5) => {
                                ElementId(0xDEAD)
                            }
                            _ => id(BuiltinJam::GraphAggregate),
                        };
                        let key = u64::from(operand(bank, slot, round)).wrapping_mul(0x9E37_79B9);
                        let msg = spec(id(BuiltinJam::GraphLookup))
                            .mode(mode)
                            .args(graph_args(key | 1))
                            .then(id(BuiltinJam::GraphFilter))
                            .then(last);
                        lane.send_spec(bank, slot, &msg).unwrap();
                    }
                }
            }
        }
    }
}

/// The tokens the sender can observe right now: one `credit_pending` probe per
/// owned mailbox, exactly what a refill would read.
fn token_census(host: &TwoChainsHost, fleet: &SenderFleet) -> u64 {
    let cfg = host.config();
    let mut pending = 0;
    for stream in 0..fleet.lane_count() {
        let lane = fleet.lane(stream).unwrap();
        for bank in (0..cfg.banks).filter(|b| b % fleet.lane_count() == stream) {
            for slot in 0..cfg.mailboxes_per_bank {
                pending += u64::from(lane.credit_pending(bank, slot).unwrap());
            }
        }
    }
    pending
}

/// Run `traffic` under `cfg` and return everything a policy may not change,
/// as named values in a fixed order. `what` (class and combination) prefixes
/// the conservation assertions made along the way.
fn observe(what: &str, cfg: RuntimeConfig, traffic: Traffic) -> Vec<(String, u64)> {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let mut fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    let total = host.config().total_mailboxes() as u64;

    let mut seen = Vec::new();
    let mut results = Vec::new();
    let mut retired = 0u64;
    for round in 0..ROUNDS {
        send(&host, &mut fleet, traffic, round);
        let cap = if round == 0 { CAP } else { usize::MAX };
        loop {
            let before = retired;
            for shard in 0..host.num_shards() {
                let out = host.receive_burst(shard, cap, SimTime::ZERO).unwrap();
                retired += (out.frames.len() + out.rejected.len()) as u64;
                results.extend(out.frames.iter().map(|f| f.outcome.result));
                // Until every slot holds an unconsumed token the census counts
                // retirements one for one; after that it can only stay full.
                assert_eq!(
                    token_census(&host, &fleet),
                    retired.min(total),
                    "{what}: `token census` after a burst of round {round} is not one \
                     token per retired frame ({retired} retired)"
                );
            }
            if retired == before {
                break;
            }
        }
        seen.push((format!("retired by round {round}"), retired));
    }
    fleet.harvest_completions();
    results.sort_unstable();

    let rx = host.stats();
    let tx = fleet.stats();
    assert_eq!(
        rx.credits_returned, retired,
        "{what}: `credits_returned` is not one per retired frame"
    );
    let counters = [
        ("messages_received", rx.messages_received),
        ("executions", rx.executions),
        ("injected_executions", rx.injected_executions),
        ("local_executions", rx.local_executions),
        ("frames_rejected", rx.frames_rejected),
        ("credits_returned", rx.credits_returned),
        ("chain_frames", rx.chain_frames),
        ("chain_stages_executed", rx.chain_stages_executed),
        ("messages_sent", tx.messages_sent),
        ("bytes_sent", tx.bytes_sent),
        ("results.len()", results.len() as u64),
    ];
    seen.extend(counters.map(|(name, value)| (name.to_string(), value)));
    seen.extend(
        results
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("results[{i}] (sorted)"), *r)),
    );
    seen
}

#[test]
fn every_policy_combination_observes_the_same_run() {
    let presets = [
        ("permissive", SecurityPolicy::permissive()),
        ("hardened", SecurityPolicy::hardened()),
    ];
    for (preset, security) in presets {
        for shards in [1, 2] {
            for traffic in TRAFFIC {
                let class = format!("class ({preset}, {shards} shard(s), {traffic:?})");
                let mut reference: Option<(String, Vec<(String, u64)>)> = None;
                for (combination, cfg) in combinations(shards, security) {
                    let what = format!("{class}, combination ({combination})");
                    let seen = observe(&what, cfg, traffic);
                    let Some((first, expected)) = &reference else {
                        // The class must do something: every frame retires,
                        // and all but the bogus chains execute.
                        let retired = seen[ROUNDS as usize - 1].1;
                        assert_eq!(
                            retired,
                            ROUNDS * 64,
                            "{what}: `retired` short of every slot"
                        );
                        reference = Some((combination, seen));
                        continue;
                    };
                    if let Some((want, got)) = expected.iter().zip(&seen).find(|(w, g)| w != g) {
                        panic!(
                            "{what}: `{}` is {} but `{}` is {} under ({first})",
                            got.0, got.1, want.0, want.1
                        );
                    }
                    assert_eq!(
                        seen.len(),
                        expected.len(),
                        "{what}: observed a different number of fields than ({first})"
                    );
                }
            }
        }
    }
}
