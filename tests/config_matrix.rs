//! The whole configuration matrix, not its corners.
//!
//! `RuntimeConfig` keeps one policy knob, `aggregation_policy`, and
//! `frame_aggregation` holds it against its reference on one traffic shape.
//! A policy may change *when* something happens and what it costs in virtual
//! time; it may never change what a message computes, what it leaves in the
//! server's state, how many frames retire, or how many credits the sender can
//! observe. This suite runs both settings under both security presets, one
//! and two shards and four traffic shapes (16 classes), on the deterministic
//! phased schedule (fill every slot, drain, twice), and asserts that within a
//! class every combination observes the same results, the same receiver and
//! sender counters, the same writable ried instances on every shard and the
//! same sender-side token census — and that every retired frame minted
//! exactly one token the sender can see.
//!
//! The ried instances are read through `read_shard_data`: `graph.accum`'s 16
//! bytes and `array.base`'s count word exactly, and `array.base`'s filled
//! slots as a sorted multiset, because the order a shard appends in is
//! timing, not result.
//!
//! A failure names the class, the combination and the first field that
//! differs from the class's first combination: a policy changed something
//! other than time.

mod support;

use support::{fleet_config, fleet_testbed, token_census, FleetBed};
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{graph_args, ssum_args, BuiltinJam};
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

/// Every setting of the policy knob, labelled by what it sets.
fn combinations(shards: usize, security: SecurityPolicy) -> Vec<(String, RuntimeConfig)> {
    let mut base = fleet_config(shards);
    base.security = security;
    [base.clone(), base.with_per_frame_aggregation()]
        .map(|cfg| (format!("{:?} aggregation", cfg.aggregation_policy), cfg))
        .into()
}

/// Every shard's writable ried instances as named values: `graph.accum`'s
/// two words and `array.base`'s count word as they are, `array.base`'s
/// filled slots sorted.
fn server_state(host: &TwoChainsHost) -> Vec<(String, u64)> {
    let words = |shard, symbol, offset, count: u64| {
        let bytes = host
            .read_shard_data(shard, symbol, offset, count as usize * 8)
            .unwrap();
        bytes
            .chunks(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect::<Vec<_>>()
    };
    let mut state = Vec::new();
    for shard in 0..host.num_shards() {
        let accum = words(shard, "graph.accum", 0, 2);
        let count = words(shard, "array.base", 0, 1)[0];
        let mut slots = words(shard, "array.base", 8, count);
        slots.sort_unstable();
        state.extend(
            accum
                .iter()
                .enumerate()
                .map(|(i, w)| (format!("shard {shard} graph.accum word {i}"), *w)),
        );
        state.push((format!("shard {shard} array.base count"), count));
        state.extend(
            slots
                .iter()
                .enumerate()
                .map(|(i, w)| (format!("shard {shard} array.base slots[{i}] (sorted)"), *w)),
        );
    }
    state
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

/// Run `traffic` under `cfg` and return everything a policy may not change,
/// as named values in a fixed order. `what` (class and combination) prefixes
/// the conservation assertions made along the way.
fn observe(what: &str, cfg: RuntimeConfig, traffic: Traffic) -> Vec<(String, u64)> {
    let FleetBed {
        mut host,
        mut fleet,
        ..
    } = fleet_testbed(cfg, None);
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
                    token_census(&host, &fleet) as u64,
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
    seen.extend(server_state(&host));
    seen
}

#[test]
fn every_policy_combination_observes_the_same_run() {
    let presets = [
        ("permissive", SecurityPolicy::Permissive),
        ("hardened", SecurityPolicy::Hardened),
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
                        // all but the bogus chains execute, and their writes
                        // land in the shards' ried instances.
                        let retired = seen[ROUNDS as usize - 1].1;
                        assert_eq!(
                            retired,
                            ROUNDS * 64,
                            "{what}: `retired` short of every slot"
                        );
                        assert!(
                            seen.iter()
                                .any(|(name, v)| name.starts_with("shard ") && *v != 0),
                            "{what}: the run wrote no ried instance"
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
