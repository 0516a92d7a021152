//! Runtime tests that need crate-private state: a lane's posted-put
//! bookkeeping, the retransmit watchdog's schedule, and the send pipeline's
//! stages stepped one at a time. Everything reachable through the public API is pinned by the
//! workspace's root suites (`tests/`), which build on one shared rig.

use twochains_fabric::{FaultPlan, FaultSnapshot, SimFabric};
use twochains_memsim::{SimTime, TestbedConfig};

use super::fleet::{remember, Posted, Step};
use super::{SenderFleet, SlotCtx, TwoChainsHost};
use crate::builtin::{benchmark_package, ssum_args, BuiltinJam};
use crate::config::{InvocationMode, RuntimeConfig};

/// A host with `shards` shards and a fleet of as many lanes connected to it
/// over a link under `faults`, and a reader of that link's fault counters.
fn fleet_testbed(
    shards: usize,
    faults: Option<FaultPlan>,
) -> (TwoChainsHost, SenderFleet, impl Fn() -> FaultSnapshot) {
    let mut cfg = RuntimeConfig::paper_default().with_shards(shards);
    cfg.frame_capacity = 4096;
    cfg.completion_window = 64;
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    // Before the connect: an endpoint captures its link's fault plan when it
    // is created.
    if let Some(plan) = faults {
        fabric.install_fault_plan(a, b, plan).unwrap();
    }
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    let faulted = move || fabric.fault_counters(a, b).unwrap_or_default();
    (host, fleet, faulted)
}

// --- The send pipeline's stages, driven directly ------------------------------

#[test]
fn a_posted_entrys_claim_on_a_slot_ends_when_the_slot_is_resent() {
    let (_host, mut fleet, _) = fleet_testbed(1, None);
    let lane = &mut fleet.lanes[0];
    let (a, b) = (0, 1);
    // Container one covers slots {a, b}; a's credit returns and a is re-sent
    // in container two; then b's credit returns.
    let (posted, in_flight) = (&mut lane.posted, &mut lane.in_flight);
    let entry = |bytes: &[u8], sns: &[u32], members: &[usize]| Posted {
        bytes: bytes.to_vec(),
        sns: sns.to_vec(),
        members: members.to_vec(),
        carrier: a,
    };
    remember(posted, in_flight, entry(b"container one", &[1, 2], &[a, b]));
    in_flight[a] = false;
    remember(posted, in_flight, entry(b"container two", &[3], &[a]));
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

#[test]
fn a_lane_that_hears_nothing_retries_on_its_schedule_then_fails_loudly() {
    // Every put is lost and the drain is never stepped: no credit and no NACK
    // ever comes, so the watchdog is all that acts.
    let (host, mut fleet, _) = fleet_testbed(1, Some(FaultPlan::drop_only(1.0, 0xC0FFEE)));
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let mut runs = fleet
        .lane_runs(elem, InvocationMode::Injected, 1, &ssum_payload)
        .unwrap();
    let run = &mut runs[0];
    let mut fruitless = 0u32;
    let mut firings = Vec::new();
    let err = loop {
        assert!(fruitless < 100_000, "the watchdog never gave up");
        let before = run.lane.stats().frames_retransmitted;
        match run.step() {
            // Round 0 needs no credit: every frame goes out first.
            Ok(Step::Progressed) if fruitless == 0 => continue,
            Ok(Step::Starved) => fruitless += 1,
            Ok(step) => panic!("{step:?} on a link that loses every put"),
            Err(e) => break e,
        }
        let rose = run.lane.stats().frames_retransmitted - before;
        if rose > 0 {
            assert_eq!(
                rose as usize,
                run.lane.posted.len(),
                "a firing re-puts every live put"
            );
            firings.push(fruitless);
        }
    };
    // The first firing after the 128-step spin phase and a 64-step base delay,
    // then Fibonacci multiples of the base (1, 1, 2, 3, …) clamped at 192.
    let expected: Vec<u32> = [192, 256, 384, 576]
        .into_iter()
        .chain((0..28).map(|k| 768 + 192 * k))
        .collect();
    assert_eq!(firings, expected);
    assert_eq!(fruitless + 1, 6_144, "the 33rd firing is the error");
    assert!(
        err.to_string()
            .contains("exhausted its 32-retry reliability budget"),
        "{err}"
    );
}

/// A Server-Side Sum whose result is a pure function of the slot and round
/// (unlike Indirect Put, whose bump-allocated result depends on the order of
/// first probes — exactly what a schedule reshuffles).
fn ssum_payload(ctx: SlotCtx) -> (Vec<u8>, Vec<u8>) {
    let n = 1 + (ctx.bank * 16 + ctx.slot + ctx.round as usize) % 6;
    let usr = (0..n as u32)
        .flat_map(|i| (i * 7 + ctx.slot as u32 + 100 * ctx.round as u32).to_le_bytes())
        .collect();
    (ssum_args(n as u32), usr)
}

const STEPPED_ROUNDS: usize = 3;

/// Everything one single-threaded pipeline run produced, in a form two runs
/// can be compared by: per-shard frames in drain order, every clock, every
/// counter, and what the link's faults did.
#[derive(Debug, PartialEq)]
struct SteppedRun {
    frames: Vec<Vec<(usize, usize, u64)>>,
    shard_clocks: Vec<SimTime>,
    lane_clocks: Vec<SimTime>,
    fleet_stats: String,
    host_stats: String,
    messages_sent: u64,
    credits_returned: u64,
    frames_retransmitted: u64,
    faults: FaultSnapshot,
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
/// thread, no sleep, no spin, no wall clock — over a link under `faults`.
fn run_stepped(seed: u64, faults: Option<FaultPlan>) -> SteppedRun {
    let (mut host, mut fleet, faulted) = fleet_testbed(2, faults);
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
        frames_retransmitted: fleet.stats().frames_retransmitted,
        faults: faulted(),
    }
}

#[test]
fn the_pipeline_stepped_on_one_thread_is_live_and_bit_reproducible() {
    let first = run_stepped(0xC0FFEE, None);
    assert_eq!(
        first,
        run_stepped(0xC0FFEE, None),
        "one seed, one schedule: results, clocks and counters repeat exactly"
    );
    let other = run_stepped(0x5EED_0002, None);
    assert_ne!(
        first.frames, other.frames,
        "another seed is another schedule"
    );
    assert_eq!(first.result_multiset(), other.result_multiset());

    // On a lossy link the NACKs and the watchdog are steps too: each seed
    // still repeats exactly, and every loss is repaired.
    for seed in [0xC0FFEE, 0x5EED_0002] {
        for plan in [
            FaultPlan::drop_only(0.05, seed),
            FaultPlan::mixed(0.05, seed),
        ] {
            let lossy = run_stepped(seed, Some(plan));
            assert_eq!(lossy, run_stepped(seed, Some(plan)), "{plan:?}");
            assert_eq!(lossy.result_multiset(), first.result_multiset(), "{plan:?}");
            assert_eq!(lossy.messages_sent, first.messages_sent, "{plan:?}");
            assert_ne!(
                lossy.faults,
                FaultSnapshot::default(),
                "{plan:?} left the link clean"
            );
            assert!(
                lossy.frames_retransmitted >= lossy.faults.dropped,
                "{plan:?}: {} retransmits for {} drops",
                lossy.frames_retransmitted,
                lossy.faults.dropped
            );
        }
    }

    // The threaded driver runs the same state machines: same multiset, same
    // order-independent counters.
    let (mut host, mut fleet, _) = fleet_testbed(2, None);
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
