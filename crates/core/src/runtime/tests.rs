//! Runtime tests that need crate-private state: a lane's posted-put
//! bookkeeping and the retransmit watchdog's schedule. Everything reachable
//! through the public API, the seeded `step_pipeline` included, is pinned by
//! the workspace's root suites (`tests/`), which build on one shared rig.

use twochains_fabric::{FaultPlan, SimFabric};
use twochains_memsim::TestbedConfig;

use super::fleet::{parties, remember, Party, Posted, Step};
use super::{SenderFleet, TwoChainsHost};
use crate::builtin::{benchmark_package, ssum_args, BuiltinJam};
use crate::config::{InvocationMode, RuntimeConfig};
use crate::error::AmError;

/// A host with `shards` shards and a fleet of as many lanes connected to it
/// over a link under `faults`.
fn fleet_testbed(shards: usize, faults: Option<FaultPlan>) -> (TwoChainsHost, SenderFleet) {
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
    (host, fleet)
}

// --- The send pipeline's stages, driven directly ------------------------------

#[test]
fn a_posted_entrys_claim_on_a_slot_ends_when_the_slot_is_resent() {
    let (_host, mut fleet) = fleet_testbed(1, None);
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
    let (mut host, mut fleet) = fleet_testbed(1, Some(FaultPlan::drop_only(1.0, 0xC0FFEE)));
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let payload = |_| (ssum_args(1), 7u32.to_le_bytes().to_vec());
    let mut parties = parties(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        1,
        &payload,
    )
    .unwrap();
    let Party::Lane(run) = &mut parties[0] else {
        panic!("the lanes come first");
    };
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
    assert_eq!(err, AmError::RetryBudgetSpent { lane: 0 });
}
