//! A batch container's inner frames declare their own destination slots — a
//! `u16` straight off the wire. A slot the bank does not have must retire that
//! one inner frame as a rejection and nothing else: no aborted burst, no lost
//! or minted credit, no write into another mailbox's replay entry.

use two_chains_suite::fabric::SimFabric;
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, ssum_args, BuiltinJam};
use twochains::frame::FrameBatch;
use twochains::{AmError, Frame, RuntimeConfig, SenderFleet, TwoChainsHost};

/// A Local Server-Side Sum frame over `[sn, sn]`: its result names it.
fn ssum_frame(host: &TwoChainsHost, sn: u32) -> Vec<u8> {
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let usr: Vec<u8> = [sn, sn].iter().flat_map(|v| v.to_le_bytes()).collect();
    Frame::local(sn, elem.0, ssum_args(2), usr).encode()
}

#[test]
fn an_out_of_range_inner_slot_is_rejected_alone() {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, RuntimeConfig::paper_default()).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    // The session installs the credit path and arms the replay filter.
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    let per_bank = host.config().mailboxes_per_bank;
    assert_eq!(per_bank, 16);
    let mut raw = fabric.endpoint(a, b).unwrap();

    // Inner frames sn 1, 2, 3 declaring slots 0, 16 and 1 of a 16-slot bank.
    let mut batch = FrameBatch::new();
    for (sn, slot) in [(1u32, 0u16), (2, per_bank as u16), (3, 1)] {
        batch.push(slot, &ssum_frame(&host, sn)).unwrap();
    }
    let mut container = Vec::new();
    batch.finish_into(&mut container).unwrap();
    let carrier = host.mailbox_target(0, 0).unwrap();
    let put = raw
        .put(SimTime::ZERO, &container, &carrier.region, carrier.offset)
        .unwrap();

    let out = host
        .receive_burst(0, usize::MAX, put.delivered)
        .expect("a hostile inner slot must not abort the burst");
    let drained: Vec<_> = out
        .frames
        .iter()
        .map(|f| (f.bank, f.slot, f.outcome.result))
        .collect();
    assert_eq!(drained, vec![(0, 0, 2), (0, 1, 6)]);
    assert_eq!(out.rejected.len(), 1);
    let (bank, slot, err) = &out.rejected[0];
    assert_eq!((*bank, *slot), (0, per_bank));
    assert!(matches!(err, AmError::BadFrame(_)), "{err:?}");
    let stats = host.stats();
    assert_eq!(
        (
            stats.executions,
            stats.credits_returned,
            stats.frames_rejected
        ),
        (2, 2, 1)
    );
    // Both real slots got their token; no other slot of the lane did.
    let lane = fleet.lane(0).unwrap();
    for bank in 0..host.config().banks {
        for slot in 0..per_bank {
            assert_eq!(
                lane.credit_pending(bank, slot).unwrap(),
                bank == 0 && slot < 2,
                "credit token of ({bank}, {slot})"
            );
        }
    }

    // Index `0 * 16 + 16` of the replay filter is (bank 1, slot 0)'s entry: had
    // the rejected frame's sn 2 been written there, this sn-1 frame would be
    // suppressed as a replay.
    let target = host.mailbox_target(1, 0).unwrap();
    let frame = ssum_frame(&host, 1);
    let put = raw
        .put(out.drained_at, &frame, &target.region, target.offset)
        .unwrap();
    let next = host.receive_burst(0, usize::MAX, put.delivered).unwrap();
    assert_eq!(next.frames.len(), 1, "the neighbour's first frame executes");
    assert_eq!((next.frames[0].bank, next.frames[0].slot), (1, 0));
    assert_eq!(host.stats().replays_suppressed, 0);
}
