//! A batch container's inner frames declare their own destination slots — a
//! `u16` straight off the wire. A slot the bank does not have must retire that
//! one inner frame as a rejection and nothing else: no aborted burst, no lost
//! or minted credit, no write into another mailbox's replay entry. The same
//! sixteen bits bound the sender: a bank is at most as wide as they can name,
//! and every slot of the widest bank is credited. And two inner frames naming
//! one slot each publish their token, in order, through the same-slot guard of
//! the credit path.

use two_chains_suite::fabric::SimFabric;
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, ssum_args, BuiltinJam};
use twochains::frame::FrameBatch;
use twochains::{AmError, Frame, InvocationMode, RuntimeConfig, SenderFleet, TwoChainsHost};

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

/// The sender's side of the same field: a lane declares an inner frame's slot
/// in those 16 bits, so a bank may be as wide as they can name and no wider. A
/// wider bank used to be accepted, its slots past 65 535 declared modulo 2^16:
/// their frames executed, their credits were minted onto the aliased slots a
/// second time, and the lane could never refill them.
#[test]
fn a_bank_is_as_wide_as_the_slot_field_and_every_slot_of_it_is_credited() {
    let bank_of = |slots: usize| {
        let mut cfg = RuntimeConfig::paper_default();
        cfg.banks = 1;
        cfg.mailboxes_per_bank = slots;
        cfg.frame_capacity = 1024;
        cfg.completion_window = cfg.total_mailboxes();
        cfg
    };
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let refused = TwoChainsHost::new(&fabric, b, bank_of(65_537));
    let Err(AmError::InvalidConfig(why)) = refused else {
        panic!("a 65 537-slot bank must be refused, got {refused:?}");
    };
    assert!(why.contains("u16"), "the refusal names the field: {why}");

    let slots = 65_536;
    let mut host = TwoChainsHost::new(&fabric, b, bank_of(slots)).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let mut fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    fleet
        .fill_all(elem, InvocationMode::Local, 0, &|ctx| {
            let usr = (ctx.slot as u32).to_le_bytes().to_vec();
            (ssum_args(1), usr)
        })
        .unwrap();
    let out = host.receive_burst(0, usize::MAX, SimTime::ZERO).unwrap();
    assert!(out.rejected.is_empty(), "{:?}", out.rejected.first());
    // Every frame retired against the slot it was sent to ...
    let mut seen: Vec<(usize, u64)> = out
        .frames
        .iter()
        .map(|f| (f.slot, f.outcome.result))
        .collect();
    seen.sort_unstable();
    assert!(seen
        .iter()
        .enumerate()
        .all(|(i, &(slot, sum))| slot == i && sum == i as u64));
    assert_eq!(seen.len(), slots);
    assert!(host.stats().batches_received > 0, "containers formed");
    // ... and the sender can observe a token on every one of them.
    assert_eq!(host.stats().credits_returned, slots as u64);
    let lane = fleet.lane(0).unwrap();
    let observable = (0..slots)
        .filter(|&slot| lane.credit_pending(0, slot).unwrap())
        .count();
    assert_eq!(observable, slots);
}

/// Two inner frames of one container declaring the *same* slot: the second
/// retires while the first's token is still unflushed, so the backlog is
/// posted before the new token is minted (one byte cannot hold two), and —
/// the second handler having run long enough to put the watermark at a single
/// withheld token — the new token follows it at once. Both puts are charged
/// to the drain core back to back, in that order.
#[test]
fn two_inner_frames_declaring_one_slot_each_get_a_put_of_their_own() {
    let elem = |host: &TwoChainsHost| host.builtin_id(BuiltinJam::ServerSideSum).unwrap().0;
    let rig = || {
        let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
        let mut cfg = RuntimeConfig::paper_default();
        cfg.completion_window = 8;
        let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
        host.install_package(benchmark_package().unwrap()).unwrap();
        let fleet = SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap())
            .unwrap();
        let raw = fabric.endpoint(a, b).unwrap();
        (host, fleet, raw)
    };
    // What one credit put costs the drain core: a lone frame's closing flush.
    let (mut host, _fleet, mut raw) = rig();
    let target = host.mailbox_target(0, 3).unwrap();
    let frame = ssum_frame(&host, 1);
    let put = raw
        .put(SimTime::ZERO, &frame, &target.region, target.offset)
        .unwrap();
    host.receive_burst(0, usize::MAX, put.delivered).unwrap();
    let one_put = host.stats().credit_put_time;
    assert!(one_put > SimTime::ZERO);

    let (mut host, fleet, mut raw) = rig();
    let long: Vec<u8> = (0..4096u32).flat_map(|v| v.to_le_bytes()).collect();
    let mut batch = FrameBatch::new();
    batch.push(3, &ssum_frame(&host, 1)).unwrap();
    batch
        .push(
            3,
            &Frame::local(2, elem(&host), ssum_args(4096), long).encode(),
        )
        .unwrap();
    let mut container = Vec::new();
    batch.finish_into(&mut container).unwrap();
    let carrier = host.mailbox_target(0, 0).unwrap();
    let put = raw
        .put(SimTime::ZERO, &container, &carrier.region, carrier.offset)
        .unwrap();
    let out = host.receive_burst(0, usize::MAX, put.delivered).unwrap();
    assert!(out.rejected.is_empty());
    let results: Vec<u64> = out.frames.iter().map(|f| f.outcome.result).collect();
    assert_eq!(results, vec![2, 4095 * 4096 / 2]);
    let last = &out.frames[1].outcome;
    assert!(
        (last.handler_done - out.frames[0].outcome.handler_done).as_ns() > 16_384.0,
        "the retire gap must put the watermark at one withheld token"
    );
    let stats = host.stats();
    assert_eq!(
        (
            stats.credits_returned,
            stats.credit_flushes,
            stats.credit_flush_bytes
        ),
        (2, 2, 2)
    );
    assert_eq!(stats.credit_put_time, one_put + one_put);
    assert_eq!(out.drained_at - last.handler_done, one_put + one_put);
    assert!(fleet.lane(0).unwrap().credit_pending(0, 3).unwrap());
}
