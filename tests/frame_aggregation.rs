//! Pins the two sender-side aggregation policies against each other.
//!
//! `AggregationPolicy::PerFrame` is the compatibility contract: one tracked
//! put per frame, each mailbox holding exactly the bytes a pre-aggregation
//! `TwoChainsSender` would have put there — pinned byte-for-byte below.
//! `AggregationPolicy::Adaptive` (the default) packs same-bank frames into
//! multi-frame containers behind one put; it must be observationally
//! equivalent — same result multiset, same receiver execution counters, same
//! payload byte accounting — with only the shape counters (`batch_puts`,
//! `batches_received`) telling the two wire behaviours apart.

mod support;

use support::{fleet_testbed, wire, FleetBed};
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{ssum_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, TwoChainsHost};

const SHARDS: usize = 2;

fn config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default().with_shards(SHARDS);
    cfg.banks = 4;
    cfg.mailboxes_per_bank = 4;
    cfg.frame_capacity = 4096;
    cfg.completion_window = cfg.total_mailboxes();
    cfg
}

/// The per-slot payload: distinct per (bank, slot) so every result identifies
/// its message.
fn payload(bank: usize, slot: usize) -> (Vec<u8>, Vec<u8>) {
    let val = (bank * 16 + slot + 1) as u32;
    let usr: Vec<u8> = (0..4u32).flat_map(|_| val.to_le_bytes()).collect();
    (ssum_args(4), usr)
}

/// Drain every shard until dry; returns (results, rejected count).
fn drain_all(host: &mut TwoChainsHost) -> (Vec<u64>, usize) {
    let mut results = Vec::new();
    let mut rejected = 0usize;
    for shard in 0..host.num_shards() {
        let out = host
            .receive_burst(shard, usize::MAX, SimTime::ZERO)
            .expect("drain");
        results.extend(out.frames.iter().map(|f| f.outcome.result));
        rejected += out.rejected.len();
    }
    (results, rejected)
}

/// The compatibility pin: under `PerFrame`, every mailbox the fleet fills
/// holds *byte-identical* wire contents to a pre-aggregation
/// `TwoChainsSender` replaying the same per-lane send order — headers,
/// sequence numbers, payload and trailer, compared over the full mailbox
/// capacity so stray container bytes cannot hide past the frame length.
#[test]
fn per_frame_wire_bytes_match_the_standalone_sender() {
    let FleetBed {
        wire: wire_a,
        host: host_a,
        mut fleet,
    } = fleet_testbed(config().with_per_frame_aggregation(), None);
    let elem = host_a.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    fleet
        .fill_all(elem, InvocationMode::Injected, 0, &|ctx| {
            payload(ctx.bank, ctx.slot)
        })
        .unwrap();
    assert_eq!(fleet.stats().batch_puts, 0, "PerFrame must never batch");

    // Replay the identical sends on a second, identical testbed through the
    // plain sender path: one fresh `TwoChainsSender` per stream, walking the
    // stream's banks in the same bank-major order the lane fills them.
    let wire_b = wire();
    let host_b = wire_b.host(config());
    let cfg = host_b.config().clone();
    for stream in 0..SHARDS {
        let mut tx = wire_b.sender(&host_b);
        for bank in (0..cfg.banks).filter(|b| b % SHARDS == stream) {
            for slot in 0..cfg.mailboxes_per_bank {
                let (args, usr) = payload(bank, slot);
                let msg = spec(elem)
                    .mode(InvocationMode::Injected)
                    .args(args)
                    .usr(usr);
                let target = host_b.mailbox_target(bank, slot).unwrap();
                tx.send_spec(SimTime::ZERO, &msg, &target).unwrap();
            }
        }
    }

    let receiver_a = wire_a.fabric.host(wire_a.b).unwrap();
    let receiver_b = wire_b.fabric.host(wire_b.b).unwrap();
    for bank in 0..cfg.banks {
        for slot in 0..cfg.mailboxes_per_bank {
            let ta = host_a.mailbox_target(bank, slot).unwrap();
            let tb = host_b.mailbox_target(bank, slot).unwrap();
            let wire_a = receiver_a
                .find_region(&ta.region)
                .unwrap()
                .read(ta.offset, ta.capacity)
                .unwrap();
            let wire_b = receiver_b
                .find_region(&tb.region)
                .unwrap()
                .read(tb.offset, tb.capacity)
                .unwrap();
            assert_eq!(
                wire_a, wire_b,
                "mailbox ({bank}, {slot}) diverged from the standalone wire format"
            );
        }
    }
}

/// The default adaptive containers are observationally equal to the per-frame
/// wire behaviour: same result multiset, same receiver execution counters,
/// same payload byte accounting — while actually batching (shape counters
/// nonzero on exactly one side).
#[test]
fn adaptive_containers_match_per_frame_results_and_counters() {
    let run = |cfg: RuntimeConfig| {
        let FleetBed {
            mut host,
            mut fleet,
            ..
        } = fleet_testbed(cfg, None);
        let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
        fleet
            .fill_all(elem, InvocationMode::Injected, 0, &|ctx| {
                payload(ctx.bank, ctx.slot)
            })
            .unwrap();
        // Each lane sent its own slots through its own template cache.
        for stream in 0..SHARDS {
            let lane = fleet.lane(stream).unwrap();
            assert_eq!(lane.stream_id(), stream);
            assert_eq!(lane.stats().messages_sent as usize, lane.slots());
            assert_eq!(lane.stats().template_misses, 1, "per-lane template cache");
        }
        assert_eq!(fleet.stats().template_misses, SHARDS as u64);
        let (mut results, rejected) = drain_all(&mut host);
        assert_eq!(rejected, 0);
        results.sort_unstable();
        (results, host.stats(), fleet.stats())
    };

    let (res_pf, rx_pf, tx_pf) = run(config().with_per_frame_aggregation());
    let (res_ad, rx_ad, tx_ad) = run(config());

    // Same messages, same answers, same execution accounting.
    assert_eq!(res_pf, res_ad, "result multisets diverge");
    assert_eq!(rx_pf.messages_received, rx_ad.messages_received);
    assert_eq!(rx_pf.executions, rx_ad.executions);
    assert_eq!(rx_pf.injected_executions, rx_ad.injected_executions);
    assert_eq!(rx_pf.credits_returned, rx_ad.credits_returned);
    // `bytes_sent` counts inner-frame bytes only (the container envelope is
    // accounting-invisible), so the payload ledger matches exactly.
    assert_eq!(tx_pf.messages_sent, tx_ad.messages_sent);
    assert_eq!(tx_pf.bytes_sent, tx_ad.bytes_sent);
    // Only the wire shape differs: the default policy actually batched.
    assert_eq!(tx_pf.batch_puts, 0);
    assert_eq!(rx_pf.batches_received, 0);
    assert!(
        tx_ad.batch_puts > 0,
        "adaptive fill never built a container"
    );
    assert!(
        tx_ad.batched_frames > tx_ad.batch_puts,
        "containers must be multi-frame"
    );
    assert_eq!(rx_ad.batches_received, tx_ad.batch_puts);
    assert_eq!(rx_ad.batch_frames_received, tx_ad.batched_frames);
}
