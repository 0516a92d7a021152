//! One-sided credit returns (§VI-A2) as observable fabric traffic.
//!
//! Flow control must ride the fabric: every retired frame — drained,
//! dispatch-rejected or *quarantined* — mints exactly one credit token into
//! the paired sender lane's credit table, coalesced into per-row span puts.
//! The poisoned-slot cases matter most:
//! a slot wedged by a malicious put is reclaimed by the credit-returning
//! (pipelined) drain, and its credit still comes back, so the owning lane can
//! refill it instead of waiting forever on a token that never changes.
//!
//! Run in release, as CI does — the quarantine test drains with one OS thread
//! per shard over the lock-split receive path.

use two_chains_suite::fabric::SimFabric;
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, indirect_put_args, BuiltinJam};
use twochains::frame::FRAME_HEADER_SIZE;
use twochains::{drive_pipeline, Frame, InvocationMode, RuntimeConfig, SenderFleet, TwoChainsHost};

const SHARDS: usize = 2;

fn config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(SHARDS)
        .with_sender_streams(SHARDS)
        .with_shard_local_space();
    cfg.frame_capacity = 4096;
    cfg.completion_window = cfg.total_mailboxes();
    cfg
}

fn build() -> (SimFabric, TwoChainsHost, SenderFleet) {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, config()).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    assert!(
        host.credit_path_installed(),
        "streams == shards must wire the one-sided credit path"
    );
    (fabric, host, fleet)
}

/// Poison mailbox (`bank`, `slot`): a one-sided put of a header whose magic is
/// set but whose declared frame length is out of range — the one-put
/// denial-of-service the quarantine path exists for. Exactly what a malicious
/// or buggy peer with the mailbox descriptor can do.
fn poison(fabric: &SimFabric, host: &TwoChainsHost, bank: usize, slot: usize) {
    let (fabric_src, fabric_dst) = (
        two_chains_suite::fabric::HostId(0),
        two_chains_suite::fabric::HostId(1),
    );
    assert_eq!(host.host_id(), fabric_dst);
    let mut raw = fabric.endpoint(fabric_src, fabric_dst).unwrap();
    let target = host.mailbox_target(bank, slot).unwrap();
    let mut bytes = Frame::local(1, 0, vec![0; 20], vec![0; 4]).encode();
    bytes[8..12].copy_from_slice(&1_000_000u32.to_le_bytes());
    raw.put(
        SimTime::ZERO,
        &bytes[..FRAME_HEADER_SIZE],
        &target.region,
        target.offset,
    )
    .unwrap();
}

#[test]
fn quarantined_slot_still_returns_its_credit_under_the_parallel_drain() {
    let (fabric, mut host, mut fleet) = build();
    poison(&fabric, &host, 0, 0);

    // The pipelined drain path: one OS thread per shard, each quarantining
    // and crediting as it scans (drive_pipeline's drain threads run exactly
    // this burst engine).
    std::thread::scope(|s| {
        for mut drain in host.shard_drains() {
            let shard = drain.shard_id();
            s.spawn(move || {
                let out = drain.receive_burst(usize::MAX, SimTime::ZERO).unwrap();
                assert_eq!(out.frames.len(), 0, "nothing well-formed was sent");
                assert_eq!(
                    out.rejected.len(),
                    usize::from(shard == 0),
                    "shard 0 owns bank 0 and must quarantine the poisoned slot"
                );
            });
        }
    });
    let stats = host.stats();
    assert_eq!(stats.poisoned_quarantined, 1);
    // The quarantine produced a credit token over the fabric: one op, one
    // wire byte, charged in virtual time on the drain core.
    assert_eq!(stats.credits_returned, 1);
    assert_eq!(stats.credit_put_bytes, 1);
    assert!(stats.credit_put_time > SimTime::ZERO);
    // A lone retirement coalesces with nothing: the scan-end flush posted it
    // as one single-byte span.
    assert_eq!(stats.credit_flushes, 1);
    assert_eq!(stats.credit_flush_bytes, 1);
    assert_eq!(stats.credit_flush_max_span, 1);
    // ... and it landed in the owning lane's sender-side table, so the lane
    // can reuse the slot instead of wedging.
    assert!(fleet.lane(0).unwrap().credit_pending(0, 0).unwrap());
    assert!(
        !fleet.lane(0).unwrap().credit_pending(0, 1).unwrap(),
        "sibling slots earned nothing"
    );

    // The lane indeed cannot wedge: a full pipelined run over the same banks
    // completes, refilling the once-poisoned slot along the way.
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let total = host.config().total_mailboxes();
    let out = drive_pipeline(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        2,
        &|ctx| {
            let key = (ctx.bank * 16 + ctx.slot) as u64 % 48;
            (indirect_put_args(key, 4, 4), vec![7u8; 16])
        },
    )
    .unwrap();
    assert_eq!(out.drained, 2 * total);
    assert_eq!(out.rejected, 0);
}

#[test]
fn pipeline_returns_one_credit_per_frame_over_the_fabric() {
    let (_fabric, mut host, mut fleet) = build();
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let rounds = 3;
    let total = host.config().total_mailboxes();
    let out = drive_pipeline(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        rounds,
        &|ctx| {
            let key = (ctx.bank * 16 + ctx.slot) as u64 % 48;
            (indirect_put_args(key, 4, 4), vec![3u8; 16])
        },
    )
    .unwrap();
    assert_eq!(out.drained, rounds * total);
    let stats = host.stats();
    assert_eq!(stats.credits_returned as usize, rounds * total);
    assert_eq!(stats.credit_put_bytes, stats.credits_returned);
    assert!(
        stats.credit_put_time > SimTime::ZERO,
        "flow control must be charged in virtual time"
    );
    // Every token was published by exactly one flush: no more flushes than
    // tokens (the degenerate bound — one single-byte span each), and the
    // spans covered at least one wire byte per token. Span widths cannot
    // exceed a bank row.
    assert!(stats.credit_flushes >= 1);
    assert!(stats.credit_flushes <= stats.credits_returned);
    assert!(stats.credit_flush_bytes >= stats.credits_returned);
    let per_bank = host.config().mailboxes_per_bank as u64;
    assert!(stats.credit_flush_max_span >= 1 && stats.credit_flush_max_span <= per_bank);
}
