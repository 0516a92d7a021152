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

mod support;

use support::{fleet_config, fleet_testbed, ints, poisoned_header, FleetBed};
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{indirect_put_args, BuiltinJam};
use twochains::{drive_pipeline, spec, AmError, ElementId, InvocationMode};

const SHARDS: usize = 2;

fn build() -> FleetBed {
    let bed = fleet_testbed(fleet_config(SHARDS), None);
    assert!(
        bed.host.credit_path_installed(),
        "streams == shards must wire the one-sided credit path"
    );
    bed
}

#[test]
fn quarantined_slot_still_returns_its_credit_under_the_parallel_drain() {
    let FleetBed {
        wire,
        mut host,
        mut fleet,
    } = build();
    // A one-sided put of a poisoned header: the one-put denial-of-service the
    // quarantine path exists for, exactly what a malicious or buggy peer with
    // the mailbox descriptor can do.
    support::put(
        &mut wire.raw(),
        &host,
        0,
        0,
        SimTime::ZERO,
        &poisoned_header(),
    );

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
    let FleetBed {
        mut host,
        mut fleet,
        ..
    } = build();
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

/// The single-slot `receive` returns a frame's credit over the fabric like a
/// burst does: one one-byte put, charged, in the owning lane's table.
#[test]
fn single_slot_receive_returns_the_credit_over_the_fabric() {
    let FleetBed {
        mut host,
        mut fleet,
        ..
    } = build();
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let msg = spec(elem).args(indirect_put_args(3, 4, 4)).usr(ints(4));
    let sent = fleet.lanes_mut()[0].send_spec(0, 0, &msg).unwrap();
    assert!(!fleet.lane(0).unwrap().credit_pending(0, 0).unwrap());
    host.receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    let stats = host.stats();
    assert_eq!(stats.credits_returned, 1);
    assert_eq!(stats.credit_put_bytes, 1);
    assert!(stats.credit_put_time > SimTime::ZERO);
    assert!(fleet.lane(0).unwrap().credit_pending(0, 0).unwrap());
    assert!(!fleet.lane(1).unwrap().credit_pending(1, 0).unwrap());
}

/// A frame `receive` rejects retires as a burst's would: the slot cleared,
/// counted and credited, or a lane whose frame was rejected on this path
/// would spin on a token that never changes. An empty slot retires nothing.
#[test]
fn rejected_single_slot_receive_still_retires_and_credits() {
    let FleetBed {
        mut host,
        mut fleet,
        ..
    } = build();
    let msg = spec(ElementId(9999)).local().usr(ints(4));
    let sent = fleet.lanes_mut()[0].send_spec(0, 0, &msg).unwrap();
    let err = host
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, AmError::UnknownElement(9999)));
    let stats = host.stats();
    assert_eq!(stats.frames_rejected, 1);
    assert_eq!(stats.credits_returned, 1);
    assert!(fleet.lane(0).unwrap().credit_pending(0, 0).unwrap());
    // The slot polls empty again: the bank cannot wedge.
    let mailbox = host.banks().mailbox(0, 0).unwrap();
    assert!(mailbox.poll_variable().unwrap().is_none());
    // An empty slot, waited on with or without a length, is `Empty`.
    for len in [None, Some(64)] {
        let empty = host.receive(0, 1, len, SimTime::ZERO, SimTime::ZERO);
        assert!(matches!(empty, Err(AmError::Empty)), "{len:?}: {empty:?}");
    }
    assert_eq!(host.stats().credits_returned, 1);
}
