//! Token conservation under coalesced credit returns.
//!
//! Coalescing batches how credit tokens ride the reverse fabric — it must
//! never change *how many* ride, or *whether* they arrive. Every retired
//! frame — drained, dispatch-rejected, quarantined, or a suppressed replay —
//! yields exactly one observable token in the owning lane's credit table, and
//! no token is ever withheld across a burst boundary (the mid-burst abort
//! case: a burst cut short after a single frame still publishes that frame's
//! token before control returns).
//!
//! The oracle is the sender's own view: [`SenderLane::credit_pending`] reads
//! the per-slot token byte exactly as the refill spin loop would, so a token
//! counted here is a token a real sender could spend. Minted-but-unflushed
//! tokens are invisible to it — which is precisely the bug class this suite
//! exists to catch.

use two_chains_suite::fabric::{FaultPlan, SimFabric};
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, ssum_args, BuiltinJam};
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
    build_with(config(), None)
}

fn build_with(
    cfg: RuntimeConfig,
    plan: Option<FaultPlan>,
) -> (SimFabric, TwoChainsHost, SenderFleet) {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    if let Some(plan) = plan {
        fabric.install_fault_plan(a, b, plan).unwrap();
    }
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    assert!(host.credit_path_installed());
    (fabric, host, fleet)
}

/// Count the tokens the sender can actually observe: one `credit_pending`
/// probe per owned mailbox, over every lane. This is the ground truth the
/// conservation law is stated against — flush accounting that disagrees with
/// this census is lying.
fn token_census(host: &TwoChainsHost, fleet: &SenderFleet) -> usize {
    let cfg = host.config();
    let mut pending = 0usize;
    for stream in 0..fleet.lane_count() {
        let lane = fleet.lane(stream).unwrap();
        for bank in (0..cfg.banks).filter(|b| b % fleet.lane_count() == stream) {
            for slot in 0..cfg.mailboxes_per_bank {
                if lane.credit_pending(bank, slot).unwrap() {
                    pending += 1;
                }
            }
        }
    }
    pending
}

/// Overwrite mailbox (`bank`, `slot`) with a poisoned header: magic set, but
/// the declared frame length out of range — retired via quarantine.
fn poison(fabric: &SimFabric, host: &TwoChainsHost, bank: usize, slot: usize) {
    let mut raw = fabric
        .endpoint(
            two_chains_suite::fabric::HostId(0),
            two_chains_suite::fabric::HostId(1),
        )
        .unwrap();
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

/// Overwrite mailbox (`bank`, `slot`) with a well-formed frame naming an
/// element the receiver never installed — retired via dispatch rejection.
fn bogus_element(fabric: &SimFabric, host: &TwoChainsHost, bank: usize, slot: usize) {
    let mut raw = fabric
        .endpoint(
            two_chains_suite::fabric::HostId(0),
            two_chains_suite::fabric::HostId(1),
        )
        .unwrap();
    let target = host.mailbox_target(bank, slot).unwrap();
    // A sequence number far above anything the fleet sends, so the replay
    // filter cannot mistake this frame for a duplicate.
    let bytes = Frame::local(0x7FFF_0000, 0xDEAD, vec![0; 20], vec![0; 4]).encode();
    raw.put(SimTime::ZERO, &bytes, &target.region, target.offset)
        .unwrap();
}

/// Drained + quarantined + rejected retirements all mint exactly one
/// sender-observable token each, whatever the flushes batch them into.
#[test]
fn mixed_retirements_conserve_tokens_under_adaptive_flushes() {
    // Per-frame aggregation: the sabotage below overwrites individual wire
    // slots, which only line up with individual frames when nothing batches.
    let (fabric, mut host, mut fleet) = build_with(config().with_per_frame_aggregation(), None);
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let total = host.config().total_mailboxes();

    fleet
        .fill_all(elem, InvocationMode::Injected, 0, &|_| {
            (ssum_args(4), vec![5u8; 16])
        })
        .unwrap();
    // Sabotage two of the filled slots: one quarantined, one dispatch-rejected.
    poison(&fabric, &host, 0, 0);
    bogus_element(&fabric, &host, 0, 1);

    let mut drained = 0usize;
    let mut rejected = 0usize;
    for shard in 0..SHARDS {
        let out = host
            .receive_burst(shard, usize::MAX, SimTime::ZERO)
            .unwrap();
        drained += out.frames.len();
        rejected += out.rejected.len();
    }
    assert_eq!(drained, total - 2);
    assert_eq!(rejected, 2, "one quarantine + one dispatch rejection");

    let stats = host.stats();
    assert_eq!(stats.poisoned_quarantined, 1);
    assert_eq!(stats.frames_rejected, 1);
    // The conservation law: one token per retired frame, no more, no less —
    // and every one of them observable from the sender side right now.
    assert_eq!(stats.credits_returned as usize, total);
    assert_eq!(stats.credit_put_bytes as usize, total);
    assert_eq!(token_census(&host, &fleet), total);
    // Full banks coalesce into row spans: strictly fewer wire ops than
    // tokens is the whole point of coalescing.
    assert!(stats.credit_flushes < stats.credits_returned);
    assert!(stats.credit_flush_max_span > 1);
    assert!(stats.credit_flush_bytes >= stats.credits_returned);
}

/// The mid-burst abort case: a burst capped at one frame ends its scan with
/// accumulated-but-unflushed state — the abort-safe flush at the burst
/// boundary must publish it anyway. After every single-frame burst, the
/// sender-observable census equals the retired count exactly; nothing is
/// withheld waiting for a row to fill.
#[test]
fn a_burst_cut_short_never_withholds_the_tokens_it_minted() {
    // Per-frame aggregation pins the strict shape below: one frame per scan,
    // one single-byte span per abort flush. The aggregated variant follows.
    let (_fabric, mut host, mut fleet) = build_with(config().with_per_frame_aggregation(), None);
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let total = host.config().total_mailboxes();

    fleet
        .fill_all(elem, InvocationMode::Injected, 0, &|_| {
            (ssum_args(4), vec![9u8; 16])
        })
        .unwrap();

    let mut retired = 0usize;
    loop {
        let before = retired;
        for shard in 0..SHARDS {
            let out = host.receive_burst(shard, 1, SimTime::ZERO).unwrap();
            assert!(out.rejected.is_empty());
            retired += out.frames.len();
            // The invariant under test: immediately after the capped burst
            // returns, every token it minted is already on the sender side.
            assert_eq!(
                token_census(&host, &fleet),
                retired,
                "a capped burst must flush before returning"
            );
        }
        if retired == before {
            break;
        }
    }
    assert_eq!(retired, total);
    let stats = host.stats();
    assert_eq!(stats.credits_returned as usize, total);
    // One-frame scans have nothing to coalesce with: the abort flush posts
    // exactly one single-byte span per burst.
    assert_eq!(stats.credit_flushes, stats.credits_returned);
    assert_eq!(stats.credit_flush_max_span, 1);
}

/// The same mid-burst abort law under the default aggregated data path: a
/// capped burst now retires one *container's* worth of inner frames, and
/// every token those frames minted must still be sender-observable before
/// control returns — with the tokens riding coalesced spans, since a
/// container's members share a bank row by construction.
#[test]
fn a_capped_burst_flushes_every_container_token_it_minted() {
    let (_fabric, mut host, mut fleet) = build();
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let total = host.config().total_mailboxes();

    fleet
        .fill_all(elem, InvocationMode::Injected, 0, &|_| {
            (ssum_args(4), vec![9u8; 16])
        })
        .unwrap();

    let mut retired = 0usize;
    loop {
        let before = retired;
        for shard in 0..SHARDS {
            let out = host.receive_burst(shard, 1, SimTime::ZERO).unwrap();
            assert!(out.rejected.is_empty());
            retired += out.frames.len();
            assert_eq!(
                token_census(&host, &fleet),
                retired,
                "a capped burst must flush before returning"
            );
        }
        if retired == before {
            break;
        }
    }
    assert_eq!(retired, total);
    let stats = host.stats();
    assert_eq!(stats.credits_returned as usize, total);
    assert!(
        stats.batch_frames_received > 0,
        "the default policy must actually aggregate"
    );
    // Container retirements land as multi-token row spans, not per-byte puts.
    assert!(stats.credit_flushes < stats.credits_returned);
    assert!(stats.credit_flush_max_span > 1);
}

/// Suppressed replays re-publish an existing token idempotently: under a
/// duplicating/dropping link the pipeline still ends with exactly one token
/// per mailbox and one credit per *received* message.
#[test]
fn replays_mint_nothing_under_adaptive_flushes() {
    // Whether a duplicate put is *observed* as a replay depends on whether
    // the receiver scans between the two arrivals — a wall-clock race the
    // seeded plan cannot pin. Conservation must hold on every run; the
    // replay path itself only has to fire on some seed, so walk a few.
    let mut replays_seen = false;
    for attempt in 0u64..5 {
        // Per-frame aggregation: the 20% plan's replay odds are calibrated
        // against per-frame put volume; container batching divides the number
        // of wire ops the plan samples by the batch size. The aggregated
        // replay path is exercised deterministically in `tests/chaos_fabric.rs`.
        let (_fabric, mut host, mut fleet) = build_with(
            config().with_per_frame_aggregation(),
            Some(FaultPlan::mixed(0.2, 0xFA_B71C + attempt)),
        );
        let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
        let rounds = 3;
        let total = host.config().total_mailboxes();
        let out = drive_pipeline(
            &mut host,
            &mut fleet,
            elem,
            InvocationMode::Injected,
            rounds,
            &|_| (ssum_args(4), vec![1u8; 16]),
        )
        .unwrap();
        assert_eq!(out.drained, rounds * total);
        assert_eq!(out.rejected, 0);

        let stats = host.stats();
        // Replays retire a slot but mint no fresh credit: token accounting
        // stays one per received message. Conservation is proven by
        // completion itself — rounds beyond the first can only be funded by
        // tokens that actually arrived, and the pipeline's completion harvest
        // consumed the final round's tokens one per mailbox, leaving none
        // pending and none missing.
        assert_eq!(stats.credits_returned, stats.messages_received);
        assert_eq!(stats.credits_returned as usize, rounds * total);
        assert_eq!(token_census(&host, &fleet), 0);
        assert!(stats.credit_flushes >= 1);
        assert!(stats.credit_flush_bytes >= stats.credits_returned);
        if stats.replays_suppressed > 0 {
            replays_seen = true;
            break;
        }
    }
    assert!(
        replays_seen,
        "no seed of the 20% mixed plan exercised the replay path"
    );
}

/// Overwrite mailbox (`bank`, `slot`) with a chained frame whose *primary*
/// dispatches fine (an installed graph element) but whose continuation stage
/// names an element the receiver never installed — retired mid-chain via
/// `ChainStageFailed`.
fn chained_bogus_stage(fabric: &SimFabric, host: &TwoChainsHost, bank: usize, slot: usize) {
    use twochains::builtin::{graph_args, BuiltinJam};
    use twochains::{ChainArgMap, ChainDescriptor, ChainStage};

    let mut raw = fabric
        .endpoint(
            two_chains_suite::fabric::HostId(0),
            two_chains_suite::fabric::HostId(1),
        )
        .unwrap();
    let target = host.mailbox_target(bank, slot).unwrap();
    let lookup = host.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let mut chain = ChainDescriptor::new();
    chain
        .push(ChainStage {
            elem_id: 0xDEAD,
            map: ChainArgMap::Result,
        })
        .unwrap();
    // A sequence number far above anything the fleet sends, so the replay
    // filter cannot mistake this frame for a duplicate.
    let bytes = Frame::local(0x7FFF_0000, lookup.0, graph_args(7), vec![0; 4])
        .with_chain(chain)
        .encode();
    raw.put(SimTime::ZERO, &bytes, &target.region, target.offset)
        .unwrap();
}

/// A frame rejected *mid-chain* — primary executed, continuation stage failed
/// — retires exactly like any other rejection: one `frames_rejected`, one
/// sender-observable token, the stage named in the error, and no residue from
/// the stages that did run.
#[test]
fn mid_chain_rejections_return_one_credit_under_adaptive_flushes() {
    // Per-frame aggregation: the sabotage targets one wire slot directly.
    let (fabric, mut host, mut fleet) = build_with(config().with_per_frame_aggregation(), None);
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let total = host.config().total_mailboxes();

    fleet
        .fill_all(elem, InvocationMode::Injected, 0, &|_| {
            (ssum_args(4), vec![3u8; 16])
        })
        .unwrap();
    // Sabotage one filled slot with the mid-chain failure.
    chained_bogus_stage(&fabric, &host, 0, 0);

    let mut drained = 0usize;
    let mut rejected = Vec::new();
    for shard in 0..SHARDS {
        let out = host
            .receive_burst(shard, usize::MAX, SimTime::ZERO)
            .unwrap();
        drained += out.frames.len();
        rejected.extend(out.rejected);
    }
    assert_eq!(drained, total - 1);
    assert_eq!(rejected.len(), 1, "exactly the sabotaged frame");
    match &rejected[0].2 {
        twochains::AmError::ChainStageFailed { stage, reason } => {
            assert_eq!(*stage, 0, "the first continuation stage is the culprit");
            assert!(
                reason.contains("unknown package element"),
                "reason: {reason}"
            );
        }
        other => panic!("expected ChainStageFailed, got {other:?}"),
    }

    let stats = host.stats();
    assert_eq!(
        stats.frames_rejected, 1,
        "one rejection for the whole chain"
    );
    // The primary ran before the chain broke; the frame still mints exactly
    // one token, like every other retirement.
    assert_eq!(stats.credits_returned as usize, total);
    assert_eq!(token_census(&host, &fleet), total);
}
