//! Multi-threaded drain stress test: 4 shards drained from 4 OS threads over a
//! shuffled K-sender interleave must be observationally identical to the same
//! host drained sequentially — delivered frames, per-core cache statistics and
//! merged runtime counters all match.
//!
//! This is the correctness half of the lock-split work (per-core cache
//! hierarchies + shard-local address spaces): the threaded path takes no
//! global lock, so any missed invalidation, stripe race or per-shard state
//! leak shows up here as a counter or result divergence. Run it in release, as
//! CI does (`cargo test --workspace --release`) — optimizations are where
//! ordering bugs bite.

mod support;

use support::{shuffle, wire};
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{indirect_put_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, TwoChainsHost, TwoChainsSender};

const SHARDS: usize = 4;
const SENDERS: usize = 3;
const ROUNDS: usize = 3;

fn config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default().with_shards(SHARDS);
    cfg.frame_capacity = 4096;
    cfg
}

fn build() -> (TwoChainsHost, Vec<TwoChainsSender>) {
    let wire = wire();
    let host = wire.host(config());
    let senders = (0..SENDERS).map(|_| wire.sender(&host)).collect();
    (host, senders)
}

/// The shuffled K-sender interleave both hosts replay identically.
fn shuffled_slots(seed: u64, banks: usize, per_bank: usize) -> Vec<(usize, usize, usize)> {
    let mut order: Vec<(usize, usize, usize)> = (0..banks)
        .flat_map(|b| (0..per_bank).map(move |s| (b, s, (b * per_bank + s) % SENDERS)))
        .collect();
    shuffle(&mut order, seed);
    order
}

/// Fill every mailbox through the shuffled interleave; returns the latest
/// delivery horizon.
fn fill(host: &TwoChainsHost, senders: &mut [TwoChainsSender], round: usize) -> SimTime {
    let id = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let banks = host.config().banks;
    let per_bank = host.config().mailboxes_per_bank;
    let mut horizon = SimTime::ZERO;
    let mut clock = SimTime::ZERO;
    for (bank, slot, sender) in shuffled_slots(
        (round as u64).wrapping_mul(7919).wrapping_add(13),
        banks,
        per_bank,
    ) {
        let key = ((bank * per_bank + slot) as u64).wrapping_mul(31) % 48;
        let usr: Vec<u8> = (0..16u8).map(|b| b.wrapping_mul(key as u8 + 1)).collect();
        let target = host.mailbox_target(bank, slot).unwrap();
        let msg = spec(id)
            .mode(InvocationMode::Injected)
            .args(indirect_put_args(key, 4, 4))
            .usr(usr);
        let sent = senders[sender].send_spec(clock, &msg, &target).unwrap();
        clock = sent.sender_free();
        horizon = horizon.max(sent.delivered());
    }
    horizon
}

#[test]
fn threaded_drain_matches_sequential_baseline() {
    let (mut seq_host, mut seq_senders) = build();
    let (mut par_host, mut par_senders) = build();
    let total_slots = config().total_mailboxes();

    // Prime both hosts identically (and sequentially) so the shared injection
    // caches are warm before the measured rounds: with a cold cache, two
    // parallel shards can race on the first decode of the same key and record
    // one extra miss — a legal outcome, but one that would make the exact
    // counter comparison below timing-dependent.
    for host_senders in [
        (&mut seq_host, &mut seq_senders),
        (&mut par_host, &mut par_senders),
    ] {
        let (host, senders) = host_senders;
        let horizon = fill(host, senders, usize::MAX / 2);
        for shard in 0..SHARDS {
            let out = host.receive_burst(shard, usize::MAX, horizon).unwrap();
            assert!(out.rejected.is_empty());
        }
        host.reset_stats();
    }

    let mut seq_results: Vec<u64> = Vec::new();
    let mut par_results: Vec<u64> = Vec::new();

    for round in 0..ROUNDS {
        // Identical fills on both hosts.
        let seq_horizon = fill(&seq_host, &mut seq_senders, round);
        let par_horizon = fill(&par_host, &mut par_senders, round);
        assert_eq!(seq_horizon, par_horizon, "send streams must be identical");

        // Baseline: one burst per shard, sequentially on this thread.
        let mut seq_round = 0usize;
        for shard in 0..SHARDS {
            let out = seq_host
                .receive_burst(shard, usize::MAX, seq_horizon)
                .unwrap();
            assert!(out.rejected.is_empty());
            seq_round += out.len();
            seq_results.extend(out.frames.iter().map(|f| f.outcome.result));
        }
        assert_eq!(seq_round, total_slots);

        // Same drain, one OS thread per shard, no global lock anywhere.
        let drained: Vec<Vec<u64>> = std::thread::scope(|s| {
            par_host
                .shard_drains()
                .into_iter()
                .map(|mut drain| {
                    s.spawn(move || {
                        let out = drain.receive_burst(usize::MAX, par_horizon).unwrap();
                        assert!(out.rejected.is_empty());
                        out.frames.iter().map(|f| f.outcome.result).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(drained.len(), SHARDS, "one drain handle per shard");
        assert_eq!(drained.iter().map(Vec::len).sum::<usize>(), total_slots);
        par_results.extend(drained.into_iter().flatten());
    }

    // Same frames delivered, same per-message results (bank ownership is
    // deterministic, so even the per-shard grouping matches; compare as
    // multisets to stay independent of intra-round ordering).
    seq_results.sort_unstable();
    par_results.sort_unstable();
    assert_eq!(seq_results, par_results);

    // Merged runtime counters match exactly.
    let (a, b) = (seq_host.stats(), par_host.stats());
    assert_eq!(a.messages_received, b.messages_received);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.injected_executions, b.injected_executions);
    assert_eq!(a.injected_code_cache_hits, b.injected_code_cache_hits);
    assert_eq!(a.injected_code_cache_misses, b.injected_code_cache_misses);
    assert_eq!(a.got_cache_hits, b.got_cache_hits);
    assert_eq!(a.got_cache_misses, b.got_cache_misses);
    assert_eq!(a.frames_rejected, 0);
    assert_eq!(a.poisoned_quarantined, b.poisoned_quarantined);
    assert_eq!(
        a.exec_time, b.exec_time,
        "modelled time is thread-invariant"
    );

    // Per-shard runtime counters and per-core private-cache statistics match
    // shard for shard: each core's L1/L2 sees exactly its own access stream
    // (plus the same DMA invalidations), however the threads interleave.
    for shard in 0..SHARDS {
        let sa = seq_host.shard_stats(shard).unwrap();
        let sb = par_host.shard_stats(shard).unwrap();
        assert_eq!(
            sa.messages_received, sb.messages_received,
            "shard {shard} delivered counts"
        );
        assert_eq!(
            seq_host.shard_cache_stats(shard).unwrap(),
            par_host.shard_cache_stats(shard).unwrap(),
            "shard {shard} per-core cache stats"
        );
    }

    // And the global simulated-cache picture agrees (no accesses were lost or
    // double-charged by the striped shared levels).
    let ha = seq_host.hierarchy_stats();
    let hb = par_host.hierarchy_stats();
    assert_eq!(ha.l1_hits, hb.l1_hits);
    assert_eq!(ha.l2_hits, hb.l2_hits);
    assert_eq!(
        ha.l3_hits + ha.llc_hits + ha.dram_accesses,
        hb.l3_hits + hb.llc_hits + hb.dram_accesses,
        "every private miss lands at exactly one shared level"
    );
}
