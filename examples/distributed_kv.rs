//! A miniature distributed key-value store built on the Indirect Put jam,
//! written by a multi-stream sender fleet and drained with the multi-shard
//! burst API — fill and drain overlapping as a real pipeline.
//!
//! ```text
//! cargo run --example distributed_kv
//! ```
//!
//! This is the workload the paper motivates with graph stores and index tables
//! (§VI-B2): every write goes through a level of indirection (a hash probe) that has
//! to happen *next to the data*. The client injects the Indirect Put function, which
//! probes the server's hash-table ried, claims a slot for the key, and copies the
//! value there — one network operation per write, no round trip for the index lookup.
//!
//! The server runs the sharded receiver in **shard-local space mode**: 4 shards
//! own one mailbox bank each (`bank % 4`), and each shard owns a private
//! instance of the KV table ried, so draining takes no address-space lock and no
//! cache-hierarchy lock. The client side is a [`SenderFleet`]: one sender lane
//! per shard stream (its own endpoint, template cache and completion window),
//! wired in one `connect_fleet` session exchange. Because the key→bank route
//! (`key % 4`) is the same map both sides partition by, every key consistently
//! lands in the same lane's stream *and* the same shard's table — a
//! shard-partitioned KV store whose write batches run through
//! [`drive_pipeline`]: lane threads keep filling while drain threads execute,
//! with per-slot credits returned as one-sided puts into each lane's own
//! registered flag region (§VI-A2) the moment a slot is free.

use twochains::builtin::{benchmark_package, indirect_put_args, BuiltinJam};
use twochains::{drive_pipeline, spec, InvocationMode, RuntimeConfig, SenderFleet, TwoChainsHost};
use twochains_fabric::SimFabric;
use twochains_memsim::TestbedConfig;

fn main() {
    let (fabric, client_id, server_id) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let num_shards = 4;
    let mut server = TwoChainsHost::new(
        &fabric,
        server_id,
        RuntimeConfig::paper_default().with_shards(num_shards),
    )
    .expect("server");
    server
        .install_package(benchmark_package().unwrap())
        .unwrap();
    // One connect wires everything at once — one lane per server shard, its
    // mailbox targets, the receiver-resolved GOT image of every package
    // element, the credit and NACK tables — or fails loudly; a partially
    // wired fleet cannot exist.
    let mut client = SenderFleet::connect_fleet(
        &fabric,
        client_id,
        &mut server,
        benchmark_package().unwrap(),
    )
    .expect("fleet");
    let jam = server.builtin_id(BuiltinJam::IndirectPut).unwrap();
    println!(
        "client fleet: {} lanes, one per server shard",
        client.lane_count()
    );

    // One pipelined batch: every mailbox carries one write. Key k lives at
    // bank k % 4 (stream and shard k % 4), slot k / 4; values are 64-byte
    // records derived from the key. Lane threads fill while drain threads
    // execute — the per-slot credits mean a second batch could start flowing
    // into a slot the moment its first write is done.
    let banks = server.config().banks;
    let keys = banks * server.config().mailboxes_per_bank;
    let out = drive_pipeline(
        &mut server,
        &mut client,
        jam,
        InvocationMode::Injected,
        1,
        &|ctx| {
            let key = (ctx.bank + banks * ctx.slot) as u64;
            let value: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(key as u8 + 1)).collect();
            (indirect_put_args(key, 16, 4), value)
        },
    )
    .expect("pipelined batch");
    assert_eq!(out.drained, keys);
    assert_eq!(out.rejected, 0);

    // (bank, slot) on each drained frame recovers which key the write was for.
    let mut offsets = vec![0u64; keys];
    for frame in &out.results {
        offsets[frame.bank + banks * frame.slot] = frame.result;
    }
    let distinct: std::collections::HashSet<u64> = offsets.iter().copied().collect();
    println!(
        "pipelined batch wrote {keys} keys into {} distinct server-side slots",
        distinct.len()
    );
    assert_eq!(distinct.len(), keys);

    // A targeted rewrite goes through the owning lane's single-slot path: key 7
    // lives in bank 3 (stream and shard 3), and the per-stream completion
    // window flow-controls just that lane.
    let key = 7usize;
    let (bank, slot) = (key % banks, key / banks);
    let rewrite = vec![0xEEu8; 64];
    let msg = spec(jam)
        .mode(InvocationMode::Injected)
        .args(indirect_put_args(key as u64, 16, 4))
        .usr(rewrite);
    let sent = client.lanes_mut()[bank % num_shards]
        .send_spec(bank, slot, &msg)
        .expect("rewrite");
    let burst = server
        .receive_burst(bank % num_shards, usize::MAX, sent.delivered())
        .unwrap();
    assert_eq!(burst.len(), 1);
    let rewrite_out = &burst.frames[0].outcome;
    println!(
        "rewrite of key {key} landed at the same offset: {}",
        rewrite_out.result == offsets[key]
    );
    assert_eq!(rewrite_out.result, offsets[key]);

    println!("server executed {} jams", server.stats().executions);
    for shard in 0..num_shards {
        let cursor = server
            .read_shard_data(shard, "table.data", 0, 8)
            .expect("shard table cursor");
        let lane = client.lane(shard).unwrap();
        println!(
            "shard {shard}: table bump cursor {} bytes (private instance); \
             lane {shard} sent {} writes ({} template miss)",
            u64::from_le_bytes(cursor.try_into().unwrap()),
            lane.stats().messages_sent,
            lane.stats().template_misses,
        );
    }
    let fleet_stats = client.stats();
    println!(
        "fleet totals: {} writes, {} bytes, {} back-pressure stalls",
        fleet_stats.messages_sent, fleet_stats.bytes_sent, fleet_stats.sends_backpressured
    );
    println!(
        "shared caches: {} decode miss, {} hits across all shards",
        server.stats().injected_code_cache_misses,
        server.stats().injected_code_cache_hits
    );
}
