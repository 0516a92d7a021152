//! Irregular graph-analytics workload on receiver-side function chains: the
//! lookup → filter → aggregate pipeline runs entirely next to the data, in one
//! injected round trip per item.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```
//!
//! The paper's motivating applications are "large-scale irregular applications
//! composed of many coordinating tasks that operate on a shared data set" —
//! tiny data-dependent stages whose intermediate values are worthless to the
//! client. Shipping each stage as its own message drags every intermediate
//! across the fabric and pays frame parse + cache probes per stage. A chained
//! frame names the whole pipeline up front: the receiver executes stage k,
//! stores its result in a per-chain context cell, and dispatches stage k+1
//! through the Local Function library — one frame, one mailbox wait, one
//! parse, N stages.
//!
//! Both schedules below process the identical update stream through the
//! identical stages; the example checks they are result- and side-effect-equal
//! and reports how much dispatch the chain amortises away.

use twochains::builtin::{benchmark_package, graph_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, TwoChainsHost, TwoChainsSender};
use twochains_fabric::SimFabric;
use twochains_memsim::{SimTime, TestbedConfig};

const STAGES: usize = 3;

fn build() -> (TwoChainsHost, TwoChainsSender) {
    let (fabric, client_id, server_id) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut server = TwoChainsHost::new(&fabric, server_id, RuntimeConfig::paper_default())
        .expect("server runtime");
    server
        .install_package(benchmark_package().expect("package"))
        .expect("install package");
    let mut client = TwoChainsSender::new(
        fabric.endpoint(client_id, server_id).expect("endpoint"),
        benchmark_package().expect("package"),
    );
    for jam in [
        BuiltinJam::GraphLookup,
        BuiltinJam::GraphFilter,
        BuiltinJam::GraphAggregate,
    ] {
        let id = server.builtin_id(jam).expect("jam id");
        client.set_remote_got(id, &server.export_got(id).expect("exported GOT"));
    }
    (server, client)
}

fn main() {
    let updates = 256u64;
    println!("graph-update stream: {updates} items through lookup -> filter -> aggregate\n");

    // Schedule A — three separate injected messages per item. Every stage is a
    // full round trip: the intermediate result must come back to the client
    // just to be re-sent as the next stage's 8-byte operand.
    let (mut server_seq, mut client_seq) = build();
    let target = server_seq.mailbox_target(0, 0).expect("mailbox");
    let stages = [
        server_seq.builtin_id(BuiltinJam::GraphLookup).unwrap(),
        server_seq.builtin_id(BuiltinJam::GraphFilter).unwrap(),
        server_seq.builtin_id(BuiltinJam::GraphAggregate).unwrap(),
    ];
    let mut seq_results = Vec::new();
    let mut seq_dispatch = SimTime::ZERO;
    for key in 0..updates {
        let mut carried = key;
        for elem in stages {
            let msg = spec(elem)
                .mode(InvocationMode::Injected)
                .args(graph_args(carried));
            let sent = client_seq
                .send_spec(SimTime::ZERO, &msg, &target)
                .expect("send");
            let out = server_seq
                .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
                .expect("receive");
            seq_dispatch += out.dispatch_time;
            carried = out.result;
        }
        seq_results.push(carried);
    }

    // Schedule B — one chained frame per item: the spec names the pipeline,
    // the receiver threads each stage's result into the next stage's entry
    // registers through the per-chain context cell. One round trip per item.
    let (mut server_chain, mut client_chain) = build();
    let target = server_chain.mailbox_target(0, 0).expect("mailbox");
    let mut chain_results = Vec::new();
    let mut chain_dispatch = SimTime::ZERO;
    for key in 0..updates {
        let msg = spec(stages[0])
            .mode(InvocationMode::Injected)
            .args(graph_args(key))
            .then(stages[1])
            .then(stages[2]);
        let sent = client_chain
            .send_spec(SimTime::ZERO, &msg, &target)
            .expect("send");
        let out = server_chain
            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
            .expect("receive");
        chain_dispatch += out.dispatch_time;
        chain_results.push(out.result);
    }

    // Same pipeline, same answers, same aggregate state next to the data.
    assert_eq!(seq_results, chain_results, "schedules must be result-equal");
    let accum_seq = server_seq.read_shard_data(0, "graph.accum", 0, 16).unwrap();
    let accum_chain = server_chain
        .read_shard_data(0, "graph.accum", 0, 16)
        .unwrap();
    assert_eq!(accum_seq, accum_chain, "aggregate oracles must match");
    let aggregated = u64::from_le_bytes(accum_chain[0..8].try_into().unwrap());
    let weight_sum = u64::from_le_bytes(accum_chain[8..16].try_into().unwrap());

    let st_seq = server_seq.stats();
    let st_chain = server_chain.stats();
    assert_eq!(
        st_seq.executions, st_chain.executions,
        "identical stage work"
    );
    assert_eq!(st_chain.chain_frames, updates);
    assert_eq!(
        st_chain.chain_stages_executed,
        (STAGES as u64 - 1) * updates
    );

    let seq_per_stage = seq_dispatch.as_ns() / (updates as f64 * STAGES as f64);
    let chain_per_stage = chain_dispatch.as_ns() / (updates as f64 * STAGES as f64);
    let amortization = seq_per_stage / chain_per_stage;

    println!(
        "{:<28} {:>10} {:>12} {:>16}",
        "schedule", "frames", "round trips", "dispatch/stage"
    );
    println!(
        "{:<28} {:>10} {:>12} {:>13.0} ns",
        "one message per stage",
        st_seq.messages_received,
        updates * STAGES as u64,
        seq_per_stage
    );
    println!(
        "{:<28} {:>10} {:>12} {:>13.0} ns",
        "chained (one frame)", st_chain.messages_received, updates, chain_per_stage
    );
    println!(
        "\naggregate at the server : {aggregated} items folded in, filtered weight sum {weight_sum}"
    );
    println!("per-stage dispatch amortization: {amortization:.2}x");
    assert!(
        amortization >= 2.0,
        "chained dispatch must amortise >=2x over per-stage messages"
    );
}
