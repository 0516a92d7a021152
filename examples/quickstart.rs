//! Quickstart: inject a function over the (simulated) RDMA fabric and execute it on
//! the remote host.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example builds the paper's two-server back-to-back testbed, installs the
//! benchmark package on the receiver, and sends one *Injected Function* Server-Side
//! Sum active message: the function bytecode, its patched GOT, the arguments and the
//! payload all travel in a single one-sided put into a reactive mailbox, and the
//! receiver executes the function the moment the signal byte lands.

use twochains::builtin::{benchmark_package, ssum_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, TwoChainsHost, TwoChainsSender};
use twochains_fabric::SimFabric;
use twochains_memsim::{SimTime, TestbedConfig};

fn main() {
    // 1. The paper's testbed: two Arm servers, ConnectX-6 back to back, LLC stashing.
    let (fabric, client_id, server_id) = SimFabric::back_to_back(TestbedConfig::cluster2021());

    // 2. The server installs the benchmark package: its rieds (array + table) are
    //    loaded into the per-process namespace, and the Local Function library is
    //    built from the same jam definitions.
    let mut server = TwoChainsHost::new(&fabric, server_id, RuntimeConfig::paper_default())
        .expect("server runtime");
    server
        .install_package(benchmark_package().expect("package"))
        .expect("install package");

    // 3. The client connects and learns, out of band, where the server's mailbox is
    //    and what the resolved GOT image for the jam looks like on the server.
    let mut client = TwoChainsSender::new(
        fabric.endpoint(client_id, server_id).expect("endpoint"),
        benchmark_package().expect("package"),
    );
    let jam = server
        .builtin_id(BuiltinJam::ServerSideSum)
        .expect("jam id");
    client.set_remote_got(jam, &server.export_got(jam).expect("exported GOT"));
    let mailbox = server.mailbox_target(0, 0).expect("mailbox");

    // 4. Describe and inject: the message spec is the single construction path
    //    for every send — 16 integers of payload plus 256 bytes of function code.
    let payload: Vec<u8> = (1u32..=16).flat_map(|v| v.to_le_bytes()).collect();
    let msg = spec(jam)
        .mode(InvocationMode::Injected)
        .args(ssum_args(16))
        .usr(payload);
    let sent = client
        .send_spec(SimTime::ZERO, &msg, &mailbox)
        .expect("send");
    println!(
        "frame on the wire : {} bytes (code+GOT = {} bytes)",
        sent.wire_bytes,
        BuiltinJam::ServerSideSum.shipped_code_bytes()
    );
    println!("delivered at      : {}", sent.delivered());

    // 5. The server's receiver thread wakes on the signal byte and runs the function.
    let out = server
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .expect("receive");
    println!(
        "sum computed      : {} (expected {})",
        out.result,
        (1..=16u64).sum::<u64>()
    );
    println!("one-way latency   : {}", out.handler_done);
    println!("handler time      : {}", out.handler_time);

    // 6. The result was appended to the server-side array exported by `ried_array`.
    let slot0 = server
        .read_shard_data(0, "array.base", 8, 8)
        .expect("server array");
    println!(
        "server array[0]   : {}",
        u64::from_le_bytes(slot0.try_into().unwrap())
    );
    assert_eq!(out.result, 136);
}
