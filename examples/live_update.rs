//! Live update via ried reloading: change what a symbolic name means on one process
//! without restarting anything, and without touching the sender.
//!
//! ```text
//! cargo run --example live_update
//! ```
//!
//! Remote runtime linking "allows distributed application updates to sub-processes of
//! the application that alter subsequent active message behavior (without re-starting
//! the process) by loading a library into a process to change the resolution of
//! objects or functions with fixed symbolic names" (§III). Here the server first
//! resolves `array.append` to the stock implementation, then hot-reloads a ried that
//! binds the same name to a saturating variant; in-flight GOT images keep working
//! because reloads preserve extern indices.

use std::sync::Arc;

use twochains::builtin::{benchmark_package, ssum_args, BuiltinJam, ARRAY_SLOTS};
use twochains::{spec, RuntimeConfig, TwoChainsHost, TwoChainsSender};
use twochains_fabric::SimFabric;
use twochains_linker::RiedBuilder;
use twochains_memsim::{SimTime, TestbedConfig};

fn main() {
    let (fabric, client_id, server_id) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut server =
        TwoChainsHost::new(&fabric, server_id, RuntimeConfig::paper_default()).expect("server");
    server
        .install_package(benchmark_package().unwrap())
        .unwrap();
    let mut client = TwoChainsSender::new(
        fabric.endpoint(client_id, server_id).unwrap(),
        benchmark_package().unwrap(),
    );
    let jam = server.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    client.set_remote_got(jam, &server.export_got(jam).unwrap());
    let target = server.mailbox_target(0, 0).unwrap();

    let send = |client: &mut TwoChainsSender, server: &mut TwoChainsHost, values: &[u32]| {
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let msg = spec(jam).args(ssum_args(values.len() as u32)).usr(payload);
        let sent = client.send_spec(SimTime::ZERO, &msg, &target).unwrap();
        server
            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
            .unwrap()
            .result
    };

    // Before the update: array.append stores the raw sum.
    let before = send(&mut client, &mut server, &[600, 600]);
    println!("sum with stock ried           : {before}");

    // Hot-reload ried_array: the new `array.append` clamps stored values to 1000.
    let v2 = RiedBuilder::new("ried_array")
        .export_heap("array.base", 8 + ARRAY_SLOTS * 8)
        .export_fn(
            "array.append",
            Arc::new(|ctx, args| {
                let sum = args.first().copied().unwrap_or(0).min(1000);
                let base = ctx
                    .space
                    .segment_meta("array.base")
                    .ok_or("array.base not mapped")?
                    .base;
                let counter = ctx.read_u64(base)?;
                let slot = counter % ARRAY_SLOTS as u64;
                ctx.write_u64(base + 8 + slot * 8, sum)?;
                ctx.write_u64(base, counter + 1)?;
                Ok(slot)
            }),
        )
        .build();
    server.load_ried(&v2, true).expect("hot reload");
    println!("reloaded ried_array to version 2 (saturating append)");

    // The client keeps using the GOT image it already has — no re-exchange needed.
    let after = send(&mut client, &mut server, &[600, 600]);
    println!("sum with updated ried         : {after}");

    // The jam's own result (the sum) is unchanged; what changed is the server-side
    // behaviour behind the fixed symbolic name.
    let stored = server.read_shard_data(0, "array.base", 8 + 8, 8).unwrap();
    let stored = u64::from_le_bytes(stored.try_into().unwrap());
    println!("value stored by updated append: {stored}");
    assert_eq!(before, 1200);
    assert_eq!(after, 1200);
    assert_eq!(
        stored, 1000,
        "the reloaded implementation saturates at 1000"
    );
}
