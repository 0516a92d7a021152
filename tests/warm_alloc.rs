//! Heap allocations of a warm drain, counted.
//!
//! A warm message is a header read, two cache probes and a jump in the model;
//! the host side of that should not visit the allocator once per message
//! either. This suite installs a counting `#[global_allocator]` (an
//! integration test is a binary of its own) and holds one warm 64-message
//! `receive_burst` to a fixed allocation budget: what is left is per burst
//! (the scan's slot list, the outcome vectors) and per batch container (its
//! index of inner frames), never per message or per chain stage.
//!
//! The count is a property of the program, not of the machine: it repeats
//! exactly from run to run. It is a count, not a speed-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use two_chains_suite::fabric::SimFabric;
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, graph_args, indirect_put_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, SenderFleet, TwoChainsHost};

/// Allocations a warm 64-message burst may perform in total. The change that
/// added this suite reads 20–24 for plain frames and 11–15 for chained ones;
/// its parent read 532–536 (8.3 per message) and 1 547–1 551 (8.1 per stage).
const BURST_BUDGET: u64 = 32;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// 4 banks × 16 mailboxes of 16 KiB, one shard, one lane, shard-local
/// execution: the `warm_stream` testbed.
fn build() -> (TwoChainsHost, SenderFleet) {
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(1)
        .with_sender_streams(1)
        .with_shard_local_space();
    cfg.frame_capacity = 16 * 1024;
    cfg.completion_window = cfg.total_mailboxes();
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    (host, fleet)
}

/// Run `rounds` fill-then-drain rounds, `fill` filling all 64 mailboxes and
/// returning the delivery horizon; returns the allocations of each round's
/// `receive_burst` after the first (which fills every cache and buffer).
fn warm_burst_allocations(
    host: &mut TwoChainsHost,
    fleet: &mut SenderFleet,
    rounds: u64,
    fill: impl Fn(&mut SenderFleet, u64) -> SimTime,
) -> Vec<u64> {
    let mut counts = Vec::new();
    for round in 0..rounds {
        let horizon = fill(fleet, round);
        let (allocations, burst) = counted(|| host.receive_burst(0, usize::MAX, horizon).unwrap());
        assert_eq!(burst.frames.len(), 64, "round {round}");
        assert!(burst.rejected.is_empty(), "round {round}");
        drop(burst);
        fleet.harvest_completions();
        if round > 0 {
            counts.push(allocations);
        }
    }
    counts
}

#[test]
fn a_warm_burst_of_injected_puts_allocates_per_burst_not_per_message() {
    let (mut host, mut fleet) = build();
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let counts = warm_burst_allocations(&mut host, &mut fleet, 6, |fleet, round| {
        fleet
            .fill_all(elem, InvocationMode::Injected, round, &|ctx| {
                let key = (ctx.bank * 16 + ctx.slot) as u64 * 0x9E37 + 1;
                let usr: Vec<u8> = (0..8u32)
                    .flat_map(|i| (i + round as u32).to_le_bytes())
                    .collect();
                (indirect_put_args(key, 8, 4), usr)
            })
            .unwrap()[0]
    });
    let stats = host.stats();
    assert_eq!(stats.injected_executions, 6 * 64);
    assert_eq!(
        stats.resolved_cache_misses, 1,
        "every later message is warm"
    );
    assert!(stats.batches_received > 0, "the fill batches");
    assert!(
        counts.iter().all(|&n| n <= BURST_BUDGET),
        "allocations per warm 64-message burst: {counts:?}"
    );
    println!("allocations per warm 64-message burst: {counts:?}");
}

#[test]
fn a_warm_burst_of_three_stage_chains_allocates_per_burst_not_per_stage() {
    let (mut host, mut fleet) = build();
    let [lookup, filter, aggregate] = [
        BuiltinJam::GraphLookup,
        BuiltinJam::GraphFilter,
        BuiltinJam::GraphAggregate,
    ]
    .map(|jam| host.builtin_id(jam).unwrap());
    let cfg = host.config().clone();
    let counts = warm_burst_allocations(&mut host, &mut fleet, 6, |fleet, round| {
        let mut horizon = SimTime::ZERO;
        let mut lane = fleet.handles().pop().unwrap();
        for bank in 0..cfg.banks {
            for slot in 0..cfg.mailboxes_per_bank {
                let key = ((bank * 16 + slot) as u64 + 64 * round) | 1;
                let msg = spec(lookup)
                    .local()
                    .args(graph_args(key))
                    .then(filter)
                    .then(aggregate);
                let sent = lane.send_spec(bank, slot, &msg).unwrap();
                horizon = horizon.max(sent.delivered());
            }
        }
        horizon
    });
    let stats = host.stats();
    assert_eq!(stats.chain_frames, 6 * 64);
    assert_eq!(stats.executions, 6 * 64 * 3, "three stages per frame");
    assert!(
        counts.iter().all(|&n| n <= BURST_BUDGET),
        "allocations per warm burst of 64 three-stage chains: {counts:?}"
    );
    println!("allocations per warm burst of 64 three-stage chains: {counts:?}");
}
