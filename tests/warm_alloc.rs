//! Heap allocations of a warm drain, counted.
//!
//! A warm message is a header read, two cache probes and a jump in the model;
//! the host side of that should not visit the allocator once per message
//! either. This suite installs a counting `#[global_allocator]` (an
//! integration test is a binary of its own) and holds one warm 64-message
//! `receive_burst` to a fixed allocation budget: what is left is per burst
//! (the scan's slot list, the outcome vectors) and per batch container (its
//! index of inner frames), never per message or per chain stage. A warm
//! three-stage chain received on its own, as `chain3` drains, is held to a
//! per-call budget.
//!
//! A cold message — the first arrival of a function's bytes — has to allocate:
//! it keeps a copy of the code, the decoded program and the lowered one. The
//! last test holds one cold `receive` to those, in calls and in requested
//! bytes, so that a translation step which builds a vector per instruction or
//! lays the jam's padding out again shows up here rather than on a wall clock.
//!
//! The count is a property of the program, not of the machine: it repeats
//! exactly from run to run. It is a count, not a speed-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod support;

use support::{fleet_testbed, FleetBed};
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{graph_args, indirect_put_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, SenderFleet, TwoChainsHost};

/// Allocations a warm 64-message burst may perform in total. The change that
/// added this suite reads 20–24 for plain frames and 11–15 for chained ones;
/// its parent read 532–536 (8.3 per message) and 1 547–1 551 (8.1 per stage).
const BURST_BUDGET: u64 = 32;

/// Allocations one warm three-stage chained frame may perform when received
/// on its own: the change that added this line reads 1 (the buffer of the
/// credit flush that ends the call); its parent read 2, the other being the
/// list of what the slot retired.
const SINGLE_CHAIN_BUDGET: u64 = 1;

/// Allocator calls and requested bytes one cold 1.5 KB Indirect Put `receive`
/// may make. What a cold message still allocates is what it keeps or lowers
/// through, and none of it grows with the jam's `Nop` padding: the code copy,
/// the instructions that are not `Nop`s, the lowered ops and their block
/// entries, and the GOT image. A translation step that materialises the
/// padding again (1 345 of the jam's 1 359 instructions) asks for tens of KB
/// and fails here.
const COLD_BUDGET: Heap = Heap {
    calls: 20,
    bytes: 8 * 1024,
};

/// What a stretch of code asked of the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Heap {
    /// `alloc` and `realloc` calls.
    calls: u64,
    /// Bytes those calls requested (a `realloc` counts its whole new size).
    bytes: u64,
}

thread_local! {
    /// What this thread has asked of the allocator (tests run on threads of
    /// their own).
    static HEAP: Cell<Heap> = const { Cell::new(Heap { calls: 0, bytes: 0 }) };
}

fn note(size: usize) {
    HEAP.with(|heap| {
        let Heap { calls, bytes } = heap.get();
        heap.set(Heap {
            calls: calls + 1,
            bytes: bytes + size as u64,
        });
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counted<R>(f: impl FnOnce() -> R) -> (Heap, R) {
    let before = HEAP.with(Cell::get);
    let out = f();
    let after = HEAP.with(Cell::get);
    let heap = Heap {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
    };
    (heap, out)
}

/// 4 banks × 16 mailboxes of 16 KiB, one shard, one lane: the `warm_stream`
/// testbed.
fn build() -> (TwoChainsHost, SenderFleet) {
    let mut cfg = RuntimeConfig::paper_default().with_shards(1);
    cfg.frame_capacity = 16 * 1024;
    cfg.completion_window = cfg.total_mailboxes();
    let FleetBed { host, fleet, .. } = fleet_testbed(cfg, None);
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
        let (heap, burst) = counted(|| host.receive_burst(0, usize::MAX, horizon).unwrap());
        assert_eq!(burst.frames.len(), 64, "round {round}");
        assert!(burst.rejected.is_empty(), "round {round}");
        drop(burst);
        fleet.harvest_completions();
        if round > 0 {
            counts.push(heap.calls);
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
        let lane = fleet.lanes_mut().last_mut().unwrap();
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

/// Three-stage chains received one at a time through `TwoChainsHost::receive`,
/// the path `chain3` drains through: warm, each call is held to
/// [`SINGLE_CHAIN_BUDGET`].
#[test]
fn a_warm_chained_receive_reuses_the_shards_buffers() {
    let (mut host, mut fleet) = build();
    let [lookup, filter, aggregate] = [
        BuiltinJam::GraphLookup,
        BuiltinJam::GraphFilter,
        BuiltinJam::GraphAggregate,
    ]
    .map(|jam| host.builtin_id(jam).unwrap());
    let mut now = SimTime::ZERO;
    let mut counts = Vec::new();
    for n in 0..8u64 {
        let msg = spec(lookup)
            .args(graph_args(n * 0x9E37 + 1))
            .then(filter)
            .then(aggregate);
        let lane = fleet.lanes_mut().last_mut().unwrap();
        let sent = lane.send_spec(0, 0, &msg).unwrap();
        let (heap, out) = counted(|| host.receive(0, 0, None, sent.delivered(), now).unwrap());
        now = out.handler_done;
        fleet.harvest_completions();
        // The first call lowers the primary and sizes the shard's buffers.
        if n > 0 {
            counts.push(heap.calls);
        }
    }
    let stats = host.stats();
    assert_eq!(stats.chain_frames, 8);
    assert_eq!(stats.executions, 8 * 3, "three stages per frame");
    assert_eq!(
        stats.resolved_cache_misses, 1,
        "every later primary is warm"
    );
    assert!(
        counts.iter().all(|&n| n <= SINGLE_CHAIN_BUDGET),
        "allocations per warm chained receive: {counts:?}"
    );
    println!("allocations per warm chained receive: {counts:?}");
}

#[test]
fn a_cold_injected_put_allocates_what_it_keeps_and_lowers_through() {
    let (mut host, mut fleet) = build();
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let mut now = SimTime::ZERO;
    let mut reads = Vec::new();
    let messages = 5u64;
    for n in 0..messages {
        // As `cold_churn` does: the caches are emptied before every message.
        host.invalidate_injection_caches();
        let usr: Vec<u8> = (0..8u32)
            .flat_map(|i| (i + n as u32).to_le_bytes())
            .collect();
        let msg = spec(elem).args(indirect_put_args(n + 1, 8, 4)).usr(usr);
        let lane = fleet.lanes_mut().last_mut().unwrap();
        let sent = lane.send_spec(0, 0, &msg).unwrap();
        let (heap, out) = counted(|| host.receive(0, 0, None, sent.delivered(), now).unwrap());
        now = out.handler_done;
        fleet.harvest_completions();
        // The first message also sizes the shard's scratch and spare sections.
        if n > 0 {
            reads.push(heap);
        }
    }
    let stats = host.stats();
    assert_eq!(stats.injected_executions, messages);
    assert_eq!(
        (
            stats.resolved_cache_misses,
            stats.injected_code_cache_misses
        ),
        (messages, messages),
        "every message is cold"
    );
    assert!(
        reads
            .iter()
            .all(|heap| heap.calls <= COLD_BUDGET.calls && heap.bytes <= COLD_BUDGET.bytes),
        "allocations of a cold 1.5 KB injected put: {reads:?}"
    );
    println!("allocations of a cold 1.5 KB injected put: {reads:?}");
}
