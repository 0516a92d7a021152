//! Multi-shard burst-drain benchmark: how receive throughput scales with the
//! number of receiver shards, and how much wall clock a pipelined sender fleet
//! buys over the phased fill-then-drain schedule.
//!
//! A [`SenderFleet`] (one `TwoChainsSender` per shard stream, each with its own
//! endpoint, template cache and per-stream completion window) streams injected
//! frames into the receiver's banks; the receiver drains with
//! [`TwoChainsHost::receive_burst`], one burst per shard per round. The sweep
//! reports four throughput views per shard count:
//!
//! * **Modelled** (deterministic): the fleet fills lane-by-lane on the driver
//!   thread, then shards drain concurrently in virtual time — a round costs the
//!   *maximum* per-shard drain time, not the sum. This is the simulated-testbed
//!   number the acceptance bar (4-shard ≥ 2× 1-shard) holds against, and it is
//!   reproducible run to run. Since the one-sided credit path (§VI-A2), the
//!   drain windows include the credit-return puts — one token per retired
//!   frame, coalesced into per-row span flushes by the adaptive policy — and
//!   each row reports that flow-control traffic (`model_credit_ops`/`_bytes`
//!   and the virtual-time share the drain cores spent posting credits).
//! * **Wall (drain-only)**: the drain executed with one OS thread per shard via
//!   [`TwoChainsHost::shard_drains`] + `std::thread::scope`, timing only the
//!   drain phase on the host CPU (the PR-3 lock-split metric; the perf gate
//!   bars its 4-shard over 1-shard ratio on a parallel runner).
//! * **Wall (fill-then-drain)**: one full round timed end to end with the send
//!   phase *serialized* on the driver thread before the threaded drain starts —
//!   the schedule every wall measurement used before the fleet existed.
//! * **Wall (pipelined)**: [`drive_pipeline`] — one sender thread per lane and
//!   one drain thread per shard running concurrently, with per-slot credits
//!   returned as one-sided puts into each lane's sender-side flag region, so
//!   fill and drain overlap in wall clock with no host-side channel anywhere.
//!   The row reports the pipelined run's credit traffic too
//!   (`pipe_credit_ops`/`_bytes` — the perf gate requires it nonzero — plus
//!   `pipe_credit_stall_events`, the sender-side stall episodes the gate
//!   bars so coalescing can never starve the lanes). The perf gate bars
//!   4-shard pipelined over fill-then-drain on a parallel runner; on fewer
//!   cores all the wall columns are informational, which is why the report
//!   records `host_parallelism` next to them. Every bar, its number and the
//!   reason for it is a row of [`crate::gate::BARS`].
//!
//! Each shard executes in an address space of its own over the per-core cache
//! hierarchy, so the whole drain path — dispatch, simulated memory charging
//! *and* jam execution — runs without a global lock; the only shared state is
//! the striped L3/LLC/DRAM simulation and the injection caches.

use std::time::Instant;

use twochains::builtin::{benchmark_package, indirect_put_args, BuiltinJam};
use twochains::{
    drive_pipeline, AggregationPolicy, InvocationMode, RuntimeConfig, SenderFleet, ShardMask,
    SlotCtx, TwoChainsHost,
};
use twochains_fabric::{FaultPlan, LinkModel, SimFabric};
use twochains_linker::ElementId;
use twochains_memsim::{SimTime, TestbedConfig};

/// One row of the shard-scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct BurstRow {
    /// Number of receiver shards (= sender streams and drain threads).
    pub shards: usize,
    /// Messages drained in the measured phase.
    pub messages: usize,
    /// Deterministic modelled throughput: messages / max-per-shard virtual drain
    /// time, summed over rounds.
    pub model_msgs_per_sec: f64,
    /// Modelled speedup relative to the sweep's first row (the 1-shard baseline).
    pub model_speedup: f64,
    /// Wall-clock throughput of the threaded drain alone (fill excluded —
    /// the PR-3 lock-split metric; machine- and load-dependent).
    pub wall_msgs_per_sec: f64,
    /// Wall-clock throughput of a full round with the send phase serialized on
    /// the driver thread before the threaded drain (the pre-fleet schedule).
    pub fill_drain_wall_msgs_per_sec: f64,
    /// Wall-clock throughput of the overlapped fill/drain pipeline
    /// ([`drive_pipeline`]): sender and drain threads running concurrently
    /// with per-slot credit flow control.
    pub pipelined_wall_msgs_per_sec: f64,
    /// One-sided credit-return puts issued during the modelled run (§VI-A2:
    /// one per retired frame once the credit path is installed).
    pub model_credit_ops: u64,
    /// Payload bytes those modelled credit puts moved.
    pub model_credit_bytes: u64,
    /// Fraction of the drain cores' modelled busy time (wait + handler +
    /// credit posting) spent posting credit-return puts — the virtual-time
    /// share flow control costs now that it rides the fabric.
    pub model_credit_time_share: f64,
    /// Credit-return puts issued during one pipelined wall rep.
    pub pipe_credit_ops: u64,
    /// Payload bytes those pipelined credit puts moved.
    pub pipe_credit_bytes: u64,
    /// Sender-lane credit-stall episodes during one pipelined wall rep: how
    /// often a lane found no refillable slot and had to spin on its flag
    /// region. The perf gate bars this so credit coalescing cannot trade
    /// drain-core time for sender starvation.
    pub pipe_credit_stall_events: u64,
    /// Average inner frames carried per forward data put in the modelled run
    /// under the default adaptive aggregation (1.0 when nothing batched).
    pub batch_frames_per_put: f64,
    /// Forward data puts per injected frame in the modelled run — the put
    /// amortization the aggregation tentpole buys (the perf gate bars this
    /// at 4 shards; 1.0 is the per-frame wire behaviour).
    pub model_puts_per_frame: f64,
    /// Modelled share of a round (fill span + drain window) the sender CPU
    /// spent on NIC posting (descriptor post + doorbell per put) with the
    /// pre-aggregation per-frame wire behaviour — the "before" view.
    pub model_posting_share_per_frame: f64,
    /// The same posting share under the default adaptive aggregation — the
    /// "after" view; batching N frames behind one put divides the
    /// size-independent posting term by N.
    pub model_posting_share_batched: f64,
}

/// Credit-return traffic observed by one measurement
/// (ops / bytes / virtual-time share).
#[derive(Debug, Clone, Copy, Default)]
struct CreditTraffic {
    ops: u64,
    bytes: u64,
    time_share: f64,
}

/// Read the credit counters out of a host's merged stats.
fn credit_traffic(host: &TwoChainsHost) -> CreditTraffic {
    let stats = host.stats();
    let busy = stats.wait_time + stats.exec_time + stats.credit_put_time;
    CreditTraffic {
        ops: stats.credits_returned,
        bytes: stats.credit_put_bytes,
        time_share: if busy.as_ns() > 0.0 {
            stats.credit_put_time.as_ns() / busy.as_ns()
        } else {
            0.0
        },
    }
}

impl BurstRow {
    /// Pipelined-over-phased wall speedup (the quantity the perf gate bars at
    /// 4 shards on a sufficiently parallel host).
    pub fn pipeline_ratio(&self) -> f64 {
        self.pipelined_wall_msgs_per_sec / self.fill_drain_wall_msgs_per_sec.max(f64::EPSILON)
    }
}

/// Geometry used by the sweep: enough banks for the largest shard count, small
/// frames so the region stays modest. One sender stream per shard, completion
/// window sized to a full fill so steady rounds never stall on the transmit
/// window (per-stream back-pressure is exercised by the dedicated tests
/// instead).
fn sweep_config(shards: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default().with_shards(shards);
    cfg.banks = shards.max(4);
    cfg.mailboxes_per_bank = 16;
    // A carrier mailbox must hold a full default container of the sweep's
    // ~1508-byte injected wire frames (40-byte envelope + 8 x (8 + 1508) =
    // 12104 bytes); 4 KiB would cap containers at two frames via the
    // capacity flush and mute the put amortization the sweep measures.
    cfg.frame_capacity = 16384;
    cfg.completion_window = cfg.total_mailboxes();
    cfg
}

/// Number of hardware threads available to the wall measurements (recorded in
/// the report so the perf gate can tell real scaling headroom from a small CI
/// runner time-slicing the threads).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The per-message payload generator: the same keyed Indirect Put stream the
/// fast-path benches use, derived deterministically from (bank, slot, round)
/// so every schedule — sequential, phased, pipelined — produces the identical
/// message multiset.
fn payload(ctx: SlotCtx, per_bank: usize) -> (Vec<u8>, Vec<u8>) {
    let key = ctx
        .round
        .wrapping_mul(7)
        .wrapping_add((ctx.bank * per_bank + ctx.slot) as u64)
        % 64;
    let args = indirect_put_args(key, 8, 4);
    let usr: Vec<u8> = (0..8u32).flat_map(|v| (v + 1).to_le_bytes()).collect();
    (args, usr)
}

fn build_testbed(shards: usize) -> (TwoChainsHost, SenderFleet, ElementId) {
    build_testbed_with(sweep_config(shards))
}

fn build_testbed_with(cfg: RuntimeConfig) -> (TwoChainsHost, SenderFleet, ElementId) {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).expect("host");
    host.install_package(benchmark_package().expect("package"))
        .expect("install");
    // One connect replaces the hand-rolled endpoint + set_remote_got wiring:
    // per-lane mailbox targets and GOT images come from the host.
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().expect("package"))
            .expect("fleet");
    let elem = host.builtin_id(BuiltinJam::IndirectPut).expect("builtin");
    (host, fleet, elem)
}

/// One warm-up fill+drain so the injection caches, sender templates and
/// simulated cache hierarchy are all in their steady state, then zero the
/// counters. Returns the warm-up delivery horizons — the per-lane virtual
/// clock edges measured rounds advance from.
fn prime(host: &mut TwoChainsHost, fleet: &mut SenderFleet, elem: ElementId) -> Vec<SimTime> {
    let per_bank = host.config().mailboxes_per_bank;
    let horizons = fleet
        .fill_all(elem, InvocationMode::Injected, u64::MAX, &|ctx| {
            payload(ctx, per_bank)
        })
        .expect("prime fill");
    for shard in 0..host.num_shards() {
        host.receive_burst(shard, usize::MAX, SimTime::ZERO)
            .expect("prime drain");
    }
    fleet.harvest_completions();
    host.reset_stats();
    fleet.reset_stats();
    horizons
}

/// Fill every mailbox once (round `round`), lane after lane on the driver
/// thread. Returns the per-stream delivery horizons.
fn fill_round(
    host: &TwoChainsHost,
    fleet: &mut SenderFleet,
    elem: ElementId,
    round: u64,
) -> Vec<SimTime> {
    let per_bank = host.config().mailboxes_per_bank;
    let horizons = fleet
        .fill_all(elem, InvocationMode::Injected, round, &|ctx| {
            payload(ctx, per_bank)
        })
        .expect("fill");
    // Every frame must now be visible to the burst scan — the same iter_ready
    // the drain uses, so the bench never re-derives (bank, slot) indexing.
    // Under the default adaptive aggregation only the *carrier* slot of each
    // container reads ready (the inner frames unbatch during the drain), so
    // the slot-exact census only holds for the per-frame wire behaviour;
    // full coverage is proven by the `drained == total_slots` assert every
    // measurement makes after its drain.
    if host.config().aggregation_policy == AggregationPolicy::PerFrame {
        debug_assert_eq!(
            host.banks().iter_ready(ShardMask::all()).count(),
            host.config().total_mailboxes()
        );
    } else {
        debug_assert!(host.banks().iter_ready(ShardMask::all()).count() > 0);
    }
    horizons
}

/// One policy's deterministic modelled measurement (see [`run_modelled`]).
#[derive(Debug, Clone, Copy)]
struct ModelRun {
    /// Messages drained across all measured rounds.
    messages: usize,
    /// Sum of per-round max-shard drain windows — the throughput denominator.
    drain_time: SimTime,
    /// Credit-return traffic charged inside those drain windows.
    credit: CreditTraffic,
    /// Forward data puts that carried the frames: standalone frames plus one
    /// per multi-frame container.
    puts: u64,
    /// Share of the modelled round time (per-lane fill spans + drain
    /// windows) the sender CPU spent on NIC posting — descriptor post +
    /// doorbell per forward put, size-independent, so this is exactly the
    /// term aggregation divides by the container occupancy.
    posting_share: f64,
}

/// Run `rounds` fill+drain cycles over `shards` shards, modelled (sequential,
/// deterministic), under the given aggregation policy. The drain windows
/// include the one-sided credit puts the burst engine issues per retired
/// frame, so flow control is charged in the modelled view too; the posting
/// share additionally prices the sender-side put stream so the sweep can
/// report the before/after of frame aggregation.
fn run_modelled(shards: usize, rounds: usize, policy: AggregationPolicy) -> ModelRun {
    let mut cfg = sweep_config(shards);
    if policy == AggregationPolicy::PerFrame {
        cfg = cfg.with_per_frame_aggregation();
    }
    let (mut host, mut fleet, elem) = build_testbed_with(cfg);
    let total_slots = host.config().total_mailboxes();
    let mut edges = prime(&mut host, &mut fleet, elem);

    let mut drain_time = SimTime::ZERO;
    let mut fill_time = SimTime::ZERO;
    for round in 0..rounds {
        let horizons = fill_round(&host, &mut fleet, elem, round as u64);
        // Lanes fill concurrently in virtual time, each on its own clock: the
        // round's fill span is the slowest lane's advance past the horizon it
        // ended the previous round on.
        let mut fill_span = SimTime::ZERO;
        for (lane, &horizon) in horizons.iter().enumerate() {
            fill_span = fill_span.max(horizon - edges[lane]);
        }
        fill_time += fill_span;
        // Shards drain concurrently in virtual time, each starting at its own
        // stream's delivery horizon: the round costs the slowest shard's window.
        let mut round_cost = SimTime::ZERO;
        let mut drained = 0usize;
        for (shard, &start) in horizons.iter().enumerate() {
            let out = host.receive_burst(shard, usize::MAX, start).expect("drain");
            drained += out.len();
            round_cost = round_cost.max(out.drained_at - start);
        }
        assert_eq!(drained, total_slots, "every slot drained each round");
        fleet.harvest_completions();
        drain_time += round_cost;
        edges = horizons;
    }
    let credit = credit_traffic(&host);
    assert_eq!(
        credit.ops as usize,
        rounds * total_slots,
        "one credit token per drained frame"
    );
    let sender = fleet.stats();
    assert_eq!(sender.messages_sent as usize, rounds * total_slots);
    if policy == AggregationPolicy::PerFrame {
        assert_eq!(sender.batch_puts, 0, "per-frame baseline must not batch");
    }
    // Forward data puts: every frame that went out standalone, plus one put
    // per multi-frame container.
    let puts = (sender.messages_sent - sender.batched_frames) + sender.batch_puts;
    // NIC posting is size-independent sender CPU per put (descriptor post +
    // doorbell) on the sweep's link model — the same LinkModel behind
    // `SimFabric::back_to_back`.
    let posting_ns = LinkModel::connectx6_back_to_back().put_timing(1).sender_cpu;
    let round_ns = (fill_time + drain_time).as_ns();
    ModelRun {
        messages: rounds * total_slots,
        drain_time,
        credit,
        puts,
        posting_share: posting_ns.as_ns() * puts as f64 / round_ns.max(1e-12),
    }
}

/// The drain-only wall measurement: fill on the driver thread (untimed), then
/// one OS thread per shard drains; returns (messages, wall-clock seconds)
/// scaled from the *fastest* round. Taking the best round rather than the sum
/// makes the wall column robust to scheduler noise on shared CI runners (a
/// background burst that stalls one round should not read as a throughput
/// regression), while still requiring the drain itself to go fast at least
/// once — which it only can when the lock split actually works.
fn run_threaded(shards: usize, rounds: usize) -> (usize, f64) {
    let (mut host, mut fleet, elem) = build_testbed(shards);
    let total_slots = host.config().total_mailboxes();
    prime(&mut host, &mut fleet, elem);

    let mut best_round = f64::INFINITY;
    for round in 0..rounds {
        let horizons = fill_round(&host, &mut fleet, elem, round as u64);
        let start = Instant::now();
        drain_threaded(&mut host, &horizons, total_slots);
        best_round = best_round.min(start.elapsed().as_secs_f64());
        fleet.harvest_completions();
    }
    // Rate is computed from one (best) round's worth of messages and time.
    (total_slots, best_round)
}

/// The phased fill-then-drain wall measurement: the whole round — serialized
/// single-threaded fill *plus* threaded drain — under one timer. This is the
/// schedule the pipelined mode is compared against.
fn run_fill_then_drain(shards: usize, rounds: usize) -> (usize, f64) {
    let (mut host, mut fleet, elem) = build_testbed(shards);
    let total_slots = host.config().total_mailboxes();
    prime(&mut host, &mut fleet, elem);

    let mut best_round = f64::INFINITY;
    for round in 0..rounds {
        let start = Instant::now();
        let horizons = fill_round(&host, &mut fleet, elem, round as u64);
        drain_threaded(&mut host, &horizons, total_slots);
        best_round = best_round.min(start.elapsed().as_secs_f64());
        fleet.harvest_completions();
    }
    (total_slots, best_round)
}

/// One threaded drain pass: every shard drains its banks on its own OS thread,
/// starting from its stream's delivery horizon.
fn drain_threaded(host: &mut TwoChainsHost, horizons: &[SimTime], total_slots: usize) {
    std::thread::scope(|s| {
        let handles: Vec<_> = host
            .shard_drains()
            .into_iter()
            .map(|mut drain| {
                let shard_start = horizons[drain.shard_id()];
                s.spawn(move || {
                    drain
                        .receive_burst(usize::MAX, shard_start)
                        .expect("threaded drain")
                        .len()
                })
            })
            .collect();
        let drained: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(drained, total_slots);
    });
}

/// The pipelined wall measurement: [`drive_pipeline`] runs sender and drain
/// threads concurrently for all `rounds`, with per-slot credits flowing back
/// from drain to fill. The whole run is timed as one unit (rounds lose their
/// phase boundaries under overlap) and repeated `reps` times; the best rep is
/// reported, mirroring the best-round policy of the phased measurements.
fn run_pipelined(shards: usize, rounds: usize, reps: usize) -> (usize, f64, CreditTraffic, u64) {
    let (mut host, mut fleet, elem) = build_testbed(shards);
    let total_slots = host.config().total_mailboxes();
    prime(&mut host, &mut fleet, elem);
    let per_bank = host.config().mailboxes_per_bank;

    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // Per-rep counters (both sides), so the reported credit traffic and
        // stall episodes match one run's message count instead of
        // accumulating across reps.
        host.reset_stats();
        fleet.reset_stats();
        let start = Instant::now();
        let out = drive_pipeline(
            &mut host,
            &mut fleet,
            elem,
            InvocationMode::Injected,
            rounds,
            &|ctx| payload(ctx, per_bank),
        )
        .expect("pipeline");
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(out.drained, rounds * total_slots);
        assert_eq!(out.rejected, 0);
        fleet.harvest_completions();
    }
    let credit = credit_traffic(&host);
    assert_eq!(
        credit.ops as usize,
        rounds * total_slots,
        "pipelined flow control returns one credit token per frame over the fabric"
    );
    let stalls = fleet.stats().credit_stall_events;
    (rounds * total_slots, best, credit, stalls)
}

/// One row of the lossy-fabric sweep: the pipelined engine driven over a link
/// with a seeded [`FaultPlan`], reporting goodput (completed messages per wall
/// second, recovery latency included) and the reliability layer's own
/// accounting — retransmits, suppressed replays and NACK posts next to the
/// faults the fabric actually injected.
#[derive(Debug, Clone, Copy)]
pub struct LossRow {
    /// Total fault probability of the plan (split evenly across
    /// drop/duplicate/reorder); `0.0` means no plan installed at all.
    pub loss_rate: f64,
    /// Messages completed in the measured rounds.
    pub messages: usize,
    /// Completed messages per wall-clock second under faults. This is
    /// *goodput*: only first-time completions count, while the elapsed time
    /// includes every NACK round-trip and watchdog backoff the recovery paid.
    pub goodput_msgs_per_sec: f64,
    /// First-time frame sends (retransmits excluded by design).
    pub frames_sent: u64,
    /// Byte-identical frame retransmits the sender lanes issued.
    pub frames_retransmitted: u64,
    /// Puts the fabric dropped on the faulted link during the measured rounds.
    pub frames_dropped: u64,
    /// Stale deliveries the receiver retired without re-executing.
    pub replays_suppressed: u64,
    /// Gap NACKs the receiver posted into the sender-side tables.
    pub nacks_posted: u64,
    /// Frames the receiver rejected during the measured rounds. Zero on a
    /// pristine link by construction; under a heavy mixed plan a delayed or
    /// duplicated put can land over a reused mailbox and corrupt the frame
    /// in flight (torn frame), which the receiver rejects and retires
    /// without recovery — a known reliability gap tracked in ROADMAP.
    pub frames_rejected: u64,
}

impl LossRow {
    /// Retransmitted frames as a fraction of first-time sends — the wire
    /// overhead the reliability layer paid for this loss rate.
    pub fn retransmit_overhead(&self) -> f64 {
        self.frames_retransmitted as f64 / (self.frames_sent as f64).max(1.0)
    }
}

/// Drive the 4-shard pipelined engine over links of increasing loss and report
/// goodput plus recovery accounting per rate. A rate of `0.0` installs no plan
/// at all, so that row doubles as the proof the reliability layer is free on a
/// pristine fabric (the perf gate holds its fault counters at exactly zero).
///
/// Both the warm-up and the measured rounds run through [`drive_pipeline`]:
/// the phased fill/drain prime has no retransmit machinery, so a dropped
/// prime frame would wedge its mailbox forever.
pub fn loss_sweep(loss_rates: &[f64], messages: usize) -> Vec<LossRow> {
    const SHARDS: usize = 4;
    let slots = sweep_config(SHARDS).total_mailboxes();
    let base_rounds = messages.div_ceil(slots).max(1);
    loss_rates
        .iter()
        .map(|&rate| {
            // Statistical starvation guard: a fault rolls once per *put*, the
            // mixed plan gives each fault class only `rate / 3`, and adaptive
            // aggregation packs ~8 frames behind every data put — so a
            // 1024-message round offers ~128 drop trials. At 1% that is an
            // expected 0.4 drops per round: a single-round row has a ~65%
            // chance of reporting zeroes for every recovery counter while
            // the fabric was genuinely faulted. Scale the measured rounds so
            // each faulted row expects several drops (and with them the
            // NACK-driven retransmits the gate demands be nonzero); the
            // pristine 0.0 row keeps the caller's message count.
            let rounds = if rate > 0.0 {
                let expected_drops_per_round = (slots as f64 / 8.0) * (rate / 3.0);
                base_rounds.max((8.0 / expected_drops_per_round).ceil() as usize)
            } else {
                base_rounds
            };
            let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
            let mut host = TwoChainsHost::new(&fabric, b, sweep_config(SHARDS)).expect("host");
            host.install_package(benchmark_package().expect("package"))
                .expect("install");
            // Before `connect`: endpoints capture the link's fault hook at
            // creation time.
            if rate > 0.0 {
                fabric
                    .install_fault_plan(a, b, FaultPlan::mixed(rate, (rate * 1e4) as u64 + 0x5EED))
                    .expect("plan");
            }
            let mut fleet = SenderFleet::connect_fleet(
                &fabric,
                a,
                &mut host,
                benchmark_package().expect("package"),
            )
            .expect("fleet");
            let elem = host.builtin_id(BuiltinJam::IndirectPut).expect("builtin");
            let per_bank = host.config().mailboxes_per_bank;

            let out = drive_pipeline(
                &mut host,
                &mut fleet,
                elem,
                InvocationMode::Injected,
                1,
                &|ctx| payload(ctx, per_bank),
            )
            .expect("lossy prime");
            // Same two-sided bound as the measured rounds below: a fault can
            // tear a prime frame, which then retires as a rejection (and may
            // additionally drain if the NACK recovery lands in time).
            assert!(out.drained <= slots);
            assert!(out.drained + out.rejected >= slots);
            host.reset_stats();
            fleet.reset_stats();
            let primed_drops = fabric.fault_counters(a, b).map_or(0, |s| s.dropped);

            let start = Instant::now();
            let out = drive_pipeline(
                &mut host,
                &mut fleet,
                elem,
                InvocationMode::Injected,
                rounds,
                &|ctx| payload(ctx, per_bank),
            )
            .expect("lossy pipeline");
            let secs = start.elapsed().as_secs_f64();
            // Every offered frame drains at most once, and none vanish:
            // a faulted run may tear the occasional frame (see
            // `LossRow::frames_rejected`), and a rejected frame that the
            // NACK-driven retransmit later redelivers retires twice — once
            // rejected, once drained — so the two counters bound the offer
            // from both sides instead of summing to it exactly.
            assert!(out.drained <= rounds * slots);
            assert!(out.drained + out.rejected >= rounds * slots);
            if rate == 0.0 {
                assert_eq!(out.drained, rounds * slots);
                assert_eq!(out.rejected, 0, "pristine link must not reject");
            }

            let sender = fleet.stats();
            let receiver = host.stats();
            LossRow {
                loss_rate: rate,
                messages: out.drained,
                goodput_msgs_per_sec: out.drained as f64 / secs.max(1e-12),
                frames_sent: sender.messages_sent,
                frames_retransmitted: sender.frames_retransmitted,
                frames_dropped: fabric.fault_counters(a, b).map_or(0, |s| s.dropped) - primed_drops,
                replays_suppressed: receiver.replays_suppressed,
                nacks_posted: receiver.nacks_posted,
                frames_rejected: out.rejected as u64,
            }
        })
        .collect()
}

/// Sweep the shard counts, draining at least `messages` frames per count (rounded
/// up to whole fill rounds). The first entry is the speedup baseline.
pub fn sweep(shard_counts: &[usize], messages: usize) -> Vec<BurstRow> {
    let mut rows: Vec<BurstRow> = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let slots = sweep_config(shards).total_mailboxes();
        let rounds = messages.div_ceil(slots).max(1);
        // Two modelled passes per shard count: the default adaptive
        // aggregation carries the row's rates, the per-frame pass supplies
        // the "before" posting share the batch columns are compared against.
        let model = run_modelled(shards, rounds, AggregationPolicy::Adaptive);
        let before = run_modelled(shards, rounds, AggregationPolicy::PerFrame);
        assert_eq!(model.messages, before.messages);
        let (n_wall, wall_secs) = run_threaded(shards, rounds);
        let (n_phased, phased_secs) = run_fill_then_drain(shards, rounds);
        let (n_pipe, pipe_secs, pipe_credit, pipe_stalls) = run_pipelined(shards, rounds, 2);
        let model_rate = model.messages as f64 / model.drain_time.as_secs().max(1e-12);
        let wall_rate = n_wall as f64 / wall_secs.max(1e-12);
        let phased_rate = n_phased as f64 / phased_secs.max(1e-12);
        let pipe_rate = n_pipe as f64 / pipe_secs.max(1e-12);
        let baseline = rows.first().map(|r| r.model_msgs_per_sec);
        rows.push(BurstRow {
            shards,
            messages: model.messages,
            model_msgs_per_sec: model_rate,
            model_speedup: model_rate / baseline.unwrap_or(model_rate),
            wall_msgs_per_sec: wall_rate,
            fill_drain_wall_msgs_per_sec: phased_rate,
            pipelined_wall_msgs_per_sec: pipe_rate,
            model_credit_ops: model.credit.ops,
            model_credit_bytes: model.credit.bytes,
            model_credit_time_share: model.credit.time_share,
            pipe_credit_ops: pipe_credit.ops,
            pipe_credit_bytes: pipe_credit.bytes,
            pipe_credit_stall_events: pipe_stalls,
            batch_frames_per_put: model.messages as f64 / model.puts.max(1) as f64,
            model_puts_per_frame: model.puts as f64 / model.messages.max(1) as f64,
            model_posting_share_per_frame: before.posting_share,
            model_posting_share_batched: model.posting_share,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_shards_at_least_double_one_shard_modelled_throughput() {
        let rows = sweep(&[1, 4], 128);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].shards, 1);
        assert!((rows[0].model_speedup - 1.0).abs() < 1e-9);
        // The acceptance bar for the sharded receiver: 4 shards drain the same
        // warm stream at >= 2x the single-shard modelled rate.
        assert!(
            rows[1].model_speedup >= 2.0,
            "4-shard modelled speedup {:.2} (rates {:.0} vs {:.0} msg/s) below 2x",
            rows[1].model_speedup,
            rows[1].model_msgs_per_sec,
            rows[0].model_msgs_per_sec
        );
    }

    #[test]
    fn modelled_rates_are_deterministic() {
        let a = sweep(&[2], 64);
        let b = sweep(&[2], 64);
        assert_eq!(a[0].messages, b[0].messages);
        assert_eq!(a[0].model_msgs_per_sec, b[0].model_msgs_per_sec);
    }

    #[test]
    fn pipelined_mode_drains_every_frame() {
        // The wall rates themselves are machine-dependent, but the pipelined
        // engine must always deliver the full message count with nothing
        // rejected, on any host.
        let (n, secs, credit, _stalls) = run_pipelined(2, 3, 1);
        assert_eq!(n, 3 * sweep_config(2).total_mailboxes());
        assert!(secs > 0.0);
        // Flow control rode the fabric: one credit token per drained frame
        // (one wire byte each, however the flushes spanned them), with a
        // nonzero virtual-time share on the drain cores.
        assert_eq!(credit.ops as usize, n);
        assert_eq!(credit.bytes, credit.ops);
        assert!(credit.time_share > 0.0 && credit.time_share < 1.0);
    }

    #[test]
    fn sweep_reports_credit_traffic_in_modelled_and_pipelined_rows() {
        let rows = sweep(&[2], 64);
        let row = rows[0];
        assert_eq!(row.model_credit_ops as usize, row.messages);
        assert_eq!(row.model_credit_bytes, row.model_credit_ops);
        // How small coalescing must keep the share is a gate bar on every
        // swept row (`gate::BARS`).
        assert!(row.model_credit_time_share > 0.0 && row.model_credit_time_share < 1.0);
        assert_eq!(row.pipe_credit_ops as usize, row.messages);
        assert_eq!(row.pipe_credit_bytes, row.pipe_credit_ops);
    }

    #[test]
    fn aggregation_amortizes_the_nic_posting_path() {
        let rows = sweep(&[4], 128);
        let row = rows[0];
        // The default adaptive policy packs frames behind each forward put;
        // how many it must pack is a gate bar (`gate::BARS`).
        assert!(
            row.batch_frames_per_put > 1.0 && row.model_puts_per_frame < 1.0,
            "adaptive sweep never batched (frames/put {:.2})",
            row.batch_frames_per_put
        );
        // And the posting share moves the right way: batching can only
        // shrink the size-independent post+doorbell term.
        assert!(row.model_posting_share_per_frame > 0.0 && row.model_posting_share_per_frame < 1.0);
        assert!(
            row.model_posting_share_batched < row.model_posting_share_per_frame,
            "batched posting share {:.4} not below per-frame {:.4}",
            row.model_posting_share_batched,
            row.model_posting_share_per_frame
        );
    }

    #[test]
    fn loss_sweep_reports_recovery_accounting() {
        // 0.05 is the highest shipped sweep rate; heavier plans (>= 0.1 over
        // thousands of frames) can currently surface a rare frame rejection
        // the recovery layer does not re-cover — tracked in ROADMAP.
        let rows = loss_sweep(&[0.0, 0.05], 64);
        assert_eq!(rows.len(), 2);
        let (clean, lossy) = (rows[0], rows[1]);
        // No plan => the reliability layer never fired, by construction.
        assert_eq!(clean.frames_retransmitted, 0);
        assert_eq!(clean.frames_dropped, 0);
        assert_eq!(clean.replays_suppressed, 0);
        assert_eq!(clean.nacks_posted, 0);
        assert!((clean.retransmit_overhead() - 0.0).abs() < 1e-12);
        // The faulted row scales its rounds until several drops are expected,
        // so it runs at least the clean row's workload.
        assert!(lossy.messages >= clean.messages);
        assert!(clean.goodput_msgs_per_sec > 0.0);
        assert!(lossy.goodput_msgs_per_sec > 0.0);
        // The starvation guard makes the faulted row's counters honest: a 10%
        // plan over the scaled run must actually drop frames, and lost frames
        // surface as gap NACKs. Zeroes here mean the sweep shrank back below
        // the fault plan's resolution.
        assert!(
            lossy.frames_dropped >= 1,
            "scaled faulted row must observe drops"
        );
        assert!(
            lossy.nacks_posted >= 1,
            "dropped frames must surface as gap NACKs"
        );
        // Torn-frame rejections depend on how delayed/duplicated puts land
        // against mailbox reuse, which shifts with host scheduling when the
        // whole workspace suite runs in parallel — so the bound is a per-cent
        // of offered load, not a fixed handful. Crossing it would mean the
        // recovery layer regressed, not that the fabric got unlucky.
        let rejection_budget = (lossy.messages / 100).max(4) as u64;
        assert!(
            lossy.frames_rejected <= rejection_budget,
            "excessive rejections under faults: {} > {}",
            lossy.frames_rejected,
            rejection_budget
        );
        // Every drop consumed one delivery attempt; attempts beyond
        // `frames_sent` are retransmits, so a completed run covers its drops.
        assert!(
            lossy.frames_retransmitted >= lossy.frames_dropped,
            "retransmits ({}) must cover drops ({})",
            lossy.frames_retransmitted,
            lossy.frames_dropped
        );
    }

    #[test]
    fn pipelined_beats_fill_then_drain_on_parallel_hosts() {
        // With fill and drain overlapped, a 4-shard round completes faster
        // than the phased schedule that serializes the whole send phase
        // first. By how much is a gate bar (`gate::BARS`, informational on
        // small runners); this unit test only asserts the direction, and
        // only where all 8 threads (4 lanes + 4 drains) have real cores, so
        // a time-sliced CI box cannot flake the functional suite on a
        // wall-clock number.
        if host_parallelism() < 8 {
            eprintln!("skipping: host_parallelism < 8, the 8 pipeline threads would time-slice");
            return;
        }
        let rows = sweep(&[4], 256);
        assert!(
            rows[0].pipeline_ratio() > 1.0,
            "pipelined {:.0} msg/s vs fill-then-drain {:.0} msg/s (ratio {:.2}): no overlap",
            rows[0].pipelined_wall_msgs_per_sec,
            rows[0].fill_drain_wall_msgs_per_sec,
            rows[0].pipeline_ratio()
        );
    }
}
