//! The streaming workloads: a [`SenderFleet`](twochains::SenderFleet) fills
//! every mailbox, the receiver drains them in one burst, round after round.
//!
//! Modelled time follows the repository's own burst model: lanes fill and
//! shards drain concurrently, so a round costs the larger of the slowest
//! lane's fill span and the slowest shard's drain window. A message's latency
//! runs from the moment its lane began the round's fill to its `handler_done`.

use twochains::builtin::{ssum_args, BuiltinJam};
use twochains::memsim::SimTime;
use twochains::{ElementId, InvocationMode, SlotCtx};

use super::{BlockCount, Counters, ModelAcc, Plan, PutOracle, Workload, SUM_INTS};
use crate::gen;
use crate::metrics::Report;
use crate::testbed::{config, FleetBed};
use crate::trace::Tracer;

/// What the stream carries, with its output oracle.
enum Traffic {
    /// Indirect Put over a hot key set. Each shard keeps a table of its own,
    /// so each has an oracle of its own over the same keys.
    Put(Vec<PutOracle>),
    /// Server-Side Sum over a pool of seeded payloads, each message carrying
    /// a seeded length of one, with the generator's own running sums.
    Sum {
        seed: u64,
        /// Shortest and longest payload, in integers.
        ints: (usize, usize),
        /// Per payload: its bytes, and the sum of its first `n` integers.
        pool: Vec<(Vec<u8>, Vec<u64>)>,
    },
}

impl Traffic {
    fn put(seed: u64, lanes: usize) -> Self {
        Traffic::Put(
            (0..lanes)
                .map(|shard| PutOracle::new(seed, 64, shard))
                .collect(),
        )
    }

    fn sum(seed: u64, ints: (usize, usize), pool: usize) -> Self {
        let pool = (0..pool as u64)
            .map(|p| {
                let values: Vec<u32> = (0..ints.1 as u64)
                    .map(|j| gen::mix2(seed, p, j) as u32)
                    .collect();
                let sums = std::iter::once(0)
                    .chain(values.iter().scan(0u64, |sum, &v| {
                        *sum += v as u64;
                        Some(*sum)
                    }))
                    .collect();
                (values.iter().flat_map(|v| v.to_le_bytes()).collect(), sums)
            })
            .collect();
        Traffic::Sum { seed, ints, pool }
    }

    /// Which pool payload the Server-Side Sum at (`a`, `b`) carries, and how
    /// many of its integers.
    fn sum_pick(seed: u64, ints: (usize, usize), pool: usize, a: u64, b: u64) -> (usize, usize) {
        let h = gen::mix2(seed, a, b);
        let len = ints.0 + (h >> 32) as usize % (ints.1 - ints.0 + 1);
        ((h % pool as u64) as usize, len)
    }

    fn coords(round: u64, bank: usize, slot: usize) -> (u64, u64) {
        (round, ((bank as u64) << 16) | slot as u64)
    }

    fn message(&self, ctx: SlotCtx) -> (Vec<u8>, Vec<u8>) {
        let (a, b) = Self::coords(ctx.round, ctx.bank, ctx.slot);
        match self {
            Traffic::Put(shards) => shards[0].message(shards[0].pick(a, b)),
            Traffic::Sum { seed, ints, pool } => {
                let (p, len) = Self::sum_pick(*seed, *ints, pool.len(), a, b);
                (ssum_args(len as u32), pool[p].0[..len * 4].to_vec())
            }
        }
    }

    fn check(&mut self, round: u64, bank: usize, slot: usize, result: u64) -> bool {
        let (a, b) = Self::coords(round, bank, slot);
        match self {
            Traffic::Put(shards) => {
                let owner = bank % shards.len();
                let oracle = &mut shards[owner];
                let key = oracle.pick(a, b);
                oracle.check(key, result)
            }
            Traffic::Sum { seed, ints, pool } => {
                let (p, len) = Self::sum_pick(*seed, *ints, pool.len(), a, b);
                pool[p].1[len] == result
            }
        }
    }
}

#[derive(Clone, Copy)]
struct Shape {
    jam: BuiltinJam,
    mode: InvocationMode,
    lanes: usize,
    frame_capacity: usize,
    rounds_per_block: usize,
    model_blocks_per_10s: usize,
    /// Whether a traced run sends the same traffic through the threaded
    /// pipeline as well.
    threaded_pass: bool,
}

const WARM: Shape = Shape {
    jam: BuiltinJam::IndirectPut,
    mode: InvocationMode::Injected,
    lanes: 1,
    frame_capacity: 16 * 1024,
    rounds_per_block: 100,
    model_blocks_per_10s: 60,
    threaded_pass: true,
};

pub struct Stream {
    shape: Shape,
    bed: FleetBed,
    elem: ElementId,
    traffic: Traffic,
    model_blocks: usize,
    /// Rounds run so far, the priming round included.
    round: u64,
    /// Where each lane's previous round ended: its delivery horizon.
    edges: Vec<SimTime>,
    model: ModelAcc,
    counters: Option<Counters>,
}

impl Stream {
    /// 1.5 KB injected Indirect Put frames over 64 hot keys, eight to a put.
    pub fn warm_stream(plan: Plan, tracer: &mut Tracer) -> Self {
        Self::build(WARM, Traffic::put(plan.seed, 1), plan, tracer)
    }

    /// The traffic of `warm_stream` over two lanes and two shards, still on
    /// one thread: each shard drains its own banks on its own core, table and
    /// credit path, and a round costs the slower of the two.
    pub fn shard2_stream(plan: Plan, tracer: &mut Tracer) -> Self {
        let shape = Shape {
            lanes: 2,
            threaded_pass: false,
            ..WARM
        };
        Self::build(shape, Traffic::put(plan.seed, 2), plan, tracer)
    }

    /// 15 to 16 KiB Server-Side Sum payloads through the Local Function
    /// library; the mailbox holds one frame, so nothing batches.
    pub fn payload_sum(plan: Plan, tracer: &mut Tracer) -> Self {
        let shape = Shape {
            jam: BuiltinJam::ServerSideSum,
            mode: InvocationMode::Local,
            lanes: 1,
            frame_capacity: 24 * 1024,
            rounds_per_block: 4,
            model_blocks_per_10s: 40,
            threaded_pass: false,
        };
        let traffic = Traffic::sum(plan.seed, (SUM_INTS - 256, SUM_INTS), 8);
        Self::build(shape, traffic, plan, tracer)
    }

    fn build(shape: Shape, traffic: Traffic, plan: Plan, tracer: &mut Tracer) -> Self {
        let bed = FleetBed::build(config(shape.lanes, shape.frame_capacity), None, tracer);
        let elem = bed.host.builtin_id(shape.jam).expect("a builtin jam");
        let model_blocks = plan.blocks(shape.model_blocks_per_10s);
        let mut stream = Stream {
            shape,
            elem,
            traffic,
            model_blocks,
            round: 0,
            edges: vec![SimTime::ZERO; shape.lanes],
            model: ModelAcc::default(),
            counters: None,
            bed,
        };
        stream.model = ModelAcc::with_capacity(model_blocks * stream.msgs_per_block() as usize);
        // One untimed round fills the injection caches, the sender templates
        // and the simulated hierarchy; counters restart after it.
        tracer.span("prime", || stream.round(false, &mut Tracer::new(false)));
        stream.bed.host.reset_stats();
        stream.bed.fleet.reset_stats();
        stream
    }

    fn msgs_per_block(&self) -> u64 {
        (self.shape.rounds_per_block * self.bed.host.config().total_mailboxes()) as u64
    }

    /// One fill and drain of every mailbox. Returns messages that failed.
    fn round(&mut self, model: bool, tracer: &mut Tracer) -> u64 {
        let Stream {
            shape,
            bed,
            traffic,
            round,
            ..
        } = self;
        let lanes = shape.lanes;
        let starts: Vec<SimTime> = (0..lanes)
            .map(|l| bed.fleet.lane(l).expect("lane").clock())
            .collect();
        let this_round = *round;
        let horizons = tracer.span("sender.fill", || {
            bed.fleet
                .fill_all(self.elem, shape.mode, this_round, &|ctx| {
                    traffic.message(ctx)
                })
                .expect("the fleet fills every mailbox")
        });
        let open = tracer.enter("host.drain");
        let bursts: Vec<_> = horizons
            .iter()
            .enumerate()
            .map(|(shard, &start)| {
                bed.host
                    .receive_burst(shard, usize::MAX, start)
                    .expect("the shard drains")
            })
            .collect();
        tracer.exit(open);
        tracer.span("fleet.harvest", || bed.fleet.harvest_completions());

        let offered = bed.host.config().total_mailboxes() as u64;
        let mut good = 0u64;
        let mut drain_window = SimTime::ZERO;
        for (shard, burst) in bursts.iter().enumerate() {
            drain_window = drain_window.max(burst.drained_at - horizons[shard]);
            for f in &burst.frames {
                good += traffic.check(this_round, f.bank, f.slot, f.outcome.result) as u64;
                if model {
                    self.model
                        .observe(&f.outcome, f.outcome.handler_done - starts[shard]);
                }
            }
        }
        if model {
            let mut fill_span = SimTime::ZERO;
            for lane in 0..lanes {
                fill_span = fill_span.max(horizons[lane] - self.edges[lane]);
                let after = bed.fleet.lane(lane).expect("lane").clock();
                self.model.sender_cpu += after - starts[lane];
                self.model.put_time += horizons[lane] - starts[lane];
            }
            self.model.time += fill_span.max(drain_window);
        }
        self.edges = horizons;
        *round += 1;
        offered - good.min(offered)
    }
}

impl Workload for Stream {
    fn model_blocks(&self) -> usize {
        self.model_blocks
    }

    fn block(&mut self, idx: usize, tracer: &mut Tracer) -> BlockCount {
        let model = idx < self.model_blocks;
        let mut count = BlockCount {
            msgs: self.msgs_per_block(),
            failed: 0,
        };
        for _ in 0..self.shape.rounds_per_block {
            count.failed += self.round(model, tracer);
        }
        if idx + 1 == self.model_blocks {
            self.counters = Some(Counters::snapshot(&self.bed.host, self.bed.fleet.stats()));
        }
        count
    }

    fn finish(self: Box<Self>, plan: Plan, report: &mut Report) {
        let counters = self.counters.clone().expect("the fixed section ran");
        let (drained, offered) = (
            counters.host.messages_received,
            self.model_blocks as u64 * self.msgs_per_block(),
        );
        if drained != offered {
            report.fail_state(format!(
                "drained {drained} of {offered} offered in the fixed section"
            ));
        }
        match &self.traffic {
            Traffic::Put(shards) => {
                for oracle in shards {
                    oracle.verify_table(&self.bed.host, report);
                }
                if counters.host.resolved_cache_misses != 0 {
                    report.fail_state(format!(
                        "{} resolved-cache misses on a warm stream",
                        counters.host.resolved_cache_misses
                    ));
                }
            }
            Traffic::Sum { .. } => {
                // `array.append` keeps a running count of the sums it stored.
                let stored = self
                    .bed
                    .host
                    .read_shard_data(0, "array.base", 0, 8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                let want = self.round * self.bed.host.config().total_mailboxes() as u64;
                if stored.as_ref().ok() != Some(&want) {
                    report.fail_state(format!("array holds {stored:?} sums, want {want}"));
                }
            }
        }
        let mut model = self.model;
        model.puts = counters.forward_puts();
        model.elapsed = model.time;
        model.report(counters.stages_per_frame(), report);
        counters.report(report);
        // The same traffic through the threaded pipeline, clean and faulted.
        if plan.traced && self.shape.threaded_pass {
            super::pipeline::pass(plan, report);
        }
    }
}
