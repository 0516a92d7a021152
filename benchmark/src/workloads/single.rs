//! The one-message-at-a-time workloads: a bare sender posts one frame, the
//! receiver waits for it and runs it, and only then is the next one posted.
//! The client thinks for a seeded exponential time between a reply and its
//! next post, so arrivals meet the receiver's poll loop at every phase. A
//! message's modelled latency runs from its post to its `handler_done`, and
//! the closed loop's modelled throughput is messages over the sum of those:
//! what one client would get if it did not think.

use twochains::builtin::{graph_args, BuiltinJam};
use twochains::memsim::SimTime;
use twochains::{spec, ElementId, MessageSpec};

use super::{BlockCount, Counters, ModelAcc, Plan, PutOracle, Workload};
use crate::gen::{self, Rng};
use crate::metrics::Report;
use crate::stats::ratio;
use crate::testbed::{config, SingleBed};
use crate::trace::Tracer;

/// Mean client think time between a reply and the next post.
const THINK_MEAN_NS: f64 = 100.0;
/// Items of `chain3` replayed one message per stage at the end of the run.
const REPLAY_ITEMS: usize = 1000;

enum Kind {
    /// Indirect Put with every injection cache dropped before each message.
    ColdChurn(PutOracle),
    /// lookup → filter → aggregate as one chained frame per item.
    Chain3 {
        seed: u64,
        stages: [ElementId; 3],
        /// Results of the first [`REPLAY_ITEMS`] items, for the replay.
        head: Vec<u64>,
        /// Count and wrapping sum of every result, for `graph.accum`.
        folded: (u64, u64),
    },
}

pub struct Single {
    bed: SingleBed,
    kind: Kind,
    elem: ElementId,
    msgs_per_block: usize,
    model_blocks: usize,
    sent: u64,
    think: Rng,
    /// Virtual time: when the previous message's handler finished.
    now: SimTime,
    model: ModelAcc,
    counters: Option<Counters>,
}

impl Single {
    pub fn cold_churn(plan: Plan, tracer: &mut Tracer) -> Self {
        let kind = Kind::ColdChurn(PutOracle::new(plan.seed, 1024, 0));
        Self::build(kind, BuiltinJam::IndirectPut, 2000, 50, plan, tracer)
    }

    pub fn chain3(plan: Plan, tracer: &mut Tracer) -> Self {
        let kind = Kind::Chain3 {
            seed: plan.seed,
            stages: [ElementId(0); 3],
            head: Vec::with_capacity(REPLAY_ITEMS),
            folded: (0, 0),
        };
        Self::build(kind, BuiltinJam::GraphLookup, 10_000, 60, plan, tracer)
    }

    fn build(
        mut kind: Kind,
        jam: BuiltinJam,
        msgs_per_block: usize,
        model_blocks_per_10s: usize,
        plan: Plan,
        tracer: &mut Tracer,
    ) -> Self {
        let bed = SingleBed::build(config(1, 16 * 1024), tracer);
        let id = |jam| bed.host.builtin_id(jam).expect("a builtin jam");
        if let Kind::Chain3 { stages, .. } = &mut kind {
            *stages = [
                id(BuiltinJam::GraphLookup),
                id(BuiltinJam::GraphFilter),
                id(BuiltinJam::GraphAggregate),
            ];
        }
        let elem = id(jam);
        let mut single = Single {
            bed,
            kind,
            elem,
            msgs_per_block,
            model_blocks: plan.blocks(model_blocks_per_10s),
            sent: 0,
            think: Rng::new(gen::mix2(plan.seed, 0x7468_696E, 0)),
            now: SimTime::ZERO,
            model: ModelAcc::with_capacity(plan.blocks(model_blocks_per_10s) * msgs_per_block),
            counters: None,
        };
        // One untimed message fills the sender template, the Local Function
        // lines and (for chain3) the injection caches.
        tracer.span("prime", || single.message(false, &mut Tracer::new(false)));
        single.bed.host.reset_stats();
        single
    }

    fn spec_for(&self, n: u64) -> (MessageSpec, usize) {
        match &self.kind {
            Kind::ColdChurn(oracle) => {
                let key = oracle.pick(n, 0);
                let (args, usr) = oracle.message(key);
                (spec(self.elem).args(args).usr(usr), key)
            }
            Kind::Chain3 { seed, stages, .. } => {
                let item = gen::mix2(*seed, 0x6974_656D, n);
                let chained = spec(stages[0])
                    .args(graph_args(item))
                    .then(stages[1])
                    .then(stages[2]);
                (chained, 0)
            }
        }
    }

    /// Post one message and run it. Returns whether it failed.
    fn message(&mut self, model: bool, tracer: &mut Tracer) -> bool {
        let n = self.sent;
        self.sent += 1;
        let (msg, key) = self.spec_for(n);
        let target = self.bed.target(0, 0);
        if matches!(self.kind, Kind::ColdChurn(_)) {
            tracer.span("host.invalidate", || {
                self.bed.host.invalidate_injection_caches()
            });
        }
        let replied = self.now;
        let post = replied + SimTime::from_ns_f64(self.think.exp(THINK_MEAN_NS));
        let sent = tracer.span("sender.fill", || {
            self.bed.sender.send_spec(post, &msg, &target)
        });
        let Ok(sent) = sent else { return true };
        let received = tracer.span("host.drain", || {
            self.bed
                .host
                .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), replied)
        });
        let Ok(out) = received else { return true };
        self.now = out.handler_done;
        if model {
            self.model.observe(&out, out.handler_done - post);
            self.model.time += out.handler_done - post;
            self.model.elapsed += out.handler_done - replied;
            self.model.sender_cpu += sent.sender_free() - post;
            self.model.put_time += sent.delivered() - post;
            self.model.puts += 1;
        }
        match &mut self.kind {
            Kind::ColdChurn(oracle) => !oracle.check(key, out.result),
            Kind::Chain3 { head, folded, .. } => {
                // The prime message (n = 0) is folded too: the accumulator
                // on the server has seen it.
                if head.len() < REPLAY_ITEMS {
                    head.push(out.result);
                }
                *folded = (folded.0 + 1, folded.1.wrapping_add(out.result));
                false
            }
        }
    }

    /// Replay the first items of `chain3` as one message per stage on a
    /// testbed of its own; the chained results must equal the replayed ones.
    fn replay_mismatches(&self) -> usize {
        let Kind::Chain3 { seed, head, .. } = &self.kind else {
            return 0;
        };
        let mut bed = SingleBed::build(config(1, 16 * 1024), &mut Tracer::new(false));
        let target = bed.target(0, 0);
        let stages = [
            BuiltinJam::GraphLookup,
            BuiltinJam::GraphFilter,
            BuiltinJam::GraphAggregate,
        ]
        .map(|jam| bed.host.builtin_id(jam).expect("a builtin jam"));
        let mut now = SimTime::ZERO;
        let mut mismatches = 0;
        for (n, &chained) in head.iter().enumerate() {
            let mut carried = gen::mix2(*seed, 0x6974_656D, n as u64);
            for elem in stages {
                let msg = spec(elem).args(graph_args(carried));
                let out = bed
                    .sender
                    .send_spec(now, &msg, &target)
                    .and_then(|sent| {
                        bed.host
                            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), now)
                    })
                    .expect("the replay runs");
                now = out.handler_done;
                carried = out.result;
            }
            mismatches += (carried != chained) as usize;
        }
        mismatches
    }

    /// Mean modelled dispatch of `msgs` more messages of the same traffic with
    /// the caches left warm: what `cold_churn` pays less the insert work.
    fn warm_dispatch_ns(&mut self, msgs: usize) -> f64 {
        let Kind::ColdChurn(oracle) = &self.kind else {
            return 0.0;
        };
        let target = self.bed.target(0, 0);
        let mut dispatch = SimTime::ZERO;
        for n in 0..=msgs as u64 {
            let (args, usr) = oracle.message(oracle.pick(n, 1));
            let msg = spec(self.elem).args(args).usr(usr);
            let out = self
                .bed
                .sender
                .send_spec(self.now, &msg, &target)
                .and_then(|sent| {
                    self.bed
                        .host
                        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), self.now)
                })
                .expect("the warm pass runs");
            self.now = out.handler_done;
            // The first message refills the caches the churn emptied.
            if n > 0 {
                dispatch += out.dispatch_time;
            }
        }
        dispatch.as_ns() / msgs as f64
    }
}

impl Workload for Single {
    fn model_blocks(&self) -> usize {
        self.model_blocks
    }

    fn block(&mut self, idx: usize, tracer: &mut Tracer) -> BlockCount {
        let model = idx < self.model_blocks;
        let mut count = BlockCount::default();
        for _ in 0..self.msgs_per_block {
            count.failed += self.message(model, tracer) as u64;
            count.msgs += 1;
        }
        if idx + 1 == self.model_blocks {
            let sender = self.bed.sender.stats().clone();
            self.counters = Some(Counters::snapshot(&self.bed.host, sender));
        }
        count
    }

    fn finish(mut self: Box<Self>, plan: Plan, report: &mut Report) {
        let counters = self.counters.clone().expect("the fixed section ran");
        let h = &counters.host;
        let offered = (self.model_blocks * self.msgs_per_block) as u64;
        if h.messages_received != offered {
            report.fail_state(format!(
                "received {} of {offered} offered in the fixed section",
                h.messages_received
            ));
        }
        match &self.kind {
            Kind::ColdChurn(oracle) => {
                oracle.verify_table(&self.bed.host, report);
                let misses = (h.injected_code_cache_misses, h.resolved_cache_misses);
                if misses != (h.messages_received, h.messages_received) {
                    report.fail_state(format!(
                        "{misses:?} code and resolved misses over {} cold messages",
                        h.messages_received
                    ));
                }
            }
            Kind::Chain3 { folded, .. } => {
                let accum = self
                    .bed
                    .host
                    .read_shard_data(0, "graph.accum", 0, 16)
                    .map(|b| {
                        let word = |at| u64::from_le_bytes(b[at..at + 8].try_into().expect("8"));
                        (word(0), word(8))
                    });
                if accum.as_ref().ok() != Some(folded) {
                    report.fail_state(format!("graph.accum is {accum:?}, want {folded:?}"));
                }
                let mismatches = self.replay_mismatches();
                if mismatches > 0 {
                    report.fail_state(format!(
                        "{mismatches} of {REPLAY_ITEMS} chained results differ from their replay"
                    ));
                }
                report.notes.push(format!(
                    "oracle: {} items replayed one message per stage",
                    REPLAY_ITEMS
                ));
            }
        }
        self.model.report(counters.stages_per_frame(), report);
        counters.report(report);
        if plan.traced && matches!(self.kind, Kind::ColdChurn(_)) {
            let cold = ratio(self.model.dispatch.as_ns(), self.model.msgs() as f64);
            report.set("jamvm.model_insert_ns", cold - self.warm_dispatch_ns(2000));
        }
    }
}
