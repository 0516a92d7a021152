//! `open_loop_noise`: arrivals on a schedule, whatever the system does.
//!
//! One thread simulates an open loop in virtual time. Message `n` is due at a
//! seeded exponential gap after message `n - 1`; it is posted once it is due,
//! the sender CPU is free and its mailbox (taken in rotation) has been
//! drained, and it is timed from when it was *due*, so a stall charges every
//! message queued behind it. The receiver runs under the fully loaded memory
//! stressor with stashing on, and waits on one mailbox at a time.
//!
//! Three fixed rates give the latency curve; a finer grid of rates gives the
//! highest rate whose p99 meets the limit while the backlog stays bounded,
//! which is this workload's modelled throughput.

use twochains::builtin::BuiltinJam;
use twochains::mailbox::MailboxTarget;
use twochains::memsim::{MemoryStressor, SimTime};
use twochains::{spec, ElementId};

use super::{BlockCount, Counters, ModelAcc, Plan, PutOracle, Workload};
use crate::gen::{mix2, Rng};
use crate::metrics::Report;
use crate::stats::{mean, percentile, ratio};
use crate::testbed::{config, SingleBed};
use crate::trace::Tracer;

/// Offered rates of the latency curve, in million messages per second.
const CURVE: [f64; 3] = [1.0, 2.0, 3.0];
/// Offered rates searched for the limit.
const GRID: [f64; 5] = [2.25, 2.5, 2.75, 3.0, 3.25];
/// The latency limit on p99, in nanoseconds.
const LIMIT_NS: f64 = 5000.0;
/// A backlog counts as growing when the last tenth of a run is posted later
/// behind its due times than twice the first measured tenth plus this much.
const BACKLOG_FLOOR_NS: f64 = 500.0;
const BLOCK_MSGS: usize = 10_000;
/// Blocks per curve rate and per grid rate in a ten-second run. The middle
/// rate carries the workload's end-to-end latency, so it gets the most.
const CURVE_BLOCKS_PER_10S: [usize; 3] = [4, 24, 4];
const GRID_BLOCKS_PER_10S: usize = 10;

/// One offered rate's samples, in arrival order. The first tenth lets the
/// queues settle and is not measured.
#[derive(Debug, Default)]
struct RateRun {
    rate: f64,
    /// How many messages the run offers in all.
    msgs: usize,
    latency_ps: Vec<u64>,
    late_ps: Vec<u64>,
}

impl RateRun {
    fn new(rate: f64, msgs: usize) -> Self {
        RateRun {
            rate,
            msgs,
            latency_ps: Vec::with_capacity(msgs),
            late_ps: Vec::with_capacity(msgs),
        }
    }

    /// Whether the next sample is past the warm-up tenth.
    fn measuring(&self) -> bool {
        self.latency_ps.len() >= self.msgs / 10
    }

    /// Latencies past the warm-up tenth, ascending.
    fn measured(&self) -> Vec<u64> {
        let mut v = self.latency_ps[self.msgs / 10..].to_vec();
        v.sort_unstable();
        v
    }

    fn p_ns(&self, q: f64) -> f64 {
        percentile(&self.measured(), q) as f64 / 1000.0
    }

    fn late_ns(&self, tenth: usize) -> f64 {
        let n = self.msgs / 10;
        let part: Vec<f64> = self.late_ps[tenth * n..(tenth + 1) * n]
            .iter()
            .map(|&ps| ps as f64 / 1000.0)
            .collect();
        mean(&part)
    }

    fn backlog_grows(&self) -> bool {
        self.late_ns(9) > 2.0 * self.late_ns(1) + BACKLOG_FLOOR_NS
    }

    fn meets_limit(&self) -> bool {
        self.p_ns(0.99) <= LIMIT_NS && !self.backlog_grows()
    }
}

/// The open-loop generator and the system under it.
struct Loop {
    bed: SingleBed,
    elem: ElementId,
    targets: Vec<(usize, usize, MailboxTarget)>,
    oracle: PutOracle,
    arrivals: Rng,
    sent: u64,
    due_ps: u64,
    sender_free: SimTime,
    receiver_free: SimTime,
    slot_free: Vec<SimTime>,
}

impl Loop {
    fn new(seed: u64, stashing: bool, tracer: &mut Tracer) -> Self {
        let bed = SingleBed::build(config(1, 16 * 1024), tracer);
        bed.host.set_stashing(stashing);
        bed.host
            .set_stressor(Some(MemoryStressor::fully_loaded(mix2(
                seed,
                0x6E6F_6973,
                0,
            ))));
        let cfg = bed.host.config();
        let targets: Vec<_> = (0..cfg.banks)
            .flat_map(|bank| (0..cfg.mailboxes_per_bank).map(move |slot| (bank, slot)))
            .map(|(bank, slot)| (bank, slot, bed.target(bank, slot)))
            .collect();
        let elem = bed
            .host
            .builtin_id(BuiltinJam::IndirectPut)
            .expect("a builtin jam");
        Loop {
            slot_free: vec![SimTime::ZERO; targets.len()],
            bed,
            elem,
            targets,
            oracle: PutOracle::new(seed, 1024, 0),
            arrivals: Rng::new(mix2(seed, 0x6172_7276, 0)),
            sent: 0,
            due_ps: 0,
            sender_free: SimTime::ZERO,
            receiver_free: SimTime::ZERO,
        }
    }

    /// Let every queue empty before the next rate starts.
    fn settle(&mut self) {
        let idle = self
            .slot_free
            .iter()
            .fold(self.sender_free.max(self.receiver_free), |a, &b| a.max(b));
        self.due_ps = (idle + SimTime::from_us(10)).as_ps();
    }

    /// Offer `msgs` messages at `rate` million per second. Returns how many
    /// failed. Samples go to `run` when one is given, and past its warm-up
    /// tenth to `model` too.
    fn offer(
        &mut self,
        rate: f64,
        msgs: usize,
        mut run: Option<&mut RateRun>,
        mut model: Option<&mut ModelAcc>,
        tracer: &mut Tracer,
    ) -> u64 {
        let mut failed = 0;
        for _ in 0..msgs {
            let n = self.sent;
            self.sent += 1;
            self.due_ps += (self.arrivals.exp(1000.0 / rate) * 1000.0).round() as u64;
            let due = SimTime::from_ps(self.due_ps);
            let at = (n % self.targets.len() as u64) as usize;
            let (bank, slot, target) = self.targets[at];
            let key = self.oracle.pick(n, 0);
            let (args, usr) = self.oracle.message(key);
            let msg = spec(self.elem).args(args).usr(usr);
            let post = due.max(self.sender_free).max(self.slot_free[at]);
            let sent = tracer.span("sender.fill", || {
                self.bed.sender.send_spec(post, &msg, &target)
            });
            let Ok(sent) = sent else {
                failed += 1;
                continue;
            };
            self.sender_free = sent.sender_free();
            let received = tracer.span("host.drain", || {
                self.bed.host.receive(
                    bank,
                    slot,
                    Some(sent.wire_bytes),
                    sent.delivered(),
                    self.receiver_free,
                )
            });
            let Ok(out) = received else {
                failed += 1;
                continue;
            };
            self.receiver_free = out.handler_done;
            self.slot_free[at] = out.handler_done;
            failed += !self.oracle.check(key, out.result) as u64;
            let Some(run) = run.as_deref_mut() else {
                continue;
            };
            if let Some(model) = model.as_deref_mut().filter(|_| run.measuring()) {
                model.observe(&out, out.handler_done - due);
                model.sender_cpu += sent.sender_free() - post;
                model.put_time += sent.delivered() - post;
                model.puts += 1;
            }
            run.latency_ps.push((out.handler_done - due).as_ps());
            run.late_ps.push((post - due).as_ps());
        }
        failed
    }
}

pub struct OpenLoop {
    sim: Loop,
    /// The fixed-count section: (rate, blocks) per run, curve then grid.
    schedule: Vec<(f64, usize)>,
    runs: Vec<RateRun>,
    model_blocks: usize,
    model: ModelAcc,
    counters: Option<Counters>,
    /// Virtual time at which the fixed section began and ended.
    section: (SimTime, SimTime),
}

impl OpenLoop {
    pub fn new(plan: Plan, tracer: &mut Tracer) -> Self {
        let mut sim = Loop::new(plan.seed, true, tracer);
        // One untimed rotation over the mailboxes warms the caches.
        tracer.span("prime", || {
            let slots = sim.targets.len();
            sim.offer(CURVE[0], slots, None, None, &mut Tracer::new(false));
        });
        sim.bed.host.reset_stats();
        let sim_start = sim.receiver_free;
        let grid = plan.blocks(GRID_BLOCKS_PER_10S);
        let schedule: Vec<(f64, usize)> = CURVE
            .iter()
            .zip(CURVE_BLOCKS_PER_10S)
            .map(|(&r, blocks)| (r, plan.blocks(blocks)))
            .chain(GRID.iter().map(|&r| (r, grid)))
            .collect();
        OpenLoop {
            sim,
            model_blocks: schedule.iter().map(|&(_, blocks)| blocks).sum(),
            runs: schedule
                .iter()
                .map(|&(rate, blocks)| RateRun::new(rate, blocks * BLOCK_MSGS))
                .collect(),
            model: ModelAcc::with_capacity(schedule[1].1 * BLOCK_MSGS),
            schedule,
            counters: None,
            section: (sim_start, sim_start),
        }
    }

    /// Which run block `idx` of the fixed section belongs to, and whether it
    /// is that run's first block.
    fn locate(&self, idx: usize) -> (usize, bool) {
        let mut first = 0;
        for (run, &(_, blocks)) in self.schedule.iter().enumerate() {
            if idx < first + blocks {
                return (run, idx == first);
            }
            first += blocks;
        }
        unreachable!("block {idx} is past the fixed section")
    }

    /// The offered rate at which p99 crosses the limit: between the last grid
    /// rate that meets it with a bounded backlog and the first that does not,
    /// interpolated on p99 so the figure is not quantised to the grid step.
    fn rate_at_limit(grid: &[RateRun]) -> f64 {
        let Some(bad) = grid.iter().position(|r| !r.meets_limit()) else {
            return grid.last().expect("a grid").rate;
        };
        if bad == 0 {
            return grid[0].rate;
        }
        let (ok, bad) = (&grid[bad - 1], &grid[bad]);
        let (p_ok, p_bad) = (ok.p_ns(0.99), bad.p_ns(0.99));
        let t = ((LIMIT_NS - p_ok) / (p_bad - p_ok)).clamp(0.0, 1.0);
        ok.rate + t * (bad.rate - ok.rate)
    }
}

impl Workload for OpenLoop {
    fn model_blocks(&self) -> usize {
        self.model_blocks
    }

    fn block(&mut self, idx: usize, tracer: &mut Tracer) -> BlockCount {
        let failed = if idx < self.model_blocks {
            let (run, first) = self.locate(idx);
            if first {
                self.sim.settle();
            }
            let rate = self.schedule[run].0;
            let model = (run == 1).then_some(&mut self.model);
            self.sim
                .offer(rate, BLOCK_MSGS, Some(&mut self.runs[run]), model, tracer)
        } else {
            if idx == self.model_blocks {
                self.sim.settle();
            }
            self.sim.offer(CURVE[1], BLOCK_MSGS, None, None, tracer)
        };
        if idx + 1 == self.model_blocks {
            self.section.1 = self.sim.receiver_free;
            let sender = self.sim.bed.sender.stats().clone();
            self.counters = Some(Counters::snapshot(&self.sim.bed.host, sender));
        }
        BlockCount {
            msgs: BLOCK_MSGS as u64,
            failed,
        }
    }

    fn finish(self: Box<Self>, plan: Plan, report: &mut Report) {
        let counters = self.counters.clone().expect("the fixed section ran");
        let offered = (self.model_blocks * BLOCK_MSGS) as u64;
        if counters.host.messages_received != offered {
            report.fail_state(format!(
                "received {} of {offered} offered in the fixed section",
                counters.host.messages_received
            ));
        }
        self.sim.oracle.verify_table(&self.sim.bed.host, report);

        // Latency at 2.0 M msg/s is the workload's modelled latency; the rate
        // at the limit is its modelled throughput.
        let mut model = self.model;
        model.elapsed = self.section.1 - self.section.0;
        model.report(counters.stages_per_frame(), report);
        counters.report(report);
        let (curve, grid) = self.runs.split_at(CURVE.len());
        let at_limit = Self::rate_at_limit(grid);
        report.set("model_msgs_per_sec", at_limit * 1e6);
        report.set("open.rate_at_limit_mmsgs", at_limit);
        const NAMES: [[&str; 3]; 3] = [
            ["open.p50_ns_r1", "open.p99_ns_r1", "open.p999_ns_r1"],
            ["open.p50_ns_r2", "open.p99_ns_r2", "open.p999_ns_r2"],
            ["open.p50_ns_r3", "open.p99_ns_r3", "open.p999_ns_r3"],
        ];
        for (run, names) in curve.iter().zip(NAMES) {
            for (name, q) in names.into_iter().zip([0.5, 0.99, 0.999]) {
                report.set(name, run.p_ns(q));
            }
        }
        let r2 = &curve[1];
        report.set(
            "open.tail_spread_r2",
            ratio(r2.p_ns(0.999) - r2.p_ns(0.5), r2.p_ns(0.5)),
        );
        let late: Vec<f64> = r2.late_ps[r2.msgs / 10..]
            .iter()
            .map(|&ps| ps as f64 / 1000.0)
            .collect();
        report.set("gen.mean_late_ns", mean(&late));
        for run in grid {
            report.notes.push(format!(
                "grid {:.2} M msg/s: p99 {:.0} ns, late {:.0} -> {:.0} ns{}",
                run.rate,
                run.p_ns(0.99),
                run.late_ns(1),
                run.late_ns(9),
                if run.meets_limit() {
                    ""
                } else {
                    " (misses the limit)"
                }
            ));
        }

        if plan.traced {
            // The same seed at 1.0 M msg/s with stashing off.
            let mut plain = Loop::new(plan.seed, false, &mut Tracer::new(false));
            let msgs = curve[0].msgs;
            let mut run = RateRun::new(CURVE[0], msgs);
            plain.offer(
                CURVE[0],
                msgs,
                Some(&mut run),
                None,
                &mut Tracer::new(false),
            );
            report.set(
                "memsim.stash_p99_gain",
                ratio(run.p_ns(0.99), curve[0].p_ns(0.99)),
            );
        }
    }
}
