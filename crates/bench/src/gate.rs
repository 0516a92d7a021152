//! The perf gate: every bar this reproduction holds itself to, declared once.
//!
//! A bar is one [`Bar`] row: the name the verdict table prints, a reader that
//! takes the measured value out of the typed report, the bound it is held to,
//! the runner it is enforced on and the note the table shows — with the
//! *reason* for the number in the comment on the row. [`BARS`] reads the
//! [`FastpathReport`]; [`PRISTINE_LINK_BARS`] and [`FAULTED_LINK_BARS`] read
//! each [`LossRow`] of it. [`evaluate`] holds a report against all of them and
//! the `fastpath` binary runs it in the process that measured the report, so
//! there is no second copy of a bar to keep in step: no thresholds file, no
//! re-parsed JSON, no prose list in CI.
//!
//! To add a bar, add a row (and, in this file's tests, the poke that pushes a
//! healthy report just past it: the table-driven test fails until every row
//! has one). A reader returns `None` only when the burst row it reads was not
//! swept, and that is an error naming the bar, never a pass. The bars are
//! calibrated at [`MESSAGES`] messages over the [`SHARD_COUNTS`] sweep — at
//! 500 messages the 4-shard modelled speedup reads 3.00 — which is why the
//! binary takes neither as an argument.

use crate::burst::{BurstRow, LossRow};
use crate::fastpath::FastpathReport;
use Bound::{AtLeast, AtLeastColumn, AtMost};
use Runner::{AnyRunner, ParallelRunner};

/// Messages per regime the bars are calibrated at.
pub const MESSAGES: usize = 1000;
/// The shard sweep the bars read.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// `host_parallelism` from which a [`ParallelRunner`] bar is enforced. Below
/// it the sweep's 4 drain threads (and 4 sender lanes) time-slice the cores,
/// wall ratios are physically capped near 1x and stall counts measure the
/// scheduler, so those bars are printed but cannot fail the gate.
pub const MIN_PARALLELISM: usize = 4;

/// Where a bar is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// Deterministic (virtual time or an exact count): enforced everywhere.
    AnyRunner,
    /// Wall-clock or schedule-dependent: enforced from [`MIN_PARALLELISM`].
    ParallelRunner,
}

/// What a bar holds its value to.
pub enum Bound<R: 'static> {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be at most this.
    AtMost(f64),
    /// The value must be at least another column of the same row.
    AtLeastColumn(fn(&R) -> f64),
}

/// One bar over a row of type `R`.
pub struct Bar<R: 'static> {
    /// The metric name the verdict table prints.
    pub name: &'static str,
    /// Takes the measured value out of the row; `None` when the burst row it
    /// reads was not swept.
    pub read: fn(&R) -> Option<f64>,
    /// The bound, threshold included.
    pub bound: Bound<R>,
    /// The runner guard.
    pub runner: Runner,
    /// Context the verdict table prints beside an enforced verdict.
    pub note: &'static str,
}

fn shard(report: &FastpathReport, shards: usize) -> Option<&BurstRow> {
    report.burst.iter().find(|row| row.shards == shards)
}

/// The coalesced-credit ceiling: flow control cost 0.1625 of the drain cores'
/// virtual time when every retired frame posted its own credit put and 0.0120
/// with row-span flushes; PR 10 then cut dispatch 15x and the same puts became
/// 0.067–0.078 of a much shorter drain without anyone noticing, because only
/// the 4-shard row was barred and the table was not regenerated. Every swept
/// row is barred now; the 1-shard row (0.0779) is the tightest.
const MAX_CREDIT_SHARE: f64 = 0.08;

/// The bars over the report as a whole, in the order the table prints them.
pub const BARS: [Bar<FastpathReport>; 15] = [
    // The zero-copy fast path's acceptance bar: a steady-state injected
    // dispatch (hash, cache probes, jump) at least twice as cheap as the
    // decode-every-message cold path.
    Bar {
        name: "warm/cold dispatch speedup",
        read: |r| Some(r.dispatch_speedup()),
        bound: AtLeast(2.0),
        runner: AnyRunner,
        note: "",
    },
    // 76.1 ns measured with resolved execution, + 10 %. It read 1108 ns before
    // the pre-resolved image path, whose issue asked for <= 750 ns; that
    // target is far behind, so the bar pins the level reached instead.
    Bar {
        name: "warm 1-shard dispatch (ns)",
        read: |r| Some(r.warm.dispatch_ns),
        bound: AtMost(83.7),
        runner: AnyRunner,
        note: "",
    },
    // 187.6 ns measured, + 10 %: dispatch plus execution is the number a user
    // of the paper's system would feel, and no bar watched it before PR 19.
    Bar {
        name: "warm handler (ns)",
        read: |r| Some(r.warm.handler_ns),
        bound: AtMost(206.4),
        runner: AnyRunner,
        note: "dispatch + execution, what a caller waits for",
    },
    // A stage of the lookup -> filter -> aggregate chain must dispatch this
    // many times cheaper on a chained frame than as its own message. It was
    // 2.0 until resolved execution made the per-message baseline ~2.3x cheaper
    // (no code-section reads) while a continuation was already at the
    // Local-dispatch floor (table lookup + context write): the achievable
    // ratio compressed to ~2.0 even as the absolute cost improved.
    Bar {
        name: "chained per-stage amortization",
        read: |r| Some(r.chain_amortization),
        bound: AtLeast(1.8),
        runner: AnyRunner,
        note: "one frame parse per chain, not per stage",
    },
    // The ratio above is a quotient of two numbers a uniform slowdown moves
    // together, so the chained stage is also held in absolute terms: 38.1 ns
    // measured, with headroom still far below the ~70 ns it cost before the
    // resolved path.
    Bar {
        name: "chained per-stage dispatch (ns)",
        read: |r| Some(r.chain_per_stage_dispatch_ns),
        bound: AtMost(55.0),
        runner: AnyRunner,
        note: "absolute companion to the amortization ratio",
    },
    // Every warm dispatch runs the pre-lowered image; fewer hits mean the warm
    // loop silently went back to lowering (or decoding) per message. The
    // regime measures 1000 warm messages:
    // 400 would still cover a halved sweep while catching a path that stopped
    // hitting at all.
    Bar {
        name: "warm resolved-image cache hits",
        read: |r| Some(r.warm_resolved_cache_hits as f64),
        bound: AtLeast(400.0),
        runner: AnyRunner,
        note: "a warm dispatch must never lower its program again",
    },
    // 3.5 until resolved execution landed: the absolute 4-shard modelled drain
    // rate rose 3.19 -> 17.8 M msg/s, but the ratio over 1 shard compressed
    // 3.92 -> 3.43, because the resolved path shrank exactly the per-message
    // execution work that scaled linearly and left the fixed per-round fabric
    // costs a larger share. The same Amdahl shift as the chain bars.
    Bar {
        name: "4-shard modelled speedup",
        read: |r| shard(r, 4).map(|four| four.model_speedup),
        bound: AtLeast(3.2),
        runner: AnyRunner,
        note: "",
    },
    // The lock-split receive path: four drain threads over the striped shared
    // hierarchy must drain at least twice as fast in wall clock as one.
    Bar {
        name: "4-shard wall rate / 1-shard",
        read: |r| {
            let one = shard(r, 1)?.wall_msgs_per_sec.max(f64::EPSILON);
            Some(shard(r, 4)?.wall_msgs_per_sec / one)
        },
        bound: AtLeast(2.0),
        runner: ParallelRunner,
        note: "",
    },
    // The sender fleet's bar: fill overlapped with drain must beat the phased
    // schedule that serializes the whole send phase first. Eight threads on
    // fewer cores cannot overlap in wall clock, hence the guard.
    Bar {
        name: "4-shard pipelined / fill-then-drain",
        read: |r| shard(r, 4).map(BurstRow::pipeline_ratio),
        bound: AtLeast(1.3),
        runner: ParallelRunner,
        note: "",
    },
    // §VI-A2: mailbox credits return as one-sided fabric puts. Zero ops means
    // flow control regressed to a host-side channel that charges nothing in
    // virtual time. Credits flow however the threads are scheduled, so this
    // column of the threaded run is enforced everywhere.
    Bar {
        name: "4-shard pipelined credit ops",
        read: |r| shard(r, 4).map(|four| four.pipe_credit_ops as f64),
        bound: AtLeast(1.0),
        runner: AnyRunner,
        note: "credit returns must ride the fabric",
    },
    Bar {
        name: "1-shard modelled credit share",
        read: |r| shard(r, 1).map(|one| one.model_credit_time_share),
        bound: AtMost(MAX_CREDIT_SHARE),
        runner: AnyRunner,
        note: "coalesced flow control stays off the drain hot path",
    },
    Bar {
        name: "2-shard modelled credit share",
        read: |r| shard(r, 2).map(|two| two.model_credit_time_share),
        bound: AtMost(MAX_CREDIT_SHARE),
        runner: AnyRunner,
        note: "coalesced flow control stays off the drain hot path",
    },
    Bar {
        name: "4-shard modelled credit share",
        read: |r| shard(r, 4).map(|four| four.model_credit_time_share),
        bound: AtMost(MAX_CREDIT_SHARE),
        runner: AnyRunner,
        note: "coalesced flow control stays off the drain hot path",
    },
    // Coalescing must not trade drain-core time for sender starvation. 60
    // measured on the 4-shard 1024-message sweep; 2x headroom for
    // runner-to-runner scheduling noise, still an order of magnitude below a
    // starved sender (one stall per message = 1024). Stall episodes depend on
    // how the OS schedules the lane and drain threads — a time-sliced runner
    // parks lanes constantly — hence the guard.
    Bar {
        name: "4-shard pipelined credit stalls",
        read: |r| shard(r, 4).map(|four| four.pipe_credit_stall_events as f64),
        bound: AtMost(128.0),
        runner: ParallelRunner,
        note: "batched credits must not starve the sender lanes",
    },
    // Frame aggregation: the sweep's containers pack 8 x ~1508-byte injected
    // frames behind one NIC posting (0.125 puts per frame; the per-frame wire
    // behaviour is 1.0). 0.25 leaves room for geometry changes while still
    // demanding four frames behind each put.
    Bar {
        name: "4-shard modelled puts per frame",
        read: |r| shard(r, 4).map(|four| four.model_puts_per_frame),
        bound: AtMost(0.25),
        runner: AnyRunner,
        note: "aggregation amortizes the NIC posting path",
    },
];

/// The bar over the loss sweep's `loss_rate == 0.0` row.
pub const PRISTINE_LINK_BARS: [Bar<LossRow>; 1] = [
    // The reliability layer is free on a pristine link: with no `FaultPlan`
    // installed, a retransmit, drop, suppressed replay or NACK means it fired
    // spuriously.
    Bar {
        name: "lossless sweep reliability residue",
        read: |row| {
            let fired = row.frames_retransmitted + row.frames_dropped;
            Some((fired + row.replays_suppressed + row.nacks_posted) as f64)
        },
        bound: AtMost(0.0),
        runner: AnyRunner,
        note: "no FaultPlan => retransmit/NACK/replay counters all zero",
    },
];

/// The bars over each faulted row of the loss sweep.
pub const FAULTED_LINK_BARS: [Bar<LossRow>; 4] = [
    // Statistical honesty first: a faulted row whose fault counters are all
    // zero ran below the fault plan's resolution (too few puts for the rate)
    // and would pass the coverage bar vacuously at 0 >= 0. The sweep must run
    // enough volume that the injected faults actually bite.
    Bar {
        name: "lossy sweep observed drops",
        read: |row| Some(row.frames_dropped as f64),
        bound: AtLeast(1.0),
        runner: AnyRunner,
        note: "a faulted row must actually drop frames",
    },
    Bar {
        name: "lossy sweep gap NACKs",
        read: |row| Some(row.nacks_posted as f64),
        bound: AtLeast(1.0),
        runner: AnyRunner,
        note: "dropped frames must surface as NACKs",
    },
    // Every drop consumes a delivery attempt and attempts beyond the
    // first-time sends are retransmits, so a run that completed honestly
    // retransmitted at least as often as the link dropped.
    Bar {
        name: "lossy sweep retransmit coverage",
        read: |row| Some(row.frames_retransmitted as f64),
        bound: AtLeastColumn(|row| row.frames_dropped as f64),
        runner: AnyRunner,
        note: "retransmits must cover drops",
    },
    Bar {
        name: "lossy sweep goodput (msg/s)",
        read: |row| Some(row.goodput_msgs_per_sec),
        bound: AtLeast(1.0),
        runner: AnyRunner,
        note: "the run must still complete",
    },
];

impl<R> Bar<R> {
    /// Hold `row` against this bar on a runner of `parallelism` threads.
    fn check(&self, row: &R, parallelism: usize) -> Result<GateCheck, String> {
        let unswept = || format!("`{}` reads a shard row outside the sweep", self.name);
        let value = (self.read)(row).ok_or_else(unswept)?;
        let threshold = match self.bound {
            AtLeast(threshold) | AtMost(threshold) => threshold,
            AtLeastColumn(column) => column(row),
        };
        let at_most = matches!(self.bound, AtMost(_));
        let pass = if at_most {
            value <= threshold
        } else {
            value >= threshold
        };
        let enforced = self.runner == AnyRunner || parallelism >= MIN_PARALLELISM;
        let note = if !enforced {
            format!("informational: host_parallelism={parallelism} < {MIN_PARALLELISM}")
        } else if self.note.is_empty() && self.runner == ParallelRunner {
            format!("host_parallelism={parallelism}")
        } else {
            self.note.to_string()
        };
        Ok(GateCheck {
            name: self.name,
            value,
            threshold,
            op: if at_most { "<=" } else { ">=" },
            pass,
            enforced,
            note,
        })
    }
}

/// One evaluated metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Human-readable metric name.
    pub name: &'static str,
    /// Measured value from the report.
    pub value: f64,
    /// The bound it is held against (rendered with `op`).
    pub threshold: f64,
    /// `">="` or `"<="`.
    pub op: &'static str,
    /// Whether the measured value satisfies the bound.
    pub pass: bool,
    /// Whether a failure of this check fails the gate (a [`ParallelRunner`]
    /// bar is informational on an under-provisioned runner).
    pub enforced: bool,
    /// Extra context shown in the table (e.g. why a check is not enforced).
    pub note: String,
}

/// The gate verdict: every check, plus the overall pass/fail.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// All evaluated checks, in table order.
    pub checks: Vec<GateCheck>,
}

impl GateOutcome {
    /// True when no *enforced* check failed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass || !c.enforced)
    }

    /// Render the result as the table the CI log shows.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>12} {:>4} {:>12}  {:<6} {}\n",
            "metric", "measured", "", "threshold", "status", "note"
        ));
        for c in &self.checks {
            let status = match (c.pass, c.enforced) {
                (true, _) => "PASS",
                (false, true) => "FAIL",
                (false, false) => "skip",
            };
            out.push_str(&format!(
                "{:<34} {:>12.2} {:>4} {:>12.2}  {:<6} {}\n",
                c.name, c.value, c.op, c.threshold, status, c.note
            ));
        }
        out
    }
}

/// Hold a report against every bar: [`BARS`], then each loss row (when the
/// loss sweep ran) against the table for its link. An `Err` names a bar whose
/// burst row was not swept.
pub fn evaluate(report: &FastpathReport) -> Result<GateOutcome, String> {
    let parallelism = report.host_parallelism;
    let mut checks = Vec::new();
    for bar in &BARS {
        checks.push(bar.check(report, parallelism)?);
    }
    for row in &report.loss {
        let (bars, link): (&[Bar<LossRow>], String) = if row.loss_rate == 0.0 {
            (&PRISTINE_LINK_BARS, String::new())
        } else {
            (&FAULTED_LINK_BARS, format!("loss_rate={}: ", row.loss_rate))
        };
        for bar in bars {
            let mut check = bar.check(row, parallelism)?;
            check.note.insert_str(0, &link);
            checks.push(check);
        }
    }
    Ok(GateOutcome { checks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::healthy_report as healthy;

    /// Writes `v` where the bar called `bar` reads it; a count rounds away
    /// from the healthy side. A new row needs an arm here.
    fn poke(r: &mut FastpathReport, bar: &str, v: f64) {
        let (below, above) = (v as u64, v.ceil() as u64);
        match bar {
            "warm/cold dispatch speedup" => r.cold.dispatch_ns = v * r.warm.dispatch_ns,
            "warm 1-shard dispatch (ns)" => r.warm.dispatch_ns = v,
            "warm handler (ns)" => r.warm.handler_ns = v,
            "chained per-stage amortization" => r.chain_amortization = v,
            "chained per-stage dispatch (ns)" => r.chain_per_stage_dispatch_ns = v,
            "warm resolved-image cache hits" => r.warm_resolved_cache_hits = below,
            "4-shard modelled speedup" => r.burst[2].model_speedup = v,
            "4-shard wall rate / 1-shard" => {
                r.burst[2].wall_msgs_per_sec = v * r.burst[0].wall_msgs_per_sec
            }
            "4-shard pipelined / fill-then-drain" => {
                r.burst[2].pipelined_wall_msgs_per_sec = v * r.burst[2].fill_drain_wall_msgs_per_sec
            }
            "4-shard pipelined credit ops" => r.burst[2].pipe_credit_ops = below,
            "1-shard modelled credit share" => r.burst[0].model_credit_time_share = v,
            "2-shard modelled credit share" => r.burst[1].model_credit_time_share = v,
            "4-shard modelled credit share" => r.burst[2].model_credit_time_share = v,
            "4-shard pipelined credit stalls" => r.burst[2].pipe_credit_stall_events = above,
            "4-shard modelled puts per frame" => r.burst[2].model_puts_per_frame = v,
            "lossless sweep reliability residue" => r.loss[0].replays_suppressed = above,
            "lossy sweep observed drops" => r.loss[1].frames_dropped = below,
            "lossy sweep gap NACKs" => r.loss[1].nacks_posted = below,
            "lossy sweep retransmit coverage" => r.loss[1].frames_retransmitted = below,
            "lossy sweep goodput (msg/s)" => r.loss[1].goodput_msgs_per_sec = v,
            other => panic!("no poke for `{other}`"),
        }
    }

    fn failed(out: &GateOutcome) -> Vec<&'static str> {
        let failed = out.checks.iter().filter(|c| !c.pass);
        failed.map(|c| c.name).collect()
    }

    /// A healthy report poked just past each of `bars` in turn fails that bar
    /// and no other: `FAIL` where it is enforced, `skip` below its guard.
    fn each_trips_alone<R>(bars: &[Bar<R>], row: fn(&FastpathReport) -> &R) {
        for bar in bars {
            for parallelism in [2, MIN_PARALLELISM] {
                let mut report = healthy(parallelism);
                let (threshold, side) = match bar.bound {
                    AtLeast(threshold) => (threshold, -1.0),
                    AtMost(threshold) => (threshold, 1.0),
                    AtLeastColumn(column) => (column(row(&report)), -1.0),
                };
                let past = threshold + side * threshold.abs().max(1.0) * 1e-3;
                poke(&mut report, bar.name, past);
                let out = evaluate(&report).unwrap();
                assert_eq!(failed(&out), [bar.name], "{}", out.table());
                let enforced = bar.runner == AnyRunner || parallelism == MIN_PARALLELISM;
                assert_eq!(out.passed(), !enforced, "{}", bar.name);
                let status = if enforced { "  FAIL " } else { "  skip " };
                assert_eq!(out.table().matches(status).count(), 1, "{}", out.table());
            }
        }
    }

    #[test]
    fn every_bar_trips_alone_and_a_guarded_one_only_on_a_parallel_runner() {
        each_trips_alone(&BARS, |report| report);
        each_trips_alone(&PRISTINE_LINK_BARS, |report| &report.loss[0]);
        each_trips_alone(&FAULTED_LINK_BARS, |report| &report.loss[1]);
        let guarded = BARS.iter().filter(|bar| bar.runner == ParallelRunner);
        assert_eq!(guarded.count(), 3, "two wall ratios and the stall count");
    }

    #[test]
    fn a_healthy_report_passes_and_prints_the_table_ci_has_always_shown() {
        let mut report = healthy(2);
        let out = evaluate(&report).unwrap();
        assert!(out.passed() && failed(&out).is_empty(), "{}", out.table());
        // The report's bars, the pristine row's one, the faulted row's four.
        assert_eq!(out.checks.len(), BARS.len() + 1 + 4);
        assert!(out.table().starts_with(
            "metric                                 measured         threshold  status note\n"
        ));
        // A guarded bar that passes below its guard still says it was not enforced.
        assert!(out.table().contains(
            "4-shard pipelined credit stalls            1.00   <=       128.00  PASS   informational: host_parallelism=2 < 4\n"
        ));
        assert!(out.table().contains(
            "lossy sweep retransmit coverage            6.00   >=         3.00  PASS   loss_rate=0.05: retransmits must cover drops\n"
        ));
        // The loss bars run only when the loss sweep did.
        report.loss.clear();
        report.host_parallelism = MIN_PARALLELISM;
        let out = evaluate(&report).unwrap();
        assert!(out.passed() && out.checks.len() == BARS.len());
        assert!(out.table().contains(
            "4-shard wall rate / 1-shard                2.13   >=         2.00  PASS   host_parallelism=4\n"
        ));
    }

    #[test]
    fn an_unswept_shard_row_is_an_error_that_names_the_bar() {
        for (index, shards) in ["1-shard", "2-shard", "4-shard"].into_iter().enumerate() {
            let mut report = healthy(MIN_PARALLELISM);
            report.burst.remove(index);
            let err = evaluate(&report).unwrap_err();
            assert!(err.contains(shards), "{err}");
        }
    }

    #[test]
    fn loss_rows_that_did_not_recover_honestly_fail_by_name() {
        let residue = PRISTINE_LINK_BARS[0].name;
        let [drops, nacks, coverage, _] = FAULTED_LINK_BARS.each_ref().map(|bar| bar.name);
        // (loss row, [retransmitted, dropped, replays suppressed, NACKs]) and
        // the bars that must fail on it.
        let cases: [(usize, [u64; 4], &[&str]); 6] = [
            // Anything fired on a link with no FaultPlan: spurious.
            (0, [2, 0, 0, 0], &[residue]),
            (0, [0, 1, 0, 0], &[residue]),
            (0, [0, 0, 1, 0], &[residue]),
            (0, [0, 0, 0, 1], &[residue]),
            // A faulted row with no faults ran below the plan's resolution;
            // its retransmit coverage passes vacuously at 0 >= 0.
            (1, [0, 0, 2, 0], &[drops, nacks]),
            // Drops exceed retransmits: the run cannot have completed honestly.
            (1, [1, 5, 2, 3], &[coverage]),
        ];
        for (row, [retransmitted, dropped, replays, nacked], want) in cases {
            let mut report = healthy(2);
            let r = &mut report.loss[row];
            (r.frames_retransmitted, r.frames_dropped) = (retransmitted, dropped);
            (r.replays_suppressed, r.nacks_posted) = (replays, nacked);
            let out = evaluate(&report).unwrap();
            assert_eq!(failed(&out), want, "{}", out.table());
            assert!(!out.passed());
        }
    }
}
