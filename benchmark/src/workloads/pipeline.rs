//! The threaded pass of a traced `warm_stream` run: the same traffic through
//! [`drive_pipeline`] on two OS threads — one sender lane, one drain shard,
//! coupled only by one-sided credit returns — first over a clean link, then
//! over one with a seeded mixed fault plan.
//!
//! It is a per-layer measurement and not a workload, because it can fail and
//! a workload of the benchmark must not. On this repository's simulated
//! mailbox a drain thread loses a frame about once in 25 million, on a clean
//! link too; when the frame is a batch container, lane and shard then wait on
//! each other for good. On a faulted link a stale retransmit can overwrite a
//! refilled mailbox (ROADMAP item 4b), about one frame in 300 drops. The pass
//! therefore runs on a thread of its own under a deadline: when it does not
//! come back, the run reports `fleet.pipeline_hung` and goes on without its
//! numbers, and the stuck threads end with the process.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use twochains::builtin::BuiltinJam;
use twochains::fabric::FaultPlan;
use twochains::{drive_pipeline, AmResult, ElementId, InvocationMode, PipelineOutcome};

use super::{Plan, PutOracle};
use crate::gen::mix2;
use crate::metrics::Report;
use crate::stats::{median, ratio};
use crate::testbed::{config, FleetBed};
use crate::trace::Tracer;

const ROUNDS_PER_SESSION: usize = 200;
/// Sessions on the clean and on the faulted link in a ten-second run.
const CLEAN_SESSIONS_PER_10S: usize = 10;
const LOSSY_SESSIONS_PER_10S: usize = 20;
/// Share of forward puts the faulted link drops, duplicates or reorders.
const FAULT_RATE: f64 = 0.01;
/// How long the whole pass may take before it counts as hung.
const DEADLINE: Duration = Duration::from_secs(45);

/// A testbed, its traffic and how many sessions it has carried.
struct Runner {
    bed: FleetBed,
    elem: ElementId,
    oracle: PutOracle,
    sessions: u64,
}

impl Runner {
    fn new(seed: u64, plan: Option<FaultPlan>) -> Self {
        let bed = FleetBed::build(config(1, 16 * 1024), plan, &mut Tracer::new(false));
        let elem = bed
            .host
            .builtin_id(BuiltinJam::IndirectPut)
            .expect("a builtin jam");
        let mut runner = Runner {
            bed,
            elem,
            oracle: PutOracle::new(seed, 64, 0),
            sessions: 0,
        };
        // Primed through the pipeline itself: the phased fill has no
        // retransmit path, so on a faulted link a dropped prime frame would
        // never land. A failed prime shows in the first session's counts.
        let _ = runner.session(1);
        runner.bed.host.reset_stats();
        runner.bed.fleet.reset_stats();
        runner
    }

    fn frames_per_session(&self) -> u64 {
        (ROUNDS_PER_SESSION * self.bed.host.config().total_mailboxes()) as u64
    }

    fn session(&mut self, rounds: usize) -> AmResult<PipelineOutcome> {
        let Runner {
            bed,
            oracle,
            sessions,
            ..
        } = self;
        let first_round = *sessions * ROUNDS_PER_SESSION as u64;
        *sessions += 1;
        let outcome = drive_pipeline(
            &mut bed.host,
            &mut bed.fleet,
            self.elem,
            InvocationMode::Injected,
            rounds,
            &|ctx| {
                let slot = ((ctx.bank as u64) << 16) | ctx.slot as u64;
                oracle.message(oracle.pick(first_round + ctx.round, slot))
            },
        );
        bed.fleet.harvest_completions();
        outcome
    }

    /// One full session: its outcome, the frames it executed and their wall
    /// rate.
    fn timed_session(&mut self) -> (AmResult<PipelineOutcome>, u64, f64) {
        let start = Instant::now();
        let before = self.bed.host.stats().executions;
        let outcome = self.session(ROUNDS_PER_SESSION);
        let executed = self.bed.host.stats().executions - before;
        (
            outcome,
            executed,
            executed as f64 / start.elapsed().as_secs_f64(),
        )
    }
}

/// What the pass measures, by metric name.
type Values = Vec<(&'static str, f64)>;

fn clean_sessions(plan: Plan, values: &mut Values) {
    let mut runner = Runner::new(plan.seed, None);
    let sessions = plan.blocks(CLEAN_SESSIONS_PER_10S);
    let mut rates = Vec::with_capacity(sessions);
    let mut missing = 0;
    for _ in 0..sessions {
        let (outcome, executed, rate) = runner.timed_session();
        rates.push(rate);
        missing += runner.frames_per_session().saturating_sub(executed);
        if outcome.is_err() {
            runner = Runner::new(plan.seed, None);
        }
    }
    let sender = runner.bed.fleet.stats();
    let sent = sender.messages_sent as f64;
    let offered = runner.frames_per_session() * sessions as u64;
    let puts = (sender.messages_sent - sender.batched_frames + sender.batch_puts) as f64;
    values.extend([
        ("fleet.pipeline_wall_msgs_per_sec", median(&mut rates)),
        (
            "fleet.pipeline_undelivered_per_mmsg",
            ratio(1e6 * missing as f64, offered as f64),
        ),
        (
            "fleet.credit_stall_events_per_kmsg",
            ratio(1000.0 * sender.credit_stall_events as f64, sent),
        ),
        ("fleet.pipeline_frames_per_put", ratio(sent, puts)),
    ]);
}

/// Sessions over a faulted link, each testbed with its own fault seed. An
/// aborted session costs the frames it never delivered and its testbed.
fn lossy_sessions(plan: Plan, values: &mut Values) {
    let bed = |nth: u64| {
        let faults = FaultPlan::mixed(FAULT_RATE, mix2(plan.seed, 0x6C6F_7373, nth));
        Runner::new(plan.seed, Some(faults))
    };
    let sessions = plan.blocks(LOSSY_SESSIONS_PER_10S);
    let mut runner = bed(0);
    let mut rates = Vec::with_capacity(sessions);
    let (mut aborted, mut missing) = (0u64, 0u64);
    // Summed over every testbed the pass goes through: retransmits, faults
    // (dropped, duplicated, reordered), rejections, replays, NACKs.
    let mut sums = [0u64; 7];
    let mut retire = |runner: &Runner| {
        let (host, sender) = (runner.bed.host.stats(), runner.bed.fleet.stats());
        let faults = runner
            .bed
            .fabric
            .fault_counters(runner.bed.sender_id, runner.bed.host_id)
            .unwrap_or_default();
        let add = [
            sender.frames_retransmitted,
            faults.dropped,
            faults.duplicated,
            faults.reordered,
            host.frames_rejected,
            host.replays_suppressed,
            host.nacks_posted,
        ];
        sums.iter_mut().zip(add).for_each(|(sum, n)| *sum += n);
    };
    for _ in 0..sessions {
        let (outcome, executed, rate) = runner.timed_session();
        rates.push(rate);
        missing += runner.frames_per_session().saturating_sub(executed);
        if outcome.is_err() {
            aborted += 1;
            retire(&runner);
            runner = bed(aborted);
        }
    }
    retire(&runner);
    let offered = runner.frames_per_session() * sessions as u64;
    let [retransmits, dropped, duplicated, reordered, rejected, replays, nacks] =
        sums.map(|n| n as f64);
    values.extend([
        ("fleet.lossy_wall_msgs_per_sec", median(&mut rates)),
        ("fleet.lossy_sessions_aborted", aborted as f64),
        (
            "fleet.lossy_undelivered_per_mmsg",
            ratio(1e6 * missing as f64, offered as f64),
        ),
        ("fleet.retransmits_per_drop", ratio(retransmits, dropped)),
        ("fabric.dropped", dropped),
        ("fabric.duplicated", duplicated),
        ("fabric.reordered", reordered),
        ("host.frames_rejected", rejected),
        ("host.replays_suppressed", replays),
        ("host.nacks_posted", nacks),
    ]);
}

/// Run the pass under its deadline and store what it measured.
pub fn pass(plan: Plan, report: &mut Report) {
    let (done, result) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut values = Values::new();
        clean_sessions(plan, &mut values);
        lossy_sessions(plan, &mut values);
        // Nobody listens any more once the deadline has passed.
        let _ = done.send(values);
    });
    match result.recv_timeout(DEADLINE) {
        Ok(values) => {
            worker.join().expect("the pass sent its values last");
            for (name, value) in values {
                report.set(name, value);
            }
        }
        // Hung threads cannot be joined; the handle is dropped on purpose.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            report.set("fleet.pipeline_hung", 1.0);
            report.notes.push(format!(
                "the threaded pass did not finish in {DEADLINE:?}; its metrics read 0"
            ));
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let panic = worker
                .join()
                .expect_err("the pass ended without its values");
            report.fail_state(format!("the threaded pass panicked: {panic:?}"));
        }
    }
}
