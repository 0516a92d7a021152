//! Cold-vs-warm fast-path comparison for injected dispatch.
//!
//! The runtime's zero-copy fast path amortises decode + verify + GOT patching across
//! messages: the first injected message for an element pays the full cost and
//! populates the injected-code / GOT / frame-template caches; every later message
//! hashes the arrived bytes, hits the caches and runs the resolved image from the
//! second-level cache. This module measures both regimes over the same testbed
//! and emits the result as `BENCH_fastpath.json`, so the perf trajectory of the fast
//! path is tracked from PR to PR.
//!
//! * **Cold** — the receiver's injection caches are invalidated before every message
//!   (as after a package reinstall or live update), so each dispatch re-decodes,
//!   re-verifies and re-parses the GOT.
//! * **Warm** — the caches are primed once; each dispatch is a hash + lookup.
//!
//! "Dispatch" is [`twochains::ReceiveOutcome::dispatch_time`]: everything the receiver does
//! before the jam's own execution (header read, cache probes, decode/verify on a
//! miss). Both virtual (modelled) and wall-clock (host CPU) times are reported.

use std::time::Instant;

use twochains::builtin::{benchmark_package, graph_args, indirect_put_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, TwoChainsHost, TwoChainsSender};
use twochains_fabric::SimFabric;
use twochains_memsim::{SimTime, TestbedConfig};

use crate::burst::{BurstRow, LossRow};
use crate::harness::TestbedOptions;

/// One measured regime (cold or warm).
#[derive(Debug, Clone, Copy)]
pub struct RegimeResult {
    /// Mean modelled dispatch time per message, in ns.
    pub dispatch_ns: f64,
    /// Mean modelled handler time per message (dispatch + execution), in ns.
    pub handler_ns: f64,
    /// Mean wall-clock host time per message over the send+receive loop, in ns.
    pub wall_ns: f64,
}

/// The cold-vs-warm comparison emitted as `BENCH_fastpath.json`.
#[derive(Debug, Clone)]
pub struct FastpathReport {
    /// Messages measured per regime.
    pub messages: usize,
    /// Frame size on the wire (bytes).
    pub frame_bytes: usize,
    /// Cold-cache regime (invalidated before every message).
    pub cold: RegimeResult,
    /// Warm-cache regime (caches primed once).
    pub warm: RegimeResult,
    /// Receiver-side cache counters observed during the warm run.
    pub warm_code_cache_hits: u64,
    /// Decode+verify events during the warm run (the priming message only).
    pub warm_code_cache_misses: u64,
    /// GOT cache hits during the warm run.
    pub warm_got_cache_hits: u64,
    /// Sender template hits during the warm run.
    pub warm_template_hits: u64,
    /// Resolved-image cache hits during the warm run: dispatches that keyed
    /// the delivery digest straight to a pre-lowered image and never touched
    /// the shipped code section.
    pub warm_resolved_cache_hits: u64,
    /// Resolved-image cache misses during the warm run (lowering events).
    /// Zero in steady state: the priming message lowers once.
    pub warm_resolved_cache_misses: u64,
    /// Fused superinstructions retired by the resolved executor during the
    /// warm run.
    pub superinstructions_executed: u64,
    /// Executions per chained frame in the chain regime (primary + continuation
    /// stages of the lookup → filter → aggregate graph chain).
    pub chain_stages: usize,
    /// Mean modelled dispatch per message when the same three stages travel as
    /// three separate warm injected messages (the chain regime's baseline), in
    /// ns.
    pub chain_sequential_dispatch_ns: f64,
    /// Mean modelled dispatch per *stage* of the chained frame: the whole
    /// frame's dispatch (parsed once, plus a table lookup and one context-cell
    /// write per continuation stage) divided by `chain_stages`, in ns.
    pub chain_per_stage_dispatch_ns: f64,
    /// `chain_sequential_dispatch_ns / chain_per_stage_dispatch_ns` — how many
    /// times cheaper a stage's share of dispatch is when it rides a chained
    /// frame instead of its own message (a bar of [`crate::gate::BARS`]).
    pub chain_amortization: f64,
    /// Shard-scaling rows from the burst-drain sweep ([`crate::burst::sweep`]):
    /// modelled rate plus three wall views per shard count (drain-only,
    /// phased fill-then-drain, and the overlapped sender-fleet pipeline).
    /// Empty when the sweep was not run.
    pub burst: Vec<BurstRow>,
    /// Lossy-fabric rows from [`crate::burst::loss_sweep`]: goodput and
    /// retransmit overhead of the pipelined engine per injected fault rate
    /// (the `0.0` row proves the reliability layer costs nothing on a
    /// pristine link). Empty when the sweep was not run.
    pub loss: Vec<LossRow>,
    /// Hardware threads available to the wall-clock measurements. The perf
    /// gate enforces its wall-clock bars only from
    /// [`crate::gate::MIN_PARALLELISM`] (on a 1-core runner, N drain threads
    /// time-slice and the wall column cannot scale).
    pub host_parallelism: usize,
}

/// The column of a field whose JSON key is its own name: a count, or a real
/// with the decimals it keeps.
macro_rules! col {
    ($row:ident.$field:ident) => {
        (stringify!($field), Count($row.$field as u64))
    };
    ($row:ident.$field:ident, $decimals:literal) => {
        (stringify!($field), Real($row.$field, $decimals))
    };
}

impl FastpathReport {
    /// Modelled dispatch speedup of the warm path over the cold path.
    pub fn dispatch_speedup(&self) -> f64 {
        self.cold.dispatch_ns / self.warm.dispatch_ns.max(f64::EPSILON)
    }

    /// Wall-clock speedup of the warm path over the cold path.
    pub fn wall_speedup(&self) -> f64 {
        self.cold.wall_ns / self.warm.wall_ns.max(f64::EPSILON)
    }

    /// Serialize as a stable, hand-rolled JSON object (no serde in this workspace):
    /// a write-only artifact, its keys, order and number formats fixed by the
    /// three column lists below.
    pub fn to_json(&self) -> String {
        format!("{{\n  {}\n}}\n", members(&self.columns(), ",\n  "))
    }

    fn columns(&self) -> Vec<(&'static str, Cell)> {
        vec![
            ("benchmark", Raw("\"fastpath_injected_dispatch\"".into())),
            ("jam", Raw("\"indirect_put\"".into())),
            col!(self.messages),
            col!(self.frame_bytes),
            ("cold_dispatch_ns", Real(self.cold.dispatch_ns, 1)),
            ("warm_dispatch_ns", Real(self.warm.dispatch_ns, 1)),
            ("dispatch_speedup", Real(self.dispatch_speedup(), 2)),
            ("cold_handler_ns", Real(self.cold.handler_ns, 1)),
            ("warm_handler_ns", Real(self.warm.handler_ns, 1)),
            ("cold_wall_ns", Real(self.cold.wall_ns, 1)),
            ("warm_wall_ns", Real(self.warm.wall_ns, 1)),
            ("wall_speedup", Real(self.wall_speedup(), 2)),
            col!(self.warm_code_cache_hits),
            col!(self.warm_code_cache_misses),
            col!(self.warm_got_cache_hits),
            col!(self.warm_template_hits),
            col!(self.warm_resolved_cache_hits),
            col!(self.warm_resolved_cache_misses),
            col!(self.superinstructions_executed),
            col!(self.chain_stages),
            col!(self.chain_sequential_dispatch_ns, 1),
            col!(self.chain_per_stage_dispatch_ns, 1),
            col!(self.chain_amortization, 2),
            col!(self.host_parallelism),
            ("burst_shard_rows", rows(&self.burst, burst_columns)),
            ("burst_loss_rows", rows(&self.loss, loss_columns)),
        ]
    }
}

/// One report value and how it prints.
enum Cell {
    /// An integer column.
    Count(u64),
    /// A real column and the decimals it keeps.
    Real(f64, usize),
    /// Already JSON: a quoted string or an array of row objects.
    Raw(String),
}
use Cell::{Count, Raw, Real};

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Count(count) => write!(f, "{count}"),
            Real(value, decimals) => write!(f, "{value:.decimals$}"),
            Raw(json) => f.write_str(json),
        }
    }
}

/// `"key": value` for every column, joined by `separator`.
fn members(columns: &[(&str, Cell)], separator: &str) -> String {
    let members: Vec<String> = columns
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    members.join(separator)
}

/// An array of one-line row objects (`[]` when the sweep was not run).
fn rows<R>(rows: &[R], columns: fn(&R) -> Vec<(&'static str, Cell)>) -> Cell {
    if rows.is_empty() {
        return Raw("[]".into());
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|row| format!("    {{{}}}", members(&columns(row), ", ")))
        .collect();
    Raw(format!("[\n{}\n  ]", lines.join(",\n")))
}

fn burst_columns(r: &BurstRow) -> Vec<(&'static str, Cell)> {
    vec![
        col!(r.shards),
        col!(r.messages),
        col!(r.model_msgs_per_sec, 0),
        col!(r.model_speedup, 2),
        col!(r.wall_msgs_per_sec, 0),
        col!(r.fill_drain_wall_msgs_per_sec, 0),
        col!(r.pipelined_wall_msgs_per_sec, 0),
        col!(r.model_credit_ops),
        col!(r.model_credit_bytes),
        col!(r.model_credit_time_share, 4),
        col!(r.pipe_credit_ops),
        col!(r.pipe_credit_bytes),
        col!(r.pipe_credit_stall_events),
        col!(r.batch_frames_per_put, 2),
        col!(r.model_puts_per_frame, 4),
        col!(r.model_posting_share_per_frame, 4),
        col!(r.model_posting_share_batched, 4),
    ]
}

fn loss_columns(r: &LossRow) -> Vec<(&'static str, Cell)> {
    vec![
        col!(r.loss_rate, 4),
        col!(r.messages),
        col!(r.goodput_msgs_per_sec, 0),
        col!(r.frames_sent),
        col!(r.frames_retransmitted),
        col!(r.frames_dropped),
        col!(r.replays_suppressed),
        col!(r.nacks_posted),
        col!(r.frames_rejected),
        ("retransmit_overhead", Real(r.retransmit_overhead(), 4)),
    ]
}

fn build_testbed(opts: &TestbedOptions) -> (TwoChainsHost, TwoChainsSender) {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut cfg = RuntimeConfig::paper_default();
    cfg.wait_mode = opts.wait_mode;
    cfg.skip_execution = opts.skip_execution;
    let mut host = TwoChainsHost::new(&fabric, b, cfg).expect("host");
    host.install_package(benchmark_package().expect("package"))
        .expect("install");
    host.set_stashing(opts.stashing);
    let mut sender = TwoChainsSender::new(
        fabric.endpoint(a, b).expect("ep"),
        benchmark_package().unwrap(),
    );
    let id = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    sender.set_remote_got(id, &host.export_got(id).unwrap());
    (host, sender)
}

/// Drive `messages` injected sends+receives; `cold` invalidates the receiver's
/// injection caches before every receive. Returns the regime result plus the frame
/// size.
fn run_regime(
    messages: usize,
    n_ints: usize,
    cold: bool,
) -> (RegimeResult, usize, TwoChainsHost, TwoChainsSender) {
    let opts = TestbedOptions::default();
    let (mut host, mut sender) = build_testbed(&opts);
    let elem = host.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let target = host.mailbox_target(0, 0).unwrap();
    let args = indirect_put_args(7, n_ints as u32, 4);
    let usr: Vec<u8> = (0..n_ints as u32)
        .flat_map(|v| (v + 1).to_le_bytes())
        .collect();

    let msg = spec(elem)
        .mode(InvocationMode::Injected)
        .args(args)
        .usr(usr);

    // Prime: one message through the full path (populates caches in the warm regime,
    // and warms the simulated cache hierarchy identically in both regimes).
    let sent = sender
        .send_spec(SimTime::ZERO, &msg, &target)
        .expect("prime send");
    let frame_bytes = sent.wire_bytes;
    host.receive(0, 0, Some(frame_bytes), sent.delivered(), SimTime::ZERO)
        .expect("prime receive");
    host.reset_stats();

    let mut dispatch = SimTime::ZERO;
    let mut handler = SimTime::ZERO;
    let start = Instant::now();
    for _ in 0..messages {
        if cold {
            host.invalidate_injection_caches();
        }
        let sent = sender
            .send_spec(SimTime::ZERO, &msg, &target)
            .expect("send");
        let out = host
            .receive(0, 0, Some(frame_bytes), sent.delivered(), SimTime::ZERO)
            .expect("receive");
        dispatch += out.dispatch_time;
        handler += out.handler_time;
    }
    let wall = start.elapsed();
    let result = RegimeResult {
        dispatch_ns: dispatch.as_ns() / messages as f64,
        handler_ns: handler.as_ns() / messages as f64,
        wall_ns: wall.as_nanos() as f64 / messages as f64,
    };
    (result, frame_bytes, host, sender)
}

/// Stages per chained frame in the chain regime: the graph chain's primary
/// lookup plus the filter and aggregate continuations.
pub const CHAIN_REGIME_STAGES: usize = 3;

/// Measure dispatch amortization of receiver-side chains: the
/// lookup → filter → aggregate graph pipeline as one chained frame per item
/// versus the same three stages as three separate warm injected messages
/// (each carrying the previous result back out as its 8-byte operand). Both
/// schedules execute the identical stage sequence on the identical operands;
/// the chained frame pays frame parse + code/GOT hashing + cache probes once,
/// then a Local-library table lookup and one 8-byte context write per
/// continuation stage. Returns
/// `(sequential_dispatch_ns_per_message, chained_dispatch_ns_per_stage)`.
fn run_chain_regime(messages: usize) -> (f64, f64) {
    let opts = TestbedOptions::default();
    let (mut host, mut sender) = build_testbed(&opts);
    let lookup = host.builtin_id(BuiltinJam::GraphLookup).unwrap();
    let filter = host.builtin_id(BuiltinJam::GraphFilter).unwrap();
    let agg = host.builtin_id(BuiltinJam::GraphAggregate).unwrap();
    for elem in [lookup, filter, agg] {
        sender.set_remote_got(elem, &host.export_got(elem).unwrap());
    }
    let target = host.mailbox_target(0, 0).unwrap();

    // Prime both shapes once (warms the injection caches for every stage
    // element and the chained frame's own code image), then measure from
    // clean counters — both regimes below run fully warm.
    let chained = |key: u64| {
        spec(lookup)
            .mode(InvocationMode::Injected)
            .args(graph_args(key))
            .then(filter)
            .then(agg)
    };
    for elem in [lookup, filter, agg] {
        let msg = spec(elem)
            .mode(InvocationMode::Injected)
            .args(graph_args(0));
        let sent = sender
            .send_spec(SimTime::ZERO, &msg, &target)
            .expect("prime send");
        host.receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
            .expect("prime receive");
    }
    host.reset_stats();

    // Sequential baseline: three warm injected messages per item, each
    // stage's result carried back as the next stage's operand.
    let mut seq_dispatch = SimTime::ZERO;
    for item in 0..messages {
        let mut carried = item as u64;
        for elem in [lookup, filter, agg] {
            let msg = spec(elem)
                .mode(InvocationMode::Injected)
                .args(graph_args(carried));
            let sent = sender
                .send_spec(SimTime::ZERO, &msg, &target)
                .expect("seq send");
            let out = host
                .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
                .expect("seq receive");
            seq_dispatch += out.dispatch_time;
            carried = out.result;
        }
    }

    // Chained schedule: one injected frame per item carries all three stages.
    let mut chain_dispatch = SimTime::ZERO;
    for item in 0..messages {
        let sent = sender
            .send_spec(SimTime::ZERO, &chained(item as u64), &target)
            .expect("chain send");
        let out = host
            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
            .expect("chain receive");
        chain_dispatch += out.dispatch_time;
    }

    let seq_per_message = seq_dispatch.as_ns() / (messages * CHAIN_REGIME_STAGES) as f64;
    let chain_per_stage = chain_dispatch.as_ns() / (messages * CHAIN_REGIME_STAGES) as f64;
    (seq_per_message, chain_per_stage)
}

/// Run the cold-vs-warm comparison over `messages` injected Indirect Put messages
/// per regime (the paper's flagship injected jam: 1408 B of shipped code + GOT, the
/// exact §VII-A configuration), plus the chained-dispatch amortization regime.
pub fn compare(messages: usize) -> FastpathReport {
    // At least one message per regime: zero would divide the per-message means by
    // zero and leak NaN into the JSON report.
    let messages = messages.max(1);
    let n_ints = 8;
    let (cold, frame_bytes, _, _) = run_regime(messages, n_ints, true);
    let (warm, _, host, sender) = run_regime(messages, n_ints, false);
    let (chain_seq_ns, chain_stage_ns) = run_chain_regime(messages);
    FastpathReport {
        messages,
        frame_bytes,
        cold,
        warm,
        warm_code_cache_hits: host.stats().injected_code_cache_hits,
        warm_code_cache_misses: host.stats().injected_code_cache_misses,
        warm_got_cache_hits: host.stats().got_cache_hits,
        warm_template_hits: sender.stats().template_hits,
        warm_resolved_cache_hits: host.stats().resolved_cache_hits,
        warm_resolved_cache_misses: host.stats().resolved_cache_misses,
        superinstructions_executed: host.stats().superinstructions_executed,
        chain_stages: CHAIN_REGIME_STAGES,
        chain_sequential_dispatch_ns: chain_seq_ns,
        chain_per_stage_dispatch_ns: chain_stage_ns,
        chain_amortization: chain_seq_ns / chain_stage_ns.max(f64::EPSILON),
        burst: Vec::new(),
        loss: Vec::new(),
        host_parallelism: crate::burst::host_parallelism(),
    }
}

/// Fault rates the loss sweep reports by default: the pristine baseline plus
/// the 1% and 5% mixed drop/duplicate/reorder schedules.
pub const DEFAULT_LOSS_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// [`compare`] plus the shard-scaling burst-drain sweep over `shard_counts`
/// (at least `messages` drained per count) and the lossy-fabric goodput sweep
/// over [`DEFAULT_LOSS_RATES`].
pub fn compare_with_burst(messages: usize, shard_counts: &[usize]) -> FastpathReport {
    let mut report = compare(messages);
    report.burst = crate::burst::sweep(shard_counts, messages);
    report.loss = crate::burst::loss_sweep(&DEFAULT_LOSS_RATES, messages);
    report
}

/// A report every gate bar passes with room to spare, in the exact shape
/// [`compare_with_burst`] returns: the one fixture of the gate's table-driven
/// tests and of the JSON tests below.
#[cfg(test)]
pub(crate) fn healthy_report(host_parallelism: usize) -> FastpathReport {
    let one = BurstRow {
        shards: 1,
        messages: 64,
        model_msgs_per_sec: 8e5,
        model_speedup: 1.0,
        wall_msgs_per_sec: 1.5e5,
        fill_drain_wall_msgs_per_sec: 1.1e5,
        pipelined_wall_msgs_per_sec: 1.6e5,
        model_credit_ops: 64,
        model_credit_bytes: 64,
        model_credit_time_share: 0.04,
        pipe_credit_ops: 64,
        pipe_credit_bytes: 64,
        pipe_credit_stall_events: 1,
        batch_frames_per_put: 7.5,
        model_puts_per_frame: 0.133,
        model_posting_share_per_frame: 0.2,
        model_posting_share_batched: 0.03,
    };
    let four = BurstRow {
        shards: 4,
        model_speedup: 4.0,
        wall_msgs_per_sec: 3.2e5,
        ..one
    };
    let pristine = LossRow {
        loss_rate: 0.0,
        messages: 128,
        goodput_msgs_per_sec: 2e5,
        frames_sent: 128,
        frames_retransmitted: 0,
        frames_dropped: 0,
        replays_suppressed: 0,
        nacks_posted: 0,
        frames_rejected: 0,
    };
    let faulted = LossRow {
        loss_rate: 0.05,
        goodput_msgs_per_sec: 1.5e5,
        frames_retransmitted: 6,
        frames_dropped: 3,
        replays_suppressed: 2,
        nacks_posted: 3,
        ..pristine
    };
    FastpathReport {
        messages: 10,
        frame_bytes: 1500,
        cold: RegimeResult {
            dispatch_ns: 2400.0,
            handler_ns: 2500.0,
            wall_ns: 20000.0,
        },
        warm: RegimeResult {
            dispatch_ns: 76.0,
            handler_ns: 176.0,
            wall_ns: 8000.0,
        },
        warm_code_cache_hits: 10,
        warm_code_cache_misses: 0,
        warm_got_cache_hits: 10,
        warm_template_hits: 10,
        warm_resolved_cache_hits: 500,
        warm_resolved_cache_misses: 0,
        superinstructions_executed: 20,
        chain_stages: 3,
        chain_sequential_dispatch_ns: 120.0,
        chain_per_stage_dispatch_ns: 40.0,
        chain_amortization: 2.9,
        burst: vec![one, BurstRow { shards: 2, ..one }, four],
        loss: vec![pristine, faulted],
        host_parallelism,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_dispatch_beats_cold_and_hits_every_cache() {
        let report = compare(50);
        // How much cheaper is the gate's bar (`gate::BARS`, held at the
        // calibrated size by tests/perf_bars.rs); that it is cheaper at all
        // is this regime's reason to exist.
        assert!(
            report.warm.dispatch_ns < report.cold.dispatch_ns,
            "warm dispatch {}ns is not cheaper than cold {}ns",
            report.warm.dispatch_ns,
            report.cold.dispatch_ns
        );
        // Steady state performs zero decodes: every measured message hit the caches.
        assert_eq!(report.warm_code_cache_misses, 0);
        assert_eq!(report.warm_code_cache_hits, 50);
        assert_eq!(report.warm_got_cache_hits, 50);
        assert_eq!(report.warm_template_hits, 50);
        // Every warm dispatch must run the pre-lowered image — never lower
        // the same program again.
        assert_eq!(report.warm_resolved_cache_misses, 0);
        assert_eq!(report.warm_resolved_cache_hits, 50);
        assert!(
            report.superinstructions_executed > 0,
            "Indirect Put's mov pairs must fuse on the resolved path"
        );
    }

    #[test]
    fn chained_dispatch_amortizes_across_stages() {
        let report = compare(50);
        // A stage's share of dispatch on a chained frame is cheaper than
        // giving that stage its own message, because the frame parse + mailbox
        // wait are paid once for the whole lookup -> filter -> aggregate
        // pipeline. By how much, and in absolute terms, are two gate bars.
        assert_eq!(report.chain_stages, CHAIN_REGIME_STAGES);
        assert!(
            report.chain_per_stage_dispatch_ns < report.chain_sequential_dispatch_ns,
            "chained per-stage dispatch {}ns is not cheaper than one message \
             per stage ({}ns/msg): amortization {:.2}",
            report.chain_per_stage_dispatch_ns,
            report.chain_sequential_dispatch_ns,
            report.chain_amortization
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = compare(5);
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"dispatch_speedup\""));
        assert!(json.contains("\"warm_code_cache_misses\": 0"));
        assert!(json.contains("\"burst_shard_rows\": []"));
        assert!(json.contains("\"burst_loss_rows\": []"));
        assert!(json.contains("\"host_parallelism\": "));
        assert!(json.contains("\"chain_stages\": 3"));
        assert!(json.contains("\"chain_amortization\": "));
        assert!(json.contains("\"warm_resolved_cache_misses\": 0"));
        assert_eq!(json.matches(':').count(), 26);
    }

    #[test]
    fn json_includes_loss_rows_when_swept() {
        let json = healthy_report(4).to_json();
        assert!(json.contains("\"burst_loss_rows\": [\n"));
        assert!(json.contains("{\"loss_rate\": 0.0000, \"messages\": 128,"));
        assert!(json.contains("\"goodput_msgs_per_sec\": 150000"));
        assert!(json.contains("\"frames_retransmitted\": 6"));
        assert!(json.contains("\"frames_dropped\": 3"));
        // 6 retransmits over 128 sends.
        assert!(json.contains("\"retransmit_overhead\": 0.0469"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_includes_burst_rows_when_swept() {
        let json = healthy_report(4).to_json();
        assert!(json.contains("\"burst_shard_rows\": [\n"));
        assert!(json.contains("{\"shards\": 1, \"messages\": 64,"));
        assert!(json.contains("\"model_speedup\": 4.00"));
        assert!(json.contains("\"wall_msgs_per_sec\": 320000"));
        assert!(json.contains("\"fill_drain_wall_msgs_per_sec\": 110000"));
        assert!(json.contains("\"pipelined_wall_msgs_per_sec\": 160000"));
        assert!(json.contains("\"model_credit_time_share\": 0.0400"));
        assert!(json.contains("\"pipe_credit_ops\": 64"));
        assert!(json.contains("\"pipe_credit_stall_events\": 1"));
        assert!(json.contains("\"batch_frames_per_put\": 7.50"));
        assert!(json.contains("\"model_puts_per_frame\": 0.1330"));
        assert!(json.contains("\"model_posting_share_per_frame\": 0.2000"));
        assert!(json.contains("\"model_posting_share_batched\": 0.0300"));
        assert!(json.ends_with("}\n"));
    }
}
