//! The metrics the benchmark reports, by name and unit, and the result line.
//!
//! These two tables are the same lists `BENCHMARK.json` declares; a test
//! holds them equal. A workload stores a value under a name from the tables;
//! a per-layer metric no workload stored reads 0, which means the layer did
//! no such work on that workload.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("wall_msgs_per_sec", "msg/s"),
    def("model_msgs_per_sec", "msg/s"),
    def("model_mean_ns", "ns"),
    def("model_p99_ns", "ns"),
    def("peak_rss_mb", "MB"),
];

/// What single layers do; printed by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    def("memsim.llc_hit_share", "share"),
    def("memsim.dram_accesses_per_msg", "1/msg"),
    def("memsim.stashed_lines_per_msg", "1/msg"),
    def("memsim.stash_p99_gain", "ratio"),
    def("memsim.probe_hit_line_wall_ns", "ns"),
    def("memsim.probe_miss_line_wall_ns", "ns"),
    def("fabric.puts_per_msg", "1/msg"),
    def("fabric.model_put_ns", "ns"),
    def("fabric.probe_put_wall_ns", "ns"),
    def("fabric.dropped", "count"),
    def("fabric.duplicated", "count"),
    def("fabric.reordered", "count"),
    def("fabric.completions_harvested_per_msg", "1/msg"),
    def("frame.wire_bytes_per_msg", "B"),
    def("frame.batch_frames_per_put", "ratio"),
    def("frame.probe_encode_wall_ns", "ns"),
    def("frame.probe_parse_wall_ns", "ns"),
    def("sender.fill_wall_ns_per_msg", "ns"),
    def("sender.model_cpu_ns_per_msg", "ns"),
    def("sender.template_hit_share", "share"),
    def("sender.backpressured_per_kmsg", "1/kmsg"),
    def("fleet.harvest_wall_ns_per_msg", "ns"),
    def("fleet.credit_stall_events_per_kmsg", "1/kmsg"),
    def("fleet.pipeline_wall_msgs_per_sec", "msg/s"),
    def("fleet.pipeline_frames_per_put", "ratio"),
    def("fleet.pipeline_undelivered_per_mmsg", "1/Mmsg"),
    def("fleet.pipeline_hung", "count"),
    def("fleet.retransmits_per_drop", "ratio"),
    def("fleet.lossy_wall_msgs_per_sec", "msg/s"),
    def("fleet.lossy_sessions_aborted", "count"),
    def("fleet.lossy_undelivered_per_mmsg", "1/Mmsg"),
    def("host.drain_wall_ns_per_msg", "ns"),
    def("host.model_dispatch_ns_per_msg", "ns"),
    def("host.model_handler_ns_per_msg", "ns"),
    def("host.model_wait_ns_per_msg", "ns"),
    def("host.code_cache_hit_share", "share"),
    def("host.got_cache_hit_share", "share"),
    def("host.resolved_cache_hit_share", "share"),
    def("host.chain_stages_per_frame", "ratio"),
    def("host.model_dispatch_ns_per_stage", "ns"),
    def("host.invalidate_wall_ns", "ns"),
    def("host.frames_rejected", "count"),
    def("host.replays_suppressed", "count"),
    def("host.nacks_posted", "count"),
    def("jamvm.model_exec_ns_per_msg", "ns"),
    def("jamvm.model_exec_share_of_handler", "share"),
    def("jamvm.instrs_per_msg", "1/msg"),
    def("jamvm.superinstr_per_msg", "1/msg"),
    def("jamvm.model_insert_ns", "ns"),
    def("jamvm.probe_decode_verify_wall_ns", "ns"),
    def("jamvm.probe_resolve_wall_ns", "ns"),
    def("credit.model_time_share", "share"),
    def("credit.flushes_per_msg", "1/msg"),
    def("credit.bytes_per_flush", "B"),
    def("linker.package_build_wall_ms", "ms"),
    def("linker.install_wall_ms", "ms"),
    def("linker.connect_wall_ms", "ms"),
    def("host.new_wall_ms", "ms"),
    def("sim.model_ms", "ms"),
    def("sim.host_ns_per_model_ns", "ratio"),
    def("gen.self_wall_share", "share"),
    def("gen.mean_late_ns", "ns"),
    def("trace.overhead_share", "share"),
    def("trace.spans", "count"),
    def("wall.blocks", "count"),
    def("wall.block_rate_p25", "msg/s"),
    def("wall.block_rate_p50", "msg/s"),
    def("wall.block_rate_p75", "msg/s"),
    def("model.samples", "count"),
    def("model.p50_ns", "ns"),
    def("open.p50_ns_r1", "ns"),
    def("open.p99_ns_r1", "ns"),
    def("open.p999_ns_r1", "ns"),
    def("open.p50_ns_r2", "ns"),
    def("open.p99_ns_r2", "ns"),
    def("open.p999_ns_r2", "ns"),
    def("open.p50_ns_r3", "ns"),
    def("open.p99_ns_r3", "ns"),
    def("open.p999_ns_r3", "ns"),
    def("open.tail_spread_r2", "ratio"),
    def("open.rate_at_limit_mmsgs", "Mmsg/s"),
];

/// One run's result: the counts the result line carries and every metric a
/// workload measured, by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when an oracle over the program's final state failed, even if no
    /// single message could be blamed.
    pub state_ok: bool,
    values: BTreeMap<&'static str, f64>,
    /// Remarks on what the oracles found, printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            state_ok: true,
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        // Nothing is reported that `BENCHMARK.json` does not declare.
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// An oracle over final state failed: record why.
    pub fn fail_state(&mut self, why: String) {
        self.state_ok = false;
        self.notes.push(why);
    }

    pub fn correct(&self) -> bool {
        self.state_ok && self.failed == 0
    }

    /// The metrics of `defs` as (definition, value); a per-layer metric the
    /// workload never stored reads 0.
    pub fn rows<'a>(
        &'a self,
        defs: &'a [MetricDef],
    ) -> impl Iterator<Item = (MetricDef, f64)> + 'a {
        defs.iter().map(|d| (*d, self.get(d.name).unwrap_or(0.0)))
    }

    /// The result line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = self
            .rows(defs)
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float with all its digits; JSON has no NaN or infinity, so a value that
/// is not finite is a bug in the workload and is refused loudly.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new();
        r.attempted = 10;
        r.set("setup_s", 0.25);
        let line = r.result_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(r.result_line(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "name {}", d.name);
            assert!(ok_unit(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
    }
}
