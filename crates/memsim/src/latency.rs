//! DRAM timing and bandwidth-contention model.
//!
//! A single access to an idle DDR4-2666 system costs roughly the configured base
//! latency. Under load two additional effects matter, and both are central to the
//! paper's tail-latency experiments (Figs. 11–12):
//!
//! 1. **Bandwidth contention** — the useful bandwidth left for the benchmark shrinks
//!    when background traffic (the `stress-ng` stand-in) occupies the channel, so
//!    per-line transfer time stretches.
//! 2. **Queueing jitter** — requests occasionally arrive behind a burst of stressor
//!    requests and observe a much larger, heavy-tailed delay. This is what makes the
//!    non-stashed runs "erratic" in the paper's words, while stashed traffic (which
//!    bypasses DRAM on the critical path) stays tight.

use crate::clock::SimTime;
use crate::config::{DramConfig, CACHE_LINE};
use crate::stress::MemoryStressor;

/// DRAM access model: base latency plus contention-dependent transfer and queueing.
#[derive(Debug, Clone)]
pub struct DramModel {
    base_latency: SimTime,
    cfg: DramConfig,
    /// Cached per-line transfer time at the currently effective bandwidth.
    line_transfer: SimTime,
    accesses: u64,
}

impl DramModel {
    /// Build the model from a base (idle) latency and channel configuration.
    pub fn new(base_latency: SimTime, cfg: DramConfig) -> Self {
        let mut m = DramModel {
            base_latency,
            cfg,
            line_transfer: SimTime::ZERO,
            accesses: 0,
        };
        m.recompute();
        m
    }

    fn recompute(&mut self) {
        let effective =
            (self.cfg.bandwidth_gib_s * (1.0 - self.cfg.background_utilization)).max(0.5);
        // bytes per nanosecond at `effective` GiB/s
        let bytes_per_ns = effective * 1.073_741_824; // GiB/s -> bytes/ns
        let ns = CACHE_LINE as f64 / bytes_per_ns;
        self.line_transfer = SimTime::from_ns_f64(ns);
    }

    /// Update the share of bandwidth consumed by background traffic (0.0–0.95).
    pub fn set_background_utilization(&mut self, util: f64) {
        self.cfg.background_utilization = util.clamp(0.0, 0.95);
        self.recompute();
    }

    /// Latency of fetching one cache line from DRAM. `stressor` (if any) contributes
    /// heavy-tailed queueing jitter on top of the deterministic component.
    pub fn line_access(&mut self, stressor: Option<&mut MemoryStressor>) -> SimTime {
        self.accesses += 1;
        let mut t = self.base_latency + self.line_transfer;
        if let Some(s) = stressor {
            t += s.queueing_delay();
        }
        t
    }

    /// Latency of a line write-back. Write-backs are posted and mostly off the
    /// critical path; we charge a fraction of a full access.
    pub fn writeback(&mut self) -> SimTime {
        self.accesses += 1;
        self.line_transfer
    }

    /// Number of line accesses (reads + write-backs) charged so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(
            SimTime::from_ns(95),
            DramConfig {
                bandwidth_gib_s: 19.0,
                background_utilization: 0.0,
            },
        )
    }

    #[test]
    fn idle_access_is_base_plus_transfer() {
        let mut m = model();
        let t = m.line_access(None);
        assert!(t > SimTime::from_ns(95));
        assert!(t < SimTime::from_ns(110));
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn contention_stretches_transfer_time() {
        let mut m = model();
        let idle = m.line_access(None);
        m.set_background_utilization(0.8);
        let loaded = m.line_access(None);
        assert!(loaded > idle, "loaded {loaded} should exceed idle {idle}");
        // 5x less bandwidth -> transfer component (all a write-back pays) roughly 5x larger.
        assert!(m.writeback() > SimTime::from_ns(10));
    }

    #[test]
    fn utilization_is_clamped() {
        let mut m = model();
        let idle = m.writeback();
        m.set_background_utilization(0.95);
        let ceiling = m.writeback();
        m.set_background_utilization(2.0);
        assert_eq!(m.writeback(), ceiling);
        m.set_background_utilization(-1.0);
        assert_eq!(m.writeback(), idle);
    }

    #[test]
    fn stressor_adds_jitter() {
        let mut m = model();
        let mut s = MemoryStressor::new(42, 1.0);
        let idle = m.line_access(None);
        let mut saw_extra = false;
        for _ in 0..200 {
            let with = m.line_access(Some(&mut s));
            if with > idle {
                saw_extra = true;
            }
        }
        assert!(
            saw_extra,
            "stressor should add queueing delay at least sometimes"
        );
    }

    #[test]
    fn writeback_cheaper_than_read() {
        let mut m = model();
        assert!(m.writeback() < m.line_access(None));
    }
}
