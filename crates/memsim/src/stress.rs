//! Memory-system stress model.
//!
//! The paper's tail-latency experiments (§VII-C) run
//! `taskset -c 0-3 stress-ng --class vm --all 1` next to the benchmark so the paging
//! and memory subsystems are saturated, and then compare the 50th and 99.9th
//! percentile active-message latencies with and without LLC stashing.
//!
//! [`MemoryStressor`] reproduces the *effect* of that workload on the memory system:
//!
//! * it occupies a configurable share of DRAM bandwidth (fed into
//!   [`crate::latency::DramModel::set_background_utilization`]), and
//! * it injects heavy-tailed queueing delays into individual DRAM accesses: most
//!   requests see a modest extra delay, a small fraction lands behind a stressor burst
//!   and sees a very large one. This is what produces the erratic non-stash tail in
//!   Figs. 11–12 while LLC hits stay insulated.
//!
//! The random source is a seeded [`rand::rngs::StdRng`], so every benchmark run is
//! reproducible bit-for-bit.

use crate::clock::SimTime;
use crate::cost::{
    STRESS_BANDWIDTH_SHARE, STRESS_BURST_MAX_US, STRESS_BURST_MIN_US, STRESS_BURST_PROBABILITY,
    STRESS_CONFLICT_MAX_NS, STRESS_JITTER_MAX_NS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Background memory stress generator (the `stress-ng --class vm` stand-in).
#[derive(Debug, Clone)]
pub struct MemoryStressor {
    rng: StdRng,
    /// Intensity in [0, 1]: 0 = idle system, 1 = the paper's fully-loaded system.
    intensity: f64,
    /// Counters for introspection/tests.
    samples: u64,
    bursts: u64,
}

impl MemoryStressor {
    /// Create a stressor with a deterministic seed and the given intensity (clamped
    /// to [0, 1]).
    pub fn new(seed: u64, intensity: f64) -> Self {
        MemoryStressor {
            rng: StdRng::seed_from_u64(seed),
            intensity: intensity.clamp(0.0, 1.0),
            samples: 0,
            bursts: 0,
        }
    }

    /// A stressor representing the paper's fully loaded system.
    pub fn fully_loaded(seed: u64) -> Self {
        Self::new(seed, 1.0)
    }

    /// The share of DRAM bandwidth the stressor occupies; feed this into
    /// [`crate::latency::DramModel::set_background_utilization`].
    pub fn bandwidth_share(&self) -> f64 {
        // stress-ng vm class workers occupy most of a small server's memory
        // bandwidth; scale linearly with intensity.
        STRESS_BANDWIDTH_SHARE * self.intensity
    }

    /// Sample the extra queueing delay a single DRAM access observes.
    ///
    /// The distribution is a two-component mixture:
    /// * with high probability, a uniform "bank/row conflict" delay of up to
    ///   [`STRESS_CONFLICT_MAX_NS`] scaled by intensity;
    /// * with probability [`STRESS_BURST_PROBABILITY`] × intensity, a "burst
    ///   collision" of [`STRESS_BURST_MIN_US`]–[`STRESS_BURST_MAX_US`] representing
    ///   the access queuing behind a stressor page sweep or a reclaim stall.
    pub(crate) fn queueing_delay(&mut self) -> SimTime {
        if self.intensity <= 0.0 {
            return SimTime::ZERO;
        }
        self.samples += 1;
        let burst_p = STRESS_BURST_PROBABILITY * self.intensity;
        if self.rng.gen::<f64>() < burst_p {
            self.bursts += 1;
            let us = self.rng.gen_range(STRESS_BURST_MIN_US..STRESS_BURST_MAX_US) * self.intensity;
            SimTime::from_us_f64(us)
        } else {
            let ns = self.rng.gen_range(0.0..STRESS_CONFLICT_MAX_NS) * self.intensity;
            SimTime::from_ns_f64(ns)
        }
    }

    /// Extra jitter applied to software-visible wake-ups (scheduler noise, TLB
    /// shootdowns, etc.) while the machine is loaded. Much smaller than DRAM bursts
    /// and applied once per message rather than per line.
    pub fn scheduler_jitter(&mut self) -> SimTime {
        if self.intensity <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = self.rng.gen_range(0.0..STRESS_JITTER_MAX_NS) * self.intensity;
        SimTime::from_ns_f64(ns)
    }

    /// Number of delay samples drawn so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Number of heavy-tail burst events drawn so far.
    pub fn bursts(&self) -> u64 {
        self.bursts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_is_free() {
        let mut s = MemoryStressor::new(1, 0.0);
        for _ in 0..100 {
            assert_eq!(s.queueing_delay(), SimTime::ZERO);
            assert_eq!(s.scheduler_jitter(), SimTime::ZERO);
        }
        assert_eq!(s.samples(), 0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = MemoryStressor::new(7, 1.0);
        let mut b = MemoryStressor::new(7, 1.0);
        let sa: Vec<_> = (0..50).map(|_| a.queueing_delay()).collect();
        let sb: Vec<_> = (0..50).map(|_| b.queueing_delay()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = MemoryStressor::new(7, 1.0);
        let mut b = MemoryStressor::new(8, 1.0);
        let sa: Vec<_> = (0..50).map(|_| a.queueing_delay()).collect();
        let sb: Vec<_> = (0..50).map(|_| b.queueing_delay()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn heavy_tail_appears_over_many_samples() {
        let mut s = MemoryStressor::fully_loaded(3);
        let mut max = SimTime::ZERO;
        for _ in 0..20_000 {
            max = max.max(s.queueing_delay());
        }
        assert!(s.bursts() > 0, "expected at least one burst in 20k samples");
        assert!(
            max >= SimTime::from_us(1),
            "heavy tail should reach microseconds, got {max}"
        );
    }

    #[test]
    fn common_case_is_small() {
        let mut s = MemoryStressor::fully_loaded(3);
        let mut small = 0;
        let n = 10_000;
        for _ in 0..n {
            if s.queueing_delay() < SimTime::from_ns(100) {
                small += 1;
            }
        }
        assert!(
            small as f64 / n as f64 > 0.95,
            "common case should stay under 100ns"
        );
    }

    #[test]
    fn bandwidth_share_scales_with_intensity() {
        assert_eq!(MemoryStressor::new(0, 0.0).bandwidth_share(), 0.0);
        let full = MemoryStressor::fully_loaded(0).bandwidth_share();
        let half = MemoryStressor::new(0, 0.5).bandwidth_share();
        assert!(full > half && half > 0.0);
        assert!(full <= 0.95);
    }

    #[test]
    fn intensity_is_clamped() {
        let full = MemoryStressor::fully_loaded(0).bandwidth_share();
        assert_eq!(MemoryStressor::new(0, 9.0).bandwidth_share(), full);
        assert_eq!(MemoryStressor::new(0, -2.0).bandwidth_share(), 0.0);
    }
}
