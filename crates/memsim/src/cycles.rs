//! CPU-cycle accounting and the Polling-vs-WFE wait model.
//!
//! The paper's §VII-D measures the CPU cycle counters over a full benchmark run
//! (10,000 warm-up + 1,000,000 measured iterations) and shows that inserting the Arm
//! `WFE` instruction into the mailbox wait loop cuts the cycles spent spin-waiting by
//! 2.5×–3.8× while leaving latency essentially unchanged (≤ 1.5 % penalty at the
//! smallest payload).
//!
//! The model here is deliberately simple and matches how the hardware behaves:
//!
//! * **Polling** — the core executes the spin loop for the entire wait duration, so
//!   it retires `wait_time × core_frequency` cycles.
//! * **WFE** — the core executes a handful of loop iterations, arms the event monitor
//!   (`LDXR`/`WFE`), and sleeps. Waking costs a small fixed latency (the event
//!   signal propagating through the interconnect plus pipeline restart) and a small
//!   fixed number of cycles. During the sleep the core retires (almost) nothing.
//!
//! The poll interval, the WFE wake latency and cycle costs and the core clock are
//! rows of [`crate::cost`] ([`POLL_INTERVAL`], [`WFE_WAKE_LATENCY`],
//! [`WFE_OVERHEAD_CYCLES`], [`WFE_RECHECK_CYCLES`], [`CORE_FREQ_GHZ`]).

use crate::clock::SimTime;
use crate::cost::{
    CORE_FREQ_GHZ, POLL_INTERVAL, WFE_OVERHEAD_CYCLES, WFE_RECHECK_CYCLES, WFE_WAKE_LATENCY,
};

/// How the receiver waits for the mailbox signal word to change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitMode {
    /// Busy-wait: spin on an acquire load of the signal word.
    Polling,
    /// Spin briefly, then use the Arm Wait-For-Event mechanism (`SEVL`/`WFE` +
    /// exclusive monitor on the signal cache line).
    Wfe,
}

impl WaitMode {
    /// All wait modes, in the order the paper discusses them.
    pub const ALL: [WaitMode; 2] = [WaitMode::Polling, WaitMode::Wfe];

    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            WaitMode::Polling => "Polling",
            WaitMode::Wfe => "WFE",
        }
    }
}

/// Result of waiting for an event: how long it took (added to the latency critical
/// path) and how many core cycles were burned doing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitOutcome {
    /// Wall-clock (virtual) time from "start waiting" to "handler can run".
    pub elapsed: SimTime,
    /// Core cycles retired by the waiting core during that time.
    pub cycles: u64,
}

/// Compute the outcome of waiting `wait` for a signal, under `mode`.
pub fn wait(mode: WaitMode, wait: SimTime) -> WaitOutcome {
    match mode {
        WaitMode::Polling => {
            // Round the observation up to the next poll boundary.
            let interval = POLL_INTERVAL.as_ps().max(1);
            let polls = wait.as_ps().div_ceil(interval);
            let elapsed = SimTime::from_ps(polls.max(1) * interval);
            let cycles = elapsed.to_cycles(CORE_FREQ_GHZ);
            WaitOutcome { elapsed, cycles }
        }
        WaitMode::Wfe => {
            // The core spins for up to one poll interval before arming WFE (this
            // catches already-arrived messages with zero extra latency), then
            // sleeps until the event fires.
            if wait <= POLL_INTERVAL {
                let elapsed = POLL_INTERVAL;
                let cycles = elapsed.to_cycles(CORE_FREQ_GHZ);
                return WaitOutcome { elapsed, cycles };
            }
            let elapsed = wait + WFE_WAKE_LATENCY;
            let cycles =
                POLL_INTERVAL.to_cycles(CORE_FREQ_GHZ) + WFE_OVERHEAD_CYCLES + WFE_RECHECK_CYCLES;
            WaitOutcome { elapsed, cycles }
        }
    }
}

/// A per-core cycle counter, mirroring the PMU counter the paper reads over the full
/// benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounter {
    total: u64,
    /// Cycles attributable to waiting for message arrival (the component WFE shrinks).
    waiting: u64,
    /// Cycles attributable to executing handlers / benchmark work.
    working: u64,
}

impl CycleCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add cycles spent waiting for a message.
    pub fn add_wait(&mut self, cycles: u64) {
        self.waiting += cycles;
        self.total += cycles;
    }

    /// Add cycles spent doing useful work (packing, executing, replying).
    pub fn add_work(&mut self, cycles: u64) {
        self.working += cycles;
        self.total += cycles;
    }

    /// Add the cycles a span of busy time retires at [`CORE_FREQ_GHZ`].
    pub fn add_work_time(&mut self, t: SimTime) {
        self.add_work(t.to_cycles(CORE_FREQ_GHZ));
    }

    /// Total cycles retired.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cycles spent waiting.
    pub fn waiting(&self) -> u64 {
        self.waiting
    }

    /// Cycles spent working.
    pub fn working(&self) -> u64 {
        self.working
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &CycleCounter) {
        self.total += other.total;
        self.waiting += other.waiting;
        self.working += other.working;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polling_burns_cycles_proportional_to_wait() {
        let short = wait(WaitMode::Polling, SimTime::from_ns(100));
        let long = wait(WaitMode::Polling, SimTime::from_us(10));
        assert!(long.cycles > short.cycles * 50);
        // 10us at 2.6GHz = 26000 cycles
        assert!(long.cycles >= 26_000 && long.cycles <= 27_000);
    }

    #[test]
    fn wfe_burns_roughly_constant_cycles() {
        let short = wait(WaitMode::Wfe, SimTime::from_ns(500));
        let long = wait(WaitMode::Wfe, SimTime::from_us(100));
        assert_eq!(
            short.cycles, long.cycles,
            "WFE cycle cost should not grow with wait time"
        );
        assert!(long.cycles < 200);
    }

    #[test]
    fn wfe_latency_penalty_is_small() {
        let dt = SimTime::from_us(1);
        let poll = wait(WaitMode::Polling, dt);
        let wfe = wait(WaitMode::Wfe, dt);
        assert!(wfe.elapsed > poll.elapsed, "WFE pays a wake-up penalty");
        let penalty = (wfe.elapsed.as_ns() - poll.elapsed.as_ns()) / poll.elapsed.as_ns();
        assert!(penalty < 0.02, "penalty should be under 2%, got {penalty}");
    }

    #[test]
    fn wfe_cycle_savings_match_paper_magnitude() {
        // For a ~1.5us one-way latency ping-pong, most of the receiver's time is
        // waiting; the paper reports 2.5x-3.8x total-cycle reduction. Check the wait
        // component alone gives a large factor.
        let dt = SimTime::from_us_f64(1.5);
        let poll = wait(WaitMode::Polling, dt);
        let wfe = wait(WaitMode::Wfe, dt);
        let factor = poll.cycles as f64 / wfe.cycles as f64;
        assert!(
            factor > 10.0,
            "wait-cycle reduction should be large, got {factor}"
        );
    }

    #[test]
    fn immediate_arrival_is_cheap_for_both() {
        let p = wait(WaitMode::Polling, SimTime::ZERO);
        let w = wait(WaitMode::Wfe, SimTime::ZERO);
        assert!(p.elapsed <= POLL_INTERVAL);
        assert!(w.elapsed <= POLL_INTERVAL);
        assert!(w.cycles <= p.cycles + WFE_OVERHEAD_CYCLES);
    }

    #[test]
    fn cycle_counter_partitions() {
        let mut c = CycleCounter::new();
        c.add_wait(100);
        c.add_work(40);
        c.add_work_time(SimTime::from_ns(10));
        let busy = SimTime::from_ns(10).to_cycles(CORE_FREQ_GHZ);
        assert_eq!(c.waiting(), 100);
        assert_eq!(c.working(), 40 + busy);
        assert_eq!(c.total(), 140 + busy);
        let mut d = CycleCounter::new();
        d.add_wait(1);
        d.merge(&c);
        assert_eq!(d.total(), 141 + busy);
    }

    #[test]
    fn wait_mode_labels() {
        assert_eq!(WaitMode::Polling.label(), "Polling");
        assert_eq!(WaitMode::Wfe.label(), "WFE");
        assert_eq!(WaitMode::ALL.len(), 2);
    }
}
