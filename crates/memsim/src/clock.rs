//! Virtual time base.
//!
//! All latencies in the simulator are expressed as [`SimTime`], a picosecond-granular
//! fixed-point duration/instant type. Picoseconds are used instead of nanoseconds so
//! that per-instruction costs (a 2.6 GHz core retires one cycle every ~384 ps) do not
//! collapse to zero, and instead of floating point so that simulations stay exactly
//! deterministic and additive regardless of accumulation order.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// A duration or instant in simulated time, stored as integer picoseconds.
///
/// `SimTime` is used both as a point on the virtual timeline (an *instant*) and as a
/// span between two points (a *duration*); the arithmetic is identical and the
/// distinction is kept by convention at the call sites.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant / empty duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from integer nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Construct from fractional nanoseconds (rounded to the nearest picosecond).
    pub fn from_ns_f64(ns: f64) -> Self {
        SimTime((ns * PS_PER_NS as f64).round().max(0.0) as u64)
    }

    /// Construct from integer microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Construct from fractional microseconds.
    pub fn from_us_f64(us: f64) -> Self {
        Self::from_ns_f64(us * 1_000.0)
    }

    /// Construct from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (fractional).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Value in microseconds (fractional).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Value in seconds (fractional).
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this is the zero time.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Convert a number of clock cycles at `freq_ghz` into simulated time.
    pub fn from_cycles(cycles: u64, freq_ghz: f64) -> SimTime {
        // One cycle at f GHz lasts 1000/f picoseconds.
        SimTime(((cycles as f64) * (1_000.0 / freq_ghz)).round() as u64)
    }

    /// Convert this duration into a number of clock cycles at `freq_ghz` (rounded up,
    /// so that any non-zero wait costs at least one cycle).
    pub fn to_cycles(self, freq_ghz: f64) -> u64 {
        if self.0 == 0 {
            return 0;
        }
        let ps_per_cycle = 1_000.0 / freq_ghz;
        ((self.0 as f64) / ps_per_cycle).ceil() as u64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us())
        } else if self.0 >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(((self.0 as f64) * rhs).round().max(0.0) as u64)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_ns(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_us(3).as_ps(), 3_000_000);
        assert!((SimTime::from_ns(1500).as_us() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_ns_f64(0.5).as_ns() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ns(), 14.0);
        assert_eq!((a - b).as_ns(), 6.0);
        assert_eq!((a * 3).as_ns(), 30.0);
        assert_eq!((a / 2).as_ns(), 5.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn cycle_conversion_at_core_clock() {
        // 2.6 GHz -> ~384.6 ps per cycle.
        let one_cycle = SimTime::from_cycles(1, 2.6);
        assert!(one_cycle.as_ps() >= 384 && one_cycle.as_ps() <= 385);
        // A microsecond is 2600 cycles at 2.6 GHz.
        let us = SimTime::from_us(1);
        assert_eq!(us.to_cycles(2.6), 2600);
        // Round trip through many cycles stays consistent.
        let t = SimTime::from_cycles(1_000_000, 2.6);
        let cycles = t.to_cycles(2.6);
        assert!((cycles as i64 - 1_000_000i64).abs() <= 1);
    }

    #[test]
    fn any_nonzero_wait_costs_a_cycle() {
        assert_eq!(SimTime::from_ps(1).to_cycles(2.6), 1);
        assert_eq!(SimTime::ZERO.to_cycles(2.6), 0);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total.as_ns(), 10.0);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", SimTime::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12.000ns");
        assert_eq!(format!("{}", SimTime::from_us(2)), "2.000us");
    }
}
