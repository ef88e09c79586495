//! Simulated time.
//!
//! Time is kept as an integer number of **milliseconds** since the start of
//! the simulation. Integer time makes event ordering total and runs
//! reproducible; millisecond resolution is far below anything the paper's
//! schedulers can distinguish (Slurm scheduling rounds are tens of seconds)
//! while still resolving individual I/O-stream completions.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (milliseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (milliseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any reachable simulation time. Used as the horizon
    /// for "reserve until forever" bookkeeping.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX / 4);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds, saturating at the largest
    /// representable time.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1000))
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1000.0).round() as u64)
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole seconds, saturating at the longest
    /// representable duration.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1000))
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1000.0).round() as u64)
    }

    /// Whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when underflow is expected.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.3}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.3}s)", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(5).as_millis(), 5000);
        assert_eq!(SimTime::from_secs_f64(1.2345).as_millis(), 1235); // rounds
        assert_eq!(SimDuration::from_secs(600).as_secs_f64(), 600.0);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        let mut u = SimTime::ZERO;
        u += SimDuration::from_millis(1);
        assert_eq!(u.as_millis(), 1);
    }

    #[test]
    fn from_secs_saturates() {
        // 18_446_744_073_709_551 s is u64::MAX ms rounded down to whole
        // seconds; one second more no longer fits in milliseconds.
        let fits = 18_446_744_073_709_551u64;
        assert_eq!(SimTime::from_secs(fits).as_millis(), fits * 1000);
        assert_eq!(SimTime::from_secs(fits + 1).as_millis(), u64::MAX);
        assert_eq!(SimTime::from_secs(u64::MAX).as_millis(), u64::MAX);
        assert_eq!(SimDuration::from_secs(fits + 1).as_millis(), u64::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX).as_millis(), u64::MAX);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn far_future_is_stable_under_addition() {
        let t = SimTime::FAR_FUTURE + SimDuration::from_secs(1_000_000);
        assert!(t >= SimTime::FAR_FUTURE);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_secs(3).max(SimDuration::from_secs(2)),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}
