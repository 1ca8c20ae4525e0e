//! Virtual time: nanosecond instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation's virtual clock, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds since the epoch, fractional.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time elapsed since `earlier`; saturates at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional microseconds (rounds to ns).
    pub fn from_micros_f64(us: f64) -> Self {
        SimDuration((us * 1_000.0).round().max(0.0) as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds, fractional.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}µs", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}µs", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}µs", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}µs", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        assert_eq!((t - SimTime::from_micros(5)).as_micros(), 10);
        assert_eq!((SimDuration::from_micros(4) * 3).as_micros(), 12);
        assert_eq!((SimDuration::from_micros(9) / 3).as_micros(), 3);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_micros(), 1);
        assert_eq!(
            SimDuration::from_micros(1).saturating_sub(SimDuration::from_micros(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_in_microseconds() {
        assert_eq!(format!("{}", SimTime::from_nanos(1500)), "1.500µs");
        assert_eq!(format!("{}", SimDuration::from_micros(20)), "20.000µs");
    }
}
