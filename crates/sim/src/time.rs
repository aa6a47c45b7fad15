//! Virtual time: instants and durations at microsecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time, counted in microseconds since the start of the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (time zero).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant `ms` milliseconds after the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant `s` seconds after the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference: `None` if `earlier` is after `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Remainder of this duration modulo `period`.
    ///
    /// Used by the staleness estimator: `t_l = (t_L + t_z) mod T_L`
    /// (paper §5.4.1).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn modulo(self, period: SimDuration) -> SimDuration {
        assert!(!period.is_zero(), "modulo by zero duration");
        SimDuration(self.0 % period.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
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
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_micros(2_000_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(
            SimDuration::from_secs(1),
            SimDuration::from_micros(1_000_000)
        );
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(
            SimDuration::from_secs_f64(0.0000015),
            SimDuration::from_micros(2)
        );
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(
            t.saturating_since(SimTime::from_millis(12)),
            SimDuration::from_millis(3)
        );
        assert_eq!(
            SimTime::from_millis(1).saturating_since(SimTime::from_millis(2)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::from_millis(1).checked_since(SimTime::from_millis(2)),
            None
        );
    }

    #[test]
    fn duration_rem() {
        let tl = SimDuration::from_secs(7).modulo(SimDuration::from_secs(4));
        assert_eq!(tl, SimDuration::from_secs(3));
        assert_eq!(
            SimDuration::from_secs(4).modulo(SimDuration::from_secs(4)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "modulo by zero")]
    fn rem_zero_panics() {
        let _ = SimDuration::from_secs(1).modulo(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimDuration::from_micros(1) - SimDuration::from_micros(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    proptest! {
        #[test]
        fn add_then_since_roundtrip(start in 0u64..1_000_000_000, d in 0u64..1_000_000_000) {
            let t0 = SimTime::from_micros(start);
            let dur = SimDuration::from_micros(d);
            prop_assert_eq!((t0 + dur).saturating_since(t0), dur);
        }

        #[test]
        fn rem_bounded(a in 0u64..u64::MAX / 2, p in 1u64..1_000_000_000) {
            let r = SimDuration::from_micros(a).modulo(SimDuration::from_micros(p));
            prop_assert!(r.as_micros() < p);
        }
    }
}
