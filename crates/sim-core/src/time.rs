//! Simulation time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! All simulation time is kept in integer nanoseconds so that event ordering
//! is exact and runs are bit-for-bit reproducible. The paper's timescales
//! span five orders of magnitude — microsecond C-state transitions, 5 µs
//! context switches, millisecond idle quanta, 100 ms scheduler timeslices,
//! and 300 s experiments — all of which fit comfortably in a `u64`
//! nanosecond counter (u64 holds ~584 years).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is an instant; spans between instants are [`SimDuration`]s.
/// The two are distinct types so that, e.g., a quantum length can never be
/// accidentally used as a deadline.
///
/// # Examples
///
/// ```
/// use dimetrodon_sim_core::{SimTime, SimDuration};
///
/// let start = SimTime::ZERO;
/// let deadline = start + SimDuration::from_millis(100);
/// assert_eq!(deadline - start, SimDuration::from_millis(100));
/// assert_eq!(deadline.as_secs_f64(), 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use dimetrodon_sim_core::SimDuration;
///
/// let quantum = SimDuration::from_millis(100);
/// assert_eq!(quantum * 3, SimDuration::from_millis(300));
/// assert_eq!(quantum.as_micros(), 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Instants and spans are saved as their nanosecond counts.
macro_rules! nanos_state {
    ($($ty:ident),*) => {$(
        impl dimetrodon_ckpt::State for $ty {
            const SCHEMA: u64 = dimetrodon_ckpt::fnv1a64(stringify!($ty).as_bytes());
            fn save(&self, enc: &mut dimetrodon_ckpt::Enc) {
                enc.u64(self.0);
            }
            fn load(
                &mut self,
                dec: &mut dimetrodon_ckpt::Dec<'_>,
            ) -> Result<(), dimetrodon_ckpt::CkptError> {
                self.0 = dec.u64()?;
                Ok(())
            }
        }
    )*};
}

nanos_state!(SimTime, SimDuration);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since the simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since the simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since the simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds since the simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation start, as a float (lossy for display
    /// and plotting; exact ordering should use the integer value).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite() && s * 1e9 <= u64::MAX as f64,
            "duration out of range: {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Creates a span from fractional milliseconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative, NaN, or too large to represent.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Subtraction that stops at zero rather than panicking.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the span by a non-negative factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, NaN, or scales the span out of range.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        let ns = self.0 as f64 * factor;
        assert!(
            factor >= 0.0 && ns.is_finite() && ns <= u64::MAX as f64,
            "duration scale out of range: {factor}"
        );
        SimDuration(ns.round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The span between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is uncertain.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; saturating_since is the non-panicking alternative"
    )]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "rewinding time before the epoch is a logic error worth a loud stop"
    )]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime - SimDuration underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on underflow; use [`SimDuration::saturating_sub`] when the
    /// ordering is uncertain.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; saturating_sub is the non-panicking alternative"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(250);
        let d = SimDuration::from_millis(100);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(10));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.1), SimDuration::from_millis(100));
        assert_eq!(SimDuration::from_millis_f64(1.5), SimDuration::from_micros(1500));
        assert!((SimDuration::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(0.25), SimDuration::from_nanos(3)); // 2.5 rounds to 3
        assert_eq!(d.mul_f64(2.0), SimDuration::from_nanos(20));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_nanos(7)),
            Some(SimTime::from_nanos(7))
        );
    }
}
