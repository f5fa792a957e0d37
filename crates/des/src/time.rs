//! Integer-nanosecond simulation time.
//!
//! All simulators in the workspace share a single clock type so that events
//! produced by different components (network flows, batch iterations, policy
//! ticks) are totally ordered without floating-point comparisons.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative duration on the simulation clock, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" horizon sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative and non-finite inputs clamp to zero: model code computes
    /// latencies from fitted constants and tiny negative values can appear
    /// from extrapolation; clamping keeps the clock monotone.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Scale this instant by a non-negative float factor, staying in the
    /// integer-nanosecond domain and rounding exactly once.
    ///
    /// This is the sanctioned way to scale a timestamp (e.g. trace time
    /// dilation): round-tripping through `as_secs_f64`/`from_secs_f64`
    /// rounds twice and loses low bits on large clocks, which breaks
    /// bit-identical replays. Negative and non-finite factors clamp to
    /// zero, matching `from_secs_f64`.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimTime {
        if !factor.is_finite() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((self.0 as f64 * factor).round().min(u64::MAX as f64) as u64)
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }
}

impl SimSpan {
    /// The zero-length span.
    pub const ZERO: SimSpan = SimSpan(0);
    /// The maximum representable span.
    pub const MAX: SimSpan = SimSpan(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimSpan(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimSpan(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimSpan(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimSpan(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (clamped to `[0, MAX]`).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimSpan::ZERO;
        }
        SimSpan((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition of two spans.
    #[inline]
    pub fn saturating_add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }

    /// Scale the span by a non-negative float factor, staying in the
    /// integer-nanosecond domain and rounding exactly once (see
    /// [`SimTime::mul_f64`]). Negative and non-finite factors clamp to
    /// zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimSpan {
        if !factor.is_finite() || factor <= 0.0 {
            return SimSpan::ZERO;
        }
        SimSpan((self.0 as f64 * factor).round().min(u64::MAX as f64) as u64)
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimSpan> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    /// Panics in debug builds if `rhs` is after `self`; saturates in release.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimSpan {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction went negative");
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimSpan {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimSpan {
        debug_assert!(rhs.0 <= self.0, "SimSpan subtraction went negative");
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimSpan {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSpan) {
        debug_assert!(rhs.0 <= self.0, "SimSpan subtraction went negative");
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimSpan::from_secs(1), SimSpan::from_millis(1000));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_rounds_once_in_the_nanos_domain() {
        // 1_000_000_013 × 1.5 = 1_500_000_019.5 exactly (both factors
        // representable); rounding half away from zero gives …020. The
        // f64-seconds round-trip this helper replaces rounds three times
        // and lands on …019 — the 1 ns drift that breaks bit-identity.
        let t = SimTime::from_nanos(1_000_000_013);
        assert_eq!(t.mul_f64(1.5).as_nanos(), 1_500_000_020);
        let via_secs = SimTime::from_secs_f64(t.as_secs_f64() * 1.5);
        assert_eq!(via_secs.as_nanos(), 1_500_000_019);
        let s = SimSpan::from_nanos(1_000_000_013);
        assert_eq!(s.mul_f64(1.5).as_nanos(), 1_500_000_020);
    }

    #[test]
    fn mul_f64_identity_and_clamps() {
        // Below 2^53 the ns count is exactly representable, so scaling
        // by 1.0 is the identity.
        let t = SimTime::from_nanos(8_123_456_789_012_345);
        assert_eq!(t.mul_f64(1.0), t);
        assert_eq!(t.mul_f64(0.0), SimTime::ZERO);
        assert_eq!(t.mul_f64(-2.0), SimTime::ZERO);
        assert_eq!(t.mul_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimSpan::from_secs(4).mul_f64(0.25), SimSpan::from_secs(1));
        assert_eq!(SimSpan::MAX.mul_f64(f64::INFINITY), SimSpan::ZERO);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimSpan::from_secs_f64(-0.5), SimSpan::ZERO);
        assert_eq!(
            SimSpan::from_secs_f64(f64::INFINITY),
            SimSpan::ZERO.saturating_add(SimSpan::ZERO)
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimSpan::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        let d = t - SimTime::from_secs(1);
        assert_eq!(d, SimSpan::from_millis(500));
        assert_eq!(SimSpan::from_secs(4) / 2, SimSpan::from_secs(2));
        assert_eq!(SimSpan::from_secs(2) * 3, SimSpan::from_secs(6));
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimSpan::from_secs(1));
        assert_eq!(a.saturating_since(b), SimSpan::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(10),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(10),
                SimTime::from_secs(3)
            ]
        );
    }
}
