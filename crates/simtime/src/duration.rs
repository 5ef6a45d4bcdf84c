//! [`Dur`]: a span of simulated time, in integer nanoseconds.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A span of simulated time, stored as integer nanoseconds.
///
/// `Dur` is ordered, hashable and exact. Arithmetic panics on overflow in
/// debug builds and wraps in release like native integers would — but every
/// quantity in this workspace stays far below `u64::MAX` ns (≈ 584 years),
/// so in practice overflow indicates a logic bug. Use the `checked_*`
/// variants at trust boundaries (e.g. when computing LCMs of user-supplied
/// iteration times).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Dur {
    /// The zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// One nanosecond.
    pub const NANOSECOND: Dur = Dur(1);
    /// One microsecond.
    pub const MICROSECOND: Dur = Dur(1_000);
    /// One millisecond.
    pub const MILLISECOND: Dur = Dur(1_000_000);
    /// One second.
    pub const SECOND: Dur = Dur(1_000_000_000);
    /// The longest representable span.
    pub const MAX: Dur = Dur(u64::MAX);

    /// A span of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// A span of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// A span of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// A span of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// A span from fractional seconds, rounded to the nearest nanosecond.
    ///
    /// # Panics
    /// Panics if `s` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(
            s >= 0.0 && s.is_finite(),
            "Dur::from_secs_f64: invalid seconds {s}"
        );
        let ns = s * 1e9;
        assert!(
            ns <= u64::MAX as f64,
            "Dur::from_secs_f64: overflow ({s} s)"
        );
        Dur(ns.round() as u64)
    }

    /// A span from fractional milliseconds, rounded to the nearest nanosecond.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Dur {
        Dur::from_secs_f64(ms / 1e3)
    }

    /// The span as integer nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as integer microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span as integer milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Dur) -> Option<Dur> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Dur(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[inline]
    pub const fn checked_sub(self, rhs: Dur) -> Option<Dur> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Dur(v)),
            None => None,
        }
    }

    /// Checked multiplication by a scalar; `None` on overflow.
    #[inline]
    pub const fn checked_mul(self, k: u64) -> Option<Dur> {
        match self.0.checked_mul(k) {
            Some(v) => Some(Dur(v)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (clamps at [`Dur::MAX`]).
    #[inline]
    pub const fn saturating_add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Multiply by a non-negative float, rounding to the nearest nanosecond.
    ///
    /// Useful for "80 % of an iteration" style computations where exactness
    /// is not required.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Dur {
        assert!(
            k >= 0.0 && k.is_finite(),
            "Dur::mul_f64: invalid factor {k}"
        );
        Dur((self.0 as f64 * k).round() as u64)
    }

    /// The ratio `self / other` as a float.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[inline]
    pub fn ratio(self, other: Dur) -> f64 {
        assert!(!other.is_zero(), "Dur::ratio: division by zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}

impl Mul<Dur> for u64 {
    type Output = Dur;
    #[inline]
    fn mul(self, d: Dur) -> Dur {
        Dur(self * d.0)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

/// Integer division of one span by another: "how many whole `rhs` fit in
/// `self`".
impl Div<Dur> for Dur {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Dur) -> u64 {
        self.0 / rhs.0
    }
}

/// Remainder of one span modulo another — the workhorse of the paper's
/// "roll time around a circle" abstraction: `t % perimeter` is the position
/// of instant offset `t` on the circle.
impl Rem<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn rem(self, rhs: Dur) -> Dur {
        Dur(self.0 % rhs.0)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, Add::add)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Dur {
    /// Formats with the most natural unit: `250ns`, `125µs`, `297ms`,
    /// `1.301s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            format_scaled(f, ns, 1_000, "µs")
        } else if ns < 1_000_000_000 {
            format_scaled(f, ns, 1_000_000, "ms")
        } else {
            format_scaled(f, ns, 1_000_000_000, "s")
        }
    }
}

fn format_scaled(f: &mut fmt::Formatter<'_>, ns: u64, unit: u64, suffix: &str) -> fmt::Result {
    let whole = ns / unit;
    let frac = ns % unit;
    if frac == 0 {
        write!(f, "{whole}{suffix}")
    } else {
        let v = ns as f64 / unit as f64;
        write!(f, "{v:.3}{suffix}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Dur::from_micros(125), Dur::from_nanos(125_000));
        assert_eq!(Dur::from_millis(297), Dur::from_nanos(297_000_000));
        assert_eq!(Dur::from_secs(2), Dur::from_millis(2_000));
        assert_eq!(Dur::from_secs_f64(0.000_125), Dur::from_micros(125));
        assert_eq!(Dur::from_millis_f64(1.5), Dur::from_micros(1_500));
    }

    #[test]
    fn arithmetic_basics() {
        let a = Dur::from_millis(40);
        let b = Dur::from_millis(60);
        assert_eq!(a + b, Dur::from_millis(100));
        assert_eq!(b - a, Dur::from_millis(20));
        assert_eq!(a * 3, Dur::from_millis(120));
        assert_eq!(b / 2, Dur::from_millis(30));
        assert_eq!(Dur::from_millis(120) / a, 3);
        assert_eq!(Dur::from_millis(130) % b, Dur::from_millis(10));
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(Dur::ZERO.saturating_sub(Dur::SECOND), Dur::ZERO);
        assert_eq!(Dur::MAX.saturating_add(Dur::SECOND), Dur::MAX);
        assert_eq!(Dur::MAX.checked_add(Dur::NANOSECOND), None);
        assert_eq!(Dur::SECOND.checked_sub(Dur::MILLISECOND * 1001), None);
        assert_eq!(Dur::MAX.checked_mul(2), None);
        assert_eq!(Dur::SECOND.checked_mul(3), Some(Dur::from_secs(3)));
    }

    #[test]
    fn ratio_and_mul_f64() {
        assert_eq!(
            Dur::from_millis(141).ratio(Dur::from_millis(255)),
            141.0 / 255.0
        );
        assert_eq!(Dur::from_millis(100).mul_f64(0.5), Dur::from_millis(50));
        assert_eq!(Dur::from_nanos(3).mul_f64(0.5), Dur::from_nanos(2)); // rounds
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn ratio_zero_panics() {
        let _ = Dur::SECOND.ratio(Dur::ZERO);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Dur::ZERO.to_string(), "0s");
        assert_eq!(Dur::from_nanos(250).to_string(), "250ns");
        assert_eq!(Dur::from_micros(125).to_string(), "125µs");
        assert_eq!(Dur::from_millis(297).to_string(), "297ms");
        assert_eq!(Dur::from_millis(1301).to_string(), "1.301s");
    }

    proptest! {
        #[test]
        fn add_sub_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (a, b) = (Dur::from_nanos(a), Dur::from_nanos(b));
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn div_rem_decompose(a in 0u64..u64::MAX, b in 1u64..u64::MAX) {
            let (a, b) = (Dur::from_nanos(a), Dur::from_nanos(b));
            let q = a / b;
            let r = a % b;
            prop_assert!(r < b);
            prop_assert_eq!(b * q + r, a);
        }

        #[test]
        fn secs_f64_roundtrip_close(ns in 0u64..1_000_000_000_000u64) {
            let d = Dur::from_nanos(ns);
            let back = Dur::from_secs_f64(d.as_secs_f64());
            // f64 has 52 mantissa bits; within 1µs over this range is ample.
            let diff = back.as_nanos().abs_diff(d.as_nanos());
            prop_assert!(diff < 1_000, "diff {diff}ns");
        }
    }
}
