//! [`Time`]: an absolute instant on the simulation clock.

use crate::Dur;
use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `Time` and [`Dur`] are distinct types on purpose: `Time + Time` does not
/// compile, `Time - Time = Dur`, and `Time ± Dur = Time`. This catches an
/// entire class of off-by-an-epoch bugs at compile time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as "never" sentinel).
    pub const MAX: Time = Time(u64::MAX);

    /// The instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// The instant as nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The instant as fractional seconds since simulation start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The instant as fractional milliseconds since simulation start.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span since simulation start (i.e. `self - Time::ZERO`).
    #[inline]
    pub const fn elapsed(self) -> Dur {
        Dur::from_nanos(self.0)
    }

    /// The span from `earlier` to `self`, clamped at zero if `earlier` is
    /// actually later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked advance; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, d: Dur) -> Option<Time> {
        match self.0.checked_add(d.as_nanos()) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Position of this instant on a circle of the given perimeter — the
    /// paper's "roll time around a circle" primitive.
    ///
    /// # Panics
    /// Panics if `perimeter` is zero.
    #[inline]
    pub fn on_circle(self, perimeter: Dur) -> Dur {
        assert!(!perimeter.is_zero(), "Time::on_circle: zero perimeter");
        Dur::from_nanos(self.0 % perimeter.as_nanos())
    }

    /// The smaller of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, d: Dur) -> Time {
        Time(self.0 + d.as_nanos())
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.as_nanos();
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, d: Dur) -> Time {
        Time(self.0 - d.as_nanos())
    }
}

impl SubAssign<Dur> for Time {
    #[inline]
    fn sub_assign(&mut self, d: Dur) {
        self.0 -= d.as_nanos();
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Dur::from_nanos(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Dur::from_nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_dur_algebra() {
        let t0 = Time::from_nanos(1_000);
        let t1 = t0 + Dur::from_nanos(500);
        assert_eq!(t1.as_nanos(), 1_500);
        assert_eq!(t1 - t0, Dur::from_nanos(500));
        assert_eq!(t1 - Dur::from_nanos(1_500), Time::ZERO);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = Time::from_nanos(100);
        let late = Time::from_nanos(300);
        assert_eq!(late.saturating_since(early), Dur::from_nanos(200));
        assert_eq!(early.saturating_since(late), Dur::ZERO);
    }

    #[test]
    fn on_circle_wraps() {
        let perimeter = Dur::from_millis(255);
        // Instant at 3 iterations + 17 ms lands at 17 ms on the circle.
        let t = Time::ZERO + perimeter * 3 + Dur::from_millis(17);
        assert_eq!(t.on_circle(perimeter), Dur::from_millis(17));
        assert_eq!(Time::ZERO.on_circle(perimeter), Dur::ZERO);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_nanos(5);
        let b = Time::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Time::MAX.checked_add(Dur::NANOSECOND), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_nanos(125_000).to_string(), "125µs");
        assert_eq!(format!("{:?}", Time::from_nanos(125_000)), "t=125µs");
    }
}
