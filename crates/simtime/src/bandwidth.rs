//! [`Bandwidth`] (bits per second) and [`ByteSize`] (bytes), with the
//! conversions a flow-level simulator needs.

use crate::Dur;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A data rate in bits per second.
///
/// Stored as integer bits/s so that common cluster rates (10/25/50/100/400
/// Gbps) are exact. Fractional rates from congestion-control math should be
/// carried as `f64` and converted at the edges via [`Bandwidth::from_bps_f64`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// A rate of `bps` bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Bandwidth {
        Bandwidth(bps)
    }

    /// A rate of `mbps` megabits per second (10^6 bits/s).
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Bandwidth {
        Bandwidth(mbps * 1_000_000)
    }

    /// A rate of `gbps` gigabits per second (10^9 bits/s).
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Bandwidth {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// A rate from fractional bits per second, rounded to the nearest bit/s.
    ///
    /// # Panics
    /// Panics if `bps` is negative, NaN or too large.
    #[inline]
    pub fn from_bps_f64(bps: f64) -> Bandwidth {
        assert!(
            bps >= 0.0 && bps.is_finite() && bps <= u64::MAX as f64,
            "Bandwidth::from_bps_f64: invalid rate {bps}"
        );
        Bandwidth(bps.round() as u64)
    }

    /// A rate from fractional gigabits per second.
    #[inline]
    pub fn from_gbps_f64(gbps: f64) -> Bandwidth {
        Bandwidth::from_bps_f64(gbps * 1e9)
    }

    /// The rate in bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The rate in fractional gigabits per second.
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The rate in fractional bits per second.
    #[inline]
    pub fn as_bps_f64(self) -> f64 {
        self.0 as f64
    }

    /// `true` if the rate is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time needed to move `size` at this rate, rounded **up** to the
    /// next nanosecond (a transfer is only done once the last bit is out).
    ///
    /// # Panics
    /// Panics if the rate is zero and `size` is non-zero.
    #[inline]
    pub fn time_to_send(self, size: ByteSize) -> Dur {
        if size.as_bytes() == 0 {
            return Dur::ZERO;
        }
        assert!(!self.is_zero(), "Bandwidth::time_to_send: zero rate");
        let bits = size.as_bytes() as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        debug_assert!(ns <= u64::MAX as u128, "transfer time overflows u64 ns");
        Dur::from_nanos(ns as u64)
    }

    /// Bytes moved in `dt` at this rate (truncating to whole bytes).
    #[inline]
    pub fn bytes_in(self, dt: Dur) -> ByteSize {
        let bits = self.0 as u128 * dt.as_nanos() as u128 / 1_000_000_000;
        ByteSize::from_bytes((bits / 8) as u64)
    }

    /// This rate scaled by a non-negative factor.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Bandwidth {
        assert!(k >= 0.0 && k.is_finite(), "Bandwidth::mul_f64: invalid {k}");
        Bandwidth::from_bps_f64(self.0 as f64 * k)
    }

    /// The fraction `self / total` in `[0, ∞)`.
    ///
    /// # Panics
    /// Panics if `total` is zero.
    #[inline]
    pub fn fraction_of(self, total: Bandwidth) -> f64 {
        assert!(!total.is_zero(), "Bandwidth::fraction_of: zero total");
        self.0 as f64 / total.0 as f64
    }

    /// The smaller of two rates.
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rates.
    #[inline]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    #[inline]
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl SubAssign for Bandwidth {
    #[inline]
    fn sub_assign(&mut self, rhs: Bandwidth) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn mul(self, k: u64) -> Bandwidth {
        Bandwidth(self.0 * k)
    }
}

impl Div<u64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn div(self, k: u64) -> Bandwidth {
        Bandwidth(self.0 / k)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", bps as f64 / 1e9)
        } else if bps >= 1_000_000 {
            write!(f, "{:.2}Mbps", bps as f64 / 1e6)
        } else if bps >= 1_000 {
            write!(f, "{:.2}Kbps", bps as f64 / 1e3)
        } else {
            write!(f, "{bps}bps")
        }
    }
}

/// A number of bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// `b` bytes.
    #[inline]
    pub const fn from_bytes(b: u64) -> ByteSize {
        ByteSize(b)
    }

    /// `kb` kilobytes (10^3 bytes).
    #[inline]
    pub const fn from_kb(kb: u64) -> ByteSize {
        ByteSize(kb * 1_000)
    }

    /// `mb` megabytes (10^6 bytes).
    #[inline]
    pub const fn from_mb(mb: u64) -> ByteSize {
        ByteSize(mb * 1_000_000)
    }

    /// `gb` gigabytes (10^9 bytes).
    #[inline]
    pub const fn from_gb(gb: u64) -> ByteSize {
        ByteSize(gb * 1_000_000_000)
    }

    /// The size in bytes.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// The size in bits.
    #[inline]
    pub const fn as_bits(self) -> u64 {
        self.0 * 8
    }

    /// The size in fractional megabytes.
    #[inline]
    pub fn as_mb_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, other: ByteSize) -> ByteSize {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// This size scaled by a non-negative factor, rounded to whole bytes.
    #[inline]
    pub fn mul_f64(self, k: f64) -> ByteSize {
        assert!(k >= 0.0 && k.is_finite(), "ByteSize::mul_f64: invalid {k}");
        ByteSize((self.0 as f64 * k).round() as u64)
    }

    /// The minimum constant rate that moves this size within `dt`.
    ///
    /// # Panics
    /// Panics if `dt` is zero.
    #[inline]
    pub fn rate_over(self, dt: Dur) -> Bandwidth {
        assert!(!dt.is_zero(), "ByteSize::rate_over: zero duration");
        let bps = self.0 as u128 * 8 * 1_000_000_000 / dt.as_nanos() as u128;
        debug_assert!(bps <= u64::MAX as u128);
        Bandwidth::from_bps(bps as u64)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    #[inline]
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, k: u64) -> ByteSize {
        ByteSize(self.0 * k)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn div(self, k: u64) -> ByteSize {
        ByteSize(self.0 / k)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1_000_000_000 {
            write!(f, "{:.2}GB", b as f64 / 1e9)
        } else if b >= 1_000_000 {
            write!(f, "{:.2}MB", b as f64 / 1e6)
        } else if b >= 1_000 {
            write!(f, "{:.2}KB", b as f64 / 1e3)
        } else {
            write!(f, "{b}B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rate_constructors() {
        assert_eq!(Bandwidth::from_gbps(50).as_bps(), 50_000_000_000);
        assert_eq!(Bandwidth::from_mbps(1_000), Bandwidth::from_gbps(1));
        assert_eq!(Bandwidth::from_gbps_f64(0.5), Bandwidth::from_mbps(500));
    }

    #[test]
    fn time_to_send_exact() {
        // 712 MB at 50 Gbps = 712e6 * 8 / 50e9 s = 113.92 ms.
        let t = Bandwidth::from_gbps(50).time_to_send(ByteSize::from_mb(712));
        assert_eq!(t, Dur::from_micros(113_920));
    }

    #[test]
    fn time_to_send_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s → rounds up to the next ns.
        let t = Bandwidth::from_bps(3).time_to_send(ByteSize::from_bytes(1));
        assert_eq!(t.as_nanos(), 2_666_666_667);
        // Zero bytes is instant even at zero rate.
        assert_eq!(Bandwidth::ZERO.time_to_send(ByteSize::ZERO), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero rate")]
    fn time_to_send_zero_rate_panics() {
        let _ = Bandwidth::ZERO.time_to_send(ByteSize::from_bytes(1));
    }

    #[test]
    fn bytes_in_window() {
        // 50 Gbps for 1 ms = 6.25 MB.
        let b = Bandwidth::from_gbps(50).bytes_in(Dur::from_millis(1));
        assert_eq!(b, ByteSize::from_bytes(6_250_000));
    }

    #[test]
    fn rate_over_inverts_time_to_send() {
        let size = ByteSize::from_mb(100);
        let dt = Dur::from_millis(20);
        let rate = size.rate_over(dt);
        assert_eq!(rate, Bandwidth::from_gbps(40));
        assert_eq!(rate.time_to_send(size), dt);
    }

    #[test]
    fn fraction_and_scale() {
        let half = Bandwidth::from_gbps(25);
        let full = Bandwidth::from_gbps(50);
        assert_eq!(half.fraction_of(full), 0.5);
        assert_eq!(full.mul_f64(0.3), Bandwidth::from_gbps(15));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::from_gbps(50).to_string(), "50.00Gbps");
        assert_eq!(Bandwidth::from_mbps(21).to_string(), "21.00Mbps");
        assert_eq!(ByteSize::from_mb(712).to_string(), "712.00MB");
        assert_eq!(ByteSize::from_bytes(42).to_string(), "42B");
    }

    proptest! {
        #[test]
        fn send_then_measure_roundtrip(
            mb in 1u64..10_000,
            gbps in 1u64..400,
        ) {
            let size = ByteSize::from_mb(mb);
            let rate = Bandwidth::from_gbps(gbps);
            let t = rate.time_to_send(size);
            let moved = rate.bytes_in(t);
            // time_to_send rounds up, so we moved at least `size` but at
            // most one extra "nanosecond worth" of bytes.
            prop_assert!(moved >= size);
            let slack = rate.bytes_in(Dur::from_nanos(2)) + ByteSize::from_bytes(1);
            prop_assert!(moved.saturating_sub(size) <= slack);
        }

        #[test]
        fn bytes_in_monotone(gbps in 1u64..400, a in 0u64..10_000_000, b in 0u64..10_000_000) {
            let rate = Bandwidth::from_gbps(gbps);
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(rate.bytes_in(Dur::from_nanos(lo)) <= rate.bytes_in(Dur::from_nanos(hi)));
        }
    }
}
