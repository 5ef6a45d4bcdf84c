//! [`DcqcnParams`]: tunable constants of the DCQCN state machines.

use simtime::{Bandwidth, ByteSize, Dur};

/// A parameter-validation rejection from [`DcqcnParams::try_validate`] or
/// [`crate::SwiftParams::try_validate`]. The panicking `validate` paths
/// wrap these, so a rejection carries the same message either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// `line_rate` is zero.
    ZeroLineRate,
    /// The rate-increase timer `T` is zero.
    ZeroTimer,
    /// The alpha-decay timer is zero.
    ZeroAlphaTimer,
    /// The EWMA gain `g` is outside `(0, 1)`.
    GainOutOfRange {
        /// The rejected gain.
        g: f64,
    },
    /// `min_rate` exceeds `line_rate`.
    MinAboveLine,
    /// The byte-counter threshold `B` is zero.
    ZeroByteCounter,
    /// Swift's queueing-delay target is zero.
    ZeroTargetDelay,
    /// Swift's control update interval is zero.
    ZeroUpdateInterval,
    /// Swift's multiplicative-decrease cap β is outside `(0, 1]`.
    BetaOutOfRange {
        /// The rejected β.
        beta: f64,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParamError::ZeroLineRate => write!(f, "zero line rate"),
            ParamError::ZeroTimer => write!(f, "zero timer"),
            ParamError::ZeroAlphaTimer => write!(f, "zero alpha timer"),
            ParamError::GainOutOfRange { g } => write!(f, "g {g} outside (0,1)"),
            ParamError::MinAboveLine => write!(f, "min rate above line rate"),
            ParamError::ZeroByteCounter => write!(f, "zero byte counter"),
            ParamError::ZeroTargetDelay => write!(f, "zero target"),
            ParamError::ZeroUpdateInterval => write!(f, "zero update interval"),
            ParamError::BetaOutOfRange { beta } => {
                write!(f, "beta {beta} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// DCQCN parameters, following the SIGCOMM '15 paper's notation with the
/// defaults this paper's testbed uses (notably `T = 125 µs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcqcnParams {
    /// NIC line rate — the rate cap and the initial sending rate (RDMA
    /// starts flows at line rate).
    pub line_rate: Bandwidth,
    /// Rate-increase timer period `T` — **the unfairness knob**. A smaller
    /// `T` recovers faster after cuts and durably wins bandwidth.
    pub timer: Dur,
    /// Byte counter threshold `B`: a rate-increase event fires every `B`
    /// bytes sent.
    pub byte_counter: ByteSize,
    /// Number of fast-recovery stages `F` before additive increase begins.
    pub fast_recovery: u32,
    /// Additive-increase step `R_AI`.
    pub r_ai: Bandwidth,
    /// Hyper-increase step `R_HAI` (used when both timer and byte counter
    /// have passed `F` stages).
    pub r_hai: Bandwidth,
    /// EWMA gain `g` for the congestion estimate `alpha`.
    pub g: f64,
    /// Alpha-decay timer: with no CNP for this long, `alpha ← (1−g)·alpha`.
    pub alpha_timer: Dur,
    /// Minimum sending rate (the RP never cuts below this).
    pub min_rate: Bandwidth,
    /// NP-side minimum gap between CNPs for one flow.
    pub cnp_interval: Dur,
}

impl DcqcnParams {
    /// The testbed defaults behind the paper's Fig. 1: 50 Gbps ConnectX-5
    /// NICs, `T = 125 µs`.
    pub const fn testbed_default() -> DcqcnParams {
        DcqcnParams {
            line_rate: Bandwidth::from_gbps(50),
            timer: Dur::from_micros(125),
            byte_counter: ByteSize::from_mb(10),
            fast_recovery: 5,
            r_ai: Bandwidth::from_mbps(40),
            r_hai: Bandwidth::from_mbps(400),
            g: 1.0 / 256.0,
            alpha_timer: Dur::from_micros(55),
            min_rate: Bandwidth::from_mbps(40),
            cnp_interval: Dur::from_micros(50),
        }
    }

    /// The same parameters with a different rate-increase timer — how the
    /// paper makes a job "more aggressive" (Fig. 1c uses 100 µs).
    pub fn with_timer(self, timer: Dur) -> DcqcnParams {
        DcqcnParams { timer, ..self }
    }

    /// The same parameters scaled to a different line rate, keeping the
    /// relative increase steps (R_AI and R_HAI scale with the line rate,
    /// min_rate stays absolute).
    pub fn with_line_rate(self, line_rate: Bandwidth) -> DcqcnParams {
        let scale = line_rate.as_bps_f64() / self.line_rate.as_bps_f64();
        DcqcnParams {
            line_rate,
            r_ai: self.r_ai.mul_f64(scale),
            r_hai: self.r_hai.mul_f64(scale),
            ..self
        }
    }

    /// Checks internal consistency, returning the first rejection instead
    /// of panicking.
    pub fn try_validate(&self) -> Result<(), ParamError> {
        if self.line_rate.is_zero() {
            return Err(ParamError::ZeroLineRate);
        }
        if self.timer.is_zero() {
            return Err(ParamError::ZeroTimer);
        }
        if self.alpha_timer.is_zero() {
            return Err(ParamError::ZeroAlphaTimer);
        }
        if !(self.g > 0.0 && self.g < 1.0) {
            return Err(ParamError::GainOutOfRange { g: self.g });
        }
        if self.min_rate > self.line_rate {
            return Err(ParamError::MinAboveLine);
        }
        if self.byte_counter.as_bytes() == 0 {
            return Err(ParamError::ZeroByteCounter);
        }
        Ok(())
    }

    /// Validates internal consistency; called by the RP constructor.
    ///
    /// # Panics
    /// Panics on nonsensical parameters (zero line rate, `g` outside
    /// `(0, 1)`, zero timer, min above line) — the panicking wrapper
    /// around [`DcqcnParams::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("DcqcnParams: {e}");
        }
    }
}

impl Default for DcqcnParams {
    fn default() -> DcqcnParams {
        DcqcnParams::testbed_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_defaults_match_paper() {
        let p = DcqcnParams::testbed_default();
        assert_eq!(p.line_rate, Bandwidth::from_gbps(50));
        assert_eq!(p.timer, Dur::from_micros(125));
        assert_eq!(p.cnp_interval, Dur::from_micros(50));
        p.validate();
    }

    #[test]
    fn with_timer_changes_only_timer() {
        let base = DcqcnParams::testbed_default();
        let fast = base.with_timer(Dur::from_micros(100));
        assert_eq!(fast.timer, Dur::from_micros(100));
        assert_eq!(fast.line_rate, base.line_rate);
        assert_eq!(fast.r_ai, base.r_ai);
    }

    #[test]
    fn with_line_rate_scales_steps() {
        let base = DcqcnParams::testbed_default();
        let big = base.with_line_rate(Bandwidth::from_gbps(100));
        assert_eq!(big.line_rate, Bandwidth::from_gbps(100));
        assert_eq!(big.r_ai, Bandwidth::from_mbps(80));
        assert_eq!(big.r_hai, Bandwidth::from_mbps(800));
        assert_eq!(big.min_rate, base.min_rate);
        big.validate();
    }

    #[test]
    #[should_panic(expected = "zero timer")]
    fn zero_timer_rejected() {
        DcqcnParams::testbed_default()
            .with_timer(Dur::ZERO)
            .validate();
    }

    #[test]
    #[should_panic(expected = "outside (0,1)")]
    fn bad_gain_rejected() {
        let mut p = DcqcnParams::testbed_default();
        p.g = 1.0;
        p.validate();
    }

    #[test]
    fn try_validate_accepts_defaults() {
        assert_eq!(DcqcnParams::testbed_default().try_validate(), Ok(()));
    }

    #[test]
    fn try_validate_rejects_each_inconsistency() {
        let base = DcqcnParams::testbed_default();

        let mut p = base;
        p.line_rate = Bandwidth::from_bps(0);
        assert_eq!(p.try_validate(), Err(ParamError::ZeroLineRate));

        assert_eq!(
            base.with_timer(Dur::ZERO).try_validate(),
            Err(ParamError::ZeroTimer)
        );

        let mut p = base;
        p.alpha_timer = Dur::ZERO;
        assert_eq!(p.try_validate(), Err(ParamError::ZeroAlphaTimer));

        let mut p = base;
        p.g = 0.0;
        assert_eq!(p.try_validate(), Err(ParamError::GainOutOfRange { g: 0.0 }));
        p.g = 1.0;
        assert_eq!(p.try_validate(), Err(ParamError::GainOutOfRange { g: 1.0 }));

        let mut p = base;
        p.min_rate = Bandwidth::from_gbps(100);
        assert_eq!(p.try_validate(), Err(ParamError::MinAboveLine));

        let mut p = base;
        p.byte_counter = ByteSize::from_bytes(0);
        assert_eq!(p.try_validate(), Err(ParamError::ZeroByteCounter));
    }

    /// The panic path reports the same message the typed error renders.
    #[test]
    fn validate_message_matches_display() {
        let e = ParamError::GainOutOfRange { g: 1.0 };
        assert_eq!(e.to_string(), "g 1 outside (0,1)");
        assert_eq!(ParamError::ZeroTimer.to_string(), "zero timer");
        assert_eq!(
            ParamError::BetaOutOfRange { beta: 1.5 }.to_string(),
            "beta 1.5 outside (0, 1]"
        );
    }
}
