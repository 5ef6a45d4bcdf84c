//! [`CcAlgorithm`]: the open congestion-controller interface behind
//! [`crate::CcVariant`].
//!
//! The engines used to dispatch on a closed two-armed enum (DCQCN vs
//! Swift). The zoo is now open: every controller implements this
//! object-safe trait and the engines drive a `Box<dyn CcAlgorithm>`, so
//! adding a controller means one impl block plus one [`crate::CcVariant`]
//! arm — no engine edits.
//!
//! Beyond the classic [`DcqcnRp`]/[`SwiftRp`] pair, two job-aware
//! controllers ship here:
//!
//! * [`MltcpRp`] — MLTCP-style per-iteration rate scaling: the DCQCN boost
//!   grows with communication-phase progress (`1 + bonus · sent/total`), so
//!   a job closer to finishing its allreduce pushes harder and competing
//!   jobs' iteration phases self-organize apart. `bonus = 0` degenerates
//!   **bit-exactly** to plain fair DCQCN: the boost stays at 1.0, the same
//!   constant already multiplied through the fair arithmetic path.
//! * [`PolicyRp`] — DCQCN parameterized by an explicit [`FairnessPolicy`]
//!   in the Fair-Aurora spirit: max-min (neutral), proportional (static
//!   weight), or bonus-decay (front-loaded aggression that relaxes as the
//!   phase drains).

use crate::{DcqcnParams, DcqcnRp, RpStage, SwiftRp};
use simtime::Dur;

/// A per-flow congestion controller, driven by the network engines.
///
/// The contract mirrors how the engines already drive DCQCN and Swift:
///
/// * [`advance`](CcAlgorithm::advance) is called every engine step with the
///   elapsed time, the bytes the flow sent in that step, and the currently
///   observed queueing delay — each implementation consumes the signals it
///   cares about and ignores the rest;
/// * [`on_cnp`](CcAlgorithm::on_cnp) delivers a congestion notification;
///   engines only send them when [`reacts_to_marks`](CcAlgorithm::reacts_to_marks)
///   is `true`;
/// * [`on_phase_progress`](CcAlgorithm::on_phase_progress) feeds
///   communication-phase progress (`sent/total ∈ [0, 1]`) to job-aware
///   controllers; engines gate the call on
///   [`crate::CcVariant::wants_progress`];
/// * [`on_iteration_end`](CcAlgorithm::on_iteration_end) fires at every
///   iteration boundary (phase rollover) so per-iteration state resets;
/// * [`restart`](CcAlgorithm::restart) resets the flow to a fresh
///   line-rate state at the start of a new communication phase.
pub trait CcAlgorithm: std::fmt::Debug + Send + Sync {
    /// Current sending rate in bits/s.
    fn rate(&self) -> f64;

    /// Reacts to a congestion notification (CNP / ECN mark echo).
    fn on_cnp(&mut self);

    /// Advances the controller's clocks by `dt`, during which the flow
    /// sent `bytes_sent` bytes and observed `queue_delay` of fabric
    /// queueing.
    ///
    /// Idle spans coalesce: `advance(k·dt, 0.0, Dur::ZERO)` must leave the
    /// controller exactly as `k` calls of `advance(dt, 0.0, Dur::ZERO)`
    /// would. The rate engine relies on it to jump idle stretches and to
    /// catch computing jobs' controllers up after a stepping window.
    ///
    /// A controller whose [`reacts_to_marks`](CcAlgorithm::reacts_to_marks)
    /// is `true` ignores `queue_delay`: its state after the call does not
    /// depend on it. The rate engine then skips computing the delay, and
    /// catches such a controller up across a window whose queue stood.
    fn advance(&mut self, dt: Dur, bytes_sent: f64, queue_delay: Dur);

    /// Resets the flow to a fresh line-rate state (new communication
    /// phase after an idle compute phase).
    fn restart(&mut self);

    /// Feeds communication-phase progress (`sent/total`, clamped to
    /// `[0, 1]`) into a job-aware controller. Default: ignored.
    fn on_phase_progress(&mut self, _progress: f64) {}

    /// Iteration boundary: the job finished a communication phase.
    /// Default: ignored.
    fn on_iteration_end(&mut self) {}

    /// `true` if the controller consumes ECN marks / CNPs (mark-reactive
    /// DCQCN family); `false` for delay-based controllers.
    fn reacts_to_marks(&self) -> bool {
        true
    }

    /// The DCQCN increase regime, for telemetry tagging; `None` for
    /// controllers without DCQCN's stage machinery (delay-based).
    fn stage(&self) -> Option<RpStage> {
        None
    }

    /// Clones the controller behind a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn CcAlgorithm>;

    /// The underlying DCQCN reaction point, if this controller wraps one.
    /// Introspection for tests and telemetry; not on any hot path.
    fn as_dcqcn(&self) -> Option<&DcqcnRp> {
        None
    }
}

impl Clone for Box<dyn CcAlgorithm> {
    fn clone(&self) -> Box<dyn CcAlgorithm> {
        self.clone_box()
    }
}

impl CcAlgorithm for DcqcnRp {
    fn rate(&self) -> f64 {
        DcqcnRp::rate(self)
    }

    fn on_cnp(&mut self) {
        DcqcnRp::on_cnp(self)
    }

    fn advance(&mut self, dt: Dur, bytes_sent: f64, _queue_delay: Dur) {
        DcqcnRp::advance(self, dt, bytes_sent)
    }

    fn restart(&mut self) {
        DcqcnRp::restart(self)
    }

    fn on_phase_progress(&mut self, progress: f64) {
        self.set_phase_progress(progress)
    }

    fn on_iteration_end(&mut self) {
        self.clear_boost()
    }

    fn stage(&self) -> Option<RpStage> {
        Some(DcqcnRp::stage(self))
    }

    fn clone_box(&self) -> Box<dyn CcAlgorithm> {
        Box::new(self.clone())
    }

    fn as_dcqcn(&self) -> Option<&DcqcnRp> {
        Some(self)
    }
}

impl CcAlgorithm for SwiftRp {
    fn rate(&self) -> f64 {
        SwiftRp::rate(self)
    }

    fn on_cnp(&mut self) {
        // Delay-based: congestion is sensed through the queue, not marks.
    }

    fn advance(&mut self, dt: Dur, _bytes_sent: f64, queue_delay: Dur) {
        SwiftRp::advance(self, dt, queue_delay)
    }

    fn restart(&mut self) {
        SwiftRp::restart(self)
    }

    fn reacts_to_marks(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn CcAlgorithm> {
        Box::new(self.clone())
    }
}

/// MLTCP-style job-aware DCQCN: the boost ramps with communication-phase
/// progress, `boost = 1 + bonus · (sent/total)`.
///
/// MLTCP couples a flow's congestion window/rate to its training-iteration
/// progress so competing jobs slide into interleaved "slots". This
/// reproduction applies the same monotone coupling to DCQCN's boost, which
/// scales the increase steps and softens the multiplicative decrease (see
/// [`DcqcnRp::on_cnp`]). At `bonus = 0` the boost is pinned at 1.0 — the
/// identical constant the fair path multiplies by — so the controller is
/// bit-exact to [`CcVariant::Fair`](crate::CcVariant::Fair).
#[derive(Debug, Clone)]
pub struct MltcpRp {
    inner: DcqcnRp,
    bonus: f64,
}

impl MltcpRp {
    /// A fresh MLTCP-style flow at line rate.
    ///
    /// # Panics
    /// Panics if `params` are inconsistent or `bonus` is negative or
    /// non-finite.
    pub fn new(params: DcqcnParams, bonus: f64) -> MltcpRp {
        assert!(
            bonus.is_finite() && bonus >= 0.0,
            "MltcpRp: bonus {bonus} must be finite and >= 0"
        );
        MltcpRp {
            inner: DcqcnRp::new(params),
            bonus,
        }
    }

    /// The slot-bonus slope (`boost = 1 + bonus · progress`).
    pub fn bonus(&self) -> f64 {
        self.bonus
    }

    /// The wrapped DCQCN reaction point.
    pub fn inner(&self) -> &DcqcnRp {
        &self.inner
    }
}

impl CcAlgorithm for MltcpRp {
    fn rate(&self) -> f64 {
        self.inner.rate()
    }

    fn on_cnp(&mut self) {
        self.inner.on_cnp()
    }

    fn advance(&mut self, dt: Dur, bytes_sent: f64, _queue_delay: Dur) {
        self.inner.advance(dt, bytes_sent)
    }

    fn restart(&mut self) {
        self.inner.restart()
    }

    fn on_phase_progress(&mut self, progress: f64) {
        self.inner
            .set_boost(1.0 + self.bonus * progress.clamp(0.0, 1.0));
    }

    fn on_iteration_end(&mut self) {
        self.inner.clear_boost()
    }

    fn stage(&self) -> Option<RpStage> {
        Some(self.inner.stage())
    }

    fn clone_box(&self) -> Box<dyn CcAlgorithm> {
        Box::new(self.clone())
    }

    fn as_dcqcn(&self) -> Option<&DcqcnRp> {
        Some(&self.inner)
    }
}

/// An explicit bandwidth-sharing intent, in the Fair-Aurora spirit:
/// instead of hiding unfairness inside a timer constant, the policy names
/// what share a job should push for and [`PolicyRp`] translates it into
/// DCQCN boost dynamics. The fluid engine consumes the same policy
/// directly as an allocation weight
/// ([`CcVariant::fluid_weight`](crate::CcVariant::fluid_weight)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FairnessPolicy {
    /// Neutral max-min sharing — behaves like fair DCQCN.
    MaxMin,
    /// A constant weight: the job runs with `boost = weight` at all times
    /// (a static proportional share, like a smaller `T` but explicit).
    Proportional {
        /// The static boost weight, `> 0` (1.0 is neutral).
        weight: f64,
    },
    /// Front-loaded aggression: `boost = 1 + bonus · exp(−decay · p)`
    /// where `p` is communication-phase progress. The job pushes hardest
    /// right after its allreduce starts and relaxes as the phase drains —
    /// the mirror image of [`MltcpRp`]'s ramp.
    BonusDecay {
        /// Boost above neutral at phase start (`boost(0) = 1 + bonus`).
        bonus: f64,
        /// Exponential relaxation rate over progress `p ∈ [0, 1]`.
        decay: f64,
    },
}

impl FairnessPolicy {
    /// The DCQCN boost this policy prescribes at communication-phase
    /// progress `p` (clamped to `[0, 1]`).
    pub fn boost(&self, progress: f64) -> f64 {
        let p = progress.clamp(0.0, 1.0);
        match *self {
            FairnessPolicy::MaxMin => 1.0,
            FairnessPolicy::Proportional { weight } => weight,
            FairnessPolicy::BonusDecay { bonus, decay } => 1.0 + bonus * (-decay * p).exp(),
        }
    }

    /// `true` if the boost depends on phase progress (the engine must feed
    /// [`CcAlgorithm::on_phase_progress`]).
    pub fn wants_progress(&self) -> bool {
        matches!(self, FairnessPolicy::BonusDecay { .. })
    }

    /// Validates the policy's constants.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite weight, or a negative /
    /// non-finite bonus or decay.
    pub fn validate(&self) {
        match *self {
            FairnessPolicy::MaxMin => {}
            FairnessPolicy::Proportional { weight } => assert!(
                weight.is_finite() && weight > 0.0,
                "FairnessPolicy: weight {weight} must be finite and > 0"
            ),
            FairnessPolicy::BonusDecay { bonus, decay } => {
                assert!(
                    bonus.is_finite() && bonus >= 0.0,
                    "FairnessPolicy: bonus {bonus} must be finite and >= 0"
                );
                assert!(
                    decay.is_finite() && decay >= 0.0,
                    "FairnessPolicy: decay {decay} must be finite and >= 0"
                );
            }
        }
    }
}

/// DCQCN driven by an explicit [`FairnessPolicy`].
#[derive(Debug, Clone)]
pub struct PolicyRp {
    inner: DcqcnRp,
    policy: FairnessPolicy,
}

impl PolicyRp {
    /// A fresh policy-driven flow at line rate, starting at the policy's
    /// progress-0 boost.
    ///
    /// # Panics
    /// Panics if `params` or the policy's constants are inconsistent.
    pub fn new(params: DcqcnParams, policy: FairnessPolicy) -> PolicyRp {
        policy.validate();
        let mut inner = DcqcnRp::new(params);
        inner.set_boost(policy.boost(0.0));
        PolicyRp { inner, policy }
    }

    /// The policy this controller enforces.
    pub fn policy(&self) -> FairnessPolicy {
        self.policy
    }

    /// The wrapped DCQCN reaction point.
    pub fn inner(&self) -> &DcqcnRp {
        &self.inner
    }
}

impl CcAlgorithm for PolicyRp {
    fn rate(&self) -> f64 {
        self.inner.rate()
    }

    fn on_cnp(&mut self) {
        self.inner.on_cnp()
    }

    fn advance(&mut self, dt: Dur, bytes_sent: f64, _queue_delay: Dur) {
        self.inner.advance(dt, bytes_sent)
    }

    fn restart(&mut self) {
        self.inner.restart()
    }

    fn on_phase_progress(&mut self, progress: f64) {
        self.inner.set_boost(self.policy.boost(progress));
    }

    fn on_iteration_end(&mut self) {
        self.inner.set_boost(self.policy.boost(0.0));
    }

    fn stage(&self) -> Option<RpStage> {
        Some(self.inner.stage())
    }

    fn clone_box(&self) -> Box<dyn CcAlgorithm> {
        Box::new(self.clone())
    }

    fn as_dcqcn(&self) -> Option<&DcqcnRp> {
        Some(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: f64 = 50e9;

    fn params() -> DcqcnParams {
        DcqcnParams::testbed_default()
    }

    /// Bit-exact degeneration: with bonus = 0 every observable transition
    /// of MltcpRp equals plain fair DCQCN's, even when progress is fed.
    #[test]
    fn mltcp_zero_bonus_is_bit_exact_fair() {
        let mut fair: Box<dyn CcAlgorithm> = Box::new(DcqcnRp::new(params()));
        let mut mltcp: Box<dyn CcAlgorithm> = Box::new(MltcpRp::new(params(), 0.0));
        let dt = Dur::from_micros(17);
        for step in 0..2_000u32 {
            let bytes = (step % 7) as f64 * 1.3e5;
            if step % 23 == 0 {
                fair.on_cnp();
                mltcp.on_cnp();
            }
            if step % 11 == 0 {
                let p = (step % 100) as f64 / 100.0;
                mltcp.on_phase_progress(p); // sets boost to exactly 1.0
            }
            if step % 401 == 0 {
                fair.on_iteration_end();
                mltcp.on_iteration_end();
            }
            fair.advance(dt, bytes, Dur::ZERO);
            mltcp.advance(dt, bytes, Dur::ZERO);
            assert_eq!(fair.rate().to_bits(), mltcp.rate().to_bits());
        }
    }

    /// With a positive bonus a finishing flow out-recovers a starting one.
    #[test]
    fn mltcp_bonus_rewards_progress() {
        let run = |progress: f64| {
            let mut rp = MltcpRp::new(params(), 1.0);
            for _ in 0..20 {
                rp.on_cnp();
            }
            rp.on_phase_progress(progress);
            for _ in 0..30 {
                CcAlgorithm::advance(&mut rp, Dur::from_micros(125), 0.0, Dur::ZERO);
            }
            rp.rate()
        };
        assert!(run(1.0) > run(0.0));
    }

    #[test]
    fn mltcp_iteration_end_clears_boost() {
        let mut rp = MltcpRp::new(params(), 2.0);
        rp.on_phase_progress(1.0);
        assert_eq!(rp.inner().boost(), 3.0);
        rp.on_iteration_end();
        assert_eq!(rp.inner().boost(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and >= 0")]
    fn mltcp_rejects_negative_bonus() {
        MltcpRp::new(params(), -0.5);
    }

    #[test]
    fn policy_boost_shapes() {
        assert_eq!(FairnessPolicy::MaxMin.boost(0.7), 1.0);
        assert_eq!(FairnessPolicy::Proportional { weight: 1.5 }.boost(0.2), 1.5);
        let d = FairnessPolicy::BonusDecay {
            bonus: 1.0,
            decay: 2.0,
        };
        assert_eq!(d.boost(0.0), 2.0);
        assert!(d.boost(1.0) < d.boost(0.5));
        assert!(d.boost(1.0) > 1.0);
        assert!(d.wants_progress());
        assert!(!FairnessPolicy::MaxMin.wants_progress());
    }

    #[test]
    fn policy_rp_starts_at_policy_boost() {
        let rp = PolicyRp::new(params(), FairnessPolicy::Proportional { weight: 1.5 });
        assert_eq!(rp.inner().boost(), 1.5);
        let rp = PolicyRp::new(
            params(),
            FairnessPolicy::BonusDecay {
                bonus: 1.0,
                decay: 3.0,
            },
        );
        assert_eq!(rp.inner().boost(), 2.0);
    }

    /// MaxMin policy is bit-exact to fair DCQCN (boost pinned at 1.0).
    #[test]
    fn policy_maxmin_matches_fair() {
        let mut fair: Box<dyn CcAlgorithm> = Box::new(DcqcnRp::new(params()));
        let mut pol: Box<dyn CcAlgorithm> =
            Box::new(PolicyRp::new(params(), FairnessPolicy::MaxMin));
        for step in 0..500u32 {
            if step % 13 == 0 {
                fair.on_cnp();
                pol.on_cnp();
            }
            fair.advance(Dur::from_micros(25), 2e5, Dur::ZERO);
            pol.advance(Dur::from_micros(25), 2e5, Dur::ZERO);
            assert_eq!(fair.rate().to_bits(), pol.rate().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn policy_rejects_zero_weight() {
        PolicyRp::new(params(), FairnessPolicy::Proportional { weight: 0.0 });
    }

    #[test]
    fn boxed_clone_preserves_state() {
        let mut rp: Box<dyn CcAlgorithm> = Box::new(MltcpRp::new(params(), 1.0));
        rp.on_cnp();
        rp.on_phase_progress(0.5);
        let cl = rp.clone();
        assert_eq!(rp.rate().to_bits(), cl.rate().to_bits());
        assert_eq!(
            rp.as_dcqcn().unwrap().boost(),
            cl.as_dcqcn().unwrap().boost()
        );
    }

    /// The idle-coalescing contract of `advance`, for every controller the
    /// variants build: one long idle advance and many short ones leave
    /// identical state, seen through a contended episode afterwards.
    #[test]
    fn idle_advance_coalesces_exactly() {
        use crate::CcVariant;
        let variants = [
            CcVariant::Fair,
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
            CcVariant::AdaptiveUnfair,
            CcVariant::Swift {
                target_delay: Dur::from_micros(30),
            },
            CcVariant::Mltcp { bonus: 1.0 },
            CcVariant::Policy {
                policy: FairnessPolicy::BonusDecay {
                    bonus: 1.0,
                    decay: 3.0,
                },
            },
        ];
        let dt = Dur::from_micros(5);
        for v in variants {
            let mut base = v.build(params());
            for _ in 0..3 {
                base.on_cnp();
                base.advance(Dur::from_micros(7), 3.1e4, Dur::from_micros(45));
            }
            base.on_phase_progress(0.4);
            let (mut once, mut stepped) = (base.clone(), base.clone());
            once.advance(dt * 4_001, 0.0, Dur::ZERO);
            for _ in 0..4_001 {
                stepped.advance(dt, 0.0, Dur::ZERO);
            }
            for step in 0..200u32 {
                for cc in [&mut once, &mut stepped] {
                    if step % 9 == 0 {
                        cc.on_cnp();
                    }
                    cc.advance(dt, 2.9e4, Dur::from_micros(u64::from(step % 60)));
                }
                assert_eq!(once.rate().to_bits(), stepped.rate().to_bits(), "{v:?}");
                assert_eq!(once.stage(), stepped.stage(), "{v:?}");
            }
        }
    }

    /// The queue-delay rule of `advance`, for every controller the
    /// variants build that reacts to marks: the delay it is handed leaves
    /// no trace, in a sending step or coalesced over an idle span.
    #[test]
    fn mark_reactive_controllers_ignore_queue_delay() {
        use crate::CcVariant;
        let variants = [
            CcVariant::Fair,
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
            CcVariant::AdaptiveUnfair,
            CcVariant::Swift {
                target_delay: Dur::from_micros(30),
            },
            CcVariant::Mltcp { bonus: 1.0 },
            CcVariant::Policy {
                policy: FairnessPolicy::BonusDecay {
                    bonus: 1.0,
                    decay: 3.0,
                },
            },
        ];
        let delays = [Dur::ZERO, Dur::from_micros(2), Dur::from_millis(1)];
        let dt = Dur::from_micros(5);
        let mut checked = 0;
        for v in variants {
            let mut base = v.build(params());
            if !base.reacts_to_marks() {
                continue;
            }
            checked += 1;
            for _ in 0..3 {
                base.on_cnp();
                base.advance(Dur::from_micros(7), 3.1e4, Dur::ZERO);
            }
            base.on_phase_progress(0.4);
            let state = |cc: &dyn CcAlgorithm| {
                let rp = cc
                    .as_dcqcn()
                    .expect("a mark-reactive controller wraps DCQCN");
                (format!("{rp:?}"), cc.rate().to_bits(), cc.stage())
            };
            for k in [1u64, 7, 4_001] {
                let mut quiet = base.clone();
                quiet.advance(dt * k, 0.0, Dur::ZERO);
                for d in delays {
                    let mut sent = base.clone();
                    sent.advance(dt, 2.9e4 * k as f64, d);
                    let mut reference = base.clone();
                    reference.advance(dt, 2.9e4 * k as f64, Dur::ZERO);
                    assert_eq!(state(&*sent), state(&*reference), "{v:?} sent, {d:?}");

                    let mut stepped = base.clone();
                    for _ in 0..k {
                        stepped.advance(dt, 0.0, d);
                    }
                    let mut once = base.clone();
                    once.advance(dt * k, 0.0, d);
                    assert_eq!(state(&*stepped), state(&*quiet), "{v:?} x{k}, {d:?}");
                    assert_eq!(state(&*once), state(&*quiet), "{v:?} {k}dt, {d:?}");
                }
            }
        }
        assert_eq!(checked, 5);
    }

    #[test]
    fn swift_ignores_marks_and_reports_no_stage() {
        let mut s: Box<dyn CcAlgorithm> =
            Box::new(SwiftRp::new(crate::SwiftParams::fabric_default()));
        assert!(!s.reacts_to_marks());
        assert_eq!(s.stage(), None);
        let before = s.rate();
        s.on_cnp(); // no-op
        assert_eq!(s.rate(), before);
        s.advance(Dur::from_micros(25), 0.0, Dur::from_micros(90));
        assert!(s.rate() < LINE);
    }
}
