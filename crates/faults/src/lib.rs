//! Deterministic fault injection for the simulation stack.
//!
//! A [`ChaosConfig`] is a small, declarative description of *how much* of
//! each perturbation class to apply — phase jitter and stragglers in the
//! workload, capacity degradation and flaps on links, mid-run job churn,
//! and congestion-signal loss in DCQCN's control loop. [`ChaosConfig::compile`]
//! expands it, for a concrete cluster shape, into the exact per-job and
//! per-link fault primitives the engines consume
//! ([`workload::PhaseNoise`], [`topology::LinkSchedule`],
//! [`dcqcn::SignalLoss`], arrival delays and departure deadlines).
//!
//! Everything is keyed off one `seed`: each perturbation layer draws from
//! its own splitmix-derived PRNG stream, so enabling one layer never
//! shifts another layer's draws, and a compiled chaos plan is a pure
//! function of `(config, jobs, links, horizon)` — identical across
//! engines, runs, and `--jobs N` parallelism.
//!
//! [`ChaosConfig::none`] is the identity: it compiles to no noise, no
//! schedules, no churn, and no loss, and engines run bit-for-bit as if no
//! chaos plumbing existed.

#![forbid(unsafe_code)]

use dcqcn::SignalLoss;
use eventsim::Rng;
use simtime::{Dur, Time};
use topology::LinkSchedule;
use workload::PhaseNoise;

/// Workload-layer perturbations: per-iteration phase jitter and
/// occasional stragglers, applied to every job (decorrelated per job and
/// per iteration by the keyed [`PhaseNoise`] draws).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseChaos {
    /// Uniform relative jitter on compute durations (0.1 = ±10 %).
    pub compute_jitter: f64,
    /// Uniform relative jitter on communication volume (0.1 = ±10 %).
    pub comm_jitter: f64,
    /// Per-iteration probability that a job straggles.
    pub straggler_prob: f64,
    /// Compute-time multiplier of a straggling iteration (≥ 1).
    pub straggler_factor: f64,
}

impl PhaseChaos {
    fn is_none(&self) -> bool {
        self.compute_jitter <= 0.0 && self.comm_jitter <= 0.0 && self.straggler_prob <= 0.0
    }
}

/// Link-layer perturbations: sustained degradation windows ("an optic
/// running hot") and up/down flap trains ("a port bouncing").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkChaos {
    /// Probability a given link receives one degradation window.
    pub degrade_prob: f64,
    /// Capacity multiplier inside a degradation window.
    pub degrade_factor: f64,
    /// Probability a given link (not already degraded) receives a flap
    /// train.
    pub flap_prob: f64,
    /// Down-windows per flap train.
    pub flap_count: u32,
}

impl LinkChaos {
    fn is_none(&self) -> bool {
        self.degrade_prob <= 0.0 && self.flap_prob <= 0.0
    }
}

/// Cluster churn: jobs arriving late and departing mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnChaos {
    /// Probability a job's start is delayed (a "late arrival").
    pub arrival_prob: f64,
    /// Maximum arrival delay, as a fraction of the horizon.
    pub max_arrival_frac: f64,
    /// Probability a job departs mid-run.
    pub departure_prob: f64,
}

impl ChurnChaos {
    fn is_none(&self) -> bool {
        self.arrival_prob <= 0.0 && self.departure_prob <= 0.0
    }
}

/// Congestion-signal loss (see [`dcqcn::SignalLoss`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SignalChaos {
    /// Probability an ECN mark is stripped before the NP sees it.
    pub mark_loss: f64,
    /// Probability a CNP is dropped before the RP reacts.
    pub cnp_loss: f64,
}

impl SignalChaos {
    fn is_none(&self) -> bool {
        self.mark_loss <= 0.0 && self.cnp_loss <= 0.0
    }
}

/// The top-level chaos description: one seed plus per-layer knobs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosConfig {
    /// Master seed. Every layer derives an independent stream from it.
    pub seed: u64,
    /// Workload perturbations.
    pub phase: PhaseChaos,
    /// Link perturbations.
    pub links: LinkChaos,
    /// Job churn.
    pub churn: ChurnChaos,
    /// DCQCN signal loss.
    pub signal: SignalChaos,
}

/// Layer tags folded into the master seed so streams never collide.
const STREAM_PHASE: u64 = 0x9E37_79B9_7F4A_7C15;
const STREAM_LINKS: u64 = 0xBF58_476D_1CE4_E5B9;
const STREAM_CHURN: u64 = 0x94D0_49BB_1331_11EB;
const STREAM_SIGNAL: u64 = 0xD6E8_FEB8_6659_FD93;

fn stream_seed(seed: u64, tag: u64) -> u64 {
    // One splitmix64 round over the tagged seed: cheap, and enough to
    // decorrelate the per-layer xoshiro states.
    let mut z = seed ^ tag;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The expansion of a [`ChaosConfig`] for one concrete run: per-job and
/// per-link primitives, ready to hand to any engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledChaos {
    /// Per-job phase noise (`None` per job when the phase layer is off).
    pub noise: Vec<Option<PhaseNoise>>,
    /// Per-job extra start delay (late arrivals; `Dur::ZERO` = on time).
    pub arrivals: Vec<Dur>,
    /// Per-job departure deadline.
    pub departures: Vec<Option<Time>>,
    /// Per-link capacity schedules (identity when the link is untouched).
    /// Empty when the link layer is off.
    pub link_schedules: Vec<LinkSchedule>,
    /// Signal-loss config for DCQCN engines (`None` when off).
    pub signal_loss: Option<SignalLoss>,
}

impl CompiledChaos {
    /// `true` when nothing at all is perturbed.
    pub fn is_none(&self) -> bool {
        self.noise.iter().all(Option::is_none)
            && self.arrivals.iter().all(|d| d.is_zero())
            && self.departures.iter().all(Option::is_none)
            && self.link_schedules.is_empty()
            && self.signal_loss.is_none()
    }

    /// Moves every departure and capacity change point `by` later, so a
    /// plan compiled over what remains of a run after `by` lands in the
    /// run's own time. Noise and arrival delays are relative and stay.
    pub fn shift(&mut self, by: Dur) {
        for d in self.departures.iter_mut().flatten() {
            *d += by;
        }
        for s in &mut self.link_schedules {
            *s = LinkSchedule::new(s.changes().iter().map(|&(t, m)| (t + by, m)).collect());
        }
    }
}

impl ChaosConfig {
    /// The identity configuration: compiles to no perturbation anywhere.
    pub fn none() -> ChaosConfig {
        ChaosConfig::default()
    }

    /// `true` if every layer is off (the seed is irrelevant then).
    pub fn is_none(&self) -> bool {
        self.phase.is_none()
            && self.links.is_none()
            && self.churn.is_none()
            && self.signal.is_none()
    }

    /// A named builtin profile, or `None` for an unknown name.
    ///
    /// * `"none"` — the identity config.
    /// * `"stragglers"` — ±10 % phase jitter plus 3 % / 4× stragglers.
    /// * `"links"` — 35 % of links get a 4× degradation window, 15 % a
    ///   two-flap outage train.
    /// * `"signal"` — 5 % ECN-mark and CNP loss in DCQCN's control loop.
    /// * `"mixed"` — mild versions of every layer at once.
    pub fn profile(name: &str) -> Option<ChaosConfig> {
        match name {
            "none" => Some(ChaosConfig::none()),
            "signal" => Some(ChaosConfig {
                seed: 0,
                signal: SignalChaos {
                    mark_loss: 0.05,
                    cnp_loss: 0.05,
                },
                ..ChaosConfig::none()
            }),
            "stragglers" => Some(ChaosConfig {
                seed: 0,
                phase: PhaseChaos {
                    compute_jitter: 0.10,
                    comm_jitter: 0.10,
                    straggler_prob: 0.03,
                    straggler_factor: 4.0,
                },
                ..ChaosConfig::none()
            }),
            "links" => Some(ChaosConfig {
                seed: 0,
                links: LinkChaos {
                    degrade_prob: 0.35,
                    degrade_factor: 0.25,
                    flap_prob: 0.15,
                    flap_count: 2,
                },
                ..ChaosConfig::none()
            }),
            "mixed" => Some(ChaosConfig {
                seed: 0,
                phase: PhaseChaos {
                    compute_jitter: 0.05,
                    comm_jitter: 0.05,
                    straggler_prob: 0.01,
                    straggler_factor: 2.5,
                },
                links: LinkChaos {
                    degrade_prob: 0.2,
                    degrade_factor: 0.4,
                    flap_prob: 0.0,
                    flap_count: 0,
                },
                churn: ChurnChaos {
                    arrival_prob: 0.15,
                    max_arrival_frac: 0.2,
                    departure_prob: 0.1,
                },
                signal: SignalChaos {
                    mark_loss: 0.02,
                    cnp_loss: 0.02,
                },
            }),
            _ => None,
        }
    }

    /// Expands the config for a run of `jobs` jobs over `links` links,
    /// lasting roughly `horizon` of simulated time. Pure: the same inputs
    /// always produce the same plan.
    ///
    /// # Panics
    /// Panics if `horizon` is zero while a horizon-relative layer (links
    /// or churn) is enabled.
    pub fn compile(&self, jobs: usize, links: usize, horizon: Dur) -> CompiledChaos {
        assert!(
            !horizon.is_zero() || (self.links.is_none() && self.churn.is_none()),
            "ChaosConfig::compile: zero horizon with time-relative layers on"
        );
        let noise = if self.phase.is_none() {
            vec![None; jobs]
        } else {
            (0..jobs)
                .map(|j| {
                    Some(PhaseNoise {
                        seed: stream_seed(self.seed, STREAM_PHASE),
                        job: j as u32,
                        compute_jitter: self.phase.compute_jitter,
                        comm_jitter: self.phase.comm_jitter,
                        straggler_prob: self.phase.straggler_prob,
                        straggler_factor: self.phase.straggler_factor,
                    })
                })
                .collect()
        };

        let link_schedules = if self.links.is_none() {
            Vec::new()
        } else {
            let mut rng = Rng::new(stream_seed(self.seed, STREAM_LINKS));
            let h = horizon.as_secs_f64();
            (0..links)
                .map(|_| {
                    if self.links.degrade_prob > 0.0 && rng.bernoulli(self.links.degrade_prob) {
                        // One sustained degradation window somewhere in the
                        // first two-thirds of the run, 10–30 % of it long.
                        let start = rng.f64_range(0.1, 0.6) * h;
                        let len = rng.f64_range(0.1, 0.3) * h;
                        LinkSchedule::degraded(
                            Time::ZERO + Dur::from_secs_f64(start),
                            Time::ZERO + Dur::from_secs_f64(start + len),
                            self.links.degrade_factor,
                        )
                    } else if self.links.flap_prob > 0.0 && rng.bernoulli(self.links.flap_prob) {
                        // A train of short full outages (floored to the
                        // schedule's minimum residual capacity).
                        let mut t = rng.f64_range(0.15, 0.4) * h;
                        let mut changes = Vec::new();
                        for _ in 0..self.links.flap_count.max(1) {
                            let down = rng.f64_range(0.01, 0.04) * h;
                            changes.push((Time::ZERO + Dur::from_secs_f64(t), 0.0));
                            changes.push((Time::ZERO + Dur::from_secs_f64(t + down), 1.0));
                            t += down + rng.f64_range(0.05, 0.1) * h;
                        }
                        LinkSchedule::new(changes)
                    } else {
                        LinkSchedule::identity()
                    }
                })
                .collect()
        };

        let (arrivals, departures) = if self.churn.is_none() {
            (vec![Dur::ZERO; jobs], vec![None; jobs])
        } else {
            let mut rng = Rng::new(stream_seed(self.seed, STREAM_CHURN));
            let h = horizon.as_secs_f64();
            let mut arrivals = Vec::with_capacity(jobs);
            let mut departures = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let arrive = if self.churn.arrival_prob > 0.0
                    && rng.bernoulli(self.churn.arrival_prob)
                {
                    Dur::from_secs_f64(rng.f64() * self.churn.max_arrival_frac.clamp(0.0, 1.0) * h)
                } else {
                    Dur::ZERO
                };
                // A late arrival never also departs early: combined they
                // could leave a job with no useful lifetime at all.
                let depart = if arrive.is_zero()
                    && self.churn.departure_prob > 0.0
                    && rng.bernoulli(self.churn.departure_prob)
                {
                    Some(Time::ZERO + Dur::from_secs_f64(rng.f64_range(0.3, 0.8) * h))
                } else {
                    None
                };
                arrivals.push(arrive);
                departures.push(depart);
            }
            (arrivals, departures)
        };

        let signal_loss = if self.signal.is_none() {
            None
        } else {
            Some(
                SignalLoss {
                    mark_loss: self.signal.mark_loss,
                    cnp_loss: self.signal.cnp_loss,
                    seed: stream_seed(self.seed, STREAM_SIGNAL),
                }
                .clamped(),
            )
        };

        CompiledChaos {
            noise,
            arrivals,
            departures,
            link_schedules,
            signal_loss,
        }
    }
}

mod toml;
pub use toml::from_toml_str;

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> Dur {
        Dur::from_secs(2)
    }

    #[test]
    fn none_compiles_to_identity() {
        let c = ChaosConfig::none();
        assert!(c.is_none());
        let plan = c.compile(4, 6, horizon());
        assert!(plan.is_none());
        assert_eq!(plan.noise, vec![None; 4]);
        assert_eq!(plan.arrivals, vec![Dur::ZERO; 4]);
        assert!(plan.link_schedules.is_empty());
        assert!(plan.signal_loss.is_none());
    }

    #[test]
    fn compile_is_pure() {
        let c = ChaosConfig {
            seed: 42,
            ..ChaosConfig::profile("mixed").unwrap()
        };
        let a = c.compile(8, 10, horizon());
        let b = c.compile(8, 10, horizon());
        assert_eq!(a, b, "same inputs must compile identically");
    }

    #[test]
    fn seeds_decorrelate_layers() {
        let c = ChaosConfig {
            seed: 7,
            ..ChaosConfig::profile("mixed").unwrap()
        };
        // Turning the link layer off must not change the churn draws.
        let with_links = c.compile(16, 4, horizon());
        let mut no_links = c;
        no_links.links = LinkChaos::default();
        let without = no_links.compile(16, 4, horizon());
        assert_eq!(with_links.arrivals, without.arrivals);
        assert_eq!(with_links.departures, without.departures);
    }

    #[test]
    fn different_seeds_differ() {
        let base = ChaosConfig::profile("links").unwrap();
        let a = ChaosConfig { seed: 1, ..base }.compile(2, 32, horizon());
        let b = ChaosConfig { seed: 2, ..base }.compile(2, 32, horizon());
        assert_ne!(a.link_schedules, b.link_schedules);
    }

    #[test]
    fn straggler_profile_touches_every_job() {
        let c = ChaosConfig {
            seed: 3,
            ..ChaosConfig::profile("stragglers").unwrap()
        };
        let plan = c.compile(5, 1, horizon());
        assert!(plan.noise.iter().all(Option::is_some));
        for (j, n) in plan.noise.iter().enumerate() {
            assert_eq!(n.unwrap().job, j as u32);
        }
        assert!(plan.link_schedules.is_empty());
        assert!(plan.signal_loss.is_none());
    }

    #[test]
    fn flap_schedules_are_well_formed() {
        let c = ChaosConfig {
            seed: 11,
            links: LinkChaos {
                degrade_prob: 0.0,
                degrade_factor: 1.0,
                flap_prob: 1.0,
                flap_count: 3,
            },
            ..ChaosConfig::none()
        };
        let plan = c.compile(1, 8, horizon());
        for s in &plan.link_schedules {
            assert!(!s.is_identity());
            assert_eq!(s.changes().len(), 6, "3 flaps = 6 change points");
            assert_eq!(s.min_multiplier(), LinkSchedule::MIN_MULTIPLIER);
        }
    }

    #[test]
    fn profiles_resolve() {
        for name in ["none", "stragglers", "links", "signal", "mixed"] {
            assert!(ChaosConfig::profile(name).is_some(), "missing {name}");
        }
        assert!(ChaosConfig::profile("bogus").is_none());
    }
}
