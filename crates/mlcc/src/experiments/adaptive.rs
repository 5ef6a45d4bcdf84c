//! §4.i: the adaptively-unfair congestion control scheme.
//!
//! A job's aggressiveness scales with its progress through the current
//! communication phase (`1 + sent/total`), so a job near the end of its
//! allreduce out-competes one just starting. The paper's two claims, as we
//! test them:
//!
//! 1. **Compatible jobs interleave.** Against the paper's scenario-1
//!    convention (synchronized starts, where fair DCQCN locks both jobs
//!    into perpetual contention at `K + 2C`), an adaptively-unfair pair
//!    with a realistic staggered start converges to dedicated-network
//!    pace — with *no per-job tuning* (contrast the static `T` knob, which
//!    must be assigned per job).
//! 2. **Incompatible jobs are not victimized.** Deployed cluster-wide,
//!    static unfairness durably hurts the less-aggressive job of an
//!    incompatible mix; the adaptive scheme degenerates to near-fair
//!    sharing because the jobs "take turns being the aggressive party".
//!    We run BERT(8) + VGG19(1200) under fair, static and adaptive and
//!    compare the victim's iteration time.
//!
//! Reproduction note (see also `EXPERIMENTS.md`): the paper's literal
//! formula boosts only `R_AI`, which is numerically inert in the
//! CNP-dominated contention regime (increase stages reset on every CNP, so
//! additive increase rarely fires). Our [`dcqcn::DcqcnRp`] therefore applies
//! the same monotone progress→aggressiveness mapping to the multiplicative
//! decrease as well — a job at progress `p` cuts by `alpha/(2(1+p))`.

use super::run_rate;
use crate::experiments::chaos::stats_tolerant;
use crate::metrics::{JobStats, Speedup};
use crate::parallel;
use dcqcn::CcVariant;
use faults::ChaosConfig;
use netsim::rate::{RateJob, RateSimConfig};
use netsim::Engine;
use simtime::{Dur, Time};
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// A compatible pair (default: two VGG19(1200)s).
    pub compatible: [JobSpec; 2],
    /// An incompatible pair (default: BERT(8) + VGG19(1200); the VGG19 is
    /// the prospective victim).
    pub incompatible: [JobSpec; 2],
    /// Start offset of the second job in the *adaptive/static* runs. Real
    /// clusters never start two jobs on the same nanosecond; the offset
    /// seeds the phase asymmetry the schemes act on. (The deterministic
    /// engine keeps two perfectly-synchronized identical jobs symmetric
    /// forever — a measure-zero configuration that the fair baseline
    /// deliberately uses, matching the paper's Fig. 2 presentation.)
    pub seed_offset: Dur,
    /// Timer for the aggressive job under static unfairness.
    pub static_timer: Dur,
    /// Iterations per scenario.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            compatible: [
                JobSpec::reference(Model::Vgg19, 1200),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            incompatible: [
                JobSpec::reference(Model::BertLarge, 8),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            seed_offset: Dur::from_millis(5),
            static_timer: Dur::from_micros(100),
            iterations: 24,
            warmup: 8,
        }
    }
}

/// The §4.i experiment result.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Compatible pair, synchronized starts, fair DCQCN: the locked
    /// contended baseline (`K + 2C`).
    pub compatible_fair_sync: Vec<JobStats>,
    /// Compatible pair, staggered start, adaptive unfairness: should reach
    /// dedicated-network pace.
    pub compatible_adaptive: Vec<JobStats>,
    /// Incompatible pair under fair DCQCN (staggered).
    pub incompatible_fair: Vec<JobStats>,
    /// Incompatible pair under static unfairness (first job aggressive).
    pub incompatible_static: Vec<JobStats>,
    /// Incompatible pair under adaptive unfairness (both adaptive).
    pub incompatible_adaptive: Vec<JobStats>,
}

impl AdaptiveResult {
    /// Compatible-pair speedups: adaptive (staggered) over the locked fair
    /// baseline.
    pub fn compatible_speedups(&self) -> Vec<Speedup> {
        self.compatible_fair_sync
            .iter()
            .zip(&self.compatible_adaptive)
            .map(|(f, a)| a.speedup_vs(f))
            .collect()
    }

    /// The victim's (job 1 of the incompatible pair) speedups vs fair,
    /// under `(static, adaptive)`.
    pub fn victim_speedups(&self) -> (Speedup, Speedup) {
        (
            self.incompatible_static[1].speedup_vs(&self.incompatible_fair[1]),
            self.incompatible_adaptive[1].speedup_vs(&self.incompatible_fair[1]),
        )
    }

    /// Renders a summary table.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "scenario".to_string(),
            "job".to_string(),
            "median".to_string(),
            "vs fair".to_string(),
        ]];
        let compat_sp = self.compatible_speedups();
        for (i, s) in self.compatible_fair_sync.iter().enumerate() {
            rows.push(vec![
                if i == 0 {
                    "compatible/fair(sync)".into()
                } else {
                    String::new()
                },
                s.label.clone(),
                format!("{:.0} ms", s.median_ms()),
                "1.00×".to_string(),
            ]);
        }
        for (i, s) in self.compatible_adaptive.iter().enumerate() {
            rows.push(vec![
                if i == 0 {
                    "compatible/adaptive".into()
                } else {
                    String::new()
                },
                s.label.clone(),
                format!("{:.0} ms", s.median_ms()),
                compat_sp[i].to_string(),
            ]);
        }
        for (name, stats) in [
            ("incompatible/fair", &self.incompatible_fair),
            ("incompatible/static", &self.incompatible_static),
            ("incompatible/adaptive", &self.incompatible_adaptive),
        ] {
            for (i, s) in stats.iter().enumerate() {
                let sp = s.speedup_vs(&self.incompatible_fair[i]);
                rows.push(vec![
                    if i == 0 {
                        name.to_string()
                    } else {
                        String::new()
                    },
                    s.label.clone(),
                    format!("{:.0} ms", s.median_ms()),
                    sp.to_string(),
                ]);
            }
        }
        crate::metrics::text_table(&rows)
    }
}

/// Runs one scenario's pair, the second job starting at `offset`, and
/// returns each job's statistics.
fn run_pair<R: Recorder>(
    jobs: [JobSpec; 2],
    variants: [CcVariant; 2],
    offset: Dur,
    cfg: &AdaptiveConfig,
    rec: R,
) -> Vec<JobStats> {
    let mut rj = [
        RateJob::new(jobs[0], variants[0]),
        RateJob::new(jobs[1], variants[1]),
    ];
    rj[1].start_offset = offset;
    let sim = run_rate(
        "adaptive",
        &mut rj,
        RateSimConfig::default(),
        &ChaosConfig::none(),
        cfg.iterations,
        None,
        rec,
    );
    (0..2)
        .map(|i| stats_tolerant(sim.progress(i), cfg.warmup))
        .collect()
}

/// Runs all five scenarios.
pub fn run(cfg: &AdaptiveConfig) -> AdaptiveResult {
    run_traced(cfg, NoopRecorder)
}

/// Runs all five scenarios, streaming telemetry into `rec` with a marker
/// per scenario. The scenarios are independent simulations and run in
/// parallel under [`parallel::jobs`] workers; results and telemetry are
/// identical to a serial run.
pub fn run_traced<R: ForkableRecorder>(cfg: &AdaptiveConfig, mut rec: R) -> AdaptiveResult {
    let fair = [CcVariant::Fair, CcVariant::Fair];
    let adaptive = [CcVariant::AdaptiveUnfair, CcVariant::AdaptiveUnfair];
    let stat = [
        CcVariant::StaticUnfair {
            timer: cfg.static_timer,
        },
        CcVariant::Fair,
    ];
    let units: [(&str, [JobSpec; 2], [CcVariant; 2], Dur); 5] = [
        ("compatible-fair-sync", cfg.compatible, fair, Dur::ZERO),
        (
            "compatible-adaptive",
            cfg.compatible,
            adaptive,
            Dur::from_millis(15),
        ),
        ("incompatible-fair", cfg.incompatible, fair, cfg.seed_offset),
        (
            "incompatible-static",
            cfg.incompatible,
            stat,
            cfg.seed_offset,
        ),
        (
            "incompatible-adaptive",
            cfg.incompatible,
            adaptive,
            cfg.seed_offset,
        ),
    ];
    let mut out =
        parallel::map_traced(&mut rec, &units, |_, &(name, jobs, variants, off), fork| {
            if R::ENABLED {
                fork.record(
                    Time::ZERO,
                    Event::Scenario {
                        name: format!("adaptive/{name}"),
                    },
                );
            }
            run_pair(jobs, variants, off, cfg, fork)
        });
    let incompatible_adaptive = out.pop().expect("five scenarios");
    let incompatible_static = out.pop().expect("five scenarios");
    let incompatible_fair = out.pop().expect("five scenarios");
    let compatible_adaptive = out.pop().expect("five scenarios");
    let compatible_fair_sync = out.pop().expect("five scenarios");
    AdaptiveResult {
        compatible_fair_sync,
        compatible_adaptive,
        incompatible_fair,
        incompatible_static,
        incompatible_adaptive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Bandwidth;

    #[test]
    fn adaptive_helps_compatible_and_spares_incompatible() {
        let cfg = AdaptiveConfig {
            iterations: 16,
            warmup: 8,
            ..AdaptiveConfig::default()
        };
        let r = run(&cfg);
        // Claim 1: the compatible pair reaches dedicated-network pace —
        // a large gain over the locked fair baseline.
        let solo = cfg.compatible[0]
            .iteration_time_at(Bandwidth::from_gbps(50))
            .as_millis_f64();
        for (i, s) in r.compatible_adaptive.iter().enumerate() {
            assert!(
                (s.median_ms() - solo).abs() < solo * 0.02,
                "compatible job {i}: adaptive median {:.0} ms vs solo {solo:.0} ms",
                s.median_ms()
            );
        }
        for (i, sp) in r.compatible_speedups().iter().enumerate() {
            assert!(
                sp.0 > 1.3,
                "compatible job {i}: speedup {sp} vs locked fair baseline"
            );
        }
        // Claim 2: static unfairness victimizes the incompatible VGG19;
        // adaptive does not.
        let (static_victim, adaptive_victim) = r.victim_speedups();
        assert!(
            static_victim.0 < 0.98,
            "static unfairness should hurt the victim (got {static_victim})"
        );
        assert!(
            adaptive_victim.0 > 0.98,
            "adaptive unfairness should spare the victim (got {adaptive_victim})"
        );
        assert!(adaptive_victim.0 > static_victim.0 + 0.02);
        assert!(r.render().contains("adaptive"));
    }
}
