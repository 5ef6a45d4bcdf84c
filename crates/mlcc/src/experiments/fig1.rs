//! Fig. 1: the surprising payoff of unfairness.
//!
//! Two VGG19 training jobs share a 50 Gbps bottleneck. Scenario 1 runs
//! default (fair) DCQCN with `T = 125 µs` for both; scenario 2 makes `J1`
//! aggressive with `T = 100 µs`. The paper reports:
//!
//! * Fig. 1b — fair: both jobs get ≈ half the link in the first iteration;
//! * Fig. 1c — unfair: ≈ 30 vs 15 Gbps (a ≈ 2:1 split);
//! * Fig. 1d — over 1000 iterations, the CDF of iteration times improves
//!   for *both* jobs under unfairness (≈ 1.23× at the median on the
//!   testbed).

use super::{chaos_horizon, nominal_iteration, run_rate, Fork};
use crate::experiments::chaos;
use crate::metrics::{text_table, JobStats, Speedup};
use crate::parallel;
use dcqcn::CcVariant;
use eventsim::TimeSeries;
use faults::ChaosConfig;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use simtime::{Dur, Time};
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// The two competing jobs (paper: two VGG19s; batch 1200 matches the
    /// Table 1 calibration).
    pub jobs: [JobSpec; 2],
    /// Iterations to run (paper: 1000; use fewer for quick runs — the
    /// steady state locks within a handful).
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
    /// Aggressive timer for `J1` in scenario 2.
    pub aggressive_timer: Dur,
    /// Start offset of `J2`. Zero (the default) is the paper's Fig. 1
    /// convention of synchronized starts. The zoo sweep sets a few
    /// milliseconds: real clusters never start two jobs on the same
    /// nanosecond, and the offset seeds the phase asymmetry the
    /// self-organizing variants act on (a deterministic engine keeps two
    /// perfectly synchronized identical jobs symmetric forever).
    pub stagger: Dur,
    /// Engine configuration.
    pub sim: RateSimConfig,
    /// Fault injection applied to both scenarios.
    /// [`ChaosConfig::none`] leaves the experiment bit-identical to a
    /// chaos-free run.
    pub chaos: ChaosConfig,
}

impl Default for Fig1Config {
    fn default() -> Fig1Config {
        let sim = RateSimConfig {
            trace_interval: Some(Dur::from_millis(1)),
            ..RateSimConfig::default()
        };
        Fig1Config {
            jobs: [
                JobSpec::reference(Model::Vgg19, 1200),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            iterations: 100,
            warmup: 5,
            aggressive_timer: Dur::from_micros(100),
            stagger: Dur::ZERO,
            sim,
            chaos: ChaosConfig::none(),
        }
    }
}

impl Fig1Config {
    /// The simulated span a run's chaos plan covers (two nominal
    /// iterations per iteration run). A fork point must fall before it.
    /// Saturates at [`Dur::MAX`] for absurd iteration counts.
    pub fn horizon(&self) -> Dur {
        chaos_horizon(
            nominal_iteration(&self.jobs, self.sim.capacity),
            self.iterations,
        )
    }
}

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Iteration-time statistics per job.
    pub stats: Vec<JobStats>,
    /// Mean bandwidth (Gbps) of each job during the *overlapped part of
    /// the first communication phase* — the Fig. 1b/1c numbers.
    pub first_iteration_bw: Vec<f64>,
    /// Per-job throughput traces (Gbps, 1 ms samples).
    pub traces: Vec<TimeSeries>,
    /// For each of `J1`'s iterations: `(start of the iteration in ms,
    /// ms during which both jobs were simultaneously busy)` — the Fig. 2
    /// contention profile, powering the zoo sweep's time-to-interleave.
    /// Empty when the engine traces no rates.
    pub contention: Vec<(f64, f64)>,
}

impl Scenario {
    /// The instant (ms) the scenario's phases first interleave: the start
    /// of the first iteration whose contended time drops below 5% of the
    /// first iteration's (Fig. 2's criterion). `None` while contention
    /// persists or without traces.
    pub fn time_to_interleave_ms(&self) -> Option<f64> {
        let first = self.contention.first()?.1;
        if first <= 0.0 {
            return Some(0.0);
        }
        self.contention
            .iter()
            .find(|&&(_, ms)| ms < 0.05 * first)
            .map(|&(at, _)| at)
    }
}

/// The full Fig. 1 result.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Scenario 1: fair DCQCN.
    pub fair: Scenario,
    /// Scenario 2: J1 aggressive.
    pub unfair: Scenario,
}

impl Fig1Result {
    /// Median speedups of scenario 2 over scenario 1, per job.
    pub fn speedups(&self) -> Vec<Speedup> {
        self.fair
            .stats
            .iter()
            .zip(&self.unfair.stats)
            .map(|(f, u)| u.speedup_vs(f))
            .collect()
    }

    /// Renders the Fig. 1 summary as text.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "job".to_string(),
            "1st-iter bw fair".to_string(),
            "1st-iter bw unfair".to_string(),
            "median fair".to_string(),
            "median unfair".to_string(),
            "speed-up".to_string(),
        ]];
        for (i, s) in self.speedups().iter().enumerate() {
            rows.push(vec![
                self.fair.stats[i].label.clone(),
                format!("{:.1} Gbps", self.fair.first_iteration_bw[i]),
                format!("{:.1} Gbps", self.unfair.first_iteration_bw[i]),
                format!("{:.1} ms", self.fair.stats[i].median_ms()),
                format!("{:.1} ms", self.unfair.stats[i].median_ms()),
                s.to_string(),
            ]);
        }
        text_table(&rows)
    }
}

/// The geometry solver's predicted overlap fraction for the Fig. 1 pair:
/// what the jobs *could* achieve under rotation scheduling. The `explain`
/// attribution cross-checks measured contention against this promise —
/// the paper's point is that unmanaged (fair) DCQCN contends even when
/// geometry says the jobs are compatible.
pub fn predicted_overlap(cfg: &Fig1Config) -> f64 {
    let solver = geometry::SolverConfig::default();
    let profiles: Vec<geometry::Profile> = cfg
        .jobs
        .iter()
        .map(|s| scheduler::analytic_profile(s, cfg.sim.capacity, Dur::from_micros(2_500)))
        .collect();
    match geometry::solve(&profiles, &solver) {
        Ok(geometry::Verdict::Compatible { rotations, .. }) => {
            geometry::overlap_fraction_of(&profiles, &rotations, solver.sectors).unwrap_or(0.0)
        }
        Ok(geometry::Verdict::Incompatible {
            best_overlap_fraction,
        })
        | Ok(geometry::Verdict::Inconclusive {
            best_overlap_fraction,
        }) => best_overlap_fraction,
        Err(_) => 1.0,
    }
}

/// Extracts a finished run's [`Scenario`] numbers.
fn collect_scenario<R: Recorder>(cfg: &Fig1Config, sim: &RateSimulator<R>) -> Scenario {
    // First-iteration bandwidth: mean rate over the overlapped window of
    // the first communication phases, [max compute end, first completion).
    // Under chaos a job may depart before completing an iteration; fall
    // back to one nominal iteration's window then.
    let comm_start = Time::ZERO + cfg.jobs[0].compute_time().max(cfg.jobs[1].compute_time());
    let first_done = (0..2)
        .filter_map(|i| sim.progress(i).iterations().first().map(|it| it.completed))
        .min()
        .unwrap_or(comm_start + nominal_iteration(&cfg.jobs, cfg.sim.capacity));
    let first_iteration_bw = (0..2)
        .map(|i| sim.rate_trace(i).mean(comm_start, first_done))
        .collect();
    let traces: Vec<TimeSeries> = (0..2).map(|i| sim.rate_trace(i).clone()).collect();

    // Contended time per J1 iteration (Fig. 2's measure): 1 ms samples
    // where both jobs exceed 1 Gbps. Needs rate traces.
    let contention = if cfg.sim.trace_interval.is_some() {
        let step = Dur::from_millis(1);
        sim.progress(0)
            .iterations()
            .iter()
            .take(cfg.iterations)
            .map(|it| {
                let a = traces[0].resample(it.started, it.completed, step);
                let b = traces[1].resample(it.started, it.completed, step);
                let contended = a
                    .iter()
                    .zip(&b)
                    .filter(|(&x, &y)| x >= 1.0 && y >= 1.0)
                    .count() as f64;
                (it.started.elapsed().as_millis_f64(), contended)
            })
            .collect()
    } else {
        Vec::new()
    };

    Scenario {
        stats: (0..2)
            .map(|i| chaos::stats_tolerant(sim.progress(i), cfg.warmup))
            .collect(),
        first_iteration_bw,
        traces,
        contention,
    }
}

/// One cell of the variant × scenario matrix: a scenario name and the
/// variant each of the two contending jobs runs.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Scenario marker name (e.g. `"fig1/fair"`, `"variants/mltcp"`).
    pub name: String,
    /// Per-job congestion-control variants.
    pub variants: [CcVariant; 2],
    /// Per-cell override of [`Fig1Config::stagger`]. The zoo sweep gives
    /// self-organizing variants a realistic staggered start while the
    /// fair baseline keeps the paper's synchronized convention (the
    /// methodology of §4.i / `experiments::adaptive`).
    pub stagger: Option<Dur>,
}

impl MatrixCell {
    /// Builds a cell using the config's stagger.
    pub fn new(name: &str, variants: [CcVariant; 2]) -> MatrixCell {
        MatrixCell {
            name: name.to_string(),
            variants,
            stagger: None,
        }
    }

    /// Overrides the cell's `J2` start offset.
    pub fn with_stagger(mut self, stagger: Dur) -> MatrixCell {
        self.stagger = Some(stagger);
        self
    }

    /// The cell's two jobs: its variants, `J2` starting at its stagger.
    fn jobs(&self, cfg: &Fig1Config) -> [RateJob; 2] {
        let mut jobs = [
            RateJob::new(cfg.jobs[0], self.variants[0]),
            RateJob::new(cfg.jobs[1], self.variants[1]),
        ];
        jobs[1].start_offset = self.stagger.unwrap_or(cfg.stagger);
        jobs
    }
}

/// The paper's two Fig. 1 cells: fair DCQCN, and `J1` on the aggressive
/// timer.
pub fn default_cells(cfg: &Fig1Config) -> Vec<MatrixCell> {
    vec![
        MatrixCell::new("fig1/fair", [CcVariant::Fair, CcVariant::Fair]),
        MatrixCell::new(
            "fig1/unfair",
            [
                CcVariant::StaticUnfair {
                    timer: cfg.aggressive_timer,
                },
                CcVariant::Fair,
            ],
        ),
    ]
}

/// The congestion-control zoo on the contended Fig. 1 pair: one cell per
/// controller family. Self-organizing variants run on *both* jobs (their
/// whole point is symmetric deployment) with a realistic staggered start
/// — real clusters never start two jobs on the same nanosecond, and the
/// offset seeds the asymmetry their progress feedback amplifies. The
/// static knobs go to `J1` only (the paper's asymmetric aggression) and
/// the fair baseline keeps the paper's synchronized-start convention,
/// where fair DCQCN locks both jobs into perpetual contention at
/// `K + 2C` — the same methodology as §4.i (`experiments::adaptive`).
pub fn zoo_cells(cfg: &Fig1Config) -> Vec<MatrixCell> {
    let aggressive = CcVariant::StaticUnfair {
        timer: cfg.aggressive_timer,
    };
    let mltcp = CcVariant::Mltcp { bonus: 1.0 };
    let decay = CcVariant::Policy {
        policy: dcqcn::FairnessPolicy::BonusDecay {
            bonus: 1.0,
            decay: 2.0,
        },
    };
    let prop = CcVariant::Policy {
        policy: dcqcn::FairnessPolicy::Proportional { weight: 1.25 },
    };
    let swift = CcVariant::Swift {
        target_delay: Dur::from_micros(30),
    };
    let seed = Dur::from_millis(15);
    vec![
        MatrixCell::new("variants/fair", [CcVariant::Fair, CcVariant::Fair]),
        MatrixCell::new("variants/static-unfair", [aggressive, CcVariant::Fair]),
        MatrixCell::new(
            "variants/adaptive",
            [CcVariant::AdaptiveUnfair, CcVariant::AdaptiveUnfair],
        )
        .with_stagger(seed),
        MatrixCell::new("variants/mltcp", [mltcp, mltcp]).with_stagger(seed),
        MatrixCell::new("variants/policy-prop", [prop, CcVariant::Fair]),
        MatrixCell::new("variants/policy-decay", [decay, decay]).with_stagger(seed),
        MatrixCell::new("variants/swift", [swift, swift]),
    ]
}

/// A full variant × scenario matrix run: one [`Scenario`] per cell, in
/// cell order.
#[derive(Debug, Clone)]
pub struct Fig1Matrix {
    /// `(cell name, outcome)` pairs.
    pub cells: Vec<(String, Scenario)>,
}

impl Fig1Matrix {
    /// The named cell's outcome.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.cells.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders per-cell medians, bandwidth splits, and interleave onset.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "cell".to_string(),
            "j1 median".to_string(),
            "j2 median".to_string(),
            "1st-iter bw".to_string(),
            "interleaved at".to_string(),
        ]];
        for (name, s) in &self.cells {
            rows.push(vec![
                name.clone(),
                format!("{:.1} ms", s.stats[0].median_ms()),
                format!("{:.1} ms", s.stats[1].median_ms()),
                format!(
                    "{:.1}/{:.1} Gbps",
                    s.first_iteration_bw[0], s.first_iteration_bw[1]
                ),
                match s.time_to_interleave_ms() {
                    Some(ms) => format!("{ms:.0} ms"),
                    None => "never".to_string(),
                },
            ]);
        }
        text_table(&rows)
    }
}

/// Runs an arbitrary variant × scenario matrix, streaming telemetry into
/// `rec`. Each cell is announced with an [`Event::Scenario`] marker so
/// exporters can attribute the events that follow. Cells are independent
/// and run in parallel under [`parallel::jobs`] workers; results and
/// telemetry are identical to a serial run.
pub fn run_matrix_traced<R: ForkableRecorder>(
    cfg: &Fig1Config,
    cells: &[MatrixCell],
    rec: R,
) -> Fig1Matrix {
    run_cells(cfg, cells, None, rec)
}

/// [`run_matrix_traced`], with every cell resumed at `fork`'s barrier
/// when one is given.
fn run_cells<R: ForkableRecorder>(
    cfg: &Fig1Config,
    cells: &[MatrixCell],
    fork: Option<&Fork>,
    mut rec: R,
) -> Fig1Matrix {
    let out = parallel::map_traced(&mut rec, cells, |_, cell, rec| {
        if R::ENABLED {
            rec.record(
                Time::ZERO,
                Event::Scenario {
                    name: cell.name.clone(),
                },
            );
        }
        let sim = run_rate(
            &cell.name,
            &mut cell.jobs(cfg),
            cfg.sim.clone(),
            &cfg.chaos,
            cfg.iterations,
            fork,
            rec,
        );
        collect_scenario(cfg, &sim)
    });
    Fig1Matrix {
        cells: cells.iter().map(|c| c.name.clone()).zip(out).collect(),
    }
}

/// The fair and unfair scenarios of a [`default_cells`] matrix.
fn fair_and_unfair(mut m: Fig1Matrix) -> Fig1Result {
    let unfair = m.cells.pop().expect("two scenarios").1;
    let fair = m.cells.pop().expect("two scenarios").1;
    Fig1Result { fair, unfair }
}

/// Runs both scenarios.
pub fn run(cfg: &Fig1Config) -> Fig1Result {
    run_traced(cfg, NoopRecorder)
}

/// Runs the paper's two scenarios — the [`default_cells`] matrix.
pub fn run_traced<R: ForkableRecorder>(cfg: &Fig1Config, rec: R) -> Fig1Result {
    fair_and_unfair(run_matrix_traced(cfg, &default_cells(cfg), rec))
}

/// Runs the [`default_cells`] matrix forked from a shared **fair**
/// prefix: both jobs run fair DCQCN to `fork_at` once, are snapshotted,
/// and each cell restores the snapshot — the unfair cell switches `J1` to
/// the aggressive timer *at the barrier* (as if its transport restarted
/// there), and `cfg.chaos` likewise applies from the barrier over the
/// remaining horizon. With `replay`, every cell re-simulates the fair
/// prefix instead — identical semantics, the byte-identity baseline for
/// the fork path.
///
/// The semantics intentionally differ from [`run_traced`], which runs
/// the aggressive timer from `t = 0`: forked results answer "what if the
/// variant changed mid-training", not Fig. 1's from-scratch comparison,
/// and the two entry points' numbers should not be mixed. The prefix
/// snapshot is cached process-wide keyed on the canonical config hash
/// (see [`crate::forkcache`]).
pub fn run_traced_forked<R: ForkableRecorder>(
    cfg: &Fig1Config,
    rec: R,
    fork_at: Dur,
    replay: bool,
) -> Fig1Result {
    let cells = default_cells(cfg);
    let prefix = cells[0].jobs(cfg);
    let fork = Fork::new(&prefix, &cfg.sim, fork_at, replay);
    fair_and_unfair(run_cells(cfg, &cells, Some(&fork), rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::BufferRecorder;

    fn quick_cfg() -> Fig1Config {
        Fig1Config {
            iterations: 10,
            warmup: 3,
            ..Fig1Config::default()
        }
    }

    #[test]
    fn fig1_shapes_hold() {
        let r = run(&quick_cfg());
        // Fig. 1b: fair first-iteration split is symmetric, each within
        // (15, 30) Gbps of the 50 Gbps link.
        let f = &r.fair.first_iteration_bw;
        assert!((f[0] - f[1]).abs() < 3.0, "fair split {f:?} not symmetric");
        assert!(f[0] > 15.0 && f[0] < 30.0, "fair J1 bw {}", f[0]);
        // Fig. 1c: unfair split favours J1 — the aggressive job rises
        // above its fair share and the victim falls below. (The paper's
        // testbed saw 30/15; our fluid CNP model yields a milder but
        // same-shaped ≈27/23 split.)
        let u = &r.unfair.first_iteration_bw;
        assert!(
            u[0] > f[0] + 1.5 && u[1] < f[1] - 1.5 && u[0] - u[1] > 3.0,
            "unfair split {u:?} lacks J1 advantage (fair {f:?})"
        );
        // Fig. 1d: both jobs' medians improve under unfairness.
        for (i, s) in r.speedups().iter().enumerate() {
            assert!(s.0 > 1.1, "job {i}: speedup {s} below the paper's ballpark");
        }
        // Render has a row per job plus header/rule.
        assert_eq!(r.render().lines().count(), 4);
    }

    /// The horizon and the budget saturate instead of wrapping, and are
    /// unchanged for every real count.
    #[test]
    fn absurd_iteration_counts_saturate() {
        let budget = |cfg: &Fig1Config| {
            let nominal = nominal_iteration(&cfg.jobs, cfg.sim.capacity);
            super::super::rate_budget(nominal, cfg.iterations, 2, &cfg.chaos)
        };
        let cfg = Fig1Config {
            iterations: usize::MAX,
            ..Fig1Config::default()
        };
        assert_eq!(cfg.horizon(), Dur::MAX);
        assert_eq!(budget(&cfg), Dur::MAX);
        let cfg = quick_cfg();
        let per_iter = nominal_iteration(&cfg.jobs, cfg.sim.capacity);
        assert_eq!(cfg.horizon(), per_iter * 20);
        assert_eq!(budget(&cfg), per_iter * 80);
    }

    #[test]
    fn forked_fig1_matches_replay_byte_for_byte() {
        let cfg = quick_cfg();
        let fork_at = Dur::from_millis(100);
        let mut forked_rec = BufferRecorder::new();
        let forked = run_traced_forked(&cfg, &mut forked_rec, fork_at, false);
        let mut replay_rec = BufferRecorder::new();
        let replayed = run_traced_forked(&cfg, &mut replay_rec, fork_at, true);
        assert_eq!(
            forked_rec.events(),
            replay_rec.events(),
            "forked telemetry diverged from the replayed prefix"
        );
        for (f, r) in [
            (&forked.fair, &replayed.fair),
            (&forked.unfair, &replayed.unfair),
        ] {
            assert_eq!(f.first_iteration_bw, r.first_iteration_bw);
            for (fs, rs) in f.stats.iter().zip(&r.stats) {
                assert_eq!(fs.median_ms(), rs.median_ms());
            }
        }
        // The mid-training variant switch still confers the paper's
        // advantage on the aggressive job.
        assert!(
            forked.unfair.stats[0].median_ms() <= forked.fair.stats[0].median_ms() + 0.5,
            "aggressive job should not regress after the barrier switch"
        );
    }

    #[test]
    fn predicted_overlap_is_a_fraction() {
        let p = predicted_overlap(&quick_cfg());
        assert!((0.0..=1.0).contains(&p), "predicted overlap {p}");
    }
}
