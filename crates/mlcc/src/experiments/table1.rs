//! Table 1: which job groups does unfairness help?
//!
//! Five groups of jobs share a 50 Gbps bottleneck. Each group runs twice:
//! under default fair DCQCN, and under static unfairness with
//! aggressiveness following the group's job order (each job's timer `T`
//! strictly smaller — more aggressive — than the next job's). A group is
//! **fully compatible** when unfairness speeds up *every* job in it.
//!
//! The paper's green rows are groups 2 (DLRM ×2), 4 (WideResNet + VGG16)
//! and 5 (VGG19 + VGG16 + ResNet50); groups 1 and 3 (the BERT mixes) are
//! incompatible: the aggressive BERT gains while a victim loses.
//!
//! We additionally run the geometry solver on each group's analytic
//! profiles; its verdict must agree with the measured green/red outcome —
//! that cross-check is the reproduction's central scientific claim.

use super::run_rate;
use crate::experiments::chaos;
use crate::metrics::{text_table, JobStats, Speedup};
use crate::parallel;
use dcqcn::CcVariant;
use faults::ChaosConfig;
use geometry::{solve, SolverConfig, Verdict};
use netsim::rate::{RateJob, RateSimConfig};
use netsim::Engine;
use scheduler::analytic_profile;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Iterations measured per scenario.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
    /// Timers assigned in job order for the unfair scenario: job `k` of
    /// `n` gets `min + k·(max−min)/(n−1)`.
    pub timer_range: (Dur, Dur),
    /// Geometry solver settings for the predicted-compatibility column.
    pub solver: SolverConfig,
    /// Profile quantization grid.
    pub grid: Dur,
    /// Fault injection applied to every group's measurements.
    /// [`ChaosConfig::none`] leaves the experiment bit-identical to a
    /// chaos-free run.
    pub chaos: ChaosConfig,
}

impl Default for Table1Config {
    fn default() -> Table1Config {
        Table1Config {
            iterations: 30,
            warmup: 5,
            timer_range: (Dur::from_micros(100), Dur::from_micros(125)),
            solver: SolverConfig::default(),
            grid: Dur::from_micros(2_500),
            chaos: ChaosConfig::none(),
        }
    }
}

/// The five job groups of Table 1, in paper order.
pub fn paper_groups() -> Vec<Vec<JobSpec>> {
    let j = JobSpec::reference;
    vec![
        vec![j(Model::BertLarge, 8), j(Model::Vgg19, 1200)],
        vec![j(Model::Dlrm, 2000), j(Model::Dlrm, 2000)],
        vec![
            j(Model::BertLarge, 8),
            j(Model::Vgg19, 1400),
            j(Model::WideResNet50, 800),
        ],
        vec![j(Model::WideResNet50, 800), j(Model::Vgg16, 1400)],
        vec![
            j(Model::Vgg19, 1400),
            j(Model::Vgg16, 1700),
            j(Model::ResNet50, 1600),
        ],
    ]
}

/// One job's row within a group.
#[derive(Debug, Clone)]
pub struct Row {
    /// Job label.
    pub label: String,
    /// Mean iteration time under fair DCQCN.
    pub fair: Dur,
    /// Mean iteration time under ordered unfairness.
    pub unfair: Dur,
    /// `fair / unfair`.
    pub speedup: Speedup,
}

/// One group's outcome.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// Per-job rows, in group order.
    pub rows: Vec<Row>,
    /// Measured: did unfairness speed up every job?
    pub fully_compatible_measured: bool,
    /// Predicted by the geometry solver on analytic profiles.
    pub predicted: Verdict,
}

impl GroupResult {
    /// `true` when the solver's verdict matches the measured outcome.
    pub fn prediction_agrees(&self) -> bool {
        self.predicted.is_compatible() == self.fully_compatible_measured
    }
}

/// The full Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// One result per group, in paper order.
    pub groups: Vec<GroupResult>,
}

impl Table1Result {
    /// Renders the table in the paper's layout (plus the prediction
    /// column).
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "jobs (batch)".to_string(),
            "fair iter".to_string(),
            "unfair iter".to_string(),
            "speed-up".to_string(),
            "fully compatible".to_string(),
            "geometry predicts".to_string(),
        ]];
        for g in &self.groups {
            for (i, r) in g.rows.iter().enumerate() {
                let (m, p) = if i == 0 {
                    (
                        if g.fully_compatible_measured {
                            "yes".to_string()
                        } else {
                            "no".to_string()
                        },
                        if g.predicted.is_compatible() {
                            "compatible".to_string()
                        } else {
                            format!(
                                "incompatible ({:.0}% overlap)",
                                g.predicted.overlap_fraction() * 100.0
                            )
                        },
                    )
                } else {
                    (String::new(), String::new())
                };
                rows.push(vec![
                    r.label.clone(),
                    format!("{:.0} ms", r.fair.as_millis_f64()),
                    format!("{:.0} ms", r.unfair.as_millis_f64()),
                    r.speedup.to_string(),
                    m,
                    p,
                ]);
            }
        }
        text_table(&rows)
    }
}

/// Ordered unfairness: job `k` of `n` gets a timer linearly interpolated
/// across `range` (first job most aggressive).
pub fn ordered_timers(n: usize, range: (Dur, Dur)) -> Vec<Dur> {
    assert!(n >= 1);
    let (lo, hi) = range;
    (0..n)
        .map(|k| {
            if n == 1 {
                lo
            } else {
                let span = (hi - lo).as_nanos();
                lo + Dur::from_nanos(span * k as u64 / (n as u64 - 1))
            }
        })
        .collect()
}

/// Runs `group` under `variants` on the 50 Gbps bottleneck and returns
/// each job's statistics.
fn mean_iteration_times<R: Recorder>(
    group: &[JobSpec],
    variants: &[CcVariant],
    cfg: &Table1Config,
    rec: R,
) -> Vec<JobStats> {
    let mut jobs: Vec<RateJob> = group
        .iter()
        .zip(variants)
        .map(|(&spec, &v)| RateJob::new(spec, v))
        .collect();
    let sim = run_rate(
        "table1",
        &mut jobs,
        RateSimConfig::default(),
        &cfg.chaos,
        cfg.iterations,
        None,
        rec,
    );
    (0..group.len())
        .map(|i| chaos::stats_tolerant(sim.progress(i), cfg.warmup))
        .collect()
}

/// Runs one group.
pub fn run_group(group: &[JobSpec], cfg: &Table1Config) -> GroupResult {
    run_group_traced(group, cfg, NoopRecorder)
}

/// The group's ordered-unfairness variants.
fn unfair_variants(n: usize, cfg: &Table1Config) -> Vec<CcVariant> {
    ordered_timers(n, cfg.timer_range)
        .iter()
        .map(|&t| CcVariant::StaticUnfair { timer: t })
        .collect()
}

/// Folds a group's fair and unfair measurements plus the geometry
/// prediction into its table row block.
fn assemble_group(
    group: &[JobSpec],
    cfg: &Table1Config,
    fair: &[JobStats],
    unfair: &[JobStats],
) -> GroupResult {
    let rows: Vec<Row> = group
        .iter()
        .enumerate()
        .map(|(i, spec)| Row {
            label: spec.label(),
            fair: fair[i].mean(),
            unfair: unfair[i].mean(),
            speedup: unfair[i].speedup_vs(&fair[i]),
        })
        .collect();
    let fully = rows.iter().all(|r| r.speedup.is_improvement());

    let profiles: Vec<geometry::Profile> = group
        .iter()
        .map(|s| analytic_profile(s, Bandwidth::from_gbps(50), cfg.grid))
        .collect();
    let predicted = solve(&profiles, &cfg.solver).expect("profiles are valid");

    GroupResult {
        rows,
        fully_compatible_measured: fully,
        predicted,
    }
}

/// Runs one group, streaming telemetry into `rec`.
pub fn run_group_traced<R: Recorder>(
    group: &[JobSpec],
    cfg: &Table1Config,
    mut rec: R,
) -> GroupResult {
    let n = group.len();
    let fair = mean_iteration_times(group, &vec![CcVariant::Fair; n], cfg, &mut rec);
    let unfair = mean_iteration_times(group, &unfair_variants(n, cfg), cfg, &mut rec);
    assemble_group(group, cfg, &fair, &unfair)
}

/// How a matrix scheme assigns congestion-control variants to a group's
/// jobs.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// Every job runs default fair DCQCN.
    Fair,
    /// The paper's unfair column: timers linearly interpolated across
    /// [`Table1Config::timer_range`] in job order.
    OrderedUnfair,
    /// Every job runs the same variant (the zoo sweep's mode).
    Uniform(CcVariant),
}

impl Scheme {
    /// Display label for table headers and bench metric keys.
    pub fn label(&self) -> String {
        match self {
            Scheme::Fair => "fair".to_string(),
            Scheme::OrderedUnfair => "unfair".to_string(),
            Scheme::Uniform(v) => match v {
                CcVariant::Fair => "uniform-fair".to_string(),
                CcVariant::StaticUnfair { .. } => "uniform-static".to_string(),
                CcVariant::AdaptiveUnfair => "adaptive".to_string(),
                CcVariant::Swift { .. } => "swift".to_string(),
                CcVariant::Mltcp { .. } => "mltcp".to_string(),
                CcVariant::Policy { .. } => "policy".to_string(),
            },
        }
    }

    /// The per-job variants for a group of `n` jobs.
    pub fn variants(&self, n: usize, cfg: &Table1Config) -> Vec<CcVariant> {
        match self {
            Scheme::Fair => vec![CcVariant::Fair; n],
            Scheme::OrderedUnfair => unfair_variants(n, cfg),
            Scheme::Uniform(v) => vec![*v; n],
        }
    }
}

/// A group × scheme matrix run: per-group, per-scheme, per-job iteration
/// statistics.
#[derive(Debug, Clone)]
pub struct Table1Matrix {
    /// The schemes measured, in column order.
    pub schemes: Vec<Scheme>,
    /// `stats[group][scheme][job]`.
    pub stats: Vec<Vec<Vec<JobStats>>>,
}

impl Table1Matrix {
    /// Renders mean iteration times, one row per group × job, one column
    /// per scheme.
    pub fn render(&self) -> String {
        let mut head = vec!["jobs (batch)".to_string()];
        head.extend(self.schemes.iter().map(|s| format!("{} iter", s.label())));
        let mut rows = vec![head];
        for group in &self.stats {
            let jobs = group.first().map_or(0, |s| s.len());
            for j in 0..jobs {
                let mut row = vec![group[0][j].label.clone()];
                row.extend(
                    group
                        .iter()
                        .map(|scheme| format!("{:.0} ms", scheme[j].mean().as_millis_f64())),
                );
                rows.push(row);
            }
        }
        text_table(&rows)
    }
}

/// Runs the paper's five groups under an arbitrary list of variant
/// schemes, streaming telemetry into `rec` with an [`Event::Scenario`]
/// marker (`table1/group<N>/<scheme>`) leading each unit. Every
/// group × scheme measurement is an independent simulation, so all run
/// in parallel under [`parallel::jobs`] workers; markers and event
/// stream come out identical to a serial run.
pub fn run_matrix_traced<R: ForkableRecorder>(
    cfg: &Table1Config,
    schemes: &[Scheme],
    mut rec: R,
) -> Table1Matrix {
    assert!(!schemes.is_empty(), "table1 matrix: no schemes");
    let groups = paper_groups();
    let units: Vec<(usize, usize)> = (0..groups.len())
        .flat_map(|i| (0..schemes.len()).map(move |s| (i, s)))
        .collect();
    let measured = parallel::map_traced(&mut rec, &units, |_, &(i, s), fork| {
        let group = &groups[i];
        if R::ENABLED {
            // Every unit is a simulation of its own that starts at t = 0,
            // so each opens its own scenario.
            fork.record(
                Time::ZERO,
                Event::Scenario {
                    name: format!("table1/group{}/{}", i + 1, schemes[s].label()),
                },
            );
        }
        mean_iteration_times(group, &schemes[s].variants(group.len(), cfg), cfg, fork)
    });
    Table1Matrix {
        schemes: schemes.to_vec(),
        stats: measured
            .chunks_exact(schemes.len())
            .map(|c| c.to_vec())
            .collect(),
    }
}

/// Runs all five paper groups.
pub fn run(cfg: &Table1Config) -> Table1Result {
    run_traced(cfg, NoopRecorder)
}

/// Runs all five paper groups under the paper's two schemes — the
/// `[Fair, OrderedUnfair]` matrix — and folds in the geometry
/// predictions.
pub fn run_traced<R: ForkableRecorder>(cfg: &Table1Config, rec: R) -> Table1Result {
    let m = run_matrix_traced(cfg, &[Scheme::Fair, Scheme::OrderedUnfair], rec);
    Table1Result {
        groups: paper_groups()
            .iter()
            .zip(&m.stats)
            .map(|(g, pair)| assemble_group(g, cfg, &pair[0], &pair[1]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Table1Config {
        Table1Config {
            iterations: 8,
            warmup: 3,
            ..Table1Config::default()
        }
    }

    #[test]
    fn ordered_timers_interpolate() {
        let t = ordered_timers(3, (Dur::from_micros(100), Dur::from_micros(125)));
        assert_eq!(
            t,
            vec![
                Dur::from_micros(100),
                Dur::from_nanos(112_500),
                Dur::from_micros(125)
            ]
        );
        assert_eq!(
            ordered_timers(1, (Dur::from_micros(100), Dur::from_micros(125))).len(),
            1
        );
    }

    /// Group 2 (DLRM ×2) is the paper's strongest green row: both jobs
    /// speed up ≈1.3×, and geometry agrees.
    #[test]
    fn dlrm_pair_is_fully_compatible() {
        let g = run_group(&paper_groups()[1], &quick());
        assert!(g.fully_compatible_measured, "rows: {:?}", g.rows);
        assert!(g.predicted.is_compatible());
        assert!(g.prediction_agrees());
        for r in &g.rows {
            assert!(
                r.speedup.0 > 1.15,
                "{}: speedup {} below DLRM ballpark",
                r.label,
                r.speedup
            );
        }
    }

    /// Group 1 (BERT + VGG19) is red: the victim VGG19 slows down, and
    /// geometry predicts incompatibility.
    #[test]
    fn bert_vgg_pair_is_incompatible() {
        let g = run_group(&paper_groups()[0], &quick());
        assert!(!g.fully_compatible_measured, "rows: {:?}", g.rows);
        assert!(!g.predicted.is_compatible());
        assert!(g.prediction_agrees());
        // BERT (aggressive) gains; VGG19 (victim) loses.
        assert!(g.rows[0].speedup.0 > 1.0, "BERT should gain: {:?}", g.rows);
        assert!(g.rows[1].speedup.0 < 1.0, "VGG19 should lose: {:?}", g.rows);
    }

    /// Group 4 (WRN + VGG16, equal periods) is green.
    #[test]
    fn wrn_vgg16_pair_is_fully_compatible() {
        let g = run_group(&paper_groups()[3], &quick());
        assert!(g.fully_compatible_measured, "rows: {:?}", g.rows);
        assert!(g.predicted.is_compatible());
    }
}
