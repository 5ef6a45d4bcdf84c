//! §4.iii: precise flow scheduling.
//!
//! The solver's rotation angles *are* time-shifts: a centralized scheduler
//! releases each job's communication phase only in its assigned slot.
//! Pipeline: profile jobs → solve rotations on the unified circle →
//! convert rotations to [`netsim::fluid::Gate`]s → run. Compatible jobs
//! then never contend, from the very first iteration — no unfairness in
//! the transport at all (the trade-off the paper notes is the need for
//! tight time synchronization, which a simulator gets for free).

use crate::metrics::{JobStats, Speedup};
use crate::parallel;
use geometry::{solve, GeometryError, Profile, SolverConfig};
use netsim::fluid::FluidConfig;
use scheduler::{gates_from_rotations, gating_profiles};
use simtime::{Bandwidth, Dur, Time};
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct FlowschedConfig {
    /// Jobs sharing the bottleneck (must be compatible for gating to win).
    pub jobs: Vec<JobSpec>,
    /// Solver settings.
    pub solver: SolverConfig,
    /// Profile quantization grid.
    pub grid: Dur,
    /// Iterations per scenario.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
}

impl Default for FlowschedConfig {
    fn default() -> FlowschedConfig {
        FlowschedConfig {
            jobs: vec![
                JobSpec::reference(Model::WideResNet50, 800),
                JobSpec::reference(Model::Vgg16, 1400),
            ],
            solver: SolverConfig::default(),
            grid: Dur::from_micros(2_500),
            iterations: 20,
            warmup: 5,
        }
    }
}

/// Why a flow-scheduling run could not produce a result. Job lists and
/// solver inputs are caller-supplied, so misconfigurations surface as
/// errors instead of panics (same contract as the cluster experiment).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowschedError {
    /// The configured job list is empty.
    NoJobs,
    /// The jobs' profiles were rejected by the solver.
    Profiles(GeometryError),
    /// The solver deemed the jobs incompatible — flow scheduling
    /// presupposes a feasible schedule.
    Incompatible,
    /// Jobs did not finish the requested iterations within the time
    /// budget.
    Incomplete {
        /// Iterations that were requested.
        iterations: usize,
    },
}

impl std::fmt::Display for FlowschedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowschedError::NoJobs => write!(f, "flowsched: no jobs configured"),
            FlowschedError::Profiles(e) => write!(f, "flowsched: invalid profiles: {e}"),
            FlowschedError::Incompatible => {
                write!(f, "flowsched: flow scheduling requires compatible jobs")
            }
            FlowschedError::Incomplete { iterations } => {
                write!(f, "flowsched: jobs did not finish {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for FlowschedError {}

/// The §4.iii result.
#[derive(Debug, Clone)]
pub struct FlowschedResult {
    /// Per-job stats under ungated max-min sharing.
    pub fair: Vec<JobStats>,
    /// Per-job stats with solver-scheduled communication slots.
    pub scheduled: Vec<JobStats>,
    /// The rotation-derived time shifts applied, per job.
    pub shifts: Vec<Dur>,
}

impl FlowschedResult {
    /// Scheduled-over-fair speedups per job.
    pub fn speedups(&self) -> Vec<Speedup> {
        self.fair
            .iter()
            .zip(&self.scheduled)
            .map(|(f, s)| s.speedup_vs(f))
            .collect()
    }

    /// Renders a summary table.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "job".to_string(),
            "time-shift".to_string(),
            "fair".to_string(),
            "scheduled".to_string(),
            "speed-up".to_string(),
        ]];
        for (i, s) in self.speedups().iter().enumerate() {
            rows.push(vec![
                self.fair[i].label.clone(),
                format!("{}", self.shifts[i]),
                format!("{:.0} ms", self.fair[i].median_ms()),
                format!("{:.0} ms", self.scheduled[i].median_ms()),
                s.to_string(),
            ]);
        }
        crate::metrics::text_table(&rows)
    }
}

fn run_with_gates<R: Recorder>(
    jobs: &[JobSpec],
    gates: Vec<Option<netsim::fluid::Gate>>,
    cfg: &FlowschedConfig,
    rec: R,
) -> Result<Vec<JobStats>, FlowschedError> {
    let fluid_cfg = FluidConfig {
        gates,
        ..FluidConfig::fair()
    };
    super::run_on_dumbbell(jobs, fluid_cfg, cfg.iterations, cfg.warmup, rec).ok_or(
        FlowschedError::Incomplete {
            iterations: cfg.iterations,
        },
    )
}

/// Runs ungated max-min vs solver-scheduled gating.
///
/// # Panics
/// Panics on any [`FlowschedError`] (incompatible or empty job lists, jobs
/// that don't finish); use [`try_run`] to handle failures.
pub fn run(cfg: &FlowschedConfig) -> FlowschedResult {
    try_run(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs ungated max-min vs solver-scheduled gating, surfacing
/// misconfigured job lists as [`FlowschedError`] instead of panicking.
pub fn try_run(cfg: &FlowschedConfig) -> Result<FlowschedResult, FlowschedError> {
    try_run_traced(cfg, NoopRecorder)
}

/// [`try_run`] with telemetry streamed into `rec`, one [`Event::Scenario`]
/// marker per scenario. Both scenarios run in parallel under
/// [`parallel::jobs`] workers with results and telemetry identical to a
/// serial run.
pub fn try_run_traced<R: ForkableRecorder>(
    cfg: &FlowschedConfig,
    mut rec: R,
) -> Result<FlowschedResult, FlowschedError> {
    if cfg.jobs.is_empty() {
        return Err(FlowschedError::NoJobs);
    }
    let profiles: Vec<Profile> = gating_profiles(&cfg.jobs, Bandwidth::from_gbps(50), cfg.grid);
    let verdict = solve(&profiles, &cfg.solver).map_err(FlowschedError::Profiles)?;
    let rotations = verdict
        .rotations()
        .ok_or(FlowschedError::Incompatible)?
        .to_vec();
    let offsets = vec![Dur::ZERO; cfg.jobs.len()];
    let gates = gates_from_rotations(&profiles, &rotations, &offsets);
    let shifts = rotations.iter().map(|r| r.shift).collect();

    let units: [(&str, Vec<Option<netsim::fluid::Gate>>); 2] = [
        ("flowsched/fair", Vec::new()),
        ("flowsched/scheduled", gates),
    ];
    let mut out = parallel::try_map_traced(&mut rec, &units, |_, (name, gates), fork| {
        if R::ENABLED {
            fork.record(
                Time::ZERO,
                Event::Scenario {
                    name: (*name).into(),
                },
            );
        }
        run_with_gates(&cfg.jobs, gates.clone(), cfg, fork)
    })?;
    let scheduled = out.pop().expect("two scenarios");
    let fair = out.pop().expect("two scenarios");
    Ok(FlowschedResult {
        fair,
        scheduled,
        shifts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_slots_beat_fair_sharing() {
        let cfg = FlowschedConfig {
            iterations: 12,
            warmup: 5,
            ..FlowschedConfig::default()
        };
        let r = run(&cfg);
        let cap = Bandwidth::from_gbps(50);
        for (i, s) in r.speedups().iter().enumerate() {
            assert!(s.is_improvement(), "job {i}: gating slowed it down ({s})");
            // Under gating each job runs within a grid-step of solo pace.
            let solo = cfg.jobs[i].iteration_time_at(cap).as_millis_f64();
            let got = r.scheduled[i].median_ms();
            assert!(
                got <= solo + cfg.grid.as_millis_f64() + 1.0,
                "job {i}: {got:.1} ms vs solo {solo:.1} ms"
            );
        }
        // At least one job must actually be shifted.
        assert!(
            r.shifts.iter().any(|s| !s.is_zero()),
            "no shift applied: {:?}",
            r.shifts
        );
        assert!(r.render().contains("time-shift"));
    }

    #[test]
    fn try_run_surfaces_empty_job_list() {
        let cfg = FlowschedConfig {
            jobs: Vec::new(),
            ..FlowschedConfig::default()
        };
        match try_run(&cfg) {
            Err(FlowschedError::NoJobs) => {}
            other => panic!("expected NoJobs, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn try_run_surfaces_incompatibility() {
        let cfg = FlowschedConfig {
            jobs: vec![
                JobSpec::reference(Model::BertLarge, 8),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            iterations: 2,
            warmup: 0,
            ..FlowschedConfig::default()
        };
        match try_run(&cfg) {
            Err(FlowschedError::Incompatible) => {}
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "requires compatible jobs")]
    fn incompatible_jobs_rejected() {
        let cfg = FlowschedConfig {
            jobs: vec![
                JobSpec::reference(Model::BertLarge, 8),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            iterations: 2,
            warmup: 0,
            ..FlowschedConfig::default()
        };
        let _ = run(&cfg);
    }
}
