//! §4.ii: priority queues on switches.
//!
//! Instead of changing congestion control, the end-hosts mark packets with
//! a scheduler-assigned priority and the switch serves classes strictly —
//! mimicking unfairness with zero NIC changes. For compatible jobs with
//! unique priorities, the paper expects the same interleaving payoff as
//! unfair congestion control. The cited caveat — switches have only a few
//! queues — is exercised through [`scheduler::assign_priorities`].

use crate::metrics::{JobStats, Speedup};
use crate::parallel;
use netsim::fluid::{FluidConfig, SharingPolicy};
use scheduler::assign_priorities;
use simtime::Time;
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct PriorityConfig {
    /// Jobs sharing the bottleneck (compatible by default).
    pub jobs: Vec<JobSpec>,
    /// Switch priority queues available (8 on commodity switches).
    pub queues: usize,
    /// Iterations per scenario.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
}

impl Default for PriorityConfig {
    fn default() -> PriorityConfig {
        PriorityConfig {
            jobs: vec![
                JobSpec::reference(Model::Vgg19, 1200),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            queues: 8,
            iterations: 20,
            warmup: 5,
        }
    }
}

/// Why a priority-queue run could not produce a result. Job lists are
/// caller-supplied, so misconfigurations surface as errors instead of
/// panics (same contract as the cluster experiment).
#[derive(Debug, Clone, PartialEq)]
pub enum PriorityError {
    /// The configured job list is empty.
    NoJobs,
    /// More jobs than switch priority queues (the §4.ii caveat).
    Queues(scheduler::PriorityError),
    /// Jobs did not finish the requested iterations within the time
    /// budget.
    Incomplete {
        /// Iterations that were requested.
        iterations: usize,
    },
}

impl std::fmt::Display for PriorityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PriorityError::NoJobs => write!(f, "priority: no jobs configured"),
            PriorityError::Queues(e) => {
                write!(f, "priority: more jobs than switch priority queues: {e}")
            }
            PriorityError::Incomplete { iterations } => {
                write!(f, "priority: jobs did not finish {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for PriorityError {}

impl From<scheduler::PriorityError> for PriorityError {
    fn from(e: scheduler::PriorityError) -> PriorityError {
        PriorityError::Queues(e)
    }
}

/// The §4.ii result.
#[derive(Debug, Clone)]
pub struct PriorityResult {
    /// Per-job stats under max-min (fair) sharing.
    pub fair: Vec<JobStats>,
    /// Per-job stats under strict priorities.
    pub prioritized: Vec<JobStats>,
    /// The priority classes assigned.
    pub classes: Vec<u8>,
}

impl PriorityResult {
    /// Priority-over-fair speedups per job.
    pub fn speedups(&self) -> Vec<Speedup> {
        self.fair
            .iter()
            .zip(&self.prioritized)
            .map(|(f, p)| p.speedup_vs(f))
            .collect()
    }

    /// Renders a summary table.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "job".to_string(),
            "priority".to_string(),
            "fair".to_string(),
            "prioritized".to_string(),
            "speed-up".to_string(),
        ]];
        for (i, s) in self.speedups().iter().enumerate() {
            rows.push(vec![
                self.fair[i].label.clone(),
                self.classes[i].to_string(),
                format!("{:.0} ms", self.fair[i].median_ms()),
                format!("{:.0} ms", self.prioritized[i].median_ms()),
                s.to_string(),
            ]);
        }
        crate::metrics::text_table(&rows)
    }
}

fn run_policy<R: Recorder>(
    jobs: &[JobSpec],
    policy: SharingPolicy,
    cfg: &PriorityConfig,
    rec: R,
) -> Result<Vec<JobStats>, PriorityError> {
    let fluid_cfg = FluidConfig {
        policy,
        ..FluidConfig::fair()
    };
    super::run_on_dumbbell(jobs, fluid_cfg, cfg.iterations, cfg.warmup, rec).ok_or(
        PriorityError::Incomplete {
            iterations: cfg.iterations,
        },
    )
}

/// Runs max-min vs strict-priority sharing.
///
/// # Panics
/// Panics on any [`PriorityError`] (more jobs than switch queues, empty
/// job lists, jobs that don't finish); use [`try_run`] to handle failures.
pub fn run(cfg: &PriorityConfig) -> PriorityResult {
    try_run(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs max-min vs strict-priority sharing, surfacing misconfigured job
/// lists as [`PriorityError`] instead of panicking.
pub fn try_run(cfg: &PriorityConfig) -> Result<PriorityResult, PriorityError> {
    try_run_traced(cfg, NoopRecorder)
}

/// [`try_run`] with telemetry streamed into `rec`, one [`Event::Scenario`]
/// marker per scenario. Both policies run in parallel under
/// [`parallel::jobs`] workers with results and telemetry identical to a
/// serial run.
pub fn try_run_traced<R: ForkableRecorder>(
    cfg: &PriorityConfig,
    mut rec: R,
) -> Result<PriorityResult, PriorityError> {
    if cfg.jobs.is_empty() {
        return Err(PriorityError::NoJobs);
    }
    let classes = assign_priorities(cfg.jobs.len(), cfg.queues)?;
    let units: [(&str, SharingPolicy); 2] = [
        ("priority/fair", SharingPolicy::MaxMin),
        (
            "priority/prioritized",
            SharingPolicy::Priority(classes.clone()),
        ),
    ];
    let mut out = parallel::try_map_traced(&mut rec, &units, |_, (name, policy), fork| {
        if R::ENABLED {
            fork.record(
                Time::ZERO,
                Event::Scenario {
                    name: (*name).into(),
                },
            );
        }
        run_policy(&cfg.jobs, policy.clone(), cfg, fork)
    })?;
    let prioritized = out.pop().expect("two scenarios");
    let fair = out.pop().expect("two scenarios");
    Ok(PriorityResult {
        fair,
        prioritized,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_interleave_compatible_jobs() {
        let cfg = PriorityConfig {
            iterations: 12,
            warmup: 5,
            ..PriorityConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.classes.len(), 2);
        assert_ne!(r.classes[0], r.classes[1], "classes must be unique");
        for (i, s) in r.speedups().iter().enumerate() {
            assert!(
                s.0 > 1.2,
                "job {i}: priority speedup only {s} (expected the full\
                 fair→solo gain on this compatible pair)"
            );
        }
        assert!(r.render().contains("priority"));
    }

    #[test]
    fn try_run_surfaces_queue_exhaustion() {
        let cfg = PriorityConfig {
            jobs: vec![JobSpec::reference(Model::ResNet50, 1600); 9],
            queues: 8,
            iterations: 2,
            warmup: 0,
        };
        match try_run(&cfg) {
            Err(PriorityError::Queues(scheduler::PriorityError::NotEnoughQueues {
                jobs: 9,
                queues: 8,
            })) => {}
            other => panic!("expected NotEnoughQueues, got {other:?}"),
        }
    }

    #[test]
    fn try_run_surfaces_empty_job_list() {
        let cfg = PriorityConfig {
            jobs: Vec::new(),
            ..PriorityConfig::default()
        };
        match try_run(&cfg) {
            Err(PriorityError::NoJobs) => {}
            other => panic!("expected NoJobs, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "more jobs than switch priority queues")]
    fn too_many_jobs_for_queues_panics() {
        let cfg = PriorityConfig {
            jobs: vec![JobSpec::reference(Model::ResNet50, 1600); 9],
            queues: 8,
            iterations: 2,
            warmup: 0,
        };
        let _ = run(&cfg);
    }
}
