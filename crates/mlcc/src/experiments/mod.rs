//! One module per paper artifact. See the crate docs for the mapping.

pub mod ablation;
pub mod adaptive;
pub mod chaos;
pub mod cluster;
pub mod fig1;
pub mod fig2;
pub mod flowsched;
pub mod geometry_demo;
pub mod pipelining;
pub mod priority;
pub mod shard;
pub mod table1;
pub mod variants;

use crate::forkcache;
use crate::metrics::JobStats;
use faults::ChaosConfig;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator, RateSnapshot};
use netsim::Engine;
use simtime::{Bandwidth, Dur};
use std::fmt::Display;
use std::sync::Arc;
use telemetry::{BufferRecorder, Recorder};
use topology::builders::dumbbell;
use workload::JobSpec;

/// Runs one fluid job per spec on a 50 Gbps dumbbell — job `i` on
/// left→right pair `i`, all crossing the bottleneck — under `fluid_cfg`,
/// and returns each job's statistics past `warmup`. `None` if some job
/// did not finish `iterations` within `iterations × (jobs + 2) + 20`
/// of the slowest solo iteration. The §4.ii and §4.iii mechanism runs.
///
/// # Panics
/// Panics if `jobs` is empty.
fn run_on_dumbbell<R: Recorder>(
    jobs: &[JobSpec],
    fluid_cfg: FluidConfig,
    iterations: usize,
    warmup: usize,
    rec: R,
) -> Option<Vec<JobStats>> {
    let line = Bandwidth::from_gbps(50);
    let d = dumbbell(jobs.len(), line, line, Dur::ZERO);
    let fjobs: Vec<FluidJob> = jobs
        .iter()
        .enumerate()
        .map(|(i, &spec)| FluidJob::single_path(spec, d.pair_links(i)))
        .collect();
    let mut sim = FluidSimulator::with_recorder(&d.topology, fluid_cfg, &fjobs, rec);
    let per_iter = nominal_iteration(jobs, line);
    let budget = per_iter * (iterations as u64 * (jobs.len() as u64 + 2) + 20);
    sim.run_until_iterations(iterations, budget).then(|| {
        (0..jobs.len())
            .map(|i| JobStats::from_progress(sim.progress(i), warmup))
            .collect()
    })
}

/// One nominal iteration of a run: the slowest job's solo iteration at
/// `capacity`.
///
/// # Panics
/// Panics if `specs` is empty.
fn nominal_iteration<'a>(specs: impl IntoIterator<Item = &'a JobSpec>, capacity: Bandwidth) -> Dur {
    specs
        .into_iter()
        .map(|s| s.iteration_time_at(capacity))
        .max()
        .expect("a run has a job")
}

/// The simulated span a rate-engine run's chaos plan covers: two
/// `nominal` iterations per iteration run. A fork point must fall before
/// it. Saturates at [`Dur::MAX`] for absurd iteration counts.
fn chaos_horizon(nominal: Dur, iterations: usize) -> Dur {
    let n = (iterations as u64).saturating_mul(2);
    nominal.checked_mul(n).unwrap_or(Dur::MAX)
}

/// Simulated-time budget of a rate-engine run of `jobs` jobs:
/// `iterations × (jobs + 2) + 40` `nominal` iterations, scaled by
/// `chaos`'s [`chaos::budget_slack`]. Saturates at [`Dur::MAX`].
fn rate_budget(nominal: Dur, iterations: usize, jobs: usize, chaos: &ChaosConfig) -> Dur {
    let n = (iterations as u64)
        .saturating_mul(jobs as u64 + 2)
        .saturating_add(40)
        .saturating_mul(chaos::budget_slack(chaos));
    nominal.checked_mul(n).unwrap_or(Dur::MAX)
}

/// A fork barrier at `at` that rate-engine runs resume from: the clean
/// `prefix` jobs' run to `at`, either restored from a process-wide cached
/// snapshot or, in replay mode, re-simulated by every run.
struct Fork<'a> {
    at: Dur,
    prefix: &'a [RateJob],
    shared: Option<Arc<(RateSnapshot, BufferRecorder)>>,
}

impl<'a> Fork<'a> {
    /// The barrier at `at` after `prefix`'s clean run under `sim`. Unless
    /// `replay`, the prefix runs once per process, cached under its jobs,
    /// `sim` and `at` (see [`forkcache`]).
    fn new(prefix: &'a [RateJob], sim: &RateSimConfig, at: Dur, replay: bool) -> Fork<'a> {
        let shared = (!replay).then(|| {
            let key = simtime::hash::config_hash(&format!("rate-prefix|{prefix:?}|{sim:?}|{at:?}"));
            forkcache::prefix(key, at, |rec| {
                RateSimulator::with_recorder(sim.clone(), prefix, rec)
            })
        });
        Fork { at, prefix, shared }
    }
}

/// Runs `jobs` on the rate engine under `sim` until every job finishes
/// `iterations`, and returns the finished engine: the one run behind
/// Fig. 1, Fig. 2, Table 1, §4.i and the chaos sweep, the DCQCN
/// counterpart of [`run_on_dumbbell`].
///
/// `chaos` lands on `jobs` and `sim` as data ([`chaos::apply_rate`]).
/// Without a `fork` it covers the [`chaos_horizon`] from t = 0 and the
/// engine is built from it. With one, the engine resumes at the barrier
/// (`jobs` must be its prefix jobs up to their variants), `chaos` covers
/// the rest of the horizon — one nominal iteration when the barrier is
/// past it — and the engine adopts the landed jobs and config there:
/// each job whose variant differs from the prefix's switches to its own.
///
/// # Panics
/// Panics, naming `label`, if some job does not finish within the
/// [`rate_budget`].
fn run_rate<R: Recorder>(
    label: impl Display,
    jobs: &mut [RateJob],
    mut sim: RateSimConfig,
    chaos: &ChaosConfig,
    iterations: usize,
    fork: Option<&Fork>,
    rec: R,
) -> RateSimulator<R> {
    let nominal = nominal_iteration(jobs.iter().map(|j| &j.spec), sim.capacity);
    let horizon = chaos_horizon(nominal, iterations);
    let mut engine = match fork {
        None => {
            chaos::apply_rate(chaos, jobs, &mut sim, horizon, Dur::ZERO);
            RateSimulator::with_recorder(sim, jobs, rec)
        }
        Some(fork) => {
            let mut engine = forkcache::resume(fork.shared.as_deref(), fork.at, rec, |rec| {
                RateSimulator::with_recorder(sim.clone(), fork.prefix, rec)
            });
            let span = if fork.at < horizon {
                horizon - fork.at
            } else {
                nominal
            };
            chaos::apply_rate(chaos, jobs, &mut sim, span, fork.at);
            engine.adopt(jobs, &sim);
            engine
        }
    };
    let budget = rate_budget(nominal, iterations, jobs.len(), chaos);
    assert!(
        engine.run_until_iterations(iterations, budget),
        "{label}: jobs did not finish {iterations} iterations"
    );
    engine
}
