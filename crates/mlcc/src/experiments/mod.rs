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

use crate::metrics::JobStats;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::Engine;
use simtime::{Bandwidth, Dur};
use telemetry::Recorder;
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
    let per_iter = jobs
        .iter()
        .map(|s| s.iteration_time_at(line))
        .max()
        .expect("dumbbell has a job");
    let budget = per_iter * (iterations as u64 * (jobs.len() as u64 + 2) + 20);
    sim.run_until_iterations(iterations, budget).then(|| {
        (0..jobs.len())
            .map(|i| JobStats::from_progress(sim.progress(i), warmup))
            .collect()
    })
}
