//! §5 + placement: cluster-level compatibility.
//!
//! A stream of jobs arrives at a two-tier cluster whose racks are too
//! small to hold every job, forcing cross-rack splits onto shared ToR
//! uplinks. The **locality-only** baseline (today's schedulers) splits
//! onto the first feasible racks/spine and lands an incompatible BERT +
//! VGG19 pairing on the same uplinks; the **compatibility-aware** policy
//! (the paper's proposal) sees that coming via the geometry solver and
//! routes the split through a different spine. We then run both clusters
//! in the fluid simulator and compare per-job slowdowns against solo
//! iteration times.
//!
//! When a compatible placement still shares links, the §4.iii mechanism
//! kicks in: rotations from the cluster solver become communication gates.

use crate::metrics::{JobStats, StatsError};
use crate::parallel;
use geometry::Verdict;
use netsim::fluid::{FluidConfig, FluidSimulator, Gate};
use netsim::Engine;
use scheduler::{
    gates_from_rotations, ClusterScheduler, PlacementError, PlacementPolicy, SchedulerConfig,
};
use simtime::{Bandwidth, Dur, Time};
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use topology::builders::{two_tier, TwoTier};
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Racks in the fabric.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
    /// Spine switches.
    pub spines: usize,
    /// The arriving job stream, in order.
    pub jobs: Vec<JobSpec>,
    /// Iterations per evaluation run.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        let w3 = |spec: JobSpec| JobSpec { workers: 3, ..spec };
        ClusterConfig {
            racks: 4,
            hosts_per_rack: 2,
            spines: 2,
            jobs: vec![
                w3(JobSpec::reference(Model::BertLarge, 8)),
                w3(JobSpec::reference(Model::Vgg19, 1200)),
                JobSpec::reference(Model::ResNet50, 1600),
            ],
            iterations: 16,
            warmup: 4,
        }
    }
}

/// One placement policy's evaluated outcome.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Per-job iteration statistics.
    pub stats: Vec<JobStats>,
    /// Median iteration time over solo iteration time, per job (1.0 =
    /// dedicated-network pace).
    pub slowdowns: Vec<f64>,
    /// Number of fabric links carrying ≥ 2 jobs.
    pub contended_links: usize,
    /// The cluster solver's verdict on the final placement.
    pub verdict: Verdict,
}

impl PolicyOutcome {
    /// Mean slowdown across jobs.
    pub fn mean_slowdown(&self) -> f64 {
        self.slowdowns.iter().sum::<f64>() / self.slowdowns.len() as f64
    }
}

/// Why a cluster-scale evaluation could not produce a result. Cluster
/// streams are often externally supplied (e.g. [`random_stream`]), so
/// misconfigurations surface as errors instead of panics.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The scheduler could not place a job of the stream.
    Placement(PlacementError),
    /// Jobs did not finish the requested iterations within the time
    /// budget under the named policy.
    Incomplete {
        /// `"locality"` or `"compatibility"`.
        policy: &'static str,
        /// Iterations that were requested.
        iterations: usize,
    },
    /// A job completed too few iterations for the warmup cut.
    Stats(StatsError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Placement(e) => write!(f, "cluster: placement failed: {e}"),
            ClusterError::Incomplete { policy, iterations } => {
                write!(
                    f,
                    "cluster: {policy} run did not finish {iterations} iterations"
                )
            }
            ClusterError::Stats(e) => write!(f, "cluster: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<StatsError> for ClusterError {
    fn from(e: StatsError) -> ClusterError {
        ClusterError::Stats(e)
    }
}

/// The §5 experiment result.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Locality-only baseline.
    pub locality: PolicyOutcome,
    /// Compatibility-aware placement.
    pub compatibility: PolicyOutcome,
}

impl ClusterResult {
    /// Renders a summary table.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "job".to_string(),
            "slowdown (locality)".to_string(),
            "slowdown (compat-aware)".to_string(),
        ]];
        for i in 0..self.locality.slowdowns.len() {
            rows.push(vec![
                self.locality.stats[i].label.clone(),
                format!("{:.2}×", self.locality.slowdowns[i]),
                format!("{:.2}×", self.compatibility.slowdowns[i]),
            ]);
        }
        rows.push(vec![
            "mean".to_string(),
            format!("{:.2}×", self.locality.mean_slowdown()),
            format!("{:.2}×", self.compatibility.mean_slowdown()),
        ]);
        crate::metrics::text_table(&rows)
    }
}

/// A randomized arrival stream drawn from the Table 1 zoo, for
/// cluster-scale placement studies: each job's batch is jittered ±20%
/// around its reference point and its worker count is drawn to force a
/// cross-rack split roughly half the time on `hosts_per_rack`-sized racks.
pub fn random_stream(seed: u64, n: usize, hosts_per_rack: usize) -> Vec<JobSpec> {
    let mut rng = eventsim::Rng::new(seed);
    let zoo: [(Model, u32); 6] = [
        (Model::BertLarge, 8),
        (Model::Vgg19, 1200),
        (Model::Dlrm, 2000),
        (Model::WideResNet50, 800),
        (Model::Vgg16, 1400),
        (Model::ResNet50, 1600),
    ];
    (0..n)
        .map(|_| {
            let (model, base_batch) = zoo[rng.below(zoo.len() as u64) as usize];
            let jitter = 0.8 + 0.4 * rng.f64();
            let batch = ((base_batch as f64 * jitter) as u32).max(2);
            // Workers: fits-in-rack or forces a split, evenly.
            let workers = if rng.bernoulli(0.5) {
                (hosts_per_rack as u32).max(2)
            } else {
                hosts_per_rack as u32 + 1
            };
            JobSpec {
                workers,
                ..JobSpec::reference(model, batch)
            }
        })
        .collect()
}

fn fabric(cfg: &ClusterConfig) -> TwoTier {
    two_tier(
        cfg.racks,
        cfg.hosts_per_rack,
        cfg.spines,
        Bandwidth::from_gbps(50),
        Bandwidth::from_gbps(50),
        Dur::ZERO,
    )
}

fn try_evaluate<R: Recorder>(
    policy: PlacementPolicy,
    cfg: &ClusterConfig,
    rec: R,
) -> Result<PolicyOutcome, ClusterError> {
    let (sched_cfg, policy_name) = match policy {
        PlacementPolicy::LocalityOnly => (SchedulerConfig::locality_only(), "locality"),
        PlacementPolicy::CompatibilityAware => {
            (SchedulerConfig::compatibility_aware(), "compatibility")
        }
    };
    let mut sched = ClusterScheduler::new(fabric(cfg), sched_cfg);
    for &spec in &cfg.jobs {
        sched.submit(spec).map_err(ClusterError::Placement)?;
    }
    let verdict = sched.cluster_verdict();
    let contended = sched.contended_links().len();

    // §4.iii: when the placement is compatible and still shares links,
    // realize the rotations as gates. Single-rack jobs need none.
    let gates: Vec<Option<Gate>> = match (&verdict, contended) {
        (Verdict::Compatible { rotations, .. }, c) if c > 0 => {
            let profiles: Vec<geometry::Profile> =
                sched.placed().iter().map(|p| p.profile.clone()).collect();
            let offsets = vec![Dur::ZERO; profiles.len()];
            gates_from_rotations(&profiles, rotations, &offsets)
                .into_iter()
                .zip(sched.placed())
                .map(|(g, pj)| if pj.is_single_rack() { None } else { g })
                .collect()
        }
        _ => vec![None; sched.placed().len()],
    };

    let fjobs = sched.fluid_jobs();
    let fluid_cfg = FluidConfig {
        gates,
        ..FluidConfig::fair()
    };
    let mut sim = FluidSimulator::with_recorder(&sched.fabric().topology, fluid_cfg, &fjobs, rec);
    let cap = Bandwidth::from_gbps(50);
    let per_iter = cfg
        .jobs
        .iter()
        .map(|s| s.iteration_time_at(cap))
        .max()
        .unwrap();
    let ok = sim.run_until_iterations(
        cfg.iterations,
        per_iter * (cfg.iterations as u64 * (cfg.jobs.len() as u64 + 2) + 20),
    );
    if !ok {
        return Err(ClusterError::Incomplete {
            policy: policy_name,
            iterations: cfg.iterations,
        });
    }

    let stats: Vec<JobStats> = (0..cfg.jobs.len())
        .map(|i| JobStats::try_from_progress(sim.progress(i), cfg.warmup))
        .collect::<Result<_, _>>()?;
    let slowdowns = stats
        .iter()
        .zip(&cfg.jobs)
        .map(|(s, spec)| s.median().as_secs_f64() / spec.iteration_time_at(cap).as_secs_f64())
        .collect();
    Ok(PolicyOutcome {
        stats,
        slowdowns,
        contended_links: contended,
        verdict,
    })
}

/// Runs the job stream under both placement policies.
///
/// # Panics
/// Panics on any [`ClusterError`]; use [`try_run`] to handle failures.
pub fn run(cfg: &ClusterConfig) -> ClusterResult {
    try_run_traced(cfg, NoopRecorder).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the job stream under both placement policies, surfacing
/// misconfigured streams as [`ClusterError`] instead of panicking.
pub fn try_run(cfg: &ClusterConfig) -> Result<ClusterResult, ClusterError> {
    try_run_traced(cfg, NoopRecorder)
}

/// [`try_run`] with telemetry streamed into `rec`, one [`Event::Scenario`]
/// marker per placement policy. Both policies run in parallel under
/// [`parallel::jobs`] workers with results and telemetry identical to a
/// serial run.
pub fn try_run_traced<R: ForkableRecorder>(
    cfg: &ClusterConfig,
    mut rec: R,
) -> Result<ClusterResult, ClusterError> {
    let units: [(&str, PlacementPolicy); 2] = [
        ("cluster/locality", PlacementPolicy::LocalityOnly),
        ("cluster/compatibility", PlacementPolicy::CompatibilityAware),
    ];
    let mut out = parallel::try_map_traced(&mut rec, &units, |_, &(name, policy), fork| {
        if R::ENABLED {
            fork.record(Time::ZERO, Event::Scenario { name: name.into() });
        }
        try_evaluate(policy, cfg, fork)
    })?;
    let compatibility = out.pop().expect("two policies");
    let locality = out.pop().expect("two policies");
    Ok(ClusterResult {
        locality,
        compatibility,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_aware_placement_avoids_slowdown() {
        let r = run(&ClusterConfig::default());
        // The baseline lands BERT and VGG19 on shared uplinks: contention.
        assert!(
            r.locality.contended_links > 0,
            "baseline should contend somewhere"
        );
        assert!(
            r.locality.mean_slowdown() > 1.08,
            "baseline slowdown {:.3} too small to matter",
            r.locality.mean_slowdown()
        );
        // The compatibility-aware cluster runs at ≈ solo pace.
        assert!(
            r.compatibility.mean_slowdown() < 1.03,
            "compat-aware slowdown {:.3}",
            r.compatibility.mean_slowdown()
        );
        assert!(r.compatibility.verdict.is_compatible());
        // And it strictly beats the baseline.
        assert!(r.compatibility.mean_slowdown() < r.locality.mean_slowdown());
        assert!(r.render().contains("mean"));
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn try_run_surfaces_placement_failure() {
        // One job needing more hosts than the whole cluster has: the
        // panicking `run` would die inside the scheduler; `try_run`
        // returns the error.
        let cfg = ClusterConfig {
            racks: 1,
            hosts_per_rack: 2,
            jobs: vec![JobSpec {
                workers: 5,
                ..JobSpec::reference(Model::ResNet50, 1600)
            }],
            ..ClusterConfig::default()
        };
        match try_run(&cfg) {
            Err(ClusterError::Placement(_)) => {}
            other => panic!("expected a placement error, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;

    #[test]
    fn random_streams_never_favor_locality() {
        // Across several randomized arrival streams, compatibility-aware
        // placement is never worse than locality-only (and equals it when
        // the stream happens to be contention-free).
        for seed in [3u64, 11, 42] {
            let cfg = ClusterConfig {
                racks: 5,
                hosts_per_rack: 2,
                jobs: random_stream(seed, 3, 2),
                iterations: 8,
                warmup: 3,
                ..ClusterConfig::default()
            };
            let r = run(&cfg);
            assert!(
                r.compatibility.mean_slowdown() <= r.locality.mean_slowdown() + 1e-6,
                "seed {seed}: compat {:.3} vs locality {:.3}",
                r.compatibility.mean_slowdown(),
                r.locality.mean_slowdown()
            );
        }
    }

    #[test]
    fn random_stream_is_deterministic_and_in_range() {
        let a = random_stream(7, 10, 2);
        let b = random_stream(7, 10, 2);
        assert_eq!(a, b);
        let c = random_stream(8, 10, 2);
        assert_ne!(a, c);
        for j in &a {
            assert!(j.workers == 2 || j.workers == 3);
            assert!(j.batch >= 2);
        }
    }
}
