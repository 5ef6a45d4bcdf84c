//! Extension: pipelined (bucketized) communication and compatibility.
//!
//! The paper's intro motivates pipelining — training platforms overlap
//! backprop with the allreduce by releasing gradient buckets as they
//! become ready — and its abstraction naturally represents the result:
//! several communication arcs per circle instead of one. This experiment
//! quantifies a consequence the paper leaves implicit: **bucketized
//! emission widens the compatibility region**. Two jobs whose monolithic
//! bursts are too long to interleave (communication fractions summing
//! over 1) become fully compatible once the same volume is spread across
//! spaced bursts, because each job's bursts fit into the other's gaps.
//!
//! Both sides are measured end-to-end in the fluid engine under weighted
//! (unfair) sharing: the monolithic pair stays contended and victimizes
//! the low-weight job; the pipelined pair converges to dedicated-network
//! pace. (The rate-based DCQCN engine does *not* discover the chunked
//! interleave emergently — 40 ms bursts are shorter than its sliding
//! dynamics' convergence horizon — an honest limitation recorded in
//! `EXPERIMENTS.md`; the §4.ii/§4.iii mechanisms apply unchanged.)

use crate::metrics::{text_table, JobStats};
use crate::parallel;
use geometry::{solve_pair, SolverConfig, Verdict};
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::Engine;
use scheduler::analytic_profile;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct PipeliningConfig {
    /// The base job (monolithic emission). Default VGG19(600): a 62.5%
    /// communication fraction, so two of them cannot interleave.
    pub base: JobSpec,
    /// Bursts the pipelined variant splits communication into.
    pub chunks: u8,
    /// Compute gap between bursts (bucketized backprop time).
    pub gap: Dur,
    /// Weights for the two jobs (the unfairness that drives the slide).
    pub weights: [f64; 2],
    /// Iterations per run.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
}

impl Default for PipeliningConfig {
    fn default() -> PipeliningConfig {
        PipeliningConfig {
            base: JobSpec::reference(Model::Vgg19, 600),
            chunks: 3,
            gap: Dur::from_millis(40),
            weights: [2.0, 1.0],
            iterations: 16,
            warmup: 6,
        }
    }
}

/// One emission shape's outcome.
#[derive(Debug, Clone)]
pub struct ShapeOutcome {
    /// The solver's verdict for two copies of the job.
    pub verdict: Verdict,
    /// Per-job stats under weighted sharing.
    pub stats: Vec<JobStats>,
    /// The job's dedicated-network iteration time.
    pub solo: Dur,
}

impl ShapeOutcome {
    /// Worst per-job contention tax: `median / solo − 1`.
    pub fn max_tax(&self) -> f64 {
        self.stats
            .iter()
            .map(|s| s.median().as_secs_f64() / self.solo.as_secs_f64() - 1.0)
            .fold(0.0f64, f64::max)
    }
}

/// The pipelining experiment result.
#[derive(Debug, Clone)]
pub struct PipeliningResult {
    /// Monolithic emission (the paper's base abstraction).
    pub monolithic: ShapeOutcome,
    /// Pipelined emission (same volume, spaced bursts).
    pub pipelined: ShapeOutcome,
}

impl PipeliningResult {
    /// Renders a summary table.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "emission".to_string(),
            "geometry".to_string(),
            "job".to_string(),
            "median".to_string(),
            "solo".to_string(),
            "tax".to_string(),
        ]];
        for (name, o) in [
            ("monolithic", &self.monolithic),
            ("pipelined", &self.pipelined),
        ] {
            for (i, s) in o.stats.iter().enumerate() {
                let tax = s.median().as_secs_f64() / o.solo.as_secs_f64() - 1.0;
                rows.push(vec![
                    if i == 0 {
                        name.to_string()
                    } else {
                        String::new()
                    },
                    if i == 0 {
                        if o.verdict.is_compatible() {
                            "compatible".to_string()
                        } else {
                            "incompatible".to_string()
                        }
                    } else {
                        String::new()
                    },
                    s.label.clone(),
                    format!("{:.0} ms", s.median_ms()),
                    format!("{:.0} ms", o.solo.as_millis_f64()),
                    format!("{:+.1}%", tax * 100.0),
                ]);
            }
        }
        text_table(&rows)
    }
}

fn run_shape<R: Recorder>(spec: JobSpec, cfg: &PipeliningConfig, rec: R) -> ShapeOutcome {
    let line = Bandwidth::from_gbps(50);
    let profile = analytic_profile(&spec, line, Dur::from_micros(2_500));
    let verdict = solve_pair(&profile, &profile, &SolverConfig::default()).expect("valid profiles");

    let d = dumbbell(2, line, line, Dur::ZERO);
    let jobs: Vec<FluidJob> = (0..2)
        .map(|i| FluidJob::single_path(spec, d.pair_links(i)))
        .collect();
    let fluid_cfg = FluidConfig {
        policy: SharingPolicy::Weighted(cfg.weights.to_vec()),
        ..FluidConfig::fair()
    };
    let mut sim = FluidSimulator::with_recorder(&d.topology, fluid_cfg, &jobs, rec);
    let per_iter = spec.iteration_time_at(line);
    assert!(
        sim.run_until_iterations(cfg.iterations, per_iter * (cfg.iterations as u64 * 4 + 20)),
        "pipelining: jobs did not finish"
    );
    ShapeOutcome {
        verdict,
        stats: (0..2)
            .map(|i| JobStats::from_progress(sim.progress(i), cfg.warmup))
            .collect(),
        solo: per_iter,
    }
}

/// Runs both emission shapes.
pub fn run(cfg: &PipeliningConfig) -> PipeliningResult {
    run_traced(cfg, NoopRecorder)
}

/// Runs both emission shapes, streaming telemetry into `rec` with a
/// marker per shape. Both shapes run in parallel under
/// [`parallel::jobs`] workers with results and telemetry identical to a
/// serial run.
pub fn run_traced<R: ForkableRecorder>(cfg: &PipeliningConfig, mut rec: R) -> PipeliningResult {
    let units: [(&str, JobSpec); 2] = [
        ("pipelining/monolithic", cfg.base),
        (
            "pipelining/pipelined",
            cfg.base.pipelined(cfg.chunks, cfg.gap),
        ),
    ];
    let mut out = parallel::map_traced(&mut rec, &units, |_, &(name, spec), fork| {
        if R::ENABLED {
            fork.record(Time::ZERO, Event::Scenario { name: name.into() });
        }
        run_shape(spec, cfg, fork)
    });
    let pipelined = out.pop().expect("two shapes");
    let monolithic = out.pop().expect("two shapes");
    PipeliningResult {
        monolithic,
        pipelined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_widens_the_compatibility_region() {
        let cfg = PipeliningConfig {
            iterations: 12,
            warmup: 5,
            ..PipeliningConfig::default()
        };
        let r = run(&cfg);
        // Monolithic: 62.5% + 62.5% comm can never interleave.
        assert!(!r.monolithic.verdict.is_compatible());
        assert!(
            r.monolithic.max_tax() > 0.10,
            "monolithic tax {:.1}% too small",
            r.monolithic.max_tax() * 100.0
        );
        // Pipelined: same volume in spaced bursts — compatible and at
        // dedicated pace under the same weighted sharing.
        assert!(r.pipelined.verdict.is_compatible());
        assert!(
            r.pipelined.max_tax() < 0.01,
            "pipelined tax {:.1}%",
            r.pipelined.max_tax() * 100.0
        );
        assert!(r.render().contains("pipelined"));
    }
}
