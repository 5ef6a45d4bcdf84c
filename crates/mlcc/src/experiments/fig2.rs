//! Fig. 2: the sliding effect, iteration by iteration.
//!
//! The paper visualizes link utilization of back-to-back iterations: under
//! fair sharing both jobs occupy ≈ 50% forever (Fig. 2a); under unfairness
//! the contended region *shrinks every iteration* until, by roughly the
//! fourth iteration, the communication phases interleave perfectly
//! (Fig. 2b). This module reproduces the traces and quantifies the
//! contended (both-communicating) time of each of the aggressive job's
//! iterations.

use crate::parallel;
use dcqcn::CcVariant;
use eventsim::TimeSeries;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use simtime::{Dur, Time};
use telemetry::{Event, ForkableRecorder, NoopRecorder, Recorder};
use workload::{JobSpec, Model};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// The two competing jobs.
    pub jobs: [JobSpec; 2],
    /// Iterations to trace (the paper draws four).
    pub iterations: usize,
    /// Aggressive timer for `J1` in the unfair scenario.
    pub aggressive_timer: Dur,
    /// Rate at or above which a job counts as "using the link" when
    /// measuring contention (Gbps).
    pub busy_threshold_gbps: f64,
}

impl Default for Fig2Config {
    fn default() -> Fig2Config {
        Fig2Config {
            jobs: [
                JobSpec::reference(Model::Vgg19, 1200),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            iterations: 6,
            aggressive_timer: Dur::from_micros(100),
            busy_threshold_gbps: 1.0,
        }
    }
}

/// One scenario's traces and contention profile.
#[derive(Debug, Clone)]
pub struct Fig2Scenario {
    /// Per-job throughput traces (Gbps, 1 ms samples).
    pub traces: Vec<TimeSeries>,
    /// For each of J1's iterations: milliseconds during which *both* jobs
    /// were simultaneously using the link.
    pub contended_ms_per_iteration: Vec<f64>,
}

/// The Fig. 2 result: both scenarios.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Fair sharing (Fig. 2a).
    pub fair: Fig2Scenario,
    /// J1 aggressive (Fig. 2b).
    pub unfair: Fig2Scenario,
}

impl Fig2Result {
    /// The first iteration index (0-based) of the unfair scenario whose
    /// contended time drops below 5% of the first iteration's, i.e. when
    /// the phases have fully interleaved. `None` if they never do.
    pub fn interleaved_at(&self) -> Option<usize> {
        let c = &self.unfair.contended_ms_per_iteration;
        let first = *c.first()?;
        if first <= 0.0 {
            return Some(0);
        }
        c.iter().position(|&ms| ms < 0.05 * first)
    }

    /// Renders the per-iteration contention table.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "iteration".to_string(),
            "contended ms (fair)".to_string(),
            "contended ms (unfair)".to_string(),
        ]];
        let n = self
            .fair
            .contended_ms_per_iteration
            .len()
            .min(self.unfair.contended_ms_per_iteration.len());
        for i in 0..n {
            rows.push(vec![
                format!("{}", i + 1),
                format!("{:.0}", self.fair.contended_ms_per_iteration[i]),
                format!("{:.0}", self.unfair.contended_ms_per_iteration[i]),
            ]);
        }
        crate::metrics::text_table(&rows)
    }
}

fn run_scenario<R: Recorder>(cfg: &Fig2Config, variants: [CcVariant; 2], rec: R) -> Fig2Scenario {
    let sim_cfg = RateSimConfig {
        trace_interval: Some(Dur::from_millis(1)),
        ..RateSimConfig::default()
    };
    let jobs = [
        RateJob::new(cfg.jobs[0], variants[0]),
        RateJob::new(cfg.jobs[1], variants[1]),
    ];
    let mut sim = RateSimulator::with_recorder(sim_cfg, &jobs, rec);
    let per_iter = cfg.jobs[0]
        .iteration_time_at(simtime::Bandwidth::from_gbps(50))
        .max(cfg.jobs[1].iteration_time_at(simtime::Bandwidth::from_gbps(50)));
    assert!(
        sim.run_until_iterations(cfg.iterations, per_iter * (cfg.iterations as u64 * 4 + 20)),
        "fig2: did not reach {} iterations",
        cfg.iterations
    );
    let traces: Vec<TimeSeries> = (0..2).map(|i| sim.rate_trace(i).clone()).collect();

    // Contended time per J1 iteration: sample both traces at 1 ms and
    // count samples where both exceed the busy threshold.
    let step = Dur::from_millis(1);
    let contended: Vec<f64> = sim
        .progress(0)
        .iterations()
        .iter()
        .take(cfg.iterations)
        .map(|rec| {
            let a = traces[0].resample(rec.started, rec.completed, step);
            let b = traces[1].resample(rec.started, rec.completed, step);
            a.iter()
                .zip(&b)
                .filter(|(&x, &y)| x >= cfg.busy_threshold_gbps && y >= cfg.busy_threshold_gbps)
                .count() as f64
        })
        .collect();
    Fig2Scenario {
        traces,
        contended_ms_per_iteration: contended,
    }
}

/// Runs both scenarios.
pub fn run(cfg: &Fig2Config) -> Fig2Result {
    run_traced(cfg, NoopRecorder)
}

/// Runs both scenarios, streaming telemetry into `rec` with per-scenario
/// [`Event::Scenario`] markers. Scenarios run in parallel under
/// [`parallel::jobs`] workers with output identical to a serial run.
pub fn run_traced<R: ForkableRecorder>(cfg: &Fig2Config, mut rec: R) -> Fig2Result {
    let scenarios: [(&str, [CcVariant; 2]); 2] = [
        ("fig2/fair", [CcVariant::Fair, CcVariant::Fair]),
        (
            "fig2/unfair",
            [
                CcVariant::StaticUnfair {
                    timer: cfg.aggressive_timer,
                },
                CcVariant::Fair,
            ],
        ),
    ];
    let mut out = parallel::map_traced(&mut rec, &scenarios, |_, &(name, variants), fork| {
        if R::ENABLED {
            fork.record(Time::ZERO, Event::Scenario { name: name.into() });
        }
        run_scenario(cfg, variants, fork)
    });
    let unfair = out.pop().expect("two scenarios");
    let fair = out.pop().expect("two scenarios");
    Fig2Result { fair, unfair }
}

/// Utilization of the link at 1 ms samples over `[from, to)` — the sum of
/// both jobs' rates over capacity, handy for plotting Fig. 2 panels.
pub fn utilization(scenario: &Fig2Scenario, from: Time, to: Time, capacity_gbps: f64) -> Vec<f64> {
    let step = Dur::from_millis(1);
    let a = scenario.traces[0].resample(from, to, step);
    let b = scenario.traces[1].resample(from, to, step);
    a.iter()
        .zip(&b)
        .map(|(&x, &y)| (x + y) / capacity_gbps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_effect_reproduces() {
        let r = run(&Fig2Config::default());
        // Fair: contention persists — the last iteration is still heavily
        // contended (within 50% of the first).
        let f = &r.fair.contended_ms_per_iteration;
        assert!(
            f.last().unwrap() > &(f[0] * 0.5),
            "fair contention vanished: {f:?}"
        );
        // Unfair: phases interleave within the paper's ballpark (by the
        // fourth-ish iteration; allow a couple extra).
        let at = r.interleaved_at();
        assert!(
            at.is_some() && at.unwrap() <= 5,
            "unfair did not interleave promptly: {:?} (contended {:?})",
            at,
            r.unfair.contended_ms_per_iteration
        );
        // Contention shrinks monotonically-ish: last < first / 4.
        let u = &r.unfair.contended_ms_per_iteration;
        assert!(u.last().unwrap() < &(u[0] * 0.25), "unfair tail: {u:?}");
        // Utilization during a contended window is near 1.
        let util = utilization(
            &r.fair,
            Time::ZERO + Dur::from_millis(150),
            Time::ZERO + Dur::from_millis(250),
            50.0,
        );
        let mean: f64 = util.iter().sum::<f64>() / util.len() as f64;
        assert!(mean > 0.85, "fair contended utilization {mean}");
        assert!(r.render().contains("contended"));
    }
}
