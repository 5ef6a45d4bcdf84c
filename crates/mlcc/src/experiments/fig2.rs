//! Fig. 2: the sliding effect, iteration by iteration.
//!
//! The paper visualizes link utilization of back-to-back iterations: under
//! fair sharing both jobs occupy ≈ 50% forever (Fig. 2a); under unfairness
//! the contended region *shrinks every iteration* until, by roughly the
//! fourth iteration, the communication phases interleave perfectly
//! (Fig. 2b). This module reproduces the traces and quantifies the
//! contended (both-communicating) time of each of the aggressive job's
//! iterations.

use crate::experiments::fig1::{self, Fig1Config, Scenario};
use eventsim::TimeSeries;
use simtime::{Dur, Time};
use telemetry::{ForkableRecorder, NoopRecorder};
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
        }
    }
}

/// One scenario's traces and contention profile.
#[derive(Debug, Clone)]
pub struct Fig2Scenario {
    /// Per-job throughput traces (Gbps, 1 ms samples).
    pub traces: Vec<TimeSeries>,
    /// For each of J1's iterations: milliseconds during which *both* jobs
    /// were simultaneously using the link (at 1 Gbps or more).
    pub contended_ms_per_iteration: Vec<f64>,
}

/// A Fig. 1 cell's traces and per-iteration contended time.
fn from_fig1(s: Scenario) -> Fig2Scenario {
    Fig2Scenario {
        contended_ms_per_iteration: s.contention.iter().map(|&(_, ms)| ms).collect(),
        traces: s.traces,
    }
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

/// Runs both scenarios.
pub fn run(cfg: &Fig2Config) -> Fig2Result {
    run_traced(cfg, NoopRecorder)
}

/// Runs both scenarios — the Fig. 1 fair and unfair cells, named
/// `fig2/fair` and `fig2/unfair`, traced at 1 ms — streaming telemetry
/// into `rec` as [`fig1::run_matrix_traced`] does.
pub fn run_traced<R: ForkableRecorder>(cfg: &Fig2Config, rec: R) -> Fig2Result {
    let fig1 = Fig1Config {
        jobs: cfg.jobs,
        iterations: cfg.iterations,
        warmup: 0,
        aggressive_timer: cfg.aggressive_timer,
        ..Fig1Config::default()
    };
    let mut cells = fig1::default_cells(&fig1);
    for (cell, name) in cells.iter_mut().zip(["fig2/fair", "fig2/unfair"]) {
        cell.name = name.to_string();
    }
    let mut m = fig1::run_matrix_traced(&fig1, &cells, rec);
    let unfair = from_fig1(m.cells.pop().expect("two scenarios").1);
    let fair = from_fig1(m.cells.pop().expect("two scenarios").1);
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
        let cfg = Fig2Config::default();
        let r = run(&cfg);
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
        // The contended counts are Fig. 1's contention profile of the pair.
        let f1 = Fig1Config {
            iterations: cfg.iterations,
            ..Fig1Config::default()
        };
        let m = fig1::run_matrix_traced(&f1, &fig1::default_cells(&f1), NoopRecorder);
        for (name, s) in [("fig1/fair", &r.fair), ("fig1/unfair", &r.unfair)] {
            let counts: Vec<f64> = m
                .get(name)
                .unwrap()
                .contention
                .iter()
                .map(|c| c.1)
                .collect();
            assert_eq!(s.contended_ms_per_iteration, counts, "{name}");
        }
    }
}
