//! The congestion-control zoo sweep: every variant on the contended
//! Fig. 1 pair.
//!
//! The paper's knob is DCQCN's timer `T`; the related work proposes
//! job-aware alternatives (MLTCP's progress bonus, explicit fairness
//! policies). This sweep runs each [`CcVariant`] family on the same
//! contended two-job bottleneck and reports, per variant:
//!
//! * **mean / median iteration time** across both jobs — the number a
//!   cluster operator cares about;
//! * **Jain fairness** of the jobs' long-run progress rates — deliberate
//!   short-term unfairness should still be long-term fair;
//! * **time-to-interleave** — how quickly the communication phases slide
//!   apart (Fig. 2's criterion), `None` when they never do.
//!
//! The interesting outcome, mirroring MLTCP's finding: the self-organizing
//! variants (`Mltcp`, `AdaptiveUnfair`, bonus-decay policies) beat `Fair`
//! on mean iteration time *without* a designated aggressor job.

use crate::experiments::fig1::{self, Fig1Config, MatrixCell, Scenario};
use crate::metrics::text_table;
use dcqcn::CcVariant;
use diagnostics::fairness::jain_index;
use telemetry::ForkableRecorder;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct VariantsConfig {
    /// The contended pair and engine settings every cell shares.
    pub fig1: Fig1Config,
    /// The matrix cells to sweep (default: [`fig1::zoo_cells`]).
    pub cells: Vec<MatrixCell>,
}

impl Default for VariantsConfig {
    fn default() -> VariantsConfig {
        let fig1 = Fig1Config::default();
        let cells = fig1::zoo_cells(&fig1);
        VariantsConfig { fig1, cells }
    }
}

/// One variant's sweep outcome.
#[derive(Debug, Clone)]
pub struct VariantOutcome {
    /// Cell name with the `variants/` prefix stripped (bench metric key).
    pub name: String,
    /// The variants the two jobs ran.
    pub variants: [CcVariant; 2],
    /// Mean iteration time across both jobs (ms).
    pub mean_iter_ms: f64,
    /// Mean of the two jobs' median iteration times (ms).
    pub median_iter_ms: f64,
    /// Jain index of the jobs' long-run progress rates (1/mean iteration
    /// time): 1.0 when both jobs train equally fast.
    pub jain: f64,
    /// When the communication phases first interleaved (ms), or `None`.
    pub time_to_interleave_ms: Option<f64>,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct VariantsResult {
    /// One outcome per cell, in cell order.
    pub outcomes: Vec<VariantOutcome>,
}

impl VariantsResult {
    /// The named outcome (short name, e.g. `"mltcp"`).
    pub fn get(&self, name: &str) -> Option<&VariantOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// Mean-iteration-time speedup of `name` over the `fair` cell
    /// (`> 1` means faster).
    pub fn speedup_vs_fair(&self, name: &str) -> Option<f64> {
        let fair = self.get("fair")?;
        let v = self.get(name)?;
        Some(fair.mean_iter_ms / v.mean_iter_ms)
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "variant".to_string(),
            "mean iter".to_string(),
            "median iter".to_string(),
            "vs fair".to_string(),
            "jain".to_string(),
            "interleaved at".to_string(),
        ]];
        for o in &self.outcomes {
            rows.push(vec![
                o.name.clone(),
                format!("{:.1} ms", o.mean_iter_ms),
                format!("{:.1} ms", o.median_iter_ms),
                self.speedup_vs_fair(&o.name)
                    .map_or("—".to_string(), |s| format!("{s:.2}×")),
                format!("{:.3}", o.jain),
                match o.time_to_interleave_ms {
                    Some(ms) => format!("{ms:.0} ms"),
                    None => "never".to_string(),
                },
            ]);
        }
        text_table(&rows)
    }
}

/// Folds one cell's [`Scenario`] into its outcome row.
fn outcome_of(cell: &MatrixCell, s: &Scenario) -> VariantOutcome {
    let means: Vec<f64> = s.stats.iter().map(|st| st.mean().as_millis_f64()).collect();
    let rates: Vec<f64> = means.iter().map(|&m| 1.0 / m).collect();
    VariantOutcome {
        name: cell
            .name
            .rsplit('/')
            .next()
            .unwrap_or(&cell.name)
            .to_string(),
        variants: cell.variants,
        mean_iter_ms: means.iter().sum::<f64>() / means.len() as f64,
        median_iter_ms: s.stats.iter().map(|st| st.median_ms()).sum::<f64>() / s.stats.len() as f64,
        jain: jain_index(&rates),
        time_to_interleave_ms: s.time_to_interleave_ms(),
    }
}

/// Runs the sweep, streaming telemetry into `rec` with per-cell
/// [`telemetry::Event::Scenario`] markers. Cells run in parallel under
/// [`crate::parallel::jobs`] workers; output is identical to a serial
/// run.
pub fn run_traced<R: ForkableRecorder>(cfg: &VariantsConfig, rec: R) -> VariantsResult {
    let m = fig1::run_matrix_traced(&cfg.fig1, &cfg.cells, rec);
    VariantsResult {
        outcomes: cfg
            .cells
            .iter()
            .zip(&m.cells)
            .map(|(cell, (_, s))| outcome_of(cell, s))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::NoopRecorder;

    fn quick() -> VariantsConfig {
        let mut cfg = VariantsConfig::default();
        cfg.fig1.iterations = 12;
        cfg.fig1.warmup = 4;
        cfg
    }

    /// The acceptance shape: MLTCP beats fair on the contended pair's
    /// mean iteration time, stays long-term fair, and interleaves.
    #[test]
    fn mltcp_beats_fair_on_contended_pair() {
        let r = run_traced(&quick(), NoopRecorder);
        let speedup = r.speedup_vs_fair("mltcp").expect("both cells present");
        assert!(speedup > 1.05, "mltcp speedup vs fair: {speedup:.3}");
        let m = r.get("mltcp").unwrap();
        assert!(m.jain > 0.95, "mltcp long-term jain {:.3}", m.jain);
        assert!(m.time_to_interleave_ms.is_some(), "mltcp never interleaved");
        // Fair stays contended: symmetric split, no interleave onset.
        let f = r.get("fair").unwrap();
        assert!(f.jain > 0.99, "fair jain {:.3}", f.jain);
        assert!(r.render().contains("mltcp"));
    }

    /// Every zoo cell produces finite, positive numbers.
    #[test]
    fn zoo_outcomes_are_sane() {
        let r = run_traced(&quick(), NoopRecorder);
        assert_eq!(r.outcomes.len(), 7);
        for o in &r.outcomes {
            assert!(
                o.mean_iter_ms.is_finite() && o.mean_iter_ms > 0.0,
                "{}: mean {}",
                o.name,
                o.mean_iter_ms
            );
            assert!((0.5..=1.0).contains(&o.jain), "{}: jain {}", o.name, o.jain);
        }
    }
}
