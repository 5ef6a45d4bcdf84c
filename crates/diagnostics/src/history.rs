//! Cross-run trend warehouse: every benchmark / summary production
//! appends one [`HistoryRecord`] line to `bench/HISTORY.jsonl`, and
//! [`trend`] diffs the last K records per experiment to flag wall-clock
//! or quality regressions beyond tolerance.
//!
//! The line format is the same flat-JSON-object shape as [`RunSummary`],
//! one record per line:
//!
//! ```text
//! {"experiment":"fig1","kind":"bench","parallel.jobs":4.0,"wall_clock_secs":1.25}
//! ```
//!
//! `experiment` and `kind` are reserved string keys; everything else is a
//! numeric metric. Records carry **no wall-clock timestamps** — ordering
//! is the append order of the file — so two identical runs append
//! byte-identical records and the trend verdict over them is
//! deterministic.

use crate::summary::{fmt_f64, RunSummary};
use std::collections::BTreeMap;
use telemetry::export::JsonEscaped;
use telemetry::replay::{parse_flat_object, JsonValue};

/// One appended run: which experiment, what produced it, and its metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryRecord {
    /// Experiment name (`fig1`, `chaos`, …).
    pub experiment: String,
    /// What produced the record: `"bench"` (BENCH_*.json path) or
    /// `"summary"` (run summary path).
    pub kind: String,
    /// Flat metric map; `wall_clock_secs` is the conventional key for
    /// elapsed wall time.
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    pub fn new(experiment: &str, kind: &str) -> HistoryRecord {
        HistoryRecord {
            experiment: experiment.to_string(),
            kind: kind.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Builds a record from a [`RunSummary`] (its name becomes the
    /// experiment).
    pub fn from_summary(summary: &RunSummary, kind: &str) -> HistoryRecord {
        HistoryRecord {
            experiment: summary.name.clone(),
            kind: kind.to_string(),
            metrics: summary.metrics.clone(),
        }
    }

    /// Serializes to one flat JSON line (deterministic: sorted keys,
    /// shortest-round-trip floats, trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "{{\"experiment\":\"{}\",\"kind\":\"{}\"",
            JsonEscaped(&self.experiment),
            JsonEscaped(&self.kind)
        );
        for (k, v) in &self.metrics {
            out.push_str(&format!(",\"{}\":{}", JsonEscaped(k), fmt_f64(*v)));
        }
        out.push_str("}\n");
        out
    }

    /// Parses one line of the format produced by [`HistoryRecord::to_line`].
    pub fn from_line(line: &str) -> Result<HistoryRecord, String> {
        let map = parse_flat_object(line).map_err(|e| e.to_string())?;
        let mut rec = HistoryRecord::default();
        for (k, v) in map {
            match (k.as_str(), v) {
                ("experiment", JsonValue::Str(s)) => rec.experiment = s,
                ("kind", JsonValue::Str(s)) => rec.kind = s,
                ("experiment" | "kind", _) => {
                    return Err(format!("reserved key {k:?} must be a string"));
                }
                (_, JsonValue::Num(n)) => {
                    rec.metrics.insert(k, n);
                }
                (k, v) => return Err(format!("metric {k:?} has non-numeric value {v:?}")),
            }
        }
        if rec.experiment.is_empty() {
            return Err("record is missing the `experiment` key".into());
        }
        Ok(rec)
    }
}

/// Parses a whole HISTORY.jsonl text (blank lines skipped), preserving
/// append order. Errors carry the 1-based line number.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            HistoryRecord::from_line(line).map_err(|e| format!("history line {}: {e}", ln + 1))?,
        );
    }
    Ok(out)
}

/// Tolerances for [`trend`].
#[derive(Debug, Clone, Copy)]
pub struct TrendConfig {
    /// How many most-recent records per experiment to consider.
    pub last: usize,
    /// Two-sided relative tolerance for quality metrics.
    pub rel_tol: f64,
    /// Absolute tolerance floor (shifts below it never flag).
    pub abs_tol: f64,
    /// One-sided relative tolerance for `wall_clock_secs` — only
    /// *increases* beyond it flag. Wall clock is inherently noisy, so the
    /// default is loose.
    pub wall_rel_tol: f64,
}

impl Default for TrendConfig {
    fn default() -> TrendConfig {
        TrendConfig {
            last: 5,
            rel_tol: 0.1,
            abs_tol: 1e-9,
            wall_rel_tol: 0.5,
        }
    }
}

/// Conventional metric key for elapsed wall time.
pub const WALL_CLOCK_KEY: &str = "wall_clock_secs";

/// One metric in the latest record that regressed beyond tolerance
/// against the baseline (median of the prior records in the window).
#[derive(Debug, Clone, PartialEq)]
pub struct TrendFlag {
    pub key: String,
    /// Median of the metric over the prior records in the window.
    pub baseline: f64,
    /// The latest record's value.
    pub latest: f64,
    /// `(latest − baseline) / |baseline|`, or infinity when baseline is 0.
    pub rel_delta: f64,
}

/// Trend verdict for one experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentTrend {
    pub experiment: String,
    /// Records considered (≤ `cfg.last`), oldest first.
    pub records: usize,
    /// Metrics compared between the latest record and the baseline.
    pub compared: usize,
    /// Metrics that moved beyond tolerance.
    pub flags: Vec<TrendFlag>,
}

/// Verdicts for every experiment found in the history, name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrendReport {
    pub experiments: Vec<ExperimentTrend>,
}

impl TrendReport {
    /// Clean = no experiment flagged any metric.
    pub fn is_clean(&self) -> bool {
        self.experiments.iter().all(|e| e.flags.is_empty())
    }

    /// Deterministic human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.experiments {
            if e.records < 2 {
                out.push_str(&format!(
                    "{}: {} record(s), nothing to compare\n",
                    e.experiment, e.records
                ));
                continue;
            }
            if e.flags.is_empty() {
                out.push_str(&format!(
                    "{}: ok ({} records, {} metrics stable)\n",
                    e.experiment, e.records, e.compared
                ));
                continue;
            }
            out.push_str(&format!(
                "{}: {} regression(s) over {} records\n",
                e.experiment,
                e.flags.len(),
                e.records
            ));
            for f in &e.flags {
                out.push_str(&format!(
                    "  {}: {} -> {} ({:+.1}%)\n",
                    f.key,
                    fmt_f64(f.baseline),
                    fmt_f64(f.latest),
                    f.rel_delta * 100.0
                ));
            }
        }
        out
    }
}

fn median(sorted: &mut [f64]) -> f64 {
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Diffs the latest record per experiment against the median of the
/// prior records within the last-K window. `wall_clock_secs` is judged
/// one-sided (only slowdowns flag, `wall_rel_tol`); every other metric is
/// judged two-sided (`rel_tol`). Experiments with fewer than two records
/// in the window are reported but cannot flag.
pub fn trend(records: &[HistoryRecord], cfg: &TrendConfig) -> TrendReport {
    let mut by_exp: BTreeMap<&str, Vec<&HistoryRecord>> = BTreeMap::new();
    for rec in records {
        by_exp.entry(&rec.experiment).or_default().push(rec);
    }
    let mut report = TrendReport::default();
    for (experiment, mut recs) in by_exp {
        let keep = cfg.last.max(2);
        if recs.len() > keep {
            recs.drain(..recs.len() - keep);
        }
        let mut exp = ExperimentTrend {
            experiment: experiment.to_string(),
            records: recs.len(),
            ..ExperimentTrend::default()
        };
        if let Some((latest, prior)) = recs.split_last() {
            if !prior.is_empty() {
                for (key, &value) in &latest.metrics {
                    let mut base: Vec<f64> = prior
                        .iter()
                        .filter_map(|r| r.metrics.get(key).copied())
                        .collect();
                    if base.is_empty() {
                        continue;
                    }
                    exp.compared += 1;
                    let baseline = median(&mut base);
                    let delta = value - baseline;
                    // Tolerance is relative to the *baseline* — "50%
                    // slower" means latest > 1.5 × baseline. A zero
                    // baseline flags on any shift beyond the floor.
                    let (breach, tol) = if key == WALL_CLOCK_KEY {
                        (delta > cfg.abs_tol, cfg.wall_rel_tol)
                    } else {
                        (delta.abs() > cfg.abs_tol, cfg.rel_tol)
                    };
                    if breach && delta.abs() > tol * baseline.abs() {
                        exp.flags.push(TrendFlag {
                            key: key.clone(),
                            baseline,
                            latest: value,
                            rel_delta: if baseline == 0.0 {
                                f64::INFINITY
                            } else {
                                delta / baseline.abs()
                            },
                        });
                    }
                }
            }
        }
        report.experiments.push(exp);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(exp: &str, wall: f64, quality: f64) -> HistoryRecord {
        let mut r = HistoryRecord::new(exp, "bench");
        r.metrics.insert(WALL_CLOCK_KEY.to_string(), wall);
        r.metrics.insert("quality.jain".to_string(), quality);
        r
    }

    #[test]
    fn line_round_trips_exactly() {
        let r = rec("fig1", 1.25, 0.875);
        let line = r.to_line();
        assert!(line.ends_with("}\n"));
        let back = HistoryRecord::from_line(&line).unwrap();
        assert_eq!(r, back);
        assert_eq!(line, back.to_line(), "serialization is a fixed point");
        assert!(HistoryRecord::from_line("{\"kind\":\"bench\"}").is_err());
        assert!(HistoryRecord::from_line("{\"experiment\":3}").is_err());
    }

    #[test]
    fn names_with_control_characters_round_trip() {
        let mut r = HistoryRecord::new("chaos\nlinks\t\u{1} \"q\" \\", "summary");
        r.metrics.insert("m\n\t\u{1}".to_string(), 1.5);
        let text = r.to_line();
        assert_eq!(text.lines().count(), 1, "{text:?}");
        assert_eq!(parse_history(&text), Ok(vec![r]));
    }

    #[test]
    fn parse_history_reports_line_numbers() {
        let text = format!("{}not json\n", rec("a", 1.0, 1.0).to_line());
        let err = parse_history(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let ok = parse_history(&format!(
            "{}\n\n{}",
            rec("a", 1.0, 1.0).to_line().trim_end(),
            rec("b", 2.0, 1.0).to_line()
        ))
        .unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn identical_runs_trend_clean_and_deterministically() {
        let records = vec![rec("fig1", 1.0, 0.9), rec("fig1", 1.0, 0.9)];
        let report = trend(&records, &TrendConfig::default());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(
            report.render(),
            trend(&records, &TrendConfig::default()).render()
        );
    }

    #[test]
    fn wall_clock_regression_flags_one_sided() {
        let mut records = vec![
            rec("fig1", 1.0, 0.9),
            rec("fig1", 1.1, 0.9),
            rec("fig1", 0.9, 0.9),
        ];
        // 3x slower than the 1.0 median: flags.
        records.push(rec("fig1", 3.0, 0.9));
        let report = trend(&records, &TrendConfig::default());
        assert!(!report.is_clean());
        let flags = &report.experiments[0].flags;
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].key, WALL_CLOCK_KEY);
        assert!(flags[0].rel_delta > 1.0);
        // 3x *faster* does not flag — wall clock is one-sided.
        let last = records.len() - 1;
        records[last] = rec("fig1", 0.3, 0.9);
        assert!(trend(&records, &TrendConfig::default()).is_clean());
    }

    #[test]
    fn quality_regression_flags_two_sided() {
        let records = vec![
            rec("fig1", 1.0, 0.9),
            rec("fig1", 1.0, 0.9),
            rec("fig1", 1.0, 0.5),
        ];
        let report = trend(&records, &TrendConfig::default());
        let flags = &report.experiments[0].flags;
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].key, "quality.jain");
        assert!(flags[0].rel_delta < -0.1);
        // Improvements beyond tolerance also flag (quality drift is
        // two-sided: an unexplained jump is still a surprise).
        let up = vec![
            rec("fig1", 1.0, 0.5),
            rec("fig1", 1.0, 0.5),
            rec("fig1", 1.0, 0.9),
        ];
        assert!(!trend(&up, &TrendConfig::default()).is_clean());
    }

    #[test]
    fn window_limits_how_far_back_baselines_reach() {
        // Ancient slow runs outside the window must not mask a regression
        // against the recent fast baseline.
        let mut records = vec![rec("fig1", 9.0, 0.9); 10];
        records.extend(vec![rec("fig1", 1.0, 0.9); 4]);
        records.push(rec("fig1", 2.0, 0.9));
        let report = trend(&records, &TrendConfig::default());
        assert!(!report.is_clean(), "{}", report.render());
        assert_eq!(report.experiments[0].records, 5);
        assert_eq!(report.experiments[0].flags[0].baseline, 1.0);
    }

    #[test]
    fn single_record_and_unknown_metrics_cannot_flag() {
        let report = trend(&[rec("solo", 1.0, 0.9)], &TrendConfig::default());
        assert!(report.is_clean());
        assert!(report.render().contains("nothing to compare"));
        // A metric present only in the latest record has no baseline.
        let mut latest = rec("fig1", 1.0, 0.9);
        latest.metrics.insert("new.metric".into(), 42.0);
        let report = trend(&[rec("fig1", 1.0, 0.9), latest], &TrendConfig::default());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn experiments_are_judged_independently_and_name_sorted() {
        let records = vec![
            rec("zeta", 1.0, 0.9),
            rec("alpha", 1.0, 0.9),
            rec("zeta", 1.0, 0.9),
            rec("alpha", 1.0, 0.1),
        ];
        let report = trend(&records, &TrendConfig::default());
        let names: Vec<&str> = report
            .experiments
            .iter()
            .map(|e| e.experiment.as_str())
            .collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert!(!report.experiments[0].flags.is_empty());
        assert!(report.experiments[1].flags.is_empty());
    }
}
