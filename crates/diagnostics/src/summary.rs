//! `RunSummary`: the compact machine-readable distillation of a run, and
//! the tolerance-based diff between two summaries — the regression gate.
//!
//! The serialized form is a single flat JSON object, one metric per line,
//! keys sorted (BTreeMap order), values printed with Rust's shortest
//! round-trip `f64` formatting — so identical runs produce byte-identical
//! files and `diff(a, a)` is exactly clean.

use std::collections::BTreeMap;
use telemetry::export::JsonEscaped;
use telemetry::replay::{parse_flat_object, JsonValue};

/// A run's name plus a flat map of metric name → value.
///
/// Metric keys are dotted paths (`fair.interleave.overlap_fraction`); the
/// flat shape keeps the diff generic — any analyzer can add metrics without
/// the diff code changing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    pub name: String,
    pub metrics: BTreeMap<String, f64>,
}

impl RunSummary {
    pub fn new(name: &str) -> RunSummary {
        RunSummary {
            name: name.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records one metric. Non-finite values are clamped to 0 (JSON cannot
    /// carry them, and a NaN in a summary would poison every later diff).
    pub fn put(&mut self, key: &str, value: f64) {
        self.metrics
            .insert(key.to_string(), if value.is_finite() { value } else { 0.0 });
    }

    /// Records one metric under a dotted `prefix.key` path.
    pub fn put_under(&mut self, prefix: &str, key: &str, value: f64) {
        self.put(&format!("{prefix}.{key}"), value);
    }

    /// Serializes to the flat JSON object format (deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.metrics.len() * 48);
        out.push_str("{\n");
        out.push_str(&format!("\"name\":\"{}\"", JsonEscaped(&self.name)));
        for (k, v) in &self.metrics {
            out.push_str(",\n");
            out.push_str(&format!("\"{}\":{}", JsonEscaped(k), fmt_f64(*v)));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses the format produced by [`RunSummary::to_json`].
    pub fn from_json(text: &str) -> Result<RunSummary, String> {
        let map = parse_flat_object(text).map_err(|e| e.to_string())?;
        let mut summary = RunSummary::default();
        for (k, v) in map {
            match (k.as_str(), v) {
                ("name", JsonValue::Str(s)) => summary.name = s,
                ("name", _) => return Err("name must be a string".into()),
                (_, JsonValue::Num(n)) => {
                    summary.metrics.insert(k, n);
                }
                (k, v) => return Err(format!("metric {k:?} has non-numeric value {v:?}")),
            }
        }
        Ok(summary)
    }
}

/// JSON numbers can't be NaN/inf; Display of f64 round-trips exactly.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral values integral-with-.0 so the file stays
        // unambiguous about being a float field.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Tolerances for [`diff`]. A metric shift is flagged when it exceeds
/// **both** the absolute and the relative bound — so near-zero metrics
/// aren't flagged for tiny absolute wiggles, and large metrics aren't
/// flagged for sub-tolerance relative drift.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Relative tolerance, as a fraction of `max(|a|, |b|)`.
    pub rel_tol: f64,
    /// Absolute tolerance floor.
    pub abs_tol: f64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            rel_tol: 0.05,
            abs_tol: 1e-9,
        }
    }
}

/// One metric that moved beyond tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricShift {
    pub key: String,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / |a|`, or infinity when `a` is 0.
    pub rel_delta: f64,
}

/// The outcome of comparing two summaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Metrics whose values moved beyond tolerance.
    pub shifted: Vec<MetricShift>,
    /// Keys present only in the first summary.
    pub only_in_a: Vec<String>,
    /// Keys present only in the second summary.
    pub only_in_b: Vec<String>,
    /// Metrics compared (present in both).
    pub compared: usize,
}

impl DiffReport {
    /// Clean = no shifts and identical key sets.
    pub fn is_clean(&self) -> bool {
        self.shifted.is_empty() && self.only_in_a.is_empty() && self.only_in_b.is_empty()
    }

    /// Human-readable multi-line rendering (empty string when clean).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.shifted {
            out.push_str(&format!(
                "  {}: {} -> {} ({:+.2}%)\n",
                s.key,
                fmt_f64(s.a),
                fmt_f64(s.b),
                s.rel_delta * 100.0
            ));
        }
        for k in &self.only_in_a {
            out.push_str(&format!("  {k}: only in first summary\n"));
        }
        for k in &self.only_in_b {
            out.push_str(&format!("  {k}: only in second summary\n"));
        }
        out
    }
}

/// Compares two summaries metric-by-metric under `cfg` tolerances.
pub fn diff(a: &RunSummary, b: &RunSummary, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    for (k, &va) in &a.metrics {
        match b.metrics.get(k) {
            None => report.only_in_a.push(k.clone()),
            Some(&vb) => {
                report.compared += 1;
                let delta = (vb - va).abs();
                let scale = va.abs().max(vb.abs());
                if delta > cfg.abs_tol && delta > cfg.rel_tol * scale {
                    report.shifted.push(MetricShift {
                        key: k.clone(),
                        a: va,
                        b: vb,
                        rel_delta: if va == 0.0 {
                            f64::INFINITY
                        } else {
                            (vb - va) / va.abs()
                        },
                    });
                }
            }
        }
    }
    for k in b.metrics.keys() {
        if !a.metrics.contains_key(k) {
            report.only_in_b.push(k.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        let mut s = RunSummary::new("fig1");
        s.put("fair.overlap_fraction", 0.015625);
        s.put("fair.jain.mean", 0.875);
        s.put("unfair.overlap_fraction", 0.5);
        s.put("iters.job0.median_ms", 297.0);
        s
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample();
        let text = s.to_json();
        let back = RunSummary::from_json(&text).unwrap();
        assert_eq!(s, back);
        assert_eq!(text, back.to_json(), "serialization is a fixed point");
    }

    #[test]
    fn names_with_control_characters_round_trip() {
        let mut s = RunSummary::new("fig1/\"fair\"\n\t\u{1}\\");
        s.put("a\nb\tc\u{1}", 2.5);
        let text = s.to_json();
        assert_eq!(text.lines().count(), 4, "{text:?}");
        assert_eq!(RunSummary::from_json(&text), Ok(s));
    }

    #[test]
    fn json_is_deterministic_and_one_metric_per_line() {
        let s = sample();
        assert_eq!(s.to_json(), s.to_json());
        // name + 4 metrics + braces = 7 lines.
        assert_eq!(s.to_json().lines().count(), 7);
    }

    #[test]
    fn identical_summaries_diff_clean() {
        let s = sample();
        let r = diff(&s, &s.clone(), &DiffConfig::default());
        assert!(r.is_clean());
        assert_eq!(r.compared, 4);
    }

    #[test]
    fn shifts_beyond_tolerance_are_flagged() {
        let a = sample();
        let mut b = sample();
        b.put("fair.jain.mean", 0.7); // −20%: beyond 5%
        let r = diff(&a, &b, &DiffConfig::default());
        assert!(!r.is_clean());
        assert_eq!(r.shifted.len(), 1);
        assert_eq!(r.shifted[0].key, "fair.jain.mean");
        assert!(r.shifted[0].rel_delta < -0.15);
        // Within tolerance: clean.
        let mut c = sample();
        c.put("fair.jain.mean", 0.874);
        assert!(diff(&a, &c, &DiffConfig::default()).is_clean());
    }

    #[test]
    fn near_zero_metrics_need_absolute_shift_too() {
        let mut a = RunSummary::new("x");
        a.put("overlap", 0.0);
        let mut b = RunSummary::new("x");
        b.put("overlap", 1e-12); // relatively infinite, absolutely nothing
        assert!(diff(&a, &b, &DiffConfig::default()).is_clean());
        let mut c = RunSummary::new("x");
        c.put("overlap", 0.3);
        let r = diff(&a, &c, &DiffConfig::default());
        assert_eq!(r.shifted.len(), 1);
        assert_eq!(r.shifted[0].rel_delta, f64::INFINITY);
    }

    #[test]
    fn missing_keys_are_reported_both_ways() {
        let mut a = RunSummary::new("x");
        a.put("m1", 1.0);
        a.put("m2", 2.0);
        let mut b = RunSummary::new("x");
        b.put("m2", 2.0);
        b.put("m3", 3.0);
        let r = diff(&a, &b, &DiffConfig::default());
        assert!(!r.is_clean());
        assert_eq!(r.only_in_a, vec!["m1"]);
        assert_eq!(r.only_in_b, vec!["m3"]);
        assert_eq!(r.compared, 1);
        assert!(r.render().contains("m1"));
    }

    #[test]
    fn non_finite_metrics_are_clamped() {
        let mut s = RunSummary::new("x");
        s.put("bad", f64::NAN);
        s.put("worse", f64::INFINITY);
        assert_eq!(s.metrics["bad"], 0.0);
        assert_eq!(s.metrics["worse"], 0.0);
    }
}
