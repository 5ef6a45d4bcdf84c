//! The benchmark's declaration, `BENCHMARK.json` at the repository root:
//! workload names, end-to-end metrics with their regression bounds, and
//! per-layer metrics. The binary embeds the file at build time, so the
//! units it prints and the bounds `compare` applies cannot drift from the
//! declaration.

use crate::json::{self, Value};

/// The embedded `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// The share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The embedded declaration.
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array `{key}`"))
        };
        let str_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match str_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    let bound = if bounded {
                        Some(m.get("bound").and_then(Value::as_f64).ok_or_else(|| {
                            "BENCHMARK.json: end-to-end metric without a bound".to_string()
                        })?)
                    } else {
                        None
                    };
                    Ok(Metric {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| str_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The declared end-to-end or per-layer metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
