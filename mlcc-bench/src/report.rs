//! Pass records and the metrics summarised from them: what a pass process
//! reports to the runner, the `--out` file, and the result line.

use crate::calib;
use crate::json::{self, Value};
use crate::spec::Spec;
use crate::stats::Quartiles;
use crate::workloads::PassOutput;
use std::fmt::Write as _;
use std::time::Duration;

/// One pass as the runner sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// Process start until the first operation began (set by the runner,
    /// which started the process).
    pub setup_s: f64,
    /// Host time of each operation, in the order they ran.
    pub op_s: Vec<f64>,
    /// Calibration loop time before each operation and after the last
    /// (see [`crate::calib`]).
    pub calib_s: Vec<f64>,
    pub job_iters: u64,
    pub attempted: u64,
    pub failed: u64,
    pub fidelity_err: Option<f64>,
    /// `VmHWM` of the pass process.
    pub peak_rss_mb: f64,
    pub per_layer: Vec<(String, f64)>,
}

impl PassRecord {
    /// The record of a finished pass; `setup_s` is filled in by the caller.
    pub fn from_output(out: &PassOutput, peak_rss_mb: f64) -> PassRecord {
        PassRecord {
            setup_s: 0.0,
            op_s: out.op_walls.iter().map(Duration::as_secs_f64).collect(),
            calib_s: out.op_calib.clone(),
            job_iters: out.job_iters,
            attempted: out.attempted,
            failed: out.failed(),
            fidelity_err: out.fidelity_err,
            peak_rss_mb,
            per_layer: out
                .per_layer
                .iter()
                .map(|&(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    /// Host time of the whole operation list.
    pub fn wall_s(&self) -> f64 {
        self.op_s.iter().sum()
    }

    pub fn job_iters_per_s(&self) -> f64 {
        self.job_iters as f64 / self.wall_s()
    }

    pub fn to_json(&self) -> String {
        let layers: Vec<String> = self
            .per_layer
            .iter()
            .map(|(n, v)| format!("{}:{}", json::quote(n), json::num(*v)))
            .collect();
        let list = |v: &[f64]| {
            v.iter()
                .map(|&t| json::num(t))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"setup_s\":{},\"wall_s\":{},\"op_s\":[{}],\"calib_s\":[{}],\"job_iters\":{},\
             \"attempted\":{},\"failed\":{},\"fidelity_err\":{},\"peak_rss_mb\":{},\
             \"per_layer\":{{{}}}}}",
            json::num(self.setup_s),
            json::num(self.wall_s()),
            list(&self.op_s),
            list(&self.calib_s),
            self.job_iters,
            self.attempted,
            self.failed,
            self.fidelity_err.map_or("null".to_string(), json::num),
            json::num(self.peak_rss_mb),
            layers.join(",")
        )
    }

    pub fn from_json(v: &Value) -> Result<PassRecord, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("pass record without number `{key}`"))
        };
        let list = |key: &str| -> Result<Vec<f64>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("pass record without `{key}`"))?
                .iter()
                .map(|t| t.as_f64().ok_or_else(|| format!("non-numeric `{key}`")))
                .collect()
        };
        Ok(PassRecord {
            setup_s: num("setup_s")?,
            op_s: list("op_s")?,
            calib_s: list("calib_s")?,
            job_iters: num("job_iters")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            fidelity_err: v.get("fidelity_err").and_then(Value::as_f64),
            peak_rss_mb: num("peak_rss_mb")?,
            per_layer: v
                .get("per_layer")
                .and_then(Value::as_object)
                .unwrap_or_default()
                .iter()
                .map(|(n, x)| (n.clone(), x.as_f64().unwrap_or(f64::NAN)))
                .collect(),
        })
    }
}

/// One metric: its reported value and the per-pass values behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub name: String,
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// How `value` comes from the passes (`median`, `max`, ...).
    pub how: &'static str,
    /// One value per pass, for the quartiles.
    pub values: Vec<f64>,
}

impl Summary {
    fn new(spec: &Spec, name: &str, how: &'static str, value: f64, values: Vec<f64>) -> Summary {
        Summary {
            name: name.to_string(),
            unit: spec
                .metric(name)
                .map_or_else(|| "ratio".to_string(), |m| m.unit.clone()),
            value,
            how,
            values,
        }
    }

    pub fn quartiles(&self) -> Quartiles {
        Quartiles::of(&self.values).unwrap_or(Quartiles {
            q1: f64::NAN,
            median: f64::NAN,
            q3: f64::NAN,
        })
    }
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Host time of one pass's operation list, each operation at its fastest
/// over the passes.
pub fn fastest_ops_s(passes: &[PassRecord]) -> f64 {
    let ops = passes.iter().map(|p| p.op_s.len()).max().unwrap_or(0);
    (0..ops)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.op_s.get(i))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The first quartile of the passes' calibration loop times: the host's
/// speed in the run's faster moments, as the fastest operation times are.
pub fn loop_s(passes: &[PassRecord]) -> Option<f64> {
    let samples: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.calib_s.iter().copied())
        .collect();
    Quartiles::of(&samples).map(|q| q.q1)
}

/// The end-to-end metrics of one workload's untraced passes, followed by
/// the two correctness metrics `fidelity_err` (only with a reference) and
/// `fail_rate`, which the result line leaves out because they are 0 on
/// every healthy run.
///
/// `wall_s` sums each operation's fastest time over the passes, and
/// `setup_s` is the median set-up time; both are scaled to the reference
/// host speed ([`calib`]). Other tenants of the host slow this process by
/// up to half, in execution speed rather than scheduling (on-CPU time
/// tracks wall time), for seconds to whole runs. The fastest time per
/// operation drops the slow moments within a run; the scaling removes
/// most of the difference between runs, whose fastest moments ran up to
/// 60% apart. Every pass's unscaled values stay in `values` for the
/// quartiles.
pub fn end_to_end(spec: &Spec, passes: &[PassRecord]) -> Vec<Summary> {
    let walls: Vec<f64> = passes.iter().map(PassRecord::wall_s).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let median = |v: &[f64]| Quartiles::of(v).map_or(f64::NAN, |q| q.median);
    let (wall, setup) = match loop_s(passes) {
        Some(loop_s) => (
            calib::at_reference(fastest_ops_s(passes), loop_s),
            calib::at_reference(median(&setups), loop_s),
        ),
        None => (f64::NAN, f64::NAN),
    };
    let job_iters = passes.iter().map(|p| p.job_iters).max().unwrap_or(0) as f64;
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let mut out = vec![
        Summary::new(
            spec,
            "wall_s",
            "fastest per operation at reference speed",
            wall,
            walls,
        ),
        Summary::new(
            spec,
            "job_iters_per_s",
            "over wall_s",
            job_iters / wall,
            passes.iter().map(PassRecord::job_iters_per_s).collect(),
        ),
        Summary::new(spec, "setup_s", "median at reference speed", setup, setups),
        Summary::new(spec, "peak_rss_mb", "max", max(&rss), rss),
    ];
    let errs: Option<Vec<f64>> = passes.iter().map(|p| p.fidelity_err).collect();
    if let Some(errs) = errs.filter(|e| !e.is_empty()) {
        out.push(Summary::new(spec, "fidelity_err", "max", max(&errs), errs));
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let rate = failed as f64 / attempted.max(1) as f64;
    out.push(Summary::new(spec, "fail_rate", "total", rate, vec![rate]));
    out
}

/// The per-layer metrics of a traced pass, with `bench.trace_overhead`
/// measured against the untraced passes' median wall time.
pub fn per_layer(spec: &Spec, traced: &PassRecord, untraced: &[PassRecord]) -> Vec<Summary> {
    let median_wall = Quartiles::of(&untraced.iter().map(PassRecord::wall_s).collect::<Vec<_>>())
        .map_or(f64::NAN, |q| q.median);
    traced
        .per_layer
        .iter()
        .cloned()
        .chain([(
            "bench.trace_overhead".to_string(),
            traced.wall_s() / median_wall - 1.0,
        )])
        .map(|(name, v)| Summary::new(spec, &name, "traced pass", v, vec![v]))
        .collect()
}

/// One workload's passes in a run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    pub name: String,
    pub passes: Vec<PassRecord>,
    pub traced: Option<PassRecord>,
}

/// The `--out` document: every pass record plus each workload's
/// summaries. `compare` reads the pass records back.
pub fn out_file(spec: &Spec, seed: u64, runs: &[WorkloadRun]) -> String {
    let summary_obj = |summaries: &[Summary]| {
        let fields: Vec<String> = summaries
            .iter()
            .map(|s| {
                let q = s.quartiles();
                let values: Vec<String> = s.values.iter().map(|&v| json::num(v)).collect();
                format!(
                    "{}:{{\"unit\":{},\"value\":{},\"median\":{},\"q1\":{},\"q3\":{},\"values\":[{}]}}",
                    json::quote(&s.name),
                    json::quote(&s.unit),
                    json::num(s.value),
                    json::num(q.median),
                    json::num(q.q1),
                    json::num(q.q3),
                    values.join(",")
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    let workloads: Vec<String> = runs
        .iter()
        .map(|r| {
            let passes: Vec<String> = r.passes.iter().map(PassRecord::to_json).collect();
            let layers = r
                .traced
                .as_ref()
                .map_or(Vec::new(), |t| per_layer(spec, t, &r.passes));
            format!(
                "{}:{{\"passes\":[{}],\"traced\":{},\"end_to_end\":{},\"per_layer\":{}}}",
                json::quote(&r.name),
                passes.join(","),
                r.traced
                    .as_ref()
                    .map_or("null".to_string(), PassRecord::to_json),
                summary_obj(&end_to_end(spec, &r.passes)),
                summary_obj(&layers)
            )
        })
        .collect();
    format!(
        "{{\"seed\":{seed},\"workloads\":{{{}}}}}\n",
        workloads.join(",")
    )
}

/// Reads the workload runs back from an `--out` document.
pub fn read_out_file(text: &str) -> Result<Vec<WorkloadRun>, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("not an mlcc-bench --out file: no `workloads`")?;
    workloads
        .iter()
        .map(|(name, w)| {
            let passes = w
                .get("passes")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{name}: no `passes`"))?
                .iter()
                .map(PassRecord::from_json)
                .collect::<Result<_, _>>()?;
            let traced = match w.get("traced") {
                Some(t @ Value::Obj(_)) => Some(PassRecord::from_json(t)?),
                _ => None,
            };
            Ok(WorkloadRun {
                name: name.clone(),
                passes,
                traced,
            })
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (`name → {value, unit}`).
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, Summary)]) -> String {
    let mut m = String::new();
    for (i, (name, s)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push(',');
        }
        let _ = write!(
            m,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(name),
            json::num(s.value),
            json::quote(&s.unit)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{m}}}}}",
        failed == 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(op_s: Vec<f64>, loop_s: f64) -> PassRecord {
        PassRecord {
            setup_s: 0.002,
            calib_s: vec![loop_s; op_s.len() + 1],
            op_s,
            job_iters: 10,
            attempted: 2,
            failed: 0,
            fidelity_err: None,
            peak_rss_mb: 1.0,
            per_layer: Vec::new(),
        }
    }

    /// Each operation counts at its fastest, and a host whose calibration
    /// loop ran twice as slow reads half as long.
    #[test]
    fn wall_takes_fastest_operations_at_reference_speed() {
        let spec = Spec::embedded();
        let check = |passes: &[PassRecord], name: &str, want: f64| {
            let got = end_to_end(&spec, passes)
                .into_iter()
                .find(|s| s.name == name)
                .unwrap()
                .value;
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "{name}: {got} != {want}"
            );
        };
        let at_ref = [
            pass(vec![1.0, 3.0], calib::REFERENCE_S),
            pass(vec![2.0, 2.0], calib::REFERENCE_S),
        ];
        check(&at_ref, "wall_s", 3.0);
        check(&at_ref, "setup_s", 0.002);
        let slow = [
            pass(vec![1.0, 3.0], 2.0 * calib::REFERENCE_S),
            pass(vec![2.0, 2.0], 2.0 * calib::REFERENCE_S),
        ];
        check(&slow, "wall_s", 1.5);
        check(&slow, "job_iters_per_s", 10.0 / 1.5);
        check(&slow, "setup_s", 0.001);
    }
}
