//! `mlcc-bench compare A.json B.json`: each (workload, end-to-end metric)
//! row of two `--out` files, with a verdict against the declared bounds.

use crate::reference::FIDELITY_LIMIT;
use crate::report::{end_to_end, PassRecord, Summary, WorkloadRun};
use crate::spec::{Better, Spec};
use crate::stats::Quartiles;
use std::fmt;

/// What a row says about B relative to A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than A by more than the bound.
    Worse,
    /// The passes spread wider than the bound and the two sides overlap,
    /// so the runs cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// Quartiles of single passes, for display.
    pub a: Quartiles,
    pub b: Quartiles,
    /// The reported values (see [`Summary::how`]).
    pub a_value: f64,
    pub b_value: f64,
    pub verdict: Verdict,
}

/// One side's reported value, and the range it takes when any single
/// pass is left out (a jackknife): how far one run of that many passes
/// can move it. The quartiles of single passes overstate that, because
/// every reported value pools all the passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Estimate {
    /// The leave-one-out range as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.hi - self.lo) / self.value.abs()
        }
    }
}

/// The verdict for one bounded metric: B's value against A's, relative to
/// A's and signed so that positive is worse, checked against `bound`
/// unless either side's spread exceeds the bound while their ranges
/// overlap.
pub fn verdict(a: Estimate, b: Estimate, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    } / a.value.abs();
    let overlap = a.lo <= b.hi && b.lo <= a.hi;
    if a.spread().max(b.spread()) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// [`end_to_end`] of `passes`, each metric paired with its jackknife
/// [`Estimate`].
fn estimates(spec: &Spec, passes: &[PassRecord]) -> Vec<(Summary, Estimate)> {
    let full = end_to_end(spec, passes);
    let left_out: Vec<Vec<Summary>> = if passes.len() > 1 {
        (0..passes.len())
            .map(|i| {
                let rest: Vec<PassRecord> = passes
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i)
                    .map(|(_, p)| p.clone())
                    .collect();
                end_to_end(spec, &rest)
            })
            .collect()
    } else {
        Vec::new()
    };
    full.into_iter()
        .map(|s| {
            let (lo, hi) = left_out
                .iter()
                .filter_map(|run| run.iter().find(|x| x.name == s.name))
                .fold((s.value, s.value), |(lo, hi), x| {
                    (lo.min(x.value), hi.max(x.value))
                });
            let e = Estimate {
                value: s.value,
                lo,
                hi,
            };
            (s, e)
        })
        .collect()
}

/// Every row the two runs share: the declared end-to-end metrics by
/// their bounds, then `fidelity_err` (worse above the fidelity limit) and
/// `fail_rate` (worse on any increase).
pub fn compare(spec: &Spec, a: &[WorkloadRun], b: &[WorkloadRun]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.name == ra.name) else {
            continue;
        };
        let (sa, sb) = (estimates(spec, &ra.passes), estimates(spec, &rb.passes));
        for (x, ea) in &sa {
            let Some((y, eb)) = sb.iter().find(|(y, _)| y.name == x.name) else {
                continue;
            };
            let verdict = match (spec.metric(&x.name), x.name.as_str()) {
                (Some(m), _) => verdict(*ea, *eb, m.better, m.bound.unwrap_or(0.0)),
                (None, "fidelity_err") if y.value > FIDELITY_LIMIT => Verdict::Worse,
                (None, "fail_rate") if y.value > x.value => Verdict::Worse,
                (None, "fail_rate") if y.value < x.value => Verdict::Improved,
                _ => Verdict::Unchanged,
            };
            rows.push(Row {
                workload: ra.name.clone(),
                metric: x.name.clone(),
                unit: x.unit.clone(),
                a: x.quartiles(),
                b: y.quartiles(),
                a_value: x.value,
                b_value: y.value,
                verdict,
            });
        }
    }
    rows
}

/// The rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut table = vec![vec![
        "workload".to_string(),
        "metric".to_string(),
        "A value [q1, q3]".to_string(),
        "B value [q1, q3]".to_string(),
        "change".to_string(),
        "verdict".to_string(),
    ]];
    for r in rows {
        let side = |v: f64, q: &Quartiles| format!("{v:.4} [{:.4}, {:.4}] {}", q.q1, q.q3, r.unit);
        let change = if r.a_value == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (r.b_value - r.a_value) / r.a_value.abs() * 100.0)
        };
        table.push(vec![
            r.workload.clone(),
            r.metric.clone(),
            side(r.a_value, &r.a),
            side(r.b_value, &r.b),
            change,
            r.verdict.to_string(),
        ]);
    }
    telemetry::text_table(&table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(value: f64, spread: f64) -> Estimate {
        Estimate {
            value,
            lo: value * (1.0 - spread / 2.0),
            hi: value * (1.0 + spread / 2.0),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = e(1.0, 0.02);
        let v = |b: Estimate| verdict(a, b, Better::Lower, 0.1);
        assert_eq!(v(e(1.01, 0.02)), Verdict::Unchanged);
        assert_eq!(v(e(1.2, 0.02)), Verdict::Worse);
        assert_eq!(v(e(0.8, 0.02)), Verdict::Improved);
        // Wide and overlapping: cannot tell.
        assert_eq!(v(e(1.15, 0.4)), Verdict::Unresolved);
        // Wide but clear of A: still worse.
        assert_eq!(v(e(1.6, 0.4)), Verdict::Worse);
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(a, e(1.2, 0.02), Better::Higher, 0.1),
            Verdict::Improved
        );
    }
}
