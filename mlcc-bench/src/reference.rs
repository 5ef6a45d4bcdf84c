//! Committed reference outputs and the fidelity check against them.
//!
//! A reference is flat text, one `key value` pair per line (`#` starts a
//! comment). Keys name a simulated result as
//! `<workload>/<operation>/<quantity>`; values are the numbers the
//! simulator produced when the reference was written, printed with every
//! digit. References exist for seed 1 (development) and seed 2 (held out
//! to confirm a claim); any other seed runs without one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The largest relative deviation from the reference an operation may
/// show before it counts as failed. Wide enough for a stepping change
/// that drifts medians by ~2e-4, narrow enough to catch a broken engine.
pub const FIDELITY_LIMIT: f64 = 1e-3;

/// Parsed reference values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    values: BTreeMap<String, f64>,
}

impl Reference {
    /// The committed reference for `seed`, if there is one.
    pub fn for_seed(seed: u64) -> Option<Reference> {
        let text = match seed {
            1 => include_str!("../reference/seed1.txt"),
            2 => include_str!("../reference/seed2.txt"),
            _ => return None,
        };
        Some(Reference::parse(text).expect("committed references are well formed"))
    }

    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut values = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(key), Some(value), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("reference line {}: expected `key value`", n + 1));
            };
            let value: f64 = value
                .parse()
                .map_err(|_| format!("reference line {}: bad number {value:?}", n + 1))?;
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("reference line {}: duplicate key {key}", n + 1));
            }
        }
        Ok(Reference { values })
    }

    /// Renders observed values in the reference format.
    pub fn render(observed: &[(String, f64)]) -> String {
        let mut out = String::new();
        for (k, v) in observed {
            let _ = writeln!(out, "{k} {v:?}");
        }
        out
    }

    pub fn from_observed(observed: &[(String, f64)]) -> Reference {
        Reference {
            values: observed.iter().cloned().collect(),
        }
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    pub fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_string(), value);
    }

    /// The deviation of `value` from the reference for `key`, relative to
    /// `max(|reference|, 1)` so 0/1 flags deviate by 1 when they flip.
    pub fn deviation(&self, key: &str, value: f64) -> Result<f64, String> {
        let want = self
            .get(key)
            .ok_or_else(|| format!("no reference value for {key}"))?;
        let dev = (value - want).abs() / want.abs().max(1.0);
        // A NaN result is as wrong as a result can be.
        Ok(if dev.is_nan() { f64::INFINITY } else { dev })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trip() {
        let obs = vec![
            ("a/op/j0_median_ms".to_string(), 380.31500000000005),
            ("a/op/recovered".to_string(), 1.0),
        ];
        let r = Reference::parse(&Reference::render(&obs)).unwrap();
        assert_eq!(r, Reference::from_observed(&obs));
        assert_eq!(
            r.deviation("a/op/j0_median_ms", 380.31500000000005),
            Ok(0.0)
        );
        assert_eq!(r.deviation("a/op/recovered", 0.0), Ok(1.0));
        assert!(r.deviation("missing", 1.0).is_err());
        assert!(Reference::parse("k 1\nk 2").is_err());
        assert!(Reference::parse("k one").is_err());
    }
}
