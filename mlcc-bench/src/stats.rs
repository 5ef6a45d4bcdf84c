//! Summary statistics over a handful of passes.

/// Median and quartiles of a sample, computed as Python's
/// `statistics.median` and `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) do, so the numbers here match what a
/// script computes from the same values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// `None` for an empty sample; a single value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Some(Quartiles {
                q1: v[0],
                median,
                q3: v[0],
            });
        }
        let quantile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Quartiles {
            q1: quantile(1),
            median,
            q3: quantile(3),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from CPython's `statistics` module.
    #[test]
    fn matches_python_statistics() {
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.25, 2.5, 3.75));
        let q = Quartiles::of(&[10.0, 20.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        let q = Quartiles::of(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert!(Quartiles::of(&[]).is_none());
    }
}
