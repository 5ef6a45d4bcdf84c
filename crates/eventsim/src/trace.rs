//! Time-series traces and empirical CDFs for experiment output.
//!
//! The paper's evaluation artifacts are (a) link-utilization time series
//! (Fig. 1b/1c, Fig. 2) and (b) CDFs of training iteration times (Fig. 1d).
//! [`TimeSeries`] and [`Cdf`] are the in-memory forms both are produced in.

use simtime::{Dur, Time};

/// A piecewise-constant (step-function) time series.
///
/// A sample `(t, v)` means "the value is `v` from `t` until the next
/// sample". This matches how a rate-based simulator naturally emits data:
/// a flow's rate changes at discrete instants and holds between them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// An empty trace.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Appends a sample. Out-of-order samples panic; a sample at the same
    /// timestamp as the last one overwrites it (the final value at an
    /// instant wins, matching event-queue semantics).
    pub fn push(&mut self, t: Time, v: f64) {
        if let Some(&mut (last_t, ref mut last_v)) = self.samples.last_mut() {
            assert!(t >= last_t, "TimeSeries: out-of-order sample at {t:?}");
            if t == last_t {
                *last_v = v;
                return;
            }
        }
        self.samples.push((t, v));
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The value at instant `t` (the last sample at or before `t`), or
    /// `None` if `t` precedes the first sample.
    pub fn value_at(&self, t: Time) -> Option<f64> {
        match self.samples.binary_search_by(|&(st, _)| st.cmp(&t)) {
            Ok(i) => Some(self.samples[i].1),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].1),
        }
    }

    /// The integral `∫ v dt` over `[from, to)`, treating the series as a
    /// step function and the value before the first sample as 0.
    pub fn integrate(&self, from: Time, to: Time) -> f64 {
        if to <= from || self.samples.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, &(t, v)) in self.samples.iter().enumerate() {
            let seg_start = t.max(from);
            let seg_end = self
                .samples
                .get(i + 1)
                .map(|&(nt, _)| nt)
                .unwrap_or(Time::MAX)
                .min(to);
            if seg_end > seg_start {
                acc += v * (seg_end - seg_start).as_secs_f64();
            }
            if t >= to {
                break;
            }
        }
        acc
    }

    /// The time-weighted mean over `[from, to)`.
    pub fn mean(&self, from: Time, to: Time) -> f64 {
        let span = (to.saturating_since(from)).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.integrate(from, to) / span
    }

    /// Resamples onto a regular grid of period `dt` over `[from, to)`,
    /// yielding the step-function value at each grid point (0 before the
    /// first sample). Useful for plotting and for comparing traces.
    pub fn resample(&self, from: Time, to: Time, dt: Dur) -> Vec<f64> {
        assert!(!dt.is_zero(), "TimeSeries::resample: zero step");
        let mut out = Vec::new();
        let mut t = from;
        while t < to {
            out.push(self.value_at(t).unwrap_or(0.0));
            t += dt;
        }
        out
    }

    /// The maximum sampled value, or `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.samples.iter().map(|&(_, v)| v).fold(None, |m, v| {
            Some(match m {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// The timestamp of the last sample, or `None` if empty.
    pub fn last_time(&self) -> Option<Time> {
        self.samples.last().map(|&(t, _)| t)
    }
}

/// An empirical cumulative distribution over duration samples.
///
/// Built from iteration-time measurements; answers the Fig. 1d questions:
/// median, arbitrary percentiles, and full curve export.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<Dur>,
}

impl Cdf {
    /// Builds a CDF from unordered samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty — an empty distribution has no
    /// percentiles, and every experiment produces at least one iteration.
    pub fn from_samples(mut samples: Vec<Dur>) -> Cdf {
        assert!(!samples.is_empty(), "Cdf: no samples");
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if the CDF holds no samples (unreachable via constructor).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Dur {
        assert!((0.0..=100.0).contains(&p), "Cdf::percentile: p={p}");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = (p / 100.0 * (self.sorted.len() - 1) as f64).round() as usize;
        self.sorted[rank]
    }

    /// The median (50th percentile).
    pub fn median(&self) -> Dur {
        self.percentile(50.0)
    }

    /// The arithmetic mean.
    pub fn mean(&self) -> Dur {
        let total: u128 = self.sorted.iter().map(|d| d.as_nanos() as u128).sum();
        Dur::from_nanos((total / self.sorted.len() as u128) as u64)
    }

    /// The minimum sample.
    pub fn min(&self) -> Dur {
        self.sorted[0]
    }

    /// The maximum sample.
    pub fn max(&self) -> Dur {
        *self.sorted.last().unwrap()
    }

    /// The fraction of samples ≤ `d`, in `[0, 1]`.
    pub fn fraction_below(&self, d: Dur) -> f64 {
        let idx = self.sorted.partition_point(|&x| x <= d);
        idx as f64 / self.sorted.len() as f64
    }

    /// Exports `(value, cumulative_fraction)` points for plotting.
    pub fn curve(&self) -> Vec<(Dur, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, (i + 1) as f64 / n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> Time {
        Time::ZERO + Dur::from_millis(v)
    }

    #[test]
    fn value_at_step_semantics() {
        let mut ts = TimeSeries::new();
        ts.push(ms(10), 1.0);
        ts.push(ms(20), 2.0);
        assert_eq!(ts.value_at(ms(5)), None);
        assert_eq!(ts.value_at(ms(10)), Some(1.0));
        assert_eq!(ts.value_at(ms(15)), Some(1.0));
        assert_eq!(ts.value_at(ms(20)), Some(2.0));
        assert_eq!(ts.value_at(ms(99)), Some(2.0));
    }

    #[test]
    fn same_timestamp_overwrites() {
        let mut ts = TimeSeries::new();
        ts.push(ms(10), 1.0);
        ts.push(ms(10), 3.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.value_at(ms(10)), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_panics() {
        let mut ts = TimeSeries::new();
        ts.push(ms(10), 1.0);
        ts.push(ms(5), 2.0);
    }

    #[test]
    fn integrate_step_function() {
        let mut ts = TimeSeries::new();
        ts.push(ms(0), 10.0); // 10 for [0, 100) ms
        ts.push(ms(100), 20.0); // 20 for [100, ...) ms
                                // ∫ over [0, 200 ms) = 10*0.1 + 20*0.1 = 3.0
        let integral = ts.integrate(ms(0), ms(200));
        assert!((integral - 3.0).abs() < 1e-12);
        // Partial window [50, 150) = 10*0.05 + 20*0.05 = 1.5
        let partial = ts.integrate(ms(50), ms(150));
        assert!((partial - 1.5).abs() < 1e-12);
        // Window before first sample integrates to zero contribution.
        let mut ts2 = TimeSeries::new();
        ts2.push(ms(100), 1.0);
        assert_eq!(ts2.integrate(ms(0), ms(100)), 0.0);
    }

    #[test]
    fn mean_is_time_weighted() {
        let mut ts = TimeSeries::new();
        ts.push(ms(0), 0.0);
        ts.push(ms(90), 10.0); // only the last 10% of [0,100) is at 10
        let m = ts.mean(ms(0), ms(100));
        assert!((m - 1.0).abs() < 1e-12, "mean {m}");
    }

    #[test]
    fn resample_grid() {
        let mut ts = TimeSeries::new();
        ts.push(ms(10), 1.0);
        ts.push(ms(30), 2.0);
        let grid = ts.resample(ms(0), ms(50), Dur::from_millis(10));
        assert_eq!(grid, vec![0.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn cdf_percentiles() {
        let samples: Vec<Dur> = (1..=100).map(Dur::from_millis).collect();
        let cdf = Cdf::from_samples(samples);
        // Nearest-rank on 100 samples: index round(0.5 * 99) = 50 → value 51.
        assert_eq!(cdf.median(), Dur::from_millis(51));
        assert_eq!(cdf.percentile(0.0), Dur::from_millis(1));
        assert_eq!(cdf.percentile(100.0), Dur::from_millis(100));
        assert_eq!(cdf.percentile(99.0), Dur::from_millis(99));
        assert_eq!(cdf.min(), Dur::from_millis(1));
        assert_eq!(cdf.max(), Dur::from_millis(100));
        assert_eq!(cdf.mean(), Dur::from_micros(50_500));
    }

    #[test]
    fn cdf_fraction_below() {
        let cdf = Cdf::from_samples(vec![
            Dur::from_millis(10),
            Dur::from_millis(20),
            Dur::from_millis(30),
            Dur::from_millis(40),
        ]);
        assert_eq!(cdf.fraction_below(Dur::from_millis(5)), 0.0);
        assert_eq!(cdf.fraction_below(Dur::from_millis(20)), 0.5);
        assert_eq!(cdf.fraction_below(Dur::from_millis(100)), 1.0);
    }

    #[test]
    fn cdf_curve_monotone() {
        let cdf = Cdf::from_samples(vec![
            Dur::from_millis(3),
            Dur::from_millis(1),
            Dur::from_millis(2),
        ]);
        let curve = cdf.curve();
        assert_eq!(curve.len(), 3);
        assert!(curve
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    proptest! {
        #[test]
        fn integrate_additive(splits in 1u64..99, vals in proptest::collection::vec(0.0f64..100.0, 1..10)) {
            let mut ts = TimeSeries::new();
            for (i, &v) in vals.iter().enumerate() {
                ts.push(ms(i as u64 * 10), v);
            }
            let mid = ms(splits);
            let whole = ts.integrate(ms(0), ms(100));
            let parts = ts.integrate(ms(0), mid) + ts.integrate(mid, ms(100));
            prop_assert!((whole - parts).abs() < 1e-9);
        }

        #[test]
        fn percentiles_monotone(mut xs in proptest::collection::vec(1u64..100_000, 2..100)) {
            xs.sort_unstable();
            let cdf = Cdf::from_samples(xs.iter().map(|&x| Dur::from_nanos(x)).collect());
            let mut last = Dur::ZERO;
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let v = cdf.percentile(p);
                prop_assert!(v >= last);
                last = v;
            }
        }
    }
}
