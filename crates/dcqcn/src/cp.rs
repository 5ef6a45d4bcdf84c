//! [`RedMarker`]: the congestion point's ECN marking curve.

/// RED-style ECN marking over instantaneous egress queue depth, as DCQCN's
/// congestion point runs on the switch:
///
/// ```text
/// p(q) = 0                          for q ≤ kmin
///      = pmax·(q−kmin)/(kmax−kmin)  for kmin < q < kmax
///      = 1                          for q ≥ kmax
/// ```
///
/// Note the jump from `pmax` to 1 at `kmax` — that is RED's (and DCQCN's)
/// actual curve: beyond `kmax` every packet is marked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedMarker {
    /// Queue depth (bytes) below which nothing is marked.
    pub kmin: f64,
    /// Queue depth (bytes) at and above which everything is marked.
    pub kmax: f64,
    /// Marking probability as the queue approaches `kmax` from below.
    pub pmax: f64,
}

impl RedMarker {
    /// A marker with the given thresholds.
    ///
    /// # Panics
    /// Panics unless `0 ≤ kmin < kmax` and `pmax ∈ (0, 1]`.
    pub fn new(kmin: f64, kmax: f64, pmax: f64) -> RedMarker {
        assert!(
            kmin >= 0.0 && kmin < kmax,
            "RedMarker: need 0 ≤ kmin < kmax (got {kmin}, {kmax})"
        );
        assert!(
            pmax > 0.0 && pmax <= 1.0,
            "RedMarker: pmax {pmax} outside (0, 1]"
        );
        RedMarker { kmin, kmax, pmax }
    }

    /// Defaults tuned for a 50 Gbps link: mark from 100 KB (≈ 16 µs of
    /// line-rate buffering), saturate at 1 MB, with a gentle 5% ceiling.
    ///
    /// The gentle slope matters: with scarce CNPs, flows spend most of
    /// their time in timer-driven recovery, which is where the paper's
    /// unfairness knob `T` differentiates aggressive from default jobs —
    /// calibrated so that the Fig. 1c / Table 1 asymmetries reproduce.
    pub fn default_50g() -> RedMarker {
        RedMarker::new(100e3, 1e6, 0.05)
    }

    /// Per-packet marking probability at queue depth `queue_bytes`.
    pub fn mark_probability(&self, queue_bytes: f64) -> f64 {
        if queue_bytes <= self.kmin {
            0.0
        } else if queue_bytes >= self.kmax {
            1.0
        } else {
            self.pmax * (queue_bytes - self.kmin) / (self.kmax - self.kmin)
        }
    }

    /// How many `packet_bytes`-sized packets, enqueued back to back from
    /// depth `queue_bytes`, each land at a depth ≤ `kmin` and so have
    /// marking probability 0: the number of `m ≥ 0` with
    /// `queue_bytes + m·packet_bytes ≤ ⌊kmin⌋`. None of them draws a
    /// marking coin, which is what lets the packet engine enqueue such a
    /// run in one step.
    ///
    /// The count agrees with [`RedMarker::mark_probability`] packet by
    /// packet: depths are compared below 2^53, where every integer is an
    /// exact `f64`, and a `kmin` that is not a non-negative number gives 0.
    ///
    /// # Panics
    /// Panics if `packet_bytes` is 0.
    pub fn unmarked_run(&self, queue_bytes: u64, packet_bytes: u64) -> u64 {
        assert!(
            packet_bytes > 0,
            "RedMarker::unmarked_run: zero packet size"
        );
        if self.kmin.is_nan() || self.kmin < 0.0 {
            return 0;
        }
        // For an integer q ≤ 2^53, `q as f64 <= kmin` ⇔ `q <= ⌊kmin⌋`.
        let limit = self.kmin.min((1u64 << 53) as f64).floor() as u64;
        limit
            .checked_sub(queue_bytes)
            .map_or(0, |room| room / packet_bytes + 1)
    }

    /// Probability that a *burst* of `packets` consecutive packets contains
    /// at least one mark: `1 − (1−p)^n`. This is what a fluid-flow engine
    /// needs per time step.
    pub fn burst_mark_probability(&self, queue_bytes: f64, packets: f64) -> f64 {
        let p = self.mark_probability(queue_bytes);
        if p <= 0.0 || packets <= 0.0 {
            0.0
        } else if p >= 1.0 {
            1.0
        } else {
            1.0 - (1.0 - p).powf(packets)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn piecewise_regions() {
        let m = RedMarker::new(100.0, 200.0, 0.5);
        assert_eq!(m.mark_probability(0.0), 0.0);
        assert_eq!(m.mark_probability(100.0), 0.0);
        assert!((m.mark_probability(150.0) - 0.25).abs() < 1e-12);
        assert!((m.mark_probability(199.999) - 0.5).abs() < 1e-3);
        assert_eq!(m.mark_probability(200.0), 1.0);
        assert_eq!(m.mark_probability(1e9), 1.0);
    }

    #[test]
    fn burst_probability_compounds() {
        let m = RedMarker::new(0.0, 100.0, 1.0); // p = q/100
                                                 // p = 0.1 per packet; 10 packets → 1 − 0.9^10 ≈ 0.651.
        let p = m.burst_mark_probability(10.0, 10.0);
        assert!((p - (1.0 - 0.9f64.powi(10))).abs() < 1e-12);
        // Zero packets → never marked.
        assert_eq!(m.burst_mark_probability(50.0, 0.0), 0.0);
        // Saturated queue → always marked for any positive burst.
        assert_eq!(m.burst_mark_probability(100.0, 0.5), 1.0);
    }

    #[test]
    fn unmarked_run_counts_leading_zero_probability_packets() {
        let markers = [
            RedMarker::default_50g(),
            RedMarker::new(100.5, 5e3, 0.2),
            RedMarker::new(0.0, 1e6, 1.0),
            // Not constructible through `new`, but the fields are public.
            RedMarker {
                kmin: f64::NAN,
                kmax: 1e6,
                pmax: 0.05,
            },
            RedMarker {
                kmin: -5.0,
                kmax: 1e6,
                pmax: 0.05,
            },
        ];
        for m in markers {
            for mtu in [1u64, 1024, 1500] {
                let centre = m.kmin.max(0.0) as u64;
                let lo = centre.saturating_sub(3 * mtu);
                for q in lo..=centre + 3 * mtu {
                    let leading = (0..)
                        .take_while(|&j| m.mark_probability((q + j * mtu) as f64) == 0.0)
                        .count() as u64;
                    assert_eq!(
                        m.unmarked_run(q, mtu),
                        leading,
                        "kmin {} mtu {mtu} depth {q}",
                        m.kmin
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero packet size")]
    fn unmarked_run_rejects_zero_packets() {
        RedMarker::default_50g().unmarked_run(0, 0);
    }

    #[test]
    #[should_panic(expected = "kmin < kmax")]
    fn inverted_thresholds_rejected() {
        RedMarker::new(200.0, 100.0, 0.5);
    }

    proptest! {
        #[test]
        fn probability_is_monotone_and_bounded(
            q1 in 0.0f64..2e6, q2 in 0.0f64..2e6,
        ) {
            let m = RedMarker::default_50g();
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let (plo, phi) = (m.mark_probability(lo), m.mark_probability(hi));
            prop_assert!((0.0..=1.0).contains(&plo));
            prop_assert!((0.0..=1.0).contains(&phi));
            prop_assert!(plo <= phi);
        }

        #[test]
        fn burst_exceeds_single(q in 0.0f64..2e6, n in 1.0f64..100.0) {
            let m = RedMarker::default_50g();
            let single = m.mark_probability(q);
            let burst = m.burst_mark_probability(q, n);
            prop_assert!(burst >= single - 1e-12);
            prop_assert!((0.0..=1.0).contains(&burst));
        }
    }
}
