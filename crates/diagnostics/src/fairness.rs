//! Fairness analyzer: windowed Jain index over flow rates.
//!
//! Jain's index `(Σx)² / (n·Σx²)` is 1 when all `n` flows get equal rates
//! and `1/n` when one flow takes everything. The paper's premise is that
//! *short-term* unfairness (deliberately letting jobs take turns) yields
//! long-term speedup, so the interesting signal is the windowed series:
//! interleaved jobs show low per-window Jain while their long-run average
//! throughput stays even.

use crate::events::ScenarioTracks;
use simtime::{Dur, Time};

/// Jain's fairness index of an allocation. 1.0 for the empty or all-zero
/// allocation (nobody is being treated unequally).
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (rates.len() as f64 * sq)
}

/// One fairness window.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessWindow {
    /// Window start.
    pub at: Time,
    /// Jain index of the flows' mean rates within the window.
    pub jain: f64,
}

/// Windowed fairness over one scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FairnessReport {
    pub windows: Vec<FairnessWindow>,
    /// Mean of the per-window indices.
    pub mean_jain: f64,
    /// The worst (most unfair) window.
    pub min_jain: f64,
    /// Jain index of whole-run mean rates — the long-term view that should
    /// stay high even when per-window fairness is deliberately low.
    pub long_term_jain: f64,
}

/// Computes windowed Jain fairness over the scenario's rate samples, or
/// `None` when there is no window to judge: no flow has a rate sample, or
/// the window or the scenario's span is zero.
///
/// Each flow's rate within a window is the mean of its samples there,
/// carrying the last seen rate forward into sampleless windows (rates are
/// step functions: a flow that last set 10 Gbps is still sending at
/// 10 Gbps). Flows with no samples at all are excluded.
pub fn analyze(tracks: &ScenarioTracks, window: Dur) -> Option<FairnessReport> {
    let flows: Vec<&Vec<(Time, f64)>> = tracks
        .jobs
        .values()
        .filter(|t| !t.rates.is_empty())
        .map(|t| &t.rates)
        .collect();
    if flows.is_empty() || window.is_zero() || tracks.span().is_zero() {
        return None;
    }
    let n_windows = tracks.span().ratio(window).ceil() as usize;
    // Per-flow per-window mean rate, with last-value carry-forward.
    let mut means = vec![vec![0.0f64; flows.len()]; n_windows];
    for (f, samples) in flows.iter().enumerate() {
        let mut idx = 0usize; // next sample to consume
        let mut current = 0.0f64; // rate entering the window
        for (w, row) in means.iter_mut().enumerate() {
            let end = tracks.start + window.mul_f64((w + 1) as f64);
            let mut sum = 0.0;
            let mut count = 0usize;
            while idx < samples.len() && samples[idx].0 < end {
                sum += samples[idx].1;
                current = samples[idx].1;
                count += 1;
                idx += 1;
            }
            row[f] = if count > 0 {
                sum / count as f64
            } else {
                current
            };
        }
    }
    let windows: Vec<FairnessWindow> = means
        .iter()
        .enumerate()
        .map(|(w, row)| FairnessWindow {
            at: tracks.start + window.mul_f64(w as f64),
            jain: jain_index(row),
        })
        .collect();
    let mean_jain = windows.iter().map(|w| w.jain).sum::<f64>() / windows.len() as f64;
    let min_jain = windows.iter().map(|w| w.jain).fold(f64::INFINITY, f64::min);
    let long_rates: Vec<f64> = flows
        .iter()
        .map(|s| s.iter().map(|&(_, bps)| bps).sum::<f64>() / s.len() as f64)
        .collect();
    Some(FairnessReport {
        windows,
        mean_jain,
        min_jain,
        long_term_jain: jain_index(&long_rates),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::JobTrack;

    #[test]
    fn jain_bounds_and_extremes() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        assert_eq!(jain_index(&[3.0, 3.0, 3.0]), 1.0);
        // One flow hogs: index = 1/n.
        let idx = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    fn tracks(rates: Vec<Vec<(Time, f64)>>, end: u64) -> ScenarioTracks {
        let mut tr = ScenarioTracks {
            start: Time::ZERO,
            end: t(end),
            ..ScenarioTracks::default()
        };
        for (i, r) in rates.into_iter().enumerate() {
            tr.jobs.insert(
                i as u32,
                JobTrack {
                    rates: r,
                    ..JobTrack::default()
                },
            );
        }
        tr
    }

    #[test]
    fn equal_flows_are_fair_everywhere() {
        let samples: Vec<(Time, f64)> = (0..10).map(|i| (t(i * 100), 10e9)).collect();
        let tr = tracks(vec![samples.clone(), samples], 1_000);
        let r = analyze(&tr, Dur::from_nanos(250)).unwrap();
        assert!((r.mean_jain - 1.0).abs() < 1e-12);
        assert!((r.long_term_jain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn taking_turns_is_unfair_short_term_fair_long_term() {
        // Flow 0 sends in the first half, flow 1 in the second.
        let a: Vec<(Time, f64)> = vec![(t(0), 20e9), (t(500), 0.0)];
        let b: Vec<(Time, f64)> = vec![(t(0), 0.0), (t(500), 20e9)];
        let tr = tracks(vec![a, b], 1_000);
        let r = analyze(&tr, Dur::from_nanos(500)).unwrap();
        // Each window has one active flow: Jain = 1/2.
        assert!(r.min_jain < 0.55, "min {}", r.min_jain);
        assert!(
            (r.long_term_jain - 1.0).abs() < 1e-9,
            "{}",
            r.long_term_jain
        );
    }

    #[test]
    fn carry_forward_fills_sampleless_windows() {
        // Flow sets a rate once; later windows still see it.
        let tr = tracks(vec![vec![(t(0), 10e9)], vec![(t(0), 10e9)]], 1_000);
        let r = analyze(&tr, Dur::from_nanos(100)).unwrap();
        assert_eq!(r.windows.len(), 10);
        assert!(r.windows.iter().all(|w| (w.jain - 1.0).abs() < 1e-12));
    }
}
