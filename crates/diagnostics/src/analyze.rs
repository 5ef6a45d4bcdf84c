//! The run analyzer: splits a trace into scenarios, runs every analyzer on
//! each, and distills the result into a [`RunSummary`] plus cross-scenario
//! speedup attribution.

use crate::attribution::{self, ContentionLedger};
use crate::events::{extract_tracks, median_dur, split_scenarios, ScenarioTracks};
use crate::fairness::{self, FairnessReport};
use crate::health::{self, HealthConfig, HealthReport};
use crate::interleave::{self, InterleaveReport};
use crate::summary::RunSummary;
use simtime::Dur;
use std::collections::BTreeMap;
use telemetry::TimedEvent;

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Fairness window; defaults to 10 ms (a few iterations of the
    /// paper's workloads).
    pub fairness_window: Dur,
    pub health: HealthConfig,
    /// The solver's predicted overlap fraction per scenario name, when the
    /// caller ran `geometry` (see [`geometry::overlap_fraction_of`]).
    pub predicted_overlap: BTreeMap<String, f64>,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            fairness_window: Dur::from_millis(10),
            health: HealthConfig::default(),
            predicted_overlap: BTreeMap::new(),
        }
    }
}

/// Every analyzer's verdict for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioAnalysis {
    pub name: String,
    pub tracks: ScenarioTracks,
    pub interleave: InterleaveReport,
    pub health: HealthReport,
    /// Windowed Jain fairness; `None` when the scenario has no rate
    /// samples to judge.
    pub fairness: Option<FairnessReport>,
    /// Contention ledger built from the engines' typed iteration spans;
    /// empty for traces recorded before spans existed.
    pub ledger: ContentionLedger,
    /// Median iteration time per job, ms (jobs with ≥1 measured iteration).
    pub median_iter_ms: BTreeMap<u32, f64>,
}

/// A job's speedup in one scenario relative to the baseline scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpeedup {
    pub job: u32,
    /// `baseline_median / scenario_median`; > 1 means faster here.
    pub speedup: f64,
}

/// Who paid for whose speedup: one scenario measured against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The non-baseline scenario being attributed.
    pub scenario: String,
    pub speedups: Vec<JobSpeedup>,
}

impl Attribution {
    /// Jobs that got faster / slower than baseline (beyond 1% noise).
    pub fn winners(&self) -> Vec<u32> {
        self.speedups
            .iter()
            .filter(|s| s.speedup > 1.01)
            .map(|s| s.job)
            .collect()
    }

    pub fn losers(&self) -> Vec<u32> {
        self.speedups
            .iter()
            .filter(|s| s.speedup < 0.99)
            .map(|s| s.job)
            .collect()
    }
}

/// The full analysis of one recorded run.
#[derive(Debug, Clone)]
pub struct RunAnalysis {
    pub name: String,
    pub scenarios: Vec<ScenarioAnalysis>,
    /// Per-job speedup of each later scenario vs. the first (the first
    /// scenario in the trace is the baseline). Empty for single-scenario
    /// runs.
    pub attribution: Vec<Attribution>,
}

/// Runs every analyzer over a recorded event stream.
pub fn analyze(name: &str, events: &[TimedEvent], cfg: &AnalysisConfig) -> RunAnalysis {
    let mut scenarios = Vec::new();
    for slice in split_scenarios(events) {
        let tracks = extract_tracks(slice.events);
        let interleave =
            interleave::audit(&tracks, cfg.predicted_overlap.get(&slice.name).copied());
        let health = health::analyze(&tracks, &cfg.health);
        let fairness = fairness::analyze(&tracks, cfg.fairness_window);
        let ledger = attribution::ledger(&tracks, cfg.predicted_overlap.get(&slice.name).copied());
        let median_iter_ms = tracks
            .jobs
            .iter()
            .filter(|(_, t)| !t.iteration_times.is_empty())
            .map(|(&job, t)| (job, median_dur(&t.iteration_times).as_millis_f64()))
            .collect();
        scenarios.push(ScenarioAnalysis {
            name: slice.name,
            tracks,
            interleave,
            health,
            fairness,
            ledger,
            median_iter_ms,
        });
    }

    let attribution = if scenarios.len() >= 2 {
        let base = &scenarios[0];
        scenarios[1..]
            .iter()
            .map(|s| Attribution {
                scenario: s.name.clone(),
                speedups: s
                    .median_iter_ms
                    .iter()
                    .filter_map(|(job, &ms)| {
                        let base_ms = *base.median_iter_ms.get(job)?;
                        (ms > 0.0).then_some(JobSpeedup {
                            job: *job,
                            speedup: base_ms / ms,
                        })
                    })
                    .collect(),
            })
            .collect()
    } else {
        Vec::new()
    };

    RunAnalysis {
        name: name.to_string(),
        scenarios,
        attribution,
    }
}

impl RunAnalysis {
    /// Flattens the analysis into the compact metric map used for
    /// regression diffing. Keys are `scenario.analyzer.metric`.
    pub fn summary(&self) -> RunSummary {
        let mut s = RunSummary::new(&self.name);
        for sc in &self.scenarios {
            let p = sanitize(&sc.name);
            s.put_under(
                &p,
                "interleave.overlap_fraction",
                sc.interleave.overlap_fraction,
            );
            if let Some(gap) = sc.interleave.prediction_gap() {
                s.put_under(&p, "interleave.prediction_gap", gap);
            }
            for link in &sc.interleave.links {
                s.put_under(
                    &p,
                    &format!("interleave.link{}.overlap_fraction", link.link),
                    link.overlap_fraction,
                );
                for (job, share) in &link.exclusive_share {
                    s.put_under(
                        &p,
                        &format!("interleave.link{}.job{job}.exclusive_share", link.link),
                        *share,
                    );
                }
            }
            if let Some(f) = &sc.fairness {
                s.put_under(&p, "fairness.mean_jain", f.mean_jain);
                s.put_under(&p, "fairness.min_jain", f.min_jain);
                s.put_under(&p, "fairness.long_term_jain", f.long_term_jain);
            }
            for f in &sc.health.flows {
                let fp = format!("health.flow{}", f.flow);
                s.put_under(&p, &format!("{fp}.mean_rate_gbps"), f.mean_rate_gbps);
                s.put_under(&p, &format!("{fp}.final_cv"), f.final_cv);
                s.put_under(&p, &format!("{fp}.ecn_marks_per_sec"), f.ecn_marks_per_sec);
                s.put_under(&p, &format!("{fp}.cnps_per_sec"), f.cnps_per_sec);
            }
            for q in &sc.health.queues {
                let qp = format!("health.queue{}", q.link);
                s.put_under(&p, &format!("{qp}.max_bytes"), q.max_bytes);
                s.put_under(&p, &format!("{qp}.mean_bytes"), q.mean_bytes);
            }
            for (job, ms) in &sc.median_iter_ms {
                s.put_under(&p, &format!("iters.job{job}.median_ms"), *ms);
            }
            if !sc.ledger.jobs.is_empty() {
                s.put_under(&p, "attr.measured_overlap", sc.ledger.measured_overlap());
                s.put_under(&p, "attr.max_residual", sc.ledger.max_residual);
                for (job, jl) in &sc.ledger.jobs {
                    let jp = format!("attr.job{job}");
                    s.put_under(&p, &format!("{jp}.compute_s"), jl.compute);
                    s.put_under(&p, &format!("{jp}.solo_s"), jl.solo);
                    s.put_under(&p, &format!("{jp}.inflation_s"), jl.inflation);
                    s.put_under(&p, &format!("{jp}.inflation_share"), jl.inflation_share());
                }
                for (link, lb) in &sc.ledger.links {
                    s.put_under(&p, &format!("attr.link{link}.inflation_s"), lb.inflation);
                }
            }
        }
        for attr in &self.attribution {
            let p = sanitize(&attr.scenario);
            for sp in &attr.speedups {
                s.put_under(&p, &format!("speedup.job{}", sp.job), sp.speedup);
            }
        }
        s
    }
}

/// Scenario names become metric-key segments: `/` and whitespace → `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == '/' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Time;
    use telemetry::{Event, Phase};

    fn ev(at: u64, event: Event) -> TimedEvent {
        TimedEvent {
            at: Time::from_nanos(at),
            event,
        }
    }

    fn comm(at: u64, job: u32, it: u64, enter: bool) -> TimedEvent {
        ev(
            at,
            if enter {
                Event::PhaseEnter {
                    job,
                    phase: Phase::Communicate,
                    iteration: it,
                }
            } else {
                Event::PhaseExit {
                    job,
                    phase: Phase::Communicate,
                    iteration: it,
                }
            },
        )
    }

    /// Two scenarios: "slow" where job iterations take 200 ns, "fast"
    /// where they take 100 ns — attribution sees the 2× speedup.
    #[test]
    fn attribution_measures_speedup_vs_first_scenario() {
        let mut events = vec![ev(
            0,
            Event::Scenario {
                name: "slow".into(),
            },
        )];
        for i in 0..5u64 {
            events.push(comm(i * 200, 0, i, true));
            events.push(comm(i * 200 + 50, 0, i, false));
        }
        events.push(ev(
            1_000,
            Event::Scenario {
                name: "fast".into(),
            },
        ));
        for i in 0..5u64 {
            events.push(comm(i * 100, 0, i, true));
            events.push(comm(i * 100 + 50, 0, i, false));
        }
        let a = analyze("test", &events, &AnalysisConfig::default());
        assert_eq!(a.scenarios.len(), 2);
        assert_eq!(a.attribution.len(), 1);
        let sp = &a.attribution[0].speedups[0];
        assert!((sp.speedup - 2.0).abs() < 1e-9, "speedup {}", sp.speedup);
        assert_eq!(a.attribution[0].winners(), vec![0]);
        assert!(a.attribution[0].losers().is_empty());
    }

    #[test]
    fn summary_contains_per_scenario_metrics() {
        let events = vec![
            ev(
                0,
                Event::Scenario {
                    name: "fig1/fair".into(),
                },
            ),
            comm(0, 0, 0, true),
            comm(100, 0, 0, false),
            comm(100, 1, 0, true),
            comm(200, 1, 0, false),
        ];
        let s = analyze("fig1", &events, &AnalysisConfig::default()).summary();
        assert_eq!(s.name, "fig1");
        assert_eq!(s.metrics["fig1_fair.interleave.overlap_fraction"], 0.0);
        assert!(s
            .metrics
            .contains_key("fig1_fair.interleave.link0.job0.exclusive_share"));
        // No rate samples, so no Jain index to report.
        assert!(!s.metrics.contains_key("fig1_fair.fairness.mean_jain"));
    }

    #[test]
    fn predicted_overlap_threads_through_to_the_gap_metric() {
        let events = vec![
            ev(0, Event::Scenario { name: "s".into() }),
            comm(0, 0, 0, true),
            comm(100, 0, 0, false),
            comm(0, 1, 0, true),
            comm(100, 1, 0, false),
        ];
        let mut cfg = AnalysisConfig::default();
        cfg.predicted_overlap.insert("s".into(), 0.0);
        let a = analyze("x", &events, &cfg);
        // Fully overlapped arcs vs. a promise of 0 → gap 1.
        assert_eq!(a.scenarios[0].interleave.prediction_gap(), Some(1.0));
        assert_eq!(a.summary().metrics["s.interleave.prediction_gap"], 1.0);
    }
}
