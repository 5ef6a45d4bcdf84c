//! SLO verdicts: declarative thresholds on the numbers the offline
//! analyzers already produce, so an `--slo` alert and the `--summary`
//! or `report` of the same run cannot disagree.
//!
//! Rules load from a flat TOML file ([`slo_from_toml_str`]); each bounds
//! one analyzer output per scenario:
//!
//! ```toml
//! rate_cv_max = 0.8                 # health.flowN.final_cv
//! min_jain = 0.3                    # fairness.min_jain
//! max_queue_bytes = 2000000         # health.queueN.max_bytes
//! max_time_to_reinterleave_s = 0.2  # per recovery fault window: onset ->
//!                                   # every overlapping incident recovered
//! slow_factor = 1.4                 # the recovery analyzer's slow_factor
//! context_events = 32               # flight-ring capacity per category
//! ```
//!
//! [`judge`] reads a [`RunAnalysis`] and, per scenario, the
//! [`recovery`] report, so verdicts are as deterministic as the
//! analyzers: the same stream gives the same alerts in the same order.
//! Each alert names the scenario ledger's most contended `(link, job
//! pair)` and carries the scenario's flight-recorder ring as it stood at
//! the alert's instant: the last-N events per category up to it.

use crate::analyze::{AnalysisConfig, RunAnalysis, ScenarioAnalysis};
use crate::attribution::ContentionLedger;
use crate::recovery::{recovery, RecoveryConfig};
use crate::summary::fmt_f64;
use simtime::{Dur, Time};
use std::collections::BTreeSet;
use telemetry::export::{self, JsonEscaped};
use telemetry::live::FlightRing;
use telemetry::{Event, TimedEvent};

/// Declarative SLO thresholds. `None` disables a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRules {
    /// Max final-window rate CV per flow (`health.flowN.final_cv`).
    pub rate_cv_max: Option<f64>,
    /// Min Jain index of any fairness window (`fairness.min_jain`).
    pub min_jain: Option<f64>,
    /// Max queue depth per link, in bytes (`health.queueN.max_bytes`).
    pub max_queue_bytes: Option<f64>,
    /// Max simulated time from a fault window's onset until every job's
    /// incident overlapping it has recovered.
    pub max_time_to_reinterleave: Option<Dur>,
    /// The recovery analyzer's slow factor: an iteration longer than
    /// this multiple of the job's median is degraded.
    pub slow_factor: f64,
    /// Flight-ring capacity per event category (alert context size).
    pub context_events: usize,
}

impl Default for SloRules {
    fn default() -> SloRules {
        SloRules {
            rate_cv_max: None,
            min_jain: None,
            max_queue_bytes: None,
            max_time_to_reinterleave: None,
            slow_factor: RecoveryConfig::default().slow_factor,
            context_events: 32,
        }
    }
}

/// The longest SLO duration a file may set. Simulated runs last seconds,
/// and a day keeps `start + deadline` far from `Time`'s `u64` nanosecond
/// limit.
const MAX_SLO_SECS: f64 = 86_400.0;

/// Parses SLO rules from flat `key = value` TOML (schema in the module
/// docs). Unknown keys are errors — they are always typos — as are
/// non-finite values, durations below 1 ns or above one day, and a
/// negative `slow_factor`.
pub fn slo_from_toml_str(text: &str) -> Result<SloRules, String> {
    let mut rules = SloRules::default();
    for (ln, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: `{raw}`", ln + 1);
        if line.starts_with('[') {
            return Err(err("SLO rules are flat; sections are not supported"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = value`"))?;
        let key = key.trim();
        let num: f64 = value
            .trim()
            .parse()
            .map_err(|_| err("expected a numeric value"))?;
        if !num.is_finite() {
            return Err(err("expected a finite number"));
        }
        let uint = |num: f64| -> Result<usize, String> {
            if num < 0.0 || num.fract() != 0.0 {
                return Err(err("expected a non-negative integer"));
            }
            Ok(num as usize)
        };
        let dur = |secs: f64| {
            if secs <= 0.0 {
                return Err(err(&format!("{key} must be positive")));
            }
            if secs > MAX_SLO_SECS {
                return Err(err(&format!("{key} is longer than one day")));
            }
            match Dur::from_secs_f64(secs) {
                d if d.is_zero() => Err(err(&format!("{key} is below 1 ns"))),
                d => Ok(d),
            }
        };
        match key {
            "rate_cv_max" => rules.rate_cv_max = Some(num),
            "min_jain" => rules.min_jain = Some(num),
            "max_queue_bytes" => rules.max_queue_bytes = Some(num),
            "max_time_to_reinterleave_s" => rules.max_time_to_reinterleave = Some(dur(num)?),
            "slow_factor" if num < 0.0 => return Err(err("slow_factor must not be negative")),
            "slow_factor" => rules.slow_factor = num,
            "context_events" => rules.context_events = uint(num)?.max(1),
            _ => return Err(err("unknown key")),
        }
    }
    Ok(rules)
}

/// Which SLO a violation breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// A flow's final-window rate CV exceeded `rate_cv_max`.
    RateCv,
    /// A fairness window's Jain index fell below `min_jain`.
    Fairness,
    /// A link's queue depth exceeded `max_queue_bytes`.
    QueueDepth,
    /// Jobs failed to re-interleave within `max_time_to_reinterleave`
    /// of a fault window's onset.
    RecoveryStall,
}

impl AlertKind {
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::RateCv => "rate_cv",
            AlertKind::Fairness => "fairness",
            AlertKind::QueueDepth => "queue_depth",
            AlertKind::RecoveryStall => "recovery_stall",
        }
    }
}

/// One SLO violation, with the flight-recorder context up to it.
#[derive(Debug, Clone)]
pub struct Alert {
    pub kind: AlertKind,
    /// Scenario the violation occurred in.
    pub scenario: String,
    /// Simulated time of the breach: the scenario end (`rate_cv`), the
    /// end of the first window below the floor (`fairness`), the first
    /// sample over the ceiling (`queue_depth`), or fault onset plus the
    /// deadline (`recovery_stall`).
    pub at: Time,
    /// What breached: `flow=N`, `link=N`, or `fault@Tns`.
    pub subject: String,
    /// The analyzer's number: the final CV, `min_jain`, the queue's
    /// maximum, or the seconds until recovery.
    pub value: f64,
    /// The configured threshold it crossed.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
    /// The scenario ledger's largest `(link, job, competitor)` blame —
    /// `None` when no job was blamed on anyone.
    pub blamed: Option<String>,
    /// The scenario's flight ring (its marker included) as it stood at
    /// `at`: the last-N events per category up to the breach.
    pub context: Vec<TimedEvent>,
}

impl Alert {
    /// One flat-JSON header line describing the violation, followed by
    /// the captured context events in [`export::jsonl`] form. Both line
    /// shapes are flat JSON objects, so the dump stays grep- and
    /// machine-readable (`"alert":` selects headers, `"type":` events).
    pub fn to_jsonl(&self) -> String {
        let blamed = match &self.blamed {
            Some(b) => format!(",\"blamed\":\"{}\"", JsonEscaped(b)),
            None => String::new(),
        };
        let mut out = format!(
            "{{\"alert\":\"{}\",\"scenario\":\"{}\",\"t_ns\":{},\"subject\":\"{}\",\
             \"value\":{},\"threshold\":{},\"message\":\"{}\"{blamed},\"context_events\":{}}}\n",
            self.kind.label(),
            JsonEscaped(&self.scenario),
            self.at.as_nanos(),
            JsonEscaped(&self.subject),
            fmt_f64(self.value),
            fmt_f64(self.threshold),
            JsonEscaped(&self.message),
            self.context.len()
        );
        out.push_str(&export::jsonl(&self.context));
        out
    }

    /// Compact single-line rendering for terminals.
    pub fn render(&self) -> String {
        let blamed = match &self.blamed {
            Some(b) => format!(" [most contended: {b}]"),
            None => String::new(),
        };
        format!(
            "[{}] {} at {:.3}ms ({}): {}{blamed}",
            self.kind.label(),
            self.scenario,
            self.at.as_millis_f64(),
            self.subject,
            self.message
        )
    }
}

/// Judges `rules` against the analyzers' verdicts on a recorded stream.
/// `analysis` must be [`crate::analyze`] of `events` under the default
/// [`AnalysisConfig`] (the one `--summary` writes), whose fairness window
/// `fairness` alerts end on; the recovery rule runs [`recovery`] on each
/// scenario with `rules.slow_factor`. Returns every alert sorted by
/// (scenario, time, kind, subject).
pub fn judge(events: &[TimedEvent], analysis: &RunAnalysis, rules: &SloRules) -> Vec<Alert> {
    let mut out = Vec::new();
    for (marked, sc) in marked_slices(events).into_iter().zip(&analysis.scenarios) {
        let mut alerts = breaches(marked, sc, rules);
        alerts.sort_by_key(|a| a.at);
        let mut ring = FlightRing::new(rules.context_events);
        let mut walk = marked.iter().peekable();
        for alert in &mut alerts {
            while let Some(te) = walk.next_if(|te| te.at <= alert.at) {
                ring.push(te.clone());
            }
            alert.context = ring.snapshot();
        }
        out.extend(alerts);
    }
    out.sort_by(|a, b| {
        (a.scenario.as_str(), a.at, a.kind, a.subject.as_str()).cmp(&(
            b.scenario.as_str(),
            b.at,
            b.kind,
            b.subject.as_str(),
        ))
    });
    out
}

/// The scenarios of a stream as [`crate::events::split_scenarios`] cuts
/// them, each with the `Scenario` marker that opens it.
fn marked_slices(events: &[TimedEvent]) -> Vec<&[TimedEvent]> {
    let mut out = Vec::new();
    let (mut from, mut body) = (0, 0);
    for (i, te) in events.iter().enumerate() {
        if let Event::Scenario { .. } = te.event {
            if i > body {
                out.push(&events[from..i]);
            }
            (from, body) = (i, i + 1);
        }
    }
    if events.len() > body {
        out.push(&events[from..]);
    }
    out
}

/// The ledger's largest `(link, job, competitor)` blame, rendered.
fn top_blame(ledger: &ContentionLedger) -> Option<String> {
    ledger
        .jobs
        .iter()
        .flat_map(|(&job, jl)| jl.blame.iter().map(move |(&(l, o), &s)| ((l, job, o), s)))
        .filter(|&(_, secs)| secs > 0.0)
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|((link, job, other), secs)| {
            format!("link{link} job{job}+job{other} ({:.3}ms)", secs * 1e3)
        })
}

/// One scenario's breaches, without context. `marked` is its events,
/// marker included; `sc` their analysis.
fn breaches(marked: &[TimedEvent], sc: &ScenarioAnalysis, rules: &SloRules) -> Vec<Alert> {
    let end = sc.tracks.end;
    let blamed = top_blame(&sc.ledger);
    let mut alerts = Vec::new();
    let mut fire = |kind, at, subject, value, threshold, message| {
        alerts.push(Alert {
            kind,
            scenario: sc.name.clone(),
            at,
            subject,
            value,
            threshold,
            message,
            blamed: blamed.clone(),
            context: Vec::new(),
        })
    };
    if let Some(max) = rules.rate_cv_max {
        for f in sc.health.flows.iter().filter(|f| f.final_cv > max) {
            let (flow, cv) = (f.flow, f.final_cv);
            fire(
                AlertKind::RateCv,
                end,
                format!("flow={flow}"),
                cv,
                max,
                format!("final-window rate CV {cv:.3} exceeds {max} for flow {flow}"),
            );
        }
    }
    if let (Some(min), Some(fairness)) = (rules.min_jain, &sc.fairness) {
        if let Some(w) = fairness.windows.iter().find(|w| w.jain < min) {
            let jain = fairness.min_jain;
            fire(
                AlertKind::Fairness,
                w.at + AnalysisConfig::default().fairness_window,
                "jain".to_string(),
                jain,
                min,
                format!("window Jain index {jain:.3} below {min}"),
            );
        }
    }
    if let Some(max) = rules.max_queue_bytes {
        for q in sc.health.queues.iter().filter(|q| q.max_bytes > max) {
            let (link, bytes) = (q.link, q.max_bytes);
            let first = sc.tracks.queues[&link].iter().find(|&&(_, b)| b > max);
            fire(
                AlertKind::QueueDepth,
                first.map_or(end, |&(at, _)| at),
                format!("link={link}"),
                bytes,
                max,
                format!("queue depth {bytes:.0} B exceeds {max:.0} B on link {link}"),
            );
        }
    }
    if let Some(deadline) = rules.max_time_to_reinterleave {
        let body = match marked.first().map(|te| &te.event) {
            Some(Event::Scenario { .. }) => &marked[1..],
            _ => marked,
        };
        let cfg = RecoveryConfig {
            slow_factor: rules.slow_factor,
            ..RecoveryConfig::default()
        };
        let report = recovery(body, &cfg);
        for w in &report.fault_windows {
            let w_end = w.end.unwrap_or(end);
            let mut back = w.start;
            let mut late = BTreeSet::new();
            for j in &report.jobs {
                for inc in &j.incidents {
                    let recovered = inc.recovered_at.unwrap_or(end);
                    if inc.start <= w_end && recovered >= w.start {
                        back = back.max(recovered);
                        if recovered > w.start + deadline {
                            late.insert(j.job);
                        }
                    }
                }
            }
            let took = back.saturating_since(w.start);
            if took > deadline {
                let late: Vec<String> = late.iter().map(u32::to_string).collect();
                fire(
                    AlertKind::RecoveryStall,
                    w.start + deadline,
                    format!("fault@{}ns", w.start.as_nanos()),
                    took.as_secs_f64(),
                    deadline.as_secs_f64(),
                    format!(
                        "jobs [{}] took {:.1}ms to re-interleave after the fault at {:.1}ms \
                         on link {} (deadline {:.1}ms)",
                        late.join(","),
                        took.as_millis_f64(),
                        w.start.as_millis_f64(),
                        w.link,
                        deadline.as_millis_f64()
                    ),
                );
            }
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::JobLedger;
    use crate::events::split_scenarios;
    use telemetry::{CcState, Phase};

    fn te(ns: u64, event: Event) -> TimedEvent {
        TimedEvent {
            at: Time::from_nanos(ns),
            event,
        }
    }

    fn rate(ns: u64, flow: u32, gbps: f64) -> TimedEvent {
        te(
            ns,
            Event::RateChange {
                flow,
                bps: gbps * 1e9,
                state: CcState::Alloc,
            },
        )
    }

    fn queue(ns: u64, link: u32, bytes: f64) -> TimedEvent {
        te(ns, Event::QueueDepth { link, bytes })
    }

    fn marker(ns: u64, name: &str) -> TimedEvent {
        te(
            ns,
            Event::Scenario {
                name: name.to_string(),
            },
        )
    }

    fn comm_exit(ns: u64, job: u32, iteration: u64) -> TimedEvent {
        te(
            ns,
            Event::PhaseExit {
                job,
                phase: Phase::Communicate,
                iteration,
            },
        )
    }

    fn capacity(ns: u64, link: u32, fraction: f64) -> TimedEvent {
        te(ns, Event::LinkCapacity { link, fraction })
    }

    /// [`judge`] over the default analysis of `events`.
    fn run(events: &[TimedEvent], rules: SloRules) -> (RunAnalysis, Vec<Alert>) {
        let analysis = crate::analyze("t", events, &AnalysisConfig::default());
        let alerts = judge(events, &analysis, &rules);
        (analysis, alerts)
    }

    #[test]
    fn toml_round_trip_and_rejections() {
        let rules = slo_from_toml_str(
            "# slo\nrate_cv_max = 0.5\nmin_jain = 0.3\n\
             max_queue_bytes = 1e6\nmax_time_to_reinterleave_s = 0.25\n\
             slow_factor = 1.5\ncontext_events = 8\n",
        )
        .unwrap();
        assert_eq!(rules.rate_cv_max, Some(0.5));
        assert_eq!(rules.min_jain, Some(0.3));
        assert_eq!(rules.max_queue_bytes, Some(1e6));
        assert_eq!(rules.max_time_to_reinterleave, Some(Dur::from_millis(250)));
        assert_eq!(rules.slow_factor, 1.5);
        assert_eq!(rules.context_events, 8);

        assert!(slo_from_toml_str("bogus = 1\n").is_err());
        assert!(slo_from_toml_str("[section]\n").is_err());
        assert!(slo_from_toml_str("min_jain = nope\n").is_err());
        assert!(slo_from_toml_str("max_time_to_reinterleave_s = -1\n").is_err());
        for text in [
            "window_ms = 50\n",
            "min_rate_samples = 4\n",
            "max_time_to_reinterleave_s = inf\n",
            "max_time_to_reinterleave_s = nan\n",
            "max_time_to_reinterleave_s = 1e-12\n",
            "max_time_to_reinterleave_s = 86400.001\n",
            "max_time_to_reinterleave_s = 1e300\n",
            "slow_factor = -1\n",
            "rate_cv_max = inf\n",
            "context_events = 1.5\n",
        ] {
            let e = slo_from_toml_str(text).expect_err(text);
            assert!(e.starts_with("line 1: "), "{e}");
        }
        assert_eq!(
            slo_from_toml_str("max_time_to_reinterleave_s = 86400\n")
                .map(|r| r.max_time_to_reinterleave),
            Ok(Some(Dur::from_secs(86_400)))
        );
        assert_eq!(slo_from_toml_str("").unwrap(), SloRules::default());
    }

    #[test]
    fn default_rules_fire_nothing() {
        let events: Vec<TimedEvent> = (0..200u64)
            .map(|i| {
                rate(
                    i * 100_000,
                    (i % 2) as u32,
                    if i % 2 == 0 { 50.0 } else { 0.1 },
                )
            })
            .chain([queue(5, 0, 1e12), capacity(10, 0, 0.0)])
            .collect();
        assert!(run(&events, SloRules::default()).1.is_empty());
    }

    /// Flow 0 oscillates to the end; flow 1 holds steady: one `rate_cv`
    /// alert, at the scenario end, carrying the summary's `final_cv`.
    #[test]
    fn rate_cv_bounds_the_final_window_cv() {
        let rules = SloRules {
            rate_cv_max: Some(0.3),
            ..SloRules::default()
        };
        let mut events = Vec::new();
        for i in 0..64u64 {
            let ns = i * 1_000_000;
            events.push(rate(ns, 0, if i % 2 == 0 { 90.0 } else { 5.0 }));
            events.push(rate(ns + 1, 1, 40.0));
        }
        let (analysis, alerts) = run(&events, rules);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let flow0 = &analysis.scenarios[0].health.flows[0];
        assert_eq!(alerts[0].kind, AlertKind::RateCv);
        assert_eq!(alerts[0].subject, "flow=0");
        assert_eq!(alerts[0].value, flow0.final_cv);
        assert_eq!(alerts[0].at, events.last().unwrap().at);
        assert_eq!(alerts[0].context.len(), 32, "a full rate_change lane");
    }

    /// Both flows are even in the first window; then flow 1 trickles
    /// while flow 0 hogs. One `fairness` alert, at the end of the first
    /// unfair window, carrying the summary's `min_jain`.
    #[test]
    fn fairness_fires_at_the_first_window_below_the_floor() {
        let rules = SloRules {
            min_jain: Some(0.6),
            ..SloRules::default()
        };
        let mut events = vec![rate(0, 0, 50.0), rate(1, 1, 50.0), rate(10_000_000, 1, 0.5)];
        for i in 0..26u64 {
            events.push(rate(11_000_000 + i * 1_000_000, 0, 99.0));
        }
        let (analysis, alerts) = run(&events, rules);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::Fairness);
        let fairness = analysis.scenarios[0].fairness.as_ref().unwrap();
        assert_eq!(alerts[0].value, fairness.min_jain);
        assert!(alerts[0].value < 0.6);
        assert_eq!(alerts[0].at, Time::from_nanos(20_000_000));
    }

    /// A scenario with phase events but no `rate_change` has no Jain
    /// index: the summary leaves the three fairness metrics out and the
    /// `min_jain` rule does not judge it.
    #[test]
    fn rateless_scenario_has_no_jain_to_judge() {
        let rules = SloRules {
            min_jain: Some(0.99),
            ..SloRules::default()
        };
        let enter = |ns, job| {
            te(
                ns,
                Event::PhaseEnter {
                    job,
                    phase: Phase::Communicate,
                    iteration: 0,
                },
            )
        };
        let events = [
            marker(0, "s"),
            enter(1_000_000, 0),
            enter(2_000_000, 1),
            comm_exit(11_000_000, 0, 0),
            comm_exit(32_000_000, 1, 0),
        ];
        let (analysis, alerts) = run(&events, rules);
        assert!(analysis.scenarios[0].fairness.is_none());
        let summary = analysis.summary();
        assert!(summary
            .metrics
            .contains_key("s.interleave.overlap_fraction"));
        for metric in ["mean_jain", "min_jain", "long_term_jain"] {
            let key = format!("s.fairness.{metric}");
            assert!(!summary.metrics.contains_key(&key), "{key}");
        }
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    /// One alert per link over the ceiling, at its first sample over it,
    /// carrying the link's maximum; the context holds the marker and the
    /// events up to that instant, none after.
    #[test]
    fn queue_ceiling_fires_once_per_link_with_context_up_to_it() {
        let rules = SloRules {
            max_queue_bytes: Some(1000.0),
            ..SloRules::default()
        };
        let events = [
            marker(0, "s"),
            queue(0, 0, 500.0),
            queue(10, 0, 2500.0),
            queue(20, 0, 9000.0),
            queue(30, 1, 3000.0),
            queue(40, 2, 900.0),
        ];
        let (_, alerts) = run(&events, rules);
        assert_eq!(alerts.len(), 2);
        assert_eq!(
            (alerts[0].subject.as_str(), alerts[0].value),
            ("link=0", 9000.0)
        );
        assert_eq!(alerts[0].at, Time::from_nanos(10));
        assert_eq!(alerts[0].context, events[..3]);
        assert_eq!(alerts[1].subject, "link=1");
        assert_eq!(alerts[1].context, events[..5]);
    }

    /// Jobs 0 and 1 iterate every 10 ms. A fault on link 0 at 60 ms
    /// slows job 0; `slow` is how long its first two iterations after the
    /// fault take, after which it is back at 10 ms.
    fn faulted(slow: u64) -> Vec<TimedEvent> {
        let ms = 1_000_000u64;
        let mut job0: Vec<u64> = (0..=6).map(|i| i * 10).collect();
        job0.extend([60 + slow, 60 + 2 * slow]);
        let last = *job0.last().unwrap();
        job0.extend((1..=12).map(|i| last + i * 10));
        let mut events = vec![capacity(60 * ms, 0, 0.25), capacity(70 * ms, 0, 1.0)];
        for (i, &t) in job0.iter().enumerate() {
            events.push(comm_exit(t * ms, 0, i as u64));
        }
        for i in 0..=25u64 {
            events.push(comm_exit(i * 10 * ms + 1, 1, i));
        }
        events.sort_by_key(|te| te.at);
        events
    }

    #[test]
    fn recovery_stall_bounds_each_fault_window() {
        let rules = SloRules {
            max_time_to_reinterleave: Some(Dur::from_millis(50)),
            ..SloRules::default()
        };
        // 40 ms iterations: job 0 is back at the end of the iteration
        // ending 150 ms, 90 ms after the fault.
        let (_, alerts) = run(&faulted(40), rules.clone());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let stall = &alerts[0];
        assert_eq!(stall.kind, AlertKind::RecoveryStall);
        assert_eq!(stall.subject, "fault@60000000ns");
        assert_eq!(stall.at, Time::from_nanos(110_000_000));
        assert!((stall.value - 0.090).abs() < 1e-12, "{}", stall.value);
        assert!(
            stall.message.starts_with("jobs [0] took 90.0ms"),
            "{}",
            stall.message
        );
        assert!(
            stall
                .context
                .iter()
                .any(|te| te.event.kind() == "link_capacity"),
            "context must contain the fault"
        );

        // 20 ms iterations: back 50 ms after the fault, within the deadline.
        let (_, alerts) = run(&faulted(20), rules.clone());
        assert!(alerts.is_empty(), "{alerts:?}");

        // A slower job that never re-normalizes is late until the end.
        let mut open = faulted(40);
        open.retain(|te| {
            !matches!(te.event, Event::PhaseExit { job: 0, .. }) || te.at.as_nanos() <= 100_000_000
        });
        let end = open.last().unwrap().at;
        let (_, alerts) = run(&open, rules);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(
            alerts[0].value,
            end.saturating_since(Time::from_nanos(60_000_000))
                .as_secs_f64()
        );
    }

    #[test]
    fn alerts_carry_the_ledgers_largest_blame() {
        let mut ledger = ContentionLedger::default();
        assert_eq!(top_blame(&ledger), None);
        for (job, link, other, secs) in [(0, 0, 1, 0.002), (1, 0, 0, 0.001), (2, 3, 0, 0.0)] {
            let jl = ledger.jobs.entry(job).or_insert_with(JobLedger::default);
            jl.blame.insert((link, other), secs);
        }
        let blamed = top_blame(&ledger).expect("a blamed pair");
        assert_eq!(blamed, "link0 job0+job1 (2.000ms)");
        let alert = Alert {
            kind: AlertKind::QueueDepth,
            scenario: "s".to_string(),
            at: Time::ZERO,
            subject: "link=0".to_string(),
            value: 2.0,
            threshold: 1.0,
            message: "m".to_string(),
            blamed: Some(blamed),
            context: Vec::new(),
        };
        assert!(alert.to_jsonl().contains("\"blamed\":\"link0 job0+job1"));
        assert!(alert.render().contains("[most contended: link0"));
        let unblamed = Alert {
            blamed: None,
            ..alert
        };
        assert!(!unblamed.to_jsonl().contains("\"blamed\""));
    }

    #[test]
    fn alert_lines_round_trip_names_with_control_characters() {
        use telemetry::replay::{parse_flat_object, JsonValue};
        let alert = Alert {
            kind: AlertKind::QueueDepth,
            scenario: "chaos\nlinks\t\u{1}".to_string(),
            at: Time::from_nanos(5_000),
            subject: "link=0\t\"q\"".to_string(),
            value: 5000.0,
            threshold: 1000.0,
            message: "queue\ndeep \\ \u{1}".to_string(),
            blamed: Some("link0 job0+job1\n".to_string()),
            context: vec![marker(5_000, "s\n\u{1}")],
        };
        let text = alert.to_jsonl();
        assert_eq!(text.lines().count(), 2, "{text:?}");
        let (header, context) = text.split_once('\n').unwrap();
        let header = parse_flat_object(header).unwrap();
        let str_of = |k: &str| match &header[k] {
            JsonValue::Str(s) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        assert_eq!(str_of("scenario"), alert.scenario);
        assert_eq!(str_of("subject"), alert.subject);
        assert_eq!(str_of("message"), alert.message);
        assert_eq!(Some(str_of("blamed")), alert.blamed);
        assert_eq!(telemetry::parse_jsonl(context).unwrap(), alert.context);
    }

    #[test]
    fn alerts_are_ordered_by_scenario_then_time() {
        let rules = SloRules {
            max_queue_bytes: Some(100.0),
            ..SloRules::default()
        };
        // Stream order b-then-a; output is scenario-sorted a-then-b.
        let events = [
            marker(0, "b"),
            queue(5, 0, 500.0),
            marker(0, "a"),
            queue(9, 2, 900.0),
            queue(3, 1, 900.0),
        ];
        let (_, alerts) = run(&events, rules);
        let order: Vec<(&str, &str)> = alerts
            .iter()
            .map(|a| (a.scenario.as_str(), a.subject.as_str()))
            .collect();
        assert_eq!(order, [("a", "link=1"), ("a", "link=2"), ("b", "link=0")]);
        assert!(alerts[0].to_jsonl().contains("\"alert\":\"queue_depth\""));
    }

    /// Each marked slice is a `split_scenarios` slice behind its marker,
    /// for leading events, back-to-back markers and a trailing marker.
    #[test]
    fn marked_slices_follow_split_scenarios() {
        let streams = [
            vec![],
            vec![queue(0, 0, 1.0)],
            vec![marker(0, "a")],
            vec![queue(0, 0, 1.0), marker(1, "a"), queue(2, 0, 1.0)],
            vec![
                marker(0, "a"),
                marker(1, "b"),
                queue(2, 0, 1.0),
                marker(3, "c"),
            ],
            vec![
                marker(0, "a"),
                queue(1, 0, 1.0),
                marker(2, "a"),
                queue(3, 0, 1.0),
            ],
        ];
        for events in streams {
            let split = split_scenarios(&events);
            let marked = marked_slices(&events);
            let split: Vec<&[TimedEvent]> = split
                .iter()
                .map(|s| s.events)
                .filter(|e| !e.is_empty())
                .collect();
            assert_eq!(marked.len(), split.len(), "{events:?}");
            for (m, s) in marked.iter().zip(split) {
                let body = match m[0].event {
                    Event::Scenario { .. } => &m[1..],
                    _ => m,
                };
                assert_eq!(body, s, "{events:?}");
            }
        }
    }
}
