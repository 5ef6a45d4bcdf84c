//! SLO watchdog: the offline analyzers (rate health, Jain fairness,
//! interleaving recovery) repackaged as incremental monitors that walk a
//! recorded event stream once, in recording order, firing typed
//! [`Alert`]s at the simulated instant a declarative rule is breached.
//!
//! Rules load from a flat TOML file ([`slo_from_toml_str`]):
//!
//! ```toml
//! # evaluation window, in simulated milliseconds
//! window_ms = 10
//!
//! rate_cv_max = 0.8                 # per-flow rate CV per window
//! min_jain = 0.3                    # per-window Jain index across flows
//! max_queue_bytes = 2000000         # instantaneous queue-depth ceiling
//! max_time_to_reinterleave_s = 0.2  # fault onset -> all jobs back to
//!                                   # <= slow_factor x baseline iterations
//! slow_factor = 1.4
//! min_rate_samples = 4              # CV needs this many samples to judge
//! context_events = 32               # flight-ring capacity per category
//! ```
//!
//! Every monitor is windowed on *simulated* time, so verdicts are
//! deterministic: the same event stream produces the same alerts in the
//! same order regardless of wall clock (a [`WatchdogBank`] keys monitors
//! by the stream's `Scenario` markers, and a recording is the same at
//! any worker count). Each alert captures the scenario's
//! flight-recorder ring at the moment it fired — the last-N events per
//! category around the trigger.

use crate::events::{label_scenarios, median_dur};
use crate::fairness::jain_index;
use crate::summary::fmt_f64;
use simtime::{Dur, Time};
use std::collections::{BTreeMap, BTreeSet};
use telemetry::export::{self, JsonEscaped};
use telemetry::live::FlightRing;
use telemetry::{Event, Phase, TimedEvent};

/// Declarative SLO thresholds. `None` disables a monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRules {
    /// Evaluation window, in simulated time.
    pub window: Dur,
    /// Max per-flow coefficient of variation of rate samples per window.
    pub rate_cv_max: Option<f64>,
    /// Min per-window Jain fairness index across flows.
    pub min_jain: Option<f64>,
    /// Max instantaneous bottleneck queue depth, in bytes.
    pub max_queue_bytes: Option<f64>,
    /// Max simulated time from fault onset until every job with an
    /// established baseline is iterating at `<= slow_factor × baseline`
    /// again with all links restored.
    pub max_time_to_reinterleave: Option<Dur>,
    /// Recovery threshold multiplier over the pre-fault median iteration.
    pub slow_factor: f64,
    /// Minimum rate samples in a window before CV is judged.
    pub min_rate_samples: usize,
    /// Flight-ring capacity per event category (alert context size).
    pub context_events: usize,
}

impl Default for SloRules {
    fn default() -> SloRules {
        SloRules {
            window: Dur::from_millis(10),
            rate_cv_max: None,
            min_jain: None,
            max_queue_bytes: None,
            max_time_to_reinterleave: None,
            slow_factor: 1.4,
            min_rate_samples: 4,
            context_events: 32,
        }
    }
}

/// The longest SLO duration a file may set. Simulated runs last seconds,
/// and a day keeps `t + window` far from `Time`'s `u64` nanosecond limit.
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
            "window_ms" => rules.window = dur(num / 1e3)?,
            "rate_cv_max" => rules.rate_cv_max = Some(num),
            "min_jain" => rules.min_jain = Some(num),
            "max_queue_bytes" => rules.max_queue_bytes = Some(num),
            "max_time_to_reinterleave_s" => rules.max_time_to_reinterleave = Some(dur(num)?),
            "slow_factor" if num < 0.0 => return Err(err("slow_factor must not be negative")),
            "slow_factor" => rules.slow_factor = num,
            "min_rate_samples" => rules.min_rate_samples = uint(num)?,
            "context_events" => rules.context_events = uint(num)?.max(1),
            _ => return Err(err("unknown key")),
        }
    }
    Ok(rules)
}

/// Which SLO a violation breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// Per-flow rate CV exceeded `rate_cv_max` in a window.
    RateCv,
    /// Window Jain index fell below `min_jain`.
    Fairness,
    /// Instantaneous queue depth exceeded `max_queue_bytes`.
    QueueDepth,
    /// Jobs failed to re-interleave within `max_time_to_reinterleave`
    /// of a fault's onset.
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

/// One SLO violation, with the flight-recorder context around the trigger.
#[derive(Debug, Clone)]
pub struct Alert {
    pub kind: AlertKind,
    /// Scenario the violation occurred in.
    pub scenario: String,
    /// Simulated time of the trigger (window end for windowed monitors).
    pub at: Time,
    /// What breached: `flow=N`, `link=N`, or `fault@Tns`.
    pub subject: String,
    /// The observed value.
    pub value: f64,
    /// The configured threshold it crossed.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
    /// The most contended `(link, job pair)` at trigger time, from the
    /// watchdog's streaming pair-overlap accumulator — `None` when no two
    /// jobs had overlapped on a shared link yet.
    pub blamed: Option<String>,
    /// Snapshot of the scenario's flight ring when the alert fired — the
    /// last-N events per category, including the triggering events.
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

/// Incremental SLO monitor for one scenario's event stream.
///
/// Feed it events in recording order via [`Watchdog::observe`]; call
/// [`Watchdog::finish`] once the stream ends to evaluate the final
/// partial window. Each (kind, subject) pair fires at most once per
/// scenario (per fault window for recovery stalls), so alert counts stay
/// small and stable for golden-count gates.
pub struct Watchdog {
    rules: SloRules,
    scenario: String,
    ring: FlightRing,
    window_end: Option<Time>,
    last_at: Time,
    // rate + fairness monitors
    rate_samples: BTreeMap<u32, Vec<f64>>,
    last_rate: BTreeMap<u32, f64>,
    // recovery monitor
    link_down: BTreeSet<u32>,
    fault_started_at: Option<Time>,
    iter_baseline: BTreeMap<u32, Vec<Dur>>,
    last_comm_exit: BTreeMap<u32, Time>,
    recovered: BTreeSet<u32>,
    stall_fired: bool,
    fired: BTreeSet<(&'static str, String)>,
    alerts: Vec<Alert>,
    // Streaming pair-overlap accumulator: which jobs are communicating
    // right now, since when the active set last changed, which links each
    // job traverses, and overlapped seconds per (link, job, job) triple.
    comm_active: BTreeSet<u32>,
    comm_seg_start: Time,
    job_links: BTreeMap<u32, Vec<u32>>,
    pair_overlap: BTreeMap<(u32, u32, u32), f64>,
}

/// Iteration samples retained per job for the recovery baseline median.
const BASELINE_CAP: usize = 64;

impl Watchdog {
    pub fn new(scenario: &str, rules: SloRules) -> Watchdog {
        let ring = FlightRing::new(rules.context_events);
        Watchdog {
            rules,
            scenario: scenario.to_string(),
            ring,
            window_end: None,
            last_at: Time::ZERO,
            rate_samples: BTreeMap::new(),
            last_rate: BTreeMap::new(),
            link_down: BTreeSet::new(),
            fault_started_at: None,
            iter_baseline: BTreeMap::new(),
            last_comm_exit: BTreeMap::new(),
            recovered: BTreeSet::new(),
            stall_fired: false,
            fired: BTreeSet::new(),
            alerts: Vec::new(),
            comm_active: BTreeSet::new(),
            comm_seg_start: Time::ZERO,
            job_links: BTreeMap::new(),
            pair_overlap: BTreeMap::new(),
        }
    }

    /// Accrues the overlap segment `[comm_seg_start, now)` for every pair
    /// of currently-communicating jobs sharing a link, then restarts the
    /// segment at `now`. Jobs without a `JobPath` default to link 0.
    fn accrue_overlap(&mut self, now: Time) {
        let dt = now.saturating_since(self.comm_seg_start).as_secs_f64();
        if dt > 0.0 && self.comm_active.len() >= 2 {
            let jobs: Vec<u32> = self.comm_active.iter().copied().collect();
            for (i, &a) in jobs.iter().enumerate() {
                for &b in &jobs[i + 1..] {
                    let la = self.job_links.get(&a).cloned().unwrap_or_else(|| vec![0]);
                    let lb = self.job_links.get(&b).cloned().unwrap_or_else(|| vec![0]);
                    for &l in la.iter().filter(|l| lb.contains(l)) {
                        *self.pair_overlap.entry((l, a, b)).or_insert(0.0) += dt;
                    }
                }
            }
        }
        self.comm_seg_start = now;
    }

    /// The most-overlapped `(link, job pair)` so far, rendered for alerts.
    fn top_blamed(&self) -> Option<String> {
        self.pair_overlap
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&(link, a, b), &secs)| format!("link{link} job{a}+job{b} ({:.3}ms)", secs * 1e3))
    }

    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    fn fire(
        &mut self,
        kind: AlertKind,
        at: Time,
        subject: String,
        value: f64,
        threshold: f64,
        message: String,
    ) {
        if !self.fired.insert((kind.label(), subject.clone())) {
            return;
        }
        self.accrue_overlap(at);
        self.alerts.push(Alert {
            kind,
            scenario: self.scenario.clone(),
            at,
            subject,
            value,
            threshold,
            message,
            blamed: self.top_blamed(),
            context: self.ring.snapshot(),
        });
    }

    fn close_window(&mut self, end: Time) {
        if let Some(cv_max) = self.rules.rate_cv_max {
            let judged: Vec<(u32, f64)> = self
                .rate_samples
                .iter()
                .filter(|(_, s)| s.len() >= self.rules.min_rate_samples)
                .map(|(&flow, s)| {
                    let mean = s.iter().sum::<f64>() / s.len() as f64;
                    let var = s.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / s.len() as f64;
                    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
                    (flow, cv)
                })
                .collect();
            for (flow, cv) in judged {
                if cv > cv_max {
                    self.fire(
                        AlertKind::RateCv,
                        end,
                        format!("flow={flow}"),
                        cv,
                        cv_max,
                        format!("rate CV {cv:.3} exceeds {cv_max} for flow {flow}"),
                    );
                }
            }
        }
        if let Some(min_jain) = self.rules.min_jain {
            // Flows without a sample this window carry their last rate
            // forward, mirroring the offline fairness analyzer.
            let means: Vec<f64> = self
                .last_rate
                .iter()
                .map(|(flow, &last)| match self.rate_samples.get(flow) {
                    Some(s) if !s.is_empty() => s.iter().sum::<f64>() / s.len() as f64,
                    _ => last,
                })
                .collect();
            if means.len() >= 2 {
                let j = jain_index(&means);
                if j < min_jain {
                    self.fire(
                        AlertKind::Fairness,
                        end,
                        "jain".to_string(),
                        j,
                        min_jain,
                        format!("window Jain index {j:.3} below {min_jain}"),
                    );
                }
            }
        }
        self.rate_samples.clear();
    }

    /// All jobs that had a pre-fault baseline have shown a normal-speed
    /// iteration since the fault, and every link is back at capacity.
    fn all_recovered(&self) -> bool {
        self.link_down.is_empty()
            && self
                .iter_baseline
                .keys()
                .all(|job| self.recovered.contains(job))
    }

    /// Feeds one event. Events must arrive in nondecreasing simulated
    /// time (recording order within a scenario guarantees this).
    pub fn observe(&mut self, te: &TimedEvent) {
        self.last_at = self.last_at.max(te.at);
        match self.window_end {
            None => self.window_end = Some(te.at + self.rules.window),
            Some(mut end) => {
                while te.at >= end {
                    self.close_window(end);
                    end += self.rules.window;
                }
                self.window_end = Some(end);
            }
        }
        self.ring.push(te.clone());
        match &te.event {
            Event::RateChange { flow, bps, .. } => {
                let gbps = bps / 1e9;
                self.rate_samples.entry(*flow).or_default().push(gbps);
                self.last_rate.insert(*flow, gbps);
            }
            Event::QueueDepth { link, bytes } => {
                if let Some(max) = self.rules.max_queue_bytes {
                    if *bytes > max {
                        self.fire(
                            AlertKind::QueueDepth,
                            te.at,
                            format!("link={link}"),
                            *bytes,
                            max,
                            format!("queue depth {bytes:.0} B exceeds {max:.0} B on link {link}"),
                        );
                    }
                }
            }
            Event::LinkCapacity { link, fraction } => {
                if *fraction < 0.999 {
                    if self.link_down.is_empty() && self.fault_started_at.is_none() {
                        self.fault_started_at = Some(te.at);
                        self.recovered.clear();
                        self.stall_fired = false;
                    }
                    self.link_down.insert(*link);
                } else {
                    self.link_down.remove(link);
                }
            }
            Event::JobPath { job, links } => {
                self.job_links.insert(*job, links.clone());
            }
            Event::PhaseEnter {
                job,
                phase: Phase::Communicate,
                ..
            } => {
                self.accrue_overlap(te.at);
                self.comm_active.insert(*job);
            }
            Event::PhaseExit {
                job,
                phase: Phase::Communicate,
                ..
            } => {
                self.accrue_overlap(te.at);
                self.comm_active.remove(job);
                if let Some(prev) = self.last_comm_exit.insert(*job, te.at) {
                    let dur = te.at.saturating_since(prev);
                    if self.fault_started_at.is_none() && self.link_down.is_empty() {
                        let base = self.iter_baseline.entry(*job).or_default();
                        if base.len() == BASELINE_CAP {
                            base.remove(0);
                        }
                        base.push(dur);
                    } else if self.link_down.is_empty() {
                        let base = self
                            .iter_baseline
                            .get(job)
                            .map(|b| median_dur(b))
                            .unwrap_or(Dur::ZERO);
                        if base.is_zero() || dur <= base.mul_f64(self.rules.slow_factor) {
                            self.recovered.insert(*job);
                            if self.all_recovered() {
                                self.fault_started_at = None;
                                self.recovered.clear();
                                self.stall_fired = false;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        if let (Some(deadline), Some(started)) =
            (self.rules.max_time_to_reinterleave, self.fault_started_at)
        {
            let elapsed = te.at.saturating_since(started);
            if !self.stall_fired && elapsed > deadline {
                let lagging: Vec<String> = self
                    .iter_baseline
                    .keys()
                    .filter(|j| !self.recovered.contains(j))
                    .map(|j| j.to_string())
                    .collect();
                self.fire(
                    AlertKind::RecoveryStall,
                    te.at,
                    format!("fault@{}ns", started.as_nanos()),
                    elapsed.as_secs_f64(),
                    deadline.as_secs_f64(),
                    format!(
                        "jobs [{}] not re-interleaved {:.1}ms after fault at {:.1}ms \
                         (deadline {:.1}ms)",
                        lagging.join(","),
                        elapsed.as_millis_f64(),
                        started.as_millis_f64(),
                        deadline.as_millis_f64()
                    ),
                );
                self.stall_fired = true;
            }
        }
    }

    /// Evaluates the final partial window. Call once, after the stream.
    pub fn finish(&mut self) {
        if let Some(end) = self.window_end.take() {
            self.close_window(end);
        }
    }
}

/// A set of per-scenario [`Watchdog`]s sharing one rule set.
///
/// Feed it a recorded stream via [`WatchdogBank::observe_stream`], which
/// splits it on `Scenario` markers like
/// [`crate::events::split_scenarios`]; [`WatchdogBank::into_alerts`]
/// returns every alert in a deterministic order.
pub struct WatchdogBank {
    rules: SloRules,
    dogs: BTreeMap<String, Watchdog>,
}

impl WatchdogBank {
    pub fn new(rules: SloRules) -> WatchdogBank {
        WatchdogBank {
            rules,
            dogs: BTreeMap::new(),
        }
    }

    /// Feeds a recorded stream, each event to its scenario's watchdog
    /// (events before the first marker land in a scenario named `"run"`).
    pub fn observe_stream(&mut self, events: &[TimedEvent]) {
        for (scenario, te) in label_scenarios(events) {
            match self.dogs.get_mut(scenario) {
                Some(dog) => dog.observe(te),
                None => {
                    let mut dog = Watchdog::new(scenario, self.rules.clone());
                    dog.observe(te);
                    self.dogs.insert(scenario.to_string(), dog);
                }
            }
        }
    }

    /// Finishes every watchdog and returns all alerts, sorted by
    /// (scenario, time, kind, subject).
    pub fn into_alerts(mut self) -> Vec<Alert> {
        let mut out = Vec::new();
        for dog in self.dogs.values_mut() {
            dog.finish();
        }
        for (_, dog) in std::mem::take(&mut self.dogs) {
            out.extend(dog.alerts);
        }
        out.sort_by(|a, b| {
            (
                a.scenario.as_str(),
                a.at.as_nanos(),
                a.kind,
                a.subject.as_str(),
            )
                .cmp(&(
                    b.scenario.as_str(),
                    b.at.as_nanos(),
                    b.kind,
                    b.subject.as_str(),
                ))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::CcState;

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

    #[test]
    fn toml_round_trip_and_rejections() {
        let rules = slo_from_toml_str(
            "# slo\nwindow_ms = 5\nrate_cv_max = 0.5\nmin_jain = 0.3\n\
             max_queue_bytes = 1e6\nmax_time_to_reinterleave_s = 0.25\n\
             slow_factor = 1.5\nmin_rate_samples = 6\ncontext_events = 8\n",
        )
        .unwrap();
        assert_eq!(rules.window, Dur::from_millis(5));
        assert_eq!(rules.rate_cv_max, Some(0.5));
        assert_eq!(rules.min_jain, Some(0.3));
        assert_eq!(rules.max_queue_bytes, Some(1e6));
        assert_eq!(rules.max_time_to_reinterleave, Some(Dur::from_millis(250)));
        assert_eq!(rules.slow_factor, 1.5);
        assert_eq!(rules.min_rate_samples, 6);
        assert_eq!(rules.context_events, 8);

        assert!(slo_from_toml_str("bogus = 1\n").is_err());
        assert!(slo_from_toml_str("[section]\n").is_err());
        assert!(slo_from_toml_str("window_ms = nope\n").is_err());
        assert!(slo_from_toml_str("window_ms = -1\n").is_err());
        for text in [
            "window_ms = inf\n",
            "window_ms = nan\n",
            "window_ms = 1e-9\n",
            "window_ms = 1e300\n",
            "max_time_to_reinterleave_s = nan\n",
            "window_ms = 1.8446744073709552e13\n",
            "window_ms = 86400001\n",
            "max_time_to_reinterleave_s = 1e300\n",
            "slow_factor = -1\n",
            "rate_cv_max = inf\n",
        ] {
            let e = slo_from_toml_str(text).expect_err(text);
            assert!(e.starts_with("line 1: "), "{e}");
        }
        assert_eq!(
            slo_from_toml_str("window_ms = 86400000\n").map(|r| r.window),
            Ok(Dur::from_secs(86_400))
        );
        assert_eq!(slo_from_toml_str("").unwrap(), SloRules::default());
    }

    #[test]
    fn default_rules_fire_nothing() {
        let mut dog = Watchdog::new("s", SloRules::default());
        for i in 0..200u64 {
            dog.observe(&rate(
                i * 100_000,
                (i % 2) as u32,
                if i % 2 == 0 { 50.0 } else { 0.1 },
            ));
        }
        dog.finish();
        assert!(dog.alerts().is_empty());
    }

    #[test]
    fn rate_cv_blowup_fires_once_per_flow() {
        let rules = SloRules {
            rate_cv_max: Some(0.3),
            ..SloRules::default()
        };
        let mut dog = Watchdog::new("s", rules);
        // Flow 0 oscillates wildly; flow 1 holds steady.
        for w in 0..4u64 {
            for i in 0..8u64 {
                let ns = w * 10_000_000 + i * 1_000_000;
                dog.observe(&rate(ns, 0, if i % 2 == 0 { 90.0 } else { 5.0 }));
                dog.observe(&rate(ns + 1, 1, 40.0));
            }
        }
        dog.finish();
        let alerts = dog.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::RateCv);
        assert_eq!(alerts[0].subject, "flow=0");
        assert!(alerts[0].value > 0.3);
        assert!(
            !alerts[0].context.is_empty(),
            "alert must carry flight-ring context"
        );
    }

    #[test]
    fn jain_collapse_fires_with_carry_forward() {
        let rules = SloRules {
            min_jain: Some(0.6),
            ..SloRules::default()
        };
        let mut dog = Watchdog::new("s", rules);
        // Both flows seen in window 0 (jain = 1); then flow 1 starves at a
        // carried-forward trickle while flow 0 hogs.
        dog.observe(&rate(0, 0, 50.0));
        dog.observe(&rate(1, 1, 50.0));
        dog.observe(&rate(10_000_000, 1, 0.5));
        for i in 0..6u64 {
            dog.observe(&rate(20_000_000 + i * 1_000_000, 0, 99.0));
        }
        dog.finish();
        let alerts = dog.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::Fairness);
        assert!(alerts[0].value < 0.6);
    }

    #[test]
    fn queue_ceiling_fires_immediately_and_dedupes() {
        let rules = SloRules {
            max_queue_bytes: Some(1000.0),
            ..SloRules::default()
        };
        let mut dog = Watchdog::new("s", rules);
        dog.observe(&te(
            0,
            Event::QueueDepth {
                link: 0,
                bytes: 500.0,
            },
        ));
        dog.observe(&te(
            10,
            Event::QueueDepth {
                link: 0,
                bytes: 2500.0,
            },
        ));
        dog.observe(&te(
            20,
            Event::QueueDepth {
                link: 0,
                bytes: 9000.0,
            },
        ));
        dog.observe(&te(
            30,
            Event::QueueDepth {
                link: 1,
                bytes: 3000.0,
            },
        ));
        dog.finish();
        let alerts = dog.alerts();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].subject, "link=0");
        assert_eq!(alerts[0].value, 2500.0);
        assert_eq!(alerts[1].subject, "link=1");
    }

    #[test]
    fn recovery_stall_fires_after_deadline_and_clears_on_recovery() {
        let ms = 1_000_000u64;
        let rules = SloRules {
            max_time_to_reinterleave: Some(Dur::from_millis(50)),
            ..SloRules::default()
        };
        // Baseline: 10ms iterations for jobs 0 and 1.
        let mut dog = Watchdog::new("s", rules.clone());
        for i in 0..6u64 {
            dog.observe(&comm_exit(i * 10 * ms, 0, i));
            dog.observe(&comm_exit(i * 10 * ms + 1, 1, i));
        }
        // Fault at 60ms; link restored at 70ms; job 1 recovers quickly but
        // job 0 crawls at 40ms/iteration well past the 50ms deadline.
        dog.observe(&te(
            60 * ms,
            Event::LinkCapacity {
                link: 0,
                fraction: 0.25,
            },
        ));
        dog.observe(&te(
            70 * ms,
            Event::LinkCapacity {
                link: 0,
                fraction: 1.0,
            },
        ));
        dog.observe(&comm_exit(80 * ms, 1, 6));
        dog.observe(&comm_exit(100 * ms, 0, 6));
        dog.observe(&comm_exit(140 * ms, 0, 7));
        dog.finish();
        let alerts = dog.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::RecoveryStall);
        assert!(alerts[0].subject.starts_with("fault@"));
        assert!(
            alerts[0]
                .context
                .iter()
                .any(|te| te.event.kind() == "link_capacity"),
            "context must contain the triggering fault event"
        );

        // Same fault but the jobs snap back inside the deadline: clean.
        let mut ok = Watchdog::new("s", rules);
        for i in 0..6u64 {
            ok.observe(&comm_exit(i * 10 * ms, 0, i));
            ok.observe(&comm_exit(i * 10 * ms + 1, 1, i));
        }
        ok.observe(&te(
            60 * ms,
            Event::LinkCapacity {
                link: 0,
                fraction: 0.25,
            },
        ));
        ok.observe(&te(
            65 * ms,
            Event::LinkCapacity {
                link: 0,
                fraction: 1.0,
            },
        ));
        // First post-restore iterations are long (20ms) — not yet
        // recovered — but the next land back at the 10ms baseline well
        // inside the 50ms deadline.
        ok.observe(&comm_exit(70 * ms, 0, 6));
        ok.observe(&comm_exit(70 * ms + 1, 1, 6));
        ok.observe(&comm_exit(80 * ms, 0, 7));
        ok.observe(&comm_exit(80 * ms + 1, 1, 7));
        ok.observe(&comm_exit(200 * ms, 0, 8));
        ok.finish();
        assert!(ok.alerts().is_empty(), "{:?}", ok.alerts());
    }

    fn comm_enter(ns: u64, job: u32, iteration: u64) -> TimedEvent {
        te(
            ns,
            Event::PhaseEnter {
                job,
                phase: Phase::Communicate,
                iteration,
            },
        )
    }

    #[test]
    fn alerts_carry_the_most_contended_pair() {
        let rules = SloRules {
            max_queue_bytes: Some(1000.0),
            ..SloRules::default()
        };
        let ms = 1_000_000u64;
        let mut dog = Watchdog::new("s", rules.clone());
        // Jobs 0 and 1 overlap on link 0 for 2 ms; job 2 stays solo.
        dog.observe(&comm_enter(0, 0, 0));
        dog.observe(&comm_enter(ms, 1, 0));
        dog.observe(&comm_exit(3 * ms, 0, 0));
        dog.observe(&comm_exit(3 * ms, 1, 0));
        dog.observe(&comm_enter(4 * ms, 2, 0));
        dog.observe(&te(
            5 * ms,
            Event::QueueDepth {
                link: 0,
                bytes: 5000.0,
            },
        ));
        dog.finish();
        let alerts = dog.alerts();
        assert_eq!(alerts.len(), 1);
        let blamed = alerts[0].blamed.as_deref().expect("blamed pair");
        assert_eq!(blamed, "link0 job0+job1 (2.000ms)");
        assert!(alerts[0]
            .to_jsonl()
            .contains("\"blamed\":\"link0 job0+job1"));
        assert!(alerts[0].render().contains("[most contended: link0"));

        // No overlap observed → no blame on the alert.
        let mut solo = Watchdog::new("s", rules);
        solo.observe(&comm_enter(0, 0, 0));
        solo.observe(&te(
            ms,
            Event::QueueDepth {
                link: 0,
                bytes: 5000.0,
            },
        ));
        solo.finish();
        assert_eq!(solo.alerts()[0].blamed, None);
        assert!(!solo.alerts()[0].to_jsonl().contains("\"blamed\""));
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
            context: vec![te(
                5_000,
                Event::Scenario {
                    name: "s\n\u{1}".to_string(),
                },
            )],
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
    fn disjoint_paths_accumulate_no_pair_overlap() {
        let rules = SloRules {
            max_queue_bytes: Some(1000.0),
            ..SloRules::default()
        };
        let ms = 1_000_000u64;
        let mut dog = Watchdog::new("s", rules);
        dog.observe(&te(
            0,
            Event::JobPath {
                job: 0,
                links: vec![1],
            },
        ));
        dog.observe(&te(
            0,
            Event::JobPath {
                job: 1,
                links: vec![2],
            },
        ));
        dog.observe(&comm_enter(0, 0, 0));
        dog.observe(&comm_enter(0, 1, 0));
        dog.observe(&te(
            2 * ms,
            Event::QueueDepth {
                link: 1,
                bytes: 5000.0,
            },
        ));
        dog.finish();
        assert_eq!(dog.alerts()[0].blamed, None);
    }

    #[test]
    fn bank_orders_alerts_deterministically() {
        let rules = SloRules {
            max_queue_bytes: Some(100.0),
            ..SloRules::default()
        };
        let stream_b = te(
            5,
            Event::QueueDepth {
                link: 0,
                bytes: 500.0,
            },
        );
        let stream_a = te(
            9,
            Event::QueueDepth {
                link: 2,
                bytes: 900.0,
            },
        );
        // Stream order b-then-a; output is scenario-sorted a-then-b.
        let mut bank = WatchdogBank::new(rules);
        bank.observe_stream(&[
            te(0, Event::Scenario { name: "b".into() }),
            stream_b,
            te(0, Event::Scenario { name: "a".into() }),
            stream_a,
        ]);
        let alerts = bank.into_alerts();
        let order: Vec<&str> = alerts.iter().map(|a| a.scenario.as_str()).collect();
        assert_eq!(order, vec!["a", "b"]);
        assert!(alerts[0].to_jsonl().contains("\"alert\":\"queue_depth\""));
    }
}
