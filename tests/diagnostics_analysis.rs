//! End-to-end checks of the diagnostics pipeline against real experiment
//! traces: the interleaving auditor must *measure* the paper's thesis
//! (unfairness interleaves communication), replay must agree with the
//! in-process recording, and the summary diff must catch real drift.
//! SLO verdicts over the seeded chaos matrix (stragglers / link faults ×
//! seeds) must raise one recovery alert per fault window that outlasts
//! the deadline, with the fault in its flight-recorder context, while
//! straggler-only cells and a fault-free run stay alert-free; on Table 1
//! the `--slo` alerts are exactly the `--summary` metrics over the same
//! thresholds.

use diagnostics::watchdog::{judge, Alert, AlertKind, SloRules};
use diagnostics::{
    analyze, diff, recovery, AnalysisConfig, DiffConfig, RecoveryConfig, RunSummary,
};
use faults::ChaosConfig;
use mlcc::experiments::chaos::{self, ChaosSweepConfig};
use mlcc::experiments::fig1::{self, Fig1Config};
use mlcc_repro::*;
use simtime::{Dur, Time};
use std::collections::BTreeSet;
use std::process::Command;
use telemetry::replay::JsonValue;
use telemetry::{BufferRecorder, TimedEvent};

fn fig1_cfg(iterations: usize) -> Fig1Config {
    Fig1Config {
        iterations,
        ..Fig1Config::default()
    }
}

/// The acceptance criterion: under unfair DCQCN the two jobs' communication
/// phases interleave, so the measured overlap fraction is strictly lower
/// than under fair sharing (where both jobs contend continuously).
#[test]
fn unfair_fig1_interleaves_more_than_fair() {
    let mut rec = BufferRecorder::new();
    fig1::run_traced(&fig1_cfg(30), &mut rec);
    let analysis = analyze("fig1", rec.events(), &AnalysisConfig::default());
    assert_eq!(analysis.scenarios.len(), 2, "fair + unfair scenarios");
    let fair = &analysis.scenarios[0];
    let unfair = &analysis.scenarios[1];
    assert_eq!(fair.name, "fig1/fair");
    assert_eq!(unfair.name, "fig1/unfair");
    assert!(
        unfair.interleave.overlap_fraction < fair.interleave.overlap_fraction,
        "unfair overlap {} must be strictly below fair overlap {}",
        unfair.interleave.overlap_fraction,
        fair.interleave.overlap_fraction
    );
    // Fair sharing keeps both jobs' phases glued together — heavy overlap.
    assert!(
        fair.interleave.overlap_fraction > 0.5,
        "fair overlap {} unexpectedly low",
        fair.interleave.overlap_fraction
    );
}

/// A JSONL round trip is lossless for analysis purposes: analyzing the
/// replayed trace produces exactly the summary of the live trace.
#[test]
fn replayed_trace_analyzes_identically() {
    let mut rec = BufferRecorder::new();
    fig1::run_traced(&fig1_cfg(10), &mut rec);
    let text = telemetry::export::jsonl(rec.events());
    let replayed = telemetry::parse_jsonl(&text).expect("replay parses");
    assert_eq!(replayed.len(), rec.len());
    let cfg = AnalysisConfig::default();
    let live = analyze("fig1", rec.events(), &cfg).summary();
    let back = analyze("fig1", &replayed, &cfg).summary();
    assert_eq!(live.to_json(), back.to_json());
    assert!(diff(&live, &back, &DiffConfig::default()).is_clean());
}

/// Identical runs diff clean; runs that genuinely differ (more iterations
/// shift the medians' tail behaviour and signal rates) are flagged.
#[test]
fn summary_diff_separates_identical_from_changed_runs() {
    let summarize = |iterations: usize| {
        let mut rec = BufferRecorder::new();
        fig1::run_traced(&fig1_cfg(iterations), &mut rec);
        analyze("fig1", rec.events(), &AnalysisConfig::default()).summary()
    };
    let a = summarize(12);
    let b = summarize(12);
    let changed = summarize(36);
    let cfg = DiffConfig::default();
    assert!(
        diff(&a, &b, &cfg).is_clean(),
        "identical seeds must diff clean:\n{}",
        diff(&a, &b, &cfg).render()
    );
    let d = diff(&a, &changed, &cfg);
    assert!(
        !d.is_clean(),
        "tripling iterations should shift at least one metric"
    );
}

fn sweep_cfg() -> ChaosSweepConfig {
    ChaosSweepConfig {
        iterations: 16,
        ..ChaosSweepConfig::default()
    }
}

/// Recovery-deadline rules tight enough that the injected faults of the
/// seeded matrix cannot possibly be healed in time.
fn recovery_rules() -> SloRules {
    SloRules {
        max_time_to_reinterleave: Some(Dur::from_millis(50)),
        ..SloRules::default()
    }
}

/// The alerts `rules` raise on a recorded stream.
fn alerts_of(events: &[TimedEvent], rules: &SloRules) -> Vec<Alert> {
    let analysis = analyze("run", events, &AnalysisConfig::default());
    judge(events, &analysis, rules)
}

#[test]
fn seeded_chaos_matrix_raises_recovery_alerts_with_fault_context() {
    let mut rec = BufferRecorder::new();
    chaos::run_traced(&sweep_cfg(), &mut rec);

    let rules = recovery_rules();
    let alerts = alerts_of(rec.events(), &rules);
    assert!(
        !alerts.is_empty(),
        "seeded fault matrix must breach a 50ms recovery SLO"
    );
    let stalls: Vec<_> = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::RecoveryStall)
        .collect();
    assert!(!stalls.is_empty(), "expected recovery_stall alerts");
    for stall in &stalls {
        assert!(
            stall.scenario.contains("links") || stall.scenario.contains("mixed"),
            "recovery stalls come from link-fault cells, got {:?}",
            stall.scenario
        );
        assert!(stall.subject.starts_with("fault@"), "{:?}", stall.subject);
        assert!(
            stall
                .context
                .iter()
                .any(|te| te.event.kind() == "link_capacity"),
            "flight-recorder context must contain the triggering fault"
        );
        assert!(stall.value > stall.threshold);
    }

    // One stall per fault window of the recovery analyzer whose jobs,
    // every incident overlapping it, recovered later than the deadline
    // after its onset (an unrecovered incident counts to the cell's end).
    let deadline = rules.max_time_to_reinterleave.unwrap();
    let mut late_windows = Vec::new();
    for slice in diagnostics::split_scenarios(rec.events()) {
        let end = slice.events.last().map_or(Time::ZERO, |te| te.at);
        let report = recovery(slice.events, &RecoveryConfig::default());
        for w in &report.fault_windows {
            let w_end = w.end.unwrap_or(end);
            let recovered = report
                .jobs
                .iter()
                .flat_map(|j| &j.incidents)
                .map(|i| (i.start, i.recovered_at.unwrap_or(end)))
                .filter(|&(start, back)| start <= w_end && back >= w.start)
                .map(|(_, back)| back)
                .max();
            if recovered.is_some_and(|back| back.saturating_since(w.start) > deadline) {
                late_windows.push((
                    slice.name.clone(),
                    format!("fault@{}ns", w.start.as_nanos()),
                ));
            }
        }
    }
    late_windows.sort();
    let mut stall_windows: Vec<_> = stalls
        .iter()
        .map(|a| (a.scenario.clone(), a.subject.clone()))
        .collect();
    stall_windows.sort();
    assert_eq!(stall_windows, late_windows);

    // Same stream, same rules → identical alert list (determinism is
    // what makes a golden alert-count gate possible).
    let again = alerts_of(rec.events(), &rules);
    assert_eq!(again.len(), alerts.len());
    for (a, b) in alerts.iter().zip(&again) {
        assert_eq!(
            (a.kind, &a.scenario, a.at, &a.subject),
            (b.kind, &b.scenario, b.at, &b.subject)
        );
    }
}

#[test]
fn straggler_cells_alone_stay_clean_on_recovery_slo() {
    // Stragglers slow compute but never degrade a link, so the recovery
    // rule (which judges link fault windows) must not fire on them.
    let cfg = ChaosSweepConfig {
        profiles: vec!["stragglers".to_string()],
        ..sweep_cfg()
    };
    let mut rec = BufferRecorder::new();
    chaos::run_traced(&cfg, &mut rec);
    let alerts = alerts_of(rec.events(), &recovery_rules());
    assert!(
        alerts.is_empty(),
        "straggler-only cells fired: {:?}",
        alerts
            .iter()
            .map(|a| (a.kind, a.scenario.clone()))
            .collect::<Vec<_>>()
    );
}

fn quick_fig1() -> Fig1Config {
    Fig1Config {
        iterations: 8,
        warmup: 3,
        chaos: ChaosConfig::none(),
        ..Fig1Config::default()
    }
}

#[test]
fn chaos_none_fig1_is_alert_free() {
    // A healthy, fault-free run fires nothing under the same rules the
    // chaos tests breach.
    let mut rec = BufferRecorder::new();
    fig1::run_traced(&quick_fig1(), &mut rec);
    let alerts = alerts_of(rec.events(), &recovery_rules());
    assert!(alerts.is_empty(), "chaos-none run fired: {alerts:?}");
}

/// `mlcc-repro table1 --iterations 1` under rules on rate CV, fairness
/// and queue depth: the (scenario, subject) pairs of its `--alerts` dump
/// are exactly the `--summary` metrics over the same thresholds, per kind.
#[test]
fn table1_slo_alerts_equal_the_summary_crossings() {
    let dir = std::env::temp_dir().join(format!("mlcc_slo_agree_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(
        dir.join("slo.toml"),
        "rate_cv_max = 0.3\nmin_jain = 0.9\nmax_queue_bytes = 100000\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mlcc-repro"))
        .args(["table1", "--iterations", "1", "--slo", &path("slo.toml")])
        .args([
            "--alerts",
            &path("alerts.jsonl"),
            "--summary",
            &path("run.json"),
        ])
        .output()
        .expect("mlcc-repro runs");
    let alerts = std::fs::read_to_string(dir.join("alerts.jsonl"));
    let summary = std::fs::read_to_string(dir.join("run.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let summary = RunSummary::from_json(&summary.unwrap()).unwrap();

    let mut crossed: BTreeSet<(String, String, String)> = BTreeSet::new();
    for (key, &v) in &summary.metrics {
        let Some((scenario, metric)) = key.split_once(".health.").or(key.split_once(".fairness."))
        else {
            continue;
        };
        let (kind, subject) = match metric.split_once('.') {
            Some((flow, "final_cv")) if v > 0.3 => ("rate_cv", format!("flow={}", &flow[4..])),
            Some((queue, "max_bytes")) if v > 1e5 => {
                ("queue_depth", format!("link={}", &queue[5..]))
            }
            None if metric == "min_jain" && v < 0.9 => ("fairness", "jain".to_string()),
            _ => continue,
        };
        crossed.insert((kind.to_string(), scenario.to_string(), subject));
    }
    let fired: BTreeSet<(String, String, String)> = alerts
        .unwrap()
        .lines()
        .filter_map(|line| telemetry::replay::parse_flat_object(line).ok())
        .filter(|header| header.contains_key("alert"))
        .map(|header| {
            let text = |k: &str| match &header[k] {
                JsonValue::Str(s) => s.clone(),
                other => panic!("{k}: {other:?}"),
            };
            let scenario = text("scenario").replace(['/', ' '], "_");
            (text("alert"), scenario, text("subject"))
        })
        .collect();
    let count = |kind: &str| crossed.iter().filter(|c| c.0 == kind).count();
    assert_eq!(
        ["rate_cv", "fairness", "queue_depth"].map(count),
        [4, 8, 10],
        "summary crossings"
    );
    assert_eq!(fired, crossed);
}
