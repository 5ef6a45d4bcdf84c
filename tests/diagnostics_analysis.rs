//! End-to-end checks of the diagnostics pipeline against real experiment
//! traces: the interleaving auditor must *measure* the paper's thesis
//! (unfairness interleaves communication), replay must agree with the
//! in-process recording, and the summary diff must catch real drift.
//! The SLO watchdog over the seeded chaos matrix (stragglers / link
//! faults × seeds) must raise recovery alerts whose flight-recorder
//! context holds the triggering fault, while straggler-only cells and a
//! fault-free run stay alert-free.

use diagnostics::watchdog::{AlertKind, SloRules, WatchdogBank};
use diagnostics::{analyze, diff, AnalysisConfig, DiffConfig};
use faults::ChaosConfig;
use mlcc::experiments::chaos::{self, ChaosSweepConfig};
use mlcc::experiments::fig1::{self, Fig1Config};
use mlcc_repro::*;
use simtime::Dur;
use telemetry::BufferRecorder;

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

#[test]
fn seeded_chaos_matrix_raises_recovery_alerts_with_fault_context() {
    let mut rec = BufferRecorder::new();
    chaos::run_traced(&sweep_cfg(), &mut rec);

    let mut bank = WatchdogBank::new(recovery_rules());
    bank.observe_stream(rec.events());
    let alerts = bank.into_alerts();
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

    // Same stream, same rules → identical alert list (determinism is
    // what makes a golden alert-count gate possible).
    let mut bank2 = WatchdogBank::new(recovery_rules());
    bank2.observe_stream(rec.events());
    let again = bank2.into_alerts();
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
    // monitor (which anchors on LinkCapacity) must not fire on them.
    let cfg = ChaosSweepConfig {
        profiles: vec!["stragglers".to_string()],
        ..sweep_cfg()
    };
    let mut rec = BufferRecorder::new();
    chaos::run_traced(&cfg, &mut rec);
    let mut bank = WatchdogBank::new(recovery_rules());
    bank.observe_stream(rec.events());
    let alerts = bank.into_alerts();
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
    let mut bank = WatchdogBank::new(recovery_rules());
    bank.observe_stream(rec.events());
    let alerts = bank.into_alerts();
    assert!(alerts.is_empty(), "chaos-none run fired: {alerts:?}");
}
