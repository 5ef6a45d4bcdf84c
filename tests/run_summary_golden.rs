//! Golden-summary regression gate: the fig1 reproduction (fair + unfair,
//! pinned seed) must keep producing the metrics committed under
//! `tests/goldens/`, within the diff tolerance. Catches silent behavioural
//! drift in the simulators, the analyzers, and the summary serialization
//! in one shot. The ablation tables are pinned byte for byte.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! cargo run -- fig1 --iterations 20 --summary tests/goldens/fig1.json
//! cargo run -- ablations | grep -v '^== ' > tests/goldens/ablations.txt
//! ```

use diagnostics::{analyze, diff, AnalysisConfig, DiffConfig, RunSummary};
use faults::ChaosConfig;
use mlcc::experiments::fig1::{self, Fig1Config};
use mlcc_repro::*;
use telemetry::BufferRecorder;

#[test]
fn fig1_summary_matches_committed_golden() {
    let golden = RunSummary::from_json(include_str!("goldens/fig1.json")).expect("golden parses");
    // Exactly what `mlcc-repro fig1 --iterations 20 --summary …` runs.
    let cfg = Fig1Config {
        iterations: 20,
        ..Fig1Config::default()
    };
    let mut rec = BufferRecorder::new();
    fig1::run_traced(&cfg, &mut rec);
    let current = analyze("fig1", rec.events(), &AnalysisConfig::default()).summary();

    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "fig1 drifted from the golden summary ({} compared):\n{}\
         \nIf the change is intentional, regenerate with:\n  \
         cargo run -- fig1 --iterations 20 --summary tests/goldens/fig1.json",
        report.compared,
        report.render()
    );
    // The golden itself must keep exercising both scenarios.
    assert!(golden.metrics.keys().any(|k| k.starts_with("fig1_fair.")));
    assert!(golden.metrics.keys().any(|k| k.starts_with("fig1_unfair.")));
}

/// Same gate for a *perturbed* run: fig1 under the `stragglers` chaos
/// profile at a pinned seed must keep producing the committed summary.
/// Chaos is seeded and deterministic, so a perturbed run regresses just
/// like a quiet one — this pins the fault-injection plumbing itself
/// (keyed noise draws, schedule compilation, engine realization) in
/// addition to the simulators.
#[test]
fn fig1_chaos_summary_matches_committed_golden() {
    let golden =
        RunSummary::from_json(include_str!("goldens/fig1_chaos.json")).expect("golden parses");
    // Exactly what `mlcc-repro fig1 --iterations 20 --chaos stragglers
    // --chaos-seed 7 --summary …` runs.
    let cfg = Fig1Config {
        iterations: 20,
        chaos: ChaosConfig {
            seed: 7,
            ..ChaosConfig::profile("stragglers").expect("builtin profile")
        },
        ..Fig1Config::default()
    };
    let mut rec = BufferRecorder::new();
    fig1::run_traced(&cfg, &mut rec);
    let current = analyze("fig1", rec.events(), &AnalysisConfig::default()).summary();

    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "chaotic fig1 drifted from the golden summary ({} compared):\n{}\
         \nIf the change is intentional, regenerate with:\n  \
         cargo run -- fig1 --iterations 20 --chaos stragglers --chaos-seed 7 \
         --summary tests/goldens/fig1_chaos.json",
        report.compared,
        report.render()
    );
    // The perturbed golden must differ from the quiet one somewhere —
    // otherwise the chaos plumbing silently stopped perturbing.
    let quiet = RunSummary::from_json(include_str!("goldens/fig1.json")).expect("golden parses");
    let drift = diff(&quiet, &golden, &DiffConfig::default());
    assert!(
        !drift.is_clean(),
        "stragglers golden is identical to the quiet golden — chaos had no effect"
    );
}

/// Same gate for the congestion-control zoo: the seven-cell variant
/// matrix at a pinned iteration count must keep producing the committed
/// summary. This pins the `CcAlgorithm` dispatch path for every variant
/// family (wrapped MLTCP/policy controllers included) in one diff.
#[test]
fn variants_summary_matches_committed_golden() {
    let golden =
        RunSummary::from_json(include_str!("goldens/variants.json")).expect("golden parses");
    // Exactly what `mlcc-repro variants --iterations 12 --summary …` runs
    // (minus the CLI-only `config.hash` metric).
    let mut cfg = mlcc::experiments::variants::VariantsConfig::default();
    cfg.fig1.iterations = 12;
    let mut rec = BufferRecorder::new();
    mlcc::experiments::variants::run_traced(&cfg, &mut rec);
    let current = analyze("variants", rec.events(), &AnalysisConfig::default()).summary();

    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "variants drifted from the golden summary ({} compared):\n{}\
         \nIf the change is intentional, regenerate with:\n  \
         cargo run -- variants --iterations 12 --summary tests/goldens/variants.json\n  \
         (then delete the \"config.hash\" line)",
        report.compared,
        report.render()
    );
    // The golden must keep exercising every zoo cell.
    for cell in [
        "variants_fair.",
        "variants_static-unfair.",
        "variants_adaptive.",
        "variants_mltcp.",
        "variants_policy-prop.",
        "variants_policy-decay.",
        "variants_swift.",
    ] {
        assert!(
            golden.metrics.keys().any(|k| k.starts_with(cell)),
            "golden lost cell {cell}"
        );
    }
}

/// `mlcc-repro ablations` prints exactly the committed A1–A3 rows: every
/// line but the `== … ==` banners, byte for byte.
#[test]
fn ablation_rows_match_committed_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mlcc-repro"))
        .arg("ablations")
        .output()
        .expect("mlcc-repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let rows: String = stdout
        .lines()
        .filter(|l| !l.starts_with("== "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        rows,
        include_str!("goldens/ablations.txt"),
        "ablations drifted from the golden rows; if intentional:\n  \
         cargo run -- ablations | grep -v '^== ' > tests/goldens/ablations.txt"
    );
}
