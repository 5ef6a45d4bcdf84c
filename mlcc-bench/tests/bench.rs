//! Checks of the benchmark itself, at the reduced test size.

use mlcc_bench::compare::{self, Verdict};
use mlcc_bench::json;
use mlcc_bench::reference::{Reference, FIDELITY_LIMIT};
use mlcc_bench::report::{self, PassRecord, Summary, WorkloadRun};
use mlcc_bench::spec::Spec;
use mlcc_bench::workloads::{run_pass, PassOutput, Size, Workload};
use std::time::{Duration, Instant};

fn pass(w: Workload, seed: u64, reference: Option<&Reference>, traced: bool) -> PassOutput {
    run_pass(w, seed, Size::Small, reference, traced, &mut || {})
}

fn record(out: &PassOutput) -> PassRecord {
    PassRecord {
        setup_s: 0.001,
        ..PassRecord::from_output(out, 10.0)
    }
}

/// The result line names exactly the metrics `BENCHMARK.json` declares:
/// the end-to-end set untraced, the per-layer set traced.
#[test]
fn emitted_metric_names_match_benchmark_json() {
    let spec = Spec::embedded();
    let on_disk =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(Spec::parse(&on_disk).unwrap(), spec);
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);

    let untraced = record(&pass(Workload::FluidCluster, 1, None, false));
    let traced = record(&pass(Workload::FluidCluster, 1, None, true));
    let emitted = |summaries: Vec<Summary>, declared: &[mlcc_bench::spec::Metric]| {
        let shown: Vec<(String, Summary)> = summaries
            .into_iter()
            .filter(|s| declared.iter().any(|m| m.name == s.name))
            .map(|s| (s.name.clone(), s))
            .collect();
        let line = json::parse(&report::result_line(1, 0, &shown)).unwrap();
        let metrics = line
            .get("metrics")
            .and_then(json::Value::as_object)
            .unwrap();
        for (name, m) in metrics {
            let declared = declared.iter().find(|d| &d.name == name).unwrap();
            assert_eq!(
                m.get("unit").and_then(json::Value::as_str),
                Some(declared.unit.as_str())
            );
            assert!(
                m.get("value").and_then(json::Value::as_f64).is_some(),
                "{name}"
            );
        }
        metrics.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    };
    let declared =
        |ms: &[mlcc_bench::spec::Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let e2e = report::end_to_end(&spec, std::slice::from_ref(&untraced));
    assert_eq!(emitted(e2e, &spec.end_to_end), declared(&spec.end_to_end));
    let layers = report::per_layer(&spec, &traced, std::slice::from_ref(&untraced));
    assert_eq!(emitted(layers, &spec.per_layer), declared(&spec.per_layer));
}

/// The seed alone decides the inputs: the same seed repeats every
/// simulated result exactly, and another seed changes them.
fn seeds_decide_simulated_outputs(w: Workload) {
    let a = pass(w, 3, None, false);
    let b = pass(w, 3, None, false);
    let c = pass(w, 4, None, false);
    assert!(a.failures.is_empty(), "{}: {:?}", w.name(), a.failures);
    assert!(!a.observed.is_empty(), "{}: no outputs", w.name());
    assert_eq!(
        a.observed,
        b.observed,
        "{}: seed 3 did not repeat",
        w.name()
    );
    assert_ne!(a.observed, c.observed, "{}: seeds 3 and 4 agree", w.name());
}

#[test]
fn seeds_decide_paper_rate() {
    seeds_decide_simulated_outputs(Workload::PaperRate);
}

#[test]
fn seeds_decide_fluid_cluster() {
    seeds_decide_simulated_outputs(Workload::FluidCluster);
}

#[test]
fn seeds_decide_packet_mix() {
    seeds_decide_simulated_outputs(Workload::PacketMix);
}

#[test]
fn seeds_decide_chaos_trace() {
    seeds_decide_simulated_outputs(Workload::ChaosTrace);
}

/// A reference value nudged by 1% fails exactly the operation that
/// produced it, so the fidelity check really runs.
#[test]
fn nudged_reference_fails_its_operation() {
    let w = Workload::ChaosTrace;
    let clean = pass(w, 1, None, false);
    let mut reference = Reference::from_observed(&clean.observed);
    let ok = pass(w, 1, Some(&reference), false);
    assert!(ok.failures.is_empty(), "{:?}", ok.failures);
    assert_eq!(ok.fidelity_err, Some(0.0));

    let (key, value) = clean
        .observed
        .iter()
        .rev()
        .find(|(k, _)| k.ends_with("_median_ms"))
        .cloned()
        .unwrap();
    reference.set(&key, value * 1.01);
    let nudged = pass(w, 1, Some(&reference), false);
    assert_eq!(nudged.attempted, ok.attempted);
    assert_eq!(nudged.failures.len(), 1, "{:?}", nudged.failures);
    // `<workload>/<operation>/<quantity>`
    let op = &key[key.find('/').unwrap() + 1..key.rfind('/').unwrap()];
    assert!(
        nudged.failures[0].starts_with(&format!("{op}: ")),
        "{:?} for {key}",
        nudged.failures
    );
    assert!(nudged.fidelity_err.unwrap() > FIDELITY_LIMIT);
    assert!(nudged.job_iters < ok.job_iters);
}

/// Untraced passes record no spans; a traced pass's self times partition
/// at most the pass's own wall time.
#[test]
fn spans_only_when_traced_and_self_times_fit_the_pass() {
    for w in [Workload::PaperRate, Workload::ChaosTrace] {
        let off = pass(w, 1, None, false);
        assert!(off.tracer.spans().is_empty());
        assert!(off.per_layer.is_empty());

        let t0 = Instant::now();
        let on = pass(w, 1, None, true);
        let wall = t0.elapsed();
        let spans = on.tracer.spans();
        let ops = spans.iter().filter(|s| s.op == Some(s.id)).count() as u64;
        assert_eq!(ops, on.attempted);
        let self_total: Duration = on.tracer.self_times().iter().sum();
        assert!(
            self_total <= spans[0].duration(),
            "{self_total:?} > {:?}",
            spans[0]
        );
        assert!(spans[0].duration() <= wall);
        assert!(on.tracer.to_jsonl().lines().count() == spans.len());
    }
}

/// An `--out` file reads back unchanged, and compared with itself every
/// row is unchanged.
#[test]
fn out_file_round_trips_and_self_compares_unchanged() {
    let spec = Spec::embedded();
    let one = record(&pass(Workload::FluidCluster, 1, None, false));
    let passes: Vec<PassRecord> = (0..3)
        .map(|i| PassRecord {
            op_s: one
                .op_s
                .iter()
                .map(|t| t * (1.0 + 0.01 * i as f64))
                .collect(),
            ..one.clone()
        })
        .collect();
    let runs = vec![WorkloadRun {
        name: "fluid_cluster".to_string(),
        passes,
        traced: None,
    }];
    let text = report::out_file(&spec, 1, &runs);
    let back = report::read_out_file(&text).unwrap();
    assert_eq!(back[0].passes, runs[0].passes);
    let rows = compare::compare(&spec, &runs, &back);
    assert_eq!(rows.len(), 5); // 4 end-to-end + fail_rate (no reference)
    assert!(
        rows.iter().all(|r| r.verdict == Verdict::Unchanged),
        "{rows:?}"
    );
}
