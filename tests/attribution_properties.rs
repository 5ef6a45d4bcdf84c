//! Causal-attribution acceptance and property tests.
//!
//! Property side: every engine's span stream is well-formed (strictly
//! nested per job, no orphan ends, round-trips through JSONL), and the
//! contention ledger conserves time — compute + solo + inflation + wait
//! equals the measured iteration wall time within 1% — on randomized job
//! mixes for both the rate and fluid engines. Mangled span streams must
//! be rejected by the replayer.
//!
//! Acceptance side (ISSUE 7): `explain`-style attribution of the Fig. 1
//! unfair scenario pins the inflation on the shared bottleneck link and
//! names the competing job, and the fair scenario inflates more than the
//! unfair one — the paper's headline, recovered from blame accounting
//! alone.

use dcqcn::CcVariant;
use diagnostics::{attribution, events};
use mlcc::experiments::fig1::{self, Fig1Config};
use mlcc_repro::*;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use proptest::prelude::*;
use simtime::{Bandwidth, Dur};
use telemetry::{export, parse_jsonl, BufferRecorder, Event, SpanKind, TimedEvent};
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);
const RESIDUAL_TOL: f64 = 0.01;

fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (0usize..6, 1u32..4).prop_map(|(m, scale)| {
        let model = Model::ALL[m];
        let base = match model {
            Model::BertLarge => 8,
            Model::Dlrm => 600,
            _ => 500,
        };
        JobSpec::reference(model, base * scale)
    })
}

/// Checks strict per-job span nesting: begins push, ends match the
/// innermost open span of the same job, and phase spans sit inside an
/// iteration span. Dangling opens at stream end are fine.
fn assert_well_formed(events: &[TimedEvent]) {
    let mut stacks: std::collections::BTreeMap<u32, Vec<SpanKind>> = Default::default();
    let mut saw_span = false;
    for te in events {
        match &te.event {
            Event::SpanBegin { job, kind, .. } => {
                saw_span = true;
                let stack = stacks.entry(*job).or_default();
                match kind {
                    SpanKind::Iteration => {
                        assert!(stack.is_empty(), "job {job}: nested iteration span")
                    }
                    _ => assert_eq!(
                        stack.first(),
                        Some(&SpanKind::Iteration),
                        "job {job}: phase span outside an iteration"
                    ),
                }
                stack.push(*kind);
            }
            Event::SpanEnd { job, kind, .. } => {
                let stack = stacks.entry(*job).or_default();
                assert_eq!(stack.pop().as_ref(), Some(kind), "job {job}: orphan end");
            }
            _ => {}
        }
    }
    assert!(saw_span, "engine emitted no span events");
}

/// Conservation: the ledger's components sum to the measured iteration
/// time within `RESIDUAL_TOL`, and every link's inflation equals the
/// blame assigned to pairs on it.
fn assert_conserved(ledger: &attribution::ContentionLedger) {
    assert!(!ledger.jobs.is_empty(), "no iterations attributed");
    let worst = ledger.worst_relative_residual();
    assert!(
        worst <= RESIDUAL_TOL,
        "conservation violated: worst relative residual {worst:.4}"
    );
    for lb in ledger.links.values() {
        let paired: f64 = lb.pairs.values().sum();
        assert!(
            (paired - lb.inflation).abs() <= 1e-9 + lb.inflation * 1e-9,
            "link {}: pair blame {paired} != inflation {}",
            lb.link,
            lb.inflation
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Rate engine: spans well-formed, JSONL round-trip exact, ledger
    /// conserves time on arbitrary two-job mixes.
    #[test]
    fn rate_engine_spans_and_ledger_conserve(
        a in spec_strategy(),
        b in spec_strategy(),
        aggressive in proptest::bool::ANY,
    ) {
        let variant = if aggressive {
            CcVariant::StaticUnfair { timer: Dur::from_micros(100) }
        } else {
            CcVariant::Fair
        };
        let jobs = [RateJob::new(a, variant), RateJob::new(b, CcVariant::Fair)];
        let mut rec = BufferRecorder::new();
        {
            let mut sim =
                RateSimulator::with_recorder(RateSimConfig::default(), &jobs, &mut rec);
            let per = a.iteration_time_at(LINE).max(b.iteration_time_at(LINE));
            prop_assert!(sim.run_until_iterations(4, per * 40));
        }

        assert_well_formed(rec.events());
        let round = parse_jsonl(&export::jsonl(rec.events())).expect("round-trip parses");
        prop_assert_eq!(round.as_slice(), rec.events());

        let tracks = events::extract_tracks(rec.events());
        assert_conserved(&attribution::ledger(&tracks, None));
    }

    /// Fluid engine: same invariants, on an explicit topology where the
    /// two jobs share the dumbbell spine.
    #[test]
    fn fluid_engine_spans_and_ledger_conserve(
        a in spec_strategy(),
        b in spec_strategy(),
        policy_pick in 0u8..3,
    ) {
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = d.topology.clone();
        let path = |i: usize| d.pair_links(i);
        let policy = match policy_pick {
            0 => SharingPolicy::MaxMin,
            1 => SharingPolicy::Weighted(vec![2.0, 1.0]),
            _ => SharingPolicy::Priority(vec![1, 0]),
        };
        let jobs = [
            FluidJob::single_path(a, path(0)),
            FluidJob::single_path(b, path(1)),
        ];
        let cfg = FluidConfig { policy, ..FluidConfig::fair() };
        let mut rec = BufferRecorder::new();
        {
            let mut sim = FluidSimulator::with_recorder(&t, cfg, &jobs, &mut rec);
            let per = a.iteration_time_at(LINE).max(b.iteration_time_at(LINE));
            prop_assert!(sim.run_until_iterations(4, per * 40));
        }

        assert_well_formed(rec.events());
        let round = parse_jsonl(&export::jsonl(rec.events())).expect("round-trip parses");
        prop_assert_eq!(round.as_slice(), rec.events());

        let tracks = events::extract_tracks(rec.events());
        assert_conserved(&attribution::ledger(&tracks, None));
    }
}

/// A span stream with an orphan end (its begin deleted) must be rejected
/// by the replayer, not silently folded into the ledger.
#[test]
fn mangled_span_streams_are_rejected() {
    let mut rec = BufferRecorder::new();
    fig1::run_traced(
        &Fig1Config {
            iterations: 4,
            warmup: 1,
            ..Fig1Config::default()
        },
        &mut rec,
    );
    let jsonl = export::jsonl(rec.events());
    assert!(parse_jsonl(&jsonl).is_ok(), "clean stream must parse");

    // Delete the first span_begin: its end becomes an orphan.
    let dropped: Vec<&str> = {
        let mut skipped = false;
        jsonl
            .lines()
            .filter(|l| {
                if !skipped && l.contains("\"span_begin\"") {
                    skipped = true;
                    return false;
                }
                true
            })
            .collect()
    };
    let err = parse_jsonl(&dropped.join("\n")).expect_err("orphan end must be rejected");
    assert!(err.to_string().contains("bad_span"), "got: {err}");
}

/// ISSUE 7 acceptance: attribution of the Fig. 1 run names names. The
/// unfair scenario's residual contention sits on the shared bottleneck
/// (link 0) and each job's blame table names the other job; the fair
/// scenario inflates more — unfairness *reduces* contention inflation,
/// which is the paper's point.
#[test]
fn fig1_attribution_blames_shared_link_and_competitor() {
    let mut rec = BufferRecorder::new();
    fig1::run_traced(
        &Fig1Config {
            iterations: 12,
            warmup: 3,
            ..Fig1Config::default()
        },
        &mut rec,
    );

    let mut ledgers = std::collections::BTreeMap::new();
    for slice in events::split_scenarios(rec.events()) {
        let tracks = events::extract_tracks(slice.events);
        let ledger = attribution::ledger(&tracks, None);
        assert_conserved(&ledger);
        ledgers.insert(slice.name.clone(), ledger);
    }
    let fair = &ledgers["fig1/fair"];
    let unfair = &ledgers["fig1/unfair"];

    for (name, ledger) in [("fair", fair), ("unfair", unfair)] {
        assert!(
            ledger.total_inflation() > 0.0,
            "{name}: two jobs on one link must show some inflation"
        );
        // All inflation lands on the shared bottleneck, link 0.
        let links: Vec<u32> = ledger.top_links().iter().map(|l| l.link).collect();
        assert_eq!(links, vec![0], "{name}: blame must pin link 0");
        // Each job's ledger names the competitor on that link.
        for (&job, jl) in &ledger.jobs {
            let other = 1 - job;
            assert!(
                jl.blame.get(&(0, other)).copied().unwrap_or(0.0) > 0.0,
                "{name}: job {job} must blame job {other} on link 0"
            );
        }
    }
    // The paper's headline, recovered from the blame ledger alone.
    assert!(
        fair.total_inflation() > unfair.total_inflation() * 2.0,
        "fair inflation {:.3}s should dwarf unfair {:.3}s",
        fair.total_inflation(),
        unfair.total_inflation()
    );
    assert!(fair.measured_overlap() > unfair.measured_overlap());
}
