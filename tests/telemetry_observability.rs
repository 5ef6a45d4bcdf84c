//! Telemetry acceptance tests: the instrumented experiments must emit
//! every congestion-control event kind, derive nonzero ECN/CNP counters,
//! and produce byte-identical event streams across reruns with the same
//! seed (determinism is what makes traces diffable across code changes).
//! The JSONL exporter's bytes are pinned by hash at the end of the file.

use mlcc::experiments::fig1::{self, Fig1Config};
use simtime::Dur;
use std::collections::BTreeSet;
use telemetry::{export, BufferRecorder};

fn quick_cfg() -> Fig1Config {
    let mut cfg = Fig1Config {
        iterations: 8,
        warmup: 3,
        ..Fig1Config::default()
    };
    // Marking jitter exercises the seeded RNG path, so determinism below
    // is a claim about the seed, not about the noise being off.
    cfg.sim.mark_noise = 0.2;
    cfg.sim.seed = 7;
    cfg.sim.trace_interval = Some(Dur::from_millis(1));
    cfg
}

/// Acceptance: a traced Fig. 1 run contains ECN-mark, CNP, rate-change and
/// phase enter/exit events, and the derived metrics report nonzero
/// `ecn_marks_total` / `cnp_total`.
#[test]
fn traced_fig1_captures_all_congestion_event_kinds() {
    let mut rec = BufferRecorder::new();
    let _ = fig1::run_traced(&quick_cfg(), &mut rec);

    let kinds: BTreeSet<&str> = rec.events().iter().map(|e| e.event.kind()).collect();
    for want in [
        "scenario",
        "ecn_mark",
        "cnp_received",
        "rate_change",
        "phase_enter",
        "phase_exit",
        "queue_depth",
    ] {
        assert!(kinds.contains(want), "missing {want:?} in {kinds:?}");
    }

    let metrics = rec.metrics();
    assert!(metrics.counter_total("ecn_marks_total") > 0);
    assert!(metrics.counter_total("cnp_total") > 0);
    assert_eq!(metrics.counter("scenarios_total", ""), 2);

    // Both exporters render the full stream and carry the scenario markers.
    let jsonl = export::jsonl(rec.events());
    assert_eq!(jsonl.lines().count(), rec.len());
    assert!(jsonl.contains("fig1/fair") && jsonl.contains("fig1/unfair"));
    let chrome = export::chrome_trace(rec.events());
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("fig1/unfair"));
}

/// Determinism regression: running the Fig. 1 scenario twice with the same
/// seed yields byte-identical telemetry event streams.
#[test]
fn telemetry_streams_are_deterministic_across_reruns() {
    let cfg = quick_cfg();
    let mut a = BufferRecorder::new();
    let _ = fig1::run_traced(&cfg, &mut a);
    let mut b = BufferRecorder::new();
    let _ = fig1::run_traced(&cfg, &mut b);

    assert_eq!(a.len(), b.len(), "event counts differ across reruns");
    assert_eq!(
        export::jsonl(a.events()),
        export::jsonl(b.events()),
        "JSONL streams not byte-identical"
    );
    assert_eq!(
        export::chrome_trace(a.events()),
        export::chrome_trace(b.events())
    );

    // A different seed genuinely changes the stream (the assertion above
    // is not vacuous).
    let mut cfg2 = cfg.clone();
    cfg2.sim.seed = 8;
    let mut c = BufferRecorder::new();
    let _ = fig1::run_traced(&cfg2, &mut c);
    assert_ne!(export::jsonl(a.events()), export::jsonl(c.events()));
}

// ---- The JSONL exporter's bytes, pinned ----
//
// A round trip alone would accept a changed spelling of a float or an
// escape, so these hashes fix `export::jsonl`'s exact output: one on a
// fixed stream with every `Event` variant and the awkward values (the
// smallest subnormal, `MIN_POSITIVE`, `MAX`, `0.1`, `1e21`, `-0.0`,
// `u64::MAX`, quotes, backslashes, control characters, non-ASCII text),
// one on a small forked chaos recording. An exporter rewrite must leave
// both unchanged.

use mlcc::experiments::chaos::{self, ChaosSweepConfig};
use simtime::Time;
use telemetry::{CcState, Event, Phase, SpanKind, TimedEvent};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every `Event` variant, with the extreme values each field can carry.
fn every_variant() -> Vec<TimedEvent> {
    let floats = [
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        0.1,
        1.0 / 3.0,
        1e21,
        1e15,
        1e16,
        -0.0,
        0.0,
        25e9,
        37_046_827_498.968_41,
        -1.5,
        1e-7,
    ];
    let states = [
        CcState::Restart,
        CcState::Cut,
        CcState::FastRecovery,
        CcState::AdditiveIncrease,
        CcState::HyperIncrease,
        CcState::Alloc,
        CcState::Delay,
    ];
    let names = [
        "fig1/fair",
        "quote \" and backslash \\ here",
        "line\nbreak\rreturn\ttab",
        "ctl \u{1} \u{1f} \u{7f}",
        "ünïcödé — 中文 ✓ 🚀",
        "",
    ];
    let ints = [
        0,
        1,
        9,
        10,
        99,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX - 1,
        u64::MAX,
    ];
    let mut ev = vec![
        Event::EcnMark { flow: 0 },
        Event::CnpSent { flow: u32::MAX },
        Event::CnpReceived { flow: 7 },
        Event::GateRelease { job: 3 },
        Event::JobDepart { job: u32::MAX },
        Event::JobPath {
            job: 0,
            links: vec![],
        },
        Event::JobPath {
            job: 12,
            links: vec![0, 9, 10, 4_000_000_000, u32::MAX],
        },
        Event::SolverIteration {
            component: "netsim.rate",
            index: 0,
        },
        Event::SolverIteration {
            component: "odd \"comp\" \\ \n \u{1} é",
            index: u64::MAX,
        },
    ];
    for (i, &x) in floats.iter().enumerate() {
        let i = i as u32;
        ev.push(Event::QueueDepth { link: i, bytes: x });
        ev.push(Event::RateChange {
            flow: i,
            bps: x,
            state: states[i as usize % states.len()],
        });
        ev.push(Event::LinkCapacity {
            link: u32::MAX - i,
            fraction: x,
        });
    }
    for name in names {
        ev.push(Event::Scenario { name: name.into() });
    }
    for (i, &n) in ints.iter().enumerate() {
        let job = [0, 1, u32::MAX][i % 3];
        for phase in [Phase::Compute, Phase::Communicate] {
            ev.push(Event::PhaseEnter {
                job,
                phase,
                iteration: n,
            });
            ev.push(Event::PhaseExit {
                job,
                phase,
                iteration: n,
            });
        }
        for kind in [
            SpanKind::Iteration,
            SpanKind::Compute,
            SpanKind::Communicate,
        ] {
            ev.push(Event::SpanBegin {
                job,
                kind,
                iteration: n,
            });
            ev.push(Event::SpanEnd {
                job,
                kind,
                iteration: n,
            });
        }
    }
    ev.into_iter()
        .enumerate()
        .map(|(i, event)| TimedEvent {
            at: Time::from_nanos(ints[i % ints.len()]),
            event,
        })
        .collect()
}

#[test]
fn jsonl_export_bytes_are_pinned_on_every_variant() {
    let text = export::jsonl(&every_variant());
    assert_eq!(text.lines().count(), every_variant().len());
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (19_582, 5_588_455_789_389_567_386)
    );
}

#[test]
fn jsonl_export_bytes_are_pinned_on_a_forked_chaos_recording() {
    let cfg = ChaosSweepConfig {
        iterations: 12,
        warmup: 3,
        seeds: vec![6],
        profiles: vec!["stragglers".to_string(), "links".to_string()],
        ..ChaosSweepConfig::default()
    };
    // The CLI's fork point: 90% of the nominal sweep length.
    let per_iter = cfg.jobs[0]
        .iteration_time_at(cfg.sim.capacity)
        .max(cfg.jobs[1].iteration_time_at(cfg.sim.capacity));
    let mut buf = BufferRecorder::new();
    chaos::run_forked(&cfg, &mut buf, per_iter * 12 * 9 / 10, false);
    let text = export::jsonl(buf.events());
    assert_eq!(
        (buf.len(), text.len(), fnv1a(text.as_bytes())),
        (35_643, 3_027_685, 11_677_100_007_499_561_483)
    );
}
