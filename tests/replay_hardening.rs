//! Property tests hardening `telemetry::parse_jsonl` (satellite of the
//! observability PR): arbitrary event streams round-trip exactly, and
//! arbitrarily mangled exports — truncated mid-line, flipped characters,
//! injected junk, duplicated lines — always produce a typed
//! `ReplayError`, never a panic. The flight-recorder dump and `--alerts`
//! context share this exporter/parser pair, so its totality is what lets
//! `mlcc-repro report` ingest any file a crashed run left behind. The
//! other readers of the same flat-object parser, `RunSummary::from_json`
//! and `diagnostics::parse_history`, get the same mangling and must
//! return `Err`, never panic. So do the two TOML loaders behind
//! `--chaos` and `--slo`: a mangled file either loads, and then compiles
//! (chaos) or judges a stream's analysis (SLO) without a panic, or is an
//! `Err`.

use diagnostics::{
    analyze, judge, parse_history, slo_from_toml_str, AnalysisConfig, HistoryRecord, RunSummary,
};
use proptest::prelude::*;
use telemetry::export::jsonl;
use telemetry::replay::ReplayErrorKind;
use telemetry::{parse_jsonl, CcState, Event, Phase, TimedEvent};

/// Deterministically decodes three random words into one event, covering
/// every `Event` variant including string-carrying and array-carrying
/// ones (scenario names get quotes/backslashes to exercise escaping).
fn event_from(tag: u64, a: u64, b: u64) -> Event {
    let flow = (a % 17) as u32;
    let job = (a % 5) as u32;
    match tag % 13 {
        0 => Event::QueueDepth {
            link: flow,
            bytes: (b % 1_000_000) as f64 + 0.5,
        },
        1 => Event::EcnMark { flow },
        2 => Event::CnpSent { flow },
        3 => Event::CnpReceived { flow },
        4 => Event::RateChange {
            flow,
            bps: (b % 100) as f64 * 1e9 + 1.0,
            state: match b % 7 {
                0 => CcState::Restart,
                1 => CcState::Cut,
                2 => CcState::FastRecovery,
                3 => CcState::AdditiveIncrease,
                4 => CcState::HyperIncrease,
                5 => CcState::Alloc,
                _ => CcState::Delay,
            },
        },
        5 => Event::PhaseEnter {
            job,
            phase: if b.is_multiple_of(2) {
                Phase::Compute
            } else {
                Phase::Communicate
            },
            iteration: b % 1000,
        },
        6 => Event::PhaseExit {
            job,
            phase: if b.is_multiple_of(2) {
                Phase::Compute
            } else {
                Phase::Communicate
            },
            iteration: b % 1000,
        },
        7 => Event::SolverIteration {
            component: "fluid",
            index: b,
        },
        8 => Event::GateRelease { job },
        9 => Event::Scenario {
            name: format!("sc\\en\"ario-{}", b % 4),
        },
        10 => Event::JobPath {
            job,
            links: (0..(b % 4)).map(|l| l as u32).collect(),
        },
        11 => Event::LinkCapacity {
            link: flow,
            fraction: (b % 100) as f64 / 100.0,
        },
        _ => Event::JobDepart { job },
    }
}

fn stream_from(words: &[u64]) -> Vec<TimedEvent> {
    words
        .chunks_exact(3)
        .enumerate()
        .map(|(i, w)| TimedEvent {
            at: simtime::Time::from_nanos(i as u64 * 1000 + w[0] % 1000),
            event: event_from(w[0], w[1], w[2]),
        })
        .collect()
}

fn words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000_000, 0..120)
}

/// A finite f64 from any bit pattern. One pattern in eight gets a zero
/// exponent (a subnormal), and a NaN or infinity pattern loses the top
/// exponent bit, so tiny, subnormal and huge values all stay in play.
fn finite(bits: u64) -> f64 {
    const EXPONENT: u64 = 0x7ff << 52;
    let bits = if bits.is_multiple_of(8) {
        bits & !EXPONENT
    } else {
        bits
    };
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & !(1 << 62))
    }
}

/// `event_from` with each u64 field (iteration, index) and f64 field
/// (bytes, bps, fraction) taken from the full range of `b`.
fn full_range_event(tag: u64, a: u64, b: u64) -> Event {
    match event_from(tag, a, b) {
        Event::QueueDepth { link, .. } => Event::QueueDepth {
            link,
            bytes: finite(b),
        },
        Event::RateChange { flow, state, .. } => Event::RateChange {
            flow,
            bps: finite(b),
            state,
        },
        Event::PhaseEnter { job, phase, .. } => Event::PhaseEnter {
            job,
            phase,
            iteration: b,
        },
        Event::PhaseExit { job, phase, .. } => Event::PhaseExit {
            job,
            phase,
            iteration: b,
        },
        Event::LinkCapacity { link, .. } => Event::LinkCapacity {
            link,
            fraction: finite(b),
        },
        // SolverIteration's index is already the whole of `b`.
        other => other,
    }
}

/// Four words per event, each field from its full range.
fn full_range_stream(words: &[u64]) -> Vec<TimedEvent> {
    words
        .chunks_exact(4)
        .map(|w| TimedEvent {
            at: simtime::Time::from_nanos(w[0]),
            event: full_range_event(w[1], w[2], w[3]),
        })
        .collect()
}

/// Cuts `text` after `cut` characters (clamped), on a char boundary.
fn truncate(text: &str, cut: usize) -> &str {
    let end = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .nth(cut.min(text.chars().count()))
        .unwrap_or(text.len());
    &text[..end]
}

/// `text` with the character at `pos` (mod its length) replaced.
fn flip(text: &str, pos: usize, replacement: u64) -> String {
    let chars: Vec<char> = text.chars().collect();
    let pos = pos % chars.len();
    let mut mangled: String = chars[..pos].iter().collect();
    mangled.push(['X', '{', '"', '9', '\\'][replacement as usize]);
    mangled.extend(&chars[pos + 1..]);
    mangled
}

fn summary_from(words: &[u64]) -> RunSummary {
    let mut s = RunSummary::new("fig1/\"unfair\"");
    for (i, w) in words.iter().enumerate() {
        s.put(&format!("m{i}.value"), finite(*w));
    }
    s
}

fn history_from(words: &[u64]) -> String {
    words
        .chunks(3)
        .map(|w| {
            let mut rec = HistoryRecord {
                experiment: format!("exp{}", w[0] % 3),
                kind: "bench".to_string(),
                ..HistoryRecord::default()
            };
            for (i, v) in w.iter().enumerate() {
                rec.metrics.insert(format!("k{i}"), finite(*v));
            }
            rec.to_line()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any exported stream parses back to exactly the same events and
    /// bytes: both small realistic values and full-range times,
    /// iterations and indices (past 2^53, where f64 rounds) with any
    /// finite f64 bit pattern.
    #[test]
    fn export_round_trips_exactly(words in proptest::collection::vec(0..u64::MAX, 0..160)) {
        for events in [stream_from(&words), full_range_stream(&words)] {
            let text = jsonl(&events);
            let back = parse_jsonl(&text).expect("well-formed export must parse");
            prop_assert_eq!(jsonl(&back), text);
            prop_assert_eq!(back, events);
        }
    }

    /// Truncating an export anywhere — even mid-line, mid-string — never
    /// panics: it either still parses (cut on a line boundary) or yields
    /// a typed error.
    #[test]
    fn truncated_exports_never_panic(words in words(), cut in 0usize..4000) {
        let events = stream_from(&words);
        let text = jsonl(&events);
        let _ = parse_jsonl(truncate(&text, cut));
    }

    /// Flipping one character never panics, and when it breaks the
    /// stream the error names the mangled line.
    #[test]
    fn flipped_characters_never_panic(
        words in words(),
        pos in 0usize..4000,
        replacement in 0u64..5,
    ) {
        let events = stream_from(&words);
        let text = jsonl(&events);
        prop_assume!(!text.is_empty());
        let pos = pos % text.chars().count();
        if let Err(e) = parse_jsonl(&flip(&text, pos, replacement)) {
            let line_of_pos = text[..pos].matches('\n').count() + 1;
            prop_assert!(
                e.line >= 1 && e.line <= line_of_pos.max(1),
                "error line {} past mangled line {line_of_pos}",
                e.line
            );
        }
    }

    /// Injecting a junk line always yields an error (junk is never a
    /// valid event object), with the error pointing at or before it.
    #[test]
    fn injected_junk_lines_are_rejected(words in words(), junk_at in 0usize..130) {
        let events = stream_from(&words);
        let text = jsonl(&events);
        let mut lines: Vec<&str> = text.lines().collect();
        let junk_at = junk_at.min(lines.len());
        lines.insert(junk_at, "{\"seq\":0,\"garbage\":true}");
        let err = parse_jsonl(&lines.join("\n")).expect_err("junk must not parse");
        prop_assert!(err.line <= junk_at + 1, "line {} after junk at {}", err.line, junk_at + 1);
    }

    /// Duplicating any line breaks strict seq monotonicity and is
    /// reported as `BadSeq` at the duplicate.
    #[test]
    fn duplicated_lines_break_seq_monotonicity(words in words(), dup in 0usize..120) {
        let events = stream_from(&words);
        prop_assume!(!events.is_empty());
        let text = jsonl(&events);
        let mut lines: Vec<&str> = text.lines().collect();
        let dup = dup % lines.len();
        lines.insert(dup + 1, lines[dup]);
        let err = parse_jsonl(&lines.join("\n")).expect_err("duplicate seq must not parse");
        prop_assert_eq!(err.kind, ReplayErrorKind::BadSeq);
        prop_assert_eq!(err.line, dup + 2);
    }

    /// A run summary cut anywhere before its closing brace is an `Err`.
    #[test]
    fn truncated_summaries_are_rejected(words in words(), cut in 0usize..4000) {
        let text = summary_from(&words).to_json();
        let cut = truncate(&text, cut);
        let parsed = RunSummary::from_json(cut);
        if cut.trim_end().ends_with('}') {
            prop_assert_eq!(parsed, Ok(summary_from(&words)));
        } else {
            prop_assert!(parsed.is_err(), "{cut:?} parsed");
        }
    }

    /// Flipping one character of a run summary never panics.
    #[test]
    fn flipped_summaries_never_panic(words in words(), pos in 0usize..4000, replacement in 0u64..5) {
        let _ = RunSummary::from_json(&flip(&summary_from(&words).to_json(), pos, replacement));
    }

    /// Junk before or after a run summary's object is an `Err`.
    #[test]
    fn junk_around_summaries_is_rejected(words in words(), before in proptest::bool::ANY) {
        let text = summary_from(&words).to_json();
        let junk = "{\"seq\":0,\"garbage\":true}\n";
        let mangled = if before { format!("{junk}{text}") } else { format!("{text}{junk}") };
        prop_assert!(RunSummary::from_json(&mangled).is_err());
    }

    /// A history cut mid-record is an `Err`; a cut between records drops
    /// only the records after it.
    #[test]
    fn truncated_histories_are_rejected(words in words(), cut in 0usize..8000) {
        let text = history_from(&words);
        let cut = truncate(&text, cut);
        let parsed = parse_history(cut);
        let whole = cut.lines().all(|l| l.ends_with('}'));
        prop_assert_eq!(parsed.is_ok(), whole, "{:?}", cut);
    }

    /// Flipping one character of a history never panics.
    #[test]
    fn flipped_histories_never_panic(words in words(), pos in 0usize..8000, replacement in 0u64..5) {
        let text = history_from(&words);
        prop_assume!(!text.is_empty());
        let _ = parse_history(&flip(&text, pos, replacement));
    }

    /// A junk line anywhere in a history is an `Err` naming that line.
    #[test]
    fn injected_junk_history_lines_are_rejected(words in words(), junk_at in 0usize..50) {
        let text = history_from(&words);
        let mut lines: Vec<&str> = text.lines().collect();
        let junk_at = junk_at.min(lines.len());
        lines.insert(junk_at, "{\"seq\":0,\"garbage\":true}");
        let err = parse_history(&lines.join("\n")).expect_err("junk must not parse");
        prop_assert!(err.starts_with(&format!("history line {}:", junk_at + 1)), "{}", err);
    }
}

#[test]
fn extreme_values_round_trip_exactly() {
    let ints = [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
    let floats = [
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e300,
        9_007_199_254_740_993.0,
    ];
    let mut events = Vec::new();
    for (i, &n) in ints.iter().enumerate() {
        let at = simtime::Time::from_nanos(n);
        events.push(TimedEvent {
            at,
            event: Event::SolverIteration {
                component: "netsim.rate",
                index: n,
            },
        });
        events.push(TimedEvent {
            at,
            event: Event::PhaseEnter {
                job: i as u32,
                phase: Phase::Compute,
                iteration: n,
            },
        });
    }
    for &x in &floats {
        events.push(TimedEvent {
            at: simtime::Time::from_nanos(u64::MAX),
            event: Event::QueueDepth { link: 0, bytes: x },
        });
        events.push(TimedEvent {
            at: simtime::Time::ZERO,
            event: Event::LinkCapacity {
                link: u32::MAX,
                fraction: x,
            },
        });
    }
    let text = jsonl(&events);
    let back = parse_jsonl(&text).expect("well-formed export must parse");
    assert_eq!(jsonl(&back), text);
    assert_eq!(back, events);
}

#[test]
fn empty_and_whitespace_inputs_parse_to_nothing() {
    assert_eq!(parse_jsonl("").unwrap(), vec![]);
    assert_eq!(parse_jsonl("\n\n  \n").unwrap(), vec![]);
}

/// A chaos file that sets every key, and an SLO file that sets every rule.
const CHAOS_TOML: &str = "seed = 42\n\n[phase]\ncompute_jitter = 0.1\ncomm_jitter = 0.1\n\
    straggler_prob = 0.03\nstraggler_factor = 4.0\n\n[links]\ndegrade_prob = 0.35\n\
    degrade_factor = 0.25\nflap_prob = 0.15\nflap_count = 2\n\n[churn]\narrival_prob = 0.15\n\
    max_arrival_frac = 0.2\ndeparture_prob = 0.1\n\n[signal]\nmark_loss = 0.02\ncnp_loss = 0.02\n";
const SLO_TOML: &str = "rate_cv_max = 0.8\nmin_jain = 0.3\nmax_queue_bytes = 2000000\n\
    max_time_to_reinterleave_s = 0.2\nslow_factor = 1.4\ncontext_events = 32\n";

/// What a mangled TOML number can gain: non-finite spellings, signs,
/// exponents that overflow a duration or underflow it to zero, and
/// structure.
const TOML_JUNK: [&str; 14] = [
    "nan", "inf", "-inf", "-", "e300", "e-12", "1e25", ".", "9", "=", "[", "#", " ", "\n",
];

/// `text` with `piece` inserted before the char at `pos` (mod its length).
fn splice(text: &str, pos: usize, piece: &str) -> String {
    let at = text
        .char_indices()
        .nth(pos % text.chars().count())
        .map_or(text.len(), |(i, _)| i);
    format!("{}{piece}{}", &text[..at], &text[at..])
}

/// Finite values at and past the edges of what a loader may accept.
const TOML_EXTREMES: [&str; 14] = [
    "1e300",
    "-1e300",
    "1e25",
    "1.8446744073709552e13",
    "-1",
    "-0.0",
    "5e-324",
    "1.5",
    "100.5",
    "1e9",
    "0",
    "1",
    "4294967296",
    "0.5",
];

/// `text` with the value of its `pos`-th (mod their count) `key = value`
/// line replaced by `value`.
fn revalue(text: &str, pos: usize, value: &str) -> String {
    let pairs = text.lines().filter(|l| l.contains('=')).count();
    let mut nth = pos % pairs;
    let mut out = String::new();
    for line in text.lines() {
        match line.split_once('=') {
            Some((key, _)) if nth == 0 => out.push_str(&format!("{key}= {value}")),
            _ => out.push_str(line),
        }
        if line.contains('=') {
            nth = nth.wrapping_sub(1);
        }
        out.push('\n');
    }
    out
}

/// The four manglings of a TOML file: a piece spliced in, a flipped
/// character, a cut, and one value set to an extreme.
fn mangled_tomls(text: &str, pos: usize, piece: usize, replacement: u64) -> [String; 4] {
    [
        splice(text, pos, TOML_JUNK[piece]),
        flip(text, pos, replacement),
        truncate(text, pos).to_string(),
        revalue(text, pos, TOML_EXTREMES[piece]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mangled chaos file either loads and compiles for a real cluster
    /// shape, with every phase scale usable on a phase that ends after a
    /// nonzero start, or is an `Err`.
    #[test]
    fn mangled_chaos_files_compile_or_are_rejected(
        pos in 0usize..400,
        piece in 0usize..14,
        replacement in 0u64..5,
    ) {
        for text in mangled_tomls(CHAOS_TOML, pos, piece, replacement) {
            if let Ok(cfg) = faults::from_toml_str(&text) {
                let plan = cfg.compile(4, 6, simtime::Dur::from_secs(2));
                let phase = simtime::Dur::from_millis(100);
                let now = simtime::Time::ZERO + simtime::Dur::from_secs(2);
                for noise in plan.noise.iter().flatten() {
                    for iteration in 0..16 {
                        let (compute, comm) = noise.scales(iteration);
                        let _ = now + phase.mul_f64(compute) + phase.mul_f64(comm);
                    }
                }
            }
        }
    }

    /// A mangled SLO file either loads and judges the analysis of a
    /// stream with every event kind, or is an `Err`.
    #[test]
    fn mangled_slo_files_run_or_are_rejected(
        words in words(),
        pos in 0usize..200,
        piece in 0usize..14,
        replacement in 0u64..5,
    ) {
        let events = stream_from(&words);
        let analysis = analyze("mangled", &events, &AnalysisConfig::default());
        for text in mangled_tomls(SLO_TOML, pos, piece, replacement) {
            if let Ok(rules) = slo_from_toml_str(&text) {
                for alert in judge(&events, &analysis, &rules) {
                    let _ = alert.to_jsonl();
                }
            }
        }
    }
}
