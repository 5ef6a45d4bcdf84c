//! Exporters: JSONL event logs and Chrome-trace JSON timelines.
//!
//! Both formats are hand-rolled (no serde in this workspace) and fully
//! deterministic: same event buffer in, byte-identical text out. The Chrome
//! trace loads in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! each `Scenario` marker starts a new "process" so multi-scenario runs (fair
//! vs. unfair, sweep points) appear side by side.
//!
//! [`jsonl`] writes its lines without `std::fmt` wherever it can: key
//! literals are pushed as they are, integers go through a small decimal
//! writer, and strings through the one JSON escaper (also behind
//! [`JsonEscaped`] for other writers of JSON). Floats keep
//! `f64`'s `Display` spelling, which an integral float below 2^53 shares
//! with its integer digits, so only other floats are formatted.

use crate::event::{span_id, span_parent, Event, TimedEvent};
use std::fmt::{self, Write as _};

/// Writes `s` escaped for the inside of a JSON string literal: `"`, `\`
/// and control characters are escaped, everything else is copied.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            out.write_str("\\u00")?;
            out.write_char(char::from(HEX[usize::from(b >> 4)]))?;
            out.write_char(char::from(HEX[usize::from(b & 0xf)]))?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// A string that displays escaped for the inside of a JSON string
/// literal, for `format!` and `write!` callers that build JSON text: the
/// same escaper [`jsonl`] writes its strings with.
pub struct JsonEscaped<'a>(pub &'a str);

impl fmt::Display for JsonEscaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_escaped(f, self.0)
    }
}

/// Pushes `prefix`, then `n` in decimal.
fn push_uint(out: &mut String, prefix: &str, n: impl Into<u64>) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    out.push_str(prefix);
    let mut n = n.into();
    let mut digits = [b'0'; 20];
    let mut i = digits.len();
    while n >= 100 {
        let pair = usize::from((n % 100) as u8) * 2;
        n /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = usize::from(n as u8) * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + n as u8;
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// Pushes `prefix`, then `x` spelled as `f64`'s `Display` spells it.
fn push_float(out: &mut String, prefix: &str, x: f64) {
    // Below 2^53 every integer is a float, so `Display`'s shortest
    // round-trip digits of an integral `x` are its integer digits. Most
    // trace floats are integral: whole queue bytes, whole bit rates and
    // full-capacity fractions.
    const EXACT: f64 = (1u64 << 53) as f64;
    if x.fract() == 0.0 && x.abs() < EXACT {
        if x.is_sign_negative() {
            out.push_str(prefix);
            push_uint(out, "-", x.abs() as u64);
        } else {
            push_uint(out, prefix, x as u64);
        }
    } else {
        out.push_str(prefix);
        let _ = write!(out, "{x}");
    }
}

/// Pushes `prefix`, then `s` quoted and escaped.
fn push_str(out: &mut String, prefix: &str, s: &str) {
    out.push_str(prefix);
    out.push('"');
    let _ = write_escaped(out, s);
    out.push('"');
}

/// Pushes `prefix`, then a fixed lowercase label quoted; labels hold no
/// character that needs escaping.
fn push_label(out: &mut String, prefix: &str, label: &str) {
    out.push_str(prefix);
    out.push('"');
    out.push_str(label);
    out.push('"');
}

/// One JSON object per line, one line per event. `t_ns` is simulation
/// time; `seq` is the event's position in the stream — monotonically
/// increasing, so determinism-gate diffs can name the first divergent
/// event instead of a byte offset.
pub fn jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 72);
    for (seq, te) in events.iter().enumerate() {
        push_uint(&mut out, "{\"seq\":", seq as u64);
        push_uint(&mut out, ",\"t_ns\":", te.at.as_nanos());
        push_label(&mut out, ",\"type\":", te.event.kind());
        match &te.event {
            Event::QueueDepth { link, bytes } => {
                push_uint(&mut out, ",\"link\":", *link);
                push_float(&mut out, ",\"bytes\":", *bytes);
            }
            Event::EcnMark { flow } | Event::CnpSent { flow } | Event::CnpReceived { flow } => {
                push_uint(&mut out, ",\"flow\":", *flow);
            }
            Event::RateChange { flow, bps, state } => {
                push_uint(&mut out, ",\"flow\":", *flow);
                push_float(&mut out, ",\"bps\":", *bps);
                push_label(&mut out, ",\"state\":", state.label());
            }
            Event::PhaseEnter {
                job,
                phase,
                iteration,
            }
            | Event::PhaseExit {
                job,
                phase,
                iteration,
            } => {
                push_uint(&mut out, ",\"job\":", *job);
                push_label(&mut out, ",\"phase\":", phase.label());
                push_uint(&mut out, ",\"iteration\":", *iteration);
            }
            Event::SolverIteration { component, index } => {
                push_str(&mut out, ",\"component\":", component);
                push_uint(&mut out, ",\"index\":", *index);
            }
            Event::GateRelease { job } | Event::JobDepart { job } => {
                push_uint(&mut out, ",\"job\":", *job);
            }
            Event::Scenario { name } => push_str(&mut out, ",\"name\":", name),
            Event::JobPath { job, links } => {
                push_uint(&mut out, ",\"job\":", *job);
                out.push_str(",\"links\":[");
                for (i, &link) in links.iter().enumerate() {
                    push_uint(&mut out, if i == 0 { "" } else { "," }, link);
                }
                out.push(']');
            }
            Event::LinkCapacity { link, fraction } => {
                push_uint(&mut out, ",\"link\":", *link);
                push_float(&mut out, ",\"fraction\":", *fraction);
            }
            Event::SpanBegin {
                job,
                kind,
                iteration,
            }
            | Event::SpanEnd {
                job,
                kind,
                iteration,
            } => {
                // `id`/`parent` are derived from (job, kind, iteration);
                // the parser ignores them, keeping round-trips exact.
                push_uint(&mut out, ",\"job\":", *job);
                push_label(&mut out, ",\"kind\":", kind.label());
                push_uint(&mut out, ",\"iteration\":", *iteration);
                push_uint(&mut out, ",\"id\":", span_id(*job, *kind, *iteration));
                push_uint(
                    &mut out,
                    ",\"parent\":",
                    span_parent(*job, *kind, *iteration),
                );
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Chrome-trace JSON (the `{"traceEvents": [...]}` envelope).
///
/// Mapping: phase enter/exit become `B`/`E` duration slices on a per-job
/// track; ECN/CNP/solver/gate events become instants (`i`); queue depth and
/// rates become counter tracks (`C`). Every `Scenario` marker opens a fresh
/// pid with a `process_name` metadata record so scenarios stack vertically
/// in the viewer. Timestamps are microseconds of simulation time.
pub fn chrome_trace(events: &[TimedEvent]) -> String {
    let mut records: Vec<String> = Vec::with_capacity(events.len() + 8);
    let mut pid: u32 = 1;
    let mut named_current_pid = false;
    let mut seen_tids: Vec<(u32, u32)> = Vec::new();

    let us = |te: &TimedEvent| format!("{:.3}", te.at.as_nanos() as f64 / 1_000.0);

    for te in events {
        let ts = us(te);
        if !named_current_pid && !matches!(te.event, Event::Scenario { .. }) {
            records.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"simulation\"}}}}"
            ));
            named_current_pid = true;
        }
        let mut thread = |records: &mut Vec<String>, pid: u32, tid: u32| {
            if !seen_tids.contains(&(pid, tid)) {
                seen_tids.push((pid, tid));
                records.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"job/flow {tid}\"}}}}"
                ));
            }
        };
        match &te.event {
            Event::Scenario { name } => {
                pid += 1;
                named_current_pid = true;
                records.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                    JsonEscaped(name)
                ));
            }
            Event::PhaseEnter {
                job,
                phase,
                iteration,
            } => {
                thread(&mut records, pid, *job);
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\"tid\":{job},\"args\":{{\"iteration\":{iteration}}}}}",
                    phase.label()
                ));
            }
            Event::PhaseExit { job, phase, .. } => {
                thread(&mut records, pid, *job);
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{job}}}",
                    phase.label()
                ));
            }
            Event::EcnMark { flow } | Event::CnpSent { flow } | Event::CnpReceived { flow } => {
                thread(&mut records, pid, *flow);
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"cc\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":{flow},\"s\":\"t\"}}",
                    te.event.kind()
                ));
            }
            Event::RateChange { flow, bps, state } => {
                // Counter tracks are keyed by (pid, name), so rates live on
                // tid 0 like the other counters; a per-flow tid here used
                // to materialize phantom unnamed thread lanes in viewers.
                records.push(format!(
                    "{{\"name\":\"rate_gbps flow{flow}\",\"cat\":\"cc\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{{\"{}\":{:.6}}}}}",
                    state.label(),
                    bps / 1e9
                ));
            }
            Event::QueueDepth { link, bytes } => {
                records.push(format!(
                    "{{\"name\":\"queue_depth_bytes link{link}\",\"cat\":\"queue\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{{\"bytes\":{bytes:.1}}}}}"
                ));
            }
            Event::SolverIteration { component, index } => {
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"solver\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\"s\":\"p\",\"args\":{{\"index\":{index}}}}}",
                    JsonEscaped(component)
                ));
            }
            Event::GateRelease { job } => {
                thread(&mut records, pid, *job);
                records.push(format!(
                    "{{\"name\":\"gate_release\",\"cat\":\"gate\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":{job},\"s\":\"t\"}}"
                ));
            }
            Event::JobPath { job, links } => {
                // Static attribution, not a timeline item: record it as an
                // instant carrying the link list in args.
                thread(&mut records, pid, *job);
                let ls: Vec<String> = links.iter().map(|l| l.to_string()).collect();
                records.push(format!(
                    "{{\"name\":\"job_path\",\"cat\":\"topology\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":{job},\"s\":\"t\",\"args\":{{\"links\":[{}]}}}}",
                    ls.join(",")
                ));
            }
            Event::LinkCapacity { link, fraction } => {
                records.push(format!(
                    "{{\"name\":\"link_capacity link{link}\",\"cat\":\"fault\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{{\"fraction\":{fraction:.4}}}}}"
                ));
            }
            Event::JobDepart { job } => {
                thread(&mut records, pid, *job);
                records.push(format!(
                    "{{\"name\":\"job_depart\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":{job},\"s\":\"t\"}}"
                ));
            }
            Event::SpanBegin {
                job,
                kind,
                iteration,
            } => {
                thread(&mut records, pid, *job);
                records.push(format!(
                    "{{\"name\":\"{} span\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\"tid\":{job},\"args\":{{\"iteration\":{iteration},\"id\":{},\"parent\":{}}}}}",
                    kind.label(),
                    span_id(*job, *kind, *iteration),
                    span_parent(*job, *kind, *iteration)
                ));
            }
            Event::SpanEnd { job, kind, .. } => {
                thread(&mut records, pid, *job);
                records.push(format!(
                    "{{\"name\":\"{} span\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{job}}}",
                    kind.label()
                ));
            }
        }
    }

    let mut out = String::with_capacity(records.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(r);
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CcState, Phase};
    use simtime::Time;

    fn sample_events() -> Vec<TimedEvent> {
        let t = Time::from_nanos;
        vec![
            TimedEvent {
                at: Time::ZERO,
                event: Event::Scenario {
                    name: "fig1/fair".into(),
                },
            },
            TimedEvent {
                at: t(0),
                event: Event::PhaseEnter {
                    job: 0,
                    phase: Phase::Compute,
                    iteration: 0,
                },
            },
            TimedEvent {
                at: t(1_500),
                event: Event::EcnMark { flow: 0 },
            },
            TimedEvent {
                at: t(2_000),
                event: Event::CnpReceived { flow: 0 },
            },
            TimedEvent {
                at: t(2_000),
                event: Event::RateChange {
                    flow: 0,
                    bps: 25e9,
                    state: CcState::Cut,
                },
            },
            TimedEvent {
                at: t(3_000),
                event: Event::PhaseExit {
                    job: 0,
                    phase: Phase::Compute,
                    iteration: 0,
                },
            },
        ]
    }

    #[test]
    fn jsonl_one_line_per_event_with_types() {
        let out = jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"type\":\"scenario\""));
        assert!(lines[2].contains("\"type\":\"ecn_mark\""));
        assert!(lines[4].contains("\"state\":\"cut\""));
        // Every line is a self-contained JSON object.
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn jsonl_sequence_numbers_are_dense_and_positional() {
        let out = jsonl(&sample_events());
        for (i, line) in out.lines().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"seq\":{i},")),
                "line {i} lacks its sequence number: {line}"
            );
        }
    }

    #[test]
    fn chrome_trace_has_slices_counters_and_process_names() {
        let out = chrome_trace(&sample_events());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"E\""));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("fig1/fair"));
        // ts is microseconds: the 1500 ns mark lands at 1.500.
        assert!(out.contains("\"ts\":1.500"));
    }

    fn span_events() -> Vec<TimedEvent> {
        use crate::event::SpanKind;
        let t = Time::from_nanos;
        let span = |at, job, kind, iteration, begin| TimedEvent {
            at: t(at),
            event: if begin {
                Event::SpanBegin {
                    job,
                    kind,
                    iteration,
                }
            } else {
                Event::SpanEnd {
                    job,
                    kind,
                    iteration,
                }
            },
        };
        vec![
            span(0, 0, SpanKind::Iteration, 0, true),
            span(0, 0, SpanKind::Compute, 0, true),
            span(100, 0, SpanKind::Compute, 0, false),
            span(100, 0, SpanKind::Communicate, 0, true),
            span(250, 0, SpanKind::Communicate, 0, false),
            span(250, 0, SpanKind::Iteration, 0, false),
        ]
    }

    #[test]
    fn jsonl_span_lines_carry_derived_ids_and_parents() {
        use crate::event::{span_id, SpanKind};
        let out = jsonl(&span_events());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"type\":\"span_begin\""));
        assert!(lines[0].contains("\"kind\":\"iteration\""));
        assert!(lines[0].contains("\"parent\":0"));
        let iter_id = span_id(0, SpanKind::Iteration, 0);
        assert!(lines[0].contains(&format!("\"id\":{iter_id}")));
        // Phase spans point at their iteration span.
        assert!(lines[1].contains(&format!("\"parent\":{iter_id}")));
        assert!(lines[5].contains("\"type\":\"span_end\""));
    }

    #[test]
    fn chrome_trace_span_lanes_pair_begin_end_per_tid() {
        let out = chrome_trace(&span_events());
        // B and E counts balance on the job lane, so the viewer's per-tid
        // stack pairing closes every slice.
        let b = out.matches("\"ph\":\"B\"").count();
        let e = out.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 3);
        assert_eq!(b, e);
        assert!(out.contains("\"cat\":\"span\""));
        assert!(out.contains("\"name\":\"iteration span\""));
        // The job lane is a named thread, not a phantom tid.
        assert!(out.contains("\"name\":\"thread_name\""));
    }

    #[test]
    fn chrome_trace_counters_stay_off_job_lanes() {
        let out = chrome_trace(&sample_events());
        // Counter records (rates, queues) all sit on tid 0; named job/flow
        // lanes carry only slices and instants.
        for line in out.lines().filter(|l| l.contains("\"ph\":\"C\"")) {
            assert!(line.contains("\"tid\":0"), "counter on a job lane: {line}");
        }
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        let esc = |s| JsonEscaped(s).to_string();
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(
            esc("\r\t\u{1}\u{1f}\u{7f} é"),
            "\\r\\t\\u0001\\u001f\u{7f} é"
        );
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut ns: Vec<u64> = (0..=1_000).collect();
        for k in 1..20 {
            let p = 10u64.pow(k);
            ns.extend([p - 1, p, p + 1]);
        }
        ns.extend([u64::MAX - 1, u64::MAX]);
        for n in ns {
            let mut out = String::new();
            push_uint(&mut out, "", n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn integral_floats_print_as_display_does() {
        let exact = (1u64 << 53) as f64;
        let mut xs = vec![0.0, -0.0, 1.0, -1.0, 9.0, 10.0, 1e15, 25e9, exact - 1.0];
        xs.extend((0..53).map(|k| (1u64 << k) as f64));
        xs.extend((0..16).map(|k| 10f64.powi(k)));
        xs.extend(xs.clone().iter().map(|x| -x));
        xs.extend([
            exact,
            1e16,
            1e21,
            0.5,
            5e-324,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ]);
        for x in xs {
            let mut out = String::new();
            push_float(&mut out, "", x);
            assert_eq!(out, x.to_string(), "{x:e}");
        }
    }

    #[test]
    fn exports_are_deterministic() {
        let ev = sample_events();
        assert_eq!(jsonl(&ev), jsonl(&ev));
        assert_eq!(chrome_trace(&ev), chrome_trace(&ev));
    }
}
