//! Exporters: JSONL event logs and Chrome-trace JSON timelines.
//!
//! Both formats are hand-rolled (no serde in this workspace) and fully
//! deterministic: same event buffer in, byte-identical text out. The Chrome
//! trace loads in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! each `Scenario` marker starts a new "process" so multi-scenario runs (fair
//! vs. unfair, sweep points) appear side by side.
//!
//! [`jsonl`] lays each line out once, in `line`, and runs it twice: a
//! first pass adds up the export's length, so the buffer is reserved
//! exactly, and a second writes the bytes. Key literals are copied as they
//! are, integers are written 8 digits at a time from a register, and
//! strings go through the one JSON escaper (also behind [`JsonEscaped`]
//! for other writers of JSON). Floats keep `f64`'s `Display` spelling,
//! which an integral float below 2^53 shares with its integer digits; any
//! other float is formatted once, in the first pass, and copied in the
//! second.

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

/// Where [`jsonl`]'s lines go: [`Size`] adds up their length, and
/// [`Bytes`] writes them. One function, [`line`], lays a line out for both.
trait Sink {
    /// Bytes copied as they are: key literals and fixed labels.
    fn raw(&mut self, bytes: &[u8]);
    fn uint(&mut self, n: u64);
    /// `x` spelled as `f64`'s `Display` spells it.
    fn float(&mut self, x: f64);
    /// `s` escaped for the inside of a string literal.
    fn escaped(&mut self, s: &str);
}

/// `x` as a sign and an integer, if it is integral and below 2^53. Below
/// 2^53 every integer is a float, so `Display`'s shortest round-trip
/// digits of such an `x` are its integer digits. Most trace floats are
/// integral: whole queue bytes, whole bit rates and full-capacity
/// fractions.
fn integral(x: f64) -> Option<(bool, u64)> {
    const EXACT: f64 = (1u64 << 53) as f64;
    // `as` truncates toward zero (NaN to 0), so only a whole `x` comes
    // back unchanged; `fract` would be a call into libm.
    (x.abs() < EXACT && (x as i64) as f64 == x).then(|| (x.is_sign_negative(), x.abs() as u64))
}

/// The digits of `n` in decimal.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The first pass: the export's length in bytes. Each float that is not
/// integral is formatted here, once, for the second pass to copy.
#[derive(Default)]
struct Size {
    len: usize,
    floats: String,
    /// Where each formatted float ends in `floats`.
    ends: Vec<usize>,
}

impl Sink for Size {
    fn raw(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
    }

    fn uint(&mut self, n: u64) {
        self.len += decimal_len(n);
    }

    fn float(&mut self, x: f64) {
        match integral(x) {
            Some((negative, n)) => self.len += usize::from(negative) + decimal_len(n),
            None => {
                let _ = write!(self.floats, "{x}");
                self.len += self.floats.len() - self.ends.last().copied().unwrap_or(0);
                self.ends.push(self.floats.len());
            }
        }
    }

    fn escaped(&mut self, s: &str) {
        let escape_len = |b: u8| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
            0..=0x1f => 6,
            _ => 1,
        };
        self.len += s.bytes().map(escape_len).sum::<usize>();
    }
}

/// The eight decimal digits of `n` (below 10^8) as ASCII, the first digit
/// in the low byte: halves, then pairs, then single digits, each split by
/// a multiply and a shift in every lane at once.
#[inline(always)]
fn eight_digits(n: u64) -> u64 {
    let x = (n / 10_000) | ((n % 10_000) << 32);
    let hundreds = ((x * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let x = hundreds | ((x - hundreds * 100) << 16);
    let tens = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    let x = tens | ((x - tens * 10) << 8);
    x | 0x3030_3030_3030_3030
}

/// The second pass: the export itself, into a buffer [`Size`] measured.
struct Bytes<'a> {
    out: Vec<u8>,
    /// The formatted floats that are not integral, in export order.
    floats: &'a str,
    ends: std::slice::Iter<'a, usize>,
    next_float: usize,
}

impl Bytes<'_> {
    /// The last `len` of the eight ASCII digits in `word`.
    #[inline(always)]
    fn digits(&mut self, word: u64, len: usize) {
        let end = self.out.len() + len;
        self.out
            .extend_from_slice(&(word >> (8 * (8 - len))).to_le_bytes());
        self.out.truncate(end);
    }
}

impl Sink for Bytes<'_> {
    #[inline(always)]
    fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Writes the digits 8 at a time from a register, each group as one
    /// 8-byte copy cut back to its length.
    #[inline(always)]
    fn uint(&mut self, n: u64) {
        const E8: u64 = 100_000_000;
        let len = decimal_len(n);
        if len <= 8 {
            self.digits(eight_digits(n), len);
        } else if len <= 16 {
            self.digits(eight_digits(n / E8), len - 8);
            self.digits(eight_digits(n % E8), 8);
        } else {
            self.digits(eight_digits(n / (E8 * E8)), len - 16);
            self.digits(eight_digits(n / E8 % E8), 8);
            self.digits(eight_digits(n % E8), 8);
        }
    }

    fn float(&mut self, x: f64) {
        match integral(x) {
            Some((negative, n)) => {
                if negative {
                    self.raw(b"-");
                }
                self.uint(n);
            }
            None => {
                let end = *self
                    .ends
                    .next()
                    .expect("the sizing pass formats every such float");
                self.out
                    .extend_from_slice(&self.floats.as_bytes()[self.next_float..end]);
                self.next_float = end;
            }
        }
    }

    fn escaped(&mut self, s: &str) {
        struct Utf8<'a>(&'a mut Vec<u8>);
        impl fmt::Write for Utf8<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.extend_from_slice(s.as_bytes());
                Ok(())
            }
        }
        let _ = write_escaped(&mut Utf8(&mut self.out), s);
    }
}

/// Lays out the line of event number `seq`, newline included.
#[inline(always)]
fn line(sink: &mut impl Sink, seq: usize, te: &TimedEvent) {
    sink.raw(b"{\"seq\":");
    sink.uint(seq as u64);
    sink.raw(b",\"t_ns\":");
    sink.uint(te.at.as_nanos());
    sink.raw(b",\"type\":\"");
    sink.raw(te.event.kind().as_bytes());
    sink.raw(b"\"");
    match &te.event {
        Event::QueueDepth { link, bytes } => {
            sink.raw(b",\"link\":");
            sink.uint(u64::from(*link));
            sink.raw(b",\"bytes\":");
            sink.float(*bytes);
        }
        Event::EcnMark { flow } | Event::CnpSent { flow } | Event::CnpReceived { flow } => {
            sink.raw(b",\"flow\":");
            sink.uint(u64::from(*flow));
        }
        Event::RateChange { flow, bps, state } => {
            sink.raw(b",\"flow\":");
            sink.uint(u64::from(*flow));
            sink.raw(b",\"bps\":");
            sink.float(*bps);
            sink.raw(b",\"state\":\"");
            sink.raw(state.label().as_bytes());
            sink.raw(b"\"");
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
            sink.raw(b",\"job\":");
            sink.uint(u64::from(*job));
            sink.raw(b",\"phase\":\"");
            sink.raw(phase.label().as_bytes());
            sink.raw(b"\",\"iteration\":");
            sink.uint(*iteration);
        }
        Event::SolverIteration { component, index } => {
            sink.raw(b",\"component\":\"");
            sink.escaped(component);
            sink.raw(b"\",\"index\":");
            sink.uint(*index);
        }
        Event::GateRelease { job } | Event::JobDepart { job } => {
            sink.raw(b",\"job\":");
            sink.uint(u64::from(*job));
        }
        Event::Scenario { name } => {
            sink.raw(b",\"name\":\"");
            sink.escaped(name);
            sink.raw(b"\"");
        }
        Event::JobPath { job, links } => {
            sink.raw(b",\"job\":");
            sink.uint(u64::from(*job));
            sink.raw(b",\"links\":[");
            for (i, &link) in links.iter().enumerate() {
                if i > 0 {
                    sink.raw(b",");
                }
                sink.uint(u64::from(link));
            }
            sink.raw(b"]");
        }
        Event::LinkCapacity { link, fraction } => {
            sink.raw(b",\"link\":");
            sink.uint(u64::from(*link));
            sink.raw(b",\"fraction\":");
            sink.float(*fraction);
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
            sink.raw(b",\"job\":");
            sink.uint(u64::from(*job));
            sink.raw(b",\"kind\":\"");
            sink.raw(kind.label().as_bytes());
            sink.raw(b"\",\"iteration\":");
            sink.uint(*iteration);
            sink.raw(b",\"id\":");
            sink.uint(span_id(*job, *kind, *iteration));
            sink.raw(b",\"parent\":");
            sink.uint(span_parent(*job, *kind, *iteration));
        }
    }
    sink.raw(b"}\n");
}

/// One JSON object per line, one line per event. `t_ns` is simulation
/// time; `seq` is the event's position in the stream — monotonically
/// increasing, so determinism-gate diffs can name the first divergent
/// event instead of a byte offset.
pub fn jsonl(events: &[TimedEvent]) -> String {
    let mut size = Size::default();
    for (seq, te) in events.iter().enumerate() {
        line(&mut size, seq, te);
    }
    // The last integer's 8-byte digit copy may reach 7 bytes past the
    // end before it is cut back.
    let mut bytes = Bytes {
        out: Vec::with_capacity(size.len + 7),
        floats: &size.floats,
        ends: size.ends.iter(),
        next_float: 0,
    };
    for (seq, te) in events.iter().enumerate() {
        line(&mut bytes, seq, te);
    }
    String::from_utf8(bytes.out).expect("the export writes ASCII and whole strs only")
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

    /// What `put` writes through both passes; the first pass must size
    /// it exactly.
    fn written(put: impl Fn(&mut dyn Sink)) -> String {
        let mut size = Size::default();
        put(&mut size);
        let mut bytes = Bytes {
            out: Vec::new(),
            floats: &size.floats,
            ends: size.ends.iter(),
            next_float: 0,
        };
        put(&mut bytes);
        assert_eq!(bytes.out.len(), size.len);
        String::from_utf8(bytes.out).unwrap()
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
            assert_eq!(written(|s| s.uint(n)), n.to_string());
        }
    }

    #[test]
    fn floats_print_as_display_does() {
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
        for x in &xs {
            assert_eq!(written(|s| s.float(*x)), x.to_string(), "{x:e}");
        }
        // Formatted floats are copied back in order.
        let all = written(|s| xs.iter().for_each(|x| s.float(*x)));
        assert_eq!(all, xs.iter().map(f64::to_string).collect::<String>());
    }

    #[test]
    fn escaped_strings_are_sized_exactly() {
        let s = "a\"b\\c\nd\r\t\u{1}\u{1f}\u{7f} é日";
        assert_eq!(written(|sink| sink.escaped(s)), JsonEscaped(s).to_string());
    }

    #[test]
    fn exports_are_deterministic() {
        let ev = sample_events();
        assert_eq!(jsonl(&ev), jsonl(&ev));
        assert_eq!(chrome_trace(&ev), chrome_trace(&ev));
    }
}
