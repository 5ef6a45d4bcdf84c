//! Replay reader: parse a JSONL event log back into [`TimedEvent`]s.
//!
//! The inverse of [`crate::export::jsonl`], so recorded runs can be
//! analyzed offline (the `diagnostics` crate consumes either a live
//! [`crate::BufferRecorder`] or a replayed file). The parser handles the
//! flat one-object-per-line shape the exporter emits — string, integer,
//! float, and flat integer-array values with standard JSON string escapes —
//! and round-trips every event kind bit-exactly.
//!
//! One byte scanner serves [`parse_jsonl`] and [`parse_flat_object`], one
//! line at a time (the per-line core a streaming reader would call). It
//! borrows keys and escape-free strings from the line, and does per byte
//! only what the byte needs:
//!
//! - whitespace is skipped at once on a printable ASCII byte; only other
//!   bytes are decoded as chars;
//! - a number token is read once: up to 19 digits are summed exactly as
//!   they are read, a longer digit run goes through `u64`'s parser (it
//!   may still fit), and any other token through `f64`'s;
//! - each key the event vocabulary reads is named by a small enum as it
//!   is read, and its value goes in that key's slot, so the duplicate-key
//!   check is a bit test and a field lookup an index.
//!
//! It allocates only for escaped strings, `Scenario` names, `JobPath`
//! links, the returned map, and each distinct unknown solver component
//! name (leaked once).
//!
//! Malformed input (truncated lines, bad escapes, nested values, seq
//! regressions) never panics: every failure surfaces as a [`ReplayError`]
//! carrying a typed [`ReplayErrorKind`] and the 1-based line number, so
//! tooling can distinguish a corrupt file from an unknown event
//! vocabulary. An `at char N` in a reason counts characters, not bytes.

use crate::event::{CcState, Event, Phase, SpanKind, TimedEvent};
use simtime::Time;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The category of a replay failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayErrorKind {
    /// Structurally broken JSON: missing braces, colons, commas, trailing
    /// garbage, or an unsupported scalar (`true`, `null`, …).
    Syntax,
    /// A string literal ran off the end of the line.
    UnterminatedString,
    /// A malformed `\` escape inside a string literal.
    BadEscape,
    /// A value position that did not parse as a JSON number.
    BadNumber,
    /// A nested object — the exporters only ever emit flat objects.
    NonFlatValue,
    /// An array containing anything but unsigned integers.
    BadArray,
    /// A required event field is absent.
    MissingField,
    /// A field is present but has the wrong type, range, or vocabulary.
    BadField,
    /// An event `type` outside the known vocabulary.
    UnknownEventType,
    /// A `seq` field that is not a non-negative integer or does not
    /// increase monotonically over the stream.
    BadSeq,
    /// A span event that breaks per-job nesting: an end with no matching
    /// open span, an interleaved end, or a begin in an illegal position
    /// (a phase span outside its iteration, or a nested iteration).
    BadSpan,
}

impl ReplayErrorKind {
    pub fn label(self) -> &'static str {
        match self {
            ReplayErrorKind::Syntax => "syntax",
            ReplayErrorKind::UnterminatedString => "unterminated_string",
            ReplayErrorKind::BadEscape => "bad_escape",
            ReplayErrorKind::BadNumber => "bad_number",
            ReplayErrorKind::NonFlatValue => "non_flat_value",
            ReplayErrorKind::BadArray => "bad_array",
            ReplayErrorKind::MissingField => "missing_field",
            ReplayErrorKind::BadField => "bad_field",
            ReplayErrorKind::UnknownEventType => "unknown_event_type",
            ReplayErrorKind::BadSeq => "bad_seq",
            ReplayErrorKind::BadSpan => "bad_span",
        }
    }
}

/// Why a JSONL line could not be replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The failure category.
    pub kind: ReplayErrorKind,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay: line {} [{}]: {}",
            self.line,
            self.kind.label(),
            self.reason
        )
    }
}

impl std::error::Error for ReplayError {}

/// A line-local parse failure, before it is attributed to a line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub kind: ReplayErrorKind,
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for ParseError {}

fn perr(kind: ReplayErrorKind, reason: impl Into<String>) -> ParseError {
    ParseError {
        kind,
        reason: reason.into(),
    }
}

/// One parsed JSON scalar (or flat integer array) value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string, unescaped.
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// A flat array of unsigned integers (the only array the exporter
    /// emits, for `job_path.links`).
    UInts(Vec<u32>),
}

impl JsonValue {
    /// The value as a non-negative integer fitting u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => f64_as_u64(*n),
            _ => None,
        }
    }
}

fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// One value as the scanner reads it, borrowing from the line.
enum Value<'a> {
    Str(Cow<'a, str>),
    /// A digits-only token that fits u64, kept exact.
    UInt(u64),
    /// Any other number.
    Num(f64),
    UInts(Vec<u32>),
}

impl Value<'_> {
    fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            Value::Num(n) => f64_as_u64(n),
            _ => None,
        }
    }

    fn into_json(self) -> JsonValue {
        match self {
            Value::Str(s) => JsonValue::Str(s.into_owned()),
            Value::UInt(n) => JsonValue::Num(n as f64),
            Value::Num(n) => JsonValue::Num(n),
            Value::UInts(v) => JsonValue::UInts(v),
        }
    }
}

/// Declares [`Key`], the key text table [`KEY_NAMES`], [`Key::of`] and
/// `Key::name` from one list of `Variant = "text"` pairs.
macro_rules! keys {
    ($($key:ident = $name:literal),* $(,)?) => {
        /// The keys the event vocabulary reads. The scanner names each key
        /// by one of these as it reads it, so the duplicate-key check is a
        /// bit test and a lookup an array index. Any other key is `Other`
        /// and is compared by its text.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Key {
            $($key,)*
            Other,
        }

        /// The text of each [`Key`] but `Other`, in declaration order.
        const KEY_NAMES: [&str; Key::Other as usize] = [$($name),*];

        impl Key {
            #[inline]
            fn of(key: &str) -> Key {
                match key {
                    $($name => Key::$key,)*
                    _ => Key::Other,
                }
            }

            fn name(self) -> &'static str {
                KEY_NAMES.get(self as usize).copied().unwrap_or("")
            }
        }
    };
}

keys! {
    Seq = "seq",
    TNs = "t_ns",
    Type = "type",
    Link = "link",
    Bytes = "bytes",
    Flow = "flow",
    Bps = "bps",
    State = "state",
    Job = "job",
    Phase = "phase",
    Iteration = "iteration",
    Component = "component",
    Index = "index",
    Name = "name",
    Links = "links",
    Fraction = "fraction",
    Kind = "kind",
}

/// A line's fields; keys are unique. A known key's value sits in its
/// [`Key`]'s slot, so storing and finding it costs one index; other keys
/// keep their text in a list.
struct Fields<'a> {
    known: [Value<'a>; KEY_NAMES.len()],
    /// Bit `k` is set when `known[k]` holds this line's value.
    seen: u32,
    other: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl Default for Fields<'_> {
    fn default() -> Self {
        Fields {
            known: std::array::from_fn(|_| Value::UInt(0)),
            seen: 0,
            other: Vec::new(),
        }
    }
}

impl<'a> Fields<'a> {
    fn clear(&mut self) {
        self.seen = 0;
        self.other.clear();
    }

    /// Adds a field, or rejects a key the line already has.
    fn insert(&mut self, text: Cow<'a, str>, value: Value<'a>) -> Result<(), ParseError> {
        let key = Key::of(&text);
        let dup = match self.known.get_mut(key as usize) {
            Some(_) if self.seen & 1 << key as u32 != 0 => true,
            Some(slot) => {
                *slot = value;
                self.seen |= 1 << key as u32;
                return Ok(());
            }
            None => self.other.iter().any(|(t, _)| *t == text),
        };
        if dup {
            return Err(perr(
                ReplayErrorKind::Syntax,
                format!("duplicate key {text:?}"),
            ));
        }
        self.other.push((text, value));
        Ok(())
    }

    fn get(&self, key: Key) -> Option<&Value<'a>> {
        self.known
            .get(key as usize)
            .filter(|_| self.seen & 1 << key as u32 != 0)
    }
}

/// Parses one flat JSON object (`{"k":v,...}`) into a key→value map.
///
/// Supports the subset this workspace's exporters emit: string values with
/// escapes, numbers, and flat arrays of unsigned integers. Exposed because
/// the summary/diff/history tooling reads the same shape. Rejects nested
/// objects, duplicate keys, and trailing garbage with a typed error.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, ParseError> {
    let mut fields = Fields::default();
    scan_object(line, &mut fields)?;
    let Fields { known, seen, other } = fields;
    let known = KEY_NAMES.iter().zip(known).enumerate();
    Ok(known
        .filter(|(k, _)| seen & 1 << k != 0)
        .map(|(_, (k, v))| (k.to_string(), v.into_json()))
        .chain(
            other
                .into_iter()
                .map(|(k, v)| (k.into_owned(), v.into_json())),
        )
        .collect())
}

/// Scans the flat object on `line` into `fields` (cleared first).
fn scan_object<'a>(line: &'a str, fields: &mut Fields<'a>) -> Result<(), ParseError> {
    fields.clear();
    let mut sc = Scanner {
        s: line.trim(),
        pos: 0,
    };
    if sc.next_byte() != Some(b'{') {
        return Err(sc.syntax("expected '{'"));
    }
    sc.pos += 1;
    loop {
        if sc.next_byte() == Some(b'}') {
            return sc.finish();
        }
        let key = sc.string()?;
        if sc.next_byte() != Some(b':') {
            return Err(sc.syntax("expected ':'"));
        }
        sc.pos += 1;
        let val = sc.value()?;
        fields.insert(key, val)?;
        match sc.next_byte() {
            Some(b',') => sc.pos += 1,
            Some(b'}') => return sc.finish(),
            _ => return Err(sc.syntax("expected ',' or '}'")),
        }
    }
}

/// A cursor over a trimmed line. `pos` is a byte offset that always sits
/// on a char boundary; error reasons convert it to a char count.
///
/// The cursor is `Copy` and its rare paths (whitespace, escapes, errors)
/// take it by value, so the hot loop can keep `pos` in a register.
#[derive(Clone, Copy)]
struct Scanner<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    /// A syntax error at the cursor, reported as a char offset.
    #[cold]
    fn syntax(self, msg: &str) -> ParseError {
        let at = self.s[..self.pos].chars().count();
        perr(ReplayErrorKind::Syntax, format!("{msg} at char {at}"))
    }

    /// Skips Unicode whitespace (`char::is_whitespace`, as `str::trim`)
    /// and returns the byte after it. A printable ASCII byte ends the run
    /// at once; only other bytes are decoded as chars.
    #[inline]
    fn next_byte(&mut self) -> Option<u8> {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => Some(b),
            _ => {
                self.pos = self.past_whitespace();
                self.peek()
            }
        }
    }

    #[cold]
    fn past_whitespace(mut self) -> usize {
        while let Some(c) = self.peek_char().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
        self.pos
    }

    /// Steps past the closing `}`; only whitespace may follow.
    fn finish(&mut self) -> Result<(), ParseError> {
        self.pos += 1;
        if self.next_byte().is_some() {
            return Err(self.syntax("trailing characters after object"));
        }
        Ok(())
    }

    /// The first `"` or `\` at or after `from`. UTF-8 continuation bytes
    /// are never either.
    fn quote_or_escape(&self, from: usize) -> Result<usize, ParseError> {
        self.s.as_bytes()[from..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|i| from + i)
            .ok_or_else(|| perr(ReplayErrorKind::UnterminatedString, "unterminated string"))
    }

    /// The string literal at the cursor, borrowed unless it has escapes.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.syntax("expected '\"'"));
        }
        let start = self.pos + 1;
        let end = self.quote_or_escape(start)?;
        if self.s.as_bytes()[end] == b'"' {
            self.pos = end + 1;
            return Ok(Cow::Borrowed(&self.s[start..end]));
        }
        let (text, pos) = self.unescape(start, end)?;
        self.pos = pos;
        Ok(Cow::Owned(text))
    }

    /// Decodes the string literal whose text starts at `start` and whose
    /// first `\` is at `esc`; returns it and the offset past its closing
    /// quote.
    #[cold]
    fn unescape(mut self, start: usize, mut esc: usize) -> Result<(String, usize), ParseError> {
        let s = self.s;
        let mut out = String::new();
        let mut run = start;
        loop {
            out.push_str(&s[run..esc]);
            self.pos = esc + 1;
            self.escape(&mut out)?;
            run = self.pos;
            esc = self.quote_or_escape(run)?;
            if s.as_bytes()[esc] == b'"' {
                out.push_str(&s[run..esc]);
                return Ok((out, esc + 1));
            }
        }
    }

    /// Decodes the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let bad = |reason: String| perr(ReplayErrorKind::BadEscape, reason);
        let esc = self
            .peek_char()
            .ok_or_else(|| bad("dangling escape".into()))?;
        self.pos += esc.len_utf8();
        match esc {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex_start = self.pos;
                for _ in 0..4 {
                    let c = self
                        .peek_char()
                        .ok_or_else(|| bad("short \\u escape".into()))?;
                    self.pos += c.len_utf8();
                }
                let hex = &self.s[hex_start..self.pos];
                let cp = u32::from_str_radix(hex, 16)
                    .map_err(|_| bad(format!("bad \\u digits {hex:?}")))?;
                let c = char::from_u32(cp);
                out.push(c.ok_or_else(|| bad(format!("bad \\u codepoint {cp:#x}")))?);
            }
            other => return Err(bad(format!("unknown escape \\{other}"))),
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value<'a>, ParseError> {
        match self.next_byte() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'{') => Err(perr(
                ReplayErrorKind::NonFlatValue,
                "nested object where a flat value was expected",
            )),
            Some(b'[') => {
                self.pos += 1;
                let mut out = Vec::new();
                loop {
                    match self.next_byte() {
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::UInts(out));
                        }
                        Some(b',') => self.pos += 1,
                        Some(_) => {
                            let n = self.number()?.as_u64().and_then(|n| u32::try_from(n).ok());
                            out.push(n.ok_or_else(|| {
                                perr(
                                    ReplayErrorKind::BadArray,
                                    "array element is not an unsigned integer",
                                )
                            })?);
                        }
                        None => {
                            return Err(perr(ReplayErrorKind::BadArray, "unterminated array"));
                        }
                    }
                }
            }
            Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.') => self.number(),
            _ => Err(match self.peek_char() {
                Some(c) => perr(
                    ReplayErrorKind::Syntax,
                    format!("unsupported value starting with {c:?}"),
                ),
                None => perr(ReplayErrorKind::Syntax, "missing value"),
            }),
        }
    }

    /// The longest run of number characters, possibly empty, read once:
    /// exact if it is digits only and fits u64, else it must parse as a
    /// finite f64. Up to 19 digits always fit and are summed as they are
    /// read; a longer digit run (leading zeros can make one fit) goes
    /// through u64's parser.
    #[inline]
    fn number(&mut self) -> Result<Value<'a>, ParseError> {
        let bytes = self.s.as_bytes();
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d) = bytes.get(self.pos).and_then(|b| b.checked_sub(b'0')) {
            if d > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(d));
            self.pos += 1;
        }
        let digits = self.pos - start;
        while bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"-+.eE".contains(b))
        {
            self.pos += 1;
        }
        let token = &self.s[start..self.pos];
        if digits > 0 && digits == token.len() {
            if digits <= 19 {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match token.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(perr(
                ReplayErrorKind::BadNumber,
                format!(
                    "bad number {token:?} at char {}",
                    self.s[..start].chars().count()
                ),
            )),
        }
    }
}

fn phase_from(label: &str) -> Option<Phase> {
    match label {
        "compute" => Some(Phase::Compute),
        "communicate" => Some(Phase::Communicate),
        _ => None,
    }
}

fn span_kind_from(label: &str) -> Option<SpanKind> {
    match label {
        "iteration" => Some(SpanKind::Iteration),
        "compute" => Some(SpanKind::Compute),
        "communicate" => Some(SpanKind::Communicate),
        _ => None,
    }
}

fn cc_state_from(label: &str) -> Option<CcState> {
    Some(match label {
        "restart" => CcState::Restart,
        "cut" => CcState::Cut,
        "fast_recovery" => CcState::FastRecovery,
        "additive_increase" => CcState::AdditiveIncrease,
        "hyper_increase" => CcState::HyperIncrease,
        "alloc" => CcState::Alloc,
        "delay" => CcState::Delay,
        _ => return None,
    })
}

fn event_from(fields: &Fields<'_>) -> Result<TimedEvent, ParseError> {
    let field = |key: Key| -> Result<&Value, ParseError> {
        fields.get(key).ok_or_else(|| {
            perr(
                ReplayErrorKind::MissingField,
                format!("missing field {:?}", key.name()),
            )
        })
    };
    let bad = |key: Key| {
        perr(
            ReplayErrorKind::BadField,
            format!("invalid field {:?}", key.name()),
        )
    };
    let u32_field = |key: Key| -> Result<u32, ParseError> {
        let v = field(key)?.as_u64().ok_or_else(|| bad(key))?;
        u32::try_from(v).map_err(|_| bad(key))
    };
    let u64_field =
        |key: Key| -> Result<u64, ParseError> { field(key)?.as_u64().ok_or_else(|| bad(key)) };
    let f64_field = |key: Key| match field(key)? {
        // `u64 as f64` rounds to nearest, as parsing the digits would.
        Value::UInt(n) => Ok(*n as f64),
        Value::Num(n) => Ok(*n),
        _ => Err(bad(key)),
    };
    let str_field = |key: Key| match field(key)? {
        Value::Str(s) => Ok(&**s),
        _ => Err(bad(key)),
    };
    let t_ns = u64_field(Key::TNs)?;
    let kind = str_field(Key::Type)?;
    let event = match kind {
        "queue_depth" => Event::QueueDepth {
            link: u32_field(Key::Link)?,
            bytes: f64_field(Key::Bytes)?,
        },
        "ecn_mark" => Event::EcnMark {
            flow: u32_field(Key::Flow)?,
        },
        "cnp_sent" => Event::CnpSent {
            flow: u32_field(Key::Flow)?,
        },
        "cnp_received" => Event::CnpReceived {
            flow: u32_field(Key::Flow)?,
        },
        "rate_change" => Event::RateChange {
            flow: u32_field(Key::Flow)?,
            bps: f64_field(Key::Bps)?,
            state: cc_state_from(str_field(Key::State)?).ok_or_else(|| {
                perr(
                    ReplayErrorKind::BadField,
                    format!("unknown cc state {:?}", str_field(Key::State)),
                )
            })?,
        },
        "phase_enter" | "phase_exit" => {
            let job = u32_field(Key::Job)?;
            let phase = phase_from(str_field(Key::Phase)?).ok_or_else(|| {
                perr(
                    ReplayErrorKind::BadField,
                    format!("unknown phase {:?}", str_field(Key::Phase)),
                )
            })?;
            let iteration = u64_field(Key::Iteration)?;
            if kind == "phase_enter" {
                Event::PhaseEnter {
                    job,
                    phase,
                    iteration,
                }
            } else {
                Event::PhaseExit {
                    job,
                    phase,
                    iteration,
                }
            }
        }
        "solver_iteration" => Event::SolverIteration {
            // &'static str in the live event: see `intern_component`.
            component: intern_component(str_field(Key::Component)?),
            index: u64_field(Key::Index)?,
        },
        "gate_release" => Event::GateRelease {
            job: u32_field(Key::Job)?,
        },
        "scenario" => Event::Scenario {
            name: str_field(Key::Name)?.to_string(),
        },
        "job_path" => Event::JobPath {
            job: u32_field(Key::Job)?,
            links: match fields.get(Key::Links) {
                Some(Value::UInts(v)) => v.clone(),
                Some(_) => return Err(bad(Key::Links)),
                None => {
                    return Err(perr(
                        ReplayErrorKind::MissingField,
                        "missing field \"links\"",
                    ))
                }
            },
        },
        "link_capacity" => Event::LinkCapacity {
            link: u32_field(Key::Link)?,
            fraction: f64_field(Key::Fraction)?,
        },
        "job_depart" => Event::JobDepart {
            job: u32_field(Key::Job)?,
        },
        // `id`/`parent` on span lines are derived fields the exporter adds
        // for viewers; identity is (job, kind, iteration), so they are
        // ignored here and round-trips stay exact.
        "span_begin" | "span_end" => {
            let job = u32_field(Key::Job)?;
            let skind = span_kind_from(str_field(Key::Kind)?).ok_or_else(|| {
                perr(
                    ReplayErrorKind::BadField,
                    format!("unknown span kind {:?}", str_field(Key::Kind)),
                )
            })?;
            let iteration = u64_field(Key::Iteration)?;
            if kind == "span_begin" {
                Event::SpanBegin {
                    job,
                    kind: skind,
                    iteration,
                }
            } else {
                Event::SpanEnd {
                    job,
                    kind: skind,
                    iteration,
                }
            }
        }
        other => {
            return Err(perr(
                ReplayErrorKind::UnknownEventType,
                format!("unknown event type {other:?}"),
            ))
        }
    };
    Ok(TimedEvent {
        at: Time::from_nanos(t_ns),
        event,
    })
}

/// Maps a replayed component name back to a `&'static str`.
///
/// Known engine/component names return their static interning. An unknown
/// name is leaked on first sight and reused after that, so memory grows
/// with the number of distinct names, not with the length of the file.
fn intern_component(name: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "netsim.rate",
        "netsim.fluid",
        "netsim.packet",
        "fluid.alloc",
        "scheduler.solve",
        "scheduler.place",
    ];
    static LEAKED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    if let Some(k) = KNOWN.iter().find(|k| **k == name) {
        return k;
    }
    // Each update is a single push, so a poisoned list is still valid.
    let mut leaked = LEAKED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(k) = leaked.iter().find(|k| **k == name) {
        return k;
    }
    let k: &'static str = Box::leak(name.into());
    leaked.push(k);
    k
}

/// Parses a JSONL event log (the output of [`crate::export::jsonl`]).
///
/// Empty lines are skipped; any malformed line aborts with a
/// [`ReplayError`] naming the line and the failure kind. Lines may carry a
/// `seq` field (the exporter has emitted one per event since it grew
/// sequence numbers); when present it must increase strictly
/// monotonically, which catches truncated-and-reglued logs.
pub fn parse_jsonl(text: &str) -> Result<Vec<TimedEvent>, ReplayError> {
    let mut out = Vec::new();
    let mut fields = Fields::default();
    let mut last_seq: Option<u64> = None;
    let mut spans = SpanNesting::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let attribute = |e: ParseError| ReplayError {
            line: idx + 1,
            kind: e.kind,
            reason: e.reason,
        };
        scan_object(line, &mut fields).map_err(attribute)?;
        if let Some(v) = fields.get(Key::Seq) {
            let seq = v.as_u64().ok_or_else(|| ReplayError {
                line: idx + 1,
                kind: ReplayErrorKind::BadSeq,
                reason: "seq must be a non-negative integer".to_string(),
            })?;
            if let Some(prev) = last_seq {
                if seq <= prev {
                    return Err(ReplayError {
                        line: idx + 1,
                        kind: ReplayErrorKind::BadSeq,
                        reason: format!("seq {seq} does not increase past {prev}"),
                    });
                }
            }
            last_seq = Some(seq);
        }
        let te = event_from(&fields).map_err(attribute)?;
        spans.check(&te.event).map_err(attribute)?;
        out.push(te);
    }
    Ok(out)
}

/// Streaming validator for span well-formedness: per-job LIFO stacks of
/// open spans, reset at every `Scenario` marker (scenarios are recorded
/// independently, so spans never cross them). Rejects orphan or
/// interleaved `span_end`s and begins in illegal positions; spans still
/// open when the stream ends are fine (truncated recordings are normal).
#[derive(Default)]
struct SpanNesting {
    open: BTreeMap<u32, Vec<(SpanKind, u64)>>,
}

impl SpanNesting {
    fn check(&mut self, event: &Event) -> Result<(), ParseError> {
        let bad = |reason: String| perr(ReplayErrorKind::BadSpan, reason);
        match event {
            Event::Scenario { .. } => self.open.clear(),
            Event::SpanBegin {
                job,
                kind,
                iteration,
            } => {
                let stack = self.open.entry(*job).or_default();
                match (kind, stack.last()) {
                    (SpanKind::Iteration, None) => {}
                    (SpanKind::Iteration, Some(&(k, i))) => {
                        return Err(bad(format!(
                            "iteration span for job {job} opens inside open {} span \
                             of iteration {i}",
                            k.label()
                        )))
                    }
                    (_, Some(&(SpanKind::Iteration, i))) if i == *iteration => {}
                    (k, top) => {
                        return Err(bad(format!(
                            "{} span begin for job {job} iteration {iteration} \
                             outside its iteration span (innermost open: {})",
                            k.label(),
                            top.map_or("none".to_string(), |&(k, i)| format!(
                                "{} span of iteration {i}",
                                k.label()
                            ))
                        )))
                    }
                }
                stack.push((*kind, *iteration));
            }
            Event::SpanEnd {
                job,
                kind,
                iteration,
            } => {
                let stack = self.open.entry(*job).or_default();
                match stack.last() {
                    Some(&(k, i)) if k == *kind && i == *iteration => {
                        stack.pop();
                    }
                    Some(&(k, i)) => {
                        return Err(bad(format!(
                            "span end ({} of iteration {iteration}) for job {job} does \
                             not match innermost open span ({} of iteration {i})",
                            kind.label(),
                            k.label()
                        )))
                    }
                    None => {
                        return Err(bad(format!(
                            "orphan span end ({} of iteration {iteration}) for job {job} \
                             with no open span",
                            kind.label()
                        )))
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::jsonl;
    use simtime::Time;

    fn sample() -> Vec<TimedEvent> {
        let t = Time::from_nanos;
        vec![
            TimedEvent {
                at: t(0),
                event: Event::Scenario {
                    name: "fig1/\"fair\"\n".into(),
                },
            },
            TimedEvent {
                at: t(0),
                event: Event::JobPath {
                    job: 0,
                    links: vec![0, 3, 7],
                },
            },
            TimedEvent {
                at: t(5),
                event: Event::PhaseEnter {
                    job: 0,
                    phase: Phase::Compute,
                    iteration: 0,
                },
            },
            TimedEvent {
                at: t(1_500),
                event: Event::QueueDepth {
                    link: 0,
                    bytes: 1234.5,
                },
            },
            TimedEvent {
                at: t(2_000),
                event: Event::EcnMark { flow: 1 },
            },
            TimedEvent {
                at: t(2_000),
                event: Event::CnpSent { flow: 1 },
            },
            TimedEvent {
                at: t(2_001),
                event: Event::CnpReceived { flow: 1 },
            },
            TimedEvent {
                at: t(2_001),
                event: Event::RateChange {
                    flow: 1,
                    bps: 12.5e9,
                    state: CcState::Cut,
                },
            },
            TimedEvent {
                at: t(3_000),
                event: Event::SolverIteration {
                    component: "netsim.fluid",
                    index: 4,
                },
            },
            TimedEvent {
                at: t(3_500),
                event: Event::GateRelease { job: 1 },
            },
            TimedEvent {
                at: t(4_000),
                event: Event::PhaseExit {
                    job: 0,
                    phase: Phase::Compute,
                    iteration: 0,
                },
            },
            TimedEvent {
                at: t(4_200),
                event: Event::LinkCapacity {
                    link: 0,
                    fraction: 0.25,
                },
            },
            TimedEvent {
                at: t(4_500),
                event: Event::JobDepart { job: 1 },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = sample();
        let text = jsonl(&events);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn round_trip_is_a_fixed_point() {
        let text = jsonl(&sample());
        let text2 = jsonl(&parse_jsonl(&text).unwrap());
        assert_eq!(text, text2);
    }

    #[test]
    fn malformed_lines_report_position_and_kind() {
        let err = parse_jsonl("{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"x\"}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ReplayErrorKind::Syntax);
        let err = parse_jsonl("{\"t_ns\":0,\"type\":\"warp_drive\"}\n").unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::UnknownEventType);
        assert!(err.reason.contains("warp_drive"), "{err}");
    }

    #[test]
    fn typed_kinds_for_each_malformation() {
        let cases: &[(&str, ReplayErrorKind)] = &[
            // Truncated mid-string.
            (
                "{\"t_ns\":0,\"type\":\"scena",
                ReplayErrorKind::UnterminatedString,
            ),
            // Bad escape.
            (
                "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\q\"}",
                ReplayErrorKind::BadEscape,
            ),
            // Short \u escape at end of line.
            (
                "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\u00",
                ReplayErrorKind::BadEscape,
            ),
            // Nested object value.
            (
                "{\"t_ns\":0,\"type\":\"scenario\",\"name\":{\"x\":1}}",
                ReplayErrorKind::NonFlatValue,
            ),
            // Unsupported scalar.
            ("{\"t_ns\":0,\"flag\":true}", ReplayErrorKind::Syntax),
            // Bad number.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1e}",
                ReplayErrorKind::BadNumber,
            ),
            // Array with a float element.
            (
                "{\"t_ns\":0,\"type\":\"job_path\",\"job\":0,\"links\":[1.5]}",
                ReplayErrorKind::BadArray,
            ),
            // Unterminated array.
            (
                "{\"t_ns\":0,\"type\":\"job_path\",\"job\":0,\"links\":[1,",
                ReplayErrorKind::BadArray,
            ),
            // Missing required field.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\"}",
                ReplayErrorKind::MissingField,
            ),
            // Field with the wrong type.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":\"zero\"}",
                ReplayErrorKind::BadField,
            ),
            // Flow index beyond u32.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":4294967296}",
                ReplayErrorKind::BadField,
            ),
            // Duplicate key.
            (
                "{\"t_ns\":0,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":0}",
                ReplayErrorKind::Syntax,
            ),
            // Trailing garbage.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0} extra",
                ReplayErrorKind::Syntax,
            ),
            // Non-integer seq.
            (
                "{\"seq\":1.5,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}",
                ReplayErrorKind::BadSeq,
            ),
        ];
        for (text, want) in cases {
            let err = parse_jsonl(text).unwrap_err();
            assert_eq!(err.kind, *want, "input {text:?} gave {err}");
        }
    }

    #[test]
    fn span_events_round_trip_with_derived_ids_ignored() {
        let t = Time::from_nanos;
        let span = |at, kind, iteration, begin| TimedEvent {
            at: t(at),
            event: if begin {
                Event::SpanBegin {
                    job: 0,
                    kind,
                    iteration,
                }
            } else {
                Event::SpanEnd {
                    job: 0,
                    kind,
                    iteration,
                }
            },
        };
        let events = vec![
            span(0, SpanKind::Iteration, 0, true),
            span(0, SpanKind::Compute, 0, true),
            span(9, SpanKind::Compute, 0, false),
            span(9, SpanKind::Communicate, 0, true),
            span(20, SpanKind::Communicate, 0, false),
            span(20, SpanKind::Iteration, 0, false),
            // A dangling open at stream end is fine.
            span(20, SpanKind::Iteration, 1, true),
        ];
        let text = jsonl(&events);
        assert!(text.contains("\"id\":"), "exporter adds derived ids");
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(events, back);
        assert_eq!(text, jsonl(&back), "fixed point despite derived fields");
    }

    #[test]
    fn mangled_span_streams_are_rejected() {
        let line = |t_ns: u64, ty: &str, kind: &str, job: u32, iter: u64| {
            format!("{{\"t_ns\":{t_ns},\"type\":\"{ty}\",\"job\":{job},\"kind\":\"{kind}\",\"iteration\":{iter}}}\n")
        };
        // Orphan end.
        let err = parse_jsonl(&line(0, "span_end", "compute", 0, 0)).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        assert!(err.reason.contains("orphan"), "{err}");
        // Interleaved: compute span closed by the iteration's end.
        let text = line(0, "span_begin", "iteration", 0, 0)
            + &line(0, "span_begin", "compute", 0, 0)
            + &line(5, "span_end", "iteration", 0, 0);
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        assert_eq!(err.line, 3);
        // Phase span outside any iteration span.
        let err = parse_jsonl(&line(0, "span_begin", "communicate", 0, 0)).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        // Phase span under the wrong iteration.
        let text =
            line(0, "span_begin", "iteration", 0, 0) + &line(1, "span_begin", "compute", 0, 3);
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        // Nested iteration span.
        let text =
            line(0, "span_begin", "iteration", 0, 0) + &line(1, "span_begin", "iteration", 0, 1);
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        // Unknown span kind is a field error, not a nesting error.
        let err = parse_jsonl(&line(0, "span_begin", "warp", 0, 0)).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadField);
        // Jobs nest independently, and a scenario marker resets the stacks.
        let ok = line(0, "span_begin", "iteration", 0, 0)
            + &line(0, "span_begin", "iteration", 1, 0)
            + &line(1, "span_begin", "compute", 1, 0)
            + "{\"t_ns\":2,\"type\":\"scenario\",\"name\":\"next\"}\n"
            + &line(3, "span_begin", "iteration", 1, 0);
        assert_eq!(parse_jsonl(&ok).unwrap().len(), 5);
    }

    #[test]
    fn seq_must_increase_monotonically() {
        let ok = "{\"seq\":0,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}\n\
                  {\"seq\":4,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":1}\n";
        assert_eq!(parse_jsonl(ok).unwrap().len(), 2);
        let dup = "{\"seq\":3,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}\n\
                   {\"seq\":3,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":1}\n";
        let err = parse_jsonl(dup).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSeq);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_lines_are_skipped() {
        let parsed = parse_jsonl("\n\n{\"t_ns\":7,\"type\":\"ecn_mark\",\"flow\":2}\n\n").unwrap();
        assert_eq!(
            parsed,
            vec![TimedEvent {
                at: Time::from_nanos(7),
                event: Event::EcnMark { flow: 2 }
            }]
        );
    }

    #[test]
    fn flat_object_parser_handles_escapes_and_arrays() {
        let m = parse_flat_object(r#"{"a":"x\"y","b":2.5,"c":[1,2,3]}"#).unwrap();
        assert_eq!(m["a"], JsonValue::Str("x\"y".into()));
        assert_eq!(m["b"], JsonValue::Num(2.5));
        assert_eq!(m["c"], JsonValue::UInts(vec![1, 2, 3]));
    }

    #[test]
    fn unknown_component_names_are_leaked_once() {
        let text: String = (0..1000)
            .map(|i| {
                format!(
                    "{{\"t_ns\":{i},\"type\":\"solver_iteration\",\
                     \"component\":\"custom.widget\",\"index\":{i}}}\n"
                )
            })
            .collect();
        let components = |text: &str| -> Vec<&'static str> {
            parse_jsonl(text)
                .unwrap()
                .into_iter()
                .map(|te| match te.event {
                    Event::SolverIteration { component, .. } => component,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        let first = components(&text);
        assert_eq!(first.len(), 1000);
        assert_eq!(first[0], "custom.widget");
        let again = components(&text[..text.find('\n').unwrap()]);
        for name in first.iter().chain(&again) {
            assert!(std::ptr::eq(*name, first[0]), "a second leak");
        }
    }

    #[test]
    fn event_accessors_cover_indices() {
        assert_eq!(Event::EcnMark { flow: 3 }.flow(), Some(3));
        assert_eq!(Event::GateRelease { job: 2 }.job(), Some(2));
        assert_eq!(Event::EcnMark { flow: 3 }.job(), Some(3));
        assert_eq!(
            Event::Scenario { name: "x".into() }.job(),
            None,
            "scenario markers are not job-scoped"
        );
        assert_eq!(
            Event::JobPath {
                job: 1,
                links: vec![0]
            }
            .job(),
            Some(1)
        );
    }
}
