//! Replay reader: parse a JSONL event log back into [`TimedEvent`]s.
//!
//! The inverse of [`crate::export::jsonl`], so recorded runs can be
//! analyzed offline (the `diagnostics` crate consumes either a live
//! [`crate::BufferRecorder`] or a replayed file). The parser handles the
//! flat one-object-per-line shape the exporter emits — string, integer,
//! float, and flat integer-array values with standard JSON string escapes —
//! and round-trips every event kind bit-exactly.
//!
//! One byte scanner, `scan_object`, serves [`parse_jsonl`] and
//! [`parse_flat_object`]. It reads an object in one pass with the cursor
//! in a local and decodes nothing it does not have to:
//!
//! - each key the exporter writes is named by a small enum as it is read,
//!   and its value goes into that key's slot, a `Copy` record: an exact
//!   `u64`, an `f64`, or the byte range of a string (flagged if it holds
//!   escapes) or of an array. The duplicate-key check is a bit test, a
//!   field lookup an index, and no slot needs dropping;
//! - a string is unescaped only when an event needs its text (a scenario
//!   name, an unknown component) or an error quotes it;
//! - digits are summed and quotes found 8 bytes at a time; a number with
//!   a sign, point or exponent, or more than 19 digits, goes through the
//!   standard parsers;
//! - whitespace is skipped at once on a printable ASCII byte; only other
//!   bytes are decoded as chars.
//!
//! [`parse_jsonl`] scans each object straight from the rest of the text,
//! a newline ending its line, and reserves its output once from a count
//! of newlines. Only a line that fails is cut out and scanned alone, so
//! that its error is the line's own.
//!
//! It allocates only for the output, escaped strings that are read,
//! `Scenario` names, `JobPath` links, the returned map, and each distinct
//! unknown solver component name (leaked once).
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
    // `u64::MAX as f64` rounds up to 2^64, which does not fit: the bound
    // is strict. A negative zero is a negative number, not an integer.
    (n.is_sign_positive() && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

/// Declares [`Key`], the key text table [`KEY_NAMES`], [`Key::of`] and
/// `Key::name` from one list of `Variant = "text"` pairs.
macro_rules! keys {
    ($($key:ident = $name:literal),* $(,)?) => {
        /// The keys the exporter writes. The scanner names each key by one
        /// of these as it reads it, so the duplicate-key check is a bit
        /// test and a lookup an array index. Any other key is `Other` and
        /// is compared by its text.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Key {
            $($key,)*
            Other,
        }

        /// The text of each [`Key`] but `Other`, in declaration order.
        const KEY_NAMES: [&str; Key::Other as usize] = [$($name),*];

        impl Key {
            #[inline(always)]
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
    // Derived span fields: no event reads them, but naming them keeps
    // span lines off the `Other` list.
    Id = "id",
    Parent = "parent",
}

/// A string literal on the line: the byte range between its quotes, and
/// whether it holds an escape (and so must be decoded to be read).
#[derive(Clone, Copy)]
struct Text {
    start: usize,
    end: usize,
    escaped: bool,
}

impl Text {
    /// The string's text on `line`, decoded only if it holds escapes.
    #[inline(always)]
    fn get(self, line: &str) -> Result<Cow<'_, str>, ParseError> {
        if self.escaped {
            return self.decode(line).map(Cow::Owned);
        }
        Ok(Cow::Borrowed(&line[self.start..self.end]))
    }

    /// Decodes a string the scan has already checked, so it holds no
    /// newline and no bad escape: either mode of the search reads it alike.
    #[cold]
    fn decode(self, line: &str) -> Result<String, ParseError> {
        let mut out = String::with_capacity(self.end - self.start);
        let esc = quote_or_escape::<false>(line, self.start)?;
        escaped_string::<false>(line, self.start, esc, Some(&mut out))?;
        Ok(out)
    }
}

/// One value as the scanner leaves it: `Copy`, and pointing into the line
/// for the text it has checked but not decoded.
#[derive(Clone, Copy)]
enum Slot {
    /// A digits-only token that fits u64, kept exact.
    UInt(u64),
    /// Any other number.
    Num(f64),
    Str(Text),
    /// An array, by the offset of its `[`; already checked to hold only
    /// u32s.
    Array {
        start: usize,
    },
}

impl Slot {
    fn as_u64(self) -> Option<u64> {
        match self {
            Slot::UInt(n) => Some(n),
            Slot::Num(n) => f64_as_u64(n),
            _ => None,
        }
    }

    /// The elements of the array whose `[` is at `start`, read a second
    /// time (the scan checked them already).
    fn uints(start: usize, line: &str) -> Result<Vec<u32>, ParseError> {
        let mut out = Vec::new();
        array::<false>(line, start + 1, |n| out.push(n))?;
        Ok(out)
    }

    fn json(self, line: &str) -> Result<JsonValue, ParseError> {
        Ok(match self {
            Slot::UInt(n) => JsonValue::Num(n as f64),
            Slot::Num(n) => JsonValue::Num(n),
            Slot::Str(text) => JsonValue::Str(text.get(line)?.into_owned()),
            Slot::Array { start } => JsonValue::UInts(Slot::uints(start, line)?),
        })
    }
}

/// A line's known fields: each [`Key`]'s value sits in its slot, so
/// storing and finding it costs one index. Other keys go on a list the
/// caller keeps, with the keys' text.
#[derive(Clone, Copy)]
struct Fields {
    slots: [Slot; KEY_NAMES.len()],
    /// Bit `k` is set when `slots[k]` holds this line's value.
    seen: u32,
}

impl Default for Fields {
    fn default() -> Self {
        Fields {
            slots: [Slot::UInt(0); KEY_NAMES.len()],
            seen: 0,
        }
    }
}

impl Fields {
    fn get(&self, key: Key) -> Option<Slot> {
        let bit = 1 << key as u32;
        self.slots
            .get(key as usize)
            .copied()
            .filter(|_| self.seen & bit != 0)
    }
}

/// Keys outside [`Key`] with their values, in line order.
type Others = Vec<(Text, Slot)>;

/// Parses one flat JSON object (`{"k":v,...}`) into a key→value map.
///
/// Supports the subset this workspace's exporters emit: string values with
/// escapes, numbers, and flat arrays of unsigned integers. Exposed because
/// the summary/diff/history tooling reads the same shape. Rejects nested
/// objects, duplicate keys, and trailing garbage with a typed error.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, ParseError> {
    let line = line.trim();
    let mut fields = Fields::default();
    let mut others = Others::new();
    scan_object::<false>(line, &mut fields, &mut others)?;
    let known = KEY_NAMES.iter().zip(fields.slots).enumerate();
    known
        .filter(|(k, _)| fields.seen & 1 << k != 0)
        .map(|(_, (key, slot))| Ok((key.to_string(), slot.json(line)?)))
        .chain(
            others
                .into_iter()
                .map(|(key, slot)| Ok((key.get(line)?.into_owned(), slot.json(line)?))),
        )
        .collect()
}

/// Scans the flat object that starts `text`: each known key's value into
/// its slot in `fields`, every other key onto `others` (both cleared
/// first). Returns the offset where the object's line ends.
///
/// One pass over the bytes with the cursor `pos` in a local; it always
/// sits on a char boundary. Errors come out in the order the bytes raise
/// them: a fault in a key or a value, then a duplicate key, then the
/// separator after it.
///
/// With `LINES`, `text` may run on past the object's line: a newline is
/// then no whitespace but the end of the line, which only whitespace may
/// precede once the object has closed. On a newline anywhere else the scan
/// fails where the same line alone would fail or stop short, so a
/// successful scan is the scan of the line alone. Without `LINES`, `text`
/// is one object and a newline is whitespace.
fn scan_object<const LINES: bool>(
    text: &str,
    fields: &mut Fields,
    others: &mut Others,
) -> Result<usize, ParseError> {
    let b = text.as_bytes();
    fields.seen = 0;
    others.clear();
    if b.first() != Some(&b'{') {
        return Err(syntax(text, 0, "expected '{'"));
    }
    let mut pos = skip_whitespace::<LINES>(text, 1);
    if b.get(pos) == Some(&b'}') {
        return finish::<LINES>(text, pos + 1);
    }
    loop {
        // A key: first, or after a comma (so a trailing comma is a fault).
        if b.get(pos) != Some(&b'"') {
            return Err(syntax(text, pos, "expected '\"'"));
        }
        let key_text;
        (key_text, pos) = string::<LINES>(text, pos + 1)?;
        pos = skip_whitespace::<LINES>(text, pos);
        if b.get(pos) != Some(&b':') {
            return Err(syntax(text, pos, "expected ':'"));
        }
        pos = skip_whitespace::<LINES>(text, pos + 1);
        // The value goes straight into its slot; a duplicate is reported
        // after it, as the value's own faults come first.
        let key = Key::of(&key_text.get(text)?);
        let mut other = Slot::UInt(0);
        let slot = fields.slots.get_mut(key as usize).unwrap_or(&mut other);
        pos = match b.get(pos) {
            Some(&d) if d.is_ascii_digit() || matches!(d, b'-' | b'+' | b'.') => {
                number(text, pos, slot)?
            }
            Some(b'"') => {
                let (value, next) = string::<LINES>(text, pos + 1)?;
                *slot = Slot::Str(value);
                next
            }
            Some(b'[') => {
                *slot = Slot::Array { start: pos };
                array::<LINES>(text, pos + 1, |_| {})?
            }
            Some(b'{') => {
                return Err(perr(
                    ReplayErrorKind::NonFlatValue,
                    "nested object where a flat value was expected",
                ))
            }
            _ => return Err(unsupported(text, pos)),
        };
        let bit = 1 << key as u32;
        if key == Key::Other {
            if others.iter().any(|&(k, _)| same_text(text, k, key_text)) {
                return Err(duplicate(text, key_text));
            }
            others.push((key_text, other));
        } else if fields.seen & bit != 0 {
            return Err(duplicate(text, key_text));
        } else {
            fields.seen |= bit;
        }
        pos = skip_whitespace::<LINES>(text, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_whitespace::<LINES>(text, pos + 1),
            Some(b'}') => return finish::<LINES>(text, pos + 1),
            _ => return Err(syntax(text, pos, "expected ',' or '}'")),
        }
    }
}

/// The first offset at or after `pos` that is not whitespace
/// (`char::is_whitespace`, as `str::trim`; with `LINES`, a newline is not
/// whitespace). A printable ASCII byte ends the run at once; only other
/// bytes are decoded as chars.
#[inline(always)]
fn skip_whitespace<const LINES: bool>(text: &str, pos: usize) -> usize {
    match text.as_bytes().get(pos) {
        Some(b) if b.is_ascii_graphic() => pos,
        _ => past_whitespace::<LINES>(text, pos),
    }
}

#[cold]
fn past_whitespace<const LINES: bool>(text: &str, pos: usize) -> usize {
    let blank = |c: &char| c.is_whitespace() && !(LINES && *c == '\n');
    pos + text[pos..]
        .chars()
        .take_while(blank)
        .map(char::len_utf8)
        .sum::<usize>()
}

/// A syntax error at byte offset `pos`, reported as a char offset.
#[cold]
fn syntax(text: &str, pos: usize, msg: &str) -> ParseError {
    let at = text[..pos].chars().count();
    perr(ReplayErrorKind::Syntax, format!("{msg} at char {at}"))
}

#[cold]
fn unsupported(text: &str, pos: usize) -> ParseError {
    match text[pos..].chars().next() {
        Some(c) => perr(
            ReplayErrorKind::Syntax,
            format!("unsupported value starting with {c:?}"),
        ),
        None => perr(ReplayErrorKind::Syntax, "missing value"),
    }
}

#[cold]
fn duplicate(text: &str, key: Text) -> ParseError {
    match key.get(text) {
        Ok(key) => perr(ReplayErrorKind::Syntax, format!("duplicate key {key:?}")),
        Err(e) => e,
    }
}

/// Whether two string literals in `text` hold the same text.
fn same_text(text: &str, a: Text, b: Text) -> bool {
    if !a.escaped && !b.escaped {
        return text[a.start..a.end] == text[b.start..b.end];
    }
    matches!((a.get(text), b.get(text)), (Ok(a), Ok(b)) if a == b)
}

/// Past the closing `}` at `pos - 1`, only whitespace may follow on the
/// line; returns the offset where the line ends.
#[inline(always)]
fn finish<const LINES: bool>(text: &str, pos: usize) -> Result<usize, ParseError> {
    let pos = match text.as_bytes().get(pos) {
        Some(b'\n') if LINES => return Ok(pos),
        None => return Ok(pos),
        _ => skip_whitespace::<LINES>(text, pos),
    };
    match text.as_bytes().get(pos) {
        Some(b'\n') if LINES => Ok(pos),
        None => Ok(pos),
        _ => Err(syntax(text, pos, "trailing characters after object")),
    }
}

/// Each byte of `word` that equals `byte` has its top bit set in the
/// result; so may bytes above the first match, but never one below it.
#[inline(always)]
fn bytes_equal(word: u64, byte: u8) -> u64 {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let x = word ^ (ONES * u64::from(byte));
    x.wrapping_sub(ONES) & !x & (ONES << 7)
}

/// The 8 bytes at `pos` as a little-endian word, if there are 8.
#[inline(always)]
fn word_at(b: &[u8], pos: usize) -> Option<u64> {
    let bytes = b.get(pos..pos + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// The first `"` or `\` at or after `from` (with `LINES`, or newline, which
/// the caller treats as the string running off its line), 8 bytes a step.
/// UTF-8 continuation bytes are never any of these.
#[inline(always)]
fn quote_or_escape<const LINES: bool>(text: &str, from: usize) -> Result<usize, ParseError> {
    let b = text.as_bytes();
    let mut pos = from;
    while let Some(word) = word_at(b, pos) {
        let mut hits = bytes_equal(word, b'"') | bytes_equal(word, b'\\');
        if LINES {
            hits |= bytes_equal(word, b'\n');
        }
        if hits != 0 {
            return Ok(pos + hits.trailing_zeros() as usize / 8);
        }
        pos += 8;
    }
    b[pos..]
        .iter()
        .position(|&c| c == b'"' || c == b'\\' || (LINES && c == b'\n'))
        .map(|i| pos + i)
        .ok_or_else(|| perr(ReplayErrorKind::UnterminatedString, "unterminated string"))
}

/// The string literal whose text starts at `start`, past its opening
/// quote: its range, escapes checked but not decoded, and the offset past
/// its closing quote.
#[inline(always)]
fn string<const LINES: bool>(text: &str, start: usize) -> Result<(Text, usize), ParseError> {
    let end = quote_or_escape::<LINES>(text, start)?;
    let (end, escaped) = match text.as_bytes()[end] {
        b'"' => (end, false),
        b'\\' => (escaped_string::<LINES>(text, start, end, None)?, true),
        _ => return Err(off_the_line()),
    };
    Ok((
        Text {
            start,
            end,
            escaped,
        },
        end + 1,
    ))
}

/// A string that reaches its line's end, seen with more text after it.
#[cold]
fn off_the_line() -> ParseError {
    perr(ReplayErrorKind::UnterminatedString, "unterminated string")
}

/// Reads the string literal whose text starts at `start` and whose first
/// `\` is at `esc`, checking every escape, and returns the offset of its
/// closing quote. With `out`, decodes the text onto it.
#[cold]
fn escaped_string<const LINES: bool>(
    text: &str,
    start: usize,
    mut esc: usize,
    mut out: Option<&mut String>,
) -> Result<usize, ParseError> {
    let mut run = start;
    loop {
        let (c, next) = escape(text, esc + 1)?;
        if let Some(out) = out.as_deref_mut() {
            out.push_str(&text[run..esc]);
            out.push(c);
        }
        run = next;
        esc = quote_or_escape::<LINES>(text, run)?;
        match text.as_bytes()[esc] {
            b'"' => {
                if let Some(out) = out {
                    out.push_str(&text[run..esc]);
                }
                return Ok(esc);
            }
            b'\\' => {}
            _ => return Err(off_the_line()),
        }
    }
}

/// Decodes the escape whose letter is at `pos`, just after a `\`; returns
/// its char and the offset past it.
fn escape(text: &str, pos: usize) -> Result<(char, usize), ParseError> {
    let bad = |reason: String| perr(ReplayErrorKind::BadEscape, reason);
    let mut chars = text[pos..].chars();
    let letter = chars.next().ok_or_else(|| bad("dangling escape".into()))?;
    let c = match letter {
        '"' => '"',
        '\\' => '\\',
        '/' => '/',
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        'u' => {
            let hex_start = pos + 1;
            let hex_len: usize = (0..4)
                .map(|_| chars.next().map(char::len_utf8))
                .sum::<Option<usize>>()
                .ok_or_else(|| bad("short \\u escape".into()))?;
            let hex = &text[hex_start..hex_start + hex_len];
            let cp =
                u32::from_str_radix(hex, 16).map_err(|_| bad(format!("bad \\u digits {hex:?}")))?;
            let c = char::from_u32(cp).ok_or_else(|| bad(format!("bad \\u codepoint {cp:#x}")))?;
            return Ok((c, hex_start + hex_len));
        }
        other => return Err(bad(format!("unknown escape \\{other}"))),
    };
    Ok((c, pos + letter.len_utf8()))
}

/// The elements of the array whose `[` is just before `pos`, each passed
/// to `push`; returns the offset past its `]`. Elements are separated by
/// single commas, with none before the first or after the last.
fn array<const LINES: bool>(
    text: &str,
    pos: usize,
    mut push: impl FnMut(u32),
) -> Result<usize, ParseError> {
    let b = text.as_bytes();
    let unterminated = || perr(ReplayErrorKind::BadArray, "unterminated array");
    let mut pos = skip_whitespace::<LINES>(text, pos);
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        match b.get(pos) {
            Some(b',' | b']') => return Err(syntax(text, pos, "expected an array element")),
            Some(_) => {}
            None => return Err(unterminated()),
        }
        let mut n = Slot::UInt(0);
        let next = number(text, pos, &mut n)?;
        let n = n.as_u64().and_then(|n| u32::try_from(n).ok());
        push(n.ok_or_else(|| {
            perr(
                ReplayErrorKind::BadArray,
                "array element is not an unsigned integer",
            )
        })?);
        pos = skip_whitespace::<LINES>(text, next);
        match b.get(pos) {
            Some(b',') => pos = skip_whitespace::<LINES>(text, pos + 1),
            Some(b']') => return Ok(pos + 1),
            Some(_) => return Err(syntax(text, pos, "expected ',' or ']'")),
            None => return Err(unterminated()),
        }
    }
}

/// How many of `word`'s bytes, from the first, are ASCII digits (0–8).
#[inline(always)]
fn digit_run(word: u64) -> usize {
    // A byte is a digit when its high nibble is 3 before and after adding
    // 6. An add carries out of a byte only above the first non-digit, so
    // the bits up to it are exact.
    const HIGH: u64 = u64::from_le_bytes([0xf0; 8]);
    const THREES: u64 = u64::from_le_bytes([0x30; 8]);
    const SIXES: u64 = u64::from_le_bytes([0x06; 8]);
    let other = ((word & HIGH) ^ THREES) | ((word.wrapping_add(SIXES) & HIGH) ^ THREES);
    other.trailing_zeros() as usize / 8
}

/// The value of the first `k` bytes of `word`, all ASCII digits (1–8).
#[inline(always)]
fn digits_value(word: u64, k: usize) -> u64 {
    const THREES: u64 = u64::from_le_bytes([0x30; 8]);
    // Shift the digits to the top, so the bytes below are leading zeros;
    // then combine neighbouring digits, pairs and quads.
    let v = word.wrapping_sub(THREES) << (8 * (8 - k));
    let v = (v & 0x0f0f_0f0f_0f0f_0f0f).wrapping_mul(10 << 8 | 1) >> 8;
    let v = (v & 0x00ff_00ff_00ff_00ff).wrapping_mul(100 << 16 | 1) >> 16;
    (v & 0x0000_ffff_0000_ffff).wrapping_mul(10_000 << 32 | 1) >> 32
}

/// The longest run of number characters at `start`, possibly empty, read
/// once, and the offset past it: exact if it is digits only and fits u64,
/// else it must parse as a finite f64. Up to 19 digits always fit and are
/// summed as they are read, 8 a step; any other token goes to
/// [`number_token`].
#[inline(always)]
fn number(text: &str, start: usize, slot: &mut Slot) -> Result<usize, ParseError> {
    const POW10: [u64; 9] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
    ];
    let b = text.as_bytes();
    let mut pos = start;
    let mut n = 0u64;
    loop {
        let Some(word) = word_at(b, pos) else {
            while let Some(d) = b.get(pos).map(|c| c.wrapping_sub(b'0')).filter(|&d| d <= 9) {
                n = n.wrapping_mul(10).wrapping_add(u64::from(d));
                pos += 1;
            }
            break;
        };
        let k = digit_run(word);
        if k > 0 {
            n = n.wrapping_mul(POW10[k]).wrapping_add(digits_value(word, k));
            pos += k;
        }
        if k < 8 {
            break;
        }
    }
    match b.get(pos) {
        Some(b'-' | b'+' | b'.' | b'e' | b'E') => number_token(text, start, pos, slot),
        _ if pos == start || pos - start > 19 => number_token(text, start, pos, slot),
        _ => {
            *slot = Slot::UInt(n);
            Ok(pos)
        }
    }
}

/// The number token at `start` whose leading digits end at `pos`: a
/// digit run too long to sum (leading zeros can make one fit u64), or a
/// float.
#[cold]
fn number_token(
    text: &str,
    start: usize,
    mut pos: usize,
    slot: &mut Slot,
) -> Result<usize, ParseError> {
    let digits = pos - start;
    let b = text.as_bytes();
    while b
        .get(pos)
        .is_some_and(|c| c.is_ascii_digit() || b"-+.eE".contains(c))
    {
        pos += 1;
    }
    let token = &text[start..pos];
    if digits == token.len() {
        if let Ok(n) = token.parse::<u64>() {
            *slot = Slot::UInt(n);
            return Ok(pos);
        }
    }
    match token.parse::<f64>() {
        Ok(n) if n.is_finite() => {
            *slot = Slot::Num(n);
            Ok(pos)
        }
        _ => Err(perr(
            ReplayErrorKind::BadNumber,
            format!(
                "bad number {token:?} at char {}",
                text[..start].chars().count()
            ),
        )),
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

/// A scanned line's fields, read as the event they spell needs them.
#[derive(Clone, Copy)]
struct Reader<'a> {
    fields: &'a Fields,
    line: &'a str,
}

impl<'a> Reader<'a> {
    #[inline(always)]
    fn slot(self, key: Key) -> Result<Slot, ParseError> {
        self.fields.get(key).ok_or_else(|| missing(key))
    }

    #[inline(always)]
    fn u64(self, key: Key) -> Result<u64, ParseError> {
        self.slot(key)?.as_u64().ok_or_else(|| invalid(key))
    }

    #[inline(always)]
    fn u32(self, key: Key) -> Result<u32, ParseError> {
        u32::try_from(self.u64(key)?).map_err(|_| invalid(key))
    }

    #[inline(always)]
    fn f64(self, key: Key) -> Result<f64, ParseError> {
        match self.slot(key)? {
            // `u64 as f64` rounds to nearest, as parsing the digits would.
            Slot::UInt(n) => Ok(n as f64),
            Slot::Num(n) => Ok(n),
            _ => Err(invalid(key)),
        }
    }

    #[inline(always)]
    fn str(self, key: Key) -> Result<Cow<'a, str>, ParseError> {
        match self.slot(key)? {
            Slot::Str(text) => text.get(self.line),
            _ => Err(invalid(key)),
        }
    }

    /// The string field `key` read as one of the labels `from` knows;
    /// any other label is an `unknown {what} "label"` field error.
    fn named<T>(self, key: Key, what: &str, from: fn(&str) -> Option<T>) -> Result<T, ParseError> {
        let label = self.str(key)?;
        from(&label).ok_or_else(|| {
            perr(
                ReplayErrorKind::BadField,
                format!("unknown {what} {label:?}"),
            )
        })
    }
}

#[cold]
fn missing(key: Key) -> ParseError {
    perr(
        ReplayErrorKind::MissingField,
        format!("missing field {:?}", key.name()),
    )
}

#[cold]
fn invalid(key: Key) -> ParseError {
    perr(
        ReplayErrorKind::BadField,
        format!("invalid field {:?}", key.name()),
    )
}

fn event_from(fields: &Fields, line: &str) -> Result<TimedEvent, ParseError> {
    let r = Reader { fields, line };
    let t_ns = r.u64(Key::TNs)?;
    let kind = r.str(Key::Type)?;
    let event = match &*kind {
        "queue_depth" => Event::QueueDepth {
            link: r.u32(Key::Link)?,
            bytes: r.f64(Key::Bytes)?,
        },
        "ecn_mark" => Event::EcnMark {
            flow: r.u32(Key::Flow)?,
        },
        "cnp_sent" => Event::CnpSent {
            flow: r.u32(Key::Flow)?,
        },
        "cnp_received" => Event::CnpReceived {
            flow: r.u32(Key::Flow)?,
        },
        "rate_change" => Event::RateChange {
            flow: r.u32(Key::Flow)?,
            bps: r.f64(Key::Bps)?,
            state: r.named(Key::State, "cc state", cc_state_from)?,
        },
        "phase_enter" | "phase_exit" => {
            let job = r.u32(Key::Job)?;
            let phase = r.named(Key::Phase, "phase", phase_from)?;
            let iteration = r.u64(Key::Iteration)?;
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
            component: intern_component(&r.str(Key::Component)?),
            index: r.u64(Key::Index)?,
        },
        "gate_release" => Event::GateRelease {
            job: r.u32(Key::Job)?,
        },
        "scenario" => Event::Scenario {
            name: r.str(Key::Name)?.to_string(),
        },
        "job_path" => Event::JobPath {
            job: r.u32(Key::Job)?,
            links: match fields.get(Key::Links) {
                Some(Slot::Array { start }) => Slot::uints(start, line)?,
                Some(_) => return Err(invalid(Key::Links)),
                None => {
                    return Err(perr(
                        ReplayErrorKind::MissingField,
                        "missing field \"links\"",
                    ))
                }
            },
        },
        "link_capacity" => Event::LinkCapacity {
            link: r.u32(Key::Link)?,
            fraction: r.f64(Key::Fraction)?,
        },
        "job_depart" => Event::JobDepart {
            job: r.u32(Key::Job)?,
        },
        // `id`/`parent` on span lines are derived fields the exporter adds
        // for viewers; identity is (job, kind, iteration), so they are
        // ignored here and round-trips stay exact.
        "span_begin" | "span_end" => {
            let job = r.u32(Key::Job)?;
            let skind = r.named(Key::Kind, "span kind", span_kind_from)?;
            let iteration = r.u64(Key::Iteration)?;
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
    // One event per line, so one allocation holds them all. The newlines
    // are counted in runs short enough for a byte counter, which the
    // compiler vectorizes.
    let lines: usize = text
        .as_bytes()
        .chunks(255)
        .map(|run| usize::from(run.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
        .sum();
    let mut out = Vec::with_capacity(lines + usize::from(!text.ends_with('\n')));
    let mut fields = Fields::default();
    let mut others = Others::new();
    let mut last_seq: Option<u64> = None;
    let mut spans = SpanNesting::default();
    let mut pos = 0;
    let mut idx = 0;
    while pos < text.len() {
        idx += 1;
        pos = skip_whitespace::<true>(text, pos);
        match text.as_bytes().get(pos) {
            None => break,
            Some(b'\n') => {
                pos += 1;
                continue;
            }
            Some(_) => {}
        }
        let attribute = |e: ParseError| ReplayError {
            line: idx,
            kind: e.kind,
            reason: e.reason,
        };
        // Scan on through the rest of the text; only if that fails is the
        // line cut out, so that the error is the line's own.
        let mut line = &text[pos..];
        let end = match scan_object::<true>(line, &mut fields, &mut others) {
            Ok(end) => end,
            Err(_) => {
                let end = line.find('\n').unwrap_or(line.len());
                line = line[..end].trim_end();
                scan_object::<true>(line, &mut fields, &mut others).map_err(attribute)?;
                end
            }
        };
        pos += end + 1;
        if let Some(slot) = fields.get(Key::Seq) {
            let seq = slot.as_u64().ok_or_else(|| ReplayError {
                line: idx,
                kind: ReplayErrorKind::BadSeq,
                reason: "seq must be a non-negative integer".to_string(),
            })?;
            if let Some(prev) = last_seq {
                if seq <= prev {
                    return Err(ReplayError {
                        line: idx,
                        kind: ReplayErrorKind::BadSeq,
                        reason: format!("seq {seq} does not increase past {prev}"),
                    });
                }
            }
            last_seq = Some(seq);
        }
        let te = event_from(&fields, line).map_err(attribute)?;
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

    fn ecn(t_ns: u64, flow: u32) -> TimedEvent {
        TimedEvent {
            at: Time::from_nanos(t_ns),
            event: Event::EcnMark { flow },
        }
    }

    /// The one event `line` replays to; `parse_flat_object` must take the
    /// line too.
    fn one(line: &str) -> Event {
        assert!(parse_flat_object(line).is_ok(), "{line:?}");
        let mut events = parse_jsonl(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(events.len(), 1, "{line:?}");
        events.remove(0).event
    }

    #[test]
    fn crlf_line_endings_parse() {
        let text = "{\"seq\":0,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":2}\r\n\
                    {\"seq\":1,\"t_ns\":3,\"type\":\"ecn_mark\",\"flow\":4}\r\n";
        assert_eq!(parse_jsonl(text).unwrap(), vec![ecn(1, 2), ecn(3, 4)]);
        let m = parse_flat_object("{\"a\":1}\r").unwrap();
        assert_eq!(m["a"], JsonValue::Num(1.0));
    }

    #[test]
    fn padded_lines_parse() {
        for pad in [" ", "\t", "\u{a0}", "\u{2003}", " \u{a0}\t\u{2003} "] {
            let line = format!(
                "{pad}{{{pad}\"t_ns\"{pad}:{pad}1{pad},{pad}\"type\"{pad}:{pad}\"ecn_mark\"\
                 {pad},{pad}\"flow\"{pad}:{pad}2{pad}}}{pad}"
            );
            assert_eq!(one(&line), Event::EcnMark { flow: 2 }, "{line:?}");
            let m = parse_flat_object(&line).unwrap();
            assert_eq!(m["type"], JsonValue::Str("ecn_mark".into()));
            assert_eq!(m["t_ns"], JsonValue::Num(1.0));
        }
        let line = "{\"t_ns\":0,\"type\":\"job_path\",\"job\":1,\"links\":[\u{a0}3 ,\u{2003}4\t]}";
        let links = vec![3, 4];
        assert_eq!(one(line), Event::JobPath { job: 1, links });
    }

    #[test]
    fn whitespace_only_lines_keep_later_line_numbers() {
        let text = "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}\n \n\u{a0}\u{2003}\n\t\r\n\
                    {\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":1}\n\n\
                    {\"t_ns\":2,\"type\":\"warp\"}\n";
        let err = parse_jsonl(text).unwrap_err();
        assert_eq!((err.line, err.kind), (7, ReplayErrorKind::UnknownEventType));
        let text = "\u{2003}\n{\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":1}\n\u{a0}\n";
        assert_eq!(parse_jsonl(text).unwrap(), vec![ecn(1, 1)]);
    }

    /// A faulty line followed by more lines fails as it does alone: no
    /// string, number, whitespace run or closing brace reaches past its
    /// newline.
    #[test]
    fn errors_mid_file_are_the_lines_own() {
        let good = "{\"t_ns\":9,\"type\":\"ecn_mark\",\"flow\":1}";
        for bad in [
            "{\"t_ns\":0,\"type\":\"scena",
            "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"a\\",
            "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\u00",
            "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1",
            "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":",
            "{\"t_ns\":0,\"type\":\"job_path\",\"job\":0,\"links\":[1,",
            "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1\u{a0}",
            "{\"t_ns\":0,\"type\":\"ecn_mark\"\u{2003}",
            "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1,\"note\":\"a",
            "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1,\"note\":\"a\\n",
        ] {
            let alone = parse_jsonl(bad).unwrap_err();
            // The next line would close a string or the object left open.
            for next in [good, "\"}", "}"] {
                for sep in ["\n", "\r\n", " \n"] {
                    let text = format!("{good}\n{bad}{sep}{next}\n");
                    let err = parse_jsonl(&text).unwrap_err();
                    assert_eq!((err.line, err.kind), (2, alone.kind), "{text:?}");
                    assert_eq!(err.reason, alone.reason, "{text:?}");
                }
            }
        }
    }

    #[test]
    fn numbers_take_leading_zeros_signs_and_exponents() {
        assert_eq!(
            one("{\"t_ns\":0010,\"type\":\"ecn_mark\",\"flow\":007}"),
            Event::EcnMark { flow: 7 }
        );
        let m = parse_flat_object("{\"a\":007,\"b\":-0,\"c\":1e21,\"d\":5e-324}").unwrap();
        assert_eq!(m["a"], JsonValue::Num(7.0));
        for (key, want) in [("b", -0.0f64), ("c", 1e21), ("d", 5e-324)] {
            let JsonValue::Num(got) = m[key] else {
                panic!("{key} is {:?}", m[key])
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{key}");
        }
        let bytes = |line: &str| match one(line) {
            Event::QueueDepth { bytes, .. } => bytes.to_bits(),
            other => panic!("{other:?}"),
        };
        let queue =
            |v: &str| format!("{{\"t_ns\":0,\"type\":\"queue_depth\",\"link\":0,\"bytes\":{v}}}");
        for (text, want) in [
            ("-0", -0.0f64),
            ("0", 0.0),
            ("1e21", 1e21),
            ("5e-324", 5e-324),
            ("2.5E+3", 2500.0),
            ("00.5", 0.5),
        ] {
            assert_eq!(bytes(&queue(text)), want.to_bits(), "{text}");
        }
        // Integer fields take any number spelling of a whole value that is
        // not negative; a negative zero is negative.
        for t_ns in ["1e3", "1000.0", "01000"] {
            let line = format!("{{\"t_ns\":{t_ns},\"type\":\"ecn_mark\",\"flow\":0}}");
            let te = parse_jsonl(&line).unwrap().remove(0);
            assert_eq!(te.at, Time::from_nanos(1000), "{t_ns}");
        }
        for t_ns in ["-0", "-0.0", "-0e3"] {
            let line = format!("{{\"t_ns\":{t_ns},\"type\":\"ecn_mark\",\"flow\":0}}");
            let err = parse_jsonl(&line).unwrap_err();
            assert_eq!(err.kind, ReplayErrorKind::BadField, "{t_ns}");
            assert_eq!(err.reason, "invalid field \"t_ns\"", "{t_ns}");
        }
        assert_eq!(m["b"].as_u64(), None);
    }

    #[test]
    fn numbers_may_end_at_the_closing_brace() {
        assert_eq!(
            one("{\"type\":\"ecn_mark\",\"flow\":9,\"t_ns\":12}"),
            Event::EcnMark { flow: 9 }
        );
        let line = "{\"t_ns\":0,\"type\":\"link_capacity\",\"link\":1,\"fraction\":0.25}";
        assert_eq!(
            one(line),
            Event::LinkCapacity {
                link: 1,
                fraction: 0.25
            }
        );
        let m = parse_flat_object("{\"a\":-1.5e2}").unwrap();
        assert_eq!(m["a"], JsonValue::Num(-150.0));
    }

    #[test]
    fn scenario_names_unescape() {
        for (raw, want) in [
            (r#"a\"b\\c\/d\ne\rf\tg"#, "a\"b\\c/d\ne\rf\tg"),
            (r"\u00e9\u65e5\u0041\u0000", "é日A\0"),
            ("日本 é ü", "日本 é ü"),
            (r#"fig1/über \"q\" \u00fc"#, "fig1/über \"q\" ü"),
        ] {
            let line = format!("{{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"{raw}\"}}");
            let name = want.to_string();
            assert_eq!(one(&line), Event::Scenario { name }, "{raw}");
            let m = parse_flat_object(&line).unwrap();
            assert_eq!(m["name"], JsonValue::Str(want.into()), "{raw}");
        }
    }

    #[test]
    fn integers_end_below_two_to_the_64() {
        let t_ns = |v: &str| {
            parse_jsonl(&format!(
                "{{\"t_ns\":{v},\"type\":\"ecn_mark\",\"flow\":0}}"
            ))
            .map(|mut events| events.remove(0).at.as_nanos())
            .map_err(|e| (e.kind, e.reason))
        };
        let invalid =
            |key: &str| Err((ReplayErrorKind::BadField, format!("invalid field {key:?}")));
        // 2^64 and spellings that round to it do not fit.
        for v in [
            "18446744073709551616",
            "18446744073709552000",
            "1.8446744073709552e19",
        ] {
            assert_eq!(t_ns(v), invalid("t_ns"), "{v}");
            let m = parse_flat_object(&format!("{{\"a\":{v}}}")).unwrap();
            assert_eq!(m["a"].as_u64(), None, "{v}");
        }
        let line = "{\"t_ns\":0,\"type\":\"phase_enter\",\"job\":0,\"phase\":\"compute\",\
                    \"iteration\":18446744073709551616}";
        let err = parse_jsonl(line).unwrap_err();
        assert_eq!((err.kind, err.reason), invalid("iteration").unwrap_err());
        let err = parse_jsonl(
            "{\"seq\":1.8446744073709552e19,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}",
        )
        .unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSeq);
        // u64::MAX and the largest float below 2^64 still fit, exactly.
        assert_eq!(t_ns("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(t_ns("1.844674407370955e19"), Ok(18_446_744_073_709_549_568));
        let m = parse_flat_object("{\"a\":1.844674407370955e19}").unwrap();
        assert_eq!(m["a"].as_u64(), Some(18_446_744_073_709_549_568));
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
