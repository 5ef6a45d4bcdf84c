//! A pinned corpus of malformed replay inputs. Each entry fixes the exact
//! `(line, kind, reason)` that `parse_jsonl` reports, byte for byte, and
//! `parse_flat_object` must report the same kind and reason for the lexical
//! faults (it accepts the rest, which only an event reader can reject).
//!
//! The inputs put non-ASCII keys and values before a fault, so an `at char
//! N` offset must count characters, not bytes, and they put U+00A0 and
//! U+2003 around and between tokens, which count as whitespace.

use telemetry::parse_jsonl;
use telemetry::replay::{parse_flat_object, ReplayErrorKind as K};

/// (input, 1-based line, kind, reason).
const CORPUS: &[(&str, usize, K, &str)] = &[
    ("not json", 1, K::Syntax, "expected '{' at char 0"),
    (r#"{"t_ns":0,"type":"scena"#, 1, K::UnterminatedString, "unterminated string"),
    (r#"{"t_ns":0,"type":"scenario","name":"\q"}"#, 1, K::BadEscape, r"unknown escape \q"),
    (r#"{"t_ns":0,"type":"scenario","name":"é\ü"}"#, 1, K::BadEscape, r"unknown escape \ü"),
    (r#"{"t_ns":0,"type":"\u+041"}"#, 1, K::UnknownEventType, r#"unknown event type "A""#),
    (r#"{"t_ns":0,"type":"scenario","name":"\u00"#, 1, K::BadEscape, r"short \u escape"),
    (r#"{"t_ns":0,"type":"scenario","name":"\ud800"}"#, 1, K::BadEscape, r"bad \u codepoint 0xd800"),
    (r#"{"t_ns":0,"type":"x\u00é1"}"#, 1, K::BadEscape, r#"bad \u digits "00é1""#),
    (r#"{"t_ns":0,"name":"abc\"#, 1, K::BadEscape, "dangling escape"),
    (r#"{"t_ns":0,"type":"scenario","name":{"x":1}}"#, 1, K::NonFlatValue, "nested object where a flat value was expected"),
    (r#"{"t_ns":0,"flag":true}"#, 1, K::Syntax, "unsupported value starting with 't'"),
    (r#"{"nämé":null}"#, 1, K::Syntax, "unsupported value starting with 'n'"),
    (r#"{"a":"#, 1, K::Syntax, "missing value"),
    (r#"{"näme":"ü" "x":1}"#, 1, K::Syntax, "expected ',' or '}' at char 12"),
    (r#"{"ключ" 1}"#, 1, K::Syntax, "expected ':' at char 8"),
    (r#"{"t_ns":0,"type":"ecn_mark","é":1e}"#, 1, K::BadNumber, r#"bad number "1e" at char 32"#),
    (r#"{"t_ns":0,"type":"ecn_mark","flow":1e400}"#, 1, K::BadNumber, r#"bad number "1e400" at char 35"#),
    (r#"{"name":"日本"} extra"#, 1, K::Syntax, "trailing characters after object at char 14"),
    (r#"{"a":"ü",é}"#, 1, K::Syntax, r#"expected '"' at char 9"#),
    ("\u{a0}{\u{2003}\"t_ns\"\u{a0}:\u{2003}0\u{a0},\"type\":\"warp\"}\u{2003}", 1, K::UnknownEventType, r#"unknown event type "warp""#),
    ("{\u{2003}\"a\"\u{a0}:\u{a0}1\u{2003}x}", 1, K::Syntax, "expected ',' or '}' at char 10"),
    ("\u{a0}\u{2003}x{}", 1, K::Syntax, "expected '{' at char 0"),
    (r#"{"t_ns":0,"t_ns":1,"type":"ecn_mark","flow":0}"#, 1, K::Syntax, r#"duplicate key "t_ns""#),
    (r#"{"a":1,"a":2}"#, 1, K::Syntax, r#"duplicate key "a""#),
    (r#"{"t_ns":0,"type":"job_path","job":0,"links":[1,"#, 1, K::BadArray, "unterminated array"),
    (r#"{"t_ns":0,"type":"job_path","job":0,"links":[1.5]}"#, 1, K::BadArray, "array element is not an unsigned integer"),
    (r#"{"t_ns":0,"type":"job_path","job":0,"links":["é"]}"#, 1, K::BadNumber, r#"bad number "" at char 45"#),
    (r#"{"t_ns":0,"type":"ecn_mark"}"#, 1, K::MissingField, r#"missing field "flow""#),
    (r#"{"t_ns":0,"type":"job_path","job":0}"#, 1, K::MissingField, r#"missing field "links""#),
    (r#"{"type":"ecn_mark","flow":0}"#, 1, K::MissingField, r#"missing field "t_ns""#),
    (r#"{"t_ns":0,"type":"ecn_mark","flow":4294967296}"#, 1, K::BadField, r#"invalid field "flow""#),
    (r#"{"t_ns":-1,"type":"ecn_mark","flow":0}"#, 1, K::BadField, r#"invalid field "t_ns""#),
    (r#"{"t_ns":0,"type":"rate_change","flow":0,"bps":1.0,"state":"zoom"}"#, 1, K::BadField, r#"unknown cc state "zoom""#),
    (r#"{"t_ns":0,"type":"phase_exit","job":0,"phase":"nap","iteration":0}"#, 1, K::BadField, r#"unknown phase "nap""#),
    (r#"{"t_ns":0,"type":"span_begin","job":0,"kind":"ü\"","iteration":0}"#, 1, K::BadField, r#"unknown span kind "ü\"""#),
    (r#"{"seq":1.5,"t_ns":0,"type":"ecn_mark","flow":0}"#, 1, K::BadSeq, "seq must be a non-negative integer"),
    ("{\"seq\":3,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}\n{\"seq\":3,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":1}", 2, K::BadSeq, "seq 3 does not increase past 3"),
    (r#"{"t_ns":0,"type":"span_end","job":0,"kind":"compute","iteration":0}"#, 1, K::BadSpan, "orphan span end (compute of iteration 0) for job 0 with no open span"),
    ("\n\n{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}\n  \n{\"t_ns\":1,\"type\":\"warp_drive\"}", 5, K::UnknownEventType, r#"unknown event type "warp_drive""#),
    (r#"{"a":1,}"#, 1, K::Syntax, r#"expected '"' at char 7"#),
    ("{\"é\":\"ü\",\u{2003}}", 1, K::Syntax, r#"expected '"' at char 10"#),
    (r#"{"t_ns":0,"type":"job_path","job":0,"links":[,1 2,,]}"#, 1, K::Syntax, "expected an array element at char 45"),
    (r#"{"t_ns":0,"type":"job_path","job":0,"links":[1 2]}"#, 1, K::Syntax, "expected ',' or ']' at char 47"),
    (r#"{"t_ns":0,"type":"job_path","job":0,"links":[1,,2]}"#, 1, K::Syntax, "expected an array element at char 47"),
    (r#"{"t_ns":0,"type":"job_path","job":0,"links":[1, ]}"#, 1, K::Syntax, "expected an array element at char 48"),
    (r#"{"t_ns":-0,"type":"ecn_mark","flow":0}"#, 1, K::BadField, r#"invalid field "t_ns""#),
    (r#"{"t_ns":0,"type":"ecn_mark","flow":-0.0}"#, 1, K::BadField, r#"invalid field "flow""#),
];

/// Faults inside one object, which `parse_flat_object` reports too.
const LEXICAL: [K; 6] = [
    K::Syntax,
    K::UnterminatedString,
    K::BadEscape,
    K::BadNumber,
    K::NonFlatValue,
    K::BadArray,
];

#[test]
fn parse_jsonl_keeps_every_pinned_error() {
    for &(input, line, kind, reason) in CORPUS {
        let err = parse_jsonl(input).expect_err(input);
        assert_eq!(
            (err.line, err.kind, err.reason.as_str()),
            (line, kind, reason),
            "input {input:?}"
        );
    }
}

#[test]
fn parse_flat_object_agrees_on_the_faulty_line() {
    for &(input, line, kind, reason) in CORPUS {
        let faulty = input.lines().nth(line - 1).expect("the line exists");
        let got = parse_flat_object(faulty).map_err(|e| (e.kind, e.reason));
        if LEXICAL.contains(&kind) {
            assert_eq!(got, Err((kind, reason.to_string())), "input {input:?}");
        } else {
            assert!(got.is_ok(), "input {input:?} gave {got:?}");
        }
    }
}

#[test]
fn corpus_covers_every_error_kind() {
    let all = [
        K::Syntax,
        K::UnterminatedString,
        K::BadEscape,
        K::BadNumber,
        K::NonFlatValue,
        K::BadArray,
        K::MissingField,
        K::BadField,
        K::UnknownEventType,
        K::BadSeq,
        K::BadSpan,
    ];
    for kind in all {
        assert!(
            CORPUS.iter().any(|&(_, _, k, _)| k == kind),
            "no corpus entry for {}",
            kind.label()
        );
    }
}
