//! The CLI rejects an iteration count it cannot compute statistics from up
//! front — usage text on stderr, exit code 2, nothing run — instead of
//! panicking in a worker once a run has completed too few iterations.

use std::process::Command;

/// Runs `mlcc-repro <experiment> --iterations <n>` and asserts it is a
/// usage error whose message contains `expect`.
fn assert_usage_error(experiment: &str, n: &str, expect: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mlcc-repro"))
        .args([experiment, "--iterations", n])
        .output()
        .expect("mlcc-repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{experiment} {n}: {stderr}");
    assert!(
        stderr.contains(expect) && stderr.contains("usage:"),
        "{experiment} {n}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{experiment} ran before rejecting");
}

#[test]
fn zero_iterations_is_a_usage_error() {
    for experiment in ["fig1", "table1"] {
        assert_usage_error(experiment, "0", "--iterations must be at least 1");
    }
}

/// Experiments that discard warmup iterations need at least one more.
#[test]
fn iterations_within_warmup_are_usage_errors() {
    for (experiment, n, warmup) in [
        ("adaptive", "1", 8),
        ("adaptive", "8", 8),
        ("priority", "1", 5),
        ("flowsched", "1", 5),
        ("pipelining", "1", 6),
        ("cluster", "1", 4),
        ("all", "8", 8),
    ] {
        let expect = format!("--iterations must exceed its {warmup} warmup iterations");
        assert_usage_error(experiment, n, &expect);
    }
}
