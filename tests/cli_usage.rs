//! The CLI rejects a zero iteration count up front — usage text on
//! stderr, exit code 2, nothing run — instead of panicking in a worker
//! once a run has completed no iterations.

use std::process::Command;

#[test]
fn zero_iterations_is_a_usage_error() {
    for experiment in ["fig1", "table1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mlcc-repro"))
            .args([experiment, "--iterations", "0"])
            .output()
            .expect("mlcc-repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{experiment}: {stderr}");
        assert!(
            stderr.contains("--iterations must be at least 1") && stderr.contains("usage:"),
            "{experiment}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{experiment} ran before rejecting");
    }
}
