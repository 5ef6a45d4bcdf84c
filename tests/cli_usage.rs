//! The CLI rejects what it cannot honour up front — usage text on stderr,
//! exit code 2, nothing run — instead of panicking in a worker or quietly
//! running something else: an iteration count it cannot compute
//! statistics from, an option the experiment does not honour, a fork
//! point at or past the run's horizon, a `--chaos-seed` with no fault
//! profile to seed, and a `--chaos` or `--slo` file with a value that
//! would panic later or quietly mean nothing. What it does run, it
//! records deterministically: the `--slo` dumps match at any `--jobs`,
//! and the `--flight` dump replays.

use std::process::{Command, Output};

fn mlcc_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlcc-repro"))
        .args(args)
        .output()
        .expect("mlcc-repro runs")
}

/// Asserts `mlcc-repro <args>` is a usage error whose message contains
/// `expect`.
fn assert_usage_error(args: &[&str], expect: &str) {
    let out = mlcc_repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(expect) && stderr.contains("usage:"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
}

#[test]
fn zero_iterations_is_a_usage_error() {
    for experiment in ["fig1", "table1"] {
        assert_usage_error(
            &[experiment, "--iterations", "0"],
            "--iterations must be at least 1",
        );
    }
}

/// Counts above the cap are rejected before anything runs: unbounded,
/// fig1's and table1's simulated-time budgets overflowed and the run
/// panicked, and shard ran on for ever.
#[test]
fn iterations_above_the_cap_are_usage_errors() {
    for experiment in ["fig1", "table1", "shard"] {
        for n in ["1000001", "18446744073709551615"] {
            assert_usage_error(
                &[experiment, "--iterations", n],
                "--iterations must be at most 1000000",
            );
        }
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
        assert_usage_error(&[experiment, "--iterations", n], &expect);
    }
}

/// An option the experiment never reads is rejected, not silently
/// dropped: a run that ignored `--chaos` would pass for a faulted one.
#[test]
fn options_an_experiment_ignores_are_usage_errors() {
    for (args, flag) in [
        (&["adaptive", "--chaos", "stragglers"][..], "--chaos"),
        (&["fig2", "--chaos", "links"], "--chaos"),
        (&["chaos", "--chaos", "links"], "--chaos"),
        (&["snapshot", "--chaos", "links"], "--chaos"),
        (&["priority", "--fork-at", "100ms"], "--fork-at"),
        (
            &["shard", "--fork-replay", "--fork-at", "1ms"],
            "--fork-replay",
        ),
        (&["geometry", "--shards", "4"], "--shards"),
        (&["geometry", "--iterations", "3"], "--iterations"),
        (&["geometry", "--trace", "x.jsonl"], "--trace"),
        (&["ablations", "--iterations", "20"], "--iterations"),
        (&["snapshot", "--trace", "x.jsonl"], "--trace"),
        (&["adaptive", "--csv", "d"], "--csv"),
        (&["variants", "--shards", "4"], "--shards"),
        (&["all", "--shards", "2"], "--shards"),
    ] {
        assert_usage_error(args, &format!("{} does not take {flag}", args[0]));
    }
}

/// A fork point at or past the horizon would fork nothing (or, for
/// `shard`, simulate idle time until the fork point).
#[test]
fn fork_points_past_the_horizon_are_usage_errors() {
    for experiment in ["fig1", "chaos", "shard"] {
        assert_usage_error(
            &[experiment, "--fork-at", "999s"],
            "--fork-at 999s is not before the run's",
        );
    }
}

#[test]
fn chaos_seed_without_a_fault_profile_is_a_usage_error() {
    for args in [
        &["fig1", "--chaos-seed", "3"][..],
        &["fig1", "--chaos", "none", "--chaos-seed", "3"],
    ] {
        assert_usage_error(args, "--chaos-seed needs a --chaos profile");
    }
}

/// A `--chaos` or `--slo` TOML file holding a non-finite value, a
/// duration over one day, a negative slow factor, an SLO key no rule
/// reads, a probability or jitter outside `[0, 1]` or a straggler factor
/// over 100 is a usage error naming the file and line.
#[test]
fn toml_values_that_would_panic_later_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_toml_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (
            "--slo",
            "window_ms = inf\n",
            "line 1: expected a finite number",
        ),
        (
            "--slo",
            "window_ms = nan\n",
            "line 1: expected a finite number",
        ),
        (
            "--slo",
            "max_time_to_reinterleave_s = nan\n",
            "line 1: expected a finite number",
        ),
        (
            "--slo",
            "max_time_to_reinterleave_s = 1e300\n",
            "line 1: max_time_to_reinterleave_s is longer than one day",
        ),
        ("--slo", "window_ms = 50\n", "line 1: unknown key"),
        (
            "--slo",
            "slow_factor = -1\n",
            "line 1: slow_factor must not be negative",
        ),
        (
            "--chaos",
            "[links]\ndegrade_prob = 1\ndegrade_factor = inf\n",
            "line 3: expected a finite number",
        ),
        (
            "--chaos",
            "[phase]\ncompute_jitter = nan\n",
            "line 2: expected a finite number",
        ),
        (
            "--chaos",
            "[signal]\nmark_loss = 2\n",
            "line 2: mark_loss must be in [0, 1]",
        ),
        (
            "--chaos",
            "[phase]\ncompute_jitter = 1e300\n",
            "line 2: compute_jitter must be in [0, 1]",
        ),
        (
            "--chaos",
            "[phase]\nstraggler_prob = 1\nstraggler_factor = 1e300\n",
            "line 3: straggler_factor must be in [1, 100]",
        ),
    ];
    for (i, (flag, text, expect)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("case{i}.toml"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        assert_usage_error(
            &["fig1", "--iterations", "10", flag, path],
            &format!("{flag} {path}: {expect}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `explain` takes its target's run options but no output flag; its
/// argument errors exit 1.
#[test]
fn explain_rejects_output_flags() {
    for flag in [
        &["--trace", "x.jsonl"][..],
        &["--csv", "d"],
        &["--summary-dir", "d"],
    ] {
        let args = [&["explain", "fig1"][..], flag].concat();
        let out = mlcc_repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("explain fig1 does not take {}", flag[0])),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    }
}

/// `--csv DIR` creates the directory, nested parents included, writes
/// each file with its header row, and names every file on stdout.
#[test]
fn csv_files_are_written_and_announced() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_csv_ok_{}", std::process::id()));
    let csv = dir.join("nested").join("csv");
    let out = mlcc_repro(&["fig1", "--iterations", "5", "--csv", csv.to_str().unwrap()]);
    let read = |name: &str| std::fs::read_to_string(csv.join(name)).unwrap_or_default();
    let cdf = read("fig1d_fair_j0.csv");
    let rates = read("fig1bc_fair_rates.csv");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        cdf.starts_with("value_ms,cumulative_fraction\n"),
        "{cdf:.80}"
    );
    assert!(rates.starts_with("time_s,j1_gbps,j2_gbps\n"), "{rates:.80}");
    for name in ["fig1d_fair_j0.csv", "fig1bc_fair_rates.csv"] {
        let wrote = format!("wrote {}\n", csv.join(name).display());
        assert!(stdout.contains(&wrote), "{name} not announced: {stdout}");
    }
}

/// A CSV directory that cannot be created is an I/O error naming the
/// path (exit 1), not a panic.
#[test]
fn unwritable_csv_dir_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the CSV directory's parent should be.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "").unwrap();
    let csv = blocker.join("csv");
    let out = mlcc_repro(&["fig1", "--iterations", "5", "--csv", csv.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(blocker.to_str().unwrap()),
        "{stderr}"
    );
}

/// `--alerts` and `--flight` are read off the recording, so they are
/// byte-identical at any `--jobs`, and every Table 1 simulation opens a
/// scenario of its own, so `report` replays the same run's trace.
#[test]
fn table1_slo_dumps_match_across_jobs_and_its_trace_replays() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_slo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let slo = dir.join("slo.toml");
    std::fs::write(
        &slo,
        "rate_cv_max = 0.3\nmin_jain = 0.9\nmax_queue_bytes = 100000\n\
         max_time_to_reinterleave_s = 0.05\n",
    )
    .unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |jobs: &str| {
        let out = mlcc_repro(&[
            "table1",
            "--iterations",
            "1",
            "--jobs",
            jobs,
            "--slo",
            &path("slo.toml"),
            "--alerts",
            &path(&format!("alerts_j{jobs}.jsonl")),
            "--flight",
            &path(&format!("flight_j{jobs}.jsonl")),
            "--trace",
            &path(&format!("trace_j{jobs}.jsonl")),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(4), "--jobs {jobs}: {stderr}");
    };
    run("1");
    run("4");
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    let (alerts, flight) = (read("alerts_j1.jsonl"), read("flight_j1.jsonl"));
    let report = mlcc_repro(&[
        "report",
        &path("trace_j1.jsonl"),
        "--out",
        &path("report.html"),
    ]);
    let same = (
        alerts == read("alerts_j4.jsonl"),
        flight == read("flight_j4.jsonl"),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!alerts.is_empty() && !flight.is_empty());
    assert_eq!(same, (true, true), "(alerts, flight) equal at --jobs 1/4");
    assert_eq!(
        report.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
}

/// The `--flight` dump is event JSONL that `report` reads back: its
/// per-category rings evict span begins and ends on their own, so the
/// dump keeps only whole spans. Without that cut, each of these dumps
/// fails the replay's span check.
#[test]
fn flight_dumps_replay() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_flight_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (experiment, iterations) in [("chaos", "10"), ("table1", "5"), ("cluster", "5")] {
        let path = dir.join(format!("{experiment}.jsonl"));
        let path = path.to_str().unwrap();
        let run = mlcc_repro(&[experiment, "--iterations", iterations, "--flight", path]);
        assert!(run.status.success(), "{experiment}: {run:?}");
        let report = mlcc_repro(&["report", path]);
        assert_eq!(
            report.status.code(),
            Some(0),
            "{experiment}: {}",
            String::from_utf8_lossy(&report.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// fig1 applies its chaos at the fork barrier, after every job started,
/// so a `--chaos` config that draws late arrivals cannot fork: the run
/// used to panic (exit 101) for most seeds of `mixed`.
#[test]
fn fork_at_with_late_arrivals_is_a_usage_error() {
    for seed in ["1", "3", "4"] {
        assert_usage_error(
            &[
                "fig1",
                "--iterations",
                "10",
                "--chaos",
                "mixed",
                "--chaos-seed",
                seed,
                "--fork-at",
                "150ms",
            ],
            "fig1: --fork-at cannot apply a --chaos config with late arrivals",
        );
    }
}

/// A NaN, infinite or negative tolerance would switch the `diff` and
/// `trend` gates off (or flag everything), so it is an argument error
/// (exit 1) before any file is read.
#[test]
fn non_finite_or_negative_tolerances_are_rejected() {
    for (args, flag) in [
        (
            &["diff", "a.json", "b.json", "--tolerance", "nan"][..],
            "--tolerance",
        ),
        (
            &["diff", "a.json", "b.json", "--tolerance", "inf"],
            "--tolerance",
        ),
        (
            &["diff", "a.json", "b.json", "--tolerance", "-0.1"],
            "--tolerance",
        ),
        (&["trend", "h.jsonl", "--tolerance", "nan"], "--tolerance"),
        (
            &["trend", "h.jsonl", "--wall-tolerance", "nan"],
            "--wall-tolerance",
        ),
        (
            &["trend", "h.jsonl", "--wall-tolerance", "-inf"],
            "--wall-tolerance",
        ),
    ] {
        let out = mlcc_repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let expect = format!("error: {flag} must be finite and not negative");
        assert!(stderr.contains(&expect), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a verdict");
    }
}

/// The loader accepts a straggler on every iteration at the largest
/// factor, so the simulated-time budget must cover that stretch: fig1
/// and table1 used to panic (exit 101) with this file.
#[test]
fn worst_case_stragglers_finish() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_strag_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stragglers.toml");
    std::fs::write(
        &path,
        "[phase]\nstraggler_prob = 1\nstraggler_factor = 100\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    for (experiment, iterations) in [("fig1", "10"), ("table1", "3")] {
        let out = mlcc_repro(&[experiment, "--iterations", iterations, "--chaos", path]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{experiment}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A metric that does not exist is left out of the BENCH file, not
/// written as a sentinel: one Fig. 2 iteration never interleaves.
#[test]
fn bench_files_leave_out_metrics_that_do_not_exist() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_bench_{}", std::process::id()));
    let bench = |iterations: &str| {
        let out = mlcc_repro(&[
            "fig2",
            "--iterations",
            iterations,
            "--summary-dir",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
        std::fs::read_to_string(dir.join("BENCH_fig2.json")).unwrap()
    };
    let (one, six) = (bench("1"), bench("6"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!one.contains("interleaved_at_iteration"), "{one}");
    assert!(!one.contains("-1.0"), "{one}");
    assert!(six.contains("\"interleaved_at_iteration\":"), "{six}");
}

/// `--profile` gives the trace export a row of its own, with the event
/// count, when `--trace` is given, and no such row without it.
#[test]
fn profile_times_the_trace_export() {
    let dir = std::env::temp_dir().join(format!("mlcc_cli_profile_{}", std::process::id()));
    let trace = dir.join("run.jsonl");
    let traced = mlcc_repro(&[
        "fig1",
        "--iterations",
        "5",
        "--trace",
        trace.to_str().unwrap(),
        "--profile",
    ]);
    let plain = mlcc_repro(&["fig1", "--iterations", "5", "--profile"]);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&traced.stdout);
    assert_eq!(traced.status.code(), Some(0), "{stdout}");
    let events = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("wrote {} (", trace.display())))
        .and_then(|rest| rest.split(' ').next())
        .expect("the trace is announced");
    let row = stdout
        .lines()
        .find(|l| l.starts_with("telemetry.export "))
        .expect("an export row");
    assert_eq!(row.split_whitespace().nth(4), Some(events), "{row}");
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("telemetry.export"));
}
