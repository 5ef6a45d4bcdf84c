//! The `mlcc-bench` command line.
//!
//! ```text
//! mlcc-bench --workload all|NAME --seed N [--seconds S | --passes P]
//!            [--trace 0|1] [--spans DIR] [--out FILE]
//! mlcc-bench compare A.json B.json
//! mlcc-bench reference --seed N
//! ```
//!
//! The runner starts each pass as a child process of this binary
//! (`mlcc-bench pass ...`), one at a time, round-robin across workloads.

use mlcc_bench::calib;
use mlcc_bench::compare;
use mlcc_bench::json;
use mlcc_bench::reference::Reference;
use mlcc_bench::report::{self, PassRecord, Summary, WorkloadRun};
use mlcc_bench::spec::Spec;
use mlcc_bench::workloads::{run_pass, Size, Workload};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  mlcc-bench --workload all|NAME --seed N [--seconds S | --passes P] [--trace 0|1] [--spans DIR] [--out FILE]
  mlcc-bench compare A.json B.json
  mlcc-bench reference --seed N
workloads: paper_rate fluid_cluster packet_mix chaos_trace";

/// Where traced passes write `<workload>.spans.jsonl` by default.
const DEFAULT_SPANS_DIR: &str = ".bench_spans";

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
enum Length {
    /// Rounds of passes until this much time has gone.
    Seconds(f64),
    /// Exactly this many rounds.
    Passes(usize),
}

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    length: Length,
    trace: bool,
    spans: PathBuf,
    out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("reference") => parse(&args[1..]).map(|o| cmd_reference(&o)),
        Some("pass") => parse(&args[1..]).and_then(|o| cmd_pass(&o)),
        _ => parse(&args).and_then(|o| cmd_run(&o)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mlcc-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 1,
        length: Length::Passes(5),
        trace: false,
        spans: PathBuf::from(DEFAULT_SPANS_DIR),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                opts.workloads = match value()? {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                }
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                opts.length = Length::Seconds(s);
            }
            "--passes" => {
                let p: usize = value()?
                    .parse()
                    .map_err(|_| "--passes takes a whole number".to_string())?;
                if p == 0 {
                    return Err("--passes must be at least 1".to_string());
                }
                opts.length = Length::Passes(p);
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--spans" => opts.spans = PathBuf::from(value()?),
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

/// One pass in this process: the child side of the runner protocol. It
/// prints `ready` when set-up is done and `result <json>` at the end.
fn cmd_pass(o: &Opts) -> Result<ExitCode, String> {
    let [workload] = o.workloads[..] else {
        return Err("pass runs exactly one workload".to_string());
    };
    let reference = Reference::for_seed(o.seed);
    let out = run_pass(
        workload,
        o.seed,
        Size::Full,
        reference.as_ref(),
        o.trace,
        &mut || {
            let mut stdout = std::io::stdout().lock();
            let _ = writeln!(stdout, "ready");
            let _ = stdout.flush();
        },
    );
    for f in &out.failures {
        eprintln!("mlcc-bench: {}: operation failed: {f}", workload.name());
    }
    if o.trace {
        let path = o.spans.join(format!("{}.spans.jsonl", workload.name()));
        out.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let record = PassRecord::from_output(&out, peak_rss_mb()?);
    println!("result {}", record.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one pass in a child process and waits for it. Set-up time runs
/// from the spawn to the child's `ready` line.
fn spawn_pass(exe: &Path, w: Workload, o: &Opts, traced: bool) -> Result<PassRecord, String> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "pass",
            "--workload",
            w.name(),
            "--seed",
            &o.seed.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--spans")
        .arg(&o.spans)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting a pass process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut setup = None;
    let mut result = None;
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if line == "ready" {
            setup.get_or_insert(t0.elapsed());
        } else if let Some(rest) = line.strip_prefix("result ") {
            result = Some(rest.to_string());
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a pass process: {e}"))?;
    let (Some(setup), Some(result), true) = (setup, result, status.success()) else {
        return Err(format!("{} pass process failed ({status})", w.name()));
    };
    let mut record = PassRecord::from_json(&json::parse(&result)?)?;
    record.setup_s = setup.as_secs_f64();
    Ok(record)
}

fn cmd_run(o: &Opts) -> Result<ExitCode, String> {
    let spec = Spec::embedded();
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut runs: Vec<WorkloadRun> = o
        .workloads
        .iter()
        .map(|w| WorkloadRun {
            name: w.name().to_string(),
            ..WorkloadRun::default()
        })
        .collect();
    // Passes that died without a result: each counts as one failed
    // operation.
    let mut lost = 0u64;
    let start = Instant::now();
    let mut rounds = 0u32;
    // Round-robin: pass k of every workload before pass k+1 of any, so a
    // noisy neighbour spreads over workloads instead of one median.
    loop {
        for (w, run) in o.workloads.iter().zip(&mut runs) {
            match spawn_pass(&exe, *w, o, false) {
                Ok(rec) => run.passes.push(rec),
                Err(e) => {
                    eprintln!("mlcc-bench: {e}");
                    lost += 1;
                }
            }
        }
        rounds += 1;
        let per_round = start.elapsed() / rounds;
        let done = match o.length {
            Length::Passes(p) => rounds as usize >= p,
            Length::Seconds(s) => start.elapsed() + per_round > Duration::from_secs_f64(s),
        };
        if done {
            break;
        }
    }
    if o.trace {
        for (w, run) in o.workloads.iter().zip(&mut runs) {
            match spawn_pass(&exe, *w, o, true) {
                Ok(rec) => run.traced = Some(rec),
                Err(e) => {
                    eprintln!("mlcc-bench: {e}");
                    lost += 1;
                }
            }
        }
    }

    let all_passes = || runs.iter().flat_map(|r| r.passes.iter().chain(&r.traced));
    let attempted = all_passes().map(|p| p.attempted).sum::<u64>() + lost;
    let failed = all_passes().map(|p| p.failed).sum::<u64>() + lost;

    let mut line_metrics: Vec<(String, Summary)> = Vec::new();
    for run in &runs {
        let e2e = report::end_to_end(&spec, &run.passes);
        println!(
            "{} (seed {}, {} passes, {} operations, {} failed)",
            run.name,
            o.seed,
            run.passes.len(),
            run.passes.iter().map(|p| p.attempted).sum::<u64>(),
            run.passes.iter().map(|p| p.failed).sum::<u64>()
        );
        if let Some(loop_s) = report::loop_s(&run.passes) {
            println!(
                "  fastest operations {:.6} s with the calibration loop at {:.4} ms (reference {:.4} ms)",
                report::fastest_ops_s(&run.passes),
                loop_s * 1e3,
                calib::REFERENCE_S * 1e3
            );
        }
        print_summaries(&e2e);
        let layers = run
            .traced
            .as_ref()
            .map(|t| report::per_layer(&spec, t, &run.passes));
        if let Some(layers) = &layers {
            println!("  traced pass:");
            print_summaries(layers);
        }
        let shown = if o.trace {
            layers.unwrap_or_default()
        } else if run.passes.is_empty() {
            Vec::new()
        } else {
            e2e.into_iter()
                .filter(|s| spec.end_to_end.iter().any(|m| m.name == s.name))
                .collect()
        };
        for s in shown {
            let name = if o.workloads.len() == 1 {
                s.name.clone()
            } else {
                format!("{}.{}", run.name, s.name)
            };
            line_metrics.push((name, s));
        }
    }
    if let Some(path) = &o.out {
        std::fs::write(path, report::out_file(&spec, o.seed, &runs))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(attempted, failed, &line_metrics));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_summaries(summaries: &[Summary]) {
    for s in summaries {
        let q = s.quartiles();
        if s.values.len() > 1 {
            println!(
                "  {:<28} {:>14.6} {:<6} [{} of {}; q1 {:.6}, median {:.6}, q3 {:.6}]",
                s.name,
                s.value,
                s.unit,
                s.how,
                s.values.len(),
                q.q1,
                q.median,
                q.q3,
            );
        } else {
            println!("  {:<28} {:>14.6} {}", s.name, s.value, s.unit);
        }
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two --out files".to_string());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {p}: {e}"))
            .and_then(|t| report::read_out_file(&t).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare::compare(&Spec::embedded(), &read(a)?, &read(b)?);
    print!("{}", compare::render(&rows));
    Ok(ExitCode::SUCCESS)
}

/// Prints the reference file for `--seed`: every workload's simulated
/// results from one pass each, in this process.
fn cmd_reference(o: &Opts) -> ExitCode {
    println!("# mlcc-bench reference outputs, seed {}", o.seed);
    let mut failed = false;
    for &w in &o.workloads {
        let out = run_pass(w, o.seed, Size::Full, None, false, &mut || {});
        for f in &out.failures {
            eprintln!("mlcc-bench: {}: operation failed: {f}", w.name());
            failed = true;
        }
        print!("{}", Reference::render(&out.observed));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
