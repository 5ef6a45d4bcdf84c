//! `mlcc-repro` — command-line driver for every reproduction experiment.
//!
//! ```text
//! mlcc-repro <command> [--iterations N] [--jobs N] [--csv DIR]
//!                      [--trace FILE] [--metrics] [--profile]
//!                      [--report FILE] [--summary FILE] [--summary-dir DIR]
//!                      [--chaos PROFILE|FILE.toml] [--chaos-seed N]
//!
//! commands:
//!   fig1       Fig. 1: bandwidth shares + iteration-time CDFs
//!   fig2       Fig. 2: the sliding effect
//!   table1     Table 1: five job groups, measured + predicted
//!   geometry   Figs. 3–5: circles, rotations, unified circle
//!   adaptive   §4.i  adaptively unfair congestion control
//!   priority   §4.ii switch priority queues
//!   flowsched  §4.iii flow scheduling from rotation angles
//!   cluster    §5    compatibility-aware placement
//!   pipelining extension: bucketized emission widens compatibility
//!   ablations  A1–A3: sector resolution, unfairness strength, placement
//!   chaos      fault-injection sweep: seeds × profiles through the
//!              recovery analyzer
//!   all        everything above, in order
//!   report     analyze a recorded JSONL trace into an HTML report
//!   diff       compare two RunSummary JSON files (regression gate),
//!              or two JSONL traces (first divergent event)
//!   trend      diff the last K records per experiment in a
//!              bench/HISTORY.jsonl warehouse (regression trend gate)
//! ```
//!
//! Every experiment command is one row of [`EXPERIMENTS`], which lists the
//! run options it honours. An option the command does not honour is a
//! usage error (exit 2), never silently ignored, and so is an
//! `--iterations` of 0 or above [`MAX_ITERATIONS`] (1,000,000).
//!
//! `--csv DIR` additionally writes the raw data series (traces, CDFs,
//! tables) as CSV files for plotting.
//!
//! `--trace FILE` records the run's telemetry events (ECN marks, CNPs,
//! rate changes, phase transitions, solver passes) to `FILE`: a `.jsonl`
//! extension selects line-delimited JSON, anything else a Chrome trace
//! viewable in Perfetto / `chrome://tracing`. `--metrics` prints the
//! aggregated metrics table; `--profile` prints the per-engine wall-clock
//! breakdown.
//!
//! `--report FILE` writes a self-contained HTML run report (phase
//! timelines, rate sparklines, analyzer verdicts); `--summary FILE` writes
//! the compact `RunSummary` JSON that `mlcc-repro diff` compares. All five
//! observability flags imply event recording.
//!
//! `--summary-dir DIR` writes a machine-readable `BENCH_<experiment>.json`
//! per experiment (median iteration times, speedups, wall-clock) — the
//! perf trajectory documented in EXPERIMENTS.md.
//!
//! `--chaos` injects deterministic faults into `fig1`, `table1`,
//! `variants` and `shard`, the experiments that honour it: pass a builtin
//! profile name (`none`, `stragglers`, `links`, `mixed`) or a chaos TOML
//! file (format in `crates/faults/src/toml.rs`). `--chaos-seed N`
//! re-seeds the chosen config, so it needs one that injects a fault:
//! without `--chaos`, or with `--chaos none`, it is a usage error.
//! `--chaos none` (the default) is byte-identical to not passing the flag
//! at all.
//!
//! `--jobs N` caps the worker threads the experiments fan their
//! independent scenarios across (default: one per available core).
//! Results, telemetry, and every output file are byte-identical for any
//! `N` — only the wall-clock changes. `--jobs 1` forces a serial run.
//!
//! ## Watching a run
//!
//! `--slo FILE.toml` loads declarative SLO rules (schema in
//! `crates/diagnostics/src/watchdog.rs`) and, once the experiments
//! finish, judges them against the analysis `--summary` writes and the
//! recovery analyzer's fault windows, per `Scenario` marker; any
//! violation fires a typed alert carrying the flight-recorder context up
//! to the breach, and the process exits with code 4. `--alerts FILE`
//! dumps the fired alerts and their context as JSONL; `--flight FILE`
//! dumps the flight-recorder snapshot (last 64 events per category per
//! scenario, cut to whole spans so that `report` replays it). `--watch`
//! prints a progress line to **stderr** as each experiment finishes
//! (events recorded, scenarios seen, furthest simulated time) and a
//! closing alert count. Both dumps
//! read the same recording as `--trace`, so they are byte-identical at
//! any `--jobs`, and stdout and every other output file are
//! byte-identical with or without these flags.
//!
//! ```text
//! mlcc-repro report trace.jsonl --out report.html [--summary run.json]
//! mlcc-repro diff a.json b.json [--tolerance 0.05]
//! mlcc-repro diff a.jsonl b.jsonl
//! mlcc-repro trend [bench/HISTORY.jsonl] [--last K] [--tolerance F]
//!                  [--wall-tolerance F] [--experiment NAME]
//! ```
//!
//! `diff` exits 0 when every shared metric agrees within tolerance and the
//! key sets match, non-zero otherwise — wire it into CI against committed
//! golden summaries. Given two `.jsonl` traces it instead reports the
//! first divergent event (sequence number + both payloads).
//!
//! `trend` reads the cross-run warehouse that `--summary-dir` and
//! `--summary` productions append to (`HISTORY.jsonl` beside the written
//! file), compares each experiment's latest record against the median of
//! its prior records in the window, and exits non-zero on a wall-clock or
//! quality regression beyond tolerance.

use diagnostics::history::{self, HistoryRecord, TrendConfig};
use diagnostics::watchdog::{slo_from_toml_str, Alert, SloRules};
use diagnostics::{AnalysisConfig, DiffConfig, RunAnalysis, RunSummary};
use faults::ChaosConfig;
use mlcc::experiments as exp;
use mlcc::export;
use simtime::Dur;
use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use telemetry::{BufferRecorder, Event, FlightRing, Profiler, Recorder, TimedEvent};

/// The largest `--iterations` any experiment accepts: 1,000× the paper's
/// 1,000-iteration Fig. 1d, and far below the counts at which the
/// experiments' simulated-time budgets (a few nominal iterations per
/// requested one) overflow a [`Dur`]. Larger counts are usage errors.
const MAX_ITERATIONS: usize = 1_000_000;

struct Opts {
    /// Every flag given, in order, for the honoured-option check.
    given: Vec<String>,
    iterations: Option<usize>,
    jobs: Option<usize>,
    /// Worker threads for intra-scenario sharding. Only affects wall
    /// clock: the shard plan is a pure function of the topology, so
    /// output is byte-identical at any value.
    shards: Option<usize>,
    csv: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: bool,
    profile: bool,
    report: Option<PathBuf>,
    summary: Option<PathBuf>,
    summary_dir: Option<PathBuf>,
    chaos: ChaosConfig,
    watch: bool,
    slo: Option<SloRules>,
    alerts: Option<PathBuf>,
    flight: Option<PathBuf>,
    /// Fork the sweep from a shared clean prefix at this simulated time.
    fork_at: Option<Dur>,
    /// Re-simulate the prefix in every cell instead of restoring the
    /// snapshot — the byte-identity baseline for `--fork-at`.
    fork_replay: bool,
}

impl Opts {
    /// Any flag that reads the recording once the experiments finish.
    fn watching(&self) -> bool {
        self.watch || self.slo.is_some() || self.alerts.is_some() || self.flight.is_some()
    }

    /// A recorder when any observability flag asked for one.
    fn recorder(&self) -> Option<BufferRecorder> {
        (self.trace.is_some()
            || self.metrics
            || self.profile
            || self.report.is_some()
            || self.summary.is_some()
            || self.watching())
        .then(BufferRecorder::new)
    }

    /// Sizes the worker pools `--jobs` and `--shards` ask for.
    fn apply_parallelism(&self) {
        if let Some(n) = self.jobs {
            mlcc::parallel::set_jobs(n);
        }
        if let Some(n) = self.shards {
            mlcc::parallel::set_shards(n);
        }
    }
}

/// Resolves a `--chaos` argument: a builtin profile name
/// ([`ChaosConfig::profile`]) or a path to a chaos TOML file.
fn parse_chaos(value: &str) -> Result<ChaosConfig, String> {
    if let Some(cfg) = ChaosConfig::profile(value) {
        return Ok(cfg);
    }
    let text = std::fs::read_to_string(value).map_err(|e| {
        format!("--chaos {value}: not a builtin profile, and reading it failed: {e}")
    })?;
    faults::from_toml_str(&text).map_err(|e| format!("--chaos {value}: {e}"))
}

/// Parses a simulated duration with a unit suffix: `250us`, `120ms`,
/// `2s`, or bare nanoseconds (`500000ns` or `500000`).
fn parse_dur(s: &str) -> Result<Dur, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("us") {
        (d, 1_000u64)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("{s}: expected a duration like 250us, 120ms or 2s"))?;
    n.checked_mul(mult)
        .map(Dur::from_nanos)
        .ok_or_else(|| format!("{s}: duration overflows"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        given: Vec::new(),
        iterations: None,
        jobs: None,
        shards: None,
        csv: None,
        trace: None,
        metrics: false,
        profile: false,
        report: None,
        summary: None,
        summary_dir: None,
        chaos: ChaosConfig::none(),
        watch: false,
        slo: None,
        alerts: None,
        flight: None,
        fork_at: None,
        fork_replay: false,
    };
    let mut chaos_seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        opts.given.push(a.clone());
        match a.as_str() {
            "--iterations" => {
                let v = it.next().ok_or("--iterations needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad iteration count {v}"))?;
                if n == 0 {
                    return Err("--iterations must be at least 1".to_string());
                }
                if n > MAX_ITERATIONS {
                    return Err(format!("--iterations must be at most {MAX_ITERATIONS}"));
                }
                opts.iterations = Some(n);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad job count {v}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = Some(n);
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad shard count {v}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                opts.shards = Some(n);
            }
            "--csv" => {
                let v = it.next().ok_or("--csv needs a directory")?;
                opts.csv = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                opts.trace = Some(PathBuf::from(v));
            }
            "--metrics" => opts.metrics = true,
            "--profile" => opts.profile = true,
            "--report" => {
                let v = it.next().ok_or("--report needs a file path")?;
                opts.report = Some(PathBuf::from(v));
            }
            "--summary" => {
                let v = it.next().ok_or("--summary needs a file path")?;
                opts.summary = Some(PathBuf::from(v));
            }
            "--summary-dir" => {
                let v = it.next().ok_or("--summary-dir needs a directory")?;
                opts.summary_dir = Some(PathBuf::from(v));
            }
            "--chaos" => {
                let v = it.next().ok_or("--chaos needs a profile name or file")?;
                opts.chaos = parse_chaos(v)?;
            }
            "--chaos-seed" => {
                let v = it.next().ok_or("--chaos-seed needs a value")?;
                chaos_seed = Some(v.parse().map_err(|_| format!("bad chaos seed {v}"))?);
            }
            "--watch" => opts.watch = true,
            "--slo" => {
                let v = it.next().ok_or("--slo needs a rules TOML file")?;
                let text = std::fs::read_to_string(v)
                    .map_err(|e| format!("--slo {v}: reading it failed: {e}"))?;
                opts.slo = Some(slo_from_toml_str(&text).map_err(|e| format!("--slo {v}: {e}"))?);
            }
            "--alerts" => {
                let v = it.next().ok_or("--alerts needs a file path")?;
                opts.alerts = Some(PathBuf::from(v));
            }
            "--flight" => {
                let v = it.next().ok_or("--flight needs a file path")?;
                opts.flight = Some(PathBuf::from(v));
            }
            "--fork-at" => {
                let v = it.next().ok_or("--fork-at needs a duration (e.g. 120ms)")?;
                let d = parse_dur(v).map_err(|e| format!("--fork-at {e}"))?;
                if d.is_zero() {
                    return Err("--fork-at must be positive".to_string());
                }
                opts.fork_at = Some(d);
            }
            "--fork-replay" => opts.fork_replay = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(seed) = chaos_seed {
        if opts.chaos.is_none() {
            return Err("--chaos-seed needs a --chaos profile that injects faults".to_string());
        }
        opts.chaos.seed = seed;
    }
    if opts.fork_replay && opts.fork_at.is_none() {
        return Err("--fork-replay requires --fork-at".to_string());
    }
    Ok(opts)
}

/// Flags every experiment command takes.
const ALWAYS: &str = "--jobs --summary-dir";

/// Flags that need an experiment that records telemetry.
const RECORDING: &str =
    "--trace --metrics --profile --report --summary --watch --slo --alerts --flight";

/// Bench metrics one experiment contributes to its `BENCH_<name>.json`.
type BenchMetrics = Vec<(String, f64)>;

/// What running an experiment (or one of its steps) yields.
type RunResult<T = BenchMetrics> = Result<T, Box<dyn Error>>;

/// One experiment command.
struct Experiment {
    name: &'static str,
    /// Warmup iterations `--iterations` must exceed (0 where the
    /// experiment falls back to every completed iteration).
    warmup: fn() -> usize,
    /// The run options it honours, as a space-separated flag list. It
    /// also takes [`ALWAYS`], and [`RECORDING`] when it records.
    honours: &'static str,
    /// The run's simulated horizon, which `--fork-at` must fall before;
    /// set exactly when `honours` lists `--fork-at`.
    horizon: Option<fn(&Opts) -> Dur>,
    /// Whether it records telemetry: it takes the [`RECORDING`] flags,
    /// and `explain` can attribute it.
    records: bool,
    /// Whether `all` runs it.
    in_all: bool,
    /// Runs it, writing its report to the writer.
    run: fn(&Opts, Option<&mut BufferRecorder>, &mut dyn Write) -> RunResult,
}

/// Every experiment command, in usage order; `all` runs the rows marked
/// `in_all`, in this order. The dispatch, `all`, the usage text, the
/// option checks and `explain` all read this table.
#[rustfmt::skip]
static EXPERIMENTS: [Experiment; 14] = [
    Experiment { name: "fig1", warmup: || 0, records: true, in_all: true, run: run_fig1,
        honours: "--iterations --chaos --chaos-seed --fork-at --fork-replay --csv",
        horizon: Some(|o| fig1_config(o).horizon()) },
    Experiment { name: "fig2", warmup: || 0, records: true, in_all: true, run: run_fig2,
        honours: "--iterations --csv", horizon: None },
    Experiment { name: "table1", warmup: || 0, records: true, in_all: true, run: run_table1,
        honours: "--iterations --chaos --chaos-seed --csv", horizon: None },
    Experiment { name: "variants", warmup: || 0, records: true, in_all: false, run: run_variants,
        honours: "--iterations --chaos --chaos-seed --csv", horizon: None },
    Experiment { name: "geometry", warmup: || 0, records: false, in_all: true, run: run_geometry,
        honours: "", horizon: None },
    Experiment { name: "adaptive", records: true, in_all: true, run: run_adaptive, horizon: None,
        warmup: || exp::adaptive::AdaptiveConfig::default().warmup, honours: "--iterations" },
    Experiment { name: "priority", records: true, in_all: true, run: run_priority, horizon: None,
        warmup: || exp::priority::PriorityConfig::default().warmup, honours: "--iterations" },
    Experiment { name: "flowsched", records: true, in_all: true, run: run_flowsched, horizon: None,
        warmup: || exp::flowsched::FlowschedConfig::default().warmup, honours: "--iterations" },
    Experiment { name: "cluster", records: true, in_all: true, run: run_cluster, horizon: None,
        warmup: || exp::cluster::ClusterConfig::default().warmup, honours: "--iterations" },
    Experiment { name: "pipelining", records: true, in_all: true, run: run_pipelining, horizon: None,
        warmup: || exp::pipelining::PipeliningConfig::default().warmup, honours: "--iterations" },
    Experiment { name: "ablations", warmup: || 0, records: false, in_all: true, run: run_ablations,
        honours: "", horizon: None },
    Experiment { name: "chaos", warmup: || 0, records: true, in_all: false, run: run_chaos,
        honours: "--iterations --fork-at --fork-replay",
        horizon: Some(|o| chaos_config(o).horizon()) },
    // The snapshot bench runs chaos-sweep cells on its own grid: same horizon.
    Experiment { name: "snapshot", warmup: || 0, records: false, in_all: false, run: run_snapshot_bench,
        honours: "--iterations --fork-at", horizon: Some(|o| chaos_config(o).horizon()) },
    Experiment { name: "shard", warmup: || 0, records: true, in_all: false, run: run_shard_bench,
        honours: "--iterations --chaos --chaos-seed --fork-at --shards",
        horizon: Some(|o| shard_config(o).horizon()) },
];

/// Checks the options given for `cmd` against the experiments it runs.
/// Each flag must be taken by at least one of `rows`; `explain` takes
/// only the run options and `--jobs`, no output flag. `--iterations`
/// must exceed every warmup, and `--fork-at` fall before every horizon.
fn check_opts(cmd: &str, rows: &[&Experiment], o: &Opts, explain: bool) -> Result<(), String> {
    for flag in &o.given {
        let lists = |flags: &str| flags.split(' ').any(|f| f == flag);
        let honoured = rows.iter().any(|r| lists(r.honours));
        let taken = if explain {
            flag == "--jobs" || (flag != "--csv" && honoured)
        } else {
            honoured || lists(ALWAYS) || (lists(RECORDING) && rows.iter().any(|r| r.records))
        };
        if !taken {
            return Err(format!("{cmd} does not take {flag}"));
        }
    }
    let warmup = rows.iter().map(|r| (r.warmup)()).max().unwrap_or(0);
    if o.iterations.is_some_and(|n| n <= warmup) {
        return Err(format!(
            "{cmd}: --iterations must exceed its {warmup} warmup iterations"
        ));
    }
    let Some(at) = o.fork_at else { return Ok(()) };
    for r in rows {
        let Some(horizon) = r.horizon.map(|h| h(o)) else {
            continue;
        };
        if at >= horizon {
            return Err(format!(
                "{}: --fork-at {at:?} is not before the run's {horizon:?} horizon",
                r.name
            ));
        }
    }
    Ok(())
}

/// Writes `content` to `path`, creating parent directories as needed.
fn write_file(path: &Path, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Writes the CSV file `dir/name` and says so on `out`.
fn write_csv(out: &mut dyn Write, dir: &Path, name: &str, csv: &str) -> RunResult<()> {
    let path = dir.join(name);
    write_file(&path, csv)?;
    writeln!(out, "wrote {}", path.display())?;
    Ok(())
}

/// Appends one record to the cross-run warehouse `HISTORY.jsonl` beside
/// the summary/bench file just written (`beside`'s directory).
fn append_history(beside: &Path, record: &HistoryRecord) -> Result<(), String> {
    let dir = match beside.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("HISTORY.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    f.write_all(record.to_line().as_bytes())
        .map_err(|e| format!("appending to {}: {e}", path.display()))
}

/// Canonical description of the CLI configuration that produced a run.
/// Its [`simtime::hash::config_hash`] stamps `--summary` output; the
/// forked-sweep prefix cache keys on the same hash, so "same
/// configuration" means the same thing in a report and in the cache.
fn cli_config(cmd: &str, opts: &Opts) -> String {
    format!(
        "{cmd}|iterations={:?}|chaos={:?}|fork_at={:?}|fork_replay={}",
        opts.iterations, opts.chaos, opts.fork_at, opts.fork_replay
    )
}

/// Writes the HTML report of `analysis` to `html`, announced with
/// `html_note`, and its `RunSummary` to `summary`, stamped with the hash
/// of `config` and appended to the HISTORY.jsonl beside it.
fn write_analysis(
    analysis: &RunAnalysis,
    config: &str,
    html: Option<&Path>,
    summary: Option<&Path>,
    html_note: &str,
) -> Result<(), String> {
    if let Some(path) = html {
        write_file(path, &diagnostics::html(analysis))?;
        println!("wrote {} ({html_note})", path.display());
    }
    if let Some(path) = summary {
        let mut s = analysis.summary();
        s.put("config.hash", simtime::hash::config_hash(config) as f64);
        write_file(path, &s.to_json())?;
        append_history(path, &HistoryRecord::from_summary(&s, "summary"))?;
        println!("wrote {} (RunSummary JSON)", path.display());
    }
    Ok(())
}

/// Writes the trace file, HTML report, and summary, and prints the
/// metrics / profiler reports the flags asked for. `analysis` is there
/// when `--report`, `--summary` or `--slo` asked for one.
fn report(
    cmd: &str,
    opts: &Opts,
    rec: &BufferRecorder,
    analysis: Option<&RunAnalysis>,
) -> Result<(), String> {
    if let Some(path) = &opts.trace {
        let jsonl = path.extension().is_some_and(|e| e == "jsonl");
        let content = if jsonl {
            telemetry::export::jsonl(rec.events())
        } else {
            telemetry::export::chrome_trace(rec.events())
        };
        write_file(path, &content)?;
        println!(
            "wrote {} ({} events, {})",
            path.display(),
            rec.len(),
            if jsonl {
                "JSONL"
            } else {
                "Chrome trace — open in Perfetto or chrome://tracing"
            }
        );
    }
    if let Some(analysis) = analysis {
        write_analysis(
            analysis,
            &cli_config(cmd, opts),
            opts.report.as_deref(),
            opts.summary.as_deref(),
            "HTML run report",
        )?;
    }
    if opts.metrics {
        println!("== metrics ==");
        println!("{}", rec.metrics().render());
    }
    if opts.profile {
        let mut prof = Profiler::new();
        prof.absorb(rec);
        println!("== profile ==");
        println!("{}", prof.render());
    }
    Ok(())
}

/// Writes `BENCH_<name>.json` under `dir` (schema in EXPERIMENTS.md).
fn write_bench(
    dir: &Path,
    name: &str,
    wall: std::time::Duration,
    metrics: &BenchMetrics,
) -> Result<(), String> {
    let mut s = RunSummary::new(name);
    s.put("wall_clock_secs", wall.as_secs_f64());
    for (k, v) in metrics {
        s.put(k, *v);
    }
    let path = dir.join(format!("BENCH_{name}.json"));
    write_file(&path, &s.to_json())?;
    append_history(&path, &HistoryRecord::from_summary(&s, "bench"))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Evaluates `$body` with `$rec` bound to the CLI recorder when one is
/// up, else to a [`telemetry::NoopRecorder`], so an unrecorded run pays
/// nothing for telemetry.
macro_rules! with_recorder {
    ($rec:expr, |$r:ident| $body:expr) => {
        match $rec {
            Some($r) => $body,
            None => {
                let $r = telemetry::NoopRecorder;
                $body
            }
        }
    };
}

fn fig1_config(o: &Opts) -> exp::fig1::Fig1Config {
    exp::fig1::Fig1Config {
        iterations: o.iterations.unwrap_or(100),
        chaos: o.chaos,
        ..Default::default()
    }
}

fn run_fig1(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = fig1_config(o);
    match o.fork_at {
        Some(at) => writeln!(
            out,
            "== Fig. 1 ({} iterations, fork at {at:?}{}) ==",
            cfg.iterations,
            if o.fork_replay { ", replay" } else { "" }
        )?,
        None => writeln!(out, "== Fig. 1 ({} iterations) ==", cfg.iterations)?,
    }
    let r = with_recorder!(rec, |rec| match o.fork_at {
        Some(at) => exp::fig1::run_traced_forked(&cfg, rec, at, o.fork_replay),
        None => exp::fig1::run_traced(&cfg, rec),
    });
    writeln!(out, "{}", r.render())?;
    if let Some(dir) = &o.csv {
        for (name, sc) in [("fair", &r.fair), ("unfair", &r.unfair)] {
            for (i, s) in sc.stats.iter().enumerate() {
                let csv = export::cdf_csv(&s.cdf);
                write_csv(out, dir, &format!("fig1d_{name}_j{i}.csv"), &csv)?;
            }
            let csv =
                export::multi_series_csv(&[&sc.traces[0], &sc.traces[1]], &["j1_gbps", "j2_gbps"]);
            write_csv(out, dir, &format!("fig1bc_{name}_rates.csv"), &csv)?;
        }
    }
    let mut m = BenchMetrics::new();
    for (i, s) in r.fair.stats.iter().enumerate() {
        m.push((format!("fair.job{i}.median_ms"), s.median_ms()));
    }
    for (i, s) in r.unfair.stats.iter().enumerate() {
        m.push((format!("unfair.job{i}.median_ms"), s.median_ms()));
    }
    for (i, s) in r.speedups().iter().enumerate() {
        m.push((format!("speedup.job{i}"), s.0));
    }
    Ok(m)
}

fn run_fig2(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::fig2::Fig2Config {
        iterations: o.iterations.unwrap_or(6),
        ..Default::default()
    };
    writeln!(out, "== Fig. 2 ({} iterations) ==", cfg.iterations)?;
    let r = with_recorder!(rec, |rec| exp::fig2::run_traced(&cfg, rec));
    writeln!(out, "{}", r.render())?;
    if let Some(dir) = &o.csv {
        for (name, sc) in [("fair", &r.fair), ("unfair", &r.unfair)] {
            let csv =
                export::multi_series_csv(&[&sc.traces[0], &sc.traces[1]], &["j1_gbps", "j2_gbps"]);
            write_csv(out, dir, &format!("fig2_{name}_rates.csv"), &csv)?;
        }
    }
    Ok(vec![(
        "interleaved_at_iteration".to_string(),
        r.interleaved_at().map_or(-1.0, |i| i as f64),
    )])
}

fn run_table1(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::table1::Table1Config {
        iterations: o.iterations.unwrap_or(30),
        chaos: o.chaos,
        ..Default::default()
    };
    writeln!(
        out,
        "== Table 1 ({} iterations per scenario) ==",
        cfg.iterations
    )?;
    let r = with_recorder!(rec, |rec| exp::table1::run_traced(&cfg, rec));
    writeln!(out, "{}", r.render())?;
    if let Some(dir) = &o.csv {
        let mut rows = vec![vec![
            "job".to_string(),
            "fair_ms".to_string(),
            "unfair_ms".to_string(),
            "speedup".to_string(),
            "group_compatible".to_string(),
        ]];
        for g in &r.groups {
            for row in &g.rows {
                rows.push(vec![
                    row.label.clone(),
                    format!("{:.1}", row.fair.as_millis_f64()),
                    format!("{:.1}", row.unfair.as_millis_f64()),
                    format!("{:.3}", row.speedup.0),
                    g.fully_compatible_measured.to_string(),
                ]);
            }
        }
        write_csv(out, dir, "table1.csv", &export::rows_csv(&rows))?;
    }
    let mut m = BenchMetrics::new();
    for (gi, g) in r.groups.iter().enumerate() {
        for (ri, row) in g.rows.iter().enumerate() {
            m.push((
                format!("group{gi}.job{ri}.fair_ms"),
                row.fair.as_millis_f64(),
            ));
            m.push((
                format!("group{gi}.job{ri}.unfair_ms"),
                row.unfair.as_millis_f64(),
            ));
            m.push((format!("group{gi}.job{ri}.speedup"), row.speedup.0));
        }
    }
    Ok(m)
}

fn run_variants(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let mut cfg = exp::variants::VariantsConfig::default();
    cfg.fig1.iterations = o.iterations.unwrap_or(30);
    cfg.fig1.chaos = o.chaos;
    writeln!(
        out,
        "== Congestion-control zoo ({} cells, {} iterations each) ==",
        cfg.cells.len(),
        cfg.fig1.iterations
    )?;
    let r = with_recorder!(rec, |rec| exp::variants::run_traced(&cfg, rec));
    writeln!(out, "{}", r.render())?;
    if let Some(dir) = &o.csv {
        let mut rows = vec![vec![
            "variant".to_string(),
            "mean_iter_ms".to_string(),
            "median_iter_ms".to_string(),
            "jain".to_string(),
            "time_to_interleave_ms".to_string(),
        ]];
        for v in &r.outcomes {
            rows.push(vec![
                v.name.clone(),
                format!("{:.3}", v.mean_iter_ms),
                format!("{:.3}", v.median_iter_ms),
                format!("{:.4}", v.jain),
                v.time_to_interleave_ms
                    .map_or(String::new(), |ms| format!("{ms:.1}")),
            ]);
        }
        write_csv(out, dir, "variants.csv", &export::rows_csv(&rows))?;
    }
    let mut m = BenchMetrics::new();
    for v in &r.outcomes {
        m.push((format!("{}.mean_iter_ms", v.name), v.mean_iter_ms));
        m.push((format!("{}.median_iter_ms", v.name), v.median_iter_ms));
        m.push((format!("{}.jain", v.name), v.jain));
        if let Some(ms) = v.time_to_interleave_ms {
            m.push((format!("{}.time_to_interleave_ms", v.name), ms));
        }
        if v.name != "fair" {
            if let Some(s) = r.speedup_vs_fair(&v.name) {
                m.push((format!("{}.speedup_vs_fair", v.name), s));
            }
        }
    }
    Ok(m)
}

fn run_geometry(_: &Opts, _: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    writeln!(out, "== Figs. 3–5 ==")?;
    let f3 = exp::geometry_demo::fig3(6);
    writeln!(
        out,
        "Fig. 3: VGG16 circle perimeter {} (comm {}), arcs stable: {}",
        f3.profile.period(),
        f3.profile.comm_time(),
        f3.per_iteration_checks.iter().all(|&(c, m)| !c && m)
    )?;
    let f4 = exp::geometry_demo::fig4();
    writeln!(
        out,
        "Fig. 4: {} ms overlap at rotation zero; solver: {}",
        f4.overlap_at_zero_ms,
        if f4.verdict.is_compatible() {
            "compatible"
        } else {
            "incompatible"
        }
    )?;
    let f5 = exp::geometry_demo::fig5();
    let j2_rotation = f5.verdict.rotations().expect("compatible")[1].degrees;
    writeln!(
        out,
        "Fig. 5: unified circle {}, reps {:?}, J2 rotation {j2_rotation:.1}°",
        f5.perimeter, f5.repetitions,
    )?;
    Ok(vec![
        (
            "fig4.compatible".to_string(),
            f4.verdict.is_compatible() as u8 as f64,
        ),
        ("fig5.rotation_degrees".to_string(), j2_rotation),
    ])
}

fn run_ablations(_: &Opts, _: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let r = exp::ablation::run();
    write!(out, "{}", r.render())?;
    let compatible_at = exp::ablation::SECTORS
        .iter()
        .zip(&r.sectors)
        .find(|(_, v)| v.is_compatible())
        .map_or(-1.0, |(&n, _)| n as f64);
    let mut m = vec![("a1.min_compatible_sectors".to_string(), compatible_at)];
    for (t_us, f) in exp::ablation::TIMERS_US.iter().zip(&r.unfairness) {
        for (i, s) in f.speedups().iter().enumerate() {
            m.push((format!("a2.t{t_us}us.speedup.job{i}"), s.0));
        }
    }
    for (order, c) in r.placement.iter().enumerate() {
        m.push((
            format!("a3.rotation{order}.locality_slowdown"),
            c.locality.mean_slowdown(),
        ));
        m.push((
            format!("a3.rotation{order}.compat_slowdown"),
            c.compatibility.mean_slowdown(),
        ));
    }
    Ok(m)
}

fn run_adaptive(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::adaptive::AdaptiveConfig {
        iterations: o.iterations.unwrap_or(24),
        ..Default::default()
    };
    writeln!(out, "== §4.i adaptive unfairness ==")?;
    let r = with_recorder!(rec, |rec| exp::adaptive::run_traced(&cfg, rec));
    writeln!(out, "{}", r.render())?;
    let mut m = BenchMetrics::new();
    for (i, s) in r.compatible_speedups().iter().enumerate() {
        m.push((format!("compatible.job{i}.speedup"), s.0));
    }
    let (stat, adpt) = r.victim_speedups();
    m.push(("incompatible.victim.static_speedup".to_string(), stat.0));
    m.push(("incompatible.victim.adaptive_speedup".to_string(), adpt.0));
    Ok(m)
}

fn run_priority(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::priority::PriorityConfig {
        iterations: o.iterations.unwrap_or(20),
        ..Default::default()
    };
    writeln!(out, "== §4.ii priority queues ==")?;
    let r = with_recorder!(rec, |rec| exp::priority::try_run_traced(&cfg, rec))?;
    writeln!(out, "{}", r.render())?;
    let mut m = BenchMetrics::new();
    for (i, s) in r.speedups().iter().enumerate() {
        m.push((format!("job{i}.fair_ms"), r.fair[i].median_ms()));
        m.push((
            format!("job{i}.prioritized_ms"),
            r.prioritized[i].median_ms(),
        ));
        m.push((format!("job{i}.speedup"), s.0));
    }
    Ok(m)
}

fn run_flowsched(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::flowsched::FlowschedConfig {
        iterations: o.iterations.unwrap_or(20),
        ..Default::default()
    };
    writeln!(out, "== §4.iii flow scheduling ==")?;
    let r = with_recorder!(rec, |rec| exp::flowsched::try_run_traced(&cfg, rec))?;
    writeln!(out, "{}", r.render())?;
    let mut m = BenchMetrics::new();
    for (i, s) in r.speedups().iter().enumerate() {
        m.push((format!("job{i}.fair_ms"), r.fair[i].median_ms()));
        m.push((format!("job{i}.scheduled_ms"), r.scheduled[i].median_ms()));
        m.push((format!("job{i}.speedup"), s.0));
    }
    Ok(m)
}

fn run_pipelining(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::pipelining::PipeliningConfig {
        iterations: o.iterations.unwrap_or(16),
        ..Default::default()
    };
    writeln!(out, "== pipelining extension ==")?;
    let r = with_recorder!(rec, |rec| exp::pipelining::run_traced(&cfg, rec));
    writeln!(out, "{}", r.render())?;
    Ok(vec![
        ("monolithic.max_tax".to_string(), r.monolithic.max_tax()),
        ("pipelined.max_tax".to_string(), r.pipelined.max_tax()),
    ])
}

fn run_cluster(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::cluster::ClusterConfig {
        iterations: o.iterations.unwrap_or(16),
        ..Default::default()
    };
    writeln!(out, "== §5 cluster placement ==")?;
    let r = with_recorder!(rec, |rec| exp::cluster::try_run_traced(&cfg, rec))?;
    writeln!(out, "{}", r.render())?;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok(vec![
        (
            "locality.mean_slowdown".to_string(),
            mean(&r.locality.slowdowns),
        ),
        (
            "compatibility.mean_slowdown".to_string(),
            mean(&r.compatibility.slowdowns),
        ),
    ])
}

fn chaos_config(o: &Opts) -> exp::chaos::ChaosSweepConfig {
    exp::chaos::ChaosSweepConfig {
        iterations: o.iterations.unwrap_or(40),
        ..Default::default()
    }
}

fn run_chaos(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = chaos_config(o);
    writeln!(
        out,
        "== chaos sweep ({} iterations, {} seeds × {} profiles{}) ==",
        cfg.iterations,
        cfg.seeds.len(),
        cfg.profiles.len(),
        match o.fork_at {
            Some(at) if o.fork_replay => format!(", fork at {at:?}, replay"),
            Some(at) => format!(", fork at {at:?}"),
            None => String::new(),
        }
    )?;
    let r = with_recorder!(rec, |rec| match o.fork_at {
        Some(at) => exp::chaos::run_forked(&cfg, rec, at, o.fork_replay),
        None => exp::chaos::run_traced(&cfg, rec),
    });
    writeln!(out, "{}", r.render())?;
    let mut m = BenchMetrics::new();
    for c in &r.cells {
        let key = format!("{}.s{}", c.profile, c.seed);
        for (i, med) in c.medians_ms.iter().enumerate() {
            m.push((format!("{key}.job{i}.median_ms"), *med));
        }
        m.push((
            format!("{key}.fault_windows"),
            c.recovery.fault_windows.len() as f64,
        ));
        m.push((format!("{key}.incidents"), c.incidents() as f64));
        m.push((format!("{key}.worst_recovery_ms"), c.worst_recovery_ms()));
        m.push((
            format!("{key}.recovered"),
            c.recovery.all_recovered() as u8 as f64,
        ));
        m.push((
            format!("{key}.compat_break"),
            c.recovery.compatibility_break as u8 as f64,
        ));
    }
    m.push(("all_recovered".to_string(), r.all_recovered() as u8 as f64));
    Ok(m)
}

/// The fork-from-prefix benchmark: runs a 16-cell chaos grid (4 seeds ×
/// 4 arrival-free profiles) twice — forked from a shared clean-prefix
/// snapshot, then with the prefix replayed per cell — byte-compares the
/// two telemetry streams, and reports the wall-clock speedup. The
/// `speedup` and `byte_identical` metrics in `BENCH_snapshot.json` are
/// the gate for the snapshot/restore machinery.
fn run_snapshot_bench(o: &Opts, _: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::chaos::ChaosSweepConfig {
        seeds: vec![6, 16, 25, 33],
        profiles: ["none", "stragglers", "links", "signal"]
            .map(String::from)
            .to_vec(),
        ..chaos_config(o)
    };
    // Default fork point: 90 % of the nominal sweep length (45 % of the
    // horizon, which covers two nominal iterations per iteration run) —
    // late enough that the shared prefix dominates each cell's work,
    // early enough that every cell still has iterations (and its chaos)
    // ahead of it.
    let fork_at = o.fork_at.unwrap_or(cfg.horizon() * 9 / 20);
    writeln!(
        out,
        "== snapshot bench ({} cells, {} iterations, fork at {fork_at:?}) ==",
        cfg.seeds.len() * cfg.profiles.len(),
        cfg.iterations,
    )?;
    let mut forked_rec = BufferRecorder::new();
    let t0 = Instant::now();
    let forked = exp::chaos::run_forked(&cfg, &mut forked_rec, fork_at, false);
    let forked_wall = t0.elapsed();
    let mut replay_rec = BufferRecorder::new();
    let t0 = Instant::now();
    let replayed = exp::chaos::run_forked(&cfg, &mut replay_rec, fork_at, true);
    let replay_wall = t0.elapsed();

    let byte_identical = forked_rec.events() == replay_rec.events()
        && forked
            .cells
            .iter()
            .zip(&replayed.cells)
            .all(|(f, r)| f.medians_ms == r.medians_ms);
    let speedup = replay_wall.as_secs_f64() / forked_wall.as_secs_f64().max(1e-9);
    writeln!(out, "{}", forked.render())?;
    writeln!(
        out,
        "forked {forked_wall:.2?} vs replayed {replay_wall:.2?}: {speedup:.2}x, {}",
        if byte_identical {
            "byte-identical"
        } else {
            "STREAMS DIVERGED"
        }
    )?;
    Ok(vec![
        ("cells".to_string(), forked.cells.len() as f64),
        ("fork_at_ms".to_string(), fork_at.as_millis_f64()),
        ("forked_wall_secs".to_string(), forked_wall.as_secs_f64()),
        ("replay_wall_secs".to_string(), replay_wall.as_secs_f64()),
        ("speedup".to_string(), speedup),
        ("byte_identical".to_string(), byte_identical as u8 as f64),
        (
            "all_recovered".to_string(),
            forked.all_recovered() as u8 as f64,
        ),
    ])
}

fn shard_config(o: &Opts) -> exp::shard::ShardConfig {
    exp::shard::ShardConfig {
        iterations: o.iterations.unwrap_or(4),
        chaos: o.chaos,
        fork_at: o.fork_at,
        ..exp::shard::ShardConfig::paper_scale()
    }
}

/// The sharding benchmark: a paper-scale cluster scenario (4 link-disjoint
/// groups × 128 jobs on the fluid engine, plus 4 replicas of the Table 1
/// packet mix) run three ways — as one global simulator, sharded with one
/// worker, and sharded with `--shards N` workers. The global simulator
/// solves each link-disjoint component on its own, so it should cost
/// about what the one-worker sharded run does (`global_over_sharded1`,
/// reported), take exactly as many max-min solves (`global_solves` ==
/// `sharded1_solves`), and match it bit for bit (`stats_match`);
/// `speedup` over the global run is then what the N worker threads buy.
/// Each wall time is the fastest of three untraced runs. The merged
/// streams at 1 vs N workers are byte-compared (`byte_identical`). With a
/// recorder attached (`--trace`), the sharded runs record into it, so
/// traces at different `--shards` values can be diffed externally.
fn run_shard_bench(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = shard_config(o);
    let threads = mlcc::parallel::shards();
    let fluid = exp::shard::build_fluid(&cfg);
    let packet = exp::shard::build_packet(&cfg);
    writeln!(
        out,
        "== shard bench ({} fluid jobs in {} components, {} packet groups, \
         {} iterations, {threads} worker(s)) ==",
        fluid.plan.num_jobs(),
        fluid.plan.num_components(),
        packet.plan.num_components(),
        cfg.iterations,
    )?;

    // Wall-clock comparison, untraced on every side: the fastest of three
    // runs each, so one slow run on a busy host does not decide the
    // ratio. `fastest(None)` times the global simulator, `fastest(Some(n))`
    // the sharded run on `n` workers; every run gives the same result.
    let fastest = |workers: Option<usize>| {
        let mut best = (None, Duration::MAX);
        for _ in 0..3 {
            let t0 = Instant::now();
            let res = match workers {
                None => exp::shard::run_fluid_unsharded(&fluid, &cfg, telemetry::NoopRecorder).0,
                Some(n) => {
                    exp::shard::run_fluid_sharded(&fluid, &cfg, &mut telemetry::NoopRecorder, n)
                }
            };
            best = (Some(res), best.1.min(t0.elapsed()));
        }
        (best.0.expect("three runs"), best.1)
    };
    let (baseline, unsharded_wall) = fastest(None);
    let (sharded, sharded_wall) = fastest(Some(threads));
    let sharded1_wall = if threads == 1 {
        sharded_wall
    } else {
        fastest(Some(1)).1
    };
    let speedup = unsharded_wall.as_secs_f64() / sharded_wall.as_secs_f64().max(1e-9);
    let global_over_sharded1 = unsharded_wall.as_secs_f64() / sharded1_wall.as_secs_f64().max(1e-9);

    // Byte identity: merged fluid + packet streams at 1 worker vs N.
    let mut one = BufferRecorder::new();
    exp::shard::run_fluid_sharded(&fluid, &cfg, &mut one, 1);
    let t0 = Instant::now();
    exp::shard::run_packet_sharded(&packet, &cfg, &mut one, 1);
    let packet_wall = t0.elapsed();
    let mut many = BufferRecorder::new();
    exp::shard::run_fluid_sharded(&fluid, &cfg, &mut many, threads);
    exp::shard::run_packet_sharded(&packet, &cfg, &mut many, threads);
    let byte_identical = one.events() == many.events() && one.counts() == many.counts();

    // Solve parity: the global simulator solves each component exactly as
    // the one-worker sharded run does, so the engine's own solve counts
    // must be equal. Unlike the wall ratio, host load cannot move them.
    let solves = |rec: &BufferRecorder| {
        rec.counts()
            .get("fluid_allocations_total")
            .copied()
            .unwrap_or(0)
    };
    let global_solves =
        solves(&exp::shard::run_fluid_unsharded(&fluid, &cfg, BufferRecorder::new()).1);
    let sharded1_solves = solves(&one);

    // Results parity: sharded and global runs agree on every job's
    // median, bit for bit.
    let stats_match = baseline
        .stats
        .iter()
        .zip(&sharded.stats)
        .all(|(a, b)| a.median_ms().to_bits() == b.median_ms().to_bits());

    writeln!(
        out,
        "fluid: global {unsharded_wall:.2?}, sharded at 1 worker {sharded1_wall:.2?} \
         ({global_over_sharded1:.2}x), at {threads} worker(s) {sharded_wall:.2?} \
         ({speedup:.2}x), stats {}",
        if stats_match {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    )?;
    writeln!(
        out,
        "fluid solves: global {global_solves}, sharded at 1 worker {sharded1_solves}"
    )?;
    writeln!(
        out,
        "merged streams at 1 vs {threads} worker(s): {} ({} events); packet {packet_wall:.2?}",
        if byte_identical {
            "byte-identical"
        } else {
            "STREAMS DIVERGED"
        },
        one.events().len(),
    )?;

    // With observability flags up, record the sharded runs so
    // --trace/--summary reflect exactly what `--shards N` produces. Both
    // start at t = 0, so each opens a scenario of its own.
    if let Some(rec) = rec {
        let mark = |rec: &mut BufferRecorder, name: &str| {
            let name = format!("shard/{name}");
            rec.record(simtime::Time::ZERO, Event::Scenario { name });
        };
        mark(rec, "fluid");
        exp::shard::run_fluid_sharded(&fluid, &cfg, rec, threads);
        mark(rec, "packet");
        exp::shard::run_packet_sharded(&packet, &cfg, rec, threads);
    }

    let mut m = vec![
        ("config.shards".to_string(), threads as f64),
        (
            "unsharded_wall_secs".to_string(),
            unsharded_wall.as_secs_f64(),
        ),
        ("sharded_wall_secs".to_string(), sharded_wall.as_secs_f64()),
        (
            "sharded1_wall_secs".to_string(),
            sharded1_wall.as_secs_f64(),
        ),
        ("packet_wall_secs".to_string(), packet_wall.as_secs_f64()),
        ("speedup".to_string(), speedup),
        ("global_over_sharded1".to_string(), global_over_sharded1),
        ("global_solves".to_string(), global_solves as f64),
        ("sharded1_solves".to_string(), sharded1_solves as f64),
        ("byte_identical".to_string(), byte_identical as u8 as f64),
        ("stats_match".to_string(), stats_match as u8 as f64),
        (
            "completed".to_string(),
            (baseline.completed && sharded.completed) as u8 as f64,
        ),
    ];
    for (k, v) in exp::shard::plan_metrics(&fluid.plan) {
        m.push((k.to_string(), v));
    }
    Ok(m)
}

/// `mlcc-repro report TRACE.jsonl --out FILE [--summary FILE] [--name N]`
/// — Ok(true) once written.
fn cmd_report(args: &[String]) -> Result<bool, String> {
    let mut trace: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut summary: Option<PathBuf> = None;
    let mut name: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            "--summary" => {
                summary = Some(PathBuf::from(
                    it.next().ok_or("--summary needs a file path")?,
                ))
            }
            "--name" => name = Some(it.next().ok_or("--name needs a value")?.clone()),
            other if !other.starts_with("--") && trace.is_none() => {
                trace = Some(PathBuf::from(other))
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let trace = trace.ok_or("report needs a JSONL trace file")?;
    let text =
        std::fs::read_to_string(&trace).map_err(|e| format!("reading {}: {e}", trace.display()))?;
    let events = telemetry::parse_jsonl(&text).map_err(|e| e.to_string())?;
    let run_name = name.unwrap_or_else(|| {
        trace
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "run".to_string())
    });
    let out = out.unwrap_or_else(|| trace.with_extension("html"));
    // Offline reports hash the trace content itself — there is no CLI run
    // configuration to hash — and feed the same cross-run warehouse as
    // experiment `--summary` runs, so trend analysis sees both.
    let analysis = diagnostics::analyze(&run_name, &events, &AnalysisConfig::default());
    let note = format!(
        "{} events, {} scenarios",
        events.len(),
        analysis.scenarios.len()
    );
    write_analysis(&analysis, &text, Some(&out), summary.as_deref(), &note)?;
    Ok(true)
}

/// `mlcc-repro explain <experiment|TRACE.jsonl> [run options]`
///
/// Runs the experiment with telemetry forced on (or replays a recorded
/// JSONL trace) and prints the causal-attribution report: per-job blame
/// tables, top contended links, the conservation check, and the verdict
/// against the geometry prediction. Ok(true) when every scenario's blame
/// components sum to the measured iteration times within 1%; Ok(false)
/// says so on stderr.
fn cmd_explain(args: &[String]) -> Result<bool, String> {
    let [target, rest @ ..] = args else {
        return Err("explain needs an experiment name or a JSONL trace file".to_string());
    };
    if target.starts_with("--") {
        return Err("explain needs its target (experiment or trace) first".to_string());
    }
    let opts = parse_opts(rest)?;
    let explainable = || EXPERIMENTS.iter().filter(|e| e.records);
    let row = explainable().find(|e| e.name == target);
    if row.is_none() && !target.ends_with(".jsonl") {
        let names: Vec<&str> = explainable().map(|e| e.name).collect();
        return Err(format!(
            "explain supports {} or a .jsonl trace, not {target:?}",
            names.join("|")
        ));
    }
    check_opts(&format!("explain {target}"), row.as_slice(), &opts, true)?;
    opts.apply_parallelism();

    let mut predicted: std::collections::BTreeMap<String, f64> = Default::default();
    let events: Vec<TimedEvent>;
    let name: String;
    if let Some(row) = row {
        let mut rec = BufferRecorder::new();
        (row.run)(&opts, Some(&mut rec), &mut std::io::sink()).map_err(|e| e.to_string())?;
        events = rec.events().to_vec();
        name = target.clone();
        if row.name == "fig1" {
            let p = exp::fig1::predicted_overlap(&fig1_config(&opts));
            predicted.insert("fig1/fair".to_string(), p);
            predicted.insert("fig1/unfair".to_string(), p);
        }
    } else {
        let path = PathBuf::from(target);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        events = telemetry::parse_jsonl(&text).map_err(|e| e.to_string())?;
        name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
    }

    let cfg = AnalysisConfig {
        predicted_overlap: predicted,
        ..AnalysisConfig::default()
    };
    let analysis = diagnostics::analyze(&name, &events, &cfg);
    let conserved = print_explain(&analysis);
    if !conserved {
        eprintln!("explain: conservation check FAILED");
    }
    Ok(conserved)
}

/// Conservation tolerance: blame components must sum to the measured
/// iteration time within this relative error.
const EXPLAIN_RESIDUAL_TOL: f64 = 0.01;

/// Prints the attribution report; true when conservation holds in every
/// scenario that produced a ledger.
fn print_explain(analysis: &RunAnalysis) -> bool {
    use mlcc::metrics::text_table;
    println!("== explain: {} ==", analysis.name);
    let mut all_conserved = true;
    let mut any_ledger = false;
    for sc in &analysis.scenarios {
        let ledger = &sc.ledger;
        println!();
        println!("scenario {}", sc.name);
        if ledger.jobs.is_empty() {
            println!("  no iteration spans in this scenario (trace predates typed spans?)");
            continue;
        }
        any_ledger = true;
        let mut rows = vec![vec![
            "job".to_string(),
            "wall ms".to_string(),
            "compute ms".to_string(),
            "wait ms".to_string(),
            "solo ms".to_string(),
            "inflation ms".to_string(),
            "inflation %".to_string(),
            "critical path".to_string(),
        ]];
        for (job, jl) in &ledger.jobs {
            let critical = if jl.bound_by_comm > jl.bound_by_compute {
                let link = jl
                    .top_blame()
                    .first()
                    .map(|((link, _), _)| format!("link{link}"))
                    .unwrap_or_else(|| "network".to_string());
                format!("{link} ({}/{})", jl.bound_by_comm, jl.iterations.len())
            } else {
                format!("compute ({}/{})", jl.bound_by_compute, jl.iterations.len())
            };
            rows.push(vec![
                format!("job{job}"),
                format!("{:.3}", jl.wall * 1e3),
                format!("{:.3}", jl.compute * 1e3),
                format!("{:.3}", jl.wait * 1e3),
                format!("{:.3}", jl.solo * 1e3),
                format!("{:.3}", jl.inflation * 1e3),
                format!("{:.1}", jl.inflation_share() * 100.0),
                critical,
            ]);
        }
        for line in text_table(&rows).lines() {
            println!("  {line}");
        }
        let blames: Vec<String> = ledger
            .jobs
            .iter()
            .flat_map(|(job, jl)| {
                jl.top_blame()
                    .into_iter()
                    .map(move |((link, other), secs)| {
                        format!(
                            "  job{job} <- job{other} on link{link}: {:.3} ms",
                            secs * 1e3
                        )
                    })
            })
            .collect();
        if blames.is_empty() {
            println!("  blame ledger: empty (no contention observed)");
        } else {
            println!("  blame ledger:");
            for b in &blames {
                println!("  {b}");
            }
            println!("  top contended links:");
            for lb in ledger.top_links() {
                println!(
                    "    link{}: {:.3} ms total inflation",
                    lb.link,
                    lb.inflation * 1e3
                );
            }
        }
        let residual = ledger.worst_relative_residual();
        let conserved = residual <= EXPLAIN_RESIDUAL_TOL;
        all_conserved &= conserved;
        println!(
            "  conservation: worst relative residual {:.4}% ({}, tolerance {:.1}%)",
            residual * 100.0,
            if conserved { "PASS" } else { "FAIL" },
            EXPLAIN_RESIDUAL_TOL * 100.0
        );
        match ledger.predicted_overlap {
            Some(p) => println!(
                "  geometry: measured overlap {:.3} vs predicted {:.3} -> {}",
                ledger.measured_overlap(),
                p,
                ledger.verdict()
            ),
            None => println!(
                "  geometry: measured overlap {:.3} (no prediction available)",
                ledger.measured_overlap()
            ),
        }
    }
    if !any_ledger {
        println!();
        println!("no attribution possible: the trace carries no span events");
    }
    all_conserved
}

/// Event-stream diff: compares two JSONL traces line by line and reports
/// the first divergent event — its sequence number and both payloads.
/// Ok(true) when the streams are byte-identical.
fn diff_jsonl(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<String, String> {
        std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    // The exporter writes dense positional sequence numbers, so the line
    // index IS the seq; prefer the line's own "seq" field when it parses
    // (a mangled export may disagree, and that disagreement is the news).
    let seq_of = |line: &str, index: usize| -> u64 {
        telemetry::replay::parse_flat_object(line)
            .ok()
            .and_then(|map| map.get("seq").and_then(|v| v.as_u64()))
            .unwrap_or(index as u64)
    };
    for (i, (la, lb)) in a_lines.iter().zip(b_lines.iter()).enumerate() {
        if la != lb {
            println!("DIFF at event seq {}:", seq_of(la, i));
            println!("  {}: {la}", a_path.display());
            println!("  {}: {lb}", b_path.display());
            return Ok(false);
        }
    }
    if a_lines.len() != b_lines.len() {
        let (longer, shorter, extra) = if a_lines.len() > b_lines.len() {
            (a_path, b_path, &a_lines[b_lines.len()..])
        } else {
            (b_path, a_path, &b_lines[a_lines.len()..])
        };
        println!(
            "DIFF at event seq {}: {} ends ({} events), {} continues ({} more)",
            seq_of(extra[0], a_lines.len().min(b_lines.len())),
            shorter.display(),
            a_lines.len().min(b_lines.len()),
            longer.display(),
            extra.len()
        );
        println!("  first extra: {}", extra[0]);
        return Ok(false);
    }
    println!("identical: {} events", a_lines.len());
    Ok(true)
}

/// `mlcc-repro diff A.json B.json [--tolerance F]` — Ok(true) when clean.
/// Two `.jsonl` arguments select the event-stream diff instead.
fn cmd_diff(args: &[String]) -> Result<bool, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                cfg.rel_tol = v.parse().map_err(|_| format!("bad tolerance {v}"))?;
            }
            other if !other.starts_with("--") => files.push(PathBuf::from(other)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("diff needs exactly two RunSummary JSON files".to_string());
    };
    let is_jsonl = |p: &PathBuf| p.extension().is_some_and(|e| e == "jsonl");
    if is_jsonl(a_path) && is_jsonl(b_path) {
        return diff_jsonl(a_path, b_path);
    }
    let load = |p: &PathBuf| -> Result<RunSummary, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        RunSummary::from_json(&text).map_err(|e| format!("parsing {}: {e}", p.display()))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let report = diagnostics::diff(&a, &b, &cfg);
    if report.is_clean() {
        println!(
            "clean: {} metrics within {:.1}% tolerance",
            report.compared,
            cfg.rel_tol * 100.0
        );
        Ok(true)
    } else {
        println!(
            "DIFF: {} shifted, {} only in {}, {} only in {} (of {} compared):",
            report.shifted.len(),
            report.only_in_a.len(),
            a_path.display(),
            report.only_in_b.len(),
            b_path.display(),
            report.compared
        );
        print!("{}", report.render());
        Ok(false)
    }
}

/// `mlcc-repro trend [HISTORY.jsonl] [--last K] [--tolerance F]
/// [--wall-tolerance F] [--experiment NAME]` — Ok(true) when clean.
fn cmd_trend(args: &[String]) -> Result<bool, String> {
    let mut path = PathBuf::from("bench/HISTORY.jsonl");
    let mut cfg = TrendConfig::default();
    let mut experiment: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--last" => {
                let v = it.next().ok_or("--last needs a value")?;
                cfg.last = v.parse().map_err(|_| format!("bad record count {v}"))?;
                if cfg.last < 2 {
                    return Err("--last must be at least 2".to_string());
                }
            }
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                cfg.rel_tol = v.parse().map_err(|_| format!("bad tolerance {v}"))?;
            }
            "--wall-tolerance" => {
                let v = it.next().ok_or("--wall-tolerance needs a value")?;
                cfg.wall_rel_tol = v.parse().map_err(|_| format!("bad tolerance {v}"))?;
            }
            "--experiment" => {
                experiment = Some(it.next().ok_or("--experiment needs a name")?.clone())
            }
            other if !other.starts_with("--") => path = PathBuf::from(other),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut records =
        history::parse_history(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(exp) = &experiment {
        records.retain(|r| &r.experiment == exp);
        if records.is_empty() {
            return Err(format!(
                "{}: no records for experiment {exp:?}",
                path.display()
            ));
        }
    }
    if records.is_empty() {
        return Err(format!("{}: no records", path.display()));
    }
    let report = history::trend(&records, &cfg);
    print!("{}", report.render());
    if report.is_clean() {
        println!("trend clean");
        Ok(true)
    } else {
        println!("TREND: regression(s) beyond tolerance");
        Ok(false)
    }
}

/// Events per category per scenario that the `--flight` dump keeps.
const FLIGHT_PER_CATEGORY: usize = 64;

/// The flight recording of a stream: one [`FlightRing`] per scenario
/// (split on `Scenario` markers, each marker inside the scenario it
/// opens), each cut to whole spans so that `report` reads the dump,
/// scenarios in name order, events in recording order within each.
fn flight_recording(events: &[TimedEvent]) -> Vec<TimedEvent> {
    let mut rings: std::collections::BTreeMap<&str, FlightRing> = Default::default();
    for (scenario, te) in diagnostics::events::label_scenarios(events) {
        rings
            .entry(scenario)
            .or_insert_with(|| FlightRing::new(FLIGHT_PER_CATEGORY))
            .push(te.clone());
    }
    rings
        .values()
        .flat_map(FlightRing::replayable_snapshot)
        .collect()
}

/// How far a recording has got: its scenario count and the scenario
/// holding the furthest simulated timestamp.
fn progress(events: &[TimedEvent]) -> (usize, Option<(&str, simtime::Time)>) {
    let mut scenarios = std::collections::BTreeSet::new();
    let mut furthest: Option<(&str, simtime::Time)> = None;
    for (scenario, te) in diagnostics::events::label_scenarios(events) {
        scenarios.insert(scenario);
        if furthest.is_none_or(|(_, at)| te.at >= at) {
            furthest = Some((scenario, te.at));
        }
    }
    (scenarios.len(), furthest)
}

/// The `--watch` line for a finished experiment row.
fn watch_line(started: Instant, row: &str, rec: &BufferRecorder) {
    let (scenarios, furthest) = progress(rec.events());
    let furthest = furthest
        .map(|(name, at)| format!(" · furthest {name} @ {:.1}ms", at.as_millis_f64()))
        .unwrap_or_default();
    eprintln!(
        "[watch {:5.1}s] {row} done: {} events · {scenarios} scenarios{furthest}",
        started.elapsed().as_secs_f64(),
        rec.len(),
    );
}

/// Judges the `--slo` rules against `analysis` of the recording, writes
/// the `--flight` and `--alerts` dumps, and renders alerts to stderr.
/// Returns the number of SLO breaches.
fn finish_watch(
    opts: &Opts,
    rec: &BufferRecorder,
    analysis: Option<&RunAnalysis>,
) -> Result<usize, String> {
    let alerts: Vec<Alert> = match (&opts.slo, analysis) {
        (Some(rules), Some(analysis)) => diagnostics::judge(rec.events(), analysis, rules),
        _ => Vec::new(),
    };
    for alert in &alerts {
        eprintln!("ALERT {}", alert.render());
    }
    if opts.watch {
        eprintln!(
            "[watch] done: {} events across {} scenarios, {} alert(s)",
            rec.len(),
            progress(rec.events()).0,
            alerts.len()
        );
    }
    if let Some(path) = &opts.flight {
        let flight = flight_recording(rec.events());
        write_file(path, &telemetry::export::jsonl(&flight))?;
        eprintln!(
            "wrote {} (flight-recorder snapshot, {} events)",
            path.display(),
            flight.len()
        );
    }
    if let Some(path) = &opts.alerts {
        let mut content = String::new();
        for alert in &alerts {
            content.push_str(&alert.to_jsonl());
        }
        write_file(path, &content)?;
        eprintln!(
            "wrote {} ({} alert(s) with flight-recorder context)",
            path.display(),
            alerts.len()
        );
    }
    Ok(alerts.len())
}

/// The analysis subcommands: Ok(true) when clean.
type Tool = fn(&[String]) -> Result<bool, String>;
const TOOLS: [(&str, Tool); 4] = [
    ("report", cmd_report),
    ("diff", cmd_diff),
    ("trend", cmd_trend),
    ("explain", cmd_explain),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: mlcc-repro <{}|all> [--iterations N] [--jobs N] [--shards N]\n\
         \x20      [--csv DIR] [--trace FILE]\n\
         \x20      [--metrics] [--profile] [--report FILE] [--summary FILE] [--summary-dir DIR]\n\
         \x20      [--chaos PROFILE|FILE.toml] [--chaos-seed N]\n\
         \x20      [--fork-at DUR] [--fork-replay]\n\
         \x20      [--watch] [--slo RULES.toml] [--alerts FILE] [--flight FILE]\n\
         \x20      mlcc-repro report TRACE.jsonl [--out FILE] [--summary FILE] [--name NAME]\n\
         \x20      mlcc-repro diff A.json B.json [--tolerance F] | diff A.jsonl B.jsonl\n\
         \x20      mlcc-repro trend [HISTORY.jsonl] [--last K] [--tolerance F]\n\
         \x20      [--wall-tolerance F] [--experiment NAME]\n\
         \x20      mlcc-repro explain <EXPERIMENT|TRACE.jsonl> [run options]\n\
         options by experiment, besides {ALWAYS} (`all` takes an option when a member does):\n\
         \x20 (recording = {RECORDING})",
        names.join("|"),
    );
    for e in &EXPERIMENTS {
        let opts = format!("{}{}", e.honours, if e.records { " recording" } else { "" });
        eprintln!(
            "  {:<10} {}",
            e.name,
            if opts.is_empty() { "(none)" } else { &opts }
        );
    }
    eprintln!(
        "exit codes: 0 success, 1 failure (incl. diff/trend/explain findings), 2 usage error, \
         4 SLO breach"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    // Analysis subcommands take their own arguments; Ok(false) is a
    // finding, exit 1 like an error.
    if let Some((_, tool)) = TOOLS.iter().find(|(name, _)| name == cmd) {
        return match tool(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let rows: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| e.name == cmd || (cmd == "all" && e.in_all))
        .collect();
    if rows.is_empty() {
        eprintln!("error: unknown command {cmd}");
        return usage();
    }
    let opts = match parse_opts(rest).and_then(|o| check_opts(cmd, &rows, &o, false).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    opts.apply_parallelism();
    let mut rec = opts.recorder();
    // Runs each experiment, timing it and writing its bench summary. A
    // failed experiment stops `all`; the first error sets the exit code.
    let started = Instant::now();
    let mut failure: Option<String> = None;
    for row in &rows {
        let start = Instant::now();
        match (row.run)(&opts, rec.as_mut(), &mut std::io::stdout()) {
            Ok(mut metrics) => {
                if let Some(dir) = &opts.summary_dir {
                    metrics.push(("parallel.jobs".to_string(), mlcc::parallel::jobs() as f64));
                    if let Err(e) = write_bench(dir, row.name, start.elapsed(), &metrics) {
                        failure.get_or_insert(e);
                    }
                }
            }
            Err(e) => {
                failure.get_or_insert(e.to_string());
                break;
            }
        }
        if let Some(rec) = rec.as_ref().filter(|_| opts.watch) {
            watch_line(started, row.name, rec);
        }
    }
    if let Some(e) = failure {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let Some(rec) = &rec else {
        return ExitCode::SUCCESS;
    };
    // One analysis serves `--report`, `--summary` and `--slo`.
    let analysis = (opts.report.is_some() || opts.summary.is_some() || opts.slo.is_some())
        .then(|| diagnostics::analyze(cmd, rec.events(), &AnalysisConfig::default()));
    if let Err(e) = report(cmd, &opts, rec, analysis.as_ref()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if opts.watching() {
        match finish_watch(&opts, rec, analysis.as_ref()) {
            Ok(0) => {}
            Ok(breaches) => {
                eprintln!("SLO breach: {breaches} alert(s); exiting with code 4");
                return ExitCode::from(4);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every row honours only run options, takes `--chaos-seed` with
    /// `--chaos`, and has a horizon exactly when it honours `--fork-at`.
    #[test]
    fn experiment_rows_are_consistent() {
        let lists = |flags: &str, flag: &str| flags.split(' ').any(|f| f == flag);
        let run_options =
            "--iterations --chaos --chaos-seed --fork-at --fork-replay --shards --csv";
        for e in &EXPERIMENTS {
            for flag in e.honours.split_whitespace() {
                assert!(lists(run_options, flag), "{}: {flag}", e.name);
            }
            let (chaos, seed) = (
                lists(e.honours, "--chaos"),
                lists(e.honours, "--chaos-seed"),
            );
            assert_eq!(chaos, seed, "{}", e.name);
            assert_eq!(
                lists(e.honours, "--fork-at"),
                e.horizon.is_some(),
                "{}",
                e.name
            );
        }
    }

    /// Every flag any command takes: the honour lists, [`ALWAYS`] and
    /// [`RECORDING`].
    fn all_flags() -> Vec<&'static str> {
        let mut flags: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.honours.split_whitespace())
            .chain(ALWAYS.split(' '))
            .chain(RECORDING.split(' '))
            .collect();
        flags.sort_unstable();
        flags.dedup();
        flags
    }

    /// Values at and past the edges of what a flag accepts, plus junk. No
    /// value names a file, so `--chaos` and `--slo` fail their read.
    const VALUES: [&str; 12] = [
        "0",
        "1",
        "-1",
        "",
        "18446744073709551615",
        "18446744073709551616s",
        "18446744073709551615ns",
        "120ms",
        "999s",
        "links",
        "none",
        "no-such-file.toml",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        /// Any argv of known flags, mostly ones the command takes, each
        /// with its value dropped, given once or given twice, parses and
        /// checks to `Ok` or `Err` for every command and for `explain`,
        /// without a panic.
        #[test]
        fn mangled_argv_is_parsed_or_rejected(
            picks in proptest::collection::vec((0usize..64, 0usize..12, 0u8..3), 0..8),
            row in 0usize..15,
        ) {
            let (cmd, rows): (&str, Vec<&Experiment>) = match EXPERIMENTS.get(row) {
                Some(e) => (e.name, vec![e]),
                None => ("all", EXPERIMENTS.iter().filter(|e| e.in_all).collect()),
            };
            let recording = if rows.iter().any(|r| r.records) { RECORDING } else { "" };
            let own: Vec<&str> = rows
                .iter()
                .flat_map(|r| r.honours.split_whitespace())
                .chain(ALWAYS.split(' '))
                .chain(recording.split_whitespace())
                .collect();
            let all = all_flags();
            let mut argv = Vec::new();
            for (flag, value, shape) in picks {
                let flag = match flag % 4 {
                    0 => all[flag % all.len()],
                    _ => own[flag % own.len()],
                };
                for _ in 0..shape.max(1) {
                    argv.push(flag.to_string());
                    if shape != 0 {
                        argv.push(VALUES[value].to_string());
                    }
                }
            }
            if let Ok(opts) = parse_opts(&argv) {
                let _ = check_opts(cmd, &rows, &opts, false);
                let _ = check_opts(cmd, &rows, &opts, true);
            }
        }
    }
}
