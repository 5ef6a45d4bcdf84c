//! `mlcc-repro` — command-line driver for every reproduction experiment.
//!
//! `mlcc-repro` with no arguments prints every command's synopsis and the
//! options each experiment takes, generated from the flag tables
//! ([`FLAGS`], [`REPORT_FLAGS`], [`DIFF_FLAGS`], [`TREND_FLAGS`]) and
//! [`EXPERIMENTS`] that the parser and the option checks read. Commands:
//!
//! ```text
//!   fig1       Fig. 1: bandwidth shares + iteration-time CDFs
//!   fig2       Fig. 2: the sliding effect
//!   table1     Table 1: five job groups, measured + predicted
//!   variants   the congestion-control zoo on the Fig. 1 pair
//!   geometry   Figs. 3–5: circles, rotations, unified circle
//!   adaptive   §4.i  adaptively unfair congestion control
//!   priority   §4.ii switch priority queues
//!   flowsched  §4.iii flow scheduling from rotation angles
//!   cluster    §5    compatibility-aware placement
//!   pipelining extension: bucketized emission widens compatibility
//!   ablations  A1–A3: sector resolution, unfairness strength, placement
//!   chaos      fault-injection sweep: seeds × profiles through the
//!              recovery analyzer
//!   snapshot   fork-from-prefix benchmark: forked vs replayed chaos grid
//!   shard      sharding benchmark: paper-scale fluid + packet runs
//!   all        every row of EXPERIMENTS marked `in_all`, in order
//!   explain    causal attribution of an experiment or a JSONL trace
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
//! breakdown, with a `telemetry.export` row for the trace export when
//! `--trace` is given.
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
//! closing alert count. Both dumps read the same recording as `--trace`,
//! so they are byte-identical at any `--jobs`, and stdout and every other
//! output file are byte-identical with or without these flags.
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

/// The typed value of every experiment flag. An option not given is
/// `None` (or `false`), so the flags given are read back from these
/// fields through [`FLAGS`]; a flag given with its default value counts.
#[derive(Default)]
struct Opts {
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
    chaos: Option<ChaosConfig>,
    chaos_seed: Option<u64>,
    /// Fork the sweep from a shared clean prefix at this simulated time.
    fork_at: Option<Dur>,
    /// Re-simulate the prefix in every cell instead of restoring the
    /// snapshot — the byte-identity baseline for `--fork-at`.
    fork_replay: bool,
    watch: bool,
    slo: Option<SloRules>,
    alerts: Option<PathBuf>,
    flight: Option<PathBuf>,
}

impl Opts {
    /// The flags given, in [`FLAGS`] order.
    fn given(&self) -> impl Iterator<Item = &'static ExperimentFlag> + '_ {
        FLAGS.iter().filter(|f| (f.given)(self))
    }

    /// Whether a flag of one of `classes` was given.
    fn gives(&self, classes: &[Class]) -> bool {
        self.given().any(|f| classes.contains(&f.class))
    }

    /// The `--chaos` config (none by default), re-seeded by `--chaos-seed`.
    fn chaos(&self) -> ChaosConfig {
        let chaos = self.chaos.unwrap_or_else(ChaosConfig::none);
        let seed = self.chaos_seed.unwrap_or(chaos.seed);
        ChaosConfig { seed, ..chaos }
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

/// One flag of a command: its name (`""` for the bare argument), its
/// value's metavar (`None` for a switch) and the parser that stores the
/// typed value in the options `O`, given the flag's name for its errors
/// and its value (`""` for a switch).
struct Flag<O> {
    name: &'static str,
    value: Option<&'static str>,
    set: fn(&mut O, &'static str, &str) -> Result<(), String>,
}

/// Which experiment commands take a flag.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// A run option: taken by the rows whose `honours` list names it.
    Run,
    /// Taken by every experiment command.
    Always,
    /// Taken by the rows that record telemetry; it asks for a recorder.
    Recording,
    /// A recording flag read once the experiments finish.
    Watching,
}
use Class::*;

/// One experiment flag: which commands take it, and whether [`Opts`]
/// holds it.
struct ExperimentFlag {
    class: Class,
    given: fn(&Opts) -> bool,
    flag: Flag<Opts>,
}

/// A [`FLAGS`] row whose parser stores `$parse(flag, value)` (the value
/// as a path without `$parse`) in the `Option` field `Opts::$field`, which
/// then says whether it was given. A switch (no metavar) sets a `bool`.
#[rustfmt::skip]
macro_rules! flag {
    ($class:ident, $name:literal, $value:literal, $field:ident) => {
        flag!($class, $name, $value, $field, |_, v: &str| Ok::<PathBuf, String>(v.into()))
    };
    ($class:ident, $name:literal, $field:ident) => {
        ExperimentFlag { class: $class, given: |o| o.$field,
            flag: Flag { name: $name, value: None, set: |o, _, _| put(&mut o.$field, true) } }
    };
    ($class:ident, $name:literal, $value:literal, $field:ident, $parse:expr) => {
        ExperimentFlag { class: $class, given: |o| o.$field.is_some(), flag: Flag { name: $name,
            value: Some($value), set: |o, f, v| put(&mut o.$field, Some(($parse)(f, v)?)) } }
    };
}

/// Every experiment flag, in usage order. The parser, the option checks,
/// the recorder and the usage text all read this table.
#[rustfmt::skip]
static FLAGS: [ExperimentFlag; 18] = [
    flag!(Run, "--iterations", "N", iterations, |f, v| count(f, v, "iteration", 1, MAX_ITERATIONS)),
    flag!(Always, "--jobs", "N", jobs, |f, v| count(f, v, "job", 1, usize::MAX)),
    flag!(Run, "--shards", "N", shards, |f, v| count(f, v, "shard", 1, usize::MAX)),
    flag!(Run, "--csv", "DIR", csv),
    flag!(Recording, "--trace", "FILE", trace),
    flag!(Recording, "--metrics", metrics),
    flag!(Recording, "--profile", profile),
    flag!(Recording, "--report", "FILE", report),
    flag!(Recording, "--summary", "FILE", summary),
    flag!(Always, "--summary-dir", "DIR", summary_dir),
    flag!(Run, "--chaos", "PROFILE|FILE.toml", chaos, parse_chaos),
    flag!(Run, "--chaos-seed", "N", chaos_seed, |_, v: &str| v.parse().map_err(|_| format!("bad chaos seed {v}"))),
    flag!(Run, "--fork-at", "DUR", fork_at, duration),
    flag!(Run, "--fork-replay", fork_replay),
    flag!(Watching, "--watch", watch),
    flag!(Watching, "--slo", "RULES.toml", slo, parse_slo),
    flag!(Watching, "--alerts", "FILE", alerts),
    flag!(Watching, "--flight", "FILE", flight),
];

/// Stores a parsed value.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// Parses `flag`'s count `v` (of `noun`s), which must lie in `min..=max`.
fn count(flag: &str, v: &str, noun: &str, min: usize, max: usize) -> Result<usize, String> {
    let n: usize = v.parse().map_err(|_| format!("bad {noun} count {v}"))?;
    match n {
        _ if n < min => Err(format!("{flag} must be at least {min}")),
        _ if n > max => Err(format!("{flag} must be at most {max}")),
        _ => Ok(n),
    }
}

/// Parses `flag`'s positive simulated duration `v`, with a unit suffix:
/// `250us`, `120ms`, `2s`, or bare nanoseconds (`500000ns` or `500000`).
fn duration(flag: &str, v: &str) -> Result<Dur, String> {
    let units = [
        ("us", 1_000u64),
        ("ms", 1_000_000),
        ("ns", 1),
        ("s", 1_000_000_000),
    ];
    let unit = |&(suffix, mult)| Some((v.strip_suffix(suffix)?, mult));
    let (digits, mult) = units.iter().find_map(unit).unwrap_or((v, 1));
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("{flag} {v}: expected a duration like 250us, 120ms or 2s"))?;
    match n.checked_mul(mult) {
        None => Err(format!("{flag} {v}: duration overflows")),
        Some(0) => Err(format!("{flag} must be positive")),
        Some(ns) => Ok(Dur::from_nanos(ns)),
    }
}

/// Parses `flag`'s relative tolerance `v`. A NaN tolerance would pass
/// every comparison and an infinite one every shift, turning the gate it
/// feeds off; a negative one would flag every metric.
fn tolerance(flag: &str, v: &str) -> Result<f64, String> {
    let t: f64 = v.parse().map_err(|_| format!("bad tolerance {v}"))?;
    let gate = t.is_finite() && t >= 0.0;
    gate.then_some(t)
        .ok_or_else(|| format!("{flag} must be finite and not negative, not {v}"))
}

/// Resolves a `--chaos` argument: a builtin profile name
/// ([`ChaosConfig::profile`]) or a path to a chaos TOML file.
fn parse_chaos(flag: &str, value: &str) -> Result<ChaosConfig, String> {
    if let Some(cfg) = ChaosConfig::profile(value) {
        return Ok(cfg);
    }
    let text = std::fs::read_to_string(value).map_err(|e| {
        format!("{flag} {value}: not a builtin profile, and reading it failed: {e}")
    })?;
    faults::from_toml_str(&text).map_err(|e| format!("{flag} {value}: {e}"))
}

/// Loads the `--slo` rules file `value`.
fn parse_slo(flag: &str, value: &str) -> Result<SloRules, String> {
    let text = std::fs::read_to_string(value)
        .map_err(|e| format!("{flag} {value}: reading it failed: {e}"))?;
    slo_from_toml_str(&text).map_err(|e| format!("{flag} {value}: {e}"))
}

/// What the error for a flag given without its value says it needs.
fn needs(metavar: &str) -> &'static str {
    match metavar {
        "DIR" => "a directory",
        "FILE" => "a file path",
        "DUR" => "a duration (e.g. 120ms)",
        "PROFILE|FILE.toml" => "a profile name or file",
        "RULES.toml" => "a rules TOML file",
        "EXPERIMENT" => "a name",
        _ => "a value",
    }
}

/// Parses `args` over a command's flag table. A flag's value is the
/// next argument (none for a switch); a bare argument is the value of the
/// row named `""`, if the command takes one.
fn parse<'a, O: Default + 'a>(
    args: &[String],
    flags: impl Iterator<Item = &'a Flag<O>> + Clone,
) -> Result<O, String> {
    let mut o = O::default();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        let bare = !a.starts_with("--");
        let f = (flags.clone().find(|f| f.name == if bare { "" } else { a }))
            .ok_or_else(|| format!("unknown option {a}"))?;
        let v = match f.value {
            _ if bare => a,
            Some(metavar) => (it.next()).ok_or_else(|| format!("{a} needs {}", needs(metavar)))?,
            None => "",
        };
        (f.set)(&mut o, f.name, v)?;
    }
    Ok(o)
}

/// The synopsis of a flag table after `head`, wrapped at 80 columns: a
/// bare argument as its metavar, each flag as `[--flag VALUE]`.
fn synopsis<'a, O: 'a>(head: &str, flags: impl Iterator<Item = &'a Flag<O>>) -> String {
    let mut out = head.to_string();
    for f in flags {
        let item = match f.value {
            Some(v) if f.name.is_empty() => v.to_string(),
            Some(v) => format!("[{} {v}]", f.name),
            None => format!("[{}]", f.name),
        };
        let line = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
        let wrap = line + item.len() >= 80;
        out += if wrap { "\n       " } else { " " };
        out += &item;
    }
    out
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let o = parse(args, FLAGS.iter().map(|f| &f.flag))?;
    if o.chaos_seed.is_some() && o.chaos.is_none_or(|c| c.is_none()) {
        return Err("--chaos-seed needs a --chaos profile that injects faults".to_string());
    }
    if o.fork_replay && o.fork_at.is_none() {
        return Err("--fork-replay requires --fork-at".to_string());
    }
    Ok(o)
}

/// Bench metrics one experiment contributes to its `BENCH_<name>.json`.
type BenchMetrics = Vec<(String, f64)>;

/// Bench metrics from `(key, value)` pairs.
fn metrics<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> BenchMetrics {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// What running an experiment (or one of its steps) yields.
type RunResult<T = BenchMetrics> = Result<T, Box<dyn Error>>;

/// One experiment command.
struct Experiment {
    name: &'static str,
    /// Warmup iterations `--iterations` must exceed (0 where the
    /// experiment falls back to every completed iteration).
    warmup: fn() -> usize,
    /// The run options it honours, as a space-separated flag list. It
    /// also takes the `Always` flags of [`FLAGS`], and the `Recording`
    /// and `Watching` ones when it records.
    honours: &'static str,
    /// The run's simulated horizon, which `--fork-at` must fall before;
    /// set exactly when `honours` lists `--fork-at`.
    horizon: Option<fn(&Opts) -> Dur>,
    /// Whether it records telemetry: it takes the recording flags, and
    /// `explain` can attribute it.
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

/// Whether one of `rows` takes flag `f`. `explain` takes the run options
/// and `--jobs`, but no recording flag and no flag that names an output
/// directory.
fn takes(rows: &[&Experiment], f: &ExperimentFlag, explain: bool) -> bool {
    let taken = match f.class {
        Run => rows
            .iter()
            .any(|r| r.honours.split(' ').any(|h| h == f.flag.name)),
        Always => true,
        Recording | Watching => !explain && rows.iter().any(|r| r.records),
    };
    taken && !(explain && f.flag.value == Some("DIR"))
}

/// Checks the options given for `cmd` against the experiments it runs:
/// one of `rows` must take each flag, `--iterations` must exceed every
/// warmup, and `--fork-at` fall before every horizon.
fn check_opts(cmd: &str, rows: &[&Experiment], o: &Opts, explain: bool) -> Result<(), String> {
    for f in o.given() {
        if !takes(rows, f, explain) {
            return Err(format!("{cmd} does not take {}", f.flag.name));
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
        // fig1 applies its chaos at the fork barrier, after every job has
        // started (`shard` applies it from t = 0 and takes late arrivals).
        if r.name == "fig1" && o.chaos().churn.arrival_prob > 0.0 {
            let late = "a --chaos config with late arrivals (arrival_prob > 0)";
            return Err(format!(
                "fig1: --fork-at cannot apply {late} at the fork barrier"
            ));
        }
    }
    Ok(())
}

/// Reads the text file at `path`.
fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
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
        opts.iterations,
        opts.chaos(),
        opts.fork_at,
        opts.fork_replay
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
    let mut prof = Profiler::new();
    if let Some(path) = &opts.trace {
        let jsonl = path.extension().is_some_and(|e| e == "jsonl");
        let t0 = std::time::Instant::now();
        let (content, kind) = if jsonl {
            (telemetry::export::jsonl(rec.events()), "JSONL")
        } else {
            let chrome = telemetry::export::chrome_trace(rec.events());
            (
                chrome,
                "Chrome trace — open in Perfetto or chrome://tracing",
            )
        };
        prof.add_span("telemetry.export", t0.elapsed(), rec.len() as u64);
        write_file(path, &content)?;
        println!("wrote {} ({} events, {kind})", path.display(), rec.len());
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
        chaos: o.chaos(),
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
    // Left out when the pair never interleaved.
    let interleaved = r.interleaved_at();
    let m = interleaved.map(|i| ("interleaved_at_iteration".to_string(), i as f64));
    Ok(m.into_iter().collect())
}

fn run_table1(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let cfg = exp::table1::Table1Config {
        iterations: o.iterations.unwrap_or(30),
        chaos: o.chaos(),
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
        let header = "job,fair_ms,unfair_ms,speedup,group_compatible";
        let mut rows = vec![header.split(',').map(String::from).collect()];
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
            let (fair, unfair) = (row.fair.as_millis_f64(), row.unfair.as_millis_f64());
            let cells = [
                ("fair_ms", fair),
                ("unfair_ms", unfair),
                ("speedup", row.speedup.0),
            ];
            m.extend(cells.map(|(k, v)| (format!("group{gi}.job{ri}.{k}"), v)));
        }
    }
    Ok(m)
}

fn run_variants(o: &Opts, rec: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let mut cfg = exp::variants::VariantsConfig::default();
    cfg.fig1.iterations = o.iterations.unwrap_or(30);
    cfg.fig1.chaos = o.chaos();
    writeln!(
        out,
        "== Congestion-control zoo ({} cells, {} iterations each) ==",
        cfg.cells.len(),
        cfg.fig1.iterations
    )?;
    let r = with_recorder!(rec, |rec| exp::variants::run_traced(&cfg, rec));
    writeln!(out, "{}", r.render())?;
    if let Some(dir) = &o.csv {
        let header = "variant,mean_iter_ms,median_iter_ms,jain,time_to_interleave_ms";
        let mut rows = vec![header.split(',').map(String::from).collect()];
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
        // `time_to_interleave_ms` and `speedup_vs_fair` are left out where
        // they do not exist.
        let speedup = r.speedup_vs_fair(&v.name).filter(|_| v.name != "fair");
        let cells = [
            ("mean_iter_ms", Some(v.mean_iter_ms)),
            ("median_iter_ms", Some(v.median_iter_ms)),
            ("jain", Some(v.jain)),
            ("time_to_interleave_ms", v.time_to_interleave_ms),
            ("speedup_vs_fair", speedup),
        ];
        let present = cells.into_iter().filter_map(|(k, x)| Some((k, x?)));
        m.extend(present.map(|(k, x)| (format!("{}.{k}", v.name), x)));
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
    Ok(metrics([
        ("fig4.compatible", f4.verdict.is_compatible() as u8 as f64),
        ("fig5.rotation_degrees", j2_rotation),
    ]))
}

fn run_ablations(_: &Opts, _: Option<&mut BufferRecorder>, out: &mut dyn Write) -> RunResult {
    let r = exp::ablation::run();
    write!(out, "{}", r.render())?;
    // Left out when no sector count is compatible.
    let compatible_at = exp::ablation::SECTORS
        .iter()
        .zip(&r.sectors)
        .find(|(_, v)| v.is_compatible())
        .map(|(&n, _)| ("a1.min_compatible_sectors".to_string(), n as f64));
    let mut m: BenchMetrics = compatible_at.into_iter().collect();
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
        let prioritized = r.prioritized[i].median_ms();
        m.push((format!("job{i}.prioritized_ms"), prioritized));
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
    Ok(metrics([
        ("monolithic.max_tax", r.monolithic.max_tax()),
        ("pipelined.max_tax", r.pipelined.max_tax()),
    ]))
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
    Ok(metrics([
        ("locality.mean_slowdown", mean(&r.locality.slowdowns)),
        (
            "compatibility.mean_slowdown",
            mean(&r.compatibility.slowdowns),
        ),
    ]))
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
        let cell = [
            ("fault_windows", c.recovery.fault_windows.len() as f64),
            ("incidents", c.incidents() as f64),
            ("worst_recovery_ms", c.worst_recovery_ms()),
            ("recovered", c.recovery.all_recovered() as u8 as f64),
            ("compat_break", c.recovery.compatibility_break as u8 as f64),
        ];
        m.extend(cell.map(|(k, v)| (format!("{key}.{k}"), v)));
    }
    m.push(("all_recovered".to_string(), r.all_recovered() as u8 as f64));
    Ok(m)
}

/// The fork-from-prefix benchmark: runs a 16-cell chaos grid (4 seeds ×
/// 4 arrival-free profiles) twice — forked from a shared clean-prefix
/// snapshot, then with the prefix replayed per cell — byte-compares the
/// two telemetry streams, and reports the wall-clock speedup. The
/// `speedup` and `byte_identical` metrics in `BENCH_snapshot.json` are
/// the gate for the snapshot/restore machinery, beside the work the fork
/// saves: `forked_steps` and `replayed_steps` are each sweep's rate-engine
/// steps (`rate_steps_total`) across its cells; the shared prefix, run
/// once outside the cells, is in neither.
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
    let steps = |rec: &BufferRecorder| rec.counts().get("rate_steps_total").copied().unwrap_or(0);
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
    Ok(metrics([
        ("cells", forked.cells.len() as f64),
        ("fork_at_ms", fork_at.as_millis_f64()),
        ("forked_wall_secs", forked_wall.as_secs_f64()),
        ("replay_wall_secs", replay_wall.as_secs_f64()),
        ("speedup", speedup),
        ("forked_steps", steps(&forked_rec) as f64),
        ("replayed_steps", steps(&replay_rec) as f64),
        ("byte_identical", byte_identical as u8 as f64),
        ("all_recovered", forked.all_recovered() as u8 as f64),
    ]))
}

fn shard_config(o: &Opts) -> exp::shard::ShardConfig {
    exp::shard::ShardConfig {
        iterations: o.iterations.unwrap_or(4),
        chaos: o.chaos(),
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

    let completed = baseline.completed && sharded.completed;
    let m = [
        ("config.shards", threads as f64),
        ("unsharded_wall_secs", unsharded_wall.as_secs_f64()),
        ("sharded_wall_secs", sharded_wall.as_secs_f64()),
        ("sharded1_wall_secs", sharded1_wall.as_secs_f64()),
        ("packet_wall_secs", packet_wall.as_secs_f64()),
        ("speedup", speedup),
        ("global_over_sharded1", global_over_sharded1),
        ("global_solves", global_solves as f64),
        ("sharded1_solves", sharded1_solves as f64),
        ("byte_identical", byte_identical as u8 as f64),
        ("stats_match", stats_match as u8 as f64),
        ("completed", completed as u8 as f64),
    ];
    Ok(metrics(
        m.into_iter().chain(exp::shard::plan_metrics(&fluid.plan)),
    ))
}

/// `report`'s options: the trace it reads, then its flags.
#[derive(Default)]
struct ReportArgs {
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    summary: Option<PathBuf>,
    name: Option<String>,
}

#[rustfmt::skip]
static REPORT_FLAGS: [Flag<ReportArgs>; 4] = [
    Flag { name: "", value: Some("TRACE.jsonl"), set: |a, _, v| match a.trace {
        None => put(&mut a.trace, Some(v.into())),
        Some(_) => Err(format!("unknown option {v}")),
    } },
    Flag { name: "--out", value: Some("FILE"), set: |a, _, v| put(&mut a.out, Some(v.into())) },
    Flag { name: "--summary", value: Some("FILE"), set: |a, _, v| put(&mut a.summary, Some(v.into())) },
    Flag { name: "--name", value: Some("NAME"), set: |a, _, v| put(&mut a.name, Some(v.into())) },
];

/// `mlcc-repro report TRACE.jsonl --out FILE [--summary FILE] [--name N]`
/// — Ok(true) once written.
fn cmd_report(args: &[String]) -> Result<bool, String> {
    let a = parse(args, REPORT_FLAGS.iter())?;
    let trace = a.trace.ok_or("report needs a JSONL trace file")?;
    let text = read(&trace)?;
    let events = telemetry::parse_jsonl(&text).map_err(|e| e.to_string())?;
    let run_name = a.name.unwrap_or_else(|| {
        trace
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "run".to_string())
    });
    let out = a.out.unwrap_or_else(|| trace.with_extension("html"));
    // Offline reports hash the trace content itself — there is no CLI run
    // configuration to hash — and feed the same cross-run warehouse as
    // experiment `--summary` runs, so trend analysis sees both.
    let analysis = diagnostics::analyze(&run_name, &events, &AnalysisConfig::default());
    let note = format!(
        "{} events, {} scenarios",
        events.len(),
        analysis.scenarios.len()
    );
    write_analysis(&analysis, &text, Some(&out), a.summary.as_deref(), &note)?;
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
        let text = read(&path)?;
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
        let header =
            "job,wall ms,compute ms,wait ms,solo ms,inflation ms,inflation %,critical path";
        let mut rows = vec![header.split(',').map(String::from).collect()];
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
            let secs = [jl.wall, jl.compute, jl.wait, jl.solo, jl.inflation];
            let ms = secs.map(|s| format!("{:.3}", s * 1e3));
            let share = format!("{:.1}", jl.inflation_share() * 100.0);
            rows.push([&[format!("job{job}")][..], &ms, &[share, critical]].concat());
        }
        for line in text_table(&rows).lines() {
            println!("  {line}");
        }
        let blames: Vec<String> = (ledger.jobs.iter())
            .flat_map(|(job, jl)| jl.top_blame().into_iter().map(move |b| (job, b)))
            .map(|(job, ((link, other), secs))| {
                format!(
                    "  job{job} <- job{other} on link{link}: {:.3} ms",
                    secs * 1e3
                )
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

/// `diff`'s options: the files it compares, then its flags.
#[derive(Default)]
struct DiffArgs {
    files: Vec<PathBuf>,
    cfg: DiffConfig,
}

#[rustfmt::skip]
static DIFF_FLAGS: [Flag<DiffArgs>; 2] = [
    Flag { name: "", value: Some("A.json B.json"), set: |a, _, v| { a.files.push(v.into()); Ok(()) } },
    Flag { name: "--tolerance", value: Some("F"), set: |a, f, v| put(&mut a.cfg.rel_tol, tolerance(f, v)?) },
];

/// `mlcc-repro diff A.json B.json [--tolerance F]` — Ok(true) when clean.
/// Two `.jsonl` arguments select the event-stream diff instead.
fn cmd_diff(args: &[String]) -> Result<bool, String> {
    let DiffArgs { files, cfg } = parse(args, DIFF_FLAGS.iter())?;
    let [a_path, b_path] = files.as_slice() else {
        return Err("diff needs exactly two RunSummary JSON files".to_string());
    };
    let is_jsonl = |p: &PathBuf| p.extension().is_some_and(|e| e == "jsonl");
    if is_jsonl(a_path) && is_jsonl(b_path) {
        return diff_jsonl(a_path, b_path);
    }
    let load = |p: &PathBuf| -> Result<RunSummary, String> {
        RunSummary::from_json(&read(p)?).map_err(|e| format!("parsing {}: {e}", p.display()))
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

/// `trend`'s options: the warehouse it reads, then its flags.
#[derive(Default)]
struct TrendArgs {
    history: Option<PathBuf>,
    cfg: TrendConfig,
    experiment: Option<String>,
}

#[rustfmt::skip]
static TREND_FLAGS: [Flag<TrendArgs>; 5] = [
    Flag { name: "", value: Some("[HISTORY.jsonl]"), set: |a, _, v| put(&mut a.history, Some(v.into())) },
    Flag { name: "--last", value: Some("K"), set: |a, f, v| put(&mut a.cfg.last, count(f, v, "record", 2, usize::MAX)?) },
    Flag { name: "--tolerance", value: Some("F"), set: |a, f, v| put(&mut a.cfg.rel_tol, tolerance(f, v)?) },
    Flag { name: "--wall-tolerance", value: Some("F"),
        set: |a, f, v| put(&mut a.cfg.wall_rel_tol, tolerance(f, v)?) },
    Flag { name: "--experiment", value: Some("EXPERIMENT"), set: |a, _, v| put(&mut a.experiment, Some(v.into())) },
];

/// `mlcc-repro trend [HISTORY.jsonl] [--last K] [--tolerance F]
/// [--wall-tolerance F] [--experiment EXPERIMENT]` — Ok(true) when clean.
fn cmd_trend(args: &[String]) -> Result<bool, String> {
    let a = parse(args, TREND_FLAGS.iter())?;
    let path = a.history.unwrap_or_else(|| "bench/HISTORY.jsonl".into());
    let text = read(&path)?;
    let mut records =
        history::parse_history(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(exp) = &a.experiment {
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
    let report = history::trend(&records, &a.cfg);
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
        let content: String = alerts.iter().map(Alert::to_jsonl).collect();
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
    let head = format!("usage: mlcc-repro <{}|all>", names.join("|"));
    let tool = |name: &str| format!("       mlcc-repro {name}");
    eprintln!("{}", synopsis(&head, FLAGS.iter().map(|f| &f.flag)));
    eprintln!("{}", synopsis(&tool("report"), REPORT_FLAGS.iter()));
    let diff = synopsis(&tool("diff"), DIFF_FLAGS.iter());
    eprintln!("{diff} | diff A.jsonl B.jsonl");
    eprintln!("{}", synopsis(&tool("trend"), TREND_FLAGS.iter()));
    eprintln!("{} <EXPERIMENT|TRACE.jsonl> [run options]", tool("explain"));
    let of = |classes: &[Class]| -> Vec<&str> {
        let flags = FLAGS.iter().filter(|f| classes.contains(&f.class));
        flags.map(|f| f.flag.name).collect()
    };
    eprintln!(
        "options by experiment, besides {} (`all` takes an option when a member does):\n\
         \x20 (recording = {})",
        of(&[Always]).join(" "),
        of(&[Recording, Watching]).join(" "),
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
    // Every recording flag asks for a recorder.
    let mut rec = opts.gives(&[Recording, Watching]).then(BufferRecorder::new);
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
    if opts.gives(&[Watching]) {
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
        let run_options: Vec<&str> = FLAGS
            .iter()
            .filter(|f| f.class == Run)
            .map(|f| f.flag.name)
            .collect();
        for e in &EXPERIMENTS {
            for flag in e.honours.split_whitespace() {
                assert!(run_options.contains(&flag), "{}: {flag}", e.name);
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

    /// Each flag, given alone with a valid value (its default one where
    /// it has a default), reads back from the typed options as exactly
    /// itself: each row's `given` reads the field its parser writes.
    #[test]
    fn each_flag_reads_back_as_given() {
        let slo = std::env::temp_dir().join(format!("mlcc_flags_{}.toml", std::process::id()));
        std::fs::write(&slo, "min_jain = 0.9\n").unwrap();
        for f in &FLAGS {
            let value = match f.flag.value {
                None => None,
                Some("N") => Some("3"),
                Some("DUR") => Some("1ms"),
                Some("PROFILE|FILE.toml") => Some("none"),
                Some("RULES.toml") => Some(slo.to_str().unwrap()),
                Some(_) => Some("out"),
            };
            let argv: Vec<String> = [Some(f.flag.name), value]
                .into_iter()
                .flatten()
                .map(String::from)
                .collect();
            let o = parse(&argv, FLAGS.iter().map(|f| &f.flag)).unwrap();
            let given: Vec<&str> = o.given().map(|g| g.flag.name).collect();
            assert_eq!(given, [f.flag.name], "{argv:?}");
        }
        let _ = std::fs::remove_file(&slo);
    }

    /// `--fork-at` with a chaos config that draws late arrivals is
    /// rejected where the chaos applies at the fork barrier (fig1) and
    /// taken where it applies from t = 0 (shard).
    #[test]
    fn late_arrivals_fork_only_from_t_zero() {
        let argv: Vec<String> = ["--chaos", "mixed", "--fork-at", "1ms"]
            .map(String::from)
            .to_vec();
        let opts = parse_opts(&argv).unwrap();
        let row = |name: &str| EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        let err = check_opts("fig1", &[row("fig1")], &opts, false).unwrap_err();
        assert!(err.contains("late arrivals"), "{err}");
        check_opts("shard", &[row("shard")], &opts, false).unwrap();
    }

    /// Values at and past the edges of what a flag accepts, plus junk. No
    /// value names a file, so `--chaos` and `--slo` fail their read.
    const VALUES: [&str; 16] = [
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
        "nan",
        "inf",
        "0.05",
        "b.jsonl",
    ];

    /// Draws an argv from `flags`: each pick is a flag with its value
    /// dropped, given once or given twice, or a bare value.
    fn draw(flags: &[&str], picks: &[(usize, usize, u8)]) -> Vec<String> {
        let mut argv = Vec::new();
        for &(flag, value, shape) in picks {
            if shape == 3 {
                argv.push(VALUES[value].to_string());
                continue;
            }
            for _ in 0..shape.max(1) {
                argv.push(flags[flag % flags.len()].to_string());
                if shape != 0 {
                    argv.push(VALUES[value].to_string());
                }
            }
        }
        argv
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        /// Any argv of known flags, mostly ones the command takes, each
        /// with its value dropped, given once or given twice, parses and
        /// checks to `Ok` or `Err` for every command and for `explain`,
        /// without a panic.
        #[test]
        fn mangled_argv_is_parsed_or_rejected(
            picks in proptest::collection::vec((0usize..64, 0usize..VALUES.len(), 0u8..3), 0..8),
            row in 0usize..15,
        ) {
            let (cmd, rows): (&str, Vec<&Experiment>) = match EXPERIMENTS.get(row) {
                Some(e) => (e.name, vec![e]),
                None => ("all", EXPERIMENTS.iter().filter(|e| e.in_all).collect()),
            };
            let all: Vec<&str> = FLAGS.iter().map(|f| f.flag.name).collect();
            let own: Vec<&str> = FLAGS
                .iter()
                .filter(|f| takes(&rows, f, false))
                .map(|f| f.flag.name)
                .collect();
            let mut argv = Vec::new();
            for pick in picks {
                argv.extend(draw(if pick.0 % 4 == 0 { &all } else { &own }, &[pick]));
            }
            if let Ok(opts) = parse_opts(&argv) {
                let _ = check_opts(cmd, &rows, &opts, false);
                let _ = check_opts(cmd, &rows, &opts, true);
            }
        }

        /// Any argv of `report`, `diff` or `trend` flags (and an unknown
        /// one) and bare values parses to `Ok` or `Err` without a panic,
        /// and every tolerance it accepts is finite and not negative.
        #[test]
        fn mangled_tool_argv_is_parsed_or_rejected(
            picks in proptest::collection::vec((0usize..8, 0usize..VALUES.len(), 0u8..4), 0..8),
            tool in 0usize..3,
        ) {
            let gate = |t: f64| t.is_finite() && t >= 0.0;
            let mut flags: Vec<&str> = match tool {
                0 => REPORT_FLAGS.iter().map(|f| f.name).filter(|f| !f.is_empty()).collect(),
                1 => DIFF_FLAGS.iter().map(|f| f.name).filter(|f| !f.is_empty()).collect(),
                _ => TREND_FLAGS.iter().map(|f| f.name).filter(|f| !f.is_empty()).collect(),
            };
            flags.push("--bogus");
            let argv = draw(&flags, &picks);
            match tool {
                0 => {
                    let _ = parse(&argv, REPORT_FLAGS.iter());
                }
                1 => {
                    if let Ok(a) = parse(&argv, DIFF_FLAGS.iter()) {
                        prop_assert!(gate(a.cfg.rel_tol), "{argv:?}");
                    }
                }
                _ => {
                    if let Ok(a) = parse(&argv, TREND_FLAGS.iter()) {
                        prop_assert!(gate(a.cfg.rel_tol) && gate(a.cfg.wall_rel_tol), "{argv:?}");
                        prop_assert!(a.cfg.last >= 2, "{argv:?}");
                    }
                }
            }
        }
    }
}
