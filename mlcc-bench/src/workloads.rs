//! The four workloads, run through the experiments' public entry points.
//!
//! Every workload starts from the experiments' own `Default` configs and
//! overrides only its size and the start offsets the seed draws, so a
//! change to a default is measured the way a CLI user meets it. Each call
//! into the library is one *operation*: it runs under `catch_unwind`, its
//! simulated results are checked, and a panic or a failed check counts
//! the operation as failed instead of ending the pass.

use crate::calib::Calibrator;
use crate::reference::{Reference, FIDELITY_LIMIT};
use crate::trace::{LayerRecorder, Tracer};
use dcqcn::{CcVariant, DcqcnParams};
use diagnostics::AnalysisConfig;
use eventsim::{EventQueue, Rng};
use mlcc::experiments::chaos::{self, ChaosSweepConfig};
use mlcc::experiments::fig1::{self, Fig1Config, MatrixCell};
use mlcc::experiments::shard::{self, FluidScenario, PacketScenario, ShardConfig};
use mlcc::experiments::table1::{self, Table1Config};
use mlcc::experiments::variants::VariantsConfig;
use mlcc::JobStats;
use netsim::alloc::{weighted_max_min_into, AllocScratch, FlowDemand};
use netsim::rate::{RateJob, RateSimulator};
use netsim::snapshot::Snapshottable;
use simtime::{Bandwidth, Dur, Time};
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use telemetry::{BufferRecorder, ForkableRecorder, NoopRecorder};
use topology::{partition, subgraph, LinkId, ShardPlan};

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig1 + Table 1 + the controller zoo on the rate engine.
    PaperRate,
    /// The paper-scale fluid cluster, solved globally and sharded.
    FluidCluster,
    /// Replicas of the Table 1 packet rotation mix.
    PacketMix,
    /// The forked chaos grid plus the telemetry round trip.
    ChaosTrace,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperRate,
        Workload::FluidCluster,
        Workload::PacketMix,
        Workload::ChaosTrace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRate => "paper_rate",
            Workload::FluidCluster => "fluid_cluster",
            Workload::PacketMix => "packet_mix",
            Workload::ChaosTrace => "chaos_trace",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a pass does: the benchmark's sizes, or a reduced size
/// that keeps the test suite fast. References exist for `Full` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Per-layer metric names a traced pass reports, in report order. Each is
/// 0 on a workload that never reaches its layer. The last declared one,
/// `bench.trace_overhead`, needs the untraced passes too, so the runner
/// adds it.
pub const PER_LAYER: [&str; 26] = [
    "netsim.rate.steps",
    "netsim.rate.busy_s",
    "netsim.rate.ns_per_step",
    "dcqcn.ecn_marks",
    "dcqcn.cnps",
    "dcqcn.rate_changes",
    "dcqcn.advance_ns",
    "netsim.fluid.events",
    "netsim.fluid.busy_s",
    "netsim.fluid.us_per_event",
    "netsim.alloc.solves",
    "netsim.alloc.global_us",
    "netsim.alloc.component_us",
    "topology.partition_ms",
    "netsim.packet.events",
    "netsim.packet.busy_s",
    "netsim.packet.ns_per_event",
    "eventsim.queue_op_ns",
    "netsim.snapshot.take_us",
    "netsim.snapshot.restore_us",
    "telemetry.events",
    "telemetry.export_s",
    "telemetry.export_mb",
    "telemetry.replay_s",
    "diagnostics.analyze_s",
    "mlcc.self_s",
];

/// What one pass produced.
#[derive(Debug)]
pub struct PassOutput {
    pub attempted: u64,
    /// One `operation: reason` line per failed operation.
    pub failures: Vec<String>,
    /// Host time of each operation, in the order they ran.
    pub op_walls: Vec<Duration>,
    /// Seconds of the [`Calibrator`] loop just before each operation and,
    /// last, just after the final one.
    pub op_calib: Vec<f64>,
    /// Simulated job-iterations the successful operations completed.
    pub job_iters: u64,
    /// Every simulated result checked, keyed as in the references.
    pub observed: Vec<(String, f64)>,
    /// Largest relative deviation from the reference; `None` without one.
    pub fidelity_err: Option<f64>,
    /// [`PER_LAYER`] metrics (traced passes only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// The bench spans (empty for an untraced pass).
    pub tracer: Tracer,
}

impl PassOutput {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Runs one pass of `workload`. `on_ready` is called once, just before
/// the first operation starts: everything before it is set-up.
///
/// With `traced`, the engines record into a [`LayerRecorder`], the bench
/// records spans, and layer probes run after the operations.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    size: Size,
    reference: Option<&Reference>,
    traced: bool,
    on_ready: &mut dyn FnMut(),
) -> PassOutput {
    // One operation in flight on one thread: the closed loop the
    // benchmark measures.
    mlcc::parallel::set_jobs(1);
    mlcc::parallel::set_shards(1);
    let mut ops = Ops {
        workload,
        reference,
        tracer: if traced { Tracer::on() } else { Tracer::off() },
        on_ready: Some(on_ready),
        calib: None,
        op_walls: Vec::new(),
        op_calib: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        observed: Vec::new(),
        fidelity_err: 0.0,
        job_iters: 0,
    };
    let mut layers = LayerRecorder::default();
    let mut side = Side::default();
    ops.tracer
        .enter("bench", &format!("pass/{}", workload.name()), false);
    let input = Input { seed, size };
    if traced {
        run_workload(workload, input, &mut ops, &mut layers, &mut side);
    } else {
        run_workload(workload, input, &mut ops, &mut NoopRecorder, &mut side);
    }
    ops.tracer.exit();
    if let Some(calib) = &mut ops.calib {
        ops.op_calib.push(calib.sample());
    }
    let per_layer = if traced {
        layers.join(std::mem::take(&mut side.tally));
        per_layer_metrics(&layers, &side, &ops.tracer)
    } else {
        Vec::new()
    };
    PassOutput {
        attempted: ops.attempted,
        failures: ops.failures,
        op_walls: ops.op_walls,
        op_calib: ops.op_calib,
        job_iters: ops.job_iters,
        observed: ops.observed,
        fidelity_err: reference.map(|_| ops.fidelity_err),
        per_layer,
        tracer: ops.tracer,
    }
}

#[derive(Debug, Clone, Copy)]
struct Input {
    seed: u64,
    size: Size,
}

impl Input {
    /// The seed's draw stream, or `None` for seed 1, which reproduces the
    /// CLI defaults exactly.
    fn draws(self) -> Option<SplitMix> {
        (self.seed != 1).then_some(SplitMix(self.seed))
    }
}

/// SplitMix64: the stream the seed's inputs are drawn from.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform duration in `[0, max)`, at nanosecond resolution.
    fn below(&mut self, max: Dur) -> Dur {
        Dur::from_nanos(self.next_u64() % max.as_nanos())
    }
}

/// Bench-side results of a traced pass: layer probes and event tallies the
/// engines' recorder hooks do not reach.
#[derive(Debug, Default)]
struct Side {
    tally: LayerRecorder,
    metrics: Vec<(&'static str, f64)>,
}

/// The operation runner: times, isolates and checks each operation.
struct Ops<'a> {
    workload: Workload,
    reference: Option<&'a Reference>,
    tracer: Tracer,
    on_ready: Option<&'a mut dyn FnMut()>,
    /// Made once set-up is done, so its table is not set-up work.
    calib: Option<Calibrator>,
    /// Host time of each operation, in order.
    op_walls: Vec<Duration>,
    op_calib: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    observed: Vec<(String, f64)>,
    fidelity_err: f64,
    job_iters: u64,
}

impl Ops<'_> {
    fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Runs a set-up step (not an operation) inside a span.
    fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let name = format!("{}/setup", self.workload.name());
        self.tracer.span("setup", &name, |_| f())
    }

    /// Runs one operation calling into `layer`. `f` pushes the simulated
    /// results it produced as `(quantity, value)` pairs and returns `Err`
    /// when a check fails. A panic, an `Err`, or a result off the
    /// reference by more than [`FIDELITY_LIMIT`] fails the operation and
    /// yields `None`; otherwise its `job_iters` count as completed.
    fn run<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        job_iters: u64,
        f: impl FnOnce(&mut Vec<(String, f64)>) -> Result<T, String>,
    ) -> Option<T> {
        if let Some(ready) = self.on_ready.take() {
            ready();
        }
        let calib = self.calib.get_or_insert_with(|| {
            // The first sample pays for faulting the table in.
            let mut c = Calibrator::new();
            c.sample();
            c
        });
        self.op_calib.push(calib.sample());
        self.attempted += 1;
        let mut obs = Vec::new();
        let t0 = Instant::now();
        let out = self.tracer.op_span(layer, name, |_| {
            panic::catch_unwind(AssertUnwindSafe(|| f(&mut obs)))
        });
        self.op_walls.push(t0.elapsed());
        let result = out
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(&*payload))))
            .and_then(|v| self.check(name, &obs).map(|()| v));
        match result {
            Ok(v) => {
                self.job_iters += job_iters;
                Some(v)
            }
            Err(e) => {
                self.failures.push(format!("{name}: {e}"));
                None
            }
        }
    }

    fn check(&mut self, op: &str, obs: &[(String, f64)]) -> Result<(), String> {
        let mut verdict = Ok(());
        for (quantity, value) in obs {
            let value = *value;
            let key = format!("{}/{op}/{quantity}", self.workload.name());
            if !value.is_finite() {
                verdict = verdict.and(Err(format!("{key} = {value}")));
            }
            if let Some(reference) = self.reference {
                match reference.deviation(&key, value) {
                    Ok(dev) => {
                        self.fidelity_err = self.fidelity_err.max(dev);
                        if dev > FIDELITY_LIMIT {
                            verdict = verdict.and(Err(format!(
                                "{key} = {value:?} is {dev:.2e} off the reference {:?}",
                                reference.get(&key).unwrap_or(f64::NAN)
                            )));
                        }
                    }
                    Err(e) => verdict = verdict.and(Err(e)),
                }
            }
            self.observed.push((key, value));
        }
        verdict
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn run_workload<R: ForkableRecorder>(
    workload: Workload,
    input: Input,
    ops: &mut Ops,
    rec: &mut R,
    side: &mut Side,
) {
    match workload {
        Workload::PaperRate => paper_rate(input, ops, rec, side),
        Workload::FluidCluster => fluid_cluster(input, ops, rec, side),
        Workload::PacketMix => packet_mix(input, ops, rec, side),
        Workload::ChaosTrace => chaos_trace(input, ops, side),
    }
}

/// Pushes each job's median iteration time.
fn push_medians(obs: &mut Vec<(String, f64)>, stats: &[JobStats]) {
    for (j, s) in stats.iter().enumerate() {
        obs.push((format!("j{j}_median_ms"), s.median_ms()));
    }
}

/// Adds the seed's `J2` start-offset jitter, in `[0, 2 ms)`, on top of
/// each cell's default offset.
fn jitter_cells(cells: &mut [MatrixCell], cfg: &Fig1Config, draws: &mut Option<SplitMix>) {
    if let Some(sm) = draws {
        for cell in cells {
            let base = cell.stagger.unwrap_or(cfg.stagger);
            cell.stagger = Some(base + sm.below(Dur::from_millis(2)));
        }
    }
}

/// `mlcc-repro fig1`, `table1` and `variants`: the rate engine and the
/// controller zoo, one operation per matrix cell or Table 1 group.
fn paper_rate<R: ForkableRecorder>(input: Input, ops: &mut Ops, rec: &mut R, side: &mut Side) {
    let (fig1_cfg, fig1_cells, t1_cfg, groups, zoo_cfg, zoo_cells) = ops.setup(|| {
        let (fig1_iters, iters, warmup) = match input.size {
            Size::Full => (40, 12, 4),
            Size::Small => (8, 8, 3),
        };
        let mut draws = input.draws();
        let fig1_cfg = Fig1Config {
            iterations: fig1_iters,
            warmup,
            ..Fig1Config::default()
        };
        let mut fig1_cells = fig1::default_cells(&fig1_cfg);
        jitter_cells(&mut fig1_cells, &fig1_cfg, &mut draws);
        let t1_cfg = Table1Config {
            iterations: iters,
            warmup,
            ..Table1Config::default()
        };
        let VariantsConfig {
            fig1: mut zoo_cfg,
            cells: mut zoo_cells,
        } = VariantsConfig::default();
        zoo_cfg.iterations = iters;
        zoo_cfg.warmup = warmup;
        jitter_cells(&mut zoo_cells, &zoo_cfg, &mut draws);
        (
            fig1_cfg,
            fig1_cells,
            t1_cfg,
            table1::paper_groups(),
            zoo_cfg,
            zoo_cells,
        )
    });
    for (cfg, cells) in [(&fig1_cfg, &fig1_cells), (&zoo_cfg, &zoo_cells)] {
        for cell in cells {
            ops.run("mlcc", &cell.name, 2 * cfg.iterations as u64, |obs| {
                let m = fig1::run_matrix_traced(cfg, std::slice::from_ref(cell), &mut *rec);
                push_medians(obs, &m.cells[0].1.stats);
                Ok(())
            });
        }
    }
    for (i, group) in groups.iter().enumerate() {
        let iters = (2 * group.len() * t1_cfg.iterations) as u64;
        ops.run("mlcc", &format!("table1/group{}", i + 1), iters, |obs| {
            let g = table1::run_group_traced(group, &t1_cfg, &mut *rec);
            for (j, row) in g.rows.iter().enumerate() {
                obs.push((format!("j{j}_fair_mean_ms"), row.fair.as_millis_f64()));
                obs.push((format!("j{j}_unfair_mean_ms"), row.unfair.as_millis_f64()));
            }
            obs.push((
                "fully_compatible".to_string(),
                f64::from(u8::from(g.fully_compatible_measured)),
            ));
            Ok(())
        });
    }
    if ops.traced() {
        let variants: Vec<CcVariant> = fig1_cells
            .iter()
            .chain(&zoo_cells)
            .flat_map(|c| c.variants)
            .collect();
        let ns = ops.tracer.span("dcqcn", "probe/advance", |_| {
            probe_cc_advance(&variants, input.size)
        });
        side.metrics.push(("dcqcn.advance_ns", ns));
    }
}

/// Simulated-time budget for the fluid cluster. Its slowest jobs take
/// ≈14.8 s per iteration, ≈60 s for all 4; the paper-scale default of
/// 30 s leaves most of them unfinished.
const FLUID_BUDGET: Dur = Dur::from_secs(120);

/// The cluster-scale path of `mlcc-repro shard`: the same fluid scenario
/// solved as one global allocation and as link-disjoint shards.
fn fluid_cluster<R: ForkableRecorder>(input: Input, ops: &mut Ops, rec: &mut R, side: &mut Side) {
    let (cfg, scn) = ops.setup(|| {
        let cfg = match input.size {
            Size::Full => ShardConfig {
                budget: FLUID_BUDGET,
                ..ShardConfig::paper_scale()
            },
            Size::Small => ShardConfig {
                groups: 2,
                jobs_per_group: 8,
                ..ShardConfig::small()
            },
        };
        let mut scn = shard::build_fluid(&cfg);
        if let Some(mut sm) = input.draws() {
            for job in &mut scn.jobs {
                job.start_offset = Dur::from_micros(sm.next_u64() % 50_000);
            }
        }
        (cfg, scn)
    });
    let iters = (scn.jobs.len() * cfg.iterations) as u64;
    let global = ops.run("mlcc", "fluid/global", iters, |obs| {
        let (res, _) = shard::run_fluid_unsharded(&scn, &cfg, &mut *rec);
        if !res.completed {
            return Err("jobs did not finish within the budget".to_string());
        }
        for (j, s) in res.stats.iter().enumerate() {
            obs.push((format!("j{j:03}_median_ms"), s.median_ms()));
        }
        Ok(res.stats)
    });
    ops.run("mlcc", "fluid/sharded", iters, |_| {
        let res = shard::run_fluid_sharded(&scn, &cfg, &mut *rec, 1);
        if !res.completed {
            return Err("jobs did not finish within the budget".to_string());
        }
        let global = global.ok_or("no global result to compare with")?;
        shards_agree(&global, &res.stats)
    });
    if ops.traced() {
        let (global_us, component_us) = ops.tracer.span("netsim.alloc", "probe/alloc", |_| {
            probe_alloc(&scn, input.size)
        });
        let partition_ms = ops.tracer.span("topology", "probe/partition", |_| {
            let sets = shard::job_link_sets(&scn.jobs);
            median_secs(9, || {
                black_box(partition(black_box(&sets)));
            }) * 1e3
        });
        side.metrics.extend([
            ("netsim.alloc.global_us", global_us),
            ("netsim.alloc.component_us", component_us),
            ("topology.partition_ms", partition_ms),
        ]);
    }
}

/// Checks the sharded run against the global one.
///
/// They agree exactly only on some inputs. The global solve raises every
/// flow through the levels of *all* components' bottlenecks, so its rates
/// differ from a per-component solve in the last bits; where such a
/// difference moves a completion across a nanosecond tick, the event
/// order changes and that job's trajectory diverges. Over seeds 3–13 up
/// to 23 of the 512 jobs moved, by at most 1.5e-3 of their median, while
/// the cluster-wide mean of the medians moved by at most 4e-6. A broken
/// decomposition moves far more, so each job gets a 1% band and the
/// cluster mean the fidelity limit.
fn shards_agree(global: &[JobStats], sharded: &[JobStats]) -> Result<(), String> {
    if global.len() != sharded.len() {
        return Err(format!(
            "{} sharded jobs for {} global",
            sharded.len(),
            global.len()
        ));
    }
    // NaN compares as infinitely far.
    let rel = |a: f64, b: f64| {
        let d = (a - b).abs() / a.abs().max(1.0);
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    };
    for (j, (a, b)) in global.iter().zip(sharded).enumerate() {
        let (a, b) = (a.median_ms(), b.median_ms());
        if rel(a, b) > 1e-2 {
            return Err(format!("job {j}: sharded median {b} ms vs global {a} ms"));
        }
    }
    let mean = |s: &[JobStats]| s.iter().map(JobStats::median_ms).sum::<f64>() / s.len() as f64;
    let (a, b) = (mean(global), mean(sharded));
    if rel(a, b) > FIDELITY_LIMIT {
        return Err(format!("mean median: sharded {b} ms vs global {a} ms"));
    }
    Ok(())
}

/// The event-queue path: replicas of the Table 1 packet rotation mix from
/// `mlcc-repro shard`, one operation per replica.
fn packet_mix<R: ForkableRecorder>(input: Input, ops: &mut Ops, rec: &mut R, side: &mut Side) {
    let (cfg, replicas) = ops.setup(|| {
        // Rotations from nearby starts settle into the same pace for
        // tens of iterations, so the test size needs 40 for the seed's
        // jitter to show.
        let (groups, iterations) = match input.size {
            Size::Full => (4, 16),
            Size::Small => (2, 40),
        };
        let cfg = ShardConfig {
            iterations,
            groups,
            ..ShardConfig::paper_scale()
        };
        let mut scn = shard::build_packet(&cfg);
        if let Some(mut sm) = input.draws() {
            for job in scn.groups.iter_mut().flatten() {
                job.start_offset += sm.below(Dur::from_millis(1));
            }
        }
        let replicas: Vec<PacketScenario> = scn
            .groups
            .iter()
            .zip(&scn.configs)
            .map(|(jobs, config)| PacketScenario {
                configs: vec![config.clone()],
                groups: vec![jobs.clone()],
                plan: ShardPlan::single(jobs.len()),
            })
            .collect();
        (cfg, replicas)
    });
    for (g, replica) in replicas.iter().enumerate() {
        let iters = (replica.groups[0].len() * cfg.iterations) as u64;
        ops.run("mlcc", &format!("packet/replica{g}"), iters, |obs| {
            let res = shard::run_packet_sharded(replica, &cfg, &mut *rec, 1);
            if !res.completed {
                return Err("jobs did not finish within the budget".to_string());
            }
            push_medians(obs, &res.stats);
            Ok(())
        });
    }
    if ops.traced() {
        let ns = ops
            .tracer
            .span("eventsim", "probe/queue", |_| probe_queue(input.size));
        let variants: Vec<CcVariant> = replicas[0].groups[0].iter().map(|j| j.variant).collect();
        let advance = ops.tracer.span("dcqcn", "probe/advance", |_| {
            probe_cc_advance(&variants, input.size)
        });
        side.metrics
            .extend([("eventsim.queue_op_ns", ns), ("dcqcn.advance_ns", advance)]);
    }
}

/// The chaos profiles of `mlcc-repro snapshot`'s grid.
const CHAOS_PROFILES: [&str; 4] = ["none", "stragglers", "links", "signal"];

/// The observability round trip: the forked chaos grid of
/// `mlcc-repro snapshot` recorded as `--trace` does, each cell's recording
/// exported to JSONL and replayed as `report`/`explain` do, then the whole
/// recording analysed. It records into a `BufferRecorder` traced or not,
/// because that is what users run.
fn chaos_trace(input: Input, ops: &mut Ops, side: &mut Side) {
    let (base, fork_at) = ops.setup(|| {
        let defaults = ChaosSweepConfig::default();
        let (iterations, warmup, cells) = match input.size {
            Size::Full => (defaults.iterations, defaults.warmup, 4),
            Size::Small => (12, 3, 1),
        };
        let mut seeds = vec![6u64, 16, 25, 33];
        if let Some(mut sm) = input.draws() {
            let shift = 1 + sm.next_u64() % 10_000;
            seeds.iter_mut().for_each(|s| *s += shift);
        }
        seeds.truncate(cells);
        let base = ChaosSweepConfig {
            iterations,
            warmup,
            seeds,
            profiles: CHAOS_PROFILES.map(String::from).to_vec(),
            ..defaults
        };
        // The CLI's fork point: 90% of the nominal sweep length.
        let per_iter = base.jobs[0]
            .iteration_time_at(base.sim.capacity)
            .max(base.jobs[1].iteration_time_at(base.sim.capacity));
        (base, per_iter * (iterations as u64 * 9) / 10)
    });
    let mut buf = BufferRecorder::new();
    let mut cells = 0;
    let mut export_bytes = 0;
    for profile in &base.profiles {
        for &seed in &base.seeds {
            cells += 1;
            let first = buf.len();
            let name = format!("chaos/{profile}/s{seed}");
            ops.run("mlcc", &name, 2 * base.iterations as u64, |obs| {
                let cfg = ChaosSweepConfig {
                    seeds: vec![seed],
                    profiles: vec![profile.clone()],
                    ..base.clone()
                };
                let r = chaos::run_forked(&cfg, &mut buf, fork_at, false);
                let cell = &r.cells[0];
                for (j, m) in cell.medians_ms.iter().enumerate() {
                    obs.push((format!("j{j}_median_ms"), *m));
                }
                obs.push((
                    "recovered".to_string(),
                    f64::from(u8::from(cell.recovery.all_recovered())),
                ));
                obs.push(("incidents".to_string(), cell.incidents() as f64));
                Ok(())
            });
            let events = &buf.events()[first..];
            let text = ops.run("telemetry", "telemetry/export", 0, |_| {
                Ok(telemetry::export::jsonl(events))
            });
            if let Some(text) = &text {
                export_bytes += text.len();
                ops.run("telemetry", "telemetry/replay", 0, |_| {
                    let parsed = telemetry::parse_jsonl(text).map_err(|e| e.to_string())?;
                    if parsed != events {
                        return Err("the replayed events differ from the recording".to_string());
                    }
                    Ok(())
                });
            }
        }
    }
    ops.run("diagnostics", "diagnostics/analyze", 0, |_| {
        let a = diagnostics::analyze("chaos", buf.events(), &AnalysisConfig::default());
        if a.scenarios.len() != cells {
            return Err(format!("{} scenarios for {cells} cells", a.scenarios.len()));
        }
        Ok(())
    });
    if ops.traced() {
        side.tally.tally(buf.events());
        side.metrics.extend([
            ("telemetry.events", buf.len() as f64),
            ("telemetry.export_mb", export_bytes as f64 / 1e6),
        ]);
        drop(buf);
        let (take_us, restore_us) = ops.tracer.span("netsim", "probe/snapshot", |_| {
            probe_snapshot(&base, fork_at, input.size)
        });
        side.metrics.extend([
            ("netsim.snapshot.take_us", take_us),
            ("netsim.snapshot.restore_us", restore_us),
        ]);
    }
}

/// Median over `batches` timed calls of `f`, in seconds per call.
fn median_secs(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Probe repetitions at each size.
fn reps(size: Size, full: usize) -> usize {
    match size {
        Size::Full => full,
        Size::Small => (full / 20).max(1),
    }
}

/// Mean ns per `CcAlgorithm::advance` over freshly built controllers of
/// `variants`, stepped as the rate engine steps them: 5 µs at line rate.
fn probe_cc_advance(variants: &[CcVariant], size: Size) -> f64 {
    let line = Bandwidth::from_gbps(50);
    let params = DcqcnParams::testbed_default().with_line_rate(line);
    let dt = Dur::from_micros(5);
    let bytes = line.as_bps_f64() / 8.0 * dt.as_secs_f64();
    let n = reps(size, 20_000);
    let per_variant: Vec<f64> = variants
        .iter()
        .map(|v| {
            let mut cc = v.build(params);
            median_secs(5, || {
                for _ in 0..n {
                    cc.advance(
                        black_box(dt),
                        black_box(bytes),
                        black_box(Dur::from_micros(2)),
                    );
                }
                black_box(cc.rate());
            }) * 1e9
                / n as f64
        })
        .collect();
    per_variant.iter().sum::<f64>() / per_variant.len().max(1) as f64
}

/// Pending events the queue probe holds: the order of the packet mix's
/// in-flight trains, CNP timers and phase deadlines.
const QUEUE_DEPTH: u64 = 256;

/// ns per pop + schedule pair on an [`EventQueue`] held at a fixed depth,
/// rescheduling each popped event up to 65 µs ahead (serialization gaps
/// and CNP timers are ns–µs scale).
fn probe_queue(size: Size) -> f64 {
    let mut rng = Rng::new(7);
    let mut q = EventQueue::new();
    for i in 0..QUEUE_DEPTH {
        q.schedule_at(Time::ZERO + Dur::from_nanos(rng.below(65_536)), i);
    }
    let n = reps(size, 200_000);
    median_secs(5, || {
        for _ in 0..n {
            let ev = q.pop().expect("the queue is never empty");
            q.schedule_at(ev.at + Dur::from_nanos(1 + rng.below(65_536)), ev.event);
        }
    }) * 1e9
        / n as f64
}

/// µs per `weighted_max_min_into` on the fluid cluster's own demand sets:
/// every flow at once (the global solve) and the first component's flows
/// on its sub-topology (one shard's solve).
fn probe_alloc(scn: &FluidScenario, size: Size) -> (f64, f64) {
    let nic = scn.fluid_cfg.nic_rate.as_bps_f64();
    let solve = |links: &[Vec<usize>], caps: &[f64]| {
        let demands: Vec<FlowDemand> = links
            .iter()
            .map(|l| FlowDemand {
                links: l,
                weight: 1.0,
                priority: 0,
                rate_cap: nic,
            })
            .collect();
        let (mut scratch, mut rates) = (AllocScratch::new(), Vec::new());
        let n = reps(size, 100);
        median_secs(5, || {
            for _ in 0..n {
                weighted_max_min_into(&demands, caps, &mut scratch, &mut rates);
            }
            black_box(&rates);
        }) * 1e6
            / n as f64
    };
    let route = |j: usize| {
        scn.jobs[j]
            .flows
            .iter()
            .flat_map(|f| f.links.iter().copied())
    };
    let caps = |t: &topology::Topology| -> Vec<f64> {
        t.links().iter().map(|l| l.capacity.as_bps_f64()).collect()
    };

    let all: Vec<Vec<usize>> = (0..scn.jobs.len())
        .map(|j| route(j).map(|l| l.0 as usize).collect())
        .collect();
    let global = solve(&all, &caps(&scn.topology));

    let comp = &scn.plan.components()[0];
    let comp_links: Vec<LinkId> = comp.iter().flat_map(|&j| route(j)).collect();
    let (sub, ids) = subgraph(&scn.topology, &comp_links);
    let local: Vec<Vec<usize>> = comp
        .iter()
        .map(|&j| {
            route(j)
                .map(|l| ids.binary_search(&l).expect("route inside its component"))
                .collect()
        })
        .collect();
    (global, solve(&local, &caps(&sub)))
}

/// µs per snapshot and per restore (clone included, as a forked cell pays
/// it) of the chaos grid's shared-prefix engine at the fork point.
fn probe_snapshot(base: &ChaosSweepConfig, fork_at: Dur, size: Size) -> (f64, f64) {
    let jobs = [
        RateJob::new(
            base.jobs[0],
            CcVariant::StaticUnfair {
                timer: base.aggressive_timer,
            },
        ),
        RateJob::new(base.jobs[1], CcVariant::Fair),
    ];
    let mut sim = RateSimulator::new(base.sim.clone(), &jobs);
    sim.run_until(Time::ZERO + fork_at);
    let snap = sim.snapshot().expect("run_until leaves a barrier");
    let n = reps(size, 200);
    let take = median_secs(5, || {
        for _ in 0..n {
            black_box(sim.snapshot().expect("barrier"));
        }
    });
    let restore = median_secs(5, || {
        for _ in 0..n {
            black_box(RateSimulator::restore(snap.clone(), NoopRecorder).expect("restores"));
        }
    });
    (take * 1e6 / n as f64, restore * 1e6 / n as f64)
}

/// Assembles [`PER_LAYER`] from the engines' recorder totals, the bench
/// spans, and the side metrics.
fn per_layer_metrics(
    rec: &LayerRecorder,
    side: &Side,
    tracer: &Tracer,
) -> Vec<(&'static str, f64)> {
    let (rate_busy, _) = rec.busy("netsim.rate");
    let steps = rec.counter("rate_steps_total");
    let (fluid_busy, fluid_events) = rec.busy("netsim.fluid");
    let (packet_busy, packet_events) = rec.busy("netsim.packet");
    let per = |busy: Duration, n: u64, scale: f64| {
        if n == 0 {
            0.0
        } else {
            busy.as_secs_f64() * scale / n as f64
        }
    };
    let op_self: Duration = tracer
        .spans()
        .iter()
        .zip(tracer.self_times())
        .filter(|(s, _)| s.layer == "mlcc" && s.op.is_some())
        .map(|(_, t)| t)
        .sum();
    let engines = rate_busy + fluid_busy + packet_busy;
    let mut out: Vec<(&'static str, f64)> = vec![
        ("netsim.rate.steps", steps as f64),
        ("netsim.rate.busy_s", rate_busy.as_secs_f64()),
        ("netsim.rate.ns_per_step", per(rate_busy, steps, 1e9)),
        ("dcqcn.ecn_marks", rec.event("ecn_mark") as f64),
        ("dcqcn.cnps", rec.event("cnp_received") as f64),
        ("dcqcn.rate_changes", rec.event("rate_change") as f64),
        ("netsim.fluid.events", fluid_events as f64),
        ("netsim.fluid.busy_s", fluid_busy.as_secs_f64()),
        (
            "netsim.fluid.us_per_event",
            per(fluid_busy, fluid_events, 1e6),
        ),
        (
            "netsim.alloc.solves",
            rec.counter("fluid_allocations_total") as f64,
        ),
        ("netsim.packet.events", packet_events as f64),
        ("netsim.packet.busy_s", packet_busy.as_secs_f64()),
        (
            "netsim.packet.ns_per_event",
            per(packet_busy, packet_events, 1e9),
        ),
        (
            "telemetry.export_s",
            tracer.time_in("telemetry/export").as_secs_f64(),
        ),
        (
            "telemetry.replay_s",
            tracer.time_in("telemetry/replay").as_secs_f64(),
        ),
        (
            "diagnostics.analyze_s",
            tracer.time_in("diagnostics/analyze").as_secs_f64(),
        ),
        ("mlcc.self_s", op_self.saturating_sub(engines).as_secs_f64()),
    ];
    out.extend(side.metrics.iter().copied());
    PER_LAYER
        .iter()
        .map(|&name| {
            let v = out
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, v)
        })
        .collect()
}
