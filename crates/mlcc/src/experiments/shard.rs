//! Sharded intra-scenario simulation: one scenario split across worker
//! threads with byte-identical output.
//!
//! A cluster-scale scenario (CASSINI-style: many jobs spread over a
//! multi-group fabric) decomposes into link-disjoint components via
//! [`topology::partition`]. Each component becomes one *shard* — its own
//! engine instance with its own event queue — built, optionally forked at
//! a snapshot barrier, and run to completion inside [`parallel::map_with`]:
//! components share no links, so shards never need to exchange state.
//! Per-shard telemetry is rewritten to global indices by
//! [`telemetry::RemapRecorder`] and merged with
//! [`ForkableRecorder::join_merged`], whose `(time, shard, seq)` key makes
//! the merged stream independent of worker-thread count: `--shards 8` and
//! `--shards 1` are byte-identical.
//!
//! For the fluid engine, sharding buys threads and nothing else: the
//! global [`FluidSimulator`] splits its jobs into the same link-disjoint
//! components and advances, solves and traces each on its own, so one
//! global run costs what a one-worker sharded run does and every job's
//! iteration times agree bit for bit with the shard's.
//!
//! Scenarios whose jobs all share a link collapse to one component
//! (`ShardPlan::single`): sharding such a run is a no-op, never a wrong
//! answer.

use crate::experiments::chaos;
use crate::metrics::JobStats;
use crate::parallel;
use dcqcn::CcVariant;
use faults::ChaosConfig;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::packet::{PacketSimConfig, PacketSimulator};
use netsim::rate::RateJob;
use netsim::Engine;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{ForkableRecorder, Recorder, RemapRecorder};
use topology::{partition, subgraph, LinkId, NodeKind, ShardPlan, Topology};
use workload::{JobSpec, Model};

/// Parameters of the sharded scenario pair (fluid cluster + packet mix).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Link-disjoint groups (= shards when the plan is balanced).
    pub groups: usize,
    /// Jobs contending on each group's bottleneck (fluid scenario).
    pub jobs_per_group: usize,
    /// Iterations every job must complete.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
    /// Simulated-time budget (scaled up under chaos).
    pub budget: Dur,
    /// Fault-injection profile (`ChaosConfig::none()` = quiet run).
    pub chaos: ChaosConfig,
    /// Snapshot/restore barrier: when set, every shard is driven to this
    /// simulated time, snapshotted, restored, and only then run to
    /// completion — exercising `--fork-at` composition. Must lie before
    /// the scenario completes its iterations for byte-parity with a
    /// straight run.
    pub fork_at: Option<Dur>,
}

impl ShardConfig {
    /// The paper-scale configuration behind `BENCH_shard.json`: four
    /// link-disjoint groups of a mixed-model job population.
    pub fn paper_scale() -> ShardConfig {
        ShardConfig {
            groups: 4,
            jobs_per_group: 128,
            iterations: 4,
            warmup: 1,
            budget: Dur::from_secs(120),
            chaos: ChaosConfig::none(),
            fork_at: None,
        }
    }

    /// A small configuration for tests and smoke runs.
    pub fn small() -> ShardConfig {
        ShardConfig {
            groups: 3,
            jobs_per_group: 3,
            iterations: 3,
            warmup: 1,
            budget: Dur::from_secs(10),
            chaos: ChaosConfig::none(),
            fork_at: None,
        }
    }

    /// The simulated-time budget of one run (scaled up under chaos): the
    /// horizon a fork point must fall before.
    pub fn horizon(&self) -> Dur {
        self.budget * chaos::budget_slack(&self.chaos)
    }
}

/// Model zoo the scenario cycles through (Table 1 population).
const ZOO: [(Model, u32); 4] = [
    (Model::Vgg19, 1400),
    (Model::WideResNet50, 919),
    (Model::ResNet50, 3480),
    (Model::Vgg16, 1200),
];

fn zoo_spec(idx: usize) -> JobSpec {
    let (model, batch) = ZOO[idx % ZOO.len()];
    JobSpec::reference(model, batch)
}

/// The fluid cluster scenario: topology, jobs, engine config, and the
/// shard plan derived from the per-job routes.
#[derive(Debug, Clone)]
pub struct FluidScenario {
    /// The multi-group fabric.
    pub topology: Topology,
    /// Engine configuration (chaos link schedules applied).
    pub fluid_cfg: FluidConfig,
    /// All jobs, in global index order (chaos noise/churn applied).
    pub jobs: Vec<FluidJob>,
    /// Link-disjoint components over the jobs' routes.
    pub plan: ShardPlan,
}

/// One shard's engine inputs: the sub-topology a component induces, its
/// jobs with routes rewritten to local link ids, the config sliced to
/// them, and the local→global link table.
#[derive(Debug, Clone)]
pub struct FluidShard {
    /// The component's links (and their endpoints), renumbered densely.
    pub topology: Topology,
    /// The component's jobs, in ascending global order.
    pub jobs: Vec<FluidJob>,
    /// The scenario config with per-job policy vectors and gates kept for
    /// the component's jobs and link schedules for its links.
    pub cfg: FluidConfig,
    /// Global id of each local link.
    pub link_ids: Vec<LinkId>,
}

impl FluidScenario {
    /// The shard of `comp`, one of [`FluidScenario::plan`]'s components.
    pub fn shard(&self, comp: &[usize]) -> FluidShard {
        fn pick<T: Clone>(v: &[T], idx: impl Iterator<Item = usize>) -> Vec<T> {
            idx.map(|i| v[i].clone()).collect()
        }
        let members = || comp.iter().copied();
        let comp_links: Vec<LinkId> = members()
            .flat_map(|j| {
                self.jobs[j]
                    .flows
                    .iter()
                    .flat_map(|f| f.links.iter().copied())
            })
            .collect();
        let (topology, link_ids) = subgraph(&self.topology, &comp_links);
        let jobs = members()
            .map(|j| {
                let mut job = self.jobs[j].clone();
                for link in job.flows.iter_mut().flat_map(|f| &mut f.links) {
                    let local = link_ids.binary_search(link).expect("route off-component");
                    *link = LinkId(local as u32);
                }
                job
            })
            .collect();
        let cfg = &self.fluid_cfg;
        let policy = match &cfg.policy {
            SharingPolicy::MaxMin => SharingPolicy::MaxMin,
            SharingPolicy::Weighted(w) => SharingPolicy::Weighted(pick(w, members())),
            SharingPolicy::Priority(p) => SharingPolicy::Priority(pick(p, members())),
            SharingPolicy::Cc(vs) => SharingPolicy::Cc(pick(vs, members())),
        };
        let cfg = FluidConfig {
            policy,
            gates: if cfg.gates.is_empty() {
                Vec::new()
            } else {
                pick(&cfg.gates, members())
            },
            nic_rate: cfg.nic_rate,
            link_schedules: if cfg.link_schedules.is_empty() {
                Vec::new()
            } else {
                pick(&cfg.link_schedules, link_ids.iter().map(|l| l.0 as usize))
            },
        };
        FluidShard {
            topology,
            jobs,
            cfg,
            link_ids,
        }
    }
}

/// Applies `chaos` to a fluid-engine run lasting roughly `horizon` — the
/// fluid counterpart of [`chaos::apply_rate`]: per-job phase noise, late
/// arrivals, and departures land on `jobs`; per-link capacity schedules
/// land on `cfg`. Signal loss is a DCQCN marking artifact and does not
/// apply to the fluid abstraction. Chaos is keyed by **global** job index,
/// so a shard inherits exactly the perturbations its jobs would see in an
/// unsharded run.
fn apply_fluid(
    chaos: &ChaosConfig,
    jobs: &mut [FluidJob],
    cfg: &mut FluidConfig,
    links: usize,
    horizon: Dur,
) {
    if chaos.is_none() {
        return;
    }
    let plan = chaos.compile(jobs.len(), links, horizon);
    for (i, job) in jobs.iter_mut().enumerate() {
        job.noise = plan.noise[i];
        job.start_offset += plan.arrivals[i];
        job.depart_at = plan.departures[i];
    }
    if plan.link_schedules.iter().any(|s| !s.is_identity()) {
        cfg.link_schedules = plan.link_schedules;
    }
}

/// Every link each job's flows traverse — the conflict-graph input to
/// [`topology::partition`].
pub fn job_link_sets(jobs: &[FluidJob]) -> Vec<Vec<LinkId>> {
    jobs.iter()
        .map(|j| {
            j.flows
                .iter()
                .flat_map(|f| f.links.iter().copied())
                .collect()
        })
        .collect()
}

/// Builds the paper-scale fluid scenario: `groups` disjoint sub-fabrics,
/// each a many-to-one funnel where `jobs_per_group` jobs contend on one
/// 50 Gbps bottleneck. Start offsets are staggered deterministically so
/// phase transitions spread over the first cycle.
pub fn build_fluid(cfg: &ShardConfig) -> FluidScenario {
    let line = Bandwidth::from_gbps(50);
    let mut topo = Topology::new();
    let mut jobs = Vec::new();
    for g in 0..cfg.groups {
        let a = topo.add_node(NodeKind::TorSwitch, format!("g{g}-in"));
        let b = topo.add_node(NodeKind::TorSwitch, format!("g{g}-out"));
        let bottleneck = topo.add_link(a, b, line, Dur::ZERO);
        for j in 0..cfg.jobs_per_group {
            let src = topo.add_host(format!("g{g}-src{j}"), 1);
            let dst = topo.add_host(format!("g{g}-dst{j}"), 1);
            let up = topo.add_link(src, a, line, Dur::ZERO);
            let down = topo.add_link(b, dst, line, Dur::ZERO);
            let idx = jobs.len();
            let offset = Dur::from_micros((idx as u64 * 7919) % 50_000);
            jobs.push(FluidJob::single_path_at(
                zoo_spec(idx),
                vec![up, bottleneck, down],
                offset,
            ));
        }
    }
    let mut fluid_cfg = FluidConfig::fair();
    apply_fluid(
        &cfg.chaos,
        &mut jobs,
        &mut fluid_cfg,
        topo.link_count(),
        cfg.horizon(),
    );
    let plan = partition(&job_link_sets(&jobs));
    FluidScenario {
        topology: topo,
        fluid_cfg,
        jobs,
        plan,
    }
}

/// Outcome of one sharded or unsharded run.
#[derive(Debug, Clone)]
pub struct ShardRunResult {
    /// Per-job statistics, in global job order.
    pub stats: Vec<JobStats>,
    /// Whether every job finished its iterations within the budget.
    pub completed: bool,
}

/// Runs one built engine to completion — through a snapshot/restore
/// round trip at `cfg.fork_at` first, when set — and takes every job's
/// statistics. The one run body behind the global fluid baseline and
/// both sharded runners. The deadline is `cfg.horizon()` after time
/// zero whether or not the run forked.
fn run_engine<E: Engine>(mut sim: E, cfg: &ShardConfig) -> (ShardRunResult, E::Rec) {
    if let Some(at) = cfg.fork_at {
        sim.run_until(Time::ZERO + at);
        let snap = sim.snapshot().expect("run_until leaves a barrier");
        sim = E::restore(snap, sim.into_recorder()).expect("fork barrier restores");
    }
    let left = (Time::ZERO + cfg.horizon()).saturating_since(sim.now());
    let completed = sim.run_until_iterations(cfg.iterations, left);
    let stats = (0..sim.num_jobs())
        .map(|i| chaos::stats_tolerant(sim.progress(i), cfg.warmup))
        .collect();
    (ShardRunResult { stats, completed }, sim.into_recorder())
}

/// Runs the scenario as one global simulator — the unsharded baseline
/// the sharded run must match bit for bit, with the same `cfg.fork_at`
/// barrier. Returns the recorder for inspection.
pub fn run_fluid_unsharded<R: Recorder>(
    scn: &FluidScenario,
    cfg: &ShardConfig,
    rec: R,
) -> (ShardRunResult, R) {
    let sim = FluidSimulator::with_recorder(&scn.topology, scn.fluid_cfg.clone(), &scn.jobs, rec);
    run_engine(sim, cfg)
}

/// Runs one engine per item of `shards` on up to `threads` workers, each
/// built by `build` with its own remapping fork of `rec`, and merges the
/// recordings into `rec` in shard order. Returns each shard's statistics,
/// in shard-local job order, and whether every shard completed.
fn run_shards<R, T, E, B>(
    shards: &[T],
    cfg: &ShardConfig,
    rec: &mut R,
    threads: usize,
    build: B,
) -> (Vec<Vec<JobStats>>, bool)
where
    R: ForkableRecorder,
    T: Sync,
    E: Engine<Rec = RemapRecorder<R::Fork>>,
    B: Fn(usize, &T) -> E + Sync,
{
    let runs = parallel::map_with(threads, shards, |i, shard| {
        let (res, fork) = run_engine(build(i, shard), cfg);
        (res, fork.into_inner())
    });
    let completed = runs.iter().all(|(res, _)| res.completed);
    let (results, forks): (Vec<ShardRunResult>, Vec<R::Fork>) = runs.into_iter().unzip();
    rec.join_merged(forks);
    (results.into_iter().map(|r| r.stats).collect(), completed)
}

/// Runs the scenario sharded: one engine per link-disjoint component, up
/// to `threads` worker threads, per-shard recordings remapped to global
/// indices and merged into `rec` deterministically. Per-job policy
/// vectors, gates and link schedules are sliced to each shard, so any
/// [`FluidConfig`] shards. With `cfg.fork_at`
/// set, every shard round-trips through snapshot/restore at the barrier
/// first.
pub fn run_fluid_sharded<R: ForkableRecorder>(
    scn: &FluidScenario,
    cfg: &ShardConfig,
    rec: &mut R,
    threads: usize,
) -> ShardRunResult {
    let comps = scn.plan.components();
    let (per_shard, completed) = run_shards(comps, cfg, rec, threads, |_, comp| {
        // Each shard runs on the sub-topology its component induces, so
        // per-solve cost scales with the component, not the fabric. Flow
        // routes are rewritten to local link ids going in, and the remap
        // recorder rewrites them back to global ids coming out.
        let shard = scn.shard(comp);
        let fork = RemapRecorder::new(
            R::fork(),
            comp.iter().map(|&j| j as u32).collect(),
            Some(shard.link_ids.iter().map(|l| l.0).collect()),
        );
        FluidSimulator::with_recorder(&shard.topology, shard.cfg, &shard.jobs, fork)
    });
    let mut stats: Vec<Option<JobStats>> = vec![None; scn.jobs.len()];
    for (comp, shard_stats) in comps.iter().zip(per_shard) {
        for (&global, s) in comp.iter().zip(shard_stats) {
            stats[global] = Some(s);
        }
    }
    ShardRunResult {
        stats: stats.into_iter().map(Option::unwrap).collect(),
        completed,
    }
}

/// The packet-engine side of the scenario: `groups` replicas of the
/// paper-scale 4-job rotation mix (VGG19 + WideResNet50 + 2×ResNet50 with
/// harmonic ~285 ms periods), each on its own bottleneck link. Group `g`'s
/// bottleneck is link id `g` in the global numbering.
#[derive(Debug, Clone)]
pub struct PacketScenario {
    /// Per-group engine configs (chaos schedules applied per group link).
    pub configs: Vec<PacketSimConfig>,
    /// Per-group job lists; global job index = `g * mix_len + local`.
    pub groups: Vec<Vec<RateJob>>,
    /// One component per group (each group shares one bottleneck).
    pub plan: ShardPlan,
}

/// The Table-1-derived rotation mix each group runs.
fn packet_mix() -> Vec<RateJob> {
    let mix: [(JobSpec, CcVariant, Dur); 4] = [
        (
            JobSpec::reference(Model::Vgg19, 1400),
            CcVariant::Fair,
            Dur::from_micros(33_680),
        ),
        (
            JobSpec::reference(Model::WideResNet50, 919),
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(70),
            },
            Dur::from_micros(105_970),
        ),
        (
            JobSpec::reference(Model::ResNet50, 3480),
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
            Dur::from_micros(143_630),
        ),
        (
            JobSpec::reference(Model::ResNet50, 3480),
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(130),
            },
            Dur::from_micros(181_590),
        ),
    ];
    mix.iter()
        .map(|&(spec, variant, start_offset)| RateJob {
            start_offset,
            ..RateJob::new(spec, variant)
        })
        .collect()
}

/// Builds the packet scenario. The conflict graph is one synthetic link
/// per group bottleneck, so the plan always has exactly `groups`
/// components — unless `groups == 1`, the unshardable collapse case.
pub fn build_packet(cfg: &ShardConfig) -> PacketScenario {
    let mix = packet_mix();
    let base = PacketSimConfig {
        train_packets: 64,
        ..PacketSimConfig::default()
    };
    let total = cfg.groups * mix.len();
    let horizon = cfg.horizon();
    let plan = if cfg.chaos.is_none() {
        None
    } else {
        Some(cfg.chaos.compile(total, cfg.groups, horizon))
    };
    let mut configs = Vec::new();
    let mut groups = Vec::new();
    for g in 0..cfg.groups {
        let mut jobs = mix.clone();
        let mut pc = base.clone();
        if let Some(plan) = &plan {
            chaos::apply_plan(
                plan,
                &mut jobs,
                g * mix.len(),
                g,
                &mut pc.capacity_schedule,
                &mut pc.signal_loss,
            );
        }
        configs.push(pc);
        groups.push(jobs);
    }
    let link_sets: Vec<Vec<LinkId>> = (0..cfg.groups)
        .flat_map(|g| std::iter::repeat_n(vec![LinkId(g as u32)], mix.len()))
        .collect();
    PacketScenario {
        configs,
        groups,
        plan: partition(&link_sets),
    }
}

/// Runs the packet scenario sharded (one engine per group), merging the
/// remapped per-shard recordings into `rec`. Group `g`'s local `link: 0`
/// is rewritten to global link id `g`.
pub fn run_packet_sharded<R: ForkableRecorder>(
    scn: &PacketScenario,
    cfg: &ShardConfig,
    rec: &mut R,
    threads: usize,
) -> ShardRunResult {
    let mix_len = scn.groups[0].len();
    let (per_shard, completed) = run_shards(&scn.groups, cfg, rec, threads, |g, jobs| {
        let job_map = (0..jobs.len()).map(|l| (g * mix_len + l) as u32).collect();
        let fork = RemapRecorder::new(R::fork(), job_map, Some(vec![g as u32]));
        PacketSimulator::with_recorder(scn.configs[g].clone(), jobs, fork)
    });
    ShardRunResult {
        stats: per_shard.into_iter().flatten().collect(),
        completed,
    }
}

/// Shard-plan statistics for `RunSummary`/`HISTORY.jsonl` correlation.
pub fn plan_metrics(plan: &ShardPlan) -> Vec<(&'static str, f64)> {
    vec![
        ("shard.components", plan.num_components() as f64),
        ("shard.jobs", plan.num_jobs() as f64),
        ("shard.largest_component_share", plan.largest_share()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::BufferRecorder;

    fn median(stats: &JobStats) -> f64 {
        stats.cdf.median().as_millis_f64()
    }

    #[test]
    fn fluid_plan_is_balanced_per_group() {
        let cfg = ShardConfig::small();
        let scn = build_fluid(&cfg);
        assert_eq!(scn.plan.num_components(), cfg.groups);
        assert!((scn.plan.largest_share() - 1.0 / cfg.groups as f64).abs() < 1e-12);
        // Components are exactly the construction groups, in order.
        for (c, comp) in scn.plan.components().iter().enumerate() {
            let expect: Vec<usize> =
                (c * cfg.jobs_per_group..(c + 1) * cfg.jobs_per_group).collect();
            assert_eq!(comp, &expect);
        }
    }

    /// The headline guarantee: worker-thread count is invisible in the
    /// merged stream, for both engines, with and without chaos.
    #[test]
    fn sharded_output_is_byte_identical_across_thread_counts() {
        for chaos in [
            ChaosConfig::none(),
            ChaosConfig::profile("stragglers").unwrap(),
        ] {
            let mut cfg = ShardConfig::small();
            cfg.chaos = chaos;
            let fluid = build_fluid(&cfg);
            let packet = build_packet(&cfg);
            let mut streams = Vec::new();
            for threads in [1usize, 4] {
                let mut rec = BufferRecorder::new();
                run_fluid_sharded(&fluid, &cfg, &mut rec, threads);
                run_packet_sharded(&packet, &cfg, &mut rec, threads);
                streams.push(rec);
            }
            assert!(!streams[0].events().is_empty());
            assert_eq!(streams[0].events(), streams[1].events());
            assert_eq!(streams[0].counts(), streams[1].counts());
        }
    }

    /// Sharded and unsharded runs agree on every job's iteration-time
    /// statistics bit for bit (the streams differ only in
    /// solver-bookkeeping events).
    #[test]
    fn sharded_fluid_stats_match_unsharded() {
        let cfg = ShardConfig::small();
        let scn = build_fluid(&cfg);
        let (unsharded, _) = run_fluid_unsharded(&scn, &cfg, telemetry::NoopRecorder);
        let mut rec = BufferRecorder::new();
        let sharded = run_fluid_sharded(&scn, &cfg, &mut rec, 2);
        assert!(unsharded.completed && sharded.completed);
        for (a, b) in unsharded.stats.iter().zip(&sharded.stats) {
            let (ma, mb) = (median(a), median(b));
            assert_eq!(
                ma.to_bits(),
                mb.to_bits(),
                "{}: unsharded {ma} ms vs sharded {mb} ms",
                a.label
            );
        }
    }

    /// All jobs sharing one bottleneck collapse to a single component, and
    /// the sharded run (identity remap, single fork) is byte-identical to
    /// the plain unsharded run.
    #[test]
    fn unshardable_scenario_collapses_to_one_shard() {
        let mut cfg = ShardConfig::small();
        cfg.groups = 1;
        let mut scn = build_fluid(&cfg);
        // Zero offsets keep the whole stream time-sorted, so the ordered
        // merge is exactly the unsharded recording.
        for job in &mut scn.jobs {
            job.start_offset = Dur::ZERO;
        }
        assert_eq!(scn.plan.num_components(), 1);
        assert_eq!(scn.plan, ShardPlan::single(scn.jobs.len()));
        let (_, direct) = run_fluid_unsharded(&scn, &cfg, BufferRecorder::new());
        let mut merged = BufferRecorder::new();
        run_fluid_sharded(&scn, &cfg, &mut merged, 4);
        assert_eq!(direct.events(), merged.events());
    }

    /// A shard that cannot finish inside the budget reports the run as
    /// incomplete and stops at the deadline instead of running on — the
    /// same deadline, and the same stream, with a fork barrier on the way.
    #[test]
    fn deadline_bounds_unfinished_shards() {
        let cfg = ShardConfig {
            iterations: 1000,
            budget: Dur::from_secs(2),
            ..ShardConfig::small()
        };
        let scn = build_fluid(&cfg);
        let forked_cfg = ShardConfig {
            fork_at: Some(Dur::from_millis(500)),
            ..cfg.clone()
        };
        let mut streams = Vec::new();
        for cfg in [&cfg, &forked_cfg] {
            let mut rec = BufferRecorder::new();
            let res = run_fluid_sharded(&scn, cfg, &mut rec, 2);
            assert!(!res.completed);
            let deadline = Time::ZERO + cfg.budget;
            assert!(!rec.events().is_empty());
            assert!(rec.events().iter().all(|e| e.at <= deadline));
            streams.push(rec);
        }
        assert_eq!(streams[0].events(), streams[1].events());
    }

    /// Snapshot/restore at a fork barrier is invisible: a sharded or
    /// global run with `fork_at` matches the straight run byte-for-byte.
    #[test]
    fn fork_at_barrier_is_byte_invisible() {
        let cfg = ShardConfig::small();
        let fluid = build_fluid(&cfg);
        let packet = build_packet(&cfg);
        let mut forked_cfg = cfg.clone();
        forked_cfg.fork_at = Some(Dur::from_millis(20));
        let run = |cfg: &ShardConfig| {
            let (global, mut rec) = run_fluid_unsharded(&fluid, cfg, BufferRecorder::new());
            run_fluid_sharded(&fluid, cfg, &mut rec, 2);
            run_packet_sharded(&packet, cfg, &mut rec, 2);
            (global.stats, rec)
        };
        let (straight_stats, straight) = run(&cfg);
        let (forked_stats, forked) = run(&forked_cfg);
        assert_eq!(straight.events(), forked.events());
        assert_eq!(straight.counts(), forked.counts());
        for (a, b) in straight_stats.iter().zip(&forked_stats) {
            assert_eq!(median(a).to_bits(), median(b).to_bits(), "{}", a.label);
        }
    }
}
