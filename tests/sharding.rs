//! Differential guarantees of sharded execution: for every engine, across
//! seeds and chaos profiles,
//!
//! ```text
//! sharded(N threads)  ≡  sharded(1 thread)        (byte level)
//! sharded(any N)      ≡  unsharded                (bit-equal phase times)
//! sharded collapse    ≡  unsharded                (byte level, one component)
//! fork_at + sharded   ≡  sharded                  (byte level)
//! ```
//!
//! The byte-level cross-thread property is the contract behind `--shards
//! N`: the shard plan is a pure function of the topology, worker threads
//! only change wall clock. The phase-time property pins the sharded
//! decomposition to the global simulation it replaces: the global fluid
//! engine solves each link-disjoint component on its own, so every phase
//! change lands on the same nanosecond. The merged streams still differ
//! in solver bookkeeping and event order, so equality there is on phase
//! times and iteration statistics, not bytes — except in the
//! one-component collapse case, where the shard *is* the global
//! simulation and bytes must match.

use dcqcn::CcVariant;
use faults::ChaosConfig;
use mlcc::experiments::shard::{
    build_fluid, build_packet, run_fluid_sharded, run_fluid_unsharded, run_packet_sharded,
    FluidScenario, ShardConfig,
};
use mlcc_repro::*;
use netsim::fluid::{FluidSimulator, SharingPolicy};
use netsim::packet::PacketSimulator;
use proptest::prelude::*;
use simtime::{Dur, Time};
use telemetry::{BufferRecorder, Event, ForkableRecorder, Phase};

/// Arrival-free builtin profiles: every engine can snapshot and every
/// scenario completes within the small test budgets.
const PROFILES: [&str; 4] = ["none", "stragglers", "links", "signal"];

fn chaos(profile: &str, seed: u64) -> ChaosConfig {
    let base = ChaosConfig::profile(profile).expect("builtin profile");
    ChaosConfig { seed, ..base }
}

fn small(profile: &str, seed: u64, groups: usize, jobs_per_group: usize) -> ShardConfig {
    ShardConfig {
        groups,
        jobs_per_group,
        chaos: chaos(profile, seed),
        ..ShardConfig::small()
    }
}

/// [`small`], except that `links` runs at seed 4 on a 1 s budget: at the
/// 10 s budget its chaos horizon puts every capacity window after the
/// jobs finish, so no link would change capacity under load. The shorter
/// budget scales the windows into the run: 12–17 capacity changes at the
/// shapes tested here.
fn small_loaded(profile: &str, seed: u64, groups: usize, jobs_per_group: usize) -> ShardConfig {
    match profile {
        "links" => ShardConfig {
            budget: Dur::from_secs(1),
            ..small(profile, 4, groups, jobs_per_group)
        },
        _ => small(profile, seed, groups, jobs_per_group),
    }
}

/// `LinkCapacity` events in the global fluid run of `cfg`.
fn capacity_changes(cfg: &ShardConfig) -> usize {
    let (_, rec) = run_fluid_unsharded(&build_fluid(cfg), cfg, BufferRecorder::new());
    rec.events()
        .iter()
        .filter(|e| matches!(e.event, Event::LinkCapacity { .. }))
        .count()
}

/// One merged fluid + packet stream at the given worker count.
fn merged_stream(cfg: &ShardConfig, threads: usize) -> BufferRecorder {
    let fluid = build_fluid(cfg);
    let packet = build_packet(cfg);
    let mut rec = BufferRecorder::new();
    run_fluid_sharded(&fluid, cfg, &mut rec, threads);
    run_packet_sharded(&packet, cfg, &mut rec, threads);
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// sharded(N) ≡ sharded(1) at the byte level, across seeds × chaos
    /// profiles × shapes, for the fluid and packet engines merged into one
    /// stream.
    #[test]
    fn thread_count_is_invisible_in_merged_streams(
        seed in 1u64..64,
        profile in 0usize..PROFILES.len(),
        groups in 1usize..4,
        jobs_per_group in 1usize..4,
        threads in 2usize..6,
    ) {
        let cfg = small(PROFILES[profile], seed, groups, jobs_per_group);
        let one = merged_stream(&cfg, 1);
        let many = merged_stream(&cfg, threads);
        prop_assert!(!one.events().is_empty());
        prop_assert_eq!(one.events(), many.events());
        prop_assert_eq!(one.counts(), many.counts());
    }
}

/// sharded ≡ unsharded at the results level (fluid engine), across chaos
/// profiles: every job's median iteration time agrees to the last bit
/// between the global simulation and the per-component decomposition.
#[test]
fn sharded_matches_unsharded_stats_across_profiles() {
    for profile in PROFILES {
        let cfg = small(profile, 11, 3, 2);
        let scn = build_fluid(&cfg);
        let (base, _) = run_fluid_unsharded(&scn, &cfg, telemetry::NoopRecorder);
        let mut rec = BufferRecorder::new();
        let sharded = run_fluid_sharded(&scn, &cfg, &mut rec, 3);
        assert_eq!(base.completed, sharded.completed, "profile {profile}");
        for (j, (a, b)) in base.stats.iter().zip(&sharded.stats).enumerate() {
            let (ma, mb) = (a.median_ms(), b.median_ms());
            assert_eq!(
                ma.to_bits(),
                mb.to_bits(),
                "{profile} job {j}: unsharded {ma} ms vs sharded {mb} ms"
            );
        }
    }
}

/// The fluid scenarios the global ≡ sharded tests run, all on a
/// three-component fabric: quiet, under two chaos profiles, under strict
/// priority, and under progress-weighted congestion control.
fn fluid_cases() -> Vec<(&'static str, FluidScenario, ShardConfig)> {
    let mut cases = Vec::new();
    for profile in ["none", "stragglers", "links"] {
        let cfg = small_loaded(profile, 11, 3, 3);
        if profile == "links" {
            assert!(capacity_changes(&cfg) > 0, "no capacity change");
        }
        cases.push((profile, build_fluid(&cfg), cfg));
    }
    let cfg = small("none", 11, 3, 3);
    let base = build_fluid(&cfg);
    let n = base.jobs.len();
    let mut priority = base.clone();
    priority.fluid_cfg.policy = SharingPolicy::Priority((0..n).map(|j| (j % 3) as u8).collect());
    cases.push(("priority", priority, cfg.clone()));
    let mut weighted = base;
    weighted.fluid_cfg.policy = SharingPolicy::Cc(
        (0..n)
            .map(|j| match j % 3 {
                0 => CcVariant::Mltcp { bonus: 4.0 },
                1 => CcVariant::AdaptiveUnfair,
                _ => CcVariant::Fair,
            })
            .collect(),
    );
    cases.push(("cc", weighted, cfg));
    for (name, scn, _) in &cases {
        assert_eq!(scn.plan.num_components(), 3, "{name}");
    }
    cases
}

/// Every job's phase exits, in order, as `(instant, phase, iteration)`.
fn phase_exits(rec: &BufferRecorder, jobs: usize) -> Vec<Vec<(Time, Phase, u64)>> {
    let mut per_job = vec![Vec::new(); jobs];
    for e in rec.events() {
        if let Event::PhaseExit {
            job,
            phase,
            iteration,
        } = e.event
        {
            per_job[job as usize].push((e.at, phase, iteration));
        }
    }
    per_job
}

/// global ≡ sharded(1 worker), bit for bit: every job leaves every phase
/// at the same nanosecond in both runs, over the iterations both recorded
/// (each shard stops once its own jobs are done; the global run goes on
/// until all are).
#[test]
fn global_phase_times_equal_sharded_bit_for_bit() {
    for (name, scn, cfg) in fluid_cases() {
        let n = scn.jobs.len();
        let (global, global_rec) = run_fluid_unsharded(&scn, &cfg, BufferRecorder::new());
        let mut sharded_rec = BufferRecorder::new();
        let sharded = run_fluid_sharded(&scn, &cfg, &mut sharded_rec, 1);
        assert!(global.completed && sharded.completed, "{name}");
        // Statistics are not compared here: a job whose shard stops early
        // records fewer iterations than in the global run, so a jittered
        // job's median covers different samples.
        let g = phase_exits(&global_rec, n);
        let s = phase_exits(&sharded_rec, n);
        for j in 0..n {
            let both = g[j].len().min(s[j].len());
            assert!(both >= 2 * cfg.iterations, "{name} job {j}: {both} exits");
            assert_eq!(g[j][..both], s[j][..both], "{name} job {j}");
        }
    }
}

/// Component by component, the global engine holds exactly the state a
/// simulator of that component alone holds: at every 10 ms slice, each
/// job's iteration times and the bits of its remaining bytes, and of
/// every flow's remaining bytes and rate, agree. Advancing a component at
/// another component's events would split its `rate · dt` products and
/// move the last bits of `remaining`, which whole nanoseconds can hide.
#[test]
fn global_state_equals_per_component_simulators_at_every_slice() {
    for (name, scn, cfg) in fluid_cases() {
        let n = scn.jobs.len();
        let mut global = FluidSimulator::new(&scn.topology, scn.fluid_cfg.clone(), &scn.jobs);
        let mut shards: Vec<(&[usize], FluidSimulator)> = scn
            .plan
            .components()
            .iter()
            .map(|comp| {
                let shard = scn.shard(comp);
                let sim = FluidSimulator::new(&shard.topology, shard.cfg, &shard.jobs);
                (comp.as_slice(), sim)
            })
            .collect();
        let stop = Time::ZERO + cfg.horizon();
        while global.now() < stop && (0..n).any(|j| global.progress(j).completed() < cfg.iterations)
        {
            let t = global.now() + Dur::from_millis(10);
            global.run_until(t);
            let flows = global.aos_view();
            for (comp, sim) in &mut shards {
                sim.run_until(t);
                let local_flows = sim.aos_view();
                for (local, &j) in comp.iter().enumerate() {
                    let (a, b) = (global.progress(j), sim.progress(local));
                    assert_eq!(a.iteration_times(), b.iteration_times(), "{name} job {j}");
                    assert_eq!(
                        a.remaining_bytes().to_bits(),
                        b.remaining_bytes().to_bits(),
                        "{name} job {j} at {t:?}"
                    );
                    for (fa, fb) in flows[j].iter().zip(&local_flows[local]) {
                        assert_eq!(
                            (fa.remaining.to_bits(), fa.rate.to_bits()),
                            (fb.remaining.to_bits(), fb.rate.to_bits()),
                            "{name} job {j} flow at {t:?}"
                        );
                    }
                }
            }
        }
        assert!(global.now() < stop, "{name}: jobs did not finish");
    }
}

/// The collapse case, fluid engine: all jobs share one bottleneck, the
/// plan degenerates to a single component, and the sharded run — one
/// shard, identity remap, single-fork merge — reproduces the plain
/// unsharded recording byte for byte.
#[test]
fn fluid_collapse_is_byte_identical_to_unsharded() {
    let cfg = small("none", 1, 1, 4);
    let mut scn = build_fluid(&cfg);
    // Zero offsets keep construction-time events in time order, so the
    // ordered merge is the identity on the single fork.
    for job in &mut scn.jobs {
        job.start_offset = Dur::ZERO;
    }
    assert_eq!(scn.plan.num_components(), 1);
    let (_, direct) = run_fluid_unsharded(&scn, &cfg, BufferRecorder::new());
    for threads in [1, 4] {
        let mut merged = BufferRecorder::new();
        run_fluid_sharded(&scn, &cfg, &mut merged, threads);
        assert_eq!(direct.events(), merged.events(), "{threads} thread(s)");
    }
}

/// The collapse case, packet engine: a one-group scenario sharded through
/// the executor equals driving the one simulator directly.
#[test]
fn packet_collapse_is_byte_identical_to_direct_run() {
    let cfg = small("none", 1, 1, 1);
    let mut scn = build_packet(&cfg);
    for job in &mut scn.groups[0] {
        job.start_offset = Dur::ZERO;
    }
    assert_eq!(scn.plan.num_components(), 1);
    let mut direct_sim = PacketSimulator::with_recorder(
        scn.configs[0].clone(),
        &scn.groups[0],
        BufferRecorder::fork(),
    );
    direct_sim.run_until_iterations(cfg.iterations, cfg.budget);
    let mut direct = BufferRecorder::new();
    direct.join(direct_sim.into_recorder());
    let mut merged = BufferRecorder::new();
    run_packet_sharded(&scn, &cfg, &mut merged, 4);
    assert!(!direct.events().is_empty());
    assert_eq!(direct.events(), merged.events());
}

/// The worker count is a pure executor knob for link-disjoint fluid
/// shards under chaos: 1, 2 and 3 workers merge to the same stream.
#[test]
fn fluid_worker_count_is_invisible() {
    let cfg = small("stragglers", 5, 3, 2);
    let scn = build_fluid(&cfg);
    let streams: Vec<BufferRecorder> = [1, 2, 3]
        .into_iter()
        .map(|threads| {
            let mut rec = BufferRecorder::new();
            assert!(run_fluid_sharded(&scn, &cfg, &mut rec, threads).completed);
            rec
        })
        .collect();
    assert!(!streams[0].events().is_empty());
    for s in &streams[1..] {
        assert_eq!(
            s.events(),
            streams[0].events(),
            "worker count leaked into output"
        );
        assert_eq!(s.counts(), streams[0].counts());
    }
}

/// `--fork-at` composes with sharding: snapshotting and restoring every
/// shard at the barrier leaves the merged stream untouched, quiet or under
/// chaos.
#[test]
fn fork_at_composes_with_sharding_under_chaos() {
    for profile in ["none", "stragglers", "links"] {
        let cfg = small_loaded(profile, 23, 2, 2);
        if profile == "links" {
            assert!(capacity_changes(&cfg) > 0, "no capacity change");
        }
        let straight = merged_stream(&cfg, 2);
        let forked_cfg = ShardConfig {
            fork_at: Some(Dur::from_millis(15)),
            ..cfg
        };
        let forked = merged_stream(&forked_cfg, 2);
        assert!(!straight.events().is_empty());
        assert_eq!(
            straight.events(),
            forked.events(),
            "{profile}: fork barrier leaked into the sharded stream"
        );
    }
}

/// FNV-1a over a fluid recording's JSONL export, then over every job's
/// phase exits in recording order (job, iteration, nanosecond).
fn fluid_fingerprint(rec: &BufferRecorder) -> u64 {
    let mut h = simtime::hash::Fnv64::new();
    h.write(telemetry::export::jsonl(rec.events()).as_bytes());
    for e in rec.events() {
        if let Event::PhaseExit { job, iteration, .. } = e.event {
            h.write_u64(u64::from(job));
            h.write_u64(iteration);
            h.write_u64(e.at.as_nanos());
        }
    }
    h.finish()
}

/// Pins the fluid engine's output bit for bit on three sources: small
/// `build_fluid` clusters quiet and under chaos, and the `cluster` and
/// `pipelining` experiments' recorded runs. The two-second budget puts
/// the `links` profile's capacity windows inside the run, so some links
/// change capacity while jobs communicate. An engine speedup that claims
/// to perform the same float operations must leave every hash as it is.
#[test]
fn fluid_recordings_are_pinned() {
    let mut got = Vec::new();
    for profile in ["none", "stragglers", "links"] {
        let cfg = ShardConfig {
            budget: Dur::from_secs(2),
            ..small(profile, 3, 3, 4)
        };
        let (res, rec) = run_fluid_unsharded(&build_fluid(&cfg), &cfg, BufferRecorder::new());
        assert!(res.completed, "{profile}");
        let changes = rec
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::LinkCapacity { .. }))
            .count();
        assert_eq!(changes > 0, profile == "links", "{profile}: {changes}");
        got.push((profile, fluid_fingerprint(&rec)));
    }
    let mut rec = BufferRecorder::new();
    mlcc::experiments::cluster::try_run_traced(&Default::default(), &mut rec)
        .expect("the default cluster stream places");
    got.push(("cluster", fluid_fingerprint(&rec)));
    let mut rec = BufferRecorder::new();
    mlcc::experiments::pipelining::run_traced(&Default::default(), &mut rec);
    got.push(("pipelining", fluid_fingerprint(&rec)));
    let want = [
        ("none", 1299286059613309693),
        ("stragglers", 14993265665067887224),
        ("links", 9049110715791890895),
        ("cluster", 17206948253286027140),
        ("pipelining", 1955189470609050227),
    ];
    assert_eq!(got, want);
}
