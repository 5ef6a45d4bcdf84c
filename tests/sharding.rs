//! Differential guarantees of sharded execution: for every engine, across
//! seeds and chaos profiles,
//!
//! ```text
//! sharded(N threads)  ≡  sharded(1 thread)        (byte level)
//! sharded(any N)      ≡  unsharded                (results level)
//! sharded collapse    ≡  unsharded                (byte level, one component)
//! fork_at + sharded   ≡  sharded                  (byte level)
//! ```
//!
//! The byte-level cross-thread property is the contract behind `--shards
//! N`: the shard plan is a pure function of the topology, worker threads
//! only change wall clock. The results-level property pins the sharded
//! decomposition to the global simulation it replaces (the merged streams
//! differ only in per-shard solver bookkeeping, so equality there is on
//! iteration statistics, not bytes — except in the one-component collapse
//! case, where the shard *is* the global simulation and bytes must match).

use faults::ChaosConfig;
use mlcc::experiments::shard::{
    build_fluid, build_packet, run_fluid_sharded, run_fluid_unsharded, run_packet_sharded,
    ShardConfig,
};
use mlcc_repro::*;
use netsim::packet::PacketSimulator;
use proptest::prelude::*;
use simtime::Dur;
use telemetry::{BufferRecorder, ForkableRecorder};

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
/// profiles: every job's per-iteration times agree between the global
/// simulation and the per-component decomposition.
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
            assert!(
                (ma - mb).abs() <= 1e-9 * ma.abs().max(1.0),
                "{profile} job {j}: unsharded {ma} ms vs sharded {mb} ms"
            );
        }
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
        let cfg = small(profile, 23, 2, 2);
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
