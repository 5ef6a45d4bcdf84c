//! Snapshot round-trip fidelity: for every engine, across seeds and chaos
//! profiles,
//!
//! ```text
//! run(0 → T)  ≡  run(0 → t) + snapshot + restore + run(t → T)
//! ```
//!
//! must hold **at the telemetry byte level** — the interrupted run's
//! recorder stream, iteration times, and final clock are exactly those of
//! the uninterrupted run. This is the property the forked-sweep
//! optimisation (`--fork-at`) rests on: if a restore perturbed even one
//! event, a forked sweep would silently diverge from the run it claims to
//! reproduce.

use dcqcn::CcVariant;
use faults::ChaosConfig;
use mlcc_repro::*;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::packet::{PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{BufferRecorder, Event};
use topology::builders::dumbbell;
use topology::LinkSchedule;
use workload::{JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);
/// Fork the interrupted run here…
const BARRIER: Time = Time::from_nanos(100_000_000);
/// …and compare both runs here.
const END: Time = Time::from_nanos(350_000_000);

/// The grid every engine round-trips over: the quiet path, then every
/// builtin chaos profile. Each cell applies its whole compiled plan —
/// phase noise, late arrivals, departures, the bottleneck's capacity
/// schedule and signal loss — so the snapshot has to carry chaos stream
/// positions, capacity multipliers and departures across the barrier.
/// The seeds are picked for what they draw on the single bottleneck:
/// `links` seed 6 flaps it down just before the barrier and up just after
/// it, and seed 13 holds it degraded from 58 ms to 148 ms; `mixed` seed 3
/// departs a job after the barrier, and seed 13 degrades the link across
/// it.
const GRID: [(&str, u64); 10] = [
    ("none", 1),
    ("none", 7),
    ("stragglers", 1),
    ("stragglers", 7),
    ("links", 6),
    ("links", 13),
    ("signal", 1),
    ("signal", 7),
    ("mixed", 3),
    ("mixed", 13),
];

/// Compiles `profile` at `seed` for two jobs over `links` links, across
/// the compared span, so link windows and departures land on both sides
/// of the barrier.
fn plan(profile: &str, seed: u64, links: usize) -> faults::CompiledChaos {
    let chaos = if profile == "none" {
        ChaosConfig::none()
    } else {
        let base = ChaosConfig::profile(profile).expect("builtin profile");
        ChaosConfig { seed, ..base }
    };
    chaos.compile(2, links, END.saturating_since(Time::ZERO))
}

/// The single bottleneck's capacity schedule under `plan`, if it has one.
fn bottleneck_schedule(plan: &faults::CompiledChaos) -> Option<LinkSchedule> {
    plan.link_schedules
        .first()
        .filter(|s| !s.is_identity())
        .cloned()
}

/// `LinkCapacity` events the run recorded before and after `barrier`.
type CapacityEvents = (usize, usize);

/// Asserts uninterrupted ≡ interrupted for one engine. `build` makes the
/// engine recording into the recorder it is given; both runs construct
/// the engine identically, the second one stops at `barrier`, snapshots,
/// restores into its own recorder, and resumes. Returns the uninterrupted
/// run's [`CapacityEvents`].
fn round_trip<E: Engine<Rec = BufferRecorder>>(
    label: &str,
    build: impl Fn(BufferRecorder) -> E,
    barrier: Time,
    end: Time,
) -> CapacityEvents {
    let times = |sim: &E| -> Vec<Vec<Dur>> {
        (0..sim.num_jobs())
            .map(|i| sim.progress(i).iteration_times())
            .collect()
    };
    // Uninterrupted reference run.
    let mut base = build(BufferRecorder::new());
    base.run_until(end);
    // Interrupted run: stop at the barrier, capture, rebuild, resume.
    let mut cut = build(BufferRecorder::new());
    cut.run_until(barrier);
    let snap = cut.snapshot().expect("run_until leaves a clean barrier");
    let mut resumed = E::restore(snap, cut.into_recorder()).expect("snapshot restores cleanly");
    resumed.run_until(end);
    assert_eq!(
        times(&base),
        times(&resumed),
        "{label}: iteration times diverged"
    );
    assert_eq!(
        base.recorder().events(),
        resumed.recorder().events(),
        "{label}: telemetry stream diverged after restore"
    );
    let capacity = base
        .recorder()
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::LinkCapacity { .. }));
    capacity.fold((0, 0), |(before, after), e| {
        if e.at <= barrier {
            (before + 1, after)
        } else {
            (before, after + 1)
        }
    })
}

/// Asserts that at least one grid cell of `engine` changed a link's
/// capacity on both sides of the barrier, so a capacity multiplier
/// crossed it.
fn assert_capacity_crosses_barrier(engine: &str, cells: &[CapacityEvents]) {
    assert!(
        cells.iter().any(|&(before, after)| before > 0 && after > 0),
        "{engine}: no grid cell records LinkCapacity on both sides of the barrier: {cells:?}"
    );
}

#[test]
fn rate_round_trips_byte_identical_across_seeds_and_profiles() {
    let mut cells = Vec::new();
    for (profile, seed) in GRID {
        let plan = plan(profile, seed, 1);
        let spec = JobSpec::reference(Model::ResNet50, 400);
        let mut jobs = [
            RateJob::new(
                spec,
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
            ),
            RateJob::new(spec, CcVariant::Fair),
        ];
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
            job.start_offset += plan.arrivals[j];
            job.depart_at = plan.departures[j];
        }
        let cfg = RateSimConfig {
            capacity_schedule: bottleneck_schedule(&plan),
            signal_loss: plan.signal_loss,
            ..RateSimConfig::default()
        };
        cells.push(round_trip(
            &format!("rate/{profile}/s{seed}"),
            |rec| RateSimulator::with_recorder(cfg.clone(), &jobs, rec),
            BARRIER,
            END,
        ));
    }
    assert_capacity_crosses_barrier("rate", &cells);
}

#[test]
fn packet_round_trips_byte_identical_across_seeds_and_profiles() {
    let mut cells = Vec::new();
    for (profile, seed) in GRID {
        let plan = plan(profile, seed, 1);
        let spec = JobSpec::reference(Model::ResNet50, 400);
        let mut jobs = [
            RateJob::new(
                spec,
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
            ),
            RateJob::new(spec, CcVariant::Fair),
        ];
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
            job.start_offset += plan.arrivals[j];
            job.depart_at = plan.departures[j];
        }
        let cfg = PacketSimConfig {
            capacity_schedule: bottleneck_schedule(&plan),
            signal_loss: plan.signal_loss,
            ..PacketSimConfig::default()
        };
        cells.push(round_trip(
            &format!("packet/{profile}/s{seed}"),
            |rec| PacketSimulator::with_recorder(cfg.clone(), &jobs, rec),
            BARRIER,
            END,
        ));
    }
    assert_capacity_crosses_barrier("packet", &cells);
}

#[test]
fn fluid_round_trips_byte_identical_across_seeds_and_profiles() {
    let mut cells = Vec::new();
    for (profile, seed) in GRID {
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        // The fluid engine has no DCQCN loop, so signal loss has nothing
        // to act on; every other layer applies.
        let plan = plan(profile, seed, d.topology.links().len());
        let spec = JobSpec::reference(Model::ResNet50, 400);
        let jobs: Vec<FluidJob> = (0..2)
            .map(|i| FluidJob {
                noise: plan.noise[i],
                depart_at: plan.departures[i],
                ..FluidJob::single_path_at(spec, d.pair_links(i), plan.arrivals[i])
            })
            .collect();
        let cfg = FluidConfig {
            link_schedules: plan.link_schedules.clone(),
            ..FluidConfig::fair()
        };
        cells.push(round_trip(
            &format!("fluid/{profile}/s{seed}"),
            |rec| FluidSimulator::with_recorder(&d.topology, cfg.clone(), &jobs, rec),
            BARRIER,
            END,
        ));
    }
    assert_capacity_crosses_barrier("fluid", &cells);
}

// The fixed grid above is the deterministic cross-engine core; on top of
// it, randomized seeds and barrier placements probe the same property on
// the two cheap engines — any barrier `run_until` can reach must be a
// valid fork point.
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rate_round_trips_for_arbitrary_seeds_and_barriers(
        seed in 0u64..1000,
        straggle in proptest::bool::ANY,
        barrier_ms in 20u64..200,
    ) {
        let plan = plan(if straggle { "stragglers" } else { "none" }, seed, 1);
        let spec = JobSpec::reference(Model::ResNet50, 400);
        let mut jobs = [
            RateJob::new(spec, CcVariant::Fair),
            RateJob::new(spec, CcVariant::Fair),
        ];
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
        }
        round_trip(
            &format!("rate/prop/s{seed}/b{barrier_ms}ms"),
            |rec| RateSimulator::with_recorder(RateSimConfig::default(), &jobs, rec),
            Time::ZERO + Dur::from_millis(barrier_ms),
            END,
        );
    }

    #[test]
    fn fluid_round_trips_for_arbitrary_seeds_and_barriers(
        seed in 0u64..1000,
        straggle in proptest::bool::ANY,
        barrier_ms in 20u64..200,
    ) {
        let plan = plan(if straggle { "stragglers" } else { "none" }, seed, 1);
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let spec = JobSpec::reference(Model::ResNet50, 400);
        let jobs: Vec<FluidJob> = (0..2)
            .map(|i| FluidJob {
                noise: plan.noise[i],
                ..FluidJob::single_path(spec, d.pair_links(i))
            })
            .collect();
        round_trip(
            &format!("fluid/prop/s{seed}/b{barrier_ms}ms"),
            |rec| FluidSimulator::with_recorder(&d.topology, FluidConfig::fair(), &jobs, rec),
            Time::ZERO + Dur::from_millis(barrier_ms),
            END,
        );
    }
}

/// The congestion-control zoo's wrapped controllers (`Mltcp`'s progress
/// bonus slot, `Policy`'s fairness boost) carry state of their own; a
/// snapshot taken mid-slide — staggered pair, barrier inside the
/// interleaving transient — must round-trip it byte-identically on both
/// emergent engines.
#[test]
fn zoo_variant_controllers_round_trip_byte_identical() {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let pairs: [[CcVariant; 2]; 3] = [
        [
            CcVariant::Mltcp { bonus: 1.0 },
            CcVariant::Mltcp { bonus: 1.0 },
        ],
        [
            CcVariant::Policy {
                policy: dcqcn::FairnessPolicy::BonusDecay {
                    bonus: 1.0,
                    decay: 2.0,
                },
            },
            CcVariant::Policy {
                policy: dcqcn::FairnessPolicy::Proportional { weight: 1.25 },
            },
        ],
        [CcVariant::AdaptiveUnfair, CcVariant::Mltcp { bonus: 2.0 }],
    ];
    for (p, variants) in pairs.iter().enumerate() {
        let mut jobs = [
            RateJob::new(spec, variants[0]),
            RateJob::new(spec, variants[1]),
        ];
        jobs[1].start_offset = Dur::from_millis(15);
        round_trip(
            &format!("rate/zoo-pair{p}"),
            |rec| RateSimulator::with_recorder(RateSimConfig::default(), &jobs, rec),
            BARRIER,
            END,
        );
        let mut jobs = [
            RateJob::new(spec, variants[0]),
            RateJob::new(spec, variants[1]),
        ];
        jobs[1].start_offset = Dur::from_millis(15);
        round_trip(
            &format!("packet/zoo-pair{p}"),
            |rec| PacketSimulator::with_recorder(PacketSimConfig::default(), &jobs, rec),
            BARRIER,
            END,
        );
    }
    // Swift is rate-engine only (delay-based; no packet marking model).
    let swift = CcVariant::Swift {
        target_delay: Dur::from_micros(30),
    };
    let jobs = [RateJob::new(spec, swift), RateJob::new(spec, swift)];
    round_trip(
        "rate/zoo-swift",
        |rec| RateSimulator::with_recorder(RateSimConfig::default(), &jobs, rec),
        BARRIER,
        END,
    );
}
