//! Exactness of the rate engine's fast paths. `run_for`, `run_until` and
//! `run_until_iterations` run every stretch without a compute deadline,
//! departure, capacity change or sample in it as one stepping window: an
//! idle one (every job computing, link queue empty) as one jump of the
//! controllers' clocks, any other as the traffic kernel alone. Each case
//! here drives the same engine that way and by calling the public
//! `step()` once per step, and requires the two to agree bit for bit:
//! iteration records, rate traces, step counts, and every recorded
//! telemetry event (the standing queue among them, as `QueueDepth`). The
//! solo cases also require the observed run to have taken solo steps (one
//! job sending into an empty queue), and the contended cases window steps
//! that are not solo, so they cannot pass by never reaching the path.
//! `step()` and the windows share the kernel, so the contended cases also
//! pin a hash of the observed run, taken field by field so that only the
//! engine moves it. The hashes were taken from the engine before the
//! kernel was split out of `step()`, and re-taken from the unchanged
//! engine when the outcome lost its queue trace and when the hash stopped
//! reading the outcome's `Debug` text.

use dcqcn::{CcVariant, FairnessPolicy, RedMarker, SignalLoss};
use eventsim::TimeSeries;
use mlcc::experiments::table1::ordered_timers;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::snapshot::Snapshottable;
use simtime::hash::Fnv64;
use simtime::{Dur, Time};
use telemetry::{BufferRecorder, NoopRecorder, Recorder};
use topology::LinkSchedule;
use workload::{IterationRecord, JobSpec, Model};

/// Simulated-time budget for every iteration-driven case.
const BUDGET: Dur = Dur::from_secs(20);

/// How a case drives the engine.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// Until every job has completed this many iterations.
    Iterations(usize),
    /// For a fixed span of simulated time.
    For(Dur),
}

/// Everything a finished run exposes, floats as raw bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: Time,
    steps: u64,
    departed: Vec<bool>,
    iterations: Vec<Vec<IterationRecord>>,
    rate_traces: Vec<Vec<(Time, u64)>>,
}

fn bits(ts: &TimeSeries) -> Vec<(Time, u64)> {
    ts.iter().map(|(t, v)| (t, v.to_bits())).collect()
}

fn outcome<R: Recorder>(sim: &RateSimulator<R>) -> Outcome {
    let n = sim.num_jobs();
    Outcome {
        now: sim.now(),
        steps: sim.steps(),
        departed: (0..n).map(|i| sim.departed(i)).collect(),
        iterations: (0..n)
            .map(|i| sim.progress(i).iterations().to_vec())
            .collect(),
        rate_traces: (0..n).map(|i| bits(sim.rate_trace(i))).collect(),
    }
}

/// `Debug` prints every `f64` in its shortest round-trip form, so equal
/// renderings mean bit-equal event streams.
fn event_stream(rec: &BufferRecorder) -> String {
    format!("{:?}", rec.events())
}

fn reached<R: Recorder>(sim: &RateSimulator<R>, n: usize) -> bool {
    (0..sim.num_jobs()).all(|i| sim.departed(i) || sim.progress(i).completed() >= n)
}

/// Drives through the engine's own loops, which fast-forward.
fn drive_fast<R: Recorder>(sim: &mut RateSimulator<R>, drive: Drive) {
    match drive {
        Drive::Iterations(n) => assert!(sim.run_until_iterations(n, BUDGET)),
        Drive::For(span) => sim.run_for(span),
    }
}

/// Drives the same way, one public `step()` at a time.
fn drive_stepped<R: Recorder>(sim: &mut RateSimulator<R>, drive: Drive) {
    let end = sim.now()
        + match drive {
            Drive::Iterations(_) => BUDGET,
            Drive::For(span) => span,
        };
    while sim.now() < end {
        if let Drive::Iterations(n) = drive {
            if reached(sim, n) {
                return;
            }
        }
        sim.step();
    }
}

fn step_until<R: Recorder>(sim: &mut RateSimulator<R>, t: Time) {
    while sim.now() < t {
        sim.step();
    }
}

/// Steps the observed fast run took on each fast path, and an FNV-1a hash
/// of its outcome and event stream.
#[derive(Debug)]
struct Split {
    idle: u64,
    solo: u64,
    contended: u64,
    hash: u64,
}

/// An FNV-1a hash of `observed` field by field (clock, steps, departures,
/// iteration records, rate-trace bits), then of `events`: what the engine
/// did, with no part of it owed to how this file prints an [`Outcome`].
fn outcome_hash(observed: &Outcome, events: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(observed.now.as_nanos());
    h.write_u64(observed.steps);
    for &departed in &observed.departed {
        h.write_u64(u64::from(departed));
    }
    for records in &observed.iterations {
        h.write_u64(records.len() as u64);
        for r in records {
            h.write_u64(u64::from(r.index));
            h.write_u64(r.started.as_nanos());
            h.write_u64(r.completed.as_nanos());
        }
    }
    for trace in &observed.rate_traces {
        h.write_u64(trace.len() as u64);
        for &(at, bits) in trace {
            h.write_u64(at.as_nanos());
            h.write_u64(bits);
        }
    }
    h.write(events.as_bytes());
    h.finish()
}

/// Runs `jobs` both ways, unobserved and observed, and requires identical
/// outcomes and event streams. Returns the observed fast run's split.
fn assert_exact(cfg: &RateSimConfig, jobs: &[RateJob], drive: Drive) -> Split {
    let mut fast = RateSimulator::new(cfg.clone(), jobs);
    let mut stepped = RateSimulator::new(cfg.clone(), jobs);
    drive_fast(&mut fast, drive);
    drive_stepped(&mut stepped, drive);
    assert_eq!(outcome(&fast), outcome(&stepped), "unobserved, {drive:?}");

    let (mut fast_rec, mut stepped_rec) = (BufferRecorder::new(), BufferRecorder::new());
    let mut fast = RateSimulator::with_recorder(cfg.clone(), jobs, &mut fast_rec);
    let mut stepped = RateSimulator::with_recorder(cfg.clone(), jobs, &mut stepped_rec);
    drive_fast(&mut fast, drive);
    drive_stepped(&mut stepped, drive);
    let observed = outcome(&fast);
    assert_eq!(observed, outcome(&stepped), "observed, {drive:?}");
    let steps = fast.steps();
    drop((fast, stepped));
    let events = event_stream(&fast_rec);
    assert_eq!(events, event_stream(&stepped_rec));
    // Skipped steps still count as simulated steps.
    let counts = fast_rec.counts();
    assert_eq!(counts["rate_steps_total"], steps);
    let split = Split {
        idle: counts["rate_steps_idle"],
        solo: counts["rate_steps_solo"],
        contended: counts["rate_steps_contended"],
        hash: outcome_hash(&observed, &events),
    };
    assert!(
        split.idle + split.solo + split.contended <= steps,
        "{split:?} of {steps}"
    );
    split
}

/// [`assert_exact`], requiring solo window steps.
fn assert_exact_solo(cfg: &RateSimConfig, jobs: &[RateJob], drive: Drive) {
    let split = assert_exact(cfg, jobs, drive);
    assert!(split.solo > 0, "no solo window step: {split:?}");
}

/// [`assert_exact`], requiring contended window steps and the observed
/// run's `hash`.
fn assert_exact_contended(cfg: &RateSimConfig, jobs: &[RateJob], drive: Drive, hash: u64) {
    let split = assert_exact(cfg, jobs, drive);
    assert!(split.contended > 0, "no contended window step: {split:?}");
    assert_eq!(split.hash, hash, "{split:?}");
}

fn vgg19() -> JobSpec {
    JobSpec::reference(Model::Vgg19, 1200)
}

fn traced() -> RateSimConfig {
    RateSimConfig {
        trace_interval: Some(Dur::from_millis(1)),
        ..RateSimConfig::default()
    }
}

#[test]
fn fig1_pairs_match_single_stepping() {
    let unfair = CcVariant::StaticUnfair {
        timer: Dur::from_micros(100),
    };
    for variants in [[CcVariant::Fair; 2], [unfair, CcVariant::Fair]] {
        let jobs = variants.map(|v| RateJob::new(vgg19(), v));
        assert_exact(&traced(), &jobs, Drive::Iterations(6));
    }
}

#[test]
fn four_job_table1_group_matches_single_stepping() {
    let j = JobSpec::reference;
    let group = [
        j(Model::BertLarge, 8),
        j(Model::Vgg19, 1400),
        j(Model::WideResNet50, 800),
        j(Model::Vgg16, 1400),
    ];
    let timers = ordered_timers(group.len(), (Dur::from_micros(100), Dur::from_micros(125)));
    let jobs: Vec<RateJob> = group
        .iter()
        .zip(timers)
        .map(|(&spec, timer)| RateJob::new(spec, CcVariant::StaticUnfair { timer }))
        .collect();
    assert_exact(&RateSimConfig::default(), &jobs, Drive::Iterations(3));
}

/// Swift, MLTCP and a bonus-decay policy job: the delay-based clock and
/// both progress-fed DCQCN wrappers, on off-grid staggered starts.
#[test]
fn zoo_controllers_match_single_stepping() {
    let variants = [
        CcVariant::Swift {
            target_delay: Dur::from_micros(30),
        },
        CcVariant::Mltcp { bonus: 1.0 },
        CcVariant::Policy {
            policy: FairnessPolicy::BonusDecay {
                bonus: 1.0,
                decay: 3.0,
            },
        },
    ];
    let offsets = [0, 7_002_500, 19_000_001];
    let jobs: Vec<RateJob> = variants
        .iter()
        .zip(offsets)
        .map(|(&v, ns)| {
            let mut job = RateJob::new(vgg19(), v);
            job.start_offset = Dur::from_nanos(ns);
            job
        })
        .collect();
    assert_exact(&traced(), &jobs, Drive::Iterations(4));
}

/// Pipelined jobs: compute gaps inside an iteration, so jumps start and
/// stop between communication segments.
#[test]
fn pipelined_pair_matches_single_stepping() {
    let spec = JobSpec::reference(Model::Vgg19, 600).pipelined(3, Dur::from_millis(4));
    let jobs = [
        RateJob::new(spec, CcVariant::Fair),
        RateJob::new(spec, CcVariant::Fair),
    ];
    assert_exact(&RateSimConfig::default(), &jobs, Drive::Iterations(4));
}

#[test]
fn departure_matches_single_stepping() {
    let mut leaver = RateJob::new(vgg19(), CcVariant::Fair);
    leaver.depart_at = Some(Time::from_nanos(300_001_234));
    let stayer = RateJob::new(vgg19(), CcVariant::Fair);
    assert_exact(
        &RateSimConfig::default(),
        &[leaver, stayer],
        Drive::Iterations(6),
    );
}

/// Down windows (a 0× multiplier, floored to `MIN_MULTIPLIER`) opening
/// and closing off the step grid, in compute and communication phases.
#[test]
fn capacity_schedule_matches_single_stepping() {
    let us = |us: u64, extra_ns: u64| Time::from_nanos(us * 1_000 + extra_ns);
    let schedule = LinkSchedule::new(vec![
        (us(40_237, 100), 0.0),
        (us(90_000, 0), 1.0),
        (us(200_113, 3), 0.0),
        (us(260_002, 500), 0.5),
        (us(420_371, 7), 1.0),
    ]);
    let cfg = RateSimConfig {
        capacity_schedule: Some(schedule),
        ..RateSimConfig::default()
    };
    let jobs = [
        RateJob::new(vgg19(), CcVariant::Fair),
        RateJob::new(vgg19(), CcVariant::Fair),
    ];
    assert_exact(&cfg, &jobs, Drive::For(Dur::from_millis(900)));
}

/// A fork barrier halfway through the first compute phase, off the step
/// grid: `run_until` stops on the same step as single stepping, and the
/// snapshot restored there resumes identically.
#[test]
fn mid_idle_fork_barrier_restores_identically() {
    let unfair = CcVariant::StaticUnfair {
        timer: Dur::from_micros(100),
    };
    let jobs = [
        RateJob::new(vgg19(), unfair),
        RateJob::new(vgg19(), CcVariant::Fair),
    ];
    let barrier = Time::from_nanos(vgg19().compute_time().as_nanos() / 2 + 2_500);
    let cfg = traced();

    let run = |fast: bool| {
        let mut prefix_rec = BufferRecorder::new();
        let mut sim = RateSimulator::with_recorder(cfg.clone(), &jobs, &mut prefix_rec);
        if fast {
            sim.run_until(barrier);
        } else {
            step_until(&mut sim, barrier);
        }
        assert!((0..2).all(|i| !sim.progress(i).is_communicating()));
        let at_barrier = outcome(&sim);
        let snap = sim.snapshot().unwrap();
        drop(sim);

        let mut resumed_rec = BufferRecorder::new();
        let mut resumed = RateSimulator::restore(snap, &mut resumed_rec).unwrap();
        if fast {
            drive_fast(&mut resumed, Drive::Iterations(5));
        } else {
            drive_stepped(&mut resumed, Drive::Iterations(5));
        }
        let end = outcome(&resumed);
        drop(resumed);
        (
            at_barrier,
            end,
            event_stream(&prefix_rec),
            event_stream(&resumed_rec),
        )
    };
    assert_eq!(run(true), run(false));

    // The same barrier untraced and unobserved, where nothing caps a jump
    // short of the barrier or the compute deadline.
    let mut fast = RateSimulator::new(RateSimConfig::default(), &jobs);
    let mut stepped = RateSimulator::new(RateSimConfig::default(), &jobs);
    fast.run_until(barrier);
    step_until(&mut stepped, barrier);
    assert_eq!(outcome(&fast), outcome(&stepped));
    let mut fast: RateSimulator =
        Snapshottable::restore(fast.snapshot().unwrap(), NoopRecorder).expect("snapshot restores");
    drive_fast(&mut fast, Drive::Iterations(5));
    drive_stepped(&mut stepped, Drive::Iterations(5));
    assert_eq!(outcome(&fast), outcome(&stepped));
}

fn offset(mut job: RateJob, ns: u64) -> RateJob {
    job.start_offset = Dur::from_nanos(ns);
    job
}

/// A job alone on the link: unobserved and untraced, nothing bounds a solo
/// window short of the run's end, so each communication phase ends inside
/// one; a run that stops mid-phase ends one too.
#[test]
fn solo_phase_ends_mid_window() {
    let jobs = [RateJob::new(vgg19(), CcVariant::Fair)];
    assert_exact_solo(&RateSimConfig::default(), &jobs, Drive::Iterations(3));
    let mid_phase = vgg19().compute_time() + Dur::from_nanos(40_000_123);
    assert_exact_solo(&RateSimConfig::default(), &jobs, Drive::For(mid_phase));
}

/// The second job's compute phase ends, off the step grid, while the
/// first communicates alone: the window stops on the step that polls it.
#[test]
fn solo_window_stops_at_another_jobs_deadline() {
    let jobs = [
        RateJob::new(vgg19(), CcVariant::Fair),
        offset(RateJob::new(vgg19(), CcVariant::Fair), 60_001_234),
    ];
    assert_exact_solo(&RateSimConfig::default(), &jobs, Drive::Iterations(4));
}

/// Fig. 1's unfair pair: after contention cuts a rate, the survivor ramps
/// back up alone on timers and byte counts, with no CNP. Without phase
/// restarts the computing job's cut controller carries into its next
/// phase, so its clocks must catch up across each solo window.
#[test]
fn solo_rate_ramp_after_a_cut() {
    let unfair = CcVariant::StaticUnfair {
        timer: Dur::from_micros(100),
    };
    let jobs = [
        RateJob::new(vgg19(), unfair),
        RateJob::new(vgg19(), CcVariant::Fair),
    ];
    assert_exact_solo(&RateSimConfig::default(), &jobs, Drive::Iterations(6));
    let no_restart = RateSimConfig {
        restart_on_phase: false,
        ..RateSimConfig::default()
    };
    assert_exact_solo(&no_restart, &jobs, Drive::Iterations(6));
}

/// Trace samples every 333.333 µs, off the step grid, and (observed) the
/// telemetry samples on the same cadence end solo windows early.
#[test]
fn solo_windows_stop_at_trace_and_sample_boundaries() {
    let cfg = RateSimConfig {
        trace_interval: Some(Dur::from_nanos(333_333)),
        ..RateSimConfig::default()
    };
    let solo = [RateJob::new(vgg19(), CcVariant::Fair)];
    assert_exact_solo(&cfg, &solo, Drive::Iterations(2));
    let pair = [
        RateJob::new(vgg19(), CcVariant::Fair),
        offset(RateJob::new(vgg19(), CcVariant::Fair), 130_000_000),
    ];
    assert_exact_solo(&cfg, &pair, Drive::Iterations(3));
}

/// A down window (0×, floored to `MIN_MULTIPLIER`) and a half-capacity
/// window open mid-phase under a job sending alone at line rate: the
/// queue stands, so the solo path hands back to `step` until it drains.
#[test]
fn solo_path_yields_to_a_standing_queue_in_a_down_window() {
    let us = |us: u64, extra_ns: u64| Time::from_nanos(us * 1_000 + extra_ns);
    let cfg = RateSimConfig {
        capacity_schedule: Some(LinkSchedule::new(vec![
            (us(160_000, 700), 0.0),
            (us(175_003, 0), 1.0),
            (us(420_000, 11), 0.5),
            (us(440_000, 0), 1.0),
        ])),
        ..RateSimConfig::default()
    };
    let jobs = [RateJob::new(vgg19(), CcVariant::Fair)];
    assert_exact_solo(&cfg, &jobs, Drive::For(Dur::from_millis(700)));
}

/// The delay-based clock and both progress-fed DCQCN wrappers, each alone
/// on the link.
#[test]
fn solo_zoo_controllers_match_single_stepping() {
    for variant in [
        CcVariant::Swift {
            target_delay: Dur::from_micros(30),
        },
        CcVariant::Mltcp { bonus: 1.0 },
        CcVariant::Policy {
            policy: FairnessPolicy::BonusDecay {
                bonus: 1.0,
                decay: 3.0,
            },
        },
    ] {
        let jobs = [RateJob::new(vgg19(), variant)];
        assert_exact_solo(&RateSimConfig::default(), &jobs, Drive::Iterations(3));
    }
}

/// Pipelined jobs end solo windows mid-iteration, between segments,
/// where float dust can stay queued through the compute gap.
#[test]
fn solo_pipelined_gaps_match_single_stepping() {
    let spec = JobSpec::reference(Model::Vgg19, 600).pipelined(3, Dur::from_millis(4));
    let alone = [RateJob::new(spec, CcVariant::Fair)];
    assert_exact_solo(&RateSimConfig::default(), &alone, Drive::Iterations(3));
    let staggered = [
        RateJob::new(spec, CcVariant::Fair),
        offset(RateJob::new(spec, CcVariant::Fair), 31_000_007),
    ];
    assert_exact_solo(&RateSimConfig::default(), &staggered, Drive::Iterations(4));
}

/// A marker that marks an empty queue keeps every step on the full path.
#[test]
fn solo_path_declines_when_an_empty_queue_marks() {
    let cfg = RateSimConfig {
        marker: RedMarker {
            kmin: -1.0,
            kmax: 400_000.0,
            pmax: 0.01,
        },
        ..RateSimConfig::default()
    };
    let jobs = [RateJob::new(vgg19(), CcVariant::Fair)];
    let split = assert_exact(&cfg, &jobs, Drive::Iterations(2));
    assert_eq!(split.solo, 0);
    assert!(split.idle > 0);
}

/// Fig. 1's fair pair, locked in contention, under `signal`'s 5% mark
/// and CNP loss: the chaos RNG is drawn inside windows.
#[test]
fn contended_signal_loss_matches_single_stepping() {
    let cfg = RateSimConfig {
        signal_loss: Some(SignalLoss {
            mark_loss: 0.05,
            cnp_loss: 0.05,
            seed: 3,
        }),
        ..traced()
    };
    let jobs = [CcVariant::Fair; 2].map(|v| RateJob::new(vgg19(), v));
    assert_exact_contended(&cfg, &jobs, Drive::Iterations(5), 9_912_815_119_921_539_979);
}

/// Jittered CNP thresholds: the engine RNG is drawn inside windows, one
/// draw per fired mark in job order.
#[test]
fn contended_mark_noise_matches_single_stepping() {
    let cfg = RateSimConfig {
        mark_noise: 0.3,
        seed: 11,
        ..RateSimConfig::default()
    };
    let jobs = [
        RateJob::new(vgg19(), CcVariant::Fair),
        RateJob::new(JobSpec::reference(Model::Vgg19, 1400), CcVariant::Fair),
    ];
    assert_exact_contended(&cfg, &jobs, Drive::Iterations(5), 8_477_588_752_461_794_370);
}

/// A half-capacity window opens and closes off the step grid while the
/// fair pair contends.
#[test]
fn contended_capacity_window_matches_single_stepping() {
    let cfg = RateSimConfig {
        capacity_schedule: Some(LinkSchedule::new(vec![
            (Time::from_nanos(200_000_700), 0.5),
            (Time::from_nanos(300_011_003), 1.0),
        ])),
        ..RateSimConfig::default()
    };
    let jobs = [CcVariant::Fair; 2].map(|v| RateJob::new(vgg19(), v));
    assert_exact_contended(
        &cfg,
        &jobs,
        Drive::For(Dur::from_millis(700)),
        2_150_682_781_324_709_422,
    );
}

/// Table 1's third group with WideResNet50 on Swift: its delay-sensing
/// clock runs while it computes beside the two contending fair DCQCN
/// jobs, whose standing queue exceeds its 5 µs target, and without phase
/// restarts that state carries into its next phase.
#[test]
fn contended_swift_beside_a_dcqcn_pair_matches_single_stepping() {
    let j = JobSpec::reference;
    let jobs = [
        RateJob::new(j(Model::BertLarge, 8), CcVariant::Fair),
        RateJob::new(j(Model::Vgg19, 1400), CcVariant::Fair),
        RateJob::new(
            j(Model::WideResNet50, 800),
            CcVariant::Swift {
                target_delay: Dur::from_micros(5),
            },
        ),
    ];
    let cfg = RateSimConfig {
        restart_on_phase: false,
        ..RateSimConfig::default()
    };
    assert_exact_contended(&cfg, &jobs, Drive::Iterations(3), 9_959_360_917_075_135_780);
}

/// MLTCP against a bonus-decay policy job: progress-fed boosts on both
/// contending controllers.
#[test]
fn contended_progress_fed_pair_matches_single_stepping() {
    let jobs = [
        RateJob::new(vgg19(), CcVariant::Mltcp { bonus: 1.0 }),
        RateJob::new(
            vgg19(),
            CcVariant::Policy {
                policy: FairnessPolicy::BonusDecay {
                    bonus: 1.0,
                    decay: 3.0,
                },
            },
        ),
    ];
    assert_exact_contended(
        &traced(),
        &jobs,
        Drive::Iterations(4),
        16_261_825_818_283_073_245,
    );
}

/// A staggered pipelined pair: segments overlap, and a segment that ends
/// under contention leaves float dust queued into its compute gap.
#[test]
fn contended_pipelined_pair_matches_single_stepping() {
    let spec = JobSpec::reference(Model::Vgg19, 600).pipelined(3, Dur::from_millis(4));
    let jobs = [
        RateJob::new(spec, CcVariant::Fair),
        offset(RateJob::new(spec, CcVariant::Fair), 2_000_003),
    ];
    assert_exact_contended(
        &RateSimConfig::default(),
        &jobs,
        Drive::Iterations(4),
        9_654_006_737_496_306_376,
    );
}
