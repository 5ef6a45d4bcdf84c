//! Pins the packet engine's output bit for bit on three setups, at
//! `train_packets` 1 (the exact per-packet engine) and 64 (full trains):
//!
//! - one Table 1 rotation replica (`shard::build_packet`, 3 iterations);
//! - a contended ResNet50-100 pair;
//! - a chaos pair: comm-volume jitter (fractional phase bytes), mark and
//!   CNP loss, a degraded link and a departure.
//!
//! Each run is reduced to its packet and CNP counts, events processed,
//! the bits of every job's delivered bytes, every iteration time in
//! nanoseconds, and an FNV-1a hash of the JSONL telemetry export. Engine
//! speedups must leave every one of these unchanged.

use dcqcn::{CcVariant, SignalLoss};
use mlcc::experiments::shard::{build_packet, ShardConfig};
use mlcc_repro::*;
use netsim::packet::{PacketSimConfig, PacketSimulator};
use netsim::rate::RateJob;
use simtime::{Dur, Time};
use telemetry::{export, BufferRecorder};
use topology::LinkSchedule;
use workload::{JobSpec, Model, PhaseNoise};

/// Everything a run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// `(sent, marked)` packets.
    packets: (u64, u64),
    cnps: u64,
    events: u64,
    /// `delivered(i).to_bits()` per job.
    delivered_bits: Vec<u64>,
    /// Iteration times in nanoseconds, per job.
    iteration_ns: Vec<Vec<u64>>,
    /// FNV-1a (64-bit) of the recorder's JSONL export.
    trace_fnv: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How long a setup runs.
enum Stop {
    Iterations(usize, Dur),
    At(Dur),
}

fn fingerprint(cfg: PacketSimConfig, jobs: &[RateJob], stop: Stop) -> Fingerprint {
    let mut sim = PacketSimulator::with_recorder(cfg, jobs, BufferRecorder::new());
    match stop {
        Stop::Iterations(n, span) => assert!(sim.run_until_iterations(n, span)),
        Stop::At(t) => sim.run_until(Time::ZERO + t),
    }
    Fingerprint {
        packets: sim.packet_counts(),
        cnps: sim.cnps_sent(),
        events: sim.events_processed(),
        delivered_bits: (0..jobs.len())
            .map(|i| sim.delivered(i).to_bits())
            .collect(),
        iteration_ns: (0..jobs.len())
            .map(|i| {
                sim.progress(i)
                    .iteration_times()
                    .iter()
                    .map(|d| d.as_nanos())
                    .collect()
            })
            .collect(),
        trace_fnv: fnv1a(export::jsonl(sim.recorder().events()).as_bytes()),
    }
}

fn with_trains(cfg: PacketSimConfig, train_packets: u32) -> PacketSimConfig {
    PacketSimConfig {
        train_packets,
        ..cfg
    }
}

fn rotation_replica(train_packets: u32) -> Fingerprint {
    let cfg = ShardConfig {
        groups: 1,
        iterations: 3,
        ..ShardConfig::paper_scale()
    };
    let scn = build_packet(&cfg);
    fingerprint(
        with_trains(scn.configs[0].clone(), train_packets),
        &scn.groups[0],
        Stop::Iterations(cfg.iterations, cfg.horizon()),
    )
}

fn contended_pair(train_packets: u32) -> Fingerprint {
    let heavy = JobSpec::reference(Model::ResNet50, 100);
    let jobs = [
        RateJob::new(
            heavy,
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
        ),
        RateJob::new(heavy, CcVariant::Fair),
    ];
    fingerprint(
        with_trains(PacketSimConfig::default(), train_packets),
        &jobs,
        Stop::At(Dur::from_millis(120)),
    )
}

fn chaos_pair(train_packets: u32) -> Fingerprint {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let noise = |job| PhaseNoise {
        seed: 23,
        job,
        compute_jitter: 0.1,
        comm_jitter: 0.3,
        straggler_prob: 0.0,
        straggler_factor: 1.0,
    };
    let jobs = [
        RateJob {
            noise: Some(noise(0)),
            depart_at: Some(Time::ZERO + Dur::from_millis(170)),
            ..RateJob::new(spec, CcVariant::Fair)
        },
        RateJob {
            noise: Some(noise(1)),
            start_offset: Dur::from_micros(1_500),
            ..RateJob::new(
                spec,
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
            )
        },
    ];
    let cfg = PacketSimConfig {
        capacity_schedule: Some(LinkSchedule::degraded(
            Time::ZERO + Dur::from_millis(40),
            Time::ZERO + Dur::from_millis(110),
            0.6,
        )),
        signal_loss: Some(SignalLoss {
            mark_loss: 0.2,
            cnp_loss: 0.15,
            seed: 5,
        }),
        seed: 3,
        ..PacketSimConfig::default()
    };
    fingerprint(
        with_trains(cfg, train_packets),
        &jobs,
        Stop::At(Dur::from_millis(260)),
    )
}

#[test]
fn rotation_replica_is_pinned() {
    // Trains of 64 build the queue past `kmin`; single packets never do.
    assert_eq!(
        rotation_replica(64),
        Fingerprint {
            packets: (3_949_224, 694),
            cnps: 641,
            events: 124_079,
            delivered_bits: vec![
                4746958671999664128,
                4741940264707293184,
                4735373070733148160,
                4735373070733148160,
            ],
            iteration_ns: vec![
                vec![285707056, 285655195, 285577932],
                vec![285010482, 285033378, 285019167],
                vec![285173578, 285167162, 285191444],
                vec![285183676, 285192374, 285160066],
            ],
            trace_fnv: 17714066677161828074,
        }
    );
    assert_eq!(
        rotation_replica(1),
        Fingerprint {
            packets: (3_949_224, 0),
            cnps: 0,
            events: 7_898_460,
            delivered_bits: vec![
                4746958671999664128,
                4741940264707293184,
                4735373070733148160,
                4735373070733148160,
            ],
            iteration_ns: vec![
                vec![285158204, 285158204, 285158204],
                vec![284845996, 284845996, 284845996],
                vec![285114684, 285114684, 285114684],
                vec![285114684, 285114684, 285114684],
            ],
            trace_fnv: 164787748857988268,
        }
    );
}

#[test]
fn contended_pair_is_pinned() {
    assert_eq!(
        contended_pair(64),
        Fingerprint {
            packets: (432_424, 202),
            cnps: 90,
            events: 13_953,
            delivered_bits: vec![4733067291770486784, 4730340502933602304],
            iteration_ns: vec![vec![69909382, 48631201], vec![76255793]],
            trace_fnv: 12681404465728279212,
        }
    );
    assert_eq!(
        contended_pair(1),
        Fingerprint {
            packets: (492_353, 189),
            cnps: 89,
            events: 984_799,
            delivered_bits: vec![4733317258867113984, 4732117794760425472],
            iteration_ns: vec![vec![69348565, 38468974], vec![55344542]],
            trace_fnv: 7403656744800994889,
        }
    );
}

#[test]
fn chaos_pair_is_pinned() {
    assert_eq!(
        chaos_pair(64),
        Fingerprint {
            packets: (733_269, 8_218),
            cnps: 235,
            events: 23_306,
            delivered_bits: vec![4732438164960968704, 4737295996311044096],
            iteration_ns: vec![
                vec![109706108, 49246619],
                vec![86336094, 52457156, 48434290, 53088000],
            ],
            trace_fnv: 84451107453899745,
        }
    );
    assert_eq!(
        chaos_pair(1),
        Fingerprint {
            packets: (733_269, 6_910),
            cnps: 140,
            events: 1_466_667,
            delivered_bits: vec![4732438164960968704, 4737295996311044096],
            iteration_ns: vec![
                vec![108613300, 49116967],
                vec![81835998, 52327038, 48319411, 52923375],
            ],
            trace_fnv: 15542938699934083762,
        }
    );
}
