//! Engine performance: simulated-time throughput of the three network
//! engines — how much cluster time one wall-clock second buys at each
//! fidelity level.

use bench::{banner, configure};
use criterion::{criterion_group, criterion_main, Criterion};
use dcqcn::CcVariant;
use diagnostics::RunSummary;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::packet::{PacketJob, PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use simtime::{Bandwidth, Dur};
use std::time::Instant;
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

fn pair() -> [JobSpec; 2] {
    [
        JobSpec::reference(Model::ResNet50, 400),
        JobSpec::reference(Model::ResNet50, 400),
    ]
}

fn run_packet(train_packets: u32, span: Dur) -> (f64, u64) {
    let specs = pair();
    let jobs = [
        PacketJob::new(specs[0], CcVariant::Fair),
        PacketJob::new(specs[1], CcVariant::Fair),
    ];
    let mut sim = PacketSimulator::new(
        PacketSimConfig {
            train_packets,
            ..PacketSimConfig::default()
        },
        &jobs,
    );
    let t0 = Instant::now();
    sim.run_until(simtime::Time::ZERO + span);
    (t0.elapsed().as_secs_f64(), sim.events_processed())
}

fn run_rate(span: Dur) -> (f64, u64) {
    let specs = pair();
    let jobs = [
        RateJob::new(specs[0], CcVariant::Fair),
        RateJob::new(specs[1], CcVariant::Fair),
    ];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    let t0 = Instant::now();
    sim.run_for(span);
    (t0.elapsed().as_secs_f64(), sim.steps())
}

/// Writes `BENCH_packet.json` / `BENCH_rate.json` (the flat `RunSummary`
/// schema) so the speedup trajectory of this PR's optimisations is
/// machine-diffable. The directory comes from `BENCH_SUMMARY_DIR`,
/// defaulting to `target/bench-summaries`.
fn write_summaries() {
    let dir =
        std::env::var("BENCH_SUMMARY_DIR").unwrap_or_else(|_| "target/bench-summaries".to_string());
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let span = Dur::from_millis(200);

    let mut packet = RunSummary::new("packet");
    // Warm up, then one timed run per variant (criterion below gives the
    // statistically careful numbers; this json records the trajectory).
    run_packet(1, Dur::from_millis(20));
    let (w1, e1) = run_packet(1, span);
    let (w64, e64) = run_packet(64, span);
    packet.put("train1.wall_clock_secs", w1);
    packet.put("train1.events", e1 as f64);
    packet.put("train64.wall_clock_secs", w64);
    packet.put("train64.events", e64 as f64);
    packet.put("train64.speedup", w1 / w64);
    println!(
        "packet 200 ms: train=1 {:.3}s ({e1} events) -> train=64 {:.3}s ({e64} events), {:.1}x",
        w1,
        w64,
        w1 / w64
    );
    let _ = std::fs::write(format!("{dir}/BENCH_packet.json"), packet.to_json());

    let mut rate = RunSummary::new("rate");
    run_rate(Dur::from_millis(20));
    let (wf, sf) = run_rate(span);
    rate.put("fixed.wall_clock_secs", wf);
    rate.put("fixed.steps", sf as f64);
    println!("rate 200 ms: fixed {wf:.3}s ({sf} steps)");
    let _ = std::fs::write(format!("{dir}/BENCH_rate.json"), rate.to_json());
}

fn reproduce() {
    banner("Engine fidelity ladder — cost of simulating 200 ms of cluster time");
    println!(
        "fluid (event-driven allocation)  ≪  rate (5 µs DCQCN steps)  ≪  packet (per-packet events)"
    );
    println!("(timings follow from Criterion below)");
    write_summaries();
}

fn bench(c: &mut Criterion) {
    reproduce();
    let span = Dur::from_millis(200);
    let specs = pair();

    c.bench_function("engines/fluid_200ms_2jobs", |b| {
        b.iter(|| {
            let d = dumbbell(
                2,
                Bandwidth::from_gbps(50),
                Bandwidth::from_gbps(50),
                Dur::ZERO,
            );
            let t = &d.topology;
            let jobs: Vec<FluidJob> = (0..2)
                .map(|i| {
                    let path = t
                        .route(topology::FlowKey {
                            src: d.left_hosts[i],
                            dst: d.right_hosts[i],
                            tag: 0,
                        })
                        .unwrap();
                    FluidJob::single_path(specs[i], path.links().to_vec())
                })
                .collect();
            let mut sim = FluidSimulator::new(t, FluidConfig::fair(), &jobs);
            sim.run_for(span);
            sim.progress(0).completed()
        })
    });

    c.bench_function("engines/rate_200ms_2jobs", |b| {
        b.iter(|| {
            let jobs = [
                RateJob::new(specs[0], CcVariant::Fair),
                RateJob::new(specs[1], CcVariant::Fair),
            ];
            let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
            sim.run_for(span);
            sim.progress(0).completed()
        })
    });

    c.bench_function("engines/packet_200ms_2jobs", |b| {
        b.iter(|| {
            let jobs = [
                PacketJob::new(specs[0], CcVariant::Fair),
                PacketJob::new(specs[1], CcVariant::Fair),
            ];
            let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
            sim.run_until(simtime::Time::ZERO + span);
            sim.packet_counts().0
        })
    });

    // Packet trains: 64 packets per sender/dequeue event.
    c.bench_function("engines/packet_200ms_2jobs_train64", |b| {
        b.iter(|| {
            let jobs = [
                PacketJob::new(specs[0], CcVariant::Fair),
                PacketJob::new(specs[1], CcVariant::Fair),
            ];
            let mut sim = PacketSimulator::new(
                PacketSimConfig {
                    train_packets: 64,
                    ..PacketSimConfig::default()
                },
                &jobs,
            );
            sim.run_until(simtime::Time::ZERO + span);
            sim.packet_counts().0
        })
    });
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench
}
criterion_main!(benches);
