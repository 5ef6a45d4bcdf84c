//! Validates the fluid DCQCN abstraction against the per-packet engine:
//! the two must agree on solo pace, on fair splits, on the direction of
//! the `T` bias, and on iteration times for a full contended scenario.

use dcqcn::CcVariant;
use eventsim::Cdf;
use mlcc_repro::*;
use netsim::packet::{PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use simtime::{Bandwidth, Dur};
use workload::{JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);

/// A small job so packet-level runs stay cheap (≈51 ms iterations).
fn small_job() -> JobSpec {
    JobSpec::reference(Model::ResNet50, 400)
}

fn median_ms(times: Vec<Dur>, skip: usize) -> f64 {
    Cdf::from_samples(times.into_iter().skip(skip).collect())
        .median()
        .as_millis_f64()
}

#[test]
fn solo_iteration_times_agree() {
    let spec = small_job();
    let mut pkt = PacketSimulator::new(
        PacketSimConfig::default(),
        &[RateJob::new(spec, CcVariant::Fair)],
    );
    assert!(pkt.run_until_iterations(4, Dur::from_secs(2)));
    let mut fluid = RateSimulator::new(
        RateSimConfig::default(),
        &[RateJob::new(spec, CcVariant::Fair)],
    );
    assert!(fluid.run_until_iterations(4, Dur::from_secs(2)));
    let p = median_ms(pkt.progress(0).iteration_times(), 1);
    let f = median_ms(fluid.progress(0).iteration_times(), 1);
    assert!(
        (p - f).abs() < f * 0.02,
        "solo median: packet {p:.2} ms vs fluid {f:.2} ms"
    );
}

/// Two identical fair jobs, first contended iteration: both engines agree
/// on the physics of the overlap — the first iteration is materially
/// slower than solo and close to the fully-contended K + 2C level.
///
/// Beyond the first iterations the engines *deliberately* diverge: the
/// fluid engine's deterministic marking keeps synchronized fair jobs
/// locked forever (matching the paper's testbed observation), while the
/// packet engine's genuinely random per-packet marking makes the fair
/// lock a random walk that eventually slides apart — the sliding
/// instability is that strong. We assert the initial agreement and the
/// packet engine's eventual drift.
#[test]
fn fair_contention_agrees_initially_then_noise_slides() {
    let spec = small_job();
    let jobs_pkt = [
        RateJob::new(spec, CcVariant::Fair),
        RateJob::new(spec, CcVariant::Fair),
    ];
    let mut pkt = PacketSimulator::new(PacketSimConfig::default(), &jobs_pkt);
    assert!(pkt.run_until_iterations(8, Dur::from_secs(3)));
    let jobs_fluid = [
        RateJob::new(spec, CcVariant::Fair),
        RateJob::new(spec, CcVariant::Fair),
    ];
    let mut fluid = RateSimulator::new(RateSimConfig::default(), &jobs_fluid);
    assert!(fluid.run_until_iterations(8, Dur::from_secs(3)));

    let solo = spec.iteration_time_at(LINE).as_millis_f64();
    let locked = (spec.compute_time() + spec.comm_time_at(LINE) * 2).as_millis_f64();
    for i in 0..2 {
        let p1 = pkt.progress(i).iteration_times()[0].as_millis_f64();
        let f1 = fluid.progress(i).iteration_times()[0].as_millis_f64();
        // The packet engine's contended utilization sits below 100%: with
        // per-packet marking, CNP pressure is stronger than the fluid
        // accumulator's, and the DCQCN sawtooth undershoots — which is
        // *closer to the testbed* (the paper's fair scenario delivers
        // 21+21 of 50 Gbps). First iteration: contended, between the
        // work-conserving locked level and a ~65%-utilization ceiling.
        assert!(
            p1 > locked * 0.95 && p1 < locked * 1.45,
            "packet job {i}: first iteration {p1:.1} ms (solo {solo:.1}, locked {locked:.1})"
        );
        assert!(
            (f1 - locked).abs() < locked * 0.05,
            "fluid job {i}: first iteration {f1:.1} ms vs locked {locked:.1} ms"
        );
    }
    // Packet engine: by iteration 8 the random walk has slid the pair
    // apart (or nearly so) — fair-lock is unstable under real noise.
    for i in 0..2 {
        let late = median_ms(pkt.progress(i).iteration_times(), 5);
        assert!(
            late < locked * 0.95,
            "packet job {i}: still fully locked at {late:.1} ms after 8 iterations"
        );
    }
}

/// Paper-scale cross-engine validation: a Table 1-style four-job mix —
/// VGG19(1400) and WideResNet-50 plus two large-batch ResNet-50s, all
/// tuned to the same ≈285 ms period — placed in a staggered rotation the
/// way the paper's compatible groups run: communication phases laid out
/// end-to-end (total occupancy ≈76% of the link) so every job trains at
/// dedicated-network pace despite sharing one bottleneck. The paper's
/// core claim is that such compatible placements cost ≈nothing
/// (Table 1's ≈1.0 slowdowns); here both engines must reproduce it and
/// agree with each other within the existing cross-engine bound.
///
/// The rotation is expressed with `start_offset` (harmonic periods keep
/// the phases disjoint once started disjoint). A free-running slide from
/// synchronized starts would not do: four-way persistent contention is
/// exactly the regime where the engines *deliberately* diverge (random
/// vs. accumulator marking — see `fair_contention_agrees_initially_...`),
/// and a contiguous 119 ms VGG19 phase cannot fit in the gaps two
/// ResNet-50s leave in every 142 ms window anyway.
///
/// Scale: ≈20 GB of gradients ≈ 21 M packet events over 8+ iterations
/// per job. Per-packet simulation (`train_packets = 1`) is an order of
/// magnitude slower in wall-clock (and 64× the events) and blows the
/// unit-test budget, so the packet engine runs 64-packet trains against
/// the fixed-step rate engine (`scripts/check.sh` keeps a wall-clock
/// budget on this test).
#[test]
fn paper_scale_mix_agrees_with_batching() {
    // All periods ≈285 ms: VGG19 1400 is straight from Table 1; the other
    // batches are chosen so compute + solo-comm hits the same period
    // (harmonic periods are the paper's rotation-feasibility condition).
    let mix: [(JobSpec, CcVariant, Dur); 4] = [
        (
            JobSpec::reference(Model::Vgg19, 1400),
            CcVariant::Fair,
            // compute 166.3 ms; comm occupies [200.0, 318.7) of the cycle
            Dur::from_micros(33_680),
        ),
        (
            JobSpec::reference(Model::WideResNet50, 919),
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(70),
            },
            // compute 229.8 ms; comm occupies [335.7, 390.8)
            Dur::from_micros(105_970),
        ),
        (
            JobSpec::reference(Model::ResNet50, 3480),
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
            // compute 264.1 ms; comm occupies [407.8, 428.7)
            Dur::from_micros(143_630),
        ),
        (
            JobSpec::reference(Model::ResNet50, 3480),
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(130),
            },
            // compute 264.1 ms; comm occupies [445.7, 466.7)
            Dur::from_micros(181_590),
        ),
    ];
    let total_fraction: f64 = mix.iter().map(|(s, _, _)| s.comm_fraction_at(LINE)).sum();
    assert!(
        total_fraction > 0.7 && total_fraction < 0.85,
        "rotation should be busy but feasible, got {total_fraction:.2}"
    );

    let pkt_jobs: Vec<RateJob> = mix
        .iter()
        .map(|&(spec, variant, start_offset)| RateJob {
            start_offset,
            ..RateJob::new(spec, variant)
        })
        .collect();
    let mut pkt = PacketSimulator::new(
        PacketSimConfig {
            train_packets: 64,
            ..PacketSimConfig::default()
        },
        &pkt_jobs,
    );
    assert!(
        pkt.run_until_iterations(8, Dur::from_secs(8)),
        "packet engine stalled before 8 iterations"
    );

    let fluid_jobs: Vec<RateJob> = mix
        .iter()
        .map(|&(spec, variant, start_offset)| RateJob {
            start_offset,
            ..RateJob::new(spec, variant)
        })
        .collect();
    let mut fluid = RateSimulator::new(RateSimConfig::default(), &fluid_jobs);
    assert!(
        fluid.run_until_iterations(8, Dur::from_secs(8)),
        "fluid engine stalled before 8 iterations"
    );

    for (i, (spec, _, _)) in mix.iter().enumerate() {
        let solo = spec.iteration_time_at(LINE).as_millis_f64();
        let p = median_ms(pkt.progress(i).iteration_times(), 2);
        let f = median_ms(fluid.progress(i).iteration_times(), 2);
        assert!(
            (p - f).abs() < f * 0.06,
            "job {i} ({}): packet {p:.1} ms vs fluid {f:.1} ms",
            spec.model.name()
        );
        // The compatible rotation holds: both engines keep every job at
        // ≈dedicated pace (Table 1's ≈1.0 slowdown).
        assert!(
            p < solo * 1.06 && f < solo * 1.06,
            "job {i} ({}): rotation broke — packet {p:.1} / fluid {f:.1} ms vs solo {solo:.1} ms",
            spec.model.name()
        );
    }
}

/// The unfairness slide happens at packet granularity too, and converges
/// to dedicated-network pace — agreeing with the fluid engine's steady
/// state.
#[test]
fn unfair_slide_agrees() {
    let spec = small_job();
    let jobs = [
        RateJob::new(
            spec,
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
        ),
        RateJob::new(spec, CcVariant::Fair),
    ];
    let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
    assert!(sim.run_until_iterations(10, Dur::from_secs(4)));
    let solo = spec.iteration_time_at(LINE).as_millis_f64();
    for i in 0..2 {
        let steady = median_ms(sim.progress(i).iteration_times(), 4);
        assert!(
            steady < solo * 1.06,
            "packet job {i}: unfair steady state {steady:.1} ms vs solo {solo:.1} ms"
        );
        // The first iteration was contended: the slide had work to do.
        let first = sim.progress(i).iteration_times()[0].as_millis_f64();
        assert!(
            first > solo * 1.1,
            "packet job {i}: first iteration {first:.1} ms already at solo"
        );
    }
}
