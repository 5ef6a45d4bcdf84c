//! Physical-plausibility properties of both network engines, checked over
//! randomized job mixes: no job ever beats dedicated-network pace, and no
//! link ever carries more than its capacity. Also differential checks of
//! the incremental max-min allocator against the from-scratch reference
//! oracle, standalone and while driving the fluid engine.

use dcqcn::CcVariant;
use faults::{ChaosConfig, ChurnChaos, LinkChaos, PhaseChaos, SignalChaos};
use mlcc::experiments::chaos;
use mlcc_repro::*;
use netsim::alloc::{
    reference, strict_priority_into, weighted_max_min_into, AllocScratch, FlowDemand,
};
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use proptest::prelude::*;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{BufferRecorder, Event};
use topology::builders::dumbbell;
use topology::{LinkId, LinkSchedule, NodeKind, Topology};
use workload::{JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);

/// Job `k`'s allocated rate (Gbps) after every fluid solve that changed
/// it, read from the `RateChange` events the engine records.
fn fluid_rates(rec: &BufferRecorder, k: usize) -> Vec<(Time, f64)> {
    rec.events()
        .iter()
        .filter_map(|e| match e.event {
            Event::RateChange { flow, bps, .. } if flow as usize == k => Some((e.at, bps / 1e9)),
            _ => None,
        })
        .collect()
}

/// Any chaos config at all: every layer's knobs drawn independently, so
/// cases range from near-identity to all layers perturbing at once.
fn chaos_strategy() -> impl Strategy<Value = ChaosConfig> {
    (
        0u64..1_000_000,
        (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.25, 1.0f64..4.0),
        (0.0f64..1.0, 0.05f64..1.0, 0.0f64..0.5, 0u32..4),
        (0.0f64..1.0, 0.0f64..0.4, 0.0f64..0.5),
        (0.0f64..0.3, 0.0f64..0.3),
    )
        .prop_map(|(seed, ph, li, ch, si)| ChaosConfig {
            seed,
            phase: PhaseChaos {
                compute_jitter: ph.0,
                comm_jitter: ph.1,
                straggler_prob: ph.2,
                straggler_factor: ph.3,
            },
            links: LinkChaos {
                degrade_prob: li.0,
                degrade_factor: li.1,
                flap_prob: li.2,
                flap_count: li.3,
            },
            churn: ChurnChaos {
                arrival_prob: ch.0,
                max_arrival_frac: ch.1,
                departure_prob: ch.2,
            },
            signal: SignalChaos {
                mark_loss: si.0,
                cnp_loss: si.1,
            },
        })
}

/// Two dumbbells in one fabric that share no link: `routes[g][i]` carries
/// host pair `i` of dumbbell `g` across that dumbbell's bottleneck.
fn two_dumbbells() -> (Topology, Vec<Vec<Vec<LinkId>>>) {
    let mut t = Topology::new();
    let mut routes = Vec::new();
    for g in 0..2 {
        let left = t.add_node(NodeKind::TorSwitch, format!("tor-left{g}"));
        let right = t.add_node(NodeKind::TorSwitch, format!("tor-right{g}"));
        let bottleneck = t.add_link(left, right, LINE, Dur::ZERO);
        let mut pairs = Vec::new();
        for i in 0..2 {
            let src = t.add_host(format!("left{g}-{i}"), 1);
            let dst = t.add_host(format!("right{g}-{i}"), 1);
            let up = t.add_link(src, left, LINE, Dur::ZERO);
            let down = t.add_link(right, dst, LINE, Dur::ZERO);
            pairs.push(vec![up, bottleneck, down]);
        }
        routes.push(pairs);
    }
    (t, routes)
}

/// The largest capacity multiplier a schedule applies anywhere inside
/// `[from, to]` — the ceiling for throughput observed over that window.
fn max_mult_in(s: &LinkSchedule, from: Time, to: Time) -> f64 {
    let mut m = s.multiplier_at(from);
    for &(t, mult) in s.changes() {
        if t > from && t <= to {
            m = m.max(mult);
        }
    }
    m
}

fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (0usize..6, 1u32..4).prop_map(|(m, scale)| {
        let model = Model::ALL[m];
        // Batches scaled per model so iteration times stay in the
        // hundreds-of-ms band (BERT takes small batches).
        let base = match model {
            Model::BertLarge => 8,
            Model::Dlrm => 600,
            _ => 500,
        };
        JobSpec::reference(model, base * scale)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rate engine: with any two jobs and any variant mix, iteration
    /// times never beat solo pace, and throughput traces never exceed
    /// capacity.
    #[test]
    fn rate_engine_no_free_lunch(
        a in spec_strategy(),
        b in spec_strategy(),
        aggressive in proptest::bool::ANY,
    ) {
        let variant = if aggressive {
            CcVariant::StaticUnfair { timer: Dur::from_micros(100) }
        } else {
            CcVariant::Fair
        };
        let cfg = RateSimConfig {
            trace_interval: Some(Dur::from_millis(1)),
            ..RateSimConfig::default()
        };
        let jobs = [RateJob::new(a, variant), RateJob::new(b, CcVariant::Fair)];
        let mut sim = RateSimulator::new(cfg, &jobs);
        let per = a.iteration_time_at(LINE).max(b.iteration_time_at(LINE));
        prop_assert!(sim.run_until_iterations(4, per * 40));
        for (k, spec) in [a, b].iter().enumerate() {
            let solo = spec.iteration_time_at(LINE).as_secs_f64();
            for d in sim.progress(k).iteration_times() {
                prop_assert!(
                    d.as_secs_f64() >= solo * 0.999,
                    "job {k} iteration {:.4}s beat solo {:.4}s",
                    d.as_secs_f64(),
                    solo
                );
            }
            // Per-job throughput ≤ line rate (small slack for sampling).
            prop_assert!(sim
                .rate_trace(k)
                .iter()
                .all(|(_, gbps)| gbps <= 50.5));
        }
        // Aggregate delivered bytes ≤ capacity × time.
        let elapsed = sim.now().as_secs_f64();
        let delivered: f64 = (0..2)
            .map(|k| {
                let done: u64 = sim.progress(k).completed() as u64;
                done as f64 * [a, b][k].comm_bytes().as_bytes() as f64
            })
            .sum();
        prop_assert!(delivered * 8.0 <= 50e9 * elapsed * 1.001);
    }

    /// Fluid engine: same invariants under any sharing policy.
    #[test]
    fn fluid_engine_no_free_lunch(
        a in spec_strategy(),
        b in spec_strategy(),
        policy_pick in 0u8..3,
    ) {
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = d.topology.clone();
        let path = |i: usize| d.pair_links(i);
        let policy = match policy_pick {
            0 => SharingPolicy::MaxMin,
            1 => SharingPolicy::Weighted(vec![2.0, 1.0]),
            _ => SharingPolicy::Priority(vec![1, 0]),
        };
        let jobs = [
            FluidJob::single_path(a, path(0)),
            FluidJob::single_path(b, path(1)),
        ];
        let cfg = FluidConfig { policy, ..FluidConfig::fair() };
        let mut sim = FluidSimulator::with_recorder(&t, cfg, &jobs, BufferRecorder::new());
        let per = a.iteration_time_at(LINE).max(b.iteration_time_at(LINE));
        prop_assert!(sim.run_until_iterations(4, per * 40));
        for (k, spec) in [a, b].iter().enumerate() {
            let solo = spec.iteration_time_at(LINE).as_secs_f64();
            for dur in sim.progress(k).iteration_times() {
                prop_assert!(
                    dur.as_secs_f64() >= solo * 0.999,
                    "job {k} iteration {:.4}s beat solo {:.4}s",
                    dur.as_secs_f64(),
                    solo
                );
            }
            // Allocated throughput never exceeds the link.
            let rates = fluid_rates(sim.recorder(), k);
            prop_assert!(!rates.is_empty(), "job {k}: no rate recorded");
            prop_assert!(rates.iter().all(|&(_, gbps)| gbps <= 50.0 + 1e-6));
        }
    }

    /// The incremental allocation kernel agrees with the from-scratch
    /// reference on arbitrary flow sets, for both policies, with the
    /// scratch buffers reused across the two solves. Divergence is
    /// bounded by the freeze epsilon (`1e-6` of a link), not exact,
    /// because the two drain residuals in different float orders.
    #[test]
    fn incremental_allocator_matches_reference(
        caps_gbps in proptest::collection::vec(1.0f64..100.0, 2..12),
        raw_flows in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..12, 1..4),
                0.25f64..4.0,
                0u8..3,
                (proptest::bool::ANY, 0.5f64..60.0),
            ),
            1..32,
        ),
    ) {
        let caps: Vec<f64> = caps_gbps.iter().map(|c| c * 1e9).collect();
        let links: Vec<Vec<usize>> = raw_flows
            .iter()
            .map(|(ls, ..)| {
                let mut v: Vec<usize> = ls.iter().map(|l| l % caps.len()).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let demands: Vec<FlowDemand> = raw_flows
            .iter()
            .zip(&links)
            .map(|(&(_, weight, priority, (capped, cap_gbps)), links)| FlowDemand {
                links,
                weight,
                priority,
                rate_cap: if capped { cap_gbps * 1e9 } else { f64::INFINITY },
            })
            .collect();
        let tol = 1e-6 * caps.iter().fold(1.0f64, |a, &b| a.max(b)) + 1.0;

        let mut scratch = AllocScratch::default();
        let mut rates = Vec::new();
        weighted_max_min_into(&demands, &caps, &mut scratch, &mut rates);
        let oracle = reference::weighted_max_min(&demands, &caps);
        for (i, (got, want)) in rates.iter().zip(&oracle).enumerate() {
            prop_assert!(
                (got - want).abs() <= tol,
                "max-min flow {i}: incremental {got} vs reference {want}"
            );
        }

        strict_priority_into(&demands, &caps, &mut scratch, &mut rates);
        let oracle = reference::strict_priority(&demands, &caps);
        for (i, (got, want)) in rates.iter().zip(&oracle).enumerate() {
            prop_assert!(
                (got - want).abs() <= tol,
                "priority flow {i}: incremental {got} vs reference {want}"
            );
        }
    }

    /// Driving the fluid engine in arbitrary small time slices over two
    /// disjoint dumbbells, the rates its component-local incremental
    /// allocations produce never drift from the from-scratch reference
    /// solve over every active flow at once.
    #[test]
    fn fluid_incremental_rates_match_reference_in_slices(
        a in spec_strategy(),
        b in spec_strategy(),
        policy_pick in 0u8..3,
        slice_ms in 1u64..12,
    ) {
        let (t, routes) = two_dumbbells();
        let policy = match policy_pick {
            0 => SharingPolicy::MaxMin,
            1 => SharingPolicy::Weighted(vec![2.0, 1.0, 1.0, 2.0]),
            _ => SharingPolicy::Priority(vec![1, 0, 0, 1]),
        };
        // The second dumbbell runs the pair swapped and staggered, so the
        // two components' events interleave.
        let stagger = Dur::from_millis(3);
        let jobs = [
            FluidJob::single_path(a, routes[0][0].clone()),
            FluidJob::single_path(b, routes[0][1].clone()),
            FluidJob::single_path_at(b, routes[1][0].clone(), stagger),
            FluidJob::single_path_at(a, routes[1][1].clone(), stagger),
        ];
        let cfg = FluidConfig { policy, ..FluidConfig::fair() };
        let mut sim = FluidSimulator::new(&t, cfg, &jobs);
        for _ in 0..60 {
            sim.run_for(Dur::from_millis(slice_ms));
            if let Some(div) = sim.debug_max_rate_divergence() {
                prop_assert!(
                    div <= 1.0,
                    "incremental rates diverged {div} bps from reference"
                );
            }
        }
    }

    /// Rate engine under arbitrary fault injection: throughput never goes
    /// negative, per-sample occupancy respects the (possibly degraded)
    /// bottleneck capacity, iteration completions stay strictly monotone,
    /// and aggregate delivered bytes never exceed capacity × time.
    #[test]
    fn rate_engine_conserves_under_chaos(
        a in spec_strategy(),
        b in spec_strategy(),
        chaos_cfg in chaos_strategy(),
    ) {
        let trace = Dur::from_millis(1);
        let mut sim_cfg = RateSimConfig {
            trace_interval: Some(trace),
            ..RateSimConfig::default()
        };
        let mut jobs = [
            RateJob::new(a, CcVariant::StaticUnfair { timer: Dur::from_micros(100) }),
            RateJob::new(b, CcVariant::Fair),
        ];
        let per = a.iteration_time_at(LINE).max(b.iteration_time_at(LINE));
        let horizon = per * 10;
        chaos::apply_rate(&chaos_cfg, &mut jobs, &mut sim_cfg, horizon, Dur::ZERO);
        let schedule = sim_cfg
            .capacity_schedule
            .clone()
            .unwrap_or_else(LinkSchedule::identity);
        let mut sim = RateSimulator::new(sim_cfg, &jobs);
        sim.run_for(horizon);

        // Occupancy: each 1 ms sample's aggregate delivered rate fits
        // under the largest capacity in effect anywhere in its window
        // (same 1 % + 0.5 Gbps sampling slack as the chaos-free test).
        for ((t, g0), (t1, g1)) in sim.rate_trace(0).iter().zip(sim.rate_trace(1).iter()) {
            prop_assert_eq!(t, t1, "job traces sampled at different instants");
            prop_assert!(g0 >= -1e-9 && g1 >= -1e-9, "negative rate at {t:?}");
            let from = if t.saturating_since(Time::ZERO) >= trace {
                t - trace
            } else {
                Time::ZERO
            };
            let cap = 50.0 * max_mult_in(&schedule, from, t);
            prop_assert!(
                g0 + g1 <= cap * 1.01 + 0.5,
                "occupancy {:.2} Gbps exceeds degraded capacity {cap:.2} at {t:?}",
                g0 + g1
            );
        }
        // Monotone progress: completion instants strictly increase.
        for k in 0..2 {
            for w in sim.progress(k).iterations().windows(2) {
                prop_assert!(
                    w[0].completed < w[1].completed,
                    "job {k}: iteration completions not increasing"
                );
            }
        }
        // Conservation: delivered bytes ≤ nominal capacity × elapsed time
        // (degradation only ever lowers the bound).
        let elapsed = sim.now().as_secs_f64();
        let delivered: f64 = (0..2)
            .map(|k| {
                let done = sim.progress(k).completed() as f64;
                done * [a, b][k].comm_bytes().as_bytes() as f64
            })
            .sum();
        prop_assert!(delivered * 8.0 <= 50e9 * elapsed * 1.001);
    }

    /// Fluid engine under the same arbitrary fault plans: allocated rates
    /// never go negative and never exceed any path link's (possibly
    /// degraded) capacity, and completions stay strictly monotone.
    #[test]
    fn fluid_engine_conserves_under_chaos(
        a in spec_strategy(),
        b in spec_strategy(),
        chaos_cfg in chaos_strategy(),
    ) {
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = d.topology.clone();
        let path = |i: usize| d.pair_links(i);
        let per = a.iteration_time_at(LINE).max(b.iteration_time_at(LINE));
        let horizon = per * 10;
        let plan = chaos_cfg.compile(2, t.link_count(), horizon);
        let mut jobs = [
            FluidJob::single_path(a, path(0)),
            FluidJob::single_path(b, path(1)),
        ];
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
            job.depart_at = plan.departures[j];
        }
        let cfg = FluidConfig {
            link_schedules: plan.link_schedules.clone(),
            ..FluidConfig::fair()
        };
        let mut sim = FluidSimulator::with_recorder(&t, cfg, &jobs, BufferRecorder::new());
        sim.run_for(horizon);

        let eps = Dur::from_micros(1);
        for (k, paths) in [path(0), path(1)].iter().enumerate() {
            // Allocated throughput obeys every (degraded) link on the path.
            for (at, gbps) in fluid_rates(sim.recorder(), k) {
                prop_assert!(gbps >= -1e-9, "job {k}: negative rate at {at:?}");
                for l in paths {
                    let Some(s) = plan.link_schedules.get(l.0 as usize) else {
                        continue;
                    };
                    let from = if at.saturating_since(Time::ZERO) >= eps {
                        at - eps
                    } else {
                        Time::ZERO
                    };
                    let cap = 50.0 * max_mult_in(s, from, at + eps);
                    prop_assert!(
                        gbps <= cap + 1e-6,
                        "job {k}: {gbps:.3} Gbps over link {l:?} cap {cap:.3} at {at:?}"
                    );
                }
            }
            for w in sim.progress(k).iterations().windows(2) {
                prop_assert!(
                    w[0].completed < w[1].completed,
                    "job {k}: iteration completions not increasing"
                );
            }
        }
    }
}
