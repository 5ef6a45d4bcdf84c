//! Cross-engine conformance: the idealized fluid engine, the emergent
//! rate-based DCQCN engine and the per-packet engine must agree on the
//! physics they share. Every run goes through one [`Engine`]-generic
//! driver, so each contract below is written once and checked on every
//! engine that supports the scenario:
//!
//! * **Locked and interleaved pace** — fair pairs lock at `K + 2C` on the
//!   fluid and rate engines, unfair pairs and lone jobs run at solo pace,
//!   and on both DCQCN engines the unfair Fig. 1 pair reaches solo pace
//!   no later than the fair one.
//! * **Seeded faults** — all three engines realize the *same* chaos
//!   schedule and agree on its decisive completion ordering.
//! * **The congestion-control zoo** — every [`CcVariant`] runs on every
//!   engine that supports it (the delay-based `Swift` has no mark-driven
//!   packet model), and the engines agree on decisive completion
//!   orderings or on the settled interleaved steady state.
//! * **Quiet-run byte identity** — the `variants` sweep's merged
//!   telemetry stream is byte-identical across `--jobs 1/4` and
//!   `--shards 1/4`.
//! * **The engine contract** itself: what `run_until_iterations` returns
//!   and that `run_until` is idempotent.

use dcqcn::{CcVariant, FairnessPolicy};
use diagnostics::{recovery, RecoveryConfig, RecoveryReport};
use eventsim::Cdf;
use faults::{ChaosConfig, PhaseChaos};
use mlcc::experiments::variants::{self, VariantsConfig};
use mlcc_repro::*;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::packet::{PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use proptest::prelude::*;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{BufferRecorder, NoopRecorder, Recorder};
use topology::builders::dumbbell;
use workload::{JobSpec, Model, PhaseNoise};

const LINE: Bandwidth = Bandwidth::from_gbps(50);
/// `keep` for [`drive`]: every iteration a run recorded.
const ALL: usize = usize::MAX;

/// Jobs every engine can run: one `spec` per controller in `variants`,
/// job 1 started `stagger` late, optional per-job phase noise and
/// departure. The fluid engine realizes the controllers through the
/// sharing policy it is given.
struct Scenario {
    spec: JobSpec,
    variants: Vec<CcVariant>,
    stagger: Dur,
    noise: Vec<Option<PhaseNoise>>,
    depart_at: Vec<Option<Time>>,
}

impl Scenario {
    fn new(spec: JobSpec, variants: &[CcVariant], stagger: Dur) -> Scenario {
        Scenario {
            spec,
            variants: variants.to_vec(),
            stagger,
            noise: vec![None; variants.len()],
            depart_at: vec![None; variants.len()],
        }
    }

    fn offset(&self, i: usize) -> Dur {
        if i == 1 {
            self.stagger
        } else {
            Dur::ZERO
        }
    }

    /// The job list both DCQCN engines take.
    fn jobs(&self) -> Vec<RateJob> {
        (0..self.variants.len())
            .map(|i| RateJob {
                start_offset: self.offset(i),
                noise: self.noise[i],
                depart_at: self.depart_at[i],
                ..RateJob::new(self.spec, self.variants[i])
            })
            .collect()
    }

    fn rate<R: Recorder>(&self, rec: R) -> RateSimulator<R> {
        RateSimulator::with_recorder(RateSimConfig::default(), &self.jobs(), rec)
    }

    fn packet<R: Recorder>(&self, rec: R) -> PacketSimulator<R> {
        PacketSimulator::with_recorder(PacketSimConfig::default(), &self.jobs(), rec)
    }

    /// One dumbbell pair per job, all crossing the bottleneck.
    fn fluid<R: Recorder>(&self, policy: SharingPolicy, rec: R) -> FluidSimulator<R> {
        let d = dumbbell(self.variants.len(), LINE, LINE, Dur::ZERO);
        let jobs: Vec<FluidJob> = (0..self.variants.len())
            .map(|i| FluidJob {
                start_offset: self.offset(i),
                noise: self.noise[i],
                depart_at: self.depart_at[i],
                ..FluidJob::single_path(self.spec, d.pair_links(i))
            })
            .collect();
        let cfg = FluidConfig {
            policy,
            ..FluidConfig::fair()
        };
        FluidSimulator::with_recorder(&d.topology, cfg, &jobs, rec)
    }
}

/// One engine's view of a run: per-job iteration times and completion
/// instants.
struct Run {
    times: Vec<Vec<Dur>>,
    completions: Vec<Vec<Time>>,
}

impl Run {
    /// All iteration completions as `((job, iteration), instant)`.
    fn events(&self) -> Vec<((usize, usize), Time)> {
        self.completions
            .iter()
            .enumerate()
            .flat_map(|(j, ts)| ts.iter().enumerate().map(move |(i, &t)| ((j, i), t)))
            .collect()
    }

    fn median_ms(&self, job: usize, skip: usize) -> f64 {
        Cdf::from_samples(self.times[job].iter().skip(skip).copied().collect())
            .median()
            .as_millis_f64()
    }
}

/// Runs `sim` until every job completed `iters` iterations (asserting it
/// does within `budget`) and observes the first `keep` iterations of each
/// job. Engines overshoot the target by different amounts (the stop
/// condition is "every job reached `iters`"), so `keep = iters` truncates
/// runs to a common grid comparable key for key.
fn drive<E: Engine>(sim: &mut E, iters: usize, budget: Dur, keep: usize) -> Run {
    assert!(sim.run_until_iterations(iters, budget));
    let spans: Vec<&[workload::IterationRecord]> = (0..sim.num_jobs())
        .map(|i| {
            let s = sim.progress(i).iterations();
            &s[..s.len().min(keep)]
        })
        .collect();
    Run {
        times: spans
            .iter()
            .map(|s| s.iter().map(|t| t.completed - t.started).collect())
            .collect(),
        completions: spans
            .iter()
            .map(|s| s.iter().map(|t| t.completed).collect())
            .collect(),
    }
}

/// [`drive`] with a 30 s budget.
fn run<E: Engine>(mut sim: E, iters: usize, keep: usize) -> Run {
    drive(&mut sim, iters, Dur::from_secs(30), keep)
}

/// The engines must agree on every *decisive* ordering of completion
/// events once the interleaving slide has settled (iterations before
/// `settle` are exempt — the slide's transient evolves at engine-specific
/// speeds). Interleaved jobs finish each round within hairs of each
/// other and the within-round order is engine micro-timing, so ties
/// (events closer than half a median iteration) are also exempt — but a
/// straggler shifts completions by whole iterations, and those
/// reorderings must look the same everywhere.
fn assert_order_conforms(a: &Run, b: &Run, settle: usize, label: &str) {
    let settled = |ev: Vec<((usize, usize), Time)>| -> Vec<((usize, usize), Time)> {
        ev.into_iter().filter(|((_, i), _)| *i >= settle).collect()
    };
    let (ea, eb) = (settled(a.events()), settled(b.events()));
    let eps_of = |run: &Run| Dur::from_micros((run.median_ms(0, settle) * 500.0) as u64);
    let (eps_a, eps_b) = (eps_of(a), eps_of(b));
    let time_in = |ev: &[((usize, usize), Time)], key| {
        ev.iter().find(|(k, _)| *k == key).expect("same grid").1
    };
    for &(k1, t1) in &ea {
        for &(k2, t2) in &ea {
            if t1 + eps_a < t2 {
                let (u1, u2) = (time_in(&eb, k1), time_in(&eb, k2));
                assert!(
                    u2 + eps_b > u1,
                    "{label}: {k1:?} decisively precedes {k2:?} in one engine \
                     ({t1:?} vs {t2:?}) but follows it in the other ({u1:?} vs {u2:?})"
                );
            }
        }
    }
}

/// Two identical synchronized jobs under fair sharing: the fluid and rate
/// engines lock them at K + 2C. (The packet engine's marking noise slides
/// them apart over tens of iterations; see
/// `unfairness_reaches_solo_pace_no_later_than_fairness`.)
#[test]
fn fair_locked_state_agrees_across_engines() {
    let spec = JobSpec::reference(Model::Vgg19, 1200);
    let expected = (spec.compute_time() + spec.comm_time_at(LINE) * 2).as_millis_f64();
    let sc = Scenario::new(spec, &[CcVariant::Fair, CcVariant::Fair], Dur::ZERO);
    let fluid = run(sc.fluid(SharingPolicy::MaxMin, NoopRecorder), 8, ALL);
    let rate = run(sc.rate(NoopRecorder), 8, ALL);
    for k in 0..2 {
        let (f, r) = (fluid.median_ms(k, 8 / 3), rate.median_ms(k, 8 / 3));
        assert!(
            (f - expected).abs() < 1.0,
            "fluid job {k}: {f:.1} vs {expected:.1}"
        );
        assert!(
            (r - expected).abs() < expected * 0.01,
            "rate job {k}: {r:.1} vs {expected:.1}"
        );
    }
}

/// The Fig. 1 pair: two VGG19(1200) jobs on the DCQCN bottleneck,
/// synchronized, both fair or job 0 on `T = 100 µs`.
fn fig1_pair(unfair: bool) -> Scenario {
    let first = if unfair {
        CcVariant::StaticUnfair {
            timer: Dur::from_micros(100),
        }
    } else {
        CcVariant::Fair
    };
    let spec = JobSpec::reference(Model::Vgg19, 1200);
    Scenario::new(spec, &[first, CcVariant::Fair], Dur::ZERO)
}

const FIG1_ITERS: usize = 60;

/// The first iteration at which every job of `run` is within 1% of
/// `solo_ms`, or `None` if the pair never gets there.
fn first_at_solo(run: &Run, solo_ms: f64) -> Option<usize> {
    (0..FIG1_ITERS).find(|&i| {
        run.times
            .iter()
            .all(|t| (t[i].as_millis_f64() - solo_ms).abs() <= solo_ms * 0.01)
    })
}

/// The cross-engine form of the paper's §2 result on the Fig. 1 pair:
/// one job list drives both DCQCN engines, and on each the unfair cell
/// reaches solo pace no later than the fair one. (The rate engine's fair
/// pair stays locked at `K + 2C`; the packet engine's slides apart by
/// itself, later.)
#[test]
fn unfairness_reaches_solo_pace_no_later_than_fairness() {
    let solo = JobSpec::reference(Model::Vgg19, 1200)
        .iteration_time_at(LINE)
        .as_millis_f64();
    let packet_cfg = PacketSimConfig {
        train_packets: 64,
        ..PacketSimConfig::default()
    };
    let budget = Dur::from_secs(60);
    let [rate, packet] = [false, true].map(|packet| {
        [false, true].map(|unfair| {
            let jobs = fig1_pair(unfair).jobs();
            let run = if packet {
                let mut sim = PacketSimulator::new(packet_cfg.clone(), &jobs);
                drive(&mut sim, FIG1_ITERS, budget, FIG1_ITERS)
            } else {
                let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
                drive(&mut sim, FIG1_ITERS, budget, FIG1_ITERS)
            };
            first_at_solo(&run, solo)
        })
    });
    for (engine, [fair, unfair]) in [("rate", rate), ("packet", packet)] {
        let unfair = unfair.unwrap_or_else(|| panic!("{engine}: unfair never reaches solo pace"));
        assert!(
            fair.is_none_or(|fair| unfair <= fair),
            "{engine}: unfair reaches solo pace at iteration {unfair}, fair at {fair:?}"
        );
    }
}

/// Unfairness realized two ways — DCQCN timer asymmetry (emergent) and
/// weighted max-min (imposed) — both converge compatible jobs to solo pace.
#[test]
fn unfair_interleave_agrees_across_engines() {
    let spec = JobSpec::reference(Model::Vgg19, 1200);
    let solo = spec.iteration_time_at(LINE).as_millis_f64();
    let aggressor = CcVariant::StaticUnfair {
        timer: Dur::from_micros(100),
    };
    let sc = Scenario::new(spec, &[aggressor, CcVariant::Fair], Dur::ZERO);
    let fluid = run(
        sc.fluid(SharingPolicy::Weighted(vec![2.0, 1.0]), NoopRecorder),
        12,
        ALL,
    );
    let rate = run(sc.rate(NoopRecorder), 12, ALL);
    for k in 0..2 {
        let (f, r) = (fluid.median_ms(k, 12 / 3), rate.median_ms(k, 12 / 3));
        assert!(
            (f - solo).abs() < 2.0,
            "fluid job {k}: {f:.1} vs solo {solo:.1}"
        );
        assert!(
            (r - solo).abs() < solo * 0.02,
            "rate job {k}: {r:.1} vs solo {solo:.1}"
        );
    }
}

/// A lone job runs at its analytic solo pace in both engines.
#[test]
fn solo_pace_agrees_across_engines() {
    for model in [Model::Vgg16, Model::Dlrm, Model::ResNet50] {
        let spec = JobSpec::reference(model, 1400);
        let solo = spec.iteration_time_at(LINE).as_millis_f64();
        let sc = Scenario::new(spec, &[CcVariant::Fair], Dur::ZERO);
        let f = run(sc.fluid(SharingPolicy::MaxMin, NoopRecorder), 4, ALL).median_ms(0, 0);
        let r = run(sc.rate(NoopRecorder), 4, ALL).median_ms(0, 1);
        assert!(
            (f - solo).abs() < 0.5,
            "{model:?} fluid {f:.2} vs {solo:.2}"
        );
        assert!(
            (r - solo).abs() < solo * 0.02,
            "{model:?} rate {r:.2} vs {solo:.2}"
        );
    }
}

/// The seeded straggler schedule used by the three-engine conformance
/// test: each job straggles exactly once, mid-run (job 0 at iteration 5,
/// job 1 at iteration 4), so every engine must show one finite-recovery
/// incident per job.
fn straggler_chaos() -> ChaosConfig {
    ChaosConfig {
        seed: 6,
        phase: PhaseChaos {
            compute_jitter: 0.05,
            comm_jitter: 0.0,
            straggler_prob: 0.15,
            straggler_factor: 3.0,
        },
        ..ChaosConfig::none()
    }
}

const CHAOS_ITERS: usize = 16;

/// One engine's chaos run: every iteration it recorded, plus the
/// recovery analyzer's verdict on its telemetry.
fn chaos_run<E: Engine<Rec = BufferRecorder>>(mut sim: E) -> (Run, RecoveryReport) {
    let run = drive(&mut sim, CHAOS_ITERS, Dur::from_secs(10), ALL);
    let report = recovery(sim.recorder().events(), &RecoveryConfig::default());
    (run, report)
}

/// Tentpole conformance: one seeded fault schedule, three engines.
///
/// Phase noise is keyed and stateless — the scale factors for iteration
/// `i` of job `j` are a pure function of `(seed, j, i)` — so the fluid,
/// rate, and packet engines must realize the *same* stragglers no matter
/// how their internal event loops interleave. They must agree on the
/// global iteration-completion order, on per-job iteration-time medians,
/// and on the physics of the perturbation: exactly the scheduled
/// iterations run slow. And the recovery analyzer must report every
/// incident recovering in finite time in all three engines (the paper's
/// interleaved steady state re-establishes itself after a straggler).
#[test]
fn seeded_stragglers_conform_across_three_engines() {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let chaos = straggler_chaos();
    let plan = chaos.compile(2, 1, Dur::from_secs(1));
    let stragglers: Vec<(usize, u32)> = (0..2)
        .flat_map(|j| {
            let n = plan.noise[j].expect("phase layer is on");
            (0..CHAOS_ITERS as u32).filter_map(move |i| n.is_straggler(i).then_some((j, i)))
        })
        .collect();
    assert_eq!(
        stragglers,
        vec![(0, 5), (1, 4)],
        "the pinned seed's schedule moved — fix the doc comment too"
    );

    // The aggressive/fair pair slides into interleaving on the rate and
    // packet engines; on the fluid engine, weighted max-min imposes the
    // same interleaving the DCQCN timer asymmetry produces emergently.
    let aggressor = CcVariant::StaticUnfair {
        timer: Dur::from_micros(100),
    };
    let mut sc = Scenario::new(spec, &[aggressor, CcVariant::Fair], Dur::ZERO);
    sc.noise = plan.noise[..2].to_vec();
    let (rate, rate_report) = chaos_run(sc.rate(BufferRecorder::new()));
    let (pkt, pkt_report) = chaos_run(sc.packet(BufferRecorder::new()));
    let weighted = SharingPolicy::Weighted(vec![2.0, 1.0]);
    let (fluid, fluid_report) = chaos_run(sc.fluid(weighted, BufferRecorder::new()));

    let engines = [
        ("rate", &rate, &rate_report),
        ("packet", &pkt, &pkt_report),
        ("fluid", &fluid, &fluid_report),
    ];

    // 1. Every engine realizes exactly the scheduled stragglers: the
    // straggler iterations are materially slower than the job's median,
    // and once the disruption has passed the tail of the run is back to
    // normal. (Early iterations are exempt — the interleaving slide and
    // the collateral damage right after a straggler are legitimately
    // slow without being stragglers themselves.)
    let extra = spec.compute_time().as_millis_f64() * 1.5; // 2×compute stretch, conservatively
    for (name, run, _) in &engines {
        for j in 0..2 {
            let med = run.median_ms(j, 0);
            for i in 0..CHAOS_ITERS {
                let t = run.times[j][i].as_millis_f64();
                if stragglers.contains(&(j, i as u32)) {
                    assert!(
                        t > med + extra,
                        "{name} job {j}: scheduled straggler {i} not slow ({t:.1} vs median {med:.1})"
                    );
                } else if i >= CHAOS_ITERS - 3 {
                    assert!(
                        t < med + extra,
                        "{name} job {j}: tail iteration {i} still slow ({t:.1} vs median {med:.1})"
                    );
                }
            }
        }
    }

    // 2. The engines agree on the global completion order (up to
    // within-round ties).
    assert_order_conforms(&rate, &pkt, 3, "rate vs packet");
    assert_order_conforms(&rate, &fluid, 3, "rate vs fluid");
    assert_order_conforms(&fluid, &pkt, 3, "fluid vs packet");

    // 3. Per-job medians agree across engines (existing cross-engine
    // tolerances: rate and fluid are both idealized, packet is noisier).
    for j in 0..2 {
        let f = fluid.median_ms(j, 3);
        let r = rate.median_ms(j, 3);
        let p = pkt.median_ms(j, 3);
        assert!(
            (r - f).abs() < f * 0.04,
            "job {j} median: rate {r:.1} vs fluid {f:.1}"
        );
        assert!(
            (p - f).abs() < f * 0.08,
            "job {j} median: packet {p:.1} vs fluid {f:.1}"
        );
    }

    // 4. The recovery analyzer sees the incidents and a finite
    // time-to-reinterleave in every engine.
    for (name, _, report) in &engines {
        let incidents: usize = report.jobs.iter().map(|j| j.incidents.len()).sum();
        assert!(
            incidents >= 2,
            "{name}: expected both stragglers as incidents"
        );
        assert!(
            report.all_recovered(),
            "{name}: an incident never recovered"
        );
        for j in &report.jobs {
            if j.incidents.is_empty() {
                continue;
            }
            let worst = j
                .worst_recovery()
                .unwrap_or_else(|| panic!("{name} job {}: recovery not finite", j.job));
            assert!(
                !worst.is_zero(),
                "{name} job {}: zero-width recovery is implausible",
                j.job
            );
        }
    }
}

const ZOO_ITERS: usize = 24;
/// First zoo iteration considered settled: the self-organizing variants'
/// interleaving slide takes ~13 iterations in the rate engine at this
/// scale, and orderings during the slide are engine-specific.
const SETTLE: usize = 14;

/// What the engines must agree on for a given zoo cell.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// The cell's dynamics are pinned (locked contention, or a slide so
    /// decisive every engine realizes it in the same rounds): engines
    /// must agree on every decisive completion ordering.
    Order,
    /// The cell slides into interleaving through a long transient whose
    /// cost and tie-break are engine micro-timing: engines must agree on
    /// the settled steady state — solo pace, strictly alternating
    /// completions.
    Interleave,
    /// Interleaving is *emergent-only*: the timer dynamics separate the
    /// phases in the rate and packet engines, but the cell's idealized
    /// fluid weighting is a synchronizing force (a decaying early-phase
    /// bonus hands bandwidth to the job *behind* in its phase), so the
    /// fluid engine settles into a stable partial overlap instead. There
    /// the envelope bound is the contract.
    InterleaveEmergent,
}

/// The zoo: every controller family, in its natural pair configuration
/// (mirrors `fig1::zoo_cells` — self-organizing variants run symmetric
/// with a seeded stagger, static knobs are the asymmetric aggressor).
fn zoo() -> Vec<(&'static str, [CcVariant; 2], Dur, Check)> {
    let stagger = Dur::from_millis(15);
    vec![
        (
            "fair",
            [CcVariant::Fair, CcVariant::Fair],
            Dur::ZERO,
            Check::Order,
        ),
        (
            "static-unfair",
            [
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
                CcVariant::Fair,
            ],
            Dur::ZERO,
            Check::Order,
        ),
        (
            "adaptive",
            [CcVariant::AdaptiveUnfair, CcVariant::AdaptiveUnfair],
            stagger,
            Check::Interleave,
        ),
        (
            "mltcp",
            [
                CcVariant::Mltcp { bonus: 1.0 },
                CcVariant::Mltcp { bonus: 1.0 },
            ],
            stagger,
            Check::Interleave,
        ),
        (
            "policy-prop",
            [
                CcVariant::Policy {
                    policy: FairnessPolicy::Proportional { weight: 1.25 },
                },
                CcVariant::Fair,
            ],
            Dur::ZERO,
            Check::Interleave,
        ),
        (
            "policy-decay",
            [
                CcVariant::Policy {
                    policy: FairnessPolicy::BonusDecay {
                        bonus: 1.0,
                        decay: 2.0,
                    },
                },
                CcVariant::Policy {
                    policy: FairnessPolicy::BonusDecay {
                        bonus: 1.0,
                        decay: 2.0,
                    },
                },
            ],
            stagger,
            Check::InterleaveEmergent,
        ),
        (
            "swift",
            [
                CcVariant::Swift {
                    target_delay: Dur::from_micros(30),
                },
                CcVariant::Swift {
                    target_delay: Dur::from_micros(30),
                },
            ],
            Dur::ZERO,
            Check::Order,
        ),
    ]
}

/// A symmetric self-organizing pair breaks its tie *through* the
/// transient: engine micro-timing legitimately decides which job slides
/// ahead and how many iterations the slide costs, so absolute completion
/// instants are not comparable across engines. The decisive invariant is
/// the settled steady state itself, identical in every engine up to
/// relabeling the two jobs: both run at solo pace and their completions
/// strictly alternate (the interleaved round-robin ordering).
fn assert_interleaved(run: &Run, solo: f64, label: &str) {
    for j in 0..2 {
        let med = run.median_ms(j, SETTLE);
        assert!(
            (med - solo).abs() < solo * 0.10,
            "{label} job {j}: settled median {med:.1} ms is not solo pace {solo:.1} ms"
        );
    }
    // Cut by *time*, not index: the transient can leave one job a whole
    // iteration ahead, so index SETTLE of the two jobs falls in
    // different rounds. Settled means both jobs are past theirs.
    let cut = run
        .completions
        .iter()
        .map(|c| c[SETTLE])
        .max()
        .expect("two jobs");
    // Same at the tail: one job's grid ends a round before the other's.
    let end = run
        .completions
        .iter()
        .map(|c| *c.last().expect("nonempty"))
        .min()
        .expect("two jobs");
    let mut ev: Vec<((usize, usize), Time)> = run
        .events()
        .into_iter()
        .filter(|&(_, t)| t > cut && t <= end)
        .collect();
    ev.sort_by_key(|&(_, t)| t);
    assert!(ev.len() >= 4, "{label}: too few settled completions");
    for w in ev.windows(2) {
        assert_ne!(
            w[0].0 .0, w[1].0 .0,
            "{label}: settled completions do not alternate ({:?} then {:?})",
            w[0], w[1]
        );
    }
}

/// Every zoo cell on every supporting engine. Cells with a pinned
/// asymmetry (or none at all) must agree on decisive completion
/// orderings across engines; staggered symmetric cells must all reach
/// the same interleaved steady state. Every engine's settled median sits
/// inside the physical envelope (no faster than solo, no slower than the
/// fully-contended locked state plus delay-control overhead).
#[test]
fn every_variant_conforms_across_engines() {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let solo = spec.iteration_time_at(LINE).as_millis_f64();
    let locked = (spec.compute_time() + spec.comm_time_at(LINE) * 2).as_millis_f64();
    for (name, variants, stagger, check) in zoo() {
        let sc = Scenario::new(spec, &variants, stagger);
        let cc = SharingPolicy::Cc(variants.to_vec());
        let mut engines = vec![
            ("rate", run(sc.rate(NoopRecorder), ZOO_ITERS, ZOO_ITERS)),
            (
                "fluid",
                run(sc.fluid(cc, NoopRecorder), ZOO_ITERS, ZOO_ITERS),
            ),
        ];
        if !variants[0].is_delay_based() {
            let packet = run(sc.packet(NoopRecorder), ZOO_ITERS, ZOO_ITERS);
            engines.push(("packet", packet));
        }
        match check {
            Check::Interleave => {
                for (engine, run) in &engines {
                    assert_interleaved(run, solo, &format!("{name}/{engine}"));
                }
            }
            Check::InterleaveEmergent => {
                for (engine, run) in &engines {
                    if *engine != "fluid" {
                        assert_interleaved(run, solo, &format!("{name}/{engine}"));
                    }
                }
            }
            Check::Order => {
                for pair in engines.windows(2) {
                    let ((na, a), (nb, b)) = (&pair[0], &pair[1]);
                    assert_order_conforms(a, b, SETTLE, &format!("{name}: {na} vs {nb}"));
                }
            }
        }
        for (engine, run) in &engines {
            for j in 0..2 {
                let med = run.median_ms(j, SETTLE);
                assert!(
                    med > solo * 0.95 && med < locked * 1.20,
                    "{name}/{engine} job {j}: median {med:.1} ms outside \
                     [solo {solo:.1}, locked {locked:.1}] envelope"
                );
            }
        }
    }
}

/// The `variants` sweep's merged telemetry is byte-identical across
/// worker and shard counts — `--jobs`/`--shards` change wall clock only.
#[test]
fn sweep_is_byte_identical_across_jobs_and_shards() {
    let mut cfg = VariantsConfig::default();
    cfg.fig1.iterations = 8;
    cfg.fig1.warmup = 2;
    let stream = |jobs: usize, shards: usize| {
        mlcc::parallel::set_jobs(jobs);
        mlcc::parallel::set_shards(shards);
        let mut rec = BufferRecorder::new();
        let r = variants::run_traced(&cfg, &mut rec);
        mlcc::parallel::set_jobs(0);
        mlcc::parallel::set_shards(0);
        assert_eq!(r.outcomes.len(), cfg.cells.len());
        rec
    };
    let base = stream(1, 1);
    assert!(!base.events().is_empty());
    for (jobs, shards) in [(4, 1), (1, 4), (4, 4)] {
        let other = stream(jobs, shards);
        assert_eq!(
            base.events(),
            other.events(),
            "--jobs {jobs} --shards {shards} leaked into the stream"
        );
        assert_eq!(base.counts(), other.counts());
    }
}

/// Contended milliseconds in `[from, to)` at 1 ms resolution: samples
/// where both jobs' sender rates are past the busy threshold.
fn overlap_ms(sim: &RateSimulator<&mut BufferRecorder>, from: Time, to: Time) -> f64 {
    let mut contended = 0.0;
    let mut t = from;
    while t < to {
        if (0..2).all(|i| sim.rate_trace(i).value_at(t).unwrap_or(0.0) >= 1.0) {
            contended += 1.0;
        }
        t += Dur::from_millis(1);
    }
    contended
}

/// One seeded rate-engine run of a symmetric pair: merged telemetry,
/// per-job completion instants, cumulative contention over the whole
/// run, and the peak sender rate.
struct PairRun {
    events: Vec<telemetry::TimedEvent>,
    completions: Vec<Vec<Time>>,
    cum_overlap_ms: f64,
    peak_rate_gbps: f64,
}

fn run_pair(variant: CcVariant, stagger: Dur, mark_noise: f64, seed: u64) -> PairRun {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let cfg = RateSimConfig {
        trace_interval: Some(Dur::from_millis(1)),
        mark_noise,
        seed,
        ..Default::default()
    };
    let mut jobs = [RateJob::new(spec, variant), RateJob::new(spec, variant)];
    jobs[1].start_offset = stagger;
    let mut rec = BufferRecorder::new();
    let mut sim = RateSimulator::with_recorder(cfg, &jobs, &mut rec);
    assert!(sim.run_until_iterations(20, Dur::from_secs(30)));
    let end = sim.now();
    let cum_overlap_ms = overlap_ms(&sim, Time::ZERO, end);
    let peak_rate_gbps = (0..2)
        .flat_map(|i| sim.rate_trace(i).iter().map(|(_, v)| v))
        .fold(0.0f64, f64::max);
    let completions = (0..2)
        .map(|i| {
            sim.progress(i)
                .iterations()
                .iter()
                .map(|t| t.completed)
                .collect()
        })
        .collect();
    drop(sim);
    PairRun {
        events: rec.events().to_vec(),
        completions,
        cum_overlap_ms,
        peak_rate_gbps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Mltcp { bonus: 0 }` *is* fair DCQCN: across seeds, marking noise
    /// and start staggers, the wrapped controller's runs are
    /// byte-identical to `Fair`'s — same telemetry stream, same
    /// completion instants to the nanosecond.
    #[test]
    fn mltcp_zero_bonus_is_bit_exact_fair(
        seed in 1u64..1024,
        noise_idx in 0usize..3,
        stagger_ms in 0u64..20,
    ) {
        let noise = [0.0, 0.05, 0.2][noise_idx];
        let stagger = Dur::from_millis(stagger_ms);
        let fair = run_pair(CcVariant::Fair, stagger, noise, seed);
        let mltcp = run_pair(CcVariant::Mltcp { bonus: 0.0 }, stagger, noise, seed);
        prop_assert!(!fair.events.is_empty());
        prop_assert_eq!(fair.events, mltcp.events);
        prop_assert_eq!(fair.completions, mltcp.completions);
    }

    /// A positive bonus makes the phases drift apart faster: in the one
    /// regime where plain fair DCQCN provably stays contended under
    /// deterministic marking (a 2 ms stagger at this scale — elsewhere
    /// even the fair pair eventually slides on its own), every bonus
    /// strictly reduces the run's cumulative contended time — and the
    /// sender rates never exceed the line rate while doing so.
    #[test]
    fn mltcp_positive_bonus_separates_phases(bonus in 0.25f64..4.0) {
        let stagger = Dur::from_millis(2);
        let fair = run_pair(CcVariant::Fair, stagger, 0.0, 0);
        let mltcp = run_pair(CcVariant::Mltcp { bonus }, stagger, 0.0, 0);
        prop_assert!(
            mltcp.cum_overlap_ms < fair.cum_overlap_ms,
            "bonus {} did not separate phases: mltcp contended {} ms vs fair {} ms",
            bonus, mltcp.cum_overlap_ms, fair.cum_overlap_ms
        );
        let line = RateSimConfig::default().capacity.as_gbps_f64();
        prop_assert!(
            mltcp.peak_rate_gbps <= line + 1e-9,
            "sender rate {} Gbps exceeded line rate {} Gbps",
            mltcp.peak_rate_gbps, line
        );
    }
}

/// `run_until_iterations(n, span)` returns `true` exactly when every job
/// has departed or completed `n` iterations, and never runs past
/// `now + span`; a second `run_until(t)` at the same `t` changes neither
/// the clock nor the recorded events.
fn check_engine_contract<E: Engine<Rec = BufferRecorder>>(
    label: &str,
    build: impl Fn(&Scenario) -> E,
) {
    let reached = |sim: &E, n: usize| {
        (0..sim.num_jobs()).all(|i| sim.departed(i) || sim.progress(i).completed() >= n)
    };
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let iter = spec.iteration_time_at(LINE);

    // Job 1 departs after a few iterations; job 0 alone decides the run.
    let mut sc = Scenario::new(spec, &[CcVariant::Fair, CcVariant::Fair], Dur::ZERO);
    sc.depart_at[1] = Some(Time::ZERO + iter * 3);
    let mut sim = build(&sc);
    let done = sim.run_until_iterations(8, Dur::from_secs(10));
    assert!(done, "{label}: the departure run did not finish");
    assert_eq!(
        done,
        reached(&sim, 8),
        "{label}: return value vs job states"
    );
    assert!(sim.departed(1), "{label}: job 1 never departed");
    assert!(sim.progress(1).completed() < 8, "{label}: job 1 ran on");

    // A budget far short of the target: `false`, and the clock stays
    // inside the span (whole milliseconds, so on the rate engine's step
    // grid).
    let mut sim = build(&Scenario::new(spec, &[CcVariant::Fair; 2], Dur::ZERO));
    sim.run_until(Time::ZERO + Dur::from_millis(100));
    let (start, span) = (sim.now(), Dur::from_millis(300));
    let done = sim.run_until_iterations(1_000, span);
    assert!(!done, "{label}: 1000 iterations cannot fit in {span:?}");
    assert_eq!(
        done,
        reached(&sim, 1_000),
        "{label}: return value vs job states"
    );
    assert!(sim.now() <= start + span, "{label}: ran past the budget");

    // `run_until` is idempotent at a fixed instant.
    let t = sim.now() + Dur::from_millis(50);
    sim.run_until(t);
    let (now, events) = (sim.now(), sim.recorder().events().to_vec());
    sim.run_until(t);
    assert_eq!(
        sim.now(),
        now,
        "{label}: a repeated run_until moved the clock"
    );
    assert_eq!(
        sim.recorder().events(),
        events,
        "{label}: a repeated run_until recorded"
    );
}

#[test]
fn every_engine_honours_the_engine_contract() {
    check_engine_contract("rate", |sc| sc.rate(BufferRecorder::new()));
    check_engine_contract("packet", |sc| sc.packet(BufferRecorder::new()));
    check_engine_contract("fluid", |sc| {
        sc.fluid(SharingPolicy::MaxMin, BufferRecorder::new())
    });
}
