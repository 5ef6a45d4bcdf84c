//! Fault injection for the experiments, plus the `chaos_sweep` grid.
//!
//! [`apply_rate`] expands a [`faults::ChaosConfig`] for a rate-engine run,
//! fresh or resumed at a fork barrier, and lands it as data on the run's
//! jobs and engine config: per-job phase noise, late-arrival start
//! offsets and departure deadlines, the bottleneck link's capacity
//! schedule, and DCQCN signal loss. With [`ChaosConfig::none`] it returns
//! without touching anything, so unperturbed runs stay bit-identical to a
//! build without chaos plumbing.
//!
//! [`run_traced`] sweeps a seeds × profiles grid over the Fig. 1 pair
//! (aggressive VGG19 vs fair VGG19 on the 50 Gbps bottleneck): each cell
//! runs under one seeded chaos profile, records telemetry, and feeds it through
//! [`diagnostics::recovery`] to measure how long the pair takes to
//! re-interleave after each perturbation. The per-cell medians, fault
//! windows, and recovery times are the `BENCH_chaos.json` payload.

use super::{chaos_horizon, nominal_iteration, run_rate, Fork};
use crate::metrics::{text_table, JobStats};
use crate::parallel;
use dcqcn::CcVariant;
use dcqcn::SignalLoss;
use diagnostics::{recovery, RecoveryConfig, RecoveryReport};
use faults::{ChaosConfig, CompiledChaos};
use netsim::rate::{RateJob, RateSimConfig};
use netsim::Engine;
use simtime::{Dur, Time};
use telemetry::{BufferRecorder, Event, ForkableRecorder, Recorder};
use topology::LinkSchedule;
use workload::{JobProgress, JobSpec, Model};

/// Applies `chaos` to a rate-engine run, landing it as data on `jobs`
/// and `sim`: the plan is compiled over `span` and starts at `at`, where
/// its departures and capacity change points move to. Per-job phase
/// noise, arrival delays (added to the existing start offsets) and
/// departure deadlines land on `jobs`; the bottleneck-link capacity
/// schedule and DCQCN signal loss land on `sim`. A fresh run takes them
/// at construction with `at` zero; a run resumed at a fork barrier `at`
/// takes them through [`RateSimulator::adopt`]. A [`ChaosConfig::none`]
/// config is an exact no-op: nothing is read or written, so quiet runs
/// remain byte-identical.
///
/// # Panics
/// Panics if `at` is positive and the plan draws a late arrival: every job
/// already started inside the prefix before `at`, so an arrival-free
/// profile or a run from t = 0 is needed.
///
/// [`RateSimulator::adopt`]: netsim::rate::RateSimulator::adopt
pub fn apply_rate(
    chaos: &ChaosConfig,
    jobs: &mut [RateJob],
    sim: &mut RateSimConfig,
    span: Dur,
    at: Dur,
) {
    if chaos.is_none() {
        return;
    }
    // The rate engine models a single shared bottleneck: one link.
    let mut plan = chaos.compile(jobs.len(), 1, span);
    if !at.is_zero() {
        assert!(
            plan.arrivals.iter().all(|d| d.is_zero()),
            "forked sweep: late arrivals cannot be applied after the shared \
             prefix (use an arrival-free profile or run without --fork-at)"
        );
        plan.shift(at);
    }
    apply_plan(
        &plan,
        jobs,
        0,
        0,
        &mut sim.capacity_schedule,
        &mut sim.signal_loss,
    );
}

/// Lands a compiled plan on one DCQCN bottleneck, rate or packet engine:
/// `jobs` are the plan's jobs from `first` on, and their bottleneck is
/// plan link `link`. Per-job noise, arrival delays (added to the existing
/// start offsets) and departures land on `jobs`; the link's capacity
/// schedule, unless it is the identity, and the signal loss land on
/// `schedule` and `loss`.
pub(crate) fn apply_plan(
    plan: &CompiledChaos,
    jobs: &mut [RateJob],
    first: usize,
    link: usize,
    schedule: &mut Option<LinkSchedule>,
    loss: &mut Option<SignalLoss>,
) {
    for (i, job) in jobs.iter_mut().enumerate() {
        job.noise = plan.noise[first + i];
        job.start_offset += plan.arrivals[first + i];
        job.depart_at = plan.departures[first + i];
    }
    match plan.link_schedules.get(link) {
        Some(s) if !s.is_identity() => *schedule = Some(s.clone()),
        _ => {}
    }
    *loss = plan.signal_loss;
}

/// Simulation-budget multiplier for a perturbed run: degraded links and
/// stragglers legitimately stretch iterations well past the clean-run
/// budget. `1` (no change) when chaos is off; otherwise the phase layer's
/// worst compute stretch, `(1 + compute_jitter) × straggler_factor`
/// (whole part), and never below 4, which every builtin profile gets.
pub fn budget_slack(chaos: &ChaosConfig) -> u64 {
    if chaos.is_none() {
        return 1;
    }
    let phase = &chaos.phase;
    let straggle = if phase.straggler_prob > 0.0 {
        phase.straggler_factor
    } else {
        1.0
    };
    // The loader bounds jitter to [0, 1] and the factor to [1, 100].
    (((1.0 + phase.compute_jitter) * straggle) as u64).max(4)
}

/// Job statistics with a degraded-run fallback: a perturbed job that
/// departed before clearing the warmup cut still gets statistics over
/// whatever iterations it did finish. Identical to
/// [`JobStats::from_progress`] whenever the job ran long enough.
pub fn stats_tolerant(progress: &JobProgress, warmup: usize) -> JobStats {
    JobStats::try_from_progress(progress, warmup)
        .or_else(|_| JobStats::try_from_progress(progress, 0))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Parameters of the chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosSweepConfig {
    /// The competing pair (default: the Fig. 1 VGG19 duo; job 0 runs the
    /// aggressive timer, job 1 stays fair, so the baseline interleaves).
    pub jobs: [JobSpec; 2],
    /// Aggressive DCQCN timer for job 0.
    pub aggressive_timer: Dur,
    /// Iterations per cell.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
    /// Seeds of the grid's rows.
    pub seeds: Vec<u64>,
    /// Builtin profile names of the grid's columns (see
    /// [`ChaosConfig::profile`]).
    pub profiles: Vec<String>,
    /// Engine configuration each cell starts from.
    pub sim: RateSimConfig,
}

impl Default for ChaosSweepConfig {
    fn default() -> ChaosSweepConfig {
        ChaosSweepConfig {
            jobs: [
                JobSpec::reference(Model::Vgg19, 1200),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            aggressive_timer: Dur::from_micros(100),
            iterations: 40,
            warmup: 5,
            // Chosen so every cell perturbs *and* recovers: under "links"
            // each seed hits the single bottleneck (degrade_prob is per
            // link and there is one link) early enough to watch the
            // recovery — 6 compiles to a flap train, 16 and 25 to
            // degradation windows — and under "stragglers" none of them
            // lands a straggler so late that no clean iteration follows.
            seeds: vec![6, 16, 25],
            profiles: vec!["stragglers".to_string(), "links".to_string()],
            sim: RateSimConfig::default(),
        }
    }
}

impl ChaosSweepConfig {
    /// The simulated span a cell's chaos plan covers (two nominal
    /// iterations per iteration run). A fork point must fall before it.
    /// Saturates at [`Dur::MAX`] for absurd iteration counts.
    pub fn horizon(&self) -> Dur {
        chaos_horizon(
            nominal_iteration(&self.jobs, self.sim.capacity),
            self.iterations,
        )
    }
}

/// One (profile, seed) cell's outcome.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Chaos profile name.
    pub profile: String,
    /// Chaos seed.
    pub seed: u64,
    /// Median iteration time per job, in milliseconds.
    pub medians_ms: Vec<f64>,
    /// The recovery analyzer's verdict on the cell's telemetry.
    pub recovery: RecoveryReport,
}

impl ChaosCell {
    /// The cell's slowest recovery in milliseconds: `0` when no job saw
    /// an incident, `-1` when some incident never recovered before the
    /// run ended.
    pub fn worst_recovery_ms(&self) -> f64 {
        let mut worst = 0.0f64;
        for j in &self.recovery.jobs {
            if j.incidents.is_empty() {
                continue;
            }
            match j.worst_recovery() {
                Some(d) => worst = worst.max(d.as_millis_f64()),
                None => return -1.0,
            }
        }
        worst
    }

    /// Total incidents across the cell's jobs.
    pub fn incidents(&self) -> usize {
        self.recovery.jobs.iter().map(|j| j.incidents.len()).sum()
    }
}

/// The full grid.
#[derive(Debug, Clone)]
pub struct ChaosSweepResult {
    /// Cells in (profile-major, seed-minor) order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosSweepResult {
    /// `true` when every incident in every cell recovered.
    pub fn all_recovered(&self) -> bool {
        self.cells.iter().all(|c| c.recovery.all_recovered())
    }

    /// Renders the grid as text.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "profile".to_string(),
            "seed".to_string(),
            "j1 median".to_string(),
            "j2 median".to_string(),
            "faults".to_string(),
            "incidents".to_string(),
            "worst recovery".to_string(),
            "interleaving".to_string(),
        ]];
        for c in &self.cells {
            rows.push(vec![
                c.profile.clone(),
                c.seed.to_string(),
                format!("{:.1} ms", c.medians_ms[0]),
                format!("{:.1} ms", c.medians_ms[1]),
                c.recovery.fault_windows.len().to_string(),
                c.incidents().to_string(),
                match c.worst_recovery_ms() {
                    w if w < 0.0 => "not recovered".to_string(),
                    0.0 => "-".to_string(),
                    w => format!("{w:.0} ms"),
                },
                if c.recovery.compatibility_break {
                    "broken".to_string()
                } else {
                    "held".to_string()
                },
            ]);
        }
        text_table(&rows)
    }
}

/// Runs the full grid, streaming each cell's telemetry into `rec` behind
/// an [`Event::Scenario`] marker (`chaos/<profile>/s<seed>`). Cells are
/// independent and run in parallel under [`parallel::jobs`] workers;
/// results and telemetry are identical to a serial run.
pub fn run_traced<R: ForkableRecorder>(cfg: &ChaosSweepConfig, rec: R) -> ChaosSweepResult {
    sweep(cfg, rec, None)
}

/// Runs the grid forked from a shared clean prefix: the unperturbed pair
/// runs once to `fork_at`, is snapshotted, and every cell restores the
/// snapshot on a worker thread and applies its chaos at the barrier over
/// the post-fork remainder of the horizon. With `replay`, every cell
/// instead re-simulates the prefix itself — same semantics, so a replay
/// run is the byte-identity baseline gating the fork path's snapshot
/// fidelity.
///
/// Forked semantics differ from [`run_traced`]'s: a cell's chaos plan
/// covers only the post-fork remainder of the horizon, so forked and
/// replay runs are comparable with each other but not with an unforked
/// sweep. The prefix snapshot is cached process-wide keyed on the
/// canonical config hash (see [`crate::forkcache`]).
pub fn run_forked<R: ForkableRecorder>(
    cfg: &ChaosSweepConfig,
    rec: R,
    fork_at: Dur,
    replay: bool,
) -> ChaosSweepResult {
    sweep(cfg, rec, Some((fork_at, replay)))
}

/// Runs the grid, each cell the Fig. 1 unfair pair (job 0 on the
/// aggressive timer, job 1 fair) under its chaos profile, from t = 0 or
/// from a `(fork_at, replay)` barrier. Each cell records into its own
/// buffer whatever the caller's recorder: the recovery analyzer needs the
/// event stream.
fn sweep<R: ForkableRecorder>(
    cfg: &ChaosSweepConfig,
    mut rec: R,
    fork: Option<(Dur, bool)>,
) -> ChaosSweepResult {
    let jobs = [
        RateJob::new(
            cfg.jobs[0],
            CcVariant::StaticUnfair {
                timer: cfg.aggressive_timer,
            },
        ),
        RateJob::new(cfg.jobs[1], CcVariant::Fair),
    ];
    let fork = fork.map(|(at, replay)| Fork::new(&jobs, &cfg.sim, at, replay));
    let grid: Vec<(String, u64)> = cfg
        .profiles
        .iter()
        .flat_map(|p| cfg.seeds.iter().map(move |&s| (p.clone(), s)))
        .collect();
    let cells = parallel::map_traced(&mut rec, &grid, |_, (profile, seed), rec| {
        let seed = *seed;
        let chaos = ChaosConfig {
            seed,
            ..ChaosConfig::profile(profile)
                .unwrap_or_else(|| panic!("chaos_sweep: unknown profile {profile:?}"))
        };
        let mut cell_rec = BufferRecorder::new();
        let sim = run_rate(
            format_args!("chaos/{profile}/s{seed}"),
            &mut jobs.clone(),
            cfg.sim.clone(),
            &chaos,
            cfg.iterations,
            fork.as_ref(),
            &mut cell_rec,
        );
        let medians_ms = (0..2)
            .map(|i| stats_tolerant(sim.progress(i), cfg.warmup).median_ms())
            .collect();
        drop(sim);
        let recovery = recovery(cell_rec.events(), &RecoveryConfig::default());
        if R::ENABLED {
            rec.record(
                Time::ZERO,
                Event::Scenario {
                    name: format!("chaos/{profile}/s{seed}"),
                },
            );
            for te in cell_rec.events() {
                rec.record(te.at, te.event.clone());
            }
        }
        ChaosCell {
            profile: profile.clone(),
            seed,
            medians_ms,
            recovery,
        }
    });
    ChaosSweepResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig1::{self, Fig1Config};
    use telemetry::NoopRecorder;

    fn quick() -> ChaosSweepConfig {
        ChaosSweepConfig {
            iterations: 12,
            warmup: 3,
            seeds: vec![13],
            profiles: vec!["stragglers".to_string(), "links".to_string()],
            ..ChaosSweepConfig::default()
        }
    }

    /// `none` keeps the clean budget, every builtin profile keeps 4, and
    /// a phase layer that stretches compute further raises the slack to
    /// its worst stretch.
    #[test]
    fn budget_slack_covers_the_worst_stretch() {
        assert_eq!(budget_slack(&ChaosConfig::none()), 1);
        for name in ["signal", "stragglers", "links", "mixed"] {
            let cfg = ChaosConfig::profile(name).unwrap();
            assert_eq!(budget_slack(&cfg), 4, "{name}");
        }
        let mut heavy = ChaosConfig::profile("stragglers").unwrap();
        heavy.phase.straggler_prob = 1.0;
        heavy.phase.straggler_factor = 100.0;
        assert_eq!(budget_slack(&heavy), 110);
        heavy.phase.straggler_prob = 0.0;
        assert_eq!(budget_slack(&heavy), 4);
    }

    #[test]
    fn apply_none_is_a_no_op() {
        let jobs_before = [
            RateJob::new(JobSpec::reference(Model::Vgg19, 1200), CcVariant::Fair),
            RateJob::new(JobSpec::reference(Model::Vgg19, 1200), CcVariant::Fair),
        ];
        let sim_before = RateSimConfig::default();
        let mut jobs = jobs_before.clone();
        let mut sim = sim_before.clone();
        apply_rate(
            &ChaosConfig::none(),
            &mut jobs,
            &mut sim,
            Dur::ZERO,
            Dur::ZERO,
        );
        assert!(sim.capacity_schedule.is_none());
        assert!(sim.signal_loss.is_none());
        for (a, b) in jobs.iter().zip(&jobs_before) {
            assert_eq!(a.start_offset, b.start_offset);
            assert_eq!(a.noise, b.noise);
            assert_eq!(a.depart_at, b.depart_at);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = quick();
        let a = run_traced(&cfg, NoopRecorder);
        let b = run_traced(&cfg, NoopRecorder);
        assert_eq!(a.cells.len(), 2);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.medians_ms, y.medians_ms);
            assert_eq!(x.incidents(), y.incidents());
            assert_eq!(x.worst_recovery_ms(), y.worst_recovery_ms());
        }
    }

    #[test]
    fn forked_sweep_matches_replay_byte_for_byte() {
        let cfg = quick();
        let fork_at = Dur::from_millis(120);
        let mut forked_rec = BufferRecorder::new();
        let forked = run_forked(&cfg, &mut forked_rec, fork_at, false);
        let mut replay_rec = BufferRecorder::new();
        let replayed = run_forked(&cfg, &mut replay_rec, fork_at, true);
        assert_eq!(
            forked_rec.events(),
            replay_rec.events(),
            "forked telemetry diverged from the replayed prefix"
        );
        assert_eq!(forked.cells.len(), replayed.cells.len());
        for (f, r) in forked.cells.iter().zip(&replayed.cells) {
            assert_eq!(f.medians_ms, r.medians_ms, "{}/s{}", f.profile, f.seed);
            assert_eq!(f.incidents(), r.incidents());
            assert_eq!(f.worst_recovery_ms(), r.worst_recovery_ms());
        }
    }

    /// A sweep cell is the Fig. 1 unfair cell under the cell's profile,
    /// untraced: the same medians and the same recorded events after the
    /// scenario marker.
    #[test]
    fn sweep_cell_is_the_fig1_unfair_cell() {
        for (profile, seed) in [("links", 16), ("stragglers", 6)] {
            let cfg = ChaosSweepConfig {
                iterations: 12,
                warmup: 3,
                seeds: vec![seed],
                profiles: vec![profile.to_string()],
                ..ChaosSweepConfig::default()
            };
            let mut sweep_rec = BufferRecorder::new();
            let cell = run_traced(&cfg, &mut sweep_rec).cells.remove(0);
            let f1 = Fig1Config {
                jobs: cfg.jobs,
                iterations: cfg.iterations,
                warmup: cfg.warmup,
                aggressive_timer: cfg.aggressive_timer,
                sim: RateSimConfig {
                    trace_interval: None,
                    ..cfg.sim.clone()
                },
                chaos: ChaosConfig {
                    seed,
                    ..ChaosConfig::profile(profile).unwrap()
                },
                ..Fig1Config::default()
            };
            let mut fig1_rec = BufferRecorder::new();
            let unfair = &fig1::default_cells(&f1)[1..];
            let m = fig1::run_matrix_traced(&f1, unfair, &mut fig1_rec);
            for (i, s) in m.cells[0].1.stats.iter().enumerate() {
                assert_eq!(
                    cell.medians_ms[i].to_bits(),
                    s.median_ms().to_bits(),
                    "{profile}/s{seed} job {i}"
                );
            }
            let clean = Fig1Config {
                chaos: ChaosConfig::none(),
                ..f1.clone()
            };
            let mut clean_rec = BufferRecorder::new();
            fig1::run_matrix_traced(&clean, unfair, &mut clean_rec);
            assert!(
                clean_rec.events() != fig1_rec.events(),
                "{profile}/s{seed} perturbed nothing"
            );
            assert!(
                sweep_rec.events()[1..] == fig1_rec.events()[1..],
                "{profile}/s{seed}: the recordings differ"
            );
        }
    }

    #[test]
    fn link_profile_produces_fault_windows_and_recovers() {
        let cfg = ChaosSweepConfig {
            profiles: vec!["links".to_string()],
            iterations: 12,
            warmup: 3,
            ..ChaosSweepConfig::default()
        };
        let r = run_traced(&cfg, NoopRecorder);
        // The default seeds are chosen to perturb the bottleneck: every
        // cell must surface at least one fault window.
        for c in &r.cells {
            assert!(
                !c.recovery.fault_windows.is_empty(),
                "seed {} left the link untouched: {}",
                c.seed,
                r.render()
            );
        }
        assert!(r.all_recovered(), "unrecovered incident: {}", r.render());
    }
}
