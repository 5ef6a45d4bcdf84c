//! Ablations A1–A3: the design-space questions behind the paper's results.
//!
//! * A1 — sector resolution. The paper discretizes the circle "for
//!   scalability" without saying how finely. The sweep solves a *tight*
//!   instance — two jobs whose communication arcs leave ≈2% of the circle
//!   spare — where coarse, conservative quantization must eventually
//!   report a false incompatible.
//! * A2 — unfairness strength. Sweeps the aggressive job's DCQCN timer `T`
//!   (the default peer stays at 125 µs) on the Fig. 1 pair and reports each
//!   setting's first-iteration bandwidth split and steady-state speedup
//!   over fair sharing. The paper uses 100 µs; any persistent asymmetry
//!   triggers the slide.
//! * A3 — placement policy. Runs every arrival order of a split-forcing
//!   job stream through locality-only and compatibility-aware placement
//!   and reports each cluster's mean slowdown.

use super::cluster::{self, ClusterConfig, ClusterResult};
use super::fig1::{self, Fig1Config, Fig1Result};
use geometry::{solve_pair, Profile, SolverConfig, Verdict};
use simtime::Dur;
use std::fmt::Write as _;
use workload::{JobSpec, Model};

/// A1's sector counts, coarsest first.
pub const SECTORS: [usize; 8] = [45, 90, 180, 360, 720, 1440, 2880, 5760];

/// A2's aggressive-job DCQCN timers, in µs.
pub const TIMERS_US: [u64; 5] = [60, 80, 100, 110, 120];

/// A3's arrival orders: rotations of [`placement_stream`].
pub const ARRIVAL_ORDERS: usize = 3;

/// Ablation output: one entry per swept setting, in sweep order.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// A1: the solver's verdict on the tight pair at each of [`SECTORS`].
    pub sectors: Vec<Verdict>,
    /// A2: the Fig. 1 run at each of [`TIMERS_US`].
    pub unfairness: Vec<Fig1Result>,
    /// A3: both placement policies at each arrival order.
    pub placement: Vec<ClusterResult>,
}

impl AblationResult {
    /// The three ablation tables, each under an `== … ==` banner.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== Ablation A1 — sector resolution vs verdict on a 2%-slack instance =="
        );
        let _ = writeln!(
            s,
            "{:<10} {:>12} {:>14}",
            "sectors", "verdict", "overlap est."
        );
        for (sectors, v) in SECTORS.iter().zip(&self.sectors) {
            let verdict = if v.is_compatible() {
                "compatible"
            } else {
                "INCOMPATIBLE"
            };
            let overlap = v.overlap_fraction() * 100.0;
            let _ = writeln!(s, "{sectors:<10} {verdict:>12} {overlap:>13.2}%");
        }
        s.push_str(
            "(conservative quantization pads each arc by up to one sector, so very\n\
             coarse circles reject this feasible instance — resolution buys accuracy)\n",
        );
        s.push_str("== Ablation A2 — unfairness strength (aggressive T) vs payoff ==\n");
        let _ = writeln!(
            s,
            "{:<8} {:>14} {:>12} {:>12}",
            "T (µs)", "1st-iter split", "J1 speedup", "J2 speedup"
        );
        for (t_us, r) in TIMERS_US.iter().zip(&self.unfairness) {
            let sp = r.speedups();
            let _ = writeln!(
                s,
                "{t_us:<8} {:>6.1}/{:<6.1} {:>12} {:>12}",
                r.unfair.first_iteration_bw[0],
                r.unfair.first_iteration_bw[1],
                sp[0].to_string(),
                sp[1].to_string()
            );
        }
        let _ = writeln!(
            s,
            "== Ablation A3 — placement policy vs mean slowdown, {ARRIVAL_ORDERS} arrival orders =="
        );
        let _ = writeln!(
            s,
            "{:<16} {:>18} {:>22}",
            "arrival order", "locality slowdown", "compat-aware slowdown"
        );
        for (order, r) in self.placement.iter().enumerate() {
            let _ = writeln!(
                s,
                "{:<16} {:>17.2}× {:>21.2}×",
                format!("rotation {order}"),
                r.locality.mean_slowdown(),
                r.compatibility.mean_slowdown()
            );
        }
        s
    }
}

/// A3's job stream in arrival order `order`: two 3-worker jobs that must
/// split across racks and one single-rack job, rotated left by `order`.
fn placement_stream(order: usize) -> Vec<JobSpec> {
    let w3 = |spec: JobSpec| JobSpec { workers: 3, ..spec };
    let mut jobs = vec![
        w3(JobSpec::reference(Model::BertLarge, 8)),
        w3(JobSpec::reference(Model::Vgg19, 1200)),
        JobSpec::reference(Model::ResNet50, 1600),
    ];
    let n = jobs.len();
    jobs.rotate_left(order % n);
    jobs
}

/// Runs all three ablations.
pub fn run() -> AblationResult {
    // A1's pair: two 49%-communication jobs, feasible with ≈2% of the
    // circle spare.
    let tight = Profile::compute_then_comm(Dur::from_millis(51), Dur::from_millis(49));
    let sectors = SECTORS
        .iter()
        .map(|&sectors| {
            let cfg = SolverConfig {
                sectors,
                ..SolverConfig::default()
            };
            solve_pair(&tight, &tight, &cfg).expect("both jobs share one perimeter")
        })
        .collect();
    let unfairness = TIMERS_US
        .iter()
        .map(|&us| {
            fig1::run(&Fig1Config {
                iterations: 20,
                aggressive_timer: Dur::from_micros(us),
                ..Fig1Config::default()
            })
        })
        .collect();
    let placement = (0..ARRIVAL_ORDERS)
        .map(|order| {
            cluster::run(&ClusterConfig {
                jobs: placement_stream(order),
                iterations: 12,
                warmup: 4,
                ..ClusterConfig::default()
            })
        })
        .collect();
    AblationResult {
        sectors,
        unfairness,
        placement,
    }
}
