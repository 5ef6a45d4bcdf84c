//! Quickstart: are my two jobs compatible, and what does unfairness buy?
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full pipeline on one pair of jobs:
//! 1. describe the jobs (model + batch size);
//! 2. roll each onto its circle and ask the geometry solver whether a
//!    rotation separates their communication arcs;
//! 3. run both jobs through the DCQCN network simulator under fair and
//!    unfair congestion control and compare iteration times.

use dcqcn::CcVariant;
use eventsim::Cdf;
use geometry::{solve_pair, SolverConfig};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use scheduler::analytic_profile;
use simtime::{Bandwidth, Dur};
use workload::{JobSpec, Model};

fn main() {
    let line = Bandwidth::from_gbps(50);
    let a = JobSpec::reference(Model::Dlrm, 2000);
    let b = JobSpec::reference(Model::Dlrm, 2000);
    println!("jobs: {a} and {b} sharing one {line} link\n");

    // 1. Profiles: the on/off circles.
    for j in [&a, &b] {
        println!(
            "{:<12} iteration {:>7} = compute {:>7} + comm {:>7}  ({:.0}% comm)",
            j.label(),
            format!("{}", j.iteration_time_at(line)),
            format!("{}", j.compute_time()),
            format!("{}", j.comm_time_at(line)),
            j.comm_fraction_at(line) * 100.0
        );
    }

    // 2. Geometry: is there a rotation with no overlap?
    let grid = Dur::from_micros(2_500);
    let pa = analytic_profile(&a, line, grid);
    let pb = analytic_profile(&b, line, grid);
    let verdict = solve_pair(&pa, &pb, &SolverConfig::default()).unwrap();
    match verdict.rotations() {
        Some(rots) => println!(
            "\ngeometry: COMPATIBLE — rotate {} by {:.0}° ({}) and the comm phases never collide",
            b.label(),
            rots[1].degrees,
            rots[1].shift
        ),
        None => println!(
            "\ngeometry: INCOMPATIBLE — at least {:.0}% of the circle must stay contended",
            verdict.overlap_fraction() * 100.0
        ),
    }

    // 3. Simulate fair vs unfair DCQCN.
    let median = |variants: [CcVariant; 2]| -> Vec<f64> {
        let jobs = [RateJob::new(a, variants[0]), RateJob::new(b, variants[1])];
        let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
        assert!(sim.run_until_iterations(20, Dur::from_secs(120)));
        (0..2)
            .map(|i| {
                let times: Vec<_> = sim
                    .progress(i)
                    .iteration_times()
                    .into_iter()
                    .skip(4)
                    .collect();
                Cdf::from_samples(times).median().as_millis_f64()
            })
            .collect()
    };
    let fair = median([CcVariant::Fair, CcVariant::Fair]);
    let unfair = median([
        CcVariant::StaticUnfair {
            timer: Dur::from_micros(100),
        },
        CcVariant::Fair,
    ]);
    println!(
        "\n{:<12} {:>12} {:>12} {:>9}",
        "job", "fair", "unfair", "speedup"
    );
    for i in 0..2 {
        println!(
            "{:<12} {:>9.0} ms {:>9.0} ms {:>8.2}×",
            [a, b][i].label(),
            fair[i],
            unfair[i],
            fair[i] / unfair[i]
        );
    }
    println!(
        "\nThe unfair run converges to dedicated-network pace for both jobs —\n\
         the paper's 'surprising payoff of unfairness' (§2)."
    );
}
