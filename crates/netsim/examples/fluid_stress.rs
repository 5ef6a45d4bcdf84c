//! Fluid-engine stress harness: many jobs sharing one bottleneck, enough
//! iterations for the allocator and completion scheduler to dominate.
//!
//! ```text
//! cargo run --release -p netsim --example fluid_stress [jobs] [iterations]
//! ```
//!
//! Prints one line with the wall-clock cost — the before/after numbers in
//! EXPERIMENTS.md come from running this at the same arguments on two
//! builds.

use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::Engine;
use simtime::{Bandwidth, Dur};
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(24, |a| a.parse().expect("jobs"));
    let iterations: usize = args.next().map_or(40, |a| a.parse().expect("iterations"));

    let models = [
        Model::Vgg19,
        Model::Vgg16,
        Model::ResNet50,
        Model::WideResNet50,
    ];
    let specs: Vec<JobSpec> = (0..n)
        .map(|i| JobSpec::reference(models[i % models.len()], 400 + 100 * (i % 5) as u32))
        .collect();

    let d = dumbbell(
        n,
        Bandwidth::from_gbps(50),
        Bandwidth::from_gbps(400),
        Dur::ZERO,
    );
    let t = &d.topology;
    let jobs: Vec<FluidJob> = specs
        .iter()
        .enumerate()
        .map(|(i, &spec)| FluidJob::single_path(spec, d.pair_links(i)))
        .collect();

    let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let cfg = FluidConfig {
        policy: SharingPolicy::Weighted(weights),
        ..FluidConfig::fair()
    };
    let mut sim = FluidSimulator::new(t, cfg, &jobs);
    let cap = Bandwidth::from_gbps(50);
    let per_iter = specs
        .iter()
        .map(|s| s.iteration_time_at(cap))
        .max()
        .unwrap();

    let start = std::time::Instant::now();
    let done =
        sim.run_until_iterations(iterations, per_iter * (iterations as u64 * (n as u64 + 2)));
    let wall = start.elapsed();
    assert!(done, "stress run did not finish");
    println!(
        "fluid_stress: {n} jobs x {iterations} iterations, simulated {:.1}s in {:.3}s wall",
        sim.now().as_secs_f64(),
        wall.as_secs_f64()
    );
}
