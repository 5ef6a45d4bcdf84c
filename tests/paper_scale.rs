//! Paper-scale runs: Fig. 1d over the paper's 1,000 iterations and the
//! DLRM pair over 200. They simulate about 2 × 300 s and 2 × 260 s of
//! cluster time on the rate engine, which its idle jumps and stepping
//! windows turn into a few seconds of wall clock, so they run with the
//! rest of the suite.

use dcqcn::CcVariant;
use mlcc_repro::*;
use simtime::Dur;
use workload::{JobSpec, Model};

/// Fig. 1d at the paper's full scale: 1000 iterations per scenario.
/// The whole CDF (not just the median) must improve under unfairness,
/// and the steady state must hold for the entire run — no late-run
/// re-collision of the phases.
#[test]
fn fig1d_full_1000_iterations() {
    let cfg = mlcc::experiments::fig1::Fig1Config {
        iterations: 1000,
        warmup: 10,
        ..Default::default()
    };
    let r = mlcc::experiments::fig1::run(&cfg);
    for (i, (f, u)) in r.fair.stats.iter().zip(&r.unfair.stats).enumerate() {
        for p in [10.0, 50.0, 90.0, 99.0] {
            let fv = f.cdf.percentile(p).as_millis_f64();
            let uv = u.cdf.percentile(p).as_millis_f64();
            assert!(
                uv < fv,
                "job {i}: p{p} did not improve ({fv:.1} → {uv:.1} ms)"
            );
        }
        // Steady state: the unfair p99 is within 2% of the unfair median —
        // once slid apart, the jobs never re-collide.
        let med = u.cdf.median().as_millis_f64();
        let p99 = u.cdf.percentile(99.0).as_millis_f64();
        assert!(
            p99 < med * 1.02,
            "job {i}: unfair tail unstable (median {med:.1}, p99 {p99:.1})"
        );
    }
    let sp = r.speedups();
    assert!(sp.iter().all(|s| s.0 > 1.3), "speedups {sp:?}");
}

/// The DLRM pair at scale: the paper's strongest Table 1 row, 200
/// iterations (≈ 2 × 260 s simulated).
#[test]
fn dlrm_pair_long_run() {
    let spec = JobSpec::reference(Model::Dlrm, 2000);
    let run = |variants: [CcVariant; 2]| {
        let jobs = [
            netsim::rate::RateJob::new(spec, variants[0]),
            netsim::rate::RateJob::new(spec, variants[1]),
        ];
        let mut sim =
            netsim::rate::RateSimulator::new(netsim::rate::RateSimConfig::default(), &jobs);
        assert!(sim.run_until_iterations(200, Dur::from_secs(400)));
        (0..2)
            .map(|i| {
                let t: Vec<_> = sim
                    .progress(i)
                    .iteration_times()
                    .into_iter()
                    .skip(10)
                    .collect();
                eventsim::Cdf::from_samples(t).mean().as_millis_f64()
            })
            .collect::<Vec<_>>()
    };
    let fair = run([CcVariant::Fair, CcVariant::Fair]);
    let unfair = run([
        CcVariant::StaticUnfair {
            timer: Dur::from_micros(100),
        },
        CcVariant::Fair,
    ]);
    // Paper: 1301/1300 ms fair → 1001/1019 ms unfair.
    for k in 0..2 {
        assert!(
            (fair[k] - 1300.0).abs() < 15.0,
            "fair[{k}] = {:.1}",
            fair[k]
        );
        assert!(
            (unfair[k] - 1000.0).abs() < 15.0,
            "unfair[{k}] = {:.1}",
            unfair[k]
        );
    }
}
