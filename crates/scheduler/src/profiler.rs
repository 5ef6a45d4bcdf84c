//! Job profiling: from a job specification to its circle.
//!
//! §4 of the paper: "the ML scheduler should first profile each ML training
//! job in isolation to measure its iteration time, communication pattern,
//! and bandwidth demand." Two profilers are provided:
//!
//! * [`analytic_profile`] — directly from the calibrated model zoo
//!   (instant; what the scheduler uses in the large-scale experiments);
//! * [`measured_profile`] — actually runs the job alone in the fluid
//!   simulator for a few iterations and reads the phases off the run,
//!   demonstrating the full profiling loop a production scheduler would
//!   use. The two must agree (there is a test for that).

use geometry::{quantize_period, Profile};
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::Engine;
use simtime::{Bandwidth, Dur};
use topology::builders::dumbbell;
use workload::JobSpec;

/// The analytic circle of a job at a given NIC rate, with the period
/// snapped to `grid` (see [`geometry::quantize_period`]) so that sets of
/// jobs produce tractable unified-circle perimeters.
///
/// Communication arcs keep their true lengths (one arc per pipelined
/// burst; monolithic jobs get a single arc); quantization slack lands
/// after the last arc, where the solver treats time as free anyway.
pub fn analytic_profile(spec: &JobSpec, nic: Bandwidth, grid: Dur) -> Profile {
    let plan = spec.phase_plan();
    let mut arcs = Vec::with_capacity(plan.len());
    let mut cursor = Dur::ZERO;
    for (compute, bytes) in plan {
        cursor += compute;
        let burst = nic.time_to_send(simtime::ByteSize::from_bytes(bytes.round() as u64));
        arcs.push(geometry::Arc {
            start: cursor,
            end: cursor + burst,
        });
        cursor += burst;
    }
    // Snap the period to the grid (un-aligned periods make unified-circle
    // LCMs astronomically large). When nearest-rounding lands just below
    // the arcs' end, slide every arc earlier by the overhang — absorbing
    // quantization error in the leading compute phase, whose exact length
    // the solver treats as free time anyway. Only if the compute phase is
    // too short to absorb it does the period round up instead.
    let mut period = quantize_period(spec.iteration_time_at(nic), grid);
    let overhang = cursor.saturating_sub(period);
    if !overhang.is_zero() {
        if arcs[0].start >= overhang {
            for a in &mut arcs {
                a.start -= overhang;
                a.end -= overhang;
            }
        } else {
            let steps = cursor.as_nanos().div_ceil(grid.as_nanos()).max(1);
            period = grid * steps;
        }
    }
    Profile::new(period, arcs, 1.0)
}

/// Profiles jobs for **flow-schedule gating** (§4.iii).
///
/// A gate locks a job to a slot that repeats every `period`; the lock is
/// only stable if the job's *natural* iteration time never exceeds the
/// slot period (otherwise the forward pass finishes ever later, eventually
/// misses its slot, and stalls a full period). So slot periods are chosen
/// **at or above** each natural period, and **harmonically**: the hyper-
/// period `P` is the largest natural period rounded up to the grid, and
/// each job's slot period is `P / k` for the largest divisor-friendly `k`
/// that keeps the slot at or above the job's natural period. Every slot
/// period then divides `P`, so the unified circle's perimeter is exactly
/// `P` and the solver sees a compact instance.
///
/// The price of harmony is a bounded stretch: a job only takes a harmonic
/// slot if that slows it by at most `max_stretch` (default 10% via
/// [`gating_profiles`]); otherwise it keeps its own rounded-up period.
/// Slowing a job arbitrarily could "solve" any instance — a 150 ms BERT
/// gated at a 262.5 ms slot is compatible with anything and 75% slower —
/// so the cap is what keeps the solver's verdict meaningful. A job that
/// cannot take a harmonic slot usually renders the instance incompatible;
/// tune the batch instead ([`crate::tuner`]).
///
/// The returned profiles are what both the solver and
/// [`crate::gates_from_rotations`] must be fed — solving on one set of
/// periods and gating on another breaks the slot discipline.
pub fn gating_profiles(specs: &[JobSpec], nic: Bandwidth, grid: Dur) -> Vec<Profile> {
    gating_profiles_with_stretch(specs, nic, grid, 0.10)
}

/// [`gating_profiles`] with an explicit slot-stretch budget.
///
/// # Panics
/// Panics if `grid` is zero or `max_stretch` is negative.
pub fn gating_profiles_with_stretch(
    specs: &[JobSpec],
    nic: Bandwidth,
    grid: Dur,
    max_stretch: f64,
) -> Vec<Profile> {
    assert!(!grid.is_zero(), "gating_profiles: zero grid");
    assert!(max_stretch >= 0.0, "gating_profiles: negative stretch");
    let ceil_grid = |d: Dur| -> Dur {
        let steps = d.as_nanos().div_ceil(grid.as_nanos()).max(1);
        grid * steps
    };
    let naturals: Vec<Dur> = specs.iter().map(|s| s.iteration_time_at(nic)).collect();
    let p_max = ceil_grid(*naturals.iter().max().expect("at least one job"));
    specs
        .iter()
        .zip(&naturals)
        .map(|(s, &natural)| {
            // Largest k with k | P and P/k ≥ natural; k = 1 always works.
            let mut k = (p_max / natural).max(1);
            while p_max.as_nanos() % k != 0 {
                k -= 1;
            }
            let harmonic = Dur::from_nanos(p_max.as_nanos() / k);
            debug_assert!(harmonic >= natural);
            let own = ceil_grid(natural);
            let stretch = harmonic.ratio(natural) - 1.0;
            let period = if stretch <= max_stretch {
                harmonic
            } else {
                own
            };
            let comm = s.comm_time_at(nic);
            Profile::compute_then_comm(period - comm, comm)
        })
        .collect()
}

/// Profiles a job by running it alone on a dedicated link in the fluid
/// simulator for `iters` iterations and measuring the median iteration
/// time and communication-phase duration.
///
/// # Panics
/// Panics if `iters == 0` or the job fails to complete within a generous
/// time budget (100 iterations' worth of analytic time).
pub fn measured_profile(spec: &JobSpec, nic: Bandwidth, grid: Dur, iters: usize) -> Profile {
    measured_profile_traced(spec, nic, grid, iters, telemetry::NoopRecorder)
}

/// [`measured_profile`] with the profiling run's telemetry streamed into
/// `rec` — the phase transitions and solver passes of the isolated run
/// become inspectable alongside the experiment that requested the profile.
///
/// # Panics
/// Panics under the same conditions as [`measured_profile`].
pub fn measured_profile_traced<R: telemetry::Recorder>(
    spec: &JobSpec,
    nic: Bandwidth,
    grid: Dur,
    iters: usize,
    rec: R,
) -> Profile {
    assert!(iters > 0, "measured_profile: zero iterations");
    let d = dumbbell(1, nic, nic, Dur::ZERO);
    let job = FluidJob::single_path(*spec, d.pair_links(0));
    let cfg = FluidConfig {
        nic_rate: nic,
        ..FluidConfig::fair()
    };
    let mut sim = FluidSimulator::with_recorder(&d.topology, cfg, &[job], rec);
    let budget = spec.iteration_time_at(nic) * (iters as u64 * 4 + 16);
    let ok = sim.run_until_iterations(iters, budget);
    assert!(
        ok,
        "measured_profile: job did not complete {iters} iterations"
    );
    // Median iteration time from the run; comm = iteration − compute
    // (compute is an input, not something the network run changes).
    let times = sim.progress(0).iteration_times();
    let cdf = eventsim::Cdf::from_samples(times);
    let period_measured = cdf.median();
    let comm = period_measured.saturating_sub(spec.compute_time());
    let period = quantize_period(period_measured, grid).max(comm + grid);
    Profile::compute_then_comm(period - comm, comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Model;

    const LINE: Bandwidth = Bandwidth::from_gbps(50);
    const GRID: Dur = Dur::from_millis(1);

    #[test]
    fn analytic_profile_shape() {
        let spec = JobSpec::reference(Model::Vgg16, 1400);
        let p = analytic_profile(&spec, LINE, GRID);
        // Period snapped to 1 ms grid near 254.9 ms.
        assert_eq!(p.period(), Dur::from_millis(255));
        // Comm arc keeps its exact calibrated length (113.92 ms).
        assert_eq!(p.comm_time(), spec.comm_time_at(LINE));
        assert_eq!(p.arcs().len(), 1);
    }

    #[test]
    fn measured_matches_analytic() {
        for model in [Model::Vgg19, Model::ResNet50, Model::Dlrm] {
            let spec = JobSpec::reference(model, 1000);
            let analytic = analytic_profile(&spec, LINE, GRID);
            let measured = measured_profile(&spec, LINE, GRID, 3);
            assert_eq!(
                analytic.period(),
                measured.period(),
                "{model:?}: period mismatch"
            );
            let da = analytic.comm_time().as_millis_f64();
            let dm = measured.comm_time().as_millis_f64();
            assert!(
                (da - dm).abs() < 0.5,
                "{model:?}: comm {da:.2} vs measured {dm:.2} ms"
            );
        }
    }

    #[test]
    fn traced_profiling_run_is_observable() {
        let spec = JobSpec::reference(Model::Vgg19, 1000);
        let mut rec = telemetry::BufferRecorder::new();
        let traced = measured_profile_traced(&spec, LINE, GRID, 3, &mut rec);
        // Tracing never changes the measurement.
        let plain = measured_profile(&spec, LINE, GRID, 3);
        assert_eq!(traced.period(), plain.period());
        assert_eq!(traced.comm_time(), plain.comm_time());
        // The isolated run's phase transitions and solver passes landed in
        // the buffer.
        let kinds: std::collections::BTreeSet<&str> =
            rec.events().iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains("phase_enter"), "kinds: {kinds:?}");
        assert!(kinds.contains("phase_exit"));
        assert!(kinds.contains("solver_iteration"));
    }

    #[test]
    fn gating_profiles_round_up_and_align() {
        let grid = Dur::from_micros(2_500);
        // WRN(800) natural 255.04 ms, VGG16(1400) natural 254.90 ms:
        // rounded up to 257.5 and 255.0, within one grid step → aligned to
        // the common 257.5 ms so both lock to one slot cycle.
        let specs = [
            JobSpec::reference(Model::WideResNet50, 800),
            JobSpec::reference(Model::Vgg16, 1400),
        ];
        let ps = gating_profiles(&specs, LINE, grid);
        assert_eq!(ps[0].period(), ps[1].period());
        assert_eq!(ps[0].period(), Dur::from_micros(257_500));
        // Slot period never below the natural period (lock stability).
        for (p, s) in ps.iter().zip(&specs) {
            assert!(p.period() >= s.iteration_time_at(LINE));
            assert_eq!(p.comm_time(), s.comm_time_at(LINE));
        }
        // Far-apart jobs: DLRM anchors P = 1000 ms; ResNet50's nearest
        // harmonic slot (200 ms) would stretch it 40% — over the default
        // 10% budget, so it keeps its own rounded-up period (142.4 ms
        // natural → 142.5 ms).
        let far = [
            JobSpec::reference(Model::Dlrm, 2000),
            JobSpec::reference(Model::ResNet50, 1600),
        ];
        let ps = gating_profiles(&far, LINE, grid);
        assert_eq!(ps[0].period(), Dur::from_millis(1000));
        assert_eq!(ps[1].period(), Dur::from_micros(142_500));
        // With a generous stretch budget the harmonic slot is taken.
        let ps = gating_profiles_with_stretch(&far, LINE, grid, 0.5);
        assert_eq!(ps[1].period(), Dur::from_millis(200));
        assert_eq!(
            ps[0].period().as_nanos() % ps[1].period().as_nanos(),
            0,
            "slot periods divide the hyper-period"
        );
    }

    /// The Table 1 group-5 trio gets harmonic slots: both VGG jobs at the
    /// 287.5 ms hyper-period, ResNet50 at exactly half of it.
    #[test]
    fn gating_profiles_harmonic_trio() {
        let specs = [
            JobSpec::reference(Model::Vgg19, 1400),
            JobSpec::reference(Model::Vgg16, 1700),
            JobSpec::reference(Model::ResNet50, 1600),
        ];
        let ps = gating_profiles(&specs, LINE, Dur::from_micros(2_500));
        assert_eq!(ps[0].period(), Dur::from_micros(287_500));
        assert_eq!(ps[1].period(), Dur::from_micros(287_500));
        assert_eq!(ps[2].period(), Dur::from_micros(143_750));
        for (p, s) in ps.iter().zip(&specs) {
            assert!(p.period() >= s.iteration_time_at(LINE));
        }
    }

    #[test]
    fn tiny_job_period_is_at_least_comm_plus_grid() {
        // A pathological job whose iteration is under one grid step must
        // not produce an inverted profile.
        let spec = JobSpec::reference(Model::ResNet50, 1);
        let p = analytic_profile(&spec, LINE, Dur::from_millis(100));
        assert!(p.period() >= p.comm_time());
        assert!(p.comm_fraction() <= 1.0);
    }
}
