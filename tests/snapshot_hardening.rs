//! Snapshot misuse surfaces as typed [`SnapshotError`]s — never a panic
//! and never a silently-wrong restore. A snapshot is a trusted clone of
//! the engine it came from, so the one way to misuse it is to restore an
//! unobserved engine's snapshot into a recording one; the other typed
//! error, a snapshot refused mid-event, is checked inside each
//! queue-backed engine, which alone can reach that state.

use dcqcn::CcVariant;
use mlcc_repro::*;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::packet::{PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::snapshot::SnapshotError;
use netsim::Engine;
use simtime::{Bandwidth, Dur, Time};
use std::error::Error;
use telemetry::{BufferRecorder, NoopRecorder};
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

const BARRIER: Time = Time::from_nanos(50_000_000);

fn rate_snapshot() -> <RateSimulator as Engine>::Snapshot {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let jobs = [
        RateJob::new(spec, CcVariant::Fair),
        RateJob::new(spec, CcVariant::Fair),
    ];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    sim.run_until(BARRIER);
    sim.snapshot().expect("clean barrier")
}

fn packet_snapshot() -> <PacketSimulator as Engine>::Snapshot {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let jobs = [
        RateJob::new(spec, CcVariant::Fair),
        RateJob::new(spec, CcVariant::Fair),
    ];
    let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
    sim.run_until(BARRIER);
    sim.snapshot().expect("clean barrier")
}

fn fluid_snapshot() -> <FluidSimulator as Engine>::Snapshot {
    let line = Bandwidth::from_gbps(50);
    let d = dumbbell(2, line, line, Dur::ZERO);
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let jobs: Vec<FluidJob> = (0..2)
        .map(|i| FluidJob::single_path(spec, d.pair_links(i)))
        .collect();
    let mut sim = FluidSimulator::new(&d.topology, FluidConfig::fair(), &jobs);
    sim.run_until(BARRIER);
    sim.snapshot().expect("clean barrier")
}

/// Extracts the error without requiring the simulator to be `Debug`.
macro_rules! restore_err {
    ($sim:ty, $snap:expr, $rec:expr) => {
        match <$sim>::restore($snap, $rec) {
            Ok(_) => panic!("mismatched snapshot restored cleanly"),
            Err(e) => e,
        }
    };
}

/// An unobserved engine keeps no per-job span state, so its snapshot
/// cannot drive a recorder: restoring it observed is a typed error, not a
/// panic at the first phase exit.
#[test]
fn unobserved_snapshot_rejects_a_recorder_for_every_engine() {
    let errors = [
        restore_err!(
            RateSimulator<BufferRecorder>,
            rate_snapshot(),
            BufferRecorder::new()
        ),
        restore_err!(
            PacketSimulator<BufferRecorder>,
            packet_snapshot(),
            BufferRecorder::new()
        ),
        restore_err!(
            FluidSimulator<BufferRecorder>,
            fluid_snapshot(),
            BufferRecorder::new()
        ),
    ];
    for e in errors {
        assert_eq!(
            e,
            SnapshotError::Malformed {
                what: "span state does not fit the recorder"
            }
        );
    }
}

#[test]
fn snapshot_errors_are_std_errors_with_context() {
    let e = restore_err!(
        RateSimulator<BufferRecorder>,
        rate_snapshot(),
        BufferRecorder::new()
    );
    // Usable with `?` / anyhow-style handling downstream…
    let dynamic: Box<dyn Error> = Box::new(e);
    // …and the rendering names the failed invariant so the fix is obvious.
    let msg = dynamic.to_string();
    assert!(
        msg.contains("span state does not fit the recorder"),
        "message should name the invariant: {msg}"
    );
}

/// A snapshot taken at a barrier reports that instant, and restoring it
/// twice is fine — the snapshot is a value, not a consumed token.
#[test]
fn snapshots_are_reusable_values() {
    let snap = rate_snapshot();
    assert_eq!(snap.taken_at(), BARRIER);
    for _ in 0..2 {
        let mut sim =
            RateSimulator::restore(snap.clone(), NoopRecorder).expect("clean snapshot restores");
        sim.run_until(BARRIER + Dur::from_millis(10));
        assert_eq!(sim.now(), BARRIER + Dur::from_millis(10));
    }
}
