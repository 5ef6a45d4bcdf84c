//! Flow-level network simulation engines.
//!
//! Three engines measure one thing — training-iteration times of jobs
//! contending on links — at three levels of realism, behind one
//! [`Engine`] trait:
//!
//! * [`fluid`] — the **event-driven fluid engine**: instantaneous
//!   (weighted) max-min or strict-priority bandwidth allocation over an
//!   arbitrary [`topology::Topology`], advancing directly from flow event
//!   to flow event. Idealized and fast; drives the mechanism experiments
//!   (§4.ii priority queues, §4.iii flow scheduling via comm-phase gates)
//!   and the cluster-scale scheduler studies (§5).
//!
//! * [`rate`] — the **rate-based DCQCN engine**: a single bottleneck link
//!   with a RED/ECN marking queue, stepped at microsecond resolution, with
//!   every flow running the full DCQCN reaction-point state machine from
//!   the [`dcqcn`] crate. Congestion behaviour (fair sharing, the
//!   unfairness knob `T`, the adaptive `R_AI` variant) is *emergent*, which
//!   is what reproduces the paper's §2 observation: unfairness slides the
//!   phases of compatible jobs apart. Drives Fig. 1, Fig. 2, Table 1 and
//!   the §4.i experiments.
//!
//! * [`packet`] — DCQCN **per packet** (paced senders, per-packet ECN
//!   marking, CNP round trips): the ground truth the fluid abstraction is
//!   validated against on short scenarios.
//!
//! The two DCQCN engines take one job type, [`rate::RateJob`], and share
//! one private model of their bottleneck's faults (capacity schedule,
//! mark and CNP loss), so a job list or chaos plan drives either.
//!
//! [`Engine`] is everything a caller needs to treat them as
//! interchangeable: the clock, per-job progress, the run loops, the
//! recorder, and [`snapshot`]/restore. Code that wants "any engine" — the
//! shard runner, the fork-prefix helper, the conformance tests — is
//! written once against it.
//!
//! The shared allocation mathematics (progressive-filling max-min, weighted
//! variant, strict priorities) lives in [`alloc`] as pure, independently
//! tested functions. The job lifecycle the three engines drive — compute,
//! communicate, depart, and the phase telemetry of each change — lives in
//! one private `job` module, so the engines differ only in transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod fault;
pub mod fluid;
mod job;
pub mod packet;
pub mod rate;
pub mod snapshot;

use simtime::{Dur, Time};
use snapshot::SnapshotError;
use telemetry::Recorder;
use workload::JobProgress;

/// The surface the three simulators share: run, inspect, snapshot.
///
/// Jobs are indexed `0..num_jobs()` in the order the engine was built
/// with; departed jobs keep their index.
pub trait Engine: Sized {
    /// The recorder the engine streams telemetry into.
    type Rec: Recorder;
    /// The engine-specific state capture. It is recorder-free: a restored
    /// engine records into whatever recorder [`Engine::restore`] is given.
    type Snapshot: Clone + Send + Sync + 'static;

    /// Current simulation time.
    fn now(&self) -> Time;

    /// Number of jobs in the simulation (including departed ones).
    fn num_jobs(&self) -> usize;

    /// Iteration bookkeeping of job `i`.
    fn progress(&self, i: usize) -> &JobProgress;

    /// `true` once churn has removed job `i` from the cluster.
    fn departed(&self, i: usize) -> bool;

    /// Processes everything due up to `t` — the way to drive an engine to
    /// a fork barrier. The fluid engine's clock lands on `t`, the rate
    /// engine's on its first step boundary at or past `t`, the packet
    /// engine's on its last event at or before `t`. Calling it again with
    /// the same `t` changes nothing.
    fn run_until(&mut self, t: Time);

    /// Runs until every job has completed `n` iterations or departed, or
    /// `max_span` elapses. Returns `true` exactly when every job is
    /// [`departed`](Engine::departed) or has completed `n` iterations.
    fn run_until_iterations(&mut self, n: usize, max_span: Dur) -> bool;

    /// The attached recorder, for post-run inspection.
    fn recorder(&self) -> &Self::Rec;

    /// Consumes the simulator and returns the attached recorder (how a
    /// shard's fork is recovered for the ordered merge).
    fn into_recorder(self) -> Self::Rec;

    /// Captures the engine's complete state at the current simulated-time
    /// barrier. Cheap: near-memcpy of the engine's vectors plus a clone of
    /// the pending event queue. Fails with
    /// [`SnapshotError::MidEventBarrier`] while an event is still due at
    /// the clock.
    fn snapshot(&self) -> Result<Self::Snapshot, SnapshotError>;

    /// Rebuilds an engine from `snap`, recording into `rec`. The restored
    /// engine's future behaviour — events popped, bytes delivered, RNG
    /// draws, telemetry emitted — is byte-identical to the engine the
    /// snapshot was taken from. Fails only when the snapshot's span state
    /// does not fit `rec` ([`SnapshotError::Malformed`]).
    fn restore(snap: Self::Snapshot, rec: Self::Rec) -> Result<Self, SnapshotError>;
}
