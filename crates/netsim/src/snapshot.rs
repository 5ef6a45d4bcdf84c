//! Engine snapshot/restore: versioned state capture at a simulated-time
//! barrier, with restore guaranteed byte-identical to an uninterrupted run.
//!
//! Each engine defines its own snapshot type ([`crate::fluid::FluidSnapshot`],
//! [`crate::rate::RateSnapshot`], [`crate::packet::PacketSnapshot`]) behind
//! [`crate::Engine::snapshot`] and [`crate::Engine::restore`]. Each
//! simulator is its recorder plus one private state struct, and its
//! snapshot is a version tag plus a clone of that struct. A snapshot
//! therefore captures **everything** that feeds future behaviour by
//! construction — job progress and controller state, RNG and chaos stream
//! positions, capacity multipliers, pending event-queue contents
//! (including the FIFO tie-break counter), span-tracker state, and the
//! accumulated traces the experiments read back: a field added to an
//! engine is in its snapshot without a second list to update. So
//!
//! ```text
//! run(0 → T)  ≡  run(0 → t) + snapshot + restore + run(t → T)
//! ```
//!
//! holds at the telemetry byte level. The recorder itself is *not* part of
//! the snapshot: restore takes a fresh recorder, and callers that need the
//! merged stream replay the prefix recording into it (see
//! `mlcc::forkcache::resume`). An unobserved engine keeps no per-job span
//! state, so its snapshot restores only into a disabled recorder; an
//! enabled one is [`SnapshotError::Malformed`].
//!
//! # Barriers
//!
//! A snapshot must be taken at a **simulated-time barrier**: a point where
//! every event due at or before the current clock has been processed.
//! `run_until(t)` always leaves an event-driven engine at one (it drains
//! every event up to `t`, including same-instant reschedules), so that is
//! the API to drive an engine to a fork point. `run_until_iterations` can
//! break on its iteration-count check while a same-instant reschedule is
//! still pending; `snapshot()` detects that and returns
//! [`SnapshotError::MidEventBarrier`] instead of capturing mid-event
//! state. `restore` re-validates the same invariant so a tampered or
//! corrupted snapshot is rejected with the typed error rather than
//! panicking deep inside the event queue.
//!
//! # Versioning
//!
//! Snapshots are in-memory values, but their layout tracks engine
//! internals that change across releases (e.g. the fluid engine's SoA flow
//! arena). Each snapshot carries [`SNAPSHOT_VERSION`]; `restore` rejects a
//! mismatch with a typed error rather than misinterpreting state. Bump the
//! constant whenever captured fields change meaning.

use simtime::Time;
use std::error::Error;
use std::fmt;

/// Current snapshot layout version, shared by all three engines.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Why a snapshot could not be taken or restored. All misuse surfaces as
/// one of these — never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was produced by a different engine layout version.
    VersionMismatch {
        /// The version this build understands ([`SNAPSHOT_VERSION`]).
        expected: u32,
        /// The version carried by the snapshot.
        found: u32,
    },
    /// The snapshot is not at a clean simulated-time barrier: an event is
    /// still pending at or before the captured clock. Restoring it would
    /// re-process (or skip) work an uninterrupted run already did.
    MidEventBarrier {
        /// The earliest pending event's firing time.
        pending_at: Time,
        /// The snapshot's clock.
        now: Time,
    },
    /// The snapshot's internal structure is inconsistent (e.g. SoA column
    /// lengths disagree) — it was corrupted or hand-built.
    Malformed {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::VersionMismatch { expected, found } => write!(
                f,
                "snapshot version {found} does not match this engine's version {expected}"
            ),
            SnapshotError::MidEventBarrier { pending_at, now } => write!(
                f,
                "snapshot is mid-event: an event is pending at {pending_at:?} \
                 but the snapshot clock is already {now:?}"
            ),
            SnapshotError::Malformed { what } => {
                write!(f, "snapshot is malformed: {what}")
            }
        }
    }
}

impl Error for SnapshotError {}

/// The snapshot half of [`crate::Engine`], under the name it had before the
/// engine surface became one trait.
pub use crate::Engine as Snapshottable;

/// Validates the version field shared by every snapshot type.
pub(crate) fn check_version(found: u32) -> Result<(), SnapshotError> {
    if found != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            expected: SNAPSHOT_VERSION,
            found,
        });
    }
    Ok(())
}

/// Validates the barrier invariant shared by every queue-backed snapshot.
pub(crate) fn check_barrier(pending: Option<Time>, now: Time) -> Result<(), SnapshotError> {
    match pending {
        Some(pending_at) if pending_at <= now => {
            Err(SnapshotError::MidEventBarrier { pending_at, now })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let v = SnapshotError::VersionMismatch {
            expected: SNAPSHOT_VERSION,
            found: 99,
        };
        assert!(v.to_string().contains("99"));
        let b = SnapshotError::MidEventBarrier {
            pending_at: Time::from_nanos(5),
            now: Time::from_nanos(9),
        };
        assert!(b.to_string().contains("pending"));
        let m = SnapshotError::Malformed { what: "flow arena" };
        assert!(m.to_string().contains("flow arena"));
    }

    #[test]
    fn version_and_barrier_checks() {
        assert!(check_version(SNAPSHOT_VERSION).is_ok());
        assert_eq!(
            check_version(0),
            Err(SnapshotError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: 0
            })
        );
        assert!(check_barrier(None, Time::from_nanos(10)).is_ok());
        assert!(check_barrier(Some(Time::from_nanos(11)), Time::from_nanos(10)).is_ok());
        assert!(check_barrier(Some(Time::from_nanos(10)), Time::from_nanos(10)).is_err());
    }
}
