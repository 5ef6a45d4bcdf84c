//! Engine snapshot/restore: state capture at a simulated-time barrier,
//! with restore guaranteed byte-identical to an uninterrupted run.
//!
//! Each engine defines its own snapshot type ([`crate::fluid::FluidSnapshot`],
//! [`crate::rate::RateSnapshot`], [`crate::packet::PacketSnapshot`]) behind
//! [`crate::Engine::snapshot`] and [`crate::Engine::restore`]. Each
//! simulator is its recorder plus one private state struct, and its
//! snapshot is a clone of that struct. A snapshot therefore captures
//! **everything** that feeds future behaviour by construction — job
//! progress and controller state, RNG and chaos stream positions, capacity
//! multipliers, pending event-queue contents (including the FIFO tie-break
//! counter), span-tracker state, and the accumulated traces the
//! experiments read back: a field added to an engine is in its snapshot
//! without a second list to update. So
//!
//! ```text
//! run(0 → T)  ≡  run(0 → t) + snapshot + restore + run(t → T)
//! ```
//!
//! holds at the telemetry byte level.
//!
//! A snapshot's fields are private and only `snapshot()` builds one, and
//! snapshots live in memory only (never serialized), so restore trusts
//! the clone: it holds every invariant of the live engine it came from.
//! The recorder itself is *not* part of the snapshot: restore takes a
//! fresh recorder, and callers that need the merged stream replay the
//! prefix recording into it (see `mlcc::forkcache::resume`). An
//! unobserved engine keeps no per-job span state, so its snapshot
//! restores only into a disabled recorder; an enabled one is
//! [`SnapshotError::Malformed`], the one way a restore can fail.
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
//! state.

use simtime::Time;
use std::error::Error;
use std::fmt;

/// Why a snapshot could not be taken or restored. All misuse surfaces as
/// one of these — never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The engine is not at a clean simulated-time barrier: an event is
    /// still pending at or before its clock. A snapshot of it would
    /// re-process (or skip) work an uninterrupted run already did.
    MidEventBarrier {
        /// The earliest pending event's firing time.
        pending_at: Time,
        /// The engine's clock.
        now: Time,
    },
    /// The snapshot cannot drive the recorder it is restored into: an
    /// unobserved engine's snapshot keeps no span state for an enabled
    /// recorder to close.
    Malformed {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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

/// The barrier invariant a queue-backed engine must hold to be snapshotted.
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
        let b = SnapshotError::MidEventBarrier {
            pending_at: Time::from_nanos(5),
            now: Time::from_nanos(9),
        };
        assert!(b.to_string().contains("pending"));
        let m = SnapshotError::Malformed { what: "span state" };
        assert!(m.to_string().contains("span state"));
    }

    #[test]
    fn barrier_check() {
        assert!(check_barrier(None, Time::from_nanos(10)).is_ok());
        assert!(check_barrier(Some(Time::from_nanos(11)), Time::from_nanos(10)).is_ok());
        assert!(check_barrier(Some(Time::from_nanos(10)), Time::from_nanos(10)).is_err());
    }
}
