//! Fork prefixes: build a forked sweep's shared prefix once, and bring
//! each cell to the fork barrier from it.
//!
//! A forked sweep's shared prefix is a pure function of the experiment
//! configuration and the fork instant, so its snapshot (plus the prefix
//! telemetry recording) can be reused across sweeps in the same process —
//! e.g. a forked run followed by its `--fork-replay` baseline, or
//! repeated invocations from tests. Entries are keyed on the canonical
//! config hash ([`simtime::hash::fnv1a_64`] over the config's canonical
//! rendering), the same helper the report summary uses, so a cache key
//! and a reported `config.hash` always agree on what "the same
//! configuration" means.
//!
//! [`prefix`] builds (or fetches) that state for any [`Engine`];
//! [`resume`] brings one cell to the barrier, either from it or — the
//! byte-identity baseline — by re-simulating the prefix.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use netsim::Engine;
use simtime::{Dur, Time};
use telemetry::{BufferRecorder, Recorder};

static CACHE: OnceLock<Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>> = OnceLock::new();

/// Returns the cached prefix state for `key`, building and inserting it
/// on a miss. A key collision across types is impossible to misread: the
/// downcast fails and the entry is rebuilt with the requested type.
fn get_or_build<S: Send + Sync + 'static>(key: u64, build: impl FnOnce() -> S) -> Arc<S> {
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = map.get(&key).cloned() {
        if let Ok(typed) = hit.downcast::<S>() {
            return typed;
        }
    }
    let built = Arc::new(build());
    map.insert(key, built.clone() as Arc<dyn Any + Send + Sync>);
    built
}

/// The shared prefix for `key`: the engine `build` makes, recording into
/// a fresh buffer, run to `fork_at` and snapshotted, with its prefix
/// recording. Built once per key per process.
pub fn prefix<E>(
    key: u64,
    fork_at: Dur,
    build: impl FnOnce(BufferRecorder) -> E,
) -> Arc<(E::Snapshot, BufferRecorder)>
where
    E: Engine<Rec = BufferRecorder>,
{
    get_or_build(key, || {
        let mut sim = build(BufferRecorder::new());
        sim.run_until(Time::ZERO + fork_at);
        let snap = sim.snapshot().expect("run_until leaves a barrier");
        (snap, sim.into_recorder())
    })
}

/// An engine at the barrier `fork_at`, recording into `rec`. With a
/// `shared` [`prefix`], its recording is replayed into `rec` (the
/// snapshot is recorder-free) and its snapshot restored; without one,
/// `build(rec)` re-simulates the prefix. Either way `rec` sees the same
/// bytes.
pub fn resume<E: Engine>(
    shared: Option<&(E::Snapshot, BufferRecorder)>,
    fork_at: Dur,
    mut rec: E::Rec,
    build: impl FnOnce(E::Rec) -> E,
) -> E {
    match shared {
        Some((snap, prefix_rec)) => {
            if <E::Rec as Recorder>::ENABLED {
                for te in prefix_rec.events() {
                    rec.record(te.at, te.event.clone());
                }
            }
            E::restore(snap.clone(), rec).expect("prefix snapshot restores")
        }
        None => {
            let mut sim = build(rec);
            sim.run_until(Time::ZERO + fork_at);
            sim
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn builds_once_per_key() {
        let builds = AtomicU32::new(0);
        let mk = || {
            builds.fetch_add(1, Ordering::Relaxed);
            vec![1u8, 2, 3]
        };
        let key = simtime::hash::fnv1a_64(b"forkcache-test-key");
        let a = get_or_build(key, mk);
        let b = get_or_build::<Vec<u8>>(key, || unreachable!("second build for same key"));
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(*a, *b);
    }
}
