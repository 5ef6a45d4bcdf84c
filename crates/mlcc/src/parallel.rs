//! Deterministic parallel scenario runner.
//!
//! Every experiment in this crate decomposes into independent scenario
//! units (fair vs unfair, one unit per Table 1 group × policy, …). This
//! module fans those units across OS threads with `std::thread::scope` —
//! no dependencies, no runtime — while keeping every observable output
//! **byte-identical** to a serial run:
//!
//! * results are collected into index-ordered slots, so callers assemble
//!   them in the same order a serial loop would have produced;
//! * telemetry is recorded into a per-unit [`ForkableRecorder`] fork on
//!   the worker thread and the forks are joined back in unit order, so
//!   the merged event stream is exactly the serial stream;
//! * wall-clock never enters any result — only simulation time does — so
//!   scheduling jitter between workers cannot leak into outputs.
//!
//! The worker count comes from [`jobs`]: the CLI's `--jobs N` flag via
//! [`set_jobs`], defaulting to [`std::thread::available_parallelism`].
//! `--jobs 1` (or a single-unit map) short-circuits to a plain serial
//! loop on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use telemetry::ForkableRecorder;

/// Configured worker count; 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for subsequent [`map`] calls. `0` restores the
/// default (one worker per available core).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the value passed to [`set_jobs`], or the
/// machine's available parallelism when unset (falling back to 1 if that
/// cannot be determined).
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Worker threads for *intra*-scenario sharding (`--shards N`); 0 means
/// "auto". Orthogonal to [`jobs`], which fans out across scenarios: a
/// sweep may run scenarios with `--jobs` while each scenario's
/// link-disjoint components advance under `--shards`. Like `--jobs`, the
/// value only controls threading — sharded output is byte-identical at
/// any shard count (the shard *plan* is a pure function of the topology).
static SHARDS: AtomicUsize = AtomicUsize::new(0);

/// Sets the shard worker count for subsequent sharded runs. `0` restores
/// the default (one worker per available core).
pub fn set_shards(n: usize) {
    SHARDS.store(n, Ordering::Relaxed);
}

/// The effective shard worker count: the value passed to [`set_shards`],
/// or the machine's available parallelism when unset (falling back to 1).
pub fn shards() -> usize {
    match SHARDS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Applies `f` to every item, possibly across [`jobs`] threads, returning
/// results in item order regardless of which worker finished when. See
/// [`map_with`].
pub fn map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    map_with(jobs(), items, f)
}

/// [`map`] on up to `workers` threads instead of the [`jobs`] setting —
/// how a sharded run sizes its pool from `--shards`.
///
/// `f` receives `(index, &item)`. Work is handed out through an atomic
/// cursor, so workers stay busy even when unit costs are skewed; each
/// result lands in its own index slot. With one worker (or one item) this
/// is exactly a serial loop on the calling thread.
///
/// # Panics
/// A panic in `f` propagates to the caller once all workers stop.
pub fn map_with<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a slot")
        })
        .collect()
}

/// [`map`] for traced scenario units: each unit records into its own
/// recorder fork on the worker thread, and the forks are joined back into
/// `rec` in unit order — the merged stream is byte-identical to running
/// the units serially against `rec`.
///
/// `f` receives `(index, &item, &mut fork)` and should record its unit's
/// [`telemetry::Event::Scenario`] marker into the fork before simulating.
pub fn map_traced<R, T, U, F>(rec: &mut R, items: &[T], f: F) -> Vec<U>
where
    R: ForkableRecorder,
    T: Sync,
    U: Send,
    F: Fn(usize, &T, &mut R::Fork) -> U + Sync,
{
    let results = map(items, |i, item| {
        let mut fork = R::fork();
        let out = f(i, item, &mut fork);
        (out, fork)
    });
    results
        .into_iter()
        .map(|(out, fork)| {
            rec.join(fork);
            out
        })
        .collect()
}

/// [`map_traced`] for fallible units. Joins forks in unit order up to and
/// including the first `Err`, then returns that error — reproducing the
/// event stream a serial run would have left behind when it stopped at
/// the failing unit. (Later units still execute; their recordings and
/// results are discarded.)
pub fn try_map_traced<R, T, V, E, F>(rec: &mut R, items: &[T], f: F) -> Result<Vec<V>, E>
where
    R: ForkableRecorder,
    T: Sync,
    V: Send,
    E: Send,
    F: Fn(usize, &T, &mut R::Fork) -> Result<V, E> + Sync,
{
    let results = map(items, |i, item| {
        let mut fork = R::fork();
        let out = f(i, item, &mut fork);
        (out, fork)
    });
    let mut ok = Vec::with_capacity(results.len());
    for (out, fork) in results {
        rec.join(fork);
        ok.push(out?);
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Time;
    use telemetry::{BufferRecorder, Event, Recorder};

    /// Serialize tests that touch the global worker count.
    static JOBS_LOCK: Mutex<()> = Mutex::new(());

    fn with_jobs<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(n);
        let out = f();
        set_jobs(0);
        out
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..37).collect();
        for n in [1, 4] {
            let out = with_jobs(n, || {
                map(&items, |i, &x| {
                    assert_eq!(i, x);
                    x * 10
                })
            });
            assert_eq!(out, (0..37).map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_traced_is_byte_identical_to_serial() {
        let items: Vec<u32> = (0..9).collect();
        let unit = |i: usize, &x: &u32, rec: &mut BufferRecorder| {
            rec.record(
                Time::ZERO,
                Event::Scenario {
                    name: format!("unit{x}"),
                },
            );
            rec.record(Time::from_nanos(x as u64), Event::EcnMark { flow: x });
            rec.count("units", 1);
            i as u32 + x
        };
        let mut serial = BufferRecorder::new();
        let serial_out = with_jobs(1, || map_traced(&mut serial, &items, unit));
        let mut par = BufferRecorder::new();
        let par_out = with_jobs(4, || map_traced(&mut par, &items, unit));
        assert_eq!(serial_out, par_out);
        assert_eq!(serial.events(), par.events());
        assert_eq!(serial.counts(), par.counts());
    }

    #[test]
    fn try_map_traced_reports_first_error_in_unit_order() {
        let items: Vec<u32> = (0..8).collect();
        let unit = |_: usize, &x: &u32, rec: &mut BufferRecorder| {
            rec.record(Time::ZERO, Event::EcnMark { flow: x });
            // Units 3 and 5 fail; unit order must surface 3.
            if x == 3 || x == 5 {
                Err(x)
            } else {
                Ok(x)
            }
        };
        let mut serial = BufferRecorder::new();
        let serial_err = with_jobs(1, || try_map_traced(&mut serial, &items, unit));
        let mut par = BufferRecorder::new();
        let par_err = with_jobs(4, || try_map_traced(&mut par, &items, unit));
        assert_eq!(serial_err, Err(3));
        assert_eq!(par_err, Err(3));
        // Stream stops after the failing unit, exactly like serial.
        assert_eq!(serial.events(), par.events());
        assert_eq!(par.events().len(), 4);
    }

    #[test]
    fn jobs_defaults_to_available_parallelism() {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(0);
        assert!(jobs() >= 1);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
    }
}
