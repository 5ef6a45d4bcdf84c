//! Asserts the disabled telemetry path is genuinely zero-cost: driving a
//! `NoopRecorder` through hundreds of thousands of instrumentation calls
//! performs **zero heap allocations**, and so does stepping an unobserved
//! rate engine through a contended communication phase or running it
//! across solo and contended stepping windows. A counting global
//! allocator measures, so regressions that sneak a buffer or a clone into
//! the disabled path fail loudly rather than silently taxing every
//! unobserved simulation.
//!
//! This file holds exactly one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

use dcqcn::CcVariant;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use simtime::{Dur, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use telemetry::{BufferRecorder, CcState, Event, NoopRecorder, Recorder};
use workload::{JobSpec, Model};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Drives every `Recorder` entry point hard with allocation-free event
/// payloads (no `Scenario`/`JobPath`, whose construction itself heaps).
fn hammer<R: Recorder>(rec: &mut R, rounds: u64) -> u64 {
    let mut sink = 0u64;
    for i in 0..rounds {
        let at = Time::from_nanos(i);
        rec.record(
            at,
            Event::EcnMark {
                flow: (i % 7) as u32,
            },
        );
        rec.record(
            at,
            Event::QueueDepth {
                link: (i % 3) as u32,
                bytes: i as f64,
            },
        );
        rec.record(
            at,
            Event::RateChange {
                flow: (i % 7) as u32,
                bps: 1e9 + i as f64,
                state: CcState::Cut,
            },
        );
        rec.count("hammer.events", 3);
        rec.span("hammer", Duration::from_nanos(i), 3);
        sink = sink.wrapping_add(i);
    }
    sink
}

/// Minimum allocation count over several runs of `f`.
///
/// The libtest harness keeps service threads alive that allocate at
/// unpredictable moments; a single measurement window can catch one.
/// A path that itself allocates does so in *every* window, so the
/// minimum over a handful of windows isolates the path's own cost.
fn min_allocations_during(mut f: impl FnMut()) -> u64 {
    (0..10)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            f();
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap()
}

#[test]
fn disabled_recorder_paths_are_allocation_free() {
    const ROUNDS: u64 = 100_000;

    // Warm up lazy runtime structures (stdout locks, TLS) outside the
    // measured windows.
    let mut warm = NoopRecorder;
    std::hint::black_box(hammer(&mut warm, 16));

    // 1. The pure no-op recorder: 500k instrumentation calls, 0 allocs.
    let mut noop = NoopRecorder;
    let allocs = min_allocations_during(|| {
        hammer(&mut noop, ROUNDS);
    });
    assert_eq!(allocs, 0, "NoopRecorder allocated {allocs} times");

    // 2. Functional contrast: a buffering recorder does record the same
    // traffic, so the zero above is a property of the disabled path, not
    // of the hammer.
    let mut buffer = BufferRecorder::new();
    hammer(&mut buffer, 100);
    assert_eq!(buffer.len(), 300);

    // 3. The unobserved rate engine inside a contended communication
    // phase (queue building, marks and CNPs firing): a step reuses its
    // working set, so 2k steps allocate nothing.
    let vgg19 = JobSpec::reference(Model::Vgg19, 1200);
    let jobs = [
        RateJob::new(vgg19, CcVariant::Fair),
        RateJob::new(vgg19, CcVariant::Fair),
    ];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    while !sim.progress(0).is_communicating() {
        sim.step();
    }
    let allocs = min_allocations_during(|| {
        for _ in 0..200 {
            sim.step();
        }
    });
    assert!((0..2).all(|i| sim.progress(i).is_communicating()));
    assert_eq!(
        allocs, 0,
        "RateSimulator<NoopRecorder>::step allocated {allocs} times"
    );

    // 4. The unobserved run loop across solo windows: job 0 sends alone
    // while job 1 computes (its start is 100 ms later), so `run_for`
    // windows step job 0 alone. An observed twin run over the same span
    // counts those steps as solo.
    let solo_jobs = [
        RateJob::new(vgg19, CcVariant::Fair),
        RateJob {
            start_offset: Dur::from_millis(100),
            ..RateJob::new(vgg19, CcVariant::Fair)
        },
    ];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &solo_jobs);
    let mut rec = BufferRecorder::new();
    let mut twin = RateSimulator::with_recorder(RateSimConfig::default(), &solo_jobs, &mut rec);
    while !sim.progress(0).is_communicating() {
        sim.step();
        twin.step();
    }
    let window = Dur::from_millis(1);
    let allocs = min_allocations_during(|| sim.run_for(window));
    twin.run_for(window * 10);
    assert_eq!(sim.now(), twin.now());
    assert!(sim.progress(0).is_communicating() && !sim.progress(1).is_communicating());
    drop(twin);
    // 2,000 steps of 5 µs, all solo but the 20 that take a 500 µs
    // telemetry sample.
    assert_eq!(rec.counts()["rate_steps_solo"], 2_000 - 20);
    assert_eq!(
        allocs, 0,
        "RateSimulator<NoopRecorder>::run_for across solo windows allocated {allocs} times"
    );

    // 5. The unobserved run loop across contended windows: both jobs send
    // into a standing queue, so `run_for` windows step them together. An
    // observed twin over the same span counts those steps as contended.
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    let mut rec = BufferRecorder::new();
    let mut twin = RateSimulator::with_recorder(RateSimConfig::default(), &jobs, &mut rec);
    while !sim.progress(0).is_communicating() {
        sim.step();
        twin.step();
    }
    let allocs = min_allocations_during(|| sim.run_for(window));
    twin.run_for(window * 10);
    assert_eq!(sim.now(), twin.now());
    assert!((0..2).all(|i| sim.progress(i).is_communicating()));
    drop(twin);
    // 2,000 steps of 5 µs, all contended but the 20 that take a telemetry
    // sample.
    assert_eq!(rec.counts()["rate_steps_contended"], 2_000 - 20);
    assert_eq!(
        allocs, 0,
        "RateSimulator<NoopRecorder>::run_for across contended windows allocated {allocs} times"
    );
}
