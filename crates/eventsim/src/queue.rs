//! Time-ordered event queue with deterministic tie-breaking.
//!
//! A binary heap keyed by `(at, seq)`: the timestamp first, then a
//! per-queue sequence number that makes same-instant events pop in
//! scheduling order. The engines keep few events pending (the packet
//! engine at most a handful, the fluid engine a few hundred), so the
//! heap's O(log n) is a few comparisons and no bucket bookkeeping.

use simtime::{Dur, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Error returned by [`EventQueue::try_schedule_at`] when the requested
/// timestamp is earlier than the queue's clock.
///
/// Scheduling into the past would silently misorder the event stream (the
/// queue's contract is non-decreasing pop times), so it is rejected up
/// front. [`EventQueue::schedule_at`] keeps the historical panicking
/// behaviour for call sites where a past timestamp is a logic bug; callers
/// that derive timestamps from external input (snapshots, replayed traces,
/// cross-shard merges) should prefer the fallible form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleError {
    /// The rejected timestamp.
    pub at: Time,
    /// The queue clock at the time of the attempt.
    pub now: Time,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EventQueue: scheduling into the past ({:?} < now {:?})",
            self.at, self.now
        )
    }
}

impl std::error::Error for ScheduleError {}

/// An event popped from an [`EventQueue`]: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub at: Time,
    /// The caller-defined payload.
    pub event: E,
}

#[derive(Clone)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

// Order for a *max*-heap: inverted so the earliest time pops first, and
// among equal times the lowest sequence number (scheduled first) pops
// first.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

/// A priority queue of future events, keyed by simulation time.
///
/// Two guarantees make simulations reproducible:
///
/// 1. events pop in non-decreasing time order;
/// 2. events scheduled for the *same* instant pop in the order they were
///    scheduled (FIFO tie-break), independent of payload type or queue
///    internals.
///
/// The queue also tracks the current simulation clock: [`EventQueue::now`]
/// advances to each popped event's timestamp, and scheduling in the past
/// panics (an event sourced from stale state is a logic bug, not a
/// recoverable condition).
///
/// Cloning (for `E: Clone`) captures the complete queue state — clock,
/// pending events, *and* the internal sequence counter — so a clone pops
/// the exact same event order as the original, including same-instant
/// FIFO ties and ties against events scheduled after the clone. This is
/// what engine snapshots lean on.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Time,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            next_seq: 0,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock. Use
    /// [`EventQueue::try_schedule_at`] to get a typed error instead.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        if let Err(e) = self.try_schedule_at(at, event) {
            panic!("{e}");
        }
    }

    /// Schedules `event` to fire at absolute time `at`, rejecting past
    /// timestamps with a typed [`ScheduleError`] instead of panicking.
    /// On error the queue is unchanged (the event is not enqueued and the
    /// sequence counter does not advance).
    pub fn try_schedule_at(&mut self, at: Time, event: E) -> Result<(), ScheduleError> {
        if at < self.now {
            return Err(ScheduleError { at, now: self.now });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        Ok(())
    }

    /// Schedules `event` to fire `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: Dur, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "heap returned an out-of-order event");
        self.now = entry.at;
        Some(ScheduledEvent {
            at: entry.at,
            event: entry.event,
        })
    }

    /// Pops the next event only if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: Time) -> Option<ScheduledEvent<E>> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Drops all pending events, keeping the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_nanos(30), "c");
        q.schedule_at(Time::from_nanos(10), "a");
        q.schedule_at(Time::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(Dur::from_micros(125), ());
        assert_eq!(q.now(), Time::ZERO);
        let e = q.pop().unwrap();
        assert_eq!(e.at, Time::from_nanos(125_000));
        assert_eq!(q.now(), e.at);
        // schedule_in is now relative to the advanced clock.
        q.schedule_in(Dur::from_micros(125), ());
        assert_eq!(q.peek_time(), Some(Time::from_nanos(250_000)));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_nanos(100), ());
        q.pop();
        q.schedule_at(Time::from_nanos(50), ());
    }

    /// Regression: a past timestamp surfaces as a typed error (not a panic,
    /// not a silently misordered event) and leaves the queue untouched.
    #[test]
    fn try_schedule_into_past_returns_typed_error() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_nanos(100), 0u32);
        q.pop();
        let expected = ScheduleError {
            at: Time::from_nanos(50),
            now: Time::from_nanos(100),
        };
        assert_eq!(q.try_schedule_at(Time::from_nanos(50), 1), Err(expected));
        // The failed attempt enqueued nothing and did not burn a sequence
        // number: a subsequent valid schedule still pops first among ties.
        assert!(q.is_empty());
        q.try_schedule_at(Time::from_nanos(200), 2).unwrap();
        q.schedule_at(Time::from_nanos(200), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![2, 3]);
        assert!(expected.to_string().contains("scheduling into the past"));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_nanos(10), 1);
        q.schedule_at(Time::from_nanos(20), 2);
        assert_eq!(q.pop_until(Time::from_nanos(15)).map(|e| e.event), Some(1));
        assert_eq!(q.pop_until(Time::from_nanos(15)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(Time::from_nanos(20)).map(|e| e.event), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_nanos(10), ());
        q.pop();
        q.schedule_at(Time::from_nanos(99), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::from_nanos(10));
    }

    /// Events far in the future (200 s ahead) pop in order, including
    /// mixes of near and far timestamps and ties among the far ones.
    #[test]
    fn far_future_events_preserve_order() {
        let mut q = EventQueue::new();
        let far = 200_000_000_000;
        q.schedule_at(Time::from_nanos(far), "far");
        q.schedule_at(Time::from_nanos(10), "near");
        q.schedule_at(Time::from_nanos(far + 1), "far+1");
        q.schedule_at(Time::from_nanos(far), "far-tie");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["near", "far", "far-tie", "far+1"]);
        assert_eq!(q.now(), Time::from_nanos(far + 1));
    }

    /// Clock leaps of tens of seconds between consecutive pops lose or
    /// reorder nothing.
    #[test]
    fn clock_leaps_preserve_order() {
        let mut q = EventQueue::new();
        let far = 100_000_000_000u64;
        q.schedule_at(Time::from_nanos(5), 0u64);
        q.schedule_at(Time::from_nanos(60_000_000_000), 1);
        q.schedule_at(Time::from_nanos(far), 2);
        q.schedule_at(Time::from_nanos(far + 70_000_000_000), 3);
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.at.as_nanos(), e.event));
        }
        assert_eq!(
            got,
            vec![
                (5, 0),
                (60_000_000_000, 1),
                (far, 2),
                (far + 70_000_000_000, 3)
            ]
        );
    }

    /// A mid-stream clone is indistinguishable from the original: same
    /// clock, same pending events, and — because the sequence counter is
    /// cloned too — same FIFO tie order even against events scheduled
    /// *after* the clone.
    #[test]
    fn clone_preserves_pop_order_and_ties() {
        let mut q = EventQueue::new();
        for i in 0..20 {
            q.schedule_at(Time::from_nanos(100 + (i % 3)), i);
        }
        for _ in 0..7 {
            q.pop();
        }
        let mut clone = q.clone();
        assert_eq!(clone.now(), q.now());
        assert_eq!(clone.len(), q.len());
        // Both sides schedule the same tie-heavy tail.
        for i in 100..105 {
            q.schedule_at(Time::from_nanos(102), i);
            clone.schedule_at(Time::from_nanos(102), i);
        }
        loop {
            let a = q.pop();
            let b = clone.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Interleaved schedules at the current instant (from an event handler)
    /// pop after the rest of the current group, preserving FIFO.
    #[test]
    fn same_instant_schedule_during_drain() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(40);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        assert_eq!(q.pop().map(|e| e.event), Some(0));
        // Handler schedules two more for the same instant mid-group.
        q.schedule_at(t, 2);
        q.schedule_at(t, 3);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(rest, vec![1, 2, 3]);
        assert_eq!(q.now(), t);
    }

    /// The contract as a model: a `Vec` of `(at, payload)` kept stably
    /// sorted by time, so same-instant entries stay in scheduling order.
    #[derive(Default)]
    struct Model {
        pending: Vec<(Time, u64)>,
        now: Time,
    }

    impl Model {
        fn schedule_at(&mut self, at: Time, payload: u64) {
            let i = self.pending.partition_point(|&(t, _)| t <= at);
            self.pending.insert(i, (at, payload));
        }

        fn peek_time(&self) -> Option<Time> {
            self.pending.first().map(|&(t, _)| t)
        }

        fn pop(&mut self) -> Option<ScheduledEvent<u64>> {
            if self.pending.is_empty() {
                return None;
            }
            let (at, event) = self.pending.remove(0);
            self.now = at;
            Some(ScheduledEvent { at, event })
        }
    }

    // Drive the queue and the model with an identical interleaving of
    // schedules and pops; every observable (pop order, timestamps, clock,
    // peek, length) must match exactly — including same-instant FIFO ties,
    // which the generator makes likely by quantizing delays.
    proptest! {
        #[test]
        fn queue_matches_model_on_arbitrary_interleavings(
            ops in proptest::collection::vec((0u64..100, 0u64..50), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut payload = 0u64;
            for &(kind, delay) in &ops {
                if kind < 70 {
                    // Quantized delays force plenty of exact ties; the
                    // occasional huge delay is a clock leap of over 70 s.
                    let ns = match kind % 7 {
                        0 => 0,
                        1..=4 => delay * 64,
                        5 => delay * 4096,
                        _ => 70_000_000_000 + delay,
                    };
                    let at = Time::from_nanos(q.now().as_nanos() + ns);
                    q.schedule_at(at, payload);
                    model.schedule_at(at, payload);
                    payload += 1;
                } else {
                    prop_assert_eq!(q.peek_time(), model.peek_time());
                    let a = q.pop();
                    let b = model.pop();
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(q.now(), model.now);
                }
                prop_assert_eq!(q.len(), model.pending.len());
            }
            // Drain both completely; order must stay identical.
            loop {
                let a = q.pop();
                let b = model.pop();
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }

        #[test]
        fn never_pops_out_of_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule_at(Time::from_nanos(t), t);
            }
            let mut last = 0;
            while let Some(e) = q.pop() {
                prop_assert!(e.at.as_nanos() >= last);
                prop_assert_eq!(e.at.as_nanos(), e.event);
                last = e.at.as_nanos();
            }
        }

        #[test]
        fn stable_among_equal_times(n in 1usize..100) {
            let mut q = EventQueue::new();
            // Interleave two timestamps; within each, order must be FIFO.
            for i in 0..n {
                q.schedule_at(Time::from_nanos((i % 2) as u64), i);
            }
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            let evens: Vec<usize> = popped.iter().copied().filter(|i| i % 2 == 0).collect();
            let odds: Vec<usize> = popped.iter().copied().filter(|i| i % 2 == 1).collect();
            prop_assert!(evens.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(odds.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
