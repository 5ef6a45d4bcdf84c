//! Flight recorder: a bounded ring of recent events.
//!
//! A [`FlightRing`] retains the last N events *per category* (event
//! kind) with deterministic oldest-first eviction, so a rare
//! `link_capacity` change survives next to thousands of `rate_change`
//! samples. [`FlightRing::snapshot`] returns what it kept in push order:
//! the black-box recording around whatever just happened. SLO verdicts
//! walk one per scenario and snapshot it at each alert's instant for
//! its context, and the CLI's `--flight` dump builds one per scenario
//! over the recorded stream and takes
//! [`FlightRing::replayable_snapshot`], which `report` can read.

use crate::event::{Event, SpanKind, TimedEvent};
use std::collections::{BTreeMap, VecDeque};

/// Bounded per-category ring of recent events with deterministic
/// oldest-first eviction.
///
/// Each event kind gets its own lane of `per_category` slots; a global
/// arrival counter orders the merged [`FlightRing::snapshot`] exactly by
/// push order, independent of which lanes evicted.
#[derive(Debug, Clone)]
pub struct FlightRing {
    per_category: usize,
    rings: BTreeMap<&'static str, VecDeque<(u64, TimedEvent)>>,
    pushed: u64,
}

impl FlightRing {
    pub fn new(per_category: usize) -> FlightRing {
        FlightRing {
            per_category: per_category.max(1),
            rings: BTreeMap::new(),
            pushed: 0,
        }
    }

    /// Appends an event, evicting the oldest event of the same category
    /// once its lane is full.
    pub fn push(&mut self, te: TimedEvent) {
        let lane = self.rings.entry(te.event.kind()).or_default();
        if lane.len() == self.per_category {
            lane.pop_front();
        }
        lane.push_back((self.pushed, te));
        self.pushed += 1;
    }

    /// Total events ever pushed (including evicted ones).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events currently retained across all categories.
    pub fn len(&self) -> usize {
        self.rings.values().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.rings.values().all(VecDeque::is_empty)
    }

    /// The retained events, merged back into push order.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        let mut tagged: Vec<(u64, &TimedEvent)> = self
            .rings
            .values()
            .flat_map(|lane| lane.iter().map(|(n, te)| (*n, te)))
            .collect();
        tagged.sort_by_key(|(n, _)| *n);
        tagged.into_iter().map(|(_, te)| te.clone()).collect()
    }

    /// [`snapshot`](Self::snapshot) cut to whole spans, so that it
    /// replays. The `span_begin` and `span_end` lanes evict on their own,
    /// which leaves ends whose begins are gone and begins whose ends are
    /// gone. This walks per-job stacks as the replay validator does: an
    /// end closes its begin, and drops any span still open above it (its
    /// end was evicted); a begin first drops every span that cannot still
    /// be open (all of them before an iteration, all but its own
    /// iteration before a phase), and goes itself if its iteration is not
    /// open. A dropped iteration takes its phases with it. Spans still
    /// open at a `Scenario` marker or at the end stay, as the replay
    /// accepts them there.
    pub fn replayable_snapshot(&self) -> Vec<TimedEvent> {
        struct Open {
            kind: SpanKind,
            iteration: u64,
            /// The begin's index, then both ends of each closed phase.
            events: Vec<usize>,
        }
        let events = self.snapshot();
        let mut gone = Vec::new();
        let mut stacks: BTreeMap<u32, Vec<Open>> = BTreeMap::new();
        for (i, te) in events.iter().enumerate() {
            match te.event {
                Event::Scenario { .. } => stacks.clear(),
                Event::SpanBegin {
                    job,
                    kind,
                    iteration,
                } => {
                    let stack = stacks.entry(job).or_default();
                    let parent =
                        |o: &Open| o.kind == SpanKind::Iteration && o.iteration == iteration;
                    while let Some(top) =
                        stack.pop_if(|o| kind == SpanKind::Iteration || !parent(o))
                    {
                        gone.extend(top.events);
                    }
                    if kind == SpanKind::Iteration || !stack.is_empty() {
                        stack.push(Open {
                            kind,
                            iteration,
                            events: vec![i],
                        });
                    } else {
                        gone.push(i);
                    }
                }
                Event::SpanEnd {
                    job,
                    kind,
                    iteration,
                } => {
                    let stack = stacks.entry(job).or_default();
                    let Some(at) = stack
                        .iter()
                        .rposition(|o| o.kind == kind && o.iteration == iteration)
                    else {
                        gone.push(i);
                        continue;
                    };
                    for stale in stack.drain(at + 1..) {
                        gone.extend(stale.events);
                    }
                    let mut done = stack.pop().expect("rposition found it");
                    if let Some(parent) = stack.last_mut() {
                        parent.events.append(&mut done.events);
                        parent.events.push(i);
                    }
                }
                _ => {}
            }
        }
        let mut keep = vec![true; events.len()];
        for i in gone {
            keep[i] = false;
        }
        events
            .into_iter()
            .zip(keep)
            .filter_map(|(te, k)| k.then_some(te))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use simtime::Time;

    fn ev(flow: u32) -> Event {
        Event::EcnMark { flow }
    }

    #[test]
    fn ring_evicts_per_category_deterministically() {
        let mut ring = FlightRing::new(3);
        for i in 0..10u32 {
            ring.push(TimedEvent {
                at: Time::from_nanos(u64::from(i)),
                event: ev(i),
            });
        }
        ring.push(TimedEvent {
            at: Time::from_nanos(100),
            event: Event::LinkCapacity {
                link: 0,
                fraction: 0.5,
            },
        });
        // The ecn lane kept only the newest 3, but the rare link event
        // survives in its own lane.
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pushed(), 11);
        let snap = ring.snapshot();
        let flows: Vec<u32> = snap.iter().filter_map(|te| te.event.flow()).collect();
        assert_eq!(flows, vec![7, 8, 9]);
        assert_eq!(snap.last().unwrap().event.kind(), "link_capacity");
        // Snapshot is in push order and stable across calls.
        assert_eq!(ring.snapshot(), ring.snapshot());
    }

    /// Three jobs' span streams interleaved pseudo-randomly after a
    /// scenario marker, each job's last iteration left open mid-phase.
    fn span_stream() -> Vec<TimedEvent> {
        let mut per_job: Vec<Vec<Event>> = (0..3u32)
            .map(|job| {
                let mut evs = Vec::new();
                for iteration in 0..12u64 {
                    let begin = |kind| Event::SpanBegin {
                        job,
                        kind,
                        iteration,
                    };
                    let end = |kind| Event::SpanEnd {
                        job,
                        kind,
                        iteration,
                    };
                    evs.push(begin(SpanKind::Iteration));
                    evs.push(begin(SpanKind::Compute));
                    evs.push(end(SpanKind::Compute));
                    evs.push(begin(SpanKind::Communicate));
                    evs.push(ev(job));
                    evs.push(end(SpanKind::Communicate));
                    evs.push(end(SpanKind::Iteration));
                }
                evs.truncate(evs.len() - 3 - job as usize);
                evs.reverse();
                evs
            })
            .collect();
        let mut out = vec![TimedEvent {
            at: Time::ZERO,
            event: Event::Scenario { name: "s".into() },
        }];
        let mut x = 7u64;
        while per_job.iter().any(|j| !j.is_empty()) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let job = (x >> 33) as usize % 3;
            if let Some(event) = per_job[job].pop() {
                let at = Time::from_nanos(out.len() as u64);
                out.push(TimedEvent { at, event });
            }
        }
        out
    }

    #[test]
    fn replayable_snapshot_keeps_whole_spans() {
        let stream = span_stream();
        let replays = |evs: &[TimedEvent]| crate::parse_jsonl(&crate::export::jsonl(evs)).is_ok();
        assert!(replays(&stream));
        let mut plain_failed = 0;
        for per_category in 1..=40 {
            let mut ring = FlightRing::new(per_category);
            for te in &stream {
                ring.push(te.clone());
            }
            let (all, cut) = (ring.snapshot(), ring.replayable_snapshot());
            plain_failed += usize::from(!replays(&all));
            assert!(replays(&cut), "{per_category} per category");
            // Only span events go, and every kept one is from the ring.
            let others = |evs: &[TimedEvent]| {
                evs.iter()
                    .filter(|te| !te.event.kind().starts_with("span_"))
                    .count()
            };
            assert_eq!(others(&all), others(&cut));
            let spans = cut.len() - others(&cut);
            assert!(
                per_category < 3 || spans > 0,
                "{per_category}: no span kept"
            );
            assert!(cut.iter().all(|te| all.contains(te)));
        }
        assert!(plain_failed > 30, "{plain_failed}");
        // A ring that evicted nothing is already whole.
        let mut ring = FlightRing::new(stream.len());
        for te in &stream {
            ring.push(te.clone());
        }
        assert_eq!(ring.replayable_snapshot(), stream);
    }
}
