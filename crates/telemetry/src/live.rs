//! Flight recorder: a bounded ring of recent events.
//!
//! A [`FlightRing`] retains the last N events *per category* (event
//! kind) with deterministic oldest-first eviction, so a rare
//! `link_capacity` change survives next to thousands of `rate_change`
//! samples. [`FlightRing::snapshot`] returns what it kept in push order:
//! the black-box recording around whatever just happened. The SLO
//! watchdog keeps one per scenario for alert context, and the CLI's
//! `--flight` dump builds one per scenario over the recorded stream.

use crate::event::TimedEvent;
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
}
