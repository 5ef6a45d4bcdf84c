//! Fault injection on the single bottleneck of the two DCQCN engines
//! ([`crate::rate`] and [`crate::packet`]): a time-varying capacity
//! multiplier, and the loss of ECN marks and CNPs.

use dcqcn::SignalLoss;
use eventsim::Rng;
use simtime::Time;
use telemetry::{Event, Recorder};
use topology::LinkSchedule;

/// The bottleneck's fault state. Without a schedule or loss it never
/// records and never draws, so quiet runs stay bit-identical.
#[derive(Clone)]
pub(crate) struct BottleneckFaults {
    /// Time-varying multiplier on the link capacity.
    schedule: Option<LinkSchedule>,
    /// Mark- and CNP-loss probabilities.
    loss: Option<SignalLoss>,
    /// Dedicated chaos RNG, seeded from `loss`: drawn only for a positive
    /// loss probability, so the engines' own streams are untouched.
    rng: Rng,
    /// Last capacity multiplier observed (for change telemetry).
    last_mult: f64,
}

impl BottleneckFaults {
    pub(crate) fn new(
        schedule: Option<LinkSchedule>,
        loss: Option<SignalLoss>,
    ) -> BottleneckFaults {
        BottleneckFaults {
            schedule,
            loss,
            rng: Rng::new(loss.map_or(0, |l| l.seed)),
            last_mult: 1.0,
        }
    }

    /// The capacity at `now`: `base_bps` times the schedule's multiplier,
    /// and exactly `base_bps` at 1. Records `LinkCapacity` on link 0 when
    /// the multiplier differs from the last one observed.
    pub(crate) fn capacity_bps<R: Recorder>(
        &mut self,
        rec: &mut R,
        now: Time,
        base_bps: f64,
    ) -> f64 {
        let Some(schedule) = &self.schedule else {
            return base_bps;
        };
        let mult = schedule.multiplier_at(now);
        if mult != self.last_mult {
            self.last_mult = mult;
            if R::ENABLED {
                rec.record(
                    now,
                    Event::LinkCapacity {
                        link: 0,
                        fraction: mult,
                    },
                );
            }
        }
        if mult == 1.0 {
            base_bps
        } else {
            base_bps * mult
        }
    }

    /// The capacity under the last multiplier observed: what
    /// [`capacity_bps`](Self::capacity_bps) returns until
    /// [`next_change`](Self::next_change).
    pub(crate) fn held_capacity_bps(&self, base_bps: f64) -> f64 {
        if self.schedule.is_some() && self.last_mult != 1.0 {
            base_bps * self.last_mult
        } else {
            base_bps
        }
    }

    /// The first instant at or after `now` whose multiplier differs from
    /// the last one observed: `now` itself when the schedule already moved,
    /// `None` when it never changes again.
    pub(crate) fn next_change(&self, now: Time) -> Option<Time> {
        let schedule = self.schedule.as_ref()?;
        if schedule.multiplier_at(now) != self.last_mult {
            return Some(now);
        }
        schedule.next_change_after(now)
    }

    /// Rolls whether an ECN mark is stripped before it reaches the NP.
    pub(crate) fn mark_lost(&mut self) -> bool {
        match self.loss {
            Some(l) if l.mark_loss > 0.0 => self.rng.bernoulli(l.mark_loss),
            _ => false,
        }
    }

    /// Rolls whether a CNP is dropped on its way back to the RP.
    pub(crate) fn cnp_lost(&mut self) -> bool {
        match self.loss {
            Some(l) if l.cnp_loss > 0.0 => self.rng.bernoulli(l.cnp_loss),
            _ => false,
        }
    }

    /// Takes `schedule` from now on, and `loss` with its chaos RNG seeded
    /// as construction would seed it, unless `loss` is the loss in force,
    /// whose stream then runs on.
    pub(crate) fn adopt(&mut self, schedule: Option<LinkSchedule>, loss: Option<SignalLoss>) {
        self.schedule = schedule;
        if loss != self.loss {
            self.loss = loss;
            self.rng = Rng::new(loss.map_or(0, |l| l.seed));
        }
    }
}
