//! Typed-span emission helper shared by the simulation engines.
//!
//! [`SpanTracker`] turns the phase transitions an engine already records
//! into a well-formed, strictly nested span stream per job:
//!
//! ```text
//! span_begin(iteration i) ⊃ span_begin(compute i) … span_end(compute i)
//!                         ⊃ span_begin(communicate i) … span_end(communicate i)
//! span_end(iteration i)
//! ```
//!
//! The call contract keeps Chrome-trace B/E stacks (which pair begins and
//! ends per thread lane in stream order) correct without any buffering:
//!
//! * call [`SpanTracker::enter`] **before** recording the matching
//!   `PhaseEnter`, and
//! * call [`SpanTracker::exit`] **after** recording the matching
//!   `PhaseExit`,
//!
//! so the phase slice always sits *inside* its span. An iteration span
//! opens at the first phase entered for that iteration index and closes
//! when a phase of a *different* iteration begins (every engine re-enters
//! compute for iteration `i+1` at the very instant iteration `i`'s
//! communication completes, so the close lands on the completion
//! timestamp). Rollover-based closing also keeps pipelined jobs — which
//! exit and re-enter communication several times within one iteration —
//! under a single iteration span. The last iteration of a stream dangles
//! open — parsers accept that, exactly like dangling phase enters.
//!
//! Everything is gated on `R::ENABLED`: with a disabled recorder the
//! tracker holds no per-job state (the constructor allocates nothing) and
//! every call is a no-op the optimizer removes.

use crate::event::{Event, Phase, SpanKind};
use crate::recorder::Recorder;
use simtime::Time;

fn kind_of(phase: Phase) -> SpanKind {
    match phase {
        Phase::Compute => SpanKind::Compute,
        Phase::Communicate => SpanKind::Communicate,
    }
}

/// Open spans for one job: the iteration span and the phase span inside it.
#[derive(Debug, Clone, Copy, Default)]
struct JobSpans {
    iteration: Option<u64>,
    phase: Option<(SpanKind, u64)>,
}

/// Per-job open-span state for span emission. One per engine run.
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    /// Open spans per job; empty when the recorder is disabled.
    open: Vec<JobSpans>,
}

impl SpanTracker {
    /// Creates a tracker for `jobs` jobs. With a disabled recorder the
    /// state vector stays empty (a `Vec::new()` performs no allocation).
    pub fn new<R: Recorder>(jobs: usize) -> SpanTracker {
        SpanTracker {
            open: if R::ENABLED {
                vec![JobSpans::default(); jobs]
            } else {
                Vec::new()
            },
        }
    }

    /// Whether this state can drive recorder `R` for `jobs` jobs: a
    /// disabled recorder never reads it, an enabled one needs one slot per
    /// job, which a tracker built for a disabled recorder lacks.
    pub fn fits<R: Recorder>(&self, jobs: usize) -> bool {
        !R::ENABLED || self.open.len() == jobs
    }

    /// Emits the span begins implied by `job` entering `phase` of
    /// iteration `iteration`. Call **before** recording the `PhaseEnter`.
    pub fn enter<R: Recorder>(
        &mut self,
        rec: &mut R,
        at: Time,
        job: u32,
        phase: Phase,
        iteration: u64,
    ) {
        if !R::ENABLED {
            return;
        }
        let slot = &mut self.open[job as usize];
        // Defensive closes: engines always exit a phase before entering
        // the next one, so these only trigger on departure races — but
        // they guarantee the emitted stream stays LIFO-nested regardless.
        if let Some((kind, it)) = slot.phase.take() {
            rec.record(
                at,
                Event::SpanEnd {
                    job,
                    kind,
                    iteration: it,
                },
            );
        }
        if slot.iteration != Some(iteration) {
            if let Some(prev) = slot.iteration {
                rec.record(
                    at,
                    Event::SpanEnd {
                        job,
                        kind: SpanKind::Iteration,
                        iteration: prev,
                    },
                );
            }
            rec.record(
                at,
                Event::SpanBegin {
                    job,
                    kind: SpanKind::Iteration,
                    iteration,
                },
            );
            slot.iteration = Some(iteration);
        }
        let kind = kind_of(phase);
        rec.record(
            at,
            Event::SpanBegin {
                job,
                kind,
                iteration,
            },
        );
        slot.phase = Some((kind, iteration));
    }

    /// Emits the span end implied by `job` exiting `phase` of iteration
    /// `iteration`. Call **after** recording the `PhaseExit`. The
    /// enclosing iteration span stays open until a phase of the next
    /// iteration begins (see the module docs on rollover closing).
    pub fn exit<R: Recorder>(
        &mut self,
        rec: &mut R,
        at: Time,
        job: u32,
        phase: Phase,
        iteration: u64,
    ) {
        if !R::ENABLED {
            return;
        }
        let kind = kind_of(phase);
        let slot = &mut self.open[job as usize];
        if slot.phase != Some((kind, iteration)) {
            // Exit without a matching open (defensive): emitting an end
            // here would orphan it, so drop the event instead.
            return;
        }
        slot.phase = None;
        rec.record(
            at,
            Event::SpanEnd {
                job,
                kind,
                iteration,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{BufferRecorder, NoopRecorder, Recorder};

    fn drive<R: Recorder>(rec: &mut R) {
        let mut spans = SpanTracker::new::<R>(1);
        let t = Time::from_nanos;
        spans.enter(rec, t(0), 0, Phase::Compute, 0);
        spans.exit(rec, t(10), 0, Phase::Compute, 0);
        spans.enter(rec, t(12), 0, Phase::Communicate, 0);
        spans.exit(rec, t(20), 0, Phase::Communicate, 0);
        spans.enter(rec, t(20), 0, Phase::Compute, 1);
    }

    #[test]
    fn emits_nested_iteration_and_phase_spans() {
        let mut rec = BufferRecorder::new();
        drive(&mut rec);
        let got: Vec<(&str, SpanKind, u64)> = rec
            .events()
            .iter()
            .map(|te| match te.event {
                Event::SpanBegin {
                    kind, iteration, ..
                } => ("begin", kind, iteration),
                Event::SpanEnd {
                    kind, iteration, ..
                } => ("end", kind, iteration),
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("begin", SpanKind::Iteration, 0),
                ("begin", SpanKind::Compute, 0),
                ("end", SpanKind::Compute, 0),
                ("begin", SpanKind::Communicate, 0),
                ("end", SpanKind::Communicate, 0),
                ("end", SpanKind::Iteration, 0),
                ("begin", SpanKind::Iteration, 1),
                ("begin", SpanKind::Compute, 1),
            ]
        );
    }

    #[test]
    fn pipelined_comm_gaps_stay_under_one_iteration_span() {
        let mut rec = BufferRecorder::new();
        let mut spans = SpanTracker::new::<BufferRecorder>(1);
        let t = Time::from_nanos;
        // Two communication segments within iteration 0 (pipelined jobs
        // return to compute between segments), then iteration 1.
        spans.enter(&mut rec, t(0), 0, Phase::Compute, 0);
        spans.exit(&mut rec, t(5), 0, Phase::Compute, 0);
        spans.enter(&mut rec, t(5), 0, Phase::Communicate, 0);
        spans.exit(&mut rec, t(8), 0, Phase::Communicate, 0);
        spans.enter(&mut rec, t(8), 0, Phase::Compute, 0);
        spans.exit(&mut rec, t(10), 0, Phase::Compute, 0);
        spans.enter(&mut rec, t(10), 0, Phase::Communicate, 0);
        spans.exit(&mut rec, t(14), 0, Phase::Communicate, 0);
        spans.enter(&mut rec, t(14), 0, Phase::Compute, 1);
        let iter_spans: Vec<(&str, u64)> = rec
            .events()
            .iter()
            .filter_map(|te| match te.event {
                Event::SpanBegin {
                    kind: SpanKind::Iteration,
                    iteration,
                    ..
                } => Some(("begin", iteration)),
                Event::SpanEnd {
                    kind: SpanKind::Iteration,
                    iteration,
                    ..
                } => Some(("end", iteration)),
                _ => None,
            })
            .collect();
        assert_eq!(
            iter_spans,
            vec![("begin", 0), ("end", 0), ("begin", 1)],
            "one iteration span despite two comm segments"
        );
    }

    #[test]
    fn disabled_recorder_keeps_no_state_and_emits_nothing() {
        let mut rec = NoopRecorder;
        let spans = SpanTracker::new::<NoopRecorder>(16);
        assert!(spans.open.is_empty(), "disabled tracker must hold no state");
        drive(&mut rec);
    }

    #[test]
    fn missing_exits_still_yield_a_lifo_nested_stream() {
        let mut rec = BufferRecorder::new();
        let mut spans = SpanTracker::new::<BufferRecorder>(1);
        let t = Time::from_nanos;
        spans.enter(&mut rec, t(0), 0, Phase::Compute, 0);
        // No exits at all; the next iteration's compute must close the
        // dangling compute and iteration spans of iteration 0 first.
        spans.enter(&mut rec, t(5), 0, Phase::Compute, 1);
        // A stray exit with no matching open is swallowed, not orphaned.
        spans.exit(&mut rec, t(6), 0, Phase::Communicate, 0);
        let got: Vec<(&str, SpanKind, u64)> = rec
            .events()
            .iter()
            .map(|te| match te.event {
                Event::SpanBegin {
                    kind, iteration, ..
                } => ("begin", kind, iteration),
                Event::SpanEnd {
                    kind, iteration, ..
                } => ("end", kind, iteration),
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("begin", SpanKind::Iteration, 0),
                ("begin", SpanKind::Compute, 0),
                ("end", SpanKind::Compute, 0),
                ("end", SpanKind::Iteration, 0),
                ("begin", SpanKind::Iteration, 1),
                ("begin", SpanKind::Compute, 1),
            ]
        );
    }
}
