//! The job lifecycle all three engines share: compute → communicate →
//! compute, until the job completes its iterations or departs.
//!
//! An engine embeds one [`Job`] per job and calls into it at the two
//! phase changes and at every compute-side instant; the lifecycle owns the
//! iteration bookkeeping, the churn state, and the phase/span telemetry
//! those changes emit. What a phase change *does* to the transport —
//! restarting a controller, resetting a notification point, activating
//! flows, arming a poll — stays in the engine, after the lifecycle call.

use simtime::Time;
use telemetry::{Event, Phase, Recorder, SpanTracker};
use workload::JobProgress;

/// One job's lifecycle state.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Iteration bookkeeping: the current phase and completed iterations.
    pub(crate) progress: JobProgress,
    /// Churn: when the job permanently leaves the cluster (taking effect
    /// at its first compute-phase instant at or after this time).
    pub(crate) depart_at: Option<Time>,
    /// Whether the job has left; a departed job arms no further events.
    pub(crate) departed: bool,
}

/// Records job `job`'s start-of-run telemetry at its start `at`: the links
/// its flows cross, then entry into the compute phase of iteration 0.
pub(crate) fn record_start<R: Recorder>(
    rec: &mut R,
    spans: &mut SpanTracker,
    at: Time,
    job: usize,
    links: &[u32],
) {
    if !R::ENABLED {
        return;
    }
    let job = job as u32;
    let links = links.to_vec();
    rec.record(at, Event::JobPath { job, links });
    spans.enter(rec, at, job, Phase::Compute, 0);
    rec.record(
        at,
        Event::PhaseEnter {
            job,
            phase: Phase::Compute,
            iteration: 0,
        },
    );
}

/// Records `job` leaving `from` and entering `to` at `at`: the phase exit,
/// the span close and open, and the phase enter.
fn record_phase_change<R: Recorder>(
    rec: &mut R,
    spans: &mut SpanTracker,
    at: Time,
    job: usize,
    (from, exited): (Phase, u64),
    (to, entered): (Phase, u64),
) {
    if !R::ENABLED {
        return;
    }
    let job = job as u32;
    rec.record(
        at,
        Event::PhaseExit {
            job,
            phase: from,
            iteration: exited,
        },
    );
    spans.exit(rec, at, job, from, exited);
    spans.enter(rec, at, job, to, entered);
    rec.record(
        at,
        Event::PhaseEnter {
            job,
            phase: to,
            iteration: entered,
        },
    );
}

impl Job {
    /// A job at the start of its first compute phase.
    pub(crate) fn new(progress: JobProgress, depart_at: Option<Time>) -> Job {
        Job {
            progress,
            depart_at,
            departed: false,
        }
    }

    /// Whether the job no longer gates a run to `n` iterations: it has
    /// completed them, or it departed and never will.
    pub(crate) fn done(&self, n: usize) -> bool {
        self.departed || self.progress.completed() >= n
    }

    /// The departure check at a compute-side instant `now`: a due
    /// departure takes effect only while the job computes (an in-flight
    /// communication phase always finishes), recording `JobDepart`.
    /// Returns whether the job has departed.
    pub(crate) fn departs<R: Recorder>(&mut self, rec: &mut R, now: Time, job: usize) -> bool {
        if !self.departed
            && self
                .depart_at
                .is_some_and(|d| now >= d && !self.progress.is_communicating())
        {
            self.departed = true;
            if R::ENABLED {
                rec.record(now, Event::JobDepart { job: job as u32 });
            }
        }
        self.departed
    }

    /// Polls the compute deadline at `now`. When it has passed, the job
    /// enters its communication phase and the change is recorded; returns
    /// whether that happened.
    pub(crate) fn poll<R: Recorder>(
        &mut self,
        rec: &mut R,
        spans: &mut SpanTracker,
        now: Time,
        job: usize,
    ) -> bool {
        if !self.progress.poll(now) {
            return false;
        }
        let iteration = self.progress.completed() as u64;
        record_phase_change(
            rec,
            spans,
            now,
            job,
            (Phase::Compute, iteration),
            (Phase::Communicate, iteration),
        );
        true
    }

    /// Records the return to computing at `at` after a delivery ended the
    /// communication phase — the whole iteration when `finished`, else
    /// one segment of a pipelined phase.
    pub(crate) fn record_compute<R: Recorder>(
        &self,
        rec: &mut R,
        spans: &mut SpanTracker,
        at: Time,
        job: usize,
        finished: bool,
    ) {
        let done = self.progress.completed() as u64;
        let exited = if finished {
            done.saturating_sub(1)
        } else {
            done
        };
        record_phase_change(
            rec,
            spans,
            at,
            job,
            (Phase::Communicate, exited),
            (Phase::Compute, done),
        );
    }
}
