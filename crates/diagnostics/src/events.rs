//! Event-stream plumbing shared by the analyzers: scenario splitting and
//! per-job extraction of phase intervals, iteration times, and rate samples.

use simtime::{Dur, Time};
use std::collections::BTreeMap;
use telemetry::{Event, Phase, SpanKind, TimedEvent};

/// A named slice of the event stream between two `Scenario` markers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSlice<'a> {
    /// The scenario's name, or `"run"` for events before the first marker.
    pub name: String,
    /// The events belonging to this scenario, marker excluded.
    pub events: &'a [TimedEvent],
}

/// Pairs every event with the scenario it belongs to: the latest
/// `Scenario` marker at or before it (a marker opens its own scenario),
/// or `"run"` before the first marker, the attribution of
/// [`split_scenarios`]. Consumers that keep per-scenario state over a
/// whole stream (the flight dump, the `--watch` progress line) walk it
/// with this.
pub fn label_scenarios(events: &[TimedEvent]) -> impl Iterator<Item = (&str, &TimedEvent)> {
    let mut current = "run";
    events.iter().map(move |te| {
        if let Event::Scenario { name } = &te.event {
            current = name;
        }
        (current, te)
    })
}

/// Splits a recorded stream at its `Scenario` markers.
///
/// Events before the first marker (or the whole stream, if no markers
/// exist) form an implicit scenario named `"run"`; that slice is dropped
/// when empty.
pub fn split_scenarios(events: &[TimedEvent]) -> Vec<ScenarioSlice<'_>> {
    let mut out = Vec::new();
    let mut name = "run".to_string();
    let mut start = 0usize;
    for (i, te) in events.iter().enumerate() {
        if let Event::Scenario { name: next } = &te.event {
            if i > start {
                out.push(ScenarioSlice {
                    name: name.clone(),
                    events: &events[start..i],
                });
            }
            name = next.clone();
            start = i + 1;
        }
    }
    if events.len() > start || (out.is_empty() && events.is_empty()) {
        out.push(ScenarioSlice {
            name,
            events: &events[start..],
        });
    }
    out
}

/// A half-open occupancy interval `[enter, exit)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: Time,
    pub end: Time,
}

impl Interval {
    pub fn len(&self) -> Dur {
        self.end.saturating_since(self.start)
    }

    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// One iteration of one job, reconstructed from its span events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationSpan {
    /// The engine's iteration index (warmup iterations included).
    pub index: u64,
    /// Wall-clock extent of the iteration span.
    pub span: Interval,
    /// Compute sub-spans inside the iteration, in time order.
    pub compute: Vec<Interval>,
    /// Communication sub-spans inside the iteration, in time order
    /// (pipelined jobs may have several per iteration).
    pub comm: Vec<Interval>,
    /// False when the iteration span was still open at stream end (its
    /// extent is clipped to the last event's timestamp).
    pub complete: bool,
}

/// Per-job facts extracted from one scenario's events.
#[derive(Debug, Clone, Default)]
pub struct JobTrack {
    /// Communication-phase intervals, in time order. An interval left open
    /// at the end of the stream is closed at the last event's timestamp.
    pub comm: Vec<Interval>,
    /// Iteration spans reconstructed from `SpanBegin`/`SpanEnd` events,
    /// in iteration order. Empty for traces recorded before typed spans.
    pub iterations: Vec<IterationSpan>,
    /// Iteration times: spans between successive communicate-phase exits.
    pub iteration_times: Vec<Dur>,
    /// Links this job's traffic traverses (from `JobPath`), empty if the
    /// engine never announced a path.
    pub links: Vec<u32>,
    /// Rate samples `(at, bps)` from `RateChange` events, in time order.
    pub rates: Vec<(Time, f64)>,
    /// CNPs received, ECN marks seen (event counts).
    pub cnps: u64,
    pub ecn_marks: u64,
    /// Rate-change sample counts per congestion-control state label.
    pub cc_states: BTreeMap<&'static str, u64>,
}

/// Everything the analyzers need from one scenario, indexed by job.
#[derive(Debug, Clone, Default)]
pub struct ScenarioTracks {
    pub jobs: BTreeMap<u32, JobTrack>,
    /// Bottleneck queue-depth samples `(at, bytes)` per link.
    pub queues: BTreeMap<u32, Vec<(Time, f64)>>,
    /// Timestamp of the first and last event (both `Time::ZERO` when the
    /// scenario is empty).
    pub start: Time,
    pub end: Time,
}

impl ScenarioTracks {
    /// The scenario's observed span.
    pub fn span(&self) -> Dur {
        self.end.saturating_since(self.start)
    }
}

/// Builds per-job tracks from one scenario's events (one linear pass).
pub fn extract_tracks(events: &[TimedEvent]) -> ScenarioTracks {
    let mut tracks = ScenarioTracks {
        start: events.first().map(|e| e.at).unwrap_or(Time::ZERO),
        end: events.last().map(|e| e.at).unwrap_or(Time::ZERO),
        ..ScenarioTracks::default()
    };
    // Currently-open communicate interval per job.
    let mut open: BTreeMap<u32, Time> = BTreeMap::new();
    // Currently-open spans per job: (iteration under construction, open
    // phase-span start). Engines emit strictly nested spans, so one open
    // iteration and at most one open phase per job suffice.
    let mut open_iter: BTreeMap<u32, IterationSpan> = BTreeMap::new();
    let mut open_span: BTreeMap<u32, (SpanKind, Time)> = BTreeMap::new();
    for te in events {
        match &te.event {
            Event::PhaseEnter {
                job,
                phase: Phase::Communicate,
                ..
            } => {
                open.entry(*job).or_insert(te.at);
            }
            Event::PhaseExit {
                job,
                phase: Phase::Communicate,
                ..
            } => {
                let track = tracks.jobs.entry(*job).or_default();
                if let Some(start) = open.remove(job) {
                    track.comm.push(Interval { start, end: te.at });
                }
                if let Some(last) = track.comm.len().checked_sub(2) {
                    track
                        .iteration_times
                        .push(te.at.saturating_since(track.comm[last].end));
                }
            }
            Event::JobPath { job, links } => {
                tracks.jobs.entry(*job).or_default().links = links.clone();
            }
            Event::SpanBegin {
                job,
                kind,
                iteration,
            } => match kind {
                SpanKind::Iteration => {
                    open_iter.insert(
                        *job,
                        IterationSpan {
                            index: *iteration,
                            span: Interval {
                                start: te.at,
                                end: te.at,
                            },
                            compute: Vec::new(),
                            comm: Vec::new(),
                            complete: false,
                        },
                    );
                }
                SpanKind::Compute | SpanKind::Communicate => {
                    open_span.insert(*job, (*kind, te.at));
                }
            },
            Event::SpanEnd { job, kind, .. } => match kind {
                SpanKind::Iteration => {
                    if let Some(mut it) = open_iter.remove(job) {
                        it.span.end = te.at;
                        it.complete = true;
                        tracks.jobs.entry(*job).or_default().iterations.push(it);
                    }
                }
                SpanKind::Compute | SpanKind::Communicate => {
                    if let Some((open_kind, start)) = open_span.remove(job) {
                        if open_kind == *kind {
                            if let Some(it) = open_iter.get_mut(job) {
                                let iv = Interval { start, end: te.at };
                                match kind {
                                    SpanKind::Compute => it.compute.push(iv),
                                    _ => it.comm.push(iv),
                                }
                            }
                        }
                    }
                }
            },
            Event::RateChange { flow, bps, state } => {
                let track = tracks.jobs.entry(*flow).or_default();
                track.rates.push((te.at, *bps));
                *track.cc_states.entry(state.label()).or_insert(0) += 1;
            }
            Event::CnpReceived { flow } => {
                tracks.jobs.entry(*flow).or_default().cnps += 1;
            }
            Event::EcnMark { flow } => {
                tracks.jobs.entry(*flow).or_default().ecn_marks += 1;
            }
            Event::QueueDepth { link, bytes } => {
                tracks
                    .queues
                    .entry(*link)
                    .or_default()
                    .push((te.at, *bytes));
            }
            _ => {}
        }
    }
    // Close intervals left dangling at stream end.
    let end = tracks.end;
    for (job, start) in open {
        let interval = Interval { start, end };
        if !interval.is_empty() {
            tracks.jobs.entry(job).or_default().comm.push(interval);
        }
    }
    // Clip dangling spans (the last iteration of a stream legitimately
    // never closes) to the stream end, marked incomplete.
    for (job, (kind, start)) in open_span {
        if let Some(it) = open_iter.get_mut(&job) {
            let iv = Interval { start, end };
            if !iv.is_empty() {
                match kind {
                    SpanKind::Compute => it.compute.push(iv),
                    SpanKind::Communicate => it.comm.push(iv),
                    SpanKind::Iteration => {}
                }
            }
        }
    }
    for (job, mut it) in open_iter {
        it.span.end = end;
        if !it.span.is_empty() {
            tracks.jobs.entry(job).or_default().iterations.push(it);
        }
    }
    for track in tracks.jobs.values_mut() {
        track.comm.sort_by_key(|iv| iv.start);
        track.iterations.sort_by_key(|it| it.index);
    }
    tracks
}

/// Median of a duration sample, `Dur::ZERO` when empty.
pub fn median_dur(samples: &[Dur]) -> Dur {
    if samples.is_empty() {
        return Dur::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(at: u64, job: u32, it: u64) -> TimedEvent {
        TimedEvent {
            at: Time::from_nanos(at),
            event: Event::PhaseEnter {
                job,
                phase: Phase::Communicate,
                iteration: it,
            },
        }
    }

    fn exit(at: u64, job: u32, it: u64) -> TimedEvent {
        TimedEvent {
            at: Time::from_nanos(at),
            event: Event::PhaseExit {
                job,
                phase: Phase::Communicate,
                iteration: it,
            },
        }
    }

    fn scenario(name: &str) -> TimedEvent {
        TimedEvent {
            at: Time::ZERO,
            event: Event::Scenario { name: name.into() },
        }
    }

    #[test]
    fn scenarios_split_at_markers() {
        let ev = vec![
            scenario("a"),
            enter(10, 0, 0),
            exit(20, 0, 0),
            scenario("b"),
            enter(30, 0, 0),
        ];
        let slices = split_scenarios(&ev);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].name, "a");
        assert_eq!(slices[0].events.len(), 2);
        assert_eq!(slices[1].name, "b");
        assert_eq!(slices[1].events.len(), 1);
    }

    #[test]
    fn unmarked_stream_is_one_run_scenario() {
        let ev = vec![enter(10, 0, 0), exit(20, 0, 0)];
        let slices = split_scenarios(&ev);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].name, "run");
        assert_eq!(slices[0].events.len(), 2);
    }

    #[test]
    fn tracks_pair_comm_intervals_and_iterations() {
        let ev = vec![
            enter(0, 0, 0),
            exit(100, 0, 0),
            enter(250, 0, 1),
            exit(300, 0, 1),
            enter(450, 0, 2),
            exit(500, 0, 2),
        ];
        let tracks = extract_tracks(&ev);
        let t = &tracks.jobs[&0];
        assert_eq!(t.comm.len(), 3);
        assert_eq!(t.comm[1].len(), Dur::from_nanos(50));
        // Iteration = exit-to-exit: 300−100 and 500−300.
        assert_eq!(
            t.iteration_times,
            vec![Dur::from_nanos(200), Dur::from_nanos(200)]
        );
    }

    #[test]
    fn dangling_interval_closes_at_stream_end() {
        let ev = vec![
            enter(0, 0, 0),
            exit(10, 0, 0),
            enter(20, 0, 1),
            exit(30, 1, 0),
        ];
        let tracks = extract_tracks(&ev);
        assert_eq!(
            tracks.jobs[&0].comm,
            vec![
                Interval {
                    start: Time::ZERO,
                    end: Time::from_nanos(10)
                },
                Interval {
                    start: Time::from_nanos(20),
                    end: Time::from_nanos(30)
                },
            ]
        );
    }

    fn span(at: u64, job: u32, kind: SpanKind, it: u64, begin: bool) -> TimedEvent {
        TimedEvent {
            at: Time::from_nanos(at),
            event: if begin {
                Event::SpanBegin {
                    job,
                    kind,
                    iteration: it,
                }
            } else {
                Event::SpanEnd {
                    job,
                    kind,
                    iteration: it,
                }
            },
        }
    }

    #[test]
    fn iteration_spans_reconstruct_from_span_events() {
        let k = SpanKind::Iteration;
        let c = SpanKind::Compute;
        let m = SpanKind::Communicate;
        let ev = vec![
            span(0, 0, k, 0, true),
            span(0, 0, c, 0, true),
            span(60, 0, c, 0, false),
            span(60, 0, m, 0, true),
            span(100, 0, m, 0, false),
            span(100, 0, k, 0, false),
            span(100, 0, k, 1, true),
            span(100, 0, c, 1, true),
            // Iteration 1 dangles open at stream end (t = 150).
            TimedEvent {
                at: Time::from_nanos(150),
                event: Event::QueueDepth {
                    link: 0,
                    bytes: 0.0,
                },
            },
        ];
        let tracks = extract_tracks(&ev);
        let its = &tracks.jobs[&0].iterations;
        assert_eq!(its.len(), 2);
        assert_eq!(its[0].index, 0);
        assert!(its[0].complete);
        assert_eq!(its[0].span.len(), Dur::from_nanos(100));
        assert_eq!(its[0].compute, vec![iv_at(0, 60)]);
        assert_eq!(its[0].comm, vec![iv_at(60, 100)]);
        assert_eq!(its[1].index, 1);
        assert!(!its[1].complete, "dangling iteration stays incomplete");
        assert_eq!(its[1].span, iv_at(100, 150));
        assert_eq!(its[1].compute, vec![iv_at(100, 150)]);
    }

    fn iv_at(start: u64, end: u64) -> Interval {
        Interval {
            start: Time::from_nanos(start),
            end: Time::from_nanos(end),
        }
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        let d = Dur::from_nanos;
        assert_eq!(median_dur(&[d(3), d(1), d(2)]), d(2));
        assert_eq!(median_dur(&[d(4), d(1), d(3), d(2)]), d(3));
        assert_eq!(median_dur(&[]), Dur::ZERO);
    }
}
