//! Tracing for the per-layer run: the bench's own spans around each call
//! it makes into a layer, and a recorder that totals what the engines
//! report through their existing telemetry hooks.

use simtime::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use telemetry::{Event, ForkableRecorder, Recorder};

/// A [`Recorder`] for traced passes: counts events by kind and sums the
/// engines' `count` and `span` hooks. Unlike `BufferRecorder` it buffers
/// no events, so a traced pass keeps the untraced pass's memory profile
/// apart from the engines' own instrumentation work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRecorder {
    /// Events recorded, by [`Event::kind`].
    pub events: BTreeMap<&'static str, u64>,
    /// Totals of [`Recorder::count`], by counter name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Totals of [`Recorder::span`], by component: wall time and the
    /// events or steps the engine processed in it.
    pub spans: BTreeMap<&'static str, (Duration, u64)>,
}

impl LayerRecorder {
    /// Counts `events` by kind, as if they had been recorded here.
    pub fn tally(&mut self, events: &[telemetry::TimedEvent]) {
        for te in events {
            *self.events.entry(te.event.kind()).or_default() += 1;
        }
    }

    pub fn event(&self, kind: &str) -> u64 {
        self.events.get(kind).copied().unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Wall time and processed events reported by `component`.
    pub fn busy(&self, component: &str) -> (Duration, u64) {
        self.spans.get(component).copied().unwrap_or_default()
    }
}

impl Recorder for LayerRecorder {
    fn record(&mut self, _at: Time, event: Event) {
        *self.events.entry(event.kind()).or_default() += 1;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn span(&mut self, component: &'static str, wall: Duration, events: u64) {
        let s = self.spans.entry(component).or_default();
        s.0 += wall;
        s.1 += events;
    }
}

impl ForkableRecorder for LayerRecorder {
    type Fork = LayerRecorder;

    fn fork() -> LayerRecorder {
        LayerRecorder::default()
    }

    fn join(&mut self, fork: LayerRecorder) {
        for (kind, n) in fork.events {
            *self.events.entry(kind).or_default() += n;
        }
        for (name, n) in fork.counts {
            *self.counts.entry(name).or_default() += n;
        }
        for (component, (wall, events)) in fork.spans {
            let s = self.spans.entry(component).or_default();
            s.0 += wall;
            s.1 += events;
        }
    }
}

/// One bench-recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dense id, in opening order, starting at 1.
    pub id: u32,
    /// The enclosing span, `None` for the pass's root span.
    pub parent: Option<u32>,
    /// The operation the span belongs to: an operation span's own id, or
    /// the id inherited from the enclosing operation.
    pub op: Option<u32>,
    /// What was called, e.g. `fig1/fair`.
    pub name: String,
    /// The module called into, e.g. `mlcc` or `telemetry`.
    pub layer: &'static str,
    /// Offsets from the tracer's creation.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The bench's span recorder. Disabled, it records nothing and only
/// runs the closures it is handed; enabled, it keeps every span in memory
/// until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.scoped(layer, name, false, f)
    }

    /// Runs `f` inside a span that starts a new operation.
    pub fn op_span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.scoped(layer, name, true, f)
    }

    fn scoped<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        is_op: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.enter(layer, name, is_op);
        let out = f(self);
        self.exit();
        out
    }

    /// Opens a span inside the innermost open one; `is_op` starts a new
    /// operation. Every `enter` needs a matching [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &str, is_op: bool) {
        let Some(epoch) = self.epoch else {
            return;
        };
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().map(|&i| &self.spans[i]);
        let span = Span {
            id,
            parent: parent.map(|p| p.id),
            op: if is_op {
                Some(id)
            } else {
                parent.and_then(|p| p.op)
            },
            name: name.to_string(),
            layer,
            start: epoch.elapsed(),
            end: Duration::ZERO,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let Some(epoch) = self.epoch else {
            return;
        };
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end = epoch.elapsed();
    }

    /// Each span's self time: its duration minus the part of it that its
    /// child spans cover, in span order.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize - 1].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Total duration of the spans named `name`.
    pub fn time_in(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The spans as JSON lines: `id`, `parent`, `op`, `name`, `layer`,
    /// `start_ns`, `end_ns` (nanoseconds since the pass began).
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{},\"layer\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.op),
                crate::json::quote(&s.name),
                crate::json::quote(s.layer),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }

    /// Writes [`Tracer::to_jsonl`] to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let x = t.op_span("mlcc", "op", |t| t.span("netsim", "inner", |_| 7));
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("bench", "pass", |t| {
            t.op_span("mlcc", "op", |t| {
                t.span("telemetry", "child", |_| {
                    std::thread::sleep(Duration::from_millis(2))
                });
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[0].op), (None, None));
        assert_eq!((s[1].parent, s[1].op), (Some(1), Some(2)));
        assert_eq!((s[2].parent, s[2].op), (Some(2), Some(2)));
        let selfs = t.self_times();
        assert_eq!(selfs[1], s[1].duration() - s[2].duration());
        assert!(selfs.iter().sum::<Duration>() <= s[0].duration());
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn layer_recorder_joins_forks() {
        let mut a = LayerRecorder::default();
        a.record(Time::ZERO, Event::EcnMark { flow: 0 });
        a.count("rate_steps_total", 3);
        a.span("netsim.rate", Duration::from_millis(1), 3);
        let mut b = LayerRecorder::fork();
        b.record(Time::ZERO, Event::EcnMark { flow: 1 });
        b.span("netsim.rate", Duration::from_millis(2), 5);
        a.join(b);
        assert_eq!(a.event("ecn_mark"), 2);
        assert_eq!(a.counter("rate_steps_total"), 3);
        assert_eq!(a.busy("netsim.rate"), (Duration::from_millis(3), 8));
    }
}
