//! Structured instrumentation for the simulation stack.
//!
//! The engines in `netsim` are generic over a [`Recorder`]; the default
//! [`NoopRecorder`] monomorphizes every instrumentation site to nothing, so
//! unobserved simulations pay no cost. An observed run plugs in a
//! [`BufferRecorder`], which buffers typed [`Event`]s with simulation
//! timestamps and can then be:
//!
//! - aggregated into a [`MetricsRegistry`] of labeled counters / gauges /
//!   histograms (`ecn_marks_total{flow=0}`, `queue_depth_bytes`, …) and
//!   rendered as a text table;
//! - exported as a JSONL event log ([`export::jsonl`]) or a Chrome-trace
//!   JSON timeline ([`export::chrome_trace`]) viewable in Perfetto or
//!   `chrome://tracing`;
//! - folded into a [`Profiler`] that reports wall-clock and events/sec per
//!   engine/component;
//! - replayed from JSONL ([`parse_jsonl`]) for offline analysis, or cut
//!   down to a [`FlightRing`] of the last events per category.
//!
//! Only simulation time ever enters the event stream; wall-clock readings
//! stay in profiler spans, so recorded runs remain bit-deterministic.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod live;
pub mod metrics;
pub mod profiler;
pub mod recorder;
pub mod replay;
pub mod span;
pub mod table;

pub use event::{span_id, span_parent, CcState, Event, Phase, SpanKind, TimedEvent};
pub use live::FlightRing;
pub use metrics::MetricsRegistry;
pub use profiler::Profiler;
pub use recorder::{BufferRecorder, ForkableRecorder, NoopRecorder, Recorder, RemapRecorder};
pub use replay::{parse_jsonl, ReplayError, ReplayErrorKind};
pub use span::SpanTracker;
pub use table::text_table;
