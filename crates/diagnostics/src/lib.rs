//! Streaming analyzers over the `telemetry` event stream, answering the
//! questions the paper's thesis lives on:
//!
//! - **Did communication phases interleave?** The [`interleave`] auditor
//!   reconstructs per-link occupancy from phase events and measures the
//!   overlap fraction — comparable against the `geometry` solver's
//!   prediction ([`geometry::overlap_fraction_of`]).
//! - **Did DCQCN converge or oscillate?** The [`health`] analyzer windows
//!   per-flow rate variance, counts ECN/CNP signal rates, and flags
//!   standing queues.
//! - **Who made each iteration slow?** The [`attribution`] analyzer folds
//!   the engines' typed iteration spans with link occupancy into a
//!   contention ledger: per job-iteration wall time decomposed into
//!   compute, solo communication, and contention inflation blamed per
//!   `(link, competing job)` pair, with critical-path extraction and a
//!   cross-check against the geometry prediction.
//! - **Who paid for whose speedup?** The [`fairness`] analyzer computes
//!   windowed Jain indices (deliberate short-term unfairness with high
//!   long-term fairness is the paper's signature), and [`analyze`]
//!   attributes per-job speedups across scenarios.
//!
//! The [`analyze::RunAnalysis`] front door consumes either a live
//! `BufferRecorder`'s events or a JSONL replay ([`telemetry::replay`]),
//! and distills into:
//!
//! - a [`summary::RunSummary`] — a flat metric map with deterministic JSON
//!   serialization, diffable against a previous run with tolerance
//!   ([`summary::diff`]) as a regression gate;
//! - a self-contained HTML page ([`report::html`]) with SVG phase
//!   timelines, rate sparklines, and verdict tables;
//! - SLO alerts ([`watchdog::judge`]): declarative thresholds on the
//!   summary's own metrics and the [`recovery`] analyzer's fault
//!   windows, so an alert cannot disagree with the summary it sits
//!   beside.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod attribution;
pub mod events;
pub mod fairness;
pub mod health;
pub mod history;
pub mod interleave;
pub mod recovery;
pub mod report;
pub mod summary;
pub mod watchdog;

pub use analyze::{analyze, AnalysisConfig, Attribution, RunAnalysis, ScenarioAnalysis};
pub use attribution::{ledger, Binding, ContentionLedger, IterationLedger, JobLedger, LinkBlame};
pub use events::{
    extract_tracks, split_scenarios, Interval, IterationSpan, JobTrack, ScenarioTracks,
};
pub use fairness::{jain_index, FairnessReport};
pub use health::{Convergence, FlowHealth, HealthConfig, HealthReport, QueueHealth};
pub use history::{parse_history, trend, ExperimentTrend, HistoryRecord, TrendConfig, TrendReport};
pub use interleave::{audit, InterleaveReport, LinkAudit};
pub use recovery::{recovery, FaultWindow, Incident, JobRecovery, RecoveryConfig, RecoveryReport};
pub use report::html;
pub use summary::{diff, DiffConfig, DiffReport, MetricShift, RunSummary};
pub use watchdog::{judge, slo_from_toml_str, Alert, AlertKind, SloRules};
