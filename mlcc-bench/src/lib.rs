//! `mlcc-bench`: host-time benchmark of the mlcc simulators.
//!
//! Four workloads (see [`workloads`]) run through the experiments' public
//! entry points. Each pass of a workload runs in a fresh process, is
//! timed end to end, and has its simulated results checked against the
//! committed references ([`reference`]), so a faster but wrong simulator
//! counts as failed. A traced pass adds the bench's own spans and a
//! counting recorder ([`trace`]) for the per-layer split. The metric
//! names, units and bounds are declared in the repository's
//! `BENCHMARK.json` ([`spec`]); see `README.md` for the command line.

pub mod calib;
pub mod compare;
pub mod json;
pub mod reference;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
