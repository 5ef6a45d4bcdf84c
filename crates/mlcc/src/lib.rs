//! Top-level reproduction library for *Congestion Control in Machine
//! Learning Clusters* (HotNets '22).
//!
//! Each paper artifact has one entry point returning a typed result that
//! both prints itself (for the examples) and exposes raw numbers (for the
//! benches and tests):
//!
//! | Paper artifact | Entry point |
//! |---|---|
//! | Fig. 1b/1c (first-iteration bandwidth) + Fig. 1d (iteration-time CDF) | [`experiments::fig1::run`] |
//! | Fig. 2 (link utilization, the sliding effect) | [`experiments::fig2::run`] |
//! | Table 1 (five job groups, fair vs unfair, compatibility) | [`experiments::table1::run`] |
//! | Fig. 3/4/5 (geometric abstraction) | [`experiments::geometry_demo`] |
//! | §4.i adaptively-unfair congestion control | [`experiments::adaptive::run`] |
//! | §4.ii switch priority queues | [`experiments::priority::run`] |
//! | §4.iii precise flow scheduling | [`experiments::flowsched::run`] |
//! | §5 cluster-level compatibility & placement | [`experiments::cluster::run`] |
//! | extension: pipelined emission widens compatibility | [`experiments::pipelining::run`] |
//! | ablations A1–A3: sector resolution, unfairness strength, placement policy | [`experiments::ablation::run`] |
//!
//! Shared measurement plumbing (iteration statistics, speedups, text
//! tables) lives in [`metrics`]; CSV export for plotting lives in
//! [`export`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod export;
pub mod forkcache;
pub mod metrics;
pub mod parallel;

pub use metrics::{JobStats, Speedup, StatsError};
