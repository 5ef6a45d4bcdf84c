//! Deterministic discrete-event simulation engine.
//!
//! The network simulators in this workspace (`netsim`'s fluid and rate-based
//! engines) are built on three small, independently testable pieces:
//!
//! * [`EventQueue`] — a time-ordered priority queue of typed events with a
//!   **deterministic tie-break**: events scheduled for the same instant pop
//!   in scheduling order, so a simulation is a pure function of its inputs.
//!   A binary heap keyed by time and scheduling order: the engines hold at
//!   most a few hundred events pending, where a heap beats a timing wheel.
//! * [`Rng`] — a seeded xoshiro256++ generator. All stochastic behaviour
//!   (ECN marking coin flips, randomized solver restarts) draws from here;
//!   the same seed reproduces a byte-identical run on any platform.
//! * [`TimeSeries`] — a simple `(Time, f64)` trace recorder with the
//!   aggregation helpers the experiments need (step integration, resampling,
//!   time-weighted means).
//!
//! The engine is intentionally synchronous and single-threaded: a simulation
//! step is CPU-bound and deterministic, which is exactly the workload the
//! async-runtime guides tell you *not* to put on an async executor.
//! Parallelism in this workspace happens across independent simulations
//! (e.g. parameter sweeps in the benches), never inside one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod rng;
mod trace;

pub use queue::{EventQueue, ScheduleError, ScheduledEvent};
pub use rng::Rng;
pub use trace::{Cdf, TimeSeries};
