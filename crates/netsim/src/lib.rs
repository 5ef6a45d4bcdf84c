//! Flow-level network simulation engines.
//!
//! Two engines share one purpose — measuring training-iteration times of
//! jobs contending on links — at two levels of realism:
//!
//! * [`rate`] — the **rate-based DCQCN engine**: a single bottleneck link
//!   with a RED/ECN marking queue, stepped at microsecond resolution, with
//!   every flow running the full DCQCN reaction-point state machine from
//!   the [`dcqcn`] crate. Congestion behaviour (fair sharing, the
//!   unfairness knob `T`, the adaptive `R_AI` variant) is *emergent*, which
//!   is what reproduces the paper's §2 observation: unfairness slides the
//!   phases of compatible jobs apart. Drives Fig. 1, Fig. 2, Table 1 and
//!   the §4.i experiments.
//!
//! * [`fluid`] — the **event-driven fluid engine**: instantaneous
//!   (weighted) max-min or strict-priority bandwidth allocation over an
//!   arbitrary [`topology::Topology`], advancing directly from flow event
//!   to flow event. Idealized and fast; drives the mechanism experiments
//!   (§4.ii priority queues, §4.iii flow scheduling via comm-phase gates)
//!   and the cluster-scale scheduler studies (§5).
//!
//! A third engine, [`packet`], simulates DCQCN **per packet** (paced
//! senders, per-packet ECN marking, CNP round trips) and serves as the
//! ground truth the fluid abstraction is validated against on short
//! scenarios.
//!
//! The shared allocation mathematics (progressive-filling max-min, weighted
//! variant, strict priorities) lives in [`alloc`] as pure, independently
//! tested functions. The job lifecycle the three engines drive — compute,
//! communicate, depart, and the phase telemetry of each change — lives in
//! one private `job` module, so the engines differ only in transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod fluid;
mod job;
pub mod packet;
pub mod rate;
pub mod snapshot;
