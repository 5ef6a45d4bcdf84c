//! Root facade crate (`mlcc-repro`): hosts the repository-level `examples/`
//! and `tests/` directories and re-exports every workspace crate so that
//! examples and integration tests can reach the whole public API through one
//! dependency.

pub use dcqcn;
pub use diagnostics;
pub use eventsim;
pub use faults;
pub use geometry;
pub use mlcc;
pub use netsim;
pub use scheduler;
pub use simtime;
pub use telemetry;
pub use topology;
pub use workload;

/// The engine surface, at the root so `use mlcc_repro::*` brings its
/// methods into scope.
pub use netsim::Engine;
