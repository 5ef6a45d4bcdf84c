//! One module per paper artifact. See the crate docs for the mapping.

pub mod ablation;
pub mod adaptive;
pub mod chaos;
pub mod cluster;
pub mod fig1;
pub mod fig2;
pub mod flowsched;
pub mod geometry_demo;
pub mod pipelining;
pub mod priority;
pub mod shard;
pub mod table1;
pub mod variants;
