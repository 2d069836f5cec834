//! Benchmark of the QueryVis serving path: four workloads measured end
//! to end, and a traced run that replays their inputs layer by layer.
//! See `README.md` in this directory.

pub mod check;
pub mod gen;
pub mod measure;
pub mod trace;
pub mod wire;
pub mod workloads;
