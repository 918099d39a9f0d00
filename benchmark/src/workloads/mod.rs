//! The four workloads. Each has `run` (tracing off, end-to-end metrics)
//! and `run_traced` (per-layer metrics, trace file, additivity checks).

pub mod offline;
pub mod open;
pub mod train;
pub mod trickle;
