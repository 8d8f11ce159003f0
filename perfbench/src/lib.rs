//! Host-time benchmark of the Impulse simulator.
//!
//! Runs the 28 cells of the `run_all` catalog as four workloads,
//! checks every cell's simulated report, and measures host time end to
//! end (tracing off) or layer by layer (tracing on). See `README.md` in
//! this directory for the workloads, the metrics and how to run it.

pub mod bench;
pub mod cells;
pub mod host;
pub mod redrive;
pub mod run;
