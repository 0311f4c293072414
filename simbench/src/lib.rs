//! End-to-end and per-layer benchmark of the `gat` simulator.
//!
//! * [`workload`] — the three workloads, their output checks and the
//!   untraced runs through `HeteroSystem`,
//! * [`trace`] — the traced cycle-by-cycle loop that attributes host time
//!   to the simulator's layers.
//!
//! `src/main.rs` is the command; `README.md` in this directory explains
//! the metrics and holds the layer profile and the noise evidence.

pub mod trace;
pub mod workload;
