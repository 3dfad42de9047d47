//! # doacross-perfbench — the repository benchmark
//!
//! The paper's argument is a price comparison: the preprocessed doacross
//! loop against `T_seq`, the plain sequential loop. This benchmark makes
//! that comparison on the code path users run — the default-built
//! `Engine` — and times each module underneath it from outside.
//!
//! * [`run`] drives one workload in a closed loop from a single client
//!   thread, checks every result bit for bit against the sequential
//!   oracle, and reports the end-to-end metrics.
//! * [`layers`] is the separate traced run: spans around the public entry
//!   points of each module (`par`, `core`, `doconsider`, `plan`, `sim`,
//!   `sched`, `engine`, `obs`, `adapt`) and the per-layer metrics derived
//!   from them.
//! * [`cases`] builds each workload's structures and seeded inputs;
//!   [`spans`] and [`stats`] hold the recording and summary helpers.
//!
//! `BENCHMARK.json` at the repository root lists the workloads and
//! metrics; `perfbench/layers.json` records which end-to-end metric each
//! layer metric should move, and on which workload.

pub mod cases;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
