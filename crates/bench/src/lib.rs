//! # doacross-bench — the paper's evaluation, regenerated
//!
//! One module per experiment:
//!
//! * [`fig6`] — Figure 6: parallel efficiency of the preprocessed doacross
//!   on the Figure 4 test loop, 16 processors, `N = 10000`, `M ∈ {1, 5}`,
//!   `L = 1..14`. Regenerate with
//!   `cargo run -p doacross-bench --release --bin fig6`.
//! * [`table1`] — Table 1: sparse triangular solve times (sequential,
//!   preprocessed doacross, doconsider-rearranged doacross) on SPE2, SPE5,
//!   5-PT, 7-PT, 9-PT. Regenerate with
//!   `cargo run -p doacross-bench --release --bin table1`.
//! * [`host`] — real-thread measurements on the host machine (at host core
//!   counts), cross-checking the simulator's direction at small `p`.
//! * [`amortize`] — the plan-cache amortization experiment: per-call
//!   re-inspection vs. per-call planning vs. cached plans over 1..100
//!   reuses of one triangular structure. Regenerate with
//!   `cargo run -p doacross-bench --release --bin amortize`.
//! * [`warm`] — the restart gap plan persistence closes: first solve on a
//!   cold engine vs. one warm-started from a serialized plan store.
//!   Regenerate with `cargo run -p doacross-bench --release --bin warm`.
//! * [`wavefront`] — flag-synchronized vs. level-scheduled steady state on
//!   the Table 1 structures (the DOACROSS→DOALL conversion crossover),
//!   plus the chunked self-scheduling ablation; writes the
//!   machine-readable `BENCH_wavefront.json`. Regenerate with
//!   `cargo run -p doacross-bench --release --bin wavefront`.
//! * [`adaptive`] — static-pick vs. adaptive-pick per-solve cost under a
//!   deliberately mispriced cost model on the Table 1 structures, plus
//!   the calibrate-by-default measurement (calibration cost vs. one cold
//!   solve); writes the machine-readable `BENCH_adaptive.json`.
//!   Regenerate with `cargo run -p doacross-bench --release --bin adaptive`.
//! * [`obs`] — the observability tax: disabled-vs-enabled per-solve cost
//!   on warmed engines, plus the direct price of the disabled path's
//!   branch check; writes the machine-readable `BENCH_obs.json`.
//!   Regenerate with `cargo run -p doacross-bench --release --bin obs`.
//! * [`throughput`] — concurrent-tenant throughput through the multi-pool
//!   scheduler (solves/sec at 1/4/16 tenants), the dispatcher's per-solve
//!   tax (single- vs. multi-pool, no-regression bound on serial hosts),
//!   and batched-submission amortization; writes the machine-readable
//!   `BENCH_throughput.json`. Regenerate with
//!   `cargo run -p doacross-bench --release --bin throughput`.
//! * [`report`] — plain-text table rendering shared by the binaries.
//!
//! Every binary prints both the **simulated 16-processor** numbers (the
//! hardware substitution — see DESIGN.md §4) and, where cheap enough,
//! **host-thread** numbers at the host's parallelism.

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod adaptive;
pub mod amortize;
pub mod fault;
pub mod fig6;
pub mod host;
pub mod obs;
pub mod profile;
pub mod report;
pub mod table1;
pub mod throughput;
pub mod warm;
pub mod wavefront;

/// Deterministic workspace-wide experiment seed (problems are seeded per
/// kind on top of this).
pub const EXPERIMENT_SEED: u64 = 0x1991_0815;
