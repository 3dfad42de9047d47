//! Allocation audit: warm solves on the flat preprocessed-doacross path
//! must not touch the heap.
//!
//! The paper's amortization argument assumes the executor's marginal cost
//! is arithmetic plus synchronization — preprocessing products (writer
//! map, scratch arrays) are built once and reused. A per-solve heap
//! allocation anywhere on the dispatch path would silently tax every
//! solve of a many-solve workload. This binary installs
//! [`doacross_core::alloc::CountingAllocator`] as the global allocator
//! and pins the bill: after the cold solve grows the scratch, a warm
//! flat-doacross solve reports **zero** allocations on the dispatching
//! thread ([`RunStats::allocations`]).

use doacross_core::alloc::CountingAllocator;
use doacross_core::{seq::run_sequential, IndirectLoop, RunStats};
use doacross_engine::Engine;
use doacross_plan::PlanVariant;

#[global_allocator]
static AUDIT: CountingAllocator = CountingAllocator;

/// Dependence-free but non-linear left-hand side: the inspected flat
/// doacross is the only parallel candidate, so the planner picks
/// [`PlanVariant::Doacross`] (same shape the planner's own unit tests
/// pin).
fn scattered_doall(n: usize) -> IndirectLoop {
    let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
    IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).expect("valid structure")
}

#[test]
fn warm_flat_doacross_solves_allocate_nothing() {
    // 4 workers: enough parallel payoff that the static model prices the
    // scattered doall to the flat doacross rather than sequential.
    let engine = Engine::builder().workers(4).pools(1).build();
    let loop_ = scattered_doall(4_000);
    let prepared = engine.prepare(&loop_).expect("plannable");
    assert_eq!(
        prepared.variant(),
        PlanVariant::Doacross,
        "audit must exercise the flat doacross path"
    );

    let mut oracle = vec![1.0; 4_000];
    run_sequential(&loop_, &mut oracle);

    // Cold solve: checking out a fresh executor and growing its
    // per-variant scratch is allowed to allocate.
    let mut y = vec![1.0; 4_000];
    let cold: RunStats = prepared.execute(&loop_, &mut y).expect("valid");
    assert_eq!(y, oracle);

    // Warm solves: scratch, writer map, and the stats sink are all
    // reused — the dispatching thread's heap bill is exactly zero.
    for round in 0..3 {
        let mut y = vec![1.0; 4_000];
        let stats = prepared.execute(&loop_, &mut y).expect("valid");
        assert_eq!(y, oracle);
        assert_eq!(
            stats.allocations, 0,
            "warm solve {round} allocated (cold solve billed {} for scratch growth)",
            cold.allocations
        );
    }
}

/// The profiler's off-path discipline, audited: an engine built
/// *without* profiling pays one branch per site and no heap — the warm
/// flat-doacross solve stays at exactly zero allocations with the
/// profiling code compiled in. (The armed path deposits spans into
/// pre-grown arenas, but harvesting copies them out per solve, so only
/// the disarmed path is part of the zero-alloc contract.)
#[test]
fn disabled_profiling_keeps_warm_solves_allocation_free() {
    let engine = Engine::builder().workers(4).pools(1).build();
    assert!(!engine.profiling_enabled());
    let loop_ = scattered_doall(4_000);
    let prepared = engine.prepare(&loop_).expect("plannable");
    assert_eq!(prepared.variant(), PlanVariant::Doacross);

    let mut y = vec![1.0; 4_000];
    prepared.execute(&loop_, &mut y).expect("cold solve");
    for round in 0..3 {
        let mut y = vec![1.0; 4_000];
        let stats = prepared.execute(&loop_, &mut y).expect("valid");
        assert_eq!(
            stats.allocations, 0,
            "disarmed profiling leaked a warm-path allocation (round {round})"
        );
    }
    assert!(engine.recent_profiles().is_empty(), "nothing harvested");

    // Cross-check: the *armed* engine actually profiles the same shape —
    // the zero above is the off-switch working, not the feature missing.
    let armed = Engine::builder()
        .workers(4)
        .pools(1)
        .profiling_default()
        .build();
    let prepared = armed.prepare(&loop_).expect("plannable");
    let mut y = vec![1.0; 4_000];
    prepared.execute(&loop_, &mut y).expect("valid");
    assert_eq!(armed.recent_profiles().len(), 1);
}

/// A plan the measured sequential guard demoted runs the sequential loop
/// with no snapshot and no scratch executor: its warm solve allocates
/// nothing, on the executor's bill or anywhere else in the call.
#[test]
fn warm_demoted_solves_allocate_nothing() {
    // Barriers priced nearly free: the planner picks the wavefront for two
    // columns and 300 levels, which the sequential loop beats on any host.
    let planner = doacross_plan::Planner::with_costs(doacross_sim::CostModel {
        wait_poll: 500.0,
        barrier: 0.001,
        post_per_iter: 0.01,
        region_dispatch: 1.0,
        ..doacross_sim::CostModel::multimax()
    });
    let engine = Engine::builder()
        .workers(2)
        .pools(1)
        .planner(planner)
        .build();
    let loop_ = doacross_plan::testgrid::deep_grid(2, 300, 1, 1);
    let prepared = engine.prepare(&loop_).expect("plannable");
    assert_eq!(prepared.variant(), PlanVariant::Wavefront);
    let len = doacross_core::AccessPattern::data_len(&loop_);
    let mut oracle = vec![1.0; len];
    run_sequential(&loop_, &mut oracle);
    for _ in 0..doacross_plan::GUARD_WINDOW {
        let mut y = vec![1.0; len];
        prepared.execute(&loop_, &mut y).expect("valid");
    }
    assert!(prepared.demoted(), "the guard demoted the wavefront");

    let mut y = vec![1.0; len];
    for round in 0..3 {
        y.fill(1.0);
        let before = doacross_core::alloc::thread_allocations();
        let stats = prepared.execute(&loop_, &mut y).expect("valid");
        let call = doacross_core::alloc::thread_allocations() - before;
        assert_eq!(y, oracle);
        assert_eq!(stats.allocations, 0, "round {round}: executor bill");
        assert_eq!(call, 0, "round {round}: the whole demoted call");
    }
}

#[test]
fn the_audit_allocator_actually_counts() {
    // Self-check that the harness is live: an explicit heap allocation on
    // this thread must show up in the counter — otherwise the zero
    // assertion above would pass vacuously.
    let before = doacross_core::alloc::thread_allocations();
    let v: Vec<u8> = Vec::with_capacity(1024);
    let after = doacross_core::alloc::thread_allocations();
    drop(v);
    assert!(after > before, "global audit allocator not installed");
}
