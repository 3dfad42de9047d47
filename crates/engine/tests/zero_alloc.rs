//! Allocation audit: warm solves on every parallel variant's path must
//! not touch the heap.
//!
//! The paper's amortization argument assumes the executor's marginal cost
//! is arithmetic plus synchronization — preprocessing products (writer
//! map, scratch arrays) are built once and reused. A per-solve heap
//! allocation anywhere on the dispatch path would silently tax every
//! solve of a many-solve workload. This binary installs
//! [`doacross_core::alloc::CountingAllocator`] as the global allocator
//! and pins the bill: after the cold solve grows the scratch, a warm
//! solve — flat doacross, linear, reordered, strip-mined or wavefront —
//! reports **zero** allocations on the dispatching thread
//! ([`RunStats::allocations`]).

use doacross_core::alloc::CountingAllocator;
use doacross_core::{seq::run_sequential, DoacrossLoop, IndirectLoop, RunStats};
use doacross_engine::Engine;
use doacross_plan::{PlanVariant, Planner};
use doacross_sim::CostModel;

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

/// Region dispatch and postprocessing priced nearly free, so at p = 2 the
/// planner takes a parallel variant wherever one exists.
fn cheap_regions() -> CostModel {
    CostModel {
        region_dispatch: 1.0,
        post_per_iter: 0.01,
        ..CostModel::multimax()
    }
}

/// Prepares `loop_` on a two-worker engine planning with `costs`, checks
/// the planner picked `expect`, then solves it warm inside the guard's
/// trial window (so the parallel variant itself runs): after the cold
/// solve, every solve's executor bill is zero allocations.
fn assert_warm_solves_allocate_nothing<L: DoacrossLoop>(
    costs: CostModel,
    loop_: &L,
    expect: fn(PlanVariant) -> bool,
) {
    let engine = Engine::builder()
        .workers(2)
        .pools(1)
        .planner(Planner::with_costs(costs))
        .build();
    let prepared = engine.prepare(loop_).expect("plannable");
    assert!(
        expect(prepared.variant()),
        "audit must exercise the intended variant, got {:?}",
        prepared.variant()
    );
    let len = loop_.data_len();
    let mut oracle = vec![1.0; len];
    run_sequential(loop_, &mut oracle);
    let mut y = vec![1.0; len];
    let cold = prepared.execute(loop_, &mut y).expect("valid");
    assert_eq!(y, oracle);
    for round in 0..3 {
        y.fill(1.0);
        let stats = prepared.execute(loop_, &mut y).expect("valid");
        assert_eq!(y, oracle);
        assert!(
            !prepared.demoted(),
            "round {round} ran inside the trial window"
        );
        assert_eq!(
            stats.allocations,
            0,
            "{:?} warm solve {round} allocated (cold solve billed {})",
            prepared.variant(),
            cold.allocations
        );
    }
}

#[test]
fn warm_linear_solves_allocate_nothing() {
    // Figure 4's dependence-free loop with odd L: a(i) = 2i + d is linear.
    let loop_ = doacross_core::TestLoop::new(2_000, 1, 7);
    assert_warm_solves_allocate_nothing(cheap_regions(), &loop_, |v| {
        matches!(v, PlanVariant::Linear(_))
    });
}

#[test]
fn warm_reordered_solves_allocate_nothing() {
    // 32 interleaved distance-1 chains: the natural claim order stalls on
    // every edge, the doconsider order on none. Each solve re-checks the
    // order is a permutation, in reused scratch.
    let (chains, len) = (32usize, 16usize);
    let n = chains * len;
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    let loop_ = IndirectLoop::new(n, (0..n).collect(), rhs, coeff).expect("valid structure");
    assert_warm_solves_allocate_nothing(cheap_regions(), &loop_, |v| v == PlanVariant::Reordered);
}

#[test]
fn warm_blocked_solves_allocate_nothing() {
    // Element reuse at distance 512: strip-mined into 8 blocks, which
    // share one reused stats sink. Each block re-inspects, so the
    // inspector is priced cheap too.
    let costs = CostModel {
        inspect_per_iter: 0.5,
        ..cheap_regions()
    };
    let (n, period) = (4_096usize, 512usize);
    let a: Vec<usize> = (0..n).map(|i| i % period).collect();
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 7) % period]).collect();
    let loop_ = IndirectLoop::new(period, a, rhs, vec![vec![0.25]; n]).expect("valid structure");
    assert_warm_solves_allocate_nothing(costs, &loop_, |v| {
        matches!(v, PlanVariant::Blocked { .. })
    });
}

#[test]
fn warm_wavefront_solves_allocate_nothing() {
    // Barriers priced nearly free: two columns, 300 levels.
    let costs = CostModel {
        wait_poll: 500.0,
        barrier: 0.001,
        ..cheap_regions()
    };
    let loop_ = doacross_plan::testgrid::deep_grid(2, 300, 1, 1);
    assert_warm_solves_allocate_nothing(costs, &loop_, |v| v == PlanVariant::Wavefront);
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
