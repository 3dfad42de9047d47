//! Cross-crate integration tests: the full pipeline from PDE operator to
//! parallel triangular solve, and the doacross runtime on the paper's
//! workloads, at host scale.

use preprocessed_doacross::core::{
    seq::run_sequential, BlockedDoacross, Doacross, DoacrossConfig, DoacrossError, LinearDoacross,
    RunStats, TestLoop, WavefrontDoacross,
};
use preprocessed_doacross::par::{Schedule, ThreadPool, WaitStrategy};
use preprocessed_doacross::plan::PlanCensus;
use preprocessed_doacross::sparse::{
    ilu0, stencil::five_point, CsrMatrix, Problem, ProblemKind, TriangularMatrix,
};
use preprocessed_doacross::trisolve::{
    seq::solve_sequential, verify::assert_solves, SolvePlan, TriSolveLoop,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn pool() -> ThreadPool {
    ThreadPool::new(4)
}

/// Every test in this binary runs thread pools, and some read what the
/// threads did (stall counts). The test harness runs tests on parallel
/// threads, so each takes this lock first: one test's pools never compete
/// with another's for the host's cores.
fn host() -> MutexGuard<'static, ()> {
    static HOST: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the tests after it still run.
    HOST.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One triangular-solve strategy pinned to a core runtime, the way
/// measurement code runs it (the engine picks among these itself).
#[derive(Debug, Clone, Copy)]
enum Strategy {
    /// §2.3 linear-subscript doacross, natural row order.
    Doacross,
    /// The same, claiming rows in the doconsider order.
    Rearranged,
    /// Full inspector/executor/postprocessor doacross.
    Inspected,
    /// Strip-mined doacross with this many rows per block.
    Blocked(usize),
    /// Level-scheduled wavefront: one barrier per level, no flags.
    Level,
}

const STRATEGIES: [Strategy; 5] = [
    Strategy::Doacross,
    Strategy::Rearranged,
    Strategy::Inspected,
    Strategy::Blocked(64),
    Strategy::Level,
];

/// Solves `L y = rhs` under `strategy` on `pool`.
fn solve_pinned(
    pool: &ThreadPool,
    strategy: Strategy,
    l: &TriangularMatrix,
    rhs: &[f64],
) -> Result<(Vec<f64>, RunStats), DoacrossError> {
    let loop_ = TriSolveLoop::new(l, rhs);
    // Every strategy seeds each row from rhs, so y's initial contents are
    // arbitrary.
    let mut y = vec![0.0; l.n()];
    let subscript = TriSolveLoop::subscript();
    let stats = match strategy {
        Strategy::Doacross => {
            LinearDoacross::new(l.n()).run_with_order(pool, &loop_, subscript, &mut y, None)?
        }
        Strategy::Rearranged => {
            let order = SolvePlan::for_matrix(l).order;
            LinearDoacross::new(l.n()).run_with_order(
                pool,
                &loop_,
                subscript,
                &mut y,
                Some(&order),
            )?
        }
        Strategy::Inspected => Doacross::new(l.n()).run_with_order(pool, &loop_, &mut y, None)?,
        Strategy::Blocked(block_size) => {
            BlockedDoacross::new(block_size)?.run(pool, &loop_, &mut y)?
        }
        Strategy::Level => {
            let schedule = PlanCensus::of_with_schedule(&loop_)
                .1
                .expect("identity subscript is injective");
            WavefrontDoacross::new(l.n()).run(pool, &loop_, &mut y, &schedule)?
        }
    };
    Ok((y, stats))
}

fn grid_system(nx: usize, ny: usize, seed: u64) -> (TriangularMatrix, Vec<f64>) {
    let l = TriangularMatrix::from_strict_lower(&ilu0(&five_point(nx, ny, seed)).l);
    let rhs: Vec<f64> = (0..l.n()).map(|i| 0.25 + (i % 8) as f64).collect();
    (l, rhs)
}

#[test]
fn all_table1_systems_solve_with_all_solvers() {
    let _host = host();
    let pool = pool();
    for kind in ProblemKind::all() {
        let sys = Problem::build(kind).triangular_system();
        let expect = solve_sequential(&sys.l, &sys.rhs);
        assert_solves(&sys.l, &expect, &sys.rhs, 1e-9);

        for strategy in STRATEGIES {
            let (y, stats) = solve_pinned(&pool, strategy, &sys.l, &sys.rhs).expect("valid system");
            assert_eq!(y, expect, "{}: {strategy:?}", kind.name());
            assert_eq!(stats.iterations, sys.n(), "{}: {strategy:?}", kind.name());
        }

        // Accuracy against the manufactured solution.
        let max_err = expect
            .iter()
            .zip(&sys.solution)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-8, "{}: err {max_err}", kind.name());
    }
}

#[test]
fn figure6_grid_matches_sequential_on_host_threads() {
    let _host = host();
    let pool = pool();
    for l in 1..=14 {
        for m in [1usize, 5] {
            let loop_ = TestLoop::new(500, m, l);
            let mut expect = loop_.initial_y();
            run_sequential(&loop_, &mut expect);

            let mut y = loop_.initial_y();
            Doacross::for_loop(&loop_)
                .run(&pool, &loop_, &mut y)
                .expect("valid loop");
            assert_eq!(y, expect, "inspected L={l} M={m}");

            let mut y2 = loop_.initial_y();
            LinearDoacross::new(y2.len())
                .run(&pool, &loop_, loop_.linear_subscript(), &mut y2)
                .expect("linear subscript");
            assert_eq!(y2, expect, "linear L={l} M={m}");

            let mut y3 = loop_.initial_y();
            BlockedDoacross::new(64)
                .expect("nonzero block")
                .run(&pool, &loop_, &mut y3)
                .expect("valid loop");
            assert_eq!(y3, expect, "blocked L={l} M={m}");
        }
    }
}

#[test]
fn one_runtime_serves_many_loop_instances() {
    let _host = host();
    // The reuse story of §2.1: one scratch allocation, many loops.
    let pool = pool();
    let mut runtime = Doacross::new(0);
    for l in [3usize, 4, 8, 11] {
        let loop_ = TestLoop::new(300, 2, l);
        let mut expect = loop_.initial_y();
        run_sequential(&loop_, &mut expect);
        let mut y = loop_.initial_y();
        runtime.run(&pool, &loop_, &mut y).expect("valid loop");
        assert_eq!(y, expect, "L={l}");
        assert!(runtime.scratch_is_clean(), "L={l}");
    }
}

#[test]
fn doacross_runs_under_every_configuration() {
    let _host = host();
    let pool = pool();
    let loop_ = TestLoop::new(400, 3, 6);
    let mut expect = loop_.initial_y();
    run_sequential(&loop_, &mut expect);
    for schedule in [
        Schedule::StaticBlock,
        Schedule::StaticCyclic,
        Schedule::Dynamic { chunk: 1 },
        Schedule::Dynamic { chunk: 32 },
        Schedule::Guided { min_chunk: 4 },
    ] {
        for wait in [
            WaitStrategy::Spin,
            WaitStrategy::SpinYield { spins: 32 },
            WaitStrategy::Backoff { max_spin_batch: 32 },
        ] {
            for validate in [true, false] {
                let mut rt = Doacross::with_config(
                    loop_.initial_y().len(),
                    DoacrossConfig {
                        schedule,
                        wait,
                        validate_terms: validate,
                        ..Default::default()
                    },
                );
                let mut y = loop_.initial_y();
                rt.run(&pool, &loop_, &mut y).expect("valid loop");
                assert_eq!(y, expect, "{schedule:?} {wait:?} validate={validate}");
            }
        }
    }
}

#[test]
fn oversubscribed_pool_still_correct() {
    let _host = host();
    // 16 workers on a small host: waits must yield and the solve must
    // still complete and agree (the Multimax-on-a-laptop case).
    let big_pool = ThreadPool::new(16);
    let sys = Problem::build(ProblemKind::Spe2).triangular_system();
    let expect = solve_sequential(&sys.l, &sys.rhs);
    let (y, _) =
        solve_pinned(&big_pool, Strategy::Doacross, &sys.l, &sys.rhs).expect("valid system");
    assert_eq!(y, expect);

    let loop_ = TestLoop::new(2_000, 1, 4); // distance-1 chain
    let mut expect2 = loop_.initial_y();
    run_sequential(&loop_, &mut expect2);
    let mut y2 = loop_.initial_y();
    Doacross::for_loop(&loop_)
        .run(&big_pool, &loop_, &mut y2)
        .expect("valid loop");
    assert_eq!(y2, expect2);
}

#[test]
fn reordered_solver_reduces_stalls_on_host() {
    let _host = host();
    // The Table 1 mechanism, observed on real threads: same solve, fewer
    // stalls under the doconsider order.
    //
    // One solve takes about a millisecond, so a single pair of runs
    // mostly observes whether the pool's other workers got a core in
    // time, not the claim order: a natural-order run in which no second
    // worker joined reports 0 stalls, and a reordered run that met one
    // preempted writer reports hundreds. The comparison is therefore made
    // on the median run of each order over interleaved pairs, which such
    // one-off scheduling accidents do not move.
    const PAIRS: usize = 9;
    let pool = pool();
    let sys = Problem::build(ProblemKind::FivePt).triangular_system();
    let (mut plain, mut re) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let (_, p) = solve_pinned(&pool, Strategy::Doacross, &sys.l, &sys.rhs).expect("valid");
        let (_, r) = solve_pinned(&pool, Strategy::Rearranged, &sys.l, &sys.rhs).expect("valid");
        assert_eq!(p.deps.true_deps, r.deps.true_deps, "same dependencies");
        plain.push(p.stalls);
        re.push(r.stalls);
    }
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (plain, re) = (median(&mut plain), median(&mut re));
    assert!(
        re <= plain,
        "reordering should not increase stalls: {plain} -> {re} (median of {PAIRS} runs)"
    );
}

#[test]
fn pinned_runtimes_are_reusable_across_systems() {
    let _host = host();
    // One runtime of each kind serves systems of different sizes, on one
    // worker and on four. Both flag-based runtimes see every off-diagonal
    // as a true dependency.
    let mut linear = LinearDoacross::new(0);
    let mut inspected = Doacross::new(0);
    let mut blocked = BlockedDoacross::new(32).unwrap();
    for workers in [1, 4] {
        let pool = ThreadPool::new(workers);
        for (nx, ny, seed) in [(9, 7, 1u64), (12, 10, 77), (6, 6, 5)] {
            let (l, rhs) = grid_system(nx, ny, seed);
            let loop_ = TriSolveLoop::new(&l, &rhs);
            let expect = l.forward_solve(&rhs);
            let what = format!("{workers} workers, {nx}x{ny}");

            let mut y = vec![0.0; l.n()];
            let stats = linear
                .run(&pool, &loop_, TriSolveLoop::subscript(), &mut y)
                .unwrap();
            assert_eq!(y, expect, "linear, {what}");
            assert_eq!(stats.deps.true_deps, l.nnz() as u64, "linear, {what}");

            let mut y = vec![0.0; l.n()];
            let stats = inspected.run(&pool, &loop_, &mut y).unwrap();
            assert_eq!(y, expect, "inspected, {what}");
            assert_eq!(stats.deps.true_deps, l.nnz() as u64, "inspected, {what}");

            let mut y = vec![0.0; l.n()];
            blocked.run(&pool, &loop_, &mut y).unwrap();
            assert_eq!(y, expect, "blocked, {what}");
        }
    }
}

#[test]
fn blocked_solve_needs_only_one_block_of_scratch() {
    let _host = host();
    // The identity subscript makes each block's write window the block
    // itself, so §2.3's scratch shrinks from n elements to one block.
    let (l, rhs) = grid_system(11, 10, 81);
    let expect = l.forward_solve(&rhs);
    let pool = pool();
    for block_size in [1usize, 7, 16, 64, 1000] {
        let mut runtime = BlockedDoacross::new(block_size).unwrap();
        let mut y = vec![0.0; l.n()];
        let stats = runtime
            .run(&pool, &TriSolveLoop::new(&l, &rhs), &mut y)
            .unwrap();
        assert_eq!(y, expect, "block_size={block_size}");
        assert_eq!(stats.blocks, l.n().div_ceil(block_size));
        assert!(
            runtime.scratch_capacity() <= block_size,
            "block_size={block_size}"
        );
        if block_size < l.n() {
            assert_eq!(runtime.scratch_capacity(), block_size);
        }
    }
    assert!(matches!(
        BlockedDoacross::new(0),
        Err(DoacrossError::EmptyBlock)
    ));
}

#[test]
fn diagonal_system_is_trivially_parallel() {
    let _host = host();
    let m = CsrMatrix::from_parts(5, 5, vec![0; 6], vec![], vec![]);
    let l = TriangularMatrix::from_strict_lower(&m);
    let rhs = vec![3.0; 5];
    let plan = SolvePlan::for_matrix(&l);
    assert_eq!(plan.order, vec![0, 1, 2, 3, 4]);
    assert_eq!(plan.critical_path(), 1);
    let pool = ThreadPool::new(2);
    for strategy in STRATEGIES {
        let (y, stats) = solve_pinned(&pool, strategy, &l, &rhs).unwrap();
        assert_eq!(y, rhs, "{strategy:?}");
        assert_eq!(stats.deps.total(), 0, "{strategy:?}");
        assert_eq!(stats.stalls, 0, "{strategy:?}");
    }
}

#[test]
fn facade_engine_serves_concurrent_callers() {
    let _host = host();
    // The facade's front door: one shared Engine, several threads, mixed
    // structures — exact results and a warm cache.
    use preprocessed_doacross::Engine;

    let engine = Engine::builder().workers(2).cache_capacity(8).build();
    let loops = [
        TestLoop::new(500, 1, 7),
        TestLoop::new(500, 2, 8),
        TestLoop::new(400, 1, 4),
    ];
    let oracles: Vec<Vec<f64>> = loops
        .iter()
        .map(|l| {
            let mut y = l.initial_y();
            run_sequential(l, &mut y);
            y
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..3 {
            let engine = engine.clone();
            let (loops, oracles) = (&loops, &oracles);
            scope.spawn(move || {
                for round in 0..3 {
                    for (i, l) in loops.iter().enumerate() {
                        let mut y = l.initial_y();
                        engine.run(l, &mut y).expect("valid loop");
                        assert_eq!(&y, &oracles[i], "thread {t} round {round} loop {i}");
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, loops.len() as u64, "one plan per structure");
    assert!(stats.hits > 0, "shared cache serves hits across threads");

    // Prepared handles survive cache eviction but not invalidation.
    let prepared = engine.prepare(&loops[0]).expect("cached");
    engine.clear_cache();
    let mut y = loops[0].initial_y();
    prepared.execute(&loops[0], &mut y).expect("eviction-proof");
    assert_eq!(y, oracles[0]);
    engine.invalidate(prepared.fingerprint());
    assert!(prepared.is_stale());
    assert!(prepared.execute(&loops[0], &mut y).is_err());
}
