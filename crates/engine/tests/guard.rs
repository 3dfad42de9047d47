//! The measured sequential guard, end to end: every engine checks each
//! parallel plan against the sequential loop over the plan's first
//! [`GUARD_WINDOW`] solves and demotes a plan that does not strictly win.
//!
//! The assertions read the guard's own measurements (its window minima),
//! never wall-clock bounds, so they hold on any host: a plan is either
//! demoted with `sequential_min <= parallel_min` or kept with
//! `parallel_min < sequential_min`. Where a test needs a demotion it uses
//! a structure the sequential loop wins on any host — two columns and 300
//! dependence levels, which a barrier-per-level wavefront pays 299
//! barrier crossings to run.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on [`serial`].

use doacross_core::{seq::run_sequential, AccessPattern, DoacrossLoop, IndirectLoop};
use doacross_engine::{
    AdaptiveConfig, Engine, EngineError, FallbackPolicy, ObsVariant, PreparedLoop, SolveOutcome,
    TraceEvent, VariantKind,
};
use doacross_plan::{GuardState, PlanStore, PlanVariant, Planner, GUARD_WINDOW};
use doacross_sim::CostModel;
use doacross_sparse::{table1_problems, TriangularMatrix};
use failpoint::FailAction;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::disarm_all();
    guard
}

/// Forward substitution over a strict-lower factor as an indirect loop:
/// `y[i] += Σ_j (−L_ij)·y[col_j]`, row by row — the Table 1 workload.
fn forward_sub(l: &TriangularMatrix) -> IndirectLoop {
    let n = l.n();
    let a: Vec<usize> = (0..n).collect();
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| l.row_cols(i).to_vec()).collect();
    let coeff: Vec<Vec<f64>> = (0..n)
        .map(|i| l.row_values(i).iter().map(|v| -v).collect())
        .collect();
    IndirectLoop::new(n, a, rhs, coeff).expect("valid structure")
}

/// Barriers and region dispatch priced nearly free, so the planner picks
/// the wavefront for [`narrow_deep`].
fn wavefront_planner() -> Planner {
    Planner::with_costs(CostModel {
        wait_poll: 500.0,
        barrier: 0.001,
        post_per_iter: 0.01,
        region_dispatch: 1.0,
        ..CostModel::multimax()
    })
}

/// Two columns, 300 dependence levels: 600 tiny iterations that a
/// wavefront runs with 299 barrier crossings.
fn narrow_deep() -> IndirectLoop {
    doacross_plan::testgrid::deep_grid(2, 300, 1, 1)
}

fn fresh_y(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|e| 1.0 + ((e + salt) % 10) as f64 / 10.0)
        .collect()
}

fn oracle_of<L: DoacrossLoop + ?Sized>(loop_: &L, y0: &[f64]) -> Vec<f64> {
    let mut y = y0.to_vec();
    run_sequential(loop_, &mut y);
    y
}

/// Solves through `handle` until its guard window closes, checking every
/// result against the oracle; returns the solves it took.
fn close_window<L: DoacrossLoop + ?Sized>(handle: &PreparedLoop, loop_: &L) -> u32 {
    let mut solves = 0;
    while handle.plan().guard().state() == GuardState::Trial {
        let y0 = fresh_y(loop_.data_len(), solves as usize);
        let mut y = y0.clone();
        handle.execute(loop_, &mut y).expect("solvable");
        assert_eq!(y, oracle_of(loop_, &y0), "trial solve {solves}");
        solves += 1;
        assert!(solves <= GUARD_WINDOW, "the window closes after its solves");
    }
    solves
}

/// The engine with the wavefront-friendly planner, and a handle to the
/// narrow-deep structure whose window has closed in a demotion.
fn demoted_engine(builder: doacross_engine::EngineBuilder) -> (Engine, IndirectLoop, PreparedLoop) {
    let engine = builder.workers(2).planner(wavefront_planner()).build();
    let loop_ = narrow_deep();
    let handle = engine.prepare(&loop_).expect("plannable");
    assert_eq!(handle.variant(), PlanVariant::Wavefront);
    assert_eq!(close_window(&handle, &loop_), GUARD_WINDOW);
    let guard = handle.plan().guard();
    assert!(
        handle.demoted(),
        "299 barriers against 600 tiny iterations: parallel min {:?} ns, sequential min {:?} ns",
        guard.parallel_min_ns(),
        guard.sequential_min_ns()
    );
    (engine, loop_, handle)
}

#[test]
fn table1_plans_are_demoted_or_measured_faster_and_stay_bit_identical() {
    let _serial = serial();
    let engine = Engine::builder().workers(2).build();
    let (mut judged, mut demoted) = (0, 0);
    for problem in table1_problems() {
        let name = problem.kind.name();
        let loop_ = forward_sub(&problem.triangular_system().l);
        let handle = engine.prepare(&loop_).expect("plannable");
        let guard = handle.plan().guard();
        if handle.variant() == PlanVariant::Sequential {
            for k in 0..GUARD_WINDOW as usize + 2 {
                let y0 = fresh_y(loop_.data_len(), k);
                let mut y = y0.clone();
                handle.execute(&loop_, &mut y).unwrap();
                assert_eq!(y, oracle_of(&loop_, &y0), "{name} solve {k}");
            }
            assert_eq!(guard.samples(), 0, "{name}: sequential plans never probe");
            continue;
        }
        judged += 1;
        assert_eq!(close_window(&handle, &loop_), GUARD_WINDOW, "{name}");
        assert_eq!(guard.samples(), GUARD_WINDOW);
        let parallel = guard.parallel_min_ns().expect("measured");
        let sequential = guard.sequential_min_ns().expect("measured");
        if handle.demoted() {
            demoted += 1;
            assert!(sequential <= parallel, "{name}: {sequential} vs {parallel}");
        } else {
            assert_eq!(guard.state(), GuardState::Kept);
            assert!(parallel < sequential, "{name}: {parallel} vs {sequential}");
        }
        // After the window: still bit-identical, and a demoted plan runs
        // the sequential loop — one worker, no barriers, all executor.
        for k in 0..3 {
            let y0 = fresh_y(loop_.data_len(), 100 + k);
            let mut y = y0.clone();
            let stats = handle.execute(&loop_, &mut y).unwrap();
            assert_eq!(y, oracle_of(&loop_, &y0), "{name} post-window solve {k}");
            if handle.demoted() {
                assert_eq!(stats.workers, 1, "{name}");
                assert_eq!(stats.barrier_crossings, 0, "{name}");
                assert_eq!(stats.wait_polls, 0, "{name}");
                assert_eq!(stats.executor, stats.total, "{name}");
            }
        }
        assert_eq!(
            guard.samples(),
            GUARD_WINDOW,
            "{name}: no probes after the verdict"
        );
    }
    assert!(
        judged > 0,
        "the static model picks a parallel variant at p=2"
    );
    assert_eq!(engine.guard_demotions(), demoted);
}

#[test]
fn demotion_keeps_handles_fresh_and_is_traced_once() {
    let _serial = serial();
    let builder = Engine::builder().pools(1).observability_default();
    let engine = builder.workers(2).planner(wavefront_planner()).build();
    let loop_ = narrow_deep();
    let early = engine.prepare(&loop_).expect("plannable");
    let clone = early.clone();
    assert_eq!(early.generation(), 0);
    assert_eq!(close_window(&clone, &loop_), GUARD_WINDOW);
    assert!(early.demoted(), "every clone sees the verdict");

    // The handle prepared before the demotion still executes: no
    // generation bump, no StalePlan.
    assert!(!early.is_stale());
    assert_eq!(early.generation(), 0);
    let y0 = fresh_y(loop_.data_len(), 7);
    let mut y = y0.clone();
    let stats = early.execute(&loop_, &mut y).expect("never stale");
    assert_eq!(y, oracle_of(&loop_, &y0));
    assert_eq!(stats.barrier_crossings, 0);
    // `variant()` keeps reporting the planner's pick.
    assert_eq!(early.variant(), PlanVariant::Wavefront);
    // The demoted path keeps the executor's shape checks.
    let mut short = vec![0.0; 3];
    assert!(matches!(
        early.execute(&loop_, &mut short),
        Err(EngineError::Doacross(
            doacross_core::DoacrossError::DataLenMismatch { got: 3, .. }
        ))
    ));

    // A later prepare and `Engine::run` serve the same demoted plan.
    let later = engine.prepare(&loop_).unwrap();
    assert!(later.from_cache() && later.demoted());
    assert_eq!(later.generation(), 0);
    let mut y = y0.clone();
    engine.run(&loop_, &mut y).expect("runs");
    assert_eq!(y, oracle_of(&loop_, &y0));

    // One plan_demoted event carrying the guard's own minima; the flight
    // recorder names the variant that ran.
    let demotions: Vec<_> = engine
        .trace_events()
        .into_iter()
        .filter_map(|e| match e.event {
            TraceEvent::PlanDemoted {
                from,
                parallel_min_ns,
                sequential_min_ns,
                ..
            } => Some((from, parallel_min_ns, sequential_min_ns)),
            _ => None,
        })
        .collect();
    let guard = early.plan().guard();
    assert_eq!(
        demotions,
        [(
            ObsVariant::Wavefront,
            guard.parallel_min_ns().unwrap(),
            guard.sequential_min_ns().unwrap()
        )]
    );
    assert_eq!(engine.guard_demotions(), 1);
    let solves = engine.recent_solves();
    let (trial, after) = solves.split_at(GUARD_WINDOW as usize);
    assert!(trial.iter().all(|r| r.variant == ObsVariant::Wavefront));
    assert_eq!(after.len(), 2);
    for record in after {
        assert_eq!(record.variant, ObsVariant::Sequential);
        assert_eq!(record.outcome, SolveOutcome::Ok);
        assert_eq!(record.generation, 0);
        assert_eq!(record.executor_ns, record.total_ns);
    }
}

#[test]
fn sequential_plans_never_run_the_probe() {
    let _serial = serial();
    let engine = Engine::builder().workers(2).observability_default().build();
    // A serial chain: no parallel candidate can beat the sequential loop.
    let n = 200;
    let a: Vec<usize> = (1..=n).collect();
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let chain = IndirectLoop::new(n + 1, a, rhs, vec![vec![0.5]; n]).unwrap();
    let handle = engine.prepare(&chain).unwrap();
    assert_eq!(handle.variant(), PlanVariant::Sequential);
    for k in 0..2 * GUARD_WINDOW as usize {
        let y0 = fresh_y(chain.data_len(), k);
        let mut y = y0.clone();
        let stats = handle.execute(&chain, &mut y).unwrap();
        assert_eq!(y, oracle_of(&chain, &y0));
        assert_eq!(
            stats.executor, stats.total,
            "a sequential solve is all executor"
        );
    }
    let guard = handle.plan().guard();
    assert_eq!(guard.state(), GuardState::Trial, "never judged");
    assert_eq!(guard.samples(), 0);
    assert_eq!(guard.sequential_min_ns(), None);
    assert!(!handle.demoted());
    assert_eq!(engine.guard_demotions(), 0);
    assert!(engine
        .recent_solves()
        .iter()
        .all(|r| r.executor_ns == r.total_ns && r.executor_ns > 0));
}

#[test]
fn disabled_fallback_still_probes_and_leaves_y_correct() {
    let _serial = serial();
    let (engine, loop_, handle) =
        demoted_engine(Engine::builder().fallback(FallbackPolicy::Disabled));
    assert_eq!(engine.fallback_policy(), FallbackPolicy::Disabled);
    assert_eq!(handle.plan().guard().samples(), GUARD_WINDOW);
    let y0 = fresh_y(loop_.data_len(), 3);
    let mut y = y0.clone();
    handle.execute(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle_of(&loop_, &y0));
}

#[test]
fn a_panicked_trial_solve_is_not_a_sample() {
    let _serial = serial();
    for policy in [FallbackPolicy::SequentialRetry, FallbackPolicy::Disabled] {
        let engine = Engine::builder()
            .workers(2)
            .pools(1)
            .planner(wavefront_planner())
            .fallback(policy)
            .build();
        let loop_ = narrow_deep();
        let handle = engine.prepare(&loop_).unwrap();
        assert_eq!(handle.variant(), PlanVariant::Wavefront);
        let y0 = fresh_y(loop_.data_len(), 0);
        let oracle = oracle_of(&loop_, &y0);

        failpoint::arm(
            "core::wavefront::iter",
            FailAction::PanicAt { iteration: 300 },
        );
        let mut y = y0.clone();
        let result = handle.execute(&loop_, &mut y);
        failpoint::disarm_all();
        match policy {
            FallbackPolicy::SequentialRetry => {
                assert_eq!(result.expect("fell back").attempts, 2);
                assert_eq!(y, oracle);
            }
            FallbackPolicy::Disabled => {
                assert!(matches!(result, Err(EngineError::SolvePanicked { .. })));
            }
        }
        let guard = handle.plan().guard();
        assert_eq!(
            guard.samples(),
            0,
            "{policy:?}: the faulted solve is no sample"
        );
        assert_eq!(guard.parallel_min_ns(), None);

        let mut y = y0.clone();
        handle.execute(&loop_, &mut y).unwrap();
        assert_eq!(y, oracle);
        assert_eq!(guard.samples(), 1, "{policy:?}: the clean solve is");
    }
}

#[test]
fn replaced_plans_start_a_fresh_window() {
    let _serial = serial();
    let (engine, loop_, handle) = demoted_engine(Engine::builder().cache_capacity(1).shards(1));
    let fp = *handle.fingerprint();

    // Evict and replan: a second structure pushes the plan out of the
    // one-slot cache; the next prepare builds a fresh plan.
    let other = doacross_plan::testgrid::deep_grid(2, 200, 1, 1);
    engine.prepare(&other).unwrap();
    let replanned = engine.prepare(&loop_).unwrap();
    assert!(!replanned.from_cache());
    assert_eq!(replanned.plan().guard().state(), GuardState::Trial);
    assert_eq!(replanned.plan().guard().samples(), 0);
    assert!(handle.demoted(), "the old instance keeps its verdict");

    // Invalidate: the rebuilt plan starts over.
    close_window(&replanned, &loop_);
    assert!(engine.invalidate(&fp));
    let rebuilt = engine.prepare(&loop_).unwrap();
    assert_eq!(rebuilt.generation(), 1);
    assert_eq!(rebuilt.plan().guard().state(), GuardState::Trial);

    // Warm start: a decoded plan carries no verdict.
    close_window(&rebuilt, &loop_);
    assert!(rebuilt.demoted());
    let bytes = engine.snapshot().to_bytes();
    let restarted = Engine::builder()
        .workers(2)
        .planner(wavefront_planner())
        .build();
    assert_eq!(
        restarted.warm_from(&PlanStore::from_bytes(&bytes).unwrap()),
        1
    );
    let warm = restarted.prepare(&loop_).unwrap();
    assert!(warm.from_cache());
    assert_eq!(warm.plan().guard().state(), GuardState::Trial);
    assert!(!warm.demoted());
}

#[test]
fn demoted_jobs_coalesce_in_batches() {
    let _serial = serial();
    let (engine, loop_, handle) = demoted_engine(Engine::builder().observability_default());
    let ys0: Vec<Vec<f64>> = (0..3).map(|k| fresh_y(loop_.data_len(), k)).collect();
    let mut ys = ys0.clone();
    let mut batch = engine.batch();
    for y in &mut ys {
        batch.submit(&handle, &loop_, y);
    }
    for result in engine.execute_all(batch) {
        let stats = result.unwrap();
        assert_eq!(stats.executor, stats.total);
    }
    for (y, y0) in ys.iter().zip(&ys0) {
        assert_eq!(y, &oracle_of(&loop_, y0));
    }
    let coalesced = engine
        .trace_events()
        .into_iter()
        .find_map(|e| match e.event {
            TraceEvent::BatchSubmitted { jobs, coalesced } => Some((jobs, coalesced)),
            _ => None,
        });
    assert_eq!(
        coalesced,
        Some((3, 3)),
        "demoted jobs join the coalesced region"
    );
}

#[test]
fn adaptive_engines_record_demoted_solves_as_sequential_samples() {
    let _serial = serial();
    // A policy that never evaluates within this test, so the samples are
    // exactly the solves.
    let quiet = AdaptiveConfig {
        min_samples: 1_000,
        eval_interval: 1_000,
        ..AdaptiveConfig::default()
    };
    let (engine, loop_, handle) = demoted_engine(Engine::builder().adaptive_config(quiet));
    let fp = *handle.fingerprint();
    for k in 0..3 {
        let y0 = fresh_y(loop_.data_len(), k);
        let mut y = y0.clone();
        handle.execute(&loop_, &mut y).unwrap();
        assert_eq!(y, oracle_of(&loop_, &y0));
    }
    let wave = engine.telemetry_of(&fp, VariantKind::Wavefront).unwrap();
    let seq = engine.telemetry_of(&fp, VariantKind::Sequential).unwrap();
    assert_eq!(
        wave.samples, GUARD_WINDOW as u64,
        "the trial solves ran the wavefront"
    );
    assert_eq!(seq.samples, 3, "demoted solves are sequential samples");
    assert_eq!(engine.adaptive_stats().unwrap().baseline_probes, 0);
}
