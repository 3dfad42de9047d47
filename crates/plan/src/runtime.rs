//! [`PlanExecutor`] — variant dispatch for prebuilt plans.
//!
//! [`PlanExecutor`] owns the per-variant scratch runtimes (inspected flat,
//! linear, strip-mined) and executes any [`ExecutionPlan`] against a loop:
//! sequential, flat doacross against the plan's prebuilt writer map,
//! linear-subscript, doconsider-reordered, strip-mined, or
//! level-scheduled. It is the execution half of the thread-safe
//! `doacross_engine::Engine`, which checks executors out of a pool so
//! concurrent callers each get private scratch. The flat variants report
//! `inspector == 0`; a [`PlanVariant::Blocked`] plan is the one exception
//! — strip-mined execution re-inspects per block by construction (§2.3
//! reuses one windowed scratch allocation across blocks), so a cached
//! blocked plan skips the planning but keeps its per-block inspector time.
//!
//! Plan-driven runs skip per-run validation (the plan already proved the
//! structure in-bounds, injective where required, and its order
//! topological; the fingerprint key guarantees the structure has not
//! changed) — the executor's release-mode bounds asserts remain as the
//! final defense.

use crate::plan::{ExecutionPlan, PlanVariant};
use doacross_core::{
    seq::run_sequential, BlockedDoacross, Doacross, DoacrossConfig, DoacrossError, DoacrossLoop,
    LinearDoacross, PlanProvenance, Region, RunStats, WavefrontDoacross,
};
use doacross_obs::profile::{ProfArena, SpanKind, NO_LEVEL};
use std::time::Instant;

/// Executes prebuilt [`ExecutionPlan`]s, owning the per-variant scratch
/// state (writer-map runtime, linear runtime, blocked runtime) that a plan
/// execution needs (see module docs).
///
/// The configuration's `validate_terms` is forced off (validation happened
/// at plan time) and `copy_back` forced on — results always land in `y`,
/// uniformly across variants (a shadow-array protocol would behave
/// differently depending on which variant the cost model picked, and this
/// executor exposes no shadow accessor).
#[derive(Debug)]
pub struct PlanExecutor {
    config: DoacrossConfig,
    inspected: Doacross,
    linear: LinearDoacross,
    /// Level-scheduled runtime: its shadow array and per-level claim
    /// counters grow to the largest structure seen and are then reused, so
    /// a workload alternating wavefront structures (e.g. an L and a U
    /// factor with different depths) does not churn allocations.
    wavefront: WavefrontDoacross,
    /// One strip-mined runtime per block size seen, so a workload
    /// alternating blocked structures (e.g. L and U factors with
    /// different legal block sizes) reuses each one's windowed scratch
    /// instead of reallocating it every execute. Bounded by the distinct
    /// block sizes this executor encounters.
    blocked: std::collections::HashMap<usize, BlockedDoacross>,
}

impl PlanExecutor {
    /// Executor with the given doacross configuration (`schedule` and
    /// `wait` honored; `validate_terms`/`copy_back` forced, see type docs).
    pub fn new(config: DoacrossConfig) -> Self {
        let config = DoacrossConfig {
            validate_terms: false,
            copy_back: true,
            ..config
        };
        Self {
            config,
            inspected: Doacross::with_config(0, config),
            linear: LinearDoacross::with_config(0, config),
            wavefront: WavefrontDoacross::with_config(0, config),
            blocked: std::collections::HashMap::new(),
        }
    }

    /// The (forced) configuration executions run under.
    pub fn config(&self) -> &DoacrossConfig {
        &self.config
    }

    /// Runs `loop_` under `plan`, dispatching to the plan's variant.
    ///
    /// Results are bit-identical to [`run_sequential`] for every variant a
    /// planner can select. The returned stats report
    /// [`PlanProvenance::PlanCold`]; callers that know the plan came from
    /// a cache overwrite the provenance.
    ///
    /// A profiled [`Region`] deposits per-worker spans into its arena.
    /// Span fidelity varies by variant only as far as the executors
    /// differ. The flag-based variants (`Doacross`, `Reordered`, `Linear`,
    /// and `Blocked` once per block) run the same executor, so each
    /// records one work span per worker per executor region and one
    /// flag-wait span per stall; `Wavefront` records per-level work and
    /// barrier-wait spans; `Sequential` records one whole-run work span
    /// on worker 0.
    pub fn execute<'p, L: DoacrossLoop + ?Sized>(
        &mut self,
        region: impl Into<Region<'p>>,
        loop_: &L,
        y: &mut [f64],
        plan: &ExecutionPlan,
    ) -> Result<RunStats, DoacrossError> {
        let region = region.into();
        Self::check_shape(loop_, y, plan)?;
        match plan.variant() {
            PlanVariant::Sequential => Self::execute_sequential(loop_, y, plan, region.arena()),
            PlanVariant::Doacross => {
                let prepared = plan.prepared().expect("doacross plan carries a map");
                self.inspected.run_planned(region, loop_, y, prepared, None)
            }
            PlanVariant::Reordered => {
                let prepared = plan.prepared().expect("reordered plan carries a map");
                let order = plan.order().expect("reordered plan carries an order");
                self.inspected
                    .run_planned(region, loop_, y, prepared, Some(order))
            }
            PlanVariant::Linear(subscript) => {
                let mut stats = self.linear.run(region, loop_, subscript, y)?;
                stats.provenance = PlanProvenance::PlanCold;
                Ok(stats)
            }
            PlanVariant::Blocked { block_size } => {
                let blocked = match self.blocked.entry(block_size) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(BlockedDoacross::with_config(block_size, self.config)?)
                    }
                };
                let mut stats = blocked.run(region, loop_, y)?;
                stats.provenance = PlanProvenance::PlanCold;
                Ok(stats)
            }
            PlanVariant::Wavefront => {
                let schedule = plan
                    .level_schedule()
                    .expect("wavefront plan carries its level schedule");
                let stats = self.wavefront.run(region, loop_, y, schedule)?;
                debug_assert_eq!(stats.wait_polls, 0, "wavefront runs never poll");
                Ok(stats)
            }
        }
    }

    /// The shape checks every plan execution starts with: `loop_` must
    /// have the iteration count and data length `plan` was built for
    /// ([`DoacrossError::PlanMismatch`]), and `y` that data length
    /// ([`DoacrossError::DataLenMismatch`]).
    pub fn check_shape<L: DoacrossLoop + ?Sized>(
        loop_: &L,
        y: &[f64],
        plan: &ExecutionPlan,
    ) -> Result<(), DoacrossError> {
        let data_len = loop_.data_len();
        if plan.census().iterations != loop_.iterations() || plan.census().data_len != data_len {
            return Err(DoacrossError::PlanMismatch {
                plan_iterations: plan.census().iterations,
                plan_data_len: plan.census().data_len,
                loop_iterations: loop_.iterations(),
                loop_data_len: data_len,
            });
        }
        if y.len() != data_len {
            return Err(DoacrossError::DataLenMismatch {
                got: y.len(),
                expected: data_len,
            });
        }
        Ok(())
    }

    /// Runs the plain sequential loop under `plan`'s shape checks,
    /// whatever variant the plan selected — the sequential schedule is
    /// sound for every plan. This is the [`PlanVariant::Sequential`] arm
    /// of [`PlanExecutor::execute`], and what an engine runs for a plan
    /// its measured guard demoted. It needs no scratch, so no executor.
    /// With `prof` set, the whole run is one work span on worker 0 (`aux`
    /// = iterations); the stats report it all as executor time.
    pub fn execute_sequential<L: DoacrossLoop + ?Sized>(
        loop_: &L,
        y: &mut [f64],
        plan: &ExecutionPlan,
        prof: Option<&ProfArena>,
    ) -> Result<RunStats, DoacrossError> {
        Self::check_shape(loop_, y, plan)?;
        let span_start = prof.map(|arena| arena.now_ns());
        let start = Instant::now();
        run_sequential(loop_, y);
        let elapsed = start.elapsed();
        if let (Some(arena), Some(started)) = (prof, span_start) {
            let end = arena.now_ns();
            arena.record(
                0,
                SpanKind::Work,
                NO_LEVEL,
                started,
                end.saturating_sub(started),
                loop_.iterations() as u64,
            );
        }
        Ok(RunStats {
            iterations: loop_.iterations(),
            workers: 1,
            blocks: 1,
            executor: elapsed,
            total: elapsed,
            provenance: PlanProvenance::PlanCold,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use crate::PatternFingerprint;
    use doacross_core::{IndirectLoop, TestLoop};
    use doacross_par::ThreadPool;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn oracle<L: DoacrossLoop + ?Sized>(loop_: &L, y0: &[f64]) -> Vec<f64> {
        let mut y = y0.to_vec();
        run_sequential(loop_, &mut y);
        y
    }

    /// Plans `loop_` fresh and executes the plan once from `y0`.
    fn plan_and_execute<L: DoacrossLoop + ?Sized>(
        p: &ThreadPool,
        loop_: &L,
        y0: &[f64],
    ) -> (Vec<f64>, RunStats) {
        let plan = Planner::new().plan(p, loop_).unwrap();
        let mut y = y0.to_vec();
        let stats = PlanExecutor::new(DoacrossConfig::default())
            .execute(p, loop_, &mut y, &plan)
            .unwrap();
        (y, stats)
    }

    #[test]
    fn every_variant_matches_the_oracle() {
        let p = pool();

        // Sequential (serial chain).
        let n = 60;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let chain = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let y0 = vec![1.0; n + 1];
        assert_eq!(plan_and_execute(&p, &chain, &y0).0, oracle(&chain, &y0));

        // Blocked (non-injective, wide write gap, real work per term).
        let n2 = 2_048usize;
        let period = 256usize;
        let a2: Vec<usize> = (0..n2).map(|i| i % period).collect();
        let rhs2: Vec<Vec<usize>> = (0..n2).map(|i| vec![(i + 3) % period]).collect();
        let dup = IndirectLoop::new(period, a2, rhs2, vec![vec![0.5]; n2]).unwrap();
        let y0 = vec![1.0; period];
        let (y, stats) = plan_and_execute(&p, &dup, &y0);
        assert_eq!(y, oracle(&dup, &y0));
        assert!(stats.blocks >= 2, "blocked plan executes in blocks");

        // Reordered (interleaved tight chains).
        let chains = 16usize;
        let len = 12usize;
        let n3 = chains * len;
        let a3: Vec<usize> = (0..n3).collect();
        let rhs3: Vec<Vec<usize>> = (0..n3)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff3: Vec<Vec<f64>> = rhs3.iter().map(|r| vec![0.5; r.len()]).collect();
        let braided = IndirectLoop::new(n3, a3, rhs3, coeff3).unwrap();
        let y0 = vec![1.0; n3];
        assert_eq!(plan_and_execute(&p, &braided, &y0).0, oracle(&braided, &y0));
    }

    #[test]
    fn sequential_solves_report_their_time_as_executor_time() {
        let p = pool();
        let n = 60;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let chain = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let plan = Planner::new().plan(&p, &chain).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Sequential);
        let mut executor = PlanExecutor::new(DoacrossConfig::default());
        let y0 = vec![1.0; n + 1];
        let mut y = y0.clone();
        let stats = executor.execute(&p, &chain, &mut y, &plan).unwrap();
        assert_eq!(y, oracle(&chain, &y0));
        assert!(stats.total > std::time::Duration::ZERO);
        assert_eq!(
            stats.executor, stats.total,
            "a sequential solve is all executor"
        );

        // The same arm serves any plan, with the same shape checks.
        let doall = TestLoop::new(400, 1, 8);
        let parallel = Planner::new().plan(&p, &doall).unwrap();
        let y0 = doall.initial_y();
        let mut y = y0.clone();
        let stats = PlanExecutor::execute_sequential(&doall, &mut y, &parallel, None).unwrap();
        assert_eq!(y, oracle(&doall, &y0));
        assert_eq!(stats.executor, stats.total);
        assert_eq!(stats.workers, 1);
        let mut short = vec![0.0; 3];
        assert!(matches!(
            PlanExecutor::execute_sequential(&doall, &mut short, &parallel, None),
            Err(DoacrossError::DataLenMismatch { got: 3, .. })
        ));
        let other = TestLoop::new(401, 1, 8);
        let mut y = other.initial_y();
        assert!(matches!(
            PlanExecutor::execute_sequential(&other, &mut y, &parallel, None),
            Err(DoacrossError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let p = pool();
        let small = TestLoop::new(50, 1, 7);
        let big = TestLoop::new(60, 1, 7);
        let plan = Planner::new().plan(&p, &small).unwrap();
        let mut executor = PlanExecutor::new(DoacrossConfig::default());
        let mut y = big.initial_y();
        let err = executor.execute(&p, &big, &mut y, &plan).unwrap_err();
        assert!(matches!(err, DoacrossError::PlanMismatch { .. }));
    }

    #[test]
    fn structure_sharing_across_value_changes() {
        // Same structure, different coefficients: one plan, many runs.
        let p = pool();
        let n = 300;
        let looped = |coeff: f64| {
            let a: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
            let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + n - 3) % n]).collect();
            IndirectLoop::new(n, a, rhs, vec![vec![coeff]; n]).unwrap()
        };
        let plan = Planner::new().plan(&p, &looped(0.25)).unwrap();
        let mut executor = PlanExecutor::new(DoacrossConfig::default());
        for coeff in [0.25f64, 0.5, 0.75] {
            let loop_ = looped(coeff);
            assert_eq!(&PatternFingerprint::of(&loop_), plan.fingerprint());
            let y0: Vec<f64> = (0..n).map(|e| 1.0 + (e % 5) as f64).collect();
            let mut y = y0.clone();
            executor.execute(&p, &loop_, &mut y, &plan).unwrap();
            assert_eq!(y, oracle(&loop_, &y0), "coeff {coeff}");
        }
    }
}
