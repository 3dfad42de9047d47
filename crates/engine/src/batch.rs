//! [`SolveBatch`]: batched submission — many prepared solves, one call.
//!
//! Concurrent tenants often carry *small* structures: loops the planner
//! prices straight to the sequential variant because a parallel region
//! costs more than the loop body. Submitted one by one, each such solve
//! still pays the engine's per-solve overhead (admission, checkout,
//! bookkeeping) for microseconds of work. A batch amortizes it: callers
//! queue `(prepared, loop, y)` jobs and [`SolveBatch::execute_all`] runs
//! them all —
//!
//! * **sequential-variant jobs coalesce under one sub-pool lease** (and
//!   so do jobs whose plan the measured sequential guard demoted): the
//!   pool's workers claim whole jobs off a shared counter and run each
//!   start-to-finish with [`doacross_core::seq::run_sequential`] — so
//!   results stay bit-identical to N separate executes while N admission
//!   dispatches collapse into one (and on a single-worker sub-pool the
//!   region degenerates to inline execution under the same lease, paying
//!   no cross-thread handoff at all);
//! * every other job routes through the exact same execute path as
//!   [`crate::PreparedLoop::execute`] — same admission, same scratch
//!   checkout, same observability;
//! * per-job results and [`RunStats`] come back demultiplexed in
//!   submission order.
//!
//! Staleness is re-checked **per job at execute time**: a handle
//! invalidated (or adaptively swapped) while the batch was queued fails
//! typed with [`EngineError::StalePlan`] and never executes — queueing a
//! batch cannot resurrect a retired plan.

use crate::engine::obs_provenance;
use crate::error::EngineError;
use crate::prepared::PreparedLoop;
use crate::Engine;
use doacross_core::seq::run_sequential;
use doacross_core::{DoacrossLoop, PlanProvenance, RunStats};
use doacross_obs::{ObsVariant, SolveRecord, TraceEvent};
use doacross_plan::{PlanExecutor, PlanVariant};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One queued solve job.
struct BatchJob<'a, L: ?Sized> {
    prepared: PreparedLoop,
    loop_: &'a L,
    y: &'a mut [f64],
}

/// A queue of solve jobs executed together by
/// [`SolveBatch::execute_all`]. Built by [`Engine::batch`]; jobs borrow
/// their loop and output buffer for the batch's lifetime.
///
/// ```
/// use doacross_core::{seq::run_sequential, TestLoop};
/// use doacross_engine::Engine;
///
/// let engine = Engine::builder().workers(2).build();
/// let loops: Vec<TestLoop> = (0..4).map(|k| TestLoop::new(60 + 10 * k, 1, 7)).collect();
/// let prepared: Vec<_> = loops.iter().map(|l| engine.prepare(l).unwrap()).collect();
///
/// let mut ys: Vec<Vec<f64>> = loops.iter().map(|l| l.initial_y()).collect();
/// let mut batch = engine.batch();
/// for ((p, l), y) in prepared.iter().zip(&loops).zip(&mut ys) {
///     batch.submit(p, l, y);
/// }
/// for (result, (l, y)) in engine.execute_all(batch).into_iter().zip(loops.iter().zip(&ys)) {
///     result.unwrap();
///     let mut oracle = l.initial_y();
///     run_sequential(l, &mut oracle);
///     assert_eq!(y, &oracle);
/// }
/// ```
/// The loop type `L` is a generic parameter (defaulting to
/// `dyn DoacrossLoop` for heterogeneous batches) so that homogeneous
/// batches — the common case — monomorphize the coalesced executor
/// exactly like the serial path does, instead of paying a virtual call
/// per term.
pub struct SolveBatch<'a, L: DoacrossLoop + ?Sized = dyn DoacrossLoop> {
    engine: Engine,
    jobs: Vec<BatchJob<'a, L>>,
}

/// A coalesced-region slot: one sequential-variant job plus the stats
/// slot its claiming worker fills.
struct SeqSlot<'a, L: ?Sized> {
    result_index: usize,
    prepared: PreparedLoop,
    loop_: &'a L,
    y: &'a mut [f64],
    stats: Option<RunStats>,
}

/// Shares the coalesced slots with the pool's workers. Soundness: a slot
/// is only touched by the worker that claimed its index off the shared
/// counter, and `fetch_add` hands each index out exactly once.
struct SeqSlots<'a, 'b, L: ?Sized>(&'b [UnsafeCell<SeqSlot<'a, L>>]);

// SAFETY: see the struct docs — `AccessPattern: Sync` bounds the loop
// references, and slot interiors are claimed exclusively.
unsafe impl<L: Sync + ?Sized> Sync for SeqSlots<'_, '_, L> {}

impl<'a, L: ?Sized> SeqSlots<'a, '_, L> {
    /// # Safety
    /// The caller must hold exclusive claim to index `k` (here: `k` came
    /// off the region's shared `fetch_add` counter exactly once), which
    /// is what makes the `&self -> &mut` aliasing sound.
    #[allow(clippy::mut_from_ref)]
    unsafe fn claim(&self, k: usize) -> &mut SeqSlot<'a, L> {
        // SAFETY: exclusivity of `k` is the caller's contract (doc above);
        // the `UnsafeCell` projection itself is always in bounds.
        unsafe { &mut *self.0[k].get() }
    }
}

impl<'a, L: DoacrossLoop + ?Sized> SolveBatch<'a, L> {
    pub(crate) fn new(engine: Engine) -> Self {
        Self {
            engine,
            jobs: Vec::new(),
        }
    }

    /// Queues one solve: execute `prepared` against `loop_`, updating `y`
    /// in place exactly as the sequential source loop would. Nothing runs
    /// until [`SolveBatch::execute_all`].
    ///
    /// Same contract as [`PreparedLoop::execute`]: `loop_` must share the
    /// structure the handle was prepared for; `y` and the coefficient
    /// values are free to differ per call.
    pub fn submit(&mut self, prepared: &PreparedLoop, loop_: &'a L, y: &'a mut [f64]) {
        self.jobs.push(BatchJob {
            prepared: prepared.clone(),
            loop_,
            y,
        });
    }

    /// Jobs queued so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every queued job and returns per-job results in submission
    /// order. Results are bit-identical to calling
    /// [`PreparedLoop::execute`] once per job in submission order; only
    /// the scheduling differs (see module docs). Each job fails or
    /// succeeds independently — one stale handle or shape mismatch never
    /// poisons its neighbors.
    pub fn execute_all(self) -> Vec<Result<RunStats, EngineError>> {
        let inner = &self.engine.inner;
        let njobs = self.jobs.len();
        let mut results: Vec<Option<Result<RunStats, EngineError>>> =
            (0..njobs).map(|_| None).collect();

        // Triage at execute time: stale handles fail typed here and never
        // run (the flush guarantee for plans invalidated or swapped while
        // the batch was queued); sequential-variant jobs coalesce; the
        // rest take the ordinary execute path below.
        let mut seq_slots: Vec<UnsafeCell<SeqSlot<'a, L>>> = Vec::new();
        let mut direct: Vec<(usize, BatchJob<'a, L>)> = Vec::new();
        for (i, job) in self.jobs.into_iter().enumerate() {
            if let Err(err) = job.prepared.check_stale() {
                results[i] = Some(Err(err));
                continue;
            }
            // Plans the measured guard demoted run the sequential loop
            // too, so they coalesce with the sequential-variant jobs.
            if job.prepared.variant() != PlanVariant::Sequential && !job.prepared.demoted() {
                direct.push((i, job));
                continue;
            }
            // The coalesced region bypasses PlanExecutor, so it runs the
            // executor's shape checks here.
            if let Err(err) = PlanExecutor::check_shape(job.loop_, job.y, job.prepared.plan_arc()) {
                results[i] = Some(Err(err.into()));
                continue;
            }
            seq_slots.push(UnsafeCell::new(SeqSlot {
                result_index: i,
                prepared: job.prepared,
                loop_: job.loop_,
                y: job.y,
                stats: None,
            }));
        }

        if inner.obs.enabled() {
            inner.obs.emit(TraceEvent::BatchSubmitted {
                jobs: njobs as u64,
                coalesced: seq_slots.len() as u64,
            });
        }

        // One sub-pool lease, one region, all coalesced jobs: workers
        // claim whole jobs off the counter and run each start-to-finish
        // sequentially — bit-identical to N separate executes.
        if !seq_slots.is_empty() {
            match inner.pools.acquire() {
                Err(err) => {
                    for slot in &seq_slots {
                        // SAFETY: the region never ran; this thread owns
                        // every slot exclusively.
                        let slot = unsafe { &mut *slot.get() };
                        results[slot.result_index] = Some(Err(err.clone().into()));
                    }
                }
                Ok(guard) => {
                    let pool_index = guard.index();
                    if inner.obs.enabled() {
                        inner.obs.emit(TraceEvent::PoolDispatched {
                            pool: pool_index as u64,
                            stolen: guard.stolen(),
                            wait_ns: 0,
                        });
                    }
                    // The same stats shape PlanExecutor::execute
                    // produces for the sequential variant.
                    let run_slot = |slot: &mut SeqSlot<'_, L>| {
                        let start = Instant::now();
                        run_sequential(slot.loop_, slot.y);
                        let elapsed = start.elapsed();
                        slot.stats = Some(RunStats {
                            iterations: slot.loop_.iterations(),
                            workers: 1,
                            blocks: 1,
                            executor: elapsed,
                            total: elapsed,
                            attempts: 1,
                            ..Default::default()
                        });
                    };
                    if guard.pool().threads() <= 1 {
                        // One worker means zero job-level parallelism: a
                        // region would only add a cross-thread handoff.
                        // Run the jobs inline under the same admission
                        // guard — identical semantics, no dispatch tax.
                        for slot in &seq_slots {
                            // SAFETY: no region ran; this thread owns
                            // every slot exclusively.
                            run_slot(unsafe { &mut *slot.get() });
                        }
                    } else {
                        let shared = SeqSlots(&seq_slots);
                        let next = AtomicUsize::new(0);
                        let nslots = seq_slots.len();
                        guard.pool().run(|_worker| loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= nslots {
                                break;
                            }
                            // SAFETY: index `k` was handed to this worker
                            // alone (fetch_add), so the slot access is
                            // exclusive for the region's duration.
                            run_slot(unsafe { shared.claim(k) });
                        });
                    }
                    drop(guard);
                    for slot in seq_slots {
                        let slot = slot.into_inner();
                        let mut stats = slot.stats.expect("every claimed slot ran");
                        stats.provenance = if slot.prepared.from_cache() {
                            PlanProvenance::PlanCached
                        } else {
                            PlanProvenance::PlanCold
                        };
                        let plan = slot.prepared.plan_arc();
                        if inner.obs.enabled() {
                            let clamp =
                                |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
                            inner.obs.emit(TraceEvent::SolveFinished {
                                record: SolveRecord {
                                    fp: plan.fingerprint().into(),
                                    variant: ObsVariant::Sequential,
                                    provenance: obs_provenance(stats.provenance),
                                    generation: slot.prepared.generation(),
                                    total_ns: clamp(stats.total),
                                    inspector_ns: clamp(stats.inspector),
                                    executor_ns: clamp(stats.executor),
                                    post_ns: clamp(stats.post),
                                    iterations: stats.iterations as u64,
                                    workers: stats.workers as u64,
                                    stalls: stats.stalls,
                                    wait_polls: stats.wait_polls,
                                    barrier_crossings: stats.barrier_crossings,
                                    pool: pool_index as u64,
                                    outcome: doacross_obs::SolveOutcome::Ok,
                                },
                            });
                        }
                        if let Some(adaptive) = &inner.adaptive {
                            adaptive.after_solve(
                                inner,
                                slot.loop_,
                                slot.y,
                                plan,
                                PlanVariant::Sequential,
                                &stats,
                            );
                        }
                        results[slot.result_index] = Some(Ok(stats));
                    }
                }
            }
        }

        // Everything else is an ordinary execute — same admission gate,
        // same scratch checkout, same hooks.
        for (i, job) in direct {
            results[i] = Some(job.prepared.execute(job.loop_, job.y));
        }

        results
            .into_iter()
            .map(|r| r.expect("every job was triaged exactly once"))
            .collect()
    }
}

impl Engine {
    /// Starts an empty [`SolveBatch`] against this engine. The loop type
    /// is inferred from the first [`SolveBatch::submit`] (annotate as
    /// `SolveBatch<'_, dyn DoacrossLoop>` — the default — to mix loop
    /// types in one batch).
    pub fn batch<'a, L: DoacrossLoop + ?Sized>(&self) -> SolveBatch<'a, L> {
        SolveBatch::new(self.clone())
    }

    /// Prepares every pattern in order — sugar for calling
    /// [`Engine::prepare`] per pattern, stopping at the first failure.
    /// Combine with [`Engine::batch`] to resolve a tenant set's plans up
    /// front and then submit solves against them.
    pub fn prepare_all<P: doacross_core::AccessPattern + ?Sized>(
        &self,
        patterns: &[&P],
    ) -> Result<Vec<PreparedLoop>, EngineError> {
        patterns.iter().map(|p| self.prepare(*p)).collect()
    }

    /// Runs every job in `batch`, returning per-job results in submission
    /// order — sugar for [`SolveBatch::execute_all`].
    pub fn execute_all<L: DoacrossLoop + ?Sized>(
        &self,
        batch: SolveBatch<'_, L>,
    ) -> Vec<Result<RunStats, EngineError>> {
        batch.execute_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{AccessPattern, DoacrossError, TestLoop};

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = Engine::builder().workers(2).build();
        // The default loop-type parameter: a heterogeneous (dyn) batch.
        let batch: SolveBatch<'_> = engine.batch();
        assert!(batch.is_empty());
        assert_eq!(batch.execute_all().len(), 0);
    }

    #[test]
    fn batched_results_match_serial_executes_bit_for_bit() {
        let engine = Engine::builder().workers(2).build();
        // Mixed sizes: small loops plan sequential (coalesced), larger
        // ones plan parallel variants (direct path).
        let loops: Vec<TestLoop> = (0..6)
            .map(|k| TestLoop::new(if k % 2 == 0 { 40 + k } else { 700 + 40 * k }, 2, 8))
            .collect();
        let prepared: Vec<_> = loops.iter().map(|l| engine.prepare(l).unwrap()).collect();

        // Serial oracle: one execute per job, in order.
        let mut serial: Vec<Vec<f64>> = loops.iter().map(|l| l.initial_y()).collect();
        for ((p, l), y) in prepared.iter().zip(&loops).zip(&mut serial) {
            p.execute(l, y).unwrap();
        }

        let mut batched: Vec<Vec<f64>> = loops.iter().map(|l| l.initial_y()).collect();
        let mut batch = engine.batch();
        for ((p, l), y) in prepared.iter().zip(&loops).zip(&mut batched) {
            batch.submit(p, l, y);
        }
        assert_eq!(batch.len(), loops.len());
        let results = batch.execute_all();
        assert_eq!(results.len(), loops.len());
        for (i, r) in results.iter().enumerate() {
            let stats = r.as_ref().unwrap();
            assert_eq!(stats.iterations, loops[i].iterations());
        }
        assert_eq!(batched, serial, "batched execution diverged from serial");
    }

    #[test]
    fn stale_handle_in_a_pending_batch_fails_typed_and_never_executes() {
        let engine = Engine::builder().workers(2).build();
        let small = TestLoop::new(40, 1, 7);
        let live = TestLoop::new(50, 1, 7);
        let stale_prepared = engine.prepare(&small).unwrap();
        let live_prepared = engine.prepare(&live).unwrap();

        let mut y_stale = small.initial_y();
        let y_stale_before = y_stale.clone();
        let mut y_live = live.initial_y();
        let mut batch = engine.batch();
        batch.submit(&stale_prepared, &small, &mut y_stale);
        batch.submit(&live_prepared, &live, &mut y_live);

        // Invalidate while the batch is queued: the flush must catch it.
        assert!(engine.invalidate(stale_prepared.fingerprint()));
        let results = batch.execute_all();
        assert!(matches!(
            results[0],
            Err(EngineError::StalePlan {
                prepared_generation: 0,
                current_generation: 1,
                ..
            })
        ));
        assert_eq!(y_stale, y_stale_before, "stale job must never execute");
        results[1].as_ref().unwrap();
        let mut oracle = live.initial_y();
        run_sequential(&live, &mut oracle);
        assert_eq!(y_live, oracle, "live job unaffected by its stale neighbor");
    }

    #[test]
    fn mismatched_buffer_fails_its_job_only() {
        let engine = Engine::builder().workers(2).build();
        let loop_ = TestLoop::new(40, 1, 7);
        let prepared = engine.prepare(&loop_).unwrap();
        let mut short = vec![0.0; 3];
        let mut ok = loop_.initial_y();
        let mut batch = engine.batch();
        batch.submit(&prepared, &loop_, &mut short);
        batch.submit(&prepared, &loop_, &mut ok);
        let results = batch.execute_all();
        assert!(matches!(
            results[0],
            Err(EngineError::Doacross(DoacrossError::DataLenMismatch {
                got: 3,
                ..
            }))
        ));
        results[1].as_ref().unwrap();
    }
}
