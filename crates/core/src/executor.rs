//! The executor: the doacross proper (paper Figure 5).
//!
//! Each pool worker self-schedules iterations (default: one at a time, the
//! Multimax policy) and runs, per iteration `i`:
//!
//! ```text
//! S2      acc = init(i, y[a(i)])
//!         do j = 0, terms(i)-1
//!             off   = term_element(i, j)
//!             check = iter(off) - i            // via the WriterOracle
//! S3/S4/S5    if check < 0:  wait until ready(off) == DONE; operand = ynew(off)
//! S6/S7       if check > 0:  operand = y(off)
//! S8          if check == 0: operand = acc     // intra-iteration
//!             acc = combine(i, j, acc, operand)
//!         end do
//!         ynew(a(i)) = acc
//!         ready(a(i)) = DONE                   // release store
//! ```
//!
//! Memory-ordering argument: the only cross-thread data hand-off is
//! `ynew(off)` guarded by `ready(off)`; [`ReadyFlags::mark_done`] is a
//! release store and the wait loop polls with acquire loads, so the
//! writer's plain `ynew` store happens-before the reader's plain load.
//! `y` is read-only for the whole region, and each `ynew` element has
//! exactly one writer (injective `a`, enforced by the inspector).
//!
//! Progress argument: waits only target strictly earlier iterations
//! (`check < 0`), and every [`doacross_par::Schedule`] enumerates each worker's
//! iterations in increasing global order, so the lowest-numbered pending
//! iteration can always run to completion — no deadlock, for any schedule
//! and any dependence pattern the inspector admits.
//!
//! Fault containment: a worker panic poisons the region, and the
//! survivors must not wait forever for flags it will never publish. The
//! per-iteration check (armed failpoint, poison word, a deadline read every
//! `DEADLINE_ITER_PERIOD` iterations), the guarded flag wait and the
//! "deposit partial counters, then abort" sequence all live in one place,
//! the region context ([`crate::region`]), which captures the poison word,
//! deadline and failpoint action once before dispatch. This executor and
//! the wavefront executor call the same methods.

use crate::flags::{IterMap, ReadyFlags};
use crate::oracle::WriterOracle;
use crate::pattern::DoacrossLoop;
use crate::region::RegionCtx;
use crate::stats::LocalCounters;
use doacross_obs::profile::NO_LEVEL;
use doacross_par::SharedSlice;
use std::ops::Range;
use std::sync::atomic::AtomicUsize;

/// Fault-injection site consulted once per executor region; armed actions
/// apply per iteration (see the `failpoint` crate's hot-path discipline).
pub(crate) const FAILPOINT_ITER: &str = "core::executor::iter";

/// What one flat exec → post pass runs over: an iteration range, its
/// claim order, and the scratch window it publishes into.
pub(crate) struct Pass<'p> {
    /// Iterations the pass covers.
    pub(crate) iters: Range<usize>,
    /// When present, a permutation of the whole iteration space: the
    /// `k`-th *claimed* slot executes original iteration `order[k]`. This
    /// is the doconsider "rearranged iterations" mechanism of §3.2 —
    /// dependence classification still uses original iteration numbers,
    /// so semantics are unchanged; only the claim order (and hence waiting
    /// behaviour) differs. It must be a topological order of the true
    /// dependencies or the executor may livelock (the runtimes check it
    /// with `validate_order`).
    pub(crate) order: Option<&'p [usize]>,
    /// The shadow array, holding elements `window_start ..
    /// window_start + ynew.len()`.
    pub(crate) ynew: SharedSlice<'p, f64>,
    /// The `ready` flags over the same window.
    pub(crate) ready: &'p ReadyFlags,
    /// First data element the window covers.
    pub(crate) window_start: usize,
    /// The writer map the post phase clears: the runtime's own scratch
    /// map, or `None` when the oracle reads a prebuilt map that must
    /// survive the run.
    pub(crate) clear: Option<&'p IterMap>,
    /// Whether the post phase copies `ynew` back into `y`.
    pub(crate) copy_back: bool,
}

/// Runs the doacross executor over `pass`.
///
/// * `oracle` answers "which iteration writes element e" (inspector map or
///   linear-subscript arithmetic).
/// * `y` is the full data array (read-only during this region).
/// * Executor-side counters land in the context's sink, one cell per
///   worker.
///
/// With a profiler arena in the context, each worker records one
/// `SpanKind::Work` span covering its share of the region (`aux` =
/// iterations executed, actual stalls nested inside) plus one
/// `SpanKind::FlagWait` span per stall (`aux` = poll count), so span
/// counts reconcile exactly with `RunStats`' `stalls` and the span `aux`
/// totals with `wait_polls`.
///
/// Bounds are enforced with release-mode asserts: the inspector already
/// validated the left-hand sides (and, in full-validation mode, the
/// right-hand sides), so these asserts are a final defense rather than the
/// primary check.
pub(crate) fn run_executor<L, W>(
    ctx: &RegionCtx<'_>,
    loop_: &L,
    pass: &Pass<'_>,
    oracle: &W,
    y: SharedSlice<'_, f64>,
) where
    L: DoacrossLoop + ?Sized,
    W: WriterOracle,
{
    let nworkers = ctx.threads();
    let base = pass.iters.start;
    let count = pass.iters.len();
    if count == 0 {
        return;
    }
    let counter = AtomicUsize::new(0);
    let data_len = loop_.data_len();
    let (order, ynew, ready, window_start) = (pass.order, pass.ynew, pass.ready, pass.window_start);
    let window_len = ynew.len();
    let schedule = ctx.schedule;

    ctx.pool.run(|worker| {
        let mut local = LocalCounters::default();
        let mut executed: u64 = 0;
        let work_started = ctx.span_start();
        schedule.drive(worker, nworkers, count, &counter, |k| {
            let i = match order {
                Some(ord) => ord[base + k],
                None => base + k,
            };
            executed += 1;
            ctx.check_iteration(worker, i, executed, &mut local);
            let lhs = loop_.lhs(i);
            assert!(lhs < data_len, "executor: lhs {lhs} out of bounds");
            let lhs_slot = lhs - window_start;
            assert!(lhs_slot < window_len, "executor: lhs {lhs} escapes window");

            // S2: seed from the old value of the output element.
            // SAFETY: y is read-only during the region; bounds asserted.
            let mut acc = loop_.init(i, unsafe { y.read(lhs) });

            let iv = i as i64;
            for j in 0..loop_.terms(i) {
                let off = loop_.term_element(i, j);
                assert!(off < data_len, "executor: term {off} out of bounds");
                let writer = oracle.writer(off);
                let operand = if writer < iv {
                    // S3–S5: true dependency on an earlier iteration.
                    local.true_deps += 1;
                    let slot = off - window_start;
                    ctx.wait_flag(worker, &mut local, ready, slot);
                    // SAFETY: the acquire in `is_done` pairs with the
                    // writer's release in `mark_done`; `ynew[slot]` was
                    // stored before that release.
                    unsafe { ynew.read(slot) }
                } else if writer == iv {
                    // S8: intra-iteration reference — the element being
                    // accumulated is `lhs` itself (injective `a`), so serve
                    // it from the register accumulator.
                    local.intra += 1;
                    debug_assert_eq!(off, lhs, "iter({off}) == {i} but lhs is {lhs}");
                    acc
                } else {
                    // S6–S7: antidependency or never-written element — old
                    // value.
                    local.anti_or_unwritten += 1;
                    // SAFETY: y is read-only during the region.
                    unsafe { y.read(off) }
                };
                acc = loop_.combine(i, j, acc, operand);
            }

            // SAFETY: `lhs_slot` has this iteration as its unique writer.
            unsafe { ynew.write(lhs_slot, loop_.finish(i, acc)) };
            ready.mark_done(lhs_slot);
        });
        ctx.record_work(worker, NO_LEVEL, work_started, executed);
        ctx.sink.deposit(worker, local);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspector::run_inspector;
    use crate::oracle::InspectedWriter;
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::region::Region;
    use crate::runtime::DoacrossConfig;
    use crate::seq::run_sequential;
    use crate::stats::{RunStats, StatsSink};
    use doacross_par::{Schedule, ThreadPool};

    /// Full manual pipeline (inspector + executor, no postprocessing) so the
    /// executor can be probed in isolation.
    fn execute(
        loop_: &IndirectLoop,
        y: &[f64],
        workers: usize,
        schedule: Schedule,
    ) -> (Vec<f64>, RunStats) {
        let pool = ThreadPool::new(workers);
        let dl = loop_.data_len();
        let map = IterMap::new(dl);
        let ready = ReadyFlags::new(dl);
        run_inspector(
            &pool,
            schedule,
            loop_,
            0..loop_.iterations(),
            0..dl,
            &map,
            true,
        )
        .unwrap();
        let mut y_buf = y.to_vec();
        let mut ynew_buf = vec![0.0; dl];
        let mut sink = StatsSink::new(workers);
        let config = DoacrossConfig {
            schedule,
            ..DoacrossConfig::default()
        };
        let ctx = RegionCtx::new(Region::new(&pool), &config, &mut sink, FAILPOINT_ITER);
        let pass = Pass {
            iters: 0..loop_.iterations(),
            order: None,
            ynew: SharedSlice::new(&mut ynew_buf),
            ready: &ready,
            window_start: 0,
            clear: None,
            copy_back: false,
        };
        let oracle = InspectedWriter::new(&map, 0..dl);
        run_executor(&ctx, loop_, &pass, &oracle, SharedSlice::new(&mut y_buf));
        // Manual copy-back (postprocessing's job).
        for i in 0..loop_.iterations() {
            let e = loop_.lhs(i);
            y_buf[e] = ynew_buf[e];
        }
        let mut stats = RunStats {
            workers,
            iterations: loop_.iterations(),
            ..Default::default()
        };
        sink.drain_into(&mut stats);
        (y_buf, stats)
    }

    fn oracle_result(loop_: &IndirectLoop, y: &[f64]) -> Vec<f64> {
        let mut out = y.to_vec();
        run_sequential(loop_, &mut out);
        out
    }

    #[test]
    fn true_dependency_chain_matches_sequential() {
        // y[i+1] += y[i]: a fully serial chain — the stress case for the
        // ready/wait protocol.
        let n = 400;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let l = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let y0 = vec![1.0; n + 1];
        let expect = oracle_result(&l, &y0);
        for workers in [1, 2, 4] {
            let (got, stats) = execute(&l, &y0, workers, Schedule::multimax());
            assert_eq!(got, expect, "workers={workers}");
            // Iteration 0 reads element 0, which nobody writes (lhs starts
            // at 1); the other n-1 reads are true dependencies.
            assert_eq!(stats.deps.true_deps, (n - 1) as u64);
            assert_eq!(stats.deps.anti_or_unwritten, 1);
        }
    }

    #[test]
    fn antidependencies_read_old_values() {
        // Reverse chain: iteration i reads the element iteration i+1 writes,
        // so every read must see the ORIGINAL value.
        let n = 300;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1).min(n - 1)]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![2.0]; n]).unwrap();
        let y0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let expect = oracle_result(&l, &y0);
        for workers in [1, 3, 4] {
            let (got, stats) = execute(&l, &y0, workers, Schedule::multimax());
            assert_eq!(got, expect, "workers={workers}");
            assert!(stats.deps.anti_or_unwritten >= (n as u64) - 1);
        }
    }

    #[test]
    fn intra_iteration_reference_uses_accumulator() {
        // Each iteration reads its own output element twice.
        let n = 50;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i, i]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0, 1.0]; n]).unwrap();
        let y0 = vec![1.0; n];
        let expect = oracle_result(&l, &y0);
        let (got, stats) = execute(&l, &y0, 4, Schedule::multimax());
        assert_eq!(got, expect);
        assert_eq!(stats.deps.intra, 2 * n as u64);
        // 1 + 1 = 2, then 2 + 2 = 4.
        assert!(got.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn mixed_pattern_matches_sequential_under_all_schedules() {
        // Pseudo-random mix of true/anti/intra/none references.
        let n = 257;
        let dl = 2 * n;
        let a: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % dl).collect();
        // Make `a` injective by construction? (i*7+3) mod 2n with gcd(7,2n)
        // == 1 when n not divisible by 7 — 257 is prime and 2*257 = 514 =
        // 2 * 257; gcd(7, 514) = 1, so it is a permutation of a subset.
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| vec![(i * 13 + 1) % dl, (i * 5 + 11) % dl])
            .collect();
        let coeff: Vec<Vec<f64>> = (0..n).map(|i| vec![0.25 + (i % 3) as f64, 0.5]).collect();
        let l = IndirectLoop::new(dl, a, rhs, coeff).unwrap();
        let y0: Vec<f64> = (0..dl).map(|e| (e % 17) as f64 * 0.125).collect();
        let expect = oracle_result(&l, &y0);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 8 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let (got, _) = execute(&l, &y0, 4, schedule);
            assert_eq!(got, expect, "{schedule:?}");
        }
    }

    #[test]
    fn stats_classify_every_reference() {
        let n = 100;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i / 2, i]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0, 1.0]; n]).unwrap();
        let y0 = vec![1.0; n];
        let (_, stats) = execute(&l, &y0, 2, Schedule::multimax());
        assert_eq!(stats.deps.total(), 2 * n as u64, "every (i,j) classified");
    }

    #[test]
    fn empty_iteration_range_is_noop() {
        let l = IndirectLoop::new(4, vec![0], vec![vec![1]], vec![vec![1.0]]).unwrap();
        let pool = ThreadPool::new(2);
        let ready = ReadyFlags::new(4);
        let map = IterMap::new(4);
        let mut y = vec![0.0; 4];
        let mut ynew = vec![0.0; 4];
        let mut sink = StatsSink::new(2);
        let ctx = RegionCtx::new(
            Region::new(&pool),
            &DoacrossConfig::default(),
            &mut sink,
            FAILPOINT_ITER,
        );
        let pass = Pass {
            iters: 1..1,
            order: None,
            ynew: SharedSlice::new(&mut ynew),
            ready: &ready,
            window_start: 0,
            clear: None,
            copy_back: false,
        };
        let oracle = InspectedWriter::new(&map, 0..4);
        run_executor(&ctx, &l, &pass, &oracle, SharedSlice::new(&mut y));
        let mut stats = RunStats::default();
        sink.drain_into(&mut stats);
        assert_eq!(stats.deps.total(), 0);
    }
}
