//! The region context: everything a parallel region needs besides its
//! data.
//!
//! The paper reuses one set of scratch arrays "for multiple preprocessed
//! doacross loops" (§2.1); this module does the same for the loop-control
//! bookkeeping around them. A caller names the pool and, optionally, a
//! profiler arena ([`Region`]); a runtime adds its schedule, wait policy
//! and reusable stats sink, and captures the region's poison word,
//! deadline and armed failpoint action once, before dispatch
//! ([`RegionCtx`]). Every executor, the post phase and every runtime
//! takes that one context, so the per-iteration fault check, the guarded
//! flag wait, the barrier crossing and the "deposit partial counters,
//! then abort" sequence are each written exactly once, here.

use crate::flags::ReadyFlags;
use crate::runtime::DoacrossConfig;
use crate::stats::{LocalCounters, StatsSink};
use doacross_obs::profile::{ProfArena, SpanKind, NO_LEVEL};
use doacross_par::{
    abort_region, RegionPoison, Schedule, SpinBarrier, ThreadPool, WaitAbort, WaitStrategy,
};
use failpoint::FailAction;
use std::sync::Arc;
use std::time::Instant;

/// Iterations between deadline clock reads in an executor body (power of
/// two). Waits check the deadline themselves; this catches regions that
/// are slow while *making* progress, so a wedged solve still times out
/// even when no wait ever stalls.
pub(crate) const DEADLINE_ITER_PERIOD: u64 = 64;

/// The caller's half of a region context: the pool a runtime dispatches
/// on and, optionally, the profiler arena its workers deposit spans into.
///
/// Every runtime entry point takes `impl Into<Region>`, and a
/// `&ThreadPool` (or `&Arc<ThreadPool>`) converts into an unprofiled
/// region, so plain callers pass their pool as before:
///
/// ```
/// use doacross_core::{Doacross, IndirectLoop, Region};
/// use doacross_par::ThreadPool;
///
/// let l = IndirectLoop::new(2, vec![1], vec![vec![0]], vec![vec![1.0]]).unwrap();
/// let pool = ThreadPool::new(2);
/// let mut rt = Doacross::for_loop(&l);
/// let mut y = vec![1.0, 1.0];
/// rt.run(&pool, &l, &mut y).unwrap();
/// rt.run(Region::new(&pool).profiled(None), &l, &mut y).unwrap();
/// assert_eq!(y, vec![1.0, 3.0]);
/// ```
#[derive(Clone, Copy)]
pub struct Region<'a> {
    pub(crate) pool: &'a ThreadPool,
    prof: Option<&'a ProfArena>,
}

impl<'a> Region<'a> {
    /// An unprofiled region on `pool`.
    pub fn new(pool: &'a ThreadPool) -> Self {
        Self { pool, prof: None }
    }

    /// The same region, depositing spans into `arena` when one is given.
    /// `None` keeps the unprofiled code paths: one branch per would-be
    /// span site, no clock reads.
    pub fn profiled(self, arena: Option<&'a ProfArena>) -> Self {
        Self {
            prof: arena,
            ..self
        }
    }

    /// The profiler arena, if spans are being recorded.
    pub fn arena(&self) -> Option<&'a ProfArena> {
        self.prof
    }
}

impl<'a> From<&'a ThreadPool> for Region<'a> {
    fn from(pool: &'a ThreadPool) -> Self {
        Self::new(pool)
    }
}

impl<'a> From<&'a Arc<ThreadPool>> for Region<'a> {
    fn from(pool: &'a Arc<ThreadPool>) -> Self {
        Self::new(pool)
    }
}

/// A runtime's full region context: the caller's [`Region`] plus the
/// runtime's schedule, wait policy and stats sink, and the fault state
/// captured before dispatch. Per-iteration checks then touch only this
/// context and one shared read-mostly atomic (the poison word).
pub(crate) struct RegionCtx<'a> {
    pub(crate) pool: &'a ThreadPool,
    pub(crate) schedule: Schedule,
    pub(crate) sink: &'a StatsSink,
    prof: Option<&'a ProfArena>,
    wait: WaitStrategy,
    poison: &'a RegionPoison,
    deadline: Option<Instant>,
    failpoint: Option<FailAction>,
}

impl<'a> RegionCtx<'a> {
    /// Captures the context for regions on `region`'s pool under `config`
    /// (its schedule and wait policy), growing the runtime's reusable
    /// `sink` to a cell per pool worker. `failpoint_site` names the
    /// fault-injection site whose armed action, if any, applies per
    /// iteration.
    pub(crate) fn new(
        region: Region<'a>,
        config: &DoacrossConfig,
        sink: &'a mut StatsSink,
        failpoint_site: &'static str,
    ) -> Self {
        let pool = region.pool;
        sink.ensure_workers(pool.threads());
        Self {
            pool,
            schedule: config.schedule,
            sink,
            prof: region.prof,
            wait: config.wait,
            poison: pool.poison(),
            deadline: pool.deadline(),
            failpoint: failpoint::lookup(failpoint_site),
        }
    }

    /// Number of workers a region dispatches.
    #[inline]
    pub(crate) fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The per-iteration fault check, run before iteration `i`'s body by
    /// the worker that claimed it (`executed` counts that worker's
    /// iterations so far, this one included): fires the armed failpoint
    /// action, stops claiming work once a sibling has faulted (its flags
    /// may never be published), and reads the deadline clock every
    /// [`DEADLINE_ITER_PERIOD`] iterations.
    #[inline(always)]
    pub(crate) fn check_iteration(
        &self,
        worker: usize,
        i: usize,
        executed: u64,
        local: &mut LocalCounters,
    ) {
        failpoint::hit(self.failpoint, i as u64);
        if let Some(fault) = self.poison.fault() {
            self.abort(worker, *local, WaitAbort::Poisoned(fault));
        }
        if let Some(deadline) = self.deadline {
            if executed.is_multiple_of(DEADLINE_ITER_PERIOD) && Instant::now() >= deadline {
                self.abort(worker, *local, WaitAbort::DeadlineExpired);
            }
        }
    }

    /// Deposits the worker's partial counters, so the fault observer sees
    /// its progress (ordered by the poison word's release/acquire), then
    /// unwinds the region. The counters arrive by value: a reference
    /// escaping into this out-of-line call would pin the caller's
    /// per-iteration counters to memory.
    #[cold]
    #[inline(never)]
    pub(crate) fn abort(&self, worker: usize, local: LocalCounters, why: WaitAbort) -> ! {
        self.sink.deposit(worker, local);
        abort_region(self.poison, why)
    }

    /// Resolves a true dependency on `slot`: returns at once when the
    /// writer already published `ready(slot)`, the fast path that reads no
    /// clock and makes no call. Otherwise counts one stall and its polls
    /// into `local` (see [`Self::stall`]).
    #[inline(always)]
    pub(crate) fn wait_flag(
        &self,
        worker: usize,
        local: &mut LocalCounters,
        ready: &ReadyFlags,
        slot: usize,
    ) {
        if !ready.is_done(slot) {
            let polls = self.stall(worker, *local, ready, slot);
            local.stalls += 1;
            local.wait_polls += polls;
        }
    }

    /// The stall path of [`Self::wait_flag`], out of line so the
    /// per-iteration path stays small: waits for `ready(slot)` guarded by
    /// the poison word and deadline, and returns the failed polls, the
    /// first one included. When profiling, records one
    /// [`SpanKind::FlagWait`] span (`aux` = polls). `local` is a copy of
    /// the worker's counters, deposited if the wait aborts.
    #[inline(never)]
    fn stall(&self, worker: usize, local: LocalCounters, ready: &ReadyFlags, slot: usize) -> u64 {
        let started = self.span_start();
        let waited =
            self.wait
                .wait_until_guarded(|| ready.is_done(slot), self.poison, self.deadline);
        let polls = match waited {
            Ok(misses) => misses + 1,
            Err(abort) => self.abort(worker, local, abort),
        };
        if let (Some(arena), Some(started)) = (self.prof, started) {
            let end = arena.now_ns();
            arena.record(
                worker,
                SpanKind::FlagWait,
                NO_LEVEL,
                started,
                end.saturating_sub(started),
                polls,
            );
        }
        polls
    }

    /// Crosses `barrier` after `level`, guarded by the poison word and
    /// deadline; when profiling, records one [`SpanKind::BarrierWait`]
    /// span stamped with `level`.
    #[inline]
    pub(crate) fn cross_barrier(
        &self,
        worker: usize,
        local: &mut LocalCounters,
        barrier: &SpinBarrier,
        level: u32,
    ) {
        match self.prof {
            None => {
                if let Err(abort) = barrier.wait_guarded(self.poison, self.deadline) {
                    self.abort(worker, *local, abort);
                }
            }
            Some(arena) => match barrier.wait_guarded_timed(self.poison, self.deadline) {
                Ok((_leader, wait_ns)) => {
                    let end = arena.now_ns();
                    arena.record(
                        worker,
                        SpanKind::BarrierWait,
                        level,
                        end.saturating_sub(wait_ns),
                        wait_ns,
                        0,
                    );
                }
                Err(abort) => self.abort(worker, *local, abort),
            },
        }
    }

    /// Start timestamp of a work span, or `None` when not profiling.
    #[inline]
    pub(crate) fn span_start(&self) -> Option<u64> {
        self.prof.map(|arena| arena.now_ns())
    }

    /// Records one [`SpanKind::Work`] span from `started` (see
    /// [`Self::span_start`]) to now on `worker`'s track, stamped with
    /// `level`; `aux` = iterations executed.
    #[inline]
    pub(crate) fn record_work(&self, worker: usize, level: u32, started: Option<u64>, aux: u64) {
        if let (Some(arena), Some(started)) = (self.prof, started) {
            let end = arena.now_ns();
            arena.record(
                worker,
                SpanKind::Work,
                level,
                started,
                end.saturating_sub(started),
                aux,
            );
        }
    }
}
