//! The postprocessor (paper Figure 3, right).
//!
//! ```fortran
//! parallel do i = 1, N
//!     iter(a(i))  = MAXINT
//!     ready(a(i)) = NOTDONE
//!     yold(a(i))  = ynew(a(i))
//! end parallel do
//! ```
//!
//! Restores the scratch-array reuse invariant (`iter` all `MAXINT`, `ready`
//! all `NOTDONE`) by touching exactly the elements this loop instance
//! wrote — O(N) work instead of O(data_len) — and copies the freshly
//! computed values back into `y`. Like the inspector, it is a doall:
//! distinct iterations touch distinct elements because `a` is injective.

use crate::executor::Pass;
use crate::pattern::AccessPattern;
use crate::region::RegionCtx;
use doacross_par::{parallel_for, SharedSlice};

/// Runs postprocessing for `pass`: for each iteration's `lhs` element,
/// clears the `iter` entry (when the pass owns a map to clear), resets the
/// `ready` flag (both window-relative), and copies `ynew` back into `y`
/// unless `pass.copy_back` is off (solvers that consume the shadow array
/// directly).
pub(crate) fn run_post<P: AccessPattern + ?Sized>(
    ctx: &RegionCtx<'_>,
    pattern: &P,
    pass: &Pass<'_>,
    y: SharedSlice<'_, f64>,
) {
    let base = pass.iters.start;
    let (window_start, ready, ynew) = (pass.window_start, pass.ready, pass.ynew);
    parallel_for(ctx.pool, pass.iters.len(), ctx.schedule, |k| {
        let i = base + k;
        let elem = pattern.lhs(i);
        let slot = elem - window_start;
        if let Some(map) = pass.clear {
            map.clear(slot);
        }
        ready.reset(slot);
        if pass.copy_back {
            // SAFETY: distinct iterations have distinct `lhs` elements
            // (injective `a`, verified by the inspector), so writes to `y`
            // are disjoint; `ynew[slot]` was completed in the executor
            // region, ordered by the pool join.
            unsafe { y.write(elem, ynew.read(slot)) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{IterMap, ReadyFlags, MAXINT};
    use crate::pattern::IndirectLoop;
    use crate::region::Region;
    use crate::runtime::DoacrossConfig;
    use crate::stats::StatsSink;
    use doacross_par::ThreadPool;

    /// Runs `run_post` for `pass` on a fresh default-config context.
    fn post(pool: &ThreadPool, l: &IndirectLoop, pass: &Pass<'_>, y: &mut [f64]) {
        let mut sink = StatsSink::new(0);
        let config = DoacrossConfig::default();
        let ctx = RegionCtx::new(Region::new(pool), &config, &mut sink, "core::post::test");
        run_post(&ctx, l, pass, SharedSlice::new(y));
    }

    fn loop_with_lhs(a: Vec<usize>, data_len: usize) -> IndirectLoop {
        let n = a.len();
        IndirectLoop::new(data_len, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
    }

    #[test]
    fn restores_invariant_and_copies_back() {
        let pool = ThreadPool::new(3);
        let l = loop_with_lhs(vec![1, 3, 4], 6);
        let map = IterMap::new(6);
        let ready = ReadyFlags::new(6);
        // Simulate a completed executor run.
        for (i, &e) in [1usize, 3, 4].iter().enumerate() {
            map.record(e, i);
            ready.mark_done(e);
        }
        let mut y = vec![0.0; 6];
        let mut ynew = vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        let pass = Pass {
            iters: 0..3,
            order: None,
            ynew: SharedSlice::new(&mut ynew),
            ready: &ready,
            window_start: 0,
            clear: Some(&map),
            copy_back: true,
        };
        post(&pool, &l, &pass, &mut y);
        assert!(map.all_clear());
        assert!(ready.all_clear());
        assert_eq!(y, vec![0.0, 11.0, 0.0, 13.0, 14.0, 0.0]);
    }

    #[test]
    fn no_copy_back_leaves_y_untouched() {
        let pool = ThreadPool::new(2);
        let l = loop_with_lhs(vec![0, 1], 2);
        let ready = ReadyFlags::new(2);
        ready.mark_done(0);
        ready.mark_done(1);
        let mut y = vec![7.0, 8.0];
        let mut ynew = vec![1.0, 2.0];
        let pass = Pass {
            iters: 0..2,
            order: None,
            ynew: SharedSlice::new(&mut ynew),
            ready: &ready,
            window_start: 0,
            clear: None,
            copy_back: false,
        };
        post(&pool, &l, &pass, &mut y);
        assert_eq!(y, vec![7.0, 8.0]);
        assert!(ready.all_clear());
    }

    #[test]
    fn windowed_post_uses_relative_slots() {
        let pool = ThreadPool::new(2);
        let l = loop_with_lhs(vec![10, 11], 16);
        let map = IterMap::new(2);
        let ready = ReadyFlags::new(2);
        map.record(0, 0);
        map.record(1, 1);
        ready.mark_done(0);
        ready.mark_done(1);
        let mut y = vec![0.0; 16];
        let mut ynew = vec![5.0, 6.0];
        let pass = Pass {
            iters: 0..2,
            order: None,
            ynew: SharedSlice::new(&mut ynew),
            ready: &ready,
            window_start: 10,
            clear: Some(&map),
            copy_back: true,
        };
        post(&pool, &l, &pass, &mut y);
        assert_eq!(y[10], 5.0);
        assert_eq!(y[11], 6.0);
        assert!(map.all_clear());
        assert_eq!(map.writer(0), MAXINT);
    }

    #[test]
    fn partial_range_resets_only_its_elements() {
        let pool = ThreadPool::new(2);
        let l = loop_with_lhs(vec![0, 1, 2], 3);
        let map = IterMap::new(3);
        let ready = ReadyFlags::new(3);
        for e in 0..3 {
            map.record(e, e);
            ready.mark_done(e);
        }
        let mut y = vec![0.0; 3];
        let mut ynew = vec![1.0, 2.0, 3.0];
        let pass = Pass {
            iters: 0..2,
            order: None,
            ynew: SharedSlice::new(&mut ynew),
            ready: &ready,
            window_start: 0,
            clear: Some(&map),
            copy_back: true,
        };
        post(&pool, &l, &pass, &mut y);
        assert_eq!(map.writer(2), 2, "iteration 2's entry untouched");
        assert!(ready.is_done(2));
        assert_eq!(y, vec![1.0, 2.0, 0.0]);
    }
}
