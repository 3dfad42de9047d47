//! [`SequentialGuard`]: the paper's comparison — the preprocessed loop
//! against `T_seq` — made at run time, once per plan.
//!
//! The planner's choice is a prediction from a cost model whose constants
//! may be far from the host's. The guard checks it against measurement:
//! the first [`GUARD_WINDOW`] successful solves of a parallel plan each
//! also time the plain sequential loop on the same input, and when the
//! window closes the two minima are compared. If the sequential loop is
//! as fast or faster (ties go sequential, as in the planner), the plan is
//! **demoted**: every later solve runs the sequential loop instead. The
//! verdict is final for the plan instance; a replaced plan (a rebuild,
//! a decoded store record) carries a fresh guard and starts over.
//!
//! The guard lives on the shared [`crate::ExecutionPlan`], so every
//! handle to a plan reads its verdict with one atomic load. It never
//! changes which plan is cached: the sequential schedule is sound for
//! every plan, so a demotion retires no handle.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Successful solves per parallel plan that also time the sequential loop
/// before the verdict lands.
pub const GUARD_WINDOW: u32 = 8;

const TRIAL: u8 = 0;
const KEPT: u8 = 1;
const DEMOTED: u8 = 2;

/// Where a plan's guard stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardState {
    /// The window is open: solves run the plan's variant and also time
    /// the sequential loop.
    Trial,
    /// The plan's variant beat the sequential loop; no more probes.
    Kept,
    /// The sequential loop was as fast or faster; solves run it instead.
    Demoted,
}

/// The closing measurement of a guard window, handed to exactly one
/// caller — the one whose sample completed the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardVerdict {
    /// Whether the plan was demoted to the sequential loop.
    pub demoted: bool,
    /// Fastest parallel solve in the window, nanoseconds.
    pub parallel_min_ns: u64,
    /// Fastest sequential probe in the window, nanoseconds.
    pub sequential_min_ns: u64,
}

/// A plan's measured sequential guard (see module docs). Lock-free:
/// concurrent solves of one plan record samples without coordination.
#[derive(Debug)]
pub struct SequentialGuard {
    state: AtomicU8,
    /// Window slots handed out; samples past [`GUARD_WINDOW`] are dropped,
    /// so the minima are exactly those of the window.
    claimed: AtomicU32,
    /// Samples folded into the minima; the one reaching the window size
    /// decides.
    recorded: AtomicU32,
    parallel_min_ns: AtomicU64,
    sequential_min_ns: AtomicU64,
}

impl Default for SequentialGuard {
    fn default() -> Self {
        Self {
            state: AtomicU8::new(TRIAL),
            claimed: AtomicU32::new(0),
            recorded: AtomicU32::new(0),
            parallel_min_ns: AtomicU64::new(u64::MAX),
            sequential_min_ns: AtomicU64::new(u64::MAX),
        }
    }
}

impl SequentialGuard {
    /// The current state — one atomic load.
    #[inline]
    pub fn state(&self) -> GuardState {
        match self.state.load(Ordering::Acquire) {
            TRIAL => GuardState::Trial,
            KEPT => GuardState::Kept,
            _ => GuardState::Demoted,
        }
    }

    /// Samples recorded so far (at most [`GUARD_WINDOW`]).
    pub fn samples(&self) -> u32 {
        self.recorded.load(Ordering::Acquire)
    }

    /// Fastest parallel solve recorded, if any.
    pub fn parallel_min_ns(&self) -> Option<u64> {
        Some(self.parallel_min_ns.load(Ordering::Acquire)).filter(|&ns| ns != u64::MAX)
    }

    /// Fastest sequential probe recorded, if any.
    pub fn sequential_min_ns(&self) -> Option<u64> {
        Some(self.sequential_min_ns.load(Ordering::Acquire)).filter(|&ns| ns != u64::MAX)
    }

    /// Folds one successful trial solve — the parallel solve's time and
    /// the sequential probe's on the same input — into the window.
    /// Returns the verdict to the caller whose sample closed the window,
    /// `None` to everyone else (including samples that arrive after it
    /// closed, which are dropped).
    pub fn record(&self, parallel_ns: u64, sequential_ns: u64) -> Option<GuardVerdict> {
        if self.claimed.fetch_add(1, Ordering::AcqRel) >= GUARD_WINDOW {
            return None;
        }
        self.parallel_min_ns
            .fetch_min(parallel_ns, Ordering::AcqRel);
        self.sequential_min_ns
            .fetch_min(sequential_ns, Ordering::AcqRel);
        // The counter's read-modify-write chain orders every earlier
        // sample's minima before the closing caller's loads below.
        if self.recorded.fetch_add(1, Ordering::AcqRel) + 1 != GUARD_WINDOW {
            return None;
        }
        let parallel_min_ns = self.parallel_min_ns.load(Ordering::Acquire);
        let sequential_min_ns = self.sequential_min_ns.load(Ordering::Acquire);
        // Ties go sequential: the parallel plan must strictly win.
        let demoted = sequential_min_ns <= parallel_min_ns;
        self.state
            .store(if demoted { DEMOTED } else { KEPT }, Ordering::Release);
        Some(GuardVerdict {
            demoted,
            parallel_min_ns,
            sequential_min_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_closes_once_and_ties_go_sequential() {
        let guard = SequentialGuard::default();
        assert_eq!(guard.state(), GuardState::Trial);
        assert_eq!(guard.parallel_min_ns(), None);
        for k in 1..GUARD_WINDOW {
            assert_eq!(guard.record(100 + k as u64, 50 + k as u64), None);
        }
        assert_eq!(guard.state(), GuardState::Trial);
        let verdict = guard.record(40, 40).expect("the last sample decides");
        assert_eq!(
            verdict,
            GuardVerdict {
                demoted: true,
                parallel_min_ns: 40,
                sequential_min_ns: 40,
            }
        );
        assert_eq!(guard.state(), GuardState::Demoted);
        // Late samples are dropped: the minima stay those of the window.
        assert_eq!(guard.record(1, 1_000), None);
        assert_eq!(guard.parallel_min_ns(), Some(40));
        assert_eq!(guard.samples(), GUARD_WINDOW);
    }

    #[test]
    fn a_strictly_faster_parallel_minimum_keeps_the_plan() {
        let guard = SequentialGuard::default();
        let mut verdicts = (0..GUARD_WINDOW).filter_map(|_| guard.record(30, 31));
        let verdict = verdicts.next().expect("window closed");
        assert!(!verdict.demoted);
        assert_eq!(verdicts.next(), None);
        assert_eq!(guard.state(), GuardState::Kept);
    }

    #[test]
    fn concurrent_samples_yield_exactly_one_verdict() {
        let guard = SequentialGuard::default();
        let verdicts: u32 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let guard = &guard;
                    s.spawn(move || {
                        (0..GUARD_WINDOW)
                            .filter(|k| guard.record(10 + t + *k as u64, 20).is_some())
                            .count() as u32
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(verdicts, 1);
        assert_eq!(guard.samples(), GUARD_WINDOW);
        assert_eq!(guard.state(), GuardState::Kept);
    }
}
