//! Real-thread measurements on the host machine.
//!
//! The simulator (`doacross-sim`) extrapolates to the paper's 16
//! processors; these helpers measure the actual runtime (`doacross-core`,
//! `doacross-trisolve`) with host threads at host core counts, so every
//! experiment binary can print both and the reader can check that the
//! direction of every effect (reordering wins, odd-L beats adjacent
//! even-L, M=5 beats M=1) also holds on real hardware.

use doacross_core::{seq::run_sequential, Doacross, LinearDoacross, TestLoop};
use doacross_par::ThreadPool;
use doacross_sparse::TriSystem;
use doacross_trisolve::{seq::time_sequential, SolvePlan, TriSolveLoop};
use std::time::{Duration, Instant};

/// A host-measured sequential/parallel pair.
#[derive(Debug, Clone)]
pub struct HostMeasurement {
    /// Pool workers used.
    pub workers: usize,
    /// Best-of-reps sequential wall time.
    pub t_seq: Duration,
    /// Best-of-reps parallel wall time.
    pub t_par: Duration,
    /// `T_seq / (p · T_par)`.
    pub efficiency: f64,
}

fn best_of<F: FnMut() -> Duration>(reps: usize, mut f: F) -> Duration {
    (0..reps.max(1)).map(|_| f()).min().expect("reps >= 1")
}

impl HostMeasurement {
    fn from_times(workers: usize, t_seq: Duration, t_par: Duration) -> Self {
        let eff = if t_par.as_secs_f64() > 0.0 {
            t_seq.as_secs_f64() / (workers as f64 * t_par.as_secs_f64())
        } else {
            0.0
        };
        Self {
            workers,
            t_seq,
            t_par,
            efficiency: eff,
        }
    }
}

/// Measures one Figure 6 grid point (given `N`, `M`, `L`) on the host:
/// sequential loop vs. full preprocessed doacross (inspector + executor +
/// postprocessor, as §3.1 measures).
pub fn measure_fig6_point(
    pool: &ThreadPool,
    n: usize,
    m: usize,
    l: usize,
    reps: usize,
) -> HostMeasurement {
    let loop_ = TestLoop::new(n, m, l);
    let y0 = loop_.initial_y();

    let t_seq = best_of(reps, || {
        let mut y = y0.clone();
        let start = Instant::now();
        run_sequential(&loop_, &mut y);
        let t = start.elapsed();
        std::hint::black_box(&y);
        t
    });

    let mut runtime = Doacross::for_loop(&loop_);
    runtime.config_mut().validate_terms = false; // paper-faithful inspector
    let t_par = best_of(reps, || {
        let mut y = y0.clone();
        let start = Instant::now();
        runtime
            .run(pool, &loop_, &mut y)
            .expect("test loop is valid");
        let t = start.elapsed();
        std::hint::black_box(&y);
        t
    });
    HostMeasurement::from_times(pool.threads(), t_seq, t_par)
}

/// Host-measured Table 1 row: sequential, plain doacross, and reordered
/// doacross solve times for one triangular system.
#[derive(Debug, Clone)]
pub struct HostSolveTimes {
    /// Problem name.
    pub name: &'static str,
    /// Pool workers used.
    pub workers: usize,
    /// Sequential Figure 7 loop.
    pub t_seq: Duration,
    /// Preprocessed doacross, natural order.
    pub t_plain: Duration,
    /// Preprocessed doacross, doconsider order (plan excluded — it is
    /// amortized across solves, like the paper's preprocessing).
    pub t_reordered: Duration,
}

/// Measures one problem on the host.
pub fn measure_solvers(pool: &ThreadPool, sys: &TriSystem, reps: usize) -> HostSolveTimes {
    let (_, t_seq) = time_sequential(&sys.l, &sys.rhs, reps.max(1));

    // Both columns run the §2.3 linear-subscript doacross (the identity
    // subscript needs no inspector); only the claim order differs.
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let order = SolvePlan::for_matrix(&sys.l).order;
    let mut runtime = LinearDoacross::new(sys.n());
    let mut time_order = |order: Option<&[usize]>| {
        let mut solve = || {
            let mut y = vec![0.0; sys.n()];
            runtime
                .run_with_order(pool, &loop_, TriSolveLoop::subscript(), &mut y, order)
                .expect("valid system");
            y
        };
        // Warm up scratch allocation, then time.
        solve();
        best_of(reps, || {
            let start = Instant::now();
            let y = solve();
            let t = start.elapsed();
            std::hint::black_box(&y);
            t
        })
    };
    let t_plain = time_order(None);
    let t_reordered = time_order(Some(&order));

    HostSolveTimes {
        name: sys.kind.name(),
        workers: pool.threads(),
        t_seq,
        t_plain,
        t_reordered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_sparse::{Problem, ProblemKind};

    #[test]
    fn fig6_point_measures_something() {
        let pool = ThreadPool::new(2);
        let m = measure_fig6_point(&pool, 2_000, 1, 7, 2);
        assert!(m.t_seq > Duration::ZERO);
        assert!(m.t_par > Duration::ZERO);
        assert!(m.efficiency > 0.0);
        assert_eq!(m.workers, 2);
    }

    #[test]
    fn solver_measurement_runs() {
        let pool = ThreadPool::new(2);
        let sys = Problem::build(ProblemKind::Spe2).triangular_system();
        let t = measure_solvers(&pool, &sys, 2);
        assert!(t.t_seq > Duration::ZERO);
        assert!(t.t_plain > Duration::ZERO);
        assert!(t.t_reordered > Duration::ZERO);
    }
}
