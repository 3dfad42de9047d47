//! ILU(0) preconditioner application `z = U⁻¹ L⁻¹ r` with both halves run
//! through the engine — the paper's motivating context: "The solution of
//! these sparse triangular systems accounts for a large fraction of the
//! sequential execution time of linear solvers that use Krylov methods"
//! (§3.2, citing Baxter et al. 1988).
//!
//! The preconditioner prepares one [`PreparedLoop`] per factor up front,
//! so the per-structure preprocessing is paid once and amortized over the
//! many applications a Krylov iteration performs — the same amortization
//! the paper's postprocessing phase is designed around. Each factor gets
//! whatever variant the engine's planner picks, backed by its measured
//! sequential guard.

use crate::fig7::TriSolveLoop;
use crate::upper::UpperSolveLoop;
use doacross_engine::{Engine, EngineError, PreparedLoop};
use doacross_sparse::{ilu0, CsrMatrix, TriangularMatrix, UpperTriangularMatrix};

/// An ILU(0) preconditioner whose forward and backward solves run as
/// engine-prepared doacross loops.
///
/// ```
/// use doacross_engine::Engine;
/// use doacross_sparse::stencil::five_point;
/// use doacross_trisolve::IluPreconditioner;
///
/// let a = five_point(6, 6, 11);
/// let engine = Engine::builder().workers(2).build();
/// let m = IluPreconditioner::new(&engine, &a).unwrap();
/// let r = vec![1.0; m.n()];
/// let z = m.apply(&r).unwrap();              // U^-1 L^-1 r through the engine
/// assert_eq!(z, m.apply_sequential(&r));     // bit-identical
/// ```
#[derive(Debug)]
pub struct IluPreconditioner {
    l: TriangularMatrix,
    u: UpperTriangularMatrix,
    lower: PreparedLoop,
    upper: PreparedLoop,
}

impl IluPreconditioner {
    /// Factors `a` with ILU(0) and prepares both triangular solves on
    /// `engine` (plans are keyed on structure alone, so any residual can
    /// be applied later).
    pub fn new(engine: &Engine, a: &CsrMatrix) -> Result<Self, EngineError> {
        let factors = ilu0(a);
        let l = TriangularMatrix::from_strict_lower(&factors.l);
        let u = UpperTriangularMatrix::from_upper(&factors.u);
        // Fingerprints are value-blind: a zero rhs carries the structure.
        let zeros = vec![0.0; l.n()];
        let lower = engine.prepare(&TriSolveLoop::new(&l, &zeros))?;
        let upper = engine.prepare(&UpperSolveLoop::new(&u, &zeros))?;
        Ok(Self { l, u, lower, upper })
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.l.n()
    }

    /// The unit lower-triangular factor.
    pub fn l(&self) -> &TriangularMatrix {
        &self.l
    }

    /// The upper-triangular factor.
    pub fn u(&self) -> &UpperTriangularMatrix {
        &self.u
    }

    /// Applies the preconditioner: returns `z = U⁻¹ L⁻¹ r`.
    ///
    /// # Panics
    /// Panics if `r.len() != self.n()`.
    pub fn apply(&self, r: &[f64]) -> Result<Vec<f64>, EngineError> {
        // Both loops seed every element from their rhs, so the outputs'
        // initial contents are arbitrary.
        let mut w = vec![0.0; self.n()];
        self.lower.execute(&TriSolveLoop::new(&self.l, r), &mut w)?;
        let mut z = vec![0.0; self.n()];
        self.upper
            .execute(&UpperSolveLoop::new(&self.u, &w), &mut z)?;
        Ok(z)
    }

    /// Sequential reference application (for validation): same two solves
    /// with the scalar kernels.
    pub fn apply_sequential(&self, r: &[f64]) -> Vec<f64> {
        let w = self.l.forward_solve(r);
        self.u.backward_solve(&w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_plan::{GuardState, PlanVariant, GUARD_WINDOW};
    use doacross_sparse::spmv::csr_matvec;
    use doacross_sparse::stencil::{five_point, seven_point};
    use doacross_sparse::vec_ops::max_abs_diff;

    fn engine(workers: usize) -> Engine {
        Engine::builder().workers(workers).build()
    }

    #[test]
    fn parallel_apply_matches_sequential_bitwise() {
        let a = five_point(10, 9, 101);
        let p = IluPreconditioner::new(&engine(4), &a).unwrap();
        let r: Vec<f64> = (0..p.n()).map(|i| (i % 5) as f64 - 2.0).collect();
        let z_par = p.apply(&r).unwrap();
        let z_seq = p.apply_sequential(&r);
        assert_eq!(z_par, z_seq);
    }

    #[test]
    fn preconditioner_approximates_inverse() {
        // For a diagonally dominant A, M = (LU)^{-1} should reduce the
        // residual substantially in one Richardson step:
        //   x1 = M^{-1} b  =>  ||b - A x1|| << ||b||.
        let a = five_point(12, 12, 103);
        let p = IluPreconditioner::new(&engine(2), &a).unwrap();
        let b = vec![1.0; p.n()];
        let x1 = p.apply(&b).unwrap();
        let ax1 = csr_matvec(&a, &x1);
        let res = max_abs_diff(&ax1, &b);
        assert!(
            res < 0.5,
            "one preconditioned step should cut the residual: {res}"
        );
    }

    #[test]
    fn apply_is_repeatable() {
        let a = five_point(6, 6, 107);
        let p = IluPreconditioner::new(&engine(2), &a).unwrap();
        let r = vec![1.0; p.n()];
        let z1 = p.apply(&r).unwrap();
        let z2 = p.apply(&r).unwrap();
        assert_eq!(z1, z2, "scratch reuse must be clean across applications");
    }

    #[test]
    fn stays_bit_identical_past_the_guard_window() {
        // A 3-D factor pair the planner runs in parallel at p = 2. Every
        // application before, during and after the guard's verdict on both
        // plans — whether either plan is demoted or kept parallel — must
        // match the scalar kernels bit for bit.
        let a = seven_point(12, 12, 12, 109);
        let p = IluPreconditioner::new(&engine(2), &a).unwrap();
        for round in 0..=GUARD_WINDOW as usize {
            let r: Vec<f64> = (0..p.n())
                .map(|i| 1.0 + ((i + round) % 7) as f64 * 0.5)
                .collect();
            assert_eq!(
                p.apply(&r).unwrap(),
                p.apply_sequential(&r),
                "round {round}"
            );
        }
        for prepared in [&p.lower, &p.upper] {
            assert_ne!(prepared.variant(), PlanVariant::Sequential);
            assert_ne!(prepared.plan().guard().state(), GuardState::Trial);
        }
    }
}
