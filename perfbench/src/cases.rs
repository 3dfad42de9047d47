//! The structures each workload solves, and the seeded inputs fed to them.
//!
//! A [`Case`] is one loop structure (a triangular factor or one Figure 4
//! test loop) plus the rule for turning a per-call input vector into the
//! loop and its starting `y`. The program only ever sees the generated
//! loops and vectors; the seed never reaches it.

use doacross_core::{DoacrossLoop, TestLoop};
use doacross_sparse::{
    five_point, ilu0, nine_point, seven_point, CsrMatrix, Problem, ProblemKind, TriangularMatrix,
};
use doacross_trisolve::TriSolveLoop;

/// SplitMix64: a small, fast, seedable generator — every input of a run is
/// a pure function of the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One loop structure a workload solves (see module docs).
pub trait Case: Sync {
    /// The loop a call executes, borrowing the case and the call's input.
    type Loop<'a>: DoacrossLoop
    where
        Self: 'a;

    /// Short name for tables and logs.
    fn label(&self) -> &str;

    /// Length of the per-call input vector.
    fn input_len(&self) -> usize;

    /// Fills `input` with a fresh seeded input for one call.
    fn fill_input(&self, rng: &mut Rng, input: &mut [f64]);

    /// The loop for one call on `input`.
    fn bind<'a>(&'a self, input: &'a [f64]) -> Self::Loop<'a>;

    /// Sets `y` to the starting contents a call on `input` solves from.
    fn start_y(&self, input: &[f64], y: &mut Vec<f64>);
}

/// A unit lower-triangular ILU(0) factor, solved by the Figure 7 loop; the
/// per-call input is the right-hand side.
#[derive(Debug, Clone)]
pub struct TriCase {
    label: String,
    l: TriangularMatrix,
}

impl TriCase {
    /// The ILU(0) `L` factor of `a`.
    pub fn from_operator(label: String, a: &CsrMatrix) -> Self {
        Self {
            label,
            l: TriangularMatrix::from_strict_lower(&ilu0(a).l),
        }
    }
}

impl Case for TriCase {
    type Loop<'a> = TriSolveLoop<'a>;

    fn label(&self) -> &str {
        &self.label
    }

    fn input_len(&self) -> usize {
        self.l.n()
    }

    fn fill_input(&self, rng: &mut Rng, input: &mut [f64]) {
        input.iter_mut().for_each(|v| *v = 0.5 + rng.unit());
    }

    fn bind<'a>(&'a self, input: &'a [f64]) -> TriSolveLoop<'a> {
        TriSolveLoop::new(&self.l, input)
    }

    fn start_y(&self, _input: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.resize(self.l.n(), 0.0);
    }
}

/// One Figure 4 test loop; the per-call input is the starting `y`.
#[derive(Debug, Clone)]
pub struct SweepCase {
    label: String,
    loop_: TestLoop,
}

impl Case for SweepCase {
    type Loop<'a> = TestLoop;

    fn label(&self) -> &str {
        &self.label
    }

    fn input_len(&self) -> usize {
        doacross_core::AccessPattern::data_len(&self.loop_)
    }

    fn fill_input(&self, rng: &mut Rng, input: &mut [f64]) {
        input.iter_mut().for_each(|v| *v = 2.0 * rng.unit() - 1.0);
    }

    fn bind<'a>(&'a self, _input: &'a [f64]) -> TestLoop {
        self.loop_.clone()
    }

    fn start_y(&self, input: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.extend_from_slice(input);
    }
}

/// `table1_steady`: the five Table 1 problems' `L` factors, operator
/// values drawn from the seed (the sparsity structure is the paper's).
pub fn table1_cases(rng: &mut Rng) -> Vec<TriCase> {
    ProblemKind::all()
        .into_iter()
        .map(|kind| {
            let problem = Problem::build_seeded(kind, rng.next_u64());
            TriCase::from_operator(kind.name().to_string(), &problem.a)
        })
        .collect()
}

/// Outer trip count of the `fig6_sweep` loops.
pub const SWEEP_N: usize = 10_000;
/// Inner trip count (the paper's `M`) of the `fig6_sweep` loops.
pub const SWEEP_M: usize = 5;

/// `fig6_sweep`: the Figure 4 loop at `N = 10000`, `M = 5` for every `L`
/// of Figure 6 (1..=14). The loops are fixed; the seed draws each call's
/// starting `y`.
pub fn fig6_cases() -> Vec<SweepCase> {
    (1..=14)
        .map(|l| SweepCase {
            label: format!("L={l}"),
            loop_: TestLoop::new(SWEEP_N, SWEEP_M, l),
        })
        .collect()
}

/// Distinct structures `plan_churn` cycles through: half again the
/// engine's default plan-cache capacity (128), so that every shard of the
/// cache overflows and a cyclic visit order always finds its plan evicted.
pub const CHURN_STRUCTURES: usize = 192;

/// `plan_churn`: [`CHURN_STRUCTURES`] distinct ILU(0) structures — 64
/// each of 5-PT and 9-PT on 12..=19 × 12..=19 and 64 of 7-PT on 5..=8
/// cubed — interleaved by stencil, so every prefix holds the three
/// stencils alike. The set is fixed, so every seed plans the same
/// structures; the seed draws the operator values.
///
/// The grids are small so that all 192 structures (about 3 MB) stay in a
/// core's private cache. With Table 1-sized grids the set spans some
/// 40 MB of the host's shared last-level cache, and its throughput swung
/// 2.5× between runs with the neighbours' load.
pub fn churn_cases(rng: &mut Rng) -> Vec<TriCase> {
    let planar: Vec<(usize, usize)> = (12..=19)
        .flat_map(|nx| (12..=19).map(move |ny| (nx, ny)))
        .collect();
    let cubic: Vec<(usize, usize, usize)> = (5..=8)
        .flat_map(|nx| (5..=8).flat_map(move |ny| (5..=8).map(move |nz| (nx, ny, nz))))
        .collect();
    let mut cases = Vec::with_capacity(CHURN_STRUCTURES);
    for (&(nx, ny), &(cx, cy, cz)) in planar.iter().zip(&cubic) {
        let a = five_point(nx, ny, rng.next_u64());
        cases.push(TriCase::from_operator(format!("5-PT {nx}x{ny}"), &a));
        let a = nine_point(nx, ny, rng.next_u64());
        cases.push(TriCase::from_operator(format!("9-PT {nx}x{ny}"), &a));
        let a = seven_point(cx, cy, cz, rng.next_u64());
        cases.push(TriCase::from_operator(format!("7-PT {cx}x{cy}x{cz}"), &a));
    }
    cases
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_plan::PatternFingerprint;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        let (x, y) = (table1_cases(&mut a), table1_cases(&mut b));
        let mut input_x = vec![0.0; x[0].input_len()];
        let mut input_y = vec![0.0; y[0].input_len()];
        x[0].fill_input(&mut a, &mut input_x);
        y[0].fill_input(&mut b, &mut input_y);
        assert_eq!(input_x, input_y);
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
    }

    #[test]
    fn churn_structures_are_distinct() {
        let cases = churn_cases(&mut Rng::new(11));
        let rhs: Vec<Vec<f64>> = cases.iter().map(|c| vec![1.0; c.input_len()]).collect();
        assert_eq!(cases.len(), CHURN_STRUCTURES);
        let prints: BTreeSet<_> = cases
            .iter()
            .zip(&rhs)
            .map(|(c, r)| PatternFingerprint::of(&c.bind(r)).to_raw())
            .collect();
        assert_eq!(prints.len(), CHURN_STRUCTURES);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let order = shuffled(50, &mut Rng::new(9));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(order, shuffled(50, &mut Rng::new(9)));
        assert_ne!(order, shuffled(50, &mut Rng::new(10)));
    }

    #[test]
    fn sweep_covers_figure_6() {
        let cases = fig6_cases();
        assert_eq!(cases.len(), 14);
        assert_eq!(cases[0].label(), "L=1");
        let mut y = Vec::new();
        let input = vec![0.25; cases[3].input_len()];
        cases[3].start_y(&input, &mut y);
        assert_eq!(y, input);
    }
}
