//! Dependence census: the structural facts variant selection runs on.
//!
//! One preprocessing pass classifies every right-hand-side reference the
//! way the executor's three-way check (Figure 5) would — true dependency /
//! antidependency / intra-iteration / unwritten — and extracts the
//! schedule-relevant aggregates: dependence distances, the wavefront
//! critical path, and average parallelism. For loops whose left-hand side
//! is *not* injective (illegal for the flat construct) it instead measures
//! the minimum gap between writes to the same element, which bounds the
//! legal block size for the §2.3 strip-mined fallback.
//!
//! The pass is the only reading of the pattern's index arrays planning
//! needs. Besides the census it can keep what it computes on the way
//! (`CensusPass`): the inspector's writer map, the per-iteration
//! wavefront levels, the per-reference operand classes, and each
//! iteration's true-dependence writers. The planner prices every variant
//! from those — the writers are the dependence DAG's edges, so stall
//! pricing needs no second pass — and materializes only the winner's
//! artifact. [`PlanCensus::of_with_schedule`] returns the census with the
//! [`LevelSchedule`] the levels and classes form; nothing is recomputed.

use doacross_core::{AccessPattern, LevelSchedule, OperandClass, MAXINT};

/// Everything the planner knows about a pattern's dependence structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanCensus {
    /// Outer-loop iterations.
    pub iterations: usize,
    /// Data-space size.
    pub data_len: usize,
    /// Total right-hand-side references.
    pub total_terms: u64,
    /// References to elements written by an earlier iteration.
    pub true_deps: u64,
    /// References to elements written by a later iteration.
    pub anti_deps: u64,
    /// References to the iteration's own output element.
    pub intra: u64,
    /// References to elements no iteration writes.
    pub unwritten: u64,
    /// Smallest true-dependency distance (`i − writer`), if any.
    pub min_true_distance: Option<usize>,
    /// Largest true-dependency distance, if any.
    pub max_true_distance: Option<usize>,
    /// Whether the left-hand-side subscript is injective (the flat
    /// construct's legality requirement).
    pub injective: bool,
    /// For non-injective patterns: the smallest iteration gap between two
    /// writes to the same element. Blocks of at most this many contiguous
    /// iterations are collision-free, making the strip-mined variant legal.
    pub min_duplicate_write_gap: Option<usize>,
    /// Wavefront critical path (0 for an empty loop; only computed for
    /// injective patterns).
    pub critical_path: usize,
    /// `iterations / critical_path` (0 for an empty loop).
    pub average_parallelism: f64,
    /// First `(iteration, element)` reference outside the declared data
    /// space, if any. A pattern with out-of-bounds subscripts cannot be
    /// planned (or legally executed); the planner surfaces this as
    /// [`doacross_core::DoacrossError::SubscriptOutOfBounds`].
    pub first_out_of_bounds: Option<(usize, usize)>,
}

impl PlanCensus {
    /// Builds the census in O(data space + references).
    pub fn of<P: AccessPattern + ?Sized>(pattern: &P) -> Self {
        CensusPass::run(pattern, Collect::Census, 0).census
    }

    /// Like [`PlanCensus::of`], additionally materializing the
    /// [`LevelSchedule`] the classification pass computes anyway: the
    /// per-iteration wavefront levels (counting-sorted into CSR form) and
    /// the per-reference operand classes. `None` for patterns the
    /// wavefront executor cannot run (non-injective left-hand sides,
    /// out-of-bounds subscripts) — exactly the patterns the flat construct
    /// rejects too.
    pub fn of_with_schedule<P: AccessPattern + ?Sized>(
        pattern: &P,
    ) -> (Self, Option<LevelSchedule>) {
        let mut pass = CensusPass::run(pattern, Collect::Schedule, 0);
        let schedule = pass.level_schedule();
        (pass.census, schedule)
    }

    /// The census facts `doacross-verify`'s artifact-mode checks run on —
    /// the schedule-relevant subset, converted into the verifier's own
    /// (layering-neutral) vocabulary.
    pub fn facts(&self) -> doacross_verify::CensusFacts {
        doacross_verify::CensusFacts {
            iterations: self.iterations,
            data_len: self.data_len,
            total_terms: self.total_terms,
            true_deps: self.true_deps,
            anti_deps: self.anti_deps,
            intra: self.intra,
            unwritten: self.unwritten,
            injective: self.injective,
            min_duplicate_write_gap: self.min_duplicate_write_gap,
        }
    }

    /// Whether the loop is a doall (no cross- or intra-iteration
    /// dependencies at all — the odd-`L` regime of Figure 6).
    pub fn is_doall(&self) -> bool {
        self.injective && self.true_deps == 0 && self.anti_deps == 0 && self.intra == 0
    }

    /// Mean references per iteration (0 for an empty loop).
    pub fn terms_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.total_terms as f64 / self.iterations as f64
        }
    }
}

/// How much of its work a [`CensusPass`] keeps beyond the census.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Collect {
    /// The census alone (levels are still computed: they give the
    /// critical path).
    Census,
    /// Plus the per-reference operand classes a [`LevelSchedule`] needs.
    Schedule,
    /// Plus each iteration's true-dependence writers, for stall pricing.
    Planning,
}

/// One classification pass over a pattern and everything it kept: the
/// census plus the raw material of every variant's artifact.
///
/// Collections beyond the census are filled only when the pattern is
/// injective (a collided writer map classifies nothing), and only as far
/// as the [`Collect`] level asks; otherwise they stay empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct CensusPass {
    /// The census.
    pub census: PlanCensus,
    /// The writer map as the inspector would fill it: `writer[e]` is the
    /// (last) iteration writing element `e`, or [`MAXINT`].
    pub writer: Vec<i64>,
    /// Per-iteration wavefront level, 1-based (injective patterns only).
    pub levels: Vec<usize>,
    /// CSR offsets of each iteration's references into `classes`.
    pub term_offsets: Vec<usize>,
    /// One [`OperandClass`] byte per reference, in reference order.
    pub classes: Vec<u8>,
    /// CSR offsets of each iteration's writers into `deps`.
    pub dep_offsets: Vec<usize>,
    /// Each true-dependence reference's writer (`< i`), in reference
    /// order — neither deduplicated nor sorted.
    pub deps: Vec<usize>,
}

impl CensusPass {
    /// Runs the pass in O(data space + references), keeping what
    /// `collect` asks for. `terms_hint` (the pattern's total reference
    /// count, when known — e.g. from its fingerprint) sizes the
    /// per-reference buffers up front; 0 lets them grow.
    pub(crate) fn run<P: AccessPattern + ?Sized>(
        pattern: &P,
        collect: Collect,
        terms_hint: usize,
    ) -> Self {
        let n = pattern.iterations();
        let data_len = pattern.data_len();
        let mut pass = CensusPass {
            census: PlanCensus {
                iterations: n,
                data_len,
                injective: true,
                ..Default::default()
            },
            writer: vec![MAXINT; data_len],
            ..Default::default()
        };
        let census = &mut pass.census;

        // Writer map as the inspector would fill it (last writer wins),
        // plus duplicate-write detection for the blocked fallback.
        let writer = &mut pass.writer;
        for i in 0..n {
            let lhs = pattern.lhs(i);
            if lhs >= data_len {
                census.first_out_of_bounds.get_or_insert((i, lhs));
                continue;
            }
            let prev = writer[lhs];
            if prev != MAXINT {
                census.injective = false;
                let gap = i - prev as usize;
                census.min_duplicate_write_gap =
                    Some(census.min_duplicate_write_gap.map_or(gap, |g| g.min(gap)));
            }
            writer[lhs] = i as i64;
        }

        if !census.injective {
            // The flat construct is illegal; reference classification
            // against a collided writer map would be meaningless. Still
            // bounds-check every reference — a plan must never certify an
            // unexecutable pattern — then count the references and stop.
            for i in 0..n {
                for j in 0..pattern.terms(i) {
                    census.total_terms += 1;
                    let e = pattern.term_element(i, j);
                    if e >= data_len {
                        census.first_out_of_bounds.get_or_insert((i, e));
                    }
                }
            }
            return pass;
        }

        // Classify every reference and compute wavefront levels in the same
        // pass (a predecessor's level is final before its readers are
        // visited, since true dependencies point backwards).
        let keep_classes = collect >= Collect::Schedule;
        let keep_deps = collect >= Collect::Planning;
        let levels = &mut pass.levels;
        levels.resize(n, 0);
        if keep_classes {
            pass.term_offsets.reserve(n + 1);
            pass.term_offsets.push(0);
            pass.classes.reserve(terms_hint);
        }
        if keep_deps {
            pass.dep_offsets.reserve(n + 1);
            pass.dep_offsets.push(0);
            pass.deps.reserve(terms_hint);
        }
        let mut critical_path = 0usize;
        for i in 0..n {
            let mut level = 1usize;
            for j in 0..pattern.terms(i) {
                census.total_terms += 1;
                let e = pattern.term_element(i, j);
                if e >= data_len {
                    census.first_out_of_bounds.get_or_insert((i, e));
                    if keep_classes {
                        // Keep the class stream aligned; out-of-bounds
                        // patterns are never executable, so no artifact
                        // is ever built from it.
                        pass.classes.push(OperandClass::OldValue as u8);
                    }
                    continue;
                }
                let w = writer[e];
                let class = if w == MAXINT {
                    census.unwritten += 1;
                    OperandClass::OldValue
                } else {
                    let w = w as usize;
                    match w.cmp(&i) {
                        std::cmp::Ordering::Less => {
                            census.true_deps += 1;
                            let d = i - w;
                            census.min_true_distance =
                                Some(census.min_true_distance.map_or(d, |m| m.min(d)));
                            census.max_true_distance =
                                Some(census.max_true_distance.map_or(d, |m| m.max(d)));
                            level = level.max(levels[w] + 1);
                            if keep_deps {
                                pass.deps.push(w);
                            }
                            OperandClass::NewValue
                        }
                        std::cmp::Ordering::Equal => {
                            census.intra += 1;
                            OperandClass::Accumulator
                        }
                        std::cmp::Ordering::Greater => {
                            census.anti_deps += 1;
                            OperandClass::OldValue
                        }
                    }
                };
                if keep_classes {
                    pass.classes.push(class as u8);
                }
            }
            if keep_classes {
                pass.term_offsets.push(pass.classes.len());
            }
            if keep_deps {
                pass.dep_offsets.push(pass.deps.len());
            }
            levels[i] = level;
            critical_path = critical_path.max(level);
        }
        census.critical_path = if n == 0 { 0 } else { critical_path };
        census.average_parallelism = if census.critical_path == 0 {
            0.0
        } else {
            n as f64 / census.critical_path as f64
        };
        pass
    }

    /// The true-dependence writers iteration `i`'s references hit, in
    /// reference order (collected at [`Collect::Planning`] only).
    #[inline]
    pub(crate) fn deps_of(&self, i: usize) -> &[usize] {
        &self.deps[self.dep_offsets[i]..self.dep_offsets[i + 1]]
    }

    /// The [`LevelSchedule`] the levels and classes form, consuming the
    /// classes. `None` unless the pass collected classes over an
    /// injective, in-bounds pattern.
    pub(crate) fn level_schedule(&mut self) -> Option<LevelSchedule> {
        let executable = self.census.injective && self.census.first_out_of_bounds.is_none();
        (executable && !self.term_offsets.is_empty()).then(|| {
            LevelSchedule::from_levels(
                &self.levels,
                self.census.critical_path,
                std::mem::take(&mut self.term_offsets),
                std::mem::take(&mut self.classes),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{AccessPattern, IndirectLoop, TestLoop};

    fn chain(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn chain_census() {
        let c = PlanCensus::of(&chain(10));
        assert!(c.injective);
        assert_eq!(c.true_deps, 9, "iteration 0 reads unwritten element 0");
        assert_eq!(c.unwritten, 1);
        assert_eq!(c.min_true_distance, Some(1));
        assert_eq!(c.max_true_distance, Some(1));
        assert_eq!(c.critical_path, 10);
        assert_eq!(c.average_parallelism, 1.0);
        assert!(!c.is_doall());
    }

    #[test]
    fn census_agrees_with_testloop_ground_truth() {
        for l in 1..=14usize {
            for m in [1usize, 5] {
                let t = TestLoop::new(300, m, l);
                let truth = t.census();
                let c = PlanCensus::of(&t);
                assert_eq!(c.true_deps, truth.true_deps, "L={l} M={m}");
                assert_eq!(c.anti_deps, truth.anti_deps, "L={l} M={m}");
                assert_eq!(c.intra, truth.intra, "L={l} M={m}");
                assert_eq!(c.unwritten, truth.unwritten, "L={l} M={m}");
                assert_eq!(c.min_true_distance, truth.min_true_distance, "L={l} M={m}");
                assert_eq!(c.max_true_distance, truth.max_true_distance, "L={l} M={m}");
                assert_eq!(c.is_doall(), truth.is_doall(), "L={l} M={m}");
            }
        }
    }

    #[test]
    fn doall_census() {
        let n = 20;
        let a: Vec<usize> = (0..n).collect();
        let l = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        let c = PlanCensus::of(&l);
        assert!(c.is_doall());
        assert_eq!(c.critical_path, 1);
        assert_eq!(c.average_parallelism, n as f64);
    }

    #[test]
    fn non_injective_census_measures_write_gap() {
        // Element 0 written by iterations 0 and 3 → min gap 3.
        let l = IndirectLoop::new(
            4,
            vec![0, 1, 2, 0],
            vec![vec![], vec![], vec![], vec![]],
            vec![vec![], vec![], vec![], vec![]],
        )
        .unwrap();
        let c = PlanCensus::of(&l);
        assert!(!c.injective);
        assert_eq!(c.min_duplicate_write_gap, Some(3));
        assert!(!c.is_doall(), "non-injective is never a doall");

        let tight = IndirectLoop::new(
            3,
            vec![1, 1, 1],
            vec![vec![], vec![], vec![]],
            vec![vec![], vec![], vec![]],
        )
        .unwrap();
        assert_eq!(PlanCensus::of(&tight).min_duplicate_write_gap, Some(1));
    }

    #[test]
    fn wavefront_structure_of_interleaved_chains() {
        // Two distance-2 chains: levels [1,1,2,2], critical path 2.
        let a = vec![4, 5, 6, 7];
        let rhs = vec![vec![], vec![], vec![4], vec![5]];
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
        let l = IndirectLoop::new(8, a, rhs, coeff).unwrap();
        let c = PlanCensus::of(&l);
        assert_eq!(c.critical_path, 2);
        assert_eq!(c.average_parallelism, 2.0);
    }

    #[test]
    fn schedule_materializes_the_census_levels() {
        // Two distance-2 chains: levels [1,1,2,2] — the schedule must sort
        // iterations by level (stable) and classify every reference.
        let a = vec![4, 5, 6, 7];
        let rhs = vec![vec![0], vec![], vec![4], vec![5]];
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
        let l = IndirectLoop::new(8, a, rhs, coeff).unwrap();
        let (c, schedule) = PlanCensus::of_with_schedule(&l);
        assert_eq!(c, PlanCensus::of(&l), "collecting never changes the census");
        let s = schedule.expect("injective in-bounds pattern");
        assert_eq!(s.level_count(), c.critical_path);
        assert_eq!(s.iterations(), 4);
        assert_eq!(s.level_iterations(0), &[0, 1]);
        assert_eq!(s.level_iterations(1), &[2, 3]);
        assert_eq!(s.total_terms() as u64, c.total_terms);
        let (new, old, acc) = s.class_counts();
        assert_eq!(new, c.true_deps);
        assert_eq!(old, c.anti_deps + c.unwritten);
        assert_eq!(acc, c.intra);
    }

    #[test]
    fn schedule_absent_for_illegal_patterns() {
        // Non-injective lhs: no schedule.
        let dup = IndirectLoop::new(
            3,
            vec![1, 1, 2],
            vec![vec![], vec![], vec![]],
            vec![vec![], vec![], vec![]],
        )
        .unwrap();
        assert!(PlanCensus::of_with_schedule(&dup).1.is_none());

        // Out-of-bounds right-hand side: no schedule either.
        struct Oob;
        impl AccessPattern for Oob {
            fn iterations(&self) -> usize {
                2
            }
            fn data_len(&self) -> usize {
                2
            }
            fn lhs(&self, i: usize) -> usize {
                i
            }
            fn terms(&self, _: usize) -> usize {
                1
            }
            fn term_element(&self, _: usize, _: usize) -> usize {
                9
            }
        }
        let (c, schedule) = PlanCensus::of_with_schedule(&Oob);
        assert!(c.first_out_of_bounds.is_some());
        assert!(schedule.is_none());
    }

    #[test]
    fn empty_loop_census() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let c = PlanCensus::of(&l);
        assert_eq!(c.critical_path, 0);
        assert_eq!(c.average_parallelism, 0.0);
        assert!(c.is_doall());
    }
}
