//! One-pass planning is exact: for every structure, the planner's prices,
//! pick and artifacts equal a reference built the long way — a
//! `DependenceDag` replaying the inspector, the level schedule from
//! `PlanCensus::of_with_schedule`, stall sums over the DAG's deduplicated
//! edges, and a writer map captured by a real inspector region.
//!
//! Prices are compared bit for bit (`f64::to_bits`): `adapt` inverts
//! them and persisted plans carry them, so "close" is not good enough.

use doacross_core::{AccessPattern, IndirectLoop, LevelSchedule, PreparedInspection, TestLoop};
use doacross_doconsider::{invert_permutation, DependenceDag};
use doacross_par::{Schedule, ThreadPool};
use doacross_plan::{
    detect_linear, testgrid, PlanCensus, PlanVariant, Planner, VariantCosts,
    BLOCKED_DATA_SPACE_FACTOR,
};
use doacross_sim::CostModel;
use doacross_sparse::{
    five_point, ilu0, nine_point, seven_point, CsrMatrix, Problem, ProblemKind, TriangularMatrix,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const PROCESSORS: [usize; 5] = [1, 2, 3, 4, 8];

/// The Multimax constants, and the same with synchronization made nearly
/// free — which flips many structures from sequential to a parallel
/// variant, so the artifact comparisons below see every kind of pick.
fn cost_models() -> [CostModel; 2] {
    let multimax = CostModel::multimax();
    let cheap_sync = CostModel {
        region_dispatch: multimax.region_dispatch / 64.0,
        barrier: multimax.barrier / 64.0,
        ..multimax
    };
    [multimax, cheap_sync]
}

fn pools() -> Vec<ThreadPool> {
    PROCESSORS.iter().map(|&p| ThreadPool::new(p)).collect()
}

/// The reference plan: today's pricing formulas over separately built
/// structures.
struct Reference {
    costs: VariantCosts,
    variant: PlanVariant,
    order: Option<Vec<usize>>,
    levels: Option<LevelSchedule>,
    prepared: Option<PreparedInspection>,
}

fn stall_sum(dag: &DependenceDag, pos: Option<&[usize]>, p: usize, chain: f64) -> f64 {
    let mut total = 0.0;
    for i in 0..dag.len() {
        for &w in dag.predecessors(i) {
            let gap = match pos {
                Some(pos) => pos[i] - pos[w],
                None => i - w,
            };
            if gap < p {
                total += chain * (p - gap) as f64 / p as f64;
            }
        }
    }
    total
}

/// Plans an injective, in-bounds `pattern` the long way.
fn reference<P: AccessPattern + ?Sized>(
    costs: &CostModel,
    pool: &ThreadPool,
    pattern: &P,
) -> Reference {
    let (census, level_schedule) = PlanCensus::of_with_schedule(pattern);
    assert!(census.injective && census.first_out_of_bounds.is_none());
    let linear = detect_linear(pattern);
    let p = pool.threads();
    let exec_per_iter = costs.schedule_grab + costs.iteration_setup + costs.publish;
    let per_term = costs.term + costs.check;

    let n = census.iterations as f64;
    let t_seq = costs.sequential_time(census.iterations, census.total_terms as usize);
    let chain = exec_per_iter + census.terms_per_iteration() * per_term;
    let work = n * exec_per_iter + census.total_terms as f64 * per_term;
    let flag_checks = census.true_deps as f64 * costs.wait_poll;
    let cp_bound = census.critical_path as f64 * chain;
    let post = n * costs.post_per_iter / p as f64;
    let dispatch = 2.0 * costs.region_dispatch;

    let (order, stall_natural, stall_reordered) = if census.true_deps == 0 {
        (None, 0.0, 0.0)
    } else {
        let dag = DependenceDag::build(pattern);
        let order = level_schedule.as_ref().unwrap().order().to_vec();
        let pos = invert_permutation(&order);
        let stall_nat = stall_sum(&dag, None, p, chain);
        let stall_reo = stall_sum(&dag, Some(&pos), p, chain);
        (Some(order), stall_nat, stall_reo)
    };
    let parallel =
        |stalls: f64| dispatch + ((work + flag_checks + stalls) / p as f64).max(cp_bound) + post;
    let t_doacross = parallel(stall_natural);
    let t_reordered = parallel(stall_reordered);
    let t_wavefront = level_schedule
        .as_ref()
        .filter(|_| census.true_deps > 0)
        .map(|schedule| {
            let rounds: usize = schedule
                .offsets()
                .windows(2)
                .map(|w| (w[1] - w[0]).div_ceil(p))
                .sum();
            let barriers = (schedule.level_count() - 1) as f64 * costs.barrier;
            dispatch + rounds as f64 * chain + barriers + post
        });

    let mut prices = VariantCosts {
        sequential: t_seq,
        doacross: Some(t_doacross),
        linear: linear.map(|_| t_doacross),
        reordered: order.as_ref().map(|_| t_reordered),
        blocked: None,
        wavefront: t_wavefront,
    };
    let best_flagged = t_doacross.min(t_reordered);
    let best_parallel = best_flagged.min(t_wavefront.unwrap_or(f64::INFINITY));
    let mut variant = if t_seq <= best_parallel {
        PlanVariant::Sequential
    } else if t_wavefront.is_some_and(|t| t < best_flagged) {
        PlanVariant::Wavefront
    } else if t_reordered < t_doacross {
        PlanVariant::Reordered
    } else if let Some(subscript) = linear {
        PlanVariant::Linear(subscript)
    } else {
        PlanVariant::Doacross
    };
    if variant != PlanVariant::Sequential
        && census.iterations > 0
        && census.data_len >= BLOCKED_DATA_SPACE_FACTOR * census.iterations
    {
        let block_size = census
            .iterations
            .div_ceil(16)
            .max(4 * p)
            .min(census.iterations);
        let nblocks = census.iterations.div_ceil(block_size) as f64;
        let blocked_work = n * (exec_per_iter + costs.inspect_per_iter + costs.post_per_iter)
            + census.total_terms as f64 * per_term;
        let t_blocked = nblocks * 3.0 * costs.region_dispatch + blocked_work / p as f64;
        prices.blocked = Some(t_blocked);
        if t_blocked < t_seq {
            variant = PlanVariant::Blocked { block_size };
        }
    }

    let prepared = matches!(variant, PlanVariant::Doacross | PlanVariant::Reordered).then(|| {
        PreparedInspection::inspect(pool, Schedule::multimax(), pattern, true).expect("in bounds")
    });
    Reference {
        costs: prices,
        variant,
        order: order.filter(|_| variant == PlanVariant::Reordered),
        levels: level_schedule.filter(|_| variant == PlanVariant::Wavefront),
        prepared,
    }
}

fn bits(price: Option<f64>) -> Option<u64> {
    price.map(f64::to_bits)
}

/// Plans `pattern` both ways and asserts everything observable agrees;
/// returns the pick.
fn assert_equivalent<P: AccessPattern + ?Sized>(
    costs: &CostModel,
    pool: &ThreadPool,
    pattern: &P,
    what: &str,
) -> PlanVariant {
    let plan = Planner::with_costs(*costs)
        .plan(pool, pattern)
        .expect("in bounds");
    let want = reference(costs, pool, pattern);
    let what = format!("{what}, p={}", pool.threads());
    let (got, exp) = (plan.costs(), &want.costs);
    assert_eq!(got.sequential.to_bits(), exp.sequential.to_bits(), "{what}");
    assert_eq!(bits(got.doacross), bits(exp.doacross), "doacross, {what}");
    assert_eq!(bits(got.linear), bits(exp.linear), "linear, {what}");
    assert_eq!(
        bits(got.reordered),
        bits(exp.reordered),
        "reordered, {what}"
    );
    assert_eq!(bits(got.blocked), bits(exp.blocked), "blocked, {what}");
    assert_eq!(
        bits(got.wavefront),
        bits(exp.wavefront),
        "wavefront, {what}"
    );
    assert_eq!(plan.variant(), want.variant, "{what}");
    assert_eq!(plan.order(), want.order.as_deref(), "order, {what}");
    assert_eq!(
        plan.level_schedule(),
        want.levels.as_ref(),
        "levels, {what}"
    );
    match (plan.prepared(), &want.prepared) {
        (None, None) => {}
        (Some(got), Some(exp)) => {
            assert_eq!(got.iterations(), exp.iterations(), "{what}");
            assert_eq!(got.data_len(), exp.data_len(), "{what}");
            for e in 0..exp.data_len() {
                assert_eq!(got.writer(e), exp.writer(e), "writer of {e}, {what}");
            }
        }
        (got, exp) => panic!(
            "writer map presence differs ({} vs {}), {what}",
            got.is_some(),
            exp.is_some()
        ),
    }
    plan.variant()
}

/// A unit lower-triangular factor as the Figure 7 loop reads it:
/// iteration `i` writes `y(i)` and reads the row's strict-lower columns.
struct Lower(TriangularMatrix);

impl Lower {
    fn of(a: &CsrMatrix) -> Self {
        Self(TriangularMatrix::from_strict_lower(&ilu0(a).l))
    }
}

impl AccessPattern for Lower {
    fn iterations(&self) -> usize {
        self.0.n()
    }
    fn data_len(&self) -> usize {
        self.0.n()
    }
    fn lhs(&self, i: usize) -> usize {
        i
    }
    fn terms(&self, i: usize) -> usize {
        self.0.high(i) - self.0.low(i)
    }
    fn term_element(&self, i: usize, j: usize) -> usize {
        self.0.column()[self.0.low(i) + j]
    }
}

/// The 192 small ILU(0) structures a plan-churn workload cycles through:
/// 5-PT and 9-PT on 12..=19 × 12..=19, 7-PT on 5..=8 cubed.
fn churn_structures() -> Vec<(String, Lower)> {
    let mut out = Vec::new();
    for nx in 12..=19 {
        for ny in 12..=19 {
            out.push((format!("5-PT {nx}x{ny}"), Lower::of(&five_point(nx, ny, 1))));
            out.push((format!("9-PT {nx}x{ny}"), Lower::of(&nine_point(nx, ny, 1))));
        }
    }
    for cx in 5..=8 {
        for cy in 5..=8 {
            for cz in 5..=8 {
                let a = seven_point(cx, cy, cz, 1);
                out.push((format!("7-PT {cx}x{cy}x{cz}"), Lower::of(&a)));
            }
        }
    }
    out
}

/// Hand-built structures that pick the artifact-carrying variants.
fn pick_structures() -> Vec<(String, IndirectLoop)> {
    // Interleaved distance-1 chains: the doconsider order removes stalls.
    let (chains, len) = (32usize, 16usize);
    let n = chains * len;
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    let chains = IndirectLoop::new(n, (0..n).collect(), rhs, coeff).unwrap();
    // Dependence-free scatter with a non-linear subscript.
    let n = 4_000usize;
    let scatter =
        IndirectLoop::new(n, (0..n).rev().collect(), vec![vec![]; n], vec![vec![]; n]).unwrap();
    vec![
        ("interleaved chains".to_string(), chains),
        ("reverse scatter".to_string(), scatter),
        ("deep grid".to_string(), testgrid::deep_grid(64, 20, 3, 7)),
    ]
}

#[test]
fn churn_table1_fig6_and_hand_built_structures_plan_identically() {
    let pools = pools();
    let mut picks: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut tally = |v: PlanVariant| {
        let name = match v {
            PlanVariant::Sequential => "sequential",
            PlanVariant::Doacross => "doacross",
            PlanVariant::Linear(_) => "linear",
            PlanVariant::Reordered => "reordered",
            PlanVariant::Blocked { .. } => "blocked",
            PlanVariant::Wavefront => "wavefront",
        };
        *picks.entry(name).or_default() += 1;
    };
    let table1: Vec<(String, Lower)> = ProblemKind::all()
        .into_iter()
        .map(|kind| (kind.name().to_string(), Lower::of(&Problem::build(kind).a)))
        .collect();
    for costs in &cost_models() {
        for pool in &pools {
            for (what, pattern) in churn_structures().iter().chain(&table1) {
                tally(assert_equivalent(costs, pool, pattern, what));
            }
            for (what, pattern) in &pick_structures() {
                tally(assert_equivalent(costs, pool, pattern, what));
            }
            // The Figure 6 sweep: the Figure 4 loop at N = 10000, M = 5.
            for l in 1..=14 {
                let what = format!("Figure 4 loop L={l}");
                tally(assert_equivalent(
                    costs,
                    pool,
                    &TestLoop::new(10_000, 5, l),
                    &what,
                ));
            }
        }
    }
    // Every artifact the planner can build was built and compared.
    for variant in ["sequential", "doacross", "reordered", "wavefront"] {
        assert!(picks.get(variant).is_some_and(|&c| c > 0), "{picks:?}");
    }
}

/// An arbitrary injective loop: the left-hand side is a prefix of a
/// shuffled data space, the right-hand side arbitrary references.
fn arb_injective_loop(max_n: usize) -> impl Strategy<Value = IndirectLoop> {
    (1..=max_n)
        .prop_flat_map(move |n| {
            let data_len = 2 * n + 1;
            let lhs = Just((0..data_len).collect::<Vec<usize>>())
                .prop_shuffle()
                .prop_map(move |perm| perm[..n].to_vec());
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..6), n..=n);
            (lhs, rhs, Just(data_len))
        })
        .prop_map(|(lhs, rhs, data_len)| {
            let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
            IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid")
        })
}

/// An arbitrary injective loop in the Figure 7 shape — `lhs(i) = i`,
/// references only to earlier rows — with short, unsorted and repeated
/// dependence distances, so most edges have claim gaps below `p` and
/// rows carry duplicate writers out of order.
fn arb_lower_loop(max_n: usize) -> impl Strategy<Value = IndirectLoop> {
    (2..=max_n)
        .prop_flat_map(|n| {
            let rhs = proptest::collection::vec(proptest::collection::vec(1..12usize, 0..6), n..=n);
            (rhs, Just(n))
        })
        .prop_map(|(distances, n)| {
            let rhs: Vec<Vec<usize>> = distances
                .into_iter()
                .enumerate()
                .map(|(i, row)| row.into_iter().filter(|&d| d <= i).map(|d| i - d).collect())
                .collect();
            let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
            IndirectLoop::new(n, (0..n).collect(), rhs, coeff).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_injective_patterns_plan_identically(loop_ in arb_injective_loop(120)) {
        let pools = pools();
        for costs in &cost_models() {
            for pool in &pools {
                assert_equivalent(costs, pool, &loop_, "random injective");
            }
        }
    }

    #[test]
    fn random_lower_triangular_patterns_plan_identically(loop_ in arb_lower_loop(200)) {
        let pools = pools();
        for costs in &cost_models() {
            for pool in &pools {
                assert_equivalent(costs, pool, &loop_, "random lower");
            }
        }
    }
}
