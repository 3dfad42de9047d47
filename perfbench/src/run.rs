//! The closed loop: set-up, timed solves, oracle checks and the
//! end-to-end metrics.
//!
//! One client thread drives the default-built [`Engine`] (as many workers
//! as the host has cores, capped at 8) in a closed loop: each call draws a
//! fresh seeded input, runs the sequential loop on it (the oracle, and the
//! `T_seq` sample), runs the engine on it, and compares the two results
//! bit for bit before the next call starts. Which of the two runs first
//! alternates from one pass over the structures to the next, so neither
//! side always finds the structure warm in cache.

use crate::cases::{churn_cases, fig6_cases, shuffled, table1_cases, Case, Rng};
use crate::layers;
use crate::spans::Tracer;
use crate::stats::{geomean_of_percentiles, geomean_of_ratios, mean, median, percentile};
use doacross_core::{alloc::thread_allocations, seq::run_sequential, RunStats};
use doacross_engine::{Engine, PreparedLoop};
use doacross_plan::{PlanExecutor, PlanVariant};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. The first builds
/// the engine the run measures; the others are spread evenly through the
/// timed loop (each builds a spare engine, prepares, is timed and is
/// dropped), so that `setup_s` sees the same host conditions as the solves.
pub const SETUPS: usize = 41;
/// Share of a steady workload's untraced run spent on cold solves, after
/// the warm loop.
pub const COLD_SHARE: f64 = 0.1;
/// Warm `Engine::run` calls per `plan_churn` visit, after the cold one.
pub const CHURN_WARM_CALLS: usize = 3;
/// Structures a `plan_churn` set-up prepares before the engine's cache is
/// cleared for the cold cycle: one of each stencil.
pub const CHURN_SETUP_STRUCTURES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1: five ILU(0) `L` factors, each prepared once
    /// during set-up and then executed round-robin through
    /// `PreparedLoop::execute`. At two workers the default plan picks
    /// `wavefront` on four of them and `sequential` on 5-PT, so the
    /// executor body, region dispatch and level barriers carry the cost
    /// and planning never runs in the timed loop.
    Table1Steady,
    /// The paper's Figure 6 sweep at `M = 5`: the Figure 4 loop with
    /// `N = 10000` for `L = 1..=14`, executed round-robin through
    /// `PreparedLoop::execute`. The default picks `linear` on most `L` and
    /// `sequential` on the even `L` from 4 to 12, so ready-flag publish
    /// and wait plus the post phase carry the cost, with no barriers —
    /// the mirror image of `table1_steady`. The odd `L` carry no
    /// dependences and isolate pure overhead, as the paper's plateau does.
    ///
    /// Runnable, but not in `BENCHMARK.json`: its figures swung by up to
    /// 1.6× between runs on a shared two-core host (see the package
    /// README).
    Fig6Sweep,
    /// More distinct ILU(0) structures than the default plan cache holds,
    /// visited cyclically in a seeded order: each visit is one cold
    /// `Engine::run` (every plan was evicted since the last visit) and a
    /// few warm ones.
    /// Fingerprinting, census, dependence analysis, pricing, inspection
    /// and cache insert/evict dominate — the plan cache's write path and
    /// `Engine::run`'s fingerprint-and-lookup path, which the steady
    /// workloads never take. The structures are small (see
    /// [`crate::cases::churn_cases`]).
    PlanChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Table1Steady,
        Workload::Fig6Sweep,
        Workload::PlanChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Steady => "table1_steady",
            Workload::Fig6Sweep => "fig6_sweep",
            Workload::PlanChurn => "plan_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to drive.
    pub workload: Workload,
    /// Seed every input of the run is drawn from.
    pub seed: u64,
    /// Length of the timed part of the run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Flip one bit of the first checked result — a self-test that the
    /// oracle check trips.
    pub corrupt_first: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Solves attempted (every one checked against the oracle).
    pub attempted: u64,
    /// Solves that returned an error or a result differing from the
    /// oracle in any bit.
    pub failed: u64,
    /// Description of the first failure, if any.
    pub first_failure: Option<String>,
    /// The run's metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON.
    pub spans_json: Option<String>,
}

impl Report {
    /// Records a metric. A summary without samples is reported as 0 and
    /// noted, so the result stays well-formed.
    pub fn metric(&mut self, name: &str, value: Option<f64>, unit: &'static str, samples: usize) {
        let value = match value.filter(|v| v.is_finite()) {
            Some(v) => v,
            None => {
                self.notes
                    .push(format!("{name}: no samples, reported as 0"));
                0.0
            }
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Copies the oracle bookkeeping into the report.
    fn absorb(&mut self, check: Check) {
        self.attempted = check.attempted;
        self.failed = check.failed;
        self.first_failure = check.first_failure;
    }
}

/// Bit-for-bit oracle bookkeeping (see module docs).
#[derive(Debug)]
pub struct Check {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    corrupt_next: bool,
}

impl Check {
    /// Fresh bookkeeping; with `corrupt_first` the first checked result
    /// has one bit flipped before it is compared.
    pub fn new(corrupt_first: bool) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            first_failure: None,
            corrupt_next: corrupt_first,
        }
    }

    /// Counts a failure that produced no result to compare.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Checks one solve: an `Err`, or a `y` differing from `oracle` in any
    /// bit, counts as failed. Returns the solve's stats when it passed.
    pub fn solve<E: Display>(
        &mut self,
        what: &str,
        label: &str,
        result: Result<RunStats, E>,
        y: &mut [f64],
        oracle: &[f64],
    ) -> Option<RunStats> {
        match result {
            Err(e) => {
                self.fail(format!("{what} on {label}: {e}"));
                None
            }
            Ok(stats) => {
                if std::mem::take(&mut self.corrupt_next) {
                    if let Some(v) = y.first_mut() {
                        *v = f64::from_bits(v.to_bits() ^ 1);
                    }
                }
                self.attempted += 1;
                if let Some(at) = first_mismatch(y, oracle) {
                    self.failed += 1;
                    self.first_failure.get_or_insert(format!(
                        "{what} on {label}: element {at} differs from the sequential loop"
                    ));
                    None
                } else {
                    Some(stats)
                }
            }
        }
    }
}

/// Index of the first element whose bits differ (or of the length
/// mismatch).
pub fn first_mismatch(a: &[f64], b: &[f64]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

/// Request ids of closed-loop calls, and the structure each call solved.
/// Id 0 is reserved for set-up work, which belongs to no call.
#[derive(Debug, Default)]
pub struct Requests {
    case_of: Vec<usize>,
}

impl Requests {
    /// A new request id for a call on structure `case`.
    pub fn next(&mut self, case: usize) -> u64 {
        self.case_of.push(case);
        self.case_of.len() as u64
    }

    /// The structure request `id` solved.
    pub fn case(&self, id: u64) -> Option<usize> {
        (id as usize)
            .checked_sub(1)
            .and_then(|i| self.case_of.get(i).copied())
    }
}

/// Reusable per-call buffers.
#[derive(Debug, Default)]
pub struct Bufs {
    /// The call's seeded input.
    pub input: Vec<f64>,
    /// The sequential loop's result.
    pub oracle: Vec<f64>,
    /// The result under test.
    pub y: Vec<f64>,
}

impl Bufs {
    /// Draws a fresh input for `case` and computes its oracle, untimed.
    pub fn draw<C: Case>(&mut self, case: &C, rng: &mut Rng) {
        self.input.resize(case.input_len(), 0.0);
        case.fill_input(rng, &mut self.input);
        case.start_y(&self.input, &mut self.oracle);
        run_sequential(&case.bind(&self.input), &mut self.oracle);
    }
}

/// A set-up engine with one prepared handle per structure.
pub struct Session {
    /// The default-built engine.
    pub engine: Engine,
    /// Handle per structure, in case order.
    pub handles: Vec<PreparedLoop>,
}

/// Set-up: builds the default engine and prepares (plans) each of
/// `cases`. Returns the session and the set-up's wall time in seconds.
fn set_up<C: Case>(
    cases: &[C],
    inputs: &[Vec<f64>],
    tr: &mut Tracer,
) -> Result<(Session, f64), String> {
    let root = tr.open("setup", 0);
    let started = Instant::now();
    let (engine, _) = tr.timed("engine.build", 0, || Engine::builder().build());
    let mut handles = Vec::with_capacity(cases.len());
    for (case, input) in cases.iter().zip(inputs) {
        let lp = case.bind(input);
        let (handle, _) = tr.timed("engine.prepare.cold", 0, || engine.prepare(&lp));
        handles.push(handle.map_err(|e| format!("prepare {}: {e}", case.label()))?);
    }
    let setup_s = started.elapsed().as_secs_f64();
    tr.close(root);
    Ok((Session { engine, handles }, setup_s))
}

/// Cold solves on a steady workload: round-robin, the structure's plan is
/// invalidated (untimed) and the next `Engine::run` plans it afresh — the
/// first call on a structure the engine has no plan for — paired with a
/// timed sequential run on the same input. The handle is then
/// re-prepared so the session stays usable.
pub(crate) fn cold_phase<C: Case>(
    cases: &[C],
    session: &mut Session,
    rng: &mut Rng,
    until: Instant,
    check: &mut Check,
    out: &mut LoopSamples,
) {
    let mut b = Bufs::default();
    let mut call = 0usize;
    while Instant::now() < until {
        let c = call % cases.len();
        let case = &cases[c];
        b.input.resize(case.input_len(), 0.0);
        case.fill_input(rng, &mut b.input);
        let lp = case.bind(&b.input);
        case.start_y(&b.input, &mut b.oracle);
        case.start_y(&b.input, &mut b.y);
        let started = Instant::now();
        run_sequential(&lp, &mut b.oracle);
        let seq_us = started.elapsed().as_secs_f64() * 1e6;
        session.engine.invalidate(session.handles[c].fingerprint());
        let started = Instant::now();
        let res = session.engine.run(&lp, &mut b.y);
        let cold_us = started.elapsed().as_secs_f64() * 1e6;
        if let Some(stats) = check.solve("cold Engine::run", case.label(), res, &mut b.y, &b.oracle)
        {
            if stats.provenance == doacross_core::PlanProvenance::PlanCold {
                out.cold_us[c].push(cold_us);
                out.cold_seq_us[c].push(seq_us);
            } else {
                out.cold_hits += 1;
            }
        }
        match session.engine.prepare(&lp) {
            Ok(handle) => session.handles[c] = handle,
            Err(e) => check.fail(format!("prepare {}: {e}", case.label())),
        }
        call += 1;
    }
}

/// What a closed loop measured, per structure where it matters.
#[derive(Debug, Default)]
pub struct LoopSamples {
    /// `T_seq` samples (µs) per structure.
    pub seq_us: Vec<Vec<f64>>,
    /// Warm engine solve samples (µs) per structure.
    pub eng_us: Vec<Vec<f64>>,
    /// Cold engine solve samples (µs) per structure.
    pub cold_us: Vec<Vec<f64>>,
    /// `T_seq` samples (µs) paired with the cold solves.
    pub cold_seq_us: Vec<Vec<f64>>,
    /// Per-visit `T_seq` totals (µs) per structure (`plan_churn` only).
    pub visit_seq_us: Vec<Vec<f64>>,
    /// Per-visit engine totals (µs) per structure (`plan_churn` only).
    pub visit_eng_us: Vec<Vec<f64>>,
    /// Structure and stats of every passing warm engine solve.
    pub stats: Vec<(usize, RunStats)>,
    /// Calling-thread allocations around each warm engine call.
    pub call_allocs: Vec<f64>,
    /// Engine solves dispatched (including paired ones).
    pub engine_solves: u64,
    /// Cold calls that found their plan cached after all.
    pub cold_hits: u64,
}

impl LoopSamples {
    /// Empty samples for `cases` structures.
    pub fn new(cases: usize) -> Self {
        Self {
            seq_us: vec![Vec::new(); cases],
            eng_us: vec![Vec::new(); cases],
            cold_us: vec![Vec::new(); cases],
            cold_seq_us: vec![Vec::new(); cases],
            visit_seq_us: vec![Vec::new(); cases],
            visit_eng_us: vec![Vec::new(); cases],
            ..Self::default()
        }
    }

    /// `speedup_vs_seq`: per call, `T_seq` over the engine time on the
    /// same input, the two measured back to back (per visit on
    /// `plan_churn`); per structure the median of those ratios; then the
    /// geometric mean over structures. Pairing each engine call with its
    /// own sequential run cancels what the host's load does to both.
    pub fn speedup(&self) -> Option<f64> {
        let (seq, eng) = if self.visit_eng_us.iter().any(|v| !v.is_empty()) {
            (&self.visit_seq_us, &self.visit_eng_us)
        } else {
            (&self.seq_us, &self.eng_us)
        };
        let ratios: Vec<Vec<f64>> = seq
            .iter()
            .zip(eng)
            .map(|(s, e)| s.iter().zip(e).map(|(s, e)| s / e).collect())
            .collect();
        geomean_of_percentiles(&ratios, 0.5)
    }

    /// Warm engine solve time at quantile `q`: per structure, then the
    /// geometric mean over structures.
    pub fn solve_us(&self, q: f64) -> Option<f64> {
        geomean_of_percentiles(&self.eng_us, q)
    }

    /// `cold_solve_us.p50`: geometric mean over structures of the median
    /// cold solve.
    pub fn cold_solve_p50(&self) -> Option<f64> {
        geomean_of_percentiles(&self.cold_us, 0.5)
    }

    /// `cold_solve_vs_seq.p50`: geometric mean over structures of the
    /// median cold solve over the median paired `T_seq` — what a first
    /// call on a structure costs, in sequential loops.
    pub fn cold_vs_seq(&self) -> Option<f64> {
        geomean_of_ratios(&self.cold_us, &self.cold_seq_us, 0.5)
    }

    fn solves(&self) -> usize {
        self.eng_us.iter().map(Vec::len).sum()
    }

    fn visits(&self) -> usize {
        self.visit_eng_us.iter().map(Vec::len).sum()
    }
}

/// One seeded input per structure, for binding the loops set-up plans.
fn set_up_inputs<C: Case>(cases: &[C], rng: &mut Rng) -> Vec<Vec<f64>> {
    cases
        .iter()
        .map(|case| {
            let mut input = vec![0.0; case.input_len()];
            case.fill_input(rng, &mut input);
            input
        })
        .collect()
}

/// The steady closed loop: round-robin `PreparedLoop::execute` calls until
/// `until`. With `pair`, each call also runs `PlanExecutor::execute` on the
/// handle's own plan, so the engine's overhead over the bare plan
/// executor can be paired per call.
#[allow(clippy::too_many_arguments)]
pub fn steady_loop<C: Case>(
    cases: &[C],
    session: &Session,
    rng: &mut Rng,
    until: Instant,
    tr: &mut Tracer,
    check: &mut Check,
    req: &mut Requests,
    mut pair: Option<&mut PlanExecutor>,
    out: &mut LoopSamples,
) {
    let mut b = Bufs::default();
    let mut call = 0usize;
    while Instant::now() < until {
        let c = call % cases.len();
        let (case, handle) = (&cases[c], &session.handles[c]);
        let r = req.next(c);
        let root = tr.open("call", r);
        b.input.resize(case.input_len(), 0.0);
        case.fill_input(rng, &mut b.input);
        let lp = case.bind(&b.input);
        case.start_y(&b.input, &mut b.oracle);
        case.start_y(&b.input, &mut b.y);
        // Alternate per structure, from one round-robin pass to the next.
        let seq_first = (call / cases.len()).is_multiple_of(2);
        let mut seq_ns = 0;
        if seq_first {
            seq_ns = tr
                .timed("core.seq", r, || run_sequential(&lp, &mut b.oracle))
                .1;
        }
        let allocs_before = thread_allocations();
        let (res, eng_ns) = tr.timed("engine.execute", r, || handle.execute(&lp, &mut b.y));
        let call_allocs = thread_allocations() - allocs_before;
        if !seq_first {
            seq_ns = tr
                .timed("core.seq", r, || run_sequential(&lp, &mut b.oracle))
                .1;
        }
        out.engine_solves += 1;
        if let Some(stats) = check.solve("execute", case.label(), res, &mut b.y, &b.oracle) {
            out.seq_us[c].push(seq_ns as f64 / 1e3);
            out.eng_us[c].push(eng_ns as f64 / 1e3);
            out.call_allocs.push(call_allocs as f64);
            out.stats.push((c, stats));
        }
        if let Some(executor) = pair.as_deref_mut() {
            case.start_y(&b.input, &mut b.y);
            let pool = session.engine.pool();
            let (res, _) = tr.timed("plan.execute", r, || {
                executor.execute(pool, &lp, &mut b.y, handle.plan())
            });
            check.solve(
                "PlanExecutor::execute",
                case.label(),
                res,
                &mut b.y,
                &b.oracle,
            );
        }
        tr.close(root);
        call += 1;
    }
}

/// Per-structure plan facts collected on first sight.
#[derive(Debug, Clone, Copy)]
pub struct PlanFacts {
    /// The default's pick.
    pub variant: PlanVariant,
    /// `ExecutionPlan::memory_bytes`.
    pub bytes: usize,
}

impl PlanFacts {
    fn of(handle: &PreparedLoop) -> Self {
        Self {
            variant: handle.variant(),
            bytes: handle.plan().memory_bytes(),
        }
    }
}

/// The churn cycle's seeded visit order, its position, and what it has
/// learned about each structure's plan.
#[derive(Debug)]
pub struct ChurnState {
    order: Vec<usize>,
    visit: usize,
    /// Plan facts per structure, filled on the structure's first visit.
    pub facts: Vec<Option<PlanFacts>>,
}

impl ChurnState {
    fn new(cases: usize, rng: &mut Rng) -> Self {
        Self {
            order: shuffled(cases, rng),
            visit: 0,
            facts: vec![None; cases],
        }
    }
}

/// The churn closed loop: visits structures cyclically until `until`;
/// each visit is one cold and [`CHURN_WARM_CALLS`] warm `Engine::run`
/// calls, every one checked against its own sequential oracle. With
/// `pair`, each warm call also times a cache-hit `prepare` and pairs the
/// handle's `execute` with `PlanExecutor::execute` on its plan.
#[allow(clippy::too_many_arguments)]
pub fn churn_loop<C: Case>(
    cases: &[C],
    engine: &Engine,
    rng: &mut Rng,
    until: Instant,
    tr: &mut Tracer,
    check: &mut Check,
    req: &mut Requests,
    state: &mut ChurnState,
    mut pair: Option<&mut PlanExecutor>,
    out: &mut LoopSamples,
) {
    let mut b = Bufs::default();
    while Instant::now() < until {
        let c = state.order[state.visit % cases.len()];
        state.visit += 1;
        let case = &cases[c];
        let visit = tr.open("visit", 0);
        // A caller meets a new structure right after assembling it, so it
        // is in cache: one untimed sequential solve brings it back from
        // wherever the other structures' visits pushed it.
        b.draw(case, rng);
        let (mut seq_total, mut eng_total) = (0u64, 0u64);
        for k in 0..=CHURN_WARM_CALLS {
            let r = req.next(c);
            let root = tr.open("call", r);
            b.input.resize(case.input_len(), 0.0);
            case.fill_input(rng, &mut b.input);
            let lp = case.bind(&b.input);
            case.start_y(&b.input, &mut b.oracle);
            case.start_y(&b.input, &mut b.y);
            let seq_first = k.is_multiple_of(2);
            let mut seq_ns = 0;
            if seq_first {
                seq_ns = tr
                    .timed("core.seq", r, || run_sequential(&lp, &mut b.oracle))
                    .1;
            }
            let name = if k == 0 {
                "engine.run.cold"
            } else {
                "engine.run.warm"
            };
            let allocs_before = thread_allocations();
            let (res, eng_ns) = tr.timed(name, r, || engine.run(&lp, &mut b.y));
            let call_allocs = thread_allocations() - allocs_before;
            if !seq_first {
                seq_ns = tr
                    .timed("core.seq", r, || run_sequential(&lp, &mut b.oracle))
                    .1;
            }
            seq_total += seq_ns;
            eng_total += eng_ns;
            out.engine_solves += 1;
            if let Some(stats) = check.solve("Engine::run", case.label(), res, &mut b.y, &b.oracle)
            {
                out.seq_us[c].push(seq_ns as f64 / 1e3);
                if k > 0 {
                    out.eng_us[c].push(eng_ns as f64 / 1e3);
                    out.call_allocs.push(call_allocs as f64);
                    out.stats.push((c, stats));
                } else if stats.provenance == doacross_core::PlanProvenance::PlanCold {
                    out.cold_us[c].push(eng_ns as f64 / 1e3);
                    out.cold_seq_us[c].push(seq_ns as f64 / 1e3);
                } else {
                    out.cold_hits += 1;
                }
            }
            if k == 0 && state.facts[c].is_none() {
                match engine.prepare(&lp) {
                    Ok(handle) => state.facts[c] = Some(PlanFacts::of(&handle)),
                    Err(e) => check.fail(format!("prepare {}: {e}", case.label())),
                }
            }
            if let (Some(executor), true) = (pair.as_deref_mut(), k > 0) {
                let (handle, _) = tr.timed("engine.prepare.hit", r, || engine.prepare(&lp));
                match handle {
                    Ok(handle) => {
                        case.start_y(&b.input, &mut b.y);
                        let (res, _) =
                            tr.timed("engine.execute", r, || handle.execute(&lp, &mut b.y));
                        out.engine_solves += 1;
                        check.solve("execute", case.label(), res, &mut b.y, &b.oracle);
                        case.start_y(&b.input, &mut b.y);
                        let pool = engine.pool();
                        let (res, _) = tr.timed("plan.execute", r, || {
                            executor.execute(pool, &lp, &mut b.y, handle.plan())
                        });
                        check.solve(
                            "PlanExecutor::execute",
                            case.label(),
                            res,
                            &mut b.y,
                            &b.oracle,
                        );
                    }
                    Err(e) => check.fail(format!("prepare {}: {e}", case.label())),
                }
            }
            tr.close(root);
        }
        out.visit_seq_us[c].push(seq_total as f64 / 1e3);
        out.visit_eng_us[c].push(eng_total as f64 / 1e3);
        tr.close(visit);
    }
}

/// Runs one benchmark run as configured.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut rng = Rng::new(cfg.seed);
    match cfg.workload {
        Workload::Table1Steady => {
            let cases = table1_cases(&mut rng);
            steady(&cases, &mut rng, cfg)
        }
        Workload::Fig6Sweep => steady(&fig6_cases(), &mut rng, cfg),
        Workload::PlanChurn => {
            let cases = churn_cases(&mut rng);
            churn(&cases, &mut rng, cfg)
        }
    }
}

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.0))
}

/// Plan picks and plan sizes, as report notes and (traced) metrics.
pub fn plan_notes(report: &mut Report, facts: &[PlanFacts], as_metrics: bool) {
    let mut picks: BTreeMap<&'static str, usize> =
        layers::VARIANTS.iter().map(|v| (*v, 0)).collect();
    for f in facts {
        *picks.entry(layers::variant_name(f.variant)).or_default() += 1;
    }
    let bytes: Vec<f64> = facts.iter().map(|f| f.bytes as f64).collect();
    let summary: Vec<String> = picks.iter().map(|(v, n)| format!("{v}={n}")).collect();
    report.notes.push(format!(
        "plan picks over {} structures: {}",
        facts.len(),
        summary.join(" ")
    ));
    report.notes.push(format!(
        "plan_bytes = {:.1} bytes (mean ExecutionPlan::memory_bytes, n={})",
        mean(&bytes).unwrap_or(0.0),
        bytes.len()
    ));
    if as_metrics {
        for v in layers::VARIANTS {
            let name = format!("plan.pick.{v}");
            report.metric(&name, Some(picks[v] as f64), "count", facts.len());
        }
        report.metric("plan.bytes", mean(&bytes), "bytes", bytes.len());
    }
}

/// The end-to-end metrics of an untraced run, with the whole-run medians
/// and the cold solves as notes.
fn e2e_metrics(report: &mut Report, samples: &LoopSamples, setups: &[f64], structures: usize) {
    let solves = samples.solves();
    let ratios = match samples.visits() {
        0 => solves,
        visits => visits,
    };
    report.metric("speedup_vs_seq", samples.speedup(), "ratio", ratios);
    report.metric("setup_s", median(setups), "s", setups.len());
    let colds: usize = samples.cold_us.iter().map(Vec::len).sum();
    let allocs: Vec<f64> = samples
        .stats
        .iter()
        .map(|(_, s)| s.allocations as f64)
        .collect();
    for line in [
        format!(
            "solve_us.p50 = {} us (n={solves})",
            samples.solve_us(0.5).unwrap_or(0.0)
        ),
        format!(
            "solve_us.p10 = {} us (n={solves})",
            samples.solve_us(0.1).unwrap_or(0.0)
        ),
        format!(
            "cold_solve_us.p50 = {} us (n={colds})",
            samples.cold_solve_p50().unwrap_or(0.0)
        ),
        format!(
            "cold_solve_vs_seq.p50 = {} (n={colds})",
            samples.cold_vs_seq().unwrap_or(0.0)
        ),
        format!(
            "allocs_per_solve = {} (RunStats::allocations, n={})",
            mean(&allocs).unwrap_or(0.0),
            allocs.len()
        ),
        format!(
            "setup_s min/median/max = {}/{}/{} s",
            percentile(setups, 0.0).unwrap_or(0.0),
            median(setups).unwrap_or(0.0),
            percentile(setups, 1.0).unwrap_or(0.0)
        ),
        format!("structures = {structures}; per-structure figures are combined by geometric mean"),
    ] {
        report.notes.push(line);
    }
}

fn steady<C: Case>(cases: &[C], rng: &mut Rng, cfg: &Config) -> Result<Report, String> {
    let mut check = Check::new(cfg.corrupt_first);
    let inputs = set_up_inputs(cases, rng);
    let mut report = Report::default();
    if cfg.trace {
        let mut tr = Tracer::on();
        let (mut session, _) = set_up(cases, &inputs, &mut tr)?;
        let facts: Vec<PlanFacts> = session.handles.iter().map(PlanFacts::of).collect();
        layers::traced(
            &mut report,
            layers::Target::Steady(cases, &mut session),
            &facts,
            rng,
            cfg,
            &mut tr,
            &mut check,
        )?;
    } else {
        let (mut session, first) = set_up(cases, &inputs, &mut Tracer::off())?;
        let mut setups = vec![first];
        let mut samples = LoopSamples::new(cases.len());
        let segment = secs(cfg.seconds * (1.0 - COLD_SHARE) / (SETUPS - 1) as f64);
        for _ in 1..SETUPS {
            let (spare, setup_s) = set_up(cases, &inputs, &mut Tracer::off())?;
            setups.push(setup_s);
            drop(spare);
            steady_loop(
                cases,
                &session,
                rng,
                Instant::now() + segment,
                &mut Tracer::off(),
                &mut check,
                &mut Requests::default(),
                None,
                &mut samples,
            );
        }
        let until = Instant::now() + secs(cfg.seconds * COLD_SHARE);
        cold_phase(cases, &mut session, rng, until, &mut check, &mut samples);
        e2e_metrics(&mut report, &samples, &setups, cases.len());
        let facts: Vec<PlanFacts> = session.handles.iter().map(PlanFacts::of).collect();
        plan_notes(&mut report, &facts, false);
    }
    report.absorb(check);
    Ok(report)
}

fn churn<C: Case>(cases: &[C], rng: &mut Rng, cfg: &Config) -> Result<Report, String> {
    let mut check = Check::new(cfg.corrupt_first);
    let set_up_cases = &cases[..CHURN_SETUP_STRUCTURES];
    let inputs = set_up_inputs(set_up_cases, rng);
    let mut report = Report::default();
    let mut state = ChurnState::new(cases.len(), rng);
    if cfg.trace {
        let mut tr = Tracer::on();
        let (session, _) = set_up(set_up_cases, &inputs, &mut tr)?;
        let engine = session.engine;
        engine.clear_cache();
        layers::traced(
            &mut report,
            layers::Target::Churn(cases, &engine, &mut state),
            &[],
            rng,
            cfg,
            &mut tr,
            &mut check,
        )?;
    } else {
        let (session, first) = set_up(set_up_cases, &inputs, &mut Tracer::off())?;
        let engine = session.engine;
        engine.clear_cache();
        let mut setups = vec![first];
        let mut samples = LoopSamples::new(cases.len());
        let segment = secs(cfg.seconds / (SETUPS - 1) as f64);
        for _ in 1..SETUPS {
            let (spare, setup_s) = set_up(set_up_cases, &inputs, &mut Tracer::off())?;
            setups.push(setup_s);
            drop(spare);
            churn_loop(
                cases,
                &engine,
                rng,
                Instant::now() + segment,
                &mut Tracer::off(),
                &mut check,
                &mut Requests::default(),
                &mut state,
                None,
                &mut samples,
            );
        }
        e2e_metrics(&mut report, &samples, &setups, cases.len());
        report.notes.push(format!(
            "visits = {}, cold calls served from cache = {}",
            samples.visits(),
            samples.cold_hits
        ));
        let facts: Vec<PlanFacts> = state.facts.iter().flatten().copied().collect();
        plan_notes(&mut report, &facts, false);
    }
    report.absorb(check);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn mismatch_is_bitwise() {
        assert_eq!(first_mismatch(&[1.0, 2.0], &[1.0, 2.0]), None);
        assert_eq!(first_mismatch(&[0.0], &[-0.0]), Some(0));
        assert_eq!(first_mismatch(&[1.0, 2.0], &[1.0]), Some(1));
        let nan = f64::NAN;
        assert_eq!(first_mismatch(&[nan], &[nan]), None);
    }

    #[test]
    fn corrupted_result_trips_the_check() {
        let mut check = Check::new(true);
        let oracle = vec![1.5, 2.5];
        let mut y = oracle.clone();
        let ok: Result<RunStats, String> = Ok(RunStats::default());
        assert!(check.solve("t", "x", ok.clone(), &mut y, &oracle).is_none());
        let mut y = oracle.clone();
        assert!(check.solve("t", "x", ok, &mut y, &oracle).is_some());
        check.solve::<String>("t", "x", Err("boom".into()), &mut y, &oracle);
        assert_eq!((check.attempted, check.failed), (3, 2));
    }

    #[test]
    fn requests_map_to_structures() {
        let mut req = Requests::default();
        assert_eq!(req.next(4), 1);
        assert_eq!(req.next(0), 2);
        assert_eq!(req.case(1), Some(4));
        assert_eq!(req.case(2), Some(0));
        assert_eq!(req.case(0), None);
        assert_eq!(req.case(3), None);
    }

    #[test]
    fn short_corrupted_run_fails_its_check() {
        let cfg = Config {
            workload: Workload::Fig6Sweep,
            seed: 5,
            seconds: 0.05,
            trace: false,
            corrupt_first: true,
        };
        let report = run(&cfg).expect("run completes");
        assert_eq!(report.failed, 1);
        assert!(report.attempted > 1);
        assert!(report.first_failure.is_some());
        let clean = run(&Config {
            corrupt_first: false,
            ..cfg
        })
        .expect("run completes");
        assert_eq!(clean.failed, 0);
        let names: Vec<&str> = clean.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["speedup_vs_seq", "setup_s"]);
    }
}
