//! The traced run: spans around every module's public entry points, and
//! the per-layer metrics derived from them.
//!
//! The run has these timed phases, in shares of `--seconds`:
//!
//! 1. an untraced closed loop (the baseline the tracing overhead is
//!    measured against),
//! 2. the same closed loop traced, with each engine solve paired with a
//!    `PlanExecutor::execute` of the engine's own plan on the same input,
//!    then, on a steady workload, cold solves (on `plan_churn` every
//!    visit starts with one),
//! 3. direct calls into each module on the workload's structures — pinned
//!    executors on prebuilt artifacts, inspection, fingerprint, census,
//!    dependence DAG, planning, a cache-hit `prepare` and an empty region,
//! 4. A/B solves against engines built with observability, profiling and
//!    adaptation on, interleaved with the default engine on each input.
//!
//! Which end-to-end metric each layer metric should move, on which
//! workload, is recorded in `perfbench/layers.json`.

use crate::cases::{Case, Rng};
use crate::run::{
    churn_loop, cold_phase, plan_notes, steady_loop, Bufs, Check, ChurnState, Config, LoopSamples,
    PlanFacts, Report, Requests, Session,
};
use crate::spans::{self_times_ns, Tracer, MAX_SPANS};
use crate::stats::{geomean_of_percentiles, geomean_of_ratios, mean, mean_of_medians, median};
use doacross_core::{
    seq::run_sequential, Doacross, DoacrossConfig, LevelSchedule, LinearDoacross, LinearSubscript,
    PreparedInspection, WavefrontDoacross,
};
use doacross_doconsider::DependenceDag;
use doacross_engine::Engine;
use doacross_plan::{detect_linear, PatternFingerprint, PlanCensus, PlanExecutor, PlanVariant};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Share of `--seconds` for the untraced baseline loop.
const BASELINE_SHARE: f64 = 0.2;
/// Share of `--seconds` for the traced closed loop.
const TRACED_SHARE: f64 = 0.3;
/// Share of `--seconds` for cold solves on a steady workload (on
/// `plan_churn` every visit starts with one).
const COLD_SHARE: f64 = 0.05;
/// Share of `--seconds` for the direct module calls.
const MODULE_SHARE: f64 = 0.25;
/// Share of `--seconds` for the observability/profiling/adaptive A/B.
const AB_SHARE: f64 = 0.2;
/// `plan_churn` structures the module calls and the A/B solve (the steady
/// workloads use all of theirs): a fixed prefix of the structures, which
/// holds the three stencils alike, prepared like a steady workload.
pub const LAYER_STRUCTURES: usize = 12;

/// The plan variants, as `plan.pick.<variant>` names them.
pub const VARIANTS: [&str; 6] = [
    "sequential",
    "doacross",
    "linear",
    "reordered",
    "blocked",
    "wavefront",
];

/// The `plan.pick.<variant>` name of `variant`.
pub fn variant_name(variant: PlanVariant) -> &'static str {
    match variant {
        PlanVariant::Sequential => "sequential",
        PlanVariant::Doacross => "doacross",
        PlanVariant::Linear(_) => "linear",
        PlanVariant::Reordered => "reordered",
        PlanVariant::Blocked { .. } => "blocked",
        PlanVariant::Wavefront => "wavefront",
    }
}

/// What the traced run drives.
pub enum Target<'a, C: Case> {
    /// A steady workload: its structures and the set-up session.
    Steady(&'a [C], &'a mut Session),
    /// `plan_churn`: its structures, the set-up engine and the cycle state.
    Churn(&'a [C], &'a Engine, &'a mut ChurnState),
}

/// A phase's share of the spans, in proportion to its share of the time.
fn span_share(share: f64) -> usize {
    (MAX_SPANS as f64 * share) as usize
}

fn deadline(cfg: &Config, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64((cfg.seconds * share).max(0.0))
}

/// What the closed-loop phases of a traced run measured.
struct Loops<'a, C> {
    /// All of the workload's structures.
    cases: &'a [C],
    /// The structures the module calls and the A/B solve.
    layer_cases: &'a [C],
    engine: &'a Engine,
    /// The untraced baseline loop (and the cold solves).
    base: LoopSamples,
    /// The traced loop.
    traced: LoopSamples,
    /// Sub-pool dispatches during the traced loop.
    dispatched: u64,
    /// Each structure's default plan.
    facts: Vec<PlanFacts>,
    /// The span timing a warm engine solve.
    solve_span: &'static str,
}

fn dispatches(engine: &Engine) -> u64 {
    engine.pool_stats().iter().map(|p| p.dispatches).sum()
}

/// Runs the traced phases and fills `report` with every per-layer metric.
/// `facts` holds the steady workloads' plan facts (the churn cycle
/// collects its own).
pub fn traced<C: Case>(
    report: &mut Report,
    target: Target<'_, C>,
    facts: &[PlanFacts],
    rng: &mut Rng,
    cfg: &Config,
    tr: &mut Tracer,
    check: &mut Check,
) -> Result<(), String> {
    let mut req = Requests::default();
    let Loops {
        cases,
        layer_cases,
        engine,
        base,
        traced,
        dispatched,
        facts,
        solve_span,
    } = match target {
        Target::Steady(cases, session) => {
            let mut base = LoopSamples::new(cases.len());
            steady_loop(
                cases,
                session,
                rng,
                deadline(cfg, BASELINE_SHARE),
                &mut Tracer::off(),
                check,
                &mut req,
                None,
                &mut base,
            );
            let before = dispatches(&session.engine);
            let mut executor = PlanExecutor::new(*session.engine.config());
            tr.allow(span_share(TRACED_SHARE));
            let mut traced = LoopSamples::new(cases.len());
            steady_loop(
                cases,
                session,
                rng,
                deadline(cfg, TRACED_SHARE),
                tr,
                check,
                &mut req,
                Some(&mut executor),
                &mut traced,
            );
            let dispatched = dispatches(&session.engine) - before;
            cold_phase(
                cases,
                session,
                rng,
                deadline(cfg, COLD_SHARE),
                check,
                &mut base,
            );
            Loops {
                cases,
                layer_cases: cases,
                engine: &session.engine,
                base,
                traced,
                dispatched,
                facts: facts.to_vec(),
                solve_span: "engine.execute",
            }
        }
        Target::Churn(cases, engine, state) => {
            let mut base = LoopSamples::new(cases.len());
            churn_loop(
                cases,
                engine,
                rng,
                deadline(cfg, BASELINE_SHARE),
                &mut Tracer::off(),
                check,
                &mut req,
                state,
                None,
                &mut base,
            );
            let before = dispatches(engine);
            let mut executor = PlanExecutor::new(*engine.config());
            tr.allow(span_share(TRACED_SHARE));
            let mut traced = LoopSamples::new(cases.len());
            churn_loop(
                cases,
                engine,
                rng,
                deadline(cfg, TRACED_SHARE),
                tr,
                check,
                &mut req,
                state,
                Some(&mut executor),
                &mut traced,
            );
            let dispatched = dispatches(engine) - before;
            Loops {
                cases,
                layer_cases: &cases[..cases.len().min(LAYER_STRUCTURES)],
                engine,
                base,
                traced,
                dispatched,
                facts: state.facts.iter().flatten().copied().collect(),
                solve_span: "engine.run.warm",
            }
        }
    };
    tr.allow(span_share(MODULE_SHARE));
    module_calls(
        layer_cases,
        engine,
        rng,
        deadline(cfg, MODULE_SHARE),
        tr,
        check,
        &mut req,
    )?;
    tr.allow(span_share(AB_SHARE));
    let promotions = ab_calls(
        layer_cases,
        engine,
        rng,
        deadline(cfg, AB_SHARE),
        tr,
        check,
        &mut req,
    )?;
    tr.allow(1);
    let (_, calibrate_ns) = tr.timed("sim.calibrate", 0, || {
        doacross_sim::calibrate(doacross_engine::builder::CALIBRATION_REPS)
    });

    let n = cases.len();
    let per = |name: &str| per_case(tr, &req, n, name, None);
    let count = |name: &str| per(name).iter().map(Vec::len).sum::<usize>();
    let region = tr.durations_us("par.region");
    let colds = base.cold_us.iter().map(Vec::len).sum();
    report.metric("solve_us.p50", base.solve_us(0.5), "us", base.stats.len());
    report.metric("cold_solve_us.p50", base.cold_solve_p50(), "us", colds);
    report.metric("cold_solve_vs_seq.p50", base.cold_vs_seq(), "ratio", colds);

    report.metric("par.region_us.p50", median(&region), "us", region.len());
    report.metric(
        "core.seq_us.p50",
        mean_of_medians(&per("core.seq")),
        "us",
        count("core.seq"),
    );
    let mut exec = vec![Vec::new(); n];
    let mut post = vec![Vec::new(); n];
    for (c, s) in &traced.stats {
        exec[*c].push(s.executor.as_secs_f64() * 1e6);
        post[*c].push(s.post.as_secs_f64() * 1e6);
    }
    let solves = traced.stats.len();
    report.metric("core.exec_us.p50", mean_of_medians(&exec), "us", solves);
    report.metric("core.post_us.p50", mean_of_medians(&post), "us", solves);
    for (metric, span) in [
        ("core.wavefront_us.p50", "core.wavefront"),
        ("core.doacross_us.p50", "core.doacross"),
        ("core.linear_us.p50", "core.linear"),
    ] {
        report.metric(metric, mean_of_medians(&per(span)), "us", count(span));
    }
    let per_solve = |f: fn(&doacross_core::RunStats) -> u64| {
        let v: Vec<f64> = traced.stats.iter().map(|(_, s)| f(s) as f64).collect();
        mean(&v)
    };
    report.metric("core.stalls", per_solve(|s| s.stalls), "1/solve", solves);
    report.metric(
        "core.wait_polls",
        per_solve(|s| s.wait_polls),
        "1/solve",
        solves,
    );
    report.metric(
        "core.barrier_crossings",
        per_solve(|s| s.barrier_crossings),
        "1/solve",
        solves,
    );
    report.metric(
        "allocs_per_solve",
        per_solve(|s| s.allocations),
        "1/solve",
        solves,
    );
    report.metric(
        "engine.allocs_per_call",
        mean(&traced.call_allocs),
        "1/call",
        traced.call_allocs.len(),
    );
    for (metric, span) in [
        ("core.inspect_us.p50", "core.inspect"),
        ("plan.fingerprint_us.p50", "plan.fingerprint"),
        ("plan.census_us.p50", "plan.census"),
        ("doconsider.dag_us.p50", "doconsider.dag"),
        ("plan.build_us.p50", "plan.build"),
        ("plan.execute_us.p50", "plan.execute"),
        ("engine.prepare_hit_us.p50", "engine.prepare.hit"),
    ] {
        report.metric(metric, mean_of_medians(&per(span)), "us", count(span));
    }
    let stats = engine.cache_stats();
    let lookups = stats.hits + stats.misses;
    report.metric(
        "plan.cache_hit_ratio",
        (lookups > 0).then(|| stats.hits as f64 / lookups as f64),
        "ratio",
        lookups as usize,
    );
    let overhead = paired_difference(tr, &req, n, "engine.execute", "plan.execute");
    let pairs = overhead.iter().map(Vec::len).sum();
    report.metric(
        "engine.overhead_us.p50",
        mean_of_medians(&overhead),
        "us",
        pairs,
    );
    report.metric(
        "engine.solve_us.p99",
        geomean_of_percentiles(&per(solve_span), 0.99),
        "us",
        count(solve_span),
    );
    report.metric(
        "sched.saturations",
        Some(engine.saturations() as f64),
        "count",
        1,
    );
    report.metric(
        "sched.dispatches",
        Some(dispatched as f64 / traced.engine_solves.max(1) as f64),
        "1/solve",
        traced.engine_solves as usize,
    );
    report.metric("sim.calibrate_ms", Some(calibrate_ns as f64 / 1e6), "ms", 1);
    let ab_engine = per("ab.engine");
    report.metric(
        "obs.overhead_ratio",
        geomean_of_ratios(&per("obs.execute"), &ab_engine, 0.5),
        "ratio",
        count("obs.execute"),
    );
    report.metric(
        "obs.profile_overhead_ratio",
        geomean_of_ratios(&per("obs.profile.execute"), &ab_engine, 0.5),
        "ratio",
        count("obs.profile.execute"),
    );
    // The adaptive engine is judged on the second half of its solves,
    // after its policy has had the first half to trial and promote.
    let adaptive = second_halves(per("adapt.run"));
    report.metric(
        "adapt.speedup_vs_seq",
        geomean_of_ratios(&second_halves(per("ab.seq")), &adaptive, 0.5),
        "ratio",
        adaptive.iter().map(Vec::len).sum(),
    );
    report.metric("adapt.promotions", Some(promotions as f64), "count", 1);
    plan_notes(report, &facts, true);
    // Tracing overhead: the traced loop against the untraced baseline loop
    // of the same run, at the median.
    let solve_delta = traced
        .solve_us(0.5)
        .zip(base.solve_us(0.5))
        .map(|(t, b)| t - b);
    let speedup_delta = traced.speedup().zip(base.speedup()).map(|(t, b)| t - b);
    let both = traced.stats.len() + base.stats.len();
    report.metric("trace.solve_us_delta", solve_delta, "us", both);
    report.metric("trace.speedup_delta", speedup_delta, "ratio", both);
    let own = self_times_ns(tr.spans());
    let call_self = per_case(tr, &req, n, "call", Some(&own));
    report.metric(
        "bench.call_self_us.p50",
        mean_of_medians(&call_self),
        "us",
        call_self.iter().map(Vec::len).sum(),
    );

    report.notes.push(format!(
        "tracing overhead (traced minus untraced): solve_us.p50 {:+.2} us, speedup_vs_seq {:+.5}",
        solve_delta.unwrap_or(0.0),
        speedup_delta.unwrap_or(0.0),
    ));
    report.notes.push(baseline_table(
        tr,
        &req,
        layer_cases,
        &facts,
        engine.threads(),
    ));
    report.spans_json = Some(tr.to_json(cfg.workload.name(), cfg.seed));
    Ok(())
}

/// Durations (µs) of the spans named `name`, grouped by the structure
/// their request solved (structures from `n` on are left out); `own`
/// substitutes per-span self times.
fn per_case(
    tr: &Tracer,
    req: &Requests,
    n: usize,
    name: &str,
    own: Option<&[u64]>,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for (i, s) in tr.spans().iter().enumerate() {
        if s.name != name {
            continue;
        }
        if let Some(samples) = req.case(s.request).and_then(|c| out.get_mut(c)) {
            let ns = own.map_or(s.duration_ns(), |o| o[i]);
            samples.push(ns as f64 / 1e3);
        }
    }
    out
}

/// Per structure, `a − b` (µs) for every request holding one span of each.
fn paired_difference(tr: &Tracer, req: &Requests, n: usize, a: &str, b: &str) -> Vec<Vec<f64>> {
    let mut firsts = std::collections::HashMap::new();
    for s in tr.spans().iter().filter(|s| s.name == a) {
        firsts.insert(s.request, s.duration_ns());
    }
    let mut out = vec![Vec::new(); n];
    for s in tr.spans().iter().filter(|s| s.name == b) {
        if let (Some(&first), Some(c)) = (firsts.get(&s.request), req.case(s.request)) {
            out[c].push((first as f64 - s.duration_ns() as f64) / 1e3);
        }
    }
    out
}

fn second_halves(per: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    per.into_iter().map(|v| v[v.len() / 2..].to_vec()).collect()
}

/// The per-structure table in the ROADMAP *Baseline* format: `T_seq`, the
/// pinned flat doacross, the pinned wavefront and the engine default, as
/// medians in µs.
fn baseline_table<C: Case>(
    tr: &Tracer,
    req: &Requests,
    cases: &[C],
    facts: &[PlanFacts],
    workers: usize,
) -> String {
    let n = cases.len();
    let row = |name: &str| -> Vec<String> {
        per_case(tr, req, n, name, None)
            .iter()
            .map(|v| median(v).map_or("-".to_string(), |m| format!("{m:.0}")))
            .collect()
    };
    let mut out = format!("per-structure medians, {workers} workers, us:\n\n|");
    for case in cases {
        let _ = write!(out, " | {}", case.label());
    }
    out.push_str(" |\n|---|");
    out.push_str(&"---|".repeat(n));
    for (label, name) in [
        ("sequential", "core.seq"),
        ("doacross (pinned)", "core.doacross"),
        ("wavefront (pinned)", "core.wavefront"),
        ("engine default", "engine.execute"),
    ] {
        let _ = write!(out, "\n| {label} | {} |", row(name).join(" | "));
    }
    let picks: Vec<&str> = facts
        .iter()
        .take(n)
        .map(|f| variant_name(f.variant))
        .collect();
    let _ = write!(out, "\n| default pick | {} |", picks.join(" | "));
    out
}

/// Prebuilt artifacts for the pinned executors.
struct Artifacts {
    schedule: Option<LevelSchedule>,
    inspection: Option<PreparedInspection>,
    linear: Option<LinearSubscript>,
}

/// Phase 3: calls each module's public entry point on the structures,
/// round-robin until `until`, one span per call. Every executor result is
/// checked against the sequential oracle.
fn module_calls<C: Case>(
    cases: &[C],
    engine: &Engine,
    rng: &mut Rng,
    until: Instant,
    tr: &mut Tracer,
    check: &mut Check,
    req: &mut Requests,
) -> Result<(), String> {
    let pool = engine.pool();
    // The plan executor's configuration: validation happened at plan time
    // and results always land in `y`.
    let config = DoacrossConfig {
        validate_terms: false,
        copy_back: true,
        ..*engine.config()
    };
    let mut b = Bufs::default();
    let mut artifacts = Vec::with_capacity(cases.len());
    for case in cases {
        b.draw(case, rng);
        let lp = case.bind(&b.input);
        engine
            .prepare(&lp)
            .map_err(|e| format!("prepare {}: {e}", case.label()))?;
        artifacts.push(Artifacts {
            schedule: PlanCensus::of_with_schedule(&lp).1,
            inspection: PreparedInspection::inspect(pool, config.schedule, &lp, true).ok(),
            linear: detect_linear(&lp),
        });
    }
    let mut wavefront = WavefrontDoacross::with_config(0, config);
    let mut doacross = Doacross::with_config(0, config);
    let mut linear = LinearDoacross::with_config(0, config);
    let mut call = 0usize;
    while Instant::now() < until {
        let c = call % cases.len();
        let (case, art) = (&cases[c], &artifacts[c]);
        let r = req.next(c);
        let root = tr.open("call", r);
        b.draw(case, rng);
        let lp = case.bind(&b.input);
        tr.timed("par.region", r, || pool.run(|_| {}));
        if let Some(schedule) = &art.schedule {
            case.start_y(&b.input, &mut b.y);
            let (res, _) = tr.timed("core.wavefront", r, || {
                wavefront.run(pool, &lp, &mut b.y, schedule)
            });
            check.solve("pinned wavefront", case.label(), res, &mut b.y, &b.oracle);
        }
        if let Some(inspection) = &art.inspection {
            case.start_y(&b.input, &mut b.y);
            let (res, _) = tr.timed("core.doacross", r, || {
                doacross.run_planned(pool, &lp, &mut b.y, inspection, None)
            });
            check.solve("pinned doacross", case.label(), res, &mut b.y, &b.oracle);
        }
        if let Some(subscript) = art.linear {
            case.start_y(&b.input, &mut b.y);
            let (res, _) = tr.timed("core.linear", r, || {
                linear.run(pool, &lp, subscript, &mut b.y)
            });
            check.solve("pinned linear", case.label(), res, &mut b.y, &b.oracle);
        }
        let (inspection, _) = tr.timed("core.inspect", r, || {
            PreparedInspection::inspect(pool, config.schedule, &lp, true)
        });
        if let Err(e) = inspection {
            check.fail(format!("inspect {}: {e}", case.label()));
        }
        tr.timed("plan.fingerprint", r, || PatternFingerprint::of(&lp));
        tr.timed("plan.census", r, || PlanCensus::of_with_schedule(&lp));
        tr.timed("doconsider.dag", r, || DependenceDag::build(&lp));
        let (plan, _) = tr.timed("plan.build", r, || engine.planner().plan(pool, &lp));
        if let Err(e) = plan {
            check.fail(format!("plan {}: {e}", case.label()));
        }
        let (handle, _) = tr.timed("engine.prepare.hit", r, || engine.prepare(&lp));
        if let Err(e) = handle {
            check.fail(format!("prepare {}: {e}", case.label()));
        }
        tr.close(root);
        call += 1;
    }
    Ok(())
}

/// Phase 4: each input is solved by the default engine, an engine with
/// observability on, one with the profiler on and an adaptive one (in a
/// rotating order), and by the sequential loop. Returns the adaptive
/// engine's promotions.
fn ab_calls<C: Case>(
    cases: &[C],
    engine: &Engine,
    rng: &mut Rng,
    until: Instant,
    tr: &mut Tracer,
    check: &mut Check,
    req: &mut Requests,
) -> Result<u64, String> {
    let observed = Engine::builder().observability_default().build();
    let profiled = Engine::builder().profiling_default().build();
    let adaptive = Engine::builder().adaptive().build();
    let mut b = Bufs::default();
    let mut handles = Vec::with_capacity(cases.len());
    for case in cases {
        b.draw(case, rng);
        let lp = case.bind(&b.input);
        let mut prepared = Vec::with_capacity(3);
        for e in [engine, &observed, &profiled] {
            let handle = e
                .prepare(&lp)
                .map_err(|err| format!("prepare {}: {err}", case.label()))?;
            case.start_y(&b.input, &mut b.y);
            let res = handle.execute(&lp, &mut b.y);
            check.solve("A/B warm-up", case.label(), res, &mut b.y, &b.oracle);
            prepared.push(handle);
        }
        case.start_y(&b.input, &mut b.y);
        let res = adaptive.run(&lp, &mut b.y);
        check.solve("adaptive warm-up", case.label(), res, &mut b.y, &b.oracle);
        handles.push(prepared);
    }
    const SIDES: [&str; 4] = [
        "ab.engine",
        "obs.execute",
        "obs.profile.execute",
        "adapt.run",
    ];
    let mut call = 0usize;
    while Instant::now() < until {
        let c = call % cases.len();
        let case = &cases[c];
        let r = req.next(c);
        let root = tr.open("call", r);
        b.input.resize(case.input_len(), 0.0);
        case.fill_input(rng, &mut b.input);
        let lp = case.bind(&b.input);
        case.start_y(&b.input, &mut b.oracle);
        tr.timed("ab.seq", r, || run_sequential(&lp, &mut b.oracle));
        for j in 0..SIDES.len() {
            let side = (call + j) % SIDES.len();
            case.start_y(&b.input, &mut b.y);
            let (res, _) = match handles[c].get(side) {
                Some(handle) => tr.timed(SIDES[side], r, || handle.execute(&lp, &mut b.y)),
                None => tr.timed(SIDES[side], r, || adaptive.run(&lp, &mut b.y)),
            };
            check.solve(SIDES[side], case.label(), res, &mut b.y, &b.oracle);
        }
        tr.close(root);
        call += 1;
    }
    Ok(adaptive.adaptive_stats().map_or(0, |s| s.promotions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_difference_matches_requests() {
        let mut tr = Tracer::on();
        let mut req = Requests::default();
        for case in [0usize, 1, 0] {
            let r = req.next(case);
            tr.timed("a", r, || std::thread::sleep(Duration::from_millis(2)));
            tr.timed("b", r, || ());
        }
        let diff = paired_difference(&tr, &req, 2, "a", "b");
        assert_eq!(diff[0].len(), 2);
        assert_eq!(diff[1].len(), 1);
        assert!(diff.iter().flatten().all(|d| *d >= 1_000.0));
        let per = per_case(&tr, &req, 2, "b", None);
        assert_eq!(per.iter().map(Vec::len).sum::<usize>(), 3);
    }

    #[test]
    fn every_variant_has_a_pick_name() {
        let names: Vec<&str> = [
            PlanVariant::Sequential,
            PlanVariant::Doacross,
            PlanVariant::Linear(LinearSubscript::new(1, 0)),
            PlanVariant::Reordered,
            PlanVariant::Blocked { block_size: 4 },
            PlanVariant::Wavefront,
        ]
        .into_iter()
        .map(variant_name)
        .collect();
        assert_eq!(names, VARIANTS);
    }
}
