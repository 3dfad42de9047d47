//! End-user tool: load a (general, square) matrix in Matrix Market
//! format, ILU(0)-factor it, and solve the unit lower-triangular system
//! with each of the runtime's strategies pinned — the full §3.2 pipeline
//! on a matrix of your own. Every strategy is checked bit for bit against
//! the sequential solve.
//!
//! Usage:
//!   cargo run -p doacross-bench --release --bin solve -- MATRIX.mtx \
//!       [--solver seq|doacross|reordered|level|blocked] \
//!       [--workers N] [--reps R] [--block B]
//!
//! With no file argument, a built-in 63×63 five-point demo matrix is used.

use doacross_bench::report::Table;
use doacross_core::{BlockedDoacross, LinearDoacross, WavefrontDoacross};
use doacross_par::ThreadPool;
use doacross_plan::PlanCensus;
use doacross_sparse::{
    ilu0, io::read_matrix_market, stencil::five_point, CsrMatrix, TriangularMatrix,
};
use doacross_trisolve::{seq::time_sequential, verify::residual, SolvePlan, TriSolveLoop};
use std::io::BufReader;
use std::time::Instant;

struct Args {
    path: Option<String>,
    solver: String,
    workers: usize,
    reps: usize,
    block: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        path: None,
        solver: "all".to_string(),
        workers: std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(2),
        reps: 5,
        block: 256,
    };
    let mut it = std::env::args().skip(1);
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--solver" => args.solver = it.next().expect("--solver needs a value"),
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number")
            }
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number")
            }
            "--block" => {
                args.block = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--block needs a number")
            }
            other if !other.starts_with("--") => args.path = Some(other.to_string()),
            other => panic!("unknown option {other:?}"),
        }
    }
    args
}

fn load_matrix(path: &Option<String>) -> CsrMatrix {
    match path {
        Some(p) => {
            let file = std::fs::File::open(p).unwrap_or_else(|e| panic!("open {p:?}: {e}"));
            read_matrix_market(BufReader::new(file)).unwrap_or_else(|e| panic!("parse {p:?}: {e}"))
        }
        None => {
            eprintln!("(no matrix given: using a built-in 63x63 five-point demo operator)");
            five_point(63, 63, 42)
        }
    }
}

fn main() {
    let args = parse_args();
    let a = load_matrix(&args.path);
    assert_eq!(a.nrows(), a.ncols(), "matrix must be square");
    println!("A: {} x {} with {} nonzeros", a.nrows(), a.ncols(), a.nnz());

    let t0 = Instant::now();
    let factors = ilu0(&a);
    let l = TriangularMatrix::from_strict_lower(&factors.l);
    println!(
        "ILU(0): {} strictly-lower dependencies in {:?}",
        l.nnz(),
        t0.elapsed()
    );
    let plan = SolvePlan::for_matrix(&l);
    println!(
        "dependence structure: {} wavefronts, average parallelism {:.1}\n",
        plan.critical_path(),
        plan.levels.average_parallelism()
    );

    // Manufactured RHS with known solution.
    let x_true: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let rhs = l.matvec(&x_true);

    let pool = ThreadPool::new(args.workers);
    let mut table = Table::new(["solver", "best time (µs)", "residual", "vs seq"]);
    let (y_seq, t_seq) = time_sequential(&l, &rhs, args.reps);
    let run = |name: &str, f: &mut dyn FnMut() -> Vec<f64>, table: &mut Table| {
        let mut best = std::time::Duration::MAX;
        let mut y = Vec::new();
        for _ in 0..args.reps {
            let start = Instant::now();
            y = f();
            best = best.min(start.elapsed());
        }
        assert_eq!(
            y, y_seq,
            "{name} must match the sequential solve bit for bit"
        );
        let r = residual(&l, &y, &rhs);
        table.row([
            name.to_string(),
            best.as_micros().to_string(),
            format!("{r:.2e}"),
            format!("{:.2}x", t_seq.as_secs_f64() / best.as_secs_f64()),
        ]);
    };

    table.row([
        "sequential".to_string(),
        t_seq.as_micros().to_string(),
        format!("{:.2e}", residual(&l, &y_seq, &rhs)),
        "1.00x".to_string(),
    ]);

    let want = |name: &str| args.solver == "all" || args.solver == name;
    let loop_ = TriSolveLoop::new(&l, &rhs);
    let mut linear = LinearDoacross::new(l.n());
    let mut linear_solve = |order: Option<&[usize]>| {
        let mut y = vec![0.0; l.n()];
        linear
            .run_with_order(&pool, &loop_, TriSolveLoop::subscript(), &mut y, order)
            .expect("valid");
        y
    };
    if want("doacross") {
        run("doacross", &mut || linear_solve(None), &mut table);
    }
    if want("reordered") {
        run(
            "reordered",
            &mut || linear_solve(Some(&plan.order)),
            &mut table,
        );
    }
    if want("level") {
        let schedule = PlanCensus::of_with_schedule(&loop_)
            .1
            .expect("identity subscript is injective");
        let mut wavefront = WavefrontDoacross::new(l.n());
        run(
            "level-scheduled",
            &mut || {
                let mut y = vec![0.0; l.n()];
                wavefront
                    .run(&pool, &loop_, &mut y, &schedule)
                    .expect("valid");
                y
            },
            &mut table,
        );
    }
    if want("blocked") {
        let mut blocked = BlockedDoacross::new(args.block).expect("nonzero block");
        run(
            &format!("blocked (B={})", args.block),
            &mut || {
                let mut y = vec![0.0; l.n()];
                blocked.run(&pool, &loop_, &mut y).expect("valid");
                y
            },
            &mut table,
        );
    }
    println!("{}", table.render());
    println!(
        "({} workers; times best-of-{}; every strategy bit-identical to sequential)",
        args.workers, args.reps
    );
}
