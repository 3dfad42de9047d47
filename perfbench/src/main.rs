//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints each metric on its own line with its unit and sample count, then
//! one JSON object as the last line of standard output. Exits 1 when any
//! solve failed or differed from the sequential loop, 2 on bad arguments
//! or a run that could not complete.

use doacross_perfbench::run::{run, Config, Report, Workload};
use std::process::ExitCode;

// Counts the calling thread's heap allocations, so that
// `RunStats::allocations` measures something.
#[global_allocator]
static ALLOC: doacross_core::alloc::CountingAllocator = doacross_core::alloc::CountingAllocator;

const USAGE: &str = "usage: perfbench --workload <table1_steady|fig6_sweep|plan_churn> \
--seed <n> --seconds <s> --trace <0|1> [--corrupt-first]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut corrupt_first = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-first" {
            corrupt_first = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        corrupt_first,
    })
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its value and unit.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Writes the traced run's spans under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`), which version control ignores.
fn write_spans(cfg: &Config, json: &str) -> Result<String, String> {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = std::path::Path::new(&root).join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {threads})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for m in &report.metrics {
        println!("{} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "failed_share = {} ({} of {} solves failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for note in &report.notes {
        println!("{note}");
    }
    if let Some(json) = &report.spans_json {
        match write_spans(&cfg, json) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: could not write spans: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(failure) = &report.first_failure {
        eprintln!("perfbench: oracle check failed: {failure}");
    }
    println!("{}", result_json(&report));
    if report.failed == 0 && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
