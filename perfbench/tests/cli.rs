//! Checks of the benchmark binary as the command line drives it: a wrong
//! result fails the run, bad arguments are refused, and the metrics each
//! mode prints are exactly the ones `BENCHMARK.json` and `layers.json`
//! declare.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// Every `"name": "<x>"` value in `text`, in order.
fn declared_names(text: &str) -> Vec<String> {
    text.split("\"name\":")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

/// The keys of the `metrics` object of a result line.
fn result_metrics(line: &str) -> Vec<String> {
    let metrics = line.split("\"metrics\":").nth(1).expect("metrics object");
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Every chunk but the last ends with the next metric's quoted name.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit('"').nth(1).map(str::to_string))
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn section<'a>(text: &'a str, key: &str, next: Option<&str>) -> &'a str {
    let start = text.find(key).expect("section present");
    let rest = &text[start..];
    match next {
        Some(n) => &rest[..rest.find(n).expect("next section present")],
        None => rest,
    }
}

#[test]
fn a_corrupted_result_fails_the_run() {
    let out = perfbench(&[
        "--workload",
        "fig6_sweep",
        "--seed",
        "3",
        "--seconds",
        "0.3",
        "--trace",
        "0",
        "--corrupt-first",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let line = last_line(&out);
    assert!(line.contains("\"correct\": false"), "{line}");
    assert!(line.contains("\"failed\": 1"), "{line}");
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "fig6_sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "fig6_sweep", "--seconds", "1", "--trace", "0"][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn printed_metrics_match_the_declared_ones() {
    let bench = benchmark_json();
    let end_to_end = declared_names(section(&bench, "\"end_to_end\"", Some("\"per_layer\"")));
    let per_layer = declared_names(section(&bench, "\"per_layer\"", None));
    let workloads = declared_names(section(&bench, "\"workloads\"", Some("\"end_to_end\"")));
    assert_eq!(workloads, ["table1_steady", "plan_churn"]);

    let args = |trace| {
        [
            "--workload",
            "fig6_sweep",
            "--seed",
            "2",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ]
    };
    let untraced = perfbench(&args("0"));
    assert_eq!(untraced.status.code(), Some(0));
    assert_eq!(result_metrics(&last_line(&untraced)), end_to_end);
    let traced = perfbench(&args("1"));
    assert_eq!(traced.status.code(), Some(0));
    let mut printed = result_metrics(&last_line(&traced));
    let mut declared = per_layer.clone();
    printed.sort();
    declared.sort();
    assert_eq!(printed, declared);

    let layers_path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
    let layers = std::fs::read_to_string(layers_path).expect("layers.json");
    for name in &per_layer {
        assert!(
            layers.contains(&format!("\"{name}\": {{\"moves\"")),
            "layers.json has no entry for {name}"
        );
    }
}
