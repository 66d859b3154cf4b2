//! Reduced runs of every workload through the benchmark executable: each
//! must report every metric `BENCHMARK.json` names, with its unit, solve
//! without a failure, and fail loudly when a mismatch is injected.

use std::collections::BTreeMap;
use std::process::{Command, Output};

use ssp_runtime::json::parse;
use ssp_runtime::JsonValue;

const WORKLOADS: [&str; 4] = ["fig2-seq", "fig2-threaded", "fig2-dist", "tiny-dist-burst"];

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(JsonValue::Str(s)) => s.clone(),
                other => panic!("metric field {k} is {other:?}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn bench(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--reduced",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark")
}

/// The result object on the last line of standard output.
fn result(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn check_clean_run(workload: &str, trace: bool) {
    let out = bench(workload, trace, &[]);
    let r = result(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    assert_eq!(r.get("correct"), Some(&JsonValue::Bool(true)), "{workload}");
    assert_eq!(
        r.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{workload}: failed_frac must be 0"
    );
    assert!(r.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0) >= 1);
    let Some(JsonValue::Obj(metrics)) = r.get("metrics") else {
        panic!("metrics object")
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(
            |(k, v)| match (v.get("unit"), v.get("value").and_then(JsonValue::as_f64)) {
                (Some(JsonValue::Str(u)), Some(x)) if x.is_finite() => (k.clone(), u.clone()),
                _ => panic!("{workload}: metric {k} lacks a finite value or a unit: {v:?}"),
            },
        )
        .collect();
    assert_eq!(
        got, want,
        "{workload}: metric names and units must match BENCHMARK.json"
    );
    if !trace {
        assert_eq!(
            metrics["solved_frac"]
                .get("value")
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        for m in ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"] {
            let v = metrics[m]
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("value");
            assert!(v > 0.0, "{workload}: {m} = {v} must be positive");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_failures() {
    for w in WORKLOADS {
        check_clean_run(w, false);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_and_writes_spans() {
    for w in WORKLOADS {
        check_clean_run(w, true);
    }
}

#[test]
fn an_injected_mismatch_fails_loudly_on_every_workload() {
    for w in WORKLOADS {
        let out = bench(w, false, &["--inject-mismatch"]);
        let r = result(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{w}: a mismatch must fail the run");
        assert!(stderr.contains("differs bitwise"), "{w}: {stderr}");
        assert_eq!(r.get("correct"), Some(&JsonValue::Bool(false)), "{w}");
        let attempted = r
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted");
        assert_eq!(
            r.get("failed").and_then(JsonValue::as_u64),
            Some(attempted),
            "{w}: every solve failed"
        );
    }
}

#[test]
fn one_command_runs_all_four_workloads() {
    let out = bench("all", false, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let results: Vec<JsonValue> = stdout.lines().filter_map(|l| parse(l).ok()).collect();
    assert_eq!(
        results.len(),
        WORKLOADS.len(),
        "one result line per workload"
    );
    for w in WORKLOADS {
        assert!(
            stdout.contains(&format!("workload={w} ")),
            "{w} missing from:\n{stdout}"
        );
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
