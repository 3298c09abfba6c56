//! Smoke-scale self-test of every workload: each run must exit 0, pass
//! its output checks, and print every metric `BENCHMARK.json` names for
//! its mode, with the unit it declares.

use hw_pr_nas::obs::Value;
use std::process::Command;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(manifest: &Value, list: &str) -> Vec<(String, String)> {
    field(manifest, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args([
            "--trace",
            &trace.to_string(),
            "--smoke",
            "--out-dir",
            out_dir,
        ])
        .env_remove("HWPR_TELEMETRY")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e:?}"))
}

fn check(workload: &str) {
    let manifest = manifest();
    let names: Vec<&str> = field(&manifest, "workloads")
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert!(names.contains(&workload), "{workload} is not declared");
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(field(&result, "correct"), &Value::Bool(true));
        assert!(number(field(&result, "attempted")) >= 1.0);
        assert_eq!(number(field(&result, "failed")), 0.0);
        let metrics = field(&result, "metrics")
            .as_object()
            .expect("metrics object");
        let expected = declared(&manifest, list);
        assert_eq!(metrics.len(), expected.len(), "{workload} trace {trace}");
        for (name, unit) in expected {
            let metric = &metrics
                .iter()
                .find(|(k, _)| *k == name)
                .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"))
                .1;
            assert_eq!(text(field(metric, "unit")), unit, "{name}");
            assert!(number(field(metric, "value")).is_finite(), "{name}");
        }
    }
}

#[test]
fn search_nb201_prints_every_metric() {
    check("search-nb201");
}

#[test]
fn search_fbnet_prints_every_metric() {
    check("search-fbnet");
}

#[test]
fn serve_openloop_prints_every_metric() {
    check("serve-openloop");
}

#[test]
fn refuses_to_run_with_program_knobs_set() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "search-nb201",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--smoke"])
        .env("HWPR_THREADS", "4")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("HWPR_THREADS"));
    assert!(
        output.stdout.is_empty() || !String::from_utf8_lossy(&output.stdout).contains("correct")
    );
}
