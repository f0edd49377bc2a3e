//! Self-test: every workload runs in smoke mode under both trace settings,
//! and what it emits is exactly what `BENCHMARK.json` promises.

use std::collections::BTreeSet;
use std::process::Command;

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key:?}")),
        other => panic!("{key:?} looked up in a {}", other.kind()),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, found a {}", other.kind()),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(text) => text,
        other => panic!("expected a string, found a {}", other.kind()),
    }
}

fn names(list: &Value) -> Vec<String> {
    items(list).iter().map(|entry| text(field(entry, "name")).to_string()).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn benchmark(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("the benchmark prints UTF-8");
    assert!(output.status.success(), "benchmark {args:?} failed:\n{stdout}");
    stdout
}

#[test]
fn benchmark_json_is_the_rendered_spec() {
    assert_eq!(benchmark(&["schema"]), BENCHMARK_JSON, "regenerate it with `benchmark schema`");
}

#[test]
fn benchmark_json_stays_inside_the_contract() {
    let spec: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads = items(field(&spec, "workloads"));
    assert!((2..=8).contains(&workloads.len()));
    for workload in workloads {
        let why = text(field(workload, "why"));
        assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
    }
    let end_to_end = items(field(&spec, "end_to_end"));
    let per_layer = items(field(&spec, "per_layer"));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(names(field(&spec, "end_to_end")).contains(&"setup_s".to_string()));

    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(field(&spec, list)) {
            assert!(well_formed(&name), "malformed name {name:?}");
            assert!(seen.insert(name.clone()), "name {name:?} used twice");
        }
    }
    for metric in end_to_end.iter().chain(per_layer) {
        let unit = text(field(metric, "unit"));
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "malformed unit {unit:?}"
        );
        assert!(["lower", "higher"].contains(&text(field(metric, "better"))));
    }
}

#[test]
fn every_workload_emits_exactly_the_promised_metrics() {
    let spec: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    for workload in names(field(&spec, "workloads")) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = benchmark(&[
                "--workload",
                &workload,
                "--seed",
                "2026",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let last = stdout.lines().last().expect("the run prints a result line");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            let Value::Object(keys) = &result else { panic!("the result is not an object") };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload} trace {trace}");

            let Value::Object(metrics) = field(&result, "metrics") else { panic!("no metrics") };
            let emitted: Vec<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
            assert_eq!(emitted, names(field(&spec, list)), "{workload} trace {trace}");
            let units: Vec<&str> =
                items(field(&spec, list)).iter().map(|m| text(field(m, "unit"))).collect();
            for ((name, metric), unit) in metrics.iter().zip(units) {
                assert_eq!(text(field(metric, "unit")), unit, "unit of {name}");
                assert!(matches!(field(metric, "value"), Value::Number(_)), "value of {name}");
            }
        }
    }
}
