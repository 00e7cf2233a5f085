//! Self-tests of the harness: the declared metrics match `BENCHMARK.json`,
//! and every workload passes a smoke run at its minimum size, untraced and
//! traced, on a seed other than the default (so no golden applies and only
//! the structural and cross-checks run).

use std::path::Path;

use starsense_perfbench::json::{parse, RunRecord, Value};
use starsense_perfbench::runner::{parse_args, run_traced, run_untraced};
use starsense_perfbench::spec::{MetricSpec, END_TO_END, PER_LAYER};
use starsense_perfbench::stats::valid_name;
use starsense_perfbench::workloads::{Workload, DEFAULT_SEED};

const SMOKE_SEED: u64 = 7;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object().and_then(|o| o.get(key)).unwrap_or_else(|| panic!("missing {key}"))
}

fn assert_declared(list: &Value, specs: &[MetricSpec]) {
    let entries = list.as_array().expect("metric list is an array");
    assert_eq!(entries.len(), specs.len());
    for (entry, spec) in entries.iter().zip(specs) {
        assert_eq!(field(entry, "name").as_str(), Some(spec.name));
        assert_eq!(field(entry, "unit").as_str(), Some(spec.unit));
        assert_eq!(field(entry, "better").as_str(), Some(spec.better.as_str()));
        assert_eq!(entry.as_object().unwrap().get("bound").and_then(Value::as_f64), spec.bound);
        assert!(valid_name(spec.name), "bad metric name {}", spec.name);
    }
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(
        doc.as_object().unwrap().keys(),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    assert_declared(field(&doc, "end_to_end"), &END_TO_END);
    assert_declared(field(&doc, "per_layer"), &PER_LAYER);
    let names: Vec<&str> = field(&doc, "workloads")
        .as_array()
        .unwrap()
        .iter()
        .map(|w| field(w, "name").as_str().unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn command_line_parses_every_flag() {
    let args: Vec<String> = "--workload fleet_resume --seed 42 --seconds 20 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let opts = parse_args(&args).unwrap();
    assert_eq!(opts.workload, Some(Workload::FleetResume));
    assert_eq!((opts.seed, opts.seconds, opts.trace), (42, 20.0, true));
    let defaults = parse_args(&[]).unwrap();
    assert_eq!((defaults.workload, defaults.seed, defaults.trace), (None, DEFAULT_SEED, false));
    for bad in [&["--workload", "nope"][..], &["--trace", "2"], &["--seed"], &["--bogus", "1"]] {
        let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err(), "{bad:?} should be rejected");
    }
}

fn assert_clean(record: &RunRecord, specs: &[MetricSpec], lines: &[String]) {
    assert!(record.correct && record.failed == 0, "checks failed:\n{}", lines.join("\n"));
    let names: Vec<&str> = record.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = specs.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    for m in &record.metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    let back = RunRecord::from_json(&record.to_json()).unwrap();
    assert_eq!(&back, record);
}

fn smoke(w: Workload) {
    let size = w.smoke_size();
    let untraced = run_untraced(w, size, SMOKE_SEED, 0.0).expect("untraced smoke run");
    assert_clean(&untraced.record, &END_TO_END, &untraced.lines);
    for m in &untraced.record.metrics {
        assert!(m.value > 0.0, "{} must be positive, got {}", m.name, m.value);
    }
    let traced = run_traced(w, size, SMOKE_SEED, 0.0).expect("traced smoke run");
    assert_clean(&traced.record, &PER_LAYER, &traced.lines);
}

#[test]
fn fleet_oracle_smoke() {
    smoke(Workload::FleetOracle);
}

#[test]
fn paper_pipeline_smoke() {
    smoke(Workload::PaperPipeline);
}

#[test]
fn fleet_resume_smoke() {
    smoke(Workload::FleetResume);
}
