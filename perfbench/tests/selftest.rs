//! Self-tests of the benchmark: a tiny run of each workload emits every
//! named metric with its unit, a planted wrong truth value fails the
//! answer check, and the metric catalogue matches `BENCHMARK.json`.

use std::path::PathBuf;

use hus_perfbench::{run, BenchError, Opts, Size, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn opts(workload: Workload, trace: bool, plant: bool) -> Opts {
    let label = format!("{}-{}-{}", workload.name(), u8::from(trace), u8::from(plant));
    Opts {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        size: Size::Tiny,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label),
        plant_wrong_truth: plant,
    }
}

/// Run `workload` tiny and check the result line names every metric of
/// its kind with its unit, plus the fingerprint.
fn emits_every_metric(workload: Workload, trace: bool) {
    let report =
        run(&opts(workload, trace, false)).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let line = serde_json::parse_value_str(&report.result_line(trace)).expect("result is JSON");
    let keys: Vec<&str> = match &line {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("result line is not an object: {other:?}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    let metrics = line.get("metrics").expect("metrics present");
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalogue {
        let entry = metrics.get(name).unwrap_or_else(|| panic!("{} lacks {name}", workload.name()));
        let value = match entry.get("value") {
            Some(Value::F64(v)) => *v,
            Some(Value::U64(v)) => *v as f64,
            other => panic!("{name} value {other:?}"),
        };
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(entry.get("unit"), Some(&Value::Str(unit.to_string())), "{name} unit");
    }
    if !trace {
        for (name, _) in END_TO_END {
            assert!(
                report.end_to_end.get(name) > 0.0,
                "{} end-to-end {name} is 0",
                workload.name()
            );
        }
    }
    assert!(report.attempted >= 1);
    assert!(report.notes.iter().any(|n| n.starts_with("fingerprint {") && n.contains("\"nproc\"")));
}

fn planted_truth_fails(workload: Workload) {
    match run(&opts(workload, false, true)) {
        Err(BenchError::Mismatch(_)) => {}
        Err(e) => panic!("{}: planted truth gave a non-answer error: {e}", workload.name()),
        Ok(_) => panic!("{}: planted wrong truth went unnoticed", workload.name()),
    }
}

#[test]
fn pagerank_stream_emits_every_metric() {
    emits_every_metric(Workload::PagerankStream, false);
    emits_every_metric(Workload::PagerankStream, true);
}

#[test]
fn bfs_frontier_emits_every_metric() {
    emits_every_metric(Workload::BfsFrontier, false);
    emits_every_metric(Workload::BfsFrontier, true);
}

#[test]
fn serve_ingest_emits_every_metric() {
    emits_every_metric(Workload::ServeIngest, false);
    emits_every_metric(Workload::ServeIngest, true);
}

#[test]
fn planted_wrong_truth_fails_every_workload() {
    for w in Workload::ALL {
        planted_truth_fails(w);
    }
}

/// `(name, unit)` of each entry of one `BENCHMARK.json` section.
fn section(json: &Value, key: &str) -> Vec<(String, Option<String>)> {
    let Some(Value::Array(entries)) = json.get(key) else { panic!("section {key} missing") };
    let text = |e: &Value, k: &str| match e.get(k) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    entries
        .iter()
        .map(|e| (text(e, "name").expect("every entry has a name"), text(e, "unit")))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside the benchmark directory");
    let json = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
    let want = |c: &[(&str, &str)]| {
        c.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect::<Vec<_>>()
    };
    assert_eq!(section(&json, "end_to_end"), want(END_TO_END));
    assert_eq!(section(&json, "per_layer"), want(PER_LAYER));
    let workloads: Vec<String> = section(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
