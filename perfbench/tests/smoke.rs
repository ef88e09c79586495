//! Every workload at smoke size, untraced and traced: the outputs check
//! out, the traced mirror reproduces the untraced fingerprints, the
//! spans cover the replays, and the metrics emitted are exactly the ones
//! `BENCHMARK.json` declares, with the declared units.

use iosched_perfbench::run::{run, Report, RunSpec};
use iosched_perfbench::workload::{Size, Workload};
use iosched_simkit::json::{self, Value};
use std::path::{Path, PathBuf};

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let root = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    root.get(list)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Report {
    let report = run(&RunSpec {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    });
    assert!(
        report.correct && report.failed == 0 && report.attempted > 0,
        "{} (trace {trace}): {:?}",
        workload.name(),
        report.errors
    );
    report
}

#[test]
fn every_workload_runs_checks_and_traces() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let plain = smoke(workload, false);
        assert_eq!(emitted(&plain), end_to_end, "{}", workload.name());
        assert!(plain.metric("jobs_per_s").unwrap() > 0.0);
        assert!(plain.metric("setup_s").unwrap() > 0.0);

        let traced = smoke(workload, true);
        assert_eq!(emitted(&traced), per_layer, "{}", workload.name());
        // Same seed, same inputs: the traced run's untraced half matches
        // the plain run, and `correct` already pins the mirror to it.
        assert_eq!(
            traced.fingerprints,
            plain.fingerprints,
            "{}",
            workload.name()
        );
        let covered = traced.metric("trace.covered_frac").unwrap();
        assert!(covered >= 0.95, "{}: covered {covered}", workload.name());
    }
}
