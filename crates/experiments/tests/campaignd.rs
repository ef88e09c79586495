//! Drives the real `campaignd` binary: a single run is a 1-task
//! [`CampaignGrid`] piped through stdin, answered by one `record` line
//! and one `done` line on stdout.

use iosched_experiments::grid::{CampaignGrid, PolicyFamily, WorkloadSpec};
use iosched_simkit::json::{parse, ToJson, Value};
use std::io::Write;
use std::process::{Command, Output, Stdio};

/// One policy, one threshold, one seed, one small workload.
fn one_task_grid() -> CampaignGrid {
    let mut grid = CampaignGrid::new(
        vec![PolicyFamily::Adaptive],
        vec![20.0],
        vec![7],
        WorkloadSpec::Wave {
            x8: 2,
            x6: 0,
            x2: 2,
            x1: 3,
            sleeps: 1,
            volume_gib: 2.0,
        },
    );
    grid.base.nodes = 10;
    grid
}

fn campaignd(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaignd");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write grid specs");
    child.wait_with_output().expect("campaignd runs")
}

fn kind(line: &Value) -> &str {
    line.get("kind")
        .and_then(Value::as_str)
        .expect("kind field")
}

#[test]
fn one_task_grid_answers_one_record_then_done_and_survives_bad_lines() {
    let grid = one_task_grid();
    assert_eq!(grid.task_count(), 1);
    let input = format!("{}\nnot a grid\n", grid.to_json().to_json_string());
    let out = campaignd(&["--threads", "1"], &input);
    assert!(out.status.success(), "{out:?}");

    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| parse(l).expect("every line is JSON"))
        .collect();
    let kinds: Vec<&str> = lines.iter().map(kind).collect();
    assert_eq!(kinds, ["record", "done", "error"], "{text}");

    let record = &lines[0];
    assert_eq!(record.get("index").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        record.get("label").and_then(Value::as_str),
        Some("adaptive-20")
    );
    assert_eq!(record.get("seed").and_then(Value::as_f64), Some(7.0));
    assert_eq!(record.get("jobs").and_then(Value::as_f64), Some(8.0));
    assert!(record.get("makespan_secs").and_then(Value::as_f64) > Some(0.0));
    assert_eq!(lines[1].get("tasks").and_then(Value::as_f64), Some(1.0));

    // The same spec reruns byte-identically.
    let again = campaignd(&["--threads", "1"], &input);
    assert_eq!(String::from_utf8(again.stdout).unwrap(), text);
}

#[test]
fn zero_threads_is_rejected() {
    let out = campaignd(&["--threads", "0"], "");
    assert!(!out.status.success(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--threads needs a positive integer"), "{err}");
}

#[test]
fn malformed_campaign_threads_is_reported_not_panicked() {
    let out = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .env("CAMPAIGN_THREADS", "many")
        .stdin(Stdio::null())
        .output()
        .expect("campaignd runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("CAMPAIGN_THREADS must be a positive integer, got `many`"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}
