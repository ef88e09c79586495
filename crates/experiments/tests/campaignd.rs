//! Drives the real `campaignd` binary: a single run is a 1-task
//! [`CampaignGrid`] piped through stdin, answered by one `record` line
//! and one `done` line on stdout.

use iosched_experiments::grid::{CampaignGrid, PolicyFamily, WorkloadSpec};
use iosched_simkit::json::{parse, ToJson, Value};
use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Longest a `campaignd` call may take: every input here is answered in
/// well under a second, so an input that runs for minutes fails fast.
const TIME_LIMIT: Duration = Duration::from_secs(60);

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
    let start = Instant::now();
    while child.try_wait().expect("poll campaignd").is_none() {
        if start.elapsed() > TIME_LIMIT {
            child.kill().expect("kill campaignd");
            panic!("campaignd ran past {TIME_LIMIT:?} on {stdin}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
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

/// A grid whose workload has no jobs is answered by an error line, and
/// the grid on the next line still runs.
#[test]
fn empty_workloads_are_rejected_and_the_loop_continues() {
    let empty_wave = WorkloadSpec::Wave {
        x8: 0,
        x6: 0,
        x2: 0,
        x1: 0,
        sleeps: 0,
        volume_gib: 2.0,
    };
    let empty_synth = WorkloadSpec::Synth {
        jobs: 0,
        seed: 3,
        max_procs: 4,
        mean_interarrival_secs: 10.0,
        median_run_secs: 60.0,
        io_fraction: 0.2,
    };
    let mut input = String::new();
    for empty in [empty_wave, empty_synth] {
        let mut grid = one_task_grid();
        grid.workloads = vec![empty];
        input.push_str(&grid.to_json().to_json_string());
        input.push('\n');
    }
    input.push_str(&one_task_grid().to_json().to_json_string());
    input.push('\n');
    let out = campaignd(&["--threads", "1"], &input);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| parse(l).expect("every line is JSON"))
        .collect();
    let kinds: Vec<&str> = lines.iter().map(kind).collect();
    assert_eq!(kinds, ["error", "error", "record", "done"], "{text}");
    for line in &lines[..2] {
        let message = line.get("message").and_then(Value::as_str).unwrap_or("");
        assert!(message.contains("has no jobs"), "{text}");
    }
    assert_eq!(lines[2].get("jobs").and_then(Value::as_f64), Some(8.0));
}

/// Workload parameters the generators cannot take are answered by an
/// error line instead of reaching a library panic, and the grid on the
/// next line still runs.
#[test]
fn bad_workload_parameters_are_rejected_and_the_loop_continues() {
    let synth =
        |max_procs, mean_interarrival_secs, median_run_secs, io_fraction| WorkloadSpec::Synth {
            jobs: 5,
            seed: 3,
            max_procs,
            mean_interarrival_secs,
            median_run_secs,
            io_fraction,
        };
    let wave = |volume_gib| WorkloadSpec::Wave {
        x8: 1,
        x6: 0,
        x2: 0,
        x1: 0,
        sleeps: 0,
        volume_gib,
    };
    // The 1e9 GiB wave and the 1e300 s interarrival are finite but
    // extreme: a one-job wave too large to simulate in bounded time, and
    // a trace whose submit times would overflow `SimTime`. The 2 000-job
    // trace with a 1e9 s median runs 7-day jobs back to back: minutes of
    // simulation for one line.
    let cases = [
        (wave(-1.0), "volume_gib"),
        (wave(1e9), "volume_gib"),
        (synth(0, 10.0, 60.0, 0.2), "max_procs"),
        (synth(4, 10.0, -60.0, 0.2), "median_run_secs"),
        (synth(4, 10.0, 60.0, 2.5), "io_fraction"),
        (synth(4, 0.0, 60.0, 0.2), "mean_interarrival_secs"),
        (synth(4, 1e300, 60.0, 0.2), "mean_interarrival_secs"),
        // 16-node jobs never start on the 10-node machine.
        (synth(16, 10.0, 60.0, 0.2), "max_procs"),
        (
            WorkloadSpec::Synth {
                jobs: 2000,
                seed: 3,
                max_procs: 4,
                mean_interarrival_secs: 1.0,
                median_run_secs: 1e9,
                io_fraction: 0.2,
            },
            "median_run_secs",
        ),
    ];
    let valid = one_task_grid().to_json().to_json_string();
    for (bad, field) in cases {
        let mut grid = one_task_grid();
        grid.workloads = vec![bad];
        let input = format!("{}\n{valid}\n", grid.to_json().to_json_string());
        let out = campaignd(&["--threads", "1"], &input);
        assert!(out.status.success(), "{field}: {out:?}");
        let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| parse(l).expect("every line is JSON"))
            .collect();
        let kinds: Vec<&str> = lines.iter().map(kind).collect();
        assert_eq!(kinds, ["error", "record", "done"], "{field}: {text}");
        let message = lines[0].get("message").and_then(Value::as_str);
        let reason = format!("{field} must");
        assert!(message.is_some_and(|m| m.contains(&reason)), "{text}");
    }
    // Machines past the largest one the program runs (x667, 10 005
    // nodes), whose per-node and per-OST state and ticks grow with them.
    for (machine_scale, nodes, field) in [(668, 0, "machine_scale"), (1, 10_006, "nodes")] {
        let mut grid = one_task_grid();
        grid.base.machine_scale = machine_scale;
        grid.base.nodes = nodes;
        let input = format!("{}\n{valid}\n", grid.to_json().to_json_string());
        let out = campaignd(&["--threads", "1"], &input);
        assert!(out.status.success(), "{field}: {out:?}");
        let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let kinds: Vec<String> = text
            .lines()
            .map(|l| kind(&parse(l).expect("every line is JSON")).to_string())
            .collect();
        assert_eq!(kinds, ["error", "record", "done"], "{field}: {text}");
        assert!(text.contains(&format!("{field} must be at most")), "{text}");
    }
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
