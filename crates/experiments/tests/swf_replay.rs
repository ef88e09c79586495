//! End-to-end replay of the committed Parallel Workloads Archive SWF
//! excerpt (`tests/data/pwa_excerpt.swf`): the fixture streams through
//! [`open_swf`] into [`run_streaming`] and must complete every valid
//! record deterministically, matching the materialised
//! [`parse_swf`] + [`run_experiment`] path when the admission window
//! covers the whole trace.

use iosched_experiments::driver::{run_experiment, ExperimentConfig, SchedulerKind};
use iosched_experiments::streaming::{run_streaming, StreamingOptions};
use iosched_lustre::LustreConfig;
use iosched_simkit::time::SimDuration;
use iosched_simkit::units::gibps;
use iosched_workloads::{open_swf, parse_swf, SwfOptions};
use std::path::Path;

/// 50 records in the excerpt, 2 cancelled (job 8: negative run time,
/// job 18: zero processors).
const VALID_JOBS: u64 = 48;

fn fixture_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("pwa_excerpt.swf")
}

/// The traced machine is 16 nodes × 8 cpus; replay it against a
/// 16-node simulated cluster with a light I/O augmentation so the
/// bandwidth-aware stack has something to meter.
fn swf_opts() -> SwfOptions {
    SwfOptions {
        cpus_per_node: 8,
        max_nodes: 16,
        io_fraction: 0.2,
        io_rate_per_node_bps: gibps(0.1),
        ..SwfOptions::default()
    }
}

fn cfg(kind: SchedulerKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(kind, 17);
    cfg.fs = LustreConfig::stria().noiseless();
    cfg.nodes = 16;
    cfg.sched_period = SimDuration::from_secs(30);
    cfg.pretrained = false;
    cfg
}

#[test]
fn excerpt_streams_through_open_swf_and_completes() {
    let reader = open_swf(&fixture_path(), swf_opts()).expect("fixture opens");
    let opts = StreamingOptions {
        window: 16,
        ..StreamingOptions::default()
    };
    let res = run_streaming(
        &cfg(SchedulerKind::DefaultBackfill),
        reader.map(|r| r.expect("fixture has no malformed lines")),
        &opts,
    );
    assert_eq!(res.jobs_completed, VALID_JOBS);
    assert!(res.peak_resident_jobs <= 16, "{}", res.peak_resident_jobs);
    assert!(res.makespan_secs > 0.0);
    assert!(res.mean_wait_secs >= 0.0);

    // Deterministic: a second replay reproduces every aggregate.
    let reader = open_swf(&fixture_path(), swf_opts()).expect("fixture opens");
    let again = run_streaming(
        &cfg(SchedulerKind::DefaultBackfill),
        reader.map(|r| r.unwrap()),
        &opts,
    );
    assert_eq!(again.jobs_completed, res.jobs_completed);
    assert_eq!(again.makespan_secs, res.makespan_secs);
    assert_eq!(again.mean_wait_secs, res.mean_wait_secs);
    assert_eq!(again.loop_iterations, res.loop_iterations);
}

#[test]
fn excerpt_full_window_matches_materialised_run() {
    let text = std::fs::read_to_string(fixture_path()).expect("fixture reads");
    let workload = parse_swf(&text, &swf_opts()).expect("fixture parses");
    assert_eq!(workload.len() as u64, VALID_JOBS);

    for kind in [
        SchedulerKind::DefaultBackfill,
        SchedulerKind::Adaptive {
            limit_bps: gibps(15.0),
            two_group: true,
        },
    ] {
        let cfg = cfg(kind);
        let batch = run_experiment(&cfg, &workload);
        let reader = open_swf(&fixture_path(), swf_opts()).expect("fixture opens");
        let streamed = run_streaming(
            &cfg,
            reader.map(|r| r.unwrap()),
            &StreamingOptions {
                window: workload.len(),
                ..StreamingOptions::default()
            },
        );
        assert_eq!(
            streamed.jobs_completed as usize,
            batch.jobs.len(),
            "{kind:?}"
        );
        assert_eq!(streamed.makespan_secs, batch.makespan_secs, "{kind:?}");
        assert_eq!(streamed.sched_passes, batch.sched_passes, "{kind:?}");
        assert_eq!(streamed.rounds_elided, batch.rounds_elided, "{kind:?}");
        assert_eq!(
            streamed.rounds_certified, batch.rounds_certified,
            "{kind:?}"
        );
        assert_eq!(streamed.loop_iterations, batch.loop_iterations, "{kind:?}");
    }
}
