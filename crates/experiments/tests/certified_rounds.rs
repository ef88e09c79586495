//! Golden runs for certified rounds: a round whose pass the no-start
//! certificate skips must leave every decision and counter as the
//! executed pass would. The pinned fingerprints were taken with every
//! pass executed; both runs must reproduce them bit for bit while
//! certifying some of their rounds.

use iosched_experiments::driver::{run_experiment, ExperimentConfig, SchedulerKind};
use iosched_experiments::streaming::{run_streaming, StreamingOptions};
use iosched_experiments::{CampaignGrid, PolicyFamily, WorkloadSpec};
use iosched_simkit::units::gibps;
use iosched_workloads::{SwfOptions, SynthConfig, SynthTrace};

/// 400 load-matched synthetic jobs under io-aware-15 on the 67× machine
/// (1 005 nodes), seed 2024: the offered I/O is about 4× the limit, so
/// many rounds start nothing.
#[test]
fn deep_queue_io_aware_run_is_unchanged_by_certified_rounds() {
    let kind = SchedulerKind::IoAware {
        limit_bps: gibps(15.0),
    };
    let mut cfg = ExperimentConfig::paper_scaled(kind, 2024, 67);
    cfg.pretrained = false;
    let trace = SynthTrace::new(SynthConfig::sized_for(cfg.nodes, 400, 2024));
    let swf = SwfOptions {
        io_fraction: 0.3,
        io_rate_per_node_bps: gibps(0.2),
        ..SwfOptions::default()
    };
    let r = run_streaming(&cfg, trace.submissions(swf), &StreamingOptions::default());
    assert_eq!(r.jobs_completed, 396);
    assert_eq!(r.sched_passes, 377);
    assert_eq!(r.rounds_elided, 13);
    assert_eq!(r.loop_iterations, 14_113);
    assert_eq!(r.makespan_secs.to_bits(), 0x40c9_b2e3_d70a_3d71);
    assert!(r.rounds_certified > 0, "no round was certified");
    assert!(r.rounds_certified + r.rounds_elided <= r.sched_passes);
}

/// The adaptive-20 Workload 2 task at seed 1000 (one of the Fig. 6
/// records): adaptive rounds with jobs running are never time-invariant,
/// so each of them is eligible for the certificate.
#[test]
fn adaptive_workload_2_task_is_unchanged_by_certified_rounds() {
    let grid = CampaignGrid::new(
        vec![PolicyFamily::Adaptive],
        vec![20.0],
        vec![1000],
        WorkloadSpec::Workload2,
    );
    let tasks = grid.tasks();
    assert_eq!(tasks.len(), 1);
    let jobs = WorkloadSpec::Workload2.materialize();
    let res = run_experiment(&grid.experiment_config(&tasks[0]), &jobs);
    assert_eq!(res.label, "adaptive-20");
    assert_eq!(res.jobs.len(), 1550);
    assert_eq!(res.sched_passes, 1304);
    assert_eq!(res.rounds_elided, 0);
    assert_eq!(res.loop_iterations, 10_937);
    assert_eq!(res.makespan_secs.to_bits(), 0x40c1_f2e9_1687_2b02);
    assert!(res.rounds_certified > 0, "no round was certified");
    assert!(res.rounds_certified <= res.sched_passes);
}
