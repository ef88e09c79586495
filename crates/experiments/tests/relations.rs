//! Metamorphic relations: what the paper's algorithms imply about two
//! different runs. Each relation compares the observable schedules (job
//! records) of two runs, so it needs no second copy of the engine and
//! catches a misreading that a copy would share.
//!
//! * Unbounded io-aware is default backfill: with its limit at
//!   [`MAX_CAPACITY`], Algorithm 3's long-term throughput column never
//!   binds, so every record equals `DefaultBackfill`'s.
//! * Non-anticipation: no scheduler looks ahead, so cutting a trace at
//!   `T` (dropping every job submitted at or after `T`) leaves every
//!   start before `T` unchanged.
//! * I/O-free traces are scheduled by nodes alone: when no job writes,
//!   every throughput estimate r̂ is 0 (Algorithm 2), so the long-term
//!   demand is 0, the adaptive target R̃ is 0 and every job falls in the
//!   zero group (Algorithms 5–7); io-aware and both adaptive variants
//!   then give exactly `DefaultBackfill`'s records.
//!
//! All run in release in `ci.sh`'s property step.

use iosched_cluster::Phase;
use iosched_experiments::driver::{run_experiment, ExperimentConfig, SchedulerKind};
use iosched_experiments::ExperimentResult;
use iosched_simkit::time::SimDuration;
use iosched_simkit::units::gibps;
use iosched_slurm::MAX_CAPACITY;
use iosched_workloads::{
    workload_1, workload_2, JobSubmission, PaperParams, SwfOptions, SynthConfig, SynthTrace,
};

/// A 400-job SWF-shaped trace on the 15-node testbed, submitted over
/// about eleven simulated hours. Its write phases use eight threads per
/// node, like the paper's write×8 jobs, so a few concurrent writers
/// exceed the 15 and 20 GiB/s limits. The load keeps a queue of minutes
/// (backfill has choices to make) while nodes still free up between
/// submissions (a job that became visible early could start early).
/// `io_fraction` of each job's runtime is a trailing write phase.
fn synth_trace(seed: u64, io_fraction: f64) -> Vec<JobSubmission> {
    let cfg = SynthConfig {
        max_procs: 2,
        mean_interarrival_secs: 100.0,
        median_run_secs: 300.0,
        ..SynthConfig::sized_for(15, 400, seed)
    };
    let swf = SwfOptions {
        io_fraction,
        io_rate_per_node_bps: gibps(0.2),
        ..SwfOptions::default()
    };
    SynthTrace::new(cfg)
        .submissions(swf)
        .map(|mut job| {
            for phase in &mut job.exec.phases {
                if let Phase::Write {
                    threads_per_node, ..
                } = phase
                {
                    *threads_per_node = 8;
                }
            }
            job
        })
        .collect()
}

fn run(
    kind: SchedulerKind,
    seed: u64,
    pretrained: bool,
    jobs: &[JobSubmission],
) -> ExperimentResult {
    let mut cfg = ExperimentConfig::paper(kind, seed);
    cfg.pretrained = pretrained;
    run_experiment(&cfg, jobs)
}

#[test]
fn unbounded_io_aware_is_default_backfill() {
    let unbounded = SchedulerKind::IoAware {
        limit_bps: MAX_CAPACITY,
    };
    let params = PaperParams::default();
    let workloads = [
        ("W1", workload_1(&params)),
        ("W2", workload_2(&params)),
        ("synth", synth_trace(7, 0.2)),
    ];
    for (name, jobs) in &workloads {
        for pretrained in [true, false] {
            let default = run(SchedulerKind::DefaultBackfill, 42, pretrained, jobs);
            let io = run(unbounded, 42, pretrained, jobs);
            assert_eq!(default.jobs.len(), jobs.len(), "{name}: jobs lost");
            assert!(
                io.jobs == default.jobs,
                "{name}, pretrained {pretrained}: unbounded io-aware records differ from default backfill's"
            );
            assert_eq!(
                io.makespan_secs.to_bits(),
                default.makespan_secs.to_bits(),
                "{name}, pretrained {pretrained}"
            );
        }
    }
}

/// `jobs` with every write phase replaced by a 120 s sleep.
fn io_free(mut jobs: Vec<JobSubmission>) -> Vec<JobSubmission> {
    for phase in jobs.iter_mut().flat_map(|job| &mut job.exec.phases) {
        if let Phase::Write { .. } = phase {
            *phase = Phase::Sleep(SimDuration::from_secs(120));
        }
    }
    jobs
}

#[test]
fn io_free_traces_schedule_as_default_backfill() {
    let params = PaperParams::default();
    let workloads = [
        ("W1", io_free(workload_1(&params))),
        ("W2", io_free(workload_2(&params))),
        ("synth 7", synth_trace(7, 0.0)),
        ("synth 42", synth_trace(42, 0.0)),
    ];
    let kinds = [
        SchedulerKind::IoAware {
            limit_bps: gibps(15.0),
        },
        SchedulerKind::IoAware {
            limit_bps: gibps(1.0),
        },
        SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        },
        SchedulerKind::Adaptive {
            limit_bps: gibps(1.0),
            two_group: false,
        },
    ];
    for (name, jobs) in &workloads {
        assert!(
            jobs.iter().all(|j| j.exec.total_write_bytes() == 0.0),
            "{name} writes"
        );
        for seed in [42, 1000] {
            for pretrained in [true, false] {
                let default = run(SchedulerKind::DefaultBackfill, seed, pretrained, jobs);
                assert_eq!(default.jobs.len(), jobs.len(), "{name}: jobs lost");
                for kind in kinds {
                    let other = run(kind, seed, pretrained, jobs);
                    assert!(
                        other.jobs == default.jobs,
                        "{name}, seed {seed}, pretrained {pretrained}: {} records differ \
                         from default backfill's",
                        other.label
                    );
                    assert_eq!(
                        other.makespan_secs.to_bits(),
                        default.makespan_secs.to_bits(),
                        "{name}, seed {seed}, pretrained {pretrained}: {}",
                        other.label
                    );
                }
            }
        }
    }
}

/// The synthetic trace is a fair test of both relations: jobs queue, and
/// a finite limit changes the schedule.
#[test]
fn synth_trace_queues_jobs_and_binds_the_limit() {
    let jobs = synth_trace(7, 0.2);
    assert!(jobs.len() > 350, "{} jobs", jobs.len());
    let default = run(SchedulerKind::DefaultBackfill, 42, true, &jobs);
    let waited = default
        .jobs
        .iter()
        .filter(|j| j.wait() > SimDuration::from_secs(60))
        .count();
    assert!(
        waited > jobs.len() / 2,
        "only {waited} jobs waited over a minute"
    );
    let io = run(
        SchedulerKind::IoAware {
            limit_bps: gibps(15.0),
        },
        42,
        true,
        &jobs,
    );
    assert!(io.jobs != default.jobs, "the 15 GiB/s limit never bound");
}

/// 72 cut runs: three seeds × four schedulers × pretrained on and off ×
/// cuts before a quarter, half and three quarters of the jobs. About
/// 2 s in release and 20 s in debug, so the debug test run skips it.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug; ci.sh runs it in release")]
fn cutting_a_trace_moves_no_earlier_start() {
    let kinds = [
        SchedulerKind::DefaultBackfill,
        SchedulerKind::IoAware {
            limit_bps: gibps(15.0),
        },
        SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        },
        SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: false,
        },
    ];
    for seed in [7, 42, 1000] {
        let jobs = synth_trace(seed, 0.2);
        for kind in kinds {
            for pretrained in [true, false] {
                let full = run(kind, seed, pretrained, &jobs);
                for k in [jobs.len() / 4, jobs.len() / 2, jobs.len() * 3 / 4] {
                    // Cut before job k: every job submitted before its
                    // submit time is kept.
                    let cut_at = jobs[k].submit;
                    let cut = run(kind, seed, pretrained, &jobs[..k]);
                    assert_eq!(cut.jobs.len(), k);
                    // Records are by id, and the cut keeps a prefix of the
                    // ids, so the cut run's records pair with the full
                    // run's first ones; the cut drops the rest, so none
                    // of them may start before `cut_at` in the full run.
                    for f in &full.jobs[k..] {
                        assert!(
                            f.start >= cut_at,
                            "{} seed {seed} pretrained {pretrained}: job {} starts at {}, \
                             before the cut at {cut_at} that drops it",
                            full.label,
                            f.id,
                            f.start
                        );
                    }
                    for (c, f) in cut.jobs.iter().zip(&full.jobs) {
                        assert_eq!(c.id, f.id);
                        if c.start < cut_at || f.start < cut_at {
                            assert_eq!(
                                c.start, f.start,
                                "{} seed {seed} pretrained {pretrained}: cutting at {cut_at} \
                                 moved job {} from {} to {}",
                                full.label, c.id, f.start, c.start
                            );
                        }
                    }
                }
            }
        }
    }
}
