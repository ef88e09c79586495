//! Streaming SWF replay: the scale-sweep entry point.
//!
//! [`run_streaming`] runs the crate's only event loop, the one
//! [`crate::driver::run_experiment`] runs, over an **iterator** admitted
//! under a bounded window, keeping O(1) aggregates instead of records and
//! traces. At most `window` jobs are resident (pending + running) at any
//! instant, so peak memory is bounded by the window (plus the monitoring
//! store, bounded by sample retention) however long the trace is. The
//! scheduler then sees a bounded lookahead of the submission stream, as a
//! real queue does: jobs beyond the window have not been submitted yet.

use crate::driver::{ExperimentConfig, RunScratch};
use crate::engine::{self, JobSource, Recorder};
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_slurm::SchedJob;
use iosched_workloads::JobSubmission;

/// Streaming-replay knobs on top of an [`ExperimentConfig`].
#[derive(Clone, Debug)]
pub struct StreamingOptions {
    /// Admission window: the maximum number of resident (pending or
    /// running) jobs. The scheduler never sees more than this many jobs;
    /// peak driver memory is proportional to it.
    pub window: usize,
    /// Monitoring-sample retention `(horizon, bucket_ms)`: samples older
    /// than `horizon` are archived as per-key bucket means. `None` keeps
    /// every sample (exact, unbounded — what `run_experiment` does).
    pub retention: Option<(SimDuration, u64)>,
}

impl Default for StreamingOptions {
    fn default() -> Self {
        StreamingOptions {
            window: 10_000,
            // One-minute buckets after two hours: recent samples (which
            // feed the load measurement and most job-volume integrals)
            // stay exact; ancient history coarsens to bucket means.
            retention: Some((SimDuration::from_secs(2 * 3600), 60_000)),
        }
    }
}

/// Aggregate outcome of a streaming replay. Deliberately O(1) in the
/// trace length: no per-job records, no traces.
#[derive(Clone, Debug, Default)]
pub struct StreamingResult {
    /// Scheduler label (for reports).
    pub label: String,
    /// Jobs that ran to completion (or were killed at their limit).
    pub jobs_completed: u64,
    /// First submission → last completion, seconds.
    pub makespan_secs: f64,
    /// Mean queue wait over all completed jobs, seconds.
    pub mean_wait_secs: f64,
    /// Largest queue wait observed, seconds.
    pub max_wait_secs: f64,
    /// Scheduling passes executed (including elided rounds, exactly like
    /// [`crate::driver::ExperimentResult::sched_passes`]).
    pub sched_passes: u64,
    /// Of [`Self::sched_passes`], rounds whose queue walk was elided
    /// because the previous outcome provably still held.
    pub rounds_elided: u64,
    /// Of [`Self::sched_passes`], rounds skipped by the no-start
    /// certificate (see [`crate::driver::ExperimentResult::rounds_certified`]).
    pub rounds_certified: u64,
    /// Event-loop iterations (deterministic event-count proxy, recorded
    /// by the scale bench and gated like the campaign bench's counter).
    pub loop_iterations: u64,
    /// High-water mark of resident (pending + running) jobs — by
    /// construction `≤ window`; the memory-boundedness tests pin it.
    pub peak_resident_jobs: usize,
}

/// Replay `submissions` (non-decreasing submit times, no dependencies)
/// under `cfg`, admitting at most `opts.window` jobs at a time.
///
/// # Panics
/// Panics if `cfg.pretrained` is set (pretraining needs the whole trace
/// up front — the opposite of streaming), if `opts.window` is zero, or if
/// a submission carries dependencies or out-of-order submit times.
pub fn run_streaming(
    cfg: &ExperimentConfig,
    submissions: impl IntoIterator<Item = JobSubmission>,
    opts: &StreamingOptions,
) -> StreamingResult {
    assert!(
        !cfg.pretrained,
        "streaming replay cannot pretrain: pretraining scans the whole trace"
    );
    // A dependency on a job that already retired would dangle forever.
    let jobs = submissions.into_iter().inspect(|sub| {
        assert!(
            sub.after.is_empty(),
            "streaming replay does not support dependencies ({})",
            sub.id
        );
    });
    let mut result = StreamingResult {
        label: cfg.scheduler.label(),
        ..StreamingResult::default()
    };
    let source = JobSource {
        jobs,
        window: opts.window,
        pretrain_on: None,
    };
    let mut scratch = RunScratch::default();
    let totals = engine::run(cfg, source, opts.retention, &mut scratch, &mut result);
    result.makespan_secs = totals.makespan_secs;
    result.sched_passes = totals.sched_passes;
    result.rounds_elided = totals.rounds_elided;
    result.rounds_certified = totals.rounds_certified;
    result.loop_iterations = totals.loop_iterations;
    result.peak_resident_jobs = totals.peak_resident_jobs;
    result.mean_wait_secs /= result.jobs_completed.max(1) as f64;
    result
}

/// The aggregate recorder. `mean_wait_secs` holds the sum of waits until
/// [`run_streaming`] divides it at the end.
impl Recorder for StreamingResult {
    fn finish(&mut self, job: &SchedJob, started: SimTime, _ended: SimTime, _timed_out: bool) {
        self.jobs_completed += 1;
        let wait = started.saturating_since(job.submit).as_secs_f64();
        self.mean_wait_secs += wait;
        self.max_wait_secs = self.max_wait_secs.max(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_experiment, SchedulerKind};
    use iosched_lustre::LustreConfig;
    use iosched_simkit::units::gibps;
    use iosched_workloads::{SwfOptions, SynthConfig, SynthTrace};

    fn synth_workload(jobs: u64, seed: u64) -> Vec<JobSubmission> {
        let cfg = SynthConfig {
            jobs,
            seed,
            max_procs: 4,
            mean_interarrival_secs: 20.0,
            median_run_secs: 120.0,
            ..SynthConfig::default()
        };
        SynthTrace::new(cfg)
            .submissions(SwfOptions {
                io_fraction: 0.3,
                io_rate_per_node_bps: gibps(0.2),
                ..SwfOptions::default()
            })
            .collect()
    }

    fn quick_cfg(kind: SchedulerKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(kind, 11);
        cfg.fs = LustreConfig::stria().noiseless();
        cfg.nodes = 8;
        cfg.sched_period = SimDuration::from_secs(10);
        cfg.pretrained = false;
        cfg
    }

    /// With a window covering the whole trace and no sample retention,
    /// the two recorders see the same run: identical makespan, pass count
    /// and iteration count, and aggregates equal to the batch records —
    /// with and without limit kills.
    #[test]
    fn full_window_matches_run_experiment() {
        let io_aware = SchedulerKind::IoAware {
            limit_bps: gibps(1.0),
        };
        let adaptive = SchedulerKind::Adaptive {
            limit_bps: gibps(15.0),
            two_group: true,
        };
        for (kind, enforce_limits) in [
            (SchedulerKind::DefaultBackfill, false),
            (adaptive, false),
            (io_aware, false),
            (SchedulerKind::DefaultBackfill, true),
            (io_aware, true),
        ] {
            let mut cfg = quick_cfg(kind);
            let mut workload = synth_workload(80, 3);
            if enforce_limits {
                // Every fourth job asks for far less than it runs.
                cfg.enforce_limits = true;
                for sub in workload.iter_mut().step_by(4) {
                    sub.limit = SimDuration::from_secs(30);
                }
            }
            let batch = run_experiment(&cfg, &workload);
            let killed = batch.jobs.iter().filter(|j| j.timed_out).count();
            assert_eq!(killed > 0, enforce_limits, "{kind:?}: {killed} killed");
            let opts = StreamingOptions {
                window: workload.len(),
                retention: None,
            };
            let streamed = run_streaming(&cfg, workload.iter().cloned(), &opts);
            assert_eq!(streamed.jobs_completed as usize, batch.jobs.len());
            assert_eq!(streamed.makespan_secs, batch.makespan_secs, "{kind:?}");
            assert_eq!(streamed.sched_passes, batch.sched_passes, "{kind:?}");
            assert_eq!(streamed.rounds_elided, batch.rounds_elided, "{kind:?}");
            assert_eq!(
                streamed.rounds_certified, batch.rounds_certified,
                "{kind:?}"
            );
            assert_eq!(streamed.loop_iterations, batch.loop_iterations, "{kind:?}");
            let waits: Vec<f64> = batch.jobs.iter().map(|j| j.wait().as_secs_f64()).collect();
            let batch_max_wait = waits.iter().copied().fold(0.0f64, f64::max);
            assert_eq!(streamed.max_wait_secs, batch_max_wait, "{kind:?}");
            // Summed in finish order rather than id order: equal up to
            // float reassociation.
            let batch_mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
            assert!(
                (streamed.mean_wait_secs - batch_mean_wait).abs() <= 1e-9 * batch_mean_wait,
                "{kind:?}: {} vs {batch_mean_wait}",
                streamed.mean_wait_secs
            );
            assert!(batch_mean_wait > 0.0, "{kind:?}: the workload must queue");
        }
    }

    /// A window smaller than the trace still completes every job, and
    /// the resident high-water mark respects the window.
    #[test]
    fn bounded_window_completes_and_bounds_residency() {
        let cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        let workload = synth_workload(120, 9);
        let opts = StreamingOptions {
            window: 16,
            retention: Some((SimDuration::from_secs(600), 10_000)),
        };
        let res = run_streaming(&cfg, workload.iter().cloned(), &opts);
        assert_eq!(res.jobs_completed as usize, workload.len());
        assert!(res.peak_resident_jobs <= 16, "{}", res.peak_resident_jobs);
        assert!(res.makespan_secs > 0.0);
        assert!(res.mean_wait_secs >= 0.0);
    }

    /// Same seed, same trace → identical aggregates (streaming path is
    /// deterministic end to end).
    #[test]
    fn streaming_replay_is_deterministic() {
        let cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(15.0),
            two_group: true,
        });
        let opts = StreamingOptions {
            window: 32,
            ..StreamingOptions::default()
        };
        let mk = || {
            let cfg_w = SynthConfig {
                jobs: 100,
                seed: 5,
                max_procs: 4,
                mean_interarrival_secs: 15.0,
                median_run_secs: 90.0,
                ..SynthConfig::default()
            };
            SynthTrace::new(cfg_w).submissions(SwfOptions {
                io_fraction: 0.25,
                io_rate_per_node_bps: gibps(0.2),
                ..SwfOptions::default()
            })
        };
        let a = run_streaming(&cfg, mk(), &opts);
        let b = run_streaming(&cfg, mk(), &opts);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.loop_iterations, b.loop_iterations);
        assert_eq!(a.mean_wait_secs, b.mean_wait_secs);
        assert_eq!(a.peak_resident_jobs, b.peak_resident_jobs);
    }

    #[test]
    fn empty_trace_returns_empty_result() {
        let cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        let res = run_streaming(&cfg, std::iter::empty(), &StreamingOptions::default());
        assert_eq!(res.jobs_completed, 0);
        assert_eq!(res.makespan_secs, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot pretrain")]
    fn pretraining_is_rejected() {
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.pretrained = true;
        let _ = run_streaming(&cfg, synth_workload(5, 1), &StreamingOptions::default());
    }

    #[test]
    fn limit_enforcement_kills_and_retires() {
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.enforce_limits = true;
        // Synthetic requested times always exceed run times, so force a
        // hand-built overrun: one sleep job with a limit below its run.
        use iosched_cluster::ExecSpec;
        let sub = JobSubmission {
            id: iosched_simkit::ids::JobId(1),
            name: "overrun".to_string(),
            exec: ExecSpec::sleep(SimDuration::from_secs(300)),
            limit: SimDuration::from_secs(60),
            submit: SimTime::ZERO,
            priority: 0,
            after: Vec::new(),
        };
        let res = run_streaming(&cfg, [sub], &StreamingOptions::default());
        assert_eq!(res.jobs_completed, 1);
        assert!(res.makespan_secs < 100.0, "{}", res.makespan_secs);
    }
}
