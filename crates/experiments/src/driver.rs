//! Experiment configuration and the batch entry point.
//!
//! One [`run_experiment`] call reproduces one panel of the paper's Fig. 3
//! or Fig. 5: a full workload scheduled to completion under a chosen
//! scheduler configuration, with monitoring traces recorded along the way.
//! It runs the crate's only event loop (the private `engine`) over the
//! whole workload, keeping every [`JobRecord`] and the sampled traces.

use crate::engine::{self, JobSource, Recorder};
use iosched_analytics::service::AnalyticsConfig;
use iosched_cluster::ClusterSim;
use iosched_lustre::{FsSnapshot, LustreConfig};
use iosched_simkit::ids::JobId;
use iosched_simkit::series::TimeSeries;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_slurm::{PriorityPolicy, SchedJob};
use iosched_workloads::JobSubmission;

pub use crate::engine::RunScratch;

/// Which scheduler to run — the five configurations of the paper's
/// evaluation plus the naïve-adaptive ablation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulerKind {
    /// Stock Slurm backfill (nodes only).
    DefaultBackfill,
    /// I/O-aware with a fixed throughput limit (bytes/s).
    IoAware { limit_bps: f64 },
    /// Workload-adaptive; `two_group = false` is the naïve ablation.
    Adaptive { limit_bps: f64, two_group: bool },
    /// Dot-product vector packing (TETRIS-style, §VIII comparator):
    /// order-free, reservation-free greedy packing of nodes × bandwidth.
    Packing { limit_bps: f64 },
}
iosched_simkit::impl_json_enum!(SchedulerKind {
    DefaultBackfill,
    IoAware { limit_bps },
    Adaptive { limit_bps, two_group },
    Packing { limit_bps },
});

/// Full configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub scheduler: SchedulerKind,
    pub fs: LustreConfig,
    /// Compute nodes (paper testbed: 15).
    pub nodes: usize,
    /// Master seed; all stochastic behaviour derives from it.
    pub seed: u64,
    /// Backfill interval (Slurm `bf_interval`, default 30 s).
    pub sched_period: SimDuration,
    /// Minimum spacing between event-triggered passes
    /// (Slurm `sched_min_interval`).
    pub sched_min_interval: SimDuration,
    /// Monitoring cadence (paper: 1 s).
    pub sample_period: SimDuration,
    /// Only the first `max_queue_depth` queued jobs are examined per pass
    /// (Slurm `bf_max_job_test`).
    pub max_queue_depth: usize,
    /// `BackfillMax` of Algorithm 1.
    pub backfill_max: usize,
    /// Pre-train the estimator by running each job type in isolation.
    pub pretrained: bool,
    /// QoS fraction of the two-group threshold, Eq. (2) (paper: 0.5).
    /// Only affects `SchedulerKind::Adaptive`.
    pub qos_fraction: f64,
    /// Must be false: no job is killed at its limit (the paper's workloads
    /// are sized so that none reaches it), and the engine refuses `true`.
    /// Kept for perfbench's mirror of the event loop, which reads it,
    /// until ROADMAP item 1b deletes the mirror.
    pub enforce_limits: bool,
    /// Queue ordering before each backfill pass (Algorithm 1, line 2).
    pub priority_policy: PriorityPolicy,
    /// Per-node burst-buffer capacity in bytes (0 = none, the paper's
    /// setup). Buffered write bytes complete at client speed and drain
    /// asynchronously.
    pub burst_buffer_per_node_bytes: f64,
    /// Ignored: the engine always elides the rounds it can prove
    /// identical to the previous one. Kept so that perfbench's mirror,
    /// its only reader, compiles unchanged.
    pub elide_rounds: bool,
    /// Analytics configuration. It has no settings; kept so that
    /// perfbench's mirror, which passes it to `AnalyticsService::new`,
    /// compiles unchanged.
    pub analytics: AnalyticsConfig,
}

impl ExperimentConfig {
    /// The paper's testbed defaults for a given scheduler.
    pub fn paper(scheduler: SchedulerKind, seed: u64) -> Self {
        ExperimentConfig {
            scheduler,
            fs: LustreConfig::stria(),
            nodes: 15,
            seed,
            sched_period: SimDuration::from_secs(30),
            sched_min_interval: SimDuration::from_secs(2),
            sample_period: SimDuration::from_secs(1),
            max_queue_depth: 500,
            backfill_max: usize::MAX,
            pretrained: true,
            qos_fraction: 0.5,
            enforce_limits: false,
            priority_policy: PriorityPolicy::Fifo,
            burst_buffer_per_node_bytes: 0.0,
            elide_rounds: true,
            analytics: AnalyticsConfig,
        }
    }

    /// The paper's testbed grown `factor ×` in horizontal extent:
    /// `factor × 15` compute nodes in front of a
    /// [`LustreConfig::scaled`] file system. `factor = 67` ≈ a 1 000-node
    /// machine, `factor = 667` ≈ 10 000 nodes — the scale sweep's axis.
    pub fn paper_scaled(scheduler: SchedulerKind, seed: u64, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        let mut cfg = Self::paper(scheduler, seed);
        cfg.nodes *= factor;
        cfg.fs = cfg.fs.scaled(factor);
        cfg
    }
}

/// Per-job outcome record.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    pub id: JobId,
    pub name: String,
    pub submit: SimTime,
    pub start: SimTime,
    pub end: SimTime,
}

impl JobRecord {
    /// Wait time `Q_j`.
    pub fn wait(&self) -> SimDuration {
        self.start.saturating_since(self.submit)
    }

    /// Runtime `D_j`.
    pub fn runtime(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Everything one run produces.
#[derive(Clone, Debug, Default)]
pub struct ExperimentResult {
    /// Total workload runtime (first submit → last completion), seconds.
    pub makespan_secs: f64,
    /// Sampled aggregate Lustre throughput (bytes/s).
    pub throughput_trace: TimeSeries,
    /// Sampled allocated-node count.
    pub nodes_trace: TimeSeries,
    /// Sampled mean OST fatigue level (model diagnostic).
    pub fatigue_trace: TimeSeries,
    /// Sampled active-stream count (model diagnostic).
    pub streams_trace: TimeSeries,
    /// Per-job records, by id.
    pub jobs: Vec<JobRecord>,
    /// Scheduling passes executed (including elided and certified rounds
    /// — such a round *is* a pass whose outcome was proven, so the
    /// counter equals that of an engine that runs every pass).
    pub sched_passes: u64,
    /// Of [`Self::sched_passes`], rounds whose queue walk was elided
    /// because the previous outcome provably still held.
    pub rounds_elided: u64,
    /// Of [`Self::sched_passes`], rounds whose pass was skipped because
    /// the no-start certificate proved it would start nothing (never
    /// counted in [`Self::rounds_elided`]).
    pub rounds_certified: u64,
    /// Event-loop iterations executed: a deterministic proxy for event
    /// count, recorded by the campaign bench so an event blowup fails the
    /// perf gate even when wall-time noise hides it.
    pub loop_iterations: u64,
    /// Scheduler label (for reports).
    pub label: String,
}

impl ExperimentResult {
    /// Average allocated nodes over the makespan.
    pub fn mean_busy_nodes(&self) -> f64 {
        self.nodes_trace
            .time_average(SimTime::ZERO, SimTime::from_secs_f64(self.makespan_secs))
    }

    /// Average aggregate throughput over the makespan (bytes/s).
    pub fn mean_throughput_bps(&self) -> f64 {
        self.throughput_trace
            .time_average(SimTime::ZERO, SimTime::from_secs_f64(self.makespan_secs))
    }
}

/// Run one experiment to completion.
pub fn run_experiment(cfg: &ExperimentConfig, workload: &[JobSubmission]) -> ExperimentResult {
    run_experiment_with_scratch(cfg, workload, &mut RunScratch::default())
}

/// [`run_experiment`] with caller-owned scratch buffers (see
/// [`RunScratch`]); the result is identical. The workload may come in
/// any order: it is stable-sorted by submit time before admission.
pub fn run_experiment_with_scratch(
    cfg: &ExperimentConfig,
    workload: &[JobSubmission],
    scratch: &mut RunScratch,
) -> ExperimentResult {
    assert!(!workload.is_empty(), "workload must not be empty");
    let mut result = ExperimentResult {
        label: cfg.scheduler.label(),
        ..ExperimentResult::default()
    };
    let mut jobs: Vec<&JobSubmission> = workload.iter().collect();
    jobs.sort_by_key(|s| s.submit);
    let source = JobSource {
        jobs: jobs.into_iter().cloned(),
        window: workload.len(),
        pretrain_on: cfg.pretrained.then_some(workload),
    };
    let totals = engine::run(cfg, source, scratch, &mut result);
    result.jobs.sort_by_key(|r| r.id);
    result.makespan_secs = totals.makespan_secs;
    result.sched_passes = totals.sched_passes;
    result.rounds_elided = totals.rounds_elided;
    result.rounds_certified = totals.rounds_certified;
    result.loop_iterations = totals.loop_iterations;
    result
}

/// The full recorder: every job's record and the four sampled traces.
impl Recorder for ExperimentResult {
    fn sample(&mut self, now: SimTime, snap: &FsSnapshot, cluster: &ClusterSim) {
        self.throughput_trace.push(now, snap.total_bps);
        self.nodes_trace.push(now, cluster.busy_nodes() as f64);
        let fat = cluster.fs().ost_fatigue();
        self.fatigue_trace
            .push(now, fat.iter().sum::<f64>() / fat.len().max(1) as f64);
        self.streams_trace
            .push(now, cluster.fs().active_stream_count() as f64);
    }

    fn finish(&mut self, job: &SchedJob, started: SimTime, ended: SimTime) {
        self.jobs.push(JobRecord {
            id: job.id,
            name: job.name.clone(),
            submit: job.submit,
            start: started,
            end: ended,
        });
    }

    /// Final sample so traces extend to the end of the run, stamped at the
    /// last completion itself (never at the next tick past the makespan,
    /// which would bias tail averages) unless already sampled then.
    fn end(&mut self, now: SimTime, cluster: &ClusterSim, snap: &mut FsSnapshot) {
        if self.throughput_trace.last_time() != Some(now) {
            cluster.fs().snapshot_into(snap);
            self.throughput_trace.push(now, snap.total_bps);
            self.nodes_trace.push(now, cluster.busy_nodes() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_cluster::ExecSpec;
    use iosched_simkit::units::{gib, gibps};
    use iosched_slurm::policy::NodePolicy;
    use iosched_slurm::BackfillConfig;
    use iosched_workloads::{JobSubmission, WorkloadBuilder};

    /// Jobs arrive one after another with fixed spacing, in id order.
    fn uniform_arrivals(jobs: &mut [JobSubmission], gap: SimDuration) {
        let mut t = SimTime::ZERO;
        for job in jobs.iter_mut() {
            job.submit = t;
            t += gap;
        }
    }

    fn tiny_workload() -> Vec<JobSubmission> {
        // 2 waves of 4 write×4 + 6 short sleeps on a small volume: quick.
        WorkloadBuilder::new()
            .waves(2, |b| {
                b.batch(
                    4,
                    "write_x4",
                    ExecSpec::write_xn(4, gib(2.0)),
                    SimDuration::from_secs(600),
                )
                .batch(
                    6,
                    "sleep",
                    ExecSpec::sleep(SimDuration::from_secs(30)),
                    SimDuration::from_secs(60),
                )
            })
            .build()
    }

    fn quick_cfg(kind: SchedulerKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(kind, 7);
        cfg.fs = LustreConfig::stria().noiseless();
        cfg.nodes = 5;
        cfg.sched_period = SimDuration::from_secs(5);
        cfg
    }

    #[test]
    fn default_scheduler_completes_workload() {
        let res = run_experiment(&quick_cfg(SchedulerKind::DefaultBackfill), &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
        assert!(res.makespan_secs > 0.0);
        assert!(res.sched_passes > 0);
        // Starts never precede submissions; ends never precede starts.
        for j in &res.jobs {
            assert!(j.start >= j.submit);
            assert!(j.end >= j.start);
        }
        // All sampled node counts within the cluster size.
        assert!(res.nodes_trace.max_value().unwrap() <= 5.0);
    }

    #[test]
    fn io_aware_respects_limit_on_average() {
        let limit = gibps(3.0);
        let res = run_experiment(
            &quick_cfg(SchedulerKind::IoAware { limit_bps: limit }),
            &tiny_workload(),
        );
        assert_eq!(res.jobs.len(), 20);
        // The scheduler plans below the limit; transient measurement
        // excursions are possible, so check the time-average.
        assert!(
            res.mean_throughput_bps() < limit * 1.2,
            "mean {} vs limit {}",
            res.mean_throughput_bps(),
            limit
        );
    }

    #[test]
    fn adaptive_completes_and_records_traces() {
        let res = run_experiment(
            &quick_cfg(SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: true,
            }),
            &tiny_workload(),
        );
        assert_eq!(res.jobs.len(), 20);
        assert!(res.throughput_trace.len() > 10);
        assert!(res.nodes_trace.len() > 10);
        assert_eq!(res.label, "adaptive-20");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        });
        let w = tiny_workload();
        let a = run_experiment(&cfg, &w);
        let b = run_experiment(&cfg, &w);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        let starts_a: Vec<SimTime> = a.jobs.iter().map(|j| j.start).collect();
        let starts_b: Vec<SimTime> = b.jobs.iter().map(|j| j.start).collect();
        assert_eq!(starts_a, starts_b);
    }

    #[test]
    fn untrained_runs_still_complete() {
        let mut cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        });
        cfg.pretrained = false;
        let res = run_experiment(&cfg, &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // Campaign workers push every task through one scratch. Runs of
        // two machines and seeds, alternating, must equal runs on fresh
        // scratch, traces included. The snapshot kept between sample
        // ticks must not outlive its run: the burst-buffered job below
        // finishes before the second tick, while its drain still runs,
        // so its run ends holding a non-empty snapshot under the key
        // (generation 0) that the next run's first sample is taken at.
        let bits = |r: &ExperimentResult| {
            let trace = |t: &iosched_simkit::series::TimeSeries| {
                let points = t.points().iter().map(|&(t, v)| (t, v.to_bits()));
                points.collect::<Vec<_>>()
            };
            (
                r.jobs
                    .iter()
                    .map(|j| (j.id, j.start, j.end))
                    .collect::<Vec<_>>(),
                r.makespan_secs.to_bits(),
                [
                    &r.throughput_trace,
                    &r.nodes_trace,
                    &r.fatigue_trace,
                    &r.streams_trace,
                ]
                .map(trace),
                (r.sched_passes, r.loop_iterations),
            )
        };
        let mut buffered = quick_cfg(SchedulerKind::DefaultBackfill);
        buffered.burst_buffer_per_node_bytes = gib(3.6);
        let one_write = WorkloadBuilder::new()
            .batch(
                1,
                "write_x4",
                ExecSpec::write_xn(4, gib(1.0)),
                SimDuration::from_secs(600),
            )
            .build();
        let testbed = ExperimentConfig::paper(
            SchedulerKind::IoAware {
                limit_bps: gibps(3.0),
            },
            11,
        );
        let w = tiny_workload();
        let mut scratch = RunScratch::default();
        for (i, (cfg, w)) in [(&buffered, &one_write), (&testbed, &w)]
            .repeat(2)
            .into_iter()
            .enumerate()
        {
            let reused = run_experiment_with_scratch(cfg, w, &mut scratch);
            assert!(
                bits(&reused) == bits(&run_experiment(cfg, w)),
                "run {i} on reused scratch differs from fresh scratch"
            );
        }
    }

    #[test]
    fn traces_never_extend_past_the_makespan() {
        // Write jobs finish at fractional times between sample ticks; the
        // final trace point must be stamped at the completion time, not
        // at the next (never-taken) sampling tick past the makespan.
        let res = run_experiment(&quick_cfg(SchedulerKind::DefaultBackfill), &tiny_workload());
        let end = res.jobs.iter().map(|j| j.end).max().unwrap();
        assert_eq!(res.throughput_trace.last_time(), Some(end));
        assert_eq!(res.nodes_trace.last_time(), Some(end));
    }

    #[test]
    fn priority_policy_reorders_dispatch() {
        // Two batches on a 1-node cluster: low priority first in FIFO
        // order, high priority second. Under Priority ordering the
        // high-priority job runs first.
        let w = WorkloadBuilder::new()
            .priority(1)
            .batch(
                1,
                "low",
                ExecSpec::sleep(SimDuration::from_secs(20)),
                SimDuration::from_secs(40),
            )
            .priority(9)
            .batch(
                1,
                "high",
                ExecSpec::sleep(SimDuration::from_secs(20)),
                SimDuration::from_secs(40),
            )
            .build();
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.nodes = 1;
        cfg.priority_policy = PriorityPolicy::Priority;
        let res = run_experiment(&cfg, &w);
        let high = res.jobs.iter().find(|j| j.name == "high").unwrap();
        let low = res.jobs.iter().find(|j| j.name == "low").unwrap();
        assert!(high.start < low.start, "{res:?}");

        // FIFO keeps submission order.
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.nodes = 1;
        let res = run_experiment(&cfg, &w);
        let high = res.jobs.iter().find(|j| j.name == "high").unwrap();
        let low = res.jobs.iter().find(|j| j.name == "low").unwrap();
        assert!(low.start < high.start);
    }

    #[test]
    fn queue_depth_cap_defers_deep_jobs() {
        // 1-node cluster, 3 sleeps; with depth 1, only the head is
        // examined each round — later jobs still run eventually.
        let w = WorkloadBuilder::new()
            .batch(
                3,
                "s",
                ExecSpec::sleep(SimDuration::from_secs(10)),
                SimDuration::from_secs(20),
            )
            .build();
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.nodes = 1;
        cfg.max_queue_depth = 1;
        let res = run_experiment(&cfg, &w);
        assert_eq!(res.jobs.len(), 3);
        let mut starts: Vec<_> = res.jobs.iter().map(|j| j.start).collect();
        starts.sort();
        assert!(starts[2] >= SimTime::from_secs(20));
    }

    #[test]
    fn easy_backfill_mode_completes() {
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.backfill_max = 1;
        let res = run_experiment(&cfg, &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
    }

    /// Two names that repeat, under the untrained decaying average, whose
    /// estimate moves with every completion: each completion changes its
    /// name's prediction while jobs of that name are queued, running or
    /// not yet admitted.
    /// The full-window replay matches the batch run (makespan, passes,
    /// iterations, every job's wait through its maximum and mean); a
    /// bounded window admits jobs after their name's prediction moved.
    #[test]
    fn untrained_name_updates_reach_every_resident_job() {
        use crate::streaming::{run_streaming, StreamingOptions};
        let mut cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        });
        cfg.pretrained = false;
        let workload = tiny_workload();
        let batch = run_experiment(&cfg, &workload);
        assert_eq!(batch.jobs.len(), 20);
        let replay = |window| {
            let opts = StreamingOptions {
                window,
                ..StreamingOptions::default()
            };
            run_streaming(&cfg, workload.iter().cloned(), &opts)
        };

        let full = replay(workload.len());
        assert_eq!(full.jobs_completed as usize, batch.jobs.len());
        assert_eq!(full.makespan_secs, batch.makespan_secs);
        assert_eq!(full.sched_passes, batch.sched_passes);
        assert_eq!(full.rounds_elided, batch.rounds_elided);
        assert_eq!(full.rounds_certified, batch.rounds_certified);
        assert_eq!(full.loop_iterations, batch.loop_iterations);
        let waits: Vec<f64> = batch.jobs.iter().map(|j| j.wait().as_secs_f64()).collect();
        assert_eq!(
            full.max_wait_secs,
            waits.iter().copied().fold(0.0, f64::max)
        );
        let mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
        assert!(mean_wait > 0.0, "the workload must queue");
        assert!((full.mean_wait_secs - mean_wait).abs() <= 1e-9 * mean_wait);

        let bounded = replay(4);
        assert_eq!(bounded.jobs_completed, 20);
        assert!(bounded.peak_resident_jobs <= 4);
    }

    #[test]
    fn packing_scheduler_completes_workloads() {
        let res = run_experiment(
            &quick_cfg(SchedulerKind::Packing {
                limit_bps: gibps(20.0),
            }),
            &tiny_workload(),
        );
        assert_eq!(res.jobs.len(), 20);
        assert_eq!(res.label, "packing-20");
        assert!(res.nodes_trace.max_value().unwrap() <= 5.0);
    }

    #[test]
    #[should_panic(expected = "job dependencies are not supported")]
    fn dependencies_are_rejected() {
        let mut w = tiny_workload();
        w[1].after = vec![w[0].id];
        run_experiment(&quick_cfg(SchedulerKind::DefaultBackfill), &w);
    }

    #[test]
    #[should_panic(expected = "limit enforcement is not supported")]
    fn limit_enforcement_is_rejected() {
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.enforce_limits = true;
        run_experiment(&cfg, &tiny_workload());
    }

    /// Buffered writes finish at client speed while their drains keep
    /// the file system busy under the finished jobs' tags; the daemon
    /// must still drain, which the engine checks at the end of the run.
    #[test]
    fn burst_buffered_writes_complete() {
        let mut cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        });
        cfg.burst_buffer_per_node_bytes = gib(100.0);
        let res = run_experiment(&cfg, &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
    }

    #[test]
    fn overrun_reservation_end_moves_with_now() {
        // A 1-node sleep of 300 s with a 60 s limit overruns from
        // t = 60 on; its `reservation_end` then tracks
        // `now + OVERRUN_GRACE`, so the waiter's computed reservation
        // moves every round — eliding such a round would freeze a stale
        // outcome, which the `next_limit_expiry` guard forbids. Pin that
        // the outcome really would change: two passes over the same
        // overrunning running set at different `now` disagree. The
        // driver-level half, against the reference engine, is
        // `overrun_jobs_block_round_elision` in
        // `crates/reference/tests/engine_vs_reference.rs`.
        use iosched_slurm::{backfill_pass, RunningView};
        let hog_meta = SchedJob::new(
            JobId(0),
            "hog",
            1,
            SimDuration::from_secs(60),
            SimTime::ZERO,
        );
        let waiter_meta = SchedJob::new(
            JobId(1),
            "waiter",
            1,
            SimDuration::from_secs(30),
            SimTime::ZERO,
        );
        let mut outs = [SimTime::ZERO; 2];
        for (i, now_s) in [100u64, 150].into_iter().enumerate() {
            let views = [RunningView {
                job: &hog_meta,
                started: SimTime::ZERO,
            }];
            let out = backfill_pass(
                &mut NodePolicy::default(),
                &views,
                &[&waiter_meta],
                SimTime::from_secs(now_s),
                1,
                &BackfillConfig::default(),
            );
            outs[i] = out.reservations[0].1;
        }
        assert_ne!(outs[0], outs[1], "overrunning reservation end must move");
    }

    #[test]
    fn unsorted_workloads_run_as_if_sorted_by_submit() {
        let mut w = tiny_workload();
        uniform_arrivals(&mut w, SimDuration::from_secs(7));
        let cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        let sorted = run_experiment(&cfg, &w);
        w.reverse();
        let reversed = run_experiment(&cfg, &w);
        assert_eq!(sorted.makespan_secs, reversed.makespan_secs);
        assert_eq!(sorted.loop_iterations, reversed.loop_iterations);
        let starts =
            |r: &ExperimentResult| r.jobs.iter().map(|j| (j.id, j.start)).collect::<Vec<_>>();
        assert_eq!(starts(&sorted), starts(&reversed));
    }
}
