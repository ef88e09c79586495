//! The reference engine: the experiment loop with none of the speed-ups.
//!
//! [`run_experiment`] and [`run_streaming`] take the same inputs as their
//! namesakes in `iosched_experiments` and drive the same substrate
//! (cluster and Lustre simulation, monitoring daemon, analytics,
//! pretraining) under the same event-time and admission-window rules.
//! What the production engine does fast, this one does plainly:
//!
//! * its job table is a map from id to job that is never pruned, and
//!   each round's queue is collected from it and sorted;
//! * each round builds a fresh estimate book from
//!   [`AnalyticsService::job_estimate_sym`] for every job it shows the
//!   policy;
//! * every round with a non-empty queue runs its pass:
//!   [`reference_pass`] without fits-now pruning, or the packing pass.
//!   No round is elided or certified.
//!
//! The production engine must make the same decisions on every input:
//! the same starts at the same times, so the same completions, samples,
//! pass counts and loop iterations.

use crate::reference_pass;
use iosched_analytics::service::AnalyticsService;
use iosched_cluster::{ClusterSim, ExecSpec};
use iosched_core::{
    packing_pass, AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy,
    PackingConfig,
};
use iosched_experiments::driver::{ExperimentConfig, ExperimentResult, JobRecord, SchedulerKind};
use iosched_experiments::pretrain::pretrain_isolated_with_bb;
use iosched_experiments::StreamingResult;
use iosched_ldms::LdmsDaemon;
use iosched_lustre::FsSnapshot;
use iosched_simkit::ids::JobId;
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::SimTime;
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    BackfillConfig, JobState, PriorityPolicy, RunningView, SchedJob, SchedulingOutcome,
};
use iosched_workloads::JobSubmission;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// One job of the reference table.
struct Entry {
    meta: SchedJob,
    exec: ExecSpec,
    state: JobState,
}

/// The pending jobs submitted at or before `now` whose dependencies have
/// all finished, sorted under `policy` and cut to the first `depth`.
/// Every sort key ends in the unique job id, so the order is total.
fn sorted_wait_queue<'a>(
    jobs: impl Iterator<Item = (&'a SchedJob, JobState)>,
    finished: impl Fn(JobId) -> bool,
    now: SimTime,
    policy: PriorityPolicy,
    depth: usize,
) -> Vec<&'a SchedJob> {
    let mut queue: Vec<&SchedJob> = jobs
        .filter(|(job, state)| {
            *state == JobState::Pending
                && job.submit <= now
                && job.after.iter().all(|&dep| finished(dep))
        })
        .map(|(job, _)| job)
        .collect();
    match policy {
        PriorityPolicy::Fifo => queue.sort_unstable_by_key(|j| (j.submit, j.id)),
        PriorityPolicy::Priority => {
            queue.sort_unstable_by_key(|j| (Reverse(j.priority), j.submit, j.id))
        }
    }
    queue.truncate(depth);
    queue
}

#[allow(clippy::large_enum_variant)]
enum Policy {
    Default(NodePolicy),
    IoAware(IoAwarePolicy),
    Adaptive(AdaptivePolicy),
    Packing(PackingConfig),
}

impl Policy {
    fn new(kind: SchedulerKind, qos_fraction: f64) -> Self {
        match kind {
            SchedulerKind::DefaultBackfill => Policy::Default(NodePolicy::default()),
            SchedulerKind::IoAware { limit_bps } => {
                Policy::IoAware(IoAwarePolicy::new(IoAwareConfig { limit_bps }))
            }
            SchedulerKind::Adaptive {
                limit_bps,
                two_group,
            } => Policy::Adaptive(AdaptivePolicy::new(AdaptiveConfig {
                limit_bps,
                two_group,
                qos_fraction,
            })),
            SchedulerKind::Packing { limit_bps } => Policy::Packing(PackingConfig { limit_bps }),
        }
    }

    /// The round's decisions over a book built for it.
    fn pass(
        &mut self,
        book: EstimateBook,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
        bf: &BackfillConfig,
    ) -> SchedulingOutcome {
        match self {
            Policy::Default(p) => reference_pass(p, running, queue, now, total_nodes, bf).0,
            Policy::IoAware(p) => {
                p.begin_round(book);
                reference_pass(p, running, queue, now, total_nodes, bf).0
            }
            Policy::Adaptive(p) => {
                p.begin_round(book);
                reference_pass(p, running, queue, now, total_nodes, bf).0
            }
            Policy::Packing(cfg) => packing_pass(&book, running, queue, now, total_nodes, cfg),
        }
    }
}

/// What a run keeps: the full records and traces, or the aggregates.
trait Record {
    fn sample(&mut self, _now: SimTime, _snap: &FsSnapshot, _cluster: &ClusterSim) {}
    fn finish(&mut self, job: &SchedJob, started: SimTime, ended: SimTime, timed_out: bool);
    fn end(&mut self, _now: SimTime, _cluster: &ClusterSim) {}
}

impl Record for ExperimentResult {
    fn sample(&mut self, now: SimTime, snap: &FsSnapshot, cluster: &ClusterSim) {
        self.throughput_trace.push(now, snap.total_bps);
        self.nodes_trace.push(now, cluster.busy_nodes() as f64);
        let fat = cluster.fs().ost_fatigue();
        self.fatigue_trace
            .push(now, fat.iter().sum::<f64>() / fat.len().max(1) as f64);
        self.streams_trace
            .push(now, cluster.fs().active_stream_count() as f64);
    }

    fn finish(&mut self, job: &SchedJob, started: SimTime, ended: SimTime, timed_out: bool) {
        self.jobs.push(JobRecord {
            id: job.id,
            name: job.name.clone(),
            submit: job.submit,
            start: started,
            end: ended,
            timed_out,
        });
    }

    fn end(&mut self, now: SimTime, cluster: &ClusterSim) {
        if self.throughput_trace.last_time() != Some(now) {
            let mut snap = FsSnapshot::default();
            cluster.fs().snapshot_into(&mut snap);
            self.throughput_trace.push(now, snap.total_bps);
            self.nodes_trace.push(now, cluster.busy_nodes() as f64);
        }
    }
}

impl Record for StreamingResult {
    fn finish(&mut self, job: &SchedJob, started: SimTime, _ended: SimTime, _timed_out: bool) {
        self.jobs_completed += 1;
        let wait = started.saturating_since(job.submit).as_secs_f64();
        self.mean_wait_secs += wait;
        self.max_wait_secs = self.max_wait_secs.max(wait);
    }
}

/// The running jobs of `jobs`, in id order.
fn running(jobs: &BTreeMap<JobId, Entry>) -> impl Iterator<Item = RunningView<'_>> {
    jobs.values().filter_map(|e| match e.state {
        JobState::Running { started } => Some(RunningView {
            job: &e.meta,
            started,
        }),
        _ => None,
    })
}

/// The loop's tallies.
#[derive(Default)]
struct Totals {
    makespan_secs: f64,
    sched_passes: u64,
    loop_iterations: u64,
    peak_resident_jobs: usize,
}

struct Engine<'c, I> {
    cfg: &'c ExperimentConfig,
    source: I,
    window: usize,
    exhausted: bool,
    last_submit: SimTime,
    first_submit: Option<SimTime>,
    last_end: SimTime,
    cluster: ClusterSim,
    daemon: LdmsDaemon,
    analytics: AnalyticsService,
    policy: Policy,
    /// Every admitted job, by id; finished jobs stay.
    jobs: BTreeMap<JobId, Entry>,
    /// Admitted jobs that have not finished.
    resident: usize,
}

impl<I: Iterator<Item = JobSubmission>> Engine<'_, I> {
    fn admit(&mut self) {
        while self.resident < self.window {
            let Some(sub) = self.source.next() else {
                self.exhausted = true;
                return;
            };
            assert!(sub.submit >= self.last_submit, "submissions out of order");
            self.last_submit = sub.submit;
            self.first_submit.get_or_insert(sub.submit);
            let sym = self.analytics.intern(&sub.name);
            let meta = SchedJob::new(sub.id, sub.name, sub.exec.nodes, sub.limit, sub.submit)
                .with_priority(sub.priority)
                .with_after(sub.after)
                .with_name_sym(sym);
            let entry = Entry {
                meta,
                exec: sub.exec,
                state: JobState::Pending,
            };
            assert!(self.jobs.insert(sub.id, entry).is_none(), "duplicate id");
            self.resident += 1;
        }
    }

    fn finish(&mut self, id: JobId, ended: SimTime, timed_out: bool, rec: &mut impl Record) {
        let entry = self.jobs.get_mut(&id).expect("finished job is known");
        let JobState::Running { started } = entry.state else {
            panic!("finishing {id}, which is not running")
        };
        entry.state = if timed_out {
            JobState::TimedOut { started, ended }
        } else {
            JobState::Completed { started, ended }
        };
        if !timed_out {
            self.analytics.on_job_complete_sym(
                &self.daemon,
                id.0,
                entry.meta.name_sym,
                started,
                ended,
            );
        }
        self.daemon.forget(id.0);
        rec.finish(&entry.meta, started, ended, timed_out);
        self.resident -= 1;
        self.last_end = self.last_end.max(ended);
    }

    fn run(mut self, rec: &mut impl Record) -> Totals {
        let cfg = self.cfg;
        let mut totals = Totals::default();
        self.admit();
        let Some(first_submit) = self.first_submit else {
            return totals;
        };
        let mut next_sched = first_submit;
        let mut last_sched: Option<SimTime> = None;
        let mut sched_requested = true;
        let mut now = SimTime::ZERO;
        let bf = BackfillConfig {
            max_reservations: cfg.backfill_max,
            prune_fits_now: false,
            ..BackfillConfig::default()
        };
        let mut snap = FsSnapshot::default();
        let mut completions = Vec::new();

        while !(self.exhausted && self.resident == 0) {
            totals.loop_iterations += 1;
            assert!(
                totals.loop_iterations < 50_000_000,
                "reference loop failed to converge (time {now})"
            );
            totals.peak_resident_jobs = totals.peak_resident_jobs.max(self.resident);

            let mut t_next = next_sched.min(self.daemon.next_sample_at());
            if let Some(t) = self.cluster.next_event_time() {
                t_next = t_next.min(t);
            }
            let next_submit = self
                .jobs
                .values()
                .filter(|e| e.state == JobState::Pending && e.meta.submit > now)
                .map(|e| e.meta.submit)
                .min();
            if let Some(t) = next_submit {
                t_next = t_next.min(t);
            }
            if cfg.enforce_limits {
                if let Some(t) = running(&self.jobs)
                    .map(|rv| rv.started + rv.job.limit)
                    .min()
                {
                    t_next = t_next.min(t);
                }
            }
            let t = t_next.max(now);

            self.cluster.advance_to_into(t, &mut completions);
            let mut finished_any = !completions.is_empty();
            for c in &completions {
                self.finish(c.job, c.at, false, rec);
            }
            now = t;
            if cfg.enforce_limits {
                let overrun: Vec<JobId> = running(&self.jobs)
                    .filter(|rv| rv.started + rv.job.limit <= now)
                    .map(|rv| rv.job.id)
                    .collect();
                for id in overrun {
                    self.cluster
                        .cancel_job(now, id)
                        .expect("overrunning job is running");
                    self.finish(id, now, true, rec);
                    finished_any = true;
                }
            }
            if finished_any {
                sched_requested = true;
                if !self.exhausted {
                    self.admit();
                }
            }

            if now >= self.daemon.next_sample_at() {
                self.cluster.fs().snapshot_into(&mut snap);
                let jobs = &self.jobs;
                let per_job: Vec<(u64, f64)> = snap
                    .per_tag_bps
                    .iter()
                    .map(|&(tag, bps)| (tag.0, bps))
                    // A burst-buffered drain outlives its job; only
                    // running jobs are tracked.
                    .filter(|&(job, _)| {
                        cfg.burst_buffer_per_node_bytes <= 0.0
                            || matches!(
                                jobs.get(&JobId(job)).map(|e| e.state),
                                Some(JobState::Pending | JobState::Running { .. })
                            )
                    })
                    .collect();
                self.daemon.sample(now, snap.total_bps, &per_job, 0);
                rec.sample(now, &snap, &self.cluster);
            }

            let min_ok =
                last_sched.is_none_or(|ls| now.saturating_since(ls) >= cfg.sched_min_interval);
            if !(now >= next_sched || (sched_requested && min_ok)) {
                continue;
            }
            sched_requested = false;
            last_sched = Some(now);
            next_sched = now + cfg.sched_period;

            let jobs = &self.jobs;
            let finished = |dep: JobId| {
                matches!(
                    jobs.get(&dep).map(|e| e.state),
                    Some(JobState::Completed { .. } | JobState::TimedOut { .. })
                )
            };
            let queue = sorted_wait_queue(
                jobs.values().map(|e| (&e.meta, e.state)),
                finished,
                now,
                cfg.priority_policy,
                cfg.max_queue_depth,
            );
            if queue.is_empty() {
                continue;
            }
            totals.sched_passes += 1;
            let running: Vec<RunningView<'_>> = running(&self.jobs).collect();
            let mut book = EstimateBook::new();
            for job in queue.iter().copied().chain(running.iter().map(|rv| rv.job)) {
                book.insert(
                    job.id,
                    self.analytics.job_estimate_sym(job.name_sym, job.limit),
                );
            }
            book.measured_total_bps = self.analytics.current_load_bps(&self.daemon, now);
            let outcome = self
                .policy
                .pass(book, &running, &queue, now, cfg.nodes, &bf);
            for id in outcome.start_now {
                let entry = self.jobs.get_mut(&id).expect("started job is known");
                assert_eq!(entry.state, JobState::Pending, "{id} started twice");
                self.cluster
                    .start_job(now, id, &entry.exec)
                    .unwrap_or_else(|e| panic!("reference overcommitted: {e}"));
                entry.state = JobState::Running { started: now };
            }
        }

        assert_eq!(self.resident, 0, "every admitted job must finish");
        assert_eq!(self.daemon.tracked_jobs(), 0, "the daemon must drain");
        rec.end(now, &self.cluster);
        totals.makespan_secs = self.last_end.saturating_since(first_submit).as_secs_f64();
        totals
    }
}

fn run<I: Iterator<Item = JobSubmission>>(
    cfg: &ExperimentConfig,
    jobs: I,
    window: usize,
    pretrain_on: Option<&[JobSubmission]>,
    rec: &mut impl Record,
) -> Totals {
    assert!(window > 0, "admission window must be positive");
    let rng = SimRng::from_seed(cfg.seed).fork(1);
    let mut cluster = ClusterSim::new(cfg.nodes, cfg.fs.clone(), rng);
    cluster.set_burst_buffer(cfg.burst_buffer_per_node_bytes);
    let mut analytics = AnalyticsService::new(cfg.analytics);
    if let Some(workload) = pretrain_on {
        for (name, r, d) in
            pretrain_isolated_with_bb(&cfg.fs, workload, cfg.seed, cfg.burst_buffer_per_node_bytes)
        {
            analytics.pretrain(&name, r, d);
        }
    }
    Engine {
        cfg,
        source: jobs,
        window,
        exhausted: false,
        last_submit: SimTime::ZERO,
        first_submit: None,
        last_end: SimTime::ZERO,
        cluster,
        daemon: LdmsDaemon::new(cfg.sample_period),
        analytics,
        policy: Policy::new(cfg.scheduler, cfg.qos_fraction),
        jobs: BTreeMap::new(),
        resident: 0,
    }
    .run(rec)
}

/// The reference run of `iosched_experiments::run_experiment`: the whole
/// workload admitted at once in submit order, pretrained on it when
/// `cfg.pretrained`, with every record and trace kept. `rounds_elided`
/// and `rounds_certified` are always zero.
pub fn run_experiment(cfg: &ExperimentConfig, workload: &[JobSubmission]) -> ExperimentResult {
    assert!(!workload.is_empty(), "workload must not be empty");
    let mut result = ExperimentResult {
        label: cfg.scheduler.label(),
        ..ExperimentResult::default()
    };
    let mut jobs: Vec<&JobSubmission> = workload.iter().collect();
    jobs.sort_by_key(|s| s.submit);
    let pretrain_on = cfg.pretrained.then_some(workload);
    let totals = run(
        cfg,
        jobs.into_iter().cloned(),
        workload.len(),
        pretrain_on,
        &mut result,
    );
    result.jobs.sort_by_key(|r| r.id);
    result.makespan_secs = totals.makespan_secs;
    result.sched_passes = totals.sched_passes;
    result.loop_iterations = totals.loop_iterations;
    result
}

/// The reference run of `iosched_experiments::run_streaming`:
/// `submissions` (submit order, no dependencies, untrained) admitted
/// while fewer than `window` jobs are resident, keeping the aggregates.
/// `rounds_elided` and `rounds_certified` are always zero.
pub fn run_streaming(
    cfg: &ExperimentConfig,
    submissions: impl IntoIterator<Item = JobSubmission>,
    window: usize,
) -> StreamingResult {
    assert!(!cfg.pretrained, "streaming replay cannot pretrain");
    let mut result = StreamingResult {
        label: cfg.scheduler.label(),
        ..StreamingResult::default()
    };
    let jobs = submissions.into_iter().inspect(|sub| {
        assert!(sub.after.is_empty(), "streaming replay has no dependencies");
    });
    let totals = run(cfg, jobs, window, None, &mut result);
    result.makespan_secs = totals.makespan_secs;
    result.sched_passes = totals.sched_passes;
    result.loop_iterations = totals.loop_iterations;
    result.peak_resident_jobs = totals.peak_resident_jobs;
    result.mean_wait_secs /= result.jobs_completed.max(1) as f64;
    result
}
