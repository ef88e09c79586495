//! The traced mirror of `run_streaming`.
//!
//! The simulator records no spans of its own yet, so the benchmark
//! replays the same inputs through a copy of the `run_streaming` event
//! loop built only from public calls, with a span boundary around each
//! call into a layer. The copy must make exactly the decisions the
//! original makes: every traced operation compares its fingerprint with
//! the untraced run's, and a mismatch fails the run. Once the engine
//! records spans itself, this module goes away.
//!
//! With the window covering the whole trace, no sample retention and
//! pretraining first, the loop is `run_experiment`'s, which is how the
//! campaign tasks are mirrored.

use crate::trace::{Layer, Tracer};
use crate::workload::{Fingerprint, POOL_WORKERS};
use iosched_analytics::service::AnalyticsService;
use iosched_cluster::{ClusterSim, ExecSpec, JobCompletion};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_experiments::driver::{ExperimentConfig, SchedulerKind};
use iosched_experiments::pool;
use iosched_experiments::pretrain::pretrain_isolated_with_bb;
use iosched_experiments::streaming::StreamingOptions;
use iosched_experiments::CampaignGrid;
use iosched_ldms::LdmsDaemon;
use iosched_simkit::ids::JobId;
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::SimTime;
use iosched_slurm::{
    backfill_pass_into, take_queue_prep_counters, take_sweep_steps, take_tree_counters,
    BackfillConfig, JobRegistry, JobState, NodePolicy, PassStats, RunningView, SchedJob,
    SchedulingOutcome,
};
use iosched_workloads::JobSubmission;
use std::collections::BTreeMap;
use std::time::Instant;

/// The policies the benchmark workloads schedule with (the driver's
/// private dispatch, minus packing, which no workload uses).
#[allow(clippy::large_enum_variant)]
enum Policy {
    Node(NodePolicy),
    IoAware(IoAwarePolicy),
    Adaptive(AdaptivePolicy),
}

impl Policy {
    fn new(kind: SchedulerKind, qos_fraction: f64) -> Self {
        match kind {
            SchedulerKind::DefaultBackfill => Policy::Node(NodePolicy::default()),
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
            SchedulerKind::Packing { .. } => panic!("no benchmark workload schedules by packing"),
        }
    }

    /// One scheduling pass; the estimate book is lent to the I/O-aware
    /// policies for its duration.
    #[allow(clippy::too_many_arguments)]
    fn run_pass(
        &mut self,
        book: &mut EstimateBook,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
        bf: &BackfillConfig,
        outcome: &mut SchedulingOutcome,
    ) -> PassStats {
        match self {
            Policy::Node(p) => backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome),
            Policy::IoAware(p) => {
                p.begin_round(std::mem::take(book));
                let stats = backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome);
                *book = p.take_book();
                stats
            }
            Policy::Adaptive(p) => {
                p.begin_round(std::mem::take(book));
                let stats = backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome);
                *book = p.take_book();
                stats
            }
        }
    }

    /// The driver's round-elision precondition: the tracker build does not
    /// depend on `now` or on freshly measured load.
    fn round_is_time_invariant(
        &self,
        book: &EstimateBook,
        running: &[(JobId, SimTime)],
        measured_bps: f64,
    ) -> bool {
        match self {
            Policy::Node(_) => true,
            Policy::IoAware(p) => {
                let limit = p.config().limit_bps;
                let sum_running: f64 = running.iter().map(|&(id, _)| book.r(id).min(limit)).sum();
                measured_bps <= sum_running
            }
            Policy::Adaptive(_) => running.is_empty(),
        }
    }
}

struct Resident {
    meta: SchedJob,
    spec: ExecSpec,
}

/// Everything admission touches.
struct Admission<I> {
    source: I,
    window: usize,
    admitted: u64,
    last_submit: SimTime,
    first_submit: Option<SimTime>,
    registry: JobRegistry,
    resident: BTreeMap<JobId, Resident>,
    /// Per-name lists of resident jobs, for the estimate refresh.
    jobs_by_sym: Vec<Vec<JobId>>,
    book: EstimateBook,
    analytics: AnalyticsService,
}

impl<I: Iterator<Item = JobSubmission>> Admission<I> {
    /// Pull from the source while the window has room; `true` once the
    /// source is exhausted.
    fn admit(&mut self, tr: &mut Tracer) -> bool {
        while self.resident.len() < self.window {
            tr.mark(Layer::Loop);
            let next = self.source.next();
            tr.mark(Layer::Ingest);
            let Some(sub) = next else {
                return true;
            };
            assert!(
                sub.after.is_empty(),
                "streaming replay does not support dependencies ({})",
                sub.id
            );
            assert!(
                sub.submit >= self.last_submit,
                "submissions must arrive in submit order ({})",
                sub.id
            );
            self.last_submit = sub.submit;
            self.first_submit.get_or_insert(sub.submit);
            let sym = self.analytics.intern(&sub.name);
            tr.mark(Layer::Estimate);
            let meta = SchedJob::new(sub.id, sub.name, sub.exec.nodes, sub.limit, sub.submit)
                .with_priority(sub.priority)
                .with_name_sym(sym);
            self.registry.submit(meta.clone());
            tr.mark(Layer::Registry);
            if self.jobs_by_sym.len() <= sym.0 as usize {
                self.jobs_by_sym.resize(sym.0 as usize + 1, Vec::new());
            }
            self.jobs_by_sym[sym.0 as usize].push(sub.id);
            tr.mark(Layer::Loop);
            self.book
                .insert(sub.id, self.analytics.job_estimate_sym(sym, meta.limit));
            tr.mark(Layer::Estimate);
            self.resident.insert(
                sub.id,
                Resident {
                    meta,
                    spec: sub.exec,
                },
            );
            self.admitted += 1;
        }
        false
    }
}

/// Replay `submissions` as `run_streaming(cfg, submissions, opts)` does,
/// recording spans and counts into `tr`. With `pretrain_on`, the
/// estimator is first pretrained on that trace, as `run_experiment` does.
///
/// # Panics
/// On the inputs `run_streaming` rejects, and on limit enforcement,
/// which no benchmark workload turns on.
pub fn replay(
    cfg: &ExperimentConfig,
    submissions: impl IntoIterator<Item = JobSubmission>,
    opts: &StreamingOptions,
    pretrain_on: Option<&[JobSubmission]>,
    tr: &mut Tracer,
) -> Fingerprint {
    assert!(opts.window > 0, "admission window must be positive");
    assert_eq!(
        cfg.pretrained,
        pretrain_on.is_some(),
        "pretraining needs the whole trace"
    );
    assert!(!cfg.enforce_limits, "no benchmark workload enforces limits");
    let started = Instant::now();
    // The work counters are thread-local; drop whatever earlier work on
    // this thread left in them.
    take_sweep_steps();
    take_tree_counters();
    take_queue_prep_counters();

    let master = SimRng::from_seed(cfg.seed);
    let mut cluster = ClusterSim::new(cfg.nodes, cfg.fs.clone(), master.fork(1));
    cluster.set_burst_buffer(cfg.burst_buffer_per_node_bytes);
    let mut daemon = LdmsDaemon::new(cfg.sample_period);
    if let Some((horizon, bucket_ms)) = opts.retention {
        daemon.set_retention(horizon, bucket_ms);
    }
    let mut policy = Policy::new(cfg.scheduler, cfg.qos_fraction);
    let bf = BackfillConfig {
        max_reservations: cfg.backfill_max,
        prune_fits_now: true,
        monotone_cursor: true,
    };
    let mut adm = Admission {
        source: submissions.into_iter(),
        window: opts.window,
        admitted: 0,
        last_submit: SimTime::ZERO,
        first_submit: None,
        registry: JobRegistry::new(),
        resident: BTreeMap::new(),
        jobs_by_sym: Vec::new(),
        book: EstimateBook::new(),
        analytics: AnalyticsService::new(cfg.analytics),
    };
    tr.restart();

    if let Some(workload) = pretrain_on {
        for (name, r, d) in
            pretrain_isolated_with_bb(&cfg.fs, workload, cfg.seed, cfg.burst_buffer_per_node_bytes)
        {
            adm.analytics.pretrain(&name, r, d);
        }
    }
    tr.mark(Layer::Pretrain);

    let mut exhausted = adm.admit(tr);
    let mut fp = Fingerprint {
        jobs: 0,
        loop_iterations: 0,
        sched_passes: 0,
        rounds_elided: Some(0),
        makespan_bits: 0f64.to_bits(),
    };
    if adm.registry.is_empty() {
        return fp;
    }
    let first_submit = adm.first_submit.expect("at least one job admitted");
    let mut next_sched = first_submit;
    let mut last_sched: Option<SimTime> = None;
    let mut sched_requested = true;
    let mut now = SimTime::ZERO;
    let mut last_end = SimTime::ZERO;

    let mut round_dirty = true;
    let mut prev_round_at = SimTime::ZERO;
    let mut prev_next_possible = SimTime::ZERO;
    let mut prev_invariant = false;

    let mut completions: Vec<JobCompletion> = Vec::new();
    let mut snap = iosched_lustre::FsSnapshot::default();
    let mut per_job: Vec<(u64, f64)> = Vec::new();
    let mut queue_ids: Vec<JobId> = Vec::new();
    let mut running_pairs: Vec<(JobId, SimTime)> = Vec::new();
    let mut outcome = SchedulingOutcome::default();

    let mut guard: u64 = 0;
    while !adm.registry.is_empty() || !exhausted {
        guard += 1;
        assert!(
            guard < 50_000_000 + 500 * adm.admitted,
            "event loop failed to converge (time {now})"
        );
        tr.mark(Layer::Loop);

        let mut t_next = next_sched;
        if let Some(t) = cluster.next_event_time() {
            t_next = t_next.min(t);
        }
        t_next = t_next.min(daemon.next_sample_at());
        if let Some(t) = adm.registry.next_submission_after(now) {
            t_next = t_next.min(t);
        }
        let t = t_next.max(now);
        tr.mark(Layer::NextEvent);

        cluster.advance_to_into(t, &mut completions);
        tr.mark(Layer::Advance);
        tr.counts.advance_calls += 1;
        tr.counts.completions += completions.len() as u64;
        let mut retired_any = false;
        for c in completions.iter() {
            adm.registry.mark_completed(c.job, c.at);
            tr.mark(Layer::Registry);
            let entry = adm
                .resident
                .remove(&c.job)
                .expect("completed job is resident");
            let sym = entry.meta.name_sym;
            tr.mark(Layer::Loop);
            let (started, ended) = match adm.registry.state(c.job) {
                Some(JobState::Completed { started, ended }) => (started, ended),
                _ => unreachable!("just marked completed"),
            };
            tr.mark(Layer::Registry);
            adm.analytics
                .on_job_complete_sym(&daemon, c.job.0, sym, started, ended);
            tr.mark(Layer::Observe);
            adm.book.remove(c.job);
            tr.mark(Layer::Loop);
            adm.registry.retire(c.job);
            tr.mark(Layer::Registry);
            retired_any = true;
            fp.jobs += 1;
            last_end = last_end.max(ended);
            let Admission {
                jobs_by_sym,
                resident,
                book,
                analytics,
                ..
            } = &mut adm;
            let mut refreshed = 0;
            jobs_by_sym[sym.0 as usize].retain(|&jid| {
                let Some(e) = resident.get(&jid) else {
                    return false;
                };
                book.insert(jid, analytics.job_estimate_sym(sym, e.meta.limit));
                refreshed += 1;
                true
            });
            tr.mark(Layer::Refresh);
            tr.counts.refresh_estimates += refreshed;
            sched_requested = true;
            round_dirty = true;
        }
        now = t;

        if retired_any && !exhausted {
            exhausted = adm.admit(tr);
        }

        if now >= daemon.next_sample_at() {
            tr.mark(Layer::Loop);
            cluster.fs().snapshot_into(&mut snap);
            tr.mark(Layer::Snapshot);
            per_job.clear();
            per_job.extend(snap.per_tag_bps.iter().map(|&(tag, bps)| (tag.0, bps)));
            daemon.sample(now, snap.total_bps, &per_job, cluster.busy_nodes());
            tr.mark(Layer::Sample);
            tr.counts.sample_calls += 1;
            tr.counts.store_records += 2 + per_job.len() as u64;
        }

        let min_ok = last_sched.is_none_or(|ls| now.saturating_since(ls) >= cfg.sched_min_interval);
        if now >= next_sched || (sched_requested && min_ok) {
            sched_requested = false;
            last_sched = Some(now);
            next_sched = now + cfg.sched_period;
            tr.mark(Layer::Loop);

            adm.registry.wait_queue_ids_limited_into(
                now,
                cfg.priority_policy,
                cfg.max_queue_depth,
                &mut queue_ids,
            );
            tr.mark(Layer::QueuePrep);
            if !queue_ids.is_empty() {
                fp.sched_passes += 1;
                tr.queue_depths.push(queue_ids.len() as u64);
                adm.registry.running_ids_into(&mut running_pairs);
                tr.mark(Layer::QueuePrep);
                let measured = adm.analytics.current_load_bps(&daemon, now);
                tr.mark(Layer::Load);

                let mut elide = cfg.elide_rounds && !round_dirty && now < prev_next_possible;
                if elide {
                    tr.mark(Layer::Loop);
                    elide = adm
                        .registry
                        .next_submission_after(prev_round_at)
                        .is_none_or(|s| s > now)
                        && adm.registry.next_limit_expiry().is_none_or(|e| e > now);
                    tr.mark(Layer::Registry);
                }
                elide = elide
                    && prev_invariant
                    && policy.round_is_time_invariant(&adm.book, &running_pairs, measured);

                if elide {
                    fp.rounds_elided = fp.rounds_elided.map(|n| n + 1);
                } else {
                    tr.mark(Layer::Loop);
                    let queue_refs: Vec<&SchedJob> = queue_ids
                        .iter()
                        .map(|&id| &adm.resident[&id].meta)
                        .collect();
                    let running_views: Vec<RunningView<'_>> = running_pairs
                        .iter()
                        .map(|&(id, started)| RunningView {
                            job: &adm.resident[&id].meta,
                            started,
                        })
                        .collect();
                    adm.book.measured_total_bps = measured;
                    tr.mark(Layer::QueuePrep);
                    let stats = policy.run_pass(
                        &mut adm.book,
                        &running_views,
                        &queue_refs,
                        now,
                        cfg.nodes,
                        &bf,
                        &mut outcome,
                    );
                    let ns = tr.mark(Layer::Backfill);
                    tr.backfill_pass_ns.push(ns);
                    let c = &mut tr.counts;
                    c.backfill_productive += u64::from(!outcome.start_now.is_empty());
                    c.backfill_started += outcome.start_now.len() as u64;
                    c.backfill_reservations += outcome.reservations.len() as u64;
                    c.backfill_pruned += stats.pruned;
                    prev_round_at = now;
                    prev_next_possible = stats.next_possible_start;
                    prev_invariant =
                        policy.round_is_time_invariant(&adm.book, &running_pairs, measured);
                    round_dirty = false;
                    for &id in &outcome.start_now {
                        tr.mark(Layer::Loop);
                        cluster
                            .start_job(now, id, &adm.resident[&id].spec)
                            .unwrap_or_else(|e| panic!("scheduler overcommitted: {e}"));
                        tr.mark(Layer::StartJob);
                        adm.registry.mark_started(id, now);
                        tr.mark(Layer::Registry);
                    }
                    if !outcome.start_now.is_empty() {
                        round_dirty = true;
                    }
                }
            }
        }
    }
    tr.mark(Layer::Loop);

    assert!(adm.resident.is_empty(), "resident table must drain");
    fp.loop_iterations = guard;
    fp.makespan_bits = last_end
        .saturating_since(first_submit)
        .as_secs_f64()
        .to_bits();
    let c = &mut tr.counts;
    c.jobs += fp.jobs;
    c.loop_iterations += guard;
    c.sweep_steps += take_sweep_steps();
    let (descents, updates) = take_tree_counters();
    c.tree_descents += descents;
    c.tree_updates += updates;
    let (index_ops, walk_steps) = take_queue_prep_counters();
    c.queue_index_ops += index_ops;
    c.queue_walk_steps += walk_steps;
    let ns = started.elapsed().as_nanos() as u64;
    tr.wall_ns += ns;
    tr.task_ns.push(ns);
    fp
}

/// What the traced campaign produced.
pub struct TracedGrid {
    /// One fingerprint per task, in task order (without `rounds_elided`,
    /// which campaign records do not carry).
    pub fingerprints: Vec<Fingerprint>,
    pub tracer: Tracer,
    /// Wall time of the whole pool run.
    pub pool_wall_ns: u64,
}

/// Mirror a campaign: every task replayed as `run_experiment` would run
/// it, fanned out over the campaign pool with [`POOL_WORKERS`] workers.
pub fn replay_grid(grid: &CampaignGrid, workload: &[JobSubmission]) -> TracedGrid {
    let tasks = grid.tasks();
    let opts = StreamingOptions {
        window: workload.len(),
        retention: None,
    };
    let started = Instant::now();
    let results = pool::run_all(
        &tasks,
        POOL_WORKERS,
        || (),
        |(), _, task| {
            let cfg = grid.experiment_config(task);
            let mut tr = Tracer::default();
            let fp = replay(
                &cfg,
                workload.iter().cloned(),
                &opts,
                Some(workload),
                &mut tr,
            );
            (fp, tr)
        },
        |_, _| {},
    );
    let pool_wall_ns = started.elapsed().as_nanos() as u64;
    let mut tracer = Tracer::default();
    let mut fingerprints = Vec::with_capacity(results.len());
    for (fp, tr) in &results {
        fingerprints.push(Fingerprint {
            rounds_elided: None,
            ..*fp
        });
        tracer.merge(tr);
    }
    TracedGrid {
        fingerprints,
        tracer,
        pool_wall_ns,
    }
}
