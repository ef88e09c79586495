//! The event engine: the simulator's only control loop.
//!
//! Every run goes through [`run`]. Each iteration advances the
//! **cluster** to the next event, retires finished jobs (completions feed
//! the **analytics**, whose new prediction for the job's name is one write
//! to the estimate book, read by every resident job of that name), kills
//! jobs at their limit under `enforce_limits`, admits jobs
//! into freed window slots, takes the **monitoring** sample when due, and
//! runs the **backfill** pass periodically or after completions. Two
//! kinds of round skip the pass: an *elided* round is provably identical
//! to the previous one, and a *certified* round is one that cannot seed
//! an elision and whose no-start certificate (no window job fits at `now`
//! against the running jobs alone) proves the pass would start nothing.
//! Both leave every decision and counter as the executed pass would;
//! `crates/reference/tests/engine_vs_reference.rs` holds the engine to
//! the reference engine, which runs every pass, in release builds too.
//!
//! The **registry** is the one job table: it owns every resident job's
//! metadata, and each round's queue and running views are references
//! into it (`wait_queue_into`, `running_into`), in buffers recycled
//! between rounds. The engine's own resident table keeps only each job's
//! execution spec for the cluster.
//!
//! A [`JobSource`] is an iterator admitted under a window; a [`Recorder`]
//! keeps full records and traces or O(1) aggregates, reading a finished
//! job's metadata from the registry before it is retired. A finished job
//! leaves the resident table at once, and the registry too unless a
//! resident job still names it in `after`: then it stays visible to
//! `dependencies_met` until its last dependent finishes, so dependencies
//! work whenever they are admitted no later than their dependents.

use crate::driver::{ExperimentConfig, SchedulerKind};
use iosched_analytics::service::AnalyticsService;
use iosched_cluster::{ClusterSim, ExecSpec, JobCompletion};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_ldms::LdmsDaemon;
use iosched_lustre::FsSnapshot;
use iosched_simkit::ids::JobId;
use iosched_simkit::recycle;
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass_into, BackfillConfig, JobRegistry, JobState, PassStats, RunningView, SchedJob,
    SchedulingOutcome,
};
use iosched_workloads::JobSubmission;
use std::collections::BTreeMap;

/// The scheduler-policy dispatch (static enum rather than trait objects:
/// `SchedulingPolicy` has an associated tracker type).
// One instance per run; the adaptive variant carries its pooled scratch
// inline so rounds stay allocation-free — boxing it would trade a
// one-off stack cost for a pointer chase per round.
#[allow(clippy::large_enum_variant)]
enum PolicyImpl {
    Default(NodePolicy),
    IoAware(IoAwarePolicy),
    Adaptive(AdaptivePolicy),
    Packing(iosched_core::PackingConfig),
}

impl PolicyImpl {
    fn new(kind: SchedulerKind, qos_fraction: f64) -> Self {
        match kind {
            SchedulerKind::DefaultBackfill => PolicyImpl::Default(NodePolicy::default()),
            SchedulerKind::IoAware { limit_bps } => {
                PolicyImpl::IoAware(IoAwarePolicy::new(IoAwareConfig { limit_bps }))
            }
            SchedulerKind::Adaptive {
                limit_bps,
                two_group,
            } => PolicyImpl::Adaptive(AdaptivePolicy::new(AdaptiveConfig {
                limit_bps,
                two_group,
                qos_fraction,
            })),
            SchedulerKind::Packing { limit_bps } => {
                PolicyImpl::Packing(iosched_core::PackingConfig { limit_bps })
            }
        }
    }

    /// One scheduling round. The engine's persistent book is lent to the
    /// I/O-aware policies for the duration of the round (`begin_round` /
    /// `take_book`), so no estimate map is rebuilt or cloned per pass.
    /// With `certify`, an I/O-aware round whose no-start certificate holds
    /// skips its pass and returns `None`: the pass would start nothing.
    #[allow(clippy::too_many_arguments)]
    fn run_pass(
        &mut self,
        book: &mut EstimateBook,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
        bf: &BackfillConfig,
        certify: bool,
        outcome: &mut SchedulingOutcome,
    ) -> Option<PassStats> {
        match self {
            PolicyImpl::Default(p) => Some(backfill_pass_into(
                p,
                running,
                queue,
                now,
                total_nodes,
                bf,
                outcome,
            )),
            PolicyImpl::IoAware(p) => {
                p.begin_round(std::mem::take(book));
                let stats = (!(certify && p.no_start_certified(running, queue, now, total_nodes)))
                    .then(|| backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome));
                *book = p.take_book();
                stats
            }
            PolicyImpl::Adaptive(p) => {
                p.begin_round(std::mem::take(book));
                let stats = (!(certify && p.no_start_certified(running, queue, now, total_nodes)))
                    .then(|| backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome));
                *book = p.take_book();
                stats
            }
            PolicyImpl::Packing(cfg) => {
                *outcome = iosched_core::packing_pass(book, running, queue, now, total_nodes, cfg);
                // `next_possible_start = ZERO` means `now < horizon` is
                // never true: packing rounds are never elided (the pass
                // has no fixpoint horizon to reuse).
                Some(PassStats {
                    next_possible_start: SimTime::ZERO,
                    pruned: 0,
                })
            }
        }
    }

    /// True when this policy's tracker build depends only on the running
    /// set and queue — not on `now` or freshly measured load — so a round
    /// with identical inputs at a later `now` (before any reservation
    /// horizon) must decide identically. The elision precondition.
    fn round_is_time_invariant(
        &self,
        book: &EstimateBook,
        running: &[RunningView<'_>],
        measured_bps: f64,
    ) -> bool {
        match self {
            // Node profiles are built from started/limit pairs;
            // reservation ends past `now` only move for overrunning jobs,
            // which the `next_limit_expiry` guard excludes.
            PolicyImpl::Default(_) => true,
            // The LT build adds an "unaccounted" term
            // `measured − Σ r̂` pinned to `[now, now + window)` whenever
            // measured load exceeds the running jobs' estimates; that
            // breakpoint tracks `now`, so only rounds without it are
            // time-invariant.
            PolicyImpl::IoAware(p) => {
                let limit = p.config().limit_bps;
                let sum_running: f64 = running.iter().map(|rv| book.r(rv.job.id).min(limit)).sum();
                measured_bps <= sum_running
            }
            // `compute_target` divides remaining work by horizons measured
            // from `now` whenever jobs are running; only an idle cluster
            // makes the round time-invariant.
            PolicyImpl::Adaptive(_) => running.is_empty(),
            // Packing never elides (see `run_pass`).
            PolicyImpl::Packing(_) => false,
        }
    }
}

/// Where a run's jobs come from: submissions in non-decreasing submit
/// order, admitted while fewer than `window` jobs are resident, and the
/// whole trace to pretrain the estimator on, when there is one.
pub(crate) struct JobSource<'w, I> {
    pub jobs: I,
    pub window: usize,
    pub pretrain_on: Option<&'w [JobSubmission]>,
}

/// What a run keeps of what it sees.
pub(crate) trait Recorder {
    /// A monitoring sample was taken at `now`.
    fn sample(&mut self, _now: SimTime, _snap: &FsSnapshot, _cluster: &ClusterSim) {}
    /// A job finished at `ended`: ran to completion, or was killed at its
    /// limit (`timed_out`).
    fn finish(&mut self, job: &SchedJob, started: SimTime, ended: SimTime, timed_out: bool);
    /// The loop ended at `now`, the last job's end.
    fn end(&mut self, _now: SimTime, _cluster: &ClusterSim, _snap: &mut FsSnapshot) {}
}

/// The engine's own tallies, whichever recorder ran (see
/// `ExperimentResult` for their meaning).
#[derive(Default)]
pub(crate) struct RunTotals {
    pub makespan_secs: f64,
    pub sched_passes: u64,
    pub rounds_elided: u64,
    pub rounds_certified: u64,
    pub loop_iterations: u64,
    pub peak_resident_jobs: usize,
}

/// Reusable buffers for [`crate::driver::run_experiment_with_scratch`]:
/// campaign workers keep one per thread and reuse it across runs.
#[derive(Default)]
pub struct RunScratch {
    completions: Vec<JobCompletion>,
    snap: FsSnapshot,
    /// The file system's `rates_generation` that `snap` was filled at;
    /// `None` at the start of every run, whose file system is new.
    snap_gen: Option<u64>,
    per_job: Vec<(u64, f64)>,
    /// The round's queue and running views. They borrow the registry,
    /// which changes between rounds, so they are kept empty here and
    /// recycled to each round's lifetime.
    queue: Vec<&'static SchedJob>,
    running: Vec<RunningView<'static>>,
    outcome: SchedulingOutcome,
}

/// The whole state of one run.
struct Engine<'c, I> {
    cfg: &'c ExperimentConfig,
    source: I,
    window: usize,
    /// True once the source has run dry.
    exhausted: bool,
    admitted: u64,
    /// The earliest admitted submission after the clock, or an instant
    /// at or before it when stale, or `FAR_FUTURE` when none: re-read
    /// from the registry only when the clock reaches it. Exact, because
    /// a job cannot leave the pending set before its submit time, and an
    /// admission lowers it to the new submit time.
    next_arrival: SimTime,
    last_submit: SimTime,
    first_submit: Option<SimTime>,
    last_end: SimTime,
    cluster: ClusterSim,
    daemon: LdmsDaemon,
    analytics: AnalyticsService,
    policy: PolicyImpl,
    /// The job table: the only copy of every resident job's metadata.
    registry: JobRegistry,
    /// Execution specs of the resident jobs (admitted, not yet finished).
    resident: BTreeMap<JobId, ExecSpec>,
    /// Jobs named in some resident job's `after`, with their dependent
    /// counts: retired from the registry when their last dependent is.
    held: BTreeMap<JobId, u32>,
    /// The finishing job's `after`, copied out of the registry while its
    /// dependencies are released.
    deps: Vec<JobId>,
    /// The persistent estimate book (Algorithm 2, line 1, incremental).
    book: EstimateBook,
}

impl<I: Iterator<Item = JobSubmission>> Engine<'_, I> {
    /// Pull from the source while the window has room.
    fn admit(&mut self) {
        while self.resident.len() < self.window {
            let Some(sub) = self.source.next() else {
                self.exhausted = true;
                return;
            };
            assert!(
                sub.submit >= self.last_submit,
                "submissions must arrive in submit order ({})",
                sub.id
            );
            self.last_submit = sub.submit;
            self.first_submit.get_or_insert(sub.submit);
            self.next_arrival = self.next_arrival.min(sub.submit);
            let sym = self.analytics.intern(&sub.name);
            let meta = SchedJob::new(sub.id, sub.name, sub.exec.nodes, sub.limit, sub.submit)
                .with_priority(sub.priority)
                .with_after(sub.after)
                .with_name_sym(sym);
            for &dep in &meta.after {
                *self.held.entry(dep).or_default() += 1;
            }
            // Only pretraining and completions (see `finish`) change a
            // name's prediction, so this write matters at the name's first
            // admission, which picks up pretraining; later ones rewrite it.
            self.book
                .set_name_estimate(sym, self.analytics.estimator().estimate(sym));
            self.book.insert_named(sub.id, sym, meta.limit);
            self.registry.submit(meta);
            self.resident.insert(sub.id, sub.exec);
            self.admitted += 1;
        }
    }

    /// Finish a running job at `ended`: completed, or killed at its limit
    /// (`timed_out`), and retire it.
    fn finish(&mut self, id: JobId, ended: SimTime, timed_out: bool, rec: &mut impl Recorder) {
        let Some(JobState::Running { started }) = self.registry.state(id) else {
            unreachable!("finishing {id}, which is not running")
        };
        if timed_out {
            self.registry.mark_timed_out(id, ended);
        } else {
            self.registry.mark_completed(id, ended);
        }
        self.resident.remove(&id).expect("finished job is resident");
        self.book.remove(id);
        let meta = self.registry.meta(id).expect("finished job is registered");
        // Killed jobs produce no estimator observation: their measured
        // volume is truncated and would bias r̂/d̂.
        if !timed_out {
            let sym = meta.name_sym;
            self.analytics
                .on_job_complete_sym(&self.daemon, id.0, sym, started, ended);
            // The completion changed this name's prediction, which every
            // resident job of the name reads through the book.
            self.book
                .set_name_estimate(sym, self.analytics.estimator().estimate(sym));
        }
        self.daemon.forget(id.0);
        rec.finish(meta, started, ended, timed_out);
        self.deps.clear();
        self.deps.extend_from_slice(&meta.after);
        for dep in &self.deps {
            let n = self.held.get_mut(dep).expect("dependency is held");
            *n -= 1;
            if *n == 0 {
                self.held.remove(dep);
                // A dependent can only have started after `dep` finished.
                self.registry.retire(*dep);
            }
        }
        if !self.held.contains_key(&id) {
            self.registry.retire(id);
        }
        self.last_end = self.last_end.max(ended);
    }

    fn run(mut self, s: &mut RunScratch, rec: &mut impl Recorder) -> RunTotals {
        let cfg = self.cfg;
        let mut totals = RunTotals::default();
        self.admit();
        let Some(first_submit) = self.first_submit else {
            return totals; // empty source
        };
        let mut next_sched = first_submit;
        let mut last_sched: Option<SimTime> = None;
        let mut sched_requested = true;
        let mut now = SimTime::ZERO;

        // Round elision: a round is skipped only if nothing dirtied the
        // inputs since the last executed one (admissions follow
        // retirements, which dirty it), `now` is before its earliest
        // future start, nothing was submitted since, no running job is at
        // its limit (an overrunning job's reservation end tracks `now`),
        // and the tracker build is time-invariant. A round that is not
        // time-invariant can never seed an elision, so its earliest future
        // start is never read: when the no-start certificate shows its
        // pass would start nothing, the pass is skipped too (a certified
        // round) and the elision state is set exactly as the pass would
        // have set it.
        let mut round_dirty = true;
        let mut prev_round_at = SimTime::ZERO;
        let mut prev_next_possible = SimTime::ZERO;
        let mut prev_invariant = false;

        let bf = BackfillConfig {
            max_reservations: cfg.backfill_max,
            ..BackfillConfig::default()
        };

        while !(self.exhausted && self.registry.all_completed()) {
            totals.loop_iterations += 1;
            // The bound's division is paid only past its fixed allowance.
            assert!(
                totals.loop_iterations < ITERATION_ALLOWANCE
                    || totals.loop_iterations
                        < iteration_bound(
                            self.admitted,
                            now.saturating_since(first_submit),
                            cfg.sample_period
                        ),
                "event loop failed to converge (time {now})"
            );
            totals.peak_resident_jobs = totals.peak_resident_jobs.max(self.resident.len());

            // Next event: cluster activity, sampling or scheduling tick, an
            // admitted future submission; never backwards.
            if self.next_arrival <= now {
                self.next_arrival = self
                    .registry
                    .next_submission_after(now)
                    .unwrap_or(SimTime::FAR_FUTURE);
            }
            let mut t_next = next_sched
                .min(self.daemon.next_sample_at())
                .min(self.next_arrival);
            if let Some(t) = self.cluster.next_event_time() {
                t_next = t_next.min(t);
            }
            if cfg.enforce_limits {
                if let Some(t) = self.registry.next_limit_expiry() {
                    t_next = t_next.min(t);
                }
            }
            let t = t_next.max(now);

            // 1. Advance the cluster and retire what finished; under
            // `enforce_limits`, kill running jobs that hit `L_j`.
            self.cluster.advance_to_into(t, &mut s.completions);
            let mut finished_any = !s.completions.is_empty();
            for c in s.completions.iter() {
                self.finish(c.job, c.at, false, rec);
            }
            now = t;
            if cfg.enforce_limits {
                for (id, _) in self.registry.overrunning(now) {
                    self.cluster
                        .cancel_job(now, id)
                        .expect("overrunning job is running");
                    self.finish(id, now, true, rec);
                    finished_any = true;
                }
            }
            if finished_any {
                sched_requested = true;
                round_dirty = true;
                // Freed window slots admit the next slice of the source.
                if !self.exhausted {
                    self.admit();
                }
            }

            // 2. Monitoring sample. The snapshot is kept while the file
            // system's rates and streams stand still.
            if now >= self.daemon.next_sample_at() {
                let fs = self.cluster.fs();
                let generation = fs.rates_generation();
                if s.snap_gen != Some(generation) {
                    fs.snapshot_into(&mut s.snap);
                    s.snap_gen = Some(generation);
                }
                s.per_job.clear();
                s.per_job
                    .extend(s.snap.per_tag_bps.iter().map(|&(tag, bps)| (tag.0, bps)));
                // A burst-buffered write drains after its job finished,
                // under the job's tag: the drain is load, but the daemon
                // must not track the finished job again.
                if cfg.burst_buffer_per_node_bytes > 0.0 {
                    let resident = &self.resident;
                    s.per_job
                        .retain(|&(job, _)| resident.contains_key(&JobId(job)));
                }
                self.daemon.sample(now, s.snap.total_bps, &s.per_job, 0);
                rec.sample(now, &s.snap, &self.cluster);
            }

            // 3. Scheduling pass (periodic, or event-triggered subject to
            // the minimum interval).
            let min_ok =
                last_sched.is_none_or(|ls| now.saturating_since(ls) >= cfg.sched_min_interval);
            if !(now >= next_sched || (sched_requested && min_ok)) {
                continue;
            }
            sched_requested = false;
            last_sched = Some(now);
            next_sched = now + cfg.sched_period;
            // The round reads the job table directly: the queue and the
            // running views are references into the registry, recycled
            // back into `s` before any job starts (a start changes the
            // table). `executed` is true when a pass ran.
            let mut queue = recycle(std::mem::take(&mut s.queue));
            let mut running = recycle(std::mem::take(&mut s.running));
            let executed = 'round: {
                self.registry.wait_queue_into(
                    now,
                    cfg.priority_policy,
                    cfg.max_queue_depth,
                    &mut queue,
                );
                if queue.is_empty() {
                    break 'round false;
                }
                // Elided and certified rounds count too: the counter must
                // not depend on which rounds skip their pass.
                totals.sched_passes += 1;
                self.registry.running_into(&mut running);
                // Line 2 of Algorithm 2: measured current load.
                let measured = self.analytics.current_load_bps(&self.daemon, now);
                self.book.measured_total_bps = measured;
                // The pass does not change the book, so one evaluation
                // serves both this round's elision and the next round's.
                let invariant = self
                    .policy
                    .round_is_time_invariant(&self.book, &running, measured);
                let elide = !round_dirty
                    && now < prev_next_possible
                    && self
                        .registry
                        .next_submission_after(prev_round_at)
                        .is_none_or(|s| s > now)
                    && self.registry.next_limit_expiry().is_none_or(|e| e > now)
                    && prev_invariant
                    && invariant;
                if elide {
                    totals.rounds_elided += 1;
                    break 'round false;
                }
                prev_round_at = now;
                prev_invariant = invariant;
                let Some(stats) = self.policy.run_pass(
                    &mut self.book,
                    &running,
                    &queue,
                    now,
                    cfg.nodes,
                    &bf,
                    !invariant,
                    &mut s.outcome,
                ) else {
                    // Certified, so `invariant` is false: nothing starts,
                    // and with `prev_invariant` false `prev_next_possible`
                    // is not read before the next executed round replaces
                    // it.
                    totals.rounds_certified += 1;
                    round_dirty = false;
                    break 'round false;
                };
                prev_next_possible = stats.next_possible_start;
                // Starts change the running set; the next round sees
                // different inputs. This is also what lets the post-start
                // cut leave such a pass's horizon short: it is never read.
                round_dirty = !s.outcome.start_now.is_empty();
                true
            };
            s.queue = recycle(queue);
            s.running = recycle(running);
            if !executed {
                continue;
            }
            let resident = &self.resident;
            self.cluster
                .start_jobs(
                    now,
                    s.outcome.start_now.iter().map(|&id| (id, &resident[&id])),
                )
                .unwrap_or_else(|e| panic!("scheduler overcommitted: {e}"));
            for &id in &s.outcome.start_now {
                self.registry.mark_started(id, now);
            }
        }

        assert!(self.resident.is_empty(), "resident table must drain");
        assert_eq!(self.daemon.tracked_jobs(), 0, "the daemon must drain");
        rec.end(now, &self.cluster, &mut s.snap);
        totals.makespan_secs = self.last_end.saturating_since(first_submit).as_secs_f64();
        totals
    }
}

/// The event loop's convergence guard: the iteration count a run must
/// stay below once `admitted` jobs are admitted and its clock stands
/// `elapsed` after the first submission. The loop takes an iteration per
/// event, and the sample and scheduling ticks add up to one per sample
/// period of simulated time even on an idle cluster; so the bound grows
/// by 500 per job and by two per elapsed sample period over a fixed
/// allowance. A loop whose clock stops advancing has a fixed bound and
/// still trips it.
fn iteration_bound(admitted: u64, elapsed: SimDuration, sample_period: SimDuration) -> u64 {
    let ticks = elapsed.as_millis() / sample_period.as_millis().max(1);
    ITERATION_ALLOWANCE + 500 * admitted + 2 * ticks
}

/// The fixed part of [`iteration_bound`], below which no run can trip it.
const ITERATION_ALLOWANCE: u64 = 50_000_000;

/// Run `source` to completion under `cfg`, reporting to `rec`.
///
/// # Panics
/// On a zero window, on out-of-order submissions, and when the loop
/// fails to converge.
pub(crate) fn run<I: Iterator<Item = JobSubmission>>(
    cfg: &ExperimentConfig,
    source: JobSource<'_, I>,
    scratch: &mut RunScratch,
    rec: &mut impl Recorder,
) -> RunTotals {
    assert!(source.window > 0, "admission window must be positive");
    scratch.snap_gen = None;
    let rng = SimRng::from_seed(cfg.seed).fork(1);
    let mut cluster = ClusterSim::new(cfg.nodes, cfg.fs.clone(), rng);
    cluster.set_burst_buffer(cfg.burst_buffer_per_node_bytes);
    let daemon = LdmsDaemon::new(cfg.sample_period);
    let mut analytics = AnalyticsService::new(cfg.analytics);
    if let Some(workload) = source.pretrain_on {
        for (name, r, d) in crate::pretrain::pretrain_isolated_with_bb(
            &cfg.fs,
            workload,
            cfg.seed,
            cfg.burst_buffer_per_node_bytes,
        ) {
            analytics.pretrain(&name, r, d);
        }
    }
    Engine {
        cfg,
        source: source.jobs,
        window: source.window,
        exhausted: false,
        admitted: 0,
        next_arrival: SimTime::FAR_FUTURE,
        last_submit: SimTime::ZERO,
        first_submit: None,
        last_end: SimTime::ZERO,
        cluster,
        daemon,
        analytics,
        policy: PolicyImpl::new(cfg.scheduler, cfg.qos_fraction),
        registry: JobRegistry::new(),
        resident: BTreeMap::new(),
        held: BTreeMap::new(),
        deps: Vec::new(),
        book: EstimateBook::new(),
    }
    .run(scratch, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_bound_grows_with_simulated_time() {
        let second = SimDuration::from_secs(1);
        let base = iteration_bound(2_000, SimDuration::ZERO, second);
        assert_eq!(base, 50_000_000 + 500 * 2_000);
        // A run simulating 5e7 s, one tick per second, stays under it.
        let long = SimDuration::from_secs(50_000_000);
        assert!(iteration_bound(2_000, long, second) > base + 50_000_000);
        // The allowance per elapsed second follows the sample period.
        let coarse = iteration_bound(2_000, long, SimDuration::from_secs(10));
        assert_eq!(coarse, base + 10_000_000);
    }

    #[test]
    fn iteration_bound_is_fixed_while_the_clock_stands_still() {
        // Only admissions and the clock move the bound, so a loop that
        // spins at one instant without admitting meets the same finite
        // bound on every iteration and trips the guard.
        let at = SimDuration::from_secs(123_456);
        let period = SimDuration::from_secs(1);
        assert_eq!(
            iteration_bound(10, at, period),
            50_000_000 + 500 * 10 + 2 * 123_456
        );
        // Sample periods below a millisecond cannot divide by zero.
        assert_eq!(
            iteration_bound(0, at, SimDuration::ZERO),
            50_000_000 + 2 * 123_456_000
        );
    }
}
