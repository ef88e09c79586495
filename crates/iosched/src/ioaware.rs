//! I/O-aware scheduling (paper §VI, Algorithms 2–4).
//!
//! Lustre bandwidth becomes an additional cluster-wide resource with a
//! fixed limit `R_limit`. The tracker (`{NT, LT}` in the paper) combines
//! Slurm's stock node tracker with a bandwidth reservation profile:
//!
//! * running jobs reserve their *estimated* throughput `r_j` over
//!   `[b_j, b_j + L_j)` (Algorithm 2, lines 5–6);
//! * if the *measured* current load exceeds the sum of the running
//!   estimates, the difference is reserved as "unaccounted" load until the
//!   last running job's limit expires (lines 7–8) — this is what protects
//!   the file system from jobs with missing or underestimated
//!   requirements;
//! * `EarliestStartTime` (Algorithm 4) is the least start at which both
//!   nodes and bandwidth fit: the fixpoint the paper reaches by
//!   alternating the two trackers, found here by one forward scan over
//!   the profile that holds both as columns;
//! * `ReserveResources` reserves both nodes and bandwidth (Algorithm 3).
//!
//! Before a round builds its tracker, the no-start certificate
//! ([`IoAwarePolicy::no_start_certified`]) can show in O(running + queue)
//! scalar work that no queued job fits now against the running jobs
//! alone, so the pass would start nothing.
//!
//! The LT is one more column of the node policy's pooled profile, which
//! the per-round trackers borrow and mutate in place, so a steady-state
//! scheduling round allocates nothing.

use crate::book::EstimateBook;
use iosched_simkit::time::SimTime;
use iosched_slurm::policy::{NodePolicy, NodeTracker};
use iosched_slurm::{
    free_nodes_at, quanta_down, quanta_up, ReservationTracker, ResourceProfile, RunningView,
    SchedJob, SchedulingPolicy, MAX_CAPACITY,
};

/// Configuration of the I/O-aware policy.
#[derive(Clone, Copy, Debug)]
pub struct IoAwareConfig {
    /// File-system throughput limit `R_limit`, bytes/s (paper evaluates
    /// 20 GiB/s and 15 GiB/s).
    pub limit_bps: f64,
}

/// The node policy whose pooled profile carries the LT column — the
/// reusable part of the I/O-aware machinery, shared with the adaptive
/// policy (which layers its AT column on top).
#[derive(Clone, Debug, Default)]
pub(crate) struct IoAwareCore {
    node_policy: NodePolicy,
}

impl IoAwareCore {
    /// Algorithm 2: build the `{NT, LT}` tracker for one round. With
    /// `stage_at`, the profile carries an AT column after the LT column,
    /// which `stage_at(profile, column)` stages.
    pub(crate) fn init_tracker<'a>(
        &'a mut self,
        book: &'a EstimateBook,
        limit_bps: f64,
        running: &[RunningView<'_>],
        now: SimTime,
        total_nodes: usize,
        stage_at: Option<impl FnOnce(&mut ResourceProfile, usize)>,
    ) -> IoAwareTracker<'a> {
        let lt_capacity = quanta_down(limit_bps);
        let nodes = self.node_policy.init_tracker_with(
            running,
            now,
            total_nodes,
            1 + usize::from(stage_at.is_some()),
            |profile, lt| {
                stage_running_lt(book, running, now, limit_bps, lt_capacity, |q, s, e| {
                    profile.stage(lt, q, s, e);
                });
                if let Some(stage_at) = stage_at {
                    stage_at(profile, lt + 1);
                }
            },
        );
        IoAwareTracker {
            nodes,
            free_lt_now: free_lt_at(book, running, now, limit_bps, lt_capacity),
            lt_capacity,
            book,
            limit_bps,
            now,
        }
    }

    /// The no-start certificate: `true` when no `queue` job fits at `now`
    /// against the running jobs alone, because each needs more nodes, or
    /// more LT quanta, than they leave free. A backfill pass over the same
    /// inputs then starts nothing. The running jobs started at or before
    /// `now`, so their usage (and the unaccounted term) can only fall over
    /// `[now, ∞)`, and the pass's reservations only add usage; a job that
    /// does not fit now against the running set alone never fits now in
    /// the pass. The gate the tracker does not check here (adaptive's AT
    /// column) only refuses more jobs, so leaving it out keeps the
    /// certificate sound. O(running + queue) scalar work.
    pub(crate) fn no_start_certified(
        &self,
        book: &EstimateBook,
        limit_bps: f64,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> bool {
        let capacity = quanta_down(limit_bps);
        let free_nodes = free_nodes_at(running, now, total_nodes);
        let free_lt = free_lt_at(book, running, now, limit_bps, capacity);
        !queue.iter().any(|job| {
            job.nodes as i64 <= free_nodes
                && lt_demand(effective_r(book, job, limit_bps), capacity) <= free_lt
        })
    }
}

/// The I/O-aware scheduling policy.
pub struct IoAwarePolicy {
    cfg: IoAwareConfig,
    book: EstimateBook,
    core: IoAwareCore,
}

impl IoAwarePolicy {
    /// Create the policy with the given throughput limit.
    pub fn new(cfg: IoAwareConfig) -> Self {
        if let Err(e) = check_limit_bps(cfg.limit_bps) {
            panic!("{e}");
        }
        IoAwarePolicy {
            cfg,
            book: EstimateBook::new(),
            core: IoAwareCore::default(),
        }
    }

    /// Install the round's estimate snapshot (Algorithm 2, lines 1–2).
    /// Call before every [`iosched_slurm::backfill_pass`].
    pub fn begin_round(&mut self, book: EstimateBook) {
        self.book = book;
    }

    /// Take the estimate snapshot back out (the driver hands the same
    /// book to the policy every round instead of cloning it).
    pub fn take_book(&mut self) -> EstimateBook {
        std::mem::take(&mut self.book)
    }

    /// The configured limit.
    pub fn config(&self) -> IoAwareConfig {
        self.cfg
    }

    /// The current estimate snapshot.
    pub fn book(&self) -> &EstimateBook {
        &self.book
    }

    /// The no-start certificate over the installed book: `true` only if
    /// a [`iosched_slurm::backfill_pass`] on these inputs would start no
    /// job. For io-aware rounds it is exact per job: with a single queued
    /// job it holds exactly when the job cannot start at `now`.
    pub fn no_start_certified(
        &self,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> bool {
        self.core.no_start_certified(
            &self.book,
            self.cfg.limit_bps,
            running,
            queue,
            now,
            total_nodes,
        )
    }
}

/// The running set's LT usage as Algorithm 2 (lines 4–8) stages it, in
/// quanta of an LT column of `capacity`: each job's demand over its
/// reservation window, then the measured load above the accounted
/// estimates as anonymous usage until the last running job may end.
/// `stage(quanta, start, end)` receives each term; the profile build and
/// the no-start certificate both read the running set through here.
fn stage_running_lt(
    book: &EstimateBook,
    running: &[RunningView<'_>],
    now: SimTime,
    limit_bps: f64,
    capacity: i64,
    mut stage: impl FnMut(i64, SimTime, SimTime),
) {
    let mut sum_running = 0.0;
    let mut horizon = now;
    for rv in running {
        let end = rv.reservation_end(now);
        let r = effective_r(book, rv.job, limit_bps);
        stage(lt_demand(r, capacity), rv.started, end);
        sum_running += r;
        horizon = horizon.max(end);
    }
    // Lines 7–8: measured load above the accounted estimates.
    let unaccounted = book.measured_total_bps - sum_running;
    if unaccounted > 0.0 && horizon > now {
        stage(quanta_up(unaccounted), now, horizon);
    }
}

/// LT quanta the running set leaves free at `now`, out of `capacity`:
/// exactly the headroom at `now` of the LT column
/// [`IoAwareCore::init_tracker`] builds, unaccounted term included. With
/// [`free_nodes_at`] it is the one source of free capacity at `now`, read
/// by the no-start certificate and by [`IoAwareTracker`]'s
/// `may_start_now`. Negative when the measured load overcommits the
/// limit.
fn free_lt_at(
    book: &EstimateBook,
    running: &[RunningView<'_>],
    now: SimTime,
    limit_bps: f64,
    capacity: i64,
) -> i64 {
    let mut used = 0;
    stage_running_lt(book, running, now, limit_bps, capacity, |q, start, end| {
        if start <= now && now < end {
            used += q;
        }
    });
    capacity - used
}

/// `r_j` clamped to the limit: an estimate above `R_limit` would make the
/// job permanently unschedulable.
pub(crate) fn effective_r(book: &EstimateBook, job: &SchedJob, limit_bps: f64) -> f64 {
    book.r(job.id).min(limit_bps)
}

/// A job's LT demand in profile quanta: its [`effective_r`] rounded up,
/// then clamped to the LT `capacity` *in quanta*. Without the final clamp
/// a non-integral limit would round up past the capacity, and a job
/// estimated at or above the limit could never fit.
fn lt_demand(effective_r: f64, capacity: i64) -> i64 {
    quanta_up(effective_r).min(capacity)
}

/// The one throughput-limit check, applied wherever a limit enters the
/// program: finite, positive, and no larger than the largest capacity a
/// reservation profile holds ([`MAX_CAPACITY`] bytes/s).
pub fn check_limit_bps(limit_bps: f64) -> Result<(), String> {
    if limit_bps.is_finite() && limit_bps > 0.0 && limit_bps <= MAX_CAPACITY {
        Ok(())
    } else {
        Err(format!(
            "throughput limit {limit_bps} B/s must be finite, positive and at most \
             {MAX_CAPACITY} B/s"
        ))
    }
}

/// Tracker produced by [`IoAwarePolicy`]: Slurm's node tracker, whose
/// profile carries the Lustre-throughput column after the node column,
/// borrowed from policy-owned scratch.
pub struct IoAwareTracker<'a> {
    nodes: NodeTracker<'a>,
    /// The LT column's capacity `R_limit`, in quanta.
    lt_capacity: i64,
    pub(crate) book: &'a EstimateBook,
    pub(crate) limit_bps: f64,
    /// The round's time.
    now: SimTime,
    /// LT quanta free at `now`, kept exact by `reserve`.
    free_lt_now: i64,
}

impl IoAwareTracker<'_> {
    /// `job`'s LT demand in this tracker's quanta.
    fn demand(&self, job: &SchedJob) -> i64 {
        lt_demand(
            effective_r(self.book, job, self.limit_bps),
            self.lt_capacity,
        )
    }

    /// Algorithm 4's earliest start, with the AT threshold `at` when the
    /// profile carries an AT column. The LT gates every job, even one
    /// with no demand: measured load can hold the LT over its capacity.
    pub(crate) fn earliest_start_at(
        &mut self,
        job: &SchedJob,
        t_min: SimTime,
        at: Option<i64>,
    ) -> SimTime {
        let lt = self.lt_capacity - self.demand(job);
        match at {
            None => self.nodes.earliest_start_with(job, t_min, &[lt]),
            Some(at) => self.nodes.earliest_start_with(job, t_min, &[lt, at]),
        }
    }

    /// Algorithm 3's reservation, with the AT amount `at` when the
    /// profile carries an AT column.
    pub(crate) fn reserve_at(&mut self, job: &SchedJob, start: SimTime, at: Option<i64>) {
        let demand = self.demand(job);
        let end = start + job.limit;
        // The profile ignores an empty window, so the counter does too.
        if start == self.now && end > start {
            self.free_lt_now -= demand;
        }
        match at {
            None => self.nodes.reserve_with(job, start, &[demand]),
            Some(at) => self.nodes.reserve_with(job, start, &[demand, at]),
        }
    }
}

impl SchedulingPolicy for IoAwarePolicy {
    type Tracker<'a> = IoAwareTracker<'a>;

    fn init_tracker<'a>(
        &'a mut self,
        running: &[RunningView<'_>],
        _queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> IoAwareTracker<'a> {
        self.core.init_tracker(
            &self.book,
            self.cfg.limit_bps,
            running,
            now,
            total_nodes,
            None::<fn(&mut ResourceProfile, usize)>,
        )
    }
}

impl ReservationTracker for IoAwareTracker<'_> {
    /// Algorithm 4: the earliest start at which nodes and bandwidth both
    /// fit.
    fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime {
        self.earliest_start_at(job, t_min, None)
    }

    /// Algorithm 3: reserve nodes and bandwidth for `[t, t + L_j)`.
    fn reserve(&mut self, job: &SchedJob, start: SimTime) {
        self.reserve_at(job, start, None);
    }

    /// Node/limit dominance plus at least as much estimated
    /// bandwidth. Sound for pruning: every mid-round reservation adds
    /// nonnegative usage to both the node and LT columns.
    fn demands_at_least(&self, probe: &SchedJob, failed: &SchedJob) -> bool {
        self.nodes.demands_at_least(probe, failed)
            && effective_r(self.book, probe, self.limit_bps)
                >= effective_r(self.book, failed, self.limit_bps)
    }

    /// Free nodes and free LT quanta at `now` (the unaccounted term
    /// included) against the job's demands.
    fn may_start_now(&self, job: &SchedJob) -> bool {
        self.nodes.may_start_now(job) && self.demand(job) <= self.free_lt_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_analytics::JobEstimate;
    use iosched_reference::reference_pass;
    use iosched_simkit::ids::JobId;
    use iosched_simkit::time::SimDuration;
    use iosched_slurm::{backfill_pass, BackfillConfig};

    fn job(id: u64, nodes: usize, limit_s: u64) -> SchedJob {
        SchedJob::new(
            JobId(id),
            format!("j{id}"),
            nodes,
            SimDuration::from_secs(limit_s),
            SimTime::ZERO,
        )
    }

    fn est(r: f64, d_s: u64) -> JobEstimate {
        JobEstimate {
            throughput_bps: r,
            runtime: SimDuration::from_secs(d_s),
        }
    }

    fn policy_with(limit: f64, entries: &[(u64, f64, u64)], measured: f64) -> IoAwarePolicy {
        let mut p = IoAwarePolicy::new(IoAwareConfig { limit_bps: limit });
        let mut book = EstimateBook::new();
        for &(id, r, d) in entries {
            book.insert(JobId(id), est(r, d));
        }
        book.measured_total_bps = measured;
        p.begin_round(book);
        p
    }

    #[test]
    fn admits_jobs_up_to_the_limit() {
        // Limit 10; each job estimated at 3 → exactly 3 admitted now, the
        // fourth reserved for later (nodes are plentiful).
        let mut p = policy_with(
            10.0,
            &[(1, 3.0, 50), (2, 3.0, 50), (3, 3.0, 50), (4, 3.0, 50)],
            0.0,
        );
        let q: Vec<SchedJob> = (1..=4).map(|i| job(i, 1, 100)).collect();
        let refs: Vec<&SchedJob> = q.iter().collect();
        let cfg = BackfillConfig::default();
        let out = backfill_pass(&mut p, &[], &refs, SimTime::ZERO, 100, &cfg);
        assert_eq!(out.start_now, vec![JobId(1), JobId(2), JobId(3)], "{out:?}");
        // 1 of 10 quanta is left free now, so the walk ends after the
        // third start; the full walk reserves the fourth job for later.
        assert!(out.reservations.is_empty(), "{out:?}");
        let (full, _) = reference_pass(&mut p, &[], &refs, SimTime::ZERO, 100, &cfg, true);
        assert_eq!(full.start_now, out.start_now);
        assert_eq!(full.reservations, vec![(JobId(4), SimTime::from_secs(100))]);
    }

    #[test]
    fn zero_estimate_jobs_are_unconstrained_by_bandwidth() {
        let mut p = policy_with(10.0, &[], 0.0);
        let q: Vec<SchedJob> = (1..=5).map(|i| job(i, 1, 100)).collect();
        let refs: Vec<&SchedJob> = q.iter().collect();
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert_eq!(out.start_now.len(), 5);
    }

    #[test]
    fn running_jobs_consume_bandwidth() {
        // One running job estimated at 8 of 10; a queued job at 3 must
        // wait for its window.
        let r1 = job(1, 1, 100);
        let mut p = policy_with(10.0, &[(1, 8.0, 100), (2, 3.0, 50)], 8.0);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let q2 = job(2, 1, 50);
        let refs = [&q2];
        let out = backfill_pass(
            &mut p,
            &running,
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert!(out.start_now.is_empty());
        assert_eq!(out.reservations[0], (JobId(2), SimTime::from_secs(100)));
    }

    #[test]
    fn measured_load_compensates_for_missing_estimates() {
        // Running job has NO estimate (r=0) but the file system measures
        // 9 of 10 — the unaccounted reservation blocks a queued job
        // estimated at 3 until the running job's limit expires.
        let r1 = job(1, 1, 100);
        let mut p = policy_with(10.0, &[(2, 3.0, 50)], 9.0);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let q2 = job(2, 1, 50);
        let refs = [&q2];
        let out = backfill_pass(
            &mut p,
            &running,
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert!(out.start_now.is_empty(), "{out:?}");
        assert_eq!(out.reservations[0], (JobId(2), SimTime::from_secs(100)));
    }

    #[test]
    fn measured_load_without_running_jobs_does_not_block() {
        // No running jobs: there is no horizon to reserve against, so a
        // queued job starts immediately (stale measured load decays).
        let mut p = policy_with(10.0, &[(1, 3.0, 50)], 9.0);
        let q1 = job(1, 1, 50);
        let refs = [&q1];
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert_eq!(out.start_now, vec![JobId(1)]);
    }

    #[test]
    fn estimates_above_limit_are_clamped() {
        // r = 50 with limit 10: without clamping the job could never
        // start; with clamping it runs alone.
        let mut p = policy_with(10.0, &[(1, 50.0, 50), (2, 50.0, 50)], 0.0);
        let a = job(1, 1, 100);
        let b = job(2, 1, 100);
        let refs = [&a, &b];
        let cfg = BackfillConfig::default();
        let out = backfill_pass(&mut p, &[], &refs, SimTime::ZERO, 100, &cfg);
        assert_eq!(out.start_now, vec![JobId(1)]);
        // The first job takes the whole limit, so the walk ends there;
        // the full walk reserves the second after it.
        assert!(out.reservations.is_empty(), "{out:?}");
        let (full, _) = reference_pass(&mut p, &[], &refs, SimTime::ZERO, 100, &cfg, true);
        assert_eq!(full.start_now, out.start_now);
        assert_eq!(full.reservations, vec![(JobId(2), SimTime::from_secs(100))]);
    }

    #[test]
    fn node_and_bandwidth_fixpoint() {
        // 2 nodes total. Running: 2-node job for 100 s with r=2.
        // Queue: job A (1 node, r=9, limit 50), job B (1 node, r=0, 30 s).
        // A fits node-wise at t=100 and bandwidth-wise at t=100 (limit 10,
        // 9 ≤ 10), B at t=100 too (only 2 nodes)... use a bandwidth-bound
        // case: after A is reserved at 100, B (r=2) collides on bandwidth
        // over [100,150) → must wait for nodes anyway. Keep as regression:
        // the fixpoint returns consistent times for both.
        let r1 = job(1, 2, 100);
        let mut p = policy_with(10.0, &[(1, 2.0, 100), (2, 9.0, 50), (3, 2.0, 30)], 2.0);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let a = job(2, 1, 50);
        let b = job(3, 1, 30);
        let refs = [&a, &b];
        let out = backfill_pass(
            &mut p,
            &running,
            &refs,
            SimTime::ZERO,
            2,
            &BackfillConfig::default(),
        );
        assert!(out.start_now.is_empty());
        let ta = out.reservations[0].1;
        let tb = out.reservations[1].1;
        assert_eq!(ta, SimTime::from_secs(100));
        // B: nodes free at 100, but bandwidth 9+2 > 10 during [100,150) →
        // earliest at 150.
        assert_eq!(tb, SimTime::from_secs(150));
    }

    #[test]
    fn repeated_rounds_reuse_policy_scratch() {
        // The same policy driven over several rounds produces the same
        // decisions each time (the pooled profiles are fully reset).
        let mut p = policy_with(10.0, &[(1, 3.0, 50), (2, 8.0, 50)], 0.0);
        let a = job(1, 1, 100);
        let b = job(2, 1, 100);
        let refs = [&a, &b];
        let first = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        for _ in 0..3 {
            let again = backfill_pass(
                &mut p,
                &[],
                &refs,
                SimTime::ZERO,
                100,
                &BackfillConfig::default(),
            );
            assert_eq!(again, first);
        }
        // take_book returns the installed snapshot and leaves an empty one.
        let book = p.take_book();
        assert_eq!(book.r(JobId(2)), 8.0);
        assert!(p.book().is_empty());
    }

    #[test]
    #[should_panic]
    fn non_positive_limit_panics() {
        IoAwarePolicy::new(IoAwareConfig { limit_bps: 0.0 });
    }
}
