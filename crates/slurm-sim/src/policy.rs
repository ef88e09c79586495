//! The scheduling-policy plugin seam.
//!
//! Slurm's backfill plugin delegates three procedures to the resource
//! model: building the reservation tracker from the current running set,
//! answering "earliest start time" queries, and recording reservations.
//! The paper's Algorithms 2–7 override exactly these three procedures, so
//! the trait boundary here mirrors that seam: [`SchedulingPolicy`] builds
//! a fresh [`ReservationTracker`] each scheduling round, and Algorithm 1
//! ([`crate::backfill::backfill_pass`]) drives the tracker.

use crate::profile::ResourceProfile;
use iosched_simkit::ids::JobId;
use iosched_simkit::sym::Sym;
use iosched_simkit::time::{SimDuration, SimTime};

/// Scheduler-visible job metadata — what the user provides at submission
/// (paper §II): node count `n_j`, requested runtime limit `L_j`, and a job
/// name that the analytics use to identify "similar jobs". Resource
/// estimates (`r_j`, `d_j`) deliberately do **not** appear here; the whole
/// point of the paper's design is that they come from the analytics
/// services, not the user.
#[derive(Clone, Debug)]
pub struct SchedJob {
    pub id: JobId,
    /// Job (script) name; jobs with equal names are "similar".
    pub name: String,
    /// Interned handle for `name` in the simulation's symbol table
    /// ([`Sym::NONE`] when no analytics are attached). The driver sets
    /// this at submission so the per-completion estimator path never
    /// touches the `String`.
    pub name_sym: Sym,
    /// Nodes required (`n_j`).
    pub nodes: usize,
    /// Requested runtime limit (`L_j`). Reservations always span `L_j`.
    pub limit: SimDuration,
    /// Submission time (`s_j`).
    pub submit: SimTime,
    /// Administrative priority (higher schedules earlier under
    /// [`crate::registry::PriorityPolicy::Priority`]; ties break FIFO).
    pub priority: i64,
    /// Dependencies (Slurm `--dependency=afterok:...`): this job is not
    /// eligible until every listed job has finished.
    pub after: Vec<JobId>,
}

impl SchedJob {
    /// A job of priority 0 with no dependencies and no interned name.
    pub fn new(
        id: JobId,
        name: impl Into<String>,
        nodes: usize,
        limit: SimDuration,
        submit: SimTime,
    ) -> Self {
        SchedJob {
            id,
            name: name.into(),
            name_sym: Sym::NONE,
            nodes,
            limit,
            submit,
            priority: 0,
            after: Vec::new(),
        }
    }

    /// Builder-style priority setter.
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style interned-name setter.
    pub fn with_name_sym(mut self, sym: Sym) -> Self {
        self.name_sym = sym;
        self
    }

    /// Builder-style dependency setter (`afterok` semantics).
    pub fn with_after(mut self, after: Vec<JobId>) -> Self {
        self.after = after;
        self
    }
}

/// A job currently executing, as seen by the scheduler.
#[derive(Clone, Debug)]
pub struct RunningView<'a> {
    pub job: &'a SchedJob,
    /// Actual start time `b_j`.
    pub started: SimTime,
}

/// Grace period a running job that has exceeded its requested limit is
/// still assumed to occupy its resources. Slurm kills such jobs at the
/// limit; this substrate does not kill them unless the driver's
/// `enforce_limits` is set, so trackers must keep overrunning jobs
/// reserved or the scheduler would double-book their nodes.
pub const OVERRUN_GRACE: SimDuration = SimDuration::from_secs(60);

impl RunningView<'_> {
    /// End of this job's reservation window as seen at time `now`:
    /// `b_j + L_j`, or a short grace window once the job has overrun its
    /// limit (the reservation is re-extended each round until the job
    /// actually ends).
    pub fn reservation_end(&self, now: SimTime) -> SimTime {
        let nominal = self.started + self.job.limit;
        if nominal > now {
            nominal
        } else {
            now + OVERRUN_GRACE
        }
    }
}

/// The per-round reservation tracker: answers `EarliestStartTime` and
/// records `ReserveResources` (paper Algorithm 1, lines 5, 8, 13).
pub trait ReservationTracker {
    /// Earliest time `t ≥ t_min` at which all resources required by `job`
    /// are simultaneously available for the window `[t, t + L_j)`.
    fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime;

    /// Record a reservation for `job` starting at `start` (for `L_j`).
    fn reserve(&mut self, job: &SchedJob, start: SimTime);

    /// Conservative resource-dominance test: `true` only if, under the
    /// current tracker state and any state reachable by further
    /// [`Self::reserve`] calls this round, every window that admits
    /// `probe` would also admit `failed`. The backfill pass uses this to
    /// skip the `earliest_start` probe for queue entries at least as
    /// demanding as one that already failed to start now (sound because
    /// mid-round reservations only *add* usage to every constraining
    /// profile). Policies that cannot guarantee that monotonicity must
    /// keep the default `false`.
    fn demands_at_least(&self, _probe: &SchedJob, _failed: &SchedJob) -> bool {
        false
    }

    /// Necessary condition for `earliest_start(job, now) == now`, where
    /// `now` is the round's time: `false` only if `job` provably cannot
    /// start at `now` in this state or any state later [`Self::reserve`]
    /// calls reach this round. Free capacity at `now` only falls within a
    /// round (a start at `now` takes some, a reservation at `t > now`
    /// leaves it alone), so a `false` stays `false`, and the backfill
    /// pass uses that to end its walk once it has started a job and no
    /// remaining entry may start now. Answered from scalar counters, in
    /// O(1) per tracked resource. The default `true` never ends a walk.
    fn may_start_now(&self, _job: &SchedJob) -> bool {
        true
    }
}

/// A scheduling policy: builds the tracker at the beginning of each
/// scheduling round (`InitializeReservationTracker`).
///
/// The tracker is a *generic associated type* borrowing from the policy:
/// policies own pooled scratch (profiles) that trackers mutate in place,
/// so a steady-state scheduling round performs no heap allocation. Exactly one tracker can exist per policy at a time — the
/// same discipline Slurm's backfill plugin imposes per scheduling round.
pub trait SchedulingPolicy {
    /// Tracker type produced each round, borrowing the policy's scratch.
    type Tracker<'a>: ReservationTracker
    where
        Self: 'a;

    /// Build the round's tracker from the running set and the wait queue.
    /// `queue` is in priority order. `total_nodes` is the cluster size `N`.
    fn init_tracker<'a>(
        &'a mut self,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> Self::Tracker<'a>;
}

/// Most columns a tracker's profile carries: the nodes, then the
/// Lustre-throughput (LT) and adjusted-throughput (AT) columns a policy
/// layered on top may add ([`NodePolicy::init_tracker_with`]).
const MAX_COLS: usize = 3;

/// Stock Slurm behaviour: nodes are the only tracked resource. Owns the
/// profile its trackers borrow, reused (not reallocated) across rounds:
/// column 0 holds the nodes, then whatever columns a policy layered on
/// top adds ([`NodePolicy::init_tracker_with`]).
#[derive(Clone, Debug, Default)]
pub struct NodePolicy {
    profile: ResourceProfile,
}

/// Tracker built by [`NodePolicy`]: its profile, with a node column and
/// any layered columns after it, borrowed from the policy's pooled
/// scratch.
pub struct NodeTracker<'a> {
    profile: &'a mut ResourceProfile,
    /// The cluster size `N`: the node column's capacity.
    total_nodes: i64,
    /// The round's time.
    now: SimTime,
    /// Nodes free at `now`: the node column's headroom there, kept exact
    /// by [`ReservationTracker::reserve`].
    free_nodes_now: i64,
}

/// Nodes the running set leaves free at `now`, out of `total_nodes`:
/// exactly the headroom at `now` of the node column
/// [`NodePolicy::init_tracker`] builds, since a running job's reservation
/// window `[started, reservation_end(now))` covers `now` exactly when it
/// started by `now`. Negative when the running set overcommits the
/// machine.
pub fn free_nodes_at(running: &[RunningView<'_>], now: SimTime, total_nodes: usize) -> i64 {
    let used: i64 = running
        .iter()
        .filter(|rv| rv.started <= now)
        .map(|rv| rv.job.nodes as i64)
        .sum();
    total_nodes as i64 - used
}

impl NodePolicy {
    /// Build the round's tracker with `extra_cols` (at most two) more
    /// columns after the node column. `stage_extra(profile, first)`
    /// stages the running set's usage of those columns, `first` being the
    /// index of the first of them; the profile then commits every column
    /// at once. The layered policy passes its columns' thresholds and
    /// amounts to [`NodeTracker::earliest_start_with`] and
    /// [`NodeTracker::reserve_with`].
    pub fn init_tracker_with<'a>(
        &'a mut self,
        running: &[RunningView<'_>],
        now: SimTime,
        total_nodes: usize,
        extra_cols: usize,
        stage_extra: impl FnOnce(&mut ResourceProfile, usize),
    ) -> NodeTracker<'a> {
        assert!(
            extra_cols < MAX_COLS,
            "a tracker has at most {MAX_COLS} columns"
        );
        let profile = &mut self.profile;
        profile.reset(1 + extra_cols);
        // Batched build: stage every running-set delta of every column,
        // then sort and merge once.
        for rv in running {
            profile.stage(0, rv.job.nodes as i64, rv.started, rv.reservation_end(now));
        }
        stage_extra(profile, 1);
        profile.commit_staged();
        NodeTracker {
            profile,
            total_nodes: total_nodes as i64,
            now,
            free_nodes_now: free_nodes_at(running, now, total_nodes),
        }
    }
}

impl SchedulingPolicy for NodePolicy {
    type Tracker<'a> = NodeTracker<'a>;

    fn init_tracker<'a>(
        &'a mut self,
        running: &[RunningView<'_>],
        _queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> NodeTracker<'a> {
        self.init_tracker_with(running, now, total_nodes, 0, |_, _| {})
    }
}

impl NodeTracker<'_> {
    /// [`ReservationTracker::earliest_start`] with `extra` thresholds
    /// for the layered columns: one forward scan that checks every
    /// column at each entry. The node column gates every job, even one
    /// of 0 nodes.
    pub fn earliest_start_with(&self, job: &SchedJob, t_min: SimTime, extra: &[i64]) -> SimTime {
        let mut row = [0; MAX_COLS];
        row[0] = self.total_nodes - job.nodes as i64;
        row[1..=extra.len()].copy_from_slice(extra);
        self.profile
            .earliest_at_most(t_min, job.limit, &row[..=extra.len()])
    }

    /// [`ReservationTracker::reserve`] with `extra` amounts for the
    /// layered columns.
    pub fn reserve_with(&mut self, job: &SchedJob, start: SimTime, extra: &[i64]) {
        let end = start + job.limit;
        // The profile ignores an empty window, so the counter does too.
        if start == self.now && end > start {
            self.free_nodes_now -= job.nodes as i64;
        }
        let mut row = [0; MAX_COLS];
        row[0] = job.nodes as i64;
        row[1..=extra.len()].copy_from_slice(extra);
        self.profile.reserve(&row[..=extra.len()], start, end);
    }
}

impl ReservationTracker for NodeTracker<'_> {
    fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime {
        self.earliest_start_with(job, t_min, &[])
    }

    fn reserve(&mut self, job: &SchedJob, start: SimTime) {
        self.reserve_with(job, start, &[]);
    }

    /// `probe` needs at least as many nodes and at least as long a window
    /// as `failed` — so any window admitting `probe` admits `failed`, in
    /// this state and (since node reservations are nonnegative) every
    /// later one this round.
    fn demands_at_least(&self, probe: &SchedJob, failed: &SchedJob) -> bool {
        probe.nodes >= failed.nodes && probe.limit >= failed.limit
    }

    /// The job's nodes against the nodes free at `now`.
    fn may_start_now(&self, job: &SchedJob) -> bool {
        job.nodes as i64 <= self.free_nodes_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, nodes: usize, limit_s: u64) -> SchedJob {
        SchedJob::new(
            JobId(id),
            format!("j{id}"),
            nodes,
            SimDuration::from_secs(limit_s),
            SimTime::ZERO,
        )
    }

    #[test]
    fn node_tracker_respects_running_jobs() {
        let mut policy = NodePolicy::default();
        let r1 = job(1, 10, 100);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let mut tracker = policy.init_tracker(&running, &[], SimTime::ZERO, 15);
        // 5 nodes free now; a 5-node job fits immediately, 6-node waits.
        let j5 = job(2, 5, 50);
        let j6 = job(3, 6, 50);
        assert_eq!(tracker.earliest_start(&j5, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(
            tracker.earliest_start(&j6, SimTime::ZERO),
            SimTime::from_secs(100)
        );
    }

    #[test]
    fn reservations_stack() {
        let mut policy = NodePolicy::default();
        let mut tracker = policy.init_tracker(&[], &[], SimTime::ZERO, 10);
        let a = job(1, 6, 100);
        let b = job(2, 6, 100);
        tracker.reserve(&a, SimTime::ZERO);
        // b cannot overlap a.
        assert_eq!(
            tracker.earliest_start(&b, SimTime::ZERO),
            SimTime::from_secs(100)
        );
        tracker.reserve(&b, SimTime::from_secs(100));
        let c = job(3, 4, 10);
        // c (4 nodes) fits alongside either.
        assert_eq!(tracker.earliest_start(&c, SimTime::ZERO), SimTime::ZERO);
    }
}
