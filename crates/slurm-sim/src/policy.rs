//! The scheduling-policy plugin seam.
//!
//! Slurm's backfill plugin delegates three procedures to the resource
//! model: building the reservation tracker from the current running set,
//! answering "earliest start time" queries, and recording reservations.
//! The paper's Algorithms 2–7 override exactly these three procedures, so
//! the trait boundary here mirrors that seam: [`SchedulingPolicy`] builds
//! a fresh [`ReservationTracker`] each scheduling round, and Algorithm 1
//! ([`crate::backfill::backfill_pass`]) drives the tracker.

use crate::licenses::LicenseRequirements;
use crate::profile::{quanta_down, quanta_up, ResourceProfile};
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
    /// License demands (stock Slurm countable resources; usually empty).
    pub licenses: LicenseRequirements,
}
iosched_simkit::impl_json_struct!(SchedJob {
    id,
    name,
    name_sym,
    nodes,
    limit,
    submit,
    priority,
    after,
    licenses,
});

impl SchedJob {
    /// Convenience constructor for license-free jobs.
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
            licenses: LicenseRequirements::default(),
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
/// limit; this substrate does not enforce kills, so trackers must keep
/// overrunning jobs reserved or the scheduler would double-book their
/// nodes.
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
    /// skip the `earliest_start` fixpoint for queue entries at least as
    /// demanding as one that already failed to start now (sound because
    /// mid-round reservations only *add* usage to every constraining
    /// profile). Policies that cannot guarantee that monotonicity must
    /// keep the default `false`.
    fn demands_at_least(&self, _probe: &SchedJob, _failed: &SchedJob) -> bool {
        false
    }
}

/// A scheduling policy: builds the tracker at the beginning of each
/// scheduling round (`InitializeReservationTracker`).
///
/// The tracker is a *generic associated type* borrowing from the policy:
/// policies own pooled scratch (profiles, license tables) that trackers
/// mutate in place, so a steady-state scheduling round performs no heap
/// allocation. Exactly one tracker can exist per policy at a time — the
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

/// Stock Slurm behaviour: nodes are the only tracked resource (licenses
/// too, when jobs request them). Owns the profile scratch its trackers
/// borrow; reused (not reallocated) across rounds.
#[derive(Clone, Debug, Default)]
pub struct NodePolicy {
    /// Cluster-wide license pools (name → total count). Empty by default.
    pub license_totals: crate::licenses::LicensePools,
    nodes_scratch: ResourceProfile,
    licenses_scratch: Vec<(String, ResourceProfile)>,
}

/// Tracker built by [`NodePolicy`]: a node profile plus one profile per
/// license pool, borrowed from the policy's pooled scratch.
pub struct NodeTracker<'a> {
    nodes: &'a mut ResourceProfile,
    licenses: &'a mut [(String, ResourceProfile)],
}

impl NodePolicy {
    /// Reset the pooled profiles for a new round. License profiles are
    /// reused in place while the pool names are unchanged (the common
    /// case); the name strings are recloned only when `license_totals`
    /// was edited between rounds.
    fn reset_scratch(&mut self, total_nodes: usize) {
        self.nodes_scratch.reset(total_nodes as i64);
        let unchanged = self.licenses_scratch.len() == self.license_totals.len()
            && self
                .licenses_scratch
                .iter()
                .zip(self.license_totals.iter())
                .all(|((have, _), (want, _))| have == want);
        if unchanged {
            for ((_, profile), (_, &total)) in self
                .licenses_scratch
                .iter_mut()
                .zip(self.license_totals.iter())
            {
                profile.reset(quanta_down(total));
            }
        } else {
            self.licenses_scratch.clear();
            self.licenses_scratch.extend(
                self.license_totals
                    .iter()
                    .map(|(name, &total)| (name.clone(), ResourceProfile::new(quanta_down(total)))),
            );
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
        self.reset_scratch(total_nodes);
        let nodes = &mut self.nodes_scratch;
        let licenses = self.licenses_scratch.as_mut_slice();
        // Batched build: stage every running-set delta, then sort and
        // sum once per profile.
        for rv in running {
            let end = rv.reservation_end(now);
            nodes.stage(rv.job.nodes as i64, rv.started, end);
            for (name, profile) in licenses.iter_mut() {
                profile.stage(quanta_up(rv.job.licenses.get(name)), rv.started, end);
            }
        }
        nodes.commit_staged();
        for (_, profile) in licenses.iter_mut() {
            profile.commit_staged();
        }
        NodeTracker { nodes, licenses }
    }
}

impl ReservationTracker for NodeTracker<'_> {
    fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime {
        // Fixpoint over all resource dimensions, mirroring the paper's
        // Algorithm 4 structure generalised to N dimensions: repeat until
        // one full pass leaves `t` unchanged.
        let mut t = t_min;
        loop {
            let start = t;
            t = self.nodes.earliest_fit(t, job.limit, job.nodes as i64);
            for (name, profile) in self.licenses.iter() {
                let amount = quanta_up(job.licenses.get(name));
                if amount > 0 {
                    t = profile.earliest_fit(t, job.limit, amount);
                }
            }
            if t == start || t == SimTime::FAR_FUTURE {
                return t;
            }
        }
    }

    fn reserve(&mut self, job: &SchedJob, start: SimTime) {
        let end = start + job.limit;
        self.nodes.reserve(job.nodes as i64, start, end);
        for (name, profile) in self.licenses.iter_mut() {
            profile.reserve(quanta_up(job.licenses.get(name)), start, end);
        }
    }

    /// `probe` needs at least as many nodes, at least as long a window,
    /// and at least as much of every tracked license pool as `failed` —
    /// so any window admitting `probe` admits `failed`, in this state and
    /// (since node/license reservations are nonnegative) every later one
    /// this round.
    fn demands_at_least(&self, probe: &SchedJob, failed: &SchedJob) -> bool {
        probe.nodes >= failed.nodes
            && probe.limit >= failed.limit
            && self
                .licenses
                .iter()
                .all(|(name, _)| probe.licenses.get(name) >= failed.licenses.get(name))
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

    #[test]
    fn license_tracking_limits_starts() {
        let mut policy = NodePolicy::default();
        policy.license_totals.insert("lustre".into(), 10.0);
        let mut la = job(1, 1, 100);
        la.licenses.set("lustre", 8.0);
        let mut lb = job(2, 1, 100);
        lb.licenses.set("lustre", 5.0);
        let mut tracker = policy.init_tracker(&[], &[], SimTime::ZERO, 15);
        tracker.reserve(&la, SimTime::ZERO);
        // Nodes are plentiful but the license pool forces a delay.
        assert_eq!(
            tracker.earliest_start(&lb, SimTime::ZERO),
            SimTime::from_secs(100)
        );
    }

    #[test]
    fn running_jobs_consume_licenses_too() {
        let mut policy = NodePolicy::default();
        policy.license_totals.insert("lustre".into(), 10.0);
        let mut r = job(1, 1, 60);
        r.licenses.set("lustre", 10.0);
        let running = [RunningView {
            job: &r,
            started: SimTime::ZERO,
        }];
        let mut tracker = policy.init_tracker(&running, &[], SimTime::ZERO, 15);
        let mut q = job(2, 1, 30);
        q.licenses.set("lustre", 1.0);
        assert_eq!(
            tracker.earliest_start(&q, SimTime::ZERO),
            SimTime::from_secs(60)
        );
    }
}
