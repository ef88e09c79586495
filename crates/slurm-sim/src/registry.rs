//! Job lifecycle bookkeeping (the `slurmctld` job table).
//!
//! The registry owns every submitted job's metadata and state, provides
//! the priority-ordered wait queue and running views the backfill pass
//! consumes, and records each job's submit, start and end times (`s_j`,
//! `b_j`, `c_j`) in its state until the job is retired.

use crate::policy::{RunningView, SchedJob};
use iosched_simkit::ids::JobId;
use iosched_simkit::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

thread_local! {
    /// Mutations applied to the two policy-keyed pending indexes on this
    /// thread (inserts + removes; the FIFO set predates the indexes and
    /// is not counted). Deterministic: a pure function of the workload's
    /// submit/start history.
    static INDEX_OPS: Cell<u64> = const { Cell::new(0) };
    /// Index entries examined by ordered wait-queue walks on this thread
    /// (eligible and skipped alike) — the top-k work counter behind the
    /// `queue_prep` bench's `walk_steps/*` entries.
    static WALK_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Read and reset this thread's queue-preparation counters:
/// `(index maintenance ops, ordered-walk steps)`.
pub fn take_queue_prep_counters() -> (u64, u64) {
    (
        INDEX_OPS.with(|c| c.replace(0)),
        WALK_STEPS.with(|c| c.replace(0)),
    )
}

/// How the wait queue is ordered before the backfill pass (Algorithm 1,
/// line 2: "Sort waiting jobs").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PriorityPolicy {
    /// First-come-first-served: submission time, then id (Slurm's default
    /// when no priority plugin reorders jobs; what the paper's
    /// experiments use).
    #[default]
    Fifo,
    /// Administrative priority (higher first), ties FIFO — Slurm's
    /// multifactor-priority shape.
    Priority,
    /// Shortest requested limit first, ties FIFO — an SJF-style policy
    /// useful for backfill studies.
    ShortestLimitFirst,
}
iosched_simkit::impl_json_enum!(PriorityPolicy {
    Fifo,
    Priority,
    ShortestLimitFirst
});

/// Lifecycle state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Executing since `started`.
    Running { started: SimTime },
    /// Finished normally.
    Completed { started: SimTime, ended: SimTime },
    /// Killed at its runtime limit (Slurm `TIMEOUT`).
    TimedOut { started: SimTime, ended: SimTime },
}

#[derive(Clone, Debug)]
struct Entry {
    meta: SchedJob,
    state: JobState,
}

/// The job table.
///
/// Besides the id-keyed table, the registry maintains incremental
/// pending/running state sets and a finished counter so the per-pass
/// queries (`wait_queue_ids_limited_into`, `running_views`, `all_completed`,
/// `overrunning`, `next_limit_expiry`) touch only the jobs in the
/// relevant state instead of scanning the whole table. Both sets are
/// ordered: `pending` by `(submit, id)` — the FIFO key — so the default
/// wait queue needs no sort and `next_submission_after` is a single
/// `O(log n)` range probe per event-loop iteration instead of an
/// `O(pending)` scan; `running` by id, the order every running-set
/// consumer wants. Results are identical to the old full scans.
///
/// Alongside the FIFO set, two **policy-keyed ordered indexes** mirror
/// the pending membership under the non-FIFO sort keys —
/// `(Reverse(priority), submit, id)` and `(limit, submit, id)` — updated
/// in `O(log n)` at the only two pending-membership transitions
/// ([`Self::submit`] and [`Self::mark_started`]). Queue preparation
/// under any policy is then an ordered walk over the matching index
/// (a true top-k for depth-limited queries) instead of a per-round
/// collect-and-sort; the sort path is kept as
/// [`Self::wait_queue_ids_sorted_into`], the oracle the walks are
/// debug-asserted and property-pinned against. Every sort key ends in
/// the unique job id, so each index is a total order and the walk
/// reproduces the sorted output exactly.
#[derive(Clone, Debug, Default)]
pub struct JobRegistry {
    jobs: BTreeMap<JobId, Entry>,
    /// Ids currently `Pending`, keyed by `(submit, id)` (FIFO order).
    pending: BTreeSet<(SimTime, JobId)>,
    /// Pending membership under the `Priority` policy's sort key.
    pending_prio: BTreeSet<(Reverse<i64>, SimTime, JobId)>,
    /// Pending membership under the `ShortestLimitFirst` sort key.
    pending_limit: BTreeSet<(SimDuration, SimTime, JobId)>,
    /// Ids currently `Running`, in id order.
    running: BTreeSet<JobId>,
    /// Count of `Completed` + `TimedOut` jobs.
    finished: usize,
}

impl JobRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a job in `Pending` state.
    ///
    /// # Panics
    /// Panics on duplicate submission.
    pub fn submit(&mut self, meta: SchedJob) {
        let id = meta.id;
        let submit = meta.submit;
        let priority = meta.priority;
        let limit = meta.limit;
        let prev = self.jobs.insert(
            id,
            Entry {
                meta,
                state: JobState::Pending,
            },
        );
        assert!(prev.is_none(), "duplicate submission of {id}");
        self.pending.insert((submit, id));
        self.pending_prio.insert((Reverse(priority), submit, id));
        self.pending_limit.insert((limit, submit, id));
        INDEX_OPS.with(|c| c.set(c.get() + 2));
    }

    /// Number of submitted jobs (any state).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs were submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Job metadata.
    pub fn meta(&self, id: JobId) -> Option<&SchedJob> {
        self.jobs.get(&id).map(|e| &e.meta)
    }

    /// Job state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.jobs.get(&id).map(|e| e.state)
    }

    /// Transition a pending job to running at `t`.
    pub fn mark_started(&mut self, id: JobId, t: SimTime) {
        let e = self
            .jobs
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown {id}"));
        assert_eq!(e.state, JobState::Pending, "{id} is not pending");
        e.state = JobState::Running { started: t };
        let submit = e.meta.submit;
        let priority = e.meta.priority;
        let limit = e.meta.limit;
        assert!(
            self.pending.remove(&(submit, id)),
            "{id} missing from pending set"
        );
        assert!(
            self.pending_prio.remove(&(Reverse(priority), submit, id)),
            "{id} missing from priority index"
        );
        assert!(
            self.pending_limit.remove(&(limit, submit, id)),
            "{id} missing from limit index"
        );
        INDEX_OPS.with(|c| c.set(c.get() + 2));
        self.running.insert(id);
    }

    /// Transition a running job to completed at `t`.
    pub fn mark_completed(&mut self, id: JobId, t: SimTime) {
        let e = self
            .jobs
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown {id}"));
        match e.state {
            JobState::Running { started } => {
                e.state = JobState::Completed { started, ended: t };
            }
            other => panic!("{id} is not running (state {other:?})"),
        }
        assert!(self.running.remove(&id), "{id} missing from running set");
        self.finished += 1;
    }

    /// Transition a running job to timed-out (killed at its limit) at `t`.
    pub fn mark_timed_out(&mut self, id: JobId, t: SimTime) {
        let e = self
            .jobs
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown {id}"));
        match e.state {
            JobState::Running { started } => {
                e.state = JobState::TimedOut { started, ended: t };
            }
            other => panic!("{id} is not running (state {other:?})"),
        }
        assert!(self.running.remove(&id), "{id} missing from running set");
        self.finished += 1;
    }

    /// Pending ids with `submit <= now` and dependencies met, in FIFO
    /// (`(submit, id)`) order — the natural order of the pending set, so
    /// this is a prefix range, not a scan over all pending jobs.
    fn eligible(&self, now: SimTime) -> impl Iterator<Item = JobId> + '_ {
        self.pending
            .range(..=(now, JobId(u64::MAX)))
            .map(|&(_, id)| id)
            .filter(move |id| self.dependencies_met(&self.jobs[id].meta))
    }

    /// The first `limit` pending jobs submitted at or before `now` with
    /// dependencies met, ordered by `policy`, into a caller-owned buffer
    /// (cleared first) — a true top-k. The reusable buffer keeps the
    /// steady-state scheduling pass allocation-free; `usize::MAX` asks
    /// for the whole wait queue.
    ///
    /// Every policy walks its ordered pending index in key order and
    /// stops after `limit` eligible jobs: `O(limit)` index entries
    /// examined plus whatever ineligible entries (future submits,
    /// unmet dependencies) are interleaved ahead of the k-th eligible
    /// one — in the steady deep-queue state (streaming replay with a
    /// full admission window, where nearly every resident job is
    /// eligible) that is `O(limit)` total, replacing the non-FIFO
    /// policies' previous `O(W log W)` sort-then-truncate over the
    /// whole resident window. In debug builds every walk is asserted
    /// identical to [`Self::wait_queue_ids_sorted_into`] truncated.
    pub fn wait_queue_ids_limited_into(
        &self,
        now: SimTime,
        policy: PriorityPolicy,
        limit: usize,
        out: &mut Vec<JobId>,
    ) {
        out.clear();
        let mut steps = 0u64;
        if limit > 0 {
            // For FIFO the index's leading key is `submit`, so the
            // eligible-by-time entries are exactly a prefix range; the
            // non-FIFO keys interleave future submits and the walk skips
            // them. Dependency-blocked jobs are skipped under any policy.
            match policy {
                PriorityPolicy::Fifo => {
                    for &(_, id) in self.pending.range(..=(now, JobId(u64::MAX))) {
                        steps += 1;
                        if self.dependencies_met(&self.jobs[&id].meta) {
                            out.push(id);
                            if out.len() >= limit {
                                break;
                            }
                        }
                    }
                }
                PriorityPolicy::Priority => {
                    for &(_, submit, id) in &self.pending_prio {
                        steps += 1;
                        if submit <= now && self.dependencies_met(&self.jobs[&id].meta) {
                            out.push(id);
                            if out.len() >= limit {
                                break;
                            }
                        }
                    }
                }
                PriorityPolicy::ShortestLimitFirst => {
                    for &(_, submit, id) in &self.pending_limit {
                        steps += 1;
                        if submit <= now && self.dependencies_met(&self.jobs[&id].meta) {
                            out.push(id);
                            if out.len() >= limit {
                                break;
                            }
                        }
                    }
                }
            }
        }
        WALK_STEPS.with(|c| c.set(c.get() + steps));
        #[cfg(debug_assertions)]
        self.assert_walk_matches_sort_oracle(now, policy, limit, out);
    }

    /// Reference queue preparation: collect the eligible set and sort it
    /// under `policy` — the pre-index implementation, kept as the oracle
    /// the ordered-index walks are debug-asserted and property-pinned
    /// against (and as the baseline the `queue_prep` bench compares the
    /// walk to). FIFO needs no sort: the pending set is already
    /// `(submit, id)` ordered. Every other sort key ends in the unique
    /// job id (a total order), so the unstable sort is deterministic.
    pub fn wait_queue_ids_sorted_into(
        &self,
        now: SimTime,
        policy: PriorityPolicy,
        out: &mut Vec<JobId>,
    ) {
        out.clear();
        out.extend(self.eligible(now));
        let meta = |id: &JobId| &self.jobs[id].meta;
        match policy {
            PriorityPolicy::Fifo => {} // already (submit, id)-ordered
            PriorityPolicy::Priority => out.sort_unstable_by_key(|id| {
                (std::cmp::Reverse(meta(id).priority), meta(id).submit, *id)
            }),
            PriorityPolicy::ShortestLimitFirst => {
                out.sort_unstable_by_key(|id| (meta(id).limit, meta(id).submit, *id))
            }
        }
    }

    /// Debug oracle: an index walk must equal the sorted eligible set
    /// truncated to `limit`. Scratch lives in a thread-local with
    /// retained capacity so debug builds stay allocation-free in steady
    /// state (the counting-allocator tests run the oracle too).
    #[cfg(debug_assertions)]
    fn assert_walk_matches_sort_oracle(
        &self,
        now: SimTime,
        policy: PriorityPolicy,
        limit: usize,
        got: &[JobId],
    ) {
        thread_local! {
            static ORACLE: std::cell::RefCell<Vec<JobId>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        ORACLE.with(|cell| {
            let mut oracle = cell.borrow_mut();
            self.wait_queue_ids_sorted_into(now, policy, &mut oracle);
            oracle.truncate(limit);
            debug_assert_eq!(
                &oracle[..],
                got,
                "ordered-index walk diverged from the sort oracle \
                 (now {now}, policy {policy:?}, limit {limit})"
            );
        });
    }

    /// True when every dependency of `job` has finished (`afterok`
    /// semantics: completed or timed out). Unknown job ids never satisfy
    /// — a dangling dependency holds the job forever, as in Slurm.
    pub fn dependencies_met(&self, job: &SchedJob) -> bool {
        job.after.iter().all(|dep| {
            matches!(
                self.jobs.get(dep).map(|e| &e.state),
                Some(JobState::Completed { .. }) | Some(JobState::TimedOut { .. })
            )
        })
    }

    /// Views of the currently running jobs, in id order.
    pub fn running_views(&self) -> Vec<RunningView<'_>> {
        // The running set iterates in id order already — no sort needed.
        self.running
            .iter()
            .map(|id| {
                let e = &self.jobs[id];
                let JobState::Running { started } = e.state else {
                    unreachable!("{id} listed running but is {:?}", e.state)
                };
                RunningView {
                    job: &e.meta,
                    started,
                }
            })
            .collect()
    }

    /// Running `(id, started)` pairs in id order, into a caller-owned
    /// buffer (cleared first).
    pub fn running_ids_into(&self, out: &mut Vec<(JobId, SimTime)>) {
        out.clear();
        out.extend(self.running.iter().map(|id| {
            let JobState::Running { started } = self.jobs[id].state else {
                unreachable!("{id} listed running")
            };
            (*id, started)
        }));
    }

    /// Earliest future submission strictly after `now` (for event-driven
    /// drivers with staggered arrivals).
    ///
    /// A single range probe into the `(submit, id)`-ordered pending set:
    /// the first entry strictly past `(now, JobId::MAX)` is the earliest
    /// pending submission with `submit > now`. Event-driven drivers call
    /// this every loop iteration, so it must not scan.
    pub fn next_submission_after(&self, now: SimTime) -> Option<SimTime> {
        self.pending
            .range((Excluded((now, JobId(u64::MAX))), Unbounded))
            .next()
            .map(|&(submit, _)| submit)
    }

    /// True when every job has finished (completed or timed out).
    pub fn all_completed(&self) -> bool {
        self.finished == self.jobs.len()
    }

    /// Remove a finished job's entry entirely, returning its final state.
    ///
    /// Event-driven drivers evict jobs as they finish so the table stays
    /// bounded by the admission window instead of growing with the trace.
    /// Only `Completed`/`TimedOut` jobs may be retired — a retired id is
    /// gone without a trace, so a dependency on it would dangle forever
    /// (drivers must keep a job until no unfinished job names it in
    /// `after`).
    ///
    /// # Panics
    /// Panics if the job is unknown or not finished.
    pub fn retire(&mut self, id: JobId) -> JobState {
        let e = self.jobs.get(&id).unwrap_or_else(|| panic!("unknown {id}"));
        assert!(
            matches!(
                e.state,
                JobState::Completed { .. } | JobState::TimedOut { .. }
            ),
            "{id} is not finished (state {:?})",
            e.state
        );
        let e = self.jobs.remove(&id).expect("checked above");
        self.finished -= 1;
        e.state
    }

    /// Running jobs whose limit expires at or before `t`, with their
    /// start times (candidates for limit enforcement), in id order.
    pub fn overrunning(&self, t: SimTime) -> Vec<(JobId, SimTime)> {
        // Id-ordered because the running set is.
        self.running
            .iter()
            .filter_map(|id| {
                let e = &self.jobs[id];
                match e.state {
                    JobState::Running { started } if started + e.meta.limit <= t => {
                        Some((*id, started))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// Earliest future limit expiry among running jobs.
    pub fn next_limit_expiry(&self) -> Option<SimTime> {
        self.running
            .iter()
            .filter_map(|id| {
                let e = &self.jobs[id];
                match e.state {
                    JobState::Running { started } => Some(started + e.meta.limit),
                    _ => None,
                }
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, submit_s: u64) -> SchedJob {
        SchedJob::new(
            JobId(id),
            "test",
            1,
            SimDuration::from_secs(100),
            SimTime::from_secs(submit_s),
        )
    }

    /// The whole wait queue at `now` under `policy`.
    fn queue(reg: &JobRegistry, now: SimTime, policy: PriorityPolicy) -> Vec<JobId> {
        let mut ids = Vec::new();
        reg.wait_queue_ids_limited_into(now, policy, usize::MAX, &mut ids);
        ids
    }

    #[test]
    fn lifecycle_records_start_and_end_times() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.submit(job(2, 10));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.state(JobId(1)), Some(JobState::Pending));

        reg.mark_started(JobId(1), SimTime::from_secs(5));
        reg.mark_completed(JobId(1), SimTime::from_secs(65));
        reg.mark_started(JobId(2), SimTime::from_secs(20));
        assert!(!reg.all_completed());
        reg.mark_completed(JobId(2), SimTime::from_secs(80));
        assert!(reg.all_completed());
        assert_eq!(
            reg.state(JobId(1)),
            Some(JobState::Completed {
                started: SimTime::from_secs(5),
                ended: SimTime::from_secs(65)
            })
        );
        assert_eq!(
            reg.state(JobId(2)),
            Some(JobState::Completed {
                started: SimTime::from_secs(20),
                ended: SimTime::from_secs(80)
            })
        );
    }

    #[test]
    fn wait_queue_is_fifo_and_respects_arrival() {
        let mut reg = JobRegistry::new();
        reg.submit(job(3, 10));
        reg.submit(job(1, 0));
        reg.submit(job(2, 0));
        let q0 = queue(&reg, SimTime::ZERO, PriorityPolicy::Fifo);
        assert_eq!(q0, vec![JobId(1), JobId(2)]);
        let q10 = queue(&reg, SimTime::from_secs(10), PriorityPolicy::Fifo);
        assert_eq!(q10, vec![JobId(1), JobId(2), JobId(3)]);
        assert_eq!(
            reg.next_submission_after(SimTime::ZERO),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(reg.next_submission_after(SimTime::from_secs(10)), None);
    }

    #[test]
    fn priority_policies_reorder_the_queue() {
        let mut reg = JobRegistry::new();
        let mut a = job(1, 0); // limit 100
        a.priority = 5;
        let mut b = job(2, 0);
        b.limit = SimDuration::from_secs(10);
        b.priority = 1;
        let mut c = job(3, 0);
        c.limit = SimDuration::from_secs(50);
        c.priority = 9;
        reg.submit(a);
        reg.submit(b);
        reg.submit(c);
        let ids = |policy| {
            queue(&reg, SimTime::ZERO, policy)
                .iter()
                .map(|id| id.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(PriorityPolicy::Fifo), vec![1, 2, 3]);
        assert_eq!(ids(PriorityPolicy::Priority), vec![3, 1, 2]);
        assert_eq!(ids(PriorityPolicy::ShortestLimitFirst), vec![2, 3, 1]);
    }

    #[test]
    fn limited_walk_skips_ineligible_entries_without_consuming_depth() {
        // Under the non-FIFO indexes, ineligible entries (future submits,
        // unmet dependencies) interleave with eligible ones in key order;
        // a depth-limited walk must skip them without counting them
        // toward the limit — the top-k is over *eligible* jobs.
        let mut reg = JobRegistry::new();
        let mut future = job(1, 50); // highest priority but not yet submitted
        future.priority = 100;
        let mut blocked = job(2, 0); // next priority but dependency-blocked
        blocked.priority = 50;
        let blocked = blocked.with_after(vec![JobId(9)]);
        let mut ready = job(3, 0);
        ready.priority = 1;
        reg.submit(future);
        reg.submit(blocked);
        reg.submit(ready);

        let mut got = Vec::new();
        reg.wait_queue_ids_limited_into(SimTime::ZERO, PriorityPolicy::Priority, 1, &mut got);
        assert_eq!(got, vec![JobId(3)]);

        // Same shape under ShortestLimitFirst: the shortest job is in the
        // future, the next-shortest is blocked.
        let mut reg = JobRegistry::new();
        let mut future = job(1, 50);
        future.limit = SimDuration::from_secs(1);
        let mut blocked = job(2, 0);
        blocked.limit = SimDuration::from_secs(2);
        let blocked = blocked.with_after(vec![JobId(9)]);
        reg.submit(future);
        reg.submit(blocked);
        reg.submit(job(3, 0)); // limit 100
        let mut got = Vec::new();
        reg.wait_queue_ids_limited_into(
            SimTime::ZERO,
            PriorityPolicy::ShortestLimitFirst,
            1,
            &mut got,
        );
        assert_eq!(got, vec![JobId(3)]);
    }

    #[test]
    fn limited_walk_equals_sorted_then_truncated() {
        // Regression for the pre-index behavior: the depth-limited query
        // under every policy must equal the full sorted queue truncated.
        let mut reg = JobRegistry::new();
        for i in 0..20u64 {
            let mut j = job(i, i % 3);
            j.priority = (i % 5) as i64;
            j.limit = SimDuration::from_secs(10 + (i % 4) * 30);
            reg.submit(j);
        }
        reg.mark_started(JobId(4), SimTime::from_secs(3));
        reg.mark_started(JobId(11), SimTime::from_secs(3));
        let now = SimTime::from_secs(2);
        for policy in [
            PriorityPolicy::Fifo,
            PriorityPolicy::Priority,
            PriorityPolicy::ShortestLimitFirst,
        ] {
            for limit in [0usize, 1, 3, 7, 100] {
                let mut expect = Vec::new();
                reg.wait_queue_ids_sorted_into(now, policy, &mut expect);
                expect.truncate(limit);
                let mut got = Vec::new();
                reg.wait_queue_ids_limited_into(now, policy, limit, &mut got);
                assert_eq!(got, expect, "policy {policy:?}, limit {limit}");
            }
        }
    }

    #[test]
    fn running_views_reflect_started_jobs() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.submit(job(2, 0));
        reg.mark_started(JobId(2), SimTime::from_secs(3));
        let views = reg.running_views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].job.id, JobId(2));
        assert_eq!(views[0].started, SimTime::from_secs(3));
    }

    #[test]
    fn dependencies_gate_queue_eligibility() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.submit(job(2, 0).with_after(vec![JobId(1)]));
        reg.submit(job(3, 0).with_after(vec![JobId(1), JobId(2)]));
        let ids = |reg: &JobRegistry| {
            queue(reg, SimTime::ZERO, PriorityPolicy::Fifo)
                .iter()
                .map(|id| id.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&reg), vec![1]);
        reg.mark_started(JobId(1), SimTime::ZERO);
        assert_eq!(ids(&reg), Vec::<u64>::new());
        reg.mark_completed(JobId(1), SimTime::from_secs(10));
        assert_eq!(ids(&reg), vec![2]);
        // Timed-out dependencies also satisfy (afterany-style leniency,
        // matching this substrate's single dependency kind).
        reg.mark_started(JobId(2), SimTime::from_secs(10));
        reg.mark_timed_out(JobId(2), SimTime::from_secs(20));
        assert_eq!(ids(&reg), vec![3]);
    }

    #[test]
    fn dangling_dependency_never_satisfies() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0).with_after(vec![JobId(99)]));
        assert!(queue(&reg, SimTime::from_secs(1000), PriorityPolicy::Fifo).is_empty());
    }

    #[test]
    fn timed_out_jobs_count_as_finished() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.mark_started(JobId(1), SimTime::from_secs(10));
        // Limit is 100 s → expiry at 110.
        assert_eq!(reg.next_limit_expiry(), Some(SimTime::from_secs(110)));
        assert!(reg.overrunning(SimTime::from_secs(109)).is_empty());
        assert_eq!(
            reg.overrunning(SimTime::from_secs(110)),
            vec![(JobId(1), SimTime::from_secs(10))]
        );
        reg.mark_timed_out(JobId(1), SimTime::from_secs(110));
        assert!(reg.all_completed());
        assert_eq!(
            reg.state(JobId(1)),
            Some(JobState::TimedOut {
                started: SimTime::from_secs(10),
                ended: SimTime::from_secs(110)
            })
        );
        assert_eq!(reg.next_limit_expiry(), None);
    }

    #[test]
    fn retire_evicts_finished_jobs_and_keeps_counters_consistent() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.submit(job(2, 0));
        reg.mark_started(JobId(1), SimTime::from_secs(5));
        reg.mark_completed(JobId(1), SimTime::from_secs(15));
        assert_eq!(reg.len(), 2);
        let state = reg.retire(JobId(1));
        assert!(matches!(state, JobState::Completed { .. }));
        assert_eq!(reg.len(), 1);
        assert!(reg.meta(JobId(1)).is_none());
        // The remaining pending job keeps the registry un-completed.
        assert!(!reg.all_completed());
        reg.mark_started(JobId(2), SimTime::from_secs(20));
        reg.mark_timed_out(JobId(2), SimTime::from_secs(120));
        assert!(reg.all_completed());
        reg.retire(JobId(2));
        // Fully drained: empty registry counts as all-completed.
        assert!(reg.is_empty());
        assert!(reg.all_completed());
    }

    #[test]
    #[should_panic]
    fn retiring_a_running_job_panics() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.mark_started(JobId(1), SimTime::ZERO);
        reg.retire(JobId(1));
    }

    #[test]
    #[should_panic]
    fn timing_out_a_pending_job_panics() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.mark_timed_out(JobId(1), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic]
    fn duplicate_submit_panics() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.submit(job(1, 0));
    }

    #[test]
    #[should_panic]
    fn completing_pending_job_panics() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        reg.mark_completed(JobId(1), SimTime::from_secs(1));
    }

    use iosched_simkit::{prop, prop_assert_eq, props};

    props! {
        #![cases(64)]

        /// The incremental pending/running lists and finished counter
        /// agree with a full state scan after any lifecycle history.
        fn incremental_state_sets_match_full_scan(
            submits in prop::vec(0u64..20, 1..20),
            ops in prop::vec((0u64..3, 0u64..32), 0..48),
            probe in 0u64..40,
            limit in 0u64..6,
        ) {
            let mut reg = JobRegistry::new();
            for (i, &s) in submits.iter().enumerate() {
                reg.submit(job(i as u64, s));
            }
            let n = submits.len() as u64;
            let mut clock = 20u64;
            for &(kind, pick) in &ops {
                let id = JobId(pick % n);
                clock += 1;
                let t = SimTime::from_secs(clock);
                match (kind, reg.state(id)) {
                    (0, Some(JobState::Pending)) => reg.mark_started(id, t),
                    (1, Some(JobState::Running { .. })) => reg.mark_completed(id, t),
                    (2, Some(JobState::Running { .. })) => reg.mark_timed_out(id, t),
                    _ => {}
                }
            }
            let now = SimTime::from_secs(probe);
            let all = || (0..n).map(JobId);

            // Wait queue vs a full-scan oracle.
            let mut expect: Vec<JobId> = all()
                .filter(|&id| {
                    reg.state(id) == Some(JobState::Pending)
                        && reg.meta(id).unwrap().submit <= now
                })
                .collect();
            expect.sort_by_key(|&id| (reg.meta(id).unwrap().submit, id));
            let got = queue(&reg, now, PriorityPolicy::Fifo);
            prop_assert_eq!(&got, &expect);

            // Depth-limited query == full query truncated, every policy.
            for &policy in &[
                PriorityPolicy::Fifo,
                PriorityPolicy::Priority,
                PriorityPolicy::ShortestLimitFirst,
            ] {
                let mut full = queue(&reg, now, policy);
                full.truncate(limit as usize);
                let mut limited = Vec::new();
                reg.wait_queue_ids_limited_into(now, policy, limit as usize, &mut limited);
                prop_assert_eq!(&limited, &full);
            }

            // Running set (both APIs), id-ordered.
            let expect_running: Vec<JobId> = all()
                .filter(|&id| matches!(reg.state(id), Some(JobState::Running { .. })))
                .collect();
            let got_running: Vec<JobId> =
                reg.running_views().iter().map(|rv| rv.job.id).collect();
            prop_assert_eq!(&got_running, &expect_running);
            let mut rbuf = Vec::new();
            reg.running_ids_into(&mut rbuf);
            let rids: Vec<JobId> = rbuf.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(&rids, &expect_running);

            // Scalar queries.
            prop_assert_eq!(
                reg.all_completed(),
                all().all(|id| matches!(
                    reg.state(id),
                    Some(JobState::Completed { .. }) | Some(JobState::TimedOut { .. })
                ))
            );
            prop_assert_eq!(
                reg.next_submission_after(now),
                all()
                    .filter(|&id| reg.state(id) == Some(JobState::Pending))
                    .map(|id| reg.meta(id).unwrap().submit)
                    .filter(|&s| s > now)
                    .min()
            );
            prop_assert_eq!(
                reg.next_limit_expiry(),
                all()
                    .filter_map(|id| match reg.state(id) {
                        Some(JobState::Running { started }) =>
                            Some(started + reg.meta(id).unwrap().limit),
                        _ => None,
                    })
                    .min()
            );
        }

        /// Under randomized submit/start/complete/kill churn, every
        /// policy-keyed ordered index reproduces the sort oracle exactly
        /// — full walks and depth-limited top-k alike. Priorities,
        /// limits and submit times are drawn from tiny ranges so ties on
        /// every key component (including equal-submit-time ties) are
        /// the common case, not the exception.
        fn ordered_indexes_match_sort_oracle_under_churn(
            seeds in prop::vec((0i64..3, 1u64..4, 0u64..5), 1..16),
            ops in prop::vec((0u64..4, 0u64..32, 0i64..3, 1u64..4), 0..48),
            probe in 0u64..40,
            limit in 0u64..8,
        ) {
            let mk = |id: u64, prio: i64, lim: u64, sub: u64| {
                let mut j = job(id, sub);
                j.priority = prio;
                j.limit = SimDuration::from_secs(lim * 20);
                // A sprinkle of dependencies so walks must skip
                // dependency-blocked entries mid-index.
                if id % 5 == 4 {
                    j = j.with_after(vec![JobId(id / 2)]);
                }
                j
            };
            let mut reg = JobRegistry::new();
            let mut next_id = 0u64;
            for &(prio, lim, sub) in &seeds {
                reg.submit(mk(next_id, prio, lim, sub));
                next_id += 1;
            }
            let mut clock = 20u64;
            for &(kind, pick, prio, lim) in &ops {
                clock += 1;
                let t = SimTime::from_secs(clock);
                if kind == 3 {
                    // Late submission, possibly tying an existing
                    // (priority, submit) or (limit, submit) pair.
                    reg.submit(mk(next_id, prio, lim, clock % 7));
                    next_id += 1;
                    continue;
                }
                let id = JobId(pick % next_id);
                match (kind, reg.state(id)) {
                    (0, Some(JobState::Pending)) => reg.mark_started(id, t),
                    (1, Some(JobState::Running { .. })) => reg.mark_completed(id, t),
                    (2, Some(JobState::Running { .. })) => reg.mark_timed_out(id, t),
                    _ => {}
                }
            }

            let now = SimTime::from_secs(probe);
            for &policy in &[
                PriorityPolicy::Fifo,
                PriorityPolicy::Priority,
                PriorityPolicy::ShortestLimitFirst,
            ] {
                let mut expect = Vec::new();
                reg.wait_queue_ids_sorted_into(now, policy, &mut expect);
                let got = queue(&reg, now, policy);
                prop_assert_eq!(&got, &expect);
                let mut truncated = expect.clone();
                truncated.truncate(limit as usize);
                let mut limited = Vec::new();
                reg.wait_queue_ids_limited_into(now, policy, limit as usize, &mut limited);
                prop_assert_eq!(&limited, &truncated);
            }
        }
    }
}
