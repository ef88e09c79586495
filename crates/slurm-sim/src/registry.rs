//! Job lifecycle bookkeeping (the `slurmctld` job table).
//!
//! The registry owns every submitted job's metadata and state, provides
//! the priority-ordered wait queue and running views the backfill pass
//! consumes, and records each job's submit, start and end times (`s_j`,
//! `b_j`, `c_j`) in its state until the job is retired.

use crate::policy::{RunningView, SchedJob};
use iosched_simkit::ids::JobId;
use iosched_simkit::time::SimTime;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

thread_local! {
    /// Mutations applied to the policy-keyed pending index on this
    /// thread (inserts + removes; the FIFO set predates the index and
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
}

/// Lifecycle state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Executing since `started`.
    Running { started: SimTime },
    /// Ran to completion.
    Completed { started: SimTime, ended: SimTime },
}

/// One unretired job: its metadata and state, in its slab slot.
#[derive(Clone, Debug)]
struct Entry {
    meta: SchedJob,
    state: JobState,
}

/// The job table, and the only owner of job metadata.
///
/// Entries live in a **slab**: a `Vec` of slots plus a free list, so its
/// length is bounded by the peak number of unretired jobs, not by the
/// largest `JobId`, and an entry keeps its slot until it is retired. An
/// id→slot map serves the per-event calls ([`Self::submit`],
/// `mark_*`, [`Self::state`], [`Self::meta`], [`Self::retire`]).
///
/// Besides the table, the registry maintains incremental pending/running
/// state sets and a finished counter so the per-pass queries
/// ([`Self::wait_queue_into`], [`Self::running_into`], `all_completed`,
/// `next_limit_expiry`) touch only the jobs in the
/// relevant state instead of scanning the whole table. Every set entry
/// carries its job's slot after the unique id, so these queries read
/// metadata in O(1) without a map lookup; the slot never decides an
/// order, because the id before it is unique. `pending` is ordered by
/// `(submit, id)` — the FIFO key — so the default wait queue needs no
/// sort and `next_submission_after` is a single `O(log n)` range probe
/// per event-loop iteration; `running` is ordered by id, the order every
/// running-set consumer wants.
///
/// Alongside the FIFO set, one **policy-keyed ordered index** mirrors
/// the pending membership under the `Priority` sort key
/// `(Reverse(priority), submit, id)`, updated in `O(log n)` at the only
/// two pending-membership transitions ([`Self::submit`] and
/// [`Self::mark_started`]). Queue preparation under either policy is
/// then an ordered walk over the matching set (a true top-k for
/// depth-limited queries) instead of a per-round collect-and-sort.
/// Every sort key ends in the unique job id, so each set is a total
/// order and the walk reproduces the sorted output exactly; the test
/// module keeps the sort as the oracle the walks are property-pinned
/// against, and the reference engine in `iosched-reference` queues by
/// sorting too.
#[derive(Clone, Debug, Default)]
pub struct JobRegistry {
    /// The slab: `None` marks a free slot, listed in `free`.
    slots: Vec<Option<Entry>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
    /// Id → slot of every unretired job.
    slot_of: BTreeMap<JobId, usize>,
    /// Jobs currently `Pending`, keyed by `(submit, id)` (FIFO order).
    pending: BTreeSet<(SimTime, JobId, usize)>,
    /// Pending membership under the `Priority` policy's sort key.
    pending_prio: BTreeSet<(Reverse<i64>, SimTime, JobId, usize)>,
    /// Jobs currently `Running`, in id order.
    running: BTreeSet<(JobId, usize)>,
    /// Count of `Completed` jobs.
    finished: usize,
}

impl JobRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry in an occupied slot.
    fn entry(&self, slot: usize) -> &Entry {
        self.slots[slot].as_ref().expect("indexed slot is occupied")
    }

    /// The slot of unretired job `id`.
    ///
    /// # Panics
    /// Panics if the job is unknown.
    fn slot(&self, id: JobId) -> usize {
        *self
            .slot_of
            .get(&id)
            .unwrap_or_else(|| panic!("unknown {id}"))
    }

    /// Add a job in `Pending` state.
    ///
    /// # Panics
    /// Panics on duplicate submission.
    pub fn submit(&mut self, meta: SchedJob) {
        let id = meta.id;
        let submit = meta.submit;
        let priority = meta.priority;
        let slot = self.free.pop().unwrap_or(self.slots.len());
        let prev = self.slot_of.insert(id, slot);
        assert!(prev.is_none(), "duplicate submission of {id}");
        let entry = Some(Entry {
            meta,
            state: JobState::Pending,
        });
        if slot == self.slots.len() {
            self.slots.push(entry);
        } else {
            self.slots[slot] = entry;
        }
        self.pending.insert((submit, id, slot));
        self.pending_prio
            .insert((Reverse(priority), submit, id, slot));
        INDEX_OPS.with(|c| c.set(c.get() + 1));
    }

    /// Number of unretired jobs (any state).
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True when no unretired job remains.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Job metadata.
    pub fn meta(&self, id: JobId) -> Option<&SchedJob> {
        self.slot_of.get(&id).map(|&slot| &self.entry(slot).meta)
    }

    /// Job state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.slot_of.get(&id).map(|&slot| self.entry(slot).state)
    }

    /// Transition a pending job to running at `t`.
    pub fn mark_started(&mut self, id: JobId, t: SimTime) {
        let slot = self.slot(id);
        let e = self.slots[slot].as_mut().expect("indexed slot is occupied");
        assert_eq!(e.state, JobState::Pending, "{id} is not pending");
        e.state = JobState::Running { started: t };
        let submit = e.meta.submit;
        let priority = e.meta.priority;
        assert!(
            self.pending.remove(&(submit, id, slot)),
            "{id} missing from pending set"
        );
        assert!(
            self.pending_prio
                .remove(&(Reverse(priority), submit, id, slot)),
            "{id} missing from priority index"
        );
        INDEX_OPS.with(|c| c.set(c.get() + 1));
        self.running.insert((id, slot));
    }

    /// Transition a running job to completed at `t`.
    pub fn mark_completed(&mut self, id: JobId, t: SimTime) {
        let slot = self.slot(id);
        let e = self.slots[slot].as_mut().expect("indexed slot is occupied");
        match e.state {
            JobState::Running { started } => e.state = JobState::Completed { started, ended: t },
            other => panic!("{id} is not running (state {other:?})"),
        }
        assert!(
            self.running.remove(&(id, slot)),
            "{id} missing from running set"
        );
        self.finished += 1;
    }

    /// The first `limit` pending jobs submitted at or before `now`,
    /// ordered by `policy`, into a caller-owned buffer
    /// (cleared first) — a true top-k, handed out as references into the
    /// job table. The reusable buffer keeps the steady-state scheduling
    /// pass allocation-free; `usize::MAX` asks for the whole wait queue.
    ///
    /// Either policy walks its ordered pending set in key order and
    /// stops after `limit` eligible jobs: `O(limit)` index entries
    /// examined plus whatever future submits the priority index
    /// interleaves ahead of the k-th eligible one — in the steady
    /// deep-queue state (streaming replay with a full admission window,
    /// where nearly every resident job is eligible) that is `O(limit)`
    /// total. Each entry's metadata is read through the slot its index
    /// key carries, with no by-id lookup.
    pub fn wait_queue_into<'a>(
        &'a self,
        now: SimTime,
        policy: PriorityPolicy,
        limit: usize,
        out: &mut Vec<&'a SchedJob>,
    ) {
        out.clear();
        self.walk(now, policy, limit, |job| out.push(job));
    }

    /// [`Self::wait_queue_into`] as job ids, with the same walk and the
    /// same counters.
    pub fn wait_queue_ids_limited_into(
        &self,
        now: SimTime,
        policy: PriorityPolicy,
        limit: usize,
        out: &mut Vec<JobId>,
    ) {
        out.clear();
        self.walk(now, policy, limit, |job| out.push(job.id));
    }

    /// The ordered-index walk behind both wait-queue queries: hands
    /// `emit` the first `limit` eligible jobs in `policy` order.
    fn walk<'a>(
        &'a self,
        now: SimTime,
        policy: PriorityPolicy,
        limit: usize,
        mut emit: impl FnMut(&'a SchedJob),
    ) {
        let mut steps = 0u64;
        let mut taken = 0usize;
        // True once `limit` jobs have been emitted.
        let mut visit = |submit: SimTime, slot: usize| {
            steps += 1;
            if submit <= now {
                emit(&self.entry(slot).meta);
                taken += 1;
            }
            taken >= limit
        };
        if limit > 0 {
            // For FIFO the set's leading key is `submit`, so the
            // eligible-by-time entries are exactly a prefix range; the
            // priority key interleaves future submits and the walk skips
            // them.
            match policy {
                PriorityPolicy::Fifo => {
                    for &(submit, _, slot) in
                        self.pending.range(..=(now, JobId(u64::MAX), usize::MAX))
                    {
                        if visit(submit, slot) {
                            break;
                        }
                    }
                }
                PriorityPolicy::Priority => {
                    for &(_, submit, _, slot) in &self.pending_prio {
                        if visit(submit, slot) {
                            break;
                        }
                    }
                }
            }
        }
        WALK_STEPS.with(|c| c.set(c.get() + steps));
    }

    /// The running jobs in id order, read through their slots.
    fn running_iter(&self) -> impl Iterator<Item = RunningView<'_>> {
        self.running.iter().map(|&(id, slot)| {
            let e = self.entry(slot);
            let JobState::Running { started } = e.state else {
                unreachable!("{id} listed running but is {:?}", e.state)
            };
            RunningView {
                job: &e.meta,
                started,
            }
        })
    }

    /// Views of the currently running jobs, in id order, into a
    /// caller-owned buffer (cleared first).
    pub fn running_into<'a>(&'a self, out: &mut Vec<RunningView<'a>>) {
        out.clear();
        out.extend(self.running_iter());
    }

    /// Running `(id, started)` pairs in id order, into a caller-owned
    /// buffer (cleared first).
    pub fn running_ids_into(&self, out: &mut Vec<(JobId, SimTime)>) {
        out.clear();
        out.extend(self.running_iter().map(|rv| (rv.job.id, rv.started)));
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
            .range((Excluded((now, JobId(u64::MAX), usize::MAX)), Unbounded))
            .next()
            .map(|&(submit, _, _)| submit)
    }

    /// True when every job has completed.
    pub fn all_completed(&self) -> bool {
        self.finished == self.slot_of.len()
    }

    /// Remove a finished job's entry entirely, returning its final state.
    ///
    /// Event-driven drivers evict jobs as they finish so the table stays
    /// bounded by the admission window instead of growing with the trace;
    /// the freed slot is reused by the next submission. Only `Completed`
    /// jobs may be retired.
    ///
    /// # Panics
    /// Panics if the job is unknown or not completed.
    pub fn retire(&mut self, id: JobId) -> JobState {
        let slot = self.slot(id);
        let state = self.entry(slot).state;
        assert!(
            matches!(state, JobState::Completed { .. }),
            "{id} is not completed (state {state:?})"
        );
        self.slot_of.remove(&id);
        self.slots[slot] = None;
        self.free.push(slot);
        self.finished -= 1;
        state
    }

    /// Earliest future limit expiry among running jobs.
    pub fn next_limit_expiry(&self) -> Option<SimTime> {
        self.running_iter()
            .map(|rv| rv.started + rv.job.limit)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::time::SimDuration;

    impl JobRegistry {
        /// Reference queue preparation: collect the eligible set and sort
        /// it under `policy` — the pre-index implementation, the oracle the
        /// ordered-index walks are property-pinned against. FIFO needs no
        /// sort: the pending set is already `(submit, id)` ordered. Every
        /// other sort key ends in the unique job id (a total order), so
        /// the unstable sort is deterministic.
        fn wait_queue_ids_sorted_into(
            &self,
            now: SimTime,
            policy: PriorityPolicy,
            out: &mut Vec<JobId>,
        ) {
            out.clear();
            out.extend(
                self.pending
                    .range(..=(now, JobId(u64::MAX), usize::MAX))
                    .map(|&(_, id, _)| id),
            );
            let meta = |id: &JobId| &self.entry(self.slot(*id)).meta;
            match policy {
                PriorityPolicy::Fifo => {} // already (submit, id)-ordered
                PriorityPolicy::Priority => out
                    .sort_unstable_by_key(|id| (Reverse(meta(id).priority), meta(id).submit, *id)),
            }
        }
    }

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
    }

    #[test]
    fn limited_walk_skips_ineligible_entries_without_consuming_depth() {
        // Under the priority index, future submits interleave with
        // eligible jobs in key order; a depth-limited walk must skip them
        // without counting them toward the limit — the top-k is over
        // *eligible* jobs.
        let mut reg = JobRegistry::new();
        let mut future = job(1, 50); // highest priority but not yet submitted
        future.priority = 100;
        let mut later = job(2, 40); // next priority, also in the future
        later.priority = 50;
        let mut ready = job(3, 0);
        ready.priority = 1;
        reg.submit(future);
        reg.submit(later);
        reg.submit(ready);

        let mut got = Vec::new();
        reg.wait_queue_ids_limited_into(SimTime::ZERO, PriorityPolicy::Priority, 1, &mut got);
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
        for policy in [PriorityPolicy::Fifo, PriorityPolicy::Priority] {
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
        let mut views = Vec::new();
        reg.running_into(&mut views);
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].job.id, JobId(2));
        assert_eq!(views[0].started, SimTime::from_secs(3));
    }

    #[test]
    fn next_limit_expiry_tracks_running_jobs() {
        let mut reg = JobRegistry::new();
        reg.submit(job(1, 0));
        assert_eq!(reg.next_limit_expiry(), None);
        reg.mark_started(JobId(1), SimTime::from_secs(10));
        // Limit is 100 s → expiry at 110.
        assert_eq!(reg.next_limit_expiry(), Some(SimTime::from_secs(110)));
        reg.mark_completed(JobId(1), SimTime::from_secs(50));
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
        reg.mark_completed(JobId(2), SimTime::from_secs(120));
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

    use iosched_simkit::{prop, prop_assert, prop_assert_eq, props};

    props! {
        #![cases(64)]

        /// The incremental pending/running lists and finished counter
        /// agree with a full state scan after any lifecycle history.
        fn incremental_state_sets_match_full_scan(
            submits in prop::vec(0u64..20, 1..20),
            ops in prop::vec((0u64..2, 0u64..32), 0..48),
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
            let mut views = Vec::new();
            reg.running_into(&mut views);
            let got_running: Vec<JobId> = views.iter().map(|rv| rv.job.id).collect();
            prop_assert_eq!(&got_running, &expect_running);
            let mut rbuf = Vec::new();
            reg.running_ids_into(&mut rbuf);
            let rids: Vec<JobId> = rbuf.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(&rids, &expect_running);

            // Scalar queries.
            prop_assert_eq!(
                reg.all_completed(),
                all().all(|id| matches!(reg.state(id), Some(JobState::Completed { .. })))
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

        /// Under randomized submit/start/complete churn, both
        /// ordered pending sets reproduce the sort oracle exactly — full
        /// walks and depth-limited top-k alike. Priorities, limits and
        /// submit times are drawn from tiny ranges so ties on
        /// every key component (including equal-submit-time ties) are
        /// the common case, not the exception.
        fn ordered_indexes_match_sort_oracle_under_churn(
            seeds in prop::vec((0i64..3, 1u64..4, 0u64..5), 1..16),
            ops in prop::vec((0u64..3, 0u64..32, 0i64..3, 1u64..4), 0..48),
            probe in 0u64..40,
            limit in 0u64..8,
        ) {
            let mk = |id: u64, prio: i64, lim: u64, sub: u64| {
                let mut j = job(id, sub);
                j.priority = prio;
                j.limit = SimDuration::from_secs(lim * 20);
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
                if kind == 2 {
                    // Late submission, possibly tying an existing
                    // (priority, submit) pair.
                    reg.submit(mk(next_id, prio, lim, clock % 7));
                    next_id += 1;
                    continue;
                }
                let id = JobId(pick % next_id);
                match (kind, reg.state(id)) {
                    (0, Some(JobState::Pending)) => reg.mark_started(id, t),
                    (1, Some(JobState::Running { .. })) => reg.mark_completed(id, t),
                    _ => {}
                }
            }

            let now = SimTime::from_secs(probe);
            for &policy in &[
                PriorityPolicy::Fifo,
                PriorityPolicy::Priority,
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

        /// Slab churn: random submits (some future-dated), starts,
        /// completions and retirements, so slots are freed and reused.
        /// After every operation, under every policy and depth, the
        /// `&SchedJob` walk returns the sort oracle truncated and takes
        /// as many steps as the id walk; `running_into` agrees with
        /// `running_ids_into`; every unretired job's metadata and state
        /// read back by id as submitted and transitioned; and the slab
        /// never outgrows the peak count of unretired jobs.
        fn slab_churn_keeps_ref_walks_equal_to_id_walks(
            ops in prop::vec((0u64..7, 0u64..64, 0i64..3, 1u64..4), 1..80),
            probe in 0u64..60,
            limit in 1u64..8,
        ) {
            let mut reg = JobRegistry::new();
            // Shadow copy of every unretired job: (metadata, state).
            let mut shadow: BTreeMap<JobId, (SchedJob, JobState)> = BTreeMap::new();
            let mut next_id = 0u64;
            let mut peak = 0usize;
            let mut ids = Vec::new();
            let mut oracle = Vec::new();
            let mut pairs = Vec::new();
            for (clock, &(kind, pick, prio, lim)) in ops.iter().enumerate() {
                let clock = clock as u64;
                let t = SimTime::from_secs(clock);
                // The `pick`-th unretired job in state `want`, if any.
                let nth = |want: fn(&JobState) -> bool| {
                    let ids: Vec<JobId> = shadow
                        .iter()
                        .filter(|(_, (_, s))| want(s))
                        .map(|(&id, _)| id)
                        .collect();
                    (!ids.is_empty()).then(|| ids[pick as usize % ids.len()])
                };
                match kind {
                    0..=2 => {
                        // Submit times up to 20 s past the clock, so some
                        // entries sit in the indexes ahead of `now`.
                        let mut j = job(next_id, clock + (pick % 3) * 10);
                        j.priority = prio;
                        j.limit = SimDuration::from_secs(lim * 20);
                        shadow.insert(j.id, (j.clone(), JobState::Pending));
                        reg.submit(j);
                        next_id += 1;
                        peak = peak.max(shadow.len());
                    }
                    3 => {
                        if let Some(id) = nth(|s| *s == JobState::Pending) {
                            reg.mark_started(id, t);
                            shadow.get_mut(&id).unwrap().1 = JobState::Running { started: t };
                        }
                    }
                    4 | 5 => {
                        if let Some(id) = nth(|s| matches!(s, JobState::Running { .. })) {
                            let JobState::Running { started } = shadow[&id].1 else {
                                unreachable!()
                            };
                            reg.mark_completed(id, t);
                            shadow.get_mut(&id).unwrap().1 =
                                JobState::Completed { started, ended: t };
                        }
                    }
                    _ => {
                        if let Some(id) = nth(|s| matches!(s, JobState::Completed { .. })) {
                            prop_assert_eq!(reg.retire(id), shadow[&id].1);
                            shadow.remove(&id);
                            prop_assert!(reg.meta(id).is_none() && reg.state(id).is_none());
                        }
                    }
                }

                prop_assert!(
                    reg.slots.len() <= peak,
                    "slab holds {} slots, peak unretired {peak}",
                    reg.slots.len()
                );
                prop_assert_eq!(reg.len(), shadow.len());
                for (&id, (meta, state)) in &shadow {
                    let got = reg.meta(id);
                    prop_assert!(got.is_some(), "{id} lost its entry");
                    let got = got.unwrap();
                    prop_assert_eq!(
                        (got.id, got.submit, got.priority, got.limit),
                        (meta.id, meta.submit, meta.priority, meta.limit)
                    );
                    prop_assert_eq!(reg.state(id), Some(*state));
                }

                // Reference buffers borrow the registry, so they live for
                // one check only.
                let mut refs = Vec::new();
                let mut views = Vec::new();
                let now = SimTime::from_secs(probe);
                for policy in [
                    PriorityPolicy::Fifo,
                    PriorityPolicy::Priority,
                ] {
                    reg.wait_queue_ids_sorted_into(now, policy, &mut oracle);
                    for depth in [limit as usize, usize::MAX] {
                        take_queue_prep_counters();
                        reg.wait_queue_into(now, policy, depth, &mut refs);
                        let (_, ref_steps) = take_queue_prep_counters();
                        reg.wait_queue_ids_limited_into(now, policy, depth, &mut ids);
                        let (_, id_steps) = take_queue_prep_counters();
                        let got: Vec<JobId> = refs.iter().map(|j| j.id).collect();
                        prop_assert_eq!(&got, &oracle[..depth.min(oracle.len())]);
                        prop_assert_eq!(&got, &ids);
                        prop_assert_eq!(ref_steps, id_steps);
                    }
                }
                reg.running_into(&mut views);
                reg.running_ids_into(&mut pairs);
                let got: Vec<(JobId, SimTime)> =
                    views.iter().map(|rv| (rv.job.id, rv.started)).collect();
                prop_assert_eq!(&got, &pairs);
            }
        }
    }
}
