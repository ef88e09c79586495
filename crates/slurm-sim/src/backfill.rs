//! Slurm's backfill list scheduler — Algorithm 1 of the paper.
//!
//! One *scheduling round* walks the priority-ordered wait queue. A job
//! whose earliest possible start is *now* starts immediately; a delayed
//! job gets a future reservation recorded in the tracker, up to
//! `BackfillMax` reservations per round (`BackfillMax = 1` is EASY
//! backfill; Slurm's default is unbounded, i.e. reservations for every
//! delayed job). Later queue entries may start now only if they do not
//! disturb recorded reservations — which the tracker enforces by
//! construction.
//!
//! Once the round has started a job, the walk ends at the last queue
//! entry for which [`ReservationTracker::may_start_now`] still holds
//! (the post-start cut). Free capacity at `now` only falls within a round, so no entry
//! past that point could start, and the jobs started are exactly those
//! of the full walk. The reservations the full walk would have recorded
//! past the cut only feed the round's earliest future start, which the
//! driver never reads after a round that started a job. A round that
//! starts nothing walks the whole queue.

use crate::policy::{ReservationTracker, RunningView, SchedJob, SchedulingPolicy};
use iosched_simkit::ids::JobId;
use iosched_simkit::time::SimTime;

/// Knobs of the backfill pass.
#[derive(Clone, Copy, Debug)]
pub struct BackfillConfig {
    /// Maximum number of future reservations recorded per round
    /// (`BackfillMax`). Slurm's default configuration is unbounded.
    pub max_reservations: usize,
    /// Ignored: the pass always prunes fits-now probes (see
    /// [`backfill_pass_into`]). Kept so that perfbench's mirror, its
    /// only reader, compiles unchanged.
    pub prune_fits_now: bool,
    /// Ignored: every probe starts at `now`. Kept so that perfbench's
    /// mirror, its only reader, compiles unchanged.
    pub monotone_cursor: bool,
}

impl Default for BackfillConfig {
    fn default() -> Self {
        BackfillConfig {
            max_reservations: usize::MAX,
            prune_fits_now: true,
            monotone_cursor: true,
        }
    }
}

impl BackfillConfig {
    /// EASY backfill: a reservation for the head job only.
    pub fn easy() -> Self {
        BackfillConfig {
            max_reservations: 1,
            ..BackfillConfig::default()
        }
    }
}

/// Cheap per-pass statistics returned by [`backfill_pass_into`] (the
/// decisions themselves live in [`SchedulingOutcome`]).
#[derive(Clone, Copy, Debug)]
pub struct PassStats {
    /// Minimum over every future start computed this round: while the
    /// pass inputs stay unchanged, no examined job can start strictly
    /// before this time — the driver's round-elision horizon.
    /// [`SimTime::FAR_FUTURE`] when every examined job started now.
    /// Only meaningful when the round started nothing: after a start
    /// the post-start cut leaves later entries unexamined.
    pub next_possible_start: SimTime,
    /// Queue entries whose probe was skipped by fits-now pruning
    /// (before the post-start cut, if any).
    pub pruned: u64,
}

/// What one scheduling round decided.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulingOutcome {
    /// Jobs to start now, in decision order.
    pub start_now: Vec<JobId>,
    /// Future reservations recorded this round: (job, planned start).
    /// Purely informational — reservations are re-derived every round.
    /// Covers the walk up to the post-start cut: entries past it get
    /// neither a reservation nor a skip.
    pub reservations: Vec<(JobId, SimTime)>,
    /// Jobs skipped because the reservation budget was exhausted, up to
    /// the post-start cut.
    pub skipped: Vec<JobId>,
}

/// Run one scheduling round (paper Algorithm 1).
///
/// `queue` must already be in priority order (Slurm sorts by priority,
/// here FIFO by submission). Returns the round's decisions; the caller
/// starts the `start_now` jobs and drops the tracker — state is rebuilt
/// from scratch next round, exactly like Slurm's backfill plugin.
pub fn backfill_pass<P: SchedulingPolicy>(
    policy: &mut P,
    running: &[RunningView<'_>],
    queue: &[&SchedJob],
    now: SimTime,
    total_nodes: usize,
    cfg: &BackfillConfig,
) -> SchedulingOutcome {
    let mut outcome = SchedulingOutcome::default();
    backfill_pass_into(policy, running, queue, now, total_nodes, cfg, &mut outcome);
    outcome
}

/// [`backfill_pass`] writing into a caller-owned outcome, clearing it
/// first. Reusing one outcome across rounds keeps the steady-state
/// scheduling pass allocation-free.
///
/// The queue walk prunes provably-futile `earliest_start` probes: once
/// the reservation budget is exhausted a failed job is only recorded as
/// skipped, so any later entry that
/// [`ReservationTracker::demands_at_least`] the least-demanding failure
/// seen so far is skipped without a probe. Sound because usage only
/// grows within a round, so dominance means "fits now" for the pruned
/// job would imply its dominatee fit at probe time — contradiction.
/// `tests/backfill_props.rs` checks pruning against the unpruned
/// `iosched_reference::reference_pass`.
///
/// After each start the walk moves its end back past the trailing
/// entries that [`ReservationTracker::may_start_now`] rules out, and
/// stops there (the post-start cut, see the module docs): O(depth)
/// scalar checks per pass in place of the tail's `earliest_start`
/// probes, with `start_now` unchanged.
pub fn backfill_pass_into<P: SchedulingPolicy>(
    policy: &mut P,
    running: &[RunningView<'_>],
    queue: &[&SchedJob],
    now: SimTime,
    total_nodes: usize,
    cfg: &BackfillConfig,
    outcome: &mut SchedulingOutcome,
) -> PassStats {
    outcome.start_now.clear();
    outcome.reservations.clear();
    outcome.skipped.clear();
    let mut tracker = policy.init_tracker(running, queue, now, total_nodes);
    let mut backfill_count = 0usize;
    let mut next_possible = SimTime::FAR_FUTURE;
    let mut pruned = 0u64;
    // Least-demanding job seen failing to start now: the pruning
    // representative. Never itself a pruned job, so its computed start
    // bounds every pruned job's from below and `next_possible` stays a
    // true minimum.
    let mut min_failed: Option<&SchedJob> = None;
    // Entries at or past `cut` cannot start now. It stays at the queue's
    // end until the first start, then only moves back: free capacity at
    // `now` only falls, so an entry ruled out stays ruled out.
    let mut cut = queue.len();

    for (i, &job) in queue.iter().enumerate() {
        if i >= cut {
            break;
        }
        if backfill_count >= cfg.max_reservations {
            if let Some(failed) = min_failed {
                if tracker.demands_at_least(job, failed) {
                    outcome.skipped.push(job.id);
                    pruned += 1;
                    continue;
                }
            }
        }
        let t = tracker.earliest_start(job, now);
        if t == now {
            outcome.start_now.push(job.id);
            tracker.reserve(job, now);
            while cut > i + 1 && !tracker.may_start_now(queue[cut - 1]) {
                cut -= 1;
            }
        } else {
            next_possible = next_possible.min(t);
            match min_failed {
                Some(f) if !tracker.demands_at_least(f, job) => {}
                _ => min_failed = Some(job),
            }
            if backfill_count >= cfg.max_reservations {
                outcome.skipped.push(job.id);
            } else {
                tracker.reserve(job, t);
                outcome.reservations.push((job.id, t));
                backfill_count += 1;
            }
        }
    }
    PassStats {
        next_possible_start: next_possible,
        pruned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NodePolicy;
    use iosched_simkit::time::SimDuration;

    fn job(id: u64, nodes: usize, limit_s: u64) -> SchedJob {
        SchedJob::new(
            JobId(id),
            format!("j{id}"),
            nodes,
            SimDuration::from_secs(limit_s),
            SimTime::ZERO,
        )
    }

    fn pass(
        running: &[(SchedJob, SimTime)],
        queue: &[&SchedJob],
        cfg: &BackfillConfig,
        total_nodes: usize,
    ) -> SchedulingOutcome {
        let views: Vec<RunningView<'_>> = running
            .iter()
            .map(|(j, s)| RunningView {
                job: j,
                started: *s,
            })
            .collect();
        backfill_pass(
            &mut NodePolicy::default(),
            &views,
            queue,
            SimTime::ZERO,
            total_nodes,
            cfg,
        )
    }

    #[test]
    fn starts_everything_that_fits() {
        let a = job(1, 5, 100);
        let b = job(2, 5, 100);
        let c = job(3, 5, 100);
        let out = pass(&[], &[&a, &b, &c], &BackfillConfig::default(), 15);
        assert_eq!(out.start_now, vec![JobId(1), JobId(2), JobId(3)]);
        assert!(out.reservations.is_empty());
    }

    #[test]
    fn backfills_small_job_around_blocked_head() {
        // 10 nodes busy for 100 s. Head job needs 10 nodes (blocked);
        // a later 5-node short job fits now without delaying the head.
        let running = [(job(0, 10, 100), SimTime::ZERO)];
        let head = job(1, 10, 50);
        let small = job(2, 5, 50);
        let out = pass(&running, &[&head, &small], &BackfillConfig::default(), 15);
        assert_eq!(out.start_now, vec![JobId(2)]);
        assert_eq!(out.reservations, vec![(JobId(1), SimTime::from_secs(100))]);
    }

    #[test]
    fn backfill_does_not_delay_reserved_head() {
        // Head (10 nodes) reserved at t=100 when the running job ends.
        // A later 5-node job with a 200 s limit would collide with the
        // head's reservation (5 free now, but 10+5 > 15 during [100, 200))
        // — wait: 5 nodes are free now and head uses 10, so 5-node job CAN
        // run alongside. Use a 6-node job instead: 6 > 5 free now, and
        // starting it at 100 would collide with the head; it must go after
        // the head's window.
        let running = [(job(0, 10, 100), SimTime::ZERO)];
        let head = job(1, 10, 50);
        let wide = job(2, 6, 200);
        let out = pass(&running, &[&head, &wide], &BackfillConfig::default(), 15);
        assert!(out.start_now.is_empty());
        assert_eq!(
            out.reservations,
            vec![
                (JobId(1), SimTime::from_secs(100)),
                (JobId(2), SimTime::from_secs(150)),
            ]
        );
    }

    #[test]
    fn easy_backfill_skips_after_first_reservation() {
        let running = [(job(0, 15, 100), SimTime::ZERO)];
        let a = job(1, 15, 50);
        let b = job(2, 15, 50);
        let c = job(3, 15, 50);
        let out = pass(&running, &[&a, &b, &c], &BackfillConfig::easy(), 15);
        assert!(out.start_now.is_empty());
        assert_eq!(out.reservations.len(), 1);
        assert_eq!(out.skipped, vec![JobId(2), JobId(3)]);
    }

    #[test]
    fn skipped_jobs_cannot_jump_reservations_but_fitting_ones_can() {
        // EASY mode: head blocked and reserved; second blocked job is
        // skipped (no reservation); a third small job still starts now.
        let running = [(job(0, 10, 100), SimTime::ZERO)];
        let head = job(1, 10, 50);
        let blocked = job(2, 10, 50);
        let small = job(3, 2, 10);
        let out = pass(
            &running,
            &[&head, &blocked, &small],
            &BackfillConfig::easy(),
            15,
        );
        assert_eq!(out.start_now, vec![JobId(3)]);
        assert_eq!(out.skipped, vec![JobId(2)]);
    }

    #[test]
    fn unbounded_reservations_protect_queue_order() {
        // Default Slurm (unbounded): every delayed job gets a reservation,
        // so a long small job cannot start if it would push back ANY
        // earlier queued job. 15-node cluster, running job holds all.
        let running = [(job(0, 15, 100), SimTime::ZERO)];
        let first = job(1, 15, 100); // reserved [100, 200)
        let second = job(2, 15, 100); // reserved [200, 300)
        let sneaky = job(3, 1, 1000); // would fit "now" only by delaying others
        let out = pass(
            &running,
            &[&first, &second, &sneaky],
            &BackfillConfig::default(),
            15,
        );
        assert!(out.start_now.is_empty());
        assert_eq!(out.reservations.len(), 3);
        // sneaky's reservation starts only after the 15-node walls.
        let sneaky_at = out
            .reservations
            .iter()
            .find(|(id, _)| *id == JobId(3))
            .unwrap()
            .1;
        assert_eq!(sneaky_at, SimTime::from_secs(300));
    }

    /// [`NodePolicy`] whose trackers count `earliest_start` calls.
    #[derive(Default)]
    struct CountingPolicy {
        inner: NodePolicy,
        calls: u64,
    }

    struct CountingTracker<'a> {
        inner: crate::policy::NodeTracker<'a>,
        calls: &'a mut u64,
    }

    impl SchedulingPolicy for CountingPolicy {
        type Tracker<'a> = CountingTracker<'a>;

        fn init_tracker<'a>(
            &'a mut self,
            running: &[RunningView<'_>],
            queue: &[&SchedJob],
            now: SimTime,
            total_nodes: usize,
        ) -> CountingTracker<'a> {
            CountingTracker {
                inner: self.inner.init_tracker(running, queue, now, total_nodes),
                calls: &mut self.calls,
            }
        }
    }

    impl ReservationTracker for CountingTracker<'_> {
        fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime {
            *self.calls += 1;
            self.inner.earliest_start(job, t_min)
        }

        fn reserve(&mut self, job: &SchedJob, start: SimTime) {
            self.inner.reserve(job, start);
        }

        fn demands_at_least(&self, probe: &SchedJob, failed: &SchedJob) -> bool {
            self.inner.demands_at_least(probe, failed)
        }

        fn may_start_now(&self, job: &SchedJob) -> bool {
            self.inner.may_start_now(job)
        }
    }

    #[test]
    fn full_machine_ends_the_walk_after_the_head_starts() {
        // 10 of 15 nodes busy; the 5-node head takes the rest, and no
        // later entry can start now, so the walk stops at the head: one
        // `earliest_start` call, where the full walk makes one per entry.
        let running = [RunningView {
            job: &job(0, 10, 100),
            started: SimTime::ZERO,
        }];
        let head = job(1, 5, 50);
        let tail: Vec<SchedJob> = (2..50).map(|i| job(i, 1 + i as usize % 4, 60)).collect();
        let queue: Vec<&SchedJob> = std::iter::once(&head).chain(&tail).collect();
        let mut policy = CountingPolicy::default();
        let out = backfill_pass(
            &mut policy,
            &running,
            &queue,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
        );
        assert_eq!(out.start_now, vec![JobId(1)]);
        assert!(out.reservations.is_empty(), "{out:?}");
        assert_eq!(policy.calls, 1);
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let out = pass(&[], &[], &BackfillConfig::default(), 15);
        assert_eq!(out, SchedulingOutcome::default());
    }
}
