//! Reference implementations the production crates are checked against.
//!
//! Everything here is test code: production crates take this crate only
//! as a dev-dependency, and their property suites compare the optimised
//! paths with the plain ones kept here.
//!
//! * [`reference_pass`] — the backfill pass (paper Algorithm 1) walking
//!   the whole queue, without the post-start cut of
//!   [`iosched_slurm::backfill_pass_into`].
//! * [`fixpoint`] — the paper's `EarliestStartTime` as the alternating
//!   per-resource fixpoint of Algorithms 4 and 7, over one single-column
//!   profile per resource.
//! * [`engine`] — the experiment loop of `iosched_experiments` without
//!   its speed-ups: a sorted queue over a plain job table, an estimate
//!   book rebuilt every round, and a full pass in every round (no
//!   elision, no no-start certificate, no pruning).

pub mod engine;
pub mod fixpoint;

use iosched_simkit::time::SimTime;
use iosched_slurm::{
    BackfillConfig, PassStats, ReservationTracker, RunningView, SchedJob, SchedulingOutcome,
    SchedulingPolicy,
};

/// One scheduling round that examines every queue entry: the production
/// pass with fits-now pruning as configured, but no post-start cut. Its
/// `start_now` must equal the production pass's on every input. When it
/// starts nothing, its whole outcome, its
/// [`PassStats::next_possible_start`] and its [`PassStats::pruned`] must
/// equal the production pass's too, and when it starts something the
/// production reservations and skips are a prefix of its own.
pub fn reference_pass<P: SchedulingPolicy>(
    policy: &mut P,
    running: &[RunningView<'_>],
    queue: &[&SchedJob],
    now: SimTime,
    total_nodes: usize,
    cfg: &BackfillConfig,
) -> (SchedulingOutcome, PassStats) {
    let mut outcome = SchedulingOutcome::default();
    let mut tracker = policy.init_tracker(running, queue, now, total_nodes);
    let mut backfill_count = 0usize;
    let mut next_possible = SimTime::FAR_FUTURE;
    let mut pruned = 0u64;
    let mut min_failed: Option<&SchedJob> = None;

    for &job in queue {
        if cfg.prune_fits_now && backfill_count >= cfg.max_reservations {
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
    (
        outcome,
        PassStats {
            next_possible_start: next_possible,
            pruned,
        },
    )
}
