//! Reference implementations the production crates are checked against.
//!
//! Everything here is test code: production crates take this crate only
//! as a dev-dependency, and their property suites compare the optimised
//! paths with the plain ones kept here.
//!
//! * [`reference_pass`] — the backfill pass (paper Algorithm 1) walking
//!   the whole queue, without the post-start cut of
//!   [`iosched_slurm::backfill_pass_into`] and, when asked, without its
//!   fits-now pruning; [`check_against_reference`] compares the two.
//! * [`max_over`] — a profile column's peak over a window, read from
//!   its breakpoints.
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
    BackfillConfig, PassStats, ReservationTracker, ResourceProfile, RunningView, SchedJob,
    SchedulingOutcome, SchedulingPolicy,
};

/// One scheduling round that examines every queue entry: the production
/// pass without the post-start cut, with fits-now pruning only if
/// `prune` is set (the production pass always prunes). Only
/// [`BackfillConfig::max_reservations`] is read from `cfg`.
/// [`check_against_reference`] states what the production pass must
/// match; with `prune` set, its [`PassStats::pruned`] must also equal
/// the production count when nothing starts, and bound it otherwise.
pub fn reference_pass<P: SchedulingPolicy>(
    policy: &mut P,
    running: &[RunningView<'_>],
    queue: &[&SchedJob],
    now: SimTime,
    total_nodes: usize,
    cfg: &BackfillConfig,
    prune: bool,
) -> (SchedulingOutcome, PassStats) {
    let mut outcome = SchedulingOutcome::default();
    let mut tracker = policy.init_tracker(running, queue, now, total_nodes);
    let mut backfill_count = 0usize;
    let mut next_possible = SimTime::FAR_FUTURE;
    let mut pruned = 0u64;
    let mut min_failed: Option<&SchedJob> = None;

    for &job in queue {
        if prune && backfill_count >= cfg.max_reservations {
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

/// Compare a production pass (`out`, `stats`) with [`reference_pass`]
/// (`full`, `full_stats`) on the same inputs. The starts must be equal.
/// When nothing starts, the whole outcome and the earliest future start
/// must be equal too; otherwise the production reservations and skips
/// must be a prefix of the reference's, since the post-start cut ends
/// the walk early.
pub fn check_against_reference(
    out: &SchedulingOutcome,
    stats: &PassStats,
    full: &SchedulingOutcome,
    full_stats: &PassStats,
) -> Result<(), String> {
    if out.start_now != full.start_now {
        return Err(format!(
            "starts differ\n  pass: {:?}\n  full: {:?}",
            out.start_now, full.start_now
        ));
    }
    if full.start_now.is_empty() {
        if out != full {
            return Err(format!(
                "a round that starts nothing differs\n  pass: {out:?}\n  full: {full:?}"
            ));
        }
        if stats.next_possible_start != full_stats.next_possible_start {
            return Err(format!(
                "earliest future start: {:?} != {:?}",
                stats.next_possible_start, full_stats.next_possible_start
            ));
        }
    } else if !(full.reservations.starts_with(&out.reservations)
        && full.skipped.starts_with(&out.skipped))
    {
        return Err(format!(
            "the cut walk is not a prefix of the full walk\n  pass: {out:?}\n  full: {full:?}"
        ));
    }
    Ok(())
}

/// Column `col`'s maximum reserved amount over `[start, end)`:
/// the usage at `start` and at every breakpoint inside the window.
/// 0 for an empty window.
pub fn max_over(profile: &ResourceProfile, col: usize, start: SimTime, end: SimTime) -> i64 {
    if end <= start {
        return 0;
    }
    profile
        .steps()
        .iter()
        .filter(|(t, _)| start < *t && *t < end)
        .fold(profile.usage_at(col, start), |max, (_, usage)| {
            max.max(usage[col])
        })
}
