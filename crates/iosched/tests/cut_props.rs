//! Property tests of the post-start cut: on random rounds the backfill
//! pass starts exactly the jobs the full walk ([`reference_pass`]) starts,
//! under the node policy, io-aware, and two-group
//! and naïve adaptive, at EASY, finite and unbounded `BackfillMax`. When
//! nothing starts the pass is the full walk, so its whole outcome, its
//! earliest future start and its pruning count match too; when something
//! starts, its reservations and skips are a prefix of the full walk's.
//!
//! The rounds reach the corners the free-at-`now` counters have to count
//! exactly: overrunning running jobs, estimates missing or above the
//! limit, non-integral limits, measured load above the running jobs'
//! estimates, and zero-length limits, whose starts take nothing at
//! `now`.

mod common;

use common::{job_spec, Round, NOW};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, IoAwareConfig, IoAwarePolicy};
use iosched_reference::{check_against_reference, reference_pass};
use iosched_simkit::prop::Just;
use iosched_simkit::time::SimDuration;
use iosched_simkit::{prop, prop_assert, prop_assert_eq, prop_oneof, props};
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass_into, BackfillConfig, RunningView, SchedJob, SchedulingOutcome, SchedulingPolicy,
};

/// Run the pass and the full walk on the same inputs and compare them:
/// by [`check_against_reference`], and the pruning counts.
fn check<P: SchedulingPolicy>(
    label: &str,
    policy: &mut P,
    views: &[RunningView<'_>],
    queue: &[&SchedJob],
    total_nodes: usize,
    cfg: &BackfillConfig,
) -> Result<(), String> {
    let mut out = SchedulingOutcome::default();
    let stats = backfill_pass_into(policy, views, queue, NOW, total_nodes, cfg, &mut out);
    let (full, full_stats) = reference_pass(policy, views, queue, NOW, total_nodes, cfg, true);
    check_against_reference(&out, &stats, &full, &full_stats)
        .map_err(|e| format!("{label}: {e}"))?;
    if full.start_now.is_empty() {
        prop_assert_eq!(stats.pruned, full_stats.pruned, "{}: pruned", label);
    } else {
        prop_assert!(stats.pruned <= full_stats.pruned, "{}: pruned", label);
    }
    Ok(())
}

props! {
    #![cases(256)]

    /// The pass and the full walk start the same jobs under every
    /// policy and budget, and agree on everything when nothing starts.
    fn cut_pass_matches_the_full_walk(
        running in prop::vec((job_spec(), 0u64..600), 0..8),
        queue in prop::vec(job_spec(), 1..16),
        (limit, measured) in ((3.0f64..16.0, 0u64..2), (0u64..3, 0.0f64..1.0)),
        (spare_nodes, zero_limit) in (0usize..8, 0usize..24),
        backfill_max in prop_oneof![Just(1usize), Just(3), Just(usize::MAX)],
    ) {
        let mut round = Round::new(&running, &queue, limit, measured, spare_nodes);
        // One job, running or queued, with a zero-length limit.
        if let Some(job) = round
            .running
            .iter_mut()
            .map(|(j, _)| j)
            .chain(round.queue.iter_mut())
            .nth(zero_limit)
        {
            job.limit = SimDuration::ZERO;
        }
        let views = round.views();
        let refs: Vec<&SchedJob> = round.queue.iter().collect();
        let cfg = BackfillConfig {
            max_reservations: backfill_max,
            ..BackfillConfig::default()
        };
        let n = round.total_nodes;

        check("node", &mut NodePolicy::default(), &views, &refs, n, &cfg)?;

        let mut io = IoAwarePolicy::new(IoAwareConfig { limit_bps: round.limit });
        io.begin_round(round.book.clone());
        check("io-aware", &mut io, &views, &refs, n, &cfg)?;

        for cfg_ad in [AdaptiveConfig::paper(round.limit), AdaptiveConfig::naive(round.limit)] {
            let mut ad = AdaptivePolicy::new(cfg_ad);
            ad.begin_round(round.book.clone());
            let label = if cfg_ad.two_group { "adaptive" } else { "adaptive-naive" };
            check(label, &mut ad, &views, &refs, n, &cfg)?;
        }
    }
}
