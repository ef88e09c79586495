//! Property tests of the no-start certificate: whenever it holds, a
//! backfill pass on the same inputs starts nothing (io-aware, adaptive
//! two-group and naïve adaptive), and for a single io-aware job it holds
//! exactly when the job cannot start at `now`.
//!
//! The inputs reach the corners the certificate has to count exactly:
//! overrunning running jobs, jobs missing from the book, estimates above
//! the limit, non-integral limits, and measured load below, equal to and
//! above the running jobs' estimates.

mod common;

use common::{job_spec, Round, NOW};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, IoAwareConfig, IoAwarePolicy};
use iosched_simkit::{prop, prop_assert, prop_assert_eq, props};
use iosched_slurm::{
    backfill_pass, BackfillConfig, ReservationTracker, SchedJob, SchedulingPolicy,
};

props! {
    #![cases(256)]

    /// A certified round starts nothing, under every policy that has the
    /// certificate.
    fn certified_rounds_start_nothing(
        running in prop::vec((job_spec(), 0u64..600), 0..8),
        queue in prop::vec(job_spec(), 1..10),
        limit in (3.0f64..16.0, 0u64..2),
        measured in (0u64..3, 0.0f64..1.0),
        spare_nodes in 0usize..6,
    ) {
        let round = Round::new(&running, &queue, limit, measured, spare_nodes);
        let views = round.views();
        let refs: Vec<&SchedJob> = round.queue.iter().collect();
        let cfg = BackfillConfig::default();

        let mut io = IoAwarePolicy::new(IoAwareConfig { limit_bps: round.limit });
        io.begin_round(round.book.clone());
        let certified = io.no_start_certified(&views, &refs, NOW, round.total_nodes);
        let out = backfill_pass(&mut io, &views, &refs, NOW, round.total_nodes, &cfg);
        prop_assert!(
            !certified || out.start_now.is_empty(),
            "io-aware: certified round started {:?}",
            out.start_now
        );

        for cfg_ad in [AdaptiveConfig::paper(round.limit), AdaptiveConfig::naive(round.limit)] {
            let mut ad = AdaptivePolicy::new(cfg_ad);
            ad.begin_round(round.book.clone());
            let certified = ad.no_start_certified(&views, &refs, NOW, round.total_nodes);
            let out = backfill_pass(&mut ad, &views, &refs, NOW, round.total_nodes, &cfg);
            prop_assert!(
                !certified || out.start_now.is_empty(),
                "adaptive (two_group {}): certified round started {:?}",
                cfg_ad.two_group,
                out.start_now
            );
        }
    }

    /// For one queued io-aware job the certificate is exact: it holds if
    /// and only if the job's earliest start is later than `now`.
    fn io_aware_single_job_certificate_is_exact(
        running in prop::vec((job_spec(), 0u64..600), 0..8),
        queue in prop::vec(job_spec(), 1..4),
        limit in (3.0f64..16.0, 0u64..2),
        measured in (0u64..3, 0.0f64..1.0),
        spare_nodes in 0usize..6,
    ) {
        let round = Round::new(&running, &queue, limit, measured, spare_nodes);
        let views = round.views();
        let mut io = IoAwarePolicy::new(IoAwareConfig { limit_bps: round.limit });
        io.begin_round(round.book.clone());
        for job in &round.queue {
            let certified = io.no_start_certified(&views, &[job], NOW, round.total_nodes);
            let mut tracker = io.init_tracker(&views, &[job], NOW, round.total_nodes);
            let start = tracker.earliest_start(job, NOW);
            prop_assert_eq!(
                certified,
                start != NOW,
                "job {}: certificate {certified}, earliest start {start}",
                job.id
            );
        }
    }
}
