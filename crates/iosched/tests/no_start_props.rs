//! Property tests of the no-start certificate: whenever it holds, a
//! backfill pass on the same inputs starts nothing (io-aware, adaptive
//! two-group and naïve adaptive), and for a single io-aware job it holds
//! exactly when the job cannot start at `now`.
//!
//! The inputs reach the corners the certificate has to count exactly:
//! overrunning running jobs, jobs missing from the book, estimates above
//! the limit, non-integral limits, and measured load below, equal to and
//! above the running jobs' estimates.

use iosched_analytics::JobEstimate;
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_simkit::ids::JobId;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::{prop, prop_assert, prop_assert_eq, props};
use iosched_slurm::{
    backfill_pass, BackfillConfig, ReservationTracker, RunningView, SchedJob, SchedulingPolicy,
};

const NOW_S: u64 = 1_000;
const NOW: SimTime = SimTime::from_secs(NOW_S);

/// One generated job: nodes, limit (s), estimate kind, estimate fraction.
type JobSpec = (usize, u64, u64, f64);

fn job_spec() -> impl prop::Strategy<Value = JobSpec> {
    (1usize..5, 10u64..400, 0u64..5, 0.0f64..1.0)
}

/// The estimate a job's kind asks for against `limit`; `None` leaves the
/// job out of the book (it reads as 0 B/s).
fn estimate(kind: u64, x: f64, limit: f64) -> Option<f64> {
    match kind {
        0 => None,
        1 => Some(0.0),
        // A whole number of quanta.
        2 => Some((x * limit).floor()),
        3 => Some(x * limit),
        // Above the limit: the policies clamp it.
        _ => Some(limit * (1.0 + x)),
    }
}

/// One round's inputs: running jobs with their start times, the queue,
/// and the book covering both.
struct Round {
    running: Vec<(SchedJob, SimTime)>,
    queue: Vec<SchedJob>,
    book: EstimateBook,
    limit: f64,
    total_nodes: usize,
}

impl Round {
    /// `running` pairs a job with how long before [`NOW`] it started (a
    /// job started longer ago than its limit is overrunning); `measured`
    /// picks the measured load below (0), equal to (1) or above (2) the
    /// running estimates, scaled by its fraction.
    fn new(
        running: &[(JobSpec, u64)],
        queue: &[JobSpec],
        (limit, integral): (f64, u64),
        (mode, y): (u64, f64),
        spare_nodes: usize,
    ) -> Round {
        let limit = if integral == 1 { limit.floor() } else { limit };
        let mut book = EstimateBook::new();
        let mut next_id = 0u64;
        let mut make = |&(nodes, limit_s, kind, x): &JobSpec| {
            let id = JobId(next_id);
            next_id += 1;
            if let Some(r) = estimate(kind, x, limit) {
                book.insert(
                    id,
                    JobEstimate {
                        throughput_bps: r,
                        runtime: SimDuration::from_secs(limit_s / 2 + 1),
                    },
                );
            }
            SchedJob::new(
                id,
                format!("j{}", id.0),
                nodes,
                SimDuration::from_secs(limit_s),
                SimTime::ZERO,
            )
        };
        let running: Vec<(SchedJob, SimTime)> = running
            .iter()
            .map(|(spec, ago)| (make(spec), SimTime::from_secs(NOW_S - ago)))
            .collect();
        let queue: Vec<SchedJob> = queue.iter().map(&mut make).collect();
        let sum: f64 = running.iter().map(|(j, _)| book.r(j.id).min(limit)).sum();
        book.measured_total_bps = match mode {
            0 => sum * y,
            1 => sum,
            _ => sum + y * 1.5 * limit,
        };
        let total_nodes = running.iter().map(|(j, _)| j.nodes).sum::<usize>() + spare_nodes;
        Round {
            running,
            queue,
            book,
            limit,
            total_nodes,
        }
    }

    fn views(&self) -> Vec<RunningView<'_>> {
        self.running
            .iter()
            .map(|(job, started)| RunningView {
                job,
                started: *started,
            })
            .collect()
    }
}

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
