//! Random scheduling rounds shared by the property suites: running jobs
//! (some overrunning), a queue, and an estimate book whose entries may
//! be missing, zero, fractional or above the limit, with the measured
//! load below, equal to or above the running jobs' estimates.

use iosched_analytics::JobEstimate;
use iosched_core::EstimateBook;
use iosched_simkit::ids::JobId;
use iosched_simkit::prop;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_slurm::{RunningView, SchedJob};

pub const NOW_S: u64 = 1_000;
pub const NOW: SimTime = SimTime::from_secs(NOW_S);

/// One generated job: nodes, limit (s), estimate kind, estimate fraction.
pub type JobSpec = (usize, u64, u64, f64);

pub fn job_spec() -> impl prop::Strategy<Value = JobSpec> {
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
pub struct Round {
    pub running: Vec<(SchedJob, SimTime)>,
    pub queue: Vec<SchedJob>,
    pub book: EstimateBook,
    pub limit: f64,
    pub total_nodes: usize,
}

impl Round {
    /// `running` pairs a job with how long before [`NOW`] it started (a
    /// job started longer ago than its limit is overrunning); `measured`
    /// picks the measured load below (0), equal to (1) or above (2) the
    /// running estimates, scaled by its fraction.
    pub fn new(
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

    pub fn views(&self) -> Vec<RunningView<'_>> {
        self.running
            .iter()
            .map(|(job, started)| RunningView {
                job,
                started: *started,
            })
            .collect()
    }
}
