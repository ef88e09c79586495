//! Estimate snapshot the policies schedule against.
//!
//! At the beginning of every scheduling round the scheduler obtains the
//! latest job estimates and the measured file-system load from the
//! analytical services (Algorithm 2, lines 1–2). The [`EstimateBook`] is
//! that snapshot: immutable for the duration of the round, so every
//! tracker query within a round sees consistent numbers.
//!
//! The book persists *across* rounds. The analytics predict per job
//! *name* (similar jobs share one estimate), so the engine records each
//! job as a reference to its name and limit at submission, sets a name's
//! prediction when a completion changes it, and removes entries when jobs
//! finish. A completion costs one write however many jobs share the name;
//! a read resolves the reference. Storage is a dense vector indexed by
//! [`JobId`] (engine job ids are small and dense) plus one indexed by
//! name [`Sym`], so the per-query cost on the scheduling hot path is at
//! most two array loads.

use iosched_analytics::JobEstimate;
use iosched_simkit::ids::JobId;
use iosched_simkit::sym::Sym;
use iosched_simkit::time::SimDuration;

/// One job's entry.
#[derive(Clone, Copy, Debug, Default)]
enum Slot {
    #[default]
    Empty,
    /// An estimate recorded for this job alone ([`EstimateBook::insert`]).
    Explicit(JobEstimate),
    /// The job's name and requested limit: reads resolve to the name's
    /// prediction ([`EstimateBook::insert_named`]).
    Named(Sym, SimDuration),
}

// A name reference must cost no more than the estimate it replaces.
const _: () = assert!(std::mem::size_of::<Slot>() <= std::mem::size_of::<Option<JobEstimate>>());

/// Snapshot of `r_j`/`d_j` estimates for all relevant jobs plus the
/// measured current total throughput `R_now`.
#[derive(Clone, Debug, Default)]
pub struct EstimateBook {
    per_job: Vec<Slot>,
    /// Per-name predictions, indexed by [`Sym`]; `None` means no history.
    per_name: Vec<Option<JobEstimate>>,
    entries: usize,
    /// Measured current total Lustre throughput, bytes/s.
    pub measured_total_bps: f64,
}

impl EstimateBook {
    /// Empty book (no estimates, zero measured load).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the estimate for one job, replacing any previous entry.
    pub fn insert(&mut self, job: JobId, estimate: JobEstimate) {
        self.set(job, Slot::Explicit(estimate));
    }

    /// Record that `job` is named `name` and asks for `limit`: it reads
    /// the name's prediction, or the cold start `{0 B/s, limit}` while the
    /// name has none — exactly `AnalyticsService::job_estimate_sym`.
    /// Replaces any previous entry.
    pub fn insert_named(&mut self, job: JobId, name: Sym, limit: SimDuration) {
        self.set(job, Slot::Named(name, limit));
    }

    /// Set the prediction every job named `name` reads, present and
    /// future. A no-op for [`Sym::NONE`], which never has a prediction.
    pub fn set_name_estimate(&mut self, name: Sym, prediction: Option<JobEstimate>) {
        if !name.is_some() {
            return;
        }
        let idx = name.0 as usize;
        if idx >= self.per_name.len() {
            self.per_name.resize(idx + 1, None);
        }
        self.per_name[idx] = prediction;
    }

    fn set(&mut self, job: JobId, slot: Slot) {
        let idx = job.0 as usize;
        if idx >= self.per_job.len() {
            self.per_job.resize(idx + 1, Slot::Empty);
        }
        if matches!(self.per_job[idx], Slot::Empty) {
            self.entries += 1;
        }
        self.per_job[idx] = slot;
    }

    /// Drop a job's entry (the job finished); no-op when absent.
    pub fn remove(&mut self, job: JobId) {
        if let Some(slot) = self.per_job.get_mut(job.0 as usize) {
            if !matches!(std::mem::take(slot), Slot::Empty) {
                self.entries -= 1;
            }
        }
    }

    /// The recorded estimate, if any; a name reference resolves to its
    /// name's prediction or the cold start.
    pub fn get(&self, job: JobId) -> Option<JobEstimate> {
        match *self.per_job.get(job.0 as usize)? {
            Slot::Empty => None,
            Slot::Explicit(estimate) => Some(estimate),
            Slot::Named(name, limit) => Some(
                self.per_name
                    .get(name.0 as usize)
                    .copied()
                    .flatten()
                    .unwrap_or(JobEstimate {
                        throughput_bps: 0.0,
                        runtime: limit,
                    }),
            ),
        }
    }

    /// Estimated throughput `r_j` (bytes/s); 0.0 when the job is unknown —
    /// the paper's cold-start assumption, backed by the measured-load
    /// compensation.
    pub fn r(&self, job: JobId) -> f64 {
        self.get(job).map_or(0.0, |e| e.throughput_bps.max(0.0))
    }

    /// Estimated runtime `d_j`; zero when unknown (callers fall back to
    /// the requested limit where the algorithm needs a duration).
    pub fn d(&self, job: JobId) -> SimDuration {
        self.get(job).map_or(SimDuration::ZERO, |e| e.runtime)
    }

    /// [`EstimateBook::r`], and the estimated runtime or `limit` when
    /// there is no estimate (or a degenerate zero estimate), from one
    /// lookup.
    pub fn r_and_d_or(&self, job: JobId, limit: SimDuration) -> (f64, SimDuration) {
        match self.get(job) {
            None => (0.0, limit),
            Some(e) if e.runtime.is_zero() => (e.throughput_bps.max(0.0), limit),
            Some(e) => (e.throughput_bps.max(0.0), e.runtime),
        }
    }

    /// Number of jobs with recorded estimates.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no per-job estimates were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_for_unknown_jobs() {
        let book = EstimateBook::new();
        assert_eq!(book.r(JobId(1)), 0.0);
        assert_eq!(book.d(JobId(1)), SimDuration::ZERO);
        assert_eq!(
            book.r_and_d_or(JobId(1), SimDuration::from_secs(100)),
            (0.0, SimDuration::from_secs(100))
        );
        assert!(book.is_empty());
        assert_eq!(book.get(JobId(1)), None);
    }

    #[test]
    fn recorded_estimates_round_trip() {
        let mut book = EstimateBook::new();
        book.insert(
            JobId(1),
            JobEstimate {
                throughput_bps: 5.0,
                runtime: SimDuration::from_secs(60),
            },
        );
        book.measured_total_bps = 99.0;
        assert_eq!(book.r(JobId(1)), 5.0);
        assert_eq!(book.d(JobId(1)), SimDuration::from_secs(60));
        assert_eq!(
            book.r_and_d_or(JobId(1), SimDuration::from_secs(100)),
            (5.0, SimDuration::from_secs(60))
        );
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn insert_replaces_and_remove_forgets() {
        let mut book = EstimateBook::new();
        let est = |r: f64| JobEstimate {
            throughput_bps: r,
            runtime: SimDuration::from_secs(10),
        };
        book.insert(JobId(4), est(1.0));
        book.insert(JobId(4), est(2.0));
        assert_eq!(book.len(), 1);
        assert_eq!(book.r(JobId(4)), 2.0);
        book.remove(JobId(4));
        assert!(book.is_empty());
        assert_eq!(book.r(JobId(4)), 0.0);
        // Removing an absent job (in or out of range) is a no-op.
        book.remove(JobId(4));
        book.remove(JobId(1000));
        assert!(book.is_empty());
    }

    #[test]
    fn zero_runtime_estimate_falls_back_to_limit() {
        // A degenerate d̂ = 0 (e.g. a job that was killed instantly) must
        // not produce zero-length reservations: the runtime falls back.
        let mut book = EstimateBook::new();
        book.insert(
            JobId(3),
            JobEstimate {
                throughput_bps: 1.0,
                runtime: SimDuration::ZERO,
            },
        );
        assert_eq!(
            book.r_and_d_or(JobId(3), SimDuration::from_secs(50)),
            (1.0, SimDuration::from_secs(50))
        );
    }

    #[test]
    fn negative_throughput_estimates_clamp_to_zero() {
        let mut book = EstimateBook::new();
        book.insert(
            JobId(2),
            JobEstimate {
                throughput_bps: -3.0,
                runtime: SimDuration::from_secs(1),
            },
        );
        assert_eq!(book.r(JobId(2)), 0.0);
    }

    fn est(r: f64, secs: u64) -> JobEstimate {
        JobEstimate {
            throughput_bps: r,
            runtime: SimDuration::from_secs(secs),
        }
    }

    #[test]
    fn named_jobs_cold_start_on_their_own_limits() {
        let mut book = EstimateBook::new();
        book.insert_named(JobId(1), Sym(0), SimDuration::from_secs(100));
        book.insert_named(JobId(2), Sym(0), SimDuration::from_secs(300));
        assert_eq!(book.get(JobId(1)), Some(est(0.0, 100)));
        assert_eq!(book.get(JobId(2)), Some(est(0.0, 300)));
        // A prediction for another name does not touch them.
        book.set_name_estimate(Sym(1), Some(est(9.0, 9)));
        assert_eq!(book.d(JobId(2)), SimDuration::from_secs(300));
    }

    #[test]
    fn one_name_update_reaches_every_named_job() {
        let mut book = EstimateBook::new();
        book.insert_named(JobId(1), Sym(3), SimDuration::from_secs(100));
        book.insert_named(JobId(2), Sym(3), SimDuration::from_secs(300));
        book.set_name_estimate(Sym(3), Some(est(7.0, 40)));
        for id in [JobId(1), JobId(2)] {
            assert_eq!(book.r(id), 7.0);
            assert_eq!(book.d(id), SimDuration::from_secs(40));
        }
        // Losing the prediction falls back to each job's own limit.
        book.set_name_estimate(Sym(3), None);
        assert_eq!(book.d(JobId(2)), SimDuration::from_secs(300));
    }

    #[test]
    fn explicit_entries_ignore_name_updates() {
        let mut book = EstimateBook::new();
        book.insert(JobId(1), est(5.0, 60));
        book.set_name_estimate(Sym(0), Some(est(8.0, 80)));
        assert_eq!(book.get(JobId(1)), Some(est(5.0, 60)));
        // An explicit insert replaces a name reference, and back.
        book.insert_named(JobId(2), Sym(0), SimDuration::from_secs(100));
        book.insert(JobId(2), est(1.0, 10));
        assert_eq!(book.get(JobId(2)), Some(est(1.0, 10)));
        book.insert_named(JobId(2), Sym(0), SimDuration::from_secs(100));
        assert_eq!(book.get(JobId(2)), Some(est(8.0, 80)));
        assert_eq!(book.len(), 2);
    }

    #[test]
    fn prediction_set_before_admission_applies() {
        let mut book = EstimateBook::new();
        book.set_name_estimate(Sym(5), Some(est(2.0, 20)));
        book.insert_named(JobId(9), Sym(5), SimDuration::from_secs(100));
        assert_eq!(book.get(JobId(9)), Some(est(2.0, 20)));
        // Sym::NONE never resolves to a prediction.
        book.set_name_estimate(Sym::NONE, Some(est(2.0, 20)));
        book.insert_named(JobId(10), Sym::NONE, SimDuration::from_secs(100));
        assert_eq!(book.get(JobId(10)), Some(est(0.0, 100)));
    }

    #[test]
    fn one_lookup_resolves_every_kind_of_slot() {
        let mut book = EstimateBook::new();
        book.insert(JobId(1), est(5.0, 60));
        book.insert(JobId(2), est(-3.0, 0));
        book.insert_named(JobId(3), Sym(0), SimDuration::from_secs(100));
        book.insert_named(JobId(4), Sym(1), SimDuration::from_secs(200));
        book.set_name_estimate(Sym(1), Some(est(7.0, 40)));
        let limit = SimDuration::from_secs(500);
        let secs = SimDuration::from_secs;
        let want = [
            (0, 0.0, limit),
            (1, 5.0, secs(60)),
            (2, 0.0, limit),
            (3, 0.0, secs(100)),
            (4, 7.0, secs(40)),
        ];
        for (id, r, d) in want {
            assert_eq!(book.r_and_d_or(JobId(id), limit), (r, d), "job {id}");
            assert_eq!(book.r(JobId(id)), r, "job {id}");
        }
    }

    #[test]
    fn len_and_remove_count_both_kinds_of_slot() {
        let mut book = EstimateBook::new();
        book.insert(JobId(1), est(1.0, 10));
        book.insert_named(JobId(2), Sym(0), SimDuration::from_secs(100));
        book.insert_named(JobId(2), Sym(1), SimDuration::from_secs(100));
        assert_eq!(book.len(), 2);
        book.remove(JobId(2));
        assert_eq!(book.len(), 1);
        assert_eq!(book.get(JobId(2)), None);
        book.remove(JobId(1));
        assert!(book.is_empty());
    }

    #[test]
    fn negative_name_prediction_reads_as_zero_throughput() {
        let mut book = EstimateBook::new();
        book.insert_named(JobId(1), Sym(0), SimDuration::from_secs(100));
        book.set_name_estimate(Sym(0), Some(est(-3.0, 30)));
        assert_eq!(book.r(JobId(1)), 0.0);
        assert_eq!(book.d(JobId(1)), SimDuration::from_secs(30));
    }
}
