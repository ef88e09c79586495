//! The analytics service facade the scheduler talks to.

use crate::estimator::{JobEstimate, JobEstimator};
use iosched_ldms::daemon::HORIZON;
use iosched_ldms::LdmsDaemon;
use iosched_simkit::sym::{Sym, SymbolTable};
use iosched_simkit::time::{SimDuration, SimTime};

/// Trailing window over which `R_now` is averaged.
pub const LOAD_WINDOW: SimDuration = SimDuration::from_secs(30);

// The daemon keeps only `HORIZON` of aggregate samples.
const _: () = assert!(
    LOAD_WINDOW.as_millis() <= HORIZON.as_millis(),
    "the daemon's horizon must cover the load window"
);

/// Service configuration. It has no settings: the estimates are the
/// paper's decaying average at α = 0.5
/// ([`JobEstimator::with_default_decay`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyticsConfig;

/// The analytical services module: job-requirement prediction plus the
/// measured-current-load query (paper Fig. 2, right-hand box).
///
/// The service owns the job-name **symbol table**: callers intern each
/// name once ([`AnalyticsService::intern`]) and query by symbol — a
/// symbol lookup is an array index, with no string allocation or
/// comparison.
pub struct AnalyticsService {
    estimator: JobEstimator,
    symbols: SymbolTable,
}

impl AnalyticsService {
    /// Fresh ("untrained") service.
    pub fn new(_cfg: AnalyticsConfig) -> Self {
        AnalyticsService {
            estimator: JobEstimator::with_default_decay(),
            symbols: SymbolTable::new(),
        }
    }

    /// Intern a job name, returning its symbol. Idempotent; allocates
    /// only the first time a name is seen.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.symbols.intern(name)
    }

    /// Predicted requirements for a job, by interned name — the
    /// scheduler's per-pass fast path. Falls back to the paper's
    /// cold-start behaviour when no similar job has completed
    /// (`Sym::NONE`, or a symbol with no history): assume zero Lustre
    /// throughput (the measured-load compensation in Algorithm 2 covers
    /// the risk) and take the user's requested limit as the runtime
    /// estimate.
    pub fn job_estimate_sym(&self, name: Sym, requested_limit: SimDuration) -> JobEstimate {
        let predicted = if name.is_some() {
            self.estimator.estimate(name)
        } else {
            None
        };
        predicted.unwrap_or(JobEstimate {
            throughput_bps: 0.0,
            runtime: requested_limit,
        })
    }

    /// Measured current total Lustre throughput `R_now` (Algorithm 2,
    /// line 2): the mean of the aggregate samples in the trailing
    /// [`LOAD_WINDOW`].
    pub fn current_load_bps(&self, daemon: &LdmsDaemon, now: SimTime) -> f64 {
        daemon.measured_total_bps(now, LOAD_WINDOW)
    }

    /// Notification that a job completed (paper §III): read the job's
    /// sampled I/O volume from the daemon, derive average throughput and
    /// runtime, and fold them into the job-name estimate.
    pub fn on_job_complete_sym(
        &mut self,
        daemon: &LdmsDaemon,
        job_id: u64,
        name: Sym,
        started: SimTime,
        ended: SimTime,
    ) {
        let runtime = ended.saturating_since(started);
        if runtime.is_zero() {
            return;
        }
        let bytes = daemon.job_bytes(job_id, ended);
        let throughput = bytes / runtime.as_secs_f64();
        self.estimator.observe(name, throughput, runtime);
    }

    /// Pre-train the estimator with a known observation — the paper's
    /// "pre-trained by running jobs in isolation" setup.
    pub fn pretrain(&mut self, name: &str, throughput_bps: f64, runtime: SimDuration) {
        let sym = self.symbols.intern(name);
        self.estimator.observe(sym, throughput_bps, runtime);
    }

    /// Direct access to the estimator: per-name predictions without a
    /// cold-start fallback (the engine's estimate book), diagnostics, tests.
    pub fn estimator(&self) -> &JobEstimator {
        &self.estimator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn untrained() -> AnalyticsService {
        AnalyticsService::new(AnalyticsConfig)
    }

    #[test]
    fn cold_start_assumes_zero_throughput_and_limit_runtime() {
        let mut svc = untrained();
        let limit = SimDuration::from_secs(1800);
        let cold = JobEstimate {
            throughput_bps: 0.0,
            runtime: limit,
        };
        let sym = svc.intern("w8");
        assert_eq!(svc.job_estimate_sym(sym, limit), cold);
        assert_eq!(svc.estimator().estimate(sym), None);
        assert_eq!(svc.job_estimate_sym(Sym::NONE, limit), cold);
    }

    #[test]
    fn pretraining_feeds_estimates() {
        let mut svc = untrained();
        svc.pretrain("w8", 1e9, SimDuration::from_secs(30));
        let sym = svc.intern("w8");
        let est = svc.job_estimate_sym(sym, SimDuration::from_secs(1800));
        assert_eq!(est.throughput_bps, 1e9);
        assert_eq!(est.runtime, SimDuration::from_secs(30));
        // Interning a fresh name gives a cold-start estimate until a
        // completion is observed.
        let fresh = svc.intern("new-job");
        assert_eq!(
            svc.job_estimate_sym(fresh, SimDuration::from_secs(7))
                .runtime,
            SimDuration::from_secs(7)
        );
    }

    #[test]
    fn completion_updates_from_sampled_volume() {
        let mut daemon = LdmsDaemon::new(SimDuration::from_secs(1));
        // Job 5 ("w8") writes at 200 B/s from t=0 to t=10.
        for s in 0..10 {
            daemon.sample(SimTime::from_secs(s), 200.0, &[(5, 200.0)], 1);
        }
        let mut svc = untrained();
        let sym = svc.intern("w8");
        svc.on_job_complete_sym(&daemon, 5, sym, SimTime::ZERO, SimTime::from_secs(10));
        let est = svc.job_estimate_sym(sym, SimDuration::from_secs(999));
        assert!((est.throughput_bps - 200.0).abs() < 1e-6, "{est:?}");
        assert_eq!(est.runtime, SimDuration::from_secs(10));
    }

    #[test]
    fn zero_runtime_completion_ignored() {
        let daemon = LdmsDaemon::new(SimDuration::from_secs(1));
        let mut svc = untrained();
        let sym = svc.intern("w8");
        svc.on_job_complete_sym(&daemon, 1, sym, SimTime::ZERO, SimTime::ZERO);
        assert_eq!(svc.estimator().estimate(sym), None);
    }

    #[test]
    fn current_load_reads_window_average() {
        let mut daemon = LdmsDaemon::new(SimDuration::from_secs(1));
        for s in 0..60 {
            daemon.sample(SimTime::from_secs(s), s as f64, &[], 0);
        }
        let svc = untrained();
        // The 30 s window at t = 59 holds the samples at 29..=59.
        let r = svc.current_load_bps(&daemon, SimTime::from_secs(59));
        assert_eq!(r, 44.0);
    }
}
