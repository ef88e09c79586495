//! Decaying-average estimator of per-job-type resource requirements.

use iosched_simkit::sym::Sym;
use iosched_simkit::time::SimDuration;

/// Estimated resource requirements of a job (the paper's `r_j`, `d_j`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobEstimate {
    /// Estimated average Lustre throughput over the job's runtime,
    /// bytes/s.
    pub throughput_bps: f64,
    /// Estimated runtime.
    pub runtime: SimDuration,
}

#[derive(Clone, Debug)]
struct State {
    throughput_bps: f64,
    runtime_secs: f64,
}

/// Exponentially-decaying weighted average of historical usage, keyed by
/// interned job name ("similar jobs"). A new observation contributes
/// weight `alpha` and the accumulated history `1 − alpha`, so recent jobs
/// dominate — which is what lets the estimates track congestion-dependent
/// throughput (paper §VI: the estimate falls as the file system congests,
/// admitting more jobs, until the loop stabilises).
///
/// Symbols are dense (interned from 0 upward by the symbol table that
/// owns the names), so the table is a plain vector indexed by symbol —
/// lookups on the scheduler's hot path are O(1) with no string hashing
/// or comparison.
#[derive(Clone, Debug)]
pub struct JobEstimator {
    alpha: f64,
    table: Vec<Option<State>>,
}

impl JobEstimator {
    /// `alpha ∈ (0, 1]` is the weight of the newest observation.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        JobEstimator {
            alpha,
            table: Vec::new(),
        }
    }

    /// The paper's prototype behaviour: recent jobs count substantially
    /// more than old ones.
    pub fn with_default_decay() -> Self {
        JobEstimator::new(0.5)
    }

    /// Fold in a completed job's measured usage.
    pub fn observe(&mut self, name: Sym, throughput_bps: f64, runtime: SimDuration) {
        assert!(name.is_some(), "cannot observe the null symbol");
        let throughput_bps = throughput_bps.max(0.0);
        let runtime_secs = runtime.as_secs_f64();
        let idx = name.0 as usize;
        if idx >= self.table.len() {
            self.table.resize(idx + 1, None);
        }
        match &mut self.table[idx] {
            Some(s) => {
                s.throughput_bps =
                    (1.0 - self.alpha) * s.throughput_bps + self.alpha * throughput_bps;
                s.runtime_secs = (1.0 - self.alpha) * s.runtime_secs + self.alpha * runtime_secs;
            }
            slot @ None => {
                *slot = Some(State {
                    throughput_bps,
                    runtime_secs,
                });
            }
        }
    }

    /// Current estimate for a job name, if any history exists.
    pub fn estimate(&self, name: Sym) -> Option<JobEstimate> {
        self.table
            .get(name.0 as usize)?
            .as_ref()
            .map(|s| JobEstimate {
                throughput_bps: s.throughput_bps,
                runtime: SimDuration::from_secs_f64(s.runtime_secs),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W8: Sym = Sym(0);
    const SLEEP: Sym = Sym(1);

    #[test]
    fn unknown_name_has_no_estimate() {
        let e = JobEstimator::with_default_decay();
        assert_eq!(e.estimate(W8), None);
    }

    #[test]
    fn first_observation_is_taken_verbatim() {
        let mut e = JobEstimator::new(0.5);
        e.observe(W8, 100.0, SimDuration::from_secs(40));
        let est = e.estimate(W8).unwrap();
        assert_eq!(est.throughput_bps, 100.0);
        assert_eq!(est.runtime, SimDuration::from_secs(40));
    }

    #[test]
    fn ema_tracks_recent_observations() {
        let mut e = JobEstimator::new(0.5);
        e.observe(W8, 100.0, SimDuration::from_secs(40));
        e.observe(W8, 50.0, SimDuration::from_secs(80));
        let est = e.estimate(W8).unwrap();
        assert!((est.throughput_bps - 75.0).abs() < 1e-9);
        assert!((est.runtime.as_secs_f64() - 60.0).abs() < 1e-3);
        // Convergence toward a persistent new level.
        for _ in 0..20 {
            e.observe(W8, 10.0, SimDuration::from_secs(10));
        }
        let est = e.estimate(W8).unwrap();
        assert!((est.throughput_bps - 10.0).abs() < 0.01);
    }

    #[test]
    fn names_are_independent() {
        let mut e = JobEstimator::new(0.5);
        e.observe(W8, 100.0, SimDuration::from_secs(40));
        e.observe(SLEEP, 0.0, SimDuration::from_secs(600));
        assert_eq!(e.estimate(SLEEP).unwrap().throughput_bps, 0.0);
        assert_eq!(e.estimate(W8).unwrap().throughput_bps, 100.0);
    }

    #[test]
    fn sparse_symbols_leave_gaps_without_estimates() {
        let mut e = JobEstimator::new(0.5);
        e.observe(Sym(5), 100.0, SimDuration::from_secs(40));
        assert_eq!(e.estimate(Sym(3)), None);
        assert_eq!(e.estimate(Sym(99)), None);
        assert!(e.estimate(Sym(5)).is_some());
    }

    #[test]
    fn negative_throughput_clamped() {
        let mut e = JobEstimator::new(1.0);
        e.observe(W8, -5.0, SimDuration::from_secs(1));
        assert_eq!(e.estimate(W8).unwrap().throughput_bps, 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_alpha_panics() {
        JobEstimator::new(0.0);
    }

    #[test]
    #[should_panic]
    fn observing_null_symbol_panics() {
        let mut e = JobEstimator::new(0.5);
        e.observe(Sym::NONE, 1.0, SimDuration::from_secs(1));
    }
}
