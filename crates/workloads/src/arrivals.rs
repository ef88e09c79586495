//! Arrival processes.
//!
//! The paper submits whole workloads at t = 0 (closed-queue experiments).
//! Real clusters see jobs arrive over time; these helpers re-stamp a
//! built workload's submission times so open-queue behaviour (wait-time
//! distributions, steady-state utilisation) can be studied with the same
//! job mixes.

use crate::builder::JobSubmission;
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::{SimDuration, SimTime};

/// Poisson arrivals with the given mean rate (jobs per second), in id
/// order; inter-arrival gaps are exponential draws from `rng`.
pub fn poisson_arrivals(jobs: &mut [JobSubmission], rate_per_sec: f64, rng: &mut SimRng) {
    assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    let mut t = SimTime::ZERO;
    for job in jobs.iter_mut() {
        job.submit = t;
        t += SimDuration::from_secs_f64(rng.exponential(rate_per_sec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkloadBuilder;
    use iosched_cluster::ExecSpec;

    fn jobs(n: usize) -> Vec<JobSubmission> {
        WorkloadBuilder::new()
            .batch(
                n,
                "s",
                ExecSpec::sleep(SimDuration::from_secs(10)),
                SimDuration::from_secs(20),
            )
            .build()
    }

    #[test]
    fn poisson_is_monotone_and_deterministic() {
        let mut a = jobs(50);
        let mut b = jobs(50);
        poisson_arrivals(&mut a, 0.1, &mut SimRng::from_seed(3));
        poisson_arrivals(&mut b, 0.1, &mut SimRng::from_seed(3));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
        }
        for win in a.windows(2) {
            assert!(win[1].submit >= win[0].submit);
        }
        // Mean inter-arrival ≈ 10 s at rate 0.1/s.
        let span = a.last().unwrap().submit.as_secs_f64();
        assert!(span > 200.0 && span < 1200.0, "span {span}");
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        poisson_arrivals(&mut jobs(1), 0.0, &mut SimRng::from_seed(1));
    }
}
