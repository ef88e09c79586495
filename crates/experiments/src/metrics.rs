//! Scheduling-quality metrics derived from an experiment's job records.
//!
//! Beyond the paper's makespan comparisons, these are the standard
//! parallel-job-scheduling metrics (wait time, bounded slowdown, per-class
//! breakdowns) used to analyse fairness side-effects of I/O-aware
//! policies — e.g. how much extra queueing the throttled write jobs pay
//! for the global speedup.

use crate::driver::{ExperimentResult, JobRecord};
use iosched_simkit::stats::{median, OnlineStats};
use std::collections::BTreeMap;

/// Threshold below which runtimes are clamped in the bounded-slowdown
/// metric (the conventional 10 s).
pub const BSLD_TAU_SECS: f64 = 10.0;

/// Aggregate scheduling metrics for a set of job records.
#[derive(Clone, Debug)]
pub struct SchedulingMetrics {
    pub jobs: usize,
    pub mean_wait_secs: f64,
    pub median_wait_secs: f64,
    pub max_wait_secs: f64,
    pub mean_runtime_secs: f64,
    /// Mean bounded slowdown: `max(1, (wait + run) / max(run, τ))`.
    pub mean_bounded_slowdown: f64,
}

/// Compute metrics over a slice of job records; `None` if empty.
pub fn scheduling_metrics(jobs: &[JobRecord]) -> Option<SchedulingMetrics> {
    if jobs.is_empty() {
        return None;
    }
    let mut wait = OnlineStats::new();
    let mut run = OnlineStats::new();
    let mut bsld = OnlineStats::new();
    let mut waits = Vec::with_capacity(jobs.len());
    for j in jobs {
        let w = j.wait().as_secs_f64();
        let r = j.runtime().as_secs_f64();
        wait.push(w);
        run.push(r);
        waits.push(w);
        bsld.push(((w + r) / r.max(BSLD_TAU_SECS)).max(1.0));
    }
    Some(SchedulingMetrics {
        jobs: jobs.len(),
        mean_wait_secs: wait.mean(),
        median_wait_secs: median(&waits).expect("non-empty"),
        max_wait_secs: wait.max(),
        mean_runtime_secs: run.mean(),
        mean_bounded_slowdown: bsld.mean(),
    })
}

/// Metrics per job name (the workloads' job classes).
pub fn per_class_metrics(res: &ExperimentResult) -> BTreeMap<String, SchedulingMetrics> {
    let mut by_name: BTreeMap<String, Vec<JobRecord>> = BTreeMap::new();
    for j in &res.jobs {
        by_name.entry(j.name.clone()).or_default().push(j.clone());
    }
    by_name
        .into_iter()
        .filter_map(|(name, jobs)| scheduling_metrics(&jobs).map(|m| (name, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::ids::JobId;
    use iosched_simkit::series::TimeSeries;
    use iosched_simkit::time::SimTime;

    fn rec(id: u64, name: &str, submit: u64, start: u64, end: u64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            name: name.into(),
            submit: SimTime::from_secs(submit),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
        }
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(scheduling_metrics(&[]).is_none());
    }

    #[test]
    fn basic_aggregates() {
        let jobs = [
            rec(1, "a", 0, 10, 110), // wait 10, run 100
            rec(2, "a", 0, 30, 80),  // wait 30, run 50
        ];
        let m = scheduling_metrics(&jobs).unwrap();
        assert_eq!(m.jobs, 2);
        assert_eq!(m.mean_wait_secs, 20.0);
        assert_eq!(m.median_wait_secs, 20.0);
        assert_eq!(m.max_wait_secs, 30.0);
        assert_eq!(m.mean_runtime_secs, 75.0);
        // bsld: (10+100)/100 = 1.1; (30+50)/50 = 1.6 → mean 1.35
        assert!((m.mean_bounded_slowdown - 1.35).abs() < 1e-9);
    }

    #[test]
    fn bounded_slowdown_clamps_short_jobs() {
        // A 1 s job with 9 s wait: raw slowdown 10, bounded uses τ = 10 →
        // (9+1)/10 = 1.0.
        let jobs = [rec(1, "a", 0, 9, 10)];
        let m = scheduling_metrics(&jobs).unwrap();
        assert_eq!(m.mean_bounded_slowdown, 1.0);
    }

    #[test]
    fn per_class_splits_by_name() {
        let res = ExperimentResult {
            makespan_secs: 100.0,
            throughput_trace: TimeSeries::new(),
            nodes_trace: TimeSeries::new(),
            fatigue_trace: TimeSeries::new(),
            streams_trace: TimeSeries::new(),
            jobs: vec![
                rec(1, "write", 0, 0, 50),
                rec(2, "write", 0, 10, 60),
                rec(3, "sleep", 0, 0, 100),
            ],
            sched_passes: 1,
            rounds_elided: 0,
            rounds_certified: 0,
            loop_iterations: 0,
            label: "t".into(),
        };
        let per = per_class_metrics(&res);
        assert_eq!(per.len(), 2);
        assert_eq!(per["write"].jobs, 2);
        assert_eq!(per["sleep"].jobs, 1);
    }
}
