//! Workload assembly.

use iosched_cluster::ExecSpec;
use iosched_simkit::ids::JobId;
use iosched_simkit::time::{SimDuration, SimTime};

/// One job as submitted to the resource manager: scheduler-visible
/// metadata plus the execution behaviour the cluster simulator runs.
#[derive(Clone, Debug)]
pub struct JobSubmission {
    pub id: JobId,
    /// Job name — the "similar jobs" key for the analytics.
    pub name: String,
    /// What the job actually does.
    pub exec: ExecSpec,
    /// User-requested runtime limit `L_j`.
    pub limit: SimDuration,
    /// Submission time `s_j`.
    pub submit: SimTime,
    /// Administrative priority (0 by default; only meaningful when the
    /// driver orders the queue by priority).
    pub priority: i64,
    /// Must be empty: no job waits on another, and the engine refuses a
    /// non-empty list. Kept for perfbench's mirror of the event loop,
    /// which reads it, until ROADMAP item 1b deletes the mirror.
    pub after: Vec<JobId>,
}

/// Fluent builder producing a flat, FIFO-ordered submission list.
///
/// Jobs are assigned consecutive ids in build order; all jobs in one
/// `batch` share a name, exec spec and limit. `at` sets the submission
/// time for subsequent batches (the paper submits whole workloads at
/// t = 0, which is the default).
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    jobs: Vec<JobSubmission>,
    clock: SimTime,
    next_id: u64,
    priority: i64,
}

impl WorkloadBuilder {
    /// Empty workload starting at t = 0 with ids from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the submission time for subsequent batches.
    pub fn at(mut self, t: SimTime) -> Self {
        self.clock = t;
        self
    }

    /// Set the administrative priority for subsequent batches.
    pub fn priority(mut self, p: i64) -> Self {
        self.priority = p;
        self
    }

    /// Append `count` identical jobs.
    pub fn batch(mut self, count: usize, name: &str, exec: ExecSpec, limit: SimDuration) -> Self {
        exec.validate().expect("invalid exec spec in workload");
        for _ in 0..count {
            self.jobs.push(JobSubmission {
                id: JobId(self.next_id),
                name: name.to_string(),
                exec: exec.clone(),
                limit,
                submit: self.clock,
                priority: self.priority,
                after: Vec::new(),
            });
            self.next_id += 1;
        }
        self
    }

    /// Repeat a wave-building closure `n` times (the paper's waves).
    pub fn waves(mut self, n: usize, wave: impl Fn(Self) -> Self) -> Self {
        for _ in 0..n {
            self = wave(self);
        }
        self
    }

    /// Finish and return the submission list.
    pub fn build(self) -> Vec<JobSubmission> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::units::gib;

    #[test]
    fn batches_assign_sequential_ids() {
        let w = WorkloadBuilder::new()
            .batch(
                3,
                "a",
                ExecSpec::sleep(SimDuration::from_secs(1)),
                SimDuration::from_secs(2),
            )
            .batch(
                2,
                "b",
                ExecSpec::write_xn(1, gib(1.0)),
                SimDuration::from_secs(5),
            )
            .build();
        assert_eq!(w.len(), 5);
        assert_eq!(w[0].id, JobId(0));
        assert_eq!(w[4].id, JobId(4));
        assert_eq!(w[3].name, "b");
        assert!(w.iter().all(|j| j.submit == SimTime::ZERO));
    }

    #[test]
    fn waves_repeat_batches() {
        let w = WorkloadBuilder::new()
            .waves(3, |b| {
                b.batch(
                    2,
                    "x",
                    ExecSpec::sleep(SimDuration::from_secs(1)),
                    SimDuration::from_secs(2),
                )
            })
            .build();
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn at_staggers_submissions() {
        let w = WorkloadBuilder::new()
            .batch(
                1,
                "a",
                ExecSpec::sleep(SimDuration::from_secs(1)),
                SimDuration::from_secs(2),
            )
            .at(SimTime::from_secs(100))
            .batch(
                1,
                "b",
                ExecSpec::sleep(SimDuration::from_secs(1)),
                SimDuration::from_secs(2),
            )
            .build();
        assert_eq!(w[0].submit, SimTime::ZERO);
        assert_eq!(w[1].submit, SimTime::from_secs(100));
    }

    #[test]
    #[should_panic]
    fn invalid_exec_spec_rejected() {
        let bad = ExecSpec {
            nodes: 0,
            phases: vec![],
        };
        WorkloadBuilder::new().batch(1, "bad", bad, SimDuration::from_secs(1));
    }
}
