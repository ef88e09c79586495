//! The sampling daemon.
//!
//! In the real deployment an LDMS daemon on every compute node reads the
//! Lustre-client (`llite`) counters once per second and streams them to
//! the store. In simulation the experiment driver plays the role of the
//! transport: at each sampling tick it hands the daemon the current
//! file-system load (aggregate and per job). The daemon keeps only what
//! the analytics read: the trailing [`HORIZON`] of aggregate samples, and
//! one running integral of the sampled rate per tracked job.

use iosched_simkit::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// How much aggregate-throughput history the daemon keeps. Every window
/// passed to [`LdmsDaemon::measured_total_bps`] must lie inside it.
pub const HORIZON: SimDuration = SimDuration::from_secs(120);

/// One job's sampled I/O so far: the bytes integrated through its last
/// sample, and that sample's time and rate.
#[derive(Clone, Copy, Debug)]
struct JobIo {
    bytes: f64,
    time: SimTime,
    rate: f64,
}

/// Sampling daemon state: the load window, the per-job integrals and the
/// sampling cadence.
pub struct LdmsDaemon {
    period: SimDuration,
    next_sample: SimTime,
    /// The aggregate samples of the trailing `HORIZON`, pruned on append.
    recent_total: VecDeque<(SimTime, f64)>,
    /// Running integral of every job sampled since it was last forgotten.
    jobs: BTreeMap<u64, JobIo>,
}

impl LdmsDaemon {
    /// A daemon sampling every `period` (paper setup: 1 s).
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        LdmsDaemon {
            period,
            next_sample: SimTime::ZERO,
            recent_total: VecDeque::new(),
            jobs: BTreeMap::new(),
        }
    }

    /// Sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The next instant a sample is due.
    pub fn next_sample_at(&self) -> SimTime {
        self.next_sample
    }

    /// Record one sampling tick at `t` (non-decreasing across calls) and
    /// advance the sampling clock. `total_bps` is the aggregate
    /// file-system throughput; `per_job_bps` lists jobs' current
    /// throughputs.
    ///
    /// Hold rule: a job's sampled rate holds until its next sample or its
    /// end. A job left out of `per_job_bps` therefore keeps its last
    /// rate; only a job listed at 0.0 stops accruing bytes. A job that
    /// writes and then computes without I/O is left out once its streams
    /// finish, so its volume counts its last write rate through the
    /// compute phase.
    ///
    /// `busy_nodes` has no effect. It is kept so that perfbench's mirror,
    /// the only caller that passes a node count, compiles unchanged.
    pub fn sample(
        &mut self,
        t: SimTime,
        total_bps: f64,
        per_job_bps: &[(u64, f64)],
        _busy_nodes: usize,
    ) {
        if let Some(&(last, _)) = self.recent_total.back() {
            assert!(t >= last, "samples must arrive in time order");
        }
        for &(job, rate) in per_job_bps {
            self.jobs
                .entry(job)
                .and_modify(|io| {
                    io.bytes += io.rate * t.saturating_since(io.time).as_secs_f64();
                    io.time = t;
                    io.rate = rate;
                })
                .or_insert(JobIo {
                    bytes: 0.0,
                    time: t,
                    rate,
                });
        }
        self.recent_total.push_back((t, total_bps));
        let keep_from = t.as_millis().saturating_sub(HORIZON.as_millis());
        while let Some(&(ft, _)) = self.recent_total.front() {
            if ft.as_millis() >= keep_from {
                break;
            }
            self.recent_total.pop_front();
        }
        self.next_sample = t + self.period;
    }

    /// Has no effect: the daemon's state is the load window plus one
    /// integral per tracked job, so there is no sample history to
    /// retain. Kept so that perfbench's mirror, its only caller, compiles
    /// unchanged.
    pub fn set_retention(&mut self, _horizon: SimDuration, _bucket_ms: u64) {}

    /// Mean aggregate throughput of the samples in `[now − window, now]`
    /// (the measured `R_now` of paper Algorithm 2, line 2). Returns 0.0
    /// when no samples exist in the window (cold start). `now` must not
    /// precede the latest sample.
    ///
    /// # Panics
    /// If `window` exceeds [`HORIZON`].
    pub fn measured_total_bps(&self, now: SimTime, window: SimDuration) -> f64 {
        assert!(
            window <= HORIZON,
            "load window {window} outruns the horizon"
        );
        let from = SimTime::from_millis(now.as_millis().saturating_sub(window.as_millis()));
        let to = now + SimDuration::from_millis(1);
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.recent_total {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Bytes attributed to `job` by its samples through `end`, with each
    /// sampled rate held until the next sample (see [`Self::sample`]):
    /// the measured volume used to estimate `r_j`. `end` must not precede
    /// the job's latest sample; 0.0 for a job never sampled.
    pub fn job_bytes(&self, job: u64, end: SimTime) -> f64 {
        self.jobs.get(&job).map_or(0.0, |io| {
            io.bytes + io.rate * end.saturating_since(io.time).as_secs_f64()
        })
    }

    /// Stop tracking `job` (it finished): its integral is dropped, and a
    /// later sample of the same id starts a new one.
    pub fn forget(&mut self, job: u64) {
        self.jobs.remove(&job);
    }

    /// Number of jobs with a running integral.
    pub fn tracked_jobs(&self) -> usize {
        self.jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::{prop, prop_assert_eq, props};

    #[test]
    fn sampling_advances_clock() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        assert_eq!(d.next_sample_at(), SimTime::ZERO);
        d.sample(SimTime::ZERO, 5.0, &[(1, 5.0)], 3);
        assert_eq!(d.next_sample_at(), SimTime::from_secs(1));
        assert_eq!(d.tracked_jobs(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_sample_panics() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.sample(SimTime::from_secs(5), 1.0, &[], 0);
        d.sample(SimTime::from_secs(3), 1.0, &[], 0);
    }

    #[test]
    fn windowed_total_average() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        for s in 0..10 {
            d.sample(SimTime::from_secs(s), s as f64, &[], 0);
        }
        // The trailing 4 s window at t = 9 holds the samples at 5..=9.
        let avg = d.measured_total_bps(SimTime::from_secs(9), SimDuration::from_secs(4));
        assert!((avg - 7.0).abs() < 1e-9, "avg {avg}");
        // Cold start: empty window.
        let d2 = LdmsDaemon::new(SimDuration::from_secs(1));
        assert_eq!(
            d2.measured_total_bps(SimTime::from_secs(9), SimDuration::from_secs(4)),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "outruns the horizon")]
    fn window_past_the_horizon_panics() {
        let d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.measured_total_bps(SimTime::ZERO, HORIZON + SimDuration::from_millis(1));
    }

    #[test]
    fn job_bytes_integrates_samples() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        // Job 7 writes at 100 B/s for 5 samples.
        for s in 0..5 {
            d.sample(SimTime::from_secs(s), 100.0, &[(7, 100.0)], 1);
        }
        let bytes = d.job_bytes(7, SimTime::from_secs(5));
        assert!((bytes - 500.0).abs() < 1e-9, "bytes {bytes}");
        assert_eq!(d.job_bytes(8, SimTime::from_secs(5)), 0.0);
        d.forget(7);
        assert_eq!(d.job_bytes(7, SimTime::from_secs(5)), 0.0);
        assert_eq!(d.tracked_jobs(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        LdmsDaemon::new(SimDuration::ZERO);
    }

    #[test]
    fn sparse_samples_average_what_exists() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        // Only two samples land in a 30 s window.
        d.sample(SimTime::from_secs(0), 4.0, &[], 1);
        d.sample(SimTime::from_secs(29), 8.0, &[], 1);
        let avg = d.measured_total_bps(SimTime::from_secs(29), SimDuration::from_secs(30));
        assert_eq!(avg, 6.0);
        // A window that covers no samples returns 0.
        assert_eq!(
            d.measured_total_bps(SimTime::from_secs(200), SimDuration::from_secs(10)),
            0.0
        );
    }

    /// A job left out of a sample keeps its last rate; a job listed at
    /// 0.0 stops accruing.
    #[test]
    fn omitted_job_holds_its_last_rate() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.sample(SimTime::ZERO, 30.0, &[(1, 10.0), (2, 10.0)], 2);
        // At t = 2 job 1 is left out and job 2 reports no I/O.
        d.sample(SimTime::from_secs(2), 0.0, &[(2, 0.0)], 2);
        let end = SimTime::from_secs(10);
        assert_eq!(d.job_bytes(1, end), 100.0);
        assert_eq!(d.job_bytes(2, end), 20.0);
        // Job 1 comes back at 5 B/s at t = 6: 10 B/s held through [0, 6).
        d.sample(SimTime::from_secs(6), 5.0, &[(1, 5.0)], 2);
        assert_eq!(d.job_bytes(1, end), 60.0 + 20.0);
    }

    /// A job's volume counts all its samples, however old, whatever
    /// retention is asked for: a retention that evicted old samples would
    /// cut the first part of a long job's volume. The load window stays
    /// bounded by the horizon.
    #[test]
    fn long_job_volume_survives_retention() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.set_retention(SimDuration::from_secs(60), 10_000);
        for s in 0..3600 {
            d.sample(SimTime::from_secs(s), 1.0, &[(1, 1.0)], 1);
        }
        assert_eq!(d.job_bytes(1, SimTime::from_secs(3600)), 3600.0);
        assert!(d.recent_total.len() <= 121, "{}", d.recent_total.len());
        assert_eq!(
            d.measured_total_bps(SimTime::from_secs(3599), SimDuration::from_secs(30)),
            1.0
        );
    }

    /// One sampling tick of the model streams: the time step in 0.5 s
    /// units (0 repeats the timestamp), the aggregate rate, the jobs
    /// listed (id, rate selector, rate; a selector of 0 lists the job at
    /// 0.0), and a job to forget first when the last field is below 5.
    type Tick = (u64, f64, Vec<(u64, u64, f64)>, u64);

    fn ticks() -> impl prop::Strategy<Value = Vec<Tick>> {
        prop::vec(
            (
                0u64..5,
                0.0f64..50.0,
                prop::vec((0u64..5, 0u64..3, 0.0f64..20.0), 0..5),
                0u64..30,
            ),
            0..160,
        )
    }

    /// The Riemann sum over one job's full sample history, as a record
    /// store computes it: each value held until the next sample, the
    /// last one until `end`.
    fn integrate(samples: &[(SimTime, f64)], end: SimTime) -> f64 {
        let mut acc = 0.0;
        let mut prev: Option<(SimTime, f64)> = None;
        for &(t, v) in samples {
            if let Some((pt, pv)) = prev {
                acc += pv * (t.saturating_since(pt)).as_secs_f64();
            }
            prev = Some((t, v));
        }
        if let Some((pt, pv)) = prev {
            acc += pv * (end.saturating_since(pt)).as_secs_f64();
        }
        acc
    }

    props! {
        #![cases(128)]

        /// The running integrals and the load window agree bitwise with
        /// a model that keeps every sample: the Riemann sum of each job's
        /// samples since it was last forgotten, and the plain mean of the
        /// aggregate samples in the window. Jobs drop out and come back,
        /// rates are often zero, and timestamps repeat.
        fn integrals_and_window_match_the_full_history(
            steps in ticks(),
            extra_ms in 0u64..3_000,
            window_s in 0u64..121,
        ) {
            let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
            let mut totals: Vec<(SimTime, f64)> = Vec::new();
            let mut history: Vec<Vec<(SimTime, f64)>> = vec![Vec::new(); 5];
            let mut now_ms = 0u64;
            for (dt, total, listed, forget) in steps {
                if forget < 5 {
                    d.forget(forget);
                    history[forget as usize].clear();
                }
                now_ms += dt * 500;
                let now = SimTime::from_millis(now_ms);
                let per_job: Vec<(u64, f64)> = listed
                    .iter()
                    .map(|&(job, sel, rate)| (job, if sel == 0 { 0.0 } else { rate }))
                    .collect();
                d.sample(now, total, &per_job, 0);
                totals.push((now, total));
                for &(job, rate) in &per_job {
                    history[job as usize].push((now, rate));
                }
                let end = SimTime::from_millis(now_ms + extra_ms);
                for (job, samples) in history.iter().enumerate() {
                    prop_assert_eq!(
                        d.job_bytes(job as u64, end).to_bits(),
                        integrate(samples, end).to_bits(),
                        "job {job} at {now}"
                    );
                }
                let tracked = history.iter().filter(|h| !h.is_empty()).count();
                prop_assert_eq!(d.tracked_jobs(), tracked);
            }
            let now = SimTime::from_millis(now_ms);
            let window = SimDuration::from_secs(window_s);
            let from = SimTime::from_millis(now_ms.saturating_sub(window.as_millis()));
            let (mut sum, mut n) = (0.0, 0usize);
            for &(t, v) in &totals {
                if t >= from && t <= now {
                    sum += v;
                    n += 1;
                }
            }
            let mean = if n == 0 { 0.0 } else { sum / n as f64 };
            prop_assert_eq!(d.measured_total_bps(now, window).to_bits(), mean.to_bits());
        }
    }
}
