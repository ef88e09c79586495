//! Steady-state throughput probes — the measurement behind the paper's
//! Fig. 4 ("Lustre total throughput as the number of concurrent write×8
//! jobs varies from 0 to 15").
//!
//! A probe keeps `k` write×8 jobs running for a window of simulated time
//! (restarting each job's streams as they finish, like the paper's
//! repeated dd loops), samples the aggregate throughput once per second,
//! and summarises the samples as a box plot.

use crate::config::LustreConfig;
use crate::fs::LustreSim;
use crate::stream::StreamTag;
use iosched_simkit::rng::SimRng;
use iosched_simkit::stats::BoxStats;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::units::gib;

/// Configuration of a steady-state probe.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// Threads per job (paper: 8).
    pub threads_per_job: usize,
    /// Bytes written per thread before the thread restarts (paper: 10 GiB).
    pub bytes_per_thread: f64,
    /// Warm-up period excluded from sampling.
    pub warmup: SimDuration,
    /// Sampling window length.
    pub window: SimDuration,
    /// Sampling period.
    pub sample_every: SimDuration,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self::short_term()
    }
}

impl ProbeConfig {
    /// Short-term probe: what the paper's Fig. 4 box plots show — brief
    /// bursts that do not build up sustained congestion (the "short-term
    /// bandwidth ≈ 20 GiB/s" regime).
    pub fn short_term() -> Self {
        ProbeConfig {
            threads_per_job: 8,
            bytes_per_thread: gib(10.0),
            warmup: SimDuration::from_secs(10),
            window: SimDuration::from_secs(60),
            sample_every: SimDuration::from_secs(1),
        }
    }

    /// Sustained probe: minutes of continuous pressure — the "long-term
    /// bandwidth" regime the makespan experiments actually live in.
    pub fn sustained() -> Self {
        ProbeConfig {
            threads_per_job: 8,
            bytes_per_thread: gib(10.0),
            warmup: SimDuration::from_secs(300),
            window: SimDuration::from_secs(300),
            sample_every: SimDuration::from_secs(1),
        }
    }
}

/// Run a probe with `k` concurrent jobs (job `i` pinned to node `i`) and
/// return the sampled aggregate throughput values in bytes/s.
pub fn steady_state_samples(
    cfg: &LustreConfig,
    probe: &ProbeConfig,
    k: usize,
    seed: u64,
) -> Vec<f64> {
    if k == 0 {
        // An idle file system: constant zero samples over the window.
        let n = (probe.window.as_millis() / probe.sample_every.as_millis().max(1)) as usize;
        return vec![0.0; n];
    }
    let mut fs = LustreSim::new(cfg.clone(), SimRng::from_seed(seed));
    // One "job" per node; track per-node live thread counts so finished
    // threads restart immediately (continuous offered load).
    for node in 0..k {
        fs.start_write(
            SimTime::ZERO,
            StreamTag(node as u64),
            node,
            probe.threads_per_job,
            probe.bytes_per_thread,
        );
    }

    let end = SimTime::ZERO + probe.warmup + probe.window;
    let mut samples = Vec::new();
    let mut next_sample = SimTime::ZERO + probe.warmup;
    let mut done = Vec::new();

    loop {
        let fs_next = fs.next_change_time().unwrap_or(SimTime::FAR_FUTURE);
        let t = fs_next.min(next_sample);
        if t > end {
            break;
        }
        fs.advance_to(t);
        // Restart finished threads to keep offered load constant.
        fs.take_completed_into(&mut done);
        for (done_t, _, s) in &done {
            fs.start_write((*done_t).max(t), s.tag, s.node, 1, probe.bytes_per_thread);
        }
        if t == next_sample {
            samples.push(fs.total_throughput_bps());
            next_sample += probe.sample_every;
        }
    }
    samples
}

/// One row of the Fig. 4 box plot: `k` concurrent jobs.
#[derive(Clone, Debug)]
pub struct ProbeRow {
    pub concurrent_jobs: usize,
    pub stats: BoxStats,
}

/// Reproduce the full Fig. 4 sweep: box-plot summaries of aggregate
/// throughput for `k = 0..=max_jobs` concurrent write×8 jobs.
pub fn fig4_sweep(
    cfg: &LustreConfig,
    probe: &ProbeConfig,
    max_jobs: usize,
    seed: u64,
) -> Vec<ProbeRow> {
    (0..=max_jobs)
        .map(|k| {
            let samples = steady_state_samples(cfg, probe, k, seed.wrapping_add(k as u64));
            ProbeRow {
                concurrent_jobs: k,
                stats: BoxStats::from_samples(&samples).expect("probe produced samples"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::units::to_gibps;

    fn short_probe() -> ProbeConfig {
        ProbeConfig::short_term()
    }

    #[test]
    fn zero_jobs_zero_throughput() {
        let rows = fig4_sweep(&LustreConfig::stria().noiseless(), &short_probe(), 0, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].stats.median, 0.0);
    }

    #[test]
    fn sweep_is_concave_and_saturating() {
        let cfg = LustreConfig::stria().noiseless();
        let rows = fig4_sweep(&cfg, &short_probe(), 15, 42);
        let medians: Vec<f64> = rows.iter().map(|r| to_gibps(r.stats.median)).collect();
        // Concave growth: strong gains at low concurrency, levelling into
        // a 8–22 GiB/s band at high concurrency (the calibrated model's
        // short-term saturation; high-k medians sag a little as sustained
        // fatigue begins to bite even within short windows).
        assert!(medians[1] > 1.0, "single job too slow: {medians:?}");
        let peak = medians.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (10.0..22.0).contains(&peak),
            "peak out of band: {medians:?}"
        );
        assert!(
            medians[15] > 5.0 && medians[15] < 22.0,
            "saturation out of band: {medians:?}"
        );
        let early_gain = medians[2] - medians[1];
        let late_gain = (medians[15] - medians[8]) / 7.0;
        assert!(late_gain < early_gain, "not concave: {medians:?}");
    }

    #[test]
    fn noise_varies_throughput_of_a_fixed_job_mix() {
        // The paper observes fluctuating Lustre throughput "even while the
        // combination of the running jobs does not change". With noise off
        // a fixed stream set has constant aggregate rate; with noise on it
        // fluctuates across epochs.
        use crate::fs::LustreSim;
        use crate::stream::StreamTag;
        use iosched_simkit::rng::SimRng;
        use iosched_simkit::units::gib;

        let sample = |mut cfg: LustreConfig| -> Vec<f64> {
            // Lift the per-stream and node caps so the per-OST bandwidth —
            // the noisy quantity — is the binding constraint; disable
            // fatigue so noise is the only time-varying input.
            cfg = cfg.without_fatigue();
            cfg.stream_cap_bps = cfg.ost_bandwidth_bps * 4.0;
            cfg.node_cap_bps = cfg.fabric_cap_bps;
            let mut fs = LustreSim::new(cfg, SimRng::from_seed(5));
            // Big enough volume that nothing completes in the window.
            for node in 0..2 {
                fs.start_write(
                    SimTime::ZERO,
                    StreamTag(node as u64),
                    node,
                    8,
                    gib(10_000.0),
                );
            }
            (1..=100)
                .map(|s| {
                    fs.advance_to(SimTime::from_secs(s));
                    fs.total_throughput_bps()
                })
                .collect()
        };
        let quiet = sample(LustreConfig::stria().noiseless());
        let noisy = sample(LustreConfig::stria());
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(&quiet) < 1.0, "noiseless run should be flat");
        assert!(spread(&noisy) > gib(0.25), "noisy run should fluctuate");
    }

    #[test]
    fn sustained_load_collapses_below_short_term() {
        // The paper's central empirical observation: short-term bandwidth
        // (~20 GiB/s bursts) far exceeds what the file system sustains
        // under continuous heavy pressure. Fatigue reproduces that gap.
        let cfg = LustreConfig::stria().noiseless();
        let short = steady_state_samples(&cfg, &ProbeConfig::short_term(), 15, 3);
        let long = steady_state_samples(&cfg, &ProbeConfig::sustained(), 15, 3);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (s, l) = (mean(&short), mean(&long));
        assert!(
            l < 0.6 * s,
            "expected sustained collapse: short {:.1} vs sustained {:.1} GiB/s",
            to_gibps(s),
            to_gibps(l)
        );
        // Light loads do not fatigue: 2 jobs sustain their short-term rate.
        let short2 = steady_state_samples(&cfg, &ProbeConfig::short_term(), 2, 3);
        let long2 = steady_state_samples(&cfg, &ProbeConfig::sustained(), 2, 3);
        assert!(mean(&long2) > 0.8 * mean(&short2));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = LustreConfig::stria();
        let a = steady_state_samples(&cfg, &short_probe(), 3, 99);
        let b = steady_state_samples(&cfg, &short_probe(), 3, 99);
        assert_eq!(a, b);
    }
}
