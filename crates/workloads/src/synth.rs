//! Deterministic synthetic SWF-shaped workload generation.
//!
//! The scale sweep needs traces far larger than the Parallel Workloads
//! Archive logs committed to a test repo can be: 100k–1M jobs on
//! 1k–10k-node machines. [`SynthTrace`] generates them on the fly — a
//! seeded iterator of [`SwfRecord`]s whose marginals follow the shapes
//! real SWF logs exhibit (log-normal run times, exponential
//! interarrivals, power-law-ish widths dominated by small jobs, a
//! sprinkling of cancelled records) — so the streaming replay path can
//! consume millions of jobs without ever materialising a `Vec`.
//!
//! Because the generator emits [`SwfRecord`]s, the exact same conversion
//! path as [`crate::swf::parse_swf`] produces the [`JobSubmission`]s
//! ([`SwfRecord::to_submission`]), and serialising via
//! [`SwfRecord::to_line`] round-trips through the parser by construction
//! — a property the test suite pins.

use crate::builder::JobSubmission;
use crate::swf::{SwfOptions, SwfRecord};
use iosched_simkit::rng::SimRng;

/// Shortest run time the generator emits, seconds.
pub const MIN_RUN_SECS: f64 = 1.0;

/// Longest run time the generator emits, seconds (7 days).
pub const MAX_RUN_SECS: f64 = 7.0 * 86_400.0;

/// Shape parameters of the synthetic trace. All distributions are
/// sampled from a seeded [`SimRng`], so a `(config, seed)` pair names
/// one exact trace forever.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Total records to generate (including the occasional invalid ones).
    pub jobs: u64,
    /// Master seed for the trace.
    pub seed: u64,
    /// Largest processor count a job may request. Widths are drawn from
    /// a geometric-ish ladder (1, 2, 4, …) capped here, matching the
    /// small-job dominance of archive logs.
    pub max_procs: usize,
    /// Mean interarrival gap, seconds (exponential arrivals).
    pub mean_interarrival_secs: f64,
    /// Median run time, seconds (log-normal).
    pub median_run_secs: f64,
    /// Log-space sigma of the run-time distribution.
    pub run_sigma: f64,
    /// Fraction of records emitted as cancelled jobs (negative run time),
    /// exercising `skip_invalid` handling downstream.
    pub invalid_fraction: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            jobs: 1000,
            seed: 42,
            max_procs: 64,
            mean_interarrival_secs: 30.0,
            median_run_secs: 600.0,
            run_sigma: 1.0,
            invalid_fraction: 0.01,
        }
    }
}

impl SynthConfig {
    /// A trace sized for a machine of `nodes` single-CPU nodes: widths
    /// span up to an eighth of the machine and arrivals are dense enough
    /// to keep a deep queue without unbounded backlog.
    pub fn sized_for(nodes: usize, jobs: u64, seed: u64) -> Self {
        SynthConfig {
            jobs,
            seed,
            max_procs: (nodes / 8).max(1),
            // Keep offered load roughly proportional to capacity: mean
            // width ≈ 2 ladder steps ≈ small relative to the machine, so
            // arrivals scale inversely with node count.
            mean_interarrival_secs: (4000.0 / nodes as f64).max(0.05),
            ..SynthConfig::default()
        }
    }
}

/// Seeded iterator of synthetic [`SwfRecord`]s. Job numbers count up
/// from 1 (SWF convention); submit times are non-decreasing.
pub struct SynthTrace {
    cfg: SynthConfig,
    rng: SimRng,
    emitted: u64,
    clock_secs: f64,
}

impl SynthTrace {
    /// Start a trace; the iterator yields exactly `cfg.jobs` records.
    pub fn new(cfg: SynthConfig) -> Self {
        assert!(cfg.max_procs >= 1, "max_procs must be at least 1");
        assert!(
            (0.0..=1.0).contains(&cfg.invalid_fraction),
            "invalid_fraction must be in [0, 1]"
        );
        let rng = SimRng::from_seed(cfg.seed);
        SynthTrace {
            cfg,
            rng,
            emitted: 0,
            clock_secs: 0.0,
        }
    }

    /// Adapt the record stream into a [`JobSubmission`] stream under
    /// `opts`, silently dropping invalid (cancelled) records — the
    /// streaming-replay equivalent of `skip_invalid`.
    pub fn submissions(self, opts: SwfOptions) -> impl Iterator<Item = JobSubmission> {
        self.filter_map(move |rec| rec.to_submission(&opts))
    }
}

impl Iterator for SynthTrace {
    type Item = SwfRecord;

    fn next(&mut self) -> Option<SwfRecord> {
        if self.emitted >= self.cfg.jobs {
            return None;
        }
        self.emitted += 1;
        self.clock_secs += self
            .rng
            .exponential(1.0 / self.cfg.mean_interarrival_secs.max(1e-9));
        // Width ladder: 1, 2, 4, … with geometrically decaying mass —
        // archive logs are dominated by narrow jobs with a heavy tail of
        // wide ones.
        let mut procs = 1usize;
        while procs * 2 <= self.cfg.max_procs && self.rng.uniform() < 0.45 {
            procs *= 2;
        }
        let run_secs = self
            .rng
            .lognormal(self.cfg.median_run_secs, self.cfg.run_sigma)
            .clamp(MIN_RUN_SECS, MAX_RUN_SECS) as i64;
        // Users overestimate: requested time is a padded multiple of the
        // run time, rounded up to a minute like real submissions.
        let padding = self.rng.uniform_range(1.1, 4.0);
        let requested = (((run_secs as f64 * padding) / 60.0).ceil() * 60.0) as i64;
        let cancelled = self.rng.uniform() < self.cfg.invalid_fraction;
        Some(SwfRecord {
            job_no: self.emitted as i64,
            submit: self.clock_secs as i64,
            run_time: if cancelled { -1 } else { run_secs },
            procs: procs as i64,
            requested,
        })
    }
}

/// Render a record stream as SWF text (with a minimal comment header),
/// e.g. to hand a generated trace to an external tool or to round-trip
/// it through [`crate::swf::parse_swf`] in tests.
pub fn to_swf_text(records: impl IntoIterator<Item = SwfRecord>) -> String {
    let mut out = String::from("; synthetic SWF trace (iosched-workloads generator)\n");
    for rec in records {
        out.push_str(&rec.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swf::parse_swf;
    use iosched_simkit::units::gibps;
    use iosched_simkit::{prop_assert, prop_assert_eq, props};

    #[test]
    fn generator_is_deterministic_and_sized() {
        let cfg = SynthConfig {
            jobs: 500,
            ..SynthConfig::default()
        };
        let a: Vec<SwfRecord> = SynthTrace::new(cfg.clone()).collect();
        let b: Vec<SwfRecord> = SynthTrace::new(cfg).collect();
        assert_eq!(a.len(), 500);
        assert_eq!(a, b);
        // Submit times are non-decreasing; job numbers count from 1.
        assert!(a.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert_eq!(a[0].job_no, 1);
        assert_eq!(a[499].job_no, 500);
    }

    #[test]
    fn widths_respect_the_cap_and_skew_small() {
        let cfg = SynthConfig {
            jobs: 2000,
            max_procs: 32,
            ..SynthConfig::default()
        };
        let recs: Vec<SwfRecord> = SynthTrace::new(cfg).collect();
        assert!(recs.iter().all(|r| r.procs >= 1 && r.procs <= 32));
        let narrow = recs.iter().filter(|r| r.procs <= 2).count();
        assert!(narrow * 2 > recs.len(), "narrow jobs should dominate");
    }

    #[test]
    fn invalid_fraction_emits_cancelled_records() {
        let cfg = SynthConfig {
            jobs: 2000,
            invalid_fraction: 0.2,
            ..SynthConfig::default()
        };
        let recs: Vec<SwfRecord> = SynthTrace::new(cfg).collect();
        let bad = recs.iter().filter(|r| !r.is_valid()).count();
        assert!(bad > 200 && bad < 700, "got {bad} invalid of 2000");
        // The submission adapter drops exactly the invalid ones.
        let cfg = SynthConfig {
            jobs: 2000,
            invalid_fraction: 0.2,
            ..SynthConfig::default()
        };
        let subs = SynthTrace::new(cfg).submissions(SwfOptions::default());
        assert_eq!(subs.count(), 2000 - bad);
    }

    #[test]
    fn sized_for_scales_width_and_arrival_rate() {
        let small = SynthConfig::sized_for(15, 100, 1);
        let large = SynthConfig::sized_for(1500, 100, 1);
        assert!(large.max_procs > small.max_procs);
        assert!(large.mean_interarrival_secs < small.mean_interarrival_secs);
        assert!(SynthTrace::new(large).count() == 100);
    }

    props! {
        #![cases(16)]

        /// Generator output round-trips through the SWF text parser: for
        /// any (seed, size, io options), rendering the records with
        /// `to_swf_text` and parsing the text back yields exactly the
        /// submissions the records convert to directly.
        fn prop_generator_round_trips_through_parser(
            seed in 0u64..1000,
            jobs in 1u64..120,
            cpus_per_node in 1usize..5,
            io_pct in 0u64..101,
        ) {
            let cfg = SynthConfig {
                jobs,
                seed,
                invalid_fraction: 0.1,
                ..SynthConfig::default()
            };
            let opts = SwfOptions {
                cpus_per_node,
                max_nodes: 64,
                io_fraction: io_pct as f64 / 100.0,
                io_rate_per_node_bps: gibps(1.0),
                ..SwfOptions::default()
            };
            let records: Vec<SwfRecord> = SynthTrace::new(cfg.clone()).collect();
            let text = to_swf_text(records.iter().copied());
            let parsed = parse_swf(&text, &opts).unwrap();
            // The streaming reader over the same rendered text agrees
            // with the batch parser job for job.
            let streamed: Vec<_> = crate::swf::SwfReader::new(
                std::io::Cursor::new(text.as_str()),
                opts.clone(),
            )
            .map(|r| r.unwrap())
            .collect();
            prop_assert_eq!(streamed.len(), parsed.len());
            for (s, p) in streamed.iter().zip(&parsed) {
                prop_assert_eq!(s.id, p.id);
                prop_assert_eq!(s.submit, p.submit);
                prop_assert_eq!(s.limit, p.limit);
                prop_assert_eq!(s.exec.nodes, p.exec.nodes);
            }
            let direct: Vec<_> = SynthTrace::new(cfg).submissions(opts).collect();
            prop_assert_eq!(parsed.len(), direct.len());
            for (p, d) in parsed.iter().zip(&direct) {
                prop_assert_eq!(p.id, d.id);
                prop_assert_eq!(&p.name, &d.name);
                prop_assert_eq!(p.submit, d.submit);
                prop_assert_eq!(p.limit, d.limit);
                prop_assert_eq!(p.exec.nodes, d.exec.nodes);
                prop_assert_eq!(p.exec.phases.len(), d.exec.phases.len());
                prop_assert!(
                    (p.exec.total_write_bytes() - d.exec.total_write_bytes()).abs() < 1e-6
                );
            }
        }
    }
}
