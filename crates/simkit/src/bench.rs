//! Minimal micro-benchmark harness (in-repo `criterion` replacement).
//!
//! Each bench target is a plain `main()` binary (`harness = false`) that
//! builds a [`BenchSuite`], registers closures with [`BenchSuite::bench`],
//! and calls [`BenchSuite::finish`], which prints a table and writes
//! `BENCH_<suite>.json` under `<workspace>/results/bench/` so the perf
//! trajectory is tracked across PRs.
//!
//! Methodology: each benchmark is calibrated to a per-sample iteration
//! count targeting about 20 ms of work, then timed for ten samples after
//! one warmup; the JSON records min/median/mean ns-per-iteration. Passing `--smoke` (the CI gate does) collapses this
//! to one iteration and one sample — a "does it run and emit JSON" check,
//! not a measurement.

use crate::json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Timed samples per benchmark.
const SAMPLES: usize = 10;

/// Calibration target per sample, in nanoseconds (~20ms).
const TARGET_SAMPLE_NANOS: u128 = 20_000_000;

struct BenchResult {
    name: String,
    iters_per_sample: u64,
    sample_ns: Vec<f64>,
}

impl BenchResult {
    fn min_ns(&self) -> f64 {
        self.sample_ns.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn mean_ns(&self) -> f64 {
        self.sample_ns.iter().sum::<f64>() / self.sample_ns.len() as f64
    }

    fn median_ns(&self) -> f64 {
        let mut v = self.sample_ns.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        v[v.len() / 2]
    }
}

/// Collects and reports the benchmarks of one suite binary.
pub struct BenchSuite {
    suite: String,
    smoke: bool,
    results: Vec<BenchResult>,
    /// Deterministic work counters (e.g. event-loop iterations): gated by
    /// `bench_diff --gate` exactly like timings, so an algorithmic
    /// regression (event-count blowup) fails CI even when wall-time noise
    /// hides it.
    counters: Vec<(String, f64)>,
    /// Report-only metadata (e.g. events/sec): written to the JSON and
    /// shown by `bench_diff`, never gated.
    meta: Vec<(String, f64)>,
}

impl BenchSuite {
    /// Build a suite, reading flags from the process arguments: `--smoke`
    /// selects the single-iteration mode; everything else (e.g. the
    /// `--bench` flag cargo passes to `harness = false` targets, or a
    /// filter substring) is ignored.
    pub fn from_args(suite: &str) -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        BenchSuite {
            suite: suite.to_string(),
            smoke,
            results: Vec::new(),
            counters: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Record a deterministic work counter (gated by `bench_diff --gate`
    /// like a timing: an increase beyond the gate factor fails).
    pub fn counter(&mut self, name: &str, value: f64) {
        self.counters.push((name.to_string(), value));
    }

    /// Record report-only metadata (written to the JSON, never gated).
    pub fn meta(&mut self, name: &str, value: f64) {
        self.meta.push((name.to_string(), value));
    }

    /// True when `--smoke` was passed; bench binaries can use this to
    /// shrink their setup (fewer simulated jobs, shorter horizons).
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// Time `f`, which should end in [`std::hint::black_box`] over its
    /// result to keep the optimiser honest.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        let iters = if self.smoke {
            1
        } else {
            self.calibrate(&mut f)
        };
        let samples = if self.smoke { 1 } else { SAMPLES };
        // Warmup sample, discarded.
        Self::sample(&mut f, iters);
        let sample_ns = (0..samples)
            .map(|_| Self::sample(&mut f, iters) as f64 / iters as f64)
            .collect();
        self.results.push(BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            sample_ns,
        });
    }

    fn sample(f: &mut impl FnMut(), iters: u64) -> u128 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos()
    }

    /// Double the iteration count until a sample takes long enough to
    /// dominate timer noise, then scale to the target sample duration.
    fn calibrate(&self, f: &mut impl FnMut()) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let ns = Self::sample(f, iters);
            if ns >= TARGET_SAMPLE_NANOS / 10 {
                let per_iter = ns / iters as u128;
                return ((TARGET_SAMPLE_NANOS / per_iter.max(1)) as u64).clamp(1, 1 << 24);
            }
            iters *= 2;
        }
    }

    /// Print the results table and write `BENCH_<suite>.json`. Returns
    /// the path written. Call exactly once, at the end of `main`.
    pub fn finish(self) -> PathBuf {
        let mode = if self.smoke { " (smoke)" } else { "" };
        println!("\nbench suite `{}`{mode}", self.suite);
        println!(
            "{:<44} {:>14} {:>14} {:>14}",
            "name", "min ns/iter", "median", "mean"
        );
        for r in &self.results {
            println!(
                "{:<44} {:>14.1} {:>14.1} {:>14.1}",
                r.name,
                r.min_ns(),
                r.median_ns(),
                r.mean_ns()
            );
        }

        if !self.counters.is_empty() {
            println!("{:<44} {:>14}", "counter", "value");
            for (name, value) in &self.counters {
                println!("{name:<44} {value:>14.1}");
            }
        }
        for (name, value) in &self.meta {
            println!("meta {name} = {value:.1}");
        }

        let kv = |pairs: &[(String, f64)]| {
            Value::Array(
                pairs
                    .iter()
                    .map(|(name, value)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(name.clone())),
                            ("value".into(), Value::Num(*value)),
                        ])
                    })
                    .collect(),
            )
        };
        let json = Value::Object(vec![
            ("suite".into(), Value::Str(self.suite.clone())),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("counters".into(), kv(&self.counters)),
            ("meta".into(), kv(&self.meta)),
            (
                "benchmarks".into(),
                Value::Array(
                    self.results
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("name".into(), Value::Str(r.name.clone())),
                                (
                                    "iters_per_sample".into(),
                                    Value::Num(r.iters_per_sample as f64),
                                ),
                                ("min_ns_per_iter".into(), Value::Num(r.min_ns())),
                                ("median_ns_per_iter".into(), Value::Num(r.median_ns())),
                                ("mean_ns_per_iter".into(), Value::Num(r.mean_ns())),
                                (
                                    "samples_ns_per_iter".into(),
                                    Value::Array(
                                        r.sample_ns.iter().map(|&s| Value::Num(s)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);

        let dir = workspace_root().join("results").join("bench");
        std::fs::create_dir_all(&dir).expect("create results/bench");
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, json.to_json_pretty()).expect("write bench json");
        println!("wrote {}", path.display());
        path
    }
}

/// Nearest ancestor of the current directory containing `Cargo.lock`
/// (cargo runs bench binaries with the package dir as cwd; the lock file
/// marks the workspace root). Falls back to the current directory.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("current dir");
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_summarise_samples() {
        let r = BenchResult {
            name: "x".into(),
            iters_per_sample: 1,
            sample_ns: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(r.min_ns(), 1.0);
        assert_eq!(r.median_ns(), 2.0);
        assert_eq!(r.mean_ns(), 2.0);
    }
}
