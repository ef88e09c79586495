//! Figure-data emission: CSV files plus terminal-friendly summaries.
//!
//! Each harness binary writes the raw series the corresponding paper
//! figure plots (so any plotting tool can regenerate it) and prints a
//! compact ASCII rendition with the headline numbers.

use crate::driver::ExperimentResult;
use iosched_simkit::stats::BoxStats;
use iosched_simkit::time::SimTime;
use iosched_simkit::units::to_gibps;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Resample an experiment's traces onto a regular grid and render them as
/// CSV: `time_s,throughput_gibps,busy_nodes`.
pub fn traces_csv(res: &ExperimentResult, step_s: u64) -> String {
    let end = SimTime::from_secs_f64(res.makespan_secs);
    let grid = res
        .throughput_trace
        .resample(SimTime::ZERO, end, step_s * 1000);
    let mut out = String::from("time_s,throughput_gibps,busy_nodes\n");
    for (t, bps) in grid {
        let nodes = res.nodes_trace.value_at(t);
        writeln!(
            out,
            "{:.0},{:.4},{:.0}",
            t.as_secs_f64(),
            to_gibps(bps),
            nodes
        )
        .expect("string write");
    }
    out
}

/// CSV of per-job records: `id,name,submit_s,start_s,end_s,wait_s,runtime_s`.
pub fn jobs_csv(res: &ExperimentResult) -> String {
    let mut out = String::from("id,name,submit_s,start_s,end_s,wait_s,runtime_s\n");
    for j in &res.jobs {
        writeln!(
            out,
            "{},{},{:.1},{:.1},{:.1},{:.1},{:.1}",
            j.id.0,
            j.name,
            j.submit.as_secs_f64(),
            j.start.as_secs_f64(),
            j.end.as_secs_f64(),
            j.wait().as_secs_f64(),
            j.runtime().as_secs_f64()
        )
        .expect("string write");
    }
    out
}

/// CSV row set for a box-plot figure (Fig. 4):
/// `jobs,min,q1,median,q3,max` in GiB/s.
pub fn boxplot_csv(rows: &[(usize, BoxStats)]) -> String {
    let mut out =
        String::from("concurrent_jobs,min_gibps,q1_gibps,median_gibps,q3_gibps,max_gibps\n");
    for (k, b) in rows {
        writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{:.3},{:.3}",
            k,
            to_gibps(b.min),
            to_gibps(b.q1),
            to_gibps(b.median),
            to_gibps(b.q3),
            to_gibps(b.max)
        )
        .expect("string write");
    }
    out
}

/// Write a file, creating parent directories.
pub fn write_output(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, contents)
}

/// A terminal sparkline of a resampled series (one char per bucket).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    if values.is_empty() || max <= 0.0 {
        return String::new();
    }
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (GLYPHS.len() as f64 - 1.0)).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

/// Downsample an experiment's throughput trace to `buckets` means, for the
/// ASCII panel view.
pub fn throughput_buckets(res: &ExperimentResult, buckets: usize) -> Vec<f64> {
    let end = res.makespan_secs.max(1.0);
    let step = end / buckets as f64;
    (0..buckets)
        .map(|i| {
            let a = SimTime::from_secs_f64(i as f64 * step);
            let b = SimTime::from_secs_f64((i + 1) as f64 * step);
            to_gibps(res.throughput_trace.time_average(a, b))
        })
        .collect()
}

/// Same for the busy-nodes trace.
pub fn node_buckets(res: &ExperimentResult, buckets: usize) -> Vec<f64> {
    let end = res.makespan_secs.max(1.0);
    let step = end / buckets as f64;
    (0..buckets)
        .map(|i| {
            let a = SimTime::from_secs_f64(i as f64 * step);
            let b = SimTime::from_secs_f64((i + 1) as f64 * step);
            res.nodes_trace.time_average(a, b)
        })
        .collect()
}

/// Print one Fig-3/Fig-5-style panel to stdout.
pub fn print_panel(title: &str, res: &ExperimentResult) {
    let thr = throughput_buckets(res, 72);
    let nod = node_buckets(res, 72);
    println!("── {title} ──");
    println!("  makespan: {:.0} s", res.makespan_secs);
    println!("  Lustre GiB/s  {}", sparkline(&thr));
    println!("  busy nodes    {}", sparkline(&nod));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::JobRecord;
    use iosched_simkit::ids::JobId;
    use iosched_simkit::series::TimeSeries;
    use iosched_simkit::units::gibps;

    fn fake_result() -> ExperimentResult {
        let mut thr = TimeSeries::new();
        let mut nod = TimeSeries::new();
        for s in 0..10 {
            thr.push(SimTime::from_secs(s), gibps(s as f64));
            nod.push(SimTime::from_secs(s), (s % 4) as f64);
        }
        ExperimentResult {
            makespan_secs: 10.0,
            throughput_trace: thr,
            nodes_trace: nod,
            fatigue_trace: TimeSeries::new(),
            streams_trace: TimeSeries::new(),
            jobs: vec![JobRecord {
                id: JobId(1),
                name: "w".into(),
                submit: SimTime::ZERO,
                start: SimTime::from_secs(1),
                end: SimTime::from_secs(5),
                timed_out: false,
            }],
            sched_passes: 3,
            rounds_elided: 0,
            rounds_certified: 0,
            loop_iterations: 0,
            label: "test".into(),
        }
    }

    #[test]
    fn traces_csv_shape() {
        let csv = traces_csv(&fake_result(), 1);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[0], "time_s,throughput_gibps,busy_nodes");
        assert_eq!(lines.len(), 11); // header + 10 rows
        assert!(lines[3].starts_with("2,2.0000"));
    }

    #[test]
    fn jobs_csv_shape() {
        let csv = jobs_csv(&fake_result());
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("1,w,0.0,1.0,5.0,1.0,4.0"));
    }

    #[test]
    fn boxplot_csv_shape() {
        let b = BoxStats::from_samples(&[gibps(1.0), gibps(2.0), gibps(3.0)]).unwrap();
        let csv = boxplot_csv(&[(5, b)]);
        assert!(csv.contains("5,1.000,1.500,2.000,2.500,3.000"));
    }

    #[test]
    fn write_output_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("iosched-figures-test-{}", std::process::id()));
        let path = dir.join("nested/deep/file.csv");
        write_output(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparkline_renders() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn buckets_average_the_trace() {
        let res = fake_result();
        let b = throughput_buckets(&res, 5);
        assert_eq!(b.len(), 5);
        // Rising trace → rising buckets.
        assert!(b[4] > b[0]);
    }
}
