//! Reproduce **Fig. 6**: summary of Workload 2 results — a swarm of
//! makespans per scheduler configuration across repeated runs, with
//! medians (the paper's central-tendency measure for the skewed
//! distributions).
//!
//! Paper reference medians (improvement over default Slurm):
//! io-aware-20 ≈ 4 %, io-aware-15 ≈ 7 %, adaptive-20 ≈ 12 %,
//! adaptive-15 ≈ io-aware-15 + 3 %.
//!
//! Runs as one campaign grid (policy × threshold × seed on Workload 2)
//! on the engine, resumable through `results/fig6/records.jsonl`: a
//! rerun replays finished tasks from the log and only executes missing
//! ones, and `summary` reuses the same log instead of re-running Fig. 6.
//!
//! Usage: `cargo run --release -p iosched-experiments --bin fig6 [n_seeds]`
//! (default 5 seeds per configuration; the paper repeats each
//! configuration a comparable number of times).

use iosched_experiments::figures::write_output;
use iosched_experiments::{
    run_grid_resumable, CampaignGrid, CampaignOptions, PolicyFamily, WorkloadSpec,
};
use iosched_simkit::stats::median;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The Fig. 6 grid: [default, io-aware-20, io-aware-15, adaptive-20,
/// adaptive-15] × seeds on Workload 2 (shared with `summary`).
pub fn fig6_grid(n_seeds: usize) -> CampaignGrid {
    CampaignGrid::new(
        vec![
            PolicyFamily::Default,
            PolicyFamily::IoAware,
            PolicyFamily::Adaptive,
        ],
        vec![20.0, 15.0],
        (0..n_seeds as u64).map(|i| 1000 + i * 17).collect(),
        WorkloadSpec::Workload2,
    )
}

fn main() {
    let n_seeds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let opts = CampaignOptions::default().resolved().unwrap_or_else(|e| {
        eprintln!("fig6: {e}");
        std::process::exit(2)
    });
    let grid = fig6_grid(n_seeds);

    println!(
        "Fig. 6 — Workload 2 makespan swarm, {} seeds per configuration\n",
        n_seeds
    );
    let records = run_grid_resumable(&grid, opts, &PathBuf::from("results/fig6/records.jsonl"))
        .expect("write record log");

    let mut csv = String::from("scheduler,seed,makespan_s\n");
    let mut medians = Vec::new();
    for group in records.chunks(n_seeds) {
        let makespans: Vec<f64> = group.iter().map(|r| r.makespan_secs).collect();
        for rec in group {
            writeln!(csv, "{},{},{:.0}", rec.label, rec.seed, rec.makespan_secs).expect("write");
        }
        let med = median(&makespans).expect("non-empty group");
        let points: Vec<String> = makespans.iter().map(|m| format!("{m:.0}")).collect();
        println!(
            "{:<16} median {:>7.0} s   swarm: {}",
            group[0].label,
            med,
            points.join(" ")
        );
        medians.push((group[0].label.clone(), med));
    }

    let base = medians[0].1;
    println!("\nmedian improvement over default:");
    for (label, med) in &medians[1..] {
        println!("  {:<16} {:+.1}%", label, 100.0 * (base - med) / base);
    }
    println!("\npaper reference: io-aware-20 ~4%, io-aware-15 ~7%, adaptive-20 ~12%, adaptive-15 ~ io-aware-15 + 3%");

    write_output(&PathBuf::from("results/fig6/swarm.csv"), &csv).expect("write");
    println!("CSV data in results/fig6 (records in results/fig6/records.jsonl)");
}
