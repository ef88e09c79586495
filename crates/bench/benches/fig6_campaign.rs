//! Bench target for **Fig. 6**: a multi-seed campaign over the scaled
//! Workload-2 wave, printing median improvements (the figure's headline
//! rows) and benchmarking one campaign run per scheduler. Each scheduler
//! configuration is a single-scheduler [`CampaignGrid`] (three seeds, one
//! `Wave` workload) executed by `run_grid`.

use iosched_experiments::campaign::{run_grid, CampaignOptions};
use iosched_experiments::grid::{CampaignGrid, CampaignRecord, PolicyFamily, WorkloadSpec};
use iosched_simkit::bench::BenchSuite;
use iosched_simkit::stats::median;
use std::hint::black_box;

fn median_makespan_secs(records: &[CampaignRecord]) -> f64 {
    let makespans: Vec<f64> = records.iter().map(|r| r.makespan_secs).collect();
    median(&makespans).expect("campaign has runs")
}

fn main() {
    let mut suite = BenchSuite::from_args("fig6_campaign");
    let seeds: Vec<u64> = (0..3).map(|i| 1000 + i * 17).collect();
    let grid = |policy, thresholds_gibps| {
        CampaignGrid::new(
            vec![policy],
            thresholds_gibps,
            seeds.clone(),
            WorkloadSpec::Wave {
                x8: 10,
                x6: 10,
                x2: 23,
                x1: 40,
                sleeps: 10,
                volume_gib: 10.0,
            },
        )
    };
    let configs = vec![
        grid(PolicyFamily::Default, vec![]),
        grid(PolicyFamily::IoAware, vec![15.0]),
        grid(PolicyFamily::Adaptive, vec![20.0]),
    ];
    let opts = CampaignOptions::default();

    // Print the medians once (the figure's summary rows); skipped under
    // --smoke.
    if !suite.is_smoke() {
        let mut base = None;
        for grid in &configs {
            let records = run_grid(grid, opts);
            let label = &records[0].label;
            let med = median_makespan_secs(&records);
            match base {
                None => {
                    base = Some(med);
                    println!("fig6 {label}: median {med:.0} s (baseline)");
                }
                Some(b) => println!(
                    "fig6 {label}: median {med:.0} s ({:+.1}% vs default)",
                    100.0 * (b - med) / b
                ),
            }
        }
    }

    for grid in &configs {
        let label = grid.schedulers()[0].label();
        suite.bench(&label, || {
            black_box(median_makespan_secs(&run_grid(grid, opts)));
        });
        // Deterministic event-loop iteration count (gated by `bench_diff
        // --gate`: an event blowup fails CI even when wall-time noise
        // hides it), plus report-only events/sec from one timed campaign.
        let start = std::time::Instant::now();
        let records = run_grid(grid, opts);
        let elapsed = start.elapsed().as_secs_f64();
        let events = records.iter().map(|r| r.loop_iterations).sum::<u64>() as f64;
        suite.counter(&format!("events/{label}"), events);
        suite.meta(&format!("events_per_sec/{label}"), events / elapsed);
    }
    suite.finish();
}
