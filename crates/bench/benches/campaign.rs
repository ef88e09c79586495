//! Bench target for the **campaign engine**: throughput and scaling
//! efficiency of the self-scheduling pool running one grid at 1/2/4/8
//! workers.
//!
//! The grid is the Fig.-6-shaped sweep (5 scheduler configurations ×
//! 5 seeds) over the scaled synthetic wave workload — 25 paper-scale
//! simulations of a few milliseconds each, the engine's intended grain.
//! Per worker count the suite records **meta** (`tasks_per_sec/w{n}`,
//! `speedup/w{n}` — wall-clock, report-only) and asserts the merged
//! records are bit-identical to the single-worker run. The gated
//! **counters** (`tasks/total`, `events/total`) are deterministic
//! loop-iteration totals, independent of worker count, so an event
//! blowup in the engine fails `bench_diff` even when timing noise
//! hides it.
//!
//! `--smoke` runs a 4-task grid once (CI's per-commit loop, counters
//! only); `--gate-speedup` (used by `./ci.sh --full-scale`) asserts
//! ≥ 2.5× throughput at 4 workers vs 1 — skipped loudly on machines
//! with fewer than 4 cores, where the pool cannot physically speed up.

use iosched_experiments::{
    run_grid_streaming, CampaignGrid, CampaignOptions, CampaignRecord, PolicyFamily, WorkloadSpec,
};
use iosched_simkit::bench::BenchSuite;
use iosched_simkit::json::ToJson;
use std::hint::black_box;

/// The benchmark grid: Fig.-6-shaped axes over the synthetic wave.
fn bench_grid(smoke: bool) -> CampaignGrid {
    if smoke {
        CampaignGrid::new(
            vec![PolicyFamily::Default, PolicyFamily::Adaptive],
            vec![20.0],
            vec![1, 2],
            WorkloadSpec::Wave {
                x8: 4,
                x6: 0,
                x2: 3,
                x1: 4,
                sleeps: 2,
                volume_gib: 4.0,
            },
        )
    } else {
        CampaignGrid::new(
            vec![
                PolicyFamily::Default,
                PolicyFamily::IoAware,
                PolicyFamily::Adaptive,
            ],
            vec![20.0, 15.0],
            vec![1, 2, 3, 4, 5],
            WorkloadSpec::Wave {
                x8: 10,
                x6: 10,
                x2: 23,
                x1: 40,
                sleeps: 10,
                volume_gib: 10.0,
            },
        )
    }
}

fn records_json(records: &[CampaignRecord]) -> String {
    records
        .iter()
        .map(|r| r.to_json().to_json_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let gate_speedup = std::env::args().any(|a| a == "--gate-speedup");
    let mut suite = BenchSuite::from_args("campaign");
    let grid = bench_grid(suite.is_smoke());
    let tasks = grid.task_count();

    // Reference run at one worker: the determinism baseline, the gated
    // counters, and the denominator of every speedup.
    let start = std::time::Instant::now();
    let reference = run_grid_streaming(&grid, CampaignOptions { threads: Some(1) }, |_| {});
    let t1 = start.elapsed().as_secs_f64();
    let reference_json = records_json(&reference);
    let events: u64 = reference.iter().map(|r| r.loop_iterations).sum();
    suite.counter("tasks/total", tasks as f64);
    suite.counter("events/total", events as f64);
    suite.meta("tasks_per_sec/w1", tasks as f64 / t1);
    println!(
        "campaign w1: {tasks} tasks in {t1:.3} s wall — {events} events ({:.1} tasks/s)",
        tasks as f64 / t1
    );

    let mut speedup_w4 = None;
    if !suite.is_smoke() {
        for workers in [2usize, 4, 8] {
            let start = std::time::Instant::now();
            let records = run_grid_streaming(
                &grid,
                CampaignOptions {
                    threads: Some(workers),
                },
                |_| {},
            );
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(
                records_json(&records),
                reference_json,
                "merged records differ between 1 and {workers} workers"
            );
            let speedup = t1 / elapsed;
            suite.meta(&format!("tasks_per_sec/w{workers}"), tasks as f64 / elapsed);
            suite.meta(&format!("speedup/w{workers}"), speedup);
            if workers == 4 {
                speedup_w4 = Some(speedup);
            }
            println!(
                "campaign w{workers}: {tasks} tasks in {elapsed:.3} s wall \
                 ({:.1} tasks/s, speedup {speedup:.2}x, records identical)",
                tasks as f64 / elapsed
            );
        }
    } else {
        // Smoke still proves determinism across worker counts, cheaply.
        let records = run_grid_streaming(&grid, CampaignOptions { threads: Some(4) }, |_| {});
        assert_eq!(
            records_json(&records),
            reference_json,
            "merged records differ between 1 and 4 workers"
        );
        println!("campaign smoke: records identical at 1 and 4 workers");
    }

    // One conventional timed entry (single task through the engine) so
    // the suite tracks per-task engine overhead alongside the sweeps.
    let single = CampaignGrid::new(
        vec![PolicyFamily::Default],
        vec![],
        vec![1],
        WorkloadSpec::Wave {
            x8: 4,
            x6: 0,
            x2: 3,
            x1: 4,
            sleeps: 2,
            volume_gib: 4.0,
        },
    );
    suite.bench("run_grid_single_task", || {
        black_box(run_grid_streaming(&single, CampaignOptions { threads: Some(1) }, |_| {}).len());
    });

    if gate_speedup {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        match speedup_w4 {
            Some(s) if cores >= 4 => {
                assert!(
                    s >= 2.5,
                    "campaign scaling gate: speedup at 4 workers is {s:.2}x, need >= 2.5x"
                );
                println!("campaign scaling gate: {s:.2}x at 4 workers (>= 2.5x) OK");
            }
            Some(s) => println!(
                "campaign scaling gate SKIPPED: only {cores} core(s) available \
                 (need >= 4); measured {s:.2}x"
            ),
            None => println!("campaign scaling gate SKIPPED: smoke mode has no sweep"),
        }
    }
    suite.finish();
}
