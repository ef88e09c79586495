//! Reproduce **Fig. 5**: representative results of scheduling Workload 2
//! under the paper's five configurations —
//!
//! (a) default Slurm backfill, (b) I/O-aware 20 GiB/s,
//! (c) I/O-aware 15 GiB/s, (d) adaptive 20 GiB/s, (e) adaptive 15 GiB/s
//! (all pre-trained).
//!
//! Key qualitative checks from the paper: (c) runs out of sleep jobs and
//! idles nodes in the second half; (d)/(e) keep nodes busy via the
//! two-group approximation.
//!
//! Usage: `cargo run --release -p iosched-experiments --bin fig5 [seed]`

use iosched_experiments::driver::SchedulerKind;
use iosched_experiments::figures::{node_buckets, run_trace_panels};
use iosched_simkit::units::gibps;
use iosched_workloads::{workload_2, PaperParams};
use std::path::PathBuf;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let workload = workload_2(&PaperParams::default());
    let out_dir = PathBuf::from("results/fig5");

    let panels = [
        ("a_default", SchedulerKind::DefaultBackfill, true),
        (
            "b_ioaware20",
            SchedulerKind::IoAware {
                limit_bps: gibps(20.0),
            },
            true,
        ),
        (
            "c_ioaware15",
            SchedulerKind::IoAware {
                limit_bps: gibps(15.0),
            },
            true,
        ),
        (
            "d_adaptive20",
            SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: true,
            },
            true,
        ),
        (
            "e_adaptive15",
            SchedulerKind::Adaptive {
                limit_bps: gibps(15.0),
                two_group: true,
            },
            true,
        ),
    ];

    println!("Fig. 5 — Workload 2 (1550 jobs: 5 waves x [30 w8, 30 w6, 30 w4, 70 w2, 120 w1, 30 sleep]), seed {seed}\n");
    run_trace_panels(5, &workload, seed, &out_dir, &panels, |res| {
        // Idle-node indicator over the second half of the run (the
        // phenomenon the paper highlights for panel (c)).
        let buckets = node_buckets(res, 20);
        let second_half_nodes: f64 = buckets[10..].iter().sum::<f64>() / 10.0;
        println!("  mean busy nodes (2nd half): {second_half_nodes:.1} / 15");
    });
    println!("paper reference (medians over repeats): (b) ~4%, (c) ~7%, (d) ~12%, (e) ~ io-aware-15 + 3%");
    println!("CSV data in {}", out_dir.display());
}
