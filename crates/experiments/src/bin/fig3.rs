//! Reproduce **Fig. 3**: representative results of scheduling Workload 1
//! under the five configurations of the paper —
//!
//! (a) default Slurm backfill, (b) I/O-aware 20 GiB/s pre-trained,
//! (c) I/O-aware 15 GiB/s pre-trained, (d) adaptive 20 GiB/s pre-trained,
//! (e) adaptive 20 GiB/s untrained.
//!
//! Emits per-panel trace CSVs under `results/fig3/` and prints ASCII
//! panels plus the makespan improvements over the default scheduler
//! (paper: b ≈ −10 %, c ≈ −20 %, d ≈ −26 %, e ≈ −25 %).
//!
//! Usage: `cargo run --release -p iosched-experiments --bin fig3 [seed]`

use iosched_experiments::driver::SchedulerKind;
use iosched_experiments::figures::run_trace_panels;
use iosched_simkit::units::gibps;
use iosched_workloads::{workload_1, PaperParams};
use std::path::PathBuf;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let workload = workload_1(&PaperParams::default());
    let out_dir = PathBuf::from("results/fig3");

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
            "e_adaptive20_untrained",
            SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: true,
            },
            false,
        ),
    ];

    println!("Fig. 3 — Workload 1 (720 jobs: 8 waves x [30 write_x8 + 60 sleep]), seed {seed}\n");
    run_trace_panels(3, &workload, seed, &out_dir, &panels, |_| {});
    println!("paper reference: (b) ~10%, (c) ~20%, (d) ~26%, (e) ~25% improvement");
    println!("CSV data in {}", out_dir.display());
}
