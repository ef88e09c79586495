//! Paper-vs-measured summary of every headline number in the paper's
//! evaluation (§V–§VII): the Workload 1 improvements behind Fig. 3 and
//! the Workload 2 medians behind Figs. 5–6, plus the §IX conclusion
//! ranges.
//!
//! Everything runs as campaign grids on the engine, with record logs
//! under `results/summary/`. The Workload 2 grid first looks for a
//! compatible `results/fig6/records.jsonl` (same axes, seeds covered)
//! and reuses those records instead of re-running Fig. 6; otherwise it
//! runs resumably against its own log, so a rerun only executes what
//! is missing.
//!
//! Usage:
//! `cargo run --release -p iosched-experiments --bin summary [n_seeds]`
//! (seeds only affect the Workload 2 medians; Workload 1 uses the
//! representative seed of Fig. 3).

use iosched_experiments::figures::{fig6_grid, write_output};
use iosched_experiments::{
    run_grid_resumable, CampaignGrid, CampaignOptions, CampaignRecord, GridBase, PolicyFamily,
    WorkloadSpec,
};
use iosched_simkit::json::from_str;
use iosched_simkit::stats::median;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Row {
    experiment: &'static str,
    paper: &'static str,
    measured: String,
}

/// Replay a record log written for a grid with the same policies,
/// thresholds, workloads and base but a (possibly wider) seed axis —
/// how `summary` borrows Fig. 6's records. Returns the records
/// reindexed into `grid` task order, or `None` if any task is missing.
fn reuse_from_log(path: &Path, grid: &CampaignGrid) -> Option<Vec<CampaignRecord>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header: CampaignGrid = from_str(lines.next()?).ok()?;
    if header.policies != grid.policies
        || header.thresholds_gibps != grid.thresholds_gibps
        || header.workloads != grid.workloads
        || header.base != grid.base
    {
        return None;
    }
    let mut by_key: HashMap<(String, u64), CampaignRecord> = HashMap::new();
    for line in lines {
        if let Ok(rec) = from_str::<CampaignRecord>(line) {
            by_key.insert((rec.label.clone(), rec.seed), rec);
        }
    }
    grid.tasks()
        .iter()
        .map(|t| {
            by_key.get(&(t.scheduler.label(), t.seed)).map(|r| {
                let mut r = r.clone();
                r.index = t.index;
                r
            })
        })
        .collect()
}

fn main() {
    let n_seeds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let opts = CampaignOptions::default().resolved().unwrap_or_else(|e| {
        eprintln!("summary: {e}");
        std::process::exit(2)
    });
    let mut rows: Vec<Row> = Vec::new();
    let imp = |base: f64, x: f64| 100.0 * (base - x) / base;

    // ── Workload 1 (representative seed 42, Fig. 3) ──
    // One grid covers every pretrained panel; the untrained ablation
    // (Fig. 3e) differs in base config, so it is its own tiny grid.
    let w1_grid = CampaignGrid::new(
        vec![
            PolicyFamily::Default,
            PolicyFamily::IoAware,
            PolicyFamily::Adaptive,
        ],
        vec![20.0, 15.0],
        vec![42],
        WorkloadSpec::Workload1,
    );
    let mut w1_untrained_grid = CampaignGrid::new(
        vec![PolicyFamily::Adaptive],
        vec![20.0],
        vec![42],
        WorkloadSpec::Workload1,
    );
    w1_untrained_grid.base = GridBase {
        pretrained: false,
        ..GridBase::default()
    };
    eprintln!("running Workload 1 panels...");
    let w1 = run_grid_resumable(&w1_grid, opts, &PathBuf::from("results/summary/w1.jsonl"))
        .expect("write w1 record log");
    let w1u = run_grid_resumable(
        &w1_untrained_grid,
        opts,
        &PathBuf::from("results/summary/w1_untrained.jsonl"),
    )
    .expect("write w1 untrained record log");
    // Grid order: default, io-aware-20, io-aware-15, adaptive-20, adaptive-15.
    let w1_default = w1[0].makespan_secs;
    rows.push(Row {
        experiment: "W1 io-aware 20 GiB/s vs default (Fig 3b)",
        paper: "~10%",
        measured: format!("{:+.1}%", imp(w1_default, w1[1].makespan_secs)),
    });
    rows.push(Row {
        experiment: "W1 io-aware 15 GiB/s vs default (Fig 3c)",
        paper: "~20%",
        measured: format!("{:+.1}%", imp(w1_default, w1[2].makespan_secs)),
    });
    rows.push(Row {
        experiment: "W1 adaptive 20 GiB/s vs default (Fig 3d)",
        paper: "~26%",
        measured: format!("{:+.1}%", imp(w1_default, w1[3].makespan_secs)),
    });
    rows.push(Row {
        experiment: "W1 adaptive untrained vs default (Fig 3e)",
        paper: "~25%",
        measured: format!("{:+.1}%", imp(w1_default, w1u[0].makespan_secs)),
    });

    // ── Workload 2 (multi-seed medians, Fig. 6) ──
    let w2_grid = fig6_grid(n_seeds);
    let fig6_log = PathBuf::from("results/fig6/records.jsonl");
    let w2 = match reuse_from_log(&fig6_log, &w2_grid) {
        Some(records) => {
            eprintln!("reusing Workload 2 records from {}", fig6_log.display());
            records
        }
        None => {
            eprintln!("running Workload 2 campaigns ({n_seeds} seeds)...");
            run_grid_resumable(&w2_grid, opts, &PathBuf::from("results/summary/w2.jsonl"))
                .expect("write w2 record log")
        }
    };
    let med = |group: &[CampaignRecord]| -> f64 {
        let makespans: Vec<f64> = group.iter().map(|r| r.makespan_secs).collect();
        median(&makespans).expect("non-empty group")
    };
    let groups: Vec<&[CampaignRecord]> = w2.chunks(n_seeds).collect();
    // Same grid order as W1: default, io-20, io-15, adaptive-20, adaptive-15.
    let w2_default = med(groups[0]);
    let w2_io15_m = med(groups[2]);
    let w2_ad15_m = med(groups[4]);
    rows.push(Row {
        experiment: "W2 io-aware 20 GiB/s vs default (Fig 6)",
        paper: "~4%",
        measured: format!("{:+.1}%", imp(w2_default, med(groups[1]))),
    });
    rows.push(Row {
        experiment: "W2 io-aware 15 GiB/s vs default (Fig 6)",
        paper: "~7%",
        measured: format!("{:+.1}%", imp(w2_default, w2_io15_m)),
    });
    rows.push(Row {
        experiment: "W2 adaptive 20 GiB/s vs default (Fig 6)",
        paper: "~12%",
        measured: format!("{:+.1}%", imp(w2_default, med(groups[3]))),
    });
    rows.push(Row {
        experiment: "W2 adaptive 15 vs io-aware 15 (Fig 6)",
        paper: "~3%",
        measured: format!("{:+.1}%", 100.0 * (w2_io15_m - w2_ad15_m) / w2_io15_m),
    });

    // ── Render ──
    let mut out = String::new();
    writeln!(
        out,
        "{:<44} {:>8} {:>10}",
        "experiment", "paper", "measured"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(64)).unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<44} {:>8} {:>10}",
            r.experiment, r.paper, r.measured
        )
        .unwrap();
    }
    println!("{out}");
    write_output(&PathBuf::from("results/summary.txt"), &out).expect("write");
    println!("written to results/summary.txt");
}
