//! Bench target for the **scale sweep**: streaming synthetic-SWF replay
//! on machines 1×–100× the paper's testbed (15 → 1 500 nodes, 56 →
//! 5 600 OSTs), up to 100k jobs per point.
//!
//! Two kinds of points:
//!
//! * **Strong scaling** (`{policy}_x{f}`): the *same* testbed-sized
//!   trace replayed on the 1×, 10× and 100× machines. Only the data
//!   structures grow (OST arrays, node tables, constraint lists), so
//!   per-event cost — `events_per_sec` — must stay flat; a super-linear
//!   scan anywhere in the hot path shows up as the big machine falling
//!   behind. The headline criterion is that `events_per_sec` stays
//!   within 3× between the 1× and 100× machines.
//! * **Load-matched** (`{policy}_x{f}_load`): a trace sized for the
//!   scaled machine itself — the acceptance workloads (100k jobs on a
//!   1 005-node cluster; 1M jobs on a 10 005-node one) streamed through
//!   the bounded admission window.
//!
//! Points suffixed `_swf` replay from an **SWF trace file** instead of
//! the in-memory generator: the synthetic records are rendered to disk
//! line by line, then streamed back through [`iosched_workloads::open_swf`]
//! — line-at-a-time, so peak memory stays independent of trace length.
//! Because `SwfRecord::to_line` / `parse_swf` round-trip integer-exactly
//! and both paths share `SwfRecord::to_submission`, an `_swf` point
//! replays the bit-identical submission stream of its generator twin
//! (the smoke pair `default_x1` / `default_x1_swf` asserts equal event
//! counts). The full sweep's headline addition is the **million-job
//! point**: 1M jobs streamed from a ~70 MB SWF file onto the 667×
//! (10 005-node, 37 352-OST) machine.
//!
//! Per point the suite records **counters** (`events/…`,
//! `events_per_job/…`) — deterministic event-loop iteration counts,
//! gated by `bench_diff --gate` so an event blowup fails CI even when
//! wall-time noise hides it — and **meta** (`events_per_sec/…`,
//! `ns_per_job/…`, `events_per_sec_ratio/…`) wall-clock diagnostics,
//! report-only.
//!
//! `--smoke` replays small traces only (CI's per-commit loop); the full
//! sweep runs on demand (`./ci.sh --full-scale`) against the committed
//! baseline `results/bench/BENCH_scale.json`.

use iosched_experiments::driver::{ExperimentConfig, SchedulerKind};
use iosched_experiments::pool;
use iosched_experiments::streaming::{run_streaming, StreamingOptions, StreamingResult};
use iosched_simkit::bench::BenchSuite;
use iosched_simkit::units::gibps;
use iosched_workloads::{open_swf, JobSubmission, SwfOptions, SynthConfig, SynthTrace};
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};

const SEED: u64 = 2024;

/// Which machine the synthetic trace is sized for.
#[derive(Clone, Copy, PartialEq)]
enum Load {
    /// Sized for the 15-node testbed regardless of machine factor —
    /// the strong-scaling points (identical workload, bigger machine).
    Testbed,
    /// Sized for the scaled machine itself — the load-matched points.
    Matched,
}

/// Where the submission stream comes from.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// Straight from the in-memory synthetic generator.
    Synth,
    /// Rendered to an SWF file first, then streamed back line by line
    /// through the [`open_swf`] reader — the archive-replay path.
    Swf,
}

/// I/O shaping shared by both trace sources (same options → the SWF
/// round trip reproduces the generator's submissions exactly).
fn swf_opts() -> SwfOptions {
    SwfOptions {
        io_fraction: 0.3,
        io_rate_per_node_bps: gibps(0.2),
        ..SwfOptions::default()
    }
}

/// The deterministic synthetic trace for a machine of `nodes` nodes.
fn trace(nodes: usize, jobs: u64) -> impl Iterator<Item = JobSubmission> {
    SynthTrace::new(SynthConfig::sized_for(nodes, jobs, SEED)).submissions(swf_opts())
}

/// Node count the trace is sized for.
fn trace_nodes(kind: SchedulerKind, factor: usize, load: Load) -> usize {
    match load {
        Load::Testbed => ExperimentConfig::paper(kind, SEED).nodes,
        Load::Matched => ExperimentConfig::paper_scaled(kind, SEED, factor).nodes,
    }
}

/// Render the synthetic trace to an SWF file under `target/` (written
/// record by record, so generation is O(1) in memory like the replay)
/// and return its path. Regenerated on every run: the write is seconds
/// even at 1M jobs, and never goes stale against the generator.
fn write_swf_file(nodes: usize, jobs: u64) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/scale-swf");
    std::fs::create_dir_all(&dir).expect("create SWF scratch dir");
    let path = dir.join(format!("synth_n{nodes}_j{jobs}_s{SEED}.swf"));
    let file = std::fs::File::create(&path).expect("create SWF trace file");
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "; synthetic SWF trace (nodes={nodes} jobs={jobs} seed={SEED})"
    )
    .unwrap();
    for rec in SynthTrace::new(SynthConfig::sized_for(nodes, jobs, SEED)) {
        writeln!(w, "{}", rec.to_line()).unwrap();
    }
    w.flush().unwrap();
    path
}

/// One streaming replay of `jobs` synthetic jobs on the `factor`-scaled
/// testbed. `swf_path`, when set, streams the pre-rendered SWF file
/// instead of the in-memory generator.
fn replay(
    kind: SchedulerKind,
    factor: usize,
    jobs: u64,
    load: Load,
    swf_path: Option<&Path>,
) -> StreamingResult {
    let mut cfg = ExperimentConfig::paper_scaled(kind, SEED, factor);
    cfg.pretrained = false;
    let nodes = trace_nodes(kind, factor, load);
    let opts = StreamingOptions::default();
    let res = match swf_path {
        None => run_streaming(&cfg, trace(nodes, jobs), &opts),
        Some(path) => {
            let reader = open_swf(path, swf_opts()).expect("open generated SWF trace");
            run_streaming(
                &cfg,
                reader.map(|r| r.expect("generated SWF trace must parse")),
                &opts,
            )
        }
    };
    assert!(
        res.peak_resident_jobs <= opts.window,
        "residency must stay bounded by the admission window"
    );
    res
}

fn main() {
    let mut suite = BenchSuite::from_args("scale");

    // (policy, machine factor, jobs, trace sizing, trace source). The
    // strong-scaling trio replays one 20k-job testbed trace on every
    // machine; the load-matched points are the acceptance workloads —
    // 100k jobs onto a 1 005-node (67×) cluster, and 1M jobs streamed
    // from an SWF file onto a 10 005-node (667×) one, with a
    // density-matched x1 reference (1.5k jobs ≈ the same jobs-per-node
    // as the big points) for the events/sec comparison.
    let adaptive = SchedulerKind::Adaptive {
        limit_bps: gibps(20.0),
        two_group: true,
    };
    type Point = (SchedulerKind, usize, u64, Load, Source);
    let full: Vec<Point> = vec![
        (
            SchedulerKind::DefaultBackfill,
            1,
            20_000,
            Load::Testbed,
            Source::Synth,
        ),
        (
            SchedulerKind::DefaultBackfill,
            10,
            20_000,
            Load::Testbed,
            Source::Synth,
        ),
        (
            SchedulerKind::DefaultBackfill,
            100,
            20_000,
            Load::Testbed,
            Source::Synth,
        ),
        (
            SchedulerKind::DefaultBackfill,
            67,
            100_000,
            Load::Matched,
            Source::Synth,
        ),
        (
            SchedulerKind::DefaultBackfill,
            1,
            1_500,
            Load::Matched,
            Source::Synth,
        ),
        (
            SchedulerKind::DefaultBackfill,
            667,
            1_000_000,
            Load::Matched,
            Source::Swf,
        ),
        (adaptive, 1, 20_000, Load::Testbed, Source::Synth),
    ];
    let smoke: Vec<Point> = vec![
        (
            SchedulerKind::DefaultBackfill,
            1,
            2_000,
            Load::Testbed,
            Source::Synth,
        ),
        (
            SchedulerKind::DefaultBackfill,
            100,
            2_000,
            Load::Testbed,
            Source::Synth,
        ),
        (
            SchedulerKind::DefaultBackfill,
            1,
            2_000,
            Load::Testbed,
            Source::Swf,
        ),
    ];
    let plan = if suite.is_smoke() { smoke } else { full };

    // One conventional timed entry so the suite carries a wall-clock
    // benchmark alongside the counters (kept small: the sweep itself is
    // measured once per point, not repeated).
    suite.bench("stream_default_x1_1k", || {
        black_box(
            replay(
                SchedulerKind::DefaultBackfill,
                1,
                1_000,
                Load::Testbed,
                None,
            )
            .loop_iterations,
        );
    });

    // The sweep's points fan out over the campaign pool (worker count
    // from `CAMPAIGN_THREADS` / `available_parallelism`; results merge
    // in plan order regardless of completion order). The gated
    // `events/…` counters are deterministic loop-iteration counts, so
    // they are worker-count-independent; the wall-clock metas are
    // measured per point inside its task and are co-scheduled when the
    // pool runs points concurrently — pin `CAMPAIGN_THREADS=1` for
    // clean sequential timings.
    let threads = pool::configured_threads(None)
        .unwrap_or_else(|e| panic!("{e}"))
        .min(plan.len());
    let points = pool::run_all(
        &plan,
        threads,
        || (),
        |(), _idx, &(kind, factor, jobs, load, source)| {
            let mut label = format!("{}_x{factor}", kind.label());
            if load == Load::Matched {
                label.push_str("_load");
            }
            if source == Source::Swf {
                label.push_str("_swf");
            }
            // Render the trace file outside the timed window: the metas
            // measure replay, not disk writes. Each point has a unique
            // (nodes, jobs) pair, so concurrent points never share a
            // file.
            let path = (source == Source::Swf)
                .then(|| write_swf_file(trace_nodes(kind, factor, load), jobs));
            let start = std::time::Instant::now();
            let res = replay(kind, factor, jobs, load, path.as_deref());
            let elapsed = start.elapsed().as_secs_f64();
            if let Some(p) = path {
                let _ = std::fs::remove_file(p);
            }
            (label, res, elapsed)
        },
        |_, _| {},
    );

    let mut events_per_sec: Vec<(String, f64)> = Vec::new();
    let mut event_counts: Vec<(String, u64)> = Vec::new();
    for (label, res, elapsed) in points {
        event_counts.push((label.clone(), res.loop_iterations));
        assert!(res.jobs_completed > 0, "{label}: no jobs completed");
        let events = res.loop_iterations as f64;
        let per_job = events / res.jobs_completed as f64;
        suite.counter(&format!("events/{label}"), events);
        suite.counter(&format!("events_per_job/{label}"), per_job);
        suite.meta(&format!("events_per_sec/{label}"), events / elapsed);
        suite.meta(
            &format!("ns_per_job/{label}"),
            elapsed * 1e9 / res.jobs_completed as f64,
        );
        events_per_sec.push((label.clone(), events / elapsed));
        println!(
            "scale {label}: {} jobs in {elapsed:.2} s wall — {events:.0} events \
             ({:.0} events/s, {per_job:.1} events/job, peak resident {})",
            res.jobs_completed,
            events / elapsed,
            res.peak_resident_jobs,
        );
    }

    // The SWF-file path must replay the *identical* submission stream:
    // the smoke plan runs the same 2k-job testbed trace through both
    // sources, and their deterministic event counts must agree exactly.
    let events = |l: &str| event_counts.iter().find(|(n, _)| n == l).map(|&(_, v)| v);
    if let (Some(synth), Some(swf)) = (events("default_x1"), events("default_x1_swf")) {
        assert_eq!(
            synth, swf,
            "SWF-file streaming must replay the generator's exact trace"
        );
    }

    // The headline scaling ratios: per-event cost of the big machines
    // relative to the testbed. Must stay within 3× — strong-scaling 1×
    // vs 100×, and load-matched 1× vs the million-job 667× SWF replay.
    let eps = |l: &str| events_per_sec.iter().find(|(n, _)| n == l).map(|&(_, v)| v);
    if let (Some(x1), Some(x100)) = (eps("default_x1"), eps("default_x100")) {
        suite.meta("events_per_sec_ratio/default_x1_over_x100", x1 / x100);
    }
    if let (Some(x1), Some(x667)) = (eps("default_x1_load"), eps("default_x667_load_swf")) {
        suite.meta(
            "events_per_sec_ratio/default_x1_load_over_x667_load_swf",
            x1 / x667,
        );
    }
    suite.finish();
}
