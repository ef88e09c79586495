//! Bench target for **deep-queue scheduling rounds**: one backfill pass
//! over 5k- and 50k-deep wait queues on a 1 005-node cluster with 200
//! running jobs, for the node-only, I/O-aware and adaptive policies, at
//! the default backfill config under a bounded reservation budget (64).
//!
//! Every `round_*` queue's head takes the last free nodes, so the pass
//! starts it and the post-start cut ends the walk right there. The
//! `round_*_blocked` variants run the same rounds on a machine without
//! the 5 free nodes: nothing starts, so the pass walks the whole queue
//! and its pruning and profile probes stay measured.
//!
//! `round_5k_reserve/node` stresses the write path: a free cluster where
//! every job starts now and reserves a distinct, shuffled end instant.
//! Every probe fits at once, but its window and each reserve's range add
//! span about half the profile, so the timing is the per-reserve cost
//! at up to 5 000 entries.
//! `round_50k/*` (full mode only) stresses queue depth an order of
//! magnitude past the paper setup.
//!
//! `queue_prep/{policy}` measures wait-queue preparation on a
//! 50k-resident pending window: the incrementally maintained ordered
//! indexes walked to depth 500.
//!
//! **Counters** (deterministic, gated by `bench_diff --gate`), one
//! counted round per policy and machine: `sweep_steps/round_5k_*` —
//! profile entries scanned forward by `earliest_at_most` probes past
//! their binary search, so a rise means probes walk further before they
//! settle. `pruned/round_5k_*` — fixpoints skipped by dominance
//! pruning; `index_ops/queue_prep_build_50k` and
//! `walk_steps/queue_prep_*` — ordered-index maintenance and top-k walk
//! work on the queue-prep window; `rounds_elided/driver_default` and
//! `sched_passes/driver_default` — round elision on a small blocked-queue
//! driver run. Full mode adds the same round counters at 50k depth
//! (`*/round_50k_*`) and a breakpoint-count × queue-depth scaling grid
//! of blocked rounds (`*/grid_b{B}_q{D}`).

use iosched_analytics::JobEstimate;
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_experiments::driver::{run_experiment, ExperimentConfig, SchedulerKind};
use iosched_simkit::bench::BenchSuite;
use iosched_simkit::ids::JobId;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::units::gibps;
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass_into, take_sweep_steps, BackfillConfig, PassStats, RunningView, SchedJob,
    SchedulingOutcome, SchedulingPolicy,
};
use std::hint::black_box;

const TOTAL_NODES: usize = 1_005;
/// The same machine without its 5 free nodes: the 200 running jobs hold
/// every node, so no queue entry starts.
const BLOCKED_NODES: usize = TOTAL_NODES - 5;
const NOW_S: u64 = 1_000;
const BUDGET: usize = 64;

/// `count` running jobs × 5 nodes with staggered starts and limits, so
/// the node profile carries ~2·`count` distinct breakpoints and no job
/// overruns at `now = 1 000 s` (starts wrap below `now`, limits start at
/// 1 100 s). The default round benches use `count = 200` on the
/// 1 005-node cluster (1 000 of 1 005 nodes busy); the full-mode scaling
/// grid varies `count` against a proportionally sized cluster.
fn running_set(count: u64) -> Vec<(SchedJob, SimTime)> {
    (0..count)
        .map(|i| {
            (
                SchedJob::new(
                    JobId(100_000 + i),
                    format!("r{}", i % 7),
                    5,
                    SimDuration::from_secs(1_100 + i * 7),
                    SimTime::ZERO,
                ),
                SimTime::from_secs((i * 2) % 1_000),
            )
        })
        .collect()
}

/// A deep wait queue: the head consumes the 5 free nodes, everything
/// after is delayed (on the blocked machine the head is delayed too).
/// Nodes (1–8) and limits (600–1216 s) cycle with coprime periods, so
/// reservation breakpoints rarely coincide — every reserve adds
/// breakpoints — while a least-demanding 1-node / 600 s failure still
/// appears once per 712 entries, after which dominance pruning skips
/// the whole tail.
fn deep_queue(n: usize) -> Vec<SchedJob> {
    let mut q = vec![SchedJob::new(
        JobId(0),
        "head".to_string(),
        5,
        SimDuration::from_secs(600),
        SimTime::ZERO,
    )];
    q.extend((1..n as u64).map(|i| {
        SchedJob::new(
            JobId(i),
            format!("q{}", i % 11),
            1 + (i as usize % 8),
            SimDuration::from_secs(600 + (i % 89) * 7),
            SimTime::ZERO,
        )
    }));
    q
}

/// Node-proportional estimates (0.04 GiB/s per node, half-limit
/// runtimes) for every queued and running job. A uniform per-node rate
/// makes ρ = r/n identical across the queue, so the adaptive two-group
/// split classifies every entry the same way and dominance pruning holds
/// queue-wide for all three policies (node dominance implies bandwidth
/// dominance).
fn estimate_book(queue: &[SchedJob], running: &[(SchedJob, SimTime)]) -> EstimateBook {
    let mut book = EstimateBook::new();
    for j in queue.iter().chain(running.iter().map(|(j, _)| j)) {
        book.insert(
            j.id,
            JobEstimate {
                throughput_bps: gibps(0.04 * j.nodes as f64),
                runtime: SimDuration::from_secs(j.limit.as_secs_f64() as u64 / 2),
            },
        );
    }
    book
}

/// One round at `now = 1 000 s` on a machine of `total_nodes`.
fn round<P: SchedulingPolicy>(
    total_nodes: usize,
    policy: &mut P,
    views: &[RunningView<'_>],
    refs: &[&SchedJob],
    cfg: &BackfillConfig,
    outcome: &mut SchedulingOutcome,
) -> PassStats {
    backfill_pass_into(
        policy,
        views,
        refs,
        SimTime::from_secs(NOW_S),
        total_nodes,
        cfg,
        outcome,
    )
}

/// The default backfill config under the bounded reservation budget.
fn bounded() -> BackfillConfig {
    BackfillConfig {
        max_reservations: BUDGET,
        ..BackfillConfig::default()
    }
}

/// One counted round at the default bounded config: records the
/// `sweep_steps` and `pruned` counters under `label`. `starts` says
/// whether the head starts (a round on a machine with free nodes) or
/// nothing does (a blocked round).
fn counted_round<P: SchedulingPolicy>(
    suite: &mut BenchSuite,
    label: &str,
    mut policy: P,
    views: &[RunningView<'_>],
    refs: &[&SchedJob],
    total_nodes: usize,
    starts: bool,
) {
    let mut outcome = SchedulingOutcome::default();
    take_sweep_steps();
    let stats = backfill_pass_into(
        &mut policy,
        views,
        refs,
        SimTime::from_secs(NOW_S),
        total_nodes,
        &bounded(),
        &mut outcome,
    );
    if starts {
        assert_eq!(
            outcome.start_now,
            [refs[0].id],
            "{label}: only the head starts"
        );
    } else {
        assert!(outcome.start_now.is_empty(), "{label}: nothing may start");
    }
    suite.counter(&format!("sweep_steps/{label}"), take_sweep_steps() as f64);
    suite.counter(&format!("pruned/{label}"), stats.pruned as f64);
}

/// The I/O-aware policy over `book` at `limit` B/s.
fn io_policy(book: &EstimateBook, limit: f64) -> IoAwarePolicy {
    let mut p = IoAwarePolicy::new(IoAwareConfig { limit_bps: limit });
    p.begin_round(book.clone());
    p
}

/// The paper's adaptive policy over `book` at `limit` B/s.
fn adaptive_policy(book: &EstimateBook, limit: f64) -> AdaptivePolicy {
    let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(limit));
    p.begin_round(book.clone());
    p
}

/// The counted rounds of one queue depth: each policy on the machine
/// with 5 free nodes (`round_{depth}_*`, the head starts) and on the
/// blocked one (`round_{depth}_blocked_*`, nothing starts).
fn counted_rounds(
    suite: &mut BenchSuite,
    depth: &str,
    book: &EstimateBook,
    limit: f64,
    views: &[RunningView<'_>],
    refs: &[&SchedJob],
) {
    for (suffix, nodes, starts) in [("", TOTAL_NODES, true), ("_blocked", BLOCKED_NODES, false)] {
        let label = |policy: &str| format!("round_{depth}{suffix}_{policy}");
        counted_round(
            suite,
            &label("node"),
            NodePolicy::default(),
            views,
            refs,
            nodes,
            starts,
        );
        let io = io_policy(book, limit);
        counted_round(suite, &label("io_aware"), io, views, refs, nodes, starts);
        let ad = adaptive_policy(book, limit);
        counted_round(suite, &label("adaptive"), ad, views, refs, nodes, starts);
    }
}

fn main() {
    let mut suite = BenchSuite::from_args("sched");

    let running = running_set(200);
    let views: Vec<RunningView<'_>> = running
        .iter()
        .map(|(j, s)| RunningView {
            job: j,
            started: *s,
        })
        .collect();
    let queue_5k = deep_queue(5_000);
    let refs_5k: Vec<&SchedJob> = queue_5k.iter().collect();
    let book = estimate_book(&queue_5k, &running);
    let limit = gibps(60.0);

    let bounded = bounded();
    let mut outcome = SchedulingOutcome::default();

    let io = |book: &EstimateBook| io_policy(book, limit);
    let adaptive = |book: &EstimateBook| adaptive_policy(book, limit);

    // Deterministic per-round counters (outside the timed loops).
    counted_rounds(&mut suite, "5k", &book, limit, &views, &refs_5k);

    let mut node_p = NodePolicy::default();
    let mut io_p = io(&book);
    let mut ad_p = adaptive(&book);
    suite.bench("round_5k/node", || {
        round(
            TOTAL_NODES,
            &mut node_p,
            &views,
            &refs_5k,
            &bounded,
            &mut outcome,
        );
        black_box(outcome.start_now.len());
    });
    suite.bench("round_5k/io_aware", || {
        round(
            TOTAL_NODES,
            &mut io_p,
            &views,
            &refs_5k,
            &bounded,
            &mut outcome,
        );
        black_box(outcome.start_now.len());
    });
    suite.bench("round_5k/adaptive", || {
        round(
            TOTAL_NODES,
            &mut ad_p,
            &views,
            &refs_5k,
            &bounded,
            &mut outcome,
        );
        black_box(outcome.start_now.len());
    });
    suite.bench("round_5k_blocked/node", || {
        round(
            BLOCKED_NODES,
            &mut node_p,
            &views,
            &refs_5k,
            &bounded,
            &mut outcome,
        );
        black_box(outcome.reservations.len());
    });
    suite.bench("round_5k_blocked/io_aware", || {
        round(
            BLOCKED_NODES,
            &mut io_p,
            &views,
            &refs_5k,
            &bounded,
            &mut outcome,
        );
        black_box(outcome.reservations.len());
    });
    suite.bench("round_5k_blocked/adaptive", || {
        round(
            BLOCKED_NODES,
            &mut ad_p,
            &views,
            &refs_5k,
            &bounded,
            &mut outcome,
        );
        black_box(outcome.reservations.len());
    });

    // Write path: a reserve-heavy round on a free 30k-node cluster.
    // Every job starts now and reserves [now, now + limit) with a
    // distinct end instant in shuffled order (limits 600 + (i·37 mod
    // 5000) s), so every probe fits at once and the profile grows by
    // one entry per job.
    let reserve_queue: Vec<SchedJob> = (0..5_000u64)
        .map(|i| {
            SchedJob::new(
                JobId(i),
                format!("s{}", i % 11),
                1 + (i as usize % 8),
                SimDuration::from_secs(600 + (i * 37) % 5_000),
                SimTime::ZERO,
            )
        })
        .collect();
    let reserve_refs: Vec<&SchedJob> = reserve_queue.iter().collect();
    let unbounded = BackfillConfig::default();
    suite.bench("round_5k_reserve/node", || {
        backfill_pass_into(
            &mut node_p,
            &[],
            &reserve_refs,
            SimTime::from_secs(NOW_S),
            30_000,
            &unbounded,
            &mut outcome,
        );
        assert_eq!(outcome.start_now.len(), reserve_refs.len(), "free cluster");
    });

    // Queue preparation on a 50k-resident pending window: the
    // incremental ordered-index walk the engine runs (`wait_queue_into`,
    // a true top-k of references into the job table). 100
    // future-submitted entries sit at the head of the priority index
    // so the walk's skip path is exercised. Counters (deterministic):
    // `index_ops/queue_prep_build_50k` — ordered-index maintenance ops
    // while building the window; `walk_steps/queue_prep_{policy}` —
    // entries examined by one depth-500 prep.
    {
        use iosched_slurm::{take_queue_prep_counters, JobRegistry, PriorityPolicy};
        const RESIDENT: u64 = 50_000;
        const DEPTH: usize = 500;
        let now = SimTime::from_secs(100_000);
        take_queue_prep_counters();
        let mut reg = JobRegistry::new();
        for i in 0..RESIDENT {
            let mut j = SchedJob::new(
                JobId(i),
                format!("w{}", i % 13),
                1 + (i as usize % 8),
                SimDuration::from_secs(600 + (i % 89) * 7),
                SimTime::from_secs(i % 2_000),
            );
            j.priority = (i % 97) as i64;
            reg.submit(j);
        }
        // Future arrivals that outrank everything resident: top priority,
        // submitted past `now`, so the depth-limited priority walk must
        // skip them without consuming depth.
        for i in 0..100u64 {
            let mut j = SchedJob::new(
                JobId(RESIDENT + i),
                "future".to_string(),
                1,
                SimDuration::from_secs(500),
                SimTime::from_secs(200_000 + i),
            );
            j.priority = 1_000;
            reg.submit(j);
        }
        let (index_ops, _) = take_queue_prep_counters();
        suite.counter("index_ops/queue_prep_build_50k", index_ops as f64);

        let mut queue: Vec<&SchedJob> = Vec::new();
        for (label, policy) in [
            ("priority", PriorityPolicy::Priority),
            ("fifo", PriorityPolicy::Fifo),
        ] {
            take_queue_prep_counters();
            reg.wait_queue_into(now, policy, DEPTH, &mut queue);
            assert_eq!(queue.len(), DEPTH);
            let (_, steps) = take_queue_prep_counters();
            suite.counter(&format!("walk_steps/queue_prep_{label}"), steps as f64);

            suite.bench(&format!("queue_prep/{label}"), || {
                reg.wait_queue_into(now, policy, DEPTH, &mut queue);
                black_box(queue.len());
            });
        }
    }

    // 50k-deep rounds and the scaling grid: full mode only (an order of
    // magnitude past the paper's `bf_max_job_test`).
    if !suite.is_smoke() {
        let queue_50k = deep_queue(50_000);
        let refs_50k: Vec<&SchedJob> = queue_50k.iter().collect();
        let book_50k = estimate_book(&queue_50k, &running);
        counted_rounds(&mut suite, "50k", &book_50k, limit, &views, &refs_50k);

        let mut io_50k = io(&book_50k);
        let mut ad_50k = adaptive(&book_50k);
        suite.bench("round_50k/node", || {
            round(
                TOTAL_NODES,
                &mut node_p,
                &views,
                &refs_50k,
                &bounded,
                &mut outcome,
            );
            black_box(outcome.start_now.len());
        });
        suite.bench("round_50k/io_aware", || {
            round(
                TOTAL_NODES,
                &mut io_50k,
                &views,
                &refs_50k,
                &bounded,
                &mut outcome,
            );
            black_box(outcome.start_now.len());
        });
        suite.bench("round_50k/adaptive", || {
            round(
                TOTAL_NODES,
                &mut ad_50k,
                &views,
                &refs_50k,
                &bounded,
                &mut outcome,
            );
            black_box(outcome.start_now.len());
        });
        suite.bench("round_50k_blocked/node", || {
            round(
                BLOCKED_NODES,
                &mut node_p,
                &views,
                &refs_50k,
                &bounded,
                &mut outcome,
            );
            black_box(outcome.reservations.len());
        });
        suite.bench("round_50k_blocked/io_aware", || {
            round(
                BLOCKED_NODES,
                &mut io_50k,
                &views,
                &refs_50k,
                &bounded,
                &mut outcome,
            );
            black_box(outcome.reservations.len());
        });
        suite.bench("round_50k_blocked/adaptive", || {
            round(
                BLOCKED_NODES,
                &mut ad_50k,
                &views,
                &refs_50k,
                &bounded,
                &mut outcome,
            );
            black_box(outcome.reservations.len());
        });

        // Breakpoint-count × queue-depth scaling grid: blocked node-policy
        // rounds with B running jobs (≈ 2·B profile breakpoints) holding
        // every node of a proportionally sized cluster (5·B nodes) and a
        // D-deep queue, so the pass walks the whole queue.
        for &(b, d, dlabel) in &[
            (100u64, 2_000usize, "2k"),
            (100, 10_000, "10k"),
            (400, 2_000, "2k"),
            (400, 10_000, "10k"),
        ] {
            let grid_running = running_set(b);
            let grid_views: Vec<RunningView<'_>> = grid_running
                .iter()
                .map(|(j, s)| RunningView {
                    job: j,
                    started: *s,
                })
                .collect();
            let grid_queue = deep_queue(d);
            let grid_refs: Vec<&SchedJob> = grid_queue.iter().collect();
            let grid_nodes = 5 * b as usize;
            counted_round(
                &mut suite,
                &format!("grid_b{b}_q{dlabel}"),
                NodePolicy::default(),
                &grid_views,
                &grid_refs,
                grid_nodes,
                false,
            );
            let mut p = NodePolicy::default();
            suite.bench(&format!("round_grid/b{b}_q{dlabel}"), || {
                round(
                    grid_nodes,
                    &mut p,
                    &grid_views,
                    &grid_refs,
                    &bounded,
                    &mut outcome,
                );
                black_box(outcome.reservations.len());
            });
        }
    }

    // Round elision on a small driver run: 4 two-node blockers hold all
    // 8 nodes for 600 s while 20 one-node jobs wait; with a 5 s period
    // most rounds between completions are provably identical. Both
    // counters are deterministic (simulated time, fixed seed).
    {
        let mut blocker = iosched_cluster::ExecSpec::sleep(SimDuration::from_secs(600));
        blocker.nodes = 2;
        let w = iosched_workloads::WorkloadBuilder::new()
            .batch(4, "blocker", blocker, SimDuration::from_secs(700))
            .batch(
                20,
                "queued",
                iosched_cluster::ExecSpec::sleep(SimDuration::from_secs(60)),
                SimDuration::from_secs(120),
            )
            .build();
        let mut cfg = ExperimentConfig::paper(SchedulerKind::DefaultBackfill, 5);
        cfg.fs = iosched_lustre::LustreConfig::stria().noiseless();
        cfg.nodes = 8;
        cfg.sched_period = SimDuration::from_secs(5);
        cfg.pretrained = false;
        let res = run_experiment(&cfg, &w);
        assert!(
            res.rounds_elided > 0,
            "elision must fire on a blocked queue"
        );
        suite.counter("sched_passes/driver_default", res.sched_passes as f64);
        suite.counter("rounds_elided/driver_default", res.rounds_elided as f64);
    }

    suite.finish();
}
