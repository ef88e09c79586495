//! Microbenchmarks of the core data structures on the scheduler's hot
//! path: reservation profiles, the warm max-min fair solver, a full backfill
//! pass, the estimator, and the event queue.

use iosched_analytics::JobEstimator;
use iosched_cluster::{ClusterSim, ExecSpec, JobId as ClusterJobId};
use iosched_core::twogroup::{two_group_split, SplitJob, SplitScratch};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_lustre::solver::WarmSolver;
use iosched_lustre::{FsSnapshot, LustreConfig, LustreSim, StreamTag};
use iosched_simkit::bench::BenchSuite;
use iosched_simkit::ids::JobId;
use iosched_simkit::queue::EventQueue;
use iosched_simkit::rng::SimRng;
use iosched_simkit::sym::Sym;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::units::{gib, gibps};
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass, backfill_pass_into, BackfillConfig, ResourceProfile, RunningView, SchedJob,
    SchedulingOutcome,
};
use std::hint::black_box;

/// A file system carrying `streams_per_node × 15` active streams (stria
/// topology: 15 nodes × 56 OSTs), volumes large enough that nothing
/// completes while benching the recompute/snapshot/next-event paths.
fn loaded_fs(streams_per_node: usize) -> LustreSim {
    let cfg = LustreConfig::stria().noiseless();
    let mut fs = LustreSim::new(cfg, SimRng::from_seed(99));
    for node in 0..15 {
        fs.push_write_on_nodes(
            SimTime::ZERO,
            StreamTag(node as u64),
            &[node],
            streams_per_node,
            gib(1000.0),
            0.0,
        );
    }
    fs.solve_rates();
    fs
}

fn make_queue(n: usize) -> Vec<SchedJob> {
    (0..n as u64)
        .map(|i| {
            SchedJob::new(
                JobId(i),
                format!("job{}", i % 6),
                1,
                SimDuration::from_secs(600),
                SimTime::ZERO,
            )
        })
        .collect()
}

fn estimate_book(jobs: &[SchedJob]) -> EstimateBook {
    let mut book = EstimateBook::new();
    for j in jobs {
        book.insert(
            j.id,
            iosched_analytics::JobEstimate {
                throughput_bps: gibps(0.5),
                runtime: SimDuration::from_secs(60),
            },
        );
    }
    book
}

/// `(id, r, nodes, d)` rows of a 420-deep wait queue in FIFO id order:
/// the depth an adaptive round of the Fig. 6 campaign splits.
type SplitRow = (JobId, f64, usize, f64);

/// Workload 2's six job names in their wave blocks (30 × write_x8, x6,
/// x4, 70 × x2, 120 × x1, 30 sleeps), each name with one estimate: six ρ
/// classes.
fn w2_split_rows() -> Vec<SplitRow> {
    let wave = [(30, 8), (30, 6), (30, 4), (70, 2), (120, 1), (30, 0)];
    wave.iter()
        .cycle()
        .flat_map(|&(count, x)| std::iter::repeat_n(x, count))
        .take(420)
        .enumerate()
        .map(|(i, x)| {
            let (r, d) = match x {
                0 => (0.0, 300.0),
                x => (gibps(0.4 * x as f64), 60.0 + 30.0 * x as f64),
            };
            (JobId(i as u64), r, 1, d)
        })
        .collect()
}

/// 420 jobs whose loads are all distinct, in no particular ρ order.
fn distinct_split_rows() -> Vec<SplitRow> {
    (0..420u64)
        .map(|i| {
            let r = gibps(0.001 * ((i * 7919) % 420 + 1) as f64);
            (JobId(i), r, 1, 60.0 + (i % 7) as f64 * 30.0)
        })
        .collect()
}

fn main() {
    let mut suite = BenchSuite::from_args("micro");

    suite.bench("resource_profile/reserve_1000", || {
        let mut p = ResourceProfile::new(1);
        for i in 0..1000u64 {
            p.reserve(&[1], SimTime::from_secs(i), SimTime::from_secs(i + 50));
        }
        black_box(p.usage_at(0, SimTime::from_secs(500)));
    });

    // Capacity 100: a 60-unit job fits where usage stays at or below 40.
    let mut p = ResourceProfile::new(1);
    for i in 0..1000u64 {
        p.reserve(&[1], SimTime::from_secs(i), SimTime::from_secs(i + 50));
    }
    suite.bench("resource_profile/earliest_fit_among_1000", || {
        black_box(p.earliest_at_most(SimTime::ZERO, SimDuration::from_secs(100), &[100 - 60]));
    });

    // The production solver on single-stream churn: one leave + one
    // join on the same 1200-flow system, solving after each — the file
    // system's per-event pattern.
    let nodes15 = 15usize;
    let osts = 56usize;
    let n_cons = nodes15 + osts + 1;
    let fabric = (n_cons - 1) as u32;
    let mut warm = WarmSolver::new();
    warm.reset(n_cons, 3, 0.45);
    for c in 0..nodes15 {
        warm.set_con_cap(c, 5.0);
    }
    for o in 0..osts {
        warm.set_con_cap(nodes15 + o, 0.9);
    }
    warm.set_con_cap(n_cons - 1, 22.0);
    for i in 0..1200 {
        warm.add_flow(&[(i % nodes15) as u32, (nodes15 + i % osts) as u32, fabric]);
    }
    suite.bench("solver_churn_1200_streams/warm_repair", || {
        warm.remove_flow_swap(0);
        black_box(warm.solve()[0]);
        warm.add_flow(&[0, nodes15 as u32, fabric]);
        black_box(warm.solve()[0]);
    });

    let mut fs = loaded_fs(80); // 15 × 80 = 1200 streams
    let t0 = fs.now();
    suite.bench("fs_recompute_1200_streams", || {
        // A push over no nodes at the current time adds no stream but
        // owes a solve: a pure rate recompute over all active streams.
        fs.push_write_on_nodes(t0, StreamTag(0), &[], 1, 1.0, 0.0);
        fs.solve_rates();
        black_box(fs.total_throughput_bps());
    });
    suite.bench("fs_next_change_1200_streams", || {
        black_box(fs.next_change_time());
    });
    let mut snap_buf = FsSnapshot::default();
    suite.bench("fs_snapshot_into_1200_streams", || {
        fs.snapshot_into(&mut snap_buf);
        black_box(snap_buf.total_bps);
    });

    // The testbed's per-second tick with one stream running: noise
    // epochs every 10 s over 56 OSTs, fatigue stepped every second.
    suite.bench("lustre_idle_ticks_56_ost/stria", || {
        let mut fs = LustreSim::new(LustreConfig::stria(), SimRng::from_seed(7));
        fs.push_write_on_nodes(SimTime::ZERO, StreamTag(1), &[0], 1, gib(1e5), 0.0);
        fs.solve_rates();
        for sec in 1..=10_000 {
            fs.advance_to(SimTime::from_secs(sec));
        }
        black_box(fs.total_throughput_bps());
    });

    let jobs = make_queue(200);
    let refs: Vec<&SchedJob> = jobs.iter().collect();
    suite.bench("backfill_pass_200_jobs/node_policy", || {
        let mut policy = NodePolicy::default();
        black_box(backfill_pass(
            &mut policy,
            &[],
            &refs,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
        ));
    });
    suite.bench("backfill_pass_200_jobs/io_aware", || {
        let mut policy = IoAwarePolicy::new(IoAwareConfig {
            limit_bps: gibps(20.0),
        });
        policy.begin_round(estimate_book(&jobs));
        black_box(backfill_pass(
            &mut policy,
            &[],
            &refs,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
        ));
    });
    suite.bench("backfill_pass_200_jobs/adaptive_two_group", || {
        let mut policy = AdaptivePolicy::new(AdaptiveConfig::paper(gibps(20.0)));
        policy.begin_round(estimate_book(&jobs));
        black_box(backfill_pass(
            &mut policy,
            &[],
            &refs,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
        ));
    });

    suite.bench("estimator_observe_1000", || {
        let mut e = JobEstimator::with_default_decay();
        for i in 0..1000u64 {
            e.observe(
                Sym((i % 6) as u32),
                (i % 100) as f64,
                SimDuration::from_secs(60),
            );
        }
        black_box(e.estimate(Sym(0)));
    });

    // Full scheduling rounds over a 500-deep queue (the paper setup's
    // `bf_max_job_test`), through the allocation-free `_into` entry with
    // persistent policies and a reused outcome — the driver's steady
    // state.
    let deep_jobs = make_queue(500);
    let deep_refs: Vec<&SchedJob> = deep_jobs.iter().collect();
    let mut outcome = SchedulingOutcome::default();
    let mut node_policy = NodePolicy::default();
    suite.bench("sched_pass_500_jobs/node_policy", || {
        backfill_pass_into(
            &mut node_policy,
            &[],
            &deep_refs,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
            &mut outcome,
        );
        black_box(outcome.start_now.len());
    });
    let mut io_policy = IoAwarePolicy::new(IoAwareConfig {
        limit_bps: gibps(20.0),
    });
    io_policy.begin_round(estimate_book(&deep_jobs));
    suite.bench("sched_pass_500_jobs/io_aware", || {
        backfill_pass_into(
            &mut io_policy,
            &[],
            &deep_refs,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
            &mut outcome,
        );
        black_box(outcome.start_now.len());
    });
    let mut adaptive_policy = AdaptivePolicy::new(AdaptiveConfig::paper(gibps(20.0)));
    adaptive_policy.begin_round(estimate_book(&deep_jobs));
    suite.bench("sched_pass_500_jobs/adaptive_two_group", || {
        backfill_pass_into(
            &mut adaptive_policy,
            &[],
            &deep_refs,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
            &mut outcome,
        );
        black_box(outcome.start_now.len());
    });

    // The adaptive round's two-group split (Algorithm 5, lines 6–8),
    // from filling the split input to r̄_zero.
    let mut split_input = Vec::new();
    let mut split_scratch = SplitScratch::default();
    for (case, rows) in [
        ("two_group_split_420/w2_classes", w2_split_rows()),
        ("two_group_split_420/distinct_rho", distinct_split_rows()),
    ] {
        suite.bench(case, || {
            split_input.clear();
            split_input.extend(rows.iter().map(|&(id, r, n, d)| SplitJob::new(id, r, n, d)));
            black_box(two_group_split(&split_input, 0.5, &mut split_scratch));
        });
    }

    // The depth regime of an io-aware deep-queue run: one pass over 370
    // queued jobs against 130 running jobs that hold every node, with
    // unbounded reservations. Nothing starts, so every entry probes the
    // node and throughput profiles and reserves, and the profiles grow to
    // several hundred entries during the pass.
    let busy: Vec<SchedJob> = (0..130u64)
        .map(|i| {
            SchedJob::new(
                JobId(10_000 + i),
                format!("run{}", i % 9),
                1 + (i as usize * 7) % 13,
                SimDuration::from_secs(1_100 + i * 53),
                SimTime::ZERO,
            )
        })
        .collect();
    let busy_views: Vec<RunningView<'_>> = busy
        .iter()
        .enumerate()
        .map(|(i, job)| RunningView {
            job,
            started: SimTime::from_secs(i as u64 * 7),
        })
        .collect();
    let busy_nodes: usize = busy.iter().map(|j| j.nodes).sum();
    let waiting: Vec<SchedJob> = (0..370u64)
        .map(|i| {
            SchedJob::new(
                JobId(i),
                format!("wait{}", i % 11),
                1 + (i as usize * 5) % 16,
                SimDuration::from_secs(600 + (i * 37) % 3_000),
                SimTime::ZERO,
            )
        })
        .collect();
    let waiting_refs: Vec<&SchedJob> = waiting.iter().collect();
    let mut depth_book = EstimateBook::new();
    for j in waiting.iter().chain(&busy) {
        depth_book.insert(
            j.id,
            iosched_analytics::JobEstimate {
                throughput_bps: gibps(0.2 * j.nodes as f64),
                runtime: SimDuration::from_secs(j.limit.as_secs_f64() as u64 / 2),
            },
        );
    }
    let mut depth_policy = IoAwarePolicy::new(IoAwareConfig {
        limit_bps: gibps(15.0),
    });
    depth_policy.begin_round(depth_book);
    suite.bench(
        "sched_pass_370_queued_130_running/io_aware_no_start",
        || {
            backfill_pass_into(
                &mut depth_policy,
                &busy_views,
                &waiting_refs,
                SimTime::from_secs(1_000),
                busy_nodes,
                &BackfillConfig::default(),
                &mut outcome,
            );
            assert!(outcome.start_now.is_empty(), "every node is busy");
            assert_eq!(outcome.reservations.len(), waiting_refs.len());
        },
    );

    // The event calendar's `next_event_time` with 1 000 running timed
    // jobs: an O(1) peek.
    let mut big = ClusterSim::new(
        1000,
        LustreConfig::stria().noiseless(),
        SimRng::from_seed(7),
    );
    for j in 0..1000u64 {
        big.start_job(
            SimTime::ZERO,
            ClusterJobId(j),
            &ExecSpec::sleep(SimDuration::from_secs(100_000 + j)),
        )
        .expect("enough nodes");
    }
    suite.bench("cluster_next_event_1k_jobs/calendar", || {
        black_box(big.next_event_time());
    });

    // One scheduling round's starts at one instant: a dozen write×8
    // jobs on the testbed, pushed under one rate solve.
    let round: Vec<(ClusterJobId, ExecSpec)> = (0..12u64)
        .map(|j| (ClusterJobId(j), ExecSpec::write_xn(8, gib(10.0))))
        .collect();
    suite.bench("cluster_start_round/batched", || {
        let mut c = ClusterSim::new(15, LustreConfig::stria(), SimRng::from_seed(7));
        c.start_jobs(SimTime::ZERO, round.iter().map(|(id, spec)| (*id, spec)))
            .expect("enough nodes");
        black_box(c.next_event_time());
    });

    suite.bench("event_queue_push_pop_10k", || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_millis(i * 7919 % 100_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum);
    });

    suite.finish();
}
