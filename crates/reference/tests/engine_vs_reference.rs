//! The engine against the reference engine.
//!
//! `iosched_reference::engine` runs the experiment loop without any of
//! the production engine's speed-ups: a sorted queue over a plain job
//! table, an estimate book rebuilt from the analytics every round, and a
//! full backfill walk (no pruning, no post-start cut) in every round,
//! with no round elided or certified. On random small workloads
//! [`run_experiment`] and [`run_streaming`] must reproduce it bit for
//! bit: every job's start and end, the makespan, the pass
//! and iteration counts, and the sampled traces. Only `rounds_elided` and
//! `rounds_certified`, which count the skipped work, may differ.
//!
//! The generator covers every scheduler (naïve adaptive and packing
//! included), both queue orders, small queue depths and reservation
//! budgets, jobs that overrun their limits, burst buffers, noisy and
//! noiseless file
//! systems, pretrained and untrained runs, streaming windows smaller
//! than the trace, and sparse traces admitted whole at t = 0. A further
//! property packs the node policy's time-invariant rounds around
//! overrunning jobs, where round elision's guards decide.

use iosched_cluster::{ExecSpec, Phase};
use iosched_experiments::{
    run_experiment, run_streaming, ExperimentConfig, ExperimentResult, SchedulerKind,
    StreamingOptions, StreamingResult,
};
use iosched_lustre::LustreConfig;
use iosched_reference::engine as reference;
use iosched_simkit::ids::JobId;
use iosched_simkit::prop::Strategy;
use iosched_simkit::rng::SimRng;
use iosched_simkit::series::TimeSeries;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::units::{gib, gibps};
use iosched_simkit::{prop_assert_eq, props};
use iosched_slurm::PriorityPolicy;
use iosched_workloads::{JobSubmission, WorkloadBuilder};

/// One random run: a configuration, a workload in submit order, and
/// for streaming runs the admission window.
#[derive(Clone, Debug)]
struct Scenario {
    cfg: ExperimentConfig,
    workload: Vec<JobSubmission>,
    window: usize,
}

/// Random [`Scenario`]s. `streaming` ones are untrained, as
/// `run_streaming` requires.
struct Scenarios {
    streaming: bool,
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

fn secs(rng: &mut SimRng, lo: u64, hi: u64) -> SimDuration {
    SimDuration::from_secs(lo + rng.index((hi - lo) as usize) as u64)
}

/// A job shape: its nodes and phases. Jobs of one name share a shape up
/// to a size factor, so a name's estimate means something.
fn shape(rng: &mut SimRng, max_nodes: usize) -> ExecSpec {
    // Half the shapes may be as wide as the machine, the rest take one
    // or two nodes.
    let widest = if rng.index(2) == 0 {
        max_nodes
    } else {
        max_nodes.min(2)
    };
    let nodes = 1 + rng.index(widest);
    let write = |rng: &mut SimRng| Phase::Write {
        threads_per_node: 1 + rng.index(8),
        bytes_per_thread: gib(rng.uniform_range(0.1, 3.0)),
    };
    let phases = match rng.index(6) {
        0 | 5 => vec![Phase::Sleep(secs(rng, 5, 200))],
        1 | 2 => vec![write(rng)],
        3 => vec![Phase::Compute(secs(rng, 5, 60)), write(rng)],
        _ => vec![write(rng), Phase::Compute(secs(rng, 5, 60))],
    };
    ExecSpec { nodes, phases }
}

/// `spec` with its durations and volumes scaled by `f`.
fn scaled(spec: &ExecSpec, f: f64) -> ExecSpec {
    let dur = |d: SimDuration| SimDuration::from_millis(((d.as_millis() as f64) * f) as u64 + 1);
    let phases = spec
        .phases
        .iter()
        .map(|p| match *p {
            Phase::Sleep(d) => Phase::Sleep(dur(d)),
            Phase::Compute(d) => Phase::Compute(dur(d)),
            Phase::Write {
                threads_per_node,
                bytes_per_thread,
            } => Phase::Write {
                threads_per_node,
                bytes_per_thread: bytes_per_thread * f,
            },
        })
        .collect();
    ExecSpec {
        nodes: spec.nodes,
        phases,
    }
}

impl Strategy for Scenarios {
    type Value = Scenario;

    fn generate(&self, rng: &mut SimRng) -> Scenario {
        let limit_bps = gibps(pick(rng, &[1.0, 2.5, 3.0, 6.0, 12.0, 20.0]));
        let scheduler = match rng.index(5) {
            0 => SchedulerKind::DefaultBackfill,
            1 => SchedulerKind::IoAware { limit_bps },
            2 => SchedulerKind::Adaptive {
                limit_bps,
                two_group: true,
            },
            3 => SchedulerKind::Adaptive {
                limit_bps,
                two_group: false,
            },
            _ => SchedulerKind::Packing { limit_bps },
        };
        let mut cfg = ExperimentConfig::paper(scheduler, rng.next_u64() % 10_000);
        cfg.nodes = 2 + rng.index(7);
        cfg.fs = if rng.index(2) == 0 {
            LustreConfig::stria().noiseless()
        } else {
            LustreConfig::stria()
        };
        cfg.sched_period = secs(rng, 1, 30);
        cfg.sched_min_interval = SimDuration::from_secs(pick(rng, &[0, 1, 2, 5]));
        cfg.max_queue_depth = pick(rng, &[1, 2, 3, 500]);
        cfg.backfill_max = pick(rng, &[0, 1, 2, usize::MAX]);
        cfg.priority_policy = pick(rng, &[PriorityPolicy::Fifo, PriorityPolicy::Priority]);
        cfg.pretrained = !self.streaming && rng.index(2) == 0;
        cfg.qos_fraction = pick(rng, &[0.0, 0.5, 1.0]);
        if rng.index(4) == 0 {
            cfg.burst_buffer_per_node_bytes = gib(pick(rng, &[1.0, 4.0, 20.0]));
        }

        let names = 1 + rng.index(4);
        let shapes: Vec<(ExecSpec, SimDuration)> = (0..names)
            .map(|_| (shape(rng, cfg.nodes), secs(rng, 20, 400)))
            .collect();
        let jobs = 4 + rng.index(21);
        let mut submit = SimTime::ZERO;
        let mut workload = Vec::with_capacity(jobs);
        for i in 0..jobs {
            if rng.index(2) == 0 {
                submit += SimDuration::from_millis(rng.index(60_000) as u64);
            }
            let kind = rng.index(names);
            let (spec, limit) = &shapes[kind];
            let f = rng.uniform_range(0.5, 1.5);
            // Limits are often too short, so jobs overrun them.
            let limit = if rng.index(2) == 0 {
                secs(rng, 5, 300)
            } else {
                SimDuration::from_millis(
                    ((limit.as_millis() as f64) * pick(rng, &[0.2, 0.6, 1.0, 2.0])) as u64,
                )
            };
            workload.push(JobSubmission {
                id: JobId(i as u64 + 1),
                name: format!("type{kind}"),
                exec: scaled(spec, f),
                limit,
                submit,
                priority: rng.index(4) as i64,
                after: Vec::new(),
            });
        }
        let window = if self.streaming {
            1 + rng.index(jobs)
        } else {
            jobs
        };
        Scenario {
            cfg,
            workload,
            window,
        }
    }
}

/// Dense sleep-only workloads under the node policy, with limits drawn
/// apart from runtimes so about half the jobs overrun:
/// the time-invariant rounds that round elision skips most, with the
/// overrunning jobs whose moving reservation ends its guards must see.
struct NodeRounds;

impl Strategy for NodeRounds {
    type Value = Scenario;

    fn generate(&self, rng: &mut SimRng) -> Scenario {
        let mut cfg = ExperimentConfig::paper(SchedulerKind::DefaultBackfill, 1);
        cfg.fs = LustreConfig::stria().noiseless();
        cfg.nodes = 2 + rng.index(4);
        cfg.sched_period = secs(rng, 1, 11);
        cfg.sched_min_interval = SimDuration::ZERO;
        cfg.pretrained = false;
        let jobs = 3 + rng.index(10);
        let mut workload: Vec<JobSubmission> = (0..jobs)
            .map(|i| JobSubmission {
                id: JobId(i as u64 + 1),
                name: format!("job{i}"),
                exec: ExecSpec {
                    nodes: 1 + rng.index(cfg.nodes),
                    phases: vec![Phase::Sleep(secs(rng, 5, 305))],
                },
                limit: secs(rng, 5, 305),
                submit: SimTime::ZERO + secs(rng, 0, 200),
                priority: 0,
                after: Vec::new(),
            })
            .collect();
        workload.sort_by_key(|j| j.submit);
        Scenario {
            cfg,
            window: jobs,
            workload,
        }
    }
}

/// The shape of `testbed_stream`: the whole trace admitted at t = 0 (a
/// window no smaller than the trace), arrivals spaced wider than the
/// scheduling period, and runs of jobs submitted at one instant. Most
/// loop iterations are then sample ticks between arrivals, through which
/// the engine keeps its cached next arrival.
struct SparseArrivals;

impl Strategy for SparseArrivals {
    type Value = Scenario;

    fn generate(&self, rng: &mut SimRng) -> Scenario {
        let scheduler = pick(
            rng,
            &[
                SchedulerKind::DefaultBackfill,
                SchedulerKind::Adaptive {
                    limit_bps: gibps(20.0),
                    two_group: true,
                },
            ],
        );
        let mut cfg = ExperimentConfig::paper(scheduler, rng.next_u64() % 10_000);
        cfg.nodes = 2 + rng.index(14);
        if rng.index(2) == 0 {
            cfg.fs = LustreConfig::stria().noiseless();
        }
        cfg.sched_period = secs(rng, 1, 20);
        cfg.pretrained = false;
        let names = 1 + rng.index(3);
        let shapes: Vec<ExecSpec> = (0..names).map(|_| shape(rng, cfg.nodes)).collect();
        let jobs = 3 + rng.index(18);
        let mut submit = SimTime::ZERO + secs(rng, 0, 30);
        let workload = (0..jobs)
            .map(|i| {
                if i > 0 && rng.index(4) != 0 {
                    submit +=
                        cfg.sched_period + SimDuration::from_millis(1 + rng.index(90_000) as u64);
                }
                let kind = rng.index(names);
                JobSubmission {
                    id: JobId(i as u64 + 1),
                    name: format!("type{kind}"),
                    exec: scaled(&shapes[kind], rng.uniform_range(0.5, 1.5)),
                    limit: secs(rng, 20, 400),
                    submit,
                    priority: 0,
                    after: Vec::new(),
                }
            })
            .collect();
        Scenario {
            cfg,
            workload,
            window: jobs + rng.index(3),
        }
    }
}

fn trace_bits(t: &TimeSeries) -> Vec<(SimTime, u64)> {
    t.points().iter().map(|&(t, v)| (t, v.to_bits())).collect()
}

/// Bitwise equality of everything a batch run decides and samples.
fn same_batch(got: &ExperimentResult, want: &ExperimentResult) -> Result<(), String> {
    let jobs = |r: &ExperimentResult| {
        r.jobs
            .iter()
            .map(|j| (j.id, j.start, j.end))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(jobs(got), jobs(want), "per-job records differ");
    prop_assert_eq!(
        got.makespan_secs.to_bits(),
        want.makespan_secs.to_bits(),
        "makespan {} vs {}",
        got.makespan_secs,
        want.makespan_secs
    );
    prop_assert_eq!(got.sched_passes, want.sched_passes, "sched_passes");
    prop_assert_eq!(got.loop_iterations, want.loop_iterations, "loop_iterations");
    prop_assert_eq!(
        trace_bits(&got.throughput_trace),
        trace_bits(&want.throughput_trace),
        "throughput trace"
    );
    prop_assert_eq!(
        trace_bits(&got.nodes_trace),
        trace_bits(&want.nodes_trace),
        "nodes trace"
    );
    Ok(())
}

/// Bitwise equality of every streaming field but the skipped-work counts.
fn same_streaming(got: &StreamingResult, want: &StreamingResult) -> Result<(), String> {
    let fields = |r: &StreamingResult| {
        (
            r.label.clone(),
            r.jobs_completed,
            r.makespan_secs.to_bits(),
            r.mean_wait_secs.to_bits(),
            r.max_wait_secs.to_bits(),
            r.sched_passes,
            r.loop_iterations,
            r.peak_resident_jobs,
        )
    };
    prop_assert_eq!(fields(got), fields(want), "streaming results differ");
    Ok(())
}

props! {
    #![cases(256)]

    /// `run_experiment` decides and samples exactly as the reference.
    fn batch_runs_match_the_reference(s in Scenarios { streaming: false }) {
        let got = run_experiment(&s.cfg, &s.workload);
        let want = reference::run_experiment(&s.cfg, &s.workload);
        same_batch(&got, &want)?;
    }

    /// Node-policy rounds around overrunning jobs decide as the
    /// reference's.
    fn node_rounds_match_the_reference(s in NodeRounds) {
        let got = run_experiment(&s.cfg, &s.workload);
        let want = reference::run_experiment(&s.cfg, &s.workload);
        same_batch(&got, &want)?;
    }

    /// `run_streaming` under a window, often smaller than the trace,
    /// keeps the reference's aggregates.
    fn streaming_runs_match_the_reference(s in Scenarios { streaming: true }) {
        let opts = StreamingOptions {
            window: s.window,
            ..StreamingOptions::default()
        };
        let got = run_streaming(&s.cfg, s.workload.iter().cloned(), &opts);
        let want = reference::run_streaming(&s.cfg, s.workload.iter().cloned(), s.window);
        same_streaming(&got, &want)?;
    }

    /// Sparse arrivals of a trace admitted whole at t = 0 stream and
    /// replay as the reference's, which asks the job table for the next
    /// arrival every iteration.
    fn sparse_arrivals_match_the_reference(s in SparseArrivals) {
        let opts = StreamingOptions {
            window: s.window,
            ..StreamingOptions::default()
        };
        let got = run_streaming(&s.cfg, s.workload.iter().cloned(), &opts);
        let want = reference::run_streaming(&s.cfg, s.workload.iter().cloned(), s.window);
        same_streaming(&got, &want)?;
        let got = run_experiment(&s.cfg, &s.workload);
        let want = reference::run_experiment(&s.cfg, &s.workload);
        same_batch(&got, &want)?;
    }
}

fn quick_cfg(kind: SchedulerKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(kind, 7);
    cfg.fs = LustreConfig::stria().noiseless();
    cfg.nodes = 5;
    cfg.sched_period = SimDuration::from_secs(5);
    cfg
}

fn tiny_workload() -> Vec<JobSubmission> {
    WorkloadBuilder::new()
        .waves(2, |b| {
            b.batch(
                4,
                "write_x4",
                ExecSpec::write_xn(4, gib(2.0)),
                SimDuration::from_secs(600),
            )
            .batch(
                6,
                "sleep",
                ExecSpec::sleep(SimDuration::from_secs(30)),
                SimDuration::from_secs(60),
            )
        })
        .build()
}

fn assert_same_batch(got: &ExperimentResult, want: &ExperimentResult, what: &str) {
    if let Err(e) = same_batch(got, want) {
        panic!("{what}: {e}");
    }
}

/// Round elision and the no-start certificate skip work, not decisions:
/// on the two-wave workload every policy family matches the reference,
/// which runs every pass.
#[test]
fn round_elision_is_outcome_neutral_across_policies() {
    for kind in [
        SchedulerKind::DefaultBackfill,
        SchedulerKind::IoAware {
            limit_bps: gibps(3.0),
        },
        SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        },
    ] {
        let cfg = quick_cfg(kind);
        let w = tiny_workload();
        let got = run_experiment(&cfg, &w);
        assert_same_batch(
            &got,
            &reference::run_experiment(&cfg, &w),
            &format!("{kind:?}"),
        );
    }
}

/// A 1-node sleep of 300 s with a 60 s limit overruns
/// from t = 60 on; its reservation end then tracks `now`, so no round of
/// the overrun window may be elided (the `next_limit_expiry` guard). The
/// run matches the reference, which elides nothing; the control run
/// (limit 400 s, no overrun) elides the bulk of the same window.
#[test]
fn overrun_jobs_block_round_elision() {
    let mk = |limit_s: u64| {
        WorkloadBuilder::new()
            .batch(
                1,
                "hog",
                ExecSpec::sleep(SimDuration::from_secs(300)),
                SimDuration::from_secs(limit_s),
            )
            .batch(
                1,
                "waiter",
                ExecSpec::sleep(SimDuration::from_secs(10)),
                SimDuration::from_secs(30),
            )
            .build()
    };
    let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
    cfg.nodes = 1;

    let overrun = run_experiment(&cfg, &mk(60));
    assert_same_batch(
        &overrun,
        &reference::run_experiment(&cfg, &mk(60)),
        "overrunning hog",
    );
    // Pre-overrun rounds (t < 60) may elide; the 48 rounds of the
    // overrun window (60 ≤ t < 300) must all execute.
    assert!(
        overrun.rounds_elided + 48 <= overrun.sched_passes,
        "elided {} of {} rounds despite the overrunning hog",
        overrun.rounds_elided,
        overrun.sched_passes
    );
    let control = run_experiment(&cfg, &mk(400));
    assert_same_batch(
        &control,
        &reference::run_experiment(&cfg, &mk(400)),
        "control",
    );
    assert!(
        control.rounds_elided > overrun.rounds_elided + 20,
        "control elided {} vs overrun {}",
        control.rounds_elided,
        overrun.rounds_elided
    );
}
