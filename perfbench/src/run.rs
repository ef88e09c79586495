//! One benchmark run: repeat the workload's operation until the time is
//! up, check every output, and collect the metrics.

use crate::mirror::{replay, replay_grid};
use crate::trace::{Layer, Tracer};
use crate::workload::{
    run_untraced, set_up, swf_stream, Fingerprint, OpInput, Size, Source, Workload, POOL_WORKERS,
};
use iosched_experiments::{CampaignGrid, CampaignRecord};
use iosched_simkit::json::{self, ToJson, Value};
use iosched_simkit::stats::{median, quantile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Operations start until this much time has passed; the last one
    /// runs to completion.
    pub seconds: f64,
    /// Also replay every operation through the traced mirror and report
    /// per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Directory SWF traces are rendered into.
    pub scratch: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// How many times each operation's inputs are built; every build is a
/// `setup_s` sample, and the last one is used.
const SETUP_REPEATS: usize = 3;

/// Timing of one operation.
#[derive(Clone, Debug)]
struct OpTiming {
    setup_s: Vec<f64>,
    wall_s: f64,
    jobs: u64,
}

/// The outcome of a run.
pub struct Report {
    pub spec: RunSpec,
    pub correct: bool,
    /// Operations attempted: campaign tasks, or replayed jobs.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Every simulated run's fingerprint, in order.
    pub fingerprints: Vec<Fingerprint>,
    ops: Vec<OpTiming>,
    /// Traced runs only: the merged spans.
    tracer: Option<Tracer>,
}

/// Where the committed Fig. 6 record log lives, relative to the
/// repository root.
const FIG6_RECORDS: &str = "results/fig6/records.jsonl";

/// The committed Fig. 6 campaign records, the oracle for every task of
/// the same scheduler and seed. Empty when the log is not there.
fn fig6_oracle() -> Vec<CampaignRecord> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(FIG6_RECORDS);
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    // Line 1 is the grid spec; unparsable lines are a torn tail.
    text.lines()
        .skip(1)
        .filter_map(|l| json::from_str::<CampaignRecord>(l).ok())
        .collect()
}

/// Tasks of `grid` whose records are wrong: out of order, incomplete, or
/// different from the committed record of the same scheduler and seed.
fn check_grid(
    grid: &CampaignGrid,
    records: &[CampaignRecord],
    jobs_per_task: u64,
    oracle: &[CampaignRecord],
    errors: &mut Vec<String>,
) -> u64 {
    let tasks = grid.tasks();
    if records.len() != tasks.len() {
        errors.push(format!(
            "{} records for {} tasks",
            records.len(),
            tasks.len()
        ));
        return tasks.len() as u64;
    }
    let mut failed = 0;
    for (task, rec) in tasks.iter().zip(records) {
        let mut ok = rec.index == task.index
            && rec.seed == task.seed
            && rec.scheduler == task.scheduler
            && rec.jobs == jobs_per_task
            && rec.makespan_secs > 0.0;
        if !ok {
            errors.push(format!("task {}: record {rec:?} is incomplete", task.index));
        }
        if let Some(o) = oracle
            .iter()
            .find(|o| o.label == rec.label && o.seed == rec.seed)
        {
            let expected = CampaignRecord {
                index: rec.index,
                ..o.clone()
            };
            if *rec != expected {
                ok = false;
                errors.push(format!(
                    "task {} ({} seed {}) differs from {FIG6_RECORDS}",
                    task.index, rec.label, rec.seed
                ));
            }
        }
        failed += u64::from(!ok);
    }
    failed
}

/// Run `spec`. Never panics on a simulator failure: a panicking
/// operation counts as failed and the run goes on.
pub fn run(spec: &RunSpec) -> Report {
    std::fs::create_dir_all(&spec.scratch).expect("create the scratch directory");
    let oracle = if spec.workload == Workload::Fig6W2Swarm {
        fig6_oracle()
    } else {
        Vec::new()
    };
    let mut report = Report {
        spec: spec.clone(),
        correct: true,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        fingerprints: Vec::new(),
        ops: Vec::new(),
        tracer: None,
    };
    let mut tracer = Tracer::default();
    let mut untraced_ns: u64 = 0;
    let mut traced_ns: u64 = 0;
    let mut pool_capacity_ns: u64 = 0;
    // Peak memory of one operation in a fresh process. Later operations
    // would also count heap the allocator kept from earlier ones.
    let mut first_op_rss_mb = 0.0;

    let start = Instant::now();
    let mut op = 0;
    while op == 0 || start.elapsed().as_secs_f64() < spec.seconds {
        let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
        let mut input = None;
        for _ in 0..SETUP_REPEATS {
            // Drop the previous build first: it deletes its SWF file,
            // which has the same path as the one about to be written.
            drop(input.take());
            let t = Instant::now();
            input = Some(set_up(
                spec.workload,
                spec.seed,
                op,
                spec.size,
                &spec.scratch,
            ));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut input = input.expect("set up at least once");
        let attempts = input.attempts();
        report.attempted += attempts;
        let jobs_copy = match &input {
            OpInput::Stream {
                source: Source::Jobs(jobs),
                ..
            } if spec.trace => Some(jobs.clone()),
            _ => None,
        };

        let t = Instant::now();
        let untraced = catch_unwind(AssertUnwindSafe(|| run_untraced(&mut input)));
        let wall = t.elapsed();
        if op == 0 {
            first_op_rss_mb = peak_rss_mb();
        }
        let untraced = match untraced {
            Ok(u) => u,
            Err(_) => {
                report
                    .errors
                    .push(format!("op {op}: the simulator panicked"));
                report.failed += attempts;
                op += 1;
                continue;
            }
        };
        let mut op_failed = match &input {
            OpInput::Grid { grid, jobs } => check_grid(
                grid,
                &untraced.records,
                jobs.len() as u64,
                &oracle,
                &mut report.errors,
            ),
            OpInput::Stream { opts, .. } => {
                let done = untraced.fingerprints[0].jobs;
                let mut missing = attempts.saturating_sub(done);
                if missing > 0 {
                    report
                        .errors
                        .push(format!("op {op}: {done} of {attempts} jobs completed"));
                }
                if untraced.peak_resident > opts.window {
                    report.errors.push(format!(
                        "op {op}: {} resident jobs exceed the window of {}",
                        untraced.peak_resident, opts.window
                    ));
                    missing = attempts;
                }
                missing
            }
        };
        let completed: u64 = untraced.fingerprints.iter().map(|f| f.jobs).sum();
        report.ops.push(OpTiming {
            setup_s,
            wall_s: wall.as_secs_f64(),
            jobs: completed,
        });
        untraced_ns += wall.as_nanos() as u64;

        if spec.trace {
            let t = Instant::now();
            let traced = catch_unwind(AssertUnwindSafe(|| {
                traced_fingerprints(&input, jobs_copy, &mut tracer, &mut pool_capacity_ns)
            }));
            traced_ns += t.elapsed().as_nanos() as u64;
            match traced {
                Ok(fps) if fps == untraced.fingerprints => {}
                Ok(fps) => {
                    report.errors.push(format!(
                        "op {op}: traced mirror diverged: {fps:?} vs {:?}",
                        untraced.fingerprints
                    ));
                    op_failed = attempts;
                }
                Err(_) => {
                    report
                        .errors
                        .push(format!("op {op}: the traced mirror panicked"));
                    op_failed = attempts;
                }
            }
        }
        report.failed += op_failed.min(attempts);
        report.fingerprints.extend(untraced.fingerprints);
        op += 1;
    }

    report.correct = report.failed == 0 && report.errors.is_empty();
    report.metrics = if spec.trace {
        layer_metrics(&tracer, untraced_ns, traced_ns, pool_capacity_ns)
    } else {
        end_to_end_metrics(&report.ops, first_op_rss_mb)
    };
    if spec.trace {
        report.tracer = Some(tracer);
    }
    report
}

/// Replay one operation through the traced mirror. `pool_capacity_ns`
/// accumulates workers × wall of every pool run (or the replay wall for
/// a single-threaded replay).
fn traced_fingerprints(
    input: &OpInput,
    jobs_copy: Option<Vec<iosched_workloads::JobSubmission>>,
    tracer: &mut Tracer,
    pool_capacity_ns: &mut u64,
) -> Vec<Fingerprint> {
    match input {
        OpInput::Grid { grid, jobs } => {
            let traced = replay_grid(grid, jobs);
            tracer.merge(&traced.tracer);
            *pool_capacity_ns += POOL_WORKERS as u64 * traced.pool_wall_ns;
            traced.fingerprints
        }
        OpInput::Stream { cfg, opts, source } => {
            let mut tr = Tracer::default();
            let fp = match source {
                Source::Jobs(_) => {
                    let jobs = jobs_copy.expect("traced runs keep a copy of the jobs");
                    replay(cfg, jobs, opts, None, &mut tr)
                }
                Source::Swf { path, .. } => replay(cfg, swf_stream(path), opts, None, &mut tr),
            };
            *pool_capacity_ns += tr.wall_ns;
            tracer.merge(&tr);
            vec![fp]
        }
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    median(&v).unwrap_or(0.0)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end_metrics(ops: &[OpTiming], peak_rss_mb: f64) -> Vec<Metric> {
    let ok = ops.iter().filter(|o| o.jobs > 0);
    vec![
        metric(
            "jobs_per_s",
            median_of(ok.map(|o| o.jobs as f64 / o.wall_s)),
            "jobs/s",
        ),
        metric(
            "setup_s",
            median_of(ops.iter().flat_map(|o| o.setup_s.iter().copied())),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn layer_metrics(
    tr: &Tracer,
    untraced_ns: u64,
    traced_ns: u64,
    pool_capacity_ns: u64,
) -> Vec<Metric> {
    let c = &tr.counts;
    let passes = tr.backfill_pass_ns.len() as u64;
    let elided = tr.queue_depths.len() as u64 - passes;
    let jobs = c.jobs.max(1) as f64;
    let per_job = |n: u64| n as f64 / jobs;
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let q = |samples: &[u64], q: f64| {
        let v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        quantile(&v, q).unwrap_or(0.0)
    };

    let mut out: Vec<Metric> = Layer::ALL
        .iter()
        .map(|&l| metric(l.metric(), per_job(tr.layer_ns(l)), "ns/job"))
        .collect();
    let counts = [
        ("cluster-sim.advance.calls", c.advance_calls),
        ("ldms-sim.sample.calls", c.sample_calls),
        ("ldms-sim.store.records", c.store_records),
        ("analytics.refresh.estimates", c.refresh_estimates),
        ("slurm-sim.backfill.calls", passes),
        ("slurm-sim.backfill.elided", elided),
        ("slurm-sim.profile.sweep_steps", c.sweep_steps),
        ("slurm-sim.profile.tree_descents", c.tree_descents),
        ("slurm-sim.profile.tree_updates", c.tree_updates),
        ("slurm-sim.queue_prep.walk_steps", c.queue_walk_steps),
        ("slurm-sim.queue_prep.index_ops", c.queue_index_ops),
        ("experiments.loop.iterations", c.loop_iterations),
    ];
    out.extend(
        counts
            .iter()
            .map(|&(name, n)| metric(name, per_job(n), "count/job")),
    );
    // Every job completes and starts exactly once, so these are per call
    // and per executed pass instead.
    out.push(metric(
        "cluster-sim.completions",
        frac(c.completions, c.advance_calls),
        "count/call",
    ));
    let per_pass = [
        ("slurm-sim.backfill.started", c.backfill_started),
        ("slurm-sim.backfill.reservations", c.backfill_reservations),
        ("slurm-sim.backfill.pruned", c.backfill_pruned),
    ];
    out.extend(
        per_pass
            .iter()
            .map(|&(name, n)| metric(name, frac(n, passes), "count/pass")),
    );
    out.extend([
        metric(
            "slurm-sim.backfill.p50_us",
            q(&tr.backfill_pass_ns, 0.5) / 1e3,
            "us",
        ),
        metric(
            "slurm-sim.backfill.p99_us",
            q(&tr.backfill_pass_ns, 0.99) / 1e3,
            "us",
        ),
        metric(
            "slurm-sim.backfill.productive_frac",
            frac(c.backfill_productive, passes),
            "fraction",
        ),
        metric(
            "slurm-sim.queue_depth.p50",
            q(&tr.queue_depths, 0.5),
            "jobs",
        ),
        metric(
            "slurm-sim.queue_depth.max",
            q(&tr.queue_depths, 1.0),
            "jobs",
        ),
        metric("experiments.task.p50_ms", q(&tr.task_ns, 0.5) / 1e6, "ms"),
        metric("experiments.task.p80_ms", q(&tr.task_ns, 0.8) / 1e6, "ms"),
        metric(
            "experiments.pool.busy_frac",
            frac(tr.wall_ns, pool_capacity_ns),
            "fraction",
        ),
        metric(
            "trace.covered_frac",
            frac(tr.covered_ns(), tr.wall_ns),
            "fraction",
        ),
        metric(
            "trace.overhead_frac",
            frac(traced_ns, untraced_ns) - 1.0,
            "fraction",
        ),
    ]);
    out
}

/// Machine the run was measured on.
fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cpu".into(), Value::Str(cpu)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

impl Report {
    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
        .to_json_string()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// File name of the detailed report.
    pub fn file_name(&self) -> String {
        format!(
            "{}_{}_s{}.json",
            if self.spec.trace { "TRACE" } else { "E2E" },
            self.spec.workload.name(),
            self.spec.seed
        )
    }

    /// The detailed report: the result plus the machine, every
    /// operation's timing and fingerprints, and (traced) the layer
    /// breakdown sorted by share of traced time.
    pub fn to_json(&self) -> Value {
        let mut obj = vec![
            (
                "workload".into(),
                Value::Str(self.spec.workload.name().into()),
            ),
            ("seed".into(), Value::Num(self.spec.seed as f64)),
            ("seconds".into(), Value::Num(self.spec.seconds)),
            ("trace".into(), Value::Bool(self.spec.trace)),
            ("machine".into(), machine()),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("errors".into(), self.errors.to_json()),
            ("metrics".into(), metrics_json(&self.metrics)),
            (
                "ops".into(),
                Value::Array(
                    self.ops
                        .iter()
                        .map(|o| {
                            Value::Object(vec![
                                ("setup_s".into(), o.setup_s.to_json()),
                                ("wall_s".into(), Value::Num(o.wall_s)),
                                ("jobs".into(), Value::Num(o.jobs as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fingerprints".into(),
                Value::Array(
                    self.fingerprints
                        .iter()
                        .map(|f| {
                            let mut o = vec![
                                ("jobs".into(), Value::Num(f.jobs as f64)),
                                (
                                    "loop_iterations".into(),
                                    Value::Num(f.loop_iterations as f64),
                                ),
                                ("sched_passes".into(), Value::Num(f.sched_passes as f64)),
                            ];
                            if let Some(e) = f.rounds_elided {
                                o.push(("rounds_elided".into(), Value::Num(e as f64)));
                            }
                            o.push(("makespan_secs".into(), Value::Num(f.makespan_secs())));
                            Value::Object(o)
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(tr) = &self.tracer {
            let mut layers: Vec<(Layer, u64)> =
                Layer::ALL.iter().map(|&l| (l, tr.layer_ns(l))).collect();
            layers.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
            let wall = tr.wall_ns.max(1) as f64;
            obj.push((
                "layers".into(),
                Value::Array(
                    layers
                        .iter()
                        .map(|&(l, ns)| {
                            Value::Object(vec![
                                ("layer".into(), Value::Str(l.metric().into())),
                                ("ns".into(), Value::Num(ns as f64)),
                                ("share".into(), Value::Num(ns as f64 / wall)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::Object(obj)
    }

    /// Share of traced wall time spent in `layer` (traced runs only).
    pub fn layer_share(&self, layer: Layer) -> Option<f64> {
        let tr = self.tracer.as_ref()?;
        Some(tr.layer_ns(layer) as f64 / tr.wall_ns.max(1) as f64)
    }
}
