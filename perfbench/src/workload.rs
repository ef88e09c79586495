//! The four benchmark workloads: how each operation's inputs derive from
//! the seed, and the untraced run through the simulator's public entry
//! points (`run_grid_streaming`, `run_streaming`).
//!
//! A run repeats one *operation* — a fixed-size slice of the workload
//! with its own sub-seed — until its time is up. Operation `k` of seed
//! `s` always gets the same inputs, so a run is a deterministic prefix of
//! one infinite sequence of inputs.

use iosched_experiments::campaign::run_grid_streaming;
use iosched_experiments::driver::{ExperimentConfig, SchedulerKind};
use iosched_experiments::streaming::{run_streaming, StreamingOptions, StreamingResult};
use iosched_experiments::{
    CampaignGrid, CampaignOptions, CampaignRecord, PolicyFamily, WorkloadSpec,
};
use iosched_simkit::units::gibps;
use iosched_workloads::{open_swf, JobSubmission, SwfOptions, SynthConfig, SynthTrace};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Worker threads of the campaign pool (the benchmark machine has two
/// cores; more workers would only time-slice).
pub const POOL_WORKERS: usize = 2;

/// Seed stride between the repetitions of one Fig. 6 configuration,
/// as in the `fig6` binary (`1000 + 17 i`).
const FIG6_SEED_STRIDE: u64 = 17;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 6 campaign: five schedulers × seeds on Workload 2,
    /// pretrained, fanned out over the campaign pool.
    Fig6W2Swarm,
    /// A 1 005-node machine under ~4× its I/O limit: hundreds of jobs
    /// pending, so backfill passes dominate.
    DeepQueueX67,
    /// The 15-node testbed with a shallow queue: 1 s sampling ticks and
    /// estimate refreshes dominate, backfill is negligible.
    TestbedStream,
    /// The 1 005-node machine fed from an SWF file through `open_swf`.
    SwfX67,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig6W2Swarm,
        Workload::DeepQueueX67,
        Workload::TestbedStream,
        Workload::SwfX67,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6W2Swarm => "fig6_w2_swarm",
            Workload::DeepQueueX67 => "deep_queue_x67",
            Workload::TestbedStream => "testbed_stream",
            Workload::SwfX67 => "swf_x67",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the committed baselines were measured with.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Fig6W2Swarm => 1000,
            _ => 2024,
        }
    }
}

/// How much work one operation does. `Smoke` keeps the same shape at a
/// size a test can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One streaming replay's fixed parameters.
struct StreamShape {
    scheduler: SchedulerKind,
    /// Machine growth factor (`ExperimentConfig::paper_scaled`).
    factor: usize,
    jobs: u64,
}

fn stream_shape(workload: Workload, size: Size) -> StreamShape {
    let smoke = size == Size::Smoke;
    match workload {
        Workload::DeepQueueX67 => StreamShape {
            scheduler: SchedulerKind::IoAware {
                limit_bps: gibps(15.0),
            },
            factor: 67,
            jobs: if smoke { 400 } else { 1_500 },
        },
        Workload::TestbedStream => StreamShape {
            scheduler: SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: true,
            },
            factor: 1,
            jobs: if smoke { 600 } else { 9_000 },
        },
        Workload::SwfX67 => StreamShape {
            scheduler: SchedulerKind::DefaultBackfill,
            factor: 67,
            jobs: if smoke { 1_500 } else { 10_000 },
        },
        Workload::Fig6W2Swarm => unreachable!("fig6_w2_swarm is a campaign, not a replay"),
    }
}

/// Seeds per Fig. 6 configuration in one operation (five configurations
/// each, so `5 × n` campaign tasks per operation).
fn fig6_seeds_per_op(size: Size) -> u64 {
    match size {
        Size::Full => 4,
        Size::Smoke => 1,
    }
}

/// I/O shaping of the synthetic traces (the scale bench's choice: 30 %
/// of each job's runtime writes at 0.2 GiB/s per node).
fn swf_opts() -> SwfOptions {
    SwfOptions {
        io_fraction: 0.3,
        io_rate_per_node_bps: gibps(0.2),
        ..SwfOptions::default()
    }
}

/// The Fig. 6 grid of operation `op`: the five Fig. 6 schedulers on
/// Workload 2, with seeds continuing the `seed + 17 i` sequence.
fn fig6_grid(seed: u64, op: u64, size: Size) -> CampaignGrid {
    let n = fig6_seeds_per_op(size);
    let seeds = (op * n..(op + 1) * n)
        .map(|i| seed.wrapping_add(FIG6_SEED_STRIDE * i))
        .collect();
    CampaignGrid::new(
        vec![
            PolicyFamily::Default,
            PolicyFamily::IoAware,
            PolicyFamily::Adaptive,
        ],
        vec![20.0, 15.0],
        seeds,
        WorkloadSpec::Workload2,
    )
}

/// Where a streaming operation reads its jobs from.
pub enum Source {
    /// The synthetic trace, generated during set-up.
    Jobs(Vec<JobSubmission>),
    /// The synthetic trace rendered to an SWF file during set-up; `jobs`
    /// counts the valid records in it.
    Swf { path: PathBuf, jobs: u64 },
}

/// Inputs of one operation, built during set-up.
pub enum OpInput {
    Grid {
        grid: CampaignGrid,
        /// Workload 2, materialized once for the whole grid.
        jobs: Vec<JobSubmission>,
    },
    Stream {
        cfg: ExperimentConfig,
        opts: StreamingOptions,
        source: Source,
    },
}

impl OpInput {
    /// Units the operation can fail in: campaign tasks, or replayed jobs.
    /// Read it before [`run_untraced`] consumes the job list.
    pub fn attempts(&self) -> u64 {
        match self {
            OpInput::Grid { grid, .. } => grid.task_count() as u64,
            OpInput::Stream {
                source: Source::Jobs(jobs),
                ..
            } => jobs.len() as u64,
            OpInput::Stream {
                source: Source::Swf { jobs, .. },
                ..
            } => *jobs,
        }
    }
}

impl Drop for OpInput {
    fn drop(&mut self) {
        if let OpInput::Stream {
            source: Source::Swf { path, .. },
            ..
        } = self
        {
            // Best effort: a leftover trace file is harmless.
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Build operation `op`'s inputs. `scratch` is the directory SWF traces
/// are rendered into.
pub fn set_up(workload: Workload, seed: u64, op: u64, size: Size, scratch: &Path) -> OpInput {
    if workload == Workload::Fig6W2Swarm {
        let grid = fig6_grid(seed, op, size);
        grid.validate().expect("the Fig. 6 grid is valid");
        let jobs = WorkloadSpec::Workload2.materialize();
        return OpInput::Grid { grid, jobs };
    }
    let shape = stream_shape(workload, size);
    let sub_seed = seed.wrapping_add(op);
    let mut cfg = ExperimentConfig::paper_scaled(shape.scheduler, sub_seed, shape.factor);
    cfg.pretrained = false;
    let trace = SynthTrace::new(SynthConfig::sized_for(cfg.nodes, shape.jobs, sub_seed));
    let source = if workload == Workload::SwfX67 {
        let path = scratch.join(format!(
            "swf_x67_s{seed}_op{op}_pid{}.swf",
            std::process::id()
        ));
        let jobs = write_swf(&path, trace, seed).expect("render the SWF trace");
        Source::Swf { path, jobs }
    } else {
        Source::Jobs(trace.submissions(swf_opts()).collect())
    };
    OpInput::Stream {
        cfg,
        opts: StreamingOptions::default(),
        source,
    }
}

/// Render `trace` as an SWF file, one record per line; returns how many
/// records describe jobs that ran.
fn write_swf(path: &Path, trace: SynthTrace, seed: u64) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "; synthetic SWF trace (benchmark swf_x67, seed {seed})")?;
    let mut valid = 0;
    for rec in trace {
        valid += u64::from(rec.is_valid());
        writeln!(w, "{}", rec.to_line())?;
    }
    w.flush()?;
    Ok(valid)
}

/// Open a rendered trace as a submission stream. A parse error panics:
/// the file was written by [`set_up`], so it is a defect, not bad input.
pub fn swf_stream(path: &Path) -> impl Iterator<Item = JobSubmission> {
    open_swf(path, swf_opts())
        .expect("open the rendered SWF trace")
        .map(|r| r.expect("the rendered SWF trace parses"))
}

/// The exact, seed-determined outcome of one simulated run: equal
/// fingerprints mean the same schedule was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub jobs: u64,
    pub loop_iterations: u64,
    pub sched_passes: u64,
    /// `None` for campaign records, which do not carry it.
    pub rounds_elided: Option<u64>,
    pub makespan_bits: u64,
}

impl Fingerprint {
    pub(crate) fn of_stream(r: &StreamingResult) -> Self {
        Fingerprint {
            jobs: r.jobs_completed,
            loop_iterations: r.loop_iterations,
            sched_passes: r.sched_passes,
            rounds_elided: Some(r.rounds_elided),
            makespan_bits: r.makespan_secs.to_bits(),
        }
    }

    pub(crate) fn of_record(r: &CampaignRecord) -> Self {
        Fingerprint {
            jobs: r.jobs,
            loop_iterations: r.loop_iterations,
            sched_passes: r.sched_passes,
            rounds_elided: None,
            makespan_bits: r.makespan_secs.to_bits(),
        }
    }

    pub fn makespan_secs(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }
}

/// What the untraced run of one operation produced.
pub struct Untraced {
    /// One fingerprint per simulated run (campaign task or replay).
    pub fingerprints: Vec<Fingerprint>,
    /// Campaign records, in task order (empty for replays).
    pub records: Vec<CampaignRecord>,
    /// Largest number of simultaneously resident jobs (replays only).
    pub peak_resident: usize,
}

/// Run one operation through the public entry points. Consumes the
/// input's job list (a caller that needs it again clones it first).
pub fn run_untraced(input: &mut OpInput) -> Untraced {
    match input {
        OpInput::Grid { grid, .. } => {
            let records = run_grid_streaming(
                grid,
                CampaignOptions {
                    threads: Some(POOL_WORKERS),
                },
                |_| {},
            );
            Untraced {
                fingerprints: records.iter().map(Fingerprint::of_record).collect(),
                records,
                peak_resident: 0,
            }
        }
        OpInput::Stream { cfg, opts, source } => {
            let res = match source {
                Source::Jobs(jobs) => run_streaming(cfg, std::mem::take(jobs), opts),
                Source::Swf { path, .. } => run_streaming(cfg, swf_stream(path), opts),
            };
            Untraced {
                fingerprints: vec![Fingerprint::of_stream(&res)],
                records: Vec::new(),
                peak_resident: res.peak_resident_jobs,
            }
        }
    }
}
