//! Declarative campaign grids.
//!
//! A [`CampaignGrid`] names the four axes a campaign sweeps — **policy ×
//! threshold × seed × workload** — plus the shared base configuration,
//! and is JSON round-trippable via `simkit::json`, so the same spec that
//! a figure binary builds in code can arrive on `campaignd`'s stdin.
//!
//! The grid is *declarative*: [`CampaignGrid::tasks`] expands the axes
//! into a flat, deterministically ordered task list (workload-major,
//! then policy × threshold in declaration order, seeds innermost), and
//! every task carries its **index** in that order. The index is the
//! merge key for the whole engine — results are reassembled in task
//! order no matter which worker finished what — and the resume key for
//! incremental output (a record log names the indices already done).

use crate::driver::{ExperimentConfig, SchedulerKind};
use iosched_cluster::ExecSpec;
use iosched_core::check_limit_bps;
use iosched_simkit::json::EXACT_INT_BOUND;
use iosched_simkit::time::SimDuration;
use iosched_simkit::units::{gib, gibps, to_gibps};
use iosched_workloads::{
    workload_1, workload_2, JobSubmission, PaperParams, SwfOptions, SynthConfig, SynthTrace,
    WorkloadBuilder, MAX_RUN_SECS, MIN_RUN_SECS,
};

/// A scheduler policy family — the grid's first axis. Families that take
/// a throughput threshold (everything but `Default`) are crossed with
/// the grid's `thresholds_gibps` axis; `Default` ignores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyFamily {
    /// Stock Slurm backfill (nodes only); threshold-free.
    Default,
    /// Fixed-limit I/O-aware scheduling.
    IoAware,
    /// Workload-adaptive two-group scheduling.
    Adaptive,
    /// The naïve single-group adaptive ablation.
    AdaptiveNaive,
    /// Dot-product vector packing (§VIII comparator).
    Packing,
}
iosched_simkit::impl_json_enum!(PolicyFamily {
    Default,
    IoAware,
    Adaptive,
    AdaptiveNaive,
    Packing,
});

impl PolicyFamily {
    /// Every family, in declaration order.
    pub(crate) const ALL: [PolicyFamily; 5] = [
        PolicyFamily::Default,
        PolicyFamily::IoAware,
        PolicyFamily::Adaptive,
        PolicyFamily::AdaptiveNaive,
        PolicyFamily::Packing,
    ];

    /// The family's name in specs and scheduler labels.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PolicyFamily::Default => "default",
            PolicyFamily::IoAware => "io-aware",
            PolicyFamily::Adaptive => "adaptive",
            PolicyFamily::AdaptiveNaive => "adaptive-naive",
            PolicyFamily::Packing => "packing",
        }
    }

    /// The family named `name` (the inverse of `PolicyFamily::name`).
    pub fn from_name(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|f| f.name()).collect();
                format!(
                    "unknown scheduler `{name}`: expected one of {}",
                    names.join(", ")
                )
            })
    }

    /// Whether this family consumes the threshold axis.
    pub fn takes_threshold(&self) -> bool {
        !matches!(self, PolicyFamily::Default)
    }

    /// The concrete scheduler for one threshold (ignored by `Default`).
    pub fn scheduler(&self, limit_gibps: f64) -> SchedulerKind {
        let limit_bps = gibps(limit_gibps);
        match self {
            PolicyFamily::Default => SchedulerKind::DefaultBackfill,
            PolicyFamily::IoAware => SchedulerKind::IoAware { limit_bps },
            PolicyFamily::Adaptive => SchedulerKind::Adaptive {
                limit_bps,
                two_group: true,
            },
            PolicyFamily::AdaptiveNaive => SchedulerKind::Adaptive {
                limit_bps,
                two_group: false,
            },
            PolicyFamily::Packing => SchedulerKind::Packing { limit_bps },
        }
    }
}

impl SchedulerKind {
    /// The policy family and, unless it is `Default`, the limit (bytes/s).
    fn family(&self) -> (PolicyFamily, Option<f64>) {
        use PolicyFamily as F;
        use SchedulerKind as K;
        match *self {
            K::DefaultBackfill => (F::Default, None),
            K::IoAware { limit_bps: l } => (F::IoAware, Some(l)),
            K::Adaptive {
                limit_bps: l,
                two_group: true,
            } => (F::Adaptive, Some(l)),
            K::Adaptive {
                limit_bps: l,
                two_group: false,
            } => (F::AdaptiveNaive, Some(l)),
            K::Packing { limit_bps: l } => (F::Packing, Some(l)),
        }
    }

    /// Short human-readable label used in figure outputs: the family name,
    /// then the limit in whole GiB/s (`io-aware-15`, `adaptive-naive-20`).
    pub fn label(&self) -> String {
        match self.family() {
            (family, None) => family.name().to_string(),
            (family, Some(l)) => format!("{}-{:.0}", family.name(), to_gibps(l)),
        }
    }

    /// The inverse of [`Self::label`].
    pub fn from_label(label: &str) -> Result<Self, String> {
        if label == PolicyFamily::Default.name() {
            return Ok(SchedulerKind::DefaultBackfill);
        }
        let (name, gib) = label.rsplit_once('-').unwrap_or((label, ""));
        match (PolicyFamily::from_name(name), gib.parse::<f64>()) {
            (Ok(family), Ok(gib))
                if family.takes_threshold() && check_limit_bps(gibps(gib)).is_ok() =>
            {
                Ok(family.scheduler(gib))
            }
            _ => Err(format!(
                "unknown scheduler `{label}`: expected `default` or `<family>-<GiB/s>` \
                 with family one of io-aware, adaptive, adaptive-naive, packing"
            )),
        }
    }
}

/// Largest `Wave` volume per writer thread, in GiB: 10 TiB, 1 000× the
/// largest wave the benches and campaigns write. Simulation cost grows
/// with simulated time, which grows with the volume: a 1-job wave of
/// 1e6 GiB simulates ≈2.2 million seconds, and one of 1e9 GiB keeps a
/// campaign busy for minutes.
const MAX_WAVE_VOLUME_GIB: f64 = 1e4;

/// Largest mean span of a `Synth` trace, `jobs × mean_interarrival_secs`
/// in seconds (≈11.6 days, 2.5× the span of the million-job x667
/// replay). An exponential gap is at most ≈36.7 means
/// (`SimRng::exponential` draws from 53-bit uniforms), so every submit
/// time stays below 3.7e7 s: far under `SimTime::FAR_FUTURE` (≈4.6e15
/// s). The engine's convergence guard grows by two iterations per
/// elapsed sample period, so a trace that idles between arrivals cannot
/// trip it; the ceiling bounds the idle ticks such a trace costs. It
/// also bounds [`GridBase::sched_period_secs`].
const MAX_SYNTH_SPAN_SECS: f64 = 1e6;

/// Largest total work of a `Synth` trace, `jobs × median_run_secs` in
/// job·seconds, with the median clamped to the run times the generator
/// emits (1 s to 7 days). The event loop ticks once per simulated second
/// while jobs run, so a run's cost grows with its makespan, which is
/// about the total work on a one- or two-node machine. At this ceiling
/// the slowest grids found (2 500 jobs × 200 s or 5 000 × 100 s on two
/// nodes, adaptive-20) took 4.7–4.9 s in release `campaignd` on a
/// 2-vCPU VM; the 2 000-job grid with a 1e9 s median, 2 400× over it,
/// took 4 min 54 s.
const MAX_SYNTH_WORK_SECS: f64 = 5e5;

/// Largest `machine_scale` a grid may ask for: the x667 machine (10 005
/// nodes) of the scale suite, the largest the program is run on. A
/// machine's per-node and per-OST state grows with the scale, and so does
/// the cost of every tick: at this ceiling the slowest admitted 1-task
/// grid found (one job with a 5e5 s median, adaptive-20) took ≈18 s in
/// release `campaignd` on a 2-vCPU VM.
const MAX_MACHINE_SCALE: usize = 667;

/// Largest explicit `nodes` a grid may ask for: the nodes of the
/// [`MAX_MACHINE_SCALE`] machine.
const MAX_NODES: usize = 10_005;

/// A workload named by generator parameters rather than by value, so a
/// grid spec stays small and serializable; [`WorkloadSpec::materialize`]
/// builds the actual submission list (once per campaign, shared across
/// every task that references it).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's Workload 1 (720 jobs, Fig. 3).
    Workload1,
    /// The paper's Workload 2 (1550 jobs, Figs. 5–6).
    Workload2,
    /// One scaled Workload-2-shaped wave (the bench workload): write×8 /
    /// ×6 / ×2 / ×1 batches plus sleeps, all writing `volume_gib`.
    Wave {
        x8: u64,
        x6: u64,
        x2: u64,
        x1: u64,
        sleeps: u64,
        volume_gib: f64,
    },
    /// Deterministic SWF-shaped synthetic trace
    /// (`iosched_workloads::synth`).
    Synth {
        jobs: u64,
        seed: u64,
        max_procs: usize,
        mean_interarrival_secs: f64,
        median_run_secs: f64,
        io_fraction: f64,
    },
}
iosched_simkit::impl_json_enum!(WorkloadSpec {
    Workload1,
    Workload2,
    Wave { x8, x6, x2, x1, sleeps, volume_gib },
    Synth {
        jobs,
        seed,
        max_procs,
        mean_interarrival_secs,
        median_run_secs,
        io_fraction
    },
});

impl WorkloadSpec {
    /// Build the submission list this spec names.
    pub fn materialize(&self) -> Vec<JobSubmission> {
        match self {
            WorkloadSpec::Workload1 => workload_1(&PaperParams::default()),
            WorkloadSpec::Workload2 => workload_2(&PaperParams::default()),
            WorkloadSpec::Wave {
                x8,
                x6,
                x2,
                x1,
                sleeps,
                volume_gib,
            } => {
                let limit = SimDuration::from_secs(3600);
                let vol = gib(*volume_gib);
                WorkloadBuilder::new()
                    .batch(*x8 as usize, "write_x8", ExecSpec::write_xn(8, vol), limit)
                    .batch(*x6 as usize, "write_x6", ExecSpec::write_xn(6, vol), limit)
                    .batch(*x2 as usize, "write_x2", ExecSpec::write_xn(2, vol), limit)
                    .batch(*x1 as usize, "write_x1", ExecSpec::write_xn(1, vol), limit)
                    .batch(
                        *sleeps as usize,
                        "sleep",
                        ExecSpec::sleep(SimDuration::from_secs(300)),
                        SimDuration::from_secs(400),
                    )
                    .build()
            }
            WorkloadSpec::Synth { .. } => self.synth_submissions().collect(),
        }
    }

    /// True when the spec yields no job: a `Wave` of empty batches, or a
    /// `Synth` trace none of whose records is a valid submission. An
    /// empty workload has nothing to schedule, so a grid naming one is
    /// invalid.
    pub fn is_empty(&self) -> bool {
        match *self {
            WorkloadSpec::Workload1 | WorkloadSpec::Workload2 => false,
            WorkloadSpec::Wave {
                x8,
                x6,
                x2,
                x1,
                sleeps,
                ..
            } => [x8, x6, x2, x1, sleeps].iter().all(|&n| n == 0),
            WorkloadSpec::Synth { .. } => self.synth_submissions().next().is_none(),
        }
    }

    /// The most nodes one of the spec's jobs asks for: the paper and wave
    /// jobs take one node each, and a `Synth` trace's widths climb a
    /// ladder of powers of two up to `max_procs` (one processor per
    /// node).
    fn widest_job(&self) -> usize {
        match *self {
            WorkloadSpec::Synth { max_procs, .. } => 1 << max_procs.max(1).ilog2(),
            _ => 1,
        }
    }

    /// Reject parameters the generators cannot take: a `Wave` volume that
    /// is not positive and finite in bytes or exceeds
    /// [`MAX_WAVE_VOLUME_GIB`], and a `Synth` trace with `max_procs` 0, a
    /// mean interarrival or median run time that is not positive and
    /// finite, a mean trace span (`jobs × mean_interarrival_secs`) past
    /// [`MAX_SYNTH_SPAN_SECS`], a total work (`jobs × median_run_secs`)
    /// past [`MAX_SYNTH_WORK_SECS`], or an `io_fraction` outside `[0, 1]`.
    fn check_params(&self) -> Result<(), String> {
        let positive = |name: &str, v: f64| {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be positive and finite, got {v}"))
            }
        };
        match *self {
            WorkloadSpec::Workload1 | WorkloadSpec::Workload2 => Ok(()),
            WorkloadSpec::Wave { volume_gib, .. } => {
                positive("volume_gib", volume_gib)?;
                positive("volume_gib in bytes", gib(volume_gib))?;
                if volume_gib > MAX_WAVE_VOLUME_GIB {
                    return Err(format!(
                        "volume_gib must be at most {MAX_WAVE_VOLUME_GIB:e}, got {volume_gib}"
                    ));
                }
                Ok(())
            }
            WorkloadSpec::Synth {
                jobs,
                max_procs,
                mean_interarrival_secs,
                median_run_secs,
                io_fraction,
                ..
            } => {
                if max_procs == 0 {
                    return Err("max_procs must be at least 1".into());
                }
                positive("mean_interarrival_secs", mean_interarrival_secs)?;
                if jobs as f64 * mean_interarrival_secs > MAX_SYNTH_SPAN_SECS {
                    return Err(format!(
                        "mean_interarrival_secs must keep jobs × mean_interarrival_secs \
                         within {MAX_SYNTH_SPAN_SECS:e} s, got {jobs} × {mean_interarrival_secs}"
                    ));
                }
                positive("median_run_secs", median_run_secs)?;
                let run_secs = median_run_secs.clamp(MIN_RUN_SECS, MAX_RUN_SECS);
                if jobs as f64 * run_secs > MAX_SYNTH_WORK_SECS {
                    return Err(format!(
                        "median_run_secs must keep jobs × median_run_secs (clamped to \
                         [{MIN_RUN_SECS}, {MAX_RUN_SECS}] s) within {MAX_SYNTH_WORK_SECS:e} \
                         job·s, got {jobs} × {median_run_secs}"
                    ));
                }
                if !(0.0..=1.0).contains(&io_fraction) {
                    return Err(format!("io_fraction must be in [0, 1], got {io_fraction}"));
                }
                Ok(())
            }
        }
    }

    /// A `Synth` spec's submissions, generated lazily.
    fn synth_submissions(&self) -> impl Iterator<Item = JobSubmission> {
        let WorkloadSpec::Synth {
            jobs,
            seed,
            max_procs,
            mean_interarrival_secs,
            median_run_secs,
            io_fraction,
        } = *self
        else {
            unreachable!("only a Synth spec has a synthetic trace")
        };
        let cfg = SynthConfig {
            jobs,
            seed,
            max_procs,
            mean_interarrival_secs,
            median_run_secs,
            ..SynthConfig::default()
        };
        SynthTrace::new(cfg).submissions(SwfOptions {
            io_fraction,
            io_rate_per_node_bps: gibps(0.2),
            ..SwfOptions::default()
        })
    }
}

/// Shared base configuration applied to every task of a grid. Zero means
/// "paper default" for the numeric knobs, so a JSON spec only states
/// what it changes.
#[derive(Clone, Debug, PartialEq)]
pub struct GridBase {
    /// Compute nodes; 0 = the paper testbed scaled by `machine_scale`.
    pub nodes: usize,
    /// Machine growth factor (nodes × OSTs), ≥ 1.
    pub machine_scale: usize,
    /// Pre-train the estimator (the paper's default).
    pub pretrained: bool,
    /// Disable per-OST bandwidth noise (tests/benches).
    pub noiseless: bool,
    /// Backfill interval override in seconds; 0 = paper default (30 s).
    /// At most `MAX_SYNTH_SPAN_SECS` (1e6 s).
    pub sched_period_secs: u64,
}
iosched_simkit::impl_json_struct!(GridBase {
    nodes,
    machine_scale,
    pretrained,
    noiseless,
    sched_period_secs,
});

impl Default for GridBase {
    fn default() -> Self {
        GridBase {
            nodes: 0,
            machine_scale: 1,
            pretrained: true,
            noiseless: false,
            sched_period_secs: 0,
        }
    }
}

/// The declarative campaign spec: four axes plus the base configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignGrid {
    /// Policy axis, in output order.
    pub policies: Vec<PolicyFamily>,
    /// Threshold axis in GiB/s, crossed with every threshold-taking
    /// family (declaration order preserved).
    pub thresholds_gibps: Vec<f64>,
    /// Seed axis (innermost; a scheduler's seeds are contiguous tasks).
    pub seeds: Vec<u64>,
    /// Workload axis (outermost).
    pub workloads: Vec<WorkloadSpec>,
    /// Shared run configuration.
    pub base: GridBase,
}
iosched_simkit::impl_json_struct!(CampaignGrid {
    policies,
    thresholds_gibps,
    seeds,
    workloads,
    base,
});

/// One finished task's summary — the record `campaignd` streams per
/// completion and the resume log stores one-per-line. `index` matches
/// [`GridTask::index`], so a log replays into the merged result vector
/// without re-running anything.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRecord {
    /// Task index in [`CampaignGrid::tasks`] order (merge/resume key).
    pub index: usize,
    /// Human-readable scheduler label (e.g. `adaptive-20`).
    pub label: String,
    pub scheduler: SchedulerKind,
    pub seed: u64,
    /// Position on the grid's workload axis.
    pub workload: usize,
    pub makespan_secs: f64,
    pub mean_wait_secs: f64,
    pub max_wait_secs: f64,
    /// Jobs that completed within the simulation.
    pub jobs: u64,
    pub sched_passes: u64,
    pub loop_iterations: u64,
}
iosched_simkit::impl_json_struct!(CampaignRecord {
    index,
    label,
    scheduler,
    seed,
    workload,
    makespan_secs,
    mean_wait_secs,
    max_wait_secs,
    jobs,
    sched_passes,
    loop_iterations,
});

/// One expanded grid point. `index` is the task's position in
/// [`CampaignGrid::tasks`] order — the engine's merge and resume key.
#[derive(Clone, Debug, PartialEq)]
pub struct GridTask {
    pub index: usize,
    /// Position on the workload axis.
    pub workload: usize,
    pub scheduler: SchedulerKind,
    pub seed: u64,
}

impl CampaignGrid {
    /// A single-workload grid with paper-default base configuration.
    pub fn new(
        policies: Vec<PolicyFamily>,
        thresholds_gibps: Vec<f64>,
        seeds: Vec<u64>,
        workload: WorkloadSpec,
    ) -> Self {
        CampaignGrid {
            policies,
            thresholds_gibps,
            seeds,
            workloads: vec![workload],
            base: GridBase::default(),
        }
    }

    /// The expanded scheduler list: policies in declaration order, each
    /// threshold-taking family crossed with every threshold.
    pub fn schedulers(&self) -> Vec<SchedulerKind> {
        let mut out = Vec::new();
        for family in &self.policies {
            if family.takes_threshold() {
                for &t in &self.thresholds_gibps {
                    out.push(family.scheduler(t));
                }
            } else {
                out.push(family.scheduler(0.0));
            }
        }
        out
    }

    /// Expand the axes into the flat task list (workload-major,
    /// scheduler, then seed; `index` is the position in this order).
    pub fn tasks(&self) -> Vec<GridTask> {
        let schedulers = self.schedulers();
        let mut out =
            Vec::with_capacity(self.workloads.len() * schedulers.len() * self.seeds.len());
        for w in 0..self.workloads.len() {
            for &scheduler in &schedulers {
                for &seed in &self.seeds {
                    out.push(GridTask {
                        index: out.len(),
                        workload: w,
                        scheduler,
                        seed,
                    });
                }
            }
        }
        out
    }

    /// Total task count (`tasks().len()` without the expansion).
    pub fn task_count(&self) -> usize {
        self.workloads.len() * self.schedulers().len() * self.seeds.len()
    }

    /// The full experiment configuration for one task.
    pub fn experiment_config(&self, task: &GridTask) -> ExperimentConfig {
        let mut cfg =
            ExperimentConfig::paper_scaled(task.scheduler, task.seed, self.base.machine_scale);
        if self.base.nodes > 0 {
            cfg.nodes = self.base.nodes;
        }
        if self.base.noiseless {
            cfg.fs = cfg.fs.noiseless();
        }
        if self.base.sched_period_secs > 0 {
            cfg.sched_period = SimDuration::from_secs(self.base.sched_period_secs);
        }
        cfg.pretrained = self.base.pretrained;
        cfg
    }

    /// Reject empty or inconsistent axes before any work is scheduled.
    pub fn validate(&self) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err("grid has no policies".into());
        }
        if self.seeds.is_empty() {
            return Err("grid has no seeds".into());
        }
        // A larger seed would be written to the campaign log as a number
        // that reads back as a different seed.
        if let Some(s) = self.seeds.iter().find(|&&s| s >= EXACT_INT_BOUND) {
            return Err(format!("seeds must be below 2^53, got {s}"));
        }
        if self.workloads.is_empty() {
            return Err("grid has no workloads".into());
        }
        for w in &self.workloads {
            w.check_params()
                .map_err(|e| format!("workload {w:?}: {e}"))?;
        }
        if let Some(w) = self.workloads.iter().find(|w| w.is_empty()) {
            return Err(format!("workload {w:?} has no jobs"));
        }
        if self.policies.iter().any(PolicyFamily::takes_threshold)
            && self.thresholds_gibps.is_empty()
        {
            return Err("grid has threshold-taking policies but no thresholds_gibps".into());
        }
        for &t in &self.thresholds_gibps {
            check_limit_bps(gibps(t)).map_err(|e| format!("thresholds_gibps {t}: {e}"))?;
        }
        if self.base.machine_scale == 0 {
            return Err("machine_scale must be at least 1".into());
        }
        if self.base.machine_scale > MAX_MACHINE_SCALE {
            return Err(format!(
                "machine_scale must be at most {MAX_MACHINE_SCALE}, got {}",
                self.base.machine_scale
            ));
        }
        if self.base.nodes > MAX_NODES {
            return Err(format!(
                "nodes must be at most {MAX_NODES}, got {}",
                self.base.nodes
            ));
        }
        // A period past `MAX_SYNTH_SPAN_SECS` is longer than any trace
        // span the grid admits, and its milliseconds may not fit a
        // `SimDuration`.
        if self.base.sched_period_secs as f64 > MAX_SYNTH_SPAN_SECS {
            return Err(format!(
                "sched_period_secs must be at most {MAX_SYNTH_SPAN_SECS:e}, got {}",
                self.base.sched_period_secs
            ));
        }
        // A job wider than the machine never starts, and the event loop
        // waits for it forever.
        let nodes = if self.base.nodes > 0 {
            self.base.nodes
        } else {
            ExperimentConfig::paper(SchedulerKind::DefaultBackfill, 0)
                .nodes
                .saturating_mul(self.base.machine_scale)
        };
        for w in &self.workloads {
            let width = w.widest_job();
            if width > nodes {
                return Err(format!(
                    "workload {w:?}: max_procs must fit the machine's {nodes} nodes, \
                     got jobs {width} nodes wide"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::json::{from_str, ToJson};

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::DefaultBackfill.label(), "default");
        assert_eq!(
            SchedulerKind::IoAware {
                limit_bps: gibps(15.0)
            }
            .label(),
            "io-aware-15"
        );
        assert_eq!(
            SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: false
            }
            .label(),
            "adaptive-naive-20"
        );
    }

    #[test]
    fn labels_parse_back_to_their_scheduler() {
        for family in PolicyFamily::ALL {
            assert_eq!(PolicyFamily::from_name(family.name()), Ok(family));
            for limit in [15.0, 20.0] {
                let kind = family.scheduler(limit);
                assert_eq!(SchedulerKind::from_label(&kind.label()), Ok(kind));
            }
        }
        let err = PolicyFamily::from_name("magic").unwrap_err();
        assert!(err.contains("default, io-aware, adaptive, adaptive-naive, packing"));
        for bad in [
            "io20",
            "ad15",
            "io-aware",
            "default-15",
            "io-aware-x",
            "adaptive-0",
            "io-aware-1e300",
            "packing-inf",
            "adaptive-naive-NaN",
        ] {
            let err = SchedulerKind::from_label(bad).unwrap_err();
            assert!(
                err.contains("io-aware, adaptive, adaptive-naive, packing"),
                "{bad}: {err}"
            );
        }
    }

    fn sample() -> CampaignGrid {
        CampaignGrid::new(
            vec![
                PolicyFamily::Default,
                PolicyFamily::IoAware,
                PolicyFamily::Adaptive,
            ],
            vec![20.0, 15.0],
            vec![1000, 1017, 1034],
            WorkloadSpec::Workload2,
        )
    }

    #[test]
    fn expansion_order_is_policy_threshold_seed() {
        let grid = sample();
        let scheds = grid.schedulers();
        let labels: Vec<String> = scheds.iter().map(SchedulerKind::label).collect();
        assert_eq!(
            labels,
            [
                "default",
                "io-aware-20",
                "io-aware-15",
                "adaptive-20",
                "adaptive-15"
            ]
        );
        let tasks = grid.tasks();
        assert_eq!(tasks.len(), 15);
        assert_eq!(grid.task_count(), 15);
        // Indices are dense and self-describing; seeds are innermost.
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.seed, grid.seeds[i % 3]);
            assert_eq!(t.scheduler, scheds[i / 3]);
        }
    }

    #[test]
    fn multi_workload_grids_are_workload_major() {
        let mut grid = sample();
        grid.workloads.push(WorkloadSpec::Workload1);
        let tasks = grid.tasks();
        assert_eq!(tasks.len(), 30);
        assert!(tasks[..15].iter().all(|t| t.workload == 0));
        assert!(tasks[15..].iter().all(|t| t.workload == 1));
    }

    #[test]
    fn json_round_trips_bitwise() {
        let mut grid = sample();
        grid.workloads.push(WorkloadSpec::Synth {
            jobs: 500,
            seed: 9,
            max_procs: 8,
            mean_interarrival_secs: 20.0,
            median_run_secs: 120.0,
            io_fraction: 0.3,
        });
        grid.workloads.push(WorkloadSpec::Wave {
            x8: 10,
            x6: 10,
            x2: 23,
            x1: 40,
            sleeps: 10,
            volume_gib: 10.0,
        });
        grid.base.machine_scale = 4;
        grid.base.noiseless = true;
        let text = grid.to_json().to_json_string();
        let back: CampaignGrid = from_str(&text).expect("parse grid");
        assert_eq!(back, grid);
        assert_eq!(back.to_json().to_json_string(), text);
    }

    #[test]
    fn config_applies_base_overrides() {
        let mut grid = sample();
        grid.base = GridBase {
            nodes: 10,
            machine_scale: 2,
            pretrained: false,
            noiseless: true,
            sched_period_secs: 5,
        };
        let t = &grid.tasks()[4];
        let cfg = grid.experiment_config(t);
        assert_eq!(cfg.nodes, 10); // explicit override beats the scale
        assert_eq!(cfg.fs.n_ost, 56 * 2);
        assert!(!cfg.pretrained);
        assert_eq!(cfg.sched_period, SimDuration::from_secs(5));
        assert_eq!(cfg.seed, t.seed);
        assert_eq!(cfg.scheduler, t.scheduler);
    }

    #[test]
    fn paper_defaults_pass_through_untouched() {
        let grid = sample();
        let t = &grid.tasks()[0];
        let cfg = grid.experiment_config(t);
        let paper = ExperimentConfig::paper(t.scheduler, t.seed);
        assert_eq!(cfg.nodes, paper.nodes);
        assert_eq!(cfg.sched_period, paper.sched_period);
        assert_eq!(cfg.fs.n_ost, paper.fs.n_ost);
    }

    #[test]
    fn validation_rejects_degenerate_grids() {
        assert!(sample().validate().is_ok());
        let mut g = sample();
        g.policies.clear();
        assert!(g.validate().is_err());
        let mut g = sample();
        g.seeds.clear();
        assert!(g.validate().is_err());
        let mut g = sample();
        g.workloads.clear();
        assert!(g.validate().is_err());
        let mut g = sample();
        g.thresholds_gibps.clear();
        assert!(g.validate().is_err());
        // ...but a threshold-free grid needs no thresholds.
        let g = CampaignGrid::new(
            vec![PolicyFamily::Default],
            vec![],
            vec![1],
            WorkloadSpec::Workload1,
        );
        assert!(g.validate().is_ok());
        let mut g = sample();
        g.base.machine_scale = 0;
        assert!(g.validate().is_err());
        // The largest machine the program runs, and no larger.
        g.base.machine_scale = MAX_MACHINE_SCALE;
        assert_eq!(g.validate(), Ok(()));
        g.base.machine_scale = MAX_MACHINE_SCALE + 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("machine_scale must be at most 667"), "{err}");
        let mut g = sample();
        g.base.nodes = MAX_NODES;
        assert_eq!(g.validate(), Ok(()));
        g.base.nodes = MAX_NODES + 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("nodes must be at most 10005"), "{err}");
        let mut g = sample();
        g.seeds = vec![EXACT_INT_BOUND - 1];
        assert_eq!(g.validate(), Ok(()));
        g.seeds.push(EXACT_INT_BOUND);
        let err = g.validate().unwrap_err();
        assert!(err.contains("seeds must be below 2^53"), "{err}");
        let mut g = sample();
        g.base.sched_period_secs = MAX_SYNTH_SPAN_SECS as u64;
        assert_eq!(g.validate(), Ok(()));
        for past in [MAX_SYNTH_SPAN_SECS as u64 + 1, u64::MAX] {
            g.base.sched_period_secs = past;
            let err = g.validate().unwrap_err();
            assert!(
                err.contains("sched_period_secs must be at most 1e6"),
                "{err}"
            );
        }
        assert_eq!(
            ExperimentConfig::paper(SchedulerKind::DefaultBackfill, 0).nodes * MAX_MACHINE_SCALE,
            MAX_NODES
        );
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY, 1e300] {
            let mut g = sample();
            g.thresholds_gibps[0] = bad;
            assert!(g.validate().is_err(), "{bad}");
        }
        // A workload without jobs has nothing to run.
        for empty in [
            WorkloadSpec::Wave {
                x8: 0,
                x6: 0,
                x2: 0,
                x1: 0,
                sleeps: 0,
                volume_gib: 1.0,
            },
            WorkloadSpec::Synth {
                jobs: 0,
                seed: 1,
                max_procs: 4,
                mean_interarrival_secs: 10.0,
                median_run_secs: 60.0,
                io_fraction: 0.2,
            },
        ] {
            assert!(empty.is_empty() && empty.materialize().is_empty());
            let mut g = sample();
            g.workloads.push(empty);
            let err = g.validate().unwrap_err();
            assert!(err.contains("has no jobs"), "{err}");
        }
        // Parameters the generators would panic on, or silently misuse.
        let wave = |volume_gib| WorkloadSpec::Wave {
            x8: 1,
            x6: 0,
            x2: 0,
            x1: 0,
            sleeps: 0,
            volume_gib,
        };
        let synth =
            |max_procs, mean_interarrival_secs, median_run_secs, io_fraction| WorkloadSpec::Synth {
                jobs: 10,
                seed: 1,
                max_procs,
                mean_interarrival_secs,
                median_run_secs,
                io_fraction,
            };
        let mut bad = vec![synth(0, 10.0, 60.0, 0.2), synth(4, 10.0, 60.0, 2.5)];
        for v in [-1.0, 0.0, f64::NAN, f64::INFINITY, 1e300] {
            bad.push(wave(v));
        }
        for v in [-60.0, 0.0, f64::NAN, f64::INFINITY] {
            bad.push(synth(4, v, 60.0, 0.2));
            bad.push(synth(4, 10.0, v, 0.2));
        }
        for v in [-0.1, f64::NAN] {
            bad.push(synth(4, 10.0, 60.0, v));
        }
        // Total work past the ceiling, before and after the 7-day clamp.
        for v in [6e4, 1e9] {
            bad.push(synth(4, 10.0, v, 0.2));
        }
        for w in bad {
            let mut g = sample();
            g.workloads.push(w.clone());
            assert!(g.validate().is_err(), "{w:?}");
        }
        // Jobs wider than the machine (15 nodes unless overridden).
        let mut g = sample();
        g.workloads.push(synth(16, 10.0, 60.0, 0.2));
        let err = g.validate().unwrap_err();
        assert!(
            err.contains("max_procs must fit the machine's 15 nodes"),
            "{err}"
        );
        g.base.machine_scale = 2;
        assert_eq!(g.validate(), Ok(()));
        g.base.nodes = 8;
        assert!(g.validate().is_err());
        for ok in [
            wave(1.0),
            synth(1, 0.5, 1.0, 0.0),
            synth(4, 10.0, 60.0, 1.0),
            // At the work ceiling, and below the 1 s clamp.
            synth(4, 10.0, 5e4, 0.2),
            synth(4, 10.0, 1e-3, 0.2),
        ] {
            let mut g = sample();
            g.workloads.push(ok.clone());
            assert_eq!(g.validate(), Ok(()), "{ok:?}");
        }
    }

    #[test]
    fn wave_spec_materializes_the_bench_workload() {
        let w = WorkloadSpec::Wave {
            x8: 10,
            x6: 10,
            x2: 23,
            x1: 40,
            sleeps: 10,
            volume_gib: 10.0,
        }
        .materialize();
        assert_eq!(w.len(), 93);
        assert_eq!(w.iter().filter(|j| j.name == "write_x8").count(), 10);
        assert_eq!(w.iter().filter(|j| j.name == "sleep").count(), 10);
    }

    #[test]
    fn paper_specs_materialize_paper_sizes() {
        assert_eq!(WorkloadSpec::Workload1.materialize().len(), 720);
        assert_eq!(WorkloadSpec::Workload2.materialize().len(), 1550);
    }
}
