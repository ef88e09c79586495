//! In-memory span recorder for the traced mirror.
//!
//! A span boundary is one clock read: [`Tracer::mark`] charges the time
//! since the previous boundary to the layer whose call just returned, so
//! the spans of one replay tile it without gaps or overlap. Per layer the
//! tracer keeps only a running sum; for the backfill pass it also keeps
//! every pass's duration and queue depth. Nothing is written until the
//! run ends.

use std::time::Instant;

/// The layers a replay's time is split across, named after the crate
/// whose public call the span surrounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `ClusterSim::advance_to_into` (including the lustre-sim solves it
    /// triggers, which cannot be separated from outside).
    Advance,
    /// `ClusterSim::start_job`.
    StartJob,
    /// `LustreSim::snapshot_into` at each sampling tick.
    Snapshot,
    /// `LdmsDaemon::sample` plus the per-job sample list it consumes.
    Sample,
    /// Re-estimating the resident jobs that share a completed job's name.
    Refresh,
    /// Interning and estimating newly admitted jobs.
    Estimate,
    /// `AnalyticsService::on_job_complete_sym`.
    Observe,
    /// `AnalyticsService::current_load_bps`.
    Load,
    /// One scheduling pass: `backfill_pass_into` with the policy hooks.
    Backfill,
    /// Wait-queue and running-set preparation for a pass.
    QueuePrep,
    /// Every other `JobRegistry` call (submit, state changes, retire,
    /// next-submission and limit probes).
    Registry,
    /// Time inside the job source's `next` (SWF parsing, or cloning
    /// pre-built submissions).
    Ingest,
    /// The next-event minimum over cluster, sampler, scheduler and queue.
    NextEvent,
    /// The driver loop's own bookkeeping: resident table, estimate book,
    /// round-elision decision.
    Loop,
    /// Isolated-run pretraining before a campaign task.
    Pretrain,
}

impl Layer {
    pub const ALL: [Layer; 15] = [
        Layer::Advance,
        Layer::StartJob,
        Layer::Snapshot,
        Layer::Sample,
        Layer::Refresh,
        Layer::Estimate,
        Layer::Observe,
        Layer::Load,
        Layer::Backfill,
        Layer::QueuePrep,
        Layer::Registry,
        Layer::Ingest,
        Layer::NextEvent,
        Layer::Loop,
        Layer::Pretrain,
    ];

    /// Metric name of the layer's time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Advance => "cluster-sim.advance_ns",
            Layer::StartJob => "cluster-sim.start_job_ns",
            Layer::Snapshot => "lustre-sim.snapshot_ns",
            Layer::Sample => "ldms-sim.sample_ns",
            Layer::Refresh => "analytics.refresh_ns",
            Layer::Estimate => "analytics.estimate_ns",
            Layer::Observe => "analytics.observe_ns",
            Layer::Load => "analytics.load_ns",
            Layer::Backfill => "slurm-sim.backfill_ns",
            Layer::QueuePrep => "slurm-sim.queue_prep_ns",
            Layer::Registry => "slurm-sim.registry_ns",
            Layer::Ingest => "workloads.ingest_ns",
            Layer::NextEvent => "experiments.loop.next_event_ns",
            Layer::Loop => "experiments.loop_ns",
            Layer::Pretrain => "experiments.pretrain_ns",
        }
    }
}

/// Deterministic work counts recorded at the same boundaries as the
/// spans. All are totals over the traced replays.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub jobs: u64,
    pub loop_iterations: u64,
    pub advance_calls: u64,
    pub completions: u64,
    pub sample_calls: u64,
    /// Records appended to the monitoring store.
    pub store_records: u64,
    /// Estimates recomputed for resident same-name jobs.
    pub refresh_estimates: u64,
    /// Executed passes that started at least one job.
    pub backfill_productive: u64,
    pub backfill_started: u64,
    pub backfill_reservations: u64,
    pub backfill_pruned: u64,
    pub sweep_steps: u64,
    pub tree_descents: u64,
    pub tree_updates: u64,
    pub queue_walk_steps: u64,
    pub queue_index_ops: u64,
}

impl Counts {
    fn merge(&mut self, o: &Counts) {
        let Counts {
            jobs,
            loop_iterations,
            advance_calls,
            completions,
            sample_calls,
            store_records,
            refresh_estimates,
            backfill_productive,
            backfill_started,
            backfill_reservations,
            backfill_pruned,
            sweep_steps,
            tree_descents,
            tree_updates,
            queue_walk_steps,
            queue_index_ops,
        } = self;
        *jobs += o.jobs;
        *loop_iterations += o.loop_iterations;
        *advance_calls += o.advance_calls;
        *completions += o.completions;
        *sample_calls += o.sample_calls;
        *store_records += o.store_records;
        *refresh_estimates += o.refresh_estimates;
        *backfill_productive += o.backfill_productive;
        *backfill_started += o.backfill_started;
        *backfill_reservations += o.backfill_reservations;
        *backfill_pruned += o.backfill_pruned;
        *sweep_steps += o.sweep_steps;
        *tree_descents += o.tree_descents;
        *tree_updates += o.tree_updates;
        *queue_walk_steps += o.queue_walk_steps;
        *queue_index_ops += o.queue_index_ops;
    }
}

/// Spans, counts and distributions of one or more traced replays.
#[derive(Clone, Debug)]
pub struct Tracer {
    last: Instant,
    layer_ns: [u64; Layer::ALL.len()],
    /// Wall time of the traced replays (summed over campaign tasks, so
    /// it is comparable with the summed layer times).
    pub wall_ns: u64,
    pub counts: Counts,
    /// Duration of every executed backfill pass.
    pub backfill_pass_ns: Vec<u64>,
    /// Wait-queue depth of every scheduling pass, elided or executed.
    pub queue_depths: Vec<u64>,
    /// Wall time of each traced run (campaign task or replay).
    pub task_ns: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            last: Instant::now(),
            layer_ns: [0; Layer::ALL.len()],
            wall_ns: 0,
            counts: Counts::default(),
            backfill_pass_ns: Vec::new(),
            queue_depths: Vec::new(),
            task_ns: Vec::new(),
        }
    }
}

impl Tracer {
    /// Start a new span sequence: the next [`Tracer::mark`] measures from
    /// here.
    pub fn restart(&mut self) {
        self.last = Instant::now();
    }

    /// Close the current span, charging it to `layer`; returns its length
    /// in nanoseconds.
    #[inline]
    pub fn mark(&mut self, layer: Layer) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.layer_ns[layer as usize] += ns;
        ns
    }

    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer as usize]
    }

    /// Time charged to any layer.
    pub fn covered_ns(&self) -> u64 {
        self.layer_ns.iter().sum()
    }

    pub fn merge(&mut self, other: &Tracer) {
        for (a, b) in self.layer_ns.iter_mut().zip(&other.layer_ns) {
            *a += b;
        }
        self.wall_ns += other.wall_ns;
        self.counts.merge(&other.counts);
        self.backfill_pass_ns
            .extend_from_slice(&other.backfill_pass_ns);
        self.queue_depths.extend_from_slice(&other.queue_depths);
        self.task_ns.extend_from_slice(&other.task_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_tile_the_elapsed_time() {
        let mut t = Tracer::default();
        let start = Instant::now();
        t.restart();
        std::hint::black_box((0..10_000).sum::<u64>());
        t.mark(Layer::Advance);
        t.mark(Layer::Loop);
        let elapsed = start.elapsed().as_nanos() as u64;
        assert!(t.covered_ns() <= elapsed);
        assert!(t.layer_ns(Layer::Advance) > 0);
    }
}
