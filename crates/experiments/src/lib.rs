//! Experiment driver and figure harnesses.
//!
//! This crate is the counterpart of the paper's evaluation setup: it wires
//! the Slurm-like scheduler (with a chosen policy), the cluster/Lustre
//! simulator, the LDMS-like monitoring daemon and the analytical services
//! into one event loop (the private `engine`, entered through
//! [`driver::run_experiment`] and [`streaming::run_streaming`]), runs the
//! paper's workloads under each scheduler configuration, and regenerates
//! every figure of the paper's evaluation section:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig3` | Fig. 3 (a–e): Workload 1 traces + makespans |
//! | `fig4` | Fig. 4: throughput vs. concurrent write×8 jobs (box plots) |
//! | `fig5` | Fig. 5 (a–e): Workload 2 traces + makespans |
//! | `fig6` | Fig. 6: Workload 2 makespan swarm + medians |
//! | `summary` | §VI/§VII headline numbers, paper vs. measured |
//!
//! Every data-driven run is a [`CampaignGrid`] (policy × threshold × seed
//! × workload), executed by [`campaign`] over a work-stealing pool and
//! served on stdin/stdout by the `campaignd` binary; a single run is a
//! 1-task grid. Runs the grid cannot name (traces, priority policies,
//! burst buffers, reshaped arrivals) call [`run_experiment`] directly.

pub mod campaign;
pub mod driver;
mod engine;
pub mod figures;
pub mod grid;
pub mod metrics;
pub mod pool;
pub mod pretrain;
pub mod streaming;

pub use campaign::{run_grid, run_grid_resumable, serve_campaigns, CampaignOptions};
pub use driver::{
    run_experiment, run_experiment_with_scratch, ExperimentConfig, ExperimentResult, JobRecord,
    RunScratch, SchedulerKind,
};
pub use grid::{CampaignGrid, CampaignRecord, GridBase, GridTask, PolicyFamily, WorkloadSpec};
pub use metrics::{per_class_metrics, scheduling_metrics, SchedulingMetrics};
pub use pool::{configured_threads, run_all, run_pending, ThreadsError};
pub use pretrain::pretrain_isolated;
pub use streaming::{run_streaming, StreamingOptions, StreamingResult};
