//! # hpc-iosched
//!
//! A full-system Rust reproduction of *"Workload-Adaptive Scheduling for
//! Efficient Use of Parallel File Systems in High-Performance Computing
//! Clusters"* (SC 2024): I/O-aware and workload-adaptive backfill
//! scheduling for a Slurm-like resource manager, where Lustre bandwidth
//! is a first-class scheduled resource whose per-job requirements are
//! *estimated from monitoring data* rather than requested by users.
//!
//! Because the paper's testbed (a 15-node slice of the Stria cluster and
//! its 56-OST Lustre file system) is hardware, this workspace also ships
//! the complete substrate as a deterministic discrete-event simulation —
//! see `DESIGN.md` for the substitution argument and `EXPERIMENTS.md` for
//! paper-vs-measured results of every figure.
//!
//! ## Crate map (re-exported here)
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`simkit`] | `iosched-simkit` | simulated time, event queue, RNG, statistics |
//! | [`lustre`] | `iosched-lustre` | Lustre-like parallel file-system model |
//! | [`cluster`] | `iosched-cluster` | compute nodes + job execution |
//! | [`slurm`] | `iosched-slurm` | RM substrate: queue, trackers, Algorithm 1 backfill |
//! | [`ldms`] | `iosched-ldms` | monitoring daemon: load window + per-job sampled volumes |
//! | [`analytics`] | `iosched-analytics` | job-requirement estimators |
//! | [`core`] | `iosched-core` | **the paper's contribution**: Algorithms 2–7 |
//! | [`workloads`] | `iosched-workloads` | the paper's Workload 1 / Workload 2 |
//! | [`experiments`] | `iosched-experiments` | experiment driver + figure harnesses |
//!
//! ## Quickstart
//!
//! ```
//! use hpc_iosched::experiments::{run_experiment, ExperimentConfig, SchedulerKind};
//! use hpc_iosched::simkit::units::gibps;
//! use hpc_iosched::workloads::{workload_1, PaperParams};
//!
//! // A small slice of the paper's Workload 1 under the adaptive scheduler.
//! let workload: Vec<_> = workload_1(&PaperParams::default())
//!     .into_iter()
//!     .take(90) // one wave
//!     .collect();
//! let cfg = ExperimentConfig::paper(
//!     SchedulerKind::Adaptive { limit_bps: gibps(20.0), two_group: true },
//!     42,
//! );
//! let result = run_experiment(&cfg, &workload);
//! assert_eq!(result.jobs.len(), 90);
//! assert!(result.makespan_secs > 0.0);
//! ```

pub use iosched_analytics as analytics;
pub use iosched_cluster as cluster;
pub use iosched_core as core;
pub use iosched_experiments as experiments;
pub use iosched_ldms as ldms;
pub use iosched_lustre as lustre;
pub use iosched_simkit as simkit;
pub use iosched_slurm as slurm;
pub use iosched_workloads as workloads;
