//! Slurm-like resource-manager substrate.
//!
//! This crate reimplements the scheduling-relevant core of Slurm that the
//! paper builds on and modifies:
//!
//! * job metadata and lifecycle bookkeeping ([`registry`]);
//! * the piecewise-constant **reservation profile** behind Slurm's
//!   resource reservation tracker ([`profile`]);
//! * the **backfill scheduler** — Algorithm 1 of the paper, including the
//!   `BackfillMax` knob that interpolates between EASY backfill
//!   (`BackfillMax = 1`) and Slurm's default full reservation tracking
//!   (`BackfillMax = ∞`) ([`backfill`]);
//! * the plugin seam ([`policy`]): scheduling policies supply
//!   `InitializeReservationTracker` / `EarliestStartTime` /
//!   `ReserveResources`, exactly the three procedures the paper's
//!   Algorithms 2–7 override. The stock node-only policy lives here;
//!   the I/O-aware and workload-adaptive policies live in `iosched-core`.

pub mod backfill;
pub mod policy;
pub mod profile;
pub mod registry;

pub use backfill::{
    backfill_pass, backfill_pass_into, BackfillConfig, PassStats, SchedulingOutcome,
};
pub use iosched_simkit::ids::JobId;
pub use policy::{
    free_nodes_at, NodePolicy, ReservationTracker, RunningView, SchedJob, SchedulingPolicy,
};
pub use profile::{
    quanta_down, quanta_up, take_sweep_steps, take_tree_counters, ResourceProfile, MAX_CAPACITY,
    NO_THRESHOLD,
};
pub use registry::{take_queue_prep_counters, JobRegistry, JobState, PriorityPolicy};
