//! The paper's contribution: I/O-aware and workload-adaptive scheduling
//! policies for a Slurm-style backfill scheduler, with the "two-group"
//! approximation.
//!
//! Both policies plug into the backfill seam of `iosched-slurm`
//! ([`iosched_slurm::SchedulingPolicy`]) and consume estimates produced by
//! `iosched-analytics`, delivered per scheduling round as an
//! [`EstimateBook`] (the driver performs lines 1–2 of Algorithm 2 — "obtain
//! the latest values of `r_j`" / "obtain current Lustre throughput" — and
//! hands the result to the policy).
//!
//! * [`ioaware`] — Algorithms 2–4: Lustre bandwidth as an additional
//!   tracked resource with a fixed limit, seeded from per-job estimates
//!   *and* the measured current load (whichever implies more usage);
//! * [`adaptive`] — Algorithms 5–7: workload-adaptive target throughput
//!   `R̃` derived from the queue's aggregate requirements, with the
//!   two-group approximation ([`twogroup`]) that keeps nodes busy when
//!   zero-throughput jobs run short.

pub mod adaptive;
pub mod book;
pub mod ioaware;
pub mod packing;
pub mod twogroup;

pub use adaptive::{AdaptiveConfig, AdaptivePolicy};
pub use book::EstimateBook;
pub use ioaware::{check_limit_bps, IoAwareConfig, IoAwarePolicy};
pub use packing::{packing_pass, PackingConfig};
pub use twogroup::{TwoGroupParams, TwoGroupSplit};
