//! Fluid-flow simulation of a Lustre-like parallel file system.
//!
//! This crate replaces the real Stria Lustre instance (2 MDS, 4 OSS,
//! 56 SSD OST volumes, ~20 GiB/s peak) used in the paper's evaluation.
//! The model reproduces the three empirical properties the paper's
//! scheduling results rest on:
//!
//! 1. **Concave, saturating aggregate throughput** (paper Fig. 4): write
//!    threads pick object storage targets uniformly at random, so the
//!    number of *occupied* OSTs — and with it the aggregate bandwidth —
//!    grows sublinearly in the number of streams (balls-in-bins).
//! 2. **Congestion degradation and stragglers** (paper §II-B, §V): an OST
//!    serving `m` concurrent streams delivers only
//!    `b / (1 + γ·(m−1))` of its nominal bandwidth (RPC contention and
//!    interleaved-write overhead), so oversubscribed OSTs are
//!    super-linearly slow and a multi-threaded job is held hostage by its
//!    slowest thread. This is what makes the *sustained* ("long-term")
//!    bandwidth fall below the short-term peak.
//! 3. **Throughput variability** (paper §V, Fig. 6): per-OST bandwidth
//!    carries multiplicative log-normal noise resampled on a fixed epoch
//!    from a seeded stream, giving run-to-run spread without breaking
//!    determinism per seed.
//!
//! Rates are allocated by progressive-filling **max-min fairness** across
//! four constraint families (per-stream cap, per-client-node NIC, per-OST
//! effective bandwidth, cluster fabric), recomputed on every change event.

pub mod config;
pub mod fs;
pub mod probe;
pub mod solver;
pub mod stream;

pub use config::{LustreConfig, NoiseMode};
pub use fs::{FsSnapshot, LustreSim};
pub use stream::{StreamId, StreamState, StreamTag};
