//! LDMS-like monitoring substrate.
//!
//! The paper's prototype uses LDMS (Lightweight Distributed Metric
//! Service) to sample Lustre-client counters on every compute node at a
//! fixed cadence and lands the samples in SOS, the Scalable Object Store,
//! where the analytical services query them. The analytics read exactly
//! two things from that store: `R_now`, the mean aggregate throughput
//! over a trailing window, and each finished job's sampled I/O volume.
//! [`LdmsDaemon`] keeps just those: the aggregate samples of the last
//! two minutes, and one running integral of the sampled rate per job
//! until the job finishes. Its state is O(running jobs), however long the
//! run.
//!
//! Keeping monitoring separate matters for fidelity: the analytics crate
//! estimates job requirements from these *sampled* rates (with the
//! sampling-resolution error a real deployment would have), never from
//! simulator ground truth.

pub mod daemon;

pub use daemon::LdmsDaemon;
