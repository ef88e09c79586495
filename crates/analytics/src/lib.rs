//! Analytical services (paper §III, Fig. 2).
//!
//! The third component of the paper's prototype: a service that answers
//! the scheduler's requests for information the user never provides —
//!
//! * **predicted job resource requirements**: estimated Lustre throughput
//!   `r_j` and runtime `d_j`, computed as exponentially-decaying weighted
//!   averages of the historical usage of *similar jobs* (same job name);
//! * **measured current total Lustre throughput** `R_now`, the mean of
//!   the monitoring daemon's aggregate samples over a trailing window
//!   ([`service::LOAD_WINDOW`]) — the robustness input that compensates
//!   for missing or stale per-job estimates (Algorithm 2, lines 2 and
//!   7–8).
//!
//! When a job finishes, the scheduler notifies the service
//! ([`AnalyticsService::on_job_complete_sym`]); the service reads the
//! job's sampled I/O volume from the daemon, derives the job's average
//! throughput and runtime, and folds them into the estimate for that job
//! name. The paper notes that fancier predictors plug in seamlessly; the
//! estimator here is the paper's simple one, and the only one.

pub mod estimator;
pub mod service;

pub use estimator::{JobEstimate, JobEstimator};
pub use service::AnalyticsService;
