//! Synthetic workload generators (paper §IV and §VII-A).
//!
//! * **Workload 1**: 8 waves of {30 "write×8" jobs, 60 "sleep" jobs} —
//!   720 jobs. A "write×8" job runs 8 threads on one node, each writing
//!   10 GiB to a randomly chosen Lustre volume (80 GiB/job); a "sleep"
//!   job idles for 600 s on one node.
//! * **Workload 2**: 5 waves of {30 write×8, 30 write×6, 30 write×4,
//!   70 write×2, 120 write×1, 30 sleep} — 1550 jobs; same job building
//!   blocks with fewer zero-throughput sleeps, which is what stresses the
//!   two-group approximation.
//!
//! The [`builder`] module provides the wave/phase builder both workloads
//! are assembled from, so new scenarios reuse the same machinery.

pub mod arrivals;
pub mod builder;
pub mod paper;
pub mod swf;
pub mod synth;

pub use arrivals::poisson_arrivals;
pub use builder::{JobSubmission, WorkloadBuilder};
pub use paper::{sleep_job, workload_1, workload_2, write_xn_job, PaperParams};
pub use swf::{open_swf, parse_swf, SwfError, SwfOptions, SwfReader, SwfRecord};
pub use synth::{SynthConfig, SynthTrace, MAX_RUN_SECS, MIN_RUN_SECS};
