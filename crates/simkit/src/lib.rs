//! Discrete-event simulation toolkit shared by every crate in the
//! `hpc-iosched` workspace.
//!
//! The toolkit deliberately stays away from a framework-style "process"
//! abstraction: the engine is a plain loop to the earliest change time
//! its simulators report. What `simkit` provides are the building blocks
//! that have to be correct and deterministic everywhere:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution simulated time
//!   with checked, saturating arithmetic (no floating-point clock drift);
//! * [`EventQueue`] — a stable priority queue: events at equal timestamps
//!   pop in insertion order (cluster-sim's phase-deadline calendar);
//! * [`SimRng`] — a seedable, forkable random source with the handful of
//!   distributions the simulators need (uniform, normal, log-normal,
//!   exponential);
//! * [`stats`] — online moments, quantiles, box-plot summaries used by the
//!   experiment harnesses;
//! * [`TimeSeries`] — step-function time series with integration,
//!   time-averaging and resampling, used for throughput/allocation traces.
//!
//! The workspace builds **hermetically, with zero external crates**, so
//! `simkit` also carries the in-repo replacements for the usual
//! ecosystem dependencies:
//!
//! * [`json`] — a JSON `Value`, parser/serializer, and derive-free
//!   [`ToJson`]/[`FromJson`] impl macros (replaces `serde`);
//! * [`prop`] — a seeded property-testing harness with bounded shrinking
//!   and the [`props!`] macro (replaces `proptest`);
//! * [`bench`](mod@bench) — a micro-benchmark harness emitting `BENCH_*.json`
//!   (replaces `criterion`);
//! * [`rng`] itself is an in-repo xoshiro256++ (replaces `rand`).
//!
//! Everything here avoids global state, wall clocks and threads (the
//! bench harness, which exists to measure wall time, is the deliberate
//! exception); determinism is a hard requirement because the
//! reproduction experiments compare schedulers across seeds.

pub mod bench;
pub mod ids;
pub mod json;
pub mod prop;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod sym;
pub mod time;
pub mod units;

pub use ids::JobId;
pub use json::{FromJson, ToJson, Value};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{BoxStats, OnlineStats};
pub use sym::{Sym, SymbolTable};
pub use time::{SimDuration, SimTime};

/// An empty vector that reuses `v`'s allocation for another element
/// type of the same size and alignment — typically the same reference
/// type under a new lifetime. A buffer of borrows cannot outlive what it
/// borrows, so a loop that mutates the borrowed structure between rounds
/// keeps such a buffer empty under a long-lived type and recycles it to
/// the round's lifetime and back. The in-place `collect` specialisation
/// of `Vec`'s `IntoIter` keeps the capacity (the steady-state allocation
/// tests pin this); a layout mismatch would silently allocate instead.
pub fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}
