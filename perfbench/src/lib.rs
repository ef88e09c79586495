//! The repository benchmark: four workloads run end to end through the
//! simulator's public entry points, a traced mirror of the replay loop
//! that splits their time across layers, and a comparison of two sets
//! of runs against the bounds in `BENCHMARK.json`. See `README.md`.

pub mod compare;
pub mod mirror;
pub mod run;
pub mod trace;
pub mod workload;
