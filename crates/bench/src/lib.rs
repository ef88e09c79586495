//! Benchmark crate of the hermetic workspace. Each suite in `benches/` is
//! a `harness = false` binary on `iosched_simkit::bench::BenchSuite`
//! (no external benchmark framework) and writes
//! `results/bench/BENCH_<suite>.json`; `--smoke` runs one sample per case.
//!
//! Suites:
//!
//! * `micro` — the scheduler hot path: reservation profiles, the
//!   max-min fair solver, a backfill pass, the estimator, the event queue;
//! * `fig6_campaign` — a scaled-down Fig. 6 campaign whose per-label
//!   event counts are gated (the figures themselves are the
//!   `iosched-experiments` binaries, which the CI figure gate
//!   regenerates byte-identical);
//! * `scale` — streaming SWF replays on machines 1×–667× the testbed;
//! * `campaign` — the campaign pool at 1/2/4/8 workers;
//! * `sched` — single deep-queue backfill rounds and queue preparation.
//!
//! The `bench_diff` binary compares two suite files and, with
//! `--gate <factor>`, fails on a regression. A suite file holds three
//! kinds of entries:
//!
//! * timed cases (`benchmarks`), gated on `min_ns_per_iter` except under
//!   `--counters-only`;
//! * **counters** — deterministic work tallies (events, sweep steps, tree
//!   descents, pruned fixpoints), always gated: they carry no timing
//!   noise, so growth is algorithmic, and a counter that disappears
//!   fails the gate;
//! * **meta** — derived report-only figures (speedups, rates), never
//!   gated.
