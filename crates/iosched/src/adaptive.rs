//! Workload-adaptive scheduling (paper §VII, Algorithms 5–7).
//!
//! The adaptive scheduler keeps everything the I/O-aware scheduler does
//! (limit enforcement via the `RT` tracker) and adds a *target* total
//! throughput `R̃`: the level at which all queued I/O volume completes in
//! exactly the time the nodes need to drain the queue (Eq. 1, extended to
//! account for the remaining portions of running jobs). Jobs whose
//! per-node load exceeds the two-group threshold ("regular jobs") are not
//! scheduled into windows where the adjusted reservations already meet
//! the adjusted target `R̃′`; zero-group jobs are scheduled as usual and
//! keep the nodes busy.
//!
//! The policy owns every per-round buffer — the split input/output and
//! (via `IoAwareCore`) the one profile whose columns are the nodes, the
//! LT and the AT — so a steady-state round reuses warm allocations
//! instead of rebuilding them.

use crate::book::EstimateBook;
use crate::ioaware::{check_limit_bps, effective_r, IoAwareCore, IoAwareTracker};
use crate::twogroup::{two_group_split, SplitJob, SplitScratch, TwoGroupParams, TwoGroupSplit};
use iosched_simkit::time::SimTime;
use iosched_slurm::{
    quanta_down, quanta_up, ReservationTracker, ResourceProfile, RunningView, SchedJob,
    SchedulingPolicy, NO_THRESHOLD,
};

/// Configuration of the workload-adaptive policy.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Hard throughput limit `R_limit` (the I/O-aware part), bytes/s.
    pub limit_bps: f64,
    /// Use the two-group approximation (paper §VII-A). `false` gives the
    /// "naïve" adaptive scheduler that relies on genuinely-zero jobs.
    pub two_group: bool,
    /// QoS fraction of Eq. (2): minimum share of queued node-time that
    /// must not be delayed by throughput regulation. Paper: 0.5.
    pub qos_fraction: f64,
}

impl AdaptiveConfig {
    /// Paper configuration: two-group approximation, half the node-time
    /// protected.
    pub fn paper(limit_bps: f64) -> Self {
        AdaptiveConfig {
            limit_bps,
            two_group: true,
            qos_fraction: 0.5,
        }
    }

    /// The naïve adaptive scheduler (ablation).
    pub fn naive(limit_bps: f64) -> Self {
        AdaptiveConfig {
            limit_bps,
            two_group: false,
            qos_fraction: 0.5,
        }
    }
}

/// The workload-adaptive scheduling policy.
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    book: EstimateBook,
    core: IoAwareCore,
    /// Pooled split input, rebuilt from the queue each round.
    split_jobs: Vec<SplitJob>,
    /// Pooled buffers of the split's ρ-ordering.
    split_scratch: SplitScratch,
    /// Parameters of the most recent round.
    params: TwoGroupParams,
}

impl AdaptivePolicy {
    /// Create the policy.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        if let Err(e) = check_limit_bps(cfg.limit_bps) {
            panic!("{e}");
        }
        assert!(
            (0.0..=1.0).contains(&cfg.qos_fraction),
            "qos_fraction must be in [0, 1]"
        );
        AdaptivePolicy {
            cfg,
            book: EstimateBook::new(),
            core: IoAwareCore::default(),
            split_jobs: Vec::new(),
            split_scratch: SplitScratch::default(),
            params: TwoGroupParams::default(),
        }
    }

    /// Install the round's estimate snapshot (Algorithm 5, line 1).
    pub fn begin_round(&mut self, book: EstimateBook) {
        self.book = book;
    }

    /// Take the estimate snapshot back out (the driver hands the same
    /// book to the policy every round instead of cloning it).
    pub fn take_book(&mut self) -> EstimateBook {
        std::mem::take(&mut self.book)
    }

    /// The configuration.
    pub fn config(&self) -> AdaptiveConfig {
        self.cfg
    }

    /// The no-start certificate over the installed book: `true` only if
    /// a [`iosched_slurm::backfill_pass`] on these inputs would start no
    /// job. It checks the I/O-aware part (nodes and LT) alone; the AT
    /// gate only delays more jobs.
    pub fn no_start_certified(
        &self,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> bool {
        self.core.no_start_certified(
            &self.book,
            self.cfg.limit_bps,
            running,
            queue,
            now,
            total_nodes,
        )
    }
}

/// Algorithm 5, lines 3–8 (reconstructed; see DESIGN.md), in one pass
/// that reads each job's estimates once: returns the target throughput
/// from remaining I/O volume over remaining node-time, and refills
/// `split_jobs` with the wait queue's split input, in queue order.
fn target_and_split_input(
    book: &EstimateBook,
    running: &[RunningView<'_>],
    queue: &[&SchedJob],
    now: SimTime,
    total_nodes: usize,
    split_jobs: &mut Vec<SplitJob>,
) -> f64 {
    let mut v_io = 0.0; // bytes
    let mut node_secs = 0.0; // node·s
    for rv in running {
        let (r, d) = book.r_and_d_or(rv.job.id, rv.job.limit);
        let end = rv.started + d;
        if now < end {
            let remaining = (end - now).as_secs_f64();
            v_io += r * remaining;
            node_secs += rv.job.nodes as f64 * remaining;
        }
    }
    split_jobs.clear();
    for job in queue {
        let (r, d) = book.r_and_d_or(job.id, job.limit);
        let d = d.as_secs_f64();
        let split_job = SplitJob::new(job.id, r, job.nodes, d);
        v_io += r * d;
        node_secs += split_job.node_time;
        split_jobs.push(split_job);
    }
    if node_secs <= 0.0 || total_nodes == 0 {
        return 0.0;
    }
    let t_nodes = node_secs / total_nodes as f64;
    v_io / t_nodes
}

/// A job's adjusted load `r − n·r̄_zero` (Algorithm 6) in AT quanta. Both
/// terms are amounts and round up before the difference is taken, so a
/// job whose load equals its zero-group credit up to float noise adjusts
/// to exactly zero instead of to the one quantum its rounded-up noise
/// would add.
fn adjusted_load(r_bps: f64, nodes: usize, params: &TwoGroupParams) -> i64 {
    quanta_up(r_bps) - quanta_up(nodes as f64 * params.split.r_zero_bar)
}

/// Tracker of Algorithms 6–7: the I/O-aware tracker `RT`, whose profile
/// carries the adjusted-throughput column `AT` after the LT column, gating
/// regular jobs on the target.
pub struct AdaptiveTracker<'a> {
    rt: IoAwareTracker<'a>,
    params: &'a TwoGroupParams,
    /// The adjusted target `R̃′` in AT quanta (a threshold: rounded down).
    at_threshold: i64,
}

impl AdaptiveTracker<'_> {
    /// The round's adaptive parameters.
    pub fn params(&self) -> &TwoGroupParams {
        self.params
    }
}

impl SchedulingPolicy for AdaptivePolicy {
    type Tracker<'a> = AdaptiveTracker<'a>;

    fn init_tracker<'a>(
        &'a mut self,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> AdaptiveTracker<'a> {
        // Lines 3–8: the target throughput and the two-group split over
        // the wait queue, in the pooled buffers.
        let r_tilde = target_and_split_input(
            &self.book,
            running,
            queue,
            now,
            total_nodes,
            &mut self.split_jobs,
        );
        let split = if self.cfg.two_group {
            two_group_split(
                &self.split_jobs,
                self.cfg.qos_fraction,
                &mut self.split_scratch,
            )
        } else {
            TwoGroupSplit::NAIVE
        };
        self.params = TwoGroupParams {
            r_tilde_bps: r_tilde,
            r_tilde_prime_bps: (r_tilde - total_nodes as f64 * split.r_zero_bar).max(0.0),
            split,
        };

        // Line 2: the I/O-aware tracker (Algorithm 2), and lines 9–11:
        // its AT column, seeded with the running jobs' adjusted loads
        // (which may be negative for low-I/O jobs).
        let (book, params, limit_bps) = (&self.book, &self.params, self.cfg.limit_bps);
        let rt = self.core.init_tracker(
            book,
            limit_bps,
            running,
            now,
            total_nodes,
            Some(|profile: &mut ResourceProfile, at| {
                for rv in running {
                    let r = effective_r(book, rv.job, limit_bps);
                    let adj = adjusted_load(r, rv.job.nodes, params);
                    profile.stage(at, adj, rv.started, rv.reservation_end(now));
                }
            }),
        );
        AdaptiveTracker {
            rt,
            params,
            at_threshold: quanta_down(self.params.r_tilde_prime_bps),
        }
    }
}

impl ReservationTracker for AdaptiveTracker<'_> {
    /// Algorithm 7: a zero job is placed as the I/O-aware tracker places
    /// it; a regular job additionally waits for a window where the
    /// adjusted reservations stay at or below the adjusted target.
    fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime {
        let r = effective_r(self.rt.book, job, self.rt.limit_bps);
        let at = if self.params.split.is_zero(r, job.nodes) {
            NO_THRESHOLD
        } else {
            self.at_threshold
        };
        self.rt.earliest_start_at(job, t_min, Some(at))
    }

    /// Algorithm 6: only regular jobs add to the AT.
    fn reserve(&mut self, job: &SchedJob, start: SimTime) {
        let r = effective_r(self.rt.book, job, self.rt.limit_bps);
        let adj = if self.params.split.is_zero(r, job.nodes) {
            0
        } else {
            adjusted_load(r, job.nodes, self.params)
        };
        self.rt.reserve_at(job, start, Some(adj));
    }

    /// RT dominance plus group compatibility: if the failed job was
    /// regular, the probe must be regular too (the AT gate's threshold
    /// `R̃′` is job-independent and the probe's window is no shorter);
    /// a zero-group failure dominates regardless, since zero jobs face a
    /// subset of the probe's constraints. Mid-round AT reservations are
    /// `r − n·r̄_zero > 0` for regular jobs (`ρ > r* ≥ r̄_zero`), so AT
    /// usage also only grows within a round and pruning stays sound.
    fn demands_at_least(&self, probe: &SchedJob, failed: &SchedJob) -> bool {
        if !self.rt.demands_at_least(probe, failed) {
            return false;
        }
        let r_failed = effective_r(self.rt.book, failed, self.rt.limit_bps);
        if self.params.split.is_zero(r_failed, failed.nodes) {
            return true;
        }
        let r_probe = effective_r(self.rt.book, probe, self.rt.limit_bps);
        !self.params.split.is_zero(r_probe, probe.nodes)
    }

    /// The RT tracker's answer: the AT gate only delays jobs, so leaving
    /// it out keeps the condition necessary.
    fn may_start_now(&self, job: &SchedJob) -> bool {
        self.rt.may_start_now(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twogroup::tests::comparison_sort_split;
    use iosched_analytics::JobEstimate;
    use iosched_simkit::ids::JobId;
    use iosched_simkit::sym::Sym;
    use iosched_simkit::time::SimDuration;
    use iosched_simkit::units::gibps;
    use iosched_simkit::{prop, prop_assert_eq, props};
    use iosched_slurm::{backfill_pass, BackfillConfig};

    fn job(id: u64, nodes: usize, limit_s: u64) -> SchedJob {
        SchedJob::new(
            JobId(id),
            format!("j{id}"),
            nodes,
            SimDuration::from_secs(limit_s),
            SimTime::ZERO,
        )
    }

    fn book(entries: &[(u64, f64, u64)], measured: f64) -> EstimateBook {
        let mut b = EstimateBook::new();
        for &(id, r, d) in entries {
            b.insert(
                JobId(id),
                JobEstimate {
                    throughput_bps: r,
                    runtime: SimDuration::from_secs(d),
                },
            );
        }
        b.measured_total_bps = measured;
        b
    }

    #[test]
    fn target_matches_eq1_for_queue_only() {
        // N = 10 nodes. Queue: 5 writers (r=4, d=100, n=1) and 5 sleeps
        // (r=0, d=100, n=1).
        // Eq. 1: R̃ = Σ r·d · N / Σ n·d = (5·4·100)·10 / (10·100) = 20.
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(100.0));
        let entries: Vec<(u64, f64, u64)> = (1..=5)
            .map(|i| (i, 4.0, 100))
            .chain((6..=10).map(|i| (i, 0.0, 100)))
            .collect();
        p.begin_round(book(&entries, 0.0));
        let jobs: Vec<SchedJob> = (1..=10).map(|i| job(i, 1, 200)).collect();
        let refs: Vec<&SchedJob> = jobs.iter().collect();
        let tracker = p.init_tracker(&[], &refs, SimTime::ZERO, 10);
        assert!((tracker.params().r_tilde_bps - 20.0).abs() < 1e-9);
    }

    #[test]
    fn target_accounts_for_running_remainders() {
        // One running writer (r=6, d=100) started at t=0, queried at t=50:
        // 50 s remain. Queue: one sleep (d=50). N=1.
        // V = 6·50 = 300; node-time = (1·50 + 1·50)/1 = 100 → R̃ = 3.
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(100.0));
        p.begin_round(book(&[(1, 6.0, 100), (2, 0.0, 50)], 6.0));
        let r1 = job(1, 1, 200);
        let q2 = job(2, 1, 100);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let refs = [&q2];
        let tracker = p.init_tracker(&running, &refs, SimTime::from_secs(50), 1);
        assert!((tracker.params().r_tilde_bps - 3.0).abs() < 1e-9);
    }

    #[test]
    fn regular_jobs_held_at_target_zero_jobs_flow() {
        // N = 20, limit 100 (never binding). Queue (FIFO order): 10
        // writers (r=4, d=100) then 10 sleeps (r=0, d=250).
        // Σ r·d = 4000, Σ n·d = 3500 → R̃ = 4000·20/3500 ≈ 22.857.
        // Sleeps carry 2500 of 3500 node-seconds ≥ half → r* = 0,
        // r̄_zero = 0, R̃′ = R̃. A writer starts while the AT usage
        // *before* it is ≤ R̃′: usages 0, 4, 8, … → exactly
        // floor(R̃′/4) + 1 = 6 writers start; sleeps all start.
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(100.0));
        let mut entries: Vec<(u64, f64, u64)> = (1..=10).map(|i| (i, 4.0, 100)).collect();
        entries.extend((11..=20).map(|i| (i, 0.0, 250)));
        p.begin_round(book(&entries, 0.0));
        let jobs: Vec<SchedJob> = (1..=20)
            .map(|i| job(i, 1, if i <= 10 { 100 } else { 250 }))
            .collect();
        let refs: Vec<&SchedJob> = jobs.iter().collect();
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            20,
            &BackfillConfig::default(),
        );
        let params = *p.init_tracker(&[], &refs, SimTime::ZERO, 20).params();
        assert_eq!(params.split.r_star, 0.0);
        assert!((params.r_tilde_bps - 4000.0 * 20.0 / 3500.0).abs() < 1e-9);
        // All sleeps start.
        for i in 11..=20 {
            assert!(out.start_now.contains(&JobId(i)), "{out:?}");
        }
        let started_writers = out.start_now.iter().filter(|id| id.0 <= 10).count();
        let expected = (params.r_tilde_prime_bps / 4.0).floor() as usize + 1;
        assert_eq!(started_writers, expected, "{out:?} {params:?}");
        // Delayed writers hold future reservations, not skips.
        assert_eq!(out.reservations.len(), 10 - expected);
    }

    #[test]
    fn two_group_prevents_idle_nodes_when_sleeps_run_out() {
        // N = 4, limit 100, no true sleeps in the queue: 2 heavy writers
        // (r=10) then 6 light writers (r=1), all d=100.
        // R̃ = (2·10 + 6·1)·100·4/800 = 13.
        // Naïve split: every job is "regular" (r > 0). FIFO: the two
        // heavies start (AT usage before them: 0, 10 ≤ 13), after which
        // usage is 20 > 13 — every light writer is delayed and two nodes
        // sit idle. The two-group split declares the lights zero jobs
        // (they carry 600 of 800 node-seconds), so they fill the nodes.
        let mut entries: Vec<(u64, f64, u64)> = vec![(1, 10.0, 100), (2, 10.0, 100)];
        entries.extend((3..=8).map(|i| (i, 1.0, 100)));
        let jobs: Vec<SchedJob> = (1..=8).map(|i| job(i, 1, 100)).collect();
        let refs: Vec<&SchedJob> = jobs.iter().collect();

        let mut naive = AdaptivePolicy::new(AdaptiveConfig::naive(100.0));
        naive.begin_round(book(&entries, 0.0));
        let out_naive = backfill_pass(
            &mut naive,
            &[],
            &refs,
            SimTime::ZERO,
            4,
            &BackfillConfig::default(),
        );

        let mut tg = AdaptivePolicy::new(AdaptiveConfig::paper(100.0));
        tg.begin_round(book(&entries, 0.0));
        let out_tg = backfill_pass(
            &mut tg,
            &[],
            &refs,
            SimTime::ZERO,
            4,
            &BackfillConfig::default(),
        );

        assert!(
            out_naive.start_now.len() < 4,
            "naïve unexpectedly filled the cluster: {out_naive:?}"
        );
        assert_eq!(
            out_tg.start_now.len(),
            4,
            "two-group must fill the cluster: {out_tg:?}"
        );
    }

    #[test]
    fn hard_limit_still_enforced() {
        // Target is huge but the 10-unit hard limit caps admissions.
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(10.0));
        let entries: Vec<(u64, f64, u64)> = (1..=4).map(|i| (i, 4.0, 100)).collect();
        p.begin_round(book(&entries, 0.0));
        let jobs: Vec<SchedJob> = (1..=4).map(|i| job(i, 1, 100)).collect();
        let refs: Vec<&SchedJob> = jobs.iter().collect();
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            20,
            &BackfillConfig::default(),
        );
        // At most 2 writers fit under the hard limit (4+4 ≤ 10 < 12).
        assert!(out.start_now.len() <= 2, "{out:?}");
    }

    #[test]
    fn gib_scale_smoke() {
        // Same logic at realistic magnitudes.
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(gibps(20.0)));
        let entries = [
            (1, gibps(3.0), 60),
            (2, gibps(3.0), 60),
            (3, 0.0, 600),
            (4, 0.0, 600),
        ];
        p.begin_round(book(&entries, gibps(1.0)));
        let jobs: Vec<SchedJob> = (1..=4).map(|i| job(i, 1, 700)).collect();
        let refs: Vec<&SchedJob> = jobs.iter().collect();
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            15,
            &BackfillConfig::default(),
        );
        // Sleeps always start; at least one writer does.
        assert!(out.start_now.contains(&JobId(3)));
        assert!(out.start_now.contains(&JobId(4)));
        assert!(out.start_now.iter().any(|id| id.0 <= 2));
    }

    #[test]
    fn repeated_rounds_are_stable() {
        // Pooled split/AT buffers are fully overwritten each round: the
        // same inputs give the same outcome on every pass.
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(10.0));
        let entries: Vec<(u64, f64, u64)> = (1..=6).map(|i| (i, i as f64, 100)).collect();
        p.begin_round(book(&entries, 0.0));
        let jobs: Vec<SchedJob> = (1..=6).map(|i| job(i, 1, 100)).collect();
        let refs: Vec<&SchedJob> = jobs.iter().collect();
        let first = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            6,
            &BackfillConfig::default(),
        );
        let first_params = *p.init_tracker(&[], &refs, SimTime::ZERO, 6).params();
        for _ in 0..3 {
            let again = backfill_pass(
                &mut p,
                &[],
                &refs,
                SimTime::ZERO,
                6,
                &BackfillConfig::default(),
            );
            assert_eq!(again, first);
            let params = *p.init_tracker(&[], &refs, SimTime::ZERO, 6).params();
            assert_eq!(params.split, first_params.split);
            assert_eq!(
                params.r_tilde_bps.to_bits(),
                first_params.r_tilde_bps.to_bits()
            );
            assert_eq!(
                params.r_tilde_prime_bps.to_bits(),
                first_params.r_tilde_prime_bps.to_bits()
            );
        }
    }

    /// Algorithm 5, lines 3–5, as the separate walk over the running
    /// jobs and the queue that preceded the fused pass.
    fn compute_target(
        book: &EstimateBook,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> f64 {
        let mut v_io = 0.0;
        let mut node_secs = 0.0;
        for rv in running {
            let d = book.r_and_d_or(rv.job.id, rv.job.limit).1;
            let end = rv.started + d;
            if now < end {
                let remaining = (end - now).as_secs_f64();
                v_io += book.r(rv.job.id) * remaining;
                node_secs += rv.job.nodes as f64 * remaining;
            }
        }
        for job in queue {
            let d = book.r_and_d_or(job.id, job.limit).1.as_secs_f64();
            v_io += book.r(job.id) * d;
            node_secs += job.nodes as f64 * d;
        }
        if node_secs <= 0.0 || total_nodes == 0 {
            return 0.0;
        }
        let t_nodes = node_secs / total_nodes as f64;
        v_io / t_nodes
    }

    /// One job of the fused-pass property: width, limit (s), and its book
    /// entry: 0 none, 1 explicit, 2 explicit with a zero runtime, 3 named
    /// with a prediction, 4 named without one.
    type JobRow = (usize, u64, u32, f64, u64);

    fn insert_row(b: &mut EstimateBook, job: &SchedJob, &(_, _, kind, r, d): &JobRow) {
        let estimate = JobEstimate {
            throughput_bps: r,
            runtime: SimDuration::from_secs(if kind == 2 { 0 } else { d }),
        };
        match kind {
            1 | 2 => b.insert(job.id, estimate),
            3 => {
                b.set_name_estimate(Sym(0), Some(estimate));
                b.insert_named(job.id, Sym(0), job.limit);
            }
            4 => b.insert_named(job.id, Sym(1), job.limit),
            _ => {}
        }
    }

    props! {
        #![cases(128)]
        /// The fused pass gives the target and the split that the separate
        /// target walk, split-input fill and comparison-sort split give,
        /// bit for bit.
        fn prop_fused_pass_matches_separate_walks(
            running_rows in prop::vec(
                ((1usize..5, 60u64..2_000, 0u32..5, -1.0f64..50.0, 1u64..3_000), 0u64..1_000),
                0..12,
            ),
            queue_rows in prop::vec((1usize..9, 60u64..3_000, 0u32..5, -1.0f64..50.0, 1u64..3_000), 0..60),
            now_s in 0u64..1_500,
            total_nodes in 0usize..40,
            qos_idx in 0usize..3,
        ) {
            let mut b = EstimateBook::new();
            let running_jobs: Vec<SchedJob> = running_rows
                .iter()
                .enumerate()
                .map(|(i, &(row, _))| {
                    let j = job(10_000 + i as u64, row.0, row.1);
                    insert_row(&mut b, &j, &row);
                    j
                })
                .collect();
            let queued: Vec<SchedJob> = queue_rows
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let j = job(i as u64, row.0, row.1);
                    insert_row(&mut b, &j, row);
                    j
                })
                .collect();
            let running: Vec<RunningView<'_>> = running_jobs
                .iter()
                .zip(&running_rows)
                .map(|(job, &(_, started))| RunningView {
                    job,
                    started: SimTime::from_secs(started),
                })
                .collect();
            let queue: Vec<&SchedJob> = queued.iter().collect();
            let now = SimTime::from_secs(now_s);
            let qos = [0.0, 0.5, 1.0][qos_idx];

            let want_target = compute_target(&b, &running, &queue, now, total_nodes);
            let split_input: Vec<SplitJob> = queue
                .iter()
                .map(|j| {
                    let d = b.r_and_d_or(j.id, j.limit).1.as_secs_f64();
                    SplitJob::new(j.id, b.r(j.id), j.nodes, d)
                })
                .collect();
            let want_split = comparison_sort_split(&split_input, qos);

            let mut p = AdaptivePolicy::new(AdaptiveConfig {
                limit_bps: 100.0,
                two_group: true,
                qos_fraction: qos,
            });
            p.begin_round(b);
            let got = *p.init_tracker(&running, &queue, now, total_nodes).params();
            prop_assert_eq!(got.r_tilde_bps.to_bits(), want_target.to_bits(), "{got:?} vs {want_target}");
            prop_assert_eq!(got.split.r_star.to_bits(), want_split.r_star.to_bits(), "{got:?} vs {want_split:?}");
            prop_assert_eq!(got.split.r_zero_bar.to_bits(), want_split.r_zero_bar.to_bits(), "{got:?} vs {want_split:?}");
            let want_prime = (want_target - total_nodes as f64 * want_split.r_zero_bar).max(0.0);
            prop_assert_eq!(got.r_tilde_prime_bps.to_bits(), want_prime.to_bits());
        }
    }

    #[test]
    fn naive_round_keeps_the_zero_split() {
        let mut p = AdaptivePolicy::new(AdaptiveConfig::naive(100.0));
        p.begin_round(book(&[(1, 10.0, 100), (2, 1.0, 100)], 0.0));
        let jobs = [job(1, 1, 100), job(2, 1, 100)];
        let refs: Vec<&SchedJob> = jobs.iter().collect();
        let params = *p.init_tracker(&[], &refs, SimTime::ZERO, 4).params();
        assert_eq!(params.split, TwoGroupSplit::NAIVE);
        assert_eq!(params.r_tilde_prime_bps, params.r_tilde_bps);
    }

    #[test]
    fn empty_queue_zero_target() {
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper(10.0));
        p.begin_round(EstimateBook::new());
        let tracker = p.init_tracker(&[], &[], SimTime::ZERO, 10);
        assert_eq!(tracker.params().r_tilde_bps, 0.0);
        assert_eq!(tracker.params().r_tilde_prime_bps, 0.0);
    }
}
