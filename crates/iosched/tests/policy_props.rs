//! Property-based tests of the I/O-aware and workload-adaptive policies:
//! arbitrary queues and estimate books never violate the bandwidth
//! invariants of Algorithms 2–7.

use iosched_analytics::JobEstimate;
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_reference::reference_pass;
use iosched_simkit::ids::JobId;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::{prop, prop_assert, prop_assert_eq, props};
use iosched_slurm::{
    backfill_pass, quanta_down, quanta_up, BackfillConfig, ResourceProfile, RunningView, SchedJob,
};

fn build_queue(spec: &[(usize, u64, f64, u64)]) -> (Vec<SchedJob>, EstimateBook) {
    let mut book = EstimateBook::new();
    let queue: Vec<SchedJob> = spec
        .iter()
        .enumerate()
        .map(|(i, &(nodes, limit, r, d))| {
            let id = JobId(i as u64);
            book.insert(
                id,
                JobEstimate {
                    throughput_bps: r,
                    runtime: SimDuration::from_secs(d),
                },
            );
            SchedJob::new(
                id,
                format!("q{i}"),
                nodes,
                SimDuration::from_secs(limit),
                SimTime::ZERO,
            )
        })
        .collect();
    (queue, book)
}

/// A limit that is not a whole number of quanta (B/s) still admits a job
/// whose estimate exceeds it: the demand is clamped to the capacity in
/// quanta, so on an idle machine the job starts now under both policies.
#[test]
fn estimate_above_a_non_integral_limit_starts_on_an_idle_machine() {
    let limit = 5.6;
    let (queue, book) = build_queue(&[(1, 100, 9.3, 50), (1, 100, 5.6, 50)]);
    let refs: Vec<&SchedJob> = queue.iter().collect();
    let cfg = BackfillConfig::default();

    let mut io = IoAwarePolicy::new(IoAwareConfig { limit_bps: limit });
    io.begin_round(book.clone());
    let out = backfill_pass(&mut io, &[], &refs, SimTime::ZERO, 8, &cfg);
    assert_eq!(out.start_now, vec![JobId(0)], "io-aware: {out:?}");

    let mut ad = AdaptivePolicy::new(AdaptiveConfig::paper(limit));
    ad.begin_round(book);
    let out = backfill_pass(&mut ad, &[], &refs, SimTime::ZERO, 8, &cfg);
    assert_eq!(out.start_now[0], JobId(0), "adaptive: {out:?}");
}

props! {
    #![cases(64)]

    /// The I/O-aware plan (starts + future reservations) never exceeds
    /// the throughput limit at any instant, for any queue and estimates.
    fn io_aware_plan_respects_the_limit(
        spec in prop::vec(
            (1usize..4, 50u64..500, 0.0f64..12.0, 10u64..400),
            1..25,
        ),
        limit in 5.0f64..15.0,
        measured in 0.0f64..20.0,
    ) {
        let (queue, mut book) = build_queue(&spec);
        book.measured_total_bps = measured;
        let refs: Vec<&SchedJob> = queue.iter().collect();
        let mut policy = IoAwarePolicy::new(IoAwareConfig { limit_bps: limit });
        policy.begin_round(book.clone());
        let cfg = BackfillConfig::default();
        let out = backfill_pass(&mut policy, &[], &refs, SimTime::ZERO, 100, &cfg);
        let (full, _) = reference_pass(&mut policy, &[], &refs, SimTime::ZERO, 100, &cfg);
        prop_assert_eq!(&out.start_now, &full.start_now);

        // Rebuild the bandwidth plan through the rounding rule the policy
        // uses (estimates round up, then clamp to the capacity in quanta),
        // and compare it to the limit in quanta, exactly: the pass's plan
        // and the full walk's.
        let cap = quanta_down(limit);
        let demand = |id: JobId| quanta_up(book.r(id)).min(cap);
        let by_id = |id: JobId| queue.iter().find(|j| j.id == id).unwrap();
        for plan in [&out, &full] {
            let mut lt = ResourceProfile::new(1);
            for &id in &plan.start_now {
                let j = by_id(id);
                lt.reserve(&[demand(id)], SimTime::ZERO, SimTime::ZERO + j.limit);
            }
            for &(id, at) in &plan.reservations {
                let j = by_id(id);
                lt.reserve(&[demand(id)], at, at + j.limit);
            }
            let max = lt.max_over(0, SimTime::ZERO, SimTime::from_secs(10_000));
            prop_assert!(max <= cap, "bandwidth plan exceeds limit: {max} > {cap}");
            // Nothing is skipped with an unbounded budget.
            prop_assert!(plan.skipped.is_empty());
        }
        // The full walk gives every delayed job a reservation.
        prop_assert_eq!(full.start_now.len() + full.reservations.len(), queue.len());
    }

    /// Zero-estimate jobs are never delayed by the I/O-aware policy when
    /// nodes are free (they cost no bandwidth).
    fn io_aware_zero_jobs_start_immediately(
        n_zero in 1usize..10,
        n_heavy in 0usize..10,
        limit in 5.0f64..15.0,
    ) {
        let mut spec: Vec<(usize, u64, f64, u64)> = Vec::new();
        for _ in 0..n_heavy {
            spec.push((1, 100, limit * 0.9, 50)); // heavy writers
        }
        for _ in 0..n_zero {
            spec.push((1, 100, 0.0, 50)); // zero jobs queued last
        }
        let (queue, book) = build_queue(&spec);
        let refs: Vec<&SchedJob> = queue.iter().collect();
        let mut policy = IoAwarePolicy::new(IoAwareConfig { limit_bps: limit });
        policy.begin_round(book);
        let out = backfill_pass(
            &mut policy,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        for i in n_heavy..n_heavy + n_zero {
            prop_assert!(
                out.start_now.contains(&JobId(i as u64)),
                "zero job {i} was delayed: {out:?}"
            );
        }
    }

    /// The adaptive tracker's target parameters are internally
    /// consistent: R̃′ = max(0, R̃ − N·r̄_zero), r̄_zero ≤ r*, and the
    /// adjusted requirement of every regular job is non-negative.
    fn adaptive_round_parameters_consistent(
        spec in prop::vec(
            (1usize..4, 50u64..500, 0.0f64..12.0, 10u64..400),
            1..25,
        ),
        limit in 5.0f64..25.0,
        qos in 0.1f64..0.9,
    ) {
        use iosched_slurm::SchedulingPolicy;
        let (queue, book) = build_queue(&spec);
        let refs: Vec<&SchedJob> = queue.iter().collect();
        let mut policy = AdaptivePolicy::new(AdaptiveConfig {
            limit_bps: limit,
            two_group: true,
            qos_fraction: qos,
        });
        policy.begin_round(book.clone());
        let tracker = policy.init_tracker(&[], &refs, SimTime::ZERO, 16);
        let params = tracker.params();
        prop_assert!(params.r_tilde_bps >= 0.0);
        prop_assert!(params.r_tilde_prime_bps >= 0.0);
        prop_assert!(
            params.r_tilde_prime_bps
                <= (params.r_tilde_bps - 16.0 * params.split.r_zero_bar).max(0.0) + 1e-9
        );
        prop_assert!(params.split.r_zero_bar <= params.split.r_star + 1e-9);
        for j in &queue {
            let adj = params.adjusted_r(book.r(j.id), j.nodes);
            prop_assert!(adj >= -1e-9, "negative adjusted requirement: {adj}");
        }
        // Eq. (2): zero group carries at least the QoS share of node-time.
        let total_nt: f64 = queue
            .iter()
            .map(|j| j.nodes as f64 * book.r_and_d_or(j.id, j.limit).1.as_secs_f64())
            .sum();
        let zero_nt: f64 = queue
            .iter()
            .filter(|j| params.split.is_zero(book.r(j.id), j.nodes))
            .map(|j| j.nodes as f64 * book.r_and_d_or(j.id, j.limit).1.as_secs_f64())
            .sum();
        prop_assert!(zero_nt + 1e-6 >= qos * total_nt);
    }

    /// The adaptive scheduler starts at least as many jobs *now* as pure
    /// bandwidth capping would suggest it must hold back: every job it
    /// delays is either a regular job gated by the target, or blocked by
    /// the hard limit — never a zero job with free nodes.
    fn adaptive_never_delays_zero_jobs_with_free_nodes(
        spec in prop::vec(
            (1usize..2, 50u64..300, 0.0f64..10.0, 10u64..200),
            1..16,
        ),
        limit in 8.0f64..20.0,
    ) {
        use iosched_slurm::ReservationTracker;
        use iosched_slurm::SchedulingPolicy;
        let (queue, book) = build_queue(&spec);
        let refs: Vec<&SchedJob> = queue.iter().collect();
        let mut policy = AdaptivePolicy::new(AdaptiveConfig::paper(limit));
        policy.begin_round(book.clone());
        let mut tracker = policy.init_tracker(&[], &refs, SimTime::ZERO, 100);
        // On an empty 100-node cluster, every zero-group job must be
        // startable immediately (zero jobs skip the AT gate and have
        // bandwidth clamped within the limit... zero jobs have ρ ≤ r*,
        // whose reserved r may still hit the hard limit; so only check
        // true r = 0 jobs).
        for j in &queue {
            if book.r(j.id) == 0.0 {
                let t = tracker.earliest_start(j, SimTime::ZERO);
                prop_assert_eq!(t, SimTime::ZERO, "true zero job delayed");
            }
        }
    }

    /// A deep adaptive round walks the same pruned and unpruned. With
    /// 100+ running jobs ending at distinct instants, the node, LT and AT
    /// profiles each hold a few hundred entries and regular jobs probe
    /// the AT gate; the pruned walk must reserve and start exactly what
    /// the unpruned one does.
    fn adaptive_deep_round_prunes_without_changing_the_walk(
        running_r in prop::vec(0.0f64..2.0e9, 100..140),
        spec in prop::vec(
            (1usize..4, 50u64..500, 0.0f64..2.0e9, 10u64..400),
            4..20,
        ),
        limit in 1.0e10f64..2.0e10,
        backfill_max in 0usize..6,
    ) {
        let (queue, mut book) = build_queue(&spec);
        let run_jobs: Vec<SchedJob> = running_r
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let id = JobId(1000 + i as u64);
                book.insert(
                    id,
                    JobEstimate {
                        throughput_bps: r,
                        runtime: SimDuration::from_secs(60),
                    },
                );
                let limit = SimDuration::from_millis(60_000 + 7_001 * i as u64);
                SchedJob::new(id, format!("r{i}"), 1, limit, SimTime::ZERO)
            })
            .collect();
        let running: Vec<RunningView<'_>> = run_jobs
            .iter()
            .map(|job| RunningView { job, started: SimTime::ZERO })
            .collect();
        let refs: Vec<&SchedJob> = queue.iter().collect();
        let total_nodes = running.len() + 8;

        let mut outcomes = Vec::new();
        for prune in [true, false] {
            let cfg = BackfillConfig {
                max_reservations: backfill_max,
                prune_fits_now: prune,
                ..BackfillConfig::default()
            };
            let mut ad = AdaptivePolicy::new(AdaptiveConfig::paper(limit));
            ad.begin_round(book.clone());
            outcomes.push(backfill_pass(
                &mut ad,
                &running,
                &refs,
                SimTime::ZERO,
                total_nodes,
                &cfg,
            ));
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1], "adaptive pruned walk diverged");
    }

    /// Fits-now pruning is outcome-neutral for the I/O-aware and
    /// adaptive trackers too: under tight reservation budgets the pruned
    /// and unpruned walks agree decision-for-decision for arbitrary
    /// queues and estimate books (the release-mode oracle comparison —
    /// `prune_fits_now = false` IS the unpruned walk).
    fn policy_pruned_walk_matches_unpruned(
        spec in prop::vec(
            (1usize..4, 50u64..500, 0.0f64..12.0, 10u64..400),
            1..30,
        ),
        limit in 5.0f64..15.0,
        measured in 0.0f64..20.0,
        backfill_max in 0usize..4,
        total_nodes in 4usize..12,
    ) {
        let (queue, mut book) = build_queue(&spec);
        book.measured_total_bps = measured;
        let refs: Vec<&SchedJob> = queue.iter().collect();
        let mut pruned_io = None;
        let mut pruned_ad = None;
        for prune in [true, false] {
            let cfg = BackfillConfig {
                max_reservations: backfill_max,
                prune_fits_now: prune,
                ..BackfillConfig::default()
            };
            let mut io = IoAwarePolicy::new(IoAwareConfig { limit_bps: limit });
            io.begin_round(book.clone());
            let out_io =
                backfill_pass(&mut io, &[], &refs, SimTime::ZERO, total_nodes, &cfg);
            let mut ad = AdaptivePolicy::new(AdaptiveConfig::paper(limit));
            ad.begin_round(book.clone());
            let out_ad =
                backfill_pass(&mut ad, &[], &refs, SimTime::ZERO, total_nodes, &cfg);
            if prune {
                // First iteration: stash; second compares.
                pruned_io = Some(out_io);
                pruned_ad = Some(out_ad);
            } else {
                prop_assert_eq!(
                    pruned_io.take().unwrap(),
                    out_io,
                    "io-aware pruned walk diverged"
                );
                prop_assert_eq!(
                    pruned_ad.take().unwrap(),
                    out_ad,
                    "adaptive pruned walk diverged"
                );
            }
        }
    }
}
