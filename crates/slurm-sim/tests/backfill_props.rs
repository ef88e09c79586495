//! Property-based tests of the backfill scheduler: for arbitrary queues
//! and running sets, one scheduling round never violates the resource
//! invariants.

use iosched_reference::{check_against_reference, max_over, reference_pass};
use iosched_simkit::ids::JobId;
use iosched_simkit::prop::Just;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::{prop, prop_assert, prop_assert_eq, prop_oneof, props};
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass, backfill_pass_into, BackfillConfig, ResourceProfile, RunningView, SchedJob,
    SchedulingOutcome,
};

props! {
    #![cases(64)]

    /// Jobs started "now" plus already-running jobs never exceed the
    /// cluster's node count, and the reservation plan (running + started
    /// + future reservations) never oversubscribes nodes at any instant,
    /// neither the pass's nor the full walk's, which accounts for every
    /// queued job.
    fn backfill_never_oversubscribes_nodes(
        queue_spec in prop::vec((1usize..8, 10u64..500), 1..30),
        running_spec in prop::vec((1usize..8, 10u64..500, 0u64..100), 0..6),
        total_nodes in 8usize..20,
        backfill_max in prop_oneof![Just(1usize), Just(4), Just(usize::MAX)],
    ) {
        // Build running set (truncated to what fits).
        let mut running_jobs: Vec<(SchedJob, SimTime)> = Vec::new();
        let mut used = 0usize;
        for (i, &(nodes, limit, started)) in running_spec.iter().enumerate() {
            if used + nodes <= total_nodes {
                used += nodes;
                running_jobs.push((
                    SchedJob::new(
                        JobId(1000 + i as u64),
                        format!("r{i}"),
                        nodes,
                        SimDuration::from_secs(limit + started), // never overrunning at now
                        SimTime::ZERO,
                    ),
                    SimTime::from_secs(started / 2),
                ));
            }
        }
        let queue: Vec<SchedJob> = queue_spec
            .iter()
            .enumerate()
            .map(|(i, &(nodes, limit))| {
                SchedJob::new(
                    JobId(i as u64),
                    format!("q{i}"),
                    nodes.min(total_nodes),
                    SimDuration::from_secs(limit),
                    SimTime::ZERO,
                )
            })
            .collect();
        let queue_refs: Vec<&SchedJob> = queue.iter().collect();
        let views: Vec<RunningView<'_>> = running_jobs
            .iter()
            .map(|(j, s)| RunningView { job: j, started: *s })
            .collect();

        let now = SimTime::from_secs(200);
        let cfg = BackfillConfig {
            max_reservations: backfill_max,
            ..BackfillConfig::default()
        };
        let mut policy = NodePolicy::default();
        let out = backfill_pass(&mut policy, &views, &queue_refs, now, total_nodes, &cfg);
        let (full, _) = reference_pass(&mut policy, &views, &queue_refs, now, total_nodes, &cfg, true);
        prop_assert_eq!(&out.start_now, &full.start_now);

        let by_id = |id: JobId| queue.iter().find(|j| j.id == id).unwrap();
        for plan in [&out, &full] {
            // Rebuild the plan into a fresh profile and check it.
            let mut profile = ResourceProfile::new(1);
            for rv in &views {
                profile.reserve(
                    &[rv.job.nodes as i64],
                    rv.started,
                    rv.reservation_end(now),
                );
            }
            for &id in &plan.start_now {
                let j = by_id(id);
                profile.reserve(&[j.nodes as i64], now, now + j.limit);
            }
            for &(id, at) in &plan.reservations {
                let j = by_id(id);
                prop_assert!(at > now, "reservation must be in the future");
                profile.reserve(&[j.nodes as i64], at, at + j.limit);
            }
            let max = max_over(&profile, 0, SimTime::ZERO, SimTime::from_secs(10_000));
            prop_assert!(
                max <= total_nodes as i64,
                "plan oversubscribes: {max} > {total_nodes}"
            );

            // No job is decided twice.
            let mut all: Vec<JobId> = plan
                .start_now
                .iter()
                .chain(plan.reservations.iter().map(|(id, _)| id))
                .chain(plan.skipped.iter())
                .copied()
                .collect();
            let decided = all.len();
            all.sort();
            all.dedup();
            prop_assert_eq!(all.len(), decided, "duplicate decisions");

            // Skips only happen with a bounded reservation budget.
            if backfill_max == usize::MAX {
                prop_assert!(plan.skipped.is_empty());
            } else {
                prop_assert!(plan.reservations.len() <= backfill_max);
            }
        }

        // The full walk accounts for every queued job.
        let seen = full.start_now.len() + full.reservations.len() + full.skipped.len();
        prop_assert_eq!(seen, queue.len());
    }

    /// Work conservation: if any queued job fits in the free nodes right
    /// now (with no future reservations to respect under EASY's first
    /// reservation), the round starts at least one job.
    fn backfill_starts_head_job_when_cluster_is_empty(
        queue_spec in prop::vec((1usize..8, 10u64..500), 1..20),
        total_nodes in 8usize..20,
    ) {
        let queue: Vec<SchedJob> = queue_spec
            .iter()
            .enumerate()
            .map(|(i, &(nodes, limit))| {
                SchedJob::new(
                    JobId(i as u64),
                    format!("q{i}"),
                    nodes.min(total_nodes),
                    SimDuration::from_secs(limit),
                    SimTime::ZERO,
                )
            })
            .collect();
        let refs: Vec<&SchedJob> = queue.iter().collect();
        let out = backfill_pass(
            &mut NodePolicy::default(),
            &[],
            &refs,
            SimTime::ZERO,
            total_nodes,
            &BackfillConfig::default(),
        );
        // Head job always fits on an empty cluster.
        prop_assert!(out.start_now.contains(&queue[0].id));
    }

    /// An "unbounded" reservation budget and a budget of exactly the
    /// queue length decide identically — the budget can only bind when
    /// there are more delayed jobs than reservations allowed.
    fn backfill_budget_queue_len_equals_unbounded(
        queue_spec in prop::vec((1usize..8, 10u64..500), 1..30),
        running_spec in prop::vec((1usize..8, 10u64..500), 0..4),
        total_nodes in 8usize..20,
    ) {
        let (queue, running_jobs) = build_workload(&queue_spec, &running_spec, total_nodes);
        let queue_refs: Vec<&SchedJob> = queue.iter().collect();
        let views: Vec<RunningView<'_>> = running_jobs
            .iter()
            .map(|(j, s)| RunningView { job: j, started: *s })
            .collect();
        let [unbounded, bounded] = [usize::MAX, queue.len()].map(|budget| {
            backfill_pass(
                &mut NodePolicy::default(),
                &views,
                &queue_refs,
                SimTime::from_secs(200),
                total_nodes,
                &BackfillConfig {
                    max_reservations: budget,
                    ..BackfillConfig::default()
                },
            )
        });
        prop_assert_eq!(unbounded, bounded, "budget = queue.len() diverged");
    }

    /// Fits-now pruning never changes a round's outcome: on randomized
    /// deep queues under tight reservation budgets, the pass agrees with
    /// the unpruned full walk ([`reference_pass`] with `prune = false`)
    /// by [`check_against_reference`]'s rule. This is pruning's oracle
    /// comparison, and CI runs it in release too.
    fn pruned_walk_matches_unpruned(
        queue_spec in prop::vec((1usize..8, 10u64..500), 1..40),
        running_spec in prop::vec((1usize..8, 10u64..500), 0..4),
        total_nodes in 8usize..20,
        backfill_max in prop_oneof![Just(0usize), Just(1), Just(3)],
    ) {
        let (queue, running_jobs) = build_workload(&queue_spec, &running_spec, total_nodes);
        let queue_refs: Vec<&SchedJob> = queue.iter().collect();
        let views: Vec<RunningView<'_>> = running_jobs
            .iter()
            .map(|(j, s)| RunningView { job: j, started: *s })
            .collect();
        let now = SimTime::from_secs(200);
        let cfg = BackfillConfig {
            max_reservations: backfill_max,
            ..BackfillConfig::default()
        };
        let mut policy = NodePolicy::default();
        let mut out = SchedulingOutcome::default();
        let stats = backfill_pass_into(
            &mut policy,
            &views,
            &queue_refs,
            now,
            total_nodes,
            &cfg,
            &mut out,
        );
        let (full, full_stats) =
            reference_pass(&mut policy, &views, &queue_refs, now, total_nodes, &cfg, false);
        check_against_reference(&out, &stats, &full, &full_stats)?;
    }
}

/// Shared queue/running-set builder for the outcome-equivalence props:
/// queued jobs at `now = 200 s`, running jobs started at t=0 with limits
/// long enough not to overrun.
fn build_workload(
    queue_spec: &[(usize, u64)],
    running_spec: &[(usize, u64)],
    total_nodes: usize,
) -> (Vec<SchedJob>, Vec<(SchedJob, SimTime)>) {
    let queue = queue_spec
        .iter()
        .enumerate()
        .map(|(i, &(nodes, limit))| {
            SchedJob::new(
                JobId(i as u64),
                format!("q{i}"),
                nodes.min(total_nodes),
                SimDuration::from_secs(limit),
                SimTime::ZERO,
            )
        })
        .collect();
    let mut running_jobs: Vec<(SchedJob, SimTime)> = Vec::new();
    let mut used = 0usize;
    for (i, &(nodes, limit)) in running_spec.iter().enumerate() {
        if used + nodes <= total_nodes {
            used += nodes;
            running_jobs.push((
                SchedJob::new(
                    JobId(1000 + i as u64),
                    format!("r{i}"),
                    nodes,
                    SimDuration::from_secs(200 + limit),
                    SimTime::ZERO,
                ),
                SimTime::ZERO,
            ));
        }
    }
    (queue, running_jobs)
}
