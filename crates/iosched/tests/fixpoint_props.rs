//! Property tests of the joint scan against the paper's per-resource
//! fixpoint ([`iosched_reference::fixpoint`]): on random rounds the
//! production trackers, which probe every resource as a column of one
//! profile in one forward scan, give every `earliest_start` answer and
//! the whole backfill pass — starts, reservations, skips, earliest future
//! start and pruning count — that Algorithms 4 and 7's alternating
//! single-resource probes give. Covered: the node policy with 0–2
//! license pools, io-aware, and two-group and naïve adaptive, at EASY,
//! finite and unbounded `BackfillMax`.
//!
//! The rounds reach the corners where the two could part: jobs of 0
//! nodes, 0 B/s or 0 of a license pool, an LT that unaccounted measured
//! load holds over its capacity, negative AT amounts, zero-group and
//! regular jobs, jobs wider than the machine or a license pool (whose
//! probes never fit and return `FAR_FUTURE`, and whose reservations then
//! sit there), and probes that start after `now`.

mod common;

use common::{job_spec, Round, NOW};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, IoAwareConfig, IoAwarePolicy};
use iosched_reference::fixpoint::FixpointPolicy;
use iosched_simkit::prop::Just;
use iosched_simkit::time::SimDuration;
use iosched_simkit::{prop, prop_assert_eq, prop_oneof, props};
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass_into, BackfillConfig, ReservationTracker, RunningView, SchedJob,
    SchedulingOutcome, SchedulingPolicy,
};

/// License pools the node policy may track, with their totals.
const POOLS: [(&str, f64); 2] = [("lustre", 6.0), ("scratch", 2.5)];

/// The two policies on the same round.
struct Pair<'r, P> {
    label: &'static str,
    policy: P,
    oracle: FixpointPolicy<P>,
    views: &'r [RunningView<'r>],
    queue: &'r [&'r SchedJob],
    total_nodes: usize,
}

impl<P: SchedulingPolicy> Pair<'_, P> {
    /// Walk the queue with both trackers side by side. Job `i` is probed
    /// from `now` plus `cursor[i]` seconds, the answers must agree, and
    /// both trackers reserve the job there (a `FAR_FUTURE` answer too),
    /// so later probes meet the same state.
    fn lockstep(&mut self, cursor: &[u64]) -> Result<(), String> {
        let mut prod = self
            .policy
            .init_tracker(self.views, self.queue, NOW, self.total_nodes);
        let mut fix = self
            .oracle
            .init_tracker(self.views, self.queue, NOW, self.total_nodes);
        for (i, &job) in self.queue.iter().enumerate() {
            let from = NOW + SimDuration::from_secs(cursor[i % cursor.len()]);
            let t = prod.earliest_start(job, from);
            prop_assert_eq!(
                t,
                fix.earliest_start(job, from),
                "{}: earliest_start of queue entry {} from {}",
                self.label,
                i,
                from
            );
            prod.reserve(job, t);
            fix.reserve(job, t);
        }
        Ok(())
    }

    /// One backfill pass over each: the whole outcome and both stats.
    fn pass(&mut self, cfg: &BackfillConfig) -> Result<(), String> {
        let (mut out, mut want) = (SchedulingOutcome::default(), SchedulingOutcome::default());
        let (q, n) = (self.queue, self.total_nodes);
        let got = backfill_pass_into(&mut self.policy, self.views, q, NOW, n, cfg, &mut out);
        let fix = backfill_pass_into(&mut self.oracle, self.views, q, NOW, n, cfg, &mut want);
        prop_assert_eq!(&out, &want, "{}: pass outcome", self.label);
        prop_assert_eq!(
            got.next_possible_start,
            fix.next_possible_start,
            "{}: earliest future start",
            self.label
        );
        prop_assert_eq!(got.pruned, fix.pruned, "{}: pruned", self.label);
        Ok(())
    }
}

props! {
    #![cases(256)]

    /// Every probe and every pass of the joint scan equals the
    /// per-resource fixpoint's, under every policy and budget.
    fn joint_scan_matches_the_fixpoint(
        running in prop::vec((job_spec(), 0u64..600), 0..8),
        queue in prop::vec(job_spec(), 1..16),
        (limit, measured) in ((3.0f64..16.0, 0u64..2), (0u64..3, 0.0f64..1.0)),
        (spare_nodes, pools, zero_nodes) in (0usize..8, 0usize..3, 0usize..24),
        (licenses, cursor, backfill_max) in (
            prop::vec((0u64..5, 0u64..4), 24..25),
            prop::vec(0u64..800, 1..6),
            prop_oneof![Just(1usize), Just(3), Just(usize::MAX)],
        ),
    ) {
        let mut round = Round::new(&running, &queue, limit, measured, spare_nodes);
        // License demands (0 included, and above a pool's total), and
        // one job, running or queued, of 0 nodes.
        for (i, job) in round
            .running
            .iter_mut()
            .map(|(j, _)| j)
            .chain(round.queue.iter_mut())
            .enumerate()
        {
            job.licenses.set(POOLS[0].0, licenses[i].0 as f64);
            job.licenses.set(POOLS[1].0, licenses[i].1 as f64 * 0.75);
            if i == zero_nodes {
                job.nodes = 0;
            }
        }
        // Half the probes start at `now`, the rest up to 400 s later.
        let cursor: Vec<u64> = cursor.iter().map(|&c| c.saturating_sub(400)).collect();
        let cfg = BackfillConfig {
            max_reservations: backfill_max,
            ..BackfillConfig::default()
        };
        let views = round.views();
        let refs: Vec<&SchedJob> = round.queue.iter().collect();
        let (views, refs, total_nodes) = (&views[..], &refs[..], round.total_nodes);

        let node = || {
            let mut p = NodePolicy::default();
            for &(name, total) in &POOLS[..pools] {
                p.license_totals.insert(name.into(), total);
            }
            p
        };
        let mut pair = Pair {
            label: "node",
            policy: node(),
            oracle: FixpointPolicy::node(node()),
            views,
            queue: refs,
            total_nodes,
        };
        pair.lockstep(&cursor)?;
        pair.pass(&cfg)?;

        let io = || {
            let mut p = IoAwarePolicy::new(IoAwareConfig { limit_bps: round.limit });
            p.begin_round(round.book.clone());
            p
        };
        let mut pair = Pair {
            label: "io-aware",
            policy: io(),
            oracle: FixpointPolicy::io_aware(io()),
            views,
            queue: refs,
            total_nodes,
        };
        pair.lockstep(&cursor)?;
        pair.pass(&cfg)?;

        for (label, cfg_ad) in [
            ("adaptive", AdaptiveConfig::paper(round.limit)),
            ("adaptive-naive", AdaptiveConfig::naive(round.limit)),
        ] {
            let ad = || {
                let mut p = AdaptivePolicy::new(cfg_ad);
                p.begin_round(round.book.clone());
                p
            };
            let mut pair = Pair {
                label,
                policy: ad(),
                oracle: FixpointPolicy::adaptive(ad(), round.book.clone()),
                views,
                queue: refs,
                total_nodes,
            };
            pair.lockstep(&cursor)?;
            pair.pass(&cfg)?;
        }
    }
}
