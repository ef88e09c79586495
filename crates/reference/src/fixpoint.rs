//! The paper's `EarliestStartTime` as its Algorithms 4 and 7 read: one
//! single-column profile per resource, and a start time pushed from one
//! resource's earliest fit to the next until no resource moves it.
//!
//! The production trackers keep every resource as a column of one
//! profile and find the same start by one forward scan. Each
//! single-resource probe here returns the least fitting start at or after
//! its input, so the alternation stops at the least start that fits every
//! resource at once — what the joint scan returns. The property suites
//! compare the two answer for answer.
//!
//! [`FixpointPolicy`] wraps a production policy: its tracker answers
//! `earliest_start` from the oracle's fixpoint, reserves in both, and
//! leaves dominance and the free-at-`now` counters to the production
//! tracker, so a whole backfill pass over it differs from the production
//! pass only in how start times are found.

use iosched_core::{AdaptivePolicy, EstimateBook, IoAwarePolicy, TwoGroupParams};
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_slurm::licenses::LicensePools;
use iosched_slurm::{
    quanta_down, quanta_up, NodePolicy, ReservationTracker, ResourceProfile, RunningView, SchedJob,
    SchedulingPolicy,
};

/// One tracked resource: a single-column profile and its capacity.
struct Single {
    profile: ResourceProfile,
    capacity: i64,
}

impl Single {
    fn new(capacity: i64) -> Self {
        Single {
            profile: ResourceProfile::new(1),
            capacity,
        }
    }

    fn reserve(&mut self, amount: i64, start: SimTime, end: SimTime) {
        self.profile.reserve(&[amount], start, end);
    }

    /// Earliest start at or after `from` at which `amount` more fits
    /// under the capacity for `dur`.
    fn fit(&self, from: SimTime, dur: SimDuration, amount: i64) -> SimTime {
        self.profile
            .earliest_at_most(from, dur, &[self.capacity - amount])
    }
}

/// The LT tracker of Algorithm 2 and the estimates its demands come from.
struct Lt {
    single: Single,
    book: EstimateBook,
    limit_bps: f64,
}

impl Lt {
    fn effective_r(&self, job: &SchedJob) -> f64 {
        self.book.r(job.id).min(self.limit_bps)
    }

    fn demand(&self, job: &SchedJob) -> i64 {
        quanta_up(self.effective_r(job)).min(self.single.capacity)
    }
}

/// The AT tracker of Algorithm 6 and the round's adaptive parameters.
struct At {
    profile: ResourceProfile,
    params: TwoGroupParams,
    threshold: i64,
}

impl At {
    fn adjusted_load(&self, r_bps: f64, nodes: usize) -> i64 {
        quanta_up(r_bps) - quanta_up(nodes as f64 * self.params.split.r_zero_bar)
    }
}

/// One round's per-resource trackers: nodes, one per license pool, and
/// the LT and AT when the policy has them.
struct Trackers {
    nodes: Single,
    licenses: Vec<(String, Single)>,
    lt: Option<Lt>,
    at: Option<At>,
}

impl Trackers {
    /// Stock Slurm's trackers: nodes and one per license pool, seeded
    /// with the running set.
    fn node(
        license_totals: &LicensePools,
        running: &[RunningView<'_>],
        now: SimTime,
        total_nodes: usize,
    ) -> Self {
        let mut nodes = Single::new(total_nodes as i64);
        let mut licenses: Vec<(String, Single)> = license_totals
            .iter()
            .map(|(name, &total)| (name.clone(), Single::new(quanta_down(total))))
            .collect();
        for rv in running {
            let end = rv.reservation_end(now);
            nodes.reserve(rv.job.nodes as i64, rv.started, end);
            for (name, single) in &mut licenses {
                single.reserve(quanta_up(rv.job.licenses.get(name)), rv.started, end);
            }
        }
        Trackers {
            nodes,
            licenses,
            lt: None,
            at: None,
        }
    }

    /// Algorithm 2's `{NT, LT}`: the node tracker plus the LT seeded with
    /// the running jobs' estimates and the unaccounted measured load.
    fn io_aware(
        book: &EstimateBook,
        limit_bps: f64,
        running: &[RunningView<'_>],
        now: SimTime,
        total_nodes: usize,
    ) -> Self {
        let mut trackers = Trackers::node(&LicensePools::new(), running, now, total_nodes);
        let mut lt = Lt {
            single: Single::new(quanta_down(limit_bps)),
            book: book.clone(),
            limit_bps,
        };
        let mut sum_running = 0.0;
        let mut horizon = now;
        for rv in running {
            let end = rv.reservation_end(now);
            let demand = lt.demand(rv.job);
            lt.single.reserve(demand, rv.started, end);
            sum_running += lt.effective_r(rv.job);
            horizon = horizon.max(end);
        }
        let unaccounted = book.measured_total_bps - sum_running;
        if unaccounted > 0.0 && horizon > now {
            lt.single.reserve(quanta_up(unaccounted), now, horizon);
        }
        trackers.lt = Some(lt);
        trackers
    }

    /// Algorithm 5's tracker: the I/O-aware trackers plus the AT seeded
    /// with the running jobs' adjusted loads under `params`.
    fn adaptive(
        book: &EstimateBook,
        limit_bps: f64,
        params: TwoGroupParams,
        running: &[RunningView<'_>],
        now: SimTime,
        total_nodes: usize,
    ) -> Self {
        let mut trackers = Trackers::io_aware(book, limit_bps, running, now, total_nodes);
        let mut at = At {
            profile: ResourceProfile::new(1),
            params,
            threshold: quanta_down(params.r_tilde_prime_bps),
        };
        let lt = trackers
            .lt
            .as_ref()
            .expect("the I/O-aware trackers hold an LT");
        for rv in running {
            let adj = at.adjusted_load(lt.effective_r(rv.job), rv.job.nodes);
            at.profile
                .reserve(&[adj], rv.started, rv.reservation_end(now));
        }
        trackers.at = Some(at);
        trackers
    }

    /// Stock Slurm's node tracker: nodes, then every license pool the job
    /// asks for, until a whole pass leaves the start unchanged. A resource
    /// that never fits ends the search at `FAR_FUTURE`, as in Algorithm
    /// 4; probing on from there could land on a reservation parked at
    /// `FAR_FUTURE` and answer a time past it for a job that never fits.
    fn node_start(&self, job: &SchedJob, t_min: SimTime) -> SimTime {
        let mut t = t_min;
        loop {
            let start = t;
            t = self.nodes.fit(t, job.limit, job.nodes as i64);
            for (name, single) in &self.licenses {
                let amount = quanta_up(job.licenses.get(name));
                if amount > 0 && t != SimTime::FAR_FUTURE {
                    t = single.fit(t, job.limit, amount);
                }
            }
            if t == start || t == SimTime::FAR_FUTURE {
                return t;
            }
        }
    }

    /// Algorithm 4: alternate between the node tracker and the LT until
    /// the start is a fixpoint.
    fn rt_start(&self, job: &SchedJob, t_min: SimTime) -> SimTime {
        let Some(lt) = &self.lt else {
            return self.node_start(job, t_min);
        };
        let demand = lt.demand(job);
        let mut t = t_min;
        loop {
            let t_nt = self.node_start(job, t);
            if t_nt == SimTime::FAR_FUTURE {
                return t_nt;
            }
            let t_lt = lt.single.fit(t_nt, job.limit, demand);
            if t_lt == t_nt {
                return t_lt;
            }
            t = t_lt;
        }
    }

    /// Algorithm 7: a zero job gets Algorithm 4's answer; a regular job
    /// alternates between it and the AT until the start is a fixpoint.
    fn earliest_start(&self, job: &SchedJob, t_min: SimTime) -> SimTime {
        let (Some(lt), Some(at)) = (&self.lt, &self.at) else {
            return self.rt_start(job, t_min);
        };
        if at.params.split.is_zero(lt.effective_r(job), job.nodes) {
            return self.rt_start(job, t_min);
        }
        let mut t = t_min;
        loop {
            let t_rt = self.rt_start(job, t);
            if t_rt == SimTime::FAR_FUTURE {
                return t_rt;
            }
            let t_at = at
                .profile
                .earliest_at_most(t_rt, job.limit, &[at.threshold]);
            if t_at == t_rt {
                return t_at;
            }
            t = t_at;
        }
    }

    /// Algorithms 3 and 6: reserve every resource the job takes over
    /// `[start, start + L_j)`; only regular jobs add to the AT.
    fn reserve(&mut self, job: &SchedJob, start: SimTime) {
        let end = start + job.limit;
        self.nodes.reserve(job.nodes as i64, start, end);
        for (name, single) in &mut self.licenses {
            single.reserve(quanta_up(job.licenses.get(name)), start, end);
        }
        if let Some(lt) = &mut self.lt {
            let demand = lt.demand(job);
            lt.single.reserve(demand, start, end);
            if let Some(at) = &mut self.at {
                let r = lt.effective_r(job);
                if !at.params.split.is_zero(r, job.nodes) {
                    let adj = at.adjusted_load(r, job.nodes);
                    at.profile.reserve(&[adj], start, end);
                }
            }
        }
    }
}

/// Builds a round's [`Trackers`] from the production policy and the
/// round's inputs.
type Build<P> = Box<dyn Fn(&mut P, &[RunningView<'_>], &[&SchedJob], SimTime, usize) -> Trackers>;

/// A production policy whose tracker answers `earliest_start` from the
/// per-resource fixpoint (see the module docs).
pub struct FixpointPolicy<P> {
    inner: P,
    build: Build<P>,
}

impl FixpointPolicy<NodePolicy> {
    /// Stock Slurm: nodes and the policy's license pools.
    pub fn node(inner: NodePolicy) -> Self {
        FixpointPolicy {
            inner,
            build: Box::new(|p, running, _, now, total_nodes| {
                Trackers::node(&p.license_totals, running, now, total_nodes)
            }),
        }
    }
}

impl FixpointPolicy<IoAwarePolicy> {
    /// The I/O-aware policy, over the book it has installed.
    pub fn io_aware(inner: IoAwarePolicy) -> Self {
        FixpointPolicy {
            inner,
            build: Box::new(|p, running, _, now, total_nodes| {
                let limit_bps = p.config().limit_bps;
                Trackers::io_aware(p.book(), limit_bps, running, now, total_nodes)
            }),
        }
    }
}

impl FixpointPolicy<AdaptivePolicy> {
    /// The adaptive policy, with `book` the book it has installed. The
    /// round's target and split are read from a production tracker built
    /// on the same inputs.
    pub fn adaptive(inner: AdaptivePolicy, book: EstimateBook) -> Self {
        FixpointPolicy {
            inner,
            build: Box::new(move |p, running, queue, now, total_nodes| {
                let params = *p.init_tracker(running, queue, now, total_nodes).params();
                let limit_bps = p.config().limit_bps;
                Trackers::adaptive(&book, limit_bps, params, running, now, total_nodes)
            }),
        }
    }
}

/// [`FixpointPolicy`]'s tracker: the production tracker beside the
/// oracle's per-resource trackers.
pub struct FixpointTracker<T> {
    inner: T,
    oracle: Trackers,
}

impl<P: SchedulingPolicy> SchedulingPolicy for FixpointPolicy<P> {
    type Tracker<'a>
        = FixpointTracker<P::Tracker<'a>>
    where
        Self: 'a;

    fn init_tracker<'a>(
        &'a mut self,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> FixpointTracker<P::Tracker<'a>> {
        let oracle = (self.build)(&mut self.inner, running, queue, now, total_nodes);
        FixpointTracker {
            inner: self.inner.init_tracker(running, queue, now, total_nodes),
            oracle,
        }
    }
}

impl<T: ReservationTracker> ReservationTracker for FixpointTracker<T> {
    fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime {
        self.oracle.earliest_start(job, t_min)
    }

    fn reserve(&mut self, job: &SchedJob, start: SimTime) {
        self.inner.reserve(job, start);
        self.oracle.reserve(job, start);
    }

    fn demands_at_least(&self, probe: &SchedJob, failed: &SchedJob) -> bool {
        self.inner.demands_at_least(probe, failed)
    }

    fn may_start_now(&self, job: &SchedJob) -> bool {
        self.inner.may_start_now(job)
    }
}
