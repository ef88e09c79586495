//! The cluster state machine: node occupancy + phase execution driving the
//! Lustre model.
//!
//! Contract with the host event loop:
//!
//! ```text
//! loop {
//!     let t = cluster.next_event_time()  (plus any host events);
//!     cluster.advance_to_into(t, &mut completions);
//!     ... react (schedule more jobs via start_job) ...
//! }
//! ```
//!
//! `advance_to_into` must not skip past `next_event_time`; phase transitions are
//! processed at event granularity so a write phase that ends at `t` starts
//! its successor phase at `t`.

use crate::job::{ExecSpec, JobId, Phase};
use crate::node::NodeSet;
use iosched_lustre::{LustreConfig, LustreSim, StreamId, StreamState, StreamTag};
use iosched_simkit::queue::EventQueue;
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::SimTime;
use std::collections::BTreeMap;

/// Notification that a job finished its last phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobCompletion {
    pub job: JobId,
    pub at: SimTime,
}

/// What a running job is currently doing.
#[derive(Debug)]
enum Activity {
    /// Timed phase (sleep or compute) ending at the given instant.
    TimedUntil(SimTime),
    /// Write phase with this many streams still in flight.
    Writing { outstanding: usize },
}

#[derive(Debug)]
struct RunningJob {
    nodes: Vec<usize>,
    /// All phases of the job, in execution order (immutable after start).
    phases: Vec<Phase>,
    /// Cursor into `phases`: index of the next phase to begin. Everything
    /// before it has already run — no front-removal, no reallocation.
    next_phase: usize,
    activity: Activity,
}

/// The simulated cluster: nodes plus the file system.
pub struct ClusterSim {
    nodes: NodeSet,
    fs: LustreSim,
    running: BTreeMap<JobId, RunningJob>,
    now: SimTime,
    /// Deadline calendar: exactly one entry per running timed
    /// (sleep/compute) phase, keyed by its end instant. Entries are
    /// consumed when the phase fires, so the earliest calendar entry is
    /// always live and
    /// [`Self::next_event_time`] is an O(1) peek instead of an
    /// O(running-jobs) scan.
    calendar: EventQueue<JobId>,
    /// Harvest scratch reused across [`Self::advance_to_into`] calls so
    /// the settle loop is allocation-free in steady state.
    notified_scratch: Vec<(SimTime, StreamId, StreamTag)>,
    completed_scratch: Vec<(SimTime, StreamId, StreamState)>,
    due_scratch: Vec<JobId>,
    /// Per-node burst-buffer capacity, bytes (0 disables burst buffers).
    ///
    /// The buffer model is a head-start absorption: of each write
    /// phase's volume, up to this many bytes per node complete at
    /// client speed (the job does not wait for them) while their drain
    /// to the OSTs continues asynchronously, still consuming file-system
    /// bandwidth. This is the fluid equivalent of burst-buffer /
    /// write-back caching (paper §II-B's "buffers and other mechanisms
    /// to mitigate the negative impacts of I/O bursts").
    burst_buffer_per_node_bytes: f64,
}

impl ClusterSim {
    /// Build a cluster with `n_nodes` compute nodes and the given
    /// file-system model. `rng` seeds the file system's stochastic parts.
    pub fn new(n_nodes: usize, fs_cfg: LustreConfig, rng: SimRng) -> Self {
        ClusterSim {
            nodes: NodeSet::new(n_nodes),
            fs: LustreSim::new(fs_cfg, rng),
            running: BTreeMap::new(),
            now: SimTime::ZERO,
            calendar: EventQueue::new(),
            notified_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            due_scratch: Vec::new(),
            burst_buffer_per_node_bytes: 0.0,
        }
    }

    /// Enable per-node burst buffers of the given capacity (bytes).
    pub fn set_burst_buffer(&mut self, bytes_per_node: f64) {
        assert!(bytes_per_node >= 0.0, "capacity must be non-negative");
        self.burst_buffer_per_node_bytes = bytes_per_node;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.nodes.total()
    }

    /// Nodes currently free.
    pub fn free_nodes(&self) -> usize {
        self.nodes.free_count()
    }

    /// Nodes currently allocated.
    pub fn busy_nodes(&self) -> usize {
        self.nodes.busy_count()
    }

    /// Read-only access to the file-system model (for monitoring).
    pub fn fs(&self) -> &LustreSim {
        &self.fs
    }

    /// Start a job at time `t` (must be ≥ `now`, and ≤ the next event so
    /// no transition is skipped): [`Self::start_jobs`] of one job.
    pub fn start_job(&mut self, t: SimTime, job: JobId, spec: &ExecSpec) -> Result<(), String> {
        self.start_jobs(t, [(job, spec)])
    }

    /// Start `jobs` in order at time `t` (as [`Self::start_job`]) under
    /// one rate solve: advance to `t` once, push every job's streams,
    /// then solve. The rates, events and completions equal those of
    /// starting the jobs one by one, bit for bit: OST placement and noise
    /// refreshes happen at push time, and a solve draws nothing. Returns
    /// `Err` at the first job that finds too few free nodes or an invalid
    /// spec; the jobs before it are started.
    pub fn start_jobs<'a>(
        &mut self,
        t: SimTime,
        jobs: impl IntoIterator<Item = (JobId, &'a ExecSpec)>,
    ) -> Result<(), String> {
        self.advance_internal(t);
        let started = jobs
            .into_iter()
            .try_for_each(|(job, spec)| self.push_job(t, job, spec));
        self.fs.solve_rates();
        started
    }

    /// Allocate `job`'s nodes and begin its first phase, leaving the
    /// rate solve owed.
    fn push_job(&mut self, t: SimTime, job: JobId, spec: &ExecSpec) -> Result<(), String> {
        spec.validate()?;
        if self.running.contains_key(&job) {
            return Err(format!("job {job:?} already running"));
        }
        let nodes = self
            .nodes
            .alloc(spec.nodes)
            .ok_or_else(|| format!("not enough free nodes for {job:?}"))?;
        let phases = spec.phases.clone();
        let activity = Self::begin_phase(
            &mut self.fs,
            self.burst_buffer_per_node_bytes,
            t,
            job,
            &nodes,
            &phases[0],
        );
        if let Activity::TimedUntil(at) = activity {
            self.calendar.push(at, job);
        }
        self.running.insert(
            job,
            RunningJob {
                nodes,
                phases,
                next_phase: 1,
                activity,
            },
        );
        Ok(())
    }

    /// Start `phase` on the file system, leaving any rate solve owed. An
    /// associated fn (not `&mut self`) so callers holding a `RunningJob`
    /// borrow can pass the job's own node list without cloning it.
    fn begin_phase(
        fs: &mut LustreSim,
        burst_buffer_per_node_bytes: f64,
        t: SimTime,
        job: JobId,
        nodes: &[usize],
        phase: &Phase,
    ) -> Activity {
        match *phase {
            Phase::Sleep(d) | Phase::Compute(d) => Activity::TimedUntil(t + d),
            Phase::Write {
                threads_per_node,
                bytes_per_thread,
            } => {
                // Burst buffer: each thread is released once its
                // remaining volume fits in its share of the node's
                // buffer; the stream itself keeps draining to the OSTs.
                // The streams are pushed without a solve; the caller
                // solves once (the fs clock may sit a hair past `t` due
                // to millisecond quantisation of a completion we just
                // harvested; never move it backwards).
                let release = burst_buffer_per_node_bytes / threads_per_node as f64;
                let outstanding = fs.push_write_on_nodes(
                    t.max(fs.now()),
                    StreamTag(job.0),
                    nodes,
                    threads_per_node,
                    bytes_per_thread,
                    release,
                );
                Activity::Writing { outstanding }
            }
        }
    }

    /// The next instant at which cluster state changes on its own: a timed
    /// phase ends or the file system has a change event.
    ///
    /// O(1): the earliest timed-phase deadline is the top of the
    /// calendar, and the file system caches its own next change event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        match (self.fs.next_change_time(), self.calendar.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance the cluster to `t`, processing phase transitions and
    /// harvesting completed jobs into the caller-owned `done` buffer (cleared first, then filled in
    /// `(at, job)` order). Reusing `done` across calls makes the whole
    /// advance/harvest path allocation-free in steady state.
    pub fn advance_to_into(&mut self, t: SimTime, done: &mut Vec<JobCompletion>) {
        done.clear();
        self.advance_internal(t);

        // Keep settling until no transition fires at ≤ t. Starting a
        // successor write phase changes fs rates, which can in turn finish
        // nothing retroactively (rates only drop), so one pass over timed
        // phases plus harvested streams converges; the loop guards the
        // write→write chaining case.
        loop {
            let mut transitioned = false;

            // Release notifications (burst-buffered threads) → jobs stop
            // waiting for those threads while the drain continues.
            let mut notified = std::mem::take(&mut self.notified_scratch);
            self.fs.take_notified_into(&mut notified);
            for &(ct, _, tag) in &notified {
                transitioned |= self.thread_done(ct, JobId(tag.0), done);
            }
            self.notified_scratch = notified;

            // Stream completions → writing jobs. Buffered streams already
            // released their thread via the notification above.
            let mut completed = std::mem::take(&mut self.completed_scratch);
            self.fs.take_completed_into(&mut completed);
            for (ct, _, s) in &completed {
                if s.notify_remaining > 0.0 {
                    continue;
                }
                transitioned |= self.thread_done(*ct, JobId(s.tag.0), done);
            }
            self.completed_scratch = completed;

            // Timed phase ends: drain the calendar up to `t`, one instant
            // at a time. Entries sharing an instant fire in JobId order
            // (the order the old BTreeMap scan produced), keeping traces
            // byte-identical.
            while let Some(at) = self.calendar.peek_time() {
                if at > t {
                    break;
                }
                let mut due = std::mem::take(&mut self.due_scratch);
                while self.calendar.peek_time() == Some(at) {
                    let (_, job) = self.calendar.pop().expect("peeked entry");
                    debug_assert!(
                        matches!(
                            self.running.get(&job).map(|rj| &rj.activity),
                            Some(Activity::TimedUntil(d)) if *d == at
                        ),
                        "stale calendar entry for {job:?}"
                    );
                    due.push(job);
                }
                due.sort_unstable();
                for &job in &due {
                    transitioned = true;
                    self.finish_phase(at, job, done);
                }
                due.clear();
                self.due_scratch = due;
            }

            if !transitioned {
                break;
            }
        }
        // Completion order: by time, JobId breaking ties so same-instant
        // completions are deterministic regardless of harvest order.
        done.sort_unstable_by_key(|c| (c.at, c.job));
    }

    /// One of `job`'s writer threads finished at `at`: count it off, and
    /// when it was the last, finish the write phase. Returns whether the
    /// phase finished; a job that is gone or not writing is left alone.
    fn thread_done(&mut self, at: SimTime, job: JobId, done: &mut Vec<JobCompletion>) -> bool {
        let Some(Activity::Writing { outstanding }) =
            self.running.get_mut(&job).map(|rj| &mut rj.activity)
        else {
            return false;
        };
        *outstanding = outstanding.saturating_sub(1);
        if *outstanding > 0 {
            return false;
        }
        self.finish_phase(at, job, done);
        true
    }

    /// Move to the next pending phase, or complete the job.
    fn finish_phase(&mut self, at: SimTime, job: JobId, done: &mut Vec<JobCompletion>) {
        let rj = self.running.get_mut(&job).expect("job is running");
        if rj.next_phase >= rj.phases.len() {
            let rj = self.running.remove(&job).expect("job is running");
            self.nodes.release(&rj.nodes);
            done.push(JobCompletion { job, at });
        } else {
            let phase = rj.phases[rj.next_phase].clone();
            rj.next_phase += 1;
            let activity = Self::begin_phase(
                &mut self.fs,
                self.burst_buffer_per_node_bytes,
                at,
                job,
                &rj.nodes,
                &phase,
            );
            self.fs.solve_rates();
            if let Activity::TimedUntil(due) = activity {
                self.calendar.push(due, job);
            }
            rj.activity = activity;
        }
    }

    fn advance_internal(&mut self, t: SimTime) {
        assert!(t >= self.now, "cluster time cannot go backwards");
        self.fs.advance_to(t.max(self.fs.now()));
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::time::SimDuration;
    use iosched_simkit::units::gib;

    /// The jobs that completed by `t`, in completion order.
    fn advance(c: &mut ClusterSim, t: SimTime) -> Vec<JobCompletion> {
        let mut done = Vec::new();
        c.advance_to_into(t, &mut done);
        done
    }

    fn cluster() -> ClusterSim {
        ClusterSim::new(
            15,
            LustreConfig::stria().noiseless(),
            SimRng::from_seed(2024),
        )
    }

    /// Drive the cluster until all jobs finish; returns completions.
    fn run_to_idle(c: &mut ClusterSim) -> Vec<JobCompletion> {
        let mut all = Vec::new();
        let mut guard = 0;
        while let Some(t) = c.next_event_time() {
            all.extend(advance(c, t));
            guard += 1;
            assert!(guard < 100_000, "no convergence");
        }
        all
    }

    #[test]
    fn sleep_job_runs_exactly_its_duration() {
        let mut c = cluster();
        c.start_job(
            SimTime::ZERO,
            JobId(1),
            &ExecSpec::sleep(SimDuration::from_secs(600)),
        )
        .unwrap();
        assert_eq!(c.busy_nodes(), 1);
        let done = run_to_idle(&mut c);
        assert_eq!(
            done,
            vec![JobCompletion {
                job: JobId(1),
                at: SimTime::from_secs(600)
            }]
        );
        assert_eq!(c.busy_nodes(), 0);
    }

    #[test]
    fn write_job_duration_scales_with_congestion() {
        // One write×8 job alone vs. fifteen concurrently: the straggler
        // effect must inflate per-job runtime.
        let solo = {
            let mut c = cluster();
            c.start_job(SimTime::ZERO, JobId(1), &ExecSpec::write_xn(8, gib(10.0)))
                .unwrap();
            run_to_idle(&mut c).pop().unwrap().at.as_secs_f64()
        };
        let burst = {
            let mut c = cluster();
            for j in 0..15 {
                c.start_job(SimTime::ZERO, JobId(j), &ExecSpec::write_xn(8, gib(10.0)))
                    .unwrap();
            }
            let done = run_to_idle(&mut c);
            assert_eq!(done.len(), 15);
            done.last().unwrap().at.as_secs_f64()
        };
        assert!(solo > 10.0, "solo write unreasonably fast: {solo}");
        assert!(
            burst > 2.0 * solo,
            "expected congestion inflation: solo {solo}s burst {burst}s"
        );
    }

    #[test]
    fn node_exhaustion_is_an_error() {
        let mut c = cluster();
        for j in 0..15 {
            c.start_job(
                SimTime::ZERO,
                JobId(j),
                &ExecSpec::sleep(SimDuration::from_secs(10)),
            )
            .unwrap();
        }
        assert!(c
            .start_job(
                SimTime::ZERO,
                JobId(99),
                &ExecSpec::sleep(SimDuration::from_secs(10)),
            )
            .is_err());
        assert_eq!(c.free_nodes(), 0);
    }

    #[test]
    fn duplicate_start_rejected() {
        let mut c = cluster();
        let spec = ExecSpec::sleep(SimDuration::from_secs(10));
        c.start_job(SimTime::ZERO, JobId(1), &spec).unwrap();
        assert!(c.start_job(SimTime::ZERO, JobId(1), &spec).is_err());
    }

    #[test]
    fn phase_chaining_compute_then_write() {
        let mut c = cluster();
        let spec = ExecSpec {
            nodes: 1,
            phases: vec![
                Phase::Compute(SimDuration::from_secs(100)),
                Phase::Write {
                    threads_per_node: 1,
                    bytes_per_thread: gib(0.45), // exactly 1 s at stream cap
                },
            ],
        };
        c.start_job(SimTime::ZERO, JobId(1), &spec).unwrap();
        // During compute: no fs traffic.
        let mid = advance(&mut c, SimTime::from_secs(50));
        assert!(mid.is_empty());
        assert_eq!(c.fs().active_stream_count(), 0);
        let done = run_to_idle(&mut c);
        assert_eq!(done.len(), 1);
        let at = done[0].at.as_secs_f64();
        assert!((at - 101.0).abs() < 0.1, "completed at {at}");
    }

    #[test]
    fn multi_node_write_uses_all_nodes() {
        let mut c = cluster();
        let spec = ExecSpec {
            nodes: 4,
            phases: vec![Phase::Write {
                threads_per_node: 2,
                bytes_per_thread: gib(1.0),
            }],
        };
        c.start_job(SimTime::ZERO, JobId(7), &spec).unwrap();
        assert_eq!(c.busy_nodes(), 4);
        assert_eq!(c.fs().active_stream_count(), 8);
        let done = run_to_idle(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(c.busy_nodes(), 0);
    }

    #[test]
    fn burst_buffer_absorbs_whole_write() {
        // Buffer ≥ job volume: the write phase completes almost
        // immediately, but the drain still occupies the file system.
        let mut c = cluster();
        c.set_burst_buffer(gib(100.0));
        c.start_job(SimTime::ZERO, JobId(1), &ExecSpec::write_xn(8, gib(10.0)))
            .unwrap();
        let done = advance(&mut c, SimTime::from_secs(1));
        assert_eq!(done.len(), 1, "fully buffered write completes instantly");
        assert_eq!(c.busy_nodes(), 0);
        // The orphan drain is still running.
        assert_eq!(c.fs().active_stream_count(), 8);
        assert!(c.fs().total_throughput_bps() > 0.0);
        // Drain eventually finishes with no further job completions.
        let more = run_to_idle(&mut c);
        assert!(more.is_empty());
        assert_eq!(c.fs().active_stream_count(), 0);
    }

    #[test]
    fn burst_buffer_shortens_but_does_not_eliminate_large_writes() {
        let duration = |bb: f64| -> f64 {
            let mut c = cluster();
            c.set_burst_buffer(bb);
            c.start_job(SimTime::ZERO, JobId(1), &ExecSpec::write_xn(8, gib(10.0)))
                .unwrap();
            let mut end = SimTime::ZERO;
            while let Some(t) = c.next_event_time() {
                if let Some(d) = advance(&mut c, t).first() {
                    end = d.at;
                    break;
                }
            }
            end.as_secs_f64()
        };
        let none = duration(0.0);
        let half = duration(gib(40.0)); // half the 80 GiB job
        assert!(half > 1.0, "half-buffered write still takes time: {half}");
        assert!(
            half < none * 0.75,
            "buffer should shorten the write: {half} vs {none}"
        );
    }

    #[test]
    fn burst_buffer_drain_congests_later_jobs() {
        // Job 1's buffered bytes drain while job 2 writes: job 2 is
        // slower than it would be on an idle file system.
        let solo = {
            let mut c = cluster();
            c.start_job(SimTime::ZERO, JobId(2), &ExecSpec::write_xn(8, gib(10.0)))
                .unwrap();
            run_to_idle(&mut c).pop().unwrap().at.as_secs_f64()
        };
        let with_drain = {
            let mut c = cluster();
            c.set_burst_buffer(gib(100.0));
            // Job 1 "finishes" instantly but its 80 GiB drain occupies
            // the OSTs.
            c.start_job(SimTime::ZERO, JobId(1), &ExecSpec::write_xn(8, gib(10.0)))
                .unwrap();
            advance(&mut c, SimTime::from_millis(1));
            c.set_burst_buffer(0.0); // job 2 is unbuffered
            c.start_job(
                SimTime::from_millis(1),
                JobId(2),
                &ExecSpec::write_xn(8, gib(10.0)),
            )
            .unwrap();
            let mut end = 0.0;
            while let Some(t) = c.next_event_time() {
                for d in advance(&mut c, t) {
                    if d.job == JobId(2) {
                        end = d.at.as_secs_f64();
                    }
                }
                if end > 0.0 {
                    break;
                }
            }
            end
        };
        assert!(
            with_drain > solo * 1.3,
            "drain should congest job 2: {with_drain} vs {solo}"
        );
    }

    #[test]
    fn start_job_rejects_nan_volume() {
        let mut c = cluster();
        let spec = ExecSpec::write_xn(2, f64::NAN);
        assert!(c.start_job(SimTime::ZERO, JobId(1), &spec).is_err());
        assert_eq!(c.busy_nodes(), 0);
        assert_eq!(c.fs().active_stream_count(), 0);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let mut c = cluster();
            for j in 0..10 {
                c.start_job(SimTime::ZERO, JobId(j), &ExecSpec::write_xn(8, gib(5.0)))
                    .unwrap();
            }
            run_to_idle(&mut c)
                .iter()
                .map(|d| (d.job, d.at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The O(running-jobs) scan over activities that the calendar peek
    /// replaced: the oracle for [`ClusterSim::next_event_time`].
    fn next_event_time_scan(c: &ClusterSim) -> Option<SimTime> {
        let mut next: Option<SimTime> = c.fs.next_change_time();
        for rj in c.running.values() {
            if let Activity::TimedUntil(at) = rj.activity {
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        next
    }

    /// A job from a generated `(kind, seconds)`: a sleep, a compute phase
    /// then a write, or a write then a sleep.
    fn arb_spec(kind: u64, secs: u64) -> ExecSpec {
        let d = SimDuration::from_secs(secs);
        let write = Phase::Write {
            threads_per_node: 1 + (secs % 4) as usize,
            bytes_per_thread: gib(secs as f64 / 40.0),
        };
        let phases = match kind % 3 {
            0 => vec![Phase::Sleep(d)],
            1 => vec![Phase::Compute(d), write],
            _ => vec![write, Phase::Sleep(d)],
        };
        ExecSpec {
            nodes: 1 + (secs % 3) as usize,
            phases,
        }
    }

    iosched_simkit::props! {
        #![cases(64)]

        /// The calendar peek equals the scan after every start and
        /// advance of a random sequence — phase changes included.
        fn calendar_matches_scan(
            ops in iosched_simkit::prop::vec((0u64..4, 0u64..8, 1u64..90), 1..48),
        ) {
            let mut c = cluster();
            let mut now = SimTime::ZERO;
            for &(op, job, secs) in &ops {
                match op {
                    0 | 1 => {
                        // Node exhaustion and duplicates are fine: skip them.
                        let _ = c.start_job(now, JobId(job), &arb_spec(op + secs, secs));
                    }
                    _ => {
                        now += SimDuration::from_millis(secs * 700);
                        advance(&mut c, now);
                    }
                }
                iosched_simkit::prop_assert_eq!(
                    c.next_event_time(),
                    next_event_time_scan(&c),
                    "calendar out of sync after {:?}",
                    (op, job, secs)
                );
            }
        }
    }

    #[test]
    fn staggered_starts_keep_time_consistent() {
        let mut c = cluster();
        c.start_job(SimTime::ZERO, JobId(1), &ExecSpec::write_xn(8, gib(10.0)))
            .unwrap();
        advance(&mut c, SimTime::from_secs(5));
        c.start_job(
            SimTime::from_secs(5),
            JobId(2),
            &ExecSpec::write_xn(8, gib(10.0)),
        )
        .unwrap();
        let done = run_to_idle(&mut c);
        assert_eq!(done.len(), 2);
        // Job 1 started earlier and must finish no later than job 2 with
        // identical volume and symmetric sharing (same per-node shape).
        let t1 = done.iter().find(|d| d.job == JobId(1)).unwrap().at;
        let t2 = done.iter().find(|d| d.job == JobId(2)).unwrap().at;
        assert!(t1 <= t2);
    }
}
