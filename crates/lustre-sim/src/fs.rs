//! The file-system state machine.
//!
//! [`LustreSim`] is a fluid (rate-based) model: at any instant every active
//! stream has an allocated rate, and state advances by integrating those
//! rates over time. Rates change only at *change events* — stream start,
//! stream completion, or a noise epoch — so between events progress is
//! linear and the next completion time is exact.
//!
//! The host event loop drives the model with three calls:
//!
//! 1. [`LustreSim::advance_to`] — integrate progress up to "now"
//!    (internally stepping across noise epochs);
//! 2. [`LustreSim::take_completed_into`] — harvest streams that finished;
//! 3. [`LustreSim::next_change_time`] — when to wake up next.
//!
//! Hot-path layout: streams live in a dense slab (`Vec` + parallel id
//! vector, `swap_remove` on completion), per-node/per-OST occupancy
//! counts are maintained incrementally on add/remove, and rate solves go
//! through a [`WarmSolver`] whose constraint membership is repaired on
//! each join/leave — a steady-state `recompute_rates` performs no heap
//! allocations. The earliest pending
//! event (completion or release crossing) is cached whenever rates
//! change, so `next_change_time` is O(1) and the integrator does not
//! rescan all streams per step.

use crate::config::{LustreConfig, NoiseMode};
use crate::solver::WarmSolver;
use crate::stream::{StreamId, StreamState, StreamTag};
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::{SimDuration, SimTime};

/// Tolerance for "stream is finished", in bytes. A fraction of one block;
/// avoids scheduling zero-length progress steps from float round-off.
const DONE_EPS_BYTES: f64 = 1.0;

/// Re-poll interval returned by [`LustreSim::next_change_time`] when every
/// active stream is stalled at rate 0 and no epoch tick is pending (e.g.
/// an OST with zero capacity and noise disabled). Without it the model
/// would report `FAR_FUTURE` while streams remain active and wedge the
/// host event loop.
const STALL_REPOLL: SimDuration = SimDuration::from_secs(1);

/// Fatigue below this is snapped to exact zero so fully-recovered OSTs
/// leave the fatigued list. The cutoff sits far below `f64::EPSILON / 2`,
/// so `1.0 - f` rounds to exactly `1.0` for any residue this small — the
/// pressured-growth rule `1 − (1 − f)·up` produces bit-identical results
/// whether the residue was kept or snapped, and decay keeps it below the
/// cutoff. Draining from full fatigue to here takes ≈ 41 τ_down (hours of
/// simulated idle time), after which the list genuinely empties.
const FATIGUE_SNAP: f64 = 1e-18;

/// A point-in-time view of file-system load, used by the monitoring
/// substrate to build metric samples.
///
/// The per-tag breakdown is a sorted vector (ascending by tag, tags
/// unique); construction via [`LustreSim::snapshot_into`] reuses the
/// vector's capacity, so a sampler polling every tick allocates nothing in
/// steady state.
#[derive(Clone, Debug, Default)]
pub struct FsSnapshot {
    /// Aggregate allocated rate, bytes/s.
    pub total_bps: f64,
    /// Allocated rate per owner tag (job), bytes/s, sorted by tag.
    pub per_tag_bps: Vec<(StreamTag, f64)>,
}

/// Sum adjacent duplicate keys of a key-sorted vector in place.
fn coalesce_sorted<K: PartialEq + Copy>(v: &mut Vec<(K, f64)>) {
    let mut w = 0usize;
    for r in 0..v.len() {
        if w > 0 && v[w - 1].0 == v[r].0 {
            v[w - 1].1 += v[r].1;
        } else {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

/// Fluid simulation of the parallel file system.
pub struct LustreSim {
    cfg: LustreConfig,
    rng: SimRng,
    now: SimTime,
    next_stream_id: u64,
    /// Dense stream slab; `stream_ids[i]` owns `streams[i]`. Removal is
    /// `swap_remove`, so order is maintenance order, not id order — all
    /// per-stream iteration below is order-insensitive or re-sorted.
    streams: Vec<StreamState>,
    stream_ids: Vec<StreamId>,
    /// Active-stream count per OST, maintained on add/remove.
    ost_occ: Vec<u32>,
    /// OSTs with at least one active stream, unordered (`swap_remove`
    /// maintenance). Lets the per-solve capacity refresh and the fatigue
    /// integrator touch only occupied OSTs instead of scanning all
    /// `n_ost` — the O(OSTs)-per-solve term the scale sweep exposed.
    occupied_osts: Vec<u32>,
    /// `occupied_pos[ost]` = slot + 1 in `occupied_osts`, 0 when absent.
    occupied_pos: Vec<u32>,
    /// OSTs with nonzero fatigue, unordered (same slot discipline).
    fatigued_osts: Vec<u32>,
    /// `fatigued_pos[ost]` = slot + 1 in `fatigued_osts`, 0 when absent.
    fatigued_pos: Vec<u32>,
    /// Active-stream count per node (grown on demand), maintained on
    /// add/remove.
    node_occ: Vec<u32>,
    /// Streams that reached zero remaining bytes, with their completion
    /// times, waiting to be harvested by the host.
    completed: Vec<(SimTime, StreamId, StreamState)>,
    /// Release notifications awaiting harvest (burst-buffer semantics).
    notified: Vec<(SimTime, StreamId, StreamTag)>,
    /// Multiplicative noise factor per OST, current for the epoch iff
    /// `noise_gen[ost] == noise_epoch_idx`. Both noise modes derive
    /// factors lazily (see `refresh_noise`): an idle OST's capacity is
    /// never observed, so deriving its factor can be skipped without
    /// affecting any outcome.
    noise: Vec<f64>,
    /// Noise epoch counter (0 for the epoch starting at time zero).
    noise_epoch_idx: u64,
    /// Per-OST epoch stamp for the lazy refresh (`u64::MAX` = stale).
    noise_gen: Vec<u64>,
    /// [`NoiseMode::Sequential`] only (empty otherwise): the two raw
    /// generator outputs per OST that the epoch's factor is derived
    /// from. All of them are drawn at the epoch, in the order a dense
    /// per-OST `lognormal` resample would consume them, so the
    /// generator's position — and every later OST placement drawn from
    /// it — does not depend on which factors are ever derived.
    noise_raw: Vec<[u64; 2]>,
    /// Fatigue level per OST ∈ [0, 1]: sustained multi-stream pressure
    /// drives it toward 1 (degrading effective bandwidth by
    /// `1 − φ·fatigue`), idleness lets it recover.
    fatigue: Vec<f64>,
    /// `(dt, up, down)` of the last fatigue step: the relaxation factors
    /// for a step of `dt` seconds, reused while `dt` repeats (the host
    /// loop's 1 s ticks make almost every step the same length).
    fatigue_decay: (f64, f64, f64),
    /// Start of the next epoch tick (noise resample and/or fatigue
    /// re-solve while streams are active).
    next_noise_at: SimTime,
    /// Earliest pending stream event (completion or release crossing)
    /// under the current rates; `FAR_FUTURE` when none. Computed by
    /// `refresh_next_event` whenever rates change — exact until then
    /// because rates are piecewise-constant between recomputes.
    next_event_at: SimTime,
    /// Total bytes written since construction (ground truth, for tests).
    bytes_written_total: f64,
    /// Warm-start rate solver: constraint membership is repaired
    /// incrementally on stream join/leave (mirroring the slab's
    /// `swap_remove`), so a solve skips the per-solve membership and
    /// adjacency rebuild entirely. Constraint layout:
    /// `[0, node_occ.len())` node NIC caps, then `n_ost` OST caps, then
    /// the fabric cap last; rebuilt only when the node slot count grows.
    warm: WarmSolver,
    /// Scratch slab indices of streams harvested this step.
    done_scratch: Vec<u32>,
    /// Bumped by every change to the stream set or to any rate (push,
    /// remove, solve); see [`LustreSim::rates_generation`].
    rates_gen: u64,
    /// Streams were pushed since the last solve: the rates are stale
    /// until [`LustreSim::solve_rates`].
    solve_owed: bool,
}

impl LustreSim {
    /// Create a file system from a validated config and a dedicated RNG
    /// stream (fork it from the experiment's master seed).
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: LustreConfig, mut rng: SimRng) -> Self {
        cfg.validate().expect("invalid LustreConfig");
        let mut noise_raw = Vec::new();
        if cfg.noise_sigma > 0.0 && cfg.noise_mode == NoiseMode::Sequential {
            noise_raw = (0..cfg.n_ost)
                .map(|_| [rng.next_u64(), rng.next_u64()])
                .collect();
        }
        let next_noise_at = if cfg.noise_sigma > 0.0 || cfg.fatigue_phi > 0.0 {
            SimTime::ZERO + cfg.noise_epoch
        } else {
            SimTime::FAR_FUTURE
        };
        LustreSim {
            noise: vec![1.0; cfg.n_ost],
            noise_gen: vec![u64::MAX; cfg.n_ost],
            fatigue: vec![0.0; cfg.n_ost],
            // NaN equals no step length, so the first step fills it.
            fatigue_decay: (f64::NAN, 1.0, 1.0),
            ost_occ: vec![0; cfg.n_ost],
            occupied_osts: Vec::new(),
            occupied_pos: vec![0; cfg.n_ost],
            fatigued_osts: Vec::new(),
            fatigued_pos: vec![0; cfg.n_ost],
            cfg,
            rng,
            now: SimTime::ZERO,
            next_stream_id: 0,
            streams: Vec::new(),
            stream_ids: Vec::new(),
            node_occ: Vec::new(),
            completed: Vec::new(),
            notified: Vec::new(),
            noise_epoch_idx: 0,
            noise_raw,
            next_noise_at,
            next_event_at: SimTime::FAR_FUTURE,
            bytes_written_total: 0.0,
            warm: WarmSolver::new(),
            done_scratch: Vec::new(),
            rates_gen: 0,
            solve_owed: false,
        }
    }

    /// The model's current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration in use.
    pub fn config(&self) -> &LustreConfig {
        &self.cfg
    }

    /// A counter that changes whenever the stream set or any rate does
    /// (0 for a new model): equal generations of one model mean equal
    /// [`Self::snapshot_into`] output, so a sampler may keep its last
    /// snapshot while the generation stands.
    pub fn rates_generation(&self) -> u64 {
        self.rates_gen
    }

    /// Begin `n_threads` write streams from `node`, each writing
    /// `bytes_per_thread` to a randomly chosen OST (the paper's workload
    /// writes each thread's file to a randomly chosen Lustre volume).
    /// Advances the model to `t` first.
    pub fn start_write(
        &mut self,
        t: SimTime,
        tag: StreamTag,
        node: usize,
        n_threads: usize,
        bytes_per_thread: f64,
    ) -> Vec<StreamId> {
        let first = self.next_stream_id;
        let n = self.push_write_on_nodes(t, tag, &[node], n_threads, bytes_per_thread, 0.0);
        self.solve_rates();
        (first..first + n as u64).map(StreamId).collect()
    }

    /// Begin `n_threads` write streams from each node of `nodes` (placed
    /// as in [`Self::start_write`]) without solving: the caller solves
    /// once for all its pushes with [`Self::solve_rates`], before any
    /// rate is read or time advances. Returns how many streams were
    /// started (ids are assigned sequentially). Each thread is *released*
    /// — a notification is emitted, harvested via
    /// [`Self::take_notified_into`] — once its remaining volume fits in
    /// `release_bytes_per_thread`; the stream keeps draining to the OSTs
    /// afterwards. `release ≥ volume` releases immediately, 0 never.
    ///
    /// This is the one stream-start path: advance to `t` and push every
    /// node's streams, owing one rate solve for the lot — O(nodes ×
    /// threads), where a solve per node dominated wide-job starts on the
    /// 10k-node machine, and a solve per job a round's starts.
    pub fn push_write_on_nodes(
        &mut self,
        t: SimTime,
        tag: StreamTag,
        nodes: &[usize],
        n_threads: usize,
        bytes_per_thread: f64,
        release_bytes_per_thread: f64,
    ) -> usize {
        assert!(
            release_bytes_per_thread >= 0.0,
            "release threshold must be non-negative"
        );
        self.advance_to(t);
        for &node in nodes {
            self.push_streams_for_node(
                t,
                tag,
                node,
                n_threads,
                bytes_per_thread,
                release_bytes_per_thread,
            );
        }
        self.solve_owed = true;
        nodes.len() * n_threads
    }

    /// Solve the rates if a push since the last solve left one owed
    /// (otherwise a no-op). One solve after many pushes gives the rates
    /// that a solve after each push would end with, bit for bit:
    /// placement and noise refreshes happen at push time, and a solve
    /// draws nothing.
    pub fn solve_rates(&mut self) {
        if self.solve_owed {
            self.recompute_rates();
        }
    }

    /// Place and register `n_threads` streams from `node` without
    /// solving: the caller solves once after the last batch.
    fn push_streams_for_node(
        &mut self,
        t: SimTime,
        tag: StreamTag,
        node: usize,
        n_threads: usize,
        bytes_per_thread: f64,
        release_bytes: f64,
    ) {
        assert!(n_threads > 0, "a transfer needs at least one thread");
        assert!(bytes_per_thread > 0.0, "bytes_per_thread must be positive");
        if node >= self.node_occ.len() {
            self.node_occ.resize(node + 1, 0);
            // The node-constraint block grew: rebuild the warm system's
            // layout. Rare — it happens at most once per distinct node.
            self.rebuild_warm();
        }
        let node_slots = self.node_occ.len();
        let fabric_con = (node_slots + self.cfg.n_ost) as u32;
        for _ in 0..n_threads {
            // Least-loaded of `ost_candidates` random picks (Lustre's
            // balancing object allocator); d = 1 is blind uniform choice.
            // The maintained occupancy already includes the threads placed
            // so far in this call.
            let mut ost = self.rng.index(self.cfg.n_ost);
            for _ in 1..self.cfg.ost_candidates {
                let alt = self.rng.index(self.cfg.n_ost);
                if self.ost_occ[alt] < self.ost_occ[ost] {
                    ost = alt;
                }
            }
            let id = StreamId(self.next_stream_id);
            self.next_stream_id += 1;
            let notified = release_bytes >= bytes_per_thread;
            if notified {
                // Everything fits in the buffer: release immediately.
                self.notified.push((t.max(self.now), id, tag));
            }
            self.ost_occ_inc(ost);
            self.node_occ[node] += 1;
            self.warm
                .add_flow(&[node as u32, (node_slots + ost) as u32, fabric_con]);
            self.stream_ids.push(id);
            self.rates_gen += 1;
            self.streams.push(StreamState {
                tag,
                node,
                ost,
                remaining_bytes: bytes_per_thread,
                rate_bps: 0.0,
                notify_remaining: release_bytes.min(bytes_per_thread),
                notified,
            });
        }
    }

    /// Drop the stream at slab index `idx`, keeping the occupancy counts
    /// and the warm solver's membership in sync (both use swap-remove
    /// renaming, so solver flow indices always equal slab indices).
    fn remove_stream(&mut self, idx: usize) -> (StreamId, StreamState) {
        let s = self.streams.swap_remove(idx);
        let id = self.stream_ids.swap_remove(idx);
        self.ost_occ_dec(s.ost);
        self.node_occ[s.node] -= 1;
        self.warm.remove_flow_swap(idx as u32);
        self.rates_gen += 1;
        (id, s)
    }

    /// Bump `ost`'s occupancy, listing it as occupied on the 0 → 1 edge.
    fn ost_occ_inc(&mut self, ost: usize) {
        self.ost_occ[ost] += 1;
        if self.ost_occ[ost] == 1 {
            self.occupied_pos[ost] = self.occupied_osts.len() as u32 + 1;
            self.occupied_osts.push(ost as u32);
            // A newly occupied OST's capacity becomes observable: its
            // noise factor must be current before the next solve.
            self.refresh_noise(ost);
        }
    }

    /// Drop `ost`'s occupancy, delisting it on the 1 → 0 edge.
    fn ost_occ_dec(&mut self, ost: usize) {
        self.ost_occ[ost] -= 1;
        if self.ost_occ[ost] == 0 {
            let slot = (self.occupied_pos[ost] - 1) as usize;
            self.occupied_osts.swap_remove(slot);
            self.occupied_pos[ost] = 0;
            if let Some(&moved) = self.occupied_osts.get(slot) {
                self.occupied_pos[moved as usize] = slot as u32 + 1;
            }
        }
    }

    /// Rebuild the warm solver's constraint system from scratch: node
    /// slots `[0, node_occ.len())`, then one constraint per OST, then the
    /// fabric cap. Node and fabric capacities are config constants set
    /// here; OST capacities fold noise and fatigue and are refreshed
    /// at every solve instead.
    fn rebuild_warm(&mut self) {
        let node_slots = self.node_occ.len();
        let n_cons = node_slots + self.cfg.n_ost + 1;
        self.warm.reset(n_cons, 3, self.cfg.stream_cap_bps);
        for c in 0..node_slots {
            self.warm.set_con_cap(c, self.cfg.node_cap_bps);
        }
        self.warm.set_con_cap(n_cons - 1, self.cfg.fabric_cap_bps);
        let fabric = (n_cons - 1) as u32;
        for s in &self.streams {
            self.warm
                .add_flow(&[s.node as u32, (node_slots + s.ost) as u32, fabric]);
        }
    }

    /// Effective capacity of `ost` under `occ` concurrent streams:
    /// interference-degraded nominal bandwidth scaled by the epoch's
    /// noise factor and fatigue vigor.
    #[inline]
    fn ost_capacity_bps(&self, ost: usize, occ: usize) -> f64 {
        let vigor = 1.0 - self.cfg.fatigue_phi * self.fatigue[ost];
        self.cfg.ost_effective_bps(occ) * self.noise[ost] * vigor
    }

    /// Harvest release notifications (threads whose remaining volume fits
    /// in their burst-buffer allowance), time-ordered, into `out`
    /// (cleared first). Both the internal buffer and `out` keep their
    /// capacity, so a host that reuses `out` allocates nothing per
    /// harvest.
    pub fn take_notified_into(&mut self, out: &mut Vec<(SimTime, StreamId, StreamTag)>) {
        out.clear();
        out.append(&mut self.notified);
    }

    /// Abort all streams belonging to `tag` (job cancelled). Advances to
    /// `t` first. Returns how many streams were dropped.
    pub fn cancel_tag(&mut self, t: SimTime, tag: StreamTag) -> usize {
        self.advance_to(t);
        let mut dropped = 0usize;
        let mut idx = self.streams.len();
        while idx > 0 {
            idx -= 1;
            if self.streams[idx].tag == tag {
                self.remove_stream(idx);
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.recompute_rates();
        }
        dropped
    }

    /// Integrate stream progress up to `t`, stepping across noise epochs.
    /// Completed streams move to the harvest buffer with their exact
    /// completion times.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "time cannot go backwards");
        debug_assert!(
            t == self.now || !self.solve_owed,
            "time advanced while a solve is owed"
        );
        while self.now < t {
            let step_end = t.min(self.next_noise_at);
            self.integrate_until(step_end);
            self.now = step_end;
            if self.now == self.next_noise_at {
                self.resample_noise();
                self.next_noise_at = self.now + self.cfg.noise_epoch;
                self.recompute_rates();
            }
        }
    }

    /// Integrate linearly from `self.now` to `end` with current rates,
    /// harvesting completions at their exact times (which requires
    /// sub-stepping: when a stream finishes, the freed capacity speeds up
    /// the remaining streams).
    fn integrate_until(&mut self, end: SimTime) {
        loop {
            if self.now >= end || self.streams.is_empty() {
                let dt = (end.saturating_since(self.now)).as_secs_f64();
                if dt > 0.0 {
                    // Idle gap: fatigue recovers.
                    self.update_fatigue(dt);
                }
                self.now = end.max(self.now);
                return;
            }
            // Earliest event (completion or release crossing) under the
            // current rates — cached at the last rate change, exact until
            // the next one. Event times round *up* to the millisecond grid
            // so a step always makes progress.
            let first = self.next_event_at;
            let step_to = if first <= end { first } else { end };
            let dt = (step_to.saturating_since(self.now)).as_secs_f64();
            if dt > 0.0 {
                self.update_fatigue(dt);
                for s in self.streams.iter_mut() {
                    // Clamp so a stream never goes negative; the residual
                    // epsilon is accounted at harvest time.
                    let moved = (s.rate_bps * dt).min(s.remaining_bytes.max(0.0));
                    s.remaining_bytes -= moved;
                    self.bytes_written_total += moved;
                }
                self.now = step_to;
            }
            // Release crossings: threads whose remaining volume now fits
            // in their buffer allowance. Crossings within one instant are
            // reported in id order (the slab is maintenance-ordered).
            let first_note = self.notified.len();
            for (i, s) in self.streams.iter_mut().enumerate() {
                if !s.notified
                    && s.notify_remaining > 0.0
                    && s.remaining_bytes <= s.notify_remaining + DONE_EPS_BYTES
                {
                    s.notified = true;
                    self.notified.push((self.now, self.stream_ids[i], s.tag));
                }
            }
            let released = self.notified.len() > first_note;
            if released {
                self.notified[first_note..].sort_unstable_by_key(|&(_, id, _)| id);
            }

            // Harvest everything that is (numerically) done. Because time
            // is millisecond-quantised, a completion may land a hair before
            // `step_to`; the epsilon absorbs that.
            self.done_scratch.clear();
            for (i, s) in self.streams.iter().enumerate() {
                if s.remaining_bytes <= DONE_EPS_BYTES {
                    self.done_scratch.push(i as u32);
                }
            }
            if self.done_scratch.is_empty() {
                if released || (step_to == first && self.now >= first) {
                    // A release changes its stream's next target (now the
                    // full drain), and a cached event that fired without
                    // harvesting anything must not be returned again:
                    // re-derive the cache from the current state either
                    // way (also guarantees the loop advances).
                    self.refresh_next_event();
                }
                if self.now >= end {
                    return;
                }
                continue;
            }
            // Remove in descending slab order so `swap_remove` never
            // disturbs a pending index; re-sort the harvested batch into
            // id order (all share the same completion instant).
            let first_done = self.completed.len();
            let mut k = self.done_scratch.len();
            while k > 0 {
                k -= 1;
                let idx = self.done_scratch[k] as usize;
                let (id, mut s) = self.remove_stream(idx);
                // Account the residual epsilon as written.
                self.bytes_written_total += s.remaining_bytes.max(0.0);
                s.remaining_bytes = 0.0;
                self.completed.push((self.now, id, s));
            }
            self.completed[first_done..].sort_unstable_by_key(|&(_, id, _)| id);
            self.recompute_rates();
        }
    }

    /// Harvest completed streams (time-ordered) into `out` (cleared
    /// first), keeping both buffers' capacity.
    pub fn take_completed_into(&mut self, out: &mut Vec<(SimTime, StreamId, StreamState)>) {
        out.clear();
        out.append(&mut self.completed);
    }

    /// When the model next needs attention: the earliest stream completion
    /// (exact, under current rates) or the next noise epoch — `None` when
    /// no stream is active. When every active stream is stalled at rate 0
    /// and no epoch tick is pending, returns a bounded re-poll time
    /// instead of `FAR_FUTURE` so the host loop cannot wedge.
    pub fn next_change_time(&self) -> Option<SimTime> {
        self.debug_assert_solved();
        if self.streams.is_empty() {
            return None;
        }
        let next = self.next_noise_at.min(self.next_event_at);
        if next >= SimTime::FAR_FUTURE {
            return Some(self.now + STALL_REPOLL);
        }
        Some(next.max(self.now + SimDuration::from_millis(1)))
    }

    /// Re-derive the cached earliest stream event from the current rates
    /// and volumes. Uses the same ceil-to-millisecond rounding as the
    /// integrator, so advancing to the cached time is guaranteed to
    /// harvest the event (release crossing or completion).
    fn refresh_next_event(&mut self) {
        let mut first = SimTime::FAR_FUTURE;
        for s in &self.streams {
            if s.rate_bps <= 0.0 {
                continue;
            }
            // Next target for this stream: the release threshold if not
            // yet crossed, else full completion.
            let target = if !s.notified && s.notify_remaining > 0.0 {
                (s.remaining_bytes - s.notify_remaining).max(0.0)
            } else {
                s.remaining_bytes
            };
            let secs = (target / s.rate_bps).max(0.0);
            let ms = ((secs * 1000.0).ceil() as u64).max(1);
            let at = self.now + SimDuration::from_millis(ms);
            if at < first {
                first = at;
            }
        }
        self.next_event_at = first;
    }

    /// Recompute the max-min fair rates for all active streams.
    ///
    /// The warm solver already holds the constraint membership (repaired
    /// incrementally on stream join/leave), so a solve only refreshes the
    /// occupied OSTs' capacities — which fold noise and fatigue and
    /// therefore change between solves — and runs the fill. No
    /// membership rebuild, no adjacency build, no allocations.
    fn recompute_rates(&mut self) {
        self.solve_owed = false;
        self.rates_gen += 1;
        let n = self.streams.len();
        if n == 0 {
            self.next_event_at = SimTime::FAR_FUTURE;
            return;
        }
        debug_assert_eq!(self.warm.flow_count(), n, "warm membership out of sync");
        let node_slots = self.node_occ.len();
        // Only occupied OSTs need fresh capacities: the warm solver never
        // reads a memberless constraint's cap, so stale caps on idle OSTs
        // are unobservable. This keeps the per-solve cost proportional to
        // the active working set instead of the machine size.
        for k in 0..self.occupied_osts.len() {
            let ost = self.occupied_osts[k] as usize;
            let cap = self.ost_capacity_bps(ost, self.ost_occ[ost] as usize);
            self.warm.set_con_cap(node_slots + ost, cap);
        }
        let rates = self.warm.solve();
        for (i, s) in self.streams.iter_mut().enumerate() {
            s.rate_bps = rates[i];
        }
        self.refresh_next_event();
    }

    /// Start a new noise epoch: every stamp goes stale at once, and only
    /// the occupied OSTs are refreshed now (idle ones if and when they
    /// gain a stream this epoch).
    fn resample_noise(&mut self) {
        if self.cfg.noise_sigma == 0.0 {
            return;
        }
        self.noise_epoch_idx += 1;
        for raw in self.noise_raw.iter_mut() {
            *raw = [self.rng.next_u64(), self.rng.next_u64()];
        }
        for k in 0..self.occupied_osts.len() {
            let ost = self.occupied_osts[k] as usize;
            self.refresh_noise(ost);
        }
    }

    /// Bring `noise[ost]` up to the current epoch. Under
    /// [`NoiseMode::Sequential`] the factor is derived from the OST's
    /// raw draws for the epoch, giving the value a dense `lognormal`
    /// resample would have drawn, bit for bit. Under
    /// [`NoiseMode::Indexed`] it is a pure function of the RNG seed and
    /// `(epoch, ost)` — `fork` does not consume generator state. Either
    /// way, when (and whether) a factor is derived cannot perturb any
    /// other draw.
    #[inline]
    fn refresh_noise(&mut self, ost: usize) {
        if self.cfg.noise_sigma == 0.0 || self.noise_gen[ost] == self.noise_epoch_idx {
            return;
        }
        self.noise_gen[ost] = self.noise_epoch_idx;
        let z = match self.cfg.noise_mode {
            NoiseMode::Sequential => SimRng::normal_from(self.noise_raw[ost]),
            NoiseMode::Indexed => {
                let label = self
                    .noise_epoch_idx
                    .wrapping_mul(self.cfg.n_ost as u64)
                    .wrapping_add(ost as u64);
                self.rng.fork(label).normal()
            }
        };
        // `lognormal(1.0, σ)`: the median's factor 1.0 is exact, so
        // this is the same value bit for bit.
        self.noise[ost] = (self.cfg.noise_sigma * z).exp();
    }

    /// Advance the per-OST fatigue state by `dt` seconds under the current
    /// occupancy (exact exponential relaxation for piecewise-constant
    /// pressure).
    ///
    /// Sparse: only OSTs on the fatigued or occupied lists are touched,
    /// so the cost tracks the active working set rather than `n_ost`. The
    /// result equals the dense rule's bit for bit, except residues below
    /// `FATIGUE_SNAP`, which are snapped to exact zero.
    fn update_fatigue(&mut self, dt_secs: f64) {
        if self.cfg.fatigue_phi == 0.0 {
            return;
        }
        if dt_secs != self.fatigue_decay.0 {
            self.fatigue_decay = (
                dt_secs,
                (-dt_secs / self.cfg.fatigue_tau_up.as_secs_f64()).exp(),
                (-dt_secs / self.cfg.fatigue_tau_down.as_secs_f64()).exp(),
            );
        }
        let (_, up, down) = self.fatigue_decay;
        // Pass 1: every fatigued OST either keeps accumulating
        // (pressured) or decays — and leaves the list once the
        // residue snaps to exact zero.
        let mut k = 0usize;
        while k < self.fatigued_osts.len() {
            let ost = self.fatigued_osts[k] as usize;
            if self.ost_occ[ost] as usize >= self.cfg.fatigue_threshold {
                self.fatigue[ost] = 1.0 - (1.0 - self.fatigue[ost]) * up;
                k += 1;
            } else {
                let f = self.fatigue[ost] * down;
                if f < FATIGUE_SNAP {
                    self.fatigue[ost] = 0.0;
                    self.fatigued_osts.swap_remove(k);
                    self.fatigued_pos[ost] = 0;
                    if let Some(&moved) = self.fatigued_osts.get(k) {
                        self.fatigued_pos[moved as usize] = k as u32 + 1;
                    }
                } else {
                    self.fatigue[ost] = f;
                    k += 1;
                }
            }
        }
        // Pass 2: pressured OSTs not yet on the fatigued list start
        // accumulating. Pressure requires occupancy (`validate` keeps the
        // threshold ≥ 1), so the occupied list covers every candidate.
        for k in 0..self.occupied_osts.len() {
            let ost = self.occupied_osts[k] as usize;
            if self.ost_occ[ost] as usize >= self.cfg.fatigue_threshold
                && self.fatigued_pos[ost] == 0
            {
                self.fatigue[ost] = 1.0 - (1.0 - self.fatigue[ost]) * up;
                if self.fatigue[ost] > 0.0 {
                    self.fatigued_pos[ost] = self.fatigued_osts.len() as u32 + 1;
                    self.fatigued_osts.push(ost as u32);
                }
            }
        }
    }

    /// Current fatigue level of each OST (diagnostics/tests).
    pub fn ost_fatigue(&self) -> &[f64] {
        &self.fatigue
    }

    /// Aggregate allocated rate right now, bytes/s.
    pub fn total_throughput_bps(&self) -> f64 {
        self.debug_assert_solved();
        self.streams
            .iter()
            .map(|s| s.rate_bps)
            .sum::<f64>()
            .max(0.0)
    }

    /// Number of active streams.
    pub fn active_stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Ground-truth bytes written since construction.
    pub fn bytes_written_total(&self) -> f64 {
        self.bytes_written_total
    }

    /// Rates are read: no solve may be owed.
    #[inline]
    fn debug_assert_solved(&self) {
        debug_assert!(!self.solve_owed, "rates read while a solve is owed");
    }

    /// Fill `out` with a snapshot of current load for the monitoring
    /// substrate, reusing its buffers.
    /// A sampler that keeps one `FsSnapshot` across ticks performs no
    /// allocations here once the vectors have grown to working size.
    pub fn snapshot_into(&self, out: &mut FsSnapshot) {
        self.debug_assert_solved();
        out.total_bps = 0.0;
        out.per_tag_bps.clear();
        for s in &self.streams {
            out.total_bps += s.rate_bps;
            out.per_tag_bps.push((s.tag, s.rate_bps));
        }
        out.per_tag_bps.sort_unstable_by_key(|&(t, _)| t);
        coalesce_sorted(&mut out.per_tag_bps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{max_min_fair, Constraint};
    use iosched_simkit::units::{gib, gibps};
    use iosched_simkit::{prop_assert, props};

    fn quiet_cfg() -> LustreConfig {
        LustreConfig::stria().noiseless()
    }

    fn sim(cfg: LustreConfig) -> LustreSim {
        LustreSim::new(cfg, SimRng::from_seed(1234))
    }

    impl LustreSim {
        /// Number of active streams per OST.
        fn ost_occupancy(&self) -> Vec<usize> {
            self.ost_occ.iter().map(|&c| c as usize).collect()
        }
    }

    /// Every completed stream harvested so far.
    fn harvest(fs: &mut LustreSim) -> Vec<(SimTime, StreamId, StreamState)> {
        let mut out = Vec::new();
        fs.take_completed_into(&mut out);
        out
    }

    /// Every release notification harvested so far.
    fn releases(fs: &mut LustreSim) -> Vec<(SimTime, StreamId, StreamTag)> {
        let mut out = Vec::new();
        fs.take_notified_into(&mut out);
        out
    }

    fn snap(fs: &LustreSim) -> FsSnapshot {
        let mut out = FsSnapshot::default();
        fs.snapshot_into(&mut out);
        out
    }

    #[test]
    fn indexed_noise_is_deterministic_and_active() {
        // Indexed mode: lazy counter-based draws. Two identical runs must
        // agree exactly; a different seed must diverge (noise is live);
        // and the noise factor must actually change across epochs.
        let mut cfg = LustreConfig::stria();
        cfg.noise_mode = NoiseMode::Indexed;
        let run = |seed: u64| {
            let mut fs = LustreSim::new(cfg.clone(), SimRng::from_seed(seed));
            // Enough threads that OST capacity (the noisy quantity) binds
            // rather than the per-stream cap.
            fs.start_write(SimTime::ZERO, StreamTag(1), 0, 48, gib(400.0));
            let mut rates = Vec::new();
            // Step across several 10 s noise epochs.
            for s in 1..=6 {
                fs.advance_to(SimTime::from_secs(10 * s));
                rates.push(fs.total_throughput_bps().to_bits());
            }
            rates
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must reproduce exactly");
        assert_ne!(a, run(8), "different seed must perturb the rates");
        let distinct: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert!(distinct.len() > 1, "noise must vary across epochs");
    }

    #[test]
    fn single_stream_rate_is_min_of_caps() {
        let cfg = quiet_cfg();
        let expected = cfg.stream_cap_bps.min(cfg.ost_bandwidth_bps);
        let mut fs = sim(cfg);
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 1, gib(10.0));
        assert!((fs.total_throughput_bps() - expected).abs() < 1.0);
    }

    #[test]
    fn single_stream_completes_at_exact_time() {
        let cfg = quiet_cfg();
        let mut fs = sim(cfg.clone());
        let bytes = gib(1.0);
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 1, bytes);
        let rate = cfg.stream_cap_bps.min(cfg.ost_bandwidth_bps);
        let expect_secs = bytes / rate;
        let t = fs.next_change_time().unwrap();
        assert!((t.as_secs_f64() - expect_secs).abs() < 0.01, "{t}");
        fs.advance_to(t);
        let done = harvest(&mut fs);
        assert_eq!(done.len(), 1);
        assert_eq!(fs.active_stream_count(), 0);
        assert!(fs.next_change_time().is_none());
    }

    #[test]
    fn node_cap_limits_many_threads_on_one_node() {
        let mut cfg = quiet_cfg();
        cfg.node_cap_bps = gibps(2.0);
        cfg.stream_cap_bps = gibps(1.0);
        let mut fs = sim(cfg);
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 8, gib(10.0));
        let total = fs.total_throughput_bps();
        assert!(total <= gibps(2.0) + 1.0, "node cap violated: {total}");
    }

    #[test]
    fn fabric_cap_limits_aggregate() {
        let mut cfg = quiet_cfg();
        cfg.fabric_cap_bps = gibps(5.0);
        cfg.node_cap_bps = gibps(100.0);
        let mut fs = sim(cfg);
        for node in 0..15 {
            fs.start_write(SimTime::ZERO, StreamTag(node as u64), node, 8, gib(10.0));
        }
        assert!(fs.total_throughput_bps() <= gibps(5.0) + 1.0);
    }

    #[test]
    fn aggregate_concave_in_concurrency() {
        // More concurrent jobs ⇒ higher aggregate, but with diminishing
        // returns (the paper's Fig. 4 shape).
        let mut totals = Vec::new();
        for k in [1usize, 2, 4, 8, 15] {
            let mut fs = sim(quiet_cfg());
            for node in 0..k {
                fs.start_write(SimTime::ZERO, StreamTag(node as u64), node, 8, gib(10.0));
            }
            totals.push(fs.total_throughput_bps());
        }
        for w in totals.windows(2) {
            assert!(w[1] >= w[0] * 0.95, "aggregate dropped sharply: {totals:?}");
        }
        // Diminishing increments: going 1→2 jobs gains more per job than
        // 8→15.
        let gain_low = totals[1] - totals[0];
        let gain_high = (totals[4] - totals[3]) / 7.0;
        assert!(gain_high < gain_low, "no concavity: {totals:?}");
    }

    #[test]
    fn interference_slows_shared_ost() {
        let mut cfg = quiet_cfg();
        cfg.n_ost = 1; // force everyone onto one OST
        cfg.interference_gamma = 1.0;
        cfg.stream_cap_bps = cfg.ost_bandwidth_bps; // cap must not mask it
        let mut fs = sim(cfg.clone());
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 1, gib(10.0));
        let solo = fs.total_throughput_bps();
        let mut fs = sim(cfg);
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 1, gib(10.0));
        fs.start_write(SimTime::ZERO, StreamTag(2), 1, 1, gib(10.0));
        let duo = fs.total_throughput_bps();
        assert!(
            duo < solo,
            "interference should reduce aggregate: {duo} vs {solo}"
        );
    }

    #[test]
    fn conservation_of_bytes() {
        let mut fs = sim(quiet_cfg());
        let total = gib(10.0) * 8.0 * 3.0;
        for node in 0..3 {
            fs.start_write(SimTime::ZERO, StreamTag(node as u64), node, 8, gib(10.0));
        }
        // Drive to completion.
        let mut guard = 0;
        while let Some(t) = fs.next_change_time() {
            fs.advance_to(t);
            guard += 1;
            assert!(guard < 10_000, "no convergence");
        }
        let done = harvest(&mut fs);
        assert_eq!(done.len(), 24);
        assert!(
            (fs.bytes_written_total() - total).abs() < total * 1e-9,
            "bytes written {} expected {}",
            fs.bytes_written_total(),
            total
        );
    }

    #[test]
    fn straggler_effect_under_oversubscription() {
        // A burst of 15 write×8 jobs finishes (per job) much more slowly
        // than an isolated job — the congestion mechanism behind the
        // paper's default-Slurm waste.
        let run = |k: usize| -> f64 {
            let mut fs = sim(quiet_cfg());
            for node in 0..k {
                fs.start_write(SimTime::ZERO, StreamTag(node as u64), node, 8, gib(10.0));
            }
            let mut last = SimTime::ZERO;
            while let Some(t) = fs.next_change_time() {
                fs.advance_to(t);
                last = t;
            }
            // completion of the last straggler
            let done = harvest(&mut fs);
            assert_eq!(done.len(), 8 * k);
            last.as_secs_f64()
        };
        let solo = run(1);
        let burst = run(15);
        assert!(
            burst > solo * 2.0,
            "expected heavy straggler inflation: solo {solo}s vs burst {burst}s"
        );
    }

    #[test]
    fn noise_changes_rates_at_epochs_deterministically() {
        let cfg = LustreConfig::stria(); // noise on
        let mut a = LustreSim::new(cfg.clone(), SimRng::from_seed(7));
        let mut b = LustreSim::new(cfg, SimRng::from_seed(7));
        for fsim in [&mut a, &mut b] {
            fsim.start_write(SimTime::ZERO, StreamTag(1), 0, 8, gib(100.0));
        }
        let t = SimTime::from_secs(35);
        a.advance_to(t);
        b.advance_to(t);
        assert_eq!(
            a.total_throughput_bps().to_bits(),
            b.total_throughput_bps().to_bits()
        );
        assert!((a.bytes_written_total() - b.bytes_written_total()).abs() < 1e-6);
    }

    #[test]
    fn cancel_tag_removes_streams() {
        let mut fs = sim(quiet_cfg());
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 4, gib(10.0));
        fs.start_write(SimTime::ZERO, StreamTag(2), 1, 4, gib(10.0));
        assert_eq!(fs.cancel_tag(SimTime::from_secs(1), StreamTag(1)), 4);
        assert_eq!(fs.active_stream_count(), 4);
        let tags: Vec<StreamTag> = snap(&fs).per_tag_bps.iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, [StreamTag(2)]);
    }

    #[test]
    fn snapshot_aggregates_match() {
        let mut fs = sim(quiet_cfg());
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 4, gib(10.0));
        fs.start_write(SimTime::ZERO, StreamTag(2), 1, 4, gib(10.0));
        let snap = snap(&fs);
        let per_tag: f64 = snap.per_tag_bps.iter().map(|&(_, v)| v).sum();
        assert!((snap.total_bps - per_tag).abs() < 1e-6);
        assert_eq!(fs.ost_occupancy().iter().sum::<usize>(), 8);
        // Breakdown keys are unique and sorted.
        assert_eq!(snap.per_tag_bps.len(), 2);
        // Buffer reuse fills the same values.
        let mut reused = FsSnapshot::default();
        fs.snapshot_into(&mut reused);
        assert_eq!(reused.per_tag_bps, snap.per_tag_bps);
    }

    #[test]
    fn stalled_streams_repoll_instead_of_wedging() {
        // Regression: with noise epochs disabled, an OST whose capacity
        // drops to 0 under its only stream used to make
        // `next_change_time` report `FAR_FUTURE` while the stream stayed
        // active — the host loop wedged forever. `validate` admits no
        // zero-capacity OST, so the capacity is zeroed after construction.
        let mut cfg = quiet_cfg().without_fatigue(); // no epoch ticks at all
        cfg.n_ost = 1;
        let bandwidth = cfg.ost_bandwidth_bps;
        let mut fs = sim(cfg);
        fs.start_write(SimTime::ZERO, StreamTag(1), 0, 1, gib(10.0));
        fs.advance_to(SimTime::from_secs(1));
        fs.cfg.ost_bandwidth_bps = 0.0;
        fs.recompute_rates();
        assert_eq!(fs.total_throughput_bps(), 0.0);
        let t = fs.next_change_time().expect("stream still active");
        assert!(
            t > fs.now() && t <= fs.now() + SimDuration::from_secs(2),
            "expected a bounded re-poll time, got {t}"
        );
        // Advancing there makes no progress but keeps the loop live.
        fs.advance_to(t);
        assert_eq!(fs.active_stream_count(), 1);
        // Restoring the capacity lets the stream drain to completion.
        fs.advance_to(fs.now() + SimDuration::from_secs(1));
        fs.cfg.ost_bandwidth_bps = bandwidth;
        fs.recompute_rates();
        let mut done = 0;
        let mut guard = 0;
        while let Some(t) = fs.next_change_time() {
            fs.advance_to(t);
            done += harvest(&mut fs).len();
            guard += 1;
            assert!(guard < 100, "no progress after capacity restore");
        }
        assert_eq!(done, 1);
    }

    #[test]
    fn buffered_write_releases_early_and_keeps_draining() {
        let cfg = quiet_cfg();
        let mut fs = sim(cfg);
        // 10 GiB per thread, 8 GiB buffered: release when 8 GiB remain.
        fs.push_write_on_nodes(SimTime::ZERO, StreamTag(1), &[0], 1, gib(10.0), gib(8.0));
        fs.solve_rates();
        // Nothing released yet.
        assert!(releases(&mut fs).is_empty());
        // After ~2 GiB at 0.45 GiB/s ≈ 4.5 s, the release fires.
        let mut notified_at = None;
        let mut completed_at = None;
        while let Some(t) = fs.next_change_time() {
            fs.advance_to(t);
            for (nt, _, tag) in releases(&mut fs) {
                assert_eq!(tag, StreamTag(1));
                notified_at = Some(nt);
            }
            for (ct, _, _) in harvest(&mut fs) {
                completed_at = Some(ct);
            }
            if completed_at.is_some() {
                break;
            }
        }
        let notified_at = notified_at.expect("release fired").as_secs_f64();
        let completed_at = completed_at.expect("drain completed").as_secs_f64();
        assert!(
            (notified_at - 2.0 / 0.45).abs() < 0.1,
            "released at {notified_at}"
        );
        assert!(
            (completed_at - 10.0 / 0.45).abs() < 0.1,
            "drained at {completed_at}"
        );
    }

    #[test]
    fn fully_buffered_write_releases_immediately() {
        let mut fs = sim(quiet_cfg());
        fs.push_write_on_nodes(SimTime::ZERO, StreamTag(2), &[0], 4, gib(1.0), gib(5.0));
        fs.solve_rates();
        let notes = releases(&mut fs);
        assert_eq!(notes.len(), 4);
        assert!(notes.iter().all(|&(t, _, _)| t == SimTime::ZERO));
        // Streams still drain.
        assert_eq!(fs.active_stream_count(), 4);
    }

    #[test]
    #[should_panic]
    fn time_cannot_go_backwards() {
        let mut fs = sim(quiet_cfg());
        fs.advance_to(SimTime::from_secs(10));
        fs.advance_to(SimTime::from_secs(5));
    }

    /// `max_min_fair` over the model's constraint encoding, rebuilt from
    /// the stream slab alone: one cap per occupied node, one per occupied
    /// OST (capacity from `ost_capacity_bps` at the slab's own occupancy
    /// count), the fabric cap over every stream, and the per-stream cap as
    /// one singleton constraint per stream.
    fn reference_rates(fs: &LustreSim) -> Vec<f64> {
        let n = fs.streams.len();
        let group = |key: &dyn Fn(&StreamState) -> usize, k: usize| -> Vec<usize> {
            (0..n).filter(|&i| key(&fs.streams[i]) == k).collect()
        };
        let mut constraints = Vec::new();
        for node in 0..fs.node_occ.len() {
            let members = group(&|s| s.node, node);
            if !members.is_empty() {
                constraints.push(Constraint {
                    capacity: fs.cfg.node_cap_bps,
                    members,
                });
            }
        }
        for ost in 0..fs.cfg.n_ost {
            let members = group(&|s| s.ost, ost);
            if !members.is_empty() {
                constraints.push(Constraint {
                    capacity: fs.ost_capacity_bps(ost, members.len()),
                    members,
                });
            }
        }
        constraints.push(Constraint {
            capacity: fs.cfg.fabric_cap_bps,
            members: (0..n).collect(),
        });
        constraints.extend((0..n).map(|i| Constraint {
            capacity: fs.cfg.stream_cap_bps,
            members: vec![i],
        }));
        max_min_fair(n, &constraints)
    }

    /// `list` holds exactly the OSTs with `member(ost)`, and `pos` maps
    /// each listed OST to its slot + 1 (0 for unlisted ones).
    fn check_ost_list(
        name: &str,
        list: &[u32],
        pos: &[u32],
        member: impl Fn(usize) -> bool,
    ) -> Result<(), String> {
        let members = (0..pos.len()).filter(|&ost| member(ost)).count();
        prop_assert!(
            list.len() == members,
            "{name}: {list:?} lists {} OSTs, {members} qualify",
            list.len()
        );
        for (ost, &p) in pos.iter().enumerate() {
            let slot_ok = if member(ost) {
                p > 0 && list.get(p as usize - 1) == Some(&(ost as u32))
            } else {
                p == 0
            };
            prop_assert!(
                slot_ok,
                "{name}: OST {ost} (member: {}) has slot {p} in {list:?}",
                member(ost)
            );
        }
        Ok(())
    }

    /// One random file-system operation at or after the model's clock.
    fn random_op(fs: &mut LustreSim, rng: &mut SimRng, tags: &mut u64) {
        let t = fs.now() + SimDuration::from_millis(rng.index(3) as u64 * 700);
        let nodes: Vec<usize> = (0..1 + rng.index(3)).map(|_| rng.index(12)).collect();
        let threads = 1 + rng.index(3);
        let bytes = gib(rng.uniform_range(0.2, 6.0));
        match rng.index(6) {
            0 => {
                *tags += 1;
                fs.start_write(t, StreamTag(*tags), nodes[0], threads, bytes);
            }
            1 | 2 => {
                *tags += 1;
                let release = bytes * rng.uniform_range(0.0, 1.2);
                fs.push_write_on_nodes(t, StreamTag(*tags), &nodes, threads, bytes, release);
                fs.solve_rates();
            }
            3 | 4 => {
                // Up to 25 s: often across one or two noise epochs.
                fs.advance_to(fs.now() + SimDuration::from_millis(1 + rng.index(25_000) as u64));
                harvest(fs);
                releases(fs);
            }
            _ => {
                fs.cancel_tag(t, StreamTag(1 + rng.index(*tags as usize + 1) as u64));
            }
        }
    }

    /// FNV-1a over every active stream's id and rate bits, in slab order.
    fn rate_digest(fs: &LustreSim, mut h: u64) -> u64 {
        for (id, s) in fs.stream_ids.iter().zip(&fs.streams) {
            for word in [id.0, s.rate_bps.to_bits()] {
                for byte in word.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        h
    }

    #[test]
    fn stria_noise_and_fatigue_rates_are_pinned() {
        // A scripted run on the testbed model with sequential noise and
        // fatigue on, driven in 1 s ticks like the engine. It covers
        // streams starting mid-epoch, OSTs freed and re-occupied within
        // one epoch, an idle epoch, and OSTs first occupied mid-epoch
        // after it. Each epoch's entry folds the rates after every tick
        // within it; the values were recorded from the eager per-epoch
        // resample and must not move.
        const EXPECT: [u64; 8] = [
            0xbb8a_503a_ff69_b47d,
            0xa2b7_3c19_bfbd_df2c,
            0xdd4f_7a76_0753_df15,
            0xedb4_4d27_a706_1db5,
            0xcbf2_9ce4_8422_2325, // idle: the digest's seed
            0xdf60_5baf_ed79_7f1d,
            0x300a_c7ac_fd16_ecf8,
            0x05a1_13ae_b805_ce4d,
        ];
        let ms = SimTime::from_millis;
        let mut fs = LustreSim::new(LustreConfig::stria(), SimRng::from_seed(2024));
        let mut digests = [0xCBF2_9CE4_8422_2325u64; 8];
        let mut freed_then_reoccupied = 0usize;
        for sec in 1..80u64 {
            let t = SimTime::from_secs(sec);
            let start = ms(sec * 1000 - 500);
            match sec {
                4 => {
                    fs.start_write(start, StreamTag(1), 0, 8, gib(40.0));
                    fs.start_write(ms(3_700), StreamTag(2), 1, 8, gib(60.0));
                }
                8 => {
                    fs.start_write(start, StreamTag(3), 2, 12, gib(80.0));
                }
                13 => {
                    let before = fs.ost_occupancy();
                    fs.cancel_tag(start, StreamTag(2));
                    let freed: Vec<usize> = (0..before.len())
                        .filter(|&o| before[o] > 0 && fs.ost_occupancy()[o] == 0)
                        .collect();
                    fs.start_write(ms(12_800), StreamTag(4), 3, 16, gib(50.0));
                    let after = fs.ost_occupancy();
                    freed_then_reoccupied = freed.iter().filter(|&&o| after[o] > 0).count();
                }
                32 => {
                    for tag in 1..=4 {
                        fs.cancel_tag(start, StreamTag(tag));
                    }
                }
                54 => {
                    fs.start_write(start, StreamTag(5), 4, 12, gib(30.0));
                }
                63 => {
                    fs.start_write(start, StreamTag(6), 5, 6, gib(20.0));
                }
                _ => {}
            }
            fs.advance_to(t);
            harvest(&mut fs);
            let epoch = sec as usize / 10;
            digests[epoch] = rate_digest(&fs, digests[epoch]);
        }
        assert!(
            freed_then_reoccupied > 0,
            "no OST was freed and re-occupied"
        );
        assert!(fs.active_stream_count() > 0);
        assert_eq!(digests, EXPECT, "{digests:#x?}");
    }

    /// Every value a snapshot holds, floats as bits.
    type SnapBits = (u64, Vec<(StreamTag, u64)>);

    fn snap_bits(fs: &LustreSim) -> SnapBits {
        let s = snap(fs);
        let tags = s.per_tag_bps.iter().map(|&(t, r)| (t, r.to_bits()));
        (s.total_bps.to_bits(), tags.collect())
    }

    props! {
        #![cases(64)]
        /// The snapshot key: after every operation of a random sequence
        /// (`random_op`'s starts, buffered writes, advances across
        /// noise epochs and cancels, plus sub-second ticks, cancels of a
        /// live job, and stalls at zero OST capacity and their release),
        /// an unchanged `rates_generation` means a bit-identical snapshot.
        fn prop_unchanged_generation_means_identical_snapshot(seed in 0u64..u64::MAX) {
            let mut rng = SimRng::from_seed(seed);
            let mut fs = LustreSim::new(LustreConfig::stria(), rng.fork(1));
            let bandwidth = fs.cfg.ost_bandwidth_bps;
            let mut tags = 0u64;
            let mut kept = (fs.rates_generation(), snap_bits(&fs));
            for op in 0..160 {
                match rng.index(5) {
                    0 | 1 => random_op(&mut fs, &mut rng, &mut tags),
                    2 => {
                        fs.advance_to(fs.now() + SimDuration::from_millis(1 + rng.index(1_000) as u64));
                        harvest(&mut fs);
                        releases(&mut fs);
                    }
                    3 if !fs.streams.is_empty() => {
                        let tag = fs.streams[rng.index(fs.streams.len())].tag;
                        fs.cancel_tag(fs.now(), tag);
                    }
                    _ => {
                        fs.cfg.ost_bandwidth_bps =
                            if fs.cfg.ost_bandwidth_bps == 0.0 { bandwidth } else { 0.0 };
                        fs.recompute_rates();
                    }
                }
                let now = (fs.rates_generation(), snap_bits(&fs));
                prop_assert!(
                    now.0 != kept.0 || now.1 == kept.1,
                    "op {op}: generation {} kept, snapshot {:?} became {:?}",
                    now.0,
                    kept.1,
                    now.1
                );
                kept = now;
            }
        }

        /// The warm solve agrees with the reference encoding after every
        /// operation of a random sequence (writes, buffered writes,
        /// advances across noise epochs, cancels, node-slot growth), in
        /// both noise modes and with a fatigue
        /// threshold of 1, 2 or 3. The rates are compared right after a
        /// re-solve, since fatigue moves OST capacities between solves.
        /// Alongside: the occupied/fatigued OST lists match the occupancy
        /// and fatigue tables, and one sparse fatigue step matches the
        /// dense rule.
        fn prop_rates_match_reference_encoding(
            seed in 0u64..u64::MAX,
            mode in 0usize..6,
        ) {
            let mut cfg = LustreConfig::stria();
            cfg.n_ost = 6;
            cfg.noise_mode = [NoiseMode::Sequential, NoiseMode::Indexed][mode % 2];
            cfg.fatigue_threshold = 1 + mode / 2;
            let mut rng = SimRng::from_seed(seed);
            // Node and fabric caps that bind at a few streams, or not.
            cfg.node_cap_bps = gibps([0.7, 1.5, 5.0][rng.index(3)]);
            cfg.fabric_cap_bps = gibps([2.0, 22.0][rng.index(2)]);
            let mut fs = LustreSim::new(cfg, rng.fork(1));
            let mut tags = 0u64;
            for op in 0..120 {
                random_op(&mut fs, &mut rng, &mut tags);

                // One direct sparse fatigue step against the dense rule.
                let dt = rng.uniform_range(0.001, 30.0);
                let up = (-dt / fs.cfg.fatigue_tau_up.as_secs_f64()).exp();
                let down = (-dt / fs.cfg.fatigue_tau_down.as_secs_f64()).exp();
                let dense: Vec<f64> = (0..fs.cfg.n_ost)
                    .map(|ost| {
                        let f = fs.fatigue[ost];
                        if fs.ost_occ[ost] as usize >= fs.cfg.fatigue_threshold {
                            1.0 - (1.0 - f) * up
                        } else {
                            f * down
                        }
                    })
                    .collect();
                fs.update_fatigue(dt);
                for (ost, (&sparse, &want)) in fs.fatigue.iter().zip(&dense).enumerate() {
                    prop_assert!(
                        sparse.to_bits() == want.to_bits() || (sparse == 0.0 && want < FATIGUE_SNAP),
                        "op {op}: OST {ost} fatigue {sparse:e} vs dense {want:e}"
                    );
                }

                fs.recompute_rates();
                let expect = reference_rates(&fs);
                for (i, s) in fs.streams.iter().enumerate() {
                    let tol = 1e-9 * expect[i].abs().max(1.0);
                    prop_assert!(
                        (s.rate_bps - expect[i]).abs() <= tol,
                        "op {op}: stream {i} rate {} vs reference {}",
                        s.rate_bps,
                        expect[i]
                    );
                }
                check_ost_list("occupied", &fs.occupied_osts, &fs.occupied_pos, |ost| {
                    fs.ost_occ[ost] > 0
                })?;
                check_ost_list("fatigued", &fs.fatigued_osts, &fs.fatigued_pos, |ost| {
                    fs.fatigue[ost] > 0.0
                })?;
                for ost in 0..fs.cfg.n_ost {
                    let occ = fs.streams.iter().filter(|s| s.ost == ost).count();
                    prop_assert!(fs.ost_occ[ost] as usize == occ, "op {op}: OST {ost} occupancy");
                    prop_assert!(
                        occ == 0 || fs.noise_gen[ost] == fs.noise_epoch_idx,
                        "op {op}: occupied OST {ost} has a stale noise factor"
                    );
                }
            }
        }
    }
}
