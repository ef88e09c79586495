//! Piecewise-constant resource reservation profiles.
//!
//! A [`ResourceProfile`] is the data structure behind every reservation
//! tracker in the system: Slurm's node tracker (`NT`), the I/O-aware
//! Lustre-throughput tracker (`LT`, paper Algorithm 2) and the adjusted
//! throughput tracker of the workload-adaptive scheduler (`AT`, paper
//! Algorithm 5). It stores the total reserved amount as a step function of
//! time and answers the two queries backfill needs:
//!
//! * [`ResourceProfile::reserve`] — add `amount` over `[start, end)`;
//! * [`ResourceProfile::earliest_fit`] — the earliest time `t ≥ from` such
//!   that an extra `amount` fits under the capacity for a whole window
//!   `[t, t + dur)` (the inner step of `EarliestStartTime`).
//!
//! # Quanta and the rounding rule
//!
//! Amounts are exact `i64` quanta — 1 node, 1 license, 1 B/s — so every
//! sum is exact and independent of the order writes arrive in. Amounts
//! may be negative (the workload-adaptive AT tracker reserves
//! `r_j − n_j·r̄_zero`, which is negative for low-I/O running jobs), and
//! usage may dip below zero. Real-valued inputs enter through the one
//! rounding rule: capacities and thresholds round down ([`quanta_down`]),
//! reserved and probed amounts round up ([`quanta_up`]). A plan that fits
//! in quanta therefore fits in real units, and no comparison needs a
//! tolerance. Both saturate at [`MAX_QUANTA`].
//!
//! The AT tracker is the one exception. Its amounts are differences
//! `r_j − n_j·r̄_zero`, and both terms round up before the subtraction, so
//! an AT amount may sit up to one quantum below its real value. The AT
//! gates regular jobs on a target, not on a limit, so it needs no
//! fits-in-real-units guarantee; rounding the difference up instead would
//! turn float noise in an exactly balanced load into one quantum per
//! running job and close the gate.
//!
//! # Writes
//!
//! * **Batched build** — [`ResourceProfile::stage`] +
//!   [`ResourceProfile::commit_staged`]: the round-start tracker build
//!   stages every running-set delta, then sorts and sums once.
//! * **Reserve** — while the query index is live, mid-round writes go to
//!   one short sorted list of `(instant, summed delta)` entries since the
//!   last fold; queries read the folded breakpoints ⊕ that list, and past
//!   `FOLD_LIMIT` entries it is folded in and the index rebuilt. With
//!   no live index there is nothing to keep in step, and a write updates
//!   its breakpoint in place.
//!
//! # Query index
//!
//! Queries descend a segment-tree index instead of sweeping breakpoints
//! linearly (see `ProfileIndex`): each `earliest_at_most` probe costs
//! O(log B) per usage flip instead of O(B). The linear sweep serves the
//! profiles the index does not cover; the test module's model checks
//! both paths (`prop_indexed_matches_model`). The index engages only where it can win, judged from the
//! profile's size and reads: profiles under `MIN_INDEXED` breakpoints
//! skip it (a short sweep beats the tree's fixed per-query cost), and a
//! rebuild waits until a query has read the profile since the last one,
//! so write-only bursts never pay for it.

use iosched_simkit::time::{SimDuration, SimTime};
use std::cell::Cell;

/// Largest magnitude of any capacity, amount or threshold, in quanta:
/// 2^48 (256 TiB/s as a bandwidth). The rounding helpers saturate here,
/// so an `i64` usage sum cannot overflow unless 2^15 full-magnitude
/// reservations overlap at one instant.
pub const MAX_QUANTA: i64 = 1 << 48;

/// [`MAX_QUANTA`] in real units: the largest capacity a profile holds
/// without `i64` overflow. Throughput limits are checked against it
/// where they enter the program.
pub const MAX_CAPACITY: f64 = MAX_QUANTA as f64;

/// Quanta a reserved or probed `amount` occupies: rounded up, saturated
/// at ±[`MAX_QUANTA`] (NaN is 0).
pub fn quanta_up(amount: f64) -> i64 {
    // `as` truncates toward zero; bumping the truncation when it fell
    // below the amount makes it the ceiling without a libm call (the
    // backfill hot path rounds every demand).
    let x = amount.clamp(-MAX_CAPACITY, MAX_CAPACITY);
    let t = x as i64;
    t + i64::from((t as f64) < x)
}

/// Quanta a capacity or threshold `amount` guarantees: rounded down,
/// saturated at ±[`MAX_QUANTA`] (NaN is 0).
pub fn quanta_down(amount: f64) -> i64 {
    let x = amount.clamp(-MAX_CAPACITY, MAX_CAPACITY);
    let t = x as i64;
    t - i64::from((t as f64) > x)
}

thread_local! {
    /// Breakpoints advanced by linear [`ResourceProfile::earliest_at_most`]
    /// sweeps (dormant or stale profiles) on this thread.
    static SWEEP_STEPS: Cell<u64> = const { Cell::new(0) };
    /// Segment-tree nodes visited (plus gallop checks and pending-write
    /// hops) by indexed `earliest_at_most` probes on this thread.
    static TREE_DESCENTS: Cell<u64> = const { Cell::new(0) };
    /// Index maintenance work on this thread: one per write while the
    /// index is live, plus one per breakpoint folded by a rebuild.
    static TREE_UPDATES: Cell<u64> = const { Cell::new(0) };
}

/// Read and reset this thread's sweep-step counter (breakpoints walked by
/// linear `earliest_at_most` sweeps since the last call).
pub fn take_sweep_steps() -> u64 {
    SWEEP_STEPS.with(|c| c.replace(0))
}

/// Read and reset this thread's `(tree_descents, tree_updates)` counters:
/// segment-tree nodes visited by indexed `earliest_at_most` probes, and
/// index point-updates/rebuild breakpoints, since the last call.
pub fn take_tree_counters() -> (u64, u64) {
    (
        TREE_DESCENTS.with(|c| c.replace(0)),
        TREE_UPDATES.with(|c| c.replace(0)),
    )
}

/// Linear-prefix length each flip search tries before descending the
/// tree: near flips (the common case at a crowded backfill horizon) cost
/// what the sweep would, far flips pay one wasted prefix and then skip in
/// O(log B).
const GALLOP: usize = 8;

/// Breakpoint count below which the index stays dormant: a sweep over a
/// few dozen breakpoints beats the tree's fixed per-query cost, so small
/// profiles skip all index maintenance and queries take the linear path.
const MIN_INDEXED: usize = 64;

/// Pending-write count past which [`ResourceProfile::reserve`] folds the
/// list into the breakpoints and rebuilds the index. Every query walks
/// the pending writes in its range one at a time, so the list stays a
/// small constant, while the O(B) fold amortizes to a fraction of a
/// breakpoint per write.
const FOLD_LIMIT: usize = 16;

/// Segment-tree index over the folded breakpoints of a
/// [`ResourceProfile`].
///
/// The grid (`times`/`usage`) snapshots the cumulative usage at the last
/// fold; `tmax`/`tmin` are 1-indexed max/min segment trees over `usage`,
/// static between folds. Writes since the fold live in the profile's
/// pending list; queries add the matching pending prefix sum to the grid
/// usage, walking one pending window at a time with an O(log B) tree
/// descent per window.
#[derive(Clone, Debug)]
struct ProfileIndex {
    /// Breakpoint instants at the last rebuild, sorted.
    times: Vec<SimTime>,
    /// Cumulative usage after `times[j]`.
    usage: Vec<i64>,
    /// Max segment tree over `usage`: `cap` leaves at `tmax[cap..]`,
    /// padded with `i64::MIN`.
    tmax: Vec<i64>,
    /// Min segment tree over `usage`, padded with `i64::MAX`.
    tmin: Vec<i64>,
    /// Leaf count: `times.len()` rounded up to a power of two.
    cap: usize,
    /// The grid no longer reflects the folded breakpoints: the profile is
    /// under `MIN_INDEXED` breakpoints, or a fold ran with no query
    /// since the last rebuild. Queries sweep and writes go in place until
    /// the next rebuild.
    stale: bool,
    /// A query ran since the last rebuild (set from `&self`, hence the
    /// `Cell`). Rebuilds wait for it so write-only bursts never pay the
    /// O(B) rebuild; the first query after such a burst sweeps once and
    /// the next write rebuilds.
    query_seen: Cell<bool>,
}

impl Default for ProfileIndex {
    /// Starts stale: an empty profile is under `MIN_INDEXED`.
    fn default() -> Self {
        ProfileIndex {
            times: Vec::new(),
            usage: Vec::new(),
            tmax: Vec::new(),
            tmin: Vec::new(),
            cap: 0,
            stale: true,
            query_seen: Cell::new(false),
        }
    }
}

impl ProfileIndex {
    /// Rebuild the grid and both trees from the folded breakpoints.
    /// O(B) fold + O(B) tree build.
    fn rebuild(&mut self, deltas: &[(SimTime, i64)]) {
        self.times.clear();
        self.usage.clear();
        let mut acc = 0;
        for &(t, d) in deltas {
            acc += d;
            self.times.push(t);
            self.usage.push(acc);
        }
        let n = self.times.len();
        self.cap = if n == 0 { 0 } else { n.next_power_of_two() };
        self.tmax.clear();
        self.tmax.resize(2 * self.cap, i64::MIN);
        self.tmin.clear();
        self.tmin.resize(2 * self.cap, i64::MAX);
        self.tmax[self.cap..self.cap + n].copy_from_slice(&self.usage);
        self.tmin[self.cap..self.cap + n].copy_from_slice(&self.usage);
        for i in (1..self.cap).rev() {
            self.tmax[i] = self.tmax[2 * i].max(self.tmax[2 * i + 1]);
            self.tmin[i] = self.tmin[2 * i].min(self.tmin[2 * i + 1]);
        }
        self.stale = false;
        self.query_seen.set(false);
        TREE_UPDATES.with(|c| c.set(c.get() + n as u64));
    }

    /// Grid usage just before grid position `k` (0 = before everything).
    fn gval(&self, k: usize) -> i64 {
        if k == 0 {
            0
        } else {
            self.usage[k - 1]
        }
    }

    /// First grid position in `[lo, hi)` whose usage satisfies the
    /// predicate (`above`: `> bound`, else `<= bound`), found by
    /// descending the matching tree; `None` when every position in range
    /// fails (often a single root visit).
    fn first_flip(
        &self,
        lo: usize,
        hi: usize,
        bound: i64,
        above: bool,
        steps: &mut u64,
    ) -> Option<usize> {
        if self.cap == 0 || lo >= hi {
            return None;
        }
        self.descend(1, 0, self.cap, lo, hi, bound, above, steps)
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        node: usize,
        nlo: usize,
        nhi: usize,
        lo: usize,
        hi: usize,
        bound: i64,
        above: bool,
        steps: &mut u64,
    ) -> Option<usize> {
        if nhi <= lo || hi <= nlo {
            return None;
        }
        *steps += 1;
        let enter = if above {
            self.tmax[node] > bound
        } else {
            self.tmin[node] <= bound
        };
        if !enter {
            return None;
        }
        if nhi - nlo == 1 {
            return Some(nlo);
        }
        let mid = (nlo + nhi) / 2;
        self.descend(2 * node, nlo, mid, lo, hi, bound, above, steps)
            .or_else(|| self.descend(2 * node + 1, mid, nhi, lo, hi, bound, above, steps))
    }
}

/// A step function of reserved amount over time, with a fixed capacity,
/// in quanta (see the module docs for the rounding rule).
///
/// The step function is `deltas ⊕ pending`: the folded breakpoints plus
/// the writes logged since the last fold, summed where instants coincide.
/// [`Self::reset`] retains all allocations so pooled profiles keep the
/// steady-state scheduling pass allocation-free.
#[derive(Clone, Debug)]
pub struct ResourceProfile {
    capacity: i64,
    /// Folded `(breakpoint, change of the reserved amount)`, sorted by
    /// time, one nonzero entry per instant.
    deltas: Vec<(SimTime, i64)>,
    /// Writes since the last fold while the index is live (empty while it
    /// is stale): `(instant, summed delta)`, sorted, one entry per
    /// instant (which may coincide with a `deltas` instant, and may sum
    /// to zero).
    pending: Vec<(SimTime, i64)>,
    /// Prefix sums of `pending` deltas: a probe past `k` pending instants
    /// adds `pending_off[k-1]` to the grid usage.
    pending_off: Vec<i64>,
    /// Staged entries awaiting [`Self::commit_staged`].
    staged: Vec<(SimTime, i64)>,
    /// Pooled target of fold merges.
    scratch: Vec<(SimTime, i64)>,
    /// Segment-tree query index; see [`ProfileIndex`].
    index: ProfileIndex,
}

impl Default for ResourceProfile {
    fn default() -> Self {
        ResourceProfile::new(0)
    }
}

impl ResourceProfile {
    /// Empty profile with the given capacity.
    pub fn new(capacity: i64) -> Self {
        ResourceProfile {
            capacity,
            deltas: Vec::new(),
            pending: Vec::new(),
            pending_off: Vec::new(),
            staged: Vec::new(),
            scratch: Vec::new(),
            index: ProfileIndex::default(),
        }
    }

    /// The capacity this profile enforces in [`Self::earliest_fit`].
    pub fn capacity(&self) -> i64 {
        self.capacity
    }

    /// Clear all reservations and set a new capacity, keeping the
    /// allocations for reuse.
    pub fn reset(&mut self, capacity: i64) {
        self.capacity = capacity;
        self.deltas.clear();
        self.pending.clear();
        self.pending_off.clear();
        self.staged.clear();
        self.index.stale = true;
        self.index.query_seen.set(false);
    }

    /// The step function's breakpoints in time order: `deltas ⊕ pending`,
    /// summed at shared instants.
    fn breakpoints(&self) -> Merge<'_> {
        Merge {
            a: &self.deltas,
            b: &self.pending,
            i: 0,
            j: 0,
        }
    }

    /// Add `d` at instant `t`. A live index logs it in the pending list
    /// and refreshes the prefix sums from the touched entry on,
    /// O(pending); with no index to keep in step, the breakpoint is
    /// written in place.
    fn write(&mut self, t: SimTime, d: i64) {
        if self.index.stale {
            match self.deltas.binary_search_by_key(&t, |e| e.0) {
                Ok(i) => {
                    self.deltas[i].1 += d;
                    if self.deltas[i].1 == 0 {
                        self.deltas.remove(i);
                    }
                }
                Err(i) => self.deltas.insert(i, (t, d)),
            }
            return;
        }
        let i = match self.pending.binary_search_by_key(&t, |e| e.0) {
            Ok(i) => {
                self.pending[i].1 += d;
                i
            }
            Err(i) => {
                self.pending.insert(i, (t, d));
                self.pending_off.push(0);
                i
            }
        };
        let mut acc = if i == 0 { 0 } else { self.pending_off[i - 1] };
        for k in i..self.pending.len() {
            acc += self.pending[k].1;
            self.pending_off[k] = acc;
        }
        TREE_UPDATES.with(|c| c.set(c.get() + 1));
    }

    /// Merge the pending list into the folded breakpoints, then rebuild
    /// the index if the profile is still large enough and a query has
    /// read it since the last rebuild; otherwise mark it stale.
    fn fold(&mut self) {
        let mut merged = std::mem::take(&mut self.scratch);
        merged.clear();
        merged.extend(self.breakpoints().filter(|e| e.1 != 0));
        self.scratch = std::mem::replace(&mut self.deltas, merged);
        self.pending.clear();
        self.pending_off.clear();
        if self.deltas.len() >= MIN_INDEXED && self.index.query_seen.get() {
            self.index.rebuild(&self.deltas);
        } else {
            self.index.stale = true;
        }
    }

    /// Reserve `amount` (may be negative) over `[start, end)`. Empty or
    /// inverted intervals are ignored.
    pub fn reserve(&mut self, amount: i64, start: SimTime, end: SimTime) {
        if end <= start || amount == 0 {
            return;
        }
        debug_assert!(self.staged.is_empty(), "commit_staged before reserving");
        self.write(start, amount);
        self.write(end, -amount);
        if self.index.stale {
            // Revive the index once the profile is large enough and a
            // query has read it: a write-only burst never rebuilds, and
            // the burst's first reader sweeps once instead.
            if self.deltas.len() >= MIN_INDEXED && self.index.query_seen.get() {
                self.index.rebuild(&self.deltas);
            }
        } else if self.pending.len() > FOLD_LIMIT
            || self.deltas.len() + self.pending.len() < MIN_INDEXED
        {
            self.fold();
        }
    }

    /// Stage `amount` over `[start, end)` for a batched build. Invisible
    /// to queries until [`Self::commit_staged`]; must only be used on a
    /// freshly [`Self::reset`] profile.
    pub fn stage(&mut self, amount: i64, start: SimTime, end: SimTime) {
        if end <= start || amount == 0 {
            return;
        }
        self.staged.push((start, amount));
        self.staged.push((end, -amount));
    }

    /// Sort and sum everything staged since [`Self::reset`] into the
    /// breakpoints: O(S log S) where one write per entry would be
    /// O(S·k). Instants whose deltas cancel are dropped. Rebuilds the
    /// query index once at the end.
    pub fn commit_staged(&mut self) {
        debug_assert!(
            self.deltas.is_empty() && self.pending.is_empty(),
            "commit_staged on a profile with committed reservations"
        );
        self.staged.sort_unstable_by_key(|e| e.0);
        for &(t, d) in &self.staged {
            match self.deltas.last_mut() {
                Some(last) if last.0 == t => last.1 += d,
                _ => self.deltas.push((t, d)),
            }
        }
        self.deltas.retain(|e| e.1 != 0);
        self.staged.clear();
        if self.deltas.len() >= MIN_INDEXED {
            self.index.rebuild(&self.deltas);
        } else {
            self.index.stale = true;
        }
    }

    /// Total reserved amount at time `t`.
    pub fn usage_at(&self, t: SimTime) -> i64 {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        self.breakpoints()
            .take_while(|&(bt, _)| bt <= t)
            .map(|(_, d)| d)
            .sum()
    }

    /// Maximum reserved amount over `[start, end)`; `usage_at(start)` if
    /// there are no breakpoints inside the window. Returns 0 for empty
    /// windows.
    pub fn max_over(&self, start: SimTime, end: SimTime) -> i64 {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        if end <= start {
            return 0;
        }
        let mut m = self.breakpoints().peekable();
        let mut usage = 0;
        while let Some((_, d)) = m.next_if(|&(bt, _)| bt <= start) {
            usage += d;
        }
        let mut max = usage;
        while let Some((_, d)) = m.next_if(|&(bt, _)| bt < end) {
            usage += d;
            max = max.max(usage);
        }
        max
    }

    /// Earliest `t ≥ from` such that the reserved amount stays at or below
    /// `threshold` throughout `[t, t + dur)`.
    ///
    /// A live index answers by flip search (see
    /// `earliest_at_most_indexed`); dormant and stale profiles sweep.
    ///
    /// Always terminates: after the last breakpoint the profile is
    /// constant (zero if all reservations have finite ends) — if even the
    /// tail usage exceeds the threshold, [`SimTime::FAR_FUTURE`] is
    /// returned.
    pub fn earliest_at_most(&self, from: SimTime, dur: SimDuration, threshold: i64) -> SimTime {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        let dur = dur.max(SimDuration::from_millis(1));
        self.index.query_seen.set(true);
        if self.index.stale {
            // Nothing is pending without a live index: sweep one slice.
            debug_assert!(self.pending.is_empty());
            let mut steps: u64 = 0;
            let result = sweep(
                self.deltas.iter().copied(),
                from,
                dur,
                threshold,
                &mut steps,
            );
            SWEEP_STEPS.with(|c| c.set(c.get() + steps));
            return result;
        }
        self.earliest_at_most_indexed(from, dur, threshold)
    }

    /// Pending prefix sum once `k` pending instants lie at or before the
    /// probe position.
    fn pval(&self, k: usize) -> i64 {
        if k == 0 {
            0
        } else {
            self.pending_off[k - 1]
        }
    }

    /// The indexed [`Self::earliest_at_most`] walk. `cand` tracks the
    /// start of the current run of fitting segments exactly like the
    /// sweep; each iteration jumps straight to the next usage flip via
    /// [`Self::next_flip`]. The good-state search is bounded by
    /// `cand + dur` — a flip at or past the window close can't matter —
    /// so fits-now probes cost O(log B) total.
    fn earliest_at_most_indexed(&self, from: SimTime, dur: SimDuration, limit: i64) -> SimTime {
        let mut steps: u64 = 0;
        let mut gi = self.index.times.partition_point(|&bt| bt <= from);
        let mut pi = self.pending.partition_point(|&(bt, _)| bt <= from);
        let mut cand = from;
        let mut good = self.index.gval(gi) + self.pval(pi) <= limit;
        let result = loop {
            if good {
                match self.next_flip(gi, pi, limit, true, Some(cand + dur), &mut steps) {
                    // No boundary above the limit before the window
                    // closes: `[cand, cand + dur)` fits.
                    None => break cand,
                    Some((_, ngi, npi)) => {
                        gi = ngi;
                        pi = npi;
                        good = false;
                    }
                }
            } else {
                match self.next_flip(gi, pi, limit, false, None, &mut steps) {
                    // Tail usage exceeds the threshold forever.
                    None => break SimTime::FAR_FUTURE,
                    Some((bt, ngi, npi)) => {
                        cand = bt;
                        gi = ngi;
                        pi = npi;
                        good = true;
                    }
                }
            }
        };
        TREE_DESCENTS.with(|c| c.set(c.get() + steps));
        result
    }

    /// First boundary strictly after the cursor `(gi, pi)` — and before
    /// `bound`, when given — at which the merged usage first satisfies
    /// the predicate (`above`: `> limit`, else `<= limit`). Walks one
    /// pending window at a time: a gallop prefix and a tree descent over
    /// the grid positions before the next pending instant, then the
    /// pending instant itself. Returns the flip time and the advanced
    /// cursor; `None` means no boundary before `bound` (or ever) flips.
    fn next_flip(
        &self,
        mut gi: usize,
        mut pi: usize,
        limit: i64,
        above: bool,
        bound: Option<SimTime>,
        steps: &mut u64,
    ) -> Option<(SimTime, usize, usize)> {
        let idx = &self.index;
        let sat = |u: i64| if above { u > limit } else { u <= limit };
        loop {
            let off = self.pval(pi);
            // Grid window before the next pending write (or the grid end).
            let (win_end, pt) = match self.pending.get(pi) {
                Some(&(pt, _)) => (
                    gi + idx.times[gi..].partition_point(|&bt| bt < pt),
                    Some(pt),
                ),
                None => (idx.times.len(), None),
            };
            let scan_end = match bound {
                Some(b) => gi + idx.times[gi..win_end].partition_point(|&bt| bt < b),
                None => win_end,
            };
            // Gallop: most flips sit within a few breakpoints of the
            // cursor (adjacent reservations at the backfill horizon), so
            // scan a short linear prefix — as cheap as the sweep there —
            // and only descend the tree for the long-range skips it wins.
            let gallop_end = scan_end.min(gi + GALLOP);
            while gi < gallop_end {
                *steps += 1;
                if sat(idx.usage[gi] + off) {
                    return Some((idx.times[gi], gi + 1, pi));
                }
                gi += 1;
            }
            // The trees compare against `limit - off`, so their padding
            // leaves never take part in an addition.
            if let Some(j) = idx.first_flip(gi, scan_end, limit - off, above, steps) {
                return Some((idx.times[j], j + 1, pi));
            }
            if scan_end < win_end {
                // Every boundary before `bound` keeps the current state.
                return None;
            }
            let pt = pt?;
            if bound.is_some_and(|b| pt >= b) {
                return None;
            }
            // Step over the pending write at `pt` (which may coincide
            // with a grid breakpoint).
            gi = if idx.times.get(win_end) == Some(&pt) {
                win_end + 1
            } else {
                win_end
            };
            pi += 1;
            *steps += 1;
            if sat(idx.gval(gi) + self.pval(pi)) {
                return Some((pt, gi, pi));
            }
        }
    }

    /// Earliest `t ≥ from` at which an additional `amount` fits under the
    /// capacity for the whole window `[t, t + dur)`.
    pub fn earliest_fit(&self, from: SimTime, dur: SimDuration, amount: i64) -> SimTime {
        self.earliest_at_most(from, dur, self.capacity - amount)
    }

    /// Breakpoints and cumulative usage, for diagnostics and tests.
    pub fn steps(&self) -> Vec<(SimTime, i64)> {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        let mut usage = 0;
        self.breakpoints()
            .filter(|e| e.1 != 0)
            .map(|(t, d)| {
                usage += d;
                (t, usage)
            })
            .collect()
    }
}

/// The [`ResourceProfile::earliest_at_most`] segment walk over a
/// time-ordered breakpoint stream: accumulate usage once left to right,
/// track the start of the current run of fitting segments, return as
/// soon as a run covers a full window.
fn sweep<I: Iterator<Item = (SimTime, i64)>>(
    iter: I,
    from: SimTime,
    dur: SimDuration,
    limit: i64,
    steps: &mut u64,
) -> SimTime {
    let mut m = iter.peekable();

    // Usage over the breakpoints at or before `from`.
    let mut usage = 0;
    while let Some((_, d)) = m.next_if(|&(bt, _)| bt <= from) {
        usage += d;
        *steps += 1;
    }

    // Walk the segments [seg_start, peek()) with constant `usage`.
    // `cand` is the earliest potential start: `from`, pushed to the
    // end of every violating segment encountered.
    let mut cand = from;
    loop {
        let seg_end = m.peek().map(|&(bt, _)| bt);
        if usage <= limit {
            // Fits through this whole segment; done if the window
            // [cand, cand + dur) closes before the segment does.
            match seg_end {
                Some(end) if cand + dur > end => {}
                _ => break cand, // covers the window (or tail: fits forever)
            }
        } else {
            match seg_end {
                Some(end) => cand = end,
                // Tail usage exceeds the threshold forever.
                None => break SimTime::FAR_FUTURE,
            }
        }
        usage += m.next().expect("peeked").1;
        *steps += 1;
    }
}

/// Two-way merge cursor over two sorted breakpoint lists: yields each
/// instant once in time order, with the deltas at an instant both lists
/// hold summed. An instant whose sum is zero is still yielded; it changes
/// no usage.
struct Merge<'a> {
    a: &'a [(SimTime, i64)],
    b: &'a [(SimTime, i64)],
    i: usize,
    j: usize,
}

impl Iterator for Merge<'_> {
    type Item = (SimTime, i64);

    fn next(&mut self) -> Option<(SimTime, i64)> {
        match (self.a.get(self.i), self.b.get(self.j)) {
            (Some(&ea), Some(&eb)) => {
                if ea.0 < eb.0 {
                    self.i += 1;
                    Some(ea)
                } else if eb.0 < ea.0 {
                    self.j += 1;
                    Some(eb)
                } else {
                    self.i += 1;
                    self.j += 1;
                    Some((ea.0, ea.1 + eb.1))
                }
            }
            (Some(&ea), None) => {
                self.i += 1;
                Some(ea)
            }
            (None, Some(&eb)) => {
                self.j += 1;
                Some(eb)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::{prop, prop_assert, prop_assert_eq, props};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// The naive reference model every property compares against: one
    /// `Vec::insert` per breakpoint, cancelled instants removed, and the
    /// O(k²) probe scan for `earliest_at_most`.
    #[derive(Default)]
    struct Model {
        deltas: Vec<(SimTime, i64)>,
    }

    impl Model {
        fn of(resv: &[(u64, u64, i64)]) -> Self {
            let mut m = Model::default();
            for &(s, len, a) in resv {
                m.reserve(a, t(s), t(s + len));
            }
            m
        }

        fn reserve(&mut self, a: i64, start: SimTime, end: SimTime) {
            if end > start && a != 0 {
                self.add(start, a);
                self.add(end, -a);
            }
        }

        fn add(&mut self, at: SimTime, a: i64) {
            match self.deltas.binary_search_by_key(&at, |e| e.0) {
                Ok(i) => {
                    self.deltas[i].1 += a;
                    if self.deltas[i].1 == 0 {
                        self.deltas.remove(i);
                    }
                }
                Err(i) => self.deltas.insert(i, (at, a)),
            }
        }

        fn steps(&self) -> Vec<(SimTime, i64)> {
            let mut usage = 0;
            self.deltas
                .iter()
                .map(|&(bt, a)| {
                    usage += a;
                    (bt, usage)
                })
                .collect()
        }

        fn usage_at(&self, at: SimTime) -> i64 {
            self.deltas.iter().filter(|e| e.0 <= at).map(|e| e.1).sum()
        }

        fn max_over(&self, start: SimTime, end: SimTime) -> i64 {
            let inside = self.deltas.iter().filter(|e| e.0 > start && e.0 < end);
            inside
                .map(|e| self.usage_at(e.0))
                .fold(self.usage_at(start), i64::max)
        }

        /// Probe `max_over` at `from` and after every breakpoint until a
        /// window fits.
        fn earliest_at_most(&self, from: SimTime, dur: SimDuration, threshold: i64) -> SimTime {
            let dur = dur.max(SimDuration::from_millis(1));
            let mut at = from;
            loop {
                if self.max_over(at, at + dur) <= threshold {
                    return at;
                }
                match self.deltas.iter().find(|e| e.0 > at) {
                    Some(e) => at = e.0,
                    None => return SimTime::FAR_FUTURE,
                }
            }
        }
    }

    #[test]
    fn usage_tracks_reservations() {
        let mut p = ResourceProfile::new(10);
        p.reserve(4, t(10), t(20));
        p.reserve(3, t(15), t(25));
        assert_eq!(p.usage_at(t(0)), 0);
        assert_eq!(p.usage_at(t(10)), 4);
        assert_eq!(p.usage_at(t(15)), 7);
        assert_eq!(p.usage_at(t(20)), 3);
        assert_eq!(p.usage_at(t(25)), 0);
    }

    #[test]
    fn max_over_windows() {
        let mut p = ResourceProfile::new(10);
        p.reserve(4, t(10), t(20));
        p.reserve(3, t(15), t(25));
        assert_eq!(p.max_over(t(0), t(10)), 0);
        assert_eq!(p.max_over(t(0), t(16)), 7);
        assert_eq!(p.max_over(t(12), t(14)), 4);
        assert_eq!(p.max_over(t(21), t(30)), 3);
        assert_eq!(p.max_over(t(5), t(5)), 0);
    }

    #[test]
    fn earliest_fit_simple() {
        let mut p = ResourceProfile::new(10);
        p.reserve(8, t(0), t(100));
        // 2 units fit immediately; 3 only after the block ends.
        assert_eq!(p.earliest_fit(t(0), d(10), 2), t(0));
        assert_eq!(p.earliest_fit(t(0), d(10), 3), t(100));
    }

    #[test]
    fn earliest_fit_finds_gap_large_enough() {
        let mut p = ResourceProfile::new(10);
        p.reserve(10, t(0), t(50));
        p.reserve(10, t(60), t(100));
        // A 10 s window fits exactly in the [50, 60) gap.
        assert_eq!(p.earliest_fit(t(0), d(10), 10), t(50));
        // A 20 s window does not; it must wait until t=100.
        assert_eq!(p.earliest_fit(t(0), d(20), 10), t(100));
    }

    #[test]
    fn earliest_fit_exact_capacity_boundary() {
        let mut p = ResourceProfile::new(quanta_down(10.5));
        p.reserve(quanta_up(5.2), t(0), t(100));
        // Capacity rounds down to 10 and the reservation up to 6: exactly
        // the remaining 4 quanta fit, and a real 4.0000001 rounds to 5.
        assert_eq!(p.earliest_fit(t(0), d(10), quanta_up(4.0)), t(0));
        assert_eq!(p.earliest_fit(t(0), d(10), quanta_up(4.0000001)), t(100));
    }

    #[test]
    fn rounding_rule_rounds_outward_and_saturates() {
        assert_eq!((quanta_up(2.1), quanta_down(2.9)), (3, 2));
        assert_eq!((quanta_up(-2.9), quanta_down(-2.1)), (-2, -3));
        assert_eq!((quanta_up(7.0), quanta_down(7.0)), (7, 7));
        assert_eq!(quanta_up(1e300), MAX_QUANTA);
        assert_eq!(quanta_down(-1e300), -MAX_QUANTA);
        assert_eq!((quanta_up(f64::NAN), quanta_down(f64::NAN)), (0, 0));
        assert_eq!((quanta_up(-0.5), quanta_down(0.5)), (0, 0));
    }

    #[test]
    fn earliest_at_most_threshold_query() {
        let mut p = ResourceProfile::new(100);
        p.reserve(5, t(0), t(30));
        p.reserve(5, t(10), t(20));
        // A 5 s window below threshold 8 fits immediately (usage 5 on
        // [0,10)); a 15 s window cannot avoid the [10,20) peak until t=20.
        assert_eq!(p.earliest_at_most(t(0), d(5), 8), t(0));
        assert_eq!(p.earliest_at_most(t(0), d(15), 8), t(20));
        // Threshold 5 with a 15 s window: t=20 works (usage 5 then 0).
        assert_eq!(p.earliest_at_most(t(0), d(15), 5), t(20));
        // Threshold 4: must wait for everything to end.
        assert_eq!(p.earliest_at_most(t(0), d(5), 4), t(30));
    }

    #[test]
    fn infeasible_returns_far_future() {
        let mut p = ResourceProfile::new(10);
        // Permanent overload: reservation to FAR_FUTURE.
        p.reserve(10, t(0), SimTime::FAR_FUTURE);
        assert_eq!(p.earliest_fit(t(0), d(10), 5), SimTime::FAR_FUTURE);
    }

    #[test]
    fn negative_amounts_lower_usage() {
        let mut p = ResourceProfile::new(10);
        p.reserve(8, t(0), t(100));
        p.reserve(-3, t(0), t(100));
        assert_eq!(p.usage_at(t(50)), 5);
        assert_eq!(p.earliest_fit(t(0), d(10), 5), t(0));
    }

    #[test]
    fn empty_and_inverted_intervals_ignored() {
        let mut p = ResourceProfile::new(10);
        p.reserve(5, t(10), t(10));
        p.reserve(5, t(20), t(10));
        assert!(p.steps().is_empty());
    }

    #[test]
    fn cancelled_deltas_leave_no_dead_breakpoints() {
        // +a then −a over the same interval cancels both breakpoints.
        let mut p = ResourceProfile::new(10);
        p.reserve(3, t(10), t(20));
        p.reserve(-3, t(10), t(20));
        assert!(p.steps().is_empty());

        // Abutting reservations of the same amount cancel the shared
        // instant: +2@0 −2@10 then +2@10 −2@20 leaves nothing at t=10.
        let mut p = ResourceProfile::new(10);
        p.reserve(2, t(0), t(10));
        p.reserve(2, t(10), t(20));
        assert!(p.steps().iter().all(|&(bt, _)| bt != t(10)));
        assert_eq!(p.usage_at(t(5)), 2);
        assert_eq!(p.usage_at(t(15)), 2);
        assert_eq!(p.usage_at(t(25)), 0);

        // Same cancellation through the batched path.
        let mut p = ResourceProfile::new(10);
        p.stage(2, t(0), t(10));
        p.stage(2, t(10), t(20));
        p.commit_staged();
        assert!(p.steps().iter().all(|&(bt, _)| bt != t(10)));
        assert_eq!(p.usage_at(t(15)), 2);

        // A reserve cancelling a committed breakpoint hides it too.
        p.reserve(-2, t(0), t(20));
        assert!(p.steps().is_empty());
    }

    #[test]
    fn batched_build_matches_reserve() {
        let mut a = ResourceProfile::new(10);
        let mut b = ResourceProfile::new(10);
        let resv = [(4, 10u64, 20u64), (3, 15, 25), (-1, 0, 40), (2, 15, 25)];
        for &(amt, s, e) in &resv {
            a.reserve(amt, t(s), t(e));
            b.stage(amt, t(s), t(e));
        }
        b.commit_staged();
        assert_eq!(a.steps(), b.steps());
        // Committed profiles accept further reservations.
        a.reserve(2, t(12), t(18));
        b.reserve(2, t(12), t(18));
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.earliest_fit(t(0), d(8), 3), b.earliest_fit(t(0), d(8), 3));
    }

    #[test]
    fn folds_preserve_queries() {
        // 40 committed reservations give the index 80 breakpoints; 20
        // read-interleaved reserves then log 40 writes, folding twice.
        let mut p = ResourceProfile::new(10);
        let mut model = Model::default();
        for k in 0..40u64 {
            p.stage(1, t(3 * k), t(3 * k + 100));
            model.reserve(1, t(3 * k), t(3 * k + 100));
        }
        p.commit_staged();
        for k in 0..20u64 {
            assert_eq!(p.earliest_at_most(t(k), d(5), 30), t(k));
            p.reserve(1, t(3 * k + 1), t(3 * k + 50));
            model.reserve(1, t(3 * k + 1), t(3 * k + 50));
            assert!(!p.index.stale && p.pending.len() <= FOLD_LIMIT);
        }
        assert_eq!(p.steps(), model.steps());
        for probe in 0..250u64 {
            assert_eq!(p.usage_at(t(probe)), model.usage_at(t(probe)));
        }
    }

    #[test]
    fn capacity_accessor_and_stacked_identical_intervals() {
        let mut p = ResourceProfile::new(7);
        assert_eq!(p.capacity(), 7);
        // Three reservations over the identical interval accumulate.
        for _ in 0..3 {
            p.reserve(2, t(5), t(10));
        }
        assert_eq!(p.usage_at(t(5)), 6);
        assert_eq!(p.usage_at(t(10)), 0);
        assert_eq!(p.steps().len(), 2);
        // 1 fits exactly at capacity; 2 does not until t=10.
        assert_eq!(p.earliest_fit(t(0), d(5), 1), t(0));
        assert_eq!(p.earliest_fit(t(5), d(2), 2), t(10));
    }

    #[test]
    fn earliest_fit_beyond_all_breakpoints_is_immediate() {
        let mut p = ResourceProfile::new(10);
        p.reserve(10, t(0), t(10));
        // Querying from far past the last breakpoint: free immediately.
        assert_eq!(p.earliest_fit(t(1000), d(50), 10), t(1000));
    }

    #[test]
    fn zero_duration_window_still_probes_an_instant() {
        let mut p = ResourceProfile::new(10);
        p.reserve(10, t(0), t(10));
        // dur = 0 behaves like a 1 ms window.
        assert_eq!(p.earliest_fit(t(0), SimDuration::ZERO, 1), t(10));
    }

    #[test]
    fn pending_overflow_rebuilds_index() {
        take_tree_counters();
        let mut p = ResourceProfile::new(1000);
        // Interleave writes and reads past MIN_INDEXED so the overflow
        // rebuilds actually fire (write-only bursts defer them). Start
        // and end instants never coincide (3k vs 3j + 10), so every
        // reserve adds two lasting breakpoints.
        let sweep_of = |p: &ResourceProfile, f: u64| sweep(p.breakpoints(), t(f), d(5), 3, &mut 0);
        for k in 0..200u64 {
            p.reserve(1, t(3 * k), t(3 * k + 10));
            assert_eq!(p.earliest_at_most(t(3 * k), d(5), 3), sweep_of(&p, 3 * k));
            assert!(p.pending.len() <= FOLD_LIMIT);
        }
        assert!(!p.index.stale, "a read-interleaved profile keeps its index");
        // Queries stay correct across rebuild boundaries.
        for f in 0..60u64 {
            assert_eq!(p.earliest_at_most(t(f), d(5), 3), sweep_of(&p, f));
        }
        let (descents, updates) = take_tree_counters();
        assert!(descents > 0, "indexed queries count tree descents");
        assert!(updates > 0, "writes and rebuilds count tree updates");
    }

    #[test]
    fn small_profiles_and_unread_bursts_skip_index_work() {
        // Below MIN_INDEXED the index stays dormant: queries sweep and
        // writes do no maintenance at all.
        take_tree_counters();
        let mut p = ResourceProfile::new(100);
        for k in 0..20u64 {
            p.reserve(1, t(k), t(k + 10));
        }
        let _ = p.earliest_at_most(t(0), d(5), 50);
        assert_eq!(take_tree_counters(), (0, 0));

        // A write-only burst past MIN_INDEXED defers every rebuild; the
        // burst's first reader sweeps once, and the next write rebuilds.
        let mut p = ResourceProfile::new(1000);
        for k in 0..200u64 {
            p.reserve(1, t(2 * k), t(2 * k + 1));
        }
        let (_, updates) = take_tree_counters();
        assert_eq!(updates, 0, "unread burst must not maintain the index");
        let q = p.earliest_at_most(t(0), d(5), 0);
        p.reserve(1, t(500), t(600));
        let (_, updates) = take_tree_counters();
        assert!(updates > 0, "first write after a read rebuilds");
        assert_eq!(p.earliest_at_most(t(0), d(5), 0), q);
    }

    #[test]
    fn reset_clears_reservations_and_swaps_capacity() {
        let mut p = ResourceProfile::new(10);
        p.reserve(4, t(0), t(10));
        p.reset(5);
        assert_eq!(p.capacity(), 5);
        assert!(p.steps().is_empty());
        assert_eq!(p.usage_at(t(5)), 0);
        p.reserve(2, t(0), t(10));
        assert_eq!(p.usage_at(t(5)), 2);
    }

    props! {
        /// The libm-free rounding helpers are a saturating `ceil` and
        /// `floor`.
        fn prop_rounding_matches_ceil_and_floor(
            x in -1e15f64..1e15,
            scale in 0i64..16,
        ) {
            let x = x / 10f64.powi(scale as i32);
            let saturate = |v: f64| v.clamp(-MAX_CAPACITY, MAX_CAPACITY) as i64;
            prop_assert_eq!(quanta_up(x), saturate(x.ceil()), "{x}");
            prop_assert_eq!(quanta_down(x), saturate(x.floor()), "{x}");
        }

        /// earliest_fit's result equals the model's, actually fits, and no
        /// earlier breakpoint-aligned candidate fits.
        fn prop_earliest_fit_correct(
            resv in prop::vec((0u64..50, 1u64..30, 500i64..5_000), 0..12),
            from in 0u64..40,
            dur in 1u64..20,
            amount in 500i64..6_000,
        ) {
            let cap = 10_000;
            let mut p = ResourceProfile::new(cap);
            for &(s, len, a) in &resv {
                p.reserve(a, t(s), t(s + len));
            }
            let got = p.earliest_fit(t(from), d(dur), amount);
            prop_assert_eq!(got, Model::of(&resv).earliest_at_most(t(from), d(dur), cap - amount));
            if got != SimTime::FAR_FUTURE {
                // It fits at `got`.
                prop_assert!(p.max_over(got, got + d(dur)) <= cap - amount);
                // No earlier candidate among {from} ∪ breakpoints fits.
                let mut candidates = vec![t(from)];
                candidates.extend(p.steps().iter().map(|&(bt, _)| bt));
                for c in candidates {
                    if c >= t(from) && c < got {
                        prop_assert!(
                            p.max_over(c, c + d(dur)) > cap - amount,
                            "earlier candidate {c} fits but earliest_fit returned {got}"
                        );
                    }
                }
            }
        }

        /// Usage is the sum of overlapping reservations at every probe
        /// point, and the window maximum matches the model's.
        fn prop_usage_matches_naive(
            resv in prop::vec((0u64..50, 1u64..30, -3_000i64..5_000), 0..12),
            probe in 0u64..100,
        ) {
            let mut p = ResourceProfile::new(10_000);
            let mut naive = 0;
            for &(s, len, a) in &resv {
                p.reserve(a, t(s), t(s + len));
                if probe >= s && probe < s + len {
                    naive += a;
                }
            }
            prop_assert_eq!(p.usage_at(t(probe)), naive);
            let model = Model::of(&resv);
            prop_assert_eq!(
                p.max_over(t(probe), t(probe + 10)),
                model.max_over(t(probe), t(probe + 10))
            );
        }

        /// The reserve path and the batched build store exactly the
        /// model's breakpoints and answer earliest_at_most exactly as its
        /// probe scan does. Runs under cfg(test), so release CI
        /// exercises the model too.
        fn prop_write_paths_match_model(
            resv in prop::vec((0u64..60, 1u64..30, -3_000i64..5_000), 0..24),
            from in 0u64..50,
            dur in 1u64..20,
            thr in 0i64..9_000,
        ) {
            let model = Model::of(&resv);
            let expected = model.earliest_at_most(t(from), d(dur), thr);
            let mut p = ResourceProfile::new(10_000);
            let mut b = ResourceProfile::new(10_000);
            for &(s, len, a) in &resv {
                p.reserve(a, t(s), t(s + len));
                b.stage(a, t(s), t(s + len));
            }
            b.commit_staged();
            prop_assert_eq!(p.steps(), model.steps(), "reserve path diverged from the model");
            prop_assert_eq!(b.steps(), model.steps(), "batched build diverged from the model");
            prop_assert_eq!(p.earliest_at_most(t(from), d(dur), thr), expected);
            prop_assert_eq!(b.earliest_at_most(t(from), d(dur), thr), expected);
        }

        /// Tree-indexed earliest_at_most equals the model under randomized
        /// interleaved stage/reserve churn — across fold and rebuild
        /// boundaries, negative amounts (AT-tracker profiles), and
        /// negative thresholds. Runs under cfg(test) so release CI
        /// exercises the comparison too.
        fn prop_indexed_matches_model(
            committed in prop::vec((0u64..600, 1u64..300, -3_000i64..5_000), 0..48),
            resv in prop::vec((0u64..600, 1u64..300, -3_000i64..5_000), 0..48),
            probes in prop::vec((0u64..900, 1u64..250, -1_000i64..9_000), 1..8),
        ) {
            let mut p = ResourceProfile::new(10_000);
            let mut model = Model::of(&committed);
            for &(s, len, a) in &committed {
                p.stage(a, t(s), t(s + len));
            }
            p.commit_staged();
            let mut probe_iter = probes.iter().cycle();
            for &(s, len, a) in &resv {
                p.reserve(a, t(s), t(s + len));
                model.reserve(a, t(s), t(s + len));
                let &(f, du, thr) = probe_iter.next().expect("cycle");
                prop_assert_eq!(
                    p.earliest_at_most(t(f), d(du), thr),
                    model.earliest_at_most(t(f), d(du), thr),
                    "probe diverged mid-churn (from {f}, dur {du}, thr {thr})"
                );
            }
            for &(f, du, thr) in &probes {
                prop_assert_eq!(
                    p.earliest_at_most(t(f), d(du), thr),
                    model.earliest_at_most(t(f), d(du), thr),
                    "probe diverged (from {f}, dur {du}, thr {thr})"
                );
            }
        }
    }
}
