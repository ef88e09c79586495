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
//! # Layout
//!
//! The step function is one sorted step array, `(instant, usage from
//! this instant on)`, in canonical form: one entry per instant where the
//! usage changes, none that repeats its predecessor's usage (usage
//! before the first entry is 0). This is the shape of Slurm's own
//! time-ordered `node_space` list. The instants and the usages are kept
//! in two parallel columns, so a reserve's range add and a probe's scan
//! each run over one dense `i64` slice.
//!
//! * **Batched build** — [`ResourceProfile::stage`] +
//!   [`ResourceProfile::commit_staged`]: the round-start tracker build
//!   stages every running-set delta, then sorts and prefix-sums once.
//! * **Reserve** splits the array at `start` and `end` (at most two
//!   inserts), adds the amount over the entries in between, and drops a
//!   boundary entry that no longer changes the usage.
//! * **Queries** binary-search to their first instant and scan forward.
//!
//! Backfill profiles hold a few hundred entries and most probes end
//! within a few dozen entries of where they start, so the scan beats any
//! index kept beside the array (DESIGN.md §3.7).

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
    /// Entries scanned forward by [`ResourceProfile::earliest_at_most`]
    /// on this thread.
    static SWEEP_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Read and reset this thread's sweep-step counter: entries scanned
/// forward by `earliest_at_most` probes (past the binary search to
/// `from`) since the last call.
pub fn take_sweep_steps() -> u64 {
    SWEEP_STEPS.with(|c| c.replace(0))
}

/// Always `(0, 0)`: the profiles keep no tree index any more. Kept only
/// for callers that still read the old `(tree_descents, tree_updates)`
/// pair; it goes when they do.
pub fn take_tree_counters() -> (u64, u64) {
    (0, 0)
}

/// A step function of reserved amount over time, with a fixed capacity,
/// in quanta (see the module docs for the layout and the rounding rule).
///
/// [`Self::reset`] retains all allocations so pooled profiles keep the
/// steady-state scheduling pass allocation-free.
#[derive(Clone, Debug)]
pub struct ResourceProfile {
    capacity: i64,
    /// Entry instants, strictly increasing.
    times: Vec<SimTime>,
    /// `usage[i]`: the reserved amount from `times[i]` on. Canonical: no
    /// entry repeats its predecessor's usage, and the first differs
    /// from 0.
    usage: Vec<i64>,
    /// Staged `(instant, delta)` entries awaiting [`Self::commit_staged`].
    staged: Vec<(SimTime, i64)>,
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
            times: Vec::new(),
            usage: Vec::new(),
            staged: Vec::new(),
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
        self.times.clear();
        self.usage.clear();
        self.staged.clear();
    }

    /// Usage just before entry `i` (0 before the first entry).
    fn usage_before(&self, i: usize) -> i64 {
        if i == 0 {
            0
        } else {
            self.usage[i - 1]
        }
    }

    /// Index of the first entry after `t`: the usage at `t` is
    /// `usage_before` of it.
    fn after(&self, t: SimTime) -> usize {
        self.times.partition_point(|&bt| bt <= t)
    }

    /// Index of the entry at `t`, searching from `lo`; inserts one that
    /// repeats the usage before `t` when there is none.
    fn split(&mut self, lo: usize, t: SimTime) -> usize {
        let i = lo + self.times[lo..].partition_point(|&bt| bt < t);
        if self.times.get(i) != Some(&t) {
            self.times.insert(i, t);
            self.usage.insert(i, self.usage_before(i));
        }
        i
    }

    /// Drop entry `i` when it repeats the usage before it.
    fn drop_if_redundant(&mut self, i: usize) {
        if self.usage[i] == self.usage_before(i) {
            self.times.remove(i);
            self.usage.remove(i);
        }
    }

    /// Reserve `amount` (may be negative) over `[start, end)`. Empty or
    /// inverted intervals are ignored.
    pub fn reserve(&mut self, amount: i64, start: SimTime, end: SimTime) {
        if end <= start || amount == 0 {
            return;
        }
        debug_assert!(self.staged.is_empty(), "commit_staged before reserving");
        let s = self.split(0, start);
        let e = self.split(s + 1, end);
        for u in &mut self.usage[s..e] {
            *u += amount;
        }
        // Only the two boundaries can now repeat their predecessor's
        // usage: the entries in between all moved by the same amount.
        self.drop_if_redundant(e);
        self.drop_if_redundant(s);
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

    /// Sort everything staged since [`Self::reset`] and prefix-sum it into
    /// the step array: O(S log S) where one reserve per entry would be
    /// O(S·B). Instants whose deltas cancel leave no entry.
    pub fn commit_staged(&mut self) {
        debug_assert!(
            self.times.is_empty(),
            "commit_staged on a profile with committed reservations"
        );
        self.staged.sort_unstable_by_key(|e| e.0);
        let mut usage = 0;
        for (k, &(t, d)) in self.staged.iter().enumerate() {
            usage += d;
            // Sum every delta at `t` before deciding on its entry.
            if self.staged.get(k + 1).is_some_and(|next| next.0 == t) {
                continue;
            }
            if usage != self.usage.last().copied().unwrap_or(0) {
                self.times.push(t);
                self.usage.push(usage);
            }
        }
        self.staged.clear();
    }

    /// Total reserved amount at time `t`.
    pub fn usage_at(&self, t: SimTime) -> i64 {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        self.usage_before(self.after(t))
    }

    /// Maximum reserved amount over `[start, end)`; `usage_at(start)` if
    /// there are no breakpoints inside the window. Returns 0 for empty
    /// windows.
    pub fn max_over(&self, start: SimTime, end: SimTime) -> i64 {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        if end <= start {
            return 0;
        }
        let i = self.after(start);
        let j = i + self.times[i..].partition_point(|&bt| bt < end);
        self.usage[i..j]
            .iter()
            .fold(self.usage_before(i), |max, &u| max.max(u))
    }

    /// Earliest `t ≥ from` such that the reserved amount stays at or below
    /// `threshold` throughout `[t, t + dur)`.
    ///
    /// Walks the segments from `from` on, alternating between skipping
    /// segments over the threshold (each pushes the candidate start to
    /// its end) and extending a run of fitting segments until it covers
    /// the window `[cand, cand + dur)`. Always terminates: after the last
    /// entry the profile is constant (zero if all reservations have
    /// finite ends) — if even the tail usage exceeds the threshold,
    /// [`SimTime::FAR_FUTURE`] is returned.
    pub fn earliest_at_most(&self, from: SimTime, dur: SimDuration, threshold: i64) -> SimTime {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        let dur = dur.max(SimDuration::from_millis(1));
        let first = self.after(from);
        let mut k = first;
        let mut usage = self.usage_before(k);
        let mut cand = from;
        let result = 'probe: loop {
            while usage > threshold {
                let Some(&t) = self.times.get(k) else {
                    // The tail usage exceeds the threshold forever.
                    break 'probe SimTime::FAR_FUTURE;
                };
                cand = t;
                usage = self.usage[k];
                k += 1;
            }
            let close = cand + dur;
            loop {
                match self.times.get(k) {
                    Some(&t) if t < close => {}
                    // The run of fitting segments covers the window (or
                    // reaches the tail, which fits forever).
                    _ => break 'probe cand,
                }
                usage = self.usage[k];
                k += 1;
                if usage > threshold {
                    break;
                }
            }
        };
        SWEEP_STEPS.with(|c| c.set(c.get() + (k - first) as u64));
        result
    }

    /// Earliest `t ≥ from` at which an additional `amount` fits under the
    /// capacity for the whole window `[t, t + dur)`.
    pub fn earliest_fit(&self, from: SimTime, dur: SimDuration, amount: i64) -> SimTime {
        self.earliest_at_most(from, dur, self.capacity - amount)
    }

    /// Breakpoints and the usage from each on, for diagnostics and tests.
    pub fn steps(&self) -> Vec<(SimTime, i64)> {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        self.times
            .iter()
            .copied()
            .zip(self.usage.iter().copied())
            .collect()
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
            let mut usage = self.usage_at(start);
            let mut max = usage;
            for e in self.deltas.iter().filter(|e| e.0 > start && e.0 < end) {
                usage += e.1;
                max = max.max(usage);
            }
            max
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
    }

    /// `steps` is in canonical form: strictly increasing instants, and no
    /// entry repeating its predecessor's usage (0 before the first).
    fn canonical(steps: &[(SimTime, i64)]) -> bool {
        let mut prev = (None, 0);
        steps.iter().all(|&(bt, u)| {
            let ok = prev.0.is_none_or(|p| p < bt) && u != prev.1;
            prev = (Some(bt), u);
            ok
        })
    }

    /// One generated write: raw start and length (scaled into the case's
    /// time span), amount, and a kind: 0 cancels an earlier
    /// reservation, 1 abuts the previous one, 2 rebuilds the profile
    /// through `stage`/`commit_staged` before writing, anything else is a
    /// plain reservation.
    type Write = (u64, u64, i64, u16);

    /// Replay `writes` into a profile and the model, mixing `reserve`
    /// with batched rebuilds, and require after every write that the step
    /// array equals the model's and is canonical. Every `probe_every`-th
    /// write (and after the last) the `probes` are compared with the
    /// model's `usage_at`, `max_over` and `earliest_at_most`.
    fn check_interleaving(
        span: u64,
        writes: &[Write],
        probes: &[(u64, u64, i64)],
        probe_every: usize,
    ) -> Result<(), String> {
        let mut p = ResourceProfile::new(10_000);
        let mut model = Model::default();
        let mut applied: Vec<(i64, SimTime, SimTime)> = Vec::new();
        let max_len = (span / 8).max(2);
        for (k, &(s_raw, len_raw, amount, kind)) in writes.iter().enumerate() {
            let start = s_raw % span;
            let (mut a, mut s, mut e) = (amount, t(start), t(start + 1 + len_raw % max_len));
            match (kind, applied.last()) {
                (0, Some(_)) => {
                    let (pa, ps, pe) = applied[len_raw as usize % applied.len()];
                    (a, s, e) = (-pa, ps, pe);
                }
                (1, Some(&(_, _, pe))) => {
                    let len = e - s;
                    (s, e) = (pe, pe + len);
                }
                (2, _) => {
                    p.reset(10_000);
                    for &(ra, rs, re) in &applied {
                        p.stage(ra, rs, re);
                    }
                    p.commit_staged();
                    prop_assert_eq!(p.steps(), model.steps(), "rebuild before write {k}");
                }
                _ => {}
            }
            p.reserve(a, s, e);
            model.reserve(a, s, e);
            applied.push((a, s, e));
            let steps = p.steps();
            prop_assert_eq!(&steps, &model.steps(), "write {k}: reserve({a}, {s}, {e})");
            prop_assert!(canonical(&steps), "write {k} left a redundant entry");
            if (k + 1) % probe_every == 0 || k + 1 == writes.len() {
                for &(f, du, thr) in probes {
                    let (f, du) = (t(f % (span + span / 4 + 1)), d(du % max_len + 1));
                    prop_assert_eq!(p.usage_at(f), model.usage_at(f), "usage_at({f})");
                    prop_assert_eq!(p.max_over(f, f + du), model.max_over(f, f + du));
                    prop_assert_eq!(
                        p.earliest_at_most(f, du, thr),
                        model.earliest_at_most(f, du, thr),
                        "write {k}: earliest_at_most({f}, {du}, {thr})"
                    );
                }
            }
        }
        Ok(())
    }

    props! {
        /// Small profiles over a short span, so instants coincide and
        /// reservations cancel often: every write keeps the step array
        /// equal to the model's and canonical, and every query agrees
        /// with the model after every write, negative thresholds
        /// included.
        fn prop_interleaved_writes_match_model_small(
            span in 2u64..60,
            writes in prop::vec((0u64..1_000, 0u64..1_000, -3_000i64..5_000, 0u16..8), 1..40),
            probes in prop::vec((0u64..1_000, 0u64..1_000, -1_000i64..9_000), 1..4),
        ) {
            check_interleaving(span, &writes, &probes, 1)?;
        }
    }

    props! {
        #![cases(16)]
        /// The same interleaving on profiles of up to ≈2 000 entries:
        /// every write is checked against the model; queries run every
        /// 128 writes, since the model's probe scan is quadratic.
        fn prop_interleaved_writes_match_model_large(
            span in 200u64..20_000,
            writes in prop::vec(
                (0u64..1_000_000, 0u64..1_000_000, -3_000i64..5_000, 0u16..16),
                1..1_300,
            ),
            probes in prop::vec((0u64..1_000_000, 0u64..1_000_000, -1_000i64..20_000), 1..4),
        ) {
            check_interleaving(span, &writes, &probes, 128)?;
        }
    }
}
