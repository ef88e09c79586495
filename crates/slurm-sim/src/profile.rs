//! Piecewise-constant resource reservation profiles.
//!
//! A [`ResourceProfile`] is the data structure behind every reservation
//! tracker in the system. It holds one usage column per resource the
//! tracker gates on — Slurm's nodes (`NT`) and license pools, the
//! I/O-aware Lustre-throughput tracker (`LT`, paper Algorithm 2) and the
//! adjusted throughput tracker of the workload-adaptive scheduler (`AT`,
//! paper Algorithm 5) — each a step function of time over one shared time
//! column, and answers the two queries backfill needs:
//!
//! * [`ResourceProfile::reserve`] — add one amount per column over
//!   `[start, end)`;
//! * [`ResourceProfile::earliest_at_most`] — the earliest time `t ≥ from`
//!   such that every column stays at or below its threshold for a whole
//!   window `[t, t + dur)`: the paper's `EarliestStartTime` over all the
//!   tracker's resources at once.
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
//! The step functions share one sorted step array, `(instant, usage of
//! every column from this instant on)`, in canonical form: one entry per
//! instant where some column changes, none that repeats its
//! predecessor's usage in every column (every column is 0 before the
//! first entry). This is the shape of Slurm's own time-ordered
//! `node_space` list. The instants sit in one column and each
//! resource's usage in a parallel column of its own, so a reserve's
//! range add runs over dense slices (skipping the columns it leaves
//! alone) and a probe scans them side by side.
//!
//! * **Batched build** — [`ResourceProfile::stage`] +
//!   [`ResourceProfile::commit_staged`]: the round-start tracker build
//!   stages every running-set delta of every column, then sorts each
//!   column's deltas once and merges their prefix sums.
//! * **Reserve** splits the array at `start` and `end` (at most two
//!   inserts), adds the amounts over the entries in between, and drops a
//!   boundary entry that no longer changes any column.
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

/// The threshold of a column that does not gate a probe: no usage
/// exceeds it.
pub const NO_THRESHOLD: i64 = i64::MAX;

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

/// Step functions of reserved amount over time, one per column, over one
/// shared time column, in quanta (see the module docs for the layout and
/// the rounding rule).
///
/// [`Self::reset`] retains all allocations so pooled profiles keep the
/// steady-state scheduling pass allocation-free.
#[derive(Clone, Debug)]
pub struct ResourceProfile {
    /// Entry instants, strictly increasing.
    times: Vec<SimTime>,
    /// `usage[c][i]`: column `c`'s reserved amount from `times[i]` on.
    /// Canonical: no entry repeats its predecessor's usage in every
    /// column, and the first is not 0 in every column.
    usage: Vec<Vec<i64>>,
    /// `staged[c]`: column `c`'s staged `(instant, delta)` entries
    /// awaiting [`Self::commit_staged`].
    staged: Vec<Vec<(SimTime, i64)>>,
    /// `cursor[c]`: how far [`Self::commit_staged`] has read `staged[c]`.
    cursor: Vec<usize>,
}

impl Default for ResourceProfile {
    fn default() -> Self {
        ResourceProfile::new(1)
    }
}

impl ResourceProfile {
    /// Empty profile with `cols` usage columns.
    pub fn new(cols: usize) -> Self {
        ResourceProfile {
            times: Vec::new(),
            usage: vec![Vec::new(); cols],
            staged: vec![Vec::new(); cols],
            cursor: vec![0; cols],
        }
    }

    /// The number of usage columns.
    pub fn cols(&self) -> usize {
        self.usage.len()
    }

    /// Clear all reservations and set a new column count, keeping the
    /// allocations of the columns kept for reuse.
    pub fn reset(&mut self, cols: usize) {
        self.times.clear();
        self.usage.resize_with(cols, Vec::new);
        self.usage.iter_mut().for_each(Vec::clear);
        self.staged.resize_with(cols, Vec::new);
        self.staged.iter_mut().for_each(Vec::clear);
        self.cursor.resize(cols, 0);
    }

    /// Index of the first entry after `t`: the usage at `t` is the one
    /// before it.
    fn after(&self, t: SimTime) -> usize {
        self.times.partition_point(|&bt| bt <= t)
    }

    /// Reserve `amounts[c]` of every column `c` (each may be negative)
    /// over `[start, end)`. Empty or inverted intervals and all-zero
    /// amounts are ignored.
    pub fn reserve(&mut self, amounts: &[i64], start: SimTime, end: SimTime) {
        debug_assert_eq!(amounts.len(), self.cols(), "one amount per column");
        if end <= start || amounts.iter().all(|&a| a == 0) {
            return;
        }
        debug_assert!(!self.has_staged(), "commit_staged before reserving");
        let times = &mut self.times;
        // One arm per common column count, so each inlined copy of the
        // write path knows how many columns it loops over.
        match &mut self.usage[..] {
            columns @ [_] => write_window(times, columns, amounts, start, end),
            columns @ [_, _] => write_window(times, columns, amounts, start, end),
            columns @ [_, _, _] => write_window(times, columns, amounts, start, end),
            columns => write_window(times, columns, amounts, start, end),
        }
    }

    /// Stage `amount` of column `col` over `[start, end)` for a batched
    /// build. Invisible to queries until [`Self::commit_staged`]; must
    /// only be used on a freshly [`Self::reset`] profile.
    pub fn stage(&mut self, col: usize, amount: i64, start: SimTime, end: SimTime) {
        debug_assert!(col < self.cols(), "column {col} of {}", self.cols());
        if end <= start || amount == 0 {
            return;
        }
        self.staged[col].push((start, amount));
        self.staged[col].push((end, -amount));
    }

    /// Whether anything is staged and not yet committed.
    fn has_staged(&self) -> bool {
        self.staged.iter().any(|column| !column.is_empty())
    }

    /// Sort each column's staged deltas and merge their prefix sums into
    /// the step array: O(S log S) where one reserve per entry would be
    /// O(S·B). Instants whose deltas cancel in every column leave no
    /// entry.
    pub fn commit_staged(&mut self) {
        debug_assert!(
            self.times.is_empty(),
            "commit_staged on a profile with committed reservations"
        );
        let ResourceProfile {
            times,
            usage,
            staged,
            cursor,
        } = self;
        for column in staged.iter_mut() {
            column.sort_unstable_by_key(|e| e.0);
        }
        cursor.fill(0);
        // One arm per common column count, as in `reserve`.
        match &mut usage[..] {
            [column] => sum_staged(&staged[0], times, column),
            columns @ [_, _] => merge_staged(staged, cursor, times, columns),
            columns @ [_, _, _] => merge_staged(staged, cursor, times, columns),
            columns => merge_staged(staged, cursor, times, columns),
        }
        staged.iter_mut().for_each(Vec::clear);
    }

    /// Column `col`'s reserved amount at time `t`.
    pub fn usage_at(&self, col: usize, t: SimTime) -> i64 {
        debug_assert!(!self.has_staged(), "commit_staged before querying");
        match self.after(t) {
            0 => 0,
            i => self.usage[col][i - 1],
        }
    }

    /// Column `col`'s maximum reserved amount over `[start, end)`;
    /// `usage_at(col, start)` if there are no breakpoints inside the
    /// window. Returns 0 for empty windows.
    pub fn max_over(&self, col: usize, start: SimTime, end: SimTime) -> i64 {
        debug_assert!(!self.has_staged(), "commit_staged before querying");
        if end <= start {
            return 0;
        }
        let i = self.after(start);
        let j = i + self.times[i..].partition_point(|&bt| bt < end);
        self.usage[col][i..j]
            .iter()
            .fold(self.usage_at(col, start), |max, &u| max.max(u))
    }

    /// Earliest `t ≥ from` such that every column `c` stays at or below
    /// `thresholds[c]` throughout `[t, t + dur)`. A column whose threshold
    /// is [`NO_THRESHOLD`] never holds a window back.
    ///
    /// Walks the entries from `from` on, alternating between skipping
    /// entries where some column is over its threshold (each pushes the
    /// candidate start to its end) and extending a run of fitting entries
    /// until it covers the window `[cand, cand + dur)`. Always
    /// terminates: after the last entry the profile is constant (zero if
    /// all reservations have finite ends) — if even the tail is over,
    /// [`SimTime::FAR_FUTURE`] is returned.
    ///
    /// Each column's own earliest fit is the least `t` at or after its
    /// input, so the answer is the least `t ≥ from` that fits every
    /// column at once: the fixpoint the paper's Algorithms 4 and 7 reach
    /// by alternating single-resource probes.
    pub fn earliest_at_most(&self, from: SimTime, dur: SimDuration, thresholds: &[i64]) -> SimTime {
        debug_assert!(!self.has_staged(), "commit_staged before querying");
        debug_assert_eq!(thresholds.len(), self.cols(), "one threshold per column");
        // Every column is 0 before the first entry.
        let zero_over = thresholds.iter().any(|&thr| thr < 0);
        // Each column sliced to the entry count, so the scan's reads need
        // no bounds checks past its `times` lookups.
        let n = self.times.len();
        match (&self.usage[..], thresholds) {
            ([u0], &[a]) => {
                let u0 = &u0[..n];
                self.scan(from, dur, zero_over, |k| u0[k] > a)
            }
            ([u0, u1], &[a, b]) => {
                let (u0, u1) = (&u0[..n], &u1[..n]);
                self.scan(from, dur, zero_over, |k| u0[k] > a || u1[k] > b)
            }
            ([u0, u1, u2], &[a, b, c]) => {
                let (u0, u1, u2) = (&u0[..n], &u1[..n], &u2[..n]);
                self.scan(from, dur, zero_over, |k| {
                    u0[k] > a || u1[k] > b || u2[k] > c
                })
            }
            (columns, _) => self.scan(from, dur, zero_over, |k| {
                columns.iter().zip(thresholds).any(|(u, &thr)| u[k] > thr)
            }),
        }
    }

    /// The forward scan of [`Self::earliest_at_most`], given whether the
    /// all-zero usage before the first entry is over a threshold and
    /// whether entry `k`'s is.
    fn scan(
        &self,
        from: SimTime,
        dur: SimDuration,
        zero_over: bool,
        over: impl Fn(usize) -> bool,
    ) -> SimTime {
        let dur = dur.max(SimDuration::from_millis(1));
        let first = self.after(from);
        let mut k = first;
        let mut is_over = if k == 0 { zero_over } else { over(k - 1) };
        let mut cand = from;
        let result = 'probe: loop {
            while is_over {
                let Some(&t) = self.times.get(k) else {
                    // The tail is over a threshold forever.
                    break 'probe SimTime::FAR_FUTURE;
                };
                cand = t;
                is_over = over(k);
                k += 1;
            }
            let close = cand + dur;
            loop {
                match self.times.get(k) {
                    Some(&t) if t < close => {}
                    // The run of fitting entries covers the window (or
                    // reaches the tail, which fits forever).
                    _ => break 'probe cand,
                }
                is_over = over(k);
                k += 1;
                if is_over {
                    break;
                }
            }
        };
        SWEEP_STEPS.with(|c| c.set(c.get() + (k - first) as u64));
        result
    }

    /// Breakpoints and every column's usage from each on, for
    /// diagnostics and tests.
    pub fn steps(&self) -> Vec<(SimTime, Vec<i64>)> {
        debug_assert!(!self.has_staged(), "commit_staged before querying");
        self.times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, self.usage.iter().map(|column| column[i]).collect()))
            .collect()
    }
}

/// [`ResourceProfile::commit_staged`] for a one-column profile: the
/// prefix sum of its sorted `staged` deltas, one entry per instant where
/// the sum changes.
fn sum_staged(staged: &[(SimTime, i64)], times: &mut Vec<SimTime>, column: &mut Vec<i64>) {
    let mut u = 0;
    for (k, &(t, d)) in staged.iter().enumerate() {
        u += d;
        // Sum every delta at `t` before deciding on its entry.
        if staged.get(k + 1).is_some_and(|next| next.0 == t) {
            continue;
        }
        if u != column.last().copied().unwrap_or(0) {
            times.push(t);
            column.push(u);
        }
    }
}

/// [`ResourceProfile::commit_staged`]'s merge of the sorted `staged`
/// deltas of every column into `times` and the usage `columns`: at each
/// instant, in order, every column's deltas there are summed onto its
/// last usage, and the entry is kept only if some column changed.
#[inline(always)]
fn merge_staged(
    staged: &[Vec<(SimTime, i64)>],
    cursor: &mut [usize],
    times: &mut Vec<SimTime>,
    columns: &mut [Vec<i64>],
) {
    loop {
        let next = staged
            .iter()
            .zip(cursor.iter())
            .filter_map(|(s, &k)| s.get(k));
        let Some(t) = next.map(|e| e.0).min() else {
            return;
        };
        let mut changed = false;
        for ((s, k), column) in staged.iter().zip(cursor.iter_mut()).zip(columns.iter_mut()) {
            let last = column.last().copied().unwrap_or(0);
            let mut u = last;
            while let Some(&(_, d)) = s.get(*k).filter(|e| e.0 == t) {
                u += d;
                *k += 1;
            }
            column.push(u);
            changed |= u != last;
        }
        if changed {
            times.push(t);
        } else {
            columns.iter_mut().for_each(|column| {
                column.pop();
            });
        }
    }
}

/// [`ResourceProfile::reserve`]'s write path over the profile's `times`
/// and usage `columns`: split at `start` and `end`, add each column's
/// amount over the entries in between, and drop a boundary entry that no
/// longer changes any column.
#[inline(always)]
fn write_window(
    times: &mut Vec<SimTime>,
    columns: &mut [Vec<i64>],
    amounts: &[i64],
    start: SimTime,
    end: SimTime,
) {
    let s = split(times, columns, 0, start);
    let e = split(times, columns, s + 1, end);
    for (column, &a) in columns.iter_mut().zip(amounts) {
        if a != 0 {
            for u in &mut column[s..e] {
                *u += a;
            }
        }
    }
    // Only the two boundaries can now repeat their predecessor: the
    // entries in between all moved by the same amounts.
    drop_if_redundant(times, columns, e);
    drop_if_redundant(times, columns, s);
}

/// Index of the entry at `t`, searching from `lo`; inserts one that
/// repeats the usage before `t` when there is none.
#[inline(always)]
fn split(times: &mut Vec<SimTime>, columns: &mut [Vec<i64>], lo: usize, t: SimTime) -> usize {
    let i = lo + times[lo..].partition_point(|&bt| bt < t);
    if times.get(i) != Some(&t) {
        times.insert(i, t);
        for column in columns {
            let before = if i == 0 { 0 } else { column[i - 1] };
            column.insert(i, before);
        }
    }
    i
}

/// Drop entry `i` when it repeats the usage before it in every column (0
/// before the first entry).
#[inline(always)]
fn drop_if_redundant(times: &mut Vec<SimTime>, columns: &mut [Vec<i64>], i: usize) {
    let before = |column: &Vec<i64>| if i == 0 { 0 } else { column[i - 1] };
    if columns.iter().all(|column| column[i] == before(column)) {
        times.remove(i);
        for column in columns {
            column.remove(i);
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

    /// A one-column profile holding `resv` as `(amount, start, end)`
    /// reservations in seconds.
    fn one(resv: &[(i64, u64, u64)]) -> ResourceProfile {
        let mut p = ResourceProfile::new(1);
        for &(a, s, e) in resv {
            p.reserve(&[a], t(s), t(e));
        }
        p
    }

    /// Earliest start of an `amount` against `capacity` on a one-column
    /// profile.
    fn fit(
        p: &ResourceProfile,
        capacity: i64,
        from: SimTime,
        dur: SimDuration,
        amount: i64,
    ) -> SimTime {
        p.earliest_at_most(from, dur, &[capacity - amount])
    }

    /// The naive reference model of one column: one `Vec::insert` per
    /// breakpoint, cancelled instants removed, and the O(k²) probe scan
    /// for `earliest_at_most`.
    #[derive(Default)]
    struct Model {
        deltas: Vec<(SimTime, i64)>,
    }

    impl Model {
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
    }

    /// The model of a profile: one [`Model`] per column.
    struct Models(Vec<Model>);

    impl Models {
        fn new(cols: usize) -> Self {
            Models((0..cols).map(|_| Model::default()).collect())
        }

        fn of(resv: &[(u64, u64, i64)]) -> Self {
            let mut m = Models::new(1);
            for &(s, len, a) in resv {
                m.reserve(&[a], t(s), t(s + len));
            }
            m
        }

        fn reserve(&mut self, amounts: &[i64], start: SimTime, end: SimTime) {
            for (m, &a) in self.0.iter_mut().zip(amounts) {
                m.reserve(a, start, end);
            }
        }

        /// Every instant where some column changes, with every column's
        /// usage from it on.
        fn steps(&self) -> Vec<(SimTime, Vec<i64>)> {
            let mut deltas: Vec<(SimTime, usize, i64)> = self
                .0
                .iter()
                .enumerate()
                .flat_map(|(c, m)| m.deltas.iter().map(move |&(bt, a)| (bt, c, a)))
                .collect();
            deltas.sort();
            let mut row = vec![0; self.0.len()];
            let mut steps: Vec<(SimTime, Vec<i64>)> = Vec::new();
            for (bt, c, a) in deltas {
                row[c] += a;
                match steps.last_mut() {
                    Some(last) if last.0 == bt => last.1.clone_from(&row),
                    _ => steps.push((bt, row.clone())),
                }
            }
            steps
        }

        /// Probe every column's `max_over` at `from` and after every
        /// breakpoint of any column until a window fits them all.
        fn earliest_at_most(&self, from: SimTime, dur: SimDuration, thresholds: &[i64]) -> SimTime {
            let dur = dur.max(SimDuration::from_millis(1));
            let mut at = from;
            loop {
                if self
                    .0
                    .iter()
                    .zip(thresholds)
                    .all(|(m, &thr)| m.max_over(at, at + dur) <= thr)
                {
                    return at;
                }
                let next = self
                    .0
                    .iter()
                    .filter_map(|m| m.deltas.iter().find(|e| e.0 > at))
                    .map(|e| e.0)
                    .min();
                match next {
                    Some(bt) => at = bt,
                    None => return SimTime::FAR_FUTURE,
                }
            }
        }
    }

    #[test]
    fn usage_tracks_reservations() {
        let p = one(&[(4, 10, 20), (3, 15, 25)]);
        assert_eq!(p.usage_at(0, t(0)), 0);
        assert_eq!(p.usage_at(0, t(10)), 4);
        assert_eq!(p.usage_at(0, t(15)), 7);
        assert_eq!(p.usage_at(0, t(20)), 3);
        assert_eq!(p.usage_at(0, t(25)), 0);
    }

    #[test]
    fn max_over_windows() {
        let p = one(&[(4, 10, 20), (3, 15, 25)]);
        assert_eq!(p.max_over(0, t(0), t(10)), 0);
        assert_eq!(p.max_over(0, t(0), t(16)), 7);
        assert_eq!(p.max_over(0, t(12), t(14)), 4);
        assert_eq!(p.max_over(0, t(21), t(30)), 3);
        assert_eq!(p.max_over(0, t(5), t(5)), 0);
    }

    #[test]
    fn earliest_fit_simple() {
        let p = one(&[(8, 0, 100)]);
        // 2 units fit immediately; 3 only after the block ends.
        assert_eq!(fit(&p, 10, t(0), d(10), 2), t(0));
        assert_eq!(fit(&p, 10, t(0), d(10), 3), t(100));
    }

    #[test]
    fn earliest_fit_finds_gap_large_enough() {
        let p = one(&[(10, 0, 50), (10, 60, 100)]);
        // A 10 s window fits exactly in the [50, 60) gap.
        assert_eq!(fit(&p, 10, t(0), d(10), 10), t(50));
        // A 20 s window does not; it must wait until t=100.
        assert_eq!(fit(&p, 10, t(0), d(20), 10), t(100));
    }

    #[test]
    fn earliest_fit_exact_capacity_boundary() {
        let cap = quanta_down(10.5);
        let mut p = ResourceProfile::new(1);
        p.reserve(&[quanta_up(5.2)], t(0), t(100));
        // Capacity rounds down to 10 and the reservation up to 6: exactly
        // the remaining 4 quanta fit, and a real 4.0000001 rounds to 5.
        assert_eq!(fit(&p, cap, t(0), d(10), quanta_up(4.0)), t(0));
        assert_eq!(fit(&p, cap, t(0), d(10), quanta_up(4.0000001)), t(100));
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
        let p = one(&[(5, 0, 30), (5, 10, 20)]);
        // A 5 s window below threshold 8 fits immediately (usage 5 on
        // [0,10)); a 15 s window cannot avoid the [10,20) peak until t=20.
        assert_eq!(p.earliest_at_most(t(0), d(5), &[8]), t(0));
        assert_eq!(p.earliest_at_most(t(0), d(15), &[8]), t(20));
        // Threshold 5 with a 15 s window: t=20 works (usage 5 then 0).
        assert_eq!(p.earliest_at_most(t(0), d(15), &[5]), t(20));
        // Threshold 4: must wait for everything to end.
        assert_eq!(p.earliest_at_most(t(0), d(5), &[4]), t(30));
    }

    #[test]
    fn infeasible_returns_far_future() {
        // Permanent overload: reservation to FAR_FUTURE.
        let mut p = ResourceProfile::new(1);
        p.reserve(&[10], t(0), SimTime::FAR_FUTURE);
        assert_eq!(fit(&p, 10, t(0), d(10), 5), SimTime::FAR_FUTURE);
    }

    #[test]
    fn negative_amounts_lower_usage() {
        let p = one(&[(8, 0, 100), (-3, 0, 100)]);
        assert_eq!(p.usage_at(0, t(50)), 5);
        assert_eq!(fit(&p, 10, t(0), d(10), 5), t(0));
    }

    #[test]
    fn empty_and_inverted_intervals_ignored() {
        let p = one(&[(5, 10, 10), (5, 20, 10)]);
        assert!(p.steps().is_empty());
    }

    #[test]
    fn cancelled_deltas_leave_no_dead_breakpoints() {
        // +a then −a over the same interval cancels both breakpoints.
        let p = one(&[(3, 10, 20), (-3, 10, 20)]);
        assert!(p.steps().is_empty());

        // Abutting reservations of the same amount cancel the shared
        // instant: +2@0 −2@10 then +2@10 −2@20 leaves nothing at t=10.
        let p = one(&[(2, 0, 10), (2, 10, 20)]);
        assert!(p.steps().iter().all(|(bt, _)| *bt != t(10)));
        assert_eq!(p.usage_at(0, t(5)), 2);
        assert_eq!(p.usage_at(0, t(15)), 2);
        assert_eq!(p.usage_at(0, t(25)), 0);

        // Same cancellation through the batched path.
        let mut p = ResourceProfile::new(1);
        p.stage(0, 2, t(0), t(10));
        p.stage(0, 2, t(10), t(20));
        p.commit_staged();
        assert!(p.steps().iter().all(|(bt, _)| *bt != t(10)));
        assert_eq!(p.usage_at(0, t(15)), 2);

        // A reserve cancelling a committed breakpoint hides it too.
        p.reserve(&[-2], t(0), t(20));
        assert!(p.steps().is_empty());
    }

    #[test]
    fn batched_build_matches_reserve() {
        let mut a = ResourceProfile::new(1);
        let mut b = ResourceProfile::new(1);
        let resv = [(4, 10u64, 20u64), (3, 15, 25), (-1, 0, 40), (2, 15, 25)];
        for &(amt, s, e) in &resv {
            a.reserve(&[amt], t(s), t(e));
            b.stage(0, amt, t(s), t(e));
        }
        b.commit_staged();
        assert_eq!(a.steps(), b.steps());
        // Committed profiles accept further reservations.
        a.reserve(&[2], t(12), t(18));
        b.reserve(&[2], t(12), t(18));
        assert_eq!(a.steps(), b.steps());
        assert_eq!(fit(&a, 10, t(0), d(8), 3), fit(&b, 10, t(0), d(8), 3));
    }

    #[test]
    fn stacked_identical_intervals() {
        let mut p = ResourceProfile::new(1);
        // Three reservations over the identical interval accumulate.
        for _ in 0..3 {
            p.reserve(&[2], t(5), t(10));
        }
        assert_eq!(p.usage_at(0, t(5)), 6);
        assert_eq!(p.usage_at(0, t(10)), 0);
        assert_eq!(p.steps().len(), 2);
        // 1 fits exactly at capacity 7; 2 does not until t=10.
        assert_eq!(fit(&p, 7, t(0), d(5), 1), t(0));
        assert_eq!(fit(&p, 7, t(5), d(2), 2), t(10));
    }

    #[test]
    fn earliest_fit_beyond_all_breakpoints_is_immediate() {
        let p = one(&[(10, 0, 10)]);
        // Querying from far past the last breakpoint: free immediately.
        assert_eq!(fit(&p, 10, t(1000), d(50), 10), t(1000));
    }

    #[test]
    fn zero_duration_window_still_probes_an_instant() {
        let p = one(&[(10, 0, 10)]);
        // dur = 0 behaves like a 1 ms window.
        assert_eq!(fit(&p, 10, t(0), SimDuration::ZERO, 1), t(10));
    }

    #[test]
    fn reset_clears_reservations_and_sets_columns() {
        let mut p = one(&[(4, 0, 10)]);
        p.reset(2);
        assert_eq!(p.cols(), 2);
        assert!(p.steps().is_empty());
        assert_eq!(p.usage_at(1, t(5)), 0);
        p.reserve(&[0, 2], t(0), t(10));
        assert_eq!(p.steps(), vec![(t(0), vec![0, 2]), (t(10), vec![0, 0])]);
    }

    #[test]
    fn columns_share_breakpoints_and_each_gates_the_scan() {
        // Nodes (capacity 10) and a bandwidth column (capacity 100) over
        // the same windows, plus a bandwidth-only term from t=0.
        let mut p = ResourceProfile::new(2);
        p.stage(0, 6, t(0), t(50));
        p.stage(1, 40, t(0), t(50));
        p.stage(1, 30, t(0), t(80));
        p.commit_staged();
        assert_eq!(
            p.steps(),
            vec![
                (t(0), vec![6, 70]),
                (t(50), vec![0, 30]),
                (t(80), vec![0, 0])
            ]
        );
        // 4 nodes and 30 B/s fit now; 5 nodes wait for the nodes, 31 B/s
        // for the bandwidth, and each column gates on its own.
        assert_eq!(p.earliest_at_most(t(0), d(10), &[6, 70]), t(0));
        assert_eq!(p.earliest_at_most(t(0), d(10), &[5, 70]), t(50));
        assert_eq!(p.earliest_at_most(t(0), d(10), &[6, 69]), t(50));
        // A column without a threshold never holds a window back, but a
        // gating column over its threshold forever never fits.
        assert_eq!(p.earliest_at_most(t(0), d(10), &[NO_THRESHOLD, 29]), t(80));
        assert_eq!(
            p.earliest_at_most(t(0), d(10), &[NO_THRESHOLD, -1]),
            SimTime::FAR_FUTURE
        );
        // A reserve adding to one column only splits the shared array.
        p.reserve(&[0, 5], t(20), t(30));
        assert_eq!(p.steps().len(), 5);
        p.reserve(&[0, -5], t(20), t(30));
        assert_eq!(p.steps().len(), 3);
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

        /// earliest_at_most's result against a capacity equals the
        /// model's, actually fits, and no earlier breakpoint-aligned
        /// candidate fits.
        fn prop_earliest_fit_correct(
            resv in prop::vec((0u64..50, 1u64..30, 500i64..5_000), 0..12),
            from in 0u64..40,
            dur in 1u64..20,
            amount in 500i64..6_000,
        ) {
            let cap = 10_000;
            let mut p = ResourceProfile::new(1);
            for &(s, len, a) in &resv {
                p.reserve(&[a], t(s), t(s + len));
            }
            let got = fit(&p, cap, t(from), d(dur), amount);
            prop_assert_eq!(got, Models::of(&resv).earliest_at_most(t(from), d(dur), &[cap - amount]));
            if got != SimTime::FAR_FUTURE {
                // It fits at `got`.
                prop_assert!(p.max_over(0, got, got + d(dur)) <= cap - amount);
                // No earlier candidate among {from} ∪ breakpoints fits.
                let mut candidates = vec![t(from)];
                candidates.extend(p.steps().iter().map(|(bt, _)| *bt));
                for c in candidates {
                    if c >= t(from) && c < got {
                        prop_assert!(
                            p.max_over(0, c, c + d(dur)) > cap - amount,
                            "earlier candidate {c} fits but earliest_at_most returned {got}"
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
            let mut p = ResourceProfile::new(1);
            let mut naive = 0;
            for &(s, len, a) in &resv {
                p.reserve(&[a], t(s), t(s + len));
                if probe >= s && probe < s + len {
                    naive += a;
                }
            }
            prop_assert_eq!(p.usage_at(0, t(probe)), naive);
            let model = &Models::of(&resv).0[0];
            prop_assert_eq!(
                p.max_over(0, t(probe), t(probe + 10)),
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
            let model = Models::of(&resv);
            let expected = model.earliest_at_most(t(from), d(dur), &[thr]);
            let mut p = ResourceProfile::new(1);
            let mut b = ResourceProfile::new(1);
            for &(s, len, a) in &resv {
                p.reserve(&[a], t(s), t(s + len));
                b.stage(0, a, t(s), t(s + len));
            }
            b.commit_staged();
            prop_assert_eq!(p.steps(), model.steps(), "reserve path diverged from the model");
            prop_assert_eq!(b.steps(), model.steps(), "batched build diverged from the model");
            prop_assert_eq!(p.earliest_at_most(t(from), d(dur), &[thr]), expected);
            prop_assert_eq!(b.earliest_at_most(t(from), d(dur), &[thr]), expected);
        }
    }

    /// `steps` is in canonical form: strictly increasing instants, and no
    /// row repeating its predecessor's (all 0 before the first).
    fn canonical(steps: &[(SimTime, Vec<i64>)]) -> bool {
        let mut prev: (Option<SimTime>, Option<&[i64]>) = (None, None);
        steps.iter().all(|(bt, row)| {
            let repeats = match prev.1 {
                Some(p) => p == row.as_slice(),
                None => row.iter().all(|&u| u == 0),
            };
            let ok = prev.0.is_none_or(|p| p < *bt) && !repeats;
            prev = (Some(*bt), Some(row));
            ok
        })
    }

    /// One generated write: raw start and length (scaled into the case's
    /// time span), one amount per column (a column whose raw amount is
    /// odd takes 0, so writes often leave columns alone), and a kind: 0
    /// cancels an earlier reservation, 1 abuts the previous one, 2
    /// rebuilds the profile through `stage`/`commit_staged` before
    /// writing, anything else is a plain reservation.
    type Write = (u64, u64, [i64; 3], u16);

    /// Replay `writes` into a profile of `cols` columns and the model,
    /// mixing `reserve` with batched rebuilds, and require after every
    /// write that the step array equals the model's and is canonical.
    /// Every `probe_every`-th write (and after the last) the `probes`
    /// (from, duration, one threshold per column, where a raw threshold
    /// above 8 000 stands for no threshold) are compared with the model's
    /// `usage_at`, `max_over` and `earliest_at_most`.
    fn check_interleaving(
        cols: usize,
        span: u64,
        writes: &[Write],
        probes: &[(u64, u64, [i64; 3])],
        probe_every: usize,
    ) -> Result<(), String> {
        let mut p = ResourceProfile::new(cols);
        let mut model = Models::new(cols);
        let mut applied: Vec<(Vec<i64>, SimTime, SimTime)> = Vec::new();
        let max_len = (span / 8).max(2);
        for (k, &(s_raw, len_raw, raw, kind)) in writes.iter().enumerate() {
            let start = s_raw % span;
            let mut a: Vec<i64> = raw[..cols]
                .iter()
                .map(|&x| if x % 2 == 0 { x } else { 0 })
                .collect();
            let (mut s, mut e) = (t(start), t(start + 1 + len_raw % max_len));
            match (kind, applied.last()) {
                (0, Some(_)) => {
                    let (pa, ps, pe) = &applied[len_raw as usize % applied.len()];
                    a = pa.iter().map(|&x| -x).collect();
                    (s, e) = (*ps, *pe);
                }
                (1, Some(&(_, _, pe))) => {
                    let len = e - s;
                    (s, e) = (pe, pe + len);
                }
                (2, _) => {
                    p.reset(cols);
                    for (ra, rs, re) in &applied {
                        for (c, &x) in ra.iter().enumerate() {
                            p.stage(c, x, *rs, *re);
                        }
                    }
                    p.commit_staged();
                    prop_assert_eq!(p.steps(), model.steps(), "rebuild before write {k}");
                }
                _ => {}
            }
            p.reserve(&a, s, e);
            model.reserve(&a, s, e);
            let steps = p.steps();
            prop_assert_eq!(
                &steps,
                &model.steps(),
                "write {k}: reserve({a:?}, {s}, {e})"
            );
            prop_assert!(canonical(&steps), "write {k} left a redundant entry");
            applied.push((a, s, e));
            if (k + 1) % probe_every == 0 || k + 1 == writes.len() {
                for &(f, du, thr) in probes {
                    let (f, du) = (t(f % (span + span / 4 + 1)), d(du % max_len + 1));
                    let thr: Vec<i64> = thr[..cols]
                        .iter()
                        .map(|&x| if x > 8_000 { NO_THRESHOLD } else { x })
                        .collect();
                    for (c, m) in model.0.iter().enumerate() {
                        prop_assert_eq!(p.usage_at(c, f), m.usage_at(f), "usage_at({c}, {f})");
                        prop_assert_eq!(p.max_over(c, f, f + du), m.max_over(f, f + du));
                    }
                    prop_assert_eq!(
                        p.earliest_at_most(f, du, &thr),
                        model.earliest_at_most(f, du, &thr),
                        "write {k}: earliest_at_most({f}, {du}, {thr:?})"
                    );
                }
            }
        }
        Ok(())
    }

    props! {
        /// Small profiles of one to three columns over a short span, so
        /// instants coincide and reservations cancel often: every write
        /// keeps the step array equal to the model's and canonical, and
        /// every query agrees with the model after every write, negative
        /// thresholds and columns without one included.
        fn prop_interleaved_writes_match_model_small(
            cols in 1usize..4,
            span in 2u64..60,
            writes in prop::vec(
                (0u64..1_000, 0u64..1_000, (-3_000i64..5_000, -3_000i64..5_000, -3_000i64..5_000), 0u16..8),
                1..40,
            ),
            probes in prop::vec(
                (0u64..1_000, 0u64..1_000, (-1_000i64..9_000, -1_000i64..9_000, -1_000i64..9_000)),
                1..4,
            ),
        ) {
            let writes: Vec<Write> = writes.iter().map(|&(s, l, (a, b, c), k)| (s, l, [a, b, c], k)).collect();
            let probes: Vec<_> = probes.iter().map(|&(f, du, (a, b, c))| (f, du, [a, b, c])).collect();
            check_interleaving(cols, span, &writes, &probes, 1)?;
        }
    }

    props! {
        #![cases(16)]
        /// The same interleaving on profiles of up to ≈2 000 entries:
        /// every write is checked against the model; queries run every
        /// 128 writes, since the model's probe scan is quadratic.
        fn prop_interleaved_writes_match_model_large(
            cols in 1usize..4,
            span in 200u64..20_000,
            writes in prop::vec(
                (0u64..1_000_000, 0u64..1_000_000, (-3_000i64..5_000, -3_000i64..5_000, -3_000i64..5_000), 0u16..16),
                1..1_300,
            ),
            probes in prop::vec(
                (0u64..1_000_000, 0u64..1_000_000, (-1_000i64..20_000, -1_000i64..20_000, -1_000i64..20_000)),
                1..4,
            ),
        ) {
            let writes: Vec<Write> = writes.iter().map(|&(s, l, (a, b, c), k)| (s, l, [a, b, c], k)).collect();
            let probes: Vec<_> = probes.iter().map(|&(f, du, (a, b, c))| (f, du, [a, b, c])).collect();
            check_interleaving(cols, span, &writes, &probes, 128)?;
        }
    }
}
