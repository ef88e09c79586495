//! Progressive-filling max-min fair rate allocation.
//!
//! Given a set of flows and a set of capacity constraints (each constraint
//! covers a subset of flows), the allocator raises all flow rates
//! uniformly; when a constraint saturates, its member flows freeze at the
//! current level and filling continues for the rest. The result is the
//! unique max-min fair allocation — the standard fluid approximation for
//! bandwidth sharing in storage/network fabrics.
//!
//! * [`WarmSolver`] — the solver [`crate::LustreSim`] runs. It keeps the
//!   constraint system alive across solves and repairs it in O(degree)
//!   per flow join/leave; a steady-state solve allocates nothing.
//! * The reference fill, in test code only: O(rounds × flows ×
//!   constraints) with linear member scans, allocating freely. It is the
//!   test oracle for [`WarmSolver`] and for `LustreSim`'s constraint
//!   encoding.

/// Relative saturation tolerance: a constraint is considered saturated
/// once its residual falls to `EPS · max(capacity, 1)`.
const EPS: f64 = 1e-9;

/// Warm-start progressive-filling solver: a *persistent* constraint
/// system repaired incrementally on flow churn.
///
/// In the file-system hot path the constraint *structure* barely changes
/// between solves — a single stream joins or leaves — so `WarmSolver`
/// keeps the membership alive across solves and repairs it in O(degree)
/// per join/leave:
///
/// * each constraint owns a swap-removable member list;
/// * each flow records, with a fixed stride, which constraints it belongs
///   to and *where* in each member list it sits, so removal never scans;
/// * [`WarmSolver::remove_flow_swap`] mirrors the caller's slab
///   `swap_remove`: the last flow is renamed to the removed index.
///
/// All flows share one uniform cap (`default_cap`), which is all the file
/// system needs (the per-stream cap is one config constant): the
/// "smallest unfrozen cap" is simply the cap while any flow is unfrozen,
/// so no per-solve cap-order sort is needed. The fill is a pure function
/// of (flow count, uniform cap, constraint sets and capacities) and is
/// independent of constraint and member order — the next level is a min
/// over per-constraint candidates, the residual update is per-constraint,
/// and the freeze set is sorted before use — so runs are deterministic.
///
/// The test-code reference fill with the uniform cap encoded as one singleton
/// constraint per flow is the oracle: the property suite below compares
/// the rates after every solve of a random churn sequence, to a relative
/// tolerance of `1e-9` (the saturation tolerance; the two fills round
/// differently, so equality is not bitwise).
#[derive(Default)]
pub struct WarmSolver {
    n_flows: usize,
    /// Max constraints per flow; slot layout is `flow * stride + k`.
    stride: usize,
    /// Uniform per-flow rate clamp (≥ 0; `INFINITY` = uncapped).
    default_cap: f64,
    /// Constraint capacities (indexed by constraint id).
    con_cap: Vec<f64>,
    /// Per-constraint member lists (unique flows, maintenance order).
    members: Vec<Vec<u32>>,
    /// Flow→constraint adjacency, fixed stride. `flow_pos` is the flow's
    /// position inside the corresponding member list.
    flow_cons: Vec<u32>,
    flow_pos: Vec<u32>,
    flow_deg: Vec<u8>,
    /// Constraints with at least one member, maintained on the 0 ↔ 1
    /// member edges (`active_pos[c]` is the constraint's position in
    /// `active` plus one; 0 = inactive). The fill only ever visits
    /// constraints with unfrozen members — a subset of `active` — so
    /// iterating this list instead of `0..n_cons` makes a solve
    /// O(active constraints), not O(machine size). On a 10k-node
    /// cluster the constraint block holds every node and OST (~47k
    /// slots) while a steady-state solve touches a few hundred.
    active: Vec<u32>,
    active_pos: Vec<u32>,
    // Fill scratch, reused across solves. `residual`/`unfrozen` are
    // sized to the constraint block at `reset` and only the *active*
    // entries are refreshed per solve; inactive entries are stale and
    // unread.
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    frozen: Vec<bool>,
    rate: Vec<f64>,
    to_freeze: Vec<u32>,
}

impl WarmSolver {
    /// A solver with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to an empty system of `n_cons` constraints (all flows
    /// removed, capacities zeroed), each flow limited to `stride`
    /// constraint memberships, every flow clamped at `default_cap`.
    /// Member-list capacity survives the reset.
    pub fn reset(&mut self, n_cons: usize, stride: usize, default_cap: f64) {
        assert!(stride > 0 && stride <= u8::MAX as usize);
        self.n_flows = 0;
        self.stride = stride;
        self.default_cap = default_cap.max(0.0);
        self.con_cap.clear();
        self.con_cap.resize(n_cons, 0.0);
        if self.members.len() < n_cons {
            self.members.resize_with(n_cons, Vec::new);
        }
        self.members.truncate(n_cons);
        for m in self.members.iter_mut() {
            m.clear();
        }
        self.flow_cons.clear();
        self.flow_pos.clear();
        self.flow_deg.clear();
        self.active.clear();
        self.active_pos.clear();
        self.active_pos.resize(n_cons, 0);
        self.residual.clear();
        self.residual.resize(n_cons, 0.0);
        self.unfrozen.clear();
        self.unfrozen.resize(n_cons, 0);
    }

    /// Number of flows currently in the system.
    pub fn flow_count(&self) -> usize {
        self.n_flows
    }

    /// Set constraint `c`'s capacity (effective at the next solve).
    pub fn set_con_cap(&mut self, c: usize, capacity: f64) {
        debug_assert!(!capacity.is_nan(), "capacity must not be NaN");
        self.con_cap[c] = capacity;
    }

    /// Add a flow as member of the (distinct) constraints `cons`; returns
    /// its index, always the current [`Self::flow_count`].
    pub fn add_flow(&mut self, cons: &[u32]) -> u32 {
        debug_assert!(cons.len() <= self.stride, "flow degree exceeds stride");
        debug_assert!(
            cons.iter()
                .all(|&c| cons.iter().filter(|&&d| d == c).count() == 1),
            "constraint memberships must be distinct"
        );
        let f = self.n_flows as u32;
        self.flow_cons.resize(self.flow_cons.len() + self.stride, 0);
        self.flow_pos.resize(self.flow_pos.len() + self.stride, 0);
        for (k, &c) in cons.iter().enumerate() {
            let list = &mut self.members[c as usize];
            self.flow_cons[f as usize * self.stride + k] = c;
            self.flow_pos[f as usize * self.stride + k] = list.len() as u32;
            let first_member = list.is_empty();
            list.push(f);
            if first_member {
                self.active_pos[c as usize] = self.active.len() as u32 + 1;
                self.active.push(c);
            }
        }
        self.flow_deg.push(cons.len() as u8);
        self.n_flows += 1;
        f
    }

    /// Remove flow `f`, renaming the last flow to index `f` (mirror a
    /// caller-side slab `swap_remove`).
    pub fn remove_flow_swap(&mut self, f: u32) {
        let f = f as usize;
        debug_assert!(f < self.n_flows, "flow out of range");
        // Detach `f` from its constraints; a swap_remove on a member list
        // moves one other flow, whose recorded position must be patched.
        for k in 0..self.flow_deg[f] as usize {
            let c = self.flow_cons[f * self.stride + k] as usize;
            let p = self.flow_pos[f * self.stride + k] as usize;
            let list = &mut self.members[c];
            list.swap_remove(p);
            if p < list.len() {
                let moved = list[p] as usize;
                for j in 0..self.flow_deg[moved] as usize {
                    if self.flow_cons[moved * self.stride + j] as usize == c {
                        self.flow_pos[moved * self.stride + j] = p as u32;
                        break;
                    }
                }
            } else if list.is_empty() {
                // Last member gone: delist the constraint.
                let slot = (self.active_pos[c] - 1) as usize;
                self.active.swap_remove(slot);
                self.active_pos[c] = 0;
                if let Some(&moved_con) = self.active.get(slot) {
                    self.active_pos[moved_con as usize] = slot as u32 + 1;
                }
            }
        }
        // Rename the last flow to `f`.
        let last = self.n_flows - 1;
        if f != last {
            for k in 0..self.flow_deg[last] as usize {
                let c = self.flow_cons[last * self.stride + k] as usize;
                let p = self.flow_pos[last * self.stride + k] as usize;
                self.members[c][p] = f as u32;
                self.flow_cons[f * self.stride + k] = c as u32;
                self.flow_pos[f * self.stride + k] = p as u32;
            }
            self.flow_deg[f] = self.flow_deg[last];
        }
        self.flow_deg.pop();
        self.flow_cons.truncate(last * self.stride);
        self.flow_pos.truncate(last * self.stride);
        self.n_flows = last;
    }

    /// Run progressive filling over the current system; returns one rate
    /// per flow. Flows covered by no finite constraint under an infinite
    /// cap are released at the last finite level (0 if none).
    ///
    /// Cost is O(active constraints × fill rounds), not O(constraint
    /// block): every loop walks the maintained `active` list. A
    /// memberless constraint has no unfrozen members and cannot
    /// saturate, so skipping it changes nothing.
    pub fn solve(&mut self) -> &[f64] {
        let n = self.n_flows;
        self.rate.clear();
        self.rate.resize(n, 0.0);
        if n == 0 {
            return &self.rate;
        }

        for k in 0..self.active.len() {
            let c = self.active[k] as usize;
            self.residual[c] = self.con_cap[c].max(0.0);
            self.unfrozen[c] = self.members[c].len() as u32;
        }
        self.frozen.clear();
        self.frozen.resize(n, false);

        let cap = self.default_cap;
        let mut level = 0.0_f64;
        let mut remaining = n;

        while remaining > 0 {
            // Next saturation level across constraints…
            let mut next_level = f64::INFINITY;
            for &c in &self.active {
                let c = c as usize;
                if self.unfrozen[c] > 0 {
                    let candidate = level + self.residual[c] / self.unfrozen[c] as f64;
                    if candidate < next_level {
                        next_level = candidate;
                    }
                }
            }
            // …and the uniform cap (the smallest unfrozen cap, as long as
            // any flow is unfrozen — which `remaining > 0` guarantees).
            next_level = next_level.min(cap);

            if !next_level.is_finite() {
                // Release: nothing finite applies to the remaining flows.
                for f in 0..n {
                    if !self.frozen[f] {
                        self.rate[f] = level;
                    }
                }
                break;
            }

            let delta = (next_level - level).max(0.0);
            for &c in &self.active {
                let c = c as usize;
                if self.unfrozen[c] > 0 {
                    self.residual[c] -= delta * self.unfrozen[c] as f64;
                }
            }
            level = next_level;

            self.to_freeze.clear();
            // Members of saturated constraints…
            for &c in &self.active {
                let c = c as usize;
                if self.unfrozen[c] > 0 && self.residual[c] <= EPS * self.con_cap[c].max(1.0) {
                    for &m in &self.members[c] {
                        if !self.frozen[m as usize] {
                            self.to_freeze.push(m);
                        }
                    }
                }
            }
            // …and every unfrozen flow once the level reached the cap.
            if cap <= level {
                for f in 0..n {
                    if !self.frozen[f] {
                        self.to_freeze.push(f as u32);
                    }
                }
            }
            debug_assert!(
                !self.to_freeze.is_empty(),
                "progressive filling must freeze at least one flow per round"
            );
            self.to_freeze.sort_unstable();
            self.to_freeze.dedup();
            for i in 0..self.to_freeze.len() {
                let f = self.to_freeze[i] as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                self.rate[f] = level.min(cap);
                remaining -= 1;
                for k in 0..self.flow_deg[f] as usize {
                    self.unfrozen[self.flow_cons[f * self.stride + k] as usize] -= 1;
                }
            }
        }

        &self.rate
    }
}

#[cfg(test)]
/// A capacity constraint over a set of flows (indices into the flow list).
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Total capacity shared by the member flows (≥ 0).
    pub capacity: f64,
    /// Indices of the flows subject to this constraint. Duplicates are
    /// tolerated and count once.
    pub members: Vec<usize>,
}

#[cfg(test)]
/// Compute the max-min fair rates for `n_flows` flows under `constraints`
/// (the reference; [`WarmSolver`] is the fast path).
///
/// A flow covered by no finite constraint is *released*: it freezes at the
/// level reached when no constraint applies to the remaining flows any
/// more. Duplicate members within one constraint are deduplicated on
/// entry. Returns one rate per flow.
pub fn max_min_fair(n_flows: usize, constraints: &[Constraint]) -> Vec<f64> {
    let mut rate = vec![0.0_f64; n_flows];
    if n_flows == 0 {
        return rate;
    }

    // Dedup members on entry: a flow listed twice in one constraint must
    // count once toward both capacity consumption and the unfrozen count,
    // otherwise the residual math is skewed (the count would start at 2
    // but be decremented once at freeze time).
    let members: Vec<Vec<usize>> = constraints
        .iter()
        .map(|c| {
            let mut m = c.members.clone();
            m.sort_unstable();
            m.dedup();
            m
        })
        .collect();

    let mut frozen = vec![false; n_flows];
    // Per-constraint bookkeeping: remaining capacity after frozen members,
    // and number of unfrozen members.
    let mut residual: Vec<f64> = constraints.iter().map(|c| c.capacity.max(0.0)).collect();
    let mut unfrozen_count: Vec<usize> = members.iter().map(|m| m.len()).collect();

    let mut level = 0.0_f64;
    let mut remaining_flows = n_flows;

    while remaining_flows > 0 {
        // The next level at which some constraint saturates:
        // cap_c = Σ_frozen r + level'·u_c  ⇒  level' = level + residual_c/u_c
        // where residual_c already accounts for frozen members and the
        // *current* level consumed by unfrozen members.
        let mut next_level = f64::INFINITY;
        for (ci, _) in constraints.iter().enumerate() {
            if unfrozen_count[ci] == 0 {
                continue;
            }
            let candidate = level + residual[ci] / unfrozen_count[ci] as f64;
            if candidate < next_level {
                next_level = candidate;
            }
        }
        if !next_level.is_finite() {
            // No finite constraint applies to the remaining flows; release
            // them at the current level.
            for f in 0..n_flows {
                if !frozen[f] {
                    rate[f] = level;
                }
            }
            break;
        }

        let delta = (next_level - level).max(0.0);
        // Consume capacity for the uniform raise.
        for (ci, _) in constraints.iter().enumerate() {
            residual[ci] -= delta * unfrozen_count[ci] as f64;
        }
        level = next_level;

        // Freeze members of all (numerically) saturated constraints.
        let mut to_freeze: Vec<usize> = Vec::new();
        for (ci, c) in constraints.iter().enumerate() {
            if unfrozen_count[ci] > 0 && residual[ci] <= EPS * c.capacity.max(1.0) {
                for &m in &members[ci] {
                    if !frozen[m] {
                        to_freeze.push(m);
                    }
                }
            }
        }
        debug_assert!(
            !to_freeze.is_empty(),
            "progressive filling must freeze at least one flow per round"
        );
        to_freeze.sort_unstable();
        to_freeze.dedup();
        for f in to_freeze {
            frozen[f] = true;
            rate[f] = level;
            remaining_flows -= 1;
            // Remove this flow from every constraint's unfrozen set; its
            // consumption at `level` is already reflected in `residual`.
            for (ci, m) in members.iter().enumerate() {
                if m.contains(&f) {
                    unfrozen_count[ci] -= 1;
                }
            }
        }
    }

    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::{prop, prop_assert, props};

    fn c(capacity: f64, members: &[usize]) -> Constraint {
        Constraint {
            capacity,
            members: members.to_vec(),
        }
    }

    /// Solve the same system with a freshly built [`WarmSolver`]: every
    /// flow clamped at `cap`, constraint members distinct.
    fn solve_warm(n_flows: usize, cap: f64, constraints: &[Constraint]) -> Vec<f64> {
        let mut cons_of: Vec<Vec<u32>> = vec![Vec::new(); n_flows];
        for (ci, con) in constraints.iter().enumerate() {
            for &m in &con.members {
                cons_of[m].push(ci as u32);
            }
        }
        let stride = cons_of.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut w = WarmSolver::new();
        w.reset(constraints.len(), stride, cap);
        for (ci, con) in constraints.iter().enumerate() {
            w.set_con_cap(ci, con.capacity);
        }
        for cons in &cons_of {
            w.add_flow(cons);
        }
        w.solve().to_vec()
    }

    #[test]
    fn single_constraint_splits_evenly() {
        let constraints = [c(8.0, &[0, 1, 2, 3])];
        assert_eq!(max_min_fair(4, &constraints), vec![2.0; 4]);
        assert_eq!(solve_warm(4, f64::INFINITY, &constraints), vec![2.0; 4]);
    }

    #[test]
    fn per_flow_caps_respected() {
        // Flow 0 capped at 1, the shared pipe of 10 is then split so flow 0
        // gets 1 and flows 1,2 get 4.5 each.
        let constraints = [
            c(10.0, &[0, 1, 2]),
            c(1.0, &[0]),
            c(100.0, &[1]),
            c(100.0, &[2]),
        ];
        for rates in [
            max_min_fair(3, &constraints),
            solve_warm(3, f64::INFINITY, &constraints),
        ] {
            assert!((rates[0] - 1.0).abs() < 1e-9);
            assert!((rates[1] - 4.5).abs() < 1e-9);
            assert!((rates[2] - 4.5).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: flows A(0) on link1+link2, B(1) on link1,
        // C(2) on link2. link1 cap 10, link2 cap 4.
        // Fair: level rises to 2 → link2 saturates, freezes A and C at 2;
        // B continues to 10-2=8.
        let constraints = [c(10.0, &[0, 1]), c(4.0, &[0, 2])];
        for rates in [
            max_min_fair(3, &constraints),
            solve_warm(3, f64::INFINITY, &constraints),
        ] {
            assert!((rates[0] - 2.0).abs() < 1e-9);
            assert!((rates[2] - 2.0).abs() < 1e-9);
            assert!((rates[1] - 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_capacity_gives_zero_rate() {
        let constraints = [c(0.0, &[0]), c(5.0, &[0, 1])];
        for rates in [
            max_min_fair(2, &constraints),
            solve_warm(2, f64::INFINITY, &constraints),
        ] {
            assert_eq!(rates[0], 0.0);
            assert!((rates[1] - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_input() {
        assert!(max_min_fair(0, &[]).is_empty());
        assert!(solve_warm(0, f64::INFINITY, &[]).is_empty());
    }

    #[test]
    fn duplicate_members_count_once() {
        // Regression: a flow listed twice in one constraint used to
        // inflate `unfrozen_count` by 2 while being decremented once at
        // freeze time, skewing the residual split for the others.
        let dup = [
            Constraint {
                capacity: 9.0,
                members: vec![0, 0, 1, 2],
            },
            c(100.0, &[0]),
            c(100.0, &[1]),
            c(100.0, &[2]),
        ];
        let rates = max_min_fair(3, &dup);
        for r in &rates {
            assert!((r - 3.0).abs() < 1e-9, "even three-way split: {rates:?}");
        }
    }

    #[test]
    fn uncovered_flows_release_at_last_level() {
        // Flow 1 is covered by nothing finite: it freezes at the level
        // reached when every covered flow froze (4.0 here).
        let constraints = [c(4.0, &[0])];
        for rates in [
            max_min_fair(2, &constraints),
            solve_warm(2, f64::INFINITY, &constraints),
        ] {
            assert!((rates[0] - 4.0).abs() < 1e-9);
            assert!((rates[1] - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_solver_swap_remove_renames_last_flow() {
        let mut w = WarmSolver::new();
        w.reset(2, 2, f64::INFINITY);
        w.set_con_cap(0, 6.0);
        w.set_con_cap(1, 100.0);
        w.add_flow(&[0]); // flow 0
        w.add_flow(&[0, 1]); // flow 1
        w.add_flow(&[1]); // flow 2
                          // Remove flow 0: flow 2 is renamed to index 0.
        w.remove_flow_swap(0);
        assert_eq!(w.flow_count(), 2);
        let rates = w.solve().to_vec();
        // Remaining system: old flow 2 (con 1 only) and old flow 1
        // (cons 0+1). Con 0 has one member → that flow gets 6; the other
        // continues to 100-6=94.
        assert!((rates[1] - 6.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[0] - 94.0).abs() < 1e-9, "{rates:?}");
        // Membership repair stayed consistent: re-removing the renamed
        // flow empties the system cleanly.
        w.remove_flow_swap(0);
        w.remove_flow_swap(0);
        assert_eq!(w.flow_count(), 0);
        assert!(w.members.iter().all(|m| m.is_empty()));
        assert!(w.solve().is_empty());
    }

    props! {
        /// No constraint is ever violated, and no flow can be raised
        /// without lowering a flow with a smaller-or-equal rate
        /// (max-min optimality witness: every flow has a saturated
        /// constraint, or has the globally maximal rate).
        fn prop_feasible_and_maxmin(
            n_flows in 1usize..12,
            caps in prop::vec(0.1f64..100.0, 1..8),
            seed in 0u64..1000,
        ) {
            // Build random constraints, then one catch-all to cover flows.
            let mut constraints: Vec<Constraint> = Vec::new();
            let mut s = seed;
            let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); (s >> 33) as usize };
            for &cap in &caps {
                let mut members: Vec<usize> = (0..n_flows).filter(|_| next() % 2 == 0).collect();
                if members.is_empty() { members.push(next() % n_flows); }
                constraints.push(Constraint { capacity: cap, members });
            }
            constraints.push(Constraint { capacity: 1000.0, members: (0..n_flows).collect() });

            let rates = max_min_fair(n_flows, &constraints);

            // Feasibility.
            for c in &constraints {
                let used: f64 = c.members.iter().map(|&m| rates[m]).sum();
                prop_assert!(used <= c.capacity + 1e-6, "constraint violated: {used} > {}", c.capacity);
            }
            // Non-negativity.
            for &r in &rates { prop_assert!(r >= 0.0); }
            // Max-min witness: every flow is in some ~saturated constraint.
            for f in 0..n_flows {
                let has_tight = constraints.iter().any(|c| {
                    c.members.contains(&f) && {
                        let used: f64 = c.members.iter().map(|&m| rates[m]).sum();
                        used >= c.capacity - 1e-6 * c.capacity.max(1.0)
                    }
                });
                prop_assert!(has_tight, "flow {f} has headroom everywhere");
            }
        }

        /// Warm-start repair under join/leave churn matches the reference
        /// after every solve: `max_min_fair` over the same constraint
        /// sets, with a finite uniform cap encoded as one singleton
        /// constraint per flow, to `1e-9 · max(|r|, 1)`.
        fn prop_warm_churn_matches_reference(
            n_cons in 1usize..10,
            n_ops in 1usize..50,
            cap_sel in 0usize..4,
            seed in 0u64..1500,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as usize
            };
            // Uniform cap: sometimes uncapped, sometimes tight.
            let cap = if cap_sel == 0 { f64::INFINITY } else { (cap_sel * 7) as f64 / 2.0 };

            let mut w = WarmSolver::new();
            w.reset(n_cons, 3, cap);
            let mut con_cap = vec![0.0; n_cons];
            for (c, v) in con_cap.iter_mut().enumerate() {
                *v = match next() % 6 {
                    0 => 0.0,
                    k => (k * (1 + next() % 20)) as f64 / 3.0,
                };
                w.set_con_cap(c, *v);
            }

            // Mirror of each flow's memberships (in warm index order, so
            // removals replay the same swap_remove renaming).
            let mut mirror: Vec<Vec<u32>> = Vec::new();
            let mut cons_buf: Vec<u32> = Vec::new();

            for _ in 0..n_ops {
                if mirror.is_empty() || next() % 3 != 0 {
                    // Join with 0..=3 distinct constraints (degree 0
                    // exercises the release path under infinite cap).
                    cons_buf.clear();
                    let deg = next() % 4;
                    while cons_buf.len() < deg.min(n_cons) {
                        let c = (next() % n_cons) as u32;
                        if !cons_buf.contains(&c) {
                            cons_buf.push(c);
                        }
                    }
                    let f = w.add_flow(&cons_buf);
                    prop_assert!(f as usize == mirror.len());
                    mirror.push(cons_buf.clone());
                } else {
                    let f = next() % mirror.len();
                    w.remove_flow_swap(f as u32);
                    mirror.swap_remove(f);
                }
                // Occasionally refresh a capacity (epoch-style).
                if next() % 4 == 0 {
                    let c = next() % n_cons;
                    con_cap[c] = (next() % 50) as f64 / 3.0;
                    w.set_con_cap(c, con_cap[c]);
                }

                // The reference encoding of the identical system.
                let n = mirror.len();
                let mut constraints: Vec<Constraint> = con_cap
                    .iter()
                    .map(|&capacity| Constraint { capacity, members: Vec::new() })
                    .collect();
                for (f, cs) in mirror.iter().enumerate() {
                    for &c in cs {
                        constraints[c as usize].members.push(f);
                    }
                }
                if cap.is_finite() {
                    constraints.extend((0..n).map(|f| Constraint { capacity: cap, members: vec![f] }));
                }
                let expect = max_min_fair(n, &constraints);
                let got = w.solve();
                prop_assert!(expect.len() == got.len());
                for f in 0..n {
                    let tol = 1e-9 * expect[f].abs().max(1.0);
                    prop_assert!(
                        (expect[f] - got[f]).abs() <= tol,
                        "flow {f}: reference {} vs warm {} after churn (tol {tol})",
                        expect[f],
                        got[f]
                    );
                }
            }
        }
    }
}
