//! The "two-group" approximation (paper §VII-A, Eqs. 2–5).
//!
//! The naïve workload-adaptive scheduler refrains from scheduling any
//! file-system-using job once the target throughput `R̃` is reached —
//! which idles nodes when too few genuinely-zero-throughput jobs are
//! queued. The two-group approximation instead *declares* the lowest-I/O
//! part of the queue "zero jobs":
//!
//! * a threshold `r*` on the per-node load `ρ_j = r_j / n_j` splits the
//!   queue so that the zero group carries at least a QoS fraction (the
//!   paper uses one half) of the queued node-time — Eq. (2);
//! * the zero group's average per-node load `r̄_zero` — Eq. (3) — is then
//!   subtracted from the target (Eq. 4: `R̃′ = R̃ − N·r̄_zero`) and from
//!   every regular job's requirement (Eq. 5: `r_j′ = r_j − n_j·r̄_zero`),
//!   so that holding `Σ r_j′` near `R̃′` is, time-averaged, the same as
//!   holding `Σ r_j` near `R̃`.
//!
//! Reconstruction note: Eq. (3) as printed (`Σ r_j n_j d_j / Σ n_j d_j`)
//! is dimensionally inconsistent with Eqs. (4)–(5), where `r̄_zero`
//! multiplies a node count. For the paper's workloads (`n_j = 1`
//! everywhere) the forms coincide; we implement the dimensionally
//! consistent per-node average `Σ ρ_j·n_j·d_j / Σ n_j·d_j = Σ r_j·d_j / Σ n_j·d_j`.

use iosched_simkit::ids::JobId;

/// One queued job's data relevant to the split, computed once per round.
#[derive(Clone, Copy, Debug)]
pub struct SplitJob {
    pub id: JobId,
    /// Per-node load `ρ_j = r_j / n_j`.
    pub rho: f64,
    /// Node-time `n_j · d_j`.
    pub node_time: f64,
}

impl SplitJob {
    /// The split data of a job with estimated throughput `r_bps`
    /// (bytes/s), `nodes` nodes and estimated runtime `d_secs`.
    pub fn new(id: JobId, r_bps: f64, nodes: usize, d_secs: f64) -> SplitJob {
        SplitJob {
            id,
            rho: r_bps / nodes.max(1) as f64,
            node_time: nodes as f64 * d_secs,
        }
    }
}

/// Result of the two-group split.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TwoGroupSplit {
    /// The threshold `r*` (per-node load; a job is "zero" iff `ρ_j ≤ r*`).
    pub r_star: f64,
    /// Average per-node load of the zero group, `r̄_zero` (Eq. 3).
    pub r_zero_bar: f64,
}

impl TwoGroupSplit {
    /// Split with threshold 0 — the "naïve" adaptive scheduler: only
    /// genuinely zero-throughput jobs are zero jobs, and no adjustment is
    /// applied.
    pub const NAIVE: TwoGroupSplit = TwoGroupSplit {
        r_star: 0.0,
        r_zero_bar: 0.0,
    };

    /// Is this job in the zero group under this split?
    pub fn is_zero(&self, r_bps: f64, nodes: usize) -> bool {
        r_bps / nodes.max(1) as f64 <= self.r_star + f64::EPSILON
    }
}

/// Reusable buffers of [`two_group_split`]. They keep nothing between
/// calls beyond their allocations, so one scratch serves every
/// scheduling round allocation-free once warm.
#[derive(Clone, Debug, Default)]
pub struct SplitScratch {
    /// Maximal runs of queue-adjacent jobs with equal ρ keys:
    /// `(key, first index, end index)`.
    runs: Vec<(u64, u32, u32)>,
    /// Job indices in `(ρ, id)` order.
    order: Vec<u32>,
}

/// An order-preserving integer key for a non-NaN load: keys compare as
/// the loads do under `partial_cmp`, so −0.0 is folded into +0.0 first.
fn rho_key(rho: f64) -> u64 {
    assert!(!rho.is_nan(), "NaN load");
    let rho = if rho == 0.0 { 0.0 } else { rho };
    let bits = rho.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

impl SplitScratch {
    /// Indices of `jobs` in `(ρ, id)` order. A queue holds few distinct
    /// loads (one per job name and width), and jobs of one name arrive
    /// together, so the queue is cut into runs of equal ρ and only the
    /// runs are sorted, by `(ρ, position)`: each class is then its jobs
    /// in queue order, and sorting a class by id is linear when the
    /// queue is already in id order, as a FIFO queue is.
    fn order_by_rho(&mut self, jobs: &[SplitJob]) -> &[u32] {
        self.runs.clear();
        for (i, j) in (0u32..).zip(jobs) {
            let key = rho_key(j.rho);
            match self.runs.last_mut() {
                Some(run) if run.0 == key => run.2 = i + 1,
                _ => self.runs.push((key, i, i + 1)),
            }
        }
        self.runs
            .sort_unstable_by_key(|&(key, start, _)| (key, start));

        self.order.clear();
        let mut class_start = 0;
        for (r, &(key, start, end)) in self.runs.iter().enumerate() {
            self.order.extend(start..end);
            if self.runs.get(r + 1).is_none_or(|next| next.0 != key) {
                self.order[class_start..].sort_unstable_by_key(|&k| jobs[k as usize].id);
                class_start = self.order.len();
            }
        }
        &self.order
    }
}

/// Compute the minimal threshold `r*` satisfying Eq. (2) with the given
/// QoS fraction (paper: 0.5 — at least half the queued node-time must not
/// be delayed by throughput regulation), then `r̄_zero` over the resulting
/// zero group.
///
/// Jobs are taken in `(ρ_j, id)` order; the threshold is the smallest job
/// `ρ` at which the cumulative zero-group node-time reaches
/// `qos_fraction · total node-time`. An empty queue yields a trivial
/// all-zero split. `jobs` is the wait queue in queue order, which fixes
/// the order the total node-time is summed in.
pub fn two_group_split(
    jobs: &[SplitJob],
    qos_fraction: f64,
    scratch: &mut SplitScratch,
) -> TwoGroupSplit {
    assert!(
        (0.0..=1.0).contains(&qos_fraction),
        "qos_fraction must be in [0, 1]"
    );
    if jobs.is_empty() {
        return TwoGroupSplit::default();
    }
    let order = scratch.order_by_rho(jobs);
    let total_node_time: f64 = jobs.iter().map(|j| j.node_time).sum();
    let need = qos_fraction * total_node_time;

    // Find the smallest prefix (in ρ order, whole ρ-ties included) whose
    // node-time reaches the QoS requirement.
    let mut acc = 0.0;
    let mut r_star = 0.0;
    let mut cut = 0; // first index NOT in the zero group
    for (i, &ji) in order.iter().enumerate() {
        let j = &jobs[ji as usize];
        acc += j.node_time;
        r_star = j.rho;
        cut = i + 1;
        if acc + 1e-12 >= need {
            // Include all jobs tied at the threshold (ρ_j ≤ r* is the
            // group definition, so ties cannot straddle the cut). Only
            // scanned once, here at the break — a tie scan per iteration
            // turns heavily-tied queues quadratic.
            cut += order[cut..]
                .iter()
                .take_while(|&&k| jobs[k as usize].rho <= r_star)
                .count();
            break;
        }
    }

    let zero = &order[..cut];
    let zero_node_time: f64 = zero.iter().map(|&k| jobs[k as usize].node_time).sum();
    let r_zero_bar = if zero_node_time > 0.0 {
        zero.iter()
            .map(|&k| {
                let j = &jobs[k as usize];
                j.rho * j.node_time
            })
            .sum::<f64>()
            / zero_node_time
    } else {
        0.0
    };
    TwoGroupSplit { r_star, r_zero_bar }
}

/// The full parameter set the adaptive tracker needs (Algorithm 5,
/// lines 3–8): the target `R̃`, the split, and the adjusted target `R̃′`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoGroupParams {
    /// Target total throughput `R̃` (Eq. 1 generalised to running jobs).
    pub r_tilde_bps: f64,
    /// Adjusted target `R̃′ = max(0, R̃ − N·r̄_zero)` (Eq. 4).
    pub r_tilde_prime_bps: f64,
    /// The queue split.
    pub split: TwoGroupSplit,
}

impl TwoGroupParams {
    /// Adjusted requirement `r_j′` of a job (Eq. 5).
    pub fn adjusted_r(&self, r_bps: f64, nodes: usize) -> f64 {
        if self.split.is_zero(r_bps, nodes) {
            0.0
        } else {
            r_bps - nodes as f64 * self.split.r_zero_bar
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use iosched_simkit::{prop, prop_assert, prop_assert_eq, props};

    /// The split as a comparison sort computes it: an index vector
    /// sorted by `(ρ, id)` under `partial_cmp`, then the same prefix scan.
    /// [`two_group_split`] must equal it bit for bit.
    pub(crate) fn comparison_sort_split(jobs: &[SplitJob], qos_fraction: f64) -> TwoGroupSplit {
        if jobs.is_empty() {
            return TwoGroupSplit::default();
        }
        let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (&jobs[a as usize], &jobs[b as usize]);
            a.rho
                .partial_cmp(&b.rho)
                .expect("NaN load")
                .then(a.id.cmp(&b.id))
        });
        let total_node_time: f64 = jobs.iter().map(|j| j.node_time).sum();
        let need = qos_fraction * total_node_time;
        let mut acc = 0.0;
        let mut r_star = 0.0;
        let mut cut = 0;
        for (i, &ji) in order.iter().enumerate() {
            let j = &jobs[ji as usize];
            acc += j.node_time;
            r_star = j.rho;
            cut = i + 1;
            if acc + 1e-12 >= need {
                cut += order[cut..]
                    .iter()
                    .take_while(|&&k| jobs[k as usize].rho <= r_star)
                    .count();
                break;
            }
        }
        let zero = &order[..cut];
        let zero_node_time: f64 = zero.iter().map(|&k| jobs[k as usize].node_time).sum();
        let r_zero_bar = if zero_node_time > 0.0 {
            zero.iter()
                .map(|&k| jobs[k as usize].rho * jobs[k as usize].node_time)
                .sum::<f64>()
                / zero_node_time
        } else {
            0.0
        };
        TwoGroupSplit { r_star, r_zero_bar }
    }

    /// `(id, r, nodes, d)` rows.
    type Row = (u64, f64, usize, f64);

    fn split_jobs(rows: &[Row]) -> Vec<SplitJob> {
        rows.iter()
            .map(|&(id, r, n, d)| SplitJob::new(JobId(id), r, n, d))
            .collect()
    }

    fn split(rows: &[Row], qos: f64) -> TwoGroupSplit {
        two_group_split(&split_jobs(rows), qos, &mut SplitScratch::default())
    }

    /// Ids of the zero-group jobs, in row order.
    fn zeros(s: &TwoGroupSplit, rows: &[Row]) -> Vec<u64> {
        rows.iter()
            .filter(|&&(_, r, n, _)| s.is_zero(r, n))
            .map(|&(id, ..)| id)
            .collect()
    }

    #[test]
    fn empty_queue_trivial_split() {
        let s = split(&[], 0.5);
        assert_eq!(s.r_star, 0.0);
        assert_eq!(s.r_zero_bar, 0.0);
    }

    #[test]
    fn half_the_node_time_lands_in_zero_group() {
        // Four equal-node-time jobs with distinct loads: the two lightest
        // make exactly half.
        let rows = [
            (1, 0.0, 1, 100.0),
            (2, 1.0, 1, 100.0),
            (3, 5.0, 1, 100.0),
            (4, 9.0, 1, 100.0),
        ];
        let s = split(&rows, 0.5);
        assert_eq!(zeros(&s, &rows), [1, 2]);
        assert_eq!(s.r_star, 1.0);
        assert!((s.r_zero_bar - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_heavy_queue_gets_zero_threshold() {
        // Plenty of genuinely-zero jobs: the threshold stays at 0 and the
        // adaptive scheduler behaves like the naïve one.
        let rows = [(1, 0.0, 1, 600.0), (2, 0.0, 1, 600.0), (3, 4.0, 1, 100.0)];
        let s = split(&rows, 0.5);
        assert_eq!(s, TwoGroupSplit::NAIVE);
        assert_eq!(zeros(&s, &rows), [1, 2]);
    }

    #[test]
    fn io_heavy_queue_promotes_light_writers_to_zero() {
        // Few sleeps: Eq. (2) forces light writers into the zero group.
        let rows = [
            (1, 0.0, 1, 100.0), // sleep
            (2, 2.0, 1, 100.0), // light writer
            (3, 2.0, 1, 100.0), // light writer
            (4, 8.0, 1, 100.0), // heavy
        ];
        let s = split(&rows, 0.5);
        assert_eq!(s.r_star, 2.0);
        // Ties at ρ = 2 are all included.
        assert_eq!(zeros(&s, &rows), [1, 2, 3]);
        assert!((s.r_zero_bar - (0.0 + 2.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multi_node_jobs_use_per_node_load() {
        // Job 2 has r=8 over 8 nodes (ρ=1): lighter per node than job 3
        // with r=2 on one node (ρ=2).
        let rows = [(1, 0.0, 1, 100.0), (2, 8.0, 8, 100.0), (3, 2.0, 1, 100.0)];
        let s = split(&rows, 0.5);
        // total node-time 1000; need 500: job1 (100) + job2 (800) = 900.
        assert_eq!(zeros(&s, &rows), [1, 2]);
        assert_eq!(s.r_star, 1.0);
        // r̄_zero = (0·100 + 1·800)/900.
        assert!((s.r_zero_bar - 800.0 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn negative_zero_shares_a_class_with_positive_zero() {
        // `partial_cmp` ties −0.0 with +0.0, so the class is ordered by
        // id alone and job 1's +0.0 becomes r*, not job 2's −0.0.
        let rows = [(2, -0.0, 1, 100.0), (1, 0.0, 1, 100.0), (3, 5.0, 1, 100.0)];
        let s = split(&rows, 0.0);
        assert_eq!(s.r_star.to_bits(), 0.0f64.to_bits());
        assert_eq!(s, comparison_sort_split(&split_jobs(&rows), 0.0));
    }

    #[test]
    #[should_panic(expected = "NaN load")]
    fn nan_load_panics() {
        split(&[(1, f64::NAN, 1, 100.0)], 0.5);
    }

    #[test]
    fn scratch_is_fully_overwritten_between_calls() {
        let mut scratch = SplitScratch::default();
        let many = split_jobs(&[
            (1, 0.0, 1, 100.0),
            (2, 1.0, 1, 100.0),
            (3, 5.0, 2, 100.0),
            (4, 9.0, 1, 100.0),
        ]);
        let fewer = split_jobs(&[(7, 3.0, 1, 10.0)]);
        for jobs in [&many, &fewer, &many] {
            let s = two_group_split(jobs, 0.5, &mut scratch);
            assert_eq!(s, comparison_sort_split(jobs, 0.5));
        }
    }

    #[test]
    fn naive_split_only_true_zero_jobs() {
        let s = TwoGroupSplit::NAIVE;
        assert!(s.is_zero(0.0, 1));
        assert!(!s.is_zero(0.1, 1));
    }

    #[test]
    fn adjusted_requirements_eq5() {
        let params = TwoGroupParams {
            r_tilde_bps: 10.0,
            r_tilde_prime_bps: 8.0,
            split: TwoGroupSplit {
                r_star: 1.0,
                r_zero_bar: 0.5,
            },
        };
        assert_eq!(params.adjusted_r(0.5, 1), 0.0); // zero job
        assert_eq!(params.adjusted_r(5.0, 1), 4.5); // regular, minus r̄_zero
        assert_eq!(params.adjusted_r(5.0, 2), 4.0); // scales with nodes
    }

    /// Queues for the oracle property: `rows` in queue order.
    ///
    /// * `palette` holds the loads of up to 8 ρ classes: kind 0 is +0.0,
    ///   kind 1 is −0.0, any other kind is the drawn value. With
    ///   `distinct` set, each job takes its own drawn load instead.
    /// * Widths are powers of two and `r = ρ·n`, so equal ρ arises from
    ///   different `(r, n)` pairs exactly.
    /// * With `fifo` unset, ids are a permutation of the queue positions.
    fn oracle_rows(
        palette: &[(u32, f64)],
        raw: &[(usize, u32, f64, f64, u64)],
        distinct: bool,
        fifo: bool,
    ) -> Vec<Row> {
        let mut ids: Vec<u64> = (0..raw.len() as u64).collect();
        if !fifo {
            ids.sort_by_key(|&i| (raw[i as usize].4, i));
        }
        raw.iter()
            .zip(ids)
            .map(|(&(class, width_exp, own, d, _), id)| {
                let rho = if distinct {
                    own
                } else {
                    match palette[class % palette.len()] {
                        (0, _) => 0.0,
                        (1, _) => -0.0,
                        (_, v) => v,
                    }
                };
                let n = 1usize << width_exp;
                (id, rho * n as f64, n, d)
            })
            .collect()
    }

    props! {
        /// The class-ordered split equals the comparison-sort split bit
        /// for bit, and puts every job in the same group.
        fn prop_split_matches_comparison_sort(
            palette in prop::vec((0u32..5, 0.0f64..10.0), 1..9),
            raw in prop::vec((0usize..8, 0u32..4, 0.0f64..10.0, 1.0f64..500.0, 0u64..1_000), 0..40),
            flags in (0u32..4, 0u32..2, 0usize..3),
        ) {
            let (shape, fifo, qos_idx) = flags;
            // One queue in four takes a distinct load per job; short
            // queues (0 or 1 job) come from the shrinking vector lengths
            // and from these truncations.
            let rows = oracle_rows(&palette, &raw, shape == 0, fifo == 1);
            let rows = match shape {
                1 => &rows[..rows.len().min(1)],
                _ => &rows[..],
            };
            let qos = [0.0, 0.5, 1.0][qos_idx];
            let jobs = split_jobs(rows);
            let got = two_group_split(&jobs, qos, &mut SplitScratch::default());
            let want = comparison_sort_split(&jobs, qos);
            prop_assert_eq!(got.r_star.to_bits(), want.r_star.to_bits(), "r*: {got:?} vs {want:?}");
            prop_assert_eq!(
                got.r_zero_bar.to_bits(),
                want.r_zero_bar.to_bits(),
                "r̄_zero: {got:?} vs {want:?}"
            );
            for &(id, r, n, _) in rows {
                prop_assert_eq!(got.is_zero(r, n), want.is_zero(r, n), "job {id}");
            }
        }

        /// Eq. (2): zero-group node-time ≥ qos·total; threshold is minimal
        /// (dropping the jobs at ρ = r* would violate the requirement);
        /// r̄_zero ≤ r*; adjusted regular requirements are non-negative.
        fn prop_split_invariants(
            raw in prop::vec((0.0f64..10.0, 1usize..4, 1.0f64..100.0), 1..30),
            qos in 0.05f64..0.95,
        ) {
            let rows: Vec<Row> = raw
                .iter()
                .enumerate()
                .map(|(i, &(r, n, d))| (i as u64, r, n, d))
                .collect();
            let jobs = split_jobs(&rows);
            let s = two_group_split(&jobs, qos, &mut SplitScratch::default());
            let total: f64 = jobs.iter().map(|x| x.node_time).sum();
            let zero_nt: f64 = jobs
                .iter()
                .zip(&rows)
                .filter(|(_, &(_, r, n, _))| s.is_zero(r, n))
                .map(|(x, _)| x.node_time)
                .sum();
            prop_assert!(zero_nt + 1e-9 >= qos * total, "QoS violated: {zero_nt} < {}", qos * total);
            // Minimality: excluding the ρ = r* tier must violate the QoS.
            let below_nt: f64 = jobs
                .iter()
                .filter(|x| x.rho < s.r_star - 1e-12)
                .map(|x| x.node_time)
                .sum();
            if s.r_star > 0.0 {
                prop_assert!(below_nt < qos * total + 1e-6);
            }
            // r̄_zero is an average of ρ ≤ r*.
            prop_assert!(s.r_zero_bar <= s.r_star + 1e-9);
            // Adjusted regular requirements are non-negative.
            let params = TwoGroupParams {
                r_tilde_bps: 0.0,
                r_tilde_prime_bps: 0.0,
                split: s,
            };
            for &(_, r, n, _) in &rows {
                prop_assert!(params.adjusted_r(r, n) >= -1e-9);
            }
        }
    }
}
