//! Statistics helpers for the experiment harnesses.
//!
//! The paper reports skewed distributions (Fig. 6 uses a swarm plot with
//! medians; Fig. 4 uses box plots), so the quantile machinery here is the
//! primary reporting path rather than means.

/// Online count/mean/min/max accumulator (running mean as in Welford's
/// algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (NaN-free input assumed; +inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Linear-interpolation quantile of an **already sorted** slice,
/// `q ∈ [0, 1]`. Returns `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Quantile of an unsorted slice (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&v, q)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Five-number summary used for the Fig. 4 box plots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxStats {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Number of samples summarised.
    pub count: usize,
}

impl BoxStats {
    /// Compute the summary of a non-empty sample; `None` if empty.
    pub fn from_samples(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in BoxStats input"));
        Some(BoxStats {
            min: v[0],
            q1: quantile_sorted(&v, 0.25).unwrap(),
            median: quantile_sorted(&v, 0.5).unwrap(),
            q3: quantile_sorted(&v, 0.75).unwrap(),
            max: v[v.len() - 1],
            count: v.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prop, prop_assert, props};

    #[test]
    fn online_stats_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn box_stats_basic() {
        let b = BoxStats::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.count, 5);
        assert!(BoxStats::from_samples(&[]).is_none());
    }

    props! {
        fn prop_quantiles_monotone_and_bounded(
            mut v in prop::vec(-1e6f64..1e6, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = (q1.min(q2), q1.max(q2));
            let a = quantile_sorted(&v, lo).unwrap();
            let b = quantile_sorted(&v, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
            prop_assert!(a >= v[0] - 1e-9 && b <= v[v.len() - 1] + 1e-9);
        }

        fn prop_online_mean_within_bounds(v in prop::vec(-1e3f64..1e3, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &v { s.push(x); }
            prop_assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
        }
    }
}
