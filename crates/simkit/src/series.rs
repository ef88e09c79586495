//! Step-function time series.
//!
//! Traces recorded by the simulators (total Lustre throughput, allocated
//! nodes, reservation levels) are piecewise-constant: a sample `(t, v)`
//! means "the value is `v` from `t` until the next sample". That convention
//! matches both the 1 s monitoring cadence and the reservation profiles.

use crate::time::SimTime;

/// A piecewise-constant time series with non-decreasing timestamps.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a sample. Timestamps must be non-decreasing; a sample at the
    /// same timestamp as the previous one overwrites it (last write wins).
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(last) = self.points.last_mut() {
            assert!(t >= last.0, "TimeSeries timestamps must be non-decreasing");
            if last.0 == t {
                last.1 = v;
                return;
            }
        }
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Value at time `t` (the last sample at or before `t`);
    /// 0.0 before the first sample or for an empty series.
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Integral of the step function over `[from, to)`, in value·seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cur_t = from;
        let mut cur_v = self.value_at(from);
        let start = match self.points.binary_search_by(|&(pt, _)| pt.cmp(&from)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        for &(pt, pv) in &self.points[start..] {
            if pt >= to {
                break;
            }
            acc += cur_v * (pt - cur_t).as_secs_f64();
            cur_t = pt;
            cur_v = pv;
        }
        acc += cur_v * (to - cur_t).as_secs_f64();
        acc
    }

    /// Time-average of the series over `[from, to)`.
    pub fn time_average(&self, from: SimTime, to: SimTime) -> f64 {
        let dt = (to.saturating_since(from)).as_secs_f64();
        if dt == 0.0 {
            0.0
        } else {
            self.integral(from, to) / dt
        }
    }

    /// Maximum sampled value (`None` if empty).
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Timestamp of the last sample.
    pub fn last_time(&self) -> Option<SimTime> {
        self.points.last().map(|&(t, _)| t)
    }

    /// Resample the step function onto a regular grid `[start, end)` with
    /// step `dt_ms` milliseconds. Used to emit figure data rows.
    pub fn resample(&self, start: SimTime, end: SimTime, dt_ms: u64) -> Vec<(SimTime, f64)> {
        assert!(dt_ms > 0);
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            out.push((t, self.value_at(t)));
            t = SimTime::from_millis(t.as_millis() + dt_ms);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prop, prop_assert, prop_assert_eq, props};

    fn ts(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in points {
            s.push(SimTime::from_secs(t), v);
        }
        s
    }

    #[test]
    fn value_at_step_semantics() {
        let s = ts(&[(1, 10.0), (3, 20.0)]);
        assert_eq!(s.value_at(SimTime::ZERO), 0.0);
        assert_eq!(s.value_at(SimTime::from_secs(1)), 10.0);
        assert_eq!(s.value_at(SimTime::from_secs(2)), 10.0);
        assert_eq!(s.value_at(SimTime::from_secs(3)), 20.0);
        assert_eq!(s.value_at(SimTime::from_secs(100)), 20.0);
    }

    #[test]
    fn same_timestamp_overwrites() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(1), 5.0);
        s.push(SimTime::from_secs(1), 7.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(SimTime::from_secs(1)), 7.0);
    }

    #[test]
    #[should_panic]
    fn decreasing_time_panics() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(2), 1.0);
        s.push(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn integral_of_steps() {
        // 10 on [1,3), 20 on [3,..)
        let s = ts(&[(1, 10.0), (3, 20.0)]);
        assert_eq!(
            s.integral(SimTime::from_secs(1), SimTime::from_secs(3)),
            20.0
        );
        assert_eq!(
            s.integral(SimTime::from_secs(0), SimTime::from_secs(3)),
            20.0
        );
        assert_eq!(
            s.integral(SimTime::from_secs(2), SimTime::from_secs(4)),
            30.0
        );
        assert_eq!(
            s.integral(SimTime::from_secs(5), SimTime::from_secs(5)),
            0.0
        );
        assert_eq!(
            s.time_average(SimTime::from_secs(1), SimTime::from_secs(3)),
            10.0
        );
    }

    #[test]
    fn integral_empty_and_reversed() {
        let s = TimeSeries::new();
        assert_eq!(s.integral(SimTime::ZERO, SimTime::from_secs(10)), 0.0);
        let s = ts(&[(0, 1.0)]);
        assert_eq!(
            s.integral(SimTime::from_secs(5), SimTime::from_secs(2)),
            0.0
        );
    }

    #[test]
    fn resample_grid() {
        let s = ts(&[(0, 1.0), (2, 3.0)]);
        let grid = s.resample(SimTime::ZERO, SimTime::from_secs(4), 1000);
        let vals: Vec<f64> = grid.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn max_and_last() {
        let s = ts(&[(0, 1.0), (1, 9.0), (2, 3.0)]);
        assert_eq!(s.max_value(), Some(9.0));
        assert_eq!(s.last_time(), Some(SimTime::from_secs(2)));
        assert_eq!(TimeSeries::new().max_value(), None);
    }

    props! {
        /// value_at agrees with a naive linear scan at arbitrary probes.
        fn prop_value_at_matches_linear_scan(
            raw in prop::vec((0u64..100, -10.0f64..10.0), 1..40),
            probe in 0u64..120,
        ) {
            let mut pts: Vec<(u64, f64)> = raw;
            pts.sort_by_key(|&(t, _)| t);
            pts.dedup_by_key(|&mut (t, _)| t);
            let s = ts(&pts);
            let naive = pts
                .iter()
                .rfind(|&&(t, _)| t <= probe)
                .map_or(0.0, |&(_, v)| v);
            prop_assert_eq!(s.value_at(SimTime::from_secs(probe)), naive);
        }

        /// Resampling points are exactly value_at on the grid.
        fn prop_resample_matches_value_at(
            raw in prop::vec((0u64..50, -5.0f64..5.0), 1..20),
            step_s in 1u64..10,
        ) {
            let mut pts: Vec<(u64, f64)> = raw;
            pts.sort_by_key(|&(t, _)| t);
            pts.dedup_by_key(|&mut (t, _)| t);
            let s = ts(&pts);
            let grid = s.resample(SimTime::ZERO, SimTime::from_secs(60), step_s * 1000);
            prop_assert_eq!(grid.len(), (60 / step_s + (60 % step_s != 0) as u64) as usize);
            for (t, v) in grid {
                prop_assert_eq!(v, s.value_at(t));
            }
        }

        /// Integral over [a,c) equals integral over [a,b) + [b,c).
        fn prop_integral_additive(
            raw in prop::vec((0u64..100, -10.0f64..10.0), 1..40),
            a in 0u64..120, b in 0u64..120, c in 0u64..120,
        ) {
            let mut pts: Vec<(u64, f64)> = raw;
            pts.sort_by_key(|&(t, _)| t);
            pts.dedup_by_key(|&mut (t, _)| t);
            let s = ts(&pts);
            let mut cuts = [a, b, c];
            cuts.sort_unstable();
            let [a, b, c] = cuts;
            let (ta, tb, tc) = (
                SimTime::from_secs(a),
                SimTime::from_secs(b),
                SimTime::from_secs(c),
            );
            let whole = s.integral(ta, tc);
            let split = s.integral(ta, tb) + s.integral(tb, tc);
            prop_assert!((whole - split).abs() < 1e-6, "{whole} vs {split}");
        }
    }
}
