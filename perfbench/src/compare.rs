//! `benchmark compare <dirA> <dirB>`: for each workload × end-to-end
//! metric, the median and quartiles of the untraced runs saved in each
//! directory (`--out`), and a verdict for B against A under the metric's
//! bound in `BENCHMARK.json`:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — either side's quartile spread exceeds the bound, so
//!   the runs cannot tell, unless every run of B beats every run of A;
//! * `better` — B beats A in at least nine tenths of all (A, B) pairs and
//!   the medians differ by more than A's own quartile spread;
//! * `same` — otherwise.

use iosched_simkit::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's direction and regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let items = root
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without a string `{k}`"))
            };
            Ok(Bound {
                name: s("name")?,
                higher_is_better: s("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without a numeric `bound`")?,
            })
        })
        .collect()
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method (what Python's
/// `statistics.quantiles(values, n=4)` computes). A single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// How B compares with A on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative quartile spread of a sample.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let sign = if bound.higher_is_better { 1.0 } else { -1.0 };
    // Positive when `y` is better than `x`.
    let gain = |x: f64, y: f64| sign * (y - x);
    let (ma, mb) = (median(a), median(b));
    let rel_gain = gain(ma, mb) / ma.abs().max(f64::MIN_POSITIVE);
    let pairs = a.len() * b.len();
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| gain(x, y) > 0.0))
        .filter(|&w| w)
        .count();
    if spread(a).max(spread(b)) > bound.bound {
        return if wins == pairs {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if -rel_gain > bound.bound {
        Verdict::Worse
    } else if wins * 10 >= pairs * 9 && rel_gain > spread(a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Untraced results in `dir`: workload → metric → values.
fn load_runs(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("E2E_") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = root
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{}: no workload", path.display()))?;
        let Some(Value::Object(metrics)) = root.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let per_metric = out.entry(workload.to_string()).or_default();
        for (metric, v) in metrics {
            if let Some(x) = v.get("value").and_then(Value::as_f64) {
                per_metric.entry(metric.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// Print the comparison table; returns the verdicts, in table order.
pub fn compare(dir_a: &Path, dir_b: &Path, bounds: &[Bound]) -> Result<Vec<Verdict>, String> {
    let runs_a = load_runs(dir_a)?;
    let runs_b = load_runs(dir_b)?;
    let mut verdicts = Vec::new();
    println!(
        "{:<16} {:<12} {:>4} {:>12} {:>12} {:>12} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "A.q1",
        "A.median",
        "A.q3",
        "nB",
        "B.q1",
        "B.median",
        "B.q3",
        "delta",
        "bound"
    );
    for (workload, metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(workload) else {
            println!("{workload:<16} (no runs in {})", dir_b.display());
            continue;
        };
        for bound in bounds {
            let (Some(a), Some(b)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            let v = verdict(a, b, bound);
            let ((a1, a3), (b1, b3)) = (quartiles(a), quartiles(b));
            let (ma, mb) = (median(a), median(b));
            println!(
                "{workload:<16} {:<12} {:>4} {a1:>12.6} {ma:>12.6} {a3:>12.6} {:>4} {b1:>12.6} {mb:>12.6} {b3:>12.6} {:>+7.2}% {:>5.0}%  {}",
                bound.name,
                a.len(),
                b.len(),
                100.0 * (mb - ma) / ma,
                100.0 * bound.bound,
                v.label()
            );
            verdicts.push(v);
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let worse = [80.0, 81.0, 79.0, 80.5, 79.5];
        let better = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &same, &bound(true)), Verdict::Same);
        assert_eq!(verdict(&a, &worse, &bound(true)), Verdict::Worse);
        assert_eq!(verdict(&a, &better, &bound(true)), Verdict::Better);
        assert_eq!(verdict(&a, &noisy, &bound(true)), Verdict::Unresolved);
        // Lower-is-better flips the direction.
        assert_eq!(verdict(&a, &worse, &bound(false)), Verdict::Better);
        assert_eq!(verdict(&a, &better, &bound(false)), Verdict::Worse);
    }
}
