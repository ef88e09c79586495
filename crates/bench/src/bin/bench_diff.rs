//! Compare two `BENCH_*.json` files and print per-case deltas.
//!
//! Two modes:
//!
//! * **Report** (default): never fails the build, exits 0 whenever both
//!   files parse.
//! * **Gate** (`--gate <factor>`): exits 1 when any case present in both
//!   files regressed by more than `factor`× on `min_ns_per_iter` — the
//!   CI perf-regression gate. Cases that appear only on one side are
//!   reported as `(new)`/`(gone)` but never gate (new benchmarks must be
//!   able to land); a counter that disappears does fail the gate, since
//!   a vanished tally would otherwise hide any growth.
//!   Smoke-mode files (`--smoke` runs, one untrusted sample per case)
//!   are refused: gating on them would be noise.
//!
//! `--gate <factor> --counters-only` restricts the gate to the
//! deterministic `counters` entries and skips the timing cases entirely.
//! Counters carry no timing noise — they are exact event tallies — so
//! this mode accepts smoke files, which is how CI's per-commit loop
//! gates the scale suite's event counts without paying for the full
//! sweep.
//!
//! Typical workflow — stash a baseline, make a change, re-run the bench,
//! then:
//!
//! ```text
//! bench_diff /tmp/BENCH_micro_before.json results/bench/BENCH_micro.json
//! bench_diff --gate 2.0 /tmp/BENCH_micro_before.json results/bench/BENCH_micro.json
//! ```
//!
//! Deltas are computed on `min_ns_per_iter` (the least noise-sensitive
//! statistic); median is shown alongside for context. A negative delta is
//! a speedup; a zero baseline has no relative delta and shows `n/a`.

use iosched_simkit::json::{self, Value};
use std::process::ExitCode;

/// One benchmark case pulled out of a suite file.
struct Case {
    name: String,
    min_ns: f64,
    median_ns: f64,
}

/// One parsed suite file.
struct Suite {
    suite: String,
    smoke: bool,
    cases: Vec<Case>,
    /// Deterministic work counters (e.g. event-loop iterations): gated
    /// like timings — an increase beyond the factor fails.
    counters: Vec<(String, f64)>,
    /// Report-only metadata (e.g. events/sec): shown, never gated.
    meta: Vec<(String, f64)>,
}

/// Parse an optional `[{name, value}]` array (the `counters` / `meta`
/// keys; absent in suite files written before they existed).
fn kv_pairs(root: &Value, key: &str) -> Vec<(String, f64)> {
    root.get(key)
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|it| {
                    Some((
                        it.get("name")?.as_str()?.to_string(),
                        it.get("value")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Suite, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let suite = root
        .get("suite")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string();
    let smoke = root.get("smoke").and_then(Value::as_bool).unwrap_or(false);
    let benches = root
        .get("benchmarks")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `benchmarks` array"))?;
    let mut cases = Vec::with_capacity(benches.len());
    for b in benches {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: benchmark without `name`"))?
            .to_string();
        let min_ns = b
            .get("min_ns_per_iter")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: `{name}` without `min_ns_per_iter`"))?;
        let median_ns = b
            .get("median_ns_per_iter")
            .and_then(Value::as_f64)
            .unwrap_or(min_ns);
        cases.push(Case {
            name,
            min_ns,
            median_ns,
        });
    }
    Ok(Suite {
        suite,
        smoke,
        cases,
        counters: kv_pairs(&root, "counters"),
        meta: kv_pairs(&root, "meta"),
    })
}

/// Percent change from `before` to `after`; `n/a` when the baseline is 0.
fn pct(before: f64, after: f64) -> String {
    if before == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", 100.0 * (after - before) / before)
    }
}

/// The report table comparing `before` with `after`, and the gate
/// failures under `gate`. Entries on one side only are listed as `(new)`
/// or `(gone)`; a gated counter that disappeared fails the gate.
fn compare(
    before: &Suite,
    after: &Suite,
    gate: Option<f64>,
    counters_only: bool,
) -> (Vec<String>, Vec<String>) {
    let mut lines = vec![format!(
        "{:<44} {:>14} {:>14} {:>9} {:>9}",
        "name", "before min ns", "after min ns", "dmin", "dmedian"
    )];
    let mut regressions: Vec<String> = Vec::new();
    for a in &after.cases {
        match before.cases.iter().find(|b| b.name == a.name) {
            Some(b) => {
                lines.push(format!(
                    "{:<44} {:>14.1} {:>14.1} {:>9} {:>9}",
                    a.name,
                    b.min_ns,
                    a.min_ns,
                    pct(b.min_ns, a.min_ns),
                    pct(b.median_ns, a.median_ns)
                ));
                if let Some(factor) = gate {
                    if !counters_only && a.min_ns > b.min_ns * factor {
                        regressions.push(format!(
                            "{}: {:.1} ns -> {:.1} ns ({:.2}x > {factor}x allowed)",
                            a.name,
                            b.min_ns,
                            a.min_ns,
                            a.min_ns / b.min_ns
                        ));
                    }
                }
            }
            None => lines.push(format!(
                "{:<44} {:>14} {:>14.1} {:>9} {:>9}",
                a.name, "(new)", a.min_ns, "-", "-"
            )),
        }
    }
    for b in &before.cases {
        if !after.cases.iter().any(|a| a.name == b.name) {
            lines.push(format!(
                "{:<44} {:>14.1} {:>14} {:>9} {:>9}",
                b.name, b.min_ns, "(gone)", "-", "-"
            ));
        }
    }
    // Deterministic counters: same table, gated on increase by the same
    // factor (they carry no timing noise, so any growth is algorithmic).
    for (name, av) in &after.counters {
        match before.counters.iter().find(|(bn, _)| bn == name) {
            Some((_, bv)) => {
                lines.push(format!(
                    "counter {name:<36} {bv:>14.1} {av:>14.1} {:>9}",
                    pct(*bv, *av)
                ));
                if let Some(factor) = gate {
                    if *av > bv * factor {
                        regressions.push(format!(
                            "counter {name}: {bv:.1} -> {av:.1} ({:.2}x > {factor}x allowed)",
                            av / bv
                        ));
                    }
                }
            }
            None => lines.push(format!("counter {name:<36} {:>14} {av:>14.1}", "(new)")),
        }
    }
    for (name, bv) in &before.counters {
        if !after.counters.iter().any(|(an, _)| an == name) {
            lines.push(format!("counter {name:<36} {bv:>14.1} {:>14}", "(gone)"));
            if gate.is_some() {
                regressions.push(format!("counter {name}: {bv:.1} -> (gone)"));
            }
        }
    }
    for (name, av) in &after.meta {
        let delta = before
            .meta
            .iter()
            .find(|(bn, _)| bn == name)
            .map(|(_, bv)| format!(" ({} vs {bv:.1})", pct(*bv, *av)))
            .unwrap_or_default();
        lines.push(format!("meta {name} = {av:.1}{delta}"));
    }
    for (name, bv) in &before.meta {
        if !after.meta.iter().any(|(an, _)| an == name) {
            lines.push(format!("meta {name} (gone, was {bv:.1})"));
        }
    }
    (lines, regressions)
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_diff [--gate <factor> [--counters-only]] <before.json> <after.json>");
    eprintln!("  compares two BENCH_*.json suite files (report-only by default;");
    eprintln!("  with --gate, exit 1 on any >factor-times min-ns regression;");
    eprintln!("  --counters-only gates only the deterministic counters, so");
    eprintln!("  smoke-mode files are accepted)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut gate: Option<f64> = None;
    let mut counters_only = false;
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--counters-only" {
            counters_only = true;
            i += 1;
        } else if args[i] == "--gate" {
            let Some(raw) = args.get(i + 1) else {
                return usage();
            };
            match raw.parse::<f64>() {
                Ok(f) if f >= 1.0 => gate = Some(f),
                _ => {
                    eprintln!("bench_diff: --gate factor must be a number >= 1.0, got `{raw}`");
                    return ExitCode::from(2);
                }
            }
            i += 2;
        } else {
            paths.push(&args[i]);
            i += 1;
        }
    }
    let [before_path, after_path] = match paths.as_slice() {
        [a, b] => [a.as_str(), b.as_str()],
        _ => return usage(),
    };
    let before = match load(before_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let after = match load(after_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    if before.suite != after.suite {
        println!(
            "note: comparing different suites (`{}` vs `{}`)",
            before.suite, after.suite
        );
    }
    if counters_only && gate.is_none() {
        eprintln!("bench_diff: --counters-only only makes sense with --gate");
        return ExitCode::from(2);
    }
    // Timing cases from smoke runs are one untrusted sample each; they
    // can never gate. Counters are exact, so --counters-only may gate
    // smoke files.
    if gate.is_some() && !counters_only && (before.smoke || after.smoke) {
        eprintln!(
            "bench_diff: refusing to gate on a smoke-mode file ({}{}{}): \
             single-sample timings are not trustworthy",
            if before.smoke { before_path } else { "" },
            if before.smoke && after.smoke {
                ", "
            } else {
                ""
            },
            if after.smoke { after_path } else { "" },
        );
        return ExitCode::from(2);
    }

    println!(
        "bench diff `{}`: {before_path} -> {after_path}",
        after.suite
    );
    let (lines, regressions) = compare(&before, &after, gate, counters_only);
    for line in &lines {
        println!("{line}");
    }
    if let Some(factor) = gate {
        if regressions.is_empty() {
            println!("gate: ok (no case regressed beyond {factor}x)");
        } else {
            eprintln!("gate: FAILED - {} regression(s):", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(counters: &[(&str, f64)], meta: &[(&str, f64)]) -> Suite {
        let kv = |v: &[(&str, f64)]| v.iter().map(|&(n, x)| (n.to_string(), x)).collect();
        Suite {
            suite: "t".to_string(),
            smoke: true,
            cases: Vec::new(),
            counters: kv(counters),
            meta: kv(meta),
        }
    }

    #[test]
    fn baseline_only_entries_are_reported_gone_and_fail_the_gate() {
        let before = suite(&[("events/a", 10.0), ("events/b", 5.0)], &[("eps", 2.0)]);
        let after = suite(&[("events/a", 10.0)], &[]);
        let (lines, regressions) = compare(&before, &after, None, false);
        assert!(regressions.is_empty(), "report mode never gates");
        assert!(lines
            .iter()
            .any(|l| l.starts_with("counter events/b") && l.contains("(gone)")));
        assert!(lines.iter().any(|l| l == "meta eps (gone, was 2.0)"));

        let (_, regressions) = compare(&before, &after, Some(2.0), true);
        assert_eq!(regressions, vec!["counter events/b: 5.0 -> (gone)"]);
    }

    #[test]
    fn zero_baselines_print_n_a_instead_of_inf_or_nan() {
        let before = suite(&[("pruned/x", 0.0), ("idle/y", 0.0)], &[("ratio", 0.0)]);
        let after = suite(&[("pruned/x", 3.0), ("idle/y", 0.0)], &[("ratio", 1.5)]);
        let (lines, _) = compare(&before, &after, None, false);
        for l in &lines {
            assert!(!l.contains("inf") && !l.contains("NaN"), "{l}");
        }
        assert!(lines
            .iter()
            .any(|l| l.starts_with("counter pruned/x") && l.ends_with("n/a")));
        assert!(lines.iter().any(|l| l == "meta ratio = 1.5 (n/a vs 0.0)"));
        assert_eq!(pct(4.0, 5.0), "+25.0%");
    }
}
