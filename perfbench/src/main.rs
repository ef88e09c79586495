//! Command line of the repository benchmark.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! benchmark compare <dirA> <dirB>
//! ```
//!
//! A run prints each metric as `name value unit`, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--out` also saves the detailed report there.

use iosched_perfbench::compare::{compare, load_bounds, Verdict};
use iosched_perfbench::run::{run, RunSpec};
use iosched_perfbench::trace::Layer;
use iosched_perfbench::workload::{Size, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default measuring time, seconds (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
  benchmark compare <dirA> <dirB>
workloads: fig6_w2_swarm, deep_queue_x67, testbed_stream, swf_x67";

fn parse_run(args: &[String]) -> Result<(RunSpec, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // SWF traces are rendered next to the executable, inside the build
    // directory.
    let scratch = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-scratch")))
        .ok_or("cannot locate the executable's directory")?;
    let spec = RunSpec {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        size: Size::Full,
        scratch,
    };
    Ok((spec, out))
}

fn main_run(args: &[String]) -> Result<(), String> {
    let (spec, out) = parse_run(args)?;
    let report = run(&spec);
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    if spec.trace {
        let mut shares: Vec<(Layer, f64)> = Layer::ALL
            .iter()
            .map(|&l| (l, report.layer_share(l).unwrap_or(0.0)))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        eprintln!("share of traced time per layer:");
        for (l, s) in shares {
            eprintln!("  {:<34} {:>6.2}%", l.metric(), 100.0 * s);
        }
    }
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(report.file_name());
        std::fs::write(&path, report.to_json().to_json_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.result_line());
    Ok(())
}

fn main_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two directories".into());
    };
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = load_bounds(&bench)?;
    let verdicts = compare(Path::new(a), Path::new(b), &bounds)?;
    Ok(if verdicts.contains(&Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => main_compare(&args[1..]),
        _ => main_run(&args).map(|()| ExitCode::SUCCESS),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
