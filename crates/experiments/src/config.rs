//! Config-file-driven experiment specification.
//!
//! `runcfg` runs experiments described in a small INI-style file (no
//! external dependencies, so the format is hand-parsed):
//!
//! ```ini
//! # comment
//! [experiment]
//! scheduler = adaptive        ; default | io-aware | adaptive | adaptive-naive | packing
//! limit_gibps = 20
//! seed = 42
//! machine_scale = 1           ; paper testbed × N (nodes and OSTs)
//! nodes = 15
//! pretrained = true
//! burst_buffer_gib = 0
//! priority = fifo             ; fifo | priority | sjf
//! enforce_limits = false
//!
//! [workload]
//! kind = workload1            ; workload1 | workload2 | synth
//! jobs = 10000                ; synth trace length
//! io_fraction = 0.3           ; synth trailing-write fraction
//! arrivals = asap             ; asap | poisson | uniform
//! rate_per_hour = 120         ; poisson rate
//! gap_secs = 30               ; uniform spacing
//!
//! [output]
//! dir = results/custom
//! ```
//!
//! Unknown keys are rejected (typos should fail loudly).

use crate::driver::ExperimentConfig;
use crate::grid::PolicyFamily;
use iosched_core::check_limit_bps;
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::SimDuration;
use iosched_simkit::units::{gib, gibps};
use iosched_slurm::PriorityPolicy;
use iosched_workloads::{
    poisson_arrivals, uniform_arrivals, workload_1, workload_2, JobSubmission, PaperParams,
    SwfOptions, SynthConfig, SynthTrace,
};
use std::collections::BTreeMap;

/// A parsed specification: the experiment config plus the workload.
pub struct RunSpec {
    pub config: ExperimentConfig,
    pub workload: Vec<JobSubmission>,
    pub output_dir: String,
}

type Sections = BTreeMap<String, BTreeMap<String, String>>;

/// Parse the INI-ish syntax into sections (exposed for tests).
pub fn parse_sections(text: &str) -> Result<Sections, String> {
    let mut sections: Sections = BTreeMap::new();
    let mut current = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        // Strip comments (`#` or `;`) and whitespace.
        let line = raw.split(['#', ';']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: unterminated section header"))?;
            current = name.trim().to_lowercase();
            sections.entry(current.clone()).or_default();
        } else if let Some((k, v)) = line.split_once('=') {
            if current.is_empty() {
                return Err(format!("line {line_no}: key before any [section]"));
            }
            sections
                .get_mut(&current)
                .expect("section exists")
                .insert(k.trim().to_lowercase(), v.trim().to_string());
        } else {
            return Err(format!("line {line_no}: expected `key = value`"));
        }
    }
    Ok(sections)
}

fn take(section: &mut BTreeMap<String, String>, key: &str) -> Option<String> {
    section.remove(key)
}

fn parse_bool(v: &str, key: &str) -> Result<bool, String> {
    match v.to_lowercase().as_str() {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        other => Err(format!("{key}: expected a boolean, got `{other}`")),
    }
}

fn parse_f64(v: &str, key: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .map_err(|_| format!("{key}: expected a number, got `{v}`"))
}

/// Build a [`RunSpec`] from config text.
pub fn parse_run_spec(text: &str) -> Result<RunSpec, String> {
    let mut sections = parse_sections(text)?;

    // ── [experiment] ──
    let mut exp = sections.remove("experiment").unwrap_or_default();
    let limit_gibps = take(&mut exp, "limit_gibps")
        .map(|v| parse_f64(&v, "limit_gibps"))
        .transpose()?
        .unwrap_or(20.0);
    check_limit_bps(gibps(limit_gibps)).map_err(|e| format!("limit_gibps = {limit_gibps}: {e}"))?;
    let scheduler =
        PolicyFamily::from_name(take(&mut exp, "scheduler").as_deref().unwrap_or("default"))?
            .scheduler(limit_gibps);
    let seed = take(&mut exp, "seed")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("seed: expected an integer, got `{v}`"))
        })
        .transpose()?
        .unwrap_or(42);
    let machine_scale = take(&mut exp, "machine_scale")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("machine_scale: expected a positive integer, got `{v}`"))
                .and_then(|f| {
                    if f >= 1 {
                        Ok(f)
                    } else {
                        Err("machine_scale: must be at least 1".to_string())
                    }
                })
        })
        .transpose()?
        .unwrap_or(1);
    let mut config = ExperimentConfig::paper_scaled(scheduler, seed, machine_scale);
    // An explicit `nodes` overrides the scaled node count (the file
    // system keeps the scaled extent).
    if let Some(v) = take(&mut exp, "nodes") {
        config.nodes = v
            .parse()
            .map_err(|_| format!("nodes: expected an integer, got `{v}`"))?;
    }
    if let Some(v) = take(&mut exp, "pretrained") {
        config.pretrained = parse_bool(&v, "pretrained")?;
    }
    if let Some(v) = take(&mut exp, "enforce_limits") {
        config.enforce_limits = parse_bool(&v, "enforce_limits")?;
    }
    if let Some(v) = take(&mut exp, "burst_buffer_gib") {
        config.burst_buffer_per_node_bytes = gib(parse_f64(&v, "burst_buffer_gib")?);
    }
    if let Some(v) = take(&mut exp, "priority") {
        config.priority_policy = match v.as_str() {
            "fifo" => PriorityPolicy::Fifo,
            "priority" => PriorityPolicy::Priority,
            "sjf" => PriorityPolicy::ShortestLimitFirst,
            other => return Err(format!("unknown priority policy `{other}`")),
        };
    }
    if let Some(k) = exp.keys().next() {
        return Err(format!("unknown key `{k}` in [experiment]"));
    }

    // ── [workload] ──
    let mut wl = sections.remove("workload").unwrap_or_default();
    let params = PaperParams::default();
    let mut workload = match take(&mut wl, "kind").as_deref().unwrap_or("workload1") {
        "workload1" => workload_1(&params),
        "workload2" => workload_2(&params),
        "synth" => {
            // Deterministic SWF-shaped trace sized for the configured
            // machine (see `iosched_workloads::synth`). Arrivals are part
            // of the generator, so arrival reshaping below still applies
            // if explicitly requested.
            let jobs = take(&mut wl, "jobs")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("jobs: expected an integer, got `{v}`"))
                })
                .transpose()?
                .unwrap_or(10_000);
            let io_fraction = take(&mut wl, "io_fraction")
                .map(|v| parse_f64(&v, "io_fraction"))
                .transpose()?
                .unwrap_or(0.3);
            let synth = SynthConfig::sized_for(config.nodes, jobs, seed);
            SynthTrace::new(synth)
                .submissions(SwfOptions {
                    io_fraction,
                    io_rate_per_node_bps: gibps(0.2),
                    ..SwfOptions::default()
                })
                .collect()
        }
        other => return Err(format!("unknown workload kind `{other}`")),
    };
    match take(&mut wl, "arrivals").as_deref().unwrap_or("asap") {
        "asap" => {}
        "poisson" => {
            let rate_per_hour = take(&mut wl, "rate_per_hour")
                .map(|v| parse_f64(&v, "rate_per_hour"))
                .transpose()?
                .ok_or("poisson arrivals need rate_per_hour")?;
            poisson_arrivals(
                &mut workload,
                rate_per_hour / 3600.0,
                &mut SimRng::from_seed(seed ^ 0xA11),
            );
        }
        "uniform" => {
            let gap = take(&mut wl, "gap_secs")
                .map(|v| parse_f64(&v, "gap_secs"))
                .transpose()?
                .ok_or("uniform arrivals need gap_secs")?;
            uniform_arrivals(&mut workload, SimDuration::from_secs_f64(gap));
        }
        other => return Err(format!("unknown arrivals `{other}`")),
    }
    if let Some(k) = wl.keys().next() {
        return Err(format!("unknown key `{k}` in [workload]"));
    }

    // ── [output] ──
    let mut out = sections.remove("output").unwrap_or_default();
    let output_dir = take(&mut out, "dir").unwrap_or_else(|| "results/runcfg".to_string());
    if let Some(k) = out.keys().next() {
        return Err(format!("unknown key `{k}` in [output]"));
    }

    if let Some(k) = sections.keys().next() {
        return Err(format!("unknown section [{k}]"));
    }

    Ok(RunSpec {
        config,
        workload,
        output_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SchedulerKind;
    use iosched_simkit::units::to_gibps;

    #[test]
    fn parses_sections_and_strips_comments() {
        let s = parse_sections("# header\n[a]\nx = 1 ; trailing\n\n[b]\ny = two\n").unwrap();
        assert_eq!(s["a"]["x"], "1");
        assert_eq!(s["b"]["y"], "two");
    }

    #[test]
    fn section_errors() {
        assert!(parse_sections("[a\nx=1").is_err());
        assert!(parse_sections("x = 1").is_err());
        assert!(parse_sections("just words").is_err());
    }

    #[test]
    fn full_spec_round_trip() {
        let spec = parse_run_spec(
            "[experiment]\n\
             scheduler = adaptive\n\
             limit_gibps = 15\n\
             seed = 7\n\
             nodes = 10\n\
             pretrained = false\n\
             burst_buffer_gib = 2\n\
             priority = sjf\n\
             [workload]\n\
             kind = workload1\n\
             [output]\n\
             dir = /tmp/x\n",
        )
        .unwrap();
        match spec.config.scheduler {
            SchedulerKind::Adaptive {
                limit_bps,
                two_group,
            } => {
                assert!((to_gibps(limit_bps) - 15.0).abs() < 1e-9);
                assert!(two_group);
            }
            other => panic!("wrong scheduler {other:?}"),
        }
        assert_eq!(spec.config.seed, 7);
        assert_eq!(spec.config.nodes, 10);
        assert!(!spec.config.pretrained);
        assert_eq!(
            spec.config.priority_policy,
            PriorityPolicy::ShortestLimitFirst
        );
        assert_eq!(spec.workload.len(), 720);
        assert_eq!(spec.output_dir, "/tmp/x");
    }

    #[test]
    fn defaults_are_sane() {
        let spec = parse_run_spec("").unwrap();
        assert_eq!(spec.config.scheduler, SchedulerKind::DefaultBackfill);
        assert_eq!(spec.workload.len(), 720);
    }

    #[test]
    fn arrivals_modes() {
        let spec =
            parse_run_spec("[workload]\nkind = workload1\narrivals = uniform\ngap_secs = 10\n")
                .unwrap();
        assert_eq!(
            spec.workload[1].submit,
            iosched_simkit::time::SimTime::from_secs(10)
        );
        let spec =
            parse_run_spec("[workload]\narrivals = poisson\nrate_per_hour = 3600\n").unwrap();
        assert!(spec.workload.last().unwrap().submit > iosched_simkit::time::SimTime::ZERO);
        assert!(parse_run_spec("[workload]\narrivals = poisson\n").is_err());
    }

    #[test]
    fn machine_scale_grows_nodes_and_file_system() {
        let spec = parse_run_spec("[experiment]\nmachine_scale = 4\n").unwrap();
        assert_eq!(spec.config.nodes, 60);
        assert_eq!(spec.config.fs.n_ost, 56 * 4);
        // Explicit nodes override wins; the file system keeps its extent.
        let spec = parse_run_spec("[experiment]\nmachine_scale = 4\nnodes = 100\n").unwrap();
        assert_eq!(spec.config.nodes, 100);
        assert_eq!(spec.config.fs.n_ost, 56 * 4);
        assert!(parse_run_spec("[experiment]\nmachine_scale = 0\n").is_err());
        assert!(parse_run_spec("[experiment]\nmachine_scale = two\n").is_err());
    }

    #[test]
    fn synth_workload_kind_generates_sized_traces() {
        let spec = parse_run_spec(
            "[experiment]\nmachine_scale = 2\nseed = 9\n\
             [workload]\nkind = synth\njobs = 300\nio_fraction = 0.5\n",
        )
        .unwrap();
        // Invalid (cancelled) records are skipped, so ≤ jobs.
        assert!(spec.workload.len() > 250 && spec.workload.len() <= 300);
        assert!(spec.workload.windows(2).all(|w| w[0].submit <= w[1].submit));
        // Same spec → same trace (seeded).
        let again = parse_run_spec(
            "[experiment]\nmachine_scale = 2\nseed = 9\n\
             [workload]\nkind = synth\njobs = 300\nio_fraction = 0.5\n",
        )
        .unwrap();
        assert_eq!(spec.workload.len(), again.workload.len());
        // `jobs` is rejected outside the synth kind.
        assert!(parse_run_spec("[workload]\nkind = workload1\njobs = 5\n").is_err());
    }

    #[test]
    fn out_of_range_limits_fail_with_a_named_error() {
        for bad in ["0", "-3", "nan", "inf", "1e300"] {
            match parse_run_spec(&format!("[experiment]\nlimit_gibps = {bad}\n")) {
                Err(e) => assert!(e.starts_with("limit_gibps = "), "{bad}: {e}"),
                Ok(_) => panic!("limit_gibps = {bad} was accepted"),
            }
        }
        assert!(parse_run_spec("[experiment]\nlimit_gibps = 262144\n").is_ok());
    }

    #[test]
    fn typos_fail_loudly() {
        assert!(parse_run_spec("[experiment]\nshceduler = default\n").is_err());
        assert!(parse_run_spec("[experiment]\nscheduler = magic\n").is_err());
        assert!(parse_run_spec("[wrkload]\nkind = workload1\n").is_err());
        assert!(parse_run_spec("[experiment]\nseed = many\n").is_err());
        assert!(parse_run_spec("[experiment]\npretrained = maybe\n").is_err());
    }
}
