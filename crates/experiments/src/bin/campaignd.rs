//! `campaignd` — the campaign service.
//!
//! Reads one [`CampaignGrid`] JSON spec per stdin line and streams one
//! `{"kind":"record",...}` line per finished task (completion order)
//! followed by `{"kind":"done","tasks":N,"medians":[...]}` per grid;
//! malformed specs yield `{"kind":"error",...}` and the loop continues.
//!
//! ```text
//! echo '{"policies":[{"kind":"Default"},{"kind":"Adaptive"}],
//!        "thresholds_gibps":[20],"seeds":[1000,1017,1034],
//!        "workloads":[{"kind":"Workload2"}],
//!        "base":{"nodes":0,"machine_scale":1,"pretrained":true,
//!                "noiseless":false,"sched_period_secs":0}}' \
//!   | campaignd --threads 4 --log results/campaigns/w2.jsonl
//! ```
//!
//! (One spec per line; wrapped here for readability.) A single run is
//! a 1-task grid: one policy, one threshold, one seed, one workload.
//!
//! Flags: `--threads N` pins the worker count (else `CAMPAIGN_THREADS`,
//! else `available_parallelism`); `--log PATH` makes runs resumable —
//! tasks already in the log are replayed, only missing indices execute.

use iosched_experiments::{serve_campaigns, CampaignOptions};
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut opts = CampaignOptions::default();
    let mut log_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.threads = Some(n),
                _ => return usage("--threads needs a positive integer"),
            },
            "--log" => match args.next() {
                Some(p) => log_path = Some(PathBuf::from(p)),
                None => return usage("--log needs a path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown flag: {other}")),
        }
    }

    let opts = match opts.resolved() {
        Ok(opts) => opts,
        Err(e) => return usage(&e.to_string()),
    };

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let result = serve_campaigns(
        stdin.lock(),
        BufWriter::new(stdout.lock()),
        opts,
        log_path.as_deref(),
    );
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaignd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("campaignd: {err}");
    }
    eprintln!(
        "usage: campaignd [--threads N] [--log PATH]  (grid specs on stdin, one JSON per line)"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
