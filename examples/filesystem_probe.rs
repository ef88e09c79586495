//! Drive the Lustre model directly: reproduce the paper's Fig.-4 probe
//! and visualise the short-term vs sustained ("long-term") bandwidth gap
//! that motivates workload-adaptive scheduling.
//!
//! Run: `cargo run --release --example filesystem_probe`

use hpc_iosched::lustre::probe::{fig4_sweep, ProbeConfig};
use hpc_iosched::lustre::{LustreConfig, LustreSim, StreamTag};
use hpc_iosched::simkit::rng::SimRng;
use hpc_iosched::simkit::time::SimTime;
use hpc_iosched::simkit::units::{gib, to_gibps};

fn main() {
    // ── Fig. 4 sweep: aggregate throughput vs concurrent write×8 jobs ──
    let cfg = LustreConfig::stria();
    println!("throughput vs concurrent write_x8 jobs (medians, GiB/s):\n");
    println!("{:>5} {:>12} {:>12}", "jobs", "short-term", "sustained");
    let short = fig4_sweep(&cfg, &ProbeConfig::short_term(), 15, 1);
    let long = fig4_sweep(&cfg, &ProbeConfig::sustained(), 15, 1);
    for k in [1usize, 2, 4, 8, 15] {
        println!(
            "{:5} {:12.2} {:12.2}",
            k,
            to_gibps(short[k].stats.median),
            to_gibps(long[k].stats.median)
        );
    }

    // ── A single burst in detail: watch fatigue build and recover ──
    println!("\none 15-job write burst, second by second (every 30 s):\n");
    let mut fs = LustreSim::new(cfg, SimRng::from_seed(5));
    for node in 0..15 {
        fs.start_write(SimTime::ZERO, StreamTag(node as u64), node, 8, gib(10.0));
    }
    println!(
        "{:>6} {:>9} {:>9} {:>9}",
        "t(s)", "GiB/s", "streams", "fatigue"
    );
    let mut t = 0u64;
    let mut done = Vec::new();
    while fs.active_stream_count() > 0 && t < 1800 {
        t += 30;
        fs.advance_to(SimTime::from_secs(t));
        fs.take_completed_into(&mut done);
        let fat = fs.ost_fatigue();
        println!(
            "{:6} {:9.2} {:9} {:9.2}",
            t,
            to_gibps(fs.total_throughput_bps()),
            fs.active_stream_count(),
            fat.iter().sum::<f64>() / fat.len() as f64,
        );
    }
    println!("\nthe burst starts near the short-term peak, then sustained pressure");
    println!("fatigues the OSTs and throughput collapses — the waste the paper's");
    println!("adaptive scheduler avoids by pacing I/O-heavy jobs.");
}
