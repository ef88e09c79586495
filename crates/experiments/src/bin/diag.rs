//! Diagnostic dump: run one scheduler over a workload and print periodic
//! state (busy nodes, streams, throughput, fatigue) to understand the
//! congestion dynamics. Usage: `diag <w1|w2> <scheduler label> [seed]`,
//! where the label is one of the figure labels (`default`, `io-aware-20`,
//! `io-aware-15`, `adaptive-20`, `adaptive-15`, …).
use iosched_experiments::driver::{run_experiment, ExperimentConfig, SchedulerKind};
use iosched_simkit::time::SimTime;
use iosched_simkit::units::to_gibps;
use iosched_workloads::{workload_1, workload_2, PaperParams};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wl = args.get(1).map(|s| s.as_str()).unwrap_or("w2");
    let sched = args.get(2).map(|s| s.as_str()).unwrap_or("io-aware-15");
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
    let workload = if wl == "w1" {
        workload_1(&PaperParams::default())
    } else {
        workload_2(&PaperParams::default())
    };
    let kind = SchedulerKind::from_label(sched).unwrap_or_else(|e| {
        eprintln!("diag: {e}");
        eprintln!("usage: diag <w1|w2> <scheduler label> [seed]");
        std::process::exit(2);
    });
    let cfg = ExperimentConfig::paper(kind, seed);
    let res = run_experiment(&cfg, &workload);
    println!("makespan {:.0} s", res.makespan_secs);
    println!(
        "{:>8} {:>6} {:>8} {:>9} {:>8}",
        "t", "nodes", "streams", "GiB/s", "fatigue"
    );
    let step = (res.makespan_secs / 40.0).max(1.0) as u64;
    let mut t = 0u64;
    while (t as f64) < res.makespan_secs {
        let st = SimTime::from_secs(t);
        let en = SimTime::from_secs(t + step);
        println!(
            "{:8} {:6.1} {:8.1} {:9.2} {:8.2}",
            t,
            res.nodes_trace.time_average(st, en),
            res.streams_trace.time_average(st, en),
            to_gibps(res.throughput_trace.time_average(st, en)),
            res.fatigue_trace.time_average(st, en),
        );
        t += step;
    }
}
