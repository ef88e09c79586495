//! Estimator pre-training (paper §VI: "the estimator is pre-trained by
//! running jobs in isolation").
//!
//! For every distinct job name in a workload, one representative job is
//! executed alone on a fresh simulated cluster; its measured runtime and
//! average write throughput become the initial estimator observation.

use iosched_cluster::{ClusterSim, JobId as ExecJobId};
use iosched_lustre::LustreConfig;
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_workloads::JobSubmission;
use std::collections::BTreeSet;

/// Run one representative of each job name in isolation; returns
/// `(name, average throughput bytes/s, runtime)` observations.
pub fn pretrain_isolated(
    fs: &LustreConfig,
    workload: &[JobSubmission],
    seed: u64,
) -> Vec<(String, f64, SimDuration)> {
    pretrain_isolated_with_bb(fs, workload, seed, 0.0)
}

/// [`pretrain_isolated`] on a cluster with per-node burst buffers, so the
/// isolated observations match the production configuration.
pub fn pretrain_isolated_with_bb(
    fs: &LustreConfig,
    workload: &[JobSubmission],
    seed: u64,
    burst_buffer_per_node_bytes: f64,
) -> Vec<(String, f64, SimDuration)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut done = Vec::new();
    for sub in workload {
        if !seen.insert(sub.name.clone()) {
            continue;
        }
        // Isolation: a fresh cluster per probe (noise retained — the
        // paper's isolated runs also see the production file system).
        let rng = SimRng::from_seed(seed).fork(0x9e37 ^ seen.len() as u64);
        let mut cluster = ClusterSim::new(sub.exec.nodes.max(1), fs.clone(), rng);
        cluster.set_burst_buffer(burst_buffer_per_node_bytes);
        cluster
            .start_job(SimTime::ZERO, ExecJobId(0), &sub.exec)
            .expect("isolated job starts on empty cluster");
        let mut end = SimTime::ZERO;
        let mut guard = 0;
        while let Some(t) = cluster.next_event_time() {
            cluster.advance_to_into(t, &mut done);
            if let Some(c) = done.first() {
                end = c.at;
                break;
            }
            guard += 1;
            assert!(guard < 1_000_000, "isolated probe did not converge");
        }
        let runtime = end.saturating_since(SimTime::ZERO);
        let secs = runtime.as_secs_f64();
        let throughput = if secs > 0.0 {
            sub.exec.total_write_bytes() / secs
        } else {
            0.0
        };
        out.push((sub.name.clone(), throughput, runtime));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_cluster::ExecSpec;
    use iosched_simkit::units::{gib, to_gibps};
    use iosched_workloads::{workload_1, PaperParams};

    #[test]
    fn pretrains_each_name_once() {
        let w = workload_1(&PaperParams::default());
        let obs = pretrain_isolated(&LustreConfig::stria().noiseless(), &w, 1);
        assert_eq!(obs.len(), 2); // write_x8, sleep
        let write = obs.iter().find(|(n, _, _)| n == "write_x8").unwrap();
        let sleep = obs.iter().find(|(n, _, _)| n == "sleep").unwrap();
        // An isolated write×8 job achieves a few GiB/s (cf. Fig. 4 at
        // one job) and finishes 80 GiB accordingly.
        assert!(
            to_gibps(write.1) > 1.0 && to_gibps(write.1) < 6.0,
            "{write:?}"
        );
        assert!(write.2.as_secs_f64() > 10.0);
        // Sleep: zero throughput, 600 s runtime.
        assert_eq!(sleep.1, 0.0);
        assert!((sleep.2.as_secs_f64() - 600.0).abs() < 1.0);
    }

    #[test]
    fn multi_node_probe_works() {
        let w = vec![iosched_workloads::JobSubmission {
            id: iosched_simkit::ids::JobId(0),
            name: "mpi_write".into(),
            exec: ExecSpec {
                nodes: 4,
                phases: vec![iosched_cluster::Phase::Write {
                    threads_per_node: 2,
                    bytes_per_thread: gib(1.0),
                }],
            },
            limit: SimDuration::from_secs(600),
            submit: SimTime::ZERO,
            priority: 0,
            after: Vec::new(),
        }];
        let obs = pretrain_isolated(&LustreConfig::stria().noiseless(), &w, 1);
        assert_eq!(obs.len(), 1);
        assert!(obs[0].1 > 0.0);
    }
}
