//! Use the Slurm-like substrate on its own: one scheduling round over a
//! hand-built queue, comparing full reservation tracking
//! (`BackfillMax = ∞`, Slurm's default) against EASY backfill
//! (`BackfillMax = 1`), plus a license-constrained job — all of Section
//! II-A of the paper, without any I/O model.
//!
//! Run: `cargo run --release --example backfill_playground`

use hpc_iosched::simkit::ids::JobId;
use hpc_iosched::simkit::time::{SimDuration, SimTime};
use hpc_iosched::slurm::policy::NodePolicy;
use hpc_iosched::slurm::{backfill_pass, BackfillConfig, RunningView, SchedJob};

fn job(id: u64, nodes: usize, limit_s: u64) -> SchedJob {
    SchedJob::new(
        JobId(id),
        format!("job{id}"),
        nodes,
        SimDuration::from_secs(limit_s),
        SimTime::ZERO,
    )
}

fn show(tag: &str, outcome: &hpc_iosched::slurm::SchedulingOutcome) {
    println!("── {tag} ──");
    println!("  start now:    {:?}", outcome.start_now);
    println!(
        "  reservations: {:?}",
        outcome
            .reservations
            .iter()
            .map(|(id, t)| format!("{id}@{t}"))
            .collect::<Vec<_>>()
    );
    println!("  skipped:      {:?}\n", outcome.skipped);
}

fn main() {
    // Cluster: 16 nodes. One 12-node job is running for another ~600 s.
    let running_job = job(0, 12, 600);
    let running = [RunningView {
        job: &running_job,
        started: SimTime::ZERO,
    }];

    // Queue: a blocked wide job at the head, then a mix of narrow jobs.
    let q1 = job(1, 10, 300); // blocked: needs 10, only 4 free
    let q2 = job(2, 8, 300); // blocked too
    let q3 = job(3, 4, 200); // fits in the 4 free nodes *and* the gap
    let q4 = job(4, 4, 2000); // fits now but would delay q1's reservation
    let queue = [&q1, &q2, &q3, &q4];

    println!("16 nodes; a 12-node job runs until t=600; queue = [10n, 8n, 4n, 4n-long]\n");

    // Slurm default: unlimited reservations — strict fairness. q3 takes
    // the 4 free nodes, so nothing left can start now and the pass ends
    // there: q4 gets no reservation this round (reservations are rebuilt
    // every round, and the next one plans it again).
    let out = backfill_pass(
        &mut NodePolicy::default(),
        &running,
        &queue,
        SimTime::ZERO,
        16,
        &BackfillConfig::default(),
    );
    show("BackfillMax = ∞ (Slurm default)", &out);

    // EASY: only the head job gets a reservation; q2 is skipped, so it
    // protects nothing, and q3 starts now. Had q3 not been queued, the
    // long q4 could start now even though it pushes q2 further out.
    let out = backfill_pass(
        &mut NodePolicy::default(),
        &running,
        &queue,
        SimTime::ZERO,
        16,
        &BackfillConfig::easy(),
    );
    show("BackfillMax = 1 (EASY backfill)", &out);

    // Licenses: the stock Slurm mechanism the paper contrasts with —
    // a "lustre" pool of 10, consumed by user-declared demands.
    let mut policy = NodePolicy::default();
    policy.license_totals.insert("lustre".into(), 10.0);
    let mut la = job(10, 1, 300);
    la.licenses.set("lustre", 7.0);
    let mut lb = job(11, 1, 300);
    lb.licenses.set("lustre", 7.0);
    let lq = [&la, &lb];
    let out = backfill_pass(
        &mut policy,
        &[],
        &lq,
        SimTime::ZERO,
        16,
        &BackfillConfig::default(),
    );
    show(
        "license pool 'lustre' = 10, two jobs demanding 7 each",
        &out,
    );

    println!("the I/O-aware scheduler (iosched-core) replaces the user-declared license");
    println!("demands with estimates from monitoring data — no user input required.");
}
