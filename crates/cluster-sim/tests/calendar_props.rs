//! Properties of the event-calendar core: one `advance_to_into(T)` jump must
//! be equivalent to stepping event-by-event via `next_event_time`, and
//! same-instant completions must come back in deterministic `(at, JobId)`
//! order regardless of which harvest path produced them; and one batched
//! `start_jobs` must equal starting the same jobs one by one.

use iosched_cluster::{ClusterSim, ExecSpec, JobCompletion, JobId, Phase};
use iosched_lustre::{FsSnapshot, LustreConfig};
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_simkit::units::gib;
use iosched_simkit::{prop, prop_assert, prop_assert_eq, prop_oneof, props};
use prop::Strategy;

/// The jobs that completed by `t`, in completion order.
fn advance(c: &mut ClusterSim, t: SimTime) -> Vec<JobCompletion> {
    let mut done = Vec::new();
    c.advance_to_into(t, &mut done);
    done
}

fn cluster() -> ClusterSim {
    ClusterSim::new(
        15,
        LustreConfig::stria().noiseless(),
        SimRng::from_seed(2024),
    )
}

/// Regression: a stream-completion job and a timed job ending at the
/// same instant must be reported in JobId order, not harvest order.
/// (The completion harvest runs before the timed-phase drain, so a
/// time-only sort left the higher JobId first here.)
#[test]
fn same_instant_completions_sort_by_job_id() {
    let mut c = cluster();
    // One thread writing 0.9 GiB at the 0.45 GiB/s stream cap: exactly
    // 2 s, tying with the 2 s sleep below.
    c.start_job(SimTime::ZERO, JobId(9), &ExecSpec::write_xn(1, gib(0.9)))
        .unwrap();
    c.start_job(
        SimTime::ZERO,
        JobId(1),
        &ExecSpec::sleep(SimDuration::from_secs(2)),
    )
    .unwrap();
    let done = advance(&mut c, SimTime::from_secs(2));
    assert_eq!(done.len(), 2, "both jobs should finish: {done:?}");
    assert_eq!(
        done[0].at, done[1].at,
        "jobs must tie for the ordering to be exercised"
    );
    assert_eq!(done[0].job, JobId(1));
    assert_eq!(done[1].job, JobId(9));
}

/// A randomly generated job. I/O appears only as the *first* phase:
/// phases launched mid-jump clamp their start to the already-advanced
/// fs clock, so a job whose write begins at an interior instant is not
/// jump-invariant by construction (hosts that care always advance to
/// `next_event_time`, never past it).
#[derive(Clone, Debug)]
struct ArbJob {
    nodes: usize,
    first_io: Option<(usize, f64)>, // (threads, gib per thread)
    timed: Vec<(bool, u64)>,        // (is_sleep, seconds)
}

fn arb_job() -> impl Strategy<Value = ArbJob> {
    let io = prop_oneof![
        prop::Just(None),
        (1usize..4, 1u32..30).prop_map(|(th, tenths)| Some((th, tenths as f64 / 10.0))),
    ];
    (1usize..3, io, prop::vec((0u16..2, 1u64..90), 0..3)).prop_map(|(nodes, first_io, timed)| {
        ArbJob {
            nodes,
            first_io,
            timed: timed.into_iter().map(|(s, d)| (s == 1, d)).collect(),
        }
    })
}

fn spec_of(j: &ArbJob) -> Option<ExecSpec> {
    let mut phases = Vec::new();
    if let Some((threads, g)) = j.first_io {
        phases.push(Phase::Write {
            threads_per_node: threads,
            bytes_per_thread: gib(g),
        });
    }
    for &(is_sleep, secs) in &j.timed {
        let d = SimDuration::from_secs(secs);
        phases.push(if is_sleep {
            Phase::Sleep(d)
        } else {
            Phase::Compute(d)
        });
    }
    if phases.is_empty() {
        return None;
    }
    Some(ExecSpec {
        nodes: j.nodes,
        phases,
    })
}

fn start_all(c: &mut ClusterSim, jobs: &[ArbJob]) {
    let mut id = 0u64;
    for j in jobs {
        if let Some(spec) = spec_of(j) {
            // Node exhaustion is fine — skip jobs that do not fit.
            let _ = c.start_job(SimTime::ZERO, JobId(id), &spec);
            id += 1;
        }
    }
}

props! {
    #![cases(48)]

    /// One `advance_to_into(T)` jump reaches exactly the state produced by
    /// stepping through every `next_event_time` up to `T`.
    fn single_jump_matches_stepped(jobs in prop::vec(arb_job(), 1..8), horizon_s in 1u64..200) {
        let horizon = SimTime::from_secs(horizon_s);

        let mut jumped = cluster();
        start_all(&mut jumped, &jobs);
        let done_jump = advance(&mut jumped, horizon);

        let mut stepped = cluster();
        start_all(&mut stepped, &jobs);
        let mut done_step: Vec<JobCompletion> = Vec::new();
        while let Some(t) = stepped.next_event_time() {
            if t >= horizon {
                break;
            }
            done_step.extend(advance(&mut stepped, t));
        }
        done_step.extend(advance(&mut stepped, horizon));
        done_step.sort_unstable_by_key(|c| (c.at, c.job));

        prop_assert_eq!(&done_jump, &done_step);
        prop_assert_eq!(jumped.now(), stepped.now());
        prop_assert_eq!(jumped.busy_nodes(), stepped.busy_nodes());
        prop_assert_eq!(
            jumped.fs().active_stream_count(),
            stepped.fs().active_stream_count()
        );
    }

    /// `start_jobs` over a round of jobs leaves the rates (every snapshot
    /// value), `next_event_time` and every later completion bit-identical
    /// to one `start_job` per job, on the noisy testbed with fatigue,
    /// burst buffers on or off, and earlier jobs already running.
    fn start_jobs_matches_one_start_per_job(
        earlier in prop::vec(arb_job(), 0..4),
        round in prop::vec(arb_job(), 1..8),
        at_ms in 0u64..30_000,
        seed in 0u64..1_000,
        buffered in 0u16..2,
    ) {
        let build = || {
            let mut c = ClusterSim::new(15, LustreConfig::stria(), SimRng::from_seed(seed));
            c.set_burst_buffer(gib(0.5) * buffered as f64);
            start_all(&mut c, &earlier);
            advance(&mut c, SimTime::from_millis(at_ms));
            c
        };
        let (mut one, mut batch) = (build(), build());
        let t = one.now();
        // The round's jobs that fit in the free nodes, as a pass picks them.
        let mut free = one.free_nodes();
        let jobs: Vec<(JobId, ExecSpec)> = round
            .iter()
            .filter_map(spec_of)
            .filter(|s| {
                let fits = s.nodes <= free;
                if fits {
                    free -= s.nodes;
                }
                fits
            })
            .enumerate()
            .map(|(i, s)| (JobId(100 + i as u64), s))
            .collect();
        for (id, spec) in &jobs {
            one.start_job(t, *id, spec).expect("fits");
        }
        batch
            .start_jobs(t, jobs.iter().map(|(id, spec)| (*id, spec)))
            .expect("fits");
        let mut steps = 0;
        loop {
            prop_assert_eq!(snap_bits(&one), snap_bits(&batch));
            prop_assert_eq!(one.next_event_time(), batch.next_event_time());
            let Some(t) = one.next_event_time() else { break };
            prop_assert_eq!(advance(&mut one, t), advance(&mut batch, t));
            steps += 1;
            prop_assert!(steps < 100_000, "no convergence");
        }
    }
}

/// Every value of the file system's snapshot, floats as bits.
fn snap_bits(c: &ClusterSim) -> (u64, Vec<(u64, u64)>) {
    let mut s = FsSnapshot::default();
    c.fs().snapshot_into(&mut s);
    let tags = s.per_tag_bps.iter().map(|&(t, r)| (t.0, r.to_bits()));
    (s.total_bps.to_bits(), tags.collect())
}
