//! Property-based tests of the file-system model: conservation of bytes,
//! feasibility of allocated rates, and monotonicity of time under
//! arbitrary interleavings of starts and advances.

use iosched_lustre::{LustreConfig, LustreSim, StreamTag};
use iosched_simkit::rng::SimRng;
use iosched_simkit::time::SimTime;
use iosched_simkit::units::{gib, MIB};
use iosched_simkit::{prop, prop_assert, prop_assert_eq, prop_oneof, props};
use prop::Strategy;

/// A randomised op sequence for the model.
#[derive(Clone, Debug)]
enum Op {
    /// Start a write of (threads, mib_per_thread) from a node.
    Start {
        node: usize,
        threads: usize,
        mib: u16,
    },
    /// Advance by this many milliseconds.
    Advance { ms: u32 },
    /// Cancel everything a tag owns.
    Cancel { tag: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 1usize..6, 64u16..2048).prop_map(|(node, threads, mib)| Op::Start {
            node,
            threads,
            mib
        }),
        (1u32..60_000).prop_map(|ms| Op::Advance { ms }),
        (0u64..12).prop_map(|tag| Op::Cancel { tag }),
    ]
}

props! {
    #![cases(32)]

    /// Under any op sequence: time is monotone, rates are feasible
    /// (aggregate within the fabric cap, per-stream within the stream
    /// cap), and total bytes written never exceeds the volume offered.
    fn model_invariants_hold(ops in prop::vec(arb_op(), 1..60), seed in 0u64..500) {
        let cfg = LustreConfig::stria();
        let fabric = cfg.fabric_cap_bps;
        let mut fs = LustreSim::new(cfg, SimRng::from_seed(seed));
        let mut offered = 0.0_f64;
        let mut next_tag = 0u64;
        let mut last_now = SimTime::ZERO;
        let mut done = Vec::new();

        for op in ops {
            match op {
                Op::Start { node, threads, mib } => {
                    let bytes = mib as f64 * MIB;
                    offered += bytes * threads as f64;
                    fs.start_write(fs.now(), StreamTag(next_tag), node, threads, bytes);
                    next_tag += 1;
                }
                Op::Advance { ms } => {
                    let t = SimTime::from_millis(fs.now().as_millis() + ms as u64);
                    fs.advance_to(t);
                    fs.take_completed_into(&mut done);
                }
                Op::Cancel { tag } => {
                    fs.cancel_tag(fs.now(), StreamTag(tag));
                }
            }
            // Time is monotone.
            prop_assert!(fs.now() >= last_now);
            last_now = fs.now();
            // Aggregate rate within the fabric cap.
            let total = fs.total_throughput_bps();
            prop_assert!(total <= fabric + 1.0, "fabric violated: {total}");
            // Written never exceeds offered.
            prop_assert!(
                fs.bytes_written_total() <= offered + 1.0,
                "conservation violated: wrote {} of {} offered",
                fs.bytes_written_total(),
                offered
            );
        }
    }

    /// Run-to-run determinism under identical op sequences and seeds.
    fn op_sequences_are_deterministic(
        ops in prop::vec(arb_op(), 1..30),
        seed in 0u64..100,
    ) {
        let run = |ops: &[Op]| -> (u64, u64) {
            let mut fs = LustreSim::new(LustreConfig::stria(), SimRng::from_seed(seed));
            let mut tag = 0u64;
            let mut completions = 0u64;
            let mut done = Vec::new();
            for op in ops {
                match *op {
                    Op::Start { node, threads, mib } => {
                        fs.start_write(
                            fs.now(),
                            StreamTag(tag),
                            node,
                            threads,
                            mib as f64 * MIB,
                        );
                        tag += 1;
                    }
                    Op::Advance { ms } => {
                        let t = SimTime::from_millis(fs.now().as_millis() + ms as u64);
                        fs.advance_to(t);
                        fs.take_completed_into(&mut done);
                        completions += done.len() as u64;
                    }
                    Op::Cancel { tag } => {
                        fs.cancel_tag(fs.now(), StreamTag(tag));
                    }
                }
            }
            (completions, fs.bytes_written_total() as u64)
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }
}

/// Full-drain conservation: everything offered is eventually written,
/// exactly (deterministic seeds, no cancellation).
#[test]
fn full_drain_writes_everything() {
    for seed in [1u64, 7, 42] {
        let mut fs = LustreSim::new(LustreConfig::stria(), SimRng::from_seed(seed));
        let mut offered = 0.0;
        for node in 0..10 {
            let bytes = gib(0.5 + node as f64 * 0.25);
            offered += bytes * 4.0;
            fs.start_write(SimTime::ZERO, StreamTag(node as u64), node, 4, bytes);
        }
        let mut guard = 0;
        let mut done = Vec::new();
        while let Some(t) = fs.next_change_time() {
            fs.advance_to(t);
            fs.take_completed_into(&mut done);
            guard += 1;
            assert!(guard < 1_000_000, "no convergence");
        }
        let written = fs.bytes_written_total();
        assert!(
            (written - offered).abs() < offered * 1e-9,
            "seed {seed}: wrote {written} of {offered}"
        );
    }
}
