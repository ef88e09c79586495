//! Executable job descriptions.

use iosched_simkit::time::SimDuration;

pub use iosched_simkit::ids::JobId;

/// One phase of a job's execution.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Idle occupation of the allocated nodes (the paper's "sleep" jobs).
    Sleep(SimDuration),
    /// CPU-bound work of fixed length (no file-system traffic).
    Compute(SimDuration),
    /// Parallel write: every allocated node runs `threads_per_node`
    /// writer threads, each writing `bytes_per_thread` to a randomly
    /// chosen OST. The phase ends when the slowest thread finishes.
    Write {
        threads_per_node: usize,
        bytes_per_thread: f64,
    },
}

impl Phase {
    /// Total bytes this phase writes per allocated node.
    pub fn bytes_per_node(&self) -> f64 {
        match self {
            Phase::Write {
                threads_per_node,
                bytes_per_thread,
            } => *threads_per_node as f64 * bytes_per_thread,
            _ => 0.0,
        }
    }
}

/// What a job does once started: how many nodes it needs and the phase
/// sequence executed on them.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecSpec {
    /// Number of nodes the job occupies (the paper's `n_j`).
    pub nodes: usize,
    /// Phases executed back to back.
    pub phases: Vec<Phase>,
}

impl ExecSpec {
    /// A pure sleep job of the given duration on one node.
    pub fn sleep(dur: SimDuration) -> Self {
        ExecSpec {
            nodes: 1,
            phases: vec![Phase::Sleep(dur)],
        }
    }

    /// A single-node parallel write job (the paper's "write×N"):
    /// `threads` writer threads, each writing `bytes_per_thread`.
    pub fn write_xn(threads: usize, bytes_per_thread: f64) -> Self {
        ExecSpec {
            nodes: 1,
            phases: vec![Phase::Write {
                threads_per_node: threads,
                bytes_per_thread,
            }],
        }
    }

    /// Total bytes the job writes across all nodes and phases.
    pub fn total_write_bytes(&self) -> f64 {
        self.nodes as f64 * self.phases.iter().map(|p| p.bytes_per_node()).sum::<f64>()
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("job needs at least one node".into());
        }
        if self.phases.is_empty() {
            return Err("job needs at least one phase".into());
        }
        for p in &self.phases {
            if let Phase::Write {
                threads_per_node,
                bytes_per_thread,
            } = *p
            {
                if threads_per_node == 0 {
                    return Err("write phase needs at least one thread".into());
                }
                if !(bytes_per_thread > 0.0 && bytes_per_thread.is_finite()) {
                    return Err(format!(
                        "write phase needs a positive finite volume, got {bytes_per_thread}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::units::gib;

    #[test]
    fn constructors() {
        let s = ExecSpec::sleep(SimDuration::from_secs(600));
        assert_eq!(s.nodes, 1);
        assert_eq!(s.total_write_bytes(), 0.0);
        s.validate().unwrap();

        let w = ExecSpec::write_xn(8, gib(10.0));
        assert_eq!(w.total_write_bytes(), gib(80.0));
        w.validate().unwrap();
    }

    #[test]
    fn multi_node_multi_phase_volume() {
        let spec = ExecSpec {
            nodes: 4,
            phases: vec![
                Phase::Compute(SimDuration::from_secs(10)),
                Phase::Write {
                    threads_per_node: 2,
                    bytes_per_thread: gib(1.0),
                },
                Phase::Write {
                    threads_per_node: 1,
                    bytes_per_thread: gib(3.0),
                },
            ],
        };
        assert_eq!(spec.total_write_bytes(), gib(4.0 * (2.0 + 3.0)));
        spec.validate().unwrap();
    }

    #[test]
    fn nan_volume_rejected() {
        assert!(ExecSpec::write_xn(1, f64::NAN).validate().is_err());
    }

    #[test]
    fn infinite_volume_rejected() {
        assert!(ExecSpec::write_xn(1, f64::INFINITY).validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(ExecSpec {
            nodes: 0,
            phases: vec![Phase::Sleep(SimDuration::from_secs(1))]
        }
        .validate()
        .is_err());
        assert!(ExecSpec {
            nodes: 1,
            phases: vec![]
        }
        .validate()
        .is_err());
        assert!(ExecSpec {
            nodes: 1,
            phases: vec![Phase::Write {
                threads_per_node: 0,
                bytes_per_thread: 1.0
            }]
        }
        .validate()
        .is_err());
        assert!(ExecSpec {
            nodes: 1,
            phases: vec![Phase::Write {
                threads_per_node: 1,
                bytes_per_thread: 0.0
            }]
        }
        .validate()
        .is_err());
    }
}
