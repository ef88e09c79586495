//! Workspace-wide identifiers.
//!
//! `JobId` is shared by the cluster execution model, the resource manager
//! and the analytics so job records can flow across crate boundaries
//! without conversions.

use std::fmt;

/// Cluster-wide job identifier, assigned at submission.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_display() {
        assert!(JobId(1) < JobId(2));
        assert_eq!(JobId(7).to_string(), "job7");
    }
}
