//! Unit conventions and conversion helpers.
//!
//! Throughout the workspace, data volumes are `f64` **bytes** and rates are
//! `f64` **bytes per second**. The fluid file-system model continuously
//! divides volumes by rates, so integer byte counters would buy nothing;
//! instead the convention is enforced by naming (`*_bytes`, `*_bps`) and
//! these helpers keep GiB literals readable at call sites.

/// One gibibyte in bytes.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// One mebibyte in bytes.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Convert GiB to bytes.
pub fn gib(n: f64) -> f64 {
    n * GIB
}

/// Convert bytes to GiB.
pub fn to_gib(bytes: f64) -> f64 {
    bytes / GIB
}

/// Convert a GiB/s figure (as quoted in the paper) to bytes/s.
pub fn gibps(n: f64) -> f64 {
    n * GIB
}

/// Convert bytes/s to GiB/s for reporting.
pub fn to_gibps(bps: f64) -> f64 {
    bps / GIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(gib(1.0), 1073741824.0);
        assert_eq!(to_gib(gib(80.0)), 80.0);
        assert_eq!(to_gibps(gibps(20.0)), 20.0);
        assert_eq!(MIB * 1024.0, GIB);
    }
}
