//! File-system model configuration.

use iosched_simkit::time::SimDuration;
use iosched_simkit::units::gibps;

/// How the per-OST noise factors are drawn at each epoch. In both modes
/// only occupied OSTs ever have their capacity observed, so a factor is
/// derived (the log-normal's `ln`/`sqrt`/`cos`/`exp`) only when its OST
/// is occupied during the epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NoiseMode {
    /// One sequential draw per OST per epoch from the file system's RNG
    /// stream — the original behaviour, byte-for-byte reproducible
    /// against every recorded result. Every epoch still advances the
    /// stream by two raw outputs per OST, so the cost is O(n_ost) cheap
    /// generator steps plus O(occupied) derivations.
    #[default]
    Sequential,
    /// Counter-based: the factor for `(epoch, ost)` is a pure function of
    /// the seed, derived via an RNG fork keyed by the pair, so an epoch
    /// costs O(occupied) instead of O(n_ost). The scale sweep's grown
    /// machines opt in: at 5 600+ OSTs even the raw sequential draws add
    /// up.
    Indexed,
}
iosched_simkit::impl_json_enum!(NoiseMode {
    Sequential,
    Indexed
});

/// Parameters of the Lustre-like file-system model.
///
/// All rates are bytes per second. The defaults ([`LustreConfig::stria`])
/// are calibrated against the behaviour the paper reports for Stria's
/// Lustre (peak aggregate ≈ 20 GiB/s short-term, ≈ 15 GiB/s sustained,
/// concave throughput-vs-concurrency profile — see EXPERIMENTS.md for the
/// calibration record).
#[derive(Clone, Debug)]
pub struct LustreConfig {
    /// Number of object storage targets (Stria: 56 SSD volumes).
    pub n_ost: usize,
    /// Nominal bandwidth of one OST, bytes/s.
    pub ost_bandwidth_bps: f64,
    /// Interference coefficient γ: an OST serving `m` streams delivers
    /// `b / (1 + γ·(m−1))` in total. γ = 0 means ideal sharing; larger γ
    /// models RPC contention / interleaved-write overhead and produces the
    /// gap between short-term and sustained bandwidth.
    pub interference_gamma: f64,
    /// Per-stream client-side cap, bytes/s (a single `dd`-like writer
    /// cannot saturate an OST on its own).
    pub stream_cap_bps: f64,
    /// Per-compute-node NIC cap shared by all of the node's streams.
    pub node_cap_bps: f64,
    /// Cluster-wide fabric cap on aggregate file-system traffic.
    pub fabric_cap_bps: f64,
    /// Log-space σ of the multiplicative log-normal noise applied to each
    /// OST's bandwidth. 0 disables noise.
    pub noise_sigma: f64,
    /// How the per-OST noise factors are drawn (see [`NoiseMode`]).
    pub noise_mode: NoiseMode,
    /// How often the per-OST noise factors are resampled. Also the cadence
    /// at which rates are re-solved for fatigue drift while streams run.
    pub noise_epoch: SimDuration,
    /// Maximum fractional bandwidth loss from sustained-pressure fatigue
    /// (0 disables fatigue). Models the congestion collapse of a parallel
    /// file system under sustained oversubscription — the gap between the
    /// paper's "short-term" (~20 GiB/s) and "long-term" (≤15 GiB/s, and
    /// in practice far lower during the workload's write bursts)
    /// bandwidth.
    pub fatigue_phi: f64,
    /// Time constant for fatigue build-up while an OST is pressured.
    pub fatigue_tau_up: SimDuration,
    /// Time constant for recovery once pressure subsides.
    pub fatigue_tau_down: SimDuration,
    /// An OST is "pressured" while serving at least this many streams.
    pub fatigue_threshold: usize,
    /// New streams pick the least-loaded of this many uniformly sampled
    /// OSTs ("power of d choices"). 1 reproduces blind uniform placement;
    /// 2 models Lustre's load-balancing object allocator and prevents
    /// single OSTs from accumulating unbounded stream pile-ups.
    pub ost_candidates: usize,
}
iosched_simkit::impl_json_struct!(LustreConfig {
    n_ost,
    ost_bandwidth_bps,
    interference_gamma,
    stream_cap_bps,
    node_cap_bps,
    fabric_cap_bps,
    noise_sigma,
    noise_mode,
    noise_epoch,
    fatigue_phi,
    fatigue_tau_up,
    fatigue_tau_down,
    fatigue_threshold,
    ost_candidates,
});

impl LustreConfig {
    /// Calibrated model of Stria's Lustre instance.
    pub fn stria() -> Self {
        LustreConfig {
            n_ost: 56,
            ost_bandwidth_bps: gibps(0.90),
            interference_gamma: 0.3,
            stream_cap_bps: gibps(0.45),
            node_cap_bps: gibps(5.0),
            fabric_cap_bps: gibps(22.0),
            noise_sigma: 0.12,
            noise_mode: NoiseMode::Sequential,
            noise_epoch: SimDuration::from_secs(10),
            fatigue_phi: 0.93,
            fatigue_tau_up: SimDuration::from_secs(25),
            fatigue_tau_down: SimDuration::from_secs(300),
            fatigue_threshold: 2,
            ost_candidates: 2,
        }
    }

    /// Fatigue disabled (ideal file system whose sustained bandwidth
    /// equals its short-term bandwidth); ablation knob.
    pub fn without_fatigue(mut self) -> Self {
        self.fatigue_phi = 0.0;
        self
    }

    /// Same topology with noise disabled; used by deterministic tests and
    /// the analytic calibration probes.
    pub fn noiseless(mut self) -> Self {
        self.noise_sigma = 0.0;
        self
    }

    /// Scale the file system's horizontal extent by `factor`: `factor ×`
    /// the OSTs and `factor ×` the fabric cap, with per-OST, per-stream
    /// and per-node characteristics unchanged. This is how parallel file
    /// systems actually grow (more OSS/OST pairs behind a wider fabric),
    /// and it is the machine-size knob of the scale sweep: `scaled(1)` is
    /// the testbed, `scaled(100)` a 5 600-OST flagship-class system.
    ///
    /// Grown machines (`factor > 1`) switch to [`NoiseMode::Indexed`] so
    /// the per-epoch noise resample costs O(occupied OSTs) instead of
    /// O(n_ost) raw draws; `scaled(1)` is the exact identity, keeping the
    /// testbed byte-for-byte on the recorded sequential draws.
    pub fn scaled(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        self.n_ost *= factor;
        self.fabric_cap_bps *= factor as f64;
        if factor > 1 {
            self.noise_mode = NoiseMode::Indexed;
        }
        self
    }

    /// Validate invariants. Called by [`crate::LustreSim::new`].
    pub fn validate(&self) -> Result<(), String> {
        if self.n_ost == 0 {
            return Err("n_ost must be positive".into());
        }
        for (name, v) in [
            ("ost_bandwidth_bps", self.ost_bandwidth_bps),
            ("stream_cap_bps", self.stream_cap_bps),
            ("node_cap_bps", self.node_cap_bps),
            ("fabric_cap_bps", self.fabric_cap_bps),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.interference_gamma < 0.0 {
            return Err("interference_gamma must be non-negative".into());
        }
        if self.noise_sigma < 0.0 {
            return Err("noise_sigma must be non-negative".into());
        }
        if (self.noise_sigma > 0.0 || self.fatigue_phi > 0.0) && self.noise_epoch.is_zero() {
            return Err("noise_epoch must be positive when noise or fatigue is enabled".into());
        }
        if !(0.0..1.0).contains(&self.fatigue_phi) {
            return Err("fatigue_phi must be in [0, 1)".into());
        }
        if self.fatigue_phi > 0.0
            && (self.fatigue_tau_up.is_zero() || self.fatigue_tau_down.is_zero())
        {
            return Err("fatigue time constants must be positive".into());
        }
        if self.ost_candidates == 0 {
            return Err("ost_candidates must be at least 1".into());
        }
        Ok(())
    }

    /// Effective total bandwidth of one OST serving `m` concurrent
    /// streams (before noise).
    pub fn ost_effective_bps(&self, m: usize) -> f64 {
        if m == 0 {
            return 0.0;
        }
        self.ost_bandwidth_bps / (1.0 + self.interference_gamma * (m as f64 - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::units::to_gibps;

    #[test]
    fn stria_validates() {
        LustreConfig::stria().validate().unwrap();
        LustreConfig::stria().noiseless().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = LustreConfig::stria();
        c.n_ost = 0;
        assert!(c.validate().is_err());
        let mut c = LustreConfig::stria();
        c.ost_bandwidth_bps = 0.0;
        assert!(c.validate().is_err());
        let mut c = LustreConfig::stria();
        c.interference_gamma = -0.1;
        assert!(c.validate().is_err());
        let mut c = LustreConfig::stria();
        c.noise_epoch = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = LustreConfig::stria();
        c.fabric_cap_bps = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn interference_decays_effective_bandwidth() {
        let c = LustreConfig::stria().noiseless();
        let b1 = c.ost_effective_bps(1);
        let b4 = c.ost_effective_bps(4);
        assert_eq!(b1, c.ost_bandwidth_bps);
        assert!(b4 < b1);
        // Super-linear per-stream penalty: per-stream share at m=4 is less
        // than a quarter of the m=1 rate.
        assert!(b4 / 4.0 < b1 / 4.0);
        assert_eq!(c.ost_effective_bps(0), 0.0);
    }

    #[test]
    fn no_interference_shares_ideally() {
        let mut c = LustreConfig::stria();
        c.interference_gamma = 0.0;
        c.validate().unwrap();
        assert_eq!(c.ost_effective_bps(10), c.ost_bandwidth_bps);
    }

    #[test]
    fn scaled_multiplies_extent_not_parts() {
        let base = LustreConfig::stria();
        let big = LustreConfig::stria().scaled(10);
        big.validate().unwrap();
        assert_eq!(big.n_ost, base.n_ost * 10);
        assert_eq!(big.fabric_cap_bps, base.fabric_cap_bps * 10.0);
        assert_eq!(big.ost_bandwidth_bps, base.ost_bandwidth_bps);
        assert_eq!(big.node_cap_bps, base.node_cap_bps);
        assert_eq!(big.stream_cap_bps, base.stream_cap_bps);
        // Grown machines use lazy indexed noise; factor 1 is the identity.
        assert_eq!(big.noise_mode, NoiseMode::Indexed);
        assert_eq!(
            LustreConfig::stria().scaled(1).noise_mode,
            NoiseMode::Sequential
        );
    }

    #[test]
    fn stria_scale_sanity() {
        let c = LustreConfig::stria();
        // Theoretical all-OST aggregate sits above the paper's 20 GiB/s
        // short-term peak; the fabric cap keeps it near it.
        let total = c.ost_bandwidth_bps * c.n_ost as f64;
        assert!(to_gibps(total) > 20.0);
        assert!(to_gibps(c.fabric_cap_bps) >= 20.0);
    }
}
