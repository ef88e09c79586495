//! Deterministic random source for simulations.
//!
//! All stochastic behaviour in the workspace (OST selection, bandwidth
//! noise, workload jitter) flows through [`SimRng`]. A run is fully
//! determined by its master seed; independent subsystems get statistically
//! independent streams via [`SimRng::fork`], so adding a consumer in one
//! subsystem cannot perturb another subsystem's draws.
//!
//! The generator is an in-repo **xoshiro256++** (Blackman & Vigna), with
//! its 256-bit state expanded from the 64-bit seed by **SplitMix64** — the
//! reference seeding procedure. No external crates: the byte-for-byte
//! output stream is pinned by this file alone (see the reference-vector
//! tests), so results are reproducible across toolchain and dependency
//! upgrades.

/// SplitMix64 step, used to expand seeds and derive fork seeds. A single
/// step is a strong 64-bit mixer, so fork streams are decorrelated even
/// for adjacent labels.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-shot SplitMix64 mix of a value (stateless form, used for fork
/// label mixing).
fn mix64(seed: u64) -> u64 {
    let mut s = seed;
    splitmix64(&mut s)
}

/// The `[0, 1)` value of one raw output: its top 53 bits times 2^-53.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Seeded random number generator with the distributions the simulators
/// need. The core generator is xoshiro256++.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Create a generator from a 64-bit seed. The 256-bit xoshiro state is
    /// filled with four successive SplitMix64 outputs, per the generator
    /// authors' recommendation (this also guarantees a non-zero state).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s, seed }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent generator for a labelled subsystem.
    /// Forking is a pure function of `(self.seed, label)` — it does not
    /// consume state from `self`, so the set of forks is stable no matter
    /// in which order subsystems are constructed.
    pub fn fork(&self, label: u64) -> SimRng {
        SimRng::from_seed(mix64(self.seed ^ mix64(label)))
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        let s2 = s2 ^ t;
        let s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision (the standard
    /// `(x >> 11) * 2^-53` conversion).
    pub fn uniform(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in `[lo, hi)`. Requires `lo < hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Requires `n > 0`.
    ///
    /// Uses Lemire's widening-multiply reduction; the bias is below
    /// `n / 2^64`, far under anything a simulation statistic can resolve,
    /// and the draw always consumes exactly one generator step (which
    /// keeps streams aligned across platforms).
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal draw (Box–Muller; one value per call, the pair's
    /// second value is discarded to keep the state machine simple).
    /// Consumes exactly two generator steps; see [`SimRng::normal_from`].
    pub fn normal(&mut self) -> f64 {
        let raw = [self.next_u64(), self.next_u64()];
        Self::normal_from(raw)
    }

    /// The standard normal value [`SimRng::normal`] returns when its two
    /// generator steps output `raw` (in draw order). Lets a caller keep
    /// the generator's stream position while deferring the
    /// transcendental work until the value is actually needed.
    pub fn normal_from(raw: [u64; 2]) -> f64 {
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - unit_f64(raw[0]);
        let u2 = unit_f64(raw[1]);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal draw parameterised so that the *median* of the
    /// distribution is `median` and the underlying normal has standard
    /// deviation `sigma` (in log space). `sigma = 0` returns `median`.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        if sigma == 0.0 {
            return median;
        }
        median * (sigma * self.normal()).exp()
    }

    /// Exponential draw with the given rate `lambda` (mean `1/lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        let u = 1.0 - self.uniform();
        -u.ln() / lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vectors() {
        // First outputs of SplitMix64 from seed 0 (the generator authors'
        // published sequence) — pins the seeding path.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_reference_vectors() {
        // Pinned first outputs for fixed seeds. These freeze the exact
        // output stream: any change to seeding or stepping is a breaking
        // change to every recorded experiment result.
        let mut r = SimRng::from_seed(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0x53175D61490B23DF,
                0x61DA6F3DC380D507,
                0x5C0FDF91EC9A7BFC,
                0x02EEBF8C3BBE5E1A,
            ]
        );
        let mut r = SimRng::from_seed(42);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xD0764D4F4476689F,
                0x519E4174576F3791,
                0xFBE07CFB0C24ED8C,
                0xB37D9F600CD835B8,
            ]
        );
    }

    #[test]
    fn uniform_reference_vectors() {
        // The f64 conversion is part of the pinned contract too.
        let mut r = SimRng::from_seed(7);
        let got: Vec<u64> = (0..3).map(|_| r.uniform().to_bits()).collect();
        let expect: Vec<u64> = vec![
            0.05536043647833311_f64.to_bits(),
            0.17211585444811772_f64.to_bits(),
            0.7175761283586594_f64.to_bits(),
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn lognormal_and_normal_reference_vectors() {
        // Pinned draws: the log-normal noise on every recorded result
        // flows through these.
        let mut r = SimRng::from_seed(13);
        let logn: Vec<u64> = (0..3).map(|_| r.lognormal(10.0, 0.3).to_bits()).collect();
        let norm: Vec<u64> = (0..3).map(|_| r.normal().to_bits()).collect();
        assert_eq!(
            logn,
            vec![0x4024d1d52c3f46d9, 0x402cfb4e6282d0c1, 0x4023a76dce8ed669]
        );
        assert_eq!(
            norm,
            vec![0x3fd01b1fefa7e961, 0x3ff2a5709d72fa57, 0x3f98b3620264ed52]
        );
    }

    crate::props! {
        /// `normal_from` on a generator's next two raw outputs is the
        /// value `normal` draws from the same position, bit for bit, and
        /// both leave the generator at the same position.
        fn prop_normal_from_matches_normal(seed in 0u64..u64::MAX, skip in 0usize..8) {
            let mut eager = SimRng::from_seed(seed);
            for _ in 0..skip {
                eager.next_u64();
            }
            let mut lazy = eager.clone();
            let raw = [lazy.next_u64(), lazy.next_u64()];
            let want = eager.normal();
            crate::prop_assert!(
                SimRng::normal_from(raw).to_bits() == want.to_bits(),
                "normal_from({raw:?}) != normal() = {want}"
            );
            crate::prop_assert!(lazy.next_u64() == eager.next_u64(), "positions differ");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_order_independent_and_labelled() {
        let root = SimRng::from_seed(7);
        let mut f1a = root.fork(1);
        let mut f2 = root.fork(2);
        let mut f1b = root.fork(1);
        let x = f1a.uniform();
        let _ = f2.uniform();
        assert_eq!(x.to_bits(), f1b.uniform().to_bits());
        assert_ne!(root.fork(1).seed(), root.fork(2).seed());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = r.uniform_range(5.0, 6.0);
            assert!((5.0..6.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = SimRng::from_seed(11);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_and_positivity() {
        let mut r = SimRng::from_seed(13);
        let mut vals: Vec<f64> = (0..20_001).map(|_| r.lognormal(10.0, 0.3)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(vals.iter().all(|&v| v > 0.0));
        let median = vals[vals.len() / 2];
        assert!((median - 10.0).abs() / 10.0 < 0.05, "median {median}");
        assert_eq!(r.lognormal(4.0, 0.0), 4.0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::from_seed(17);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn index_covers_range() {
        let mut r = SimRng::from_seed(19);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_is_unbiased_enough() {
        let mut r = SimRng::from_seed(29);
        let n = 60_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[r.index(3)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.01, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic]
    fn index_empty_panics() {
        SimRng::from_seed(0).index(0);
    }
}
