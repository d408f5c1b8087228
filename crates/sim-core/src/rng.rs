//! Deterministic randomness for simulations.
//!
//! [`SimRng`] wraps a seeded PRNG and adds the distributions the
//! reproduction needs (Bernoulli for the paper's probabilistic injection,
//! exponential for Poisson arrival processes, Gaussian for measurement
//! noise) without pulling in an external distributions crate. Every
//! experiment takes an explicit seed so that results are reproducible
//! run-to-run, and trials differ only by their seed.

/// The core generator: xoshiro256++, seeded via SplitMix64.
///
/// This is the same algorithm (and the same `seed_from_u64` expansion)
/// that `rand 0.8`'s `SmallRng` uses on 64-bit platforms, implemented
/// inline so the workspace carries no external randomness dependency and
/// seeded streams stay bit-identical to the original calibration runs.
#[derive(Debug, Clone, PartialEq)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

dimetrodon_ckpt::state! { Xoshiro256PlusPlus { persisted: s; derived: ; } }

/// One step of the SplitMix64 sequence; returns the mixed output and
/// advances `state`. Used for seed expansion and per-point seed derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a deterministic per-point seed from a base seed and a point
/// index, via SplitMix64. Sweep engines use this so that every grid point
/// gets an independent, reproducible stream that does not depend on
/// execution order or worker count.
#[inline]
pub fn derive_seed(base_seed: u64, point_index: u64) -> u64 {
    let mut state = base_seed ^ point_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut state)
}

impl Xoshiro256PlusPlus {
    /// Seed expansion identical to `SeedableRng::seed_from_u64` for the
    /// xoshiro256++ generator in `rand 0.8`: four SplitMix64 outputs.
    fn from_u64_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut state);
        }
        Xoshiro256PlusPlus { s }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);

        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);

        result
    }

    /// A uniform `f64` in `[0, 1)` from the high 53 bits, matching the
    /// `Standard` distribution for floats.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)` by widening multiply with rejection
    /// (Lemire's method, as in `Uniform<usize>::sample_single`).
    #[inline]
    fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let zone = (n << n.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.next_u64();
            let m = (v as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo <= zone {
                return (m >> 64) as u64;
            }
        }
    }
}

/// A seeded simulation PRNG with the distributions used across the
/// workspace. Its checkpoint state is the xoshiro words plus the
/// Box–Muller spare, so a restored generator continues the stream
/// bit-identically.
///
/// # Examples
///
/// ```
/// use dimetrodon_sim_core::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// // Same seed, same stream.
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256PlusPlus,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

dimetrodon_ckpt::state! { SimRng { persisted: inner, spare_normal; derived: ; } }

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256PlusPlus::from_u64_seed(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; used to give each trial,
    /// thread, or subsystem its own stream so that adding draws in one
    /// place does not perturb another. This splits the stream rather than
    /// copying it: the child's Box–Muller cache starts empty. The copy is
    /// `Clone`.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(seed)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// A Bernoulli trial: `true` with probability `p`.
    ///
    /// This is the primitive behind the paper's probabilistic injection
    /// model — "with user-defined probability `p`, run the idle thread".
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        // Make the endpoints exact regardless of float draw behaviour.
        // Exact endpoint tests are the point: p == 0 must never inject and
        // p == 1 must always inject.
        if p == 0.0 {
            return false;
        }
        #[expect(
            clippy::float_cmp,
            reason = "exact endpoint: p == 1 must always inject"
        )]
        if p == 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.next_below(n as u64) as usize
    }

    /// An exponential sample with the given mean (inter-arrival times of a
    /// Poisson process).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "bad exponential mean: {mean}");
        // Inverse CDF; clamp away from u = 0 to avoid ln(0).
        let u = self.uniform().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// A Gaussian sample via the Box–Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(
            sigma >= 0.0 && sigma.is_finite() && mu.is_finite(),
            "bad normal parameters: mu={mu}, sigma={sigma}"
        );
        if let Some(z) = self.spare_normal.take() {
            return mu + sigma * z;
        }
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        mu + sigma * r * theta.cos()
    }

    /// A log-uniform sample in `[lo, hi)`: uniform in log space, for
    /// parameter sweeps spanning orders of magnitude (e.g. quantum lengths
    /// from 1 ms to 100 ms in Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `lo >= hi`, or either bound is not finite.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && lo < hi && hi.is_finite(), "bad range [{lo}, {hi})");
        (self.uniform_range(lo.ln(), hi.ln())).exp()
    }
}

#[cfg(test)]
mod tests {
    // Checkpoint codec: the decoded generator continues the stream
    // bit-identically, spare Box-Muller cache included.
    #[test]
    fn rng_state_round_trips_bit_for_bit() {
        use dimetrodon_ckpt::{Dec, Enc, State};
        let mut rng = super::SimRng::new(99);
        for _ in 0..7 {
            rng.uniform();
        }
        rng.normal(0.0, 1.0); // prime the spare-normal cache
        let mut enc = Enc::new();
        rng.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let mut restored = super::SimRng::new(0);
        restored.load(&mut dec).unwrap();
        dec.finish().unwrap();
        for _ in 0..64 {
            assert_eq!(rng.uniform().to_bits(), restored.uniform().to_bits());
            assert_eq!(
                rng.normal(2.0, 3.0).to_bits(),
                restored.normal(2.0, 3.0).to_bits()
            );
        }
    }

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        // Nearby indices and nearby base seeds must land far apart.
        let mut seen = std::collections::BTreeSet::new();
        for base in 0..8u64 {
            for idx in 0..64u64 {
                seen.insert(derive_seed(base, idx));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "derived seeds must not collide");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::new(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..32).filter(|_| c1.uniform() == c2.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn bernoulli_endpoints_are_exact() {
        let mut rng = SimRng::new(3);
        assert!((0..1000).all(|_| !rng.bernoulli(0.0)));
        assert!((0..1000).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn bernoulli_rate_approximates_p() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn exponential_mean_approximates_parameter() {
        let mut rng = SimRng::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_approximate_parameters() {
        let mut rng = SimRng::new(17);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bernoulli_rejects_bad_p() {
        SimRng::new(0).bernoulli(1.5);
    }

    #[test]
    #[should_panic(expected = "bad exponential mean")]
    fn exponential_rejects_bad_mean() {
        SimRng::new(0).exponential(0.0);
    }

    proptest! {
        #[test]
        fn prop_uniform_range_in_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 1e-3f64..1e6) {
            let mut rng = SimRng::new(seed);
            let hi = lo + width;
            for _ in 0..32 {
                let x = rng.uniform_range(lo, hi);
                prop_assert!(x >= lo && x < hi);
            }
        }

        #[test]
        fn prop_exponential_nonnegative(seed in any::<u64>(), mean in 1e-3f64..1e6) {
            let mut rng = SimRng::new(seed);
            for _ in 0..32 {
                prop_assert!(rng.exponential(mean) >= 0.0);
            }
        }

        #[test]
        fn prop_log_uniform_in_bounds(seed in any::<u64>(), lo in 1e-3f64..1e3, factor in 1.1f64..1e3) {
            let mut rng = SimRng::new(seed);
            let hi = lo * factor;
            for _ in 0..32 {
                let x = rng.log_uniform(lo, hi);
                prop_assert!(x >= lo && x < hi * (1.0 + 1e-12));
            }
        }

        #[test]
        fn prop_index_in_bounds(seed in any::<u64>(), n in 1usize..1000) {
            let mut rng = SimRng::new(seed);
            for _ in 0..32 {
                prop_assert!(rng.index(n) < n);
            }
        }
    }
}
