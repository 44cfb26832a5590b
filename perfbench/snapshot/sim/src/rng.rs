//! Deterministic random number generation for simulations.

/// A seeded random source shared by all stochastic parts of a simulation.
///
/// All randomness in an experiment (client think times, index page choices,
/// row selections, ...) flows through a single `SimRng` seeded from the
/// experiment configuration, making runs bit-for-bit reproducible. The
/// generator is xoshiro256** seeded via splitmix64 — no external
/// dependencies, stable output across platforms and toolchains.
///
/// # Examples
///
/// ```
/// use tashkent_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform_u64(0, 100), b.uniform_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Next raw 64-bit draw (xoshiro256**).
    fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator; useful for giving each
    /// component its own stream so adding draws in one component does not
    /// perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Uniform integer in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            // Plain modulo reduction: the bias of a 64-bit draw against
            // simulation-sized ranges is negligible, and it keeps the
            // stream simple to reason about.
            lo + self.next_u64() % (hi - lo)
        }
    }

    /// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Exponentially distributed value with the given mean (inverse
    /// transform sampling). Returns 0 for non-positive means.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.unit_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Exponentially distributed duration in microseconds.
    pub fn exp_micros(&mut self, mean_us: u64) -> u64 {
        self.exp_f64(mean_us as f64).round() as u64
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted_index requires a non-empty, positive-sum weight vector"
        );
        let mut x = self.unit_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Zipf-like rank in `[0, n)` with skew `theta` in `(0, 1)`.
    ///
    /// Uses the classic approximation of Gray et al. (SIGMOD '94): rank
    /// `⌊n · u^(1/(1-theta))⌋`, which concentrates mass on low ranks without
    /// a precomputed table. `theta = 0` degenerates to uniform.
    pub fn zipf_rank(&mut self, n: u64, theta: f64) -> u64 {
        if n == 0 {
            return 0;
        }
        if theta <= 0.0 {
            return self.uniform_u64(0, n);
        }
        let u = self.unit_f64();
        let r = (n as f64) * u.powf(1.0 / (1.0 - theta.min(0.999)));
        (r as u64).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..8).map(|_| a.uniform_u64(0, u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.uniform_u64(0, u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = r.uniform_u64(10, 20);
            assert!((10..20).contains(&x));
        }
        assert_eq!(r.uniform_u64(5, 5), 5);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::seed_from(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp_f64(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean} too far from 10");
    }

    #[test]
    fn exp_zero_mean_is_zero() {
        let mut r = SimRng::seed_from(5);
        assert_eq!(r.exp_f64(0.0), 0.0);
        assert_eq!(r.exp_micros(0), 0);
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut r = SimRng::seed_from(6);
        let w = [1.0, 3.0];
        let mut counts = [0u32; 2];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        let frac = counts[1] as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_index_rejects_empty() {
        SimRng::seed_from(0).weighted_index(&[]);
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let mut r = SimRng::seed_from(8);
        let n = 1000;
        let mut low = 0;
        for _ in 0..10_000 {
            let rank = r.zipf_rank(n, 0.8);
            assert!(rank < n);
            if rank < n / 10 {
                low += 1;
            }
        }
        // With theta=0.8, far more than 10% of the mass sits in the lowest decile.
        assert!(low > 4_000, "low-decile mass {low}");
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut r = SimRng::seed_from(9);
        let mut low = 0;
        for _ in 0..10_000 {
            if r.zipf_rank(1000, 0.0) < 100 {
                low += 1;
            }
        }
        assert!((800..1200).contains(&low), "low {low}");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = SimRng::seed_from(10);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let a: Vec<u64> = (0..4).map(|_| c1.uniform_u64(0, u64::MAX)).collect();
        let b: Vec<u64> = (0..4).map(|_| c2.uniform_u64(0, u64::MAX)).collect();
        assert_ne!(a, b);
    }
}
