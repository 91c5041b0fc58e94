//! Deterministic random number generation.
//!
//! All stochastic behaviour in the simulator (workload generation, hashed
//! placements) flows through [`DetRng`], a SplitMix64-seeded xoshiro256**
//! generator. Identical seeds yield identical simulations on every platform,
//! which the integration suite relies on for its determinism invariant.

/// A deterministic, seedable random number generator (xoshiro256**).
///
/// # Example
///
/// ```
/// use sim_engine::DetRng;
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator; used to give each GPU/app its
    /// own stream without correlating them.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed(s)
    }

    /// Advances the state and returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A precomputed Zipfian sampler over `[0, n)` with exponent `theta`.
///
/// Zipfian access is used by the PageRank-style random workloads: a small set
/// of hub pages absorbs most accesses, which is what drives their high
/// sharing degree in the paper's Figure 4.
///
/// A draw `u` maps to the first rank whose CDF value is `≥ u`. A guide
/// table over `n` equal buckets of `[0, 1]` starts that search a few
/// steps from the answer instead of bisecting the whole CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]`: the first rank `i` with `cdf[i] ≥ b / n`, for `b` in
    /// `0..=n` (`n − 1` when none is).
    guide: Vec<usize>,
}

impl Zipf {
    /// Builds a sampler over `n` items with skew `theta` (0 = uniform,
    /// typical web-graph skew is 0.8–1.0).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`, or if the CDF is not strictly
    /// increasing (a `theta` so steep that tail ranks round to no mass).
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        assert!(theta >= 0.0, "negative zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf::from_cdf(cdf)
    }

    /// The sampler for `cdf`, which must be non-empty, strictly increasing
    /// and end at 1.
    fn from_cdf(cdf: Vec<f64>) -> Self {
        assert!(
            cdf.windows(2).all(|w| w.first() < w.last()),
            "zipf CDF must be strictly increasing"
        );
        let n = cdf.len();
        let mut guide = Vec::with_capacity(n + 1);
        let mut i = 0;
        for b in 0..=n {
            let edge = b as f64 / n as f64;
            while i + 1 < n && cdf.get(i).is_some_and(|&c| c < edge) {
                i += 1;
            }
            guide.push(i);
        }
        Zipf { cdf, guide }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the hottest item.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.index_of(rng.f64())
    }

    /// The first rank `i` with `cdf[i] ≥ u`, clamped to `n − 1`: the
    /// index `binary_search_by(total_cmp)` finds in a strictly increasing
    /// CDF.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "the guide has n + 1 entries and bucket ≤ n; the loops keep 0 ≤ i ≤ n − 1 before reading cdf[i] or cdf[i − 1]"
    )]
    fn index_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "u·n lies in [0, n] for u in [0, 1]; the float-to-int cast saturates"
        )]
        let bucket = ((u * n as f64) as usize).min(n);
        let mut i = self.guide[bucket];
        // ⌊u·n⌋ may round up a bucket: step back past ranks that also
        // cover u.
        while i > 0 && self.cdf[i - 1] >= u {
            i -= 1;
        }
        while i + 1 < n && self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Number of items in the domain.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    fn below_is_in_bounds_and_covers() {
        let mut rng = DetRng::seed(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::seed(4);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = DetRng::seed(6);
        let z = Zipf::new(1000, 0.99);
        let mut head = 0;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta≈1, the top-1% of items should absorb far more than 1%
        // of draws.
        assert!(head as f64 / DRAWS as f64 > 0.2, "head share {head}");
    }

    #[test]
    fn zipf_zero_theta_is_roughly_uniform() {
        let mut rng = DetRng::seed(8);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "non-uniform bucket: {c}");
        }
    }

    /// The rule `Zipf::index_of` replaces: bisect the whole CDF.
    fn bisect(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn zipf_guide_finds_the_index_bisection_finds() {
        let mut rng = DetRng::seed(10);
        for n in [1, 2, 7, 64, 1_500, 6_000, 12_000] {
            for theta in [0.0, 0.5, 0.85, 0.99, 1.2] {
                let z = Zipf::new(n, theta);
                let check = |u: f64| {
                    assert_eq!(
                        z.index_of(u),
                        bisect(&z.cdf, u),
                        "n {n}, theta {theta}, u {u:e}"
                    );
                };
                for _ in 0..100_000 {
                    check(rng.f64());
                }
                for &c in &z.cdf {
                    check(c);
                    check(c.next_down());
                    check(c.next_up());
                }
                for b in 0..=n {
                    let edge = b as f64 / n as f64;
                    check(edge);
                    check(edge.next_down().max(0.0));
                    check(edge.next_up());
                }
            }
        }
    }

    #[test]
    fn zipf_guide_steps_back_when_a_bucket_rounds_up() {
        // ⌊u·6⌋ rounds up to bucket 5 for the float just below 5/6, whose
        // guide entry (rank 5) is one past the rank that covers u.
        let u = (5.0f64 / 6.0).next_down();
        assert_eq!((u * 6.0).floor(), 5.0);
        let z = Zipf::from_cdf(vec![1.0 / 6.0, 2.0 / 6.0, 0.5, 4.0 / 6.0, u, 1.0]);
        assert_eq!(z.guide[5], 5);
        assert_eq!(z.index_of(u), 4);
        assert_eq!(bisect(&z.cdf, u), 4);
    }

    #[test]
    fn zipf_guide_starts_at_the_first_rank_covering_its_bucket() {
        let z = Zipf::new(64, 0.99);
        assert_eq!(z.guide.len(), 65);
        for (b, &g) in z.guide.iter().enumerate() {
            assert_eq!(g, bisect(&z.cdf, b as f64 / 64.0), "bucket {b}");
        }
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = DetRng::seed(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 3);
    }
}
