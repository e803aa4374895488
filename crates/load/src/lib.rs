//! `dpfs-load` — a zipfian sampler, the skew model of tenant file
//! popularity (λFS's bursty, skewed metadata load; FalconFS's small-file
//! storm). The benchmark's `small_read` workload draws its files from it;
//! the benchmark's sources are frozen and import `dpfs_load::Zipf`, which
//! is why this one type is still a crate of its own.

#![deny(unsafe_code)]

use rand::rngs::StdRng;
use rand::Rng;

/// A zipfian sampler over `n` ranked items (rank 0 most popular), the
/// standard skew model for tenant file popularity. Weights are
/// `1 / (rank+1)^s`; sampling is a binary search over the precomputed
/// CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` items with exponent `s` (s = 0 is uniform,
    /// s = 1 the classic zipf). Panics if `n` is 0.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate and the tail must still be reachable.
        assert!(counts[0] > counts[10] && counts[10] > 0);
        assert!(counts[0] > 2_000, "rank 0 drew {}", counts[0]);
        assert!(counts[50..].iter().sum::<u64>() > 0, "tail never sampled");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u64; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "bucket {i} drew {c}");
        }
    }
}
