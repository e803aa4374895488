//! Minimal, dependency-free stand-in for the `rand` crate.
//!
//! Provides the deterministic-seeding subset the test suite uses:
//! `StdRng::seed_from_u64`, `gen_range` over integer `Range` /
//! `RangeInclusive`, `gen::<T>()`, and `gen_bool`. The generator is
//! splitmix64 — fast, full-period, and plenty uniform for seeded tests;
//! it is NOT cryptographic and the stream differs from upstream `rand`
//! (only determinism per seed is promised, not cross-crate streams).

#![deny(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling over the type's full domain, for [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types [`Rng::gen_range`] can sample. The blanket
/// [`SampleRange`] impls below are generic over this trait so that type
/// inference ties the range's element type directly to `gen_range`'s
/// return type (`rng.gen_range(1..=3).min(x_u64)` must infer `u64`).
pub trait SampleUniform: Copy + PartialOrd {
    /// `hi - lo` as a bit pattern (exact for every 64-bit-or-smaller int).
    fn span(lo: Self, hi: Self) -> u64;
    /// `lo + offset`, wrapping in the type's domain.
    fn offset(lo: Self, offset: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn span(lo: Self, hi: Self) -> u64 {
                (hi as i128).wrapping_sub(lo as i128) as u64
            }
            fn offset(lo: Self, offset: u64) -> Self {
                (lo as i128).wrapping_add(offset as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics if empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Multiply-shift maps a raw `u64` onto `[0, span)` without modulo bias.
fn widen_mul(raw: u64, span: u64) -> u64 {
    ((raw as u128 * span as u128) >> 64) as u64
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        let span = T::span(self.start, self.end);
        T::offset(self.start, widen_mul(rng.next_u64(), span))
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        let span = T::span(lo, hi);
        if span == u64::MAX {
            return T::offset(lo, rng.next_u64());
        }
        T::offset(lo, widen_mul(rng.next_u64(), span + 1))
    }
}

/// User-facing sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Draw a value covering the whole type (`rng.gen::<u8>()`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draw uniformly from an integer range (`0..n` or `0..=n`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw: `true` with probability `p`. Panics unless
    /// `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator (splitmix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let u = rng.gen_range(0usize..=0);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 buckets should be hit");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4000..6000).contains(&heads), "p=0.5 gave {heads}/10000");
    }
}
