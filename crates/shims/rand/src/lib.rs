//! Offline, in-tree stand-in for the subset of the [`rand`] crate API this
//! workspace uses: [`rngs::StdRng`] (seeded via [`SeedableRng::seed_from_u64`]),
//! [`Rng::gen_range`] over integer and float ranges, and
//! [`seq::SliceRandom::shuffle`].
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — not the ChaCha12 generator the real crate uses, so seeded
//! streams differ from upstream `rand`, but the statistical quality is more
//! than sufficient for the moment-matching tests and synthetic data generation
//! in this repository. Swap this shim for crates.io `rand` by editing
//! `[workspace.dependencies]` in the root `Cargo.toml`.
//!
//! [`rand`]: https://docs.rs/rand

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A low-level source of 32/64-bit random words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (the high half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// RNGs that can be constructed deterministically from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a single `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing random-value methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value uniformly from `range`.
    ///
    /// Half-open float ranges never return the excluded upper bound.
    ///
    /// `#[inline]` (here and on the float `sample_single`) so a constant
    /// range folds into the caller wherever that is compiled: left out of
    /// line, the general-range float path costs the Gumbel draw of the
    /// Keyformer score function about 2x (15 vs 26 ns per logit), and whether
    /// it was inlined used to flip with unrelated edits to the calling crate.
    #[inline]
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Ranges that can produce a uniformly distributed sample of `T`.
pub trait SampleRange<T> {
    /// Draws one sample from `rng`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn unit_f64(bits: u64) -> f64 {
    // 53 random bits → uniform in [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn unit_f32(bits: u64) -> f32 {
    // 24 random bits → uniform in [0, 1).
    (bits >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

macro_rules! float_ranges {
    ($($t:ty => $unit:ident),+ $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let v = self.start + (self.end - self.start) * $unit(rng.next_u64());
                // Float rounding can land exactly on the excluded upper bound;
                // nudge back inside the half-open interval.
                if v < self.end {
                    v
                } else {
                    self.end.next_down().max(self.start)
                }
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                start + (end - start) * $unit(rng.next_u64())
            }
        }
    )+};
}

float_ranges!(f32 => unit_f32, f64 => unit_f64);

macro_rules! int_ranges {
    ($($t:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )+};
}

int_ranges!(u8, u16, u32, u64, usize);

macro_rules! signed_int_ranges {
    ($($t:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )+};
}

signed_int_ranges!(i32, i64, isize);

/// Seedable pseudo-random generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic PRNG: xoshiro256++ seeded via
    /// SplitMix64 (David Blackman and Sebastiano Vigna, 2019).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Random operations on slices.
pub mod seq {
    use super::RngCore;

    /// Shuffling and random selection over slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` if the slice is empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let idx = (rng.next_u64() % self.len() as u64) as usize;
                Some(&self[idx])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..8).map(|_| a.gen_range(0.0..1.0)).collect();
        let ys: Vec<f64> = (0..8).map(|_| b.gen_range(0.0..1.0)).collect();
        let zs: Vec<f64> = (0..8).map(|_| c.gen_range(0.0..1.0)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f: f32 = rng.gen_range(f32::EPSILON..1.0);
            assert!((f32::EPSILON..1.0).contains(&f));
            let g: f32 = rng.gen_range(-0.5..=0.5);
            assert!((-0.5..=0.5).contains(&g));
            let u: usize = rng.gen_range(3..9);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..32).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = StdRng::seed_from_u64(4);
        let v = [1u8, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(*v.choose(&mut rng).unwrap() - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(([] as [u8; 0]).choose(&mut rng).is_none());
    }
}
