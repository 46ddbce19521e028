//! Deterministic random number generation.
//!
//! All randomness in the simulation (ephemeral ports, traffic jitter,
//! fault injection) flows through [`DetRng`] so a run is reproducible
//! from its seed. The generator is a small xoshiro-style PRNG wrapped
//! around `rand`'s `SmallRng`.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded, deterministic RNG.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
    seed: u64,
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `u32`.
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    /// Uniform value in `[low, high)`. Panics if the range is empty.
    pub fn range_u64(&mut self, low: u64, high: u64) -> u64 {
        self.inner.gen_range(low..high)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Uniform value in `[low, high)` for u16 (e.g. ephemeral ports).
    pub fn range_u16(&mut self, low: u16, high: u16) -> u16 {
        self.inner.gen_range(low..high)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
    }

    /// Fill a byte slice with random data (keys, cookies, payloads).
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// Exponentially distributed inter-arrival time with mean `mean_ns`
    /// (Poisson traffic), as integer nanoseconds, at least 1.
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        let v = -mean_ns * u.ln();
        (v.max(1.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::new(7);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let p = r.range_u16(1024, 65535);
            assert!((1024..65535).contains(&p));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exp_ns_positive_and_mean_scale() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean = 1_000.0;
        let sum: u64 = (0..n).map(|_| r.exp_ns(mean)).sum();
        let avg = sum as f64 / n as f64;
        assert!(avg > 900.0 && avg < 1_100.0, "avg={avg}");
    }
}
