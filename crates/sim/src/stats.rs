//! The latency histogram of the measurement harnesses.

use crate::time::SimDuration;

/// Log-scaled latency histogram (nanoseconds).
///
/// Buckets are powers of two from 1 ns up; quantiles are answered to
/// bucket resolution, which is ample for reporting p50/p99 of simulated
/// paths.
///
/// Single-threaded and in virtual time, it is the one histogram
/// `un-traffic` can reach: an `un-traffic → un-obs` edge would rewrite
/// the frozen benchmark lockfile. `/metrics` renders `un_obs`'s atomic
/// one instead.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering 1ns ..= ~18s.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum_ns: 0,
        }
    }

    /// Record one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos().max(1);
        let idx = (63 - ns.leading_zeros()) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Quantile `q` in `[0,1]`, to bucket (power-of-two) resolution:
    /// returns an upper bound of the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(1u64 << (i + 1).min(63));
            }
        }
        SimDuration::from_nanos(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bucketed() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(SimDuration::from_nanos(1_000)); // bucket ~2^9..2^10
        }
        h.record(SimDuration::from_nanos(1_000_000));
        let p50 = h.quantile(0.5).as_nanos();
        assert!((1_000..=2_048).contains(&p50), "p50={p50}");
        let p999 = h.quantile(0.999).as_nanos();
        assert!(p999 >= 1_000_000, "p999={p999}");
        assert_eq!(h.count(), 100);
        assert!(h.mean().as_nanos() > 1_000);
    }
}
