//! Lock-free log₂-bucketed latency histograms for the `stats` reply.
//!
//! A serving process wants tail latency (p50/p90/p99), not just sums;
//! a full reservoir is overkill for a stats line. [`LatencyHistogram`]
//! buckets each sample by the position of its most significant bit in
//! **microseconds**, so the whole structure is a fixed array of atomic
//! counters — `record` is wait-free and safe from every compiling thread —
//! and quantiles are read as the upper bound of the bucket holding the
//! rank, i.e. conservative within a factor of 2. That resolution is
//! plenty to make "warm compiles are orders of magnitude cheaper than
//! cold ones" legible in `stats`/bench output, which is what the serving
//! histograms are for.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` µs, and the last bucket is open-ended. 40 buckets
/// reach ~2^40 µs ≈ 12.7 days, far beyond any compile.
const BUCKETS: usize = 40;

/// A concurrent latency histogram over log₂-spaced microsecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one sample, given in seconds. Sub-microsecond samples land
    /// in the first bucket.
    pub fn record(&self, seconds: f64) {
        let us = (seconds * 1e6).max(0.0) as u64;
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as an upper bound in seconds:
    /// the top of the bucket containing the sample of that rank.
    /// Returns 0 for an empty histogram.
    pub fn quantile_sec(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) µs.
                return (1u64 << (i + 1).min(63)) as f64 * 1e-6;
            }
        }
        unreachable!("rank ≤ total");
    }

    /// Count + p50/p90/p99, as one serializable row.
    pub fn snapshot(&self) -> Quantiles {
        Quantiles {
            count: self.count(),
            p50_sec: self.quantile_sec(0.50),
            p90_sec: self.quantile_sec(0.90),
            p99_sec: self.quantile_sec(0.99),
        }
    }
}

/// A point-in-time summary of one [`LatencyHistogram`]: sample count and
/// conservative (bucket-upper-bound) tail quantiles in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, serde::Deserialize)]
pub struct Quantiles {
    /// Samples recorded.
    pub count: u64,
    /// Median upper bound, seconds.
    pub p50_sec: f64,
    /// 90th-percentile upper bound, seconds.
    pub p90_sec: f64,
    /// 99th-percentile upper bound, seconds.
    pub p99_sec: f64,
}

/// The serving process's histogram set: end-to-end request latency,
/// admission wait and persistence lag, plus the three interesting
/// compile stages, each aggregated from [`mps::StageMetrics`] of actual
/// (non-cached) compiles.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Compile-request latency as each reply's `latency_sec` measures it
    /// (cache hits included — that is the point: hits pull the tail in).
    pub total: LatencyHistogram,
    /// End-to-end latency of **accepted** (non-cached) compiles only.
    /// This is the population the shed retry hint must be derived from:
    /// under warm-hit-heavy traffic the total histogram's p50 collapses
    /// to microseconds and would tell shed clients to retry immediately.
    pub accepted: LatencyHistogram,
    /// Admission wait: the wait for a compile permit (misses only; hits
    /// never wait).
    pub queue_wait: LatencyHistogram,
    /// Write-behind lag: save handed to the persister → file renamed
    /// into place.
    pub persist: LatencyHistogram,
    /// Enumeration stage of actual compiles.
    pub enumerate: LatencyHistogram,
    /// Selection stage of actual compiles.
    pub select: LatencyHistogram,
    /// Scheduling stage of actual compiles.
    pub schedule: LatencyHistogram,
}

impl StageHistograms {
    /// Record the per-stage wall times of one actual compile.
    pub fn record_stages(&self, m: &mps::StageMetrics) {
        self.enumerate.record(m.enumerate_sec);
        self.select.record(m.select_sec);
        self.schedule.record(m.schedule_sec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_sec(0.5), 0.0);
        assert_eq!(h.snapshot(), Quantiles::default());
    }

    #[test]
    fn quantiles_bound_their_samples() {
        let h = LatencyHistogram::new();
        // 90 fast samples at ~3 µs, 10 slow at ~900 µs.
        for _ in 0..90 {
            h.record(3e-6);
        }
        for _ in 0..10 {
            h.record(900e-6);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_sec(0.50);
        let p99 = h.quantile_sec(0.99);
        // p50 is bounded by the fast bucket (3 µs < p50 ≤ 4 µs);
        // p99 must land in the slow bucket (900 µs < p99 ≤ 1024 µs).
        assert!((3e-6..=4e-6).contains(&p50), "p50 = {p50}");
        assert!((900e-6..=1024e-6).contains(&p99), "p99 = {p99}");
        assert!(h.quantile_sec(1.0) >= p99);
    }

    #[test]
    fn extremes_clamp_into_range() {
        let h = LatencyHistogram::new();
        h.record(0.0); // sub-µs → first bucket
        h.record(1e9); // absurd → last bucket, no panic
        assert_eq!(h.count(), 2);
        assert!(h.quantile_sec(1.0) > 0.0);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 * 1e-6);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
