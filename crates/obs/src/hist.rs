//! The workspace's one histogram type: lock-free, log-linear buckets.
//!
//! # Bucket layout
//!
//! HDR-style log-linear buckets: values below `2^SUB_BITS` get one bucket
//! each (exact), and every power-of-two range above that is split into
//! `2^SUB_BITS` equal sub-buckets. With [`SUB_BITS`]` = 5` that is 32
//! sub-buckets per octave, a worst-case relative error of `1/32 ≈ 3.1%`,
//! and [`NUM_BUCKETS`]` = 1920` buckets covering the whole `u64` range —
//! small enough to snapshot by copying, precise enough that p999 of a
//! microsecond latency distribution is meaningful, and exact for the
//! small work counts (glue, conflicts per DIP) the registry records.
//!
//! Recording is one relaxed `fetch_add` on a pre-computed index plus one
//! on the running sum: safe to call from every worker thread with no
//! coordination. The registry hands these out by name for deterministic
//! work counts ([`crate::histogram!`]); the serve telemetry and load
//! generator use free-standing ones for wall-clock latencies, outside the
//! registry.
//!
//! # Quantiles
//!
//! [`HistSnapshot::quantile`] uses the nearest-rank definition: the
//! `q`-quantile of `N` observations is the value at rank
//! `max(1, ceil(q*N))` in sorted order, reported as the upper bound of
//! the bucket that rank falls in. The property test `quantile_prop`
//! checks it against a sorted-vector oracle: the histogram quantile
//! equals the oracle value rounded up to its bucket bound, for every
//! distribution tried.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: `2^SUB_BITS` linear sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
const LINEAR: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * (1 << SUB_BITS as usize);

/// The bucket index recording `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let shift = (msb - u64::from(SUB_BITS)) as u32;
        let offset = ((v >> shift) & (LINEAR - 1)) as usize;
        (shift as usize + 1) * LINEAR as usize + offset
    }
}

/// The largest value that lands in bucket `idx` — what quantile
/// extraction reports, so reported quantiles never understate.
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR as usize {
        idx as u64
    } else {
        let shift = (idx / LINEAR as usize - 1) as u32;
        let offset = (idx % LINEAR as usize) as u64;
        // Saturate at the top of the u64 range (the last bucket's upper
        // bound would otherwise overflow).
        ((LINEAR + offset + 1) << shift)
            .wrapping_sub(1)
            .max(1 << shift)
    }
}

/// A lock-free log-linear histogram of `u64` observations. The running
/// sum wraps on overflow; [`HistSnapshot::delta_from`] subtracts it
/// modulo `2^64`, so deltas stay exact while they fit in a `u64`.
#[derive(Debug)]
pub struct LogLinearHistogram {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogLinearHistogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation (relaxed atomic add).
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value in one atomic add (bulk
    /// import of externally aggregated histograms, e.g. per-solver glue
    /// distributions merged after an attack).
    pub fn record_n(&self, v: u64, n: u64) {
        self.counts[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Zeroes every bucket (used when an epoch slot is recycled).
    pub fn clear(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut acc = HistSnapshot::empty();
        self.accumulate(&mut acc);
        acc
    }

    /// Adds this histogram's counts and sum into `acc` (merging the
    /// epochs of a windowed ring without a copy per epoch).
    pub fn accumulate(&self, acc: &mut HistSnapshot) {
        for (slot, c) in acc.counts.iter_mut().zip(self.counts.iter()) {
            *slot += c.load(Ordering::Relaxed);
        }
        acc.sum = acc.sum.wrapping_add(self.sum.load(Ordering::Relaxed));
    }
}

/// A point-in-time (or merged, or delta) copy of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub counts: Vec<u64>,
    /// Sum of all recorded values (for mean / Prometheus `_sum`).
    pub sum: u64,
}

impl HistSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> Self {
        HistSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The observations recorded *since* `earlier`, bucket by bucket.
    pub fn delta_from(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, was)| now.saturating_sub(*was))
                .collect(),
            sum: self.sum.wrapping_sub(earlier.sum),
        }
    }

    /// `(upper bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_upper(idx), c))
    }

    /// The nearest-rank `q`-quantile, as the upper bound of the bucket
    /// the rank falls in; 0 when empty. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx);
            }
        }
        bucket_upper(NUM_BUCKETS - 1)
    }

    /// The largest recorded value, rounded up to its bucket bound.
    pub fn max(&self) -> u64 {
        self.quantile(1.0)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            0.0
        } else {
            self.sum as f64 / total as f64
        }
    }

    /// Count of observations whose bucket upper bound is `<= bound` —
    /// the cumulative `le` series for Prometheus exposition. Values are
    /// attributed to their bucket bound, so the result can overstate by
    /// at most one bucket's relative error (≈3%), never understate.
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(idx, _)| bucket_upper(*idx) <= bound)
            .map(|(_, &c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every probe value lands in a bucket whose range contains it:
        // upper bound >= value, and the previous bucket's upper < value.
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx > 0 {
                assert!(
                    bucket_upper(idx - 1) < v,
                    "value {v} fits an earlier bucket"
                );
            }
        }
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for idx in 1..NUM_BUCKETS {
            let upper = bucket_upper(idx);
            assert!(
                upper > prev,
                "bounds not increasing at {idx}: {upper} <= {prev}"
            );
            prev = upper;
        }
    }

    #[test]
    fn relative_error_is_bounded_by_sub_bucket_width() {
        for &v in &[100u64, 999, 12_345, 1_000_000, 123_456_789] {
            let upper = bucket_upper(bucket_index(v));
            let err = (upper - v) as f64 / v as f64;
            assert!(
                err <= 1.0 / LINEAR as f64 + 1e-9,
                "error {err} too large for {v}"
            );
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = LogLinearHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        // Nearest-rank p50 of 1..=1000 is 500; the histogram reports its
        // bucket upper bound.
        assert_eq!(snap.quantile(0.50), bucket_upper(bucket_index(500)));
        assert_eq!(snap.quantile(0.99), bucket_upper(bucket_index(990)));
        assert_eq!(snap.quantile(0.999), bucket_upper(bucket_index(999)));
        assert_eq!(snap.max(), bucket_upper(bucket_index(1000)));
        assert_eq!(snap.sum, 500_500);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = LogLinearHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.cumulative_le(u64::MAX), 0);
        assert_eq!(snap.nonzero_buckets().count(), 0);
    }

    #[test]
    fn record_n_equals_n_records() {
        let bulk = LogLinearHistogram::new();
        let single = LogLinearHistogram::new();
        bulk.record_n(7, 3);
        bulk.record_n(1_000, 2);
        for v in [7, 7, 7, 1_000, 1_000] {
            single.record(v);
        }
        assert_eq!(bulk.snapshot(), single.snapshot());
        assert_eq!(
            bulk.snapshot().nonzero_buckets().collect::<Vec<_>>(),
            vec![(7, 3), (bucket_upper(bucket_index(1_000)), 2)]
        );
    }

    #[test]
    fn delta_subtracts_counts_and_sum() {
        let h = LogLinearHistogram::new();
        h.record(5);
        let before = h.snapshot();
        h.record(5);
        h.record(40);
        let delta = h.snapshot().delta_from(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 45);
        assert_eq!(delta.nonzero_buckets().next(), Some((5, 1)));
    }

    #[test]
    fn cumulative_le_matches_manual_count() {
        let h = LogLinearHistogram::new();
        for v in [1u64, 5, 10, 100, 1000, 100_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        // Bounds below hold exactly because each probe's bucket upper
        // bound stays under the next cumulative bound tested.
        assert_eq!(snap.cumulative_le(1), 1);
        assert_eq!(snap.cumulative_le(16), 3);
        assert_eq!(snap.cumulative_le(2048), 5);
        assert_eq!(snap.cumulative_le(u64::MAX), 6);
    }
}
