//! Metric primitives: counters, gauges, and log-bucket histograms.
//!
//! Every handle is a cheap `Arc`-backed clone over atomics, so the hot
//! path (a parser loop bumping a counter per record) never takes a lock:
//! the registry's map is only consulted when a handle is first looked
//! up. Keep handles outside loops.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (registry-attached ones come from
    /// [`crate::Registry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, pool sizes).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: zero, 62 powers of two, and overflow.
pub const BUCKETS: usize = 64;

/// A histogram over `u64` samples with fixed log-spaced (power-of-two)
/// buckets.
///
/// Bucket 0 holds exact zeros, bucket `i` (1..=62) holds samples in
/// `[2^(i-1), 2^i)`, and bucket 63 is the overflow bucket for samples
/// at or above `2^62`. Quantiles are estimated by linear interpolation
/// inside the bucket containing the rank, clamped to the observed
/// min/max, so they are exact at the distribution's ends and within a
/// factor-of-two bucket elsewhere.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Lower/upper value bounds of bucket `i` (upper is exclusive).
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        _ if i < BUCKETS - 1 => (1 << (i - 1), 1 << i),
        _ => (1 << (BUCKETS - 2), u64::MAX),
    }
}

impl Histogram {
    /// A free-standing histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.0.min.load(Ordering::Relaxed)),
        }
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.0.max.load(Ordering::Relaxed)),
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile falls on.
        let rank = ((q * count as f64).ceil() as u64).max(1);
        // The extreme ranks are tracked exactly; only interior ranks need
        // the bucket estimate.
        if rank >= count {
            return self.max();
        }
        if rank == 1 {
            return self.min();
        }
        let mut before: u64 = 0;
        for i in 0..BUCKETS {
            let here = self.0.buckets[i].load(Ordering::Relaxed);
            if here == 0 {
                continue;
            }
            if before + here >= rank {
                let (lo, hi) = bucket_bounds(i);
                // Interpolate the rank's midpoint position inside the
                // bucket (rank k of n sits at (k - 0.5)/n, so a bucket's
                // only sample estimates to its middle, not its edge).
                let into = ((rank - before) as f64 - 0.5) / here as f64;
                let est = lo as f64 + into * (hi.saturating_sub(lo)) as f64;
                let est = est as u64;
                // Clamp to observed extremes: exact at the ends.
                return Some(est.clamp(
                    self.0.min.load(Ordering::Relaxed),
                    self.0.max.load(Ordering::Relaxed),
                ));
            }
            before += here;
        }
        self.max()
    }

    /// Fold every sample of `other` into `self`: buckets, count, and
    /// sum add (sum saturating), min/max widen. This is how sharded
    /// windowed histograms aggregate ([`crate::window`]): each
    /// single-writer shard slot is merged into one snapshot histogram
    /// whose quantiles are then read once.
    ///
    /// Merging is a snapshot-time operation: concurrent `record` calls
    /// on `other` may or may not be included (each field is read once,
    /// relaxed), but `self` never goes inconsistent beyond the same
    /// tolerance `record` itself has.
    pub fn merge(&self, other: &Histogram) {
        let count = other.0.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        for i in 0..BUCKETS {
            let n = other.0.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                self.0.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(count, Ordering::Relaxed);
        let sum = self
            .0
            .sum
            .load(Ordering::Relaxed)
            .saturating_add(other.0.sum.load(Ordering::Relaxed));
        self.0.sum.store(sum, Ordering::Relaxed);
        self.0
            .min
            .fetch_min(other.0.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .max
            .fetch_max(other.0.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Drop every sample, returning the histogram to its empty state.
    /// Not atomic with respect to concurrent `record` calls — callers
    /// (ring-buffer slot rotation in [`crate::window`]) guarantee a
    /// single writer per histogram.
    pub fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
        self.0.min.store(u64::MAX, Ordering::Relaxed);
        self.0.max.store(0, Ordering::Relaxed);
    }

    /// Summarize into a plain-data snapshot.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Plain-data snapshot of a histogram (what reports serialize).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bounds(1), (1, 2));
        assert_eq!(bucket_bounds(2), (2, 4));
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));
    }

    #[test]
    fn quantile_single_sample_is_exact_everywhere() {
        let h = Histogram::new();
        h.record(1500);
        // With one sample every quantile — including the clamped
        // out-of-range ones — is that sample, not a bucket estimate.
        for q in [-0.5, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(h.quantile(q), Some(1500), "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_are_exact() {
        let h = Histogram::new();
        for v in [3, 900, 17, 1_000_000, 0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0), "q=0 is the exact minimum");
        assert_eq!(h.quantile(1.0), Some(1_000_000), "q=1 is the exact maximum");
    }

    #[test]
    fn quantile_zero_samples_stay_zero() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(0));
        }
    }

    #[test]
    fn quantile_bucket_boundary_values() {
        // Powers of two sit on bucket edges: 4 opens [4,8), so an
        // interior rank landing in that bucket must estimate within it
        // and inside the observed extremes.
        let h = Histogram::new();
        for v in [4, 4, 4, 8] {
            h.record(v);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((4..8).contains(&p50), "p50={p50} outside [4,8)");
        assert_eq!(h.quantile(1.0), Some(8));
        assert_eq!(h.quantile(0.0), Some(4));
        // Interior quantiles never escape [min, max] even when the
        // overflow-adjacent bucket is hit.
        let h2 = Histogram::new();
        h2.record(1);
        h2.record(1 << 62);
        h2.record(u64::MAX);
        for q in [0.3, 0.5, 0.7] {
            let v = h2.quantile(q).unwrap();
            assert!((1..=u64::MAX).contains(&v), "q={q} v={v}");
        }
    }

    #[test]
    fn quantile_uniform_distribution_is_roughly_right() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        // Log-bucket estimate: within a factor of two of the true median.
        assert!((250..=1000).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn merge_of_two_empty_histograms_stays_empty() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), None);
        assert_eq!(a.min(), None);
    }

    #[test]
    fn merge_into_empty_is_a_copy() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [10, 20, 30] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 60);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(30));
        assert_eq!(a.quantile(1.0), Some(30));
    }

    #[test]
    fn merge_widens_extremes_and_adds_counts() {
        let a = Histogram::new();
        a.record(100);
        a.record(200);
        let b = Histogram::new();
        b.record(1);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 1_000_301);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(1_000_000));
        // Every quantile stays inside the widened extremes.
        for q in [0.25, 0.5, 0.75] {
            let v = a.quantile(q).unwrap();
            assert!((1..=1_000_000).contains(&v), "q={q} v={v}");
        }
    }

    #[test]
    fn merge_of_single_bucket_histograms_keeps_the_bucket() {
        // Both sides live entirely in bucket_of(5) = [4, 8): the merged
        // estimate must stay in that bucket and inside [min, max].
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..10 {
            a.record(5);
            b.record(6);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        let p50 = a.quantile(0.5).unwrap();
        assert!((5..=6).contains(&p50), "p50={p50}");
        assert_eq!(a.quantile(0.0), Some(5));
        assert_eq!(a.quantile(1.0), Some(6));
    }

    #[test]
    fn merge_saturates_the_sum_and_keeps_overflow_bucket_quantiles_sane() {
        let a = Histogram::new();
        a.record(u64::MAX);
        let b = Histogram::new();
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(a.quantile(q), Some(u64::MAX), "q={q}");
        }
    }

    #[test]
    fn reset_returns_to_the_empty_state() {
        let h = Histogram::new();
        for v in [0, 7, 9000] {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        // Recording after a reset behaves like a fresh histogram.
        h.record(42);
        assert_eq!((h.min(), h.max()), (Some(42), Some(42)));
    }

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }
}
