//! Lightweight metrics used by the runtime monitor and the bench harness.
//!
//! The paper reports candlestick percentiles (5th/25th/50th/75th/95th) for
//! latency and request rates for throughput. [`Histogram`] is a lock-free,
//! log-linear sketch (~3% relative error) suitable for per-item latency
//! recording on the hot path; [`Counter`] and [`Gauge`] are plain atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing atomic counter.
///
/// Increments release and reads acquire, so counters bumped in a fixed
/// order can be read consistently: a reader that loads the later-bumped
/// counter first never sees it ahead of the earlier one.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// An atomically settable instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const BUCKET_GROUPS: usize = 64;
const BUCKET_COUNT: usize = BUCKET_GROUPS * SUB_BUCKETS;

/// A concurrent log-linear histogram of `u64` samples (e.g. nanoseconds).
///
/// Values are mapped to one of 64 power-of-two groups with 32 linear
/// sub-buckets each, giving a worst-case relative error of 1/32. Recording
/// is a single relaxed atomic increment, so many worker threads can share
/// one histogram without contention on a lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build through a Vec.
        let buckets: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKET_COUNT]> = buckets
            .into_boxed_slice()
            .try_into()
            .expect("bucket count is fixed");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            // Group 0 stores small values exactly.
            return value as usize;
        }
        // Group `g ≥ 1` covers `[S·2^(g-1), S·2^g)` where `S = SUB_BUCKETS`,
        // split into S linear sub-buckets of width `2^(g-1)`.
        let msb = 63 - value.leading_zeros();
        let group = (msb - SUB_BUCKET_BITS + 1) as usize;
        let sub = ((value >> (group - 1)) as usize) - SUB_BUCKETS;
        group * SUB_BUCKETS + sub
    }

    /// Returns a representative (midpoint) value for bucket `idx`.
    fn value_of(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let group = idx / SUB_BUCKETS; // ≥ 1
        let sub = (idx % SUB_BUCKETS) as u64;
        let shift = (group - 1) as u32;
        ((SUB_BUCKETS as u64 + sub) << shift) + (1u64 << shift) / 2
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = Self::index_of(value).min(BUCKET_COUNT - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`Duration`] in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Returns the smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Computes a percentile over the recorded samples.
    ///
    /// `p` is clamped into `[0, 100]`: `p <= 0` returns the exact minimum
    /// recorded sample and `p > 100` behaves like `p = 100`. Returns 0 when
    /// the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min();
        }
        let rank = ((p.min(100.0) / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Bucket midpoints can fall outside the observed range;
                // clamp to the exact extremes.
                return Self::value_of(idx)
                    .min(self.max.load(Ordering::Relaxed))
                    .max(self.min());
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Returns the arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// Produces the candlestick summary used in the paper's plots.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p5: self.percentile(5.0),
            p25: self.percentile(25.0),
            p50: self.percentile(50.0),
            p75: self.percentile(75.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets all buckets to zero.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Candlestick percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// 5th percentile.
    pub p5: u64,
    /// 25th percentile.
    pub p25: u64,
    /// Median.
    pub p50: u64,
    /// 75th percentile.
    pub p75: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum sample.
    pub max: u64,
}

/// Measures sustained throughput over a wall-clock interval.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    started: Instant,
    events: Arc<Counter>,
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputMeter {
    /// Starts a meter now.
    pub fn new() -> Self {
        ThroughputMeter {
            started: Instant::now(),
            events: Arc::new(Counter::new()),
        }
    }

    /// Returns a cloneable handle for recording events from worker threads.
    pub fn recorder(&self) -> Arc<Counter> {
        Arc::clone(&self.events)
    }

    /// Records `n` events.
    pub fn add(&self, n: u64) {
        self.events.add(n);
    }

    /// Returns total recorded events.
    pub fn total(&self) -> u64 {
        self.events.get()
    }

    /// Returns events per second since the meter was created.
    pub fn rate(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events.get() as f64 / secs
        }
    }

    /// Returns time elapsed since creation.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(42);
        assert_eq!(g.get(), 42);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.percentile(50.0), 15);
    }

    #[test]
    fn histogram_percentiles_are_within_relative_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expected) in [(50.0, 5_000u64), (95.0, 9_500), (99.0, 9_900)] {
            let got = h.percentile(p);
            let err = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(err < 0.05, "p{p}: got {got}, expected ~{expected}");
        }
    }

    #[test]
    fn histogram_mean_and_max() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(90);
        assert!((h.mean() - 40.0).abs() < 1e-9);
        assert_eq!(h.summary().max, 90);
        assert_eq!(h.summary().count, 3);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_reset_clears_samples() {
        let h = Histogram::new();
        h.record(1_000_000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn percentile_zero_returns_recorded_minimum() {
        let h = Histogram::new();
        h.record(700);
        h.record(1_000);
        h.record(50_000);
        // Regression: p=0 used to land in the first non-empty bucket via a
        // `max(1.0)` rank accident, which reports the bucket midpoint, not
        // the recorded minimum.
        assert_eq!(h.percentile(0.0), 700);
        assert_eq!(h.percentile(-7.5), 700);
        assert_eq!(h.min(), 700);
    }

    #[test]
    fn percentile_above_hundred_clamps_to_max() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(150.0), h.percentile(100.0));
        assert_eq!(h.percentile(f64::INFINITY), h.percentile(100.0));
        assert_eq!(h.percentile(100.0), 1_000);
    }

    #[test]
    fn percentiles_never_leave_the_observed_range() {
        let h = Histogram::new();
        h.record(1_023); // Bucket midpoint is below the sample.
        for p in [0.0, 5.0, 50.0, 95.0, 100.0, 101.0] {
            assert_eq!(h.percentile(p), 1_023, "p{p}");
        }
        let s = h.summary();
        assert_eq!(s.min, 1_023);
        assert_eq!(s.max, 1_023);
    }

    #[test]
    fn min_resets_and_is_zero_when_empty() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(0.0), 0);
        h.record(42);
        assert_eq!(h.min(), 42);
        h.reset();
        assert_eq!(h.min(), 0);
        assert_eq!(h.summary().min, 0);
    }

    #[test]
    fn histogram_handles_huge_values() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn histogram_is_shareable_across_threads() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in 0..1_000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
    }

    #[test]
    fn throughput_meter_counts() {
        let m = ThroughputMeter::new();
        m.add(10);
        m.recorder().add(5);
        assert_eq!(m.total(), 15);
        std::thread::sleep(Duration::from_millis(5));
        assert!(m.rate() > 0.0);
    }
}
