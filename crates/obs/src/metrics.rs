//! Lock-free metric instruments and the process-wide registry.
//!
//! All mutation paths are relaxed atomic read-modify-writes on shared
//! instruments, so scoped-pool worker threads (`microbrowse-par`)
//! aggregate into the same counter or histogram without locks or
//! per-thread merging. The registry itself takes an `RwLock` only on the
//! get-or-create path; hot call sites cache `Arc` handles through the
//! [`crate::counter!`] / [`crate::gauge!`] / [`crate::histogram!`]
//! macros, so steady-state cost is one enabled-flag load plus one
//! relaxed RMW.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one (no-op while instrumentation is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n` (no-op while instrumentation is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (thread counts, cache sizes).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge (no-op while instrumentation is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `delta` (may be negative; no-op while disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Bucket count: values are bucketed by bit length, so bucket `i` holds
/// observations in `[2^(i-1), 2^i - 1]` (bucket 0 holds exactly 0, bucket
/// 64 holds values with the top bit set). 65 buckets cover all of `u64`.
const BUCKETS: usize = 65;

/// Log-bucketed latency histogram (microseconds). Observations land in
/// power-of-two buckets; quantiles are estimated from the cumulative
/// bucket walk, reported as the upper bound of the containing bucket —
/// at most 2x off, which is plenty for p50/p90/p99 latency telemetry.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Point-in-time copy of a histogram's aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (µs).
    pub sum: u64,
    /// Smallest observation, 0 if empty.
    pub min: u64,
    /// Largest observation, 0 if empty.
    pub max: u64,
    /// Estimated p50 (µs).
    pub p50: u64,
    /// Estimated p90 (µs).
    pub p90: u64,
    /// Estimated p99 (µs).
    pub p99: u64,
}

fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation of `us` microseconds (no-op while
    /// instrumentation is disabled).
    #[inline]
    pub fn observe_us(&self, us: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.min.fetch_min(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Record every observation of `us` (microseconds each), leaving the
    /// snapshot an [`Self::observe_us`] loop over them would: one atomic
    /// update per touched bucket and per aggregate, however many values
    /// (no-op while instrumentation is disabled).
    pub fn observe_all_us(&self, us: &[u64]) {
        if us.is_empty() || !crate::enabled() {
            return;
        }
        let mut counts = [0u64; BUCKETS];
        let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
        for &v in us {
            counts[bucket_index(v)] += 1;
            sum = sum.wrapping_add(v);
            min = min.min(v);
            max = max.max(v);
        }
        for (bucket, &n) in self.buckets.iter().zip(&counts) {
            if n != 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(us.len() as u64, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.min.fetch_min(min, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Record the elapsed time since `start` (the partner of
    /// [`crate::now_if_enabled`]; `None` is a no-op).
    #[inline]
    pub fn observe_since(&self, start: Option<Instant>) {
        if let Some(t) = start {
            self.observe_us(t.elapsed().as_micros() as u64);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (0.0..=1.0) as the upper bound of the
    /// bucket containing that rank. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Copy out all aggregates at once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Name-keyed registry of metric instruments.
///
/// `reset` zeroes instrument values in place rather than dropping them:
/// call sites hold `Arc` handles cached in `OnceLock`s (the `counter!`
/// family), and those handles must keep pointing at the live instrument.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    fn get_or_create<T: Default>(
        &self,
        name: &str,
        as_kind: impl Fn(&Metric) -> Option<Arc<T>>,
        wrap: impl Fn(Arc<T>) -> Metric,
    ) -> Arc<T> {
        {
            let metrics = self.metrics.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(existing) = metrics.get(name).and_then(&as_kind) {
                return existing;
            }
        }
        let mut metrics = self.metrics.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = metrics.get(name).and_then(&as_kind) {
            return existing;
        }
        let fresh = Arc::new(T::default());
        // A name registered with a different kind keeps its original
        // entry; the caller gets a detached instrument instead of a
        // panic (misuse shows up as a missing metric, not a crash).
        if !metrics.contains_key(name) {
            metrics.insert(name.to_owned(), wrap(fresh.clone()));
        }
        fresh
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_create(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Metric::Counter,
        )
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_create(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Metric::Gauge,
        )
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_create(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Metric::Histogram,
        )
    }

    /// Zero every instrument's value, keeping all handles valid.
    pub fn reset(&self) {
        let metrics = self.metrics.read().unwrap_or_else(PoisonError::into_inner);
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Render every registered metric in Prometheus text exposition
    /// style. Histograms render as summaries (p50/p90/p99 quantiles plus
    /// `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.read().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} summary");
                    let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", snap.p50);
                    let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", snap.p90);
                    let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", snap.p99);
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::exclusive;

    #[test]
    fn counters_and_gauges_respect_enabled_flag() {
        let _x = exclusive();
        let c = Counter::default();
        let g = Gauge::default();
        crate::set_enabled(false);
        c.inc();
        g.set(5);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        crate::set_enabled(true);
        c.inc();
        c.add(4);
        g.set(5);
        g.add(-2);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 3);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _x = exclusive();
        crate::set_enabled(true);
        let h = Histogram::default();
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.observe_us(10);
        }
        for _ in 0..10 {
            h.observe_us(1000);
        }
        let snap = h.snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 90 * 10 + 10 * 1000);
        assert_eq!(snap.min, 10);
        assert_eq!(snap.max, 1000);
        // 10 lands in bucket [8,15]; p50/p90 report its upper bound.
        assert_eq!(snap.p50, 15);
        assert_eq!(snap.p90, 15);
        // p99 lands among the slow observations, capped at observed max.
        assert!(snap.p99 >= 1000 && snap.p99 <= 1023, "p99={}", snap.p99);
    }

    #[test]
    fn histogram_edges() {
        let _x = exclusive();
        crate::set_enabled(true);
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        h.observe_us(0);
        h.observe_us(u64::MAX);
        let snap = h.snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.p50, 0);
        assert_eq!(snap.p99, u64::MAX);
    }

    /// One batch record leaves the snapshot a loop of single observations
    /// leaves, down to the wrapping sum, for the empty slice and for 0 and
    /// `u64::MAX` among ordinary values.
    #[test]
    fn batch_record_matches_an_observation_loop() {
        let _x = exclusive();
        crate::set_enabled(true);
        let batches: [&[u64]; 5] = [
            &[],
            &[0],
            &[u64::MAX],
            &[7, 0, 1000, 3, 3, 65_536, 12],
            &[5, u64::MAX, 0, 9, u64::MAX, 1 << 40],
        ];
        for values in batches {
            let (looped, batched) = (Histogram::default(), Histogram::default());
            for &v in values {
                looped.observe_us(v);
            }
            batched.observe_all_us(values);
            assert_eq!(batched.snapshot(), looped.snapshot(), "{values:?}");
            for (b, l) in batched.buckets.iter().zip(&looped.buckets) {
                assert_eq!(b.load(Ordering::Relaxed), l.load(Ordering::Relaxed));
            }
        }
        // Disabled, a batch records nothing.
        crate::set_enabled(false);
        let h = Histogram::default();
        h.observe_all_us(&[1, 2, 3]);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_dedups_resets_and_renders() {
        let _x = exclusive();
        let reg = Registry::default();
        crate::set_enabled(true);
        let c1 = reg.counter("test_total");
        let c2 = reg.counter("test_total");
        assert!(Arc::ptr_eq(&c1, &c2));
        c1.add(3);
        reg.gauge("test_gauge").set(-7);
        reg.histogram("test_latency_us").observe_us(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE test_total counter"));
        assert!(text.contains("test_total 3"));
        assert!(text.contains("test_gauge -7"));
        assert!(text.contains("# TYPE test_latency_us summary"));
        assert!(text.contains("test_latency_us{quantile=\"0.99\"} 100"));
        assert!(text.contains("test_latency_us_count 1"));
        // Kind clash: handle is detached, registry entry unchanged.
        let detached = reg.gauge("test_total");
        detached.set(9);
        assert_eq!(reg.counter("test_total").get(), 3);
        reg.reset();
        assert_eq!(c1.get(), 0);
        let c3 = reg.counter("test_total");
        assert!(Arc::ptr_eq(&c1, &c3), "reset must keep handles live");
        crate::set_enabled(false);
    }

    #[test]
    fn concurrent_observations_aggregate() {
        let _x = exclusive();
        crate::set_enabled(true);
        let h = Histogram::default();
        let c = Counter::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        h.observe_us(i % 64);
                        c.inc();
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn macros_cache_handles() {
        let _x = exclusive();
        crate::set_enabled(true);
        let a = crate::counter!("macro_cached_total");
        a.inc();
        crate::counter!("macro_cached_total").inc();
        crate::set_enabled(false);
        // Same call site → same OnceLock → same handle; but even across
        // call sites the registry dedups by name.
        assert_eq!(registry().counter("macro_cached_total").get(), 2);
    }
}
