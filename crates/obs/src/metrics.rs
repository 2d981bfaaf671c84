//! Mergeable counters and log-bucketed histograms.
//!
//! The registry is the seed of the ROADMAP's fleet-scale percentile
//! sketches: a [`Histogram`] is a log-linear bucket array (4 sub-buckets per
//! power of two → every bucket is at most 25 % wide), so
//! [`Histogram::merge`] is exactly bucket-wise addition and quantiles of a
//! merged histogram equal quantiles of the concatenated sample stream —
//! pinned by the property tests in `tests/histogram_properties.rs`.
//! Counters saturate rather than wrap.
//!
//! Registries are built from the simulator's ledgers when asked for, not
//! bumped while it runs; a [`MetricsHandle`] only collects merges.

use crate::json_escape;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Well-known histogram names, so the simulator, the reports and the tests
/// agree on spelling.
pub mod names {
    /// Warm-relaunch latency, microseconds.
    pub const RELAUNCH_WARM_MICROS: &str = "relaunch_warm_micros";
    /// Cold-relaunch latency, microseconds.
    pub const RELAUNCH_COLD_MICROS: &str = "relaunch_cold_micros";
    /// Per-relaunch I/O stall, microseconds.
    pub const IO_STALL_MICROS: &str = "io_stall_micros";
    /// PSI some-avg samples at lmkd wakes, parts-per-million.
    pub const PSI_SOME_PPM: &str = "psi_some_ppm";
    /// Compressed size as a percentage of original size.
    pub const COMPRESSION_RATIO_PCT: &str = "compression_ratio_pct";
}

/// Sub-buckets per power of two. Four sub-buckets bound the relative bucket
/// width at 1/4, so any quantile is within 25 % of the exact sample value.
const SUB_BUCKET_BITS: u32 = 2;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Values 0..SUB_BUCKETS get exact unit buckets; each following octave
/// contributes SUB_BUCKETS buckets up to the top bit of `u64`.
const BUCKET_COUNT: usize = (SUB_BUCKETS + (64 - SUB_BUCKET_BITS as u64) * SUB_BUCKETS) as usize;

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let base = (msb - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS as usize;
    let sub = ((value >> (msb - SUB_BUCKET_BITS)) - SUB_BUCKETS) as usize;
    base + sub
}

fn bucket_lower(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let group = index as u64 / SUB_BUCKETS;
    let msb = group - 1 + SUB_BUCKET_BITS as u64;
    let sub = index as u64 % SUB_BUCKETS;
    (1u64 << msb) + (sub << (msb - SUB_BUCKET_BITS as u64))
}

fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let group = index as u64 / SUB_BUCKETS;
    let msb = group - 1 + SUB_BUCKET_BITS as u64;
    let width = 1u64 << (msb - SUB_BUCKET_BITS as u64);
    // The very top bucket ends exactly at u64::MAX; saturate instead of
    // overflowing past it.
    bucket_lower(index).saturating_add(width - 1)
}

/// A log-linear histogram of `u64` samples with exact count/sum (so the mean
/// is exact) and ≤25 %-wide buckets (so quantiles are within bucket
/// resolution). Merging is bucket-wise addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let index = bucket_index(value);
        self.counts[index] = self.counts[index].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(value));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of all samples, if any.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank — within 25 % of the exact order statistic.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(bucket);
            if seen >= rank {
                return Some(bucket_upper(index).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Adds every bucket, the count, the sum and the extrema of `other`
    /// into `self`. Exactly equivalent to having recorded both sample
    /// streams into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower, upper, count)` triples.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_lower(index), bucket_upper(index), count))
            .collect()
    }

    fn to_json(&self) -> String {
        let quantiles = |q| {
            self.quantile(q)
                .map_or_else(|| "null".to_string(), |v| v.to_string())
        };
        let buckets: Vec<String> = self
            .buckets()
            .iter()
            .map(|(lower, upper, count)| format!("[{lower},{upper},{count}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min().map_or_else(|| "null".into(), |v| v.to_string()),
            self.max().map_or_else(|| "null".into(), |v| v.to_string()),
            self.mean()
                .map_or_else(|| "null".into(), |v| format!("{v:.3}")),
            quantiles(0.5),
            quantiles(0.9),
            quantiles(0.99),
            buckets.join(",")
        )
    }
}

/// Named saturating counters plus named [`Histogram`]s, both stored in
/// `BTreeMap`s so every export is deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (saturating).
    pub fn count(&mut self, name: &str, delta: u64) {
        let counter = self.counters.entry(name.to_string()).or_insert(0);
        *counter = counter.saturating_add(delta);
    }

    /// Records one sample into the named histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Merges `histogram` into the named histogram. An empty histogram adds
    /// no entry, exactly as if nothing had been recorded under the name.
    pub fn merge_histogram(&mut self, name: &str, histogram: &Histogram) {
        if histogram.count() > 0 {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .merge(histogram);
        }
    }

    /// Current value of the named counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges another registry into this one: counters add (saturating),
    /// histograms merge bucket-wise. The cross-cell aggregation primitive.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            self.count(name, *value);
        }
        for (name, histogram) in &other.histograms {
            self.merge_histogram(name, histogram);
        }
    }

    /// Exports the registry as one deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("{}:{value}", json_escape(name)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, histogram)| format!("{}:{}", json_escape(name), histogram.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            histograms.join(",")
        )
    }
}

/// A cheap, cloneable collector of [`MetricsRegistry`] merges, or — the
/// default — a disabled handle that ignores them. Merges commute, so
/// systems running concurrently on several threads may share one
/// collector and the result does not depend on which finished first.
#[derive(Clone, Default)]
pub struct MetricsHandle {
    inner: Option<Arc<Mutex<MetricsRegistry>>>,
}

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHandle")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl MetricsHandle {
    /// A handle with no registry attached.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsHandle::default()
    }

    /// A handle backed by a fresh shared registry.
    #[must_use]
    pub fn new_registry() -> Self {
        MetricsHandle {
            inner: Some(Arc::new(Mutex::new(MetricsRegistry::new()))),
        }
    }

    /// Whether a registry is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Merges `registry` into the collected one (no-op when disabled).
    /// Never panics: systems merge from `Drop`, so a lock poisoned by a
    /// panicking thread skips the merge instead.
    pub fn merge(&self, registry: &MetricsRegistry) {
        if let Some(inner) = &self.inner {
            if let Ok(mut collected) = inner.lock() {
                collected.merge(registry);
            }
        }
    }

    /// A copy of the collected registry (None when disabled).
    #[must_use]
    pub fn snapshot(&self) -> Option<MetricsRegistry> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.lock().ok().map(|registry| registry.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_monotone_and_total() {
        let probes = [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            15,
            16,
            100,
            1_000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ];
        let mut last = None;
        for &value in &probes {
            let index = bucket_index(value);
            assert!(index < BUCKET_COUNT, "index {index} for {value}");
            assert!(
                bucket_lower(index) <= value && value <= bucket_upper(index),
                "value {value} outside bucket [{}, {}]",
                bucket_lower(index),
                bucket_upper(index)
            );
            if let Some(previous) = last {
                assert!(index >= previous, "indexing must be monotone");
            }
            last = Some(index);
        }
    }

    #[test]
    fn bucket_width_is_within_a_quarter() {
        for &value in &[17u64, 100, 999, 4097, 1 << 30] {
            let index = bucket_index(value);
            let width = bucket_upper(index) - bucket_lower(index);
            assert!(
                (width as f64) <= 0.25 * bucket_lower(index) as f64,
                "bucket [{}, {}] wider than 25% at {value}",
                bucket_lower(index),
                bucket_upper(index)
            );
        }
    }

    #[test]
    fn mean_is_exact_and_quantiles_bracket_samples() {
        let mut histogram = Histogram::new();
        for value in [10u64, 20, 30, 40, 1000] {
            histogram.record(value);
        }
        assert_eq!(histogram.count(), 5);
        assert_eq!(histogram.mean(), Some(220.0));
        assert_eq!(histogram.min(), Some(10));
        assert_eq!(histogram.max(), Some(1000));
        let p50 = histogram.quantile(0.5).unwrap();
        assert!((20..=40).contains(&p50), "p50={p50}");
        assert_eq!(histogram.quantile(1.0), Some(1000));
    }

    #[test]
    fn registry_merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.count("kills", 2);
        b.count("kills", 3);
        a.record(names::PSI_SOME_PPM, 100);
        b.record(names::PSI_SOME_PPM, 200);
        a.merge(&b);
        assert_eq!(a.counter("kills"), 5);
        assert_eq!(a.histogram(names::PSI_SOME_PPM).unwrap().count(), 2);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let mut registry = MetricsRegistry::new();
        registry.count("kills", 1);
        registry.record(names::PSI_SOME_PPM, 1);
        let handle = MetricsHandle::disabled();
        handle.merge(&registry);
        assert!(handle.snapshot().is_none());
        let collector = MetricsHandle::new_registry();
        collector.merge(&registry);
        collector.merge(&registry);
        assert_eq!(collector.snapshot().unwrap().counter("kills"), 2);
    }

    #[test]
    fn merging_an_empty_histogram_adds_no_entry() {
        let mut registry = MetricsRegistry::new();
        registry.merge_histogram(names::PSI_SOME_PPM, &Histogram::new());
        assert!(registry.histogram(names::PSI_SOME_PPM).is_none());
        assert_eq!(registry, MetricsRegistry::new());
    }

    #[test]
    fn registry_json_is_deterministic_and_ordered() {
        let mut registry = MetricsRegistry::new();
        registry.count("zeta", 1);
        registry.count("alpha", 2);
        registry.record("lat", 42);
        let json = registry.to_json();
        assert!(json.find("\"alpha\"").unwrap() < json.find("\"zeta\"").unwrap());
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"histograms\":{"));
        assert_eq!(json, registry.clone().to_json());
    }
}
