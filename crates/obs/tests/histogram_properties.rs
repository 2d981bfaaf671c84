//! Property tests for the mergeable histogram and saturating counters —
//! the contract the ROADMAP's fleet-scale percentile sketches build on.
//!
//! * `merge(a, b)` is indistinguishable from recording the concatenated
//!   sample stream into one histogram (so quantiles agree exactly);
//! * merge is commutative and associative;
//! * quantile estimates stay within the documented 25 % bucket resolution
//!   of the exact order statistic;
//! * counters saturate at `u64::MAX` instead of wrapping.

use ariadne_obs::{Histogram, MetricsRegistry};
use proptest::prelude::*;

fn histogram_of(samples: &[u64]) -> Histogram {
    let mut histogram = Histogram::new();
    for &sample in samples {
        histogram.record(sample);
    }
    histogram
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Merging two histograms must be exactly equivalent to one histogram of
    // the concatenated samples — same buckets, count, sum, extrema, and
    // therefore identical quantiles at every probe point.
    #[test]
    fn merge_equals_concatenated_samples(
        xs in proptest::collection::vec(0u64..1 << 40, 0..80),
        ys in proptest::collection::vec(0u64..1 << 40, 0..80),
    ) {
        let mut merged = histogram_of(&xs);
        merged.merge(&histogram_of(&ys));

        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let combined = histogram_of(&all);

        assert_eq!(merged, combined);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), combined.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_is_commutative_and_associative(
        xs in proptest::collection::vec(0u64..1 << 32, 0..60),
        ys in proptest::collection::vec(0u64..1 << 32, 0..60),
        zs in proptest::collection::vec(0u64..1 << 32, 0..60),
    ) {
        let (a, b, c) = (histogram_of(&xs), histogram_of(&ys), histogram_of(&zs));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
    }

    // The estimate is the upper bound of the bucket holding the rank, and
    // buckets are at most 25% wide: exact ≤ estimate ≤ exact * 1.25 + 1.
    #[test]
    fn quantiles_stay_within_bucket_resolution(
        mut samples in proptest::collection::vec(0u64..1 << 40, 1..120),
        q in 0.0f64..1.0,
    ) {
        let histogram = histogram_of(&samples);
        samples.sort_unstable();
        let exact = exact_quantile(&samples, q);
        let estimate = histogram.quantile(q).expect("non-empty");
        assert!(estimate >= exact, "estimate {estimate} below exact {exact}");
        assert!(
            estimate <= exact + exact / 4 + 1,
            "estimate {estimate} beyond 25% of exact {exact}"
        );
    }

    #[test]
    fn counters_saturate_instead_of_wrapping(
        start in proptest::collection::vec(1u64..1 << 50, 1..8),
        delta in 1u64..1 << 50,
    ) {
        let mut registry = MetricsRegistry::new();
        for value in &start {
            registry.count("kills", *value);
        }
        registry.count("kills", u64::MAX);
        let saturated = registry.counter("kills");
        assert_eq!(saturated, u64::MAX, "push past the top must clamp");
        registry.count("kills", delta);
        assert_eq!(registry.counter("kills"), u64::MAX, "stays clamped");

        // Merging two saturated registries must also clamp, not wrap.
        let mut other = MetricsRegistry::new();
        other.count("kills", u64::MAX);
        registry.merge(&other);
        assert_eq!(registry.counter("kills"), u64::MAX);
    }
}
