//! Chunk-size-dependent latency cost model, calibrated to Figure 6.
//!
//! The paper measures compression and decompression latency of LZ4 and LZO on
//! a Google Pixel 7 while sweeping the compression chunk size from 128 B to
//! 128 KiB over 576 MB of anonymous data (Figure 6). Two findings drive
//! Ariadne's design:
//!
//! 1. compressing a fixed amount of data in 128 B chunks is ~59× (LZ4) /
//!    ~42× (LZO) faster than compressing it in 128 KiB chunks, and
//! 2. the compression ratio climbs from about 1.7 to about 3.9 over the same
//!    sweep.
//!
//! A laptop-class x86 core running our from-scratch codecs would not
//! reproduce the phone's absolute numbers, so all *simulated* time in this
//! workspace comes from [`LatencyModel`]: a per-byte cost that grows as a
//! power law of the chunk size, anchored at the paper's two endpoints. The
//! benchmarks additionally report the real measured throughput of the Rust
//! codecs as an auxiliary result.

use crate::algorithm::Algorithm;
use crate::chunk::ChunkSize;
use serde::{Deserialize, Serialize};

/// A simulated duration in nanoseconds.
///
/// Kept as a plain newtype (rather than `std::time::Duration`) because
/// simulated time routinely exceeds what a `u64` of nanoseconds can overflow
/// into when multiplied, and because it makes accidental mixing of wall-clock
/// and simulated time a type error.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct CostNanos(pub u128);

impl CostNanos {
    /// Zero cost.
    #[must_use]
    pub fn zero() -> Self {
        CostNanos(0)
    }

    /// The cost in nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> u128 {
        self.0
    }

    /// The cost in (fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The cost in (fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition.
    #[must_use]
    pub fn saturating_add(self, rhs: CostNanos) -> Self {
        CostNanos(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Add for CostNanos {
    type Output = CostNanos;
    fn add(self, rhs: CostNanos) -> CostNanos {
        CostNanos(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for CostNanos {
    fn add_assign(&mut self, rhs: CostNanos) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for CostNanos {
    fn sum<I: Iterator<Item = CostNanos>>(iter: I) -> CostNanos {
        iter.fold(CostNanos::zero(), |a, b| a + b)
    }
}

/// Calibration parameters for one algorithm.
///
/// The per-byte cost follows a two-segment power law of the chunk size with
/// a knee at 4 KiB: below the knee the cost rises steeply with chunk size
/// (the fine-grained redundancy of anonymous pages makes tiny chunks very
/// cheap to compress), above the knee it rises only gently (the matcher is
/// already operating over multi-page windows). The product of the two
/// segments reproduces the end-to-end slowdown the paper measures between
/// 128 B and 128 KiB chunks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyParams {
    /// Compression cost per byte at the 128 B reference chunk size, in ns.
    pub comp_ns_per_byte_at_128: f64,
    /// Exponent of the compression power law below the 4 KiB knee.
    pub comp_alpha_small: f64,
    /// Exponent of the compression power law above the 4 KiB knee.
    pub comp_alpha_large: f64,
    /// Decompression cost per byte at the 128 B reference chunk size, in ns.
    pub decomp_ns_per_byte_at_128: f64,
    /// Exponent of the decompression power law below the 4 KiB knee.
    pub decomp_alpha_small: f64,
    /// Exponent of the decompression power law above the 4 KiB knee.
    pub decomp_alpha_large: f64,
    /// Fixed per-operation overhead (ns) — dominates for very small chunks.
    pub per_op_overhead_ns: f64,
}

/// Chunk size at which the cost power law changes slope (one page).
const KNEE_BYTES: f64 = 4096.0;

impl LatencyParams {
    /// Parameters reproducing the Figure 6 shape for the given algorithm.
    ///
    /// Anchors: LZ4 compression is 59.2× slower per byte at 128 KiB than at
    /// 128 B, LZO 41.8×; decompression scales more gently. BDI (not measured
    /// in the paper) is modelled as a fast, nearly chunk-size-independent
    /// codec.
    #[must_use]
    pub fn for_algorithm(algorithm: Algorithm) -> Self {
        // Anchors: compressing 128 KiB chunks is 59.2x (LZ4) / 41.8x (LZO)
        // slower per byte than 128 B chunks; most of that slowdown happens
        // below the 4 KiB knee, with only a ~1.25x further increase from 4 KiB
        // to 128 KiB (multi-page chunks amortize the kernel's per-page call
        // overhead). Decompression scales more gently (about 12x end to end,
        // ~1.15x above the knee).
        let span = 32f64.ln(); // both segments cover a 32x size range
        let comp_alpha_large = 1.25f64.ln() / span;
        let decomp_alpha_large = 1.15f64.ln() / span;
        match algorithm {
            Algorithm::Lz4 => LatencyParams {
                comp_ns_per_byte_at_128: 0.55,
                comp_alpha_small: (59.2f64 / 1.25).ln() / span,
                comp_alpha_large,
                decomp_ns_per_byte_at_128: 0.18,
                decomp_alpha_small: (12.0f64 / 1.15).ln() / span,
                decomp_alpha_large,
                per_op_overhead_ns: 4.0,
            },
            Algorithm::Lzo => LatencyParams {
                comp_ns_per_byte_at_128: 0.80,
                comp_alpha_small: (41.8f64 / 1.25).ln() / span,
                comp_alpha_large,
                decomp_ns_per_byte_at_128: 0.25,
                decomp_alpha_small: (12.0f64 / 1.15).ln() / span,
                decomp_alpha_large,
                per_op_overhead_ns: 5.0,
            },
            Algorithm::Bdi => LatencyParams {
                comp_ns_per_byte_at_128: 0.35,
                comp_alpha_small: 0.05,
                comp_alpha_large: 0.05,
                decomp_ns_per_byte_at_128: 0.15,
                decomp_alpha_small: 0.05,
                decomp_alpha_large: 0.05,
                per_op_overhead_ns: 3.0,
            },
        }
    }
}

/// Converts (algorithm, chunk size, byte count) into simulated nanoseconds.
///
/// ```
/// use ariadne_compress::{Algorithm, ChunkSize, LatencyModel};
///
/// let model = LatencyModel::pixel7();
/// let small = model.compression_cost(Algorithm::Lz4, ChunkSize::new(128).unwrap(), 1 << 20);
/// let large = model.compression_cost(Algorithm::Lz4, ChunkSize::k128(), 1 << 20);
/// // Compressing the same megabyte in 128 KiB chunks is dramatically slower.
/// assert!(large.as_nanos() > 40 * small.as_nanos());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    lz4: LatencyParams,
    lzo: LatencyParams,
    bdi: LatencyParams,
}

impl LatencyModel {
    /// The model calibrated to the paper's Pixel 7 measurements.
    #[must_use]
    pub fn pixel7() -> Self {
        LatencyModel {
            lz4: LatencyParams::for_algorithm(Algorithm::Lz4),
            lzo: LatencyParams::for_algorithm(Algorithm::Lzo),
            bdi: LatencyParams::for_algorithm(Algorithm::Bdi),
        }
    }

    fn params(&self, algorithm: Algorithm) -> &LatencyParams {
        match algorithm {
            Algorithm::Lz4 => &self.lz4,
            Algorithm::Lzo => &self.lzo,
            Algorithm::Bdi => &self.bdi,
        }
    }

    fn cost(
        ns_per_byte_at_128: f64,
        alpha_small: f64,
        alpha_large: f64,
        per_op_overhead_ns: f64,
        chunk: ChunkSize,
        bytes: usize,
    ) -> CostNanos {
        if bytes == 0 {
            return CostNanos::zero();
        }
        let size = chunk.bytes() as f64;
        let scale = if size <= KNEE_BYTES {
            (size / 128.0).powf(alpha_small)
        } else {
            (KNEE_BYTES / 128.0).powf(alpha_small) * (size / KNEE_BYTES).powf(alpha_large)
        };
        let per_byte = ns_per_byte_at_128 * scale;
        let ops = (bytes as f64 / chunk.bytes() as f64).ceil();
        let total = per_byte * bytes as f64 + ops * per_op_overhead_ns;
        CostNanos(total.max(0.0) as u128)
    }

    /// Simulated time to compress `bytes` of data in chunks of `chunk`.
    #[must_use]
    pub fn compression_cost(
        &self,
        algorithm: Algorithm,
        chunk: ChunkSize,
        bytes: usize,
    ) -> CostNanos {
        let p = self.params(algorithm);
        Self::cost(
            p.comp_ns_per_byte_at_128,
            p.comp_alpha_small,
            p.comp_alpha_large,
            p.per_op_overhead_ns,
            chunk,
            bytes,
        )
    }

    /// Simulated time to decompress `bytes` of original data that was
    /// compressed in chunks of `chunk`.
    #[must_use]
    pub fn decompression_cost(
        &self,
        algorithm: Algorithm,
        chunk: ChunkSize,
        bytes: usize,
    ) -> CostNanos {
        let p = self.params(algorithm);
        Self::cost(
            p.decomp_ns_per_byte_at_128,
            p.decomp_alpha_small,
            p.decomp_alpha_large,
            p.per_op_overhead_ns,
            chunk,
            bytes,
        )
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::pixel7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB_576: usize = 576 * 1024 * 1024;

    #[test]
    fn figure6_slowdown_anchors_are_reproduced() {
        let model = LatencyModel::pixel7();
        for (alg, expected) in [(Algorithm::Lz4, 59.2), (Algorithm::Lzo, 41.8)] {
            let small = model.compression_cost(alg, ChunkSize::new(128).unwrap(), MB_576);
            let large = model.compression_cost(alg, ChunkSize::k128(), MB_576);
            let slowdown = large.as_nanos() as f64 / small.as_nanos() as f64;
            // Per-op overhead shifts the ratio slightly; accept ±30 %.
            assert!(
                slowdown > expected * 0.7 && slowdown < expected * 1.3,
                "{alg}: slowdown {slowdown}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn cost_is_monotonic_in_chunk_size() {
        let model = LatencyModel::pixel7();
        let costs: Vec<u128> = ChunkSize::figure6_sweep()
            .into_iter()
            .map(|c| {
                model
                    .compression_cost(Algorithm::Lzo, c, 1 << 22)
                    .as_nanos()
            })
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
    }

    #[test]
    fn cost_is_monotonic_in_bytes() {
        let model = LatencyModel::pixel7();
        let a = model.compression_cost(Algorithm::Lz4, ChunkSize::k4(), 4096);
        let b = model.compression_cost(Algorithm::Lz4, ChunkSize::k4(), 8192);
        assert!(b > a);
    }

    #[test]
    fn decompression_is_faster_than_compression() {
        let model = LatencyModel::pixel7();
        for alg in [Algorithm::Lz4, Algorithm::Lzo] {
            let c = model.compression_cost(alg, ChunkSize::k4(), 1 << 20);
            let d = model.decompression_cost(alg, ChunkSize::k4(), 1 << 20);
            assert!(d < c, "{alg}");
        }
    }

    #[test]
    fn lz4_is_faster_than_lzo() {
        let model = LatencyModel::pixel7();
        let lz4 = model.compression_cost(Algorithm::Lz4, ChunkSize::k4(), 1 << 20);
        let lzo = model.compression_cost(Algorithm::Lzo, ChunkSize::k4(), 1 << 20);
        assert!(lz4 < lzo);
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        let model = LatencyModel::pixel7();
        assert_eq!(
            model.compression_cost(Algorithm::Lzo, ChunkSize::k4(), 0),
            CostNanos::zero()
        );
    }

    #[test]
    fn cost_nanos_arithmetic() {
        let mut a = CostNanos(10);
        a += CostNanos(5);
        assert_eq!(a, CostNanos(15));
        assert_eq!(CostNanos(3) + CostNanos(4), CostNanos(7));
        let total: CostNanos = [CostNanos(1), CostNanos(2), CostNanos(3)].into_iter().sum();
        assert_eq!(total, CostNanos(6));
        assert!((CostNanos(2_500_000).as_millis_f64() - 2.5).abs() < 1e-9);
    }
}
