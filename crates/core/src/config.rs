//! Ariadne configuration: chunk-size triples and the EHL/AL evaluation modes.

use ariadne_compress::ChunkSize;
use ariadne_zram::MemoryConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The `SmallSize-MediumSize-LargeSize` chunk-size triple of the paper's
/// Table 5: the compression chunk sizes used for the hot, warm and cold
/// lists respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SizeConfig {
    /// Compression chunk size for hot-list data.
    pub small: ChunkSize,
    /// Compression chunk size for warm-list data.
    pub medium: ChunkSize,
    /// Compression chunk size for cold-list data.
    pub large: ChunkSize,
}

impl SizeConfig {
    /// Build a size configuration, checking the ordering invariant
    /// `small <= medium <= large`.
    ///
    /// # Panics
    ///
    /// Panics if the ordering invariant is violated — a misordered triple
    /// would silently invert Ariadne's entire design.
    #[must_use]
    pub fn new(small: ChunkSize, medium: ChunkSize, large: ChunkSize) -> Self {
        assert!(
            small <= medium && medium <= large,
            "size configuration must satisfy small <= medium <= large"
        );
        SizeConfig {
            small,
            medium,
            large,
        }
    }

    /// The `1K-2K-16K` configuration highlighted in §6.1.
    #[must_use]
    pub fn k1_k2_k16() -> Self {
        SizeConfig::new(ChunkSize::k1(), ChunkSize::k2(), ChunkSize::k16())
    }

    /// The `256-2K-32K` configuration of Figure 11.
    #[must_use]
    pub fn b256_k2_k32() -> Self {
        SizeConfig::new(ChunkSize::b256(), ChunkSize::k2(), ChunkSize::k32())
    }

    /// The `512B-2K-16K` configuration of Figure 13.
    #[must_use]
    pub fn b512_k2_k16() -> Self {
        SizeConfig::new(ChunkSize::b512(), ChunkSize::k2(), ChunkSize::k16())
    }

    /// The `1K-4K-16K` configuration of Figure 13.
    #[must_use]
    pub fn k1_k4_k16() -> Self {
        SizeConfig::new(ChunkSize::k1(), ChunkSize::k4(), ChunkSize::k16())
    }

    /// The `1K-4K-64K` configuration of the Figure 15 sensitivity study.
    #[must_use]
    pub fn k1_k4_k64() -> Self {
        SizeConfig::new(ChunkSize::k1(), ChunkSize::k4(), ChunkSize::k64())
    }

    /// The `256-1K-4K` configuration of the Figure 15 sensitivity study.
    #[must_use]
    pub fn b256_k1_k4() -> Self {
        SizeConfig::new(ChunkSize::b256(), ChunkSize::k1(), ChunkSize::k4())
    }

    /// Every size configuration evaluated in the paper's figures.
    #[must_use]
    pub fn evaluated() -> Vec<SizeConfig> {
        vec![
            SizeConfig::k1_k2_k16(),
            SizeConfig::b256_k2_k32(),
            SizeConfig::b512_k2_k16(),
            SizeConfig::k1_k4_k16(),
            SizeConfig::k1_k4_k64(),
            SizeConfig::b256_k1_k4(),
        ]
    }
}

impl fmt::Display for SizeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}-{}", self.small, self.medium, self.large)
    }
}

/// Which lists participate in compression during the evaluation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HotListMode {
    /// Exclude the hot list: hot data stays uncompressed in main memory and
    /// reclaim takes it only as an absolute last resort.
    ExcludeHotList,
    /// All lists: hot data may be compressed like everything else (using the
    /// small chunk size so its decompression stays fast).
    AllLists,
}

impl HotListMode {
    /// The abbreviation used in the paper (`EHL` / `AL`).
    #[must_use]
    pub fn abbreviation(self) -> &'static str {
        match self {
            HotListMode::ExcludeHotList => "EHL",
            HotListMode::AllLists => "AL",
        }
    }
}

impl fmt::Display for HotListMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// Complete configuration of an [`crate::AriadneScheme`]. Proactive
/// decompression is always on, into a buffer of
/// [`PREDECOMP_BUFFER_PAGES`](crate::PREDECOMP_BUFFER_PAGES) pages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AriadneConfig {
    /// Chunk sizes per hotness level.
    pub sizes: SizeConfig,
    /// Whether the hot list participates in compression.
    pub mode: HotListMode,
    /// Underlying memory sizing.
    pub memory: MemoryConfig,
}

impl AriadneConfig {
    /// A configuration with the given sizes and mode over `memory`.
    #[must_use]
    pub fn new(sizes: SizeConfig, mode: HotListMode, memory: MemoryConfig) -> Self {
        AriadneConfig {
            sizes,
            mode,
            memory,
        }
    }

    /// The paper's headline configuration `Ariadne-EHL-1K-2K-16K`.
    #[must_use]
    pub fn ehl_1k_2k_16k(memory: MemoryConfig) -> Self {
        AriadneConfig::new(SizeConfig::k1_k2_k16(), HotListMode::ExcludeHotList, memory)
    }

    /// The `Ariadne-AL-1K-2K-16K` configuration.
    #[must_use]
    pub fn al_1k_2k_16k(memory: MemoryConfig) -> Self {
        AriadneConfig::new(SizeConfig::k1_k2_k16(), HotListMode::AllLists, memory)
    }

    /// The scheme name used in figures, e.g. `Ariadne-EHL-1K-2K-16K`.
    #[must_use]
    pub fn scheme_name(&self) -> String {
        format!("Ariadne-{}-{}", self.mode, self.sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper_notation() {
        let config = AriadneConfig::ehl_1k_2k_16k(MemoryConfig::pixel7_scaled(256));
        assert_eq!(config.scheme_name(), "Ariadne-EHL-1K-2K-16K");
        let config = AriadneConfig::new(
            SizeConfig::b256_k2_k32(),
            HotListMode::AllLists,
            MemoryConfig::pixel7_scaled(256),
        );
        assert_eq!(config.scheme_name(), "Ariadne-AL-256B-2K-32K");
    }

    #[test]
    fn size_config_orderings_are_enforced() {
        let ok = SizeConfig::new(ChunkSize::b256(), ChunkSize::k2(), ChunkSize::k16());
        assert_eq!(ok.to_string(), "256B-2K-16K");
        let result = std::panic::catch_unwind(|| {
            SizeConfig::new(ChunkSize::k16(), ChunkSize::k2(), ChunkSize::b256())
        });
        assert!(result.is_err());
    }

    #[test]
    fn evaluated_configurations_cover_the_figures() {
        let all = SizeConfig::evaluated();
        assert!(all.contains(&SizeConfig::k1_k2_k16()));
        assert!(all.contains(&SizeConfig::k1_k4_k64()));
        assert!(all.contains(&SizeConfig::b256_k1_k4()));
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn mode_abbreviations_are_stable() {
        assert_eq!(HotListMode::ExcludeHotList.to_string(), "EHL");
        assert_eq!(HotListMode::AllLists.to_string(), "AL");
    }
}
