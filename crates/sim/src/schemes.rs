//! A factory for every swap scheme evaluated in the paper.

use ariadne_core::{AriadneConfig, AriadneScheme, HotListMode, SizeConfig};
use ariadne_zram::{DramOnlyScheme, LruScheme, MemoryConfig, SwapScheme, WritebackPolicy};
use std::fmt;

/// Which scheme to instantiate for an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// Optimistic no-swap baseline (`DRAM`).
    Dram,
    /// Flash-backed uncompressed swap (`SWAP`).
    Swap,
    /// State-of-the-art compressed swap (`ZRAM`).
    Zram,
    /// ZRAM with writeback to flash when the zpool fills (`ZSWAP`).
    Zswap,
    /// Ariadne with the given chunk sizes and hot-list mode.
    Ariadne {
        /// Chunk-size triple.
        sizes: SizeConfig,
        /// EHL or AL evaluation mode.
        mode: HotListMode,
    },
}

impl SchemeSpec {
    /// The Ariadne configurations reported in Figures 10 and 11.
    #[must_use]
    pub fn ariadne_evaluated() -> Vec<SchemeSpec> {
        let mut specs = Vec::new();
        for sizes in [SizeConfig::k1_k2_k16(), SizeConfig::b256_k2_k32()] {
            for mode in [HotListMode::ExcludeHotList, HotListMode::AllLists] {
                specs.push(SchemeSpec::Ariadne { sizes, mode });
            }
        }
        specs
    }

    /// Shorthand for an EHL Ariadne spec.
    #[must_use]
    pub fn ariadne_ehl(sizes: SizeConfig) -> SchemeSpec {
        SchemeSpec::Ariadne {
            sizes,
            mode: HotListMode::ExcludeHotList,
        }
    }

    /// Shorthand for an AL Ariadne spec.
    #[must_use]
    pub fn ariadne_al(sizes: SizeConfig) -> SchemeSpec {
        SchemeSpec::Ariadne {
            sizes,
            mode: HotListMode::AllLists,
        }
    }

    /// Instantiate the scheme over the given memory configuration.
    #[must_use]
    pub fn build(&self, memory: MemoryConfig) -> Box<dyn SwapScheme> {
        match *self {
            SchemeSpec::Dram => Box::new(DramOnlyScheme::new(memory.with_unlimited_dram())),
            SchemeSpec::Swap => Box::new(LruScheme::swap(memory)),
            SchemeSpec::Zram => Box::new(LruScheme::zram(memory)),
            SchemeSpec::Zswap => Box::new(LruScheme::zram(
                memory.with_writeback(WritebackPolicy::WritebackToFlash),
            )),
            SchemeSpec::Ariadne { sizes, mode } => {
                // Ariadne swaps compressed cold data to flash when the zpool
                // fills (§4.1), i.e. it always behaves like ZSWAP for overflow.
                let memory = memory.with_writeback(WritebackPolicy::WritebackToFlash);
                Box::new(AriadneScheme::new(AriadneConfig::new(sizes, mode, memory)))
            }
        }
    }

    /// The label used in figures for this scheme.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            SchemeSpec::Dram => "DRAM".to_string(),
            SchemeSpec::Swap => "SWAP".to_string(),
            SchemeSpec::Zram => "ZRAM".to_string(),
            SchemeSpec::Zswap => "ZSWAP".to_string(),
            SchemeSpec::Ariadne { sizes, mode } => format!("Ariadne-{mode}-{sizes}"),
        }
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(SchemeSpec::Zram.label(), "ZRAM");
        assert_eq!(
            SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()).label(),
            "Ariadne-EHL-1K-2K-16K"
        );
        assert_eq!(
            SchemeSpec::ariadne_al(SizeConfig::b256_k2_k32()).label(),
            "Ariadne-AL-256B-2K-32K"
        );
    }

    #[test]
    fn every_spec_builds_a_scheme_with_a_matching_name() {
        let memory = MemoryConfig::pixel7_scaled(512);
        for spec in [
            SchemeSpec::Dram,
            SchemeSpec::Swap,
            SchemeSpec::Zram,
            SchemeSpec::Zswap,
            SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        ] {
            let scheme = spec.build(memory);
            assert_eq!(scheme.name(), spec.label());
        }
    }

    #[test]
    fn evaluated_ariadne_list_covers_both_modes_and_sizes() {
        let specs = SchemeSpec::ariadne_evaluated();
        assert_eq!(specs.len(), 4);
        let labels: Vec<String> = specs.iter().map(SchemeSpec::label).collect();
        assert!(labels.contains(&"Ariadne-EHL-1K-2K-16K".to_string()));
        assert!(labels.contains(&"Ariadne-AL-256B-2K-32K".to_string()));
    }
}
