//! Baseline swap schemes for the Ariadne reproduction.
//!
//! This crate defines the [`SwapScheme`] abstraction that every memory-swap
//! policy in the workspace implements, the [`Tiers`] every scheme holds —
//! DRAM, the zpool and the flash swap device, with each tier move and each
//! fault price written once — plus the three baselines the paper compares
//! against:
//!
//! * [`DramOnlyScheme`] — the optimistic lower bound: DRAM is assumed large
//!   enough that nothing is ever swapped (the `DRAM` bars of Figures 2, 3
//!   and 10);
//! * [`FlashSwapScheme`] — the classic flash-backed swap (`SWAP` bars): LRU
//!   victims are written uncompressed to the flash swap area;
//! * [`ZramScheme`] — the state-of-the-art compressed swap used by modern
//!   Android: LRU victims are compressed one 4 KiB page at a time into the
//!   zpool and decompressed on demand, with optional ZSWAP-style writeback
//!   of compressed data to flash when the zpool fills up.
//!
//! Ariadne itself lives in the `ariadne-core` crate and implements the same
//! [`SwapScheme`] trait on the same [`Tiers`], so every experiment drives
//! the four policies through identical machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dram_only;
pub mod oracle;
pub mod page_lru;
pub mod scheme;
pub mod swap;
pub mod tiers;
pub mod zram;

pub use dram_only::DramOnlyScheme;
pub use oracle::{CodecScratch, CompressionOracle, OracleHandle, OracleOutcome, OracleStats};
pub use page_lru::PageLru;
pub use scheme::{
    AccessKind, AccessOutcome, MemoryConfig, MemoryPressure, PressureLevel, ReleasedFootprint,
    SchemeContext, SchemeStats, SwapScheme, WritebackPolicy,
};
pub use swap::FlashSwapScheme;
pub use tiers::Tiers;
pub use zram::ZramScheme;
