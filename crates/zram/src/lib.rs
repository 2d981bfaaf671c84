//! Baseline swap schemes for the Ariadne reproduction.
//!
//! This crate defines the [`SwapScheme`] abstraction that every memory-swap
//! policy in the workspace implements, the [`Tiers`] every scheme holds —
//! DRAM, the zpool and the flash swap device, with each tier move and each
//! fault price written once — plus the baselines the paper compares
//! against:
//!
//! * [`DramOnlyScheme`] — the optimistic lower bound: DRAM is assumed large
//!   enough that nothing is ever swapped (the `DRAM` bars of Figures 2, 3
//!   and 10);
//! * [`LruScheme`] — the kernel's LRU swap path, whose only policy is
//!   where a victim goes. [`LruScheme::zram`] compresses LRU victims one
//!   4 KiB page at a time into the zpool and decompresses them on demand:
//!   the compressed swap modern Android ships (`ZRAM`), or `ZSWAP` when
//!   zpool overflow is written back to flash. [`LruScheme::swap`] writes
//!   them uncompressed to the flash swap area (`SWAP`).
//!
//! Ariadne itself lives in the `ariadne-core` crate and implements the same
//! [`SwapScheme`] trait on the same [`Tiers`], so every experiment drives
//! every policy through identical machinery.
//!
//! The crate also holds the workspace's one thread [`pool`]: the experiment
//! runner runs its cells on it, and a reclaim pass runs its codec misses on
//! it ([`SchemeContext::compress_batch`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dram_only;
pub mod oracle;
pub mod page_lru;
pub mod pool;
pub mod scheme;
pub mod tiers;
pub mod zram;

pub use dram_only::DramOnlyScheme;
pub use oracle::{CodecScratch, CompressionOracle, OracleHandle, OracleOutcome, OracleStats};
pub use page_lru::PageLru;
pub use scheme::{
    AccessKind, AccessOutcome, MemoryConfig, MemoryPressure, PressureLevel, ReleasedFootprint,
    SchemeContext, SchemeStats, SwapScheme, WritebackPolicy, ALGORITHM,
};
pub use tiers::Tiers;
pub use zram::LruScheme;
