//! Ariadne: a hotness-aware and size-adaptive compressed swap scheme.
//!
//! This crate implements the paper's contribution (HPCA 2025) as a
//! [`SwapScheme`](ariadne_zram::SwapScheme) that plugs into the same
//! simulator as the baselines:
//!
//! * [`HotnessOrg`] (§4.2) — low-overhead hotness-aware data organization:
//!   every application's anonymous pages live on three LRU lists (hot, warm,
//!   cold) instead of the kernel's two, applications themselves are kept on
//!   an LRU list, and reclaim victims are taken cold-first from the least
//!   recently used application.
//! * [`AdaptiveComp`] (§4.3) — size-adaptive compression: cold data is
//!   compressed in large multi-page chunks (high ratio, slow decompression
//!   that will rarely be paid), warm data in medium chunks and hot data — if
//!   it must be compressed at all — in small sub-page chunks so relaunch
//!   decompression is fast.
//! * [`PreDecompBuffer`] (§4.4) — proactive decompression: when a compressed
//!   page is faulted in, the entry at the next zpool sector is speculatively
//!   decompressed into a small FIFO buffer, hiding decompression latency for
//!   the sequential swap-in streams of Table 3.
//!
//! The top-level type is [`AriadneScheme`]; [`AriadneConfig`] selects the
//! chunk-size triple (the paper's `SmallSize-MediumSize-LargeSize` notation)
//! and whether the hot list is excluded from compression (`EHL`) or not
//! (`AL`).
//!
//! ```
//! use ariadne_core::{AriadneConfig, AriadneScheme};
//! use ariadne_zram::{MemoryConfig, SwapScheme};
//!
//! let config = AriadneConfig::ehl_1k_2k_16k(MemoryConfig::pixel7_scaled(256));
//! let scheme = AriadneScheme::new(config);
//! assert_eq!(scheme.name(), "Ariadne-EHL-1K-2K-16K");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod hotness;
pub mod identification;
pub mod predecomp;
pub mod scheme;

pub use adaptive::AdaptiveComp;
pub use config::{AriadneConfig, HotListMode, SizeConfig};
pub use hotness::HotnessOrg;
pub use identification::{IdentificationMetrics, IdentificationTracker};
pub use predecomp::{PreDecompBuffer, PREDECOMP_BUFFER_PAGES};
pub use scheme::AriadneScheme;
