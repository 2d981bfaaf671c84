//! Mobile memory-hierarchy substrate for the Ariadne reproduction.
//!
//! The Ariadne paper evaluates compressed-swap policies inside the Android 14
//! kernel on a Google Pixel 7. This crate re-implements the pieces of that
//! memory hierarchy which both the baseline ZRAM scheme and Ariadne rely on,
//! as an ordinary userspace library with *simulated* time:
//!
//! * [`page`] — page frames, application identifiers and hotness labels;
//! * [`lru`] — the LRU page lists the kernel keeps (and that Ariadne extends
//!   from two lists to three);
//! * [`dram`] — the main-memory model with low/high watermarks;
//! * [`zpool`] — the compressed-page pool ZRAM stores data in, with
//!   sector-numbered 4 KiB blocks so swap-in locality can be studied;
//! * [`flash`] — the UFS flash swap device, with wear accounting;
//! * [`timing`] — the simulated clock and the latency model for DRAM and
//!   flash accesses;
//! * [`cpu`] — CPU-time accounting split by activity (compression,
//!   decompression, reclaim scanning, I/O), mirroring what the paper
//!   measures with Perfetto.
//!
//! # Example
//!
//! ```
//! use ariadne_mem::{MainMemory, Watermarks, AppId, Pfn, PageId};
//!
//! let mut dram = MainMemory::new(64 * 1024 * 1024, Watermarks::android_default(64 * 1024 * 1024));
//! let page = PageId::new(AppId::new(1), Pfn::new(42));
//! dram.insert(page).unwrap();
//! assert!(dram.contains(page));
//! assert_eq!(dram.used_bytes(), 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod dram;
pub mod error;
pub mod flash;
pub mod lru;
pub mod page;
pub mod slab;
pub mod timing;
pub mod zpool;

pub use cpu::{CpuActivity, CpuBreakdown};
pub use dram::{MainMemory, Watermarks};
pub use error::MemError;
pub use flash::{
    FaultIn, FlashDevice, FlashIoConfig, FlashIoMode, FlashStats, FlushResult, IoRequestId,
    SwapSlot, WriteRequest, ERASE_BLOCK_BYTES,
};
pub use lru::LruList;
pub use page::{AppId, Hotness, PageId, PageLocation, Pfn, PAGE_SIZE};
pub use slab::{Chain, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, Slab, SlabKey};
pub use timing::{MemTimingModel, SimClock, SimInstant};
pub use zpool::{Zpool, ZpoolEntry, ZpoolHandle, ZpoolSector, ZpoolStats};
