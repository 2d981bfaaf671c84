//! Page frames, application identifiers, hotness levels and page locations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Page size used throughout the workspace (4 KiB, as on the Pixel 7).
pub const PAGE_SIZE: usize = 4096;

/// A page frame number.
///
/// PFNs are per-application in this reproduction (each app's anonymous
/// address space is numbered from zero), which matches how the paper's traces
/// record pages as (UID, PFN) pairs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Pfn(u64);

impl Pfn {
    /// Create a PFN.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Pfn(value)
    }

    /// The raw frame number.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The PFN `offset` frames after this one.
    #[must_use]
    pub fn offset(self, offset: u64) -> Pfn {
        Pfn(self.0 + offset)
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{}", self.0)
    }
}

/// An application identifier (Android UID in the paper's traces).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct AppId(u32);

impl AppId {
    /// Create an application id.
    #[must_use]
    pub const fn new(value: u32) -> Self {
        AppId(value)
    }

    /// The raw id.
    #[must_use]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app:{}", self.0)
    }
}

/// A globally unique page identifier: application plus frame number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct PageId {
    app: AppId,
    pfn: Pfn,
}

impl PageId {
    /// Create a page id.
    #[must_use]
    pub const fn new(app: AppId, pfn: Pfn) -> Self {
        PageId { app, pfn }
    }

    /// The owning application.
    #[must_use]
    pub fn app(self) -> AppId {
        self.app
    }

    /// The page frame number within the application.
    #[must_use]
    pub fn pfn(self) -> Pfn {
        self.pfn
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.app, self.pfn)
    }
}

/// The three hotness levels Ariadne distinguishes (§3, Insight 1).
///
/// * `Hot` — used during application relaunch; directly determines relaunch
///   latency.
/// * `Warm` — potentially used during execution after the relaunch.
/// * `Cold` — usually never used again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Hotness {
    /// Used during application relaunch.
    Hot,
    /// Potentially used during post-relaunch execution.
    Warm,
    /// Usually not used again.
    Cold,
}

impl Hotness {
    /// All hotness levels, hottest first.
    pub const ALL: [Hotness; 3] = [Hotness::Hot, Hotness::Warm, Hotness::Cold];

    /// Lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hotness::Hot => "hot",
            Hotness::Warm => "warm",
            Hotness::Cold => "cold",
        }
    }
}

impl fmt::Display for Hotness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a page currently lives in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageLocation {
    /// Uncompressed in main memory.
    Dram,
    /// Compressed in the zpool.
    Zpool,
    /// Compressed (or raw, for the SWAP baseline) in the flash swap area.
    Flash,
    /// Sitting decompressed in Ariadne's pre-decompression buffer.
    PreDecompBuffer,
    /// Not present anywhere (never allocated or already discarded).
    Absent,
}

impl PageLocation {
    /// All locations in declaration order, so `location as usize` indexes
    /// this array (and any per-location tally laid out like it).
    pub const ALL: [PageLocation; 5] = [
        PageLocation::Dram,
        PageLocation::Zpool,
        PageLocation::Flash,
        PageLocation::PreDecompBuffer,
        PageLocation::Absent,
    ];
}

impl fmt::Display for PageLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PageLocation::Dram => "dram",
            PageLocation::Zpool => "zpool",
            PageLocation::Flash => "flash",
            PageLocation::PreDecompBuffer => "predecomp-buffer",
            PageLocation::Absent => "absent",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn page_id_is_usable_as_a_map_key() {
        let mut set = HashSet::new();
        set.insert(PageId::new(AppId::new(1), Pfn::new(1)));
        set.insert(PageId::new(AppId::new(1), Pfn::new(2)));
        set.insert(PageId::new(AppId::new(2), Pfn::new(1)));
        assert_eq!(set.len(), 3);
        assert!(set.contains(&PageId::new(AppId::new(2), Pfn::new(1))));
    }

    #[test]
    fn pfn_offset_advances_frames() {
        assert_eq!(Pfn::new(10).offset(5), Pfn::new(15));
    }

    #[test]
    fn hotness_ordering_is_hot_first() {
        assert!(Hotness::Hot < Hotness::Warm);
        assert!(Hotness::Warm < Hotness::Cold);
        assert_eq!(Hotness::ALL[0], Hotness::Hot);
    }

    #[test]
    fn page_locations_index_their_own_list() {
        for (i, location) in PageLocation::ALL.into_iter().enumerate() {
            assert_eq!(location as usize, i);
        }
    }

    #[test]
    fn display_formats_are_compact() {
        let page = PageId::new(AppId::new(7), Pfn::new(99));
        assert_eq!(page.to_string(), "app:7/pfn:99");
        assert_eq!(Hotness::Warm.to_string(), "warm");
        assert_eq!(PageLocation::Zpool.to_string(), "zpool");
    }
}
