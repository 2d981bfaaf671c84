//! Synthetic anonymous-page content.
//!
//! Compression ratios in this workspace are *real*: the codecs compress real
//! bytes. Those bytes come from [`PageDataGenerator`], which synthesises page
//! contents with the structure the paper describes for mobile anonymous
//! data (§3, Insight 2): "an anonymous page contains multiple types of data
//! blocks, and similar types of data are gathered within a small region
//! (e.g., 128 B or 512 B)". Concretely each 4 KiB page is assembled from
//! 128 B regions, each region drawn from one of a handful of content classes
//! (zero-filled, pointer arrays, small counters, text-like bytes, structure
//! records, media noise). Regions are sampled from a small per-application
//! template pool, so redundancy exists both *within* a region (small-chunk
//! compression works) and *across* pages (large-chunk compression works even
//! better) — exactly the gradient Figure 6 reports.

use crate::profiles::AppProfile;
use ariadne_mem::{PageId, PAGE_SIZE};
use serde::{Deserialize, Serialize};

/// Size of one content region within a page.
pub const REGION_SIZE: usize = 128;

/// The kinds of data found in anonymous pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentClass {
    /// Untouched / zero-filled allocation.
    Zeros,
    /// Arrays of pointers into the same heap arena (large base, small delta).
    Pointers,
    /// Small integer counters and flags.
    SmallIntegers,
    /// UI strings, resource names, JSON-ish text.
    Text,
    /// Repeating structure records (object headers, vtable layouts).
    Records,
    /// Decoded media / already-compressed assets (high entropy).
    Media,
}

impl ContentClass {
    /// All content classes.
    pub const ALL: [ContentClass; 6] = [
        ContentClass::Zeros,
        ContentClass::Pointers,
        ContentClass::SmallIntegers,
        ContentClass::Text,
        ContentClass::Records,
        ContentClass::Media,
    ];
}

/// SplitMix64: a tiny, high-quality deterministic mixer. Using our own keeps
/// page bytes stable across `rand` versions and avoids seeding overhead per
/// page.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically synthesises the bytes of any page of any application.
///
/// ```
/// use ariadne_trace::{AppName, PageDataGenerator};
/// use ariadne_mem::{AppId, PageId, Pfn};
///
/// let generator = PageDataGenerator::new(42);
/// let page = PageId::new(AppId::new(AppName::Youtube.uid()), Pfn::new(7));
/// let a = generator.page_bytes(&AppName::Youtube.profile(), page);
/// let b = generator.page_bytes(&AppName::Youtube.profile(), page);
/// assert_eq!(a, b); // fully deterministic
/// assert_eq!(a.len(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageDataGenerator {
    seed: u64,
}

impl PageDataGenerator {
    /// Create a generator with the given global seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        PageDataGenerator { seed }
    }

    /// The global seed every page's bytes derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The content class of the `region_index`-th 128 B region of `page`.
    #[must_use]
    pub fn region_class(
        &self,
        profile: &AppProfile,
        page: PageId,
        region_index: usize,
    ) -> ContentClass {
        // Adversarial hook: a profile with full media weight (see
        // `AppProfile::incompressible`) gets *only* high-entropy media
        // regions, so nothing about the page compresses. Calibrated profiles
        // top out at 0.55, so their pages are untouched by this branch.
        if profile.media_weight >= 1.0 {
            return ContentClass::Media;
        }
        let mut state = self
            .seed
            .wrapping_mul(0x243F_6A88_85A3_08D3)
            .wrapping_add(u64::from(page.app().value()))
            .wrapping_add(page.pfn().value().wrapping_mul(0x1000_0000_01B3))
            .wrapping_add(region_index as u64);
        let roll = splitmix64(&mut state) as f64 / u64::MAX as f64;
        // Media weight is per-app; the rest of the probability mass is split
        // across the structured classes in fixed proportions.
        let media = profile.media_weight * 0.6;
        let zeros = 0.10;
        let pointers = (1.0 - media - zeros) * 0.30;
        let small_ints = (1.0 - media - zeros) * 0.25;
        let text = (1.0 - media - zeros) * 0.25;
        if roll < zeros {
            ContentClass::Zeros
        } else if roll < zeros + pointers {
            ContentClass::Pointers
        } else if roll < zeros + pointers + small_ints {
            ContentClass::SmallIntegers
        } else if roll < zeros + pointers + small_ints + text {
            ContentClass::Text
        } else if roll < 1.0 - media {
            ContentClass::Records
        } else {
            ContentClass::Media
        }
    }

    /// Generate the 4 KiB contents of `page` for an application described by
    /// `profile`.
    ///
    /// Thin allocating wrapper over [`PageDataGenerator::fill_page_bytes`];
    /// hot paths (the compression oracle, the codec benchmarks) use the
    /// fill variant with a reused buffer instead.
    #[must_use]
    pub fn page_bytes(&self, profile: &AppProfile, page: PageId) -> Vec<u8> {
        let mut out = vec![0u8; PAGE_SIZE];
        let buf: &mut [u8; PAGE_SIZE] = out.as_mut_slice().try_into().expect("PAGE_SIZE buffer");
        self.fill_page_bytes(profile, page, buf);
        out
    }

    /// Synthesise the contents of `page` into a caller-provided buffer
    /// without allocating. Every byte of `out` is overwritten, so the buffer
    /// may be reused across calls; the bytes written are identical to what
    /// [`PageDataGenerator::page_bytes`] returns.
    pub fn fill_page_bytes(&self, profile: &AppProfile, page: PageId, out: &mut [u8; PAGE_SIZE]) {
        // Fully adversarial profiles (see `AppProfile::incompressible`) get
        // one continuous high-entropy stream over the whole page, keyed so
        // that no two pages ever share a run of bytes. The per-region Media
        // generator below reuses its keying across adjacent pages (region 31
        // of page p collides with region 0 of page p+1), which is harmless
        // noise for calibrated profiles but would hand large-chunk codecs
        // real cross-page matches — and the whole point of the adversarial
        // profile is that *nothing* compresses.
        if profile.media_weight >= 1.0 {
            // Hash the (seed, app, pfn) key through the mixer once so that
            // no two pages' streams are shifted copies of each other (the
            // raw key advances by a constant per pfn, exactly like the
            // stream's own step).
            let mut key = self
                .seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(u64::from(page.app().value()) << 32)
                .wrapping_add(page.pfn().value().wrapping_mul(0xFF51_AFD7_ED55_8CCD));
            let mut state = splitmix64(&mut key);
            for slot in 0..PAGE_SIZE / 8 {
                out[slot * 8..slot * 8 + 8].copy_from_slice(&splitmix64(&mut state).to_le_bytes());
            }
            return;
        }
        for region_index in 0..PAGE_SIZE / REGION_SIZE {
            let class = self.region_class(profile, page, region_index);
            // Template pooling: draw the region's template id from a small
            // per-app pool so identical regions recur across pages. This is
            // what gives large compression chunks their advantage.
            let mut state = self
                .seed
                .wrapping_add(u64::from(page.app().value()).wrapping_mul(0x9E37_79B9))
                .wrapping_add(page.pfn().value())
                .wrapping_add((region_index as u64) << 32);
            let template = splitmix64(&mut state) % 24;
            let region = &mut out[region_index * REGION_SIZE..(region_index + 1) * REGION_SIZE];
            self.fill_region(region, class, page, template, region_index);
        }
    }

    /// Write exactly [`REGION_SIZE`] bytes of `class`-typed content into
    /// `out` (a region-sized slice of the page buffer). Index-based writes
    /// keep the hot synthesis path free of intermediate allocations.
    fn fill_region(
        &self,
        out: &mut [u8],
        class: ContentClass,
        page: PageId,
        template: u64,
        region_index: usize,
    ) {
        debug_assert_eq!(out.len(), REGION_SIZE);
        let app_seed = u64::from(page.app().value());
        match class {
            ContentClass::Zeros => out.fill(0),
            ContentClass::Pointers => {
                // 16 pointers of 8 bytes: shared arena base per (app, template),
                // deltas grow with the slot index.
                let base = 0x7000_0000_0000u64
                    + (app_seed << 20)
                    + template * 0x10_0000
                    + (region_index as u64 % 4) * 0x800;
                for slot in 0..REGION_SIZE / 8 {
                    let ptr = base + (slot as u64) * 64 + (template % 8) * 8;
                    out[slot * 8..slot * 8 + 8].copy_from_slice(&ptr.to_le_bytes());
                }
            }
            ContentClass::SmallIntegers => {
                // 32 counters of 4 bytes, values near a small template base.
                let base = (template * 17 + 100) as u32;
                for slot in 0..REGION_SIZE / 4 {
                    let value = base + (slot as u32 % 7);
                    out[slot * 4..slot * 4 + 4].copy_from_slice(&value.to_le_bytes());
                }
            }
            ContentClass::Text => {
                const WORDS: [&[u8]; 8] = [
                    b"activity",
                    b"resource",
                    b"android.",
                    b"layout__",
                    b"string__",
                    b"view____",
                    b"binding_",
                    b"content_",
                ];
                let mut written = 0usize;
                let mut idx = template as usize;
                while written < REGION_SIZE {
                    let word = WORDS[idx % WORDS.len()];
                    let take = word.len().min(REGION_SIZE - written);
                    out[written..written + take].copy_from_slice(&word[..take]);
                    written += take;
                    idx += 1;
                }
            }
            ContentClass::Records => {
                // Four 32-byte records: shared template header plus a small
                // per-record payload.
                for record in 0..REGION_SIZE / 32 {
                    let at = record * 32;
                    let header = (0xDEAD_0000u32 + template as u32 * 8).to_le_bytes();
                    out[at..at + 4].copy_from_slice(&header);
                    out[at + 4..at + 8].copy_from_slice(&(template as u32).to_le_bytes());
                    out[at + 8..at + 12].copy_from_slice(&(record as u32).to_le_bytes());
                    out[at + 12..at + 32].fill((template % 251) as u8);
                }
            }
            ContentClass::Media => {
                // High-entropy noise keyed by page and region: incompressible.
                let mut state = self
                    .seed
                    .wrapping_mul(0xA24B_AED4_963E_E407)
                    .wrapping_add(app_seed << 32)
                    .wrapping_add(page.pfn().value().wrapping_mul(31))
                    .wrapping_add(region_index as u64);
                for slot in 0..REGION_SIZE / 8 {
                    out[slot * 8..slot * 8 + 8]
                        .copy_from_slice(&splitmix64(&mut state).to_le_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::AppName;
    use ariadne_compress::{Algorithm, ChunkSize, ChunkedCodec};
    use ariadne_mem::{AppId, Pfn};

    fn page(app: AppName, pfn: u64) -> PageId {
        PageId::new(AppId::new(app.uid()), Pfn::new(pfn))
    }

    #[test]
    fn page_generation_is_deterministic_and_page_sized() {
        let generator = PageDataGenerator::new(7);
        let profile = AppName::Twitter.profile();
        let a = generator.page_bytes(&profile, page(AppName::Twitter, 3));
        let b = generator.page_bytes(&profile, page(AppName::Twitter, 3));
        assert_eq!(a, b);
        assert_eq!(a.len(), PAGE_SIZE);
    }

    #[test]
    fn fill_page_bytes_matches_the_allocating_wrapper() {
        let generator = PageDataGenerator::new(7);
        let profile = AppName::Twitter.profile();
        // A dirty, reused buffer must be fully overwritten.
        let mut buf = [0xAAu8; PAGE_SIZE];
        for pfn in 0..16u64 {
            let p = page(AppName::Twitter, pfn);
            generator.fill_page_bytes(&profile, p, &mut buf);
            assert_eq!(buf.as_slice(), generator.page_bytes(&profile, p).as_slice());
        }
    }

    #[test]
    fn different_pages_have_different_contents() {
        let generator = PageDataGenerator::new(7);
        let profile = AppName::Twitter.profile();
        let a = generator.page_bytes(&profile, page(AppName::Twitter, 3));
        let b = generator.page_bytes(&profile, page(AppName::Twitter, 4));
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_produce_different_contents() {
        let profile = AppName::Twitter.profile();
        let a = PageDataGenerator::new(1).page_bytes(&profile, page(AppName::Twitter, 3));
        let b = PageDataGenerator::new(2).page_bytes(&profile, page(AppName::Twitter, 3));
        assert_ne!(a, b);
    }

    #[test]
    fn pages_are_compressible_but_not_trivial() {
        let generator = PageDataGenerator::new(11);
        let profile = AppName::Youtube.profile();
        let mut data = Vec::new();
        for pfn in 0..64u64 {
            data.extend(generator.page_bytes(&profile, page(AppName::Youtube, pfn)));
        }
        let codec = ChunkedCodec::new(Algorithm::Lzo, ChunkSize::k4());
        let image = codec.compress(&data).unwrap();
        let ratio = image.stats().ratio().value();
        assert!(ratio > 1.5, "ratio {ratio} too low — pages look like noise");
        assert!(ratio < 30.0, "ratio {ratio} too high — pages look trivial");
    }

    #[test]
    fn larger_chunks_achieve_better_ratios_like_figure6() {
        let generator = PageDataGenerator::new(3);
        let profile = AppName::Twitter.profile();
        let mut data = Vec::new();
        for pfn in 0..256u64 {
            data.extend(generator.page_bytes(&profile, page(AppName::Twitter, pfn)));
        }
        let small = ChunkedCodec::new(Algorithm::Lzo, ChunkSize::new(128).unwrap())
            .compress(&data)
            .unwrap()
            .stats()
            .ratio()
            .value();
        let large = ChunkedCodec::new(Algorithm::Lzo, ChunkSize::k64())
            .compress(&data)
            .unwrap()
            .stats()
            .ratio()
            .value();
        assert!(
            large > small * 1.3,
            "large-chunk ratio {large:.2} should clearly beat small-chunk {small:.2}"
        );
    }

    #[test]
    fn media_heavy_apps_compress_worse() {
        let generator = PageDataGenerator::new(5);
        let game = AppName::BangDream.profile(); // media_weight 0.55
        let browser = AppName::Edge.profile(); // media_weight 0.22
        let collect = |profile: &AppProfile, app: AppName| {
            let mut data = Vec::new();
            for pfn in 0..64u64 {
                data.extend(generator.page_bytes(profile, page(app, pfn)));
            }
            ChunkedCodec::new(Algorithm::Lz4, ChunkSize::k4())
                .compress(&data)
                .unwrap()
                .stats()
                .ratio()
                .value()
        };
        let game_ratio = collect(&game, AppName::BangDream);
        let browser_ratio = collect(&browser, AppName::Edge);
        assert!(
            browser_ratio > game_ratio,
            "browser {browser_ratio:.2} should compress better than game {game_ratio:.2}"
        );
    }

    #[test]
    fn incompressible_profiles_emit_only_media_noise() {
        let generator = PageDataGenerator::new(11);
        let profile = AppProfile::incompressible(AppName::Twitter);
        let mut data = Vec::new();
        for pfn in 0..64u64 {
            let p = page(AppName::Twitter, pfn);
            for region in 0..PAGE_SIZE / REGION_SIZE {
                assert_eq!(
                    generator.region_class(&profile, p, region),
                    ContentClass::Media
                );
            }
            data.extend(generator.page_bytes(&profile, p));
        }
        // Noise does not compress: framing overhead makes the "compressed"
        // image at least as large as the input. Large chunks span pages, so
        // they would expose any cross-page repetition in the noise stream —
        // check them too.
        for chunk in [ChunkSize::k4(), ChunkSize::k16(), ChunkSize::k64()] {
            let image = ChunkedCodec::new(Algorithm::Lzo, chunk)
                .compress(&data)
                .unwrap();
            assert!(
                image.compressed_len() >= data.len(),
                "incompressible pages must not show savings at {} B chunks",
                chunk.bytes()
            );
        }
    }

    #[test]
    fn region_classes_cover_multiple_kinds() {
        let generator = PageDataGenerator::new(9);
        let profile = AppName::GoogleMaps.profile();
        let mut seen = std::collections::HashSet::new();
        for pfn in 0..32u64 {
            for region in 0..PAGE_SIZE / REGION_SIZE {
                seen.insert(generator.region_class(
                    &profile,
                    page(AppName::GoogleMaps, pfn),
                    region,
                ));
            }
        }
        assert!(seen.len() >= 4, "only {} content classes seen", seen.len());
    }
}
