//! Shared helpers for the Ariadne benchmark suite.
//!
//! The actual entry points are the `experiments` binary (regenerates every
//! table and figure of the paper via `ariadne-sim`) and the Criterion bench
//! `hot_structures` (micro-benchmarks of the hot structures and the
//! compression kernels). End-to-end host timing and codec throughput are
//! the job of the benchmark in `perfbench/` (declared by `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ariadne_mem::{AppId, PageId, Pfn, PAGE_SIZE};
use ariadne_trace::{AppName, PageDataGenerator};

/// Build a corpus of synthetic anonymous-page bytes for benchmarking the
/// codecs (`pages` pages drawn from the given application's profile). One
/// up-front allocation; pages are synthesized in place.
#[must_use]
pub fn anonymous_corpus(app: AppName, pages: usize, seed: u64) -> Vec<u8> {
    let generator = PageDataGenerator::new(seed);
    let profile = app.profile();
    let mut corpus = vec![0u8; pages * PAGE_SIZE];
    for pfn in 0..pages {
        let page = PageId::new(AppId::new(app.uid()), Pfn::new(pfn as u64));
        let buf: &mut [u8; PAGE_SIZE] = (&mut corpus[pfn * PAGE_SIZE..(pfn + 1) * PAGE_SIZE])
            .try_into()
            .expect("page-sized slice");
        generator.fill_page_bytes(&profile, page, buf);
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_the_requested_size_and_is_deterministic() {
        let a = anonymous_corpus(AppName::Twitter, 8, 1);
        let b = anonymous_corpus(AppName::Twitter, 8, 1);
        assert_eq!(a.len(), 8 * 4096);
        assert_eq!(a, b);
    }
}
