//! Property tests for the memoized compression oracle: a cache hit must be
//! bit-identical to a cold codec run, for every chunk size × page group,
//! with the oracle enabled or disabled.

use ariadne_compress::{ChunkSize, ChunkedCodec};
use ariadne_mem::{PageId, PAGE_SIZE};
use ariadne_trace::{AppName, WorkloadBuilder};
use ariadne_zram::{OracleHandle, SchemeContext, ALGORITHM};
use proptest::prelude::*;

/// The workload pages oracle groups are drawn from (two apps, so groups can
/// come from either profile).
fn harness() -> (SchemeContext, Vec<PageId>) {
    let workloads = vec![
        WorkloadBuilder::new(9).scale(1024).build(AppName::Twitter),
        WorkloadBuilder::new(9).scale(1024).build(AppName::Youtube),
    ];
    let ctx = SchemeContext::new(9, &workloads);
    let pages: Vec<PageId> = workloads
        .iter()
        .flat_map(|w| w.pages.iter().map(|p| p.page))
        .collect();
    (ctx, pages)
}

fn chunk_size(index: u8) -> ChunkSize {
    let sweep = ChunkSize::figure6_sweep();
    sweep[index as usize % sweep.len()]
}

/// Map raw picks onto a same-app page group (entries never mix apps), with
/// duplicates removed (a page is stored at most once per group).
fn group(pages: &[PageId], picks: &[u16]) -> Vec<PageId> {
    let app = pages[picks[0] as usize % pages.len()].app();
    let mut out: Vec<PageId> = Vec::new();
    for &pick in picks {
        let page = pages[pick as usize % pages.len()];
        if page.app() == app && !out.contains(&page) {
            out.push(page);
        }
    }
    out
}

/// The concatenated synthetic bytes of `group`, as a codec sees them.
fn group_bytes(ctx: &SchemeContext, group: &[PageId]) -> Vec<u8> {
    let mut bytes = vec![0u8; group.len() * PAGE_SIZE];
    for (page, buf) in group.iter().zip(bytes.chunks_exact_mut(PAGE_SIZE)) {
        ctx.fill_page_bytes(*page, buf.try_into().expect("page-sized chunk"));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The core bit-identity contract: for any group and chunk size, (a) a cold oracle run, (b) a cache hit, (c) a disabled-oracle
    // run and (d) a direct `ChunkedCodec::compress` of the synthesized
    // bytes all report the same sizes. A second chunk size hits the entry
    // of the first exactly when both make the same codec calls: they are
    // equal, or each covers the whole group in one call.
    #[test]
    fn oracle_hits_are_bit_identical_to_cold_codec_runs(
        picks in proptest::collection::vec(proptest::prelude::any::<u16>(), 1..6),
        chunk_pick in 0u8..11,
        chunk_pick2 in 0u8..11,
    ) {
        let (ctx, pages) = harness();
        let group = group(&pages, &picks);
        let chunk_size2 = chunk_size(chunk_pick2);
        let chunk_size = chunk_size(chunk_pick);

        let cold = ctx.compress_pages(&group, chunk_size);
        let hit = ctx.compress_pages(&group, chunk_size);
        prop_assert!(!cold.hit && hit.hit);

        let off = ctx
            .clone()
            .with_oracle_handle(&OracleHandle::enabled(false))
            .compress_pages(&group, chunk_size);
        prop_assert!(!off.hit);

        let second = ctx.compress_pages(&group, chunk_size2);
        let bytes = group.len() * PAGE_SIZE;
        let one_call = |chunk: ChunkSize| chunk.bytes() >= bytes;
        prop_assert_eq!(
            second.hit,
            chunk_size == chunk_size2 || (one_call(chunk_size) && one_call(chunk_size2))
        );

        let data = group_bytes(&ctx, &group);
        let image = ChunkedCodec::new(ALGORITHM, chunk_size)
            .compress(&data)
            .expect("compression cannot fail");
        let image2 = ChunkedCodec::new(ALGORITHM, chunk_size2)
            .compress(&data)
            .expect("compression cannot fail");

        let outcomes = [(&cold, &image), (&hit, &image), (&off, &image), (&second, &image2)];
        for (outcome, image) in outcomes {
            prop_assert_eq!(outcome.original_len, bytes);
            prop_assert_eq!(outcome.original_len, image.original_len());
            prop_assert_eq!(outcome.compressed_len, image.compressed_len());
            prop_assert_eq!(outcome.chunk_count, image.chunk_count());
        }
    }
}

/// Deterministic (non-property) pin: the oracle serves hits across *clones*
/// of a context — the sharing the schemes rely on — and its counters add up.
#[test]
fn shared_oracle_counts_hits_across_context_clones() {
    let (ctx, pages) = harness();
    let group: Vec<PageId> = pages.iter().take(4).copied().collect();
    let clone = ctx.clone();
    let first = ctx.compress_pages(&group, ChunkSize::k16());
    let second = clone.compress_pages(&group, ChunkSize::k16());
    assert!(!first.hit && second.hit);
    assert_eq!(first.compressed_len, second.compressed_len);
    let stats = ctx.oracle_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(stats.bytes_saved, 4 * PAGE_SIZE);
}
