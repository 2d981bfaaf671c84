//! Property tests for the memoized compression oracle: a cache hit must be
//! bit-identical to a cold codec run, for every chunk size × page group,
//! with the oracle enabled or disabled, and a reclaim pass's batch must
//! report exactly what consulting its groups one at a time would.

use ariadne_compress::{ChunkSize, ChunkedCodec};
use ariadne_mem::{PageId, PAGE_SIZE};
use ariadne_trace::{AppMask, AppName, AppWorkload, WorkloadBuilder};
use ariadne_zram::{pool, OracleHandle, OracleOutcome, SchemeContext, ALGORITHM};
use proptest::prelude::*;
use std::collections::HashSet;

/// The seed the workloads and contexts below run under.
const SEED: u64 = 9;

/// Twitter and Youtube workloads, with Youtube's pages adversarially
/// incompressible when `poisoned` (page identities are the same either
/// way, only the bytes differ).
fn workloads(poisoned: bool) -> Vec<AppWorkload> {
    let mask = if poisoned {
        AppMask::of(&[AppName::Youtube])
    } else {
        AppMask::none()
    };
    let builder = WorkloadBuilder::new(SEED).scale(1024).incompressible(mask);
    vec![
        builder.build(AppName::Twitter),
        builder.build(AppName::Youtube),
    ]
}

/// The workload pages oracle groups are drawn from (two apps, so groups can
/// come from either profile).
fn harness() -> (SchemeContext, Vec<PageId>) {
    let workloads = workloads(false);
    let ctx = SchemeContext::new(SEED, &workloads);
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

/// Consult the oracle for one group: a batch of one.
fn consult(ctx: &SchemeContext, group: &[PageId], chunk_size: ChunkSize) -> OracleOutcome {
    let mut outcomes = Vec::new();
    ctx.compress_batch([(group, chunk_size)], &mut outcomes);
    assert_eq!(outcomes.len(), 1);
    outcomes[0]
}

/// A fresh oracle behind a new handle: enabled (`mode` 0), disabled (1), or
/// enabled but already bound to a seed other than [`SEED`] (2), so it
/// serves none of the consultations below.
fn oracle(mode: u8, workloads: &[AppWorkload]) -> OracleHandle {
    let handle = OracleHandle::enabled(mode != 1);
    if mode == 2 {
        let foreign = SchemeContext::new(SEED + 1, workloads).with_oracle_handle(&handle);
        consult(&foreign, &[workloads[0].pages[0].page], ChunkSize::k4());
    }
    handle
}

/// One reclaim pass drawn from raw picks: groups of one app each, no page
/// in two groups (victims are distinct pages), each with its chunk size and
/// the chunk size it was consulted with before the pass, if any.
type Pass = Vec<(Vec<PageId>, ChunkSize, Option<ChunkSize>)>;

fn pass(workloads: &[AppWorkload], specs: &[(Vec<u16>, u8, u8)]) -> Pass {
    let mut used = HashSet::new();
    specs
        .iter()
        .filter_map(|(picks, chunk_pick, warm_pick)| {
            let app = &workloads[picks[0] as usize % workloads.len()].pages;
            let pages: Vec<PageId> = picks
                .iter()
                .map(|&pick| app[pick as usize % app.len()].page)
                .filter(|&page| used.insert(page))
                .collect();
            let chunk = chunk_size(*chunk_pick);
            // Earlier consultations: another chunk size (a hit when it
            // makes the same codec calls), the same one (a hit), or none.
            let warm = match warm_pick {
                0..=10 => Some(chunk_size(*warm_pick)),
                11..=21 => Some(chunk),
                _ => None,
            };
            (!pages.is_empty()).then_some((pages, chunk, warm))
        })
        .collect()
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

        let cold = consult(&ctx, &group, chunk_size);
        let hit = consult(&ctx, &group, chunk_size);
        prop_assert!(!cold.hit && hit.hit);

        let off = ctx
            .clone()
            .with_oracle_handle(&OracleHandle::enabled(false));
        let off = consult(&off, &group, chunk_size);
        prop_assert!(!off.hit);

        let second = consult(&ctx, &group, chunk_size2);
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

    // A reclaim pass compressed as one batch — its misses on the pool when
    // there are two or more — reports exactly what a second context reports
    // when it replays the same groups one at a time: every size and hit
    // flag, the oracle's counters and entry count, and the ratio histogram.
    // Passes of 0, 1 and many groups mix cached and new keys, chunk sizes
    // and poisoned page contents, under an enabled oracle, a disabled one
    // and one bound to a foreign seed.
    #[test]
    fn a_batch_reports_what_one_group_at_a_time_reports(
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::prelude::any::<u16>(), 1..5),
                0u8..11,
                0u8..24,
            ),
            0..10,
        ),
        poisoned in proptest::prelude::any::<bool>(),
        mode in 0u8..3,
    ) {
        let workloads = workloads(poisoned);
        let pass = pass(&workloads, &specs);
        let (batch_oracle, replay_oracle) = (oracle(mode, &workloads), oracle(mode, &workloads));
        let batched = SchemeContext::new(SEED, &workloads).with_oracle_handle(&batch_oracle);
        let replayed = SchemeContext::new(SEED, &workloads).with_oracle_handle(&replay_oracle);
        for (pages, _, warm) in &pass {
            if let Some(warm) = *warm {
                consult(&batched, pages, warm);
                consult(&replayed, pages, warm);
            }
        }

        let mut batch = Vec::new();
        batched.compress_batch(pass.iter().map(|(pages, chunk, _)| (&pages[..], *chunk)), &mut batch);
        let replay: Vec<OracleOutcome> = pass
            .iter()
            .map(|(pages, chunk, _)| consult(&replayed, pages, *chunk))
            .collect();

        prop_assert_eq!(&batch, &replay);
        prop_assert_eq!(batch_oracle.stats(), replay_oracle.stats());
        prop_assert_eq!(batch_oracle.entries(), replay_oracle.entries());
        prop_assert_eq!(batched.compression_ratios(), replayed.compression_ratios());
        for ((pages, _, _), outcome) in pass.iter().zip(&batch) {
            prop_assert_eq!(outcome.original_len, pages.len() * PAGE_SIZE);
        }
        if mode != 0 {
            prop_assert!(batch.iter().all(|outcome| !outcome.hit));
            prop_assert_eq!(batch_oracle.entries(), usize::from(mode == 2));
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
    let first = consult(&ctx, &group, ChunkSize::k16());
    let second = consult(&clone, &group, ChunkSize::k16());
    assert!(!first.hit && second.hit);
    assert_eq!(first.compressed_len, second.compressed_len);
    let stats = ctx.oracle_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(stats.bytes_saved, 4 * PAGE_SIZE);
}

/// A batch started on a pool worker runs its misses inline; it reports what
/// the same batch reports outside the pool.
#[test]
fn a_batch_inside_a_pool_cell_matches_one_outside() {
    let run = || {
        let (ctx, pages) = harness();
        let groups: Vec<&[PageId]> = pages.chunks(3).take(12).collect();
        let mut outcomes = Vec::new();
        ctx.compress_batch(
            groups.iter().map(|&group| (group, ChunkSize::k16())),
            &mut outcomes,
        );
        (outcomes, ctx.oracle_stats(), ctx.compression_ratios())
    };
    let outside = run();
    assert!(outside.0.iter().all(|outcome| !outcome.hit));
    let inside = pool::run_cells(vec![(); 3], |()| run());
    assert!(inside.iter().all(|cell| *cell == outside));
}
