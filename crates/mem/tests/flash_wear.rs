//! Property tests for flash-wear accounting: erase counts only ever grow,
//! write amplification never drops below 1, the leak-freedom invariant
//! holds with wear-dependent latency inflation enabled, and the sync and
//! queued I/O models agree on every wear total (wear is charged at
//! submission, which both modes share).

use ariadne_mem::{
    AppId, FlashDevice, FlashIoConfig, PageId, Pfn, WriteRequest, ERASE_BLOCK_BYTES, PAGE_SIZE,
};
use proptest::prelude::*;

fn page(pfn: u64) -> PageId {
    PageId::new(AppId::new(3), Pfn::new(pfn))
}

/// A single-page request whose stored size is `stored` bytes (sub-page
/// compressed objects are the interesting WAF case).
fn request(pfn: u64, stored: usize) -> WriteRequest {
    WriteRequest {
        pages: vec![page(pfn)],
        original_bytes: PAGE_SIZE,
        stored_bytes: stored.clamp(1, PAGE_SIZE),
        compressed: stored < PAGE_SIZE,
    }
}

/// Replay `ops` against one device, checking the wear invariants after
/// every operation. Returns the final stats and per-block erase counts.
fn run_wear_ops(io: FlashIoConfig, ops: &[(u8, u16)]) -> (ariadne_mem::FlashStats, Vec<u32>) {
    let mut flash = FlashDevice::with_io(6 * ERASE_BLOCK_BYTES, io);
    let mut now: u128 = 0;
    let mut live = Vec::new();
    let mut next_pfn = 0u64;
    let mut last_erases = 0usize;
    let mut last_physical = 0usize;
    let mut last_counts: Vec<u32> = Vec::new();

    for &(op, param) in ops {
        match op {
            // Submit a batch of single-page requests of varying stored size.
            0 | 1 => {
                let count = usize::from(param % 4) + 1;
                let requests: Vec<WriteRequest> = (0..count)
                    .map(|i| {
                        next_pfn += 1;
                        request(next_pfn, usize::from(param) * 7 + i * 911 + 1)
                    })
                    .collect();
                let result = flash.submit_writes(requests, now);
                live.extend(result.slots);
            }
            // Time passes.
            2 => now += u128::from(param) * 11_000,
            // Fault a live slot back in.
            3 => {
                if !live.is_empty() {
                    let slot = live.remove(usize::from(param) % live.len());
                    flash.fault_in(slot, now).expect("live slot");
                }
            }
            // Kill the app: everything is released at once.
            4 => {
                flash.release_app(AppId::new(3), now);
                live.clear();
            }
            _ => {
                let _ = flash.retire_completed(now);
            }
        }
        flash
            .leak_check()
            .unwrap_or_else(|leak| panic!("leak after op ({op}, {param}): {leak}"));
        let stats = flash.stats();
        // Wear is permanent: erase counts and physical bytes are monotone,
        // per block and in total, across faults and releases alike.
        assert!(stats.erases >= last_erases, "total erases went backwards");
        assert!(
            stats.physical_bytes_written >= last_physical,
            "physical bytes went backwards"
        );
        let counts = flash.erase_counts().to_vec();
        for (block, (&before, &after)) in last_counts.iter().zip(counts.iter()).enumerate() {
            assert!(after >= before, "block {block} erase count went backwards");
        }
        assert!(stats.waf() >= 1.0, "WAF {} below 1", stats.waf());
        assert!(
            stats.physical_bytes_written >= stats.bytes_written,
            "page rounding cannot program fewer bytes than were written"
        );
        last_erases = stats.erases;
        last_physical = stats.physical_bytes_written;
        last_counts = counts;
    }
    (flash.stats(), flash.erase_counts().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Erase counts are monotone, WAF ≥ 1 and `leak_check` stays green
    // under arbitrary op interleavings — with wear-dependent latency
    // inflation switched on, which must not disturb any accounting.
    #[test]
    fn wear_invariants_hold_with_inflation_enabled(
        ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u16>()), 1..80),
        depth in 1usize..5,
        ppm in 0u64..200_000,
    ) {
        let io = FlashIoConfig::ufs31()
            .with_queue_depth(depth)
            .with_wear_latency_ppm(ppm);
        run_wear_ops(io, &ops);
    }

    // The sync and queued models accept the same requests (admission is
    // capacity-based, not timing-based) and charge wear at submission, so
    // every wear total and every per-block erase count agrees.
    #[test]
    fn sync_and_queued_modes_agree_on_wear_totals(
        ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u16>()), 1..80),
    ) {
        let (queued, queued_blocks) = run_wear_ops(FlashIoConfig::ufs31(), &ops);
        let (sync, sync_blocks) = run_wear_ops(FlashIoConfig::sync(), &ops);
        assert_eq!(queued.writes, sync.writes);
        assert_eq!(queued.bytes_written, sync.bytes_written);
        assert_eq!(queued.physical_bytes_written, sync.physical_bytes_written);
        assert_eq!(queued.erases, sync.erases);
        assert_eq!(queued_blocks, sync_blocks);
    }
}

/// The WAF of an all-sub-page workload is exactly the page-rounding ratio.
#[test]
fn waf_reflects_sub_page_padding_exactly() {
    let mut flash = FlashDevice::new(1 << 22);
    let requests = (0..32u64).map(|pfn| request(pfn, PAGE_SIZE / 4)).collect();
    assert!(flash.submit_writes(requests, 0).dropped.is_empty());
    let stats = flash.stats();
    assert_eq!(stats.bytes_written, 32 * PAGE_SIZE / 4);
    assert_eq!(stats.physical_bytes_written, 32 * PAGE_SIZE);
    assert!((stats.waf() - 4.0).abs() < 1e-12);
}
