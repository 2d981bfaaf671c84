//! Property tests for the queued flash device: slot accounting must be
//! leak-proof under arbitrary interleavings of submissions, time advances,
//! retirements, faults and app releases.
//!
//! The pinned invariant (see `FlashDevice::leak_check`): every allocated
//! `SwapSlot` is always either in flight, at rest, or gone — and after a
//! fault-in it is *gone*, never orphaned (no stale page-index entries, no
//! leaked used-bytes, no dangling outstanding commands).

use ariadne_mem::{
    AppId, FlashDevice, FlashIoConfig, FlashIoMode, PageId, Pfn, WriteRequest, PAGE_SIZE,
};
use proptest::prelude::*;

/// The apps the ops spread their objects over.
const APPS: u8 = 3;

fn page(app: u8, pfn: u64) -> PageId {
    PageId::new(AppId::new(u32::from(app)), Pfn::new(pfn))
}

fn request(app: u8, pfn: u64, pages: usize) -> WriteRequest {
    WriteRequest {
        pages: (0..pages as u64).map(|i| page(app, pfn * 64 + i)).collect(),
        original_bytes: pages * PAGE_SIZE,
        stored_bytes: pages * PAGE_SIZE / 2,
        compressed: true,
    }
}

/// Interpret an op sequence against a small device, checking the
/// leak-freedom invariant after every operation, and at the end fault
/// everything back in and require the device to be completely empty.
fn run_ops(io: FlashIoConfig, ops: &[(u8, u8)]) {
    // Small capacity so rejections happen; the queue depth in `io` is small
    // so submitters stall.
    let mut flash = FlashDevice::with_io(24 * PAGE_SIZE, io);
    let mut now: u128 = 0;
    let mut live = Vec::new();
    let mut next_pfn = 0u64;

    for &(op, param) in ops {
        match op {
            // Submit a small batch of write requests for one app.
            0 | 1 => {
                let app = param % APPS;
                let count = usize::from(param % 3) + 1;
                let requests: Vec<WriteRequest> = (0..count)
                    .map(|_| {
                        next_pfn += 1;
                        request(app, next_pfn, usize::from(param % 2) + 1)
                    })
                    .collect();
                let result = flash.submit_writes(requests, now);
                live.extend(result.slots.into_iter().map(|slot| (slot, app)));
            }
            // Let simulated time pass.
            2 => now += u128::from(param) * 37_000,
            // Fault a live slot back in: the slot must be fully released.
            3 => {
                if !live.is_empty() {
                    let (slot, _) = live.remove(usize::from(param) % live.len());
                    let fault = flash.fault_in(slot, now).expect("live slot");
                    for p in &fault.pages {
                        assert!(!flash.contains(*p), "fault-in left {p} behind for {slot}");
                    }
                    assert!(flash.fault_in(slot, now).is_err(), "slot must be freed");
                }
            }
            // Kill an app: its slots are freed without a read, the other
            // apps' stay live.
            4 => {
                let app = param % APPS;
                let owned = live.iter().filter(|(_, owner)| *owner == app).count();
                let reads = flash.stats().reads;
                let (slots, _) = flash.release_app(AppId::new(u32::from(app)), now);
                assert_eq!(slots, owned, "release must free exactly app {app}'s slots");
                assert_eq!(flash.stats().reads, reads, "a release reads nothing");
                live.retain(|(_, owner)| *owner != app);
            }
            // Explicit retirement (the engine's IoComplete path).
            _ => {
                let _ = flash.retire_completed(now);
            }
        }
        flash
            .leak_check()
            .unwrap_or_else(|leak| panic!("invariant violated after op ({op}, {param}): {leak}"));
        assert!(flash.used_bytes() <= flash.capacity());
    }

    // Drain: every surviving slot is faulted in; nothing may be orphaned.
    now += 1_000_000_000;
    flash.retire_completed(now);
    for (slot, _) in live {
        flash.fault_in(slot, now).expect("surviving slot is live");
    }
    flash.leak_check().unwrap();
    assert!(flash.is_empty(), "entries leaked");
    assert_eq!(flash.used_bytes(), 0, "used-bytes leaked");
    assert_eq!(flash.slot_for(page(0, 64)), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queued_device_never_orphans_slots(
        ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u8>()), 1..100),
        depth in 1usize..5,
        batch in 1usize..5,
    ) {
        let io = FlashIoConfig::ufs31()
            .with_queue_depth(depth)
            .with_max_batch_pages(batch);
        run_ops(io, &ops);
    }

    #[test]
    fn sync_device_never_orphans_slots(
        ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u8>()), 1..100),
    ) {
        run_ops(FlashIoConfig::sync(), &ops);
    }
}

#[test]
fn completion_times_are_monotonic_per_device() {
    let io = FlashIoConfig::ufs31().with_max_batch_pages(1);
    let mut flash = FlashDevice::with_io(1 << 24, io);
    let mut last = 0u128;
    for i in 0..10u64 {
        let result = flash.submit_writes(vec![request(0, i + 1, 1)], i as u128 * 10_000);
        let completes = flash
            .pending_completion(result.slots[0])
            .expect("freshly submitted");
        assert!(
            completes >= last,
            "command completes before its predecessor"
        );
        last = completes;
    }
    assert_eq!(flash.io().mode, FlashIoMode::Queued);
}
