//! Acceptance tests for the asynchronous flash I/O subsystem.
//!
//! The headline contract: under the queued device model, a scenario with
//! concurrent background writeback and a foreground relaunch reports
//! *strictly lower* relaunch latency than the same scenario with writeback
//! forced synchronous — because queued writeback overlaps foreground
//! execution and fault reads are prioritized ahead of pending write
//! commands, while synchronous writeback occupies the device inline.

use ariadne_compress::CostNanos;
use ariadne_core::SizeConfig;
use ariadne_mem::{FlashIoConfig, PageLocation, Watermarks, PAGE_SIZE};
use ariadne_sim::{EngineEvent, MobileSystem, SchemeSpec, SimulationConfig};
use ariadne_trace::{AppName, TimedScenario};
use ariadne_zram::{
    AccessKind, LruScheme, MemoryConfig, SchemeContext, SwapScheme, WritebackPolicy,
};

/// The writeback-storm configuration the `writeback` experiment uses: a
/// vendor-sized (shrunken) zswap pool keeps flash writeback sustained.
fn storm_config(io: FlashIoConfig) -> SimulationConfig {
    SimulationConfig::new(0x0A71_AD4E)
        .with_scale(256)
        .with_io(io)
        .with_zpool_shrink(16)
}

fn average_relaunch(spec: SchemeSpec, io: FlashIoConfig) -> f64 {
    let mut system = MobileSystem::new(spec, storm_config(io));
    system.run_timed(&TimedScenario::writeback_storm());
    assert!(!system.measurements().is_empty());
    system.average_relaunch_millis()
}

#[test]
fn async_writeback_strictly_beats_forced_sync_writeback() {
    for spec in [SchemeSpec::Swap, SchemeSpec::Zswap] {
        let sync = average_relaunch(spec, FlashIoConfig::sync());
        let queued = average_relaunch(spec, FlashIoConfig::ufs31());
        assert!(
            queued < sync,
            "{spec}: queued writeback must strictly beat sync ({queued} ms vs {sync} ms)"
        );
    }
    // Ariadne keeps hot data out of the writeback path entirely, so its
    // relaunches must at minimum never be hurt by the async model.
    let spec = SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16());
    let sync = average_relaunch(spec, FlashIoConfig::sync());
    let queued = average_relaunch(spec, FlashIoConfig::ufs31());
    assert!(
        queued <= sync,
        "{spec}: queued writeback must not lose to sync ({queued} ms vs {sync} ms)"
    );
}

#[test]
fn sync_writeback_stalls_are_attributed_to_the_faulting_app() {
    let mut system = MobileSystem::new(SchemeSpec::Zswap, storm_config(FlashIoConfig::sync()));
    system.run_timed(&TimedScenario::writeback_storm());
    let total = system.stats().io_stall_time;
    assert!(
        total > CostNanos::zero(),
        "the storm must produce fault-side I/O stalls under sync writeback"
    );
    // Stall time surfaces in the per-relaunch measurements (each attributed
    // to the relaunched app), never exceeds the measured latency, and never
    // exceeds the scheme's total.
    let stalled: Vec<_> = system
        .measurements()
        .iter()
        .filter(|m| m.io_stall > CostNanos::zero())
        .collect();
    assert!(!stalled.is_empty());
    for m in &stalled {
        assert!(m.io_stall <= m.latency);
    }
    assert!(stalled.iter().map(|m| m.io_stall).sum::<CostNanos>() <= total);
}

#[test]
fn engine_schedules_and_drains_io_completion_events() {
    let mut system = MobileSystem::new(SchemeSpec::Zswap, storm_config(FlashIoConfig::ufs31()));
    system.enqueue(&TimedScenario::writeback_storm());
    let mut io_events = 0usize;
    while let Some(event) = system.step() {
        if event == EngineEvent::IoComplete {
            io_events += 1;
        }
    }
    assert!(
        io_events > 0,
        "queued writeback must schedule IoComplete events"
    );
    assert_eq!(system.io_completions(), io_events);
    assert_eq!(
        system.scheme().tiers().flash.next_completion(),
        None,
        "every in-flight command must be retired by the end of the run"
    );
    assert!(system.stats().flash.commands > 0);
}

/// A fault racing an in-flight writeback of the same page stalls only until
/// that command completes — it never re-pays the full device read latency.
#[test]
fn faults_on_in_flight_writeback_stall_only_until_completion() {
    let dram = 4096 * PAGE_SIZE;
    let config = MemoryConfig {
        dram_bytes: dram,
        zpool_bytes: 8 * PAGE_SIZE,
        flash_swap_bytes: 4096 * PAGE_SIZE,
        watermarks: Watermarks::new(dram / 8, dram / 4).unwrap(),
        ..MemoryConfig::pixel7_scaled(1024)
    }
    .with_writeback(WritebackPolicy::WritebackToFlash);
    let workloads = vec![ariadne_trace::WorkloadBuilder::new(1)
        .scale(1024)
        .build(AppName::Twitter)];
    let ctx = SchemeContext::new(1, &workloads);
    let mut clock = ariadne_mem::SimClock::new();
    let mut scheme = LruScheme::zram(config);
    let pages: Vec<_> = workloads[0].pages.iter().map(|p| p.page).collect();
    for &page in pages.iter().take(40) {
        scheme.register_page(page, &mut clock, &ctx);
    }
    scheme.reclaim(8, &mut clock, &ctx);
    assert!(scheme.deferred_pages() > 0);
    // The background flush submits queued writes "now"; a fault immediately
    // afterwards races them.
    scheme.drain_deferred(64, &mut clock, &ctx);
    assert!(scheme.tiers().flash.next_completion().is_some());
    let in_flight = pages
        .iter()
        .take(40)
        .find(|&&p| scheme.location_of(p) == PageLocation::Flash)
        .copied()
        .expect("some page is being written back");
    let outcome = scheme.access(in_flight, AccessKind::Relaunch, &mut clock, &ctx);
    assert_eq!(outcome.found_in, PageLocation::Flash);
    assert!(
        outcome.io_stall > CostNanos::zero(),
        "a racing fault must stall on the in-flight command"
    );
    assert!(outcome.io_stall <= outcome.latency);
    assert_eq!(scheme.location_of(in_flight), PageLocation::Dram);
    assert!(scheme.stats().io_stall_time >= outcome.io_stall);
    // No device read was paid for the in-flight data.
    assert_eq!(scheme.stats().flash.reads, 0);
}
