//! Cross-crate integration tests: drive the full stack (trace generation →
//! schemes → simulator → experiment tables) and check the paper's headline
//! qualitative results.

use ariadne::core::{AriadneConfig, AriadneScheme, SizeConfig};
use ariadne::mem::PageLocation;
use ariadne::sim::experiments::{self, ExperimentOptions};
use ariadne::sim::{MobileSystem, SchemeSpec, SimulationConfig};
use ariadne::trace::{AppName, TimedScenario};
use ariadne::zram::{MemoryConfig, SwapScheme};

fn quick_config() -> SimulationConfig {
    SimulationConfig::new(11).with_scale(512)
}

#[test]
fn facade_reexports_every_layer() {
    // Name one item through each re-exported module path so a broken
    // `pub use` in the facade fails this test rather than only downstream
    // builds. The paths mirror the crate map in README.md.
    let _codec: ariadne::compress::Algorithm = ariadne::compress::Algorithm::Lz4;
    let _page = ariadne::mem::PageId::new(ariadne::mem::AppId::new(1), ariadne::mem::Pfn::new(0));
    let _app: ariadne::trace::AppName = ariadne::trace::AppName::Twitter;
    let _memory = ariadne::zram::MemoryConfig::pixel7_scaled(1024);
    let _sizes = ariadne::core::SizeConfig::k1_k2_k16();
    let _spec: ariadne::sim::SchemeSpec = ariadne::sim::SchemeSpec::Zram;
    assert!(!ariadne::VERSION.is_empty());
}

#[test]
fn headline_result_ariadne_relaunches_faster_than_zram() {
    let scenario = TimedScenario::relaunch_study(AppName::Youtube);

    let mut zram = MobileSystem::new(SchemeSpec::Zram, quick_config());
    zram.run_timed(&scenario);

    let mut ariadne = MobileSystem::new(
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        quick_config(),
    );
    ariadne.run_timed(&scenario);

    let mut dram = MobileSystem::new(SchemeSpec::Dram, quick_config());
    dram.run_timed(&scenario);

    let zram_ms = zram.average_relaunch_millis();
    let ariadne_ms = ariadne.average_relaunch_millis();
    let dram_ms = dram.average_relaunch_millis();

    assert!(
        ariadne_ms < zram_ms,
        "Ariadne ({ariadne_ms:.1} ms) must relaunch faster than ZRAM ({zram_ms:.1} ms)"
    );
    assert!(
        dram_ms <= ariadne_ms,
        "the DRAM lower bound ({dram_ms:.1} ms) cannot be slower than Ariadne ({ariadne_ms:.1} ms)"
    );
}

#[test]
fn ariadne_reduces_compression_related_cpu_relative_to_zram() {
    let scenario = TimedScenario::relaunch_study(AppName::Twitter);

    let mut zram = MobileSystem::new(SchemeSpec::Zram, quick_config());
    zram.run_timed(&scenario);
    let mut ariadne = MobileSystem::new(
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        quick_config(),
    );
    ariadne.run_timed(&scenario);

    let zram_cpu = zram.stats().compression_cpu();
    let ariadne_cpu = ariadne.stats().compression_cpu();
    assert!(
        ariadne_cpu.as_nanos() < zram_cpu.as_nanos() * 12 / 10,
        "Ariadne comp+decomp CPU ({:.2} ms) should not exceed ZRAM ({:.2} ms) by more than 20 %",
        ariadne_cpu.as_millis_f64(),
        zram_cpu.as_millis_f64()
    );
}

#[test]
fn every_scheme_preserves_page_reachability_under_pressure() {
    // Whatever the scheme does (compress, swap, writeback), a page that was
    // registered must still be readable afterwards — unless the scheme
    // explicitly dropped it, which only plain ZRAM may do.
    let scenario = TimedScenario::relaunch_study(AppName::Firefox);
    for spec in [
        SchemeSpec::Swap,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_al(SizeConfig::k1_k2_k16()),
    ] {
        let mut system = MobileSystem::new(spec, quick_config());
        system.run_timed(&scenario);
        assert_eq!(
            system.stats().dropped_pages,
            0,
            "{} dropped pages it should have preserved",
            spec.label()
        );
    }
}

#[test]
fn ariadne_scheme_is_usable_directly_through_the_facade() {
    // Exercise the public API without the simulator: construct the scheme,
    // feed it pages and force a reclaim, exactly as a downstream user would.
    use ariadne::mem::SimClock;
    use ariadne::trace::WorkloadBuilder;
    use ariadne::zram::{AccessKind, SchemeContext};

    let workloads = vec![WorkloadBuilder::new(3).scale(1024).build(AppName::Edge)];
    let ctx = SchemeContext::new(3, &workloads);
    let mut clock = SimClock::new();
    let memory = MemoryConfig::pixel7_scaled(1024);
    let mut scheme = AriadneScheme::new(AriadneConfig::ehl_1k_2k_16k(memory));

    let pages: Vec<_> = workloads[0].pages.iter().map(|p| p.page).collect();
    for &page in pages.iter().take(64) {
        scheme.register_page(page, &mut clock, &ctx);
    }
    assert_eq!(scheme.reclaim(16, &mut clock, &ctx), 16);
    let compressed = pages
        .iter()
        .copied()
        .find(|&page| scheme.location_of(page) == PageLocation::Zpool)
        .expect("reclaim compressed some pages");
    let access = scheme.access(compressed, AccessKind::Relaunch, &mut clock, &ctx);
    assert_eq!(access.found_in, PageLocation::Zpool);
    assert_eq!(scheme.location_of(compressed), PageLocation::Dram);
}

#[test]
fn experiment_harness_produces_a_table_for_every_catalog_entry() {
    // Smoke-run the cheap experiments end-to-end through the public harness.
    let opts = ExperimentOptions {
        seed: 1,
        scale: 512,
        ..ExperimentOptions::quick()
    };
    for name in [
        "table1",
        "fig5",
        "table3",
        "multiapp",
        "writeback",
        "lifecycle",
    ] {
        let table = experiments::run_by_name(name, &opts)
            .unwrap_or_else(|| panic!("experiment {name} missing"));
        assert!(table.row_count() > 0, "{name} produced no rows");
    }
    assert_eq!(experiments::catalog().len(), 18);
}
