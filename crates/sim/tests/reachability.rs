//! Cross-scheme reachability invariant: while multi-app scenarios
//! interleave relaunches with background pressure events, every page that
//! was registered with a scheme must remain *readable* — an access always
//! completes and leaves the page resident. For schemes that never discard
//! data (DRAM, SWAP, ZSWAP, Ariadne) the page's bytes must also never be
//! silently lost mid-run (no `Absent` location); plain ZRAM is allowed to
//! drop oldest entries by design.

use ariadne_core::SizeConfig;
use ariadne_mem::{PageId, PageLocation, PAGE_SIZE};
use ariadne_sim::{AppState, MobileSystem, RelaunchKind, SchemeSpec, SimulationConfig};
use ariadne_trace::{AppName, ScenarioEvent, TimedScenario};
use ariadne_zram::AccessKind;

fn config() -> SimulationConfig {
    SimulationConfig::new(11).with_scale(512)
}

/// Pages of every launched app, collected up front so the borrow of the
/// system ends before we start touching pages.
fn registered_pages(system: &MobileSystem) -> Vec<PageId> {
    system
        .launched_apps()
        .into_iter()
        .flat_map(|app| {
            system
                .workload(app)
                .pages
                .iter()
                .map(|p| p.page)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn all_specs() -> Vec<(SchemeSpec, bool)> {
    // (spec, data_loss_allowed)
    vec![
        (SchemeSpec::Dram, false),
        (SchemeSpec::Swap, false),
        (SchemeSpec::Zram, true),
        (SchemeSpec::Zswap, false),
        (SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()), false),
    ]
}

#[test]
fn every_registered_page_stays_readable_through_the_storm() {
    let scenario = TimedScenario::concurrent_relaunch_storm();
    assert!(scenario.has_overlap(), "the storm must interleave apps");
    for (spec, data_loss_allowed) in all_specs() {
        let mut system = MobileSystem::new(spec, config());
        system.enqueue(&scenario);

        // Step the engine event by event; every 16 events, check that the
        // zpool ledger matches the pages located in the pool and that no
        // loss-free scheme has silently lost a registered page mid-flight.
        let mut steps = 0usize;
        while system.step().is_some() {
            steps += 1;
            if steps % 16 != 0 {
                continue;
            }
            let pages = registered_pages(&system);
            let in_zpool = pages
                .iter()
                .filter(|&&page| system.scheme().location_of(page) == PageLocation::Zpool)
                .count();
            assert_eq!(
                system.stats().zpool.original_bytes,
                in_zpool * PAGE_SIZE,
                "{spec}: zpool ledger disagrees with page locations after {steps} events"
            );
            if !data_loss_allowed {
                for page in pages {
                    assert_ne!(
                        system.scheme().location_of(page),
                        PageLocation::Absent,
                        "{spec}: page {page:?} lost after {steps} events"
                    );
                }
            }
        }
        assert!(system.launched_apps().len() >= 3);
        assert!(system.pressure_spikes() >= 2);

        // Final sweep: every registered page is readable and ends resident.
        let mut lost = 0usize;
        for page in registered_pages(&system) {
            let outcome = system.touch(page, AccessKind::Execution);
            if outcome.found_in == PageLocation::Absent {
                lost += 1;
            }
            assert_eq!(
                system.scheme().location_of(page),
                PageLocation::Dram,
                "{spec}: page {page:?} not resident after access"
            );
        }
        if !data_loss_allowed {
            assert_eq!(lost, 0, "{spec}: {lost} registered pages were lost");
        }
    }
}

/// The `release_app` obligation of the `SwapScheme` contract, pinned for
/// all five schemes with asynchronous flash I/O still in flight: after a
/// kill, none of the victim's pages is reachable anywhere in the hierarchy,
/// the victim's slots and zpool bytes are reclaimed (a second release finds
/// nothing), survivors keep their data, and the flash device's `leak_check`
/// stays green through the orphaned in-flight commands retiring.
#[test]
fn release_app_frees_every_page_and_leaks_nothing_across_schemes() {
    let scenario = TimedScenario::kill_storm();
    for (spec, _) in all_specs() {
        // A vendor-sized zpool keeps compressed data overflowing to flash,
        // so kills land while write commands are still in flight.
        let mut system = MobileSystem::new(spec, config().with_zpool_shrink(16));
        system.enqueue(&scenario);
        // Run roughly half the storm so plenty of data sits in every tier.
        for _ in 0..scenario.events.len() / 2 {
            if system.step().is_none() {
                break;
            }
        }
        let launched = system.launched_apps();
        assert!(launched.len() >= 2, "{spec}: the storm launched apps");
        let victim = launched[0];
        let victim_pages: Vec<PageId> = system
            .workload(victim)
            .pages
            .iter()
            .map(|p| p.page)
            .collect();
        let survivor = launched[1];
        let survivor_resident: Vec<PageId> = system
            .workload(survivor)
            .pages
            .iter()
            .map(|p| p.page)
            .filter(|p| system.scheme().location_of(*p) != PageLocation::Absent)
            .collect();

        let footprint = system.kill_app(victim);
        assert!(
            footprint.total_pages() > 0,
            "{spec}: the kill must free a real footprint"
        );
        for &page in &victim_pages {
            assert_eq!(
                system.scheme().location_of(page),
                PageLocation::Absent,
                "{spec}: page {page:?} survived the kill"
            );
        }
        for &page in &survivor_resident {
            assert_ne!(
                system.scheme().location_of(page),
                PageLocation::Absent,
                "{spec}: the kill leaked into {survivor}'s data"
            );
        }
        system.scheme().leak_check().unwrap_or_else(|violation| {
            panic!("{spec}: leak check failed right after the kill: {violation}")
        });
        // Everything is reclaimed: a second release finds nothing.
        assert!(
            system.kill_app(victim).is_empty(),
            "{spec}: the first release left slots or zpool bytes behind"
        );

        // Drain the rest of the storm (orphaned in-flight commands retire,
        // the killed app cold-launches) and re-check the invariants.
        while system.step().is_some() {}
        system.scheme().leak_check().unwrap_or_else(|violation| {
            panic!("{spec}: leak check failed after the storm drained: {violation}")
        });
    }
}

/// Killed apps transition `Killed → Alive` through a cold launch that makes
/// every page reachable again, for every scheme.
#[test]
fn killed_apps_come_back_fully_reachable_after_a_cold_launch() {
    for (spec, _) in all_specs() {
        let mut system = MobileSystem::new(spec, config());
        system.run_timed(&TimedScenario::sequence(
            "launch",
            [
                ScenarioEvent::Launch(AppName::Twitter),
                ScenarioEvent::Background(AppName::Twitter),
            ],
        ));
        system.kill_app(AppName::Twitter);
        assert_eq!(system.app_state(AppName::Twitter), Some(AppState::Killed));

        system.run_timed(&TimedScenario::sequence(
            "relaunch",
            [ScenarioEvent::Relaunch {
                app: AppName::Twitter,
                relaunch_index: 0,
            }],
        ));
        assert_eq!(system.measurements()[0].kind, RelaunchKind::Cold, "{spec}");
        assert_eq!(system.app_state(AppName::Twitter), Some(AppState::Alive));
        for page in registered_pages(&system) {
            let outcome = system.touch(page, AccessKind::Execution);
            assert_ne!(outcome.found_in, PageLocation::Absent, "{spec}: {page:?}");
        }
    }
}

/// Every page a measured relaunch touched is accounted to exactly one
/// location: the `found_in` counts of each warm and cold relaunch of the
/// kill storm sum to `pages_accessed`, with no zero entries.
#[test]
fn found_in_accounts_for_every_relaunch_page() {
    let scenario = TimedScenario::kill_storm();
    for (spec, _) in all_specs() {
        let mut system = MobileSystem::new(spec, config());
        system.run_timed(&scenario);
        assert_eq!(system.measurements().len(), scenario.relaunch_count());
        for m in system.measurements() {
            assert_eq!(
                m.found_in.values().sum::<usize>(),
                m.pages_accessed,
                "{spec}: {} {:?} relaunch",
                m.app,
                m.kind
            );
            assert!(
                m.found_in.values().all(|&pages| pages > 0),
                "{spec}: zero entry in {:?}",
                m.found_in
            );
        }
    }
}
