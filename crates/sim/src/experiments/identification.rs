//! Figure 14: coverage and accuracy of Ariadne's hot-data identification.

use super::ExperimentOptions;
use crate::report::{fmt_unit, Table};
use crate::schemes::SchemeSpec;
use ariadne_core::{AriadneScheme, SizeConfig};
use ariadne_trace::{AppName, ScenarioEvent, TimedScenario};

/// Build a scenario that relaunches `target` several times with other
/// applications launched in between (so hot-list predictions are exercised
/// under real memory pressure).
fn repeated_relaunch_scenario(target: AppName, rounds: usize) -> TimedScenario {
    let mut events = vec![
        ScenarioEvent::Launch(target),
        ScenarioEvent::Background(target),
    ];
    for app in AppName::ALL.into_iter().filter(|&a| a != target) {
        events.extend([ScenarioEvent::Launch(app), ScenarioEvent::Background(app)]);
    }
    for round in 0..rounds {
        events.push(ScenarioEvent::Relaunch {
            app: target,
            relaunch_index: round,
        });
        events.push(ScenarioEvent::Background(target));
        // Touch two other applications between relaunches of the target.
        for other in AppName::ALL.into_iter().filter(|&a| a != target).take(2) {
            events.push(ScenarioEvent::Relaunch {
                app: other,
                relaunch_index: round,
            });
            events.push(ScenarioEvent::Background(other));
        }
    }
    TimedScenario::sequence("repeated-relaunch", events)
}

/// Figure 14: per-application coverage and accuracy of hot-data
/// identification under Ariadne-EHL-1K-2K-16K.
#[must_use]
pub fn fig14(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Figure 14: hot-data identification quality",
        &["app", "coverage", "accuracy"],
    );
    let config = opts.base_config();
    let rounds = if opts.quick { 3 } else { 4 };
    for app in opts.reported_apps() {
        let mut system = opts.system(SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()), config);
        system.run_timed(&repeated_relaunch_scenario(app, rounds));
        let target_id = system.workload(app).app;
        let ariadne = system
            .scheme_mut()
            .as_any_mut()
            .downcast_mut::<AriadneScheme>()
            .expect("the scheme under test is Ariadne");
        let samples = ariadne.identification_metrics();
        let target_samples: Vec<_> = samples
            .iter()
            .filter(|(id, m)| *id == target_id && m.predicted_pages > 0)
            .map(|(_, m)| *m)
            .collect();
        if target_samples.is_empty() {
            table.push_row(vec![app.to_string(), "n/a".to_string(), "n/a".to_string()]);
            continue;
        }
        let coverage =
            target_samples.iter().map(|m| m.coverage).sum::<f64>() / target_samples.len() as f64;
        let accuracy =
            target_samples.iter().map(|m| m.accuracy).sum::<f64>() / target_samples.len() as f64;
        table.push_row(vec![
            app.to_string(),
            fmt_unit(coverage * 100.0, "%"),
            fmt_unit(accuracy * 100.0, "%"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_reports_high_coverage_and_accuracy() {
        let table = fig14(&ExperimentOptions::quick());
        assert!(table.row_count() >= 2);
        for row in table.rows() {
            assert_ne!(row[1], "n/a", "{}: no identification samples", row[0]);
            let coverage: f64 = row[1].trim_end_matches('%').parse().unwrap();
            let accuracy: f64 = row[2].trim_end_matches('%').parse().unwrap();
            assert!(coverage > 40.0, "{}: coverage {coverage}", row[0]);
            assert!(accuracy > 50.0, "{}: accuracy {accuracy}", row[0]);
        }
    }

    #[test]
    fn repeated_relaunch_scenario_relaunches_the_target_each_round() {
        let scenario = repeated_relaunch_scenario(AppName::Twitter, 3);
        let target_relaunches = scenario
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    ScenarioEvent::Relaunch {
                        app: AppName::Twitter,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(target_relaunches, 3);
    }
}
