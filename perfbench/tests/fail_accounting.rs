//! The benchmark's failure accounting must catch a run that returns
//! normally with unconverged solves.

use cfpd_core::{LogicalEvent, Scenario, SimulationConfig};
use cfpd_mesh::AirwaySpec;
use perfbench::report::{Report, Tally};
use perfbench::sim;

/// The default airway at three generations (72,864 elements) on 2 ranks:
/// every pressure CG stops at the 500-iteration cap without converging,
/// yet `run_scenario` returns normally.
#[test]
fn unconverged_solves_of_a_normal_run_count_as_failures() {
    let config = SimulationConfig {
        airway: AirwaySpec {
            generations: 3,
            ..AirwaySpec::default()
        },
        steps: 1,
        ..SimulationConfig::default()
    };
    let mut tally = Tally::default();
    let run = sim::run_checked(&Scenario::deterministic(config, 2), &mut tally)
        .expect("the run returns normally");

    let elements: usize = run
        .outcome
        .result
        .logical
        .iter()
        .map(|e| match e {
            LogicalEvent::Assembly { elements, .. } => *elements,
            _ => 0,
        })
        .sum();
    assert_eq!(elements, 72_864);

    let report = Report {
        tally,
        metrics: Vec::new(),
    };
    assert!(
        report.tally.fail_ratio() > 0.0,
        "fail_ratio = {}",
        report.tally.fail_ratio()
    );
    assert!(!report.tally.correct());
    let json = report.to_json();
    assert!(json.starts_with("{\"correct\":false,"), "{json}");
    assert!(
        report.render_table().contains("VIOLATION: step 0"),
        "{}",
        report.render_table()
    );
}
