//! Telemetry subsystem acceptance gates.
//!
//! The POP rollup of a run is computed from that run's own phase trace
//! (`cfpd_trace::pop_report`); it must agree with an independent
//! recomputation from the raw events to within 1e-9 and keep its
//! efficiencies in (0, 1]. And enabling telemetry must be invisible in
//! the golden document: summaries go to stderr, never into the trace.
//!
//! The counter registry is process-global, so the tests that read it
//! serialize on one mutex and end with telemetry disabled and reset;
//! the POP tests take it only to keep their runs out of those counts.

use std::sync::Mutex;

use cfpd_core::{golden_config, golden_trace, run_simulation};
use cfpd_trace::pop_report;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

const TOL: f64 = 1e-9;
const RANKS: usize = 2;

fn with_telemetry_run<R>(f: impl FnOnce(&cfpd_core::SimulationResult) -> R) -> R {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cfpd_telemetry::set_enabled(true);
    cfpd_telemetry::reset();
    let r = run_simulation(&golden_config(), RANKS, 1, false);
    cfpd_telemetry::set_enabled(false);
    let out = f(&r);
    cfpd_telemetry::reset();
    out
}

/// A golden-config run for the POP tests. The rollup is the run's own
/// and needs no lock; the run holds it only so its steps are not
/// counted into a counter test's process-global registry.
fn pop_run() -> cfpd_core::SimulationResult {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    run_simulation(&golden_config(), RANKS, 1, false)
}

/// Every efficiency of a real rollup lies in (0, 1].
fn assert_efficiencies_in_range(report: &cfpd_telemetry::PopReport) {
    for (name, v) in [
        ("parallel_efficiency", report.parallel_efficiency),
        ("load_balance", report.load_balance),
        ("comm_efficiency", report.comm_efficiency),
    ] {
        assert!(v > 0.0 && v <= 1.0, "{name} = {v} outside (0, 1]");
    }
}

#[test]
fn pop_rollup_agrees_with_trace_stats_to_1e_9() {
    let r = pop_run();
    let report = pop_report(&r.trace);
    assert_eq!(report.ranks, RANKS);
    assert_efficiencies_in_range(&report);
    let ts = cfpd_trace::trace_stats(&r.trace);
    assert_eq!(ts.parallel_efficiency, report.parallel_efficiency);

    // Independent oracle: the definitions recomputed from raw events.
    let mut useful = vec![0.0f64; RANKS];
    let mut mpi = 0.0f64;
    let mut wall = 0.0f64;
    for e in &r.trace.events {
        wall = wall.max(e.t_end);
        if e.phase == cfpd_trace::Phase::MpiComm {
            mpi += e.duration();
        } else {
            useful[e.rank] += e.duration();
        }
    }
    let useful_total: f64 = useful.iter().sum();
    let max_useful = useful.iter().cloned().fold(0.0f64, f64::max);
    for (name, got, want) in [
        ("wall time", report.wall_time, wall),
        ("useful time", report.useful_time, useful_total),
        ("mpi time", report.mpi_time, mpi),
        ("parallel efficiency", report.parallel_efficiency, useful_total / (RANKS as f64 * wall)),
        ("load balance", report.load_balance, cfpd_trace::load_balance(&useful)),
        ("comm efficiency", report.comm_efficiency, max_useful / wall),
    ] {
        assert!((got - want).abs() <= TOL, "{name}: rollup {got} vs events {want}");
    }
    for (rank, (got, want)) in report.per_rank_useful.iter().zip(&useful).enumerate() {
        assert!((got - want).abs() <= TOL, "rank {rank} useful: rollup {got} vs events {want}");
    }
}

#[test]
fn pop_identity_holds_in_the_rollup() {
    let r = pop_run();
    let report = pop_report(&r.trace);
    let recomposed = report.load_balance * report.comm_efficiency;
    assert!(
        (report.parallel_efficiency - recomposed).abs() <= TOL,
        "PE {} != LB x CommE {}",
        report.parallel_efficiency,
        recomposed
    );
    assert_efficiencies_in_range(&report);
}

#[test]
fn counters_reflect_the_run_shape() {
    let cfg = golden_config();
    with_telemetry_run(|r| {
        let snap = cfpd_telemetry::snapshot();
        let counter = |name: &str| -> u64 {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
        };
        assert_eq!(counter("core.rank_steps") as usize, RANKS * cfg.steps);
        assert!(counter("solver.cg_iterations") > 0, "CG ran");
        assert!(counter("solver.assemblies") > 0, "assembly ran");
        assert!(counter("solver.spmv_calls") > 0, "spmv ran");
        assert_eq!(counter("particles.steps") as usize, RANKS * cfg.steps);
        assert!(counter("mpi.msgs_sent") > 0, "ranks exchanged messages");
        // Metrics register lazily at first use, so a clean run leaves
        // the timeout counter absent entirely — absent or zero both
        // mean "no timeouts".
        let timeouts = snap
            .counters
            .iter()
            .find(|(n, _)| n == "mpi.timeouts")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(timeouts, 0, "clean run has no timeouts");
        // The run result and the counters describe the same universe.
        let c = r.census;
        assert!(c.active + c.deposited + c.escaped + c.lost > 0);
        assert!(snap.pop.is_none(), "the process-wide snapshot carries no run's POP");
    });
}

#[test]
fn snapshot_renders_to_both_surfaces() {
    with_telemetry_run(|r| {
        let mut snap = cfpd_telemetry::snapshot();
        snap.pop = Some(pop_report(&r.trace));
        let table = snap.render_table();
        assert!(table.contains("== telemetry =="));
        assert!(table.contains("parallel_efficiency"));
        let json = snap.render_json();
        for key in [
            "\"parallel_efficiency\"",
            "\"load_balance\"",
            "\"comm_efficiency\"",
            "\"counters\"",
            "\"histograms\"",
        ] {
            assert!(json.contains(key), "JSON missing {key}: {json}");
        }
    });
}

/// Telemetry must be invisible on stdout: the golden document rendered
/// with telemetry enabled is byte-identical to the one rendered with it
/// disabled (summaries are the CLI's job and go to stderr).
#[test]
fn enabling_telemetry_keeps_the_golden_document_byte_identical() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cfpd_telemetry::set_enabled(false);
    cfpd_telemetry::reset();
    let off = golden_trace(&golden_config(), RANKS);
    cfpd_telemetry::set_enabled(true);
    cfpd_telemetry::reset();
    let on = golden_trace(&golden_config(), RANKS);
    cfpd_telemetry::set_enabled(false);
    cfpd_telemetry::reset();
    assert_eq!(on, off, "telemetry perturbed the golden document");
}
