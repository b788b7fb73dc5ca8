//! The simulation workloads: one scenario per workload, run repeatedly
//! through `cfpd_core::run_scenario` with the default layout.

use crate::report::{metric, Metric, Report, Tally};
use crate::stats::{median, quantile};
use crate::{derive_seed, machine};
use cfpd_core::{
    run_scenario, ExecutionMode, LogicalEvent, RunOptions, Scenario, ScenarioOutcome,
    SimulationConfig,
};
use cfpd_mesh::AirwaySpec;
use std::time::{Duration, Instant};

/// Steps per `sync_airway` run: short enough for several repetitions
/// per measured window, long enough that stepping outweighs set-up.
pub const SYNC_STEPS: usize = 3;
/// Steps per `coupled_particles` run.
pub const COUPLED_STEPS: usize = 5;
/// Fewest measured repetitions per run, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;

/// Synchronous mode, 2 ranks × 1 thread, the default airway at two
/// generations (32,208 elements), 2,000 particles.
pub fn sync_airway(seed: u64) -> Scenario {
    let config = SimulationConfig {
        airway: AirwaySpec {
            generations: 2,
            ..AirwaySpec::default()
        },
        num_particles: 2_000,
        steps: SYNC_STEPS,
        seed: derive_seed(seed, 0),
        ..SimulationConfig::default()
    };
    Scenario::deterministic(config, 2)
}

/// Coupled mode, 1 fluid + 1 particle rank × 1 thread, reactive LeWI
/// DLB on, the small airway at three generations (9,496 elements),
/// 200,000 particles.
pub fn coupled_particles(seed: u64) -> Scenario {
    let config = SimulationConfig {
        airway: AirwaySpec {
            generations: 3,
            ..AirwaySpec::small()
        },
        num_particles: 200_000,
        steps: COUPLED_STEPS,
        mode: ExecutionMode::Coupled {
            fluid: 1,
            particles: 1,
        },
        seed: derive_seed(seed, 0),
        ..SimulationConfig::default()
    };
    Scenario {
        config,
        ranks: 2,
        threads: 1,
        opts: RunOptions {
            dlb: true,
            ..Default::default()
        },
    }
}

/// Count every solve of a run as one attempted operation, failed when
/// it did not converge or its residual is not finite.
pub fn audit_solves(logical: &[LogicalEvent], tally: &mut Tally) {
    for e in logical {
        if let LogicalEvent::Solve {
            step,
            rank,
            system,
            iterations,
            residual_bits,
            converged,
        } = e
        {
            let residual = f64::from_bits(*residual_bits);
            tally.check(if *converged && residual.is_finite() {
                Ok(())
            } else {
                Err(format!(
                    "step {step} rank {rank} system {system}: converged={converged} \
                     residual={residual:e} after {iterations} iterations"
                ))
            });
        }
    }
}

/// One finished run and its wall time.
pub struct Run {
    pub wall: f64,
    pub steps: usize,
    pub outcome: ScenarioOutcome,
}

impl Run {
    /// Wall time outside the stepped region: mesh, partition, solver and
    /// particle set-up plus result rendering.
    pub fn setup_s(&self) -> f64 {
        self.wall - self.outcome.result.total_time
    }

    pub fn step_s(&self) -> f64 {
        self.outcome.result.total_time / self.steps as f64
    }

    /// POP parallel efficiency (load balance × communication
    /// efficiency) of the run's per-rank phase trace.
    pub fn parallel_efficiency(&self) -> f64 {
        cfpd_trace::lost_cycles(&self.outcome.result.trace).parallel_efficiency
    }
}

/// Run `s` once through `run_scenario`, auditing it. A run that fails
/// (`run_simulation_fallible` returning `Err`, which `run_scenario`
/// raises as a panic naming the failed ranks) counts as one failed
/// operation and yields `None`.
pub fn run_checked(s: &Scenario, tally: &mut Tally) -> Option<Run> {
    let t0 = Instant::now();
    let out = std::panic::catch_unwind(|| run_scenario(s));
    let wall = t0.elapsed().as_secs_f64();
    match out {
        Ok(outcome) => {
            tally.check(Ok(()));
            audit_solves(&outcome.result.logical, tally);
            Some(Run {
                wall,
                steps: s.config.steps,
                outcome,
            })
        }
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "run panicked".to_string());
            tally.check(Err(format!("run failed: {why}")));
            None
        }
    }
}

/// A repetition of one input must reproduce the reference run's
/// golden-document digest.
pub fn check_digest(reference: Option<u64>, run: &Run, tally: &mut Tally) {
    if let Some(d) = reference.filter(|&d| d != run.outcome.digest) {
        tally.check(Err(format!(
            "repetition digest {:016x} differs from {d:016x}",
            run.outcome.digest
        )));
    }
}

/// Repeat `s` for at least `window` (and at least [`MIN_REPS`] times)
/// after one untimed warm-up run. Every run must reproduce the warm-up's
/// golden-document digest. Also returns the peak resident set through
/// the warm-up: later repetitions only grow it by allocator arena reuse,
/// which depends on thread timing, not on the program.
pub fn measure(s: &Scenario, window: Duration, tally: &mut Tally) -> (Vec<Run>, f64, f64) {
    let reference = run_checked(s, tally).map(|r| r.outcome.digest);
    let peak_rss_mb = machine::peak_rss_mb();
    let mut runs = Vec::new();
    let t0 = Instant::now();
    let mut attempts = 0;
    while attempts < MIN_REPS || t0.elapsed() < window {
        attempts += 1;
        let Some(run) = run_checked(s, tally) else {
            continue;
        };
        check_digest(reference, &run, tally);
        runs.push(run);
    }
    (runs, t0.elapsed().as_secs_f64(), peak_rss_mb)
}

/// The untraced end-to-end run of a simulation workload.
pub fn end_to_end(s: &Scenario, window: Duration) -> Report {
    let mut tally = Tally::default();
    let (runs, elapsed, peak_rss_mb) = measure(s, window, &mut tally);
    let n = runs.len();
    let col = |f: fn(&Run) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let wall = col(|r| r.wall);
    let metrics: Vec<Metric> = if n == 0 {
        Vec::new()
    } else {
        vec![
            metric("setup_s", "s", median(&col(Run::setup_s)), n),
            metric("run_s", "s", median(&wall), n),
            metric("step_s", "s", median(&col(Run::step_s)), n),
            metric(
                "parallel_efficiency",
                "ratio",
                median(&col(Run::parallel_efficiency)),
                n,
            ),
            metric("peak_rss_mb", "MiB", peak_rss_mb, 1),
            metric("job_latency_p50_s", "s", median(&wall), n),
            metric("job_latency_p90_s", "s", quantile(&wall, 0.9), n),
            metric("jobs_per_s", "1/s", n as f64 / elapsed, n),
        ]
    };
    Report { tally, metrics }
}
