//! # perfbench — the repository's end-to-end benchmark
//!
//! One command runs one named workload through the public entry points
//! (`cfpd_core::run_scenario`, `cfpd_serve::Daemon` + `http_call`,
//! `cfpd_campaign`), checks that every output is correct, and prints its
//! metrics. An untraced run (`--trace 0`) reports the end-to-end metrics;
//! a traced run (`--trace 1`) reports per-layer metrics, measured from
//! outside by timing calls into each layer's public functions on the
//! workload's own generated inputs, plus the program's own telemetry
//! counters. See `perfbench/README.md` for every metric's definition.

pub mod layers;
pub mod machine;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SyncAirway,
    CoupledParticles,
    ServeJobs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SyncAirway,
        Workload::CoupledParticles,
        Workload::ServeJobs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncAirway => "sync_airway",
            Workload::CoupledParticles => "coupled_particles",
            Workload::ServeJobs => "serve_jobs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Derive the `k`-th independent 64-bit value from the workload seed, so
/// the same `--seed` always generates the same inputs.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut g = cfpd_testkit::SplitMix64::new(seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F));
    g.next_u64()
}
