//! The traced run: per-layer metrics.
//!
//! Times are spans the benchmark puts around calls into each layer's
//! public functions, replayed on the workload's own generated inputs;
//! counts come from the program's telemetry counters, enabled only here
//! and reset before use. Nothing here feeds the end-to-end metrics.
//!
//! The replay follows one rank of the measured run: the rank's share of
//! the elements for assembly and SGS, the global system for the
//! replicated solves, the whole particle set for transport (injection
//! lands in one subdomain, so one rank carries it), and the per-step
//! allreduce volume of a replicated-solve step. State is advanced by a
//! serial whole-mesh `FluidSolver::step`, which is also timed.

use crate::report::{metric, Metric, Report, Tally};
use crate::serve::{self, Load};
use crate::sim::{self, Run};
use crate::stats::median;
use crate::Workload;
use cfpd_core::{
    BoundaryConditions, ExecutionMode, FluidSolver, LogicalEvent, Scenario, SimulationConfig,
};
use cfpd_mesh::{generate_airway, AirwayMesh, Mesh, Vec3};
use cfpd_particles::{inject_at_inlet, step_particles, Locator, ParticleSet};
use cfpd_partition::{partition_kway, rcm_perm, Graph};
use cfpd_runtime::{parallel_for, ThreadPool};
use cfpd_simmpi::{ReduceOp, Universe};
use cfpd_solver::{
    assemble_momentum, assemble_poisson, bicgstab, cg, compute_sgs, AssemblyPlan, CsrMatrix,
    ElementScratch, RefElement, SgsField,
};
use cfpd_telemetry::TelemetrySnapshot;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest telemetry-off/on run pairs for the counters and the tracing
/// overhead ratio.
const MIN_PAIRS: usize = 3;
/// Repetitions of each set-up span (mesh, RCM, k-way, solver set-up).
const SETUP_REPS: usize = 3;
/// Timed empty regions for the region overhead.
const REGION_REPS: usize = 2_000;
/// Timed allreduce rounds.
const ALLREDUCE_REPS: usize = 20;
const GRAVITY: Vec3 = Vec3 {
    x: 0.0,
    y: 0.0,
    z: -9.81,
};

/// Run `f` once and return its result with its wall time in seconds.
fn span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall time of `reps` calls of `f`, keeping the last result.
fn span_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (out, t) = span(&mut f);
        times.push(t);
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&times))
}

fn counter(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

pub fn traced(w: Workload, seed: u64, window: Duration, work: &Path) -> Report {
    match w {
        Workload::SyncAirway => sim_traced(&sim::sync_airway(seed), window),
        Workload::CoupledParticles => sim_traced(&sim::coupled_particles(seed), window),
        Workload::ServeJobs => serve_traced(seed, window, work),
    }
}

/// Untraced and counter-recording runs of one scenario, alternated so
/// drift on the machine hits both sides alike.
struct Paired {
    off: Vec<Run>,
    on: Vec<Run>,
    snap: TelemetrySnapshot,
}

fn paired_runs(s: &Scenario, window: Duration, tally: &mut Tally) -> Paired {
    cfpd_telemetry::set_enabled(false);
    let reference = sim::run_checked(s, tally).map(|r| r.outcome.digest);
    cfpd_telemetry::registry::reset();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while off.len().min(on.len()) < MIN_PAIRS || t0.elapsed() < window {
        for (enabled, runs) in [(false, &mut off), (true, &mut on)] {
            cfpd_telemetry::set_enabled(enabled);
            let run = sim::run_checked(s, tally);
            cfpd_telemetry::set_enabled(false);
            if let Some(run) = run {
                sim::check_digest(reference, &run, tally);
                runs.push(run);
            }
        }
        if off.is_empty() && on.is_empty() && t0.elapsed() >= window {
            break;
        }
    }
    Paired {
        off,
        on,
        snap: cfpd_telemetry::snapshot(),
    }
}

/// Per-layer numbers of the replayed rank.
struct Replay {
    metrics: Vec<Metric>,
    /// Per-step busy time of the fluid chain and of the particle chain.
    fluid_busy_s: f64,
    particle_busy_s: f64,
}

/// Which ranks hold the fluid solve.
fn fluid_ranks(s: &Scenario) -> usize {
    match s.config.mode {
        ExecutionMode::Synchronous => s.ranks,
        ExecutionMode::Coupled { fluid, .. } => fluid,
    }
}

fn fluid_solver<'m>(
    cfg: &SimulationConfig,
    airway: &'m AirwayMesh,
    elems: Vec<u32>,
) -> FluidSolver<'m> {
    FluidSolver::new_with_layout(
        &airway.mesh,
        elems,
        cfg.strategy,
        cfg.subdomains_per_rank,
        cfg.fluid,
        cfg.dt,
        airway.inlet_direction * cfg.inflow_speed,
        cfg.solver_tol,
        cfg.solver_max_iters,
        cfg.layout,
    )
}

/// The momentum and Poisson systems of one step, assembled over `plan`.
struct Systems {
    mu: CsrMatrix,
    mp: CsrMatrix,
    rhs_u: Vec<Vec<f64>>,
    rhs_p: Vec<Vec<f64>>,
}

impl Systems {
    fn new(pattern: &CsrMatrix) -> Systems {
        let n = pattern.n;
        Systems {
            mu: pattern.clone(),
            mp: pattern.clone(),
            rhs_u: vec![vec![0.0; n]; 3],
            rhs_p: vec![vec![0.0; n]],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &mut self,
        pool: &ThreadPool,
        refs: &[RefElement; 3],
        mesh: &Mesh,
        plan: &AssemblyPlan,
        cfg: &SimulationConfig,
        velocity: &[Vec3],
        zero_pressure: &[f64],
    ) {
        self.mu.clear();
        self.mp.clear();
        self.rhs_u
            .iter_mut()
            .chain(self.rhs_p.iter_mut())
            .for_each(|r| r.fill(0.0));
        let (props, dt) = (cfg.fluid, cfg.dt);
        assemble_momentum(
            pool,
            refs,
            mesh,
            plan,
            velocity,
            zero_pressure,
            props,
            dt,
            GRAVITY,
            &mut self.mu,
            &mut self.rhs_u,
        );
        assemble_poisson(
            pool,
            refs,
            mesh,
            plan,
            velocity,
            props,
            dt,
            &mut self.mp,
            &mut self.rhs_p,
        );
    }

    /// Dirichlet rows as the fluid step sets them: velocity on walls
    /// (zero) and inlet (inflow), pressure on outlets (zero).
    fn apply_bcs(&mut self, bc: &BoundaryConditions, inflow: Vec3) {
        for &v in bc.wall_nodes.iter().chain(&bc.inlet_nodes) {
            self.mu.set_dirichlet_row(v as usize);
        }
        for (c, comp) in [inflow.x, inflow.y, inflow.z].into_iter().enumerate() {
            bc.wall_nodes
                .iter()
                .for_each(|&v| self.rhs_u[c][v as usize] = 0.0);
            bc.inlet_nodes
                .iter()
                .for_each(|&v| self.rhs_u[c][v as usize] = comp);
        }
        for &v in &bc.outlet_nodes {
            self.mp.set_dirichlet_row(v as usize);
        }
    }
}

/// Poisson right-hand side from the intermediate velocity, as the fluid
/// step recomputes it before the pressure solve.
fn poisson_rhs(
    refs: &[RefElement; 3],
    mesh: &Mesh,
    cfg: &SimulationConfig,
    ustar: &[Vec3],
    bc: &BoundaryConditions,
) -> Vec<f64> {
    let mut rhs = vec![0.0; mesh.num_nodes()];
    let mut scratch = ElementScratch::default();
    for e in 0..mesh.num_elements() {
        let (kind, nn) = scratch.load(mesh, ustar, e);
        if let Some(lp) =
            cfpd_solver::kernels::poisson_kernel(refs, &scratch, kind, nn, cfg.fluid, cfg.dt)
        {
            for (k, &v) in mesh.elem_nodes(e).iter().enumerate() {
                rhs[v as usize] += lp.b[k];
            }
        }
    }
    bc.outlet_nodes.iter().for_each(|&v| rhs[v as usize] = 0.0);
    rhs
}

/// Values one replicated-solve step allreduces, in call order: momentum
/// matrix, three momentum right-hand sides, Poisson matrix, Poisson
/// right-hand side (twice) and the flattened correction gradient.
fn allreduce_sizes(nnz: usize, n: usize) -> [usize; 8] {
    [nnz, n, n, n, nnz, n, n, 3 * n]
}

/// Median time of one step's allreduce volume on a `ranks`-rank
/// universe, as rank 0 sees it.
fn allreduce_step_s(ranks: usize, sizes: [usize; 8]) -> f64 {
    let times = Universe::run(ranks, move |comm| {
        let mut bufs: Vec<Vec<f64>> = sizes.iter().map(|&k| vec![1.0; k]).collect();
        let mut times = Vec::with_capacity(ALLREDUCE_REPS);
        for _ in 0..ALLREDUCE_REPS {
            comm.barrier();
            let t0 = Instant::now();
            for b in &mut bufs {
                comm.allreduce_slice_f64(b, ReduceOp::Sum);
            }
            times.push(t0.elapsed().as_secs_f64());
        }
        median(&times)
    });
    times[0]
}

/// Median time of one empty `parallel_for` region on a rank's pool.
fn region_overhead_s(threads: usize) -> f64 {
    let pool = ThreadPool::new(threads.max(1) * 2);
    pool.set_active(threads.max(1));
    let mut times = Vec::with_capacity(REGION_REPS);
    for _ in 0..REGION_REPS {
        let t0 = Instant::now();
        parallel_for(&pool, 0..pool.active(), 1, |r| {
            black_box(r);
        });
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

fn replay(s: &Scenario) -> Replay {
    let cfg = &s.config;
    let fluid = fluid_ranks(s);
    let mut m = Vec::new();

    // ---- mesh ---------------------------------------------------------
    let (airway, mesh_s) = span_median(SETUP_REPS, || {
        generate_airway(&cfg.airway).expect("valid airway spec")
    });
    let mesh = &airway.mesh;
    let n = mesh.num_nodes();
    m.push(metric("mesh.generate_s", "s", mesh_s, SETUP_REPS));
    m.push(metric(
        "mesh.elements",
        "count",
        mesh.num_elements() as f64,
        1,
    ));
    m.push(metric("mesh.nodes", "count", n as f64, 1));

    // ---- partition ----------------------------------------------------
    let adj = mesh.node_adjacency();
    let (_, rcm_s) = span_median(SETUP_REPS, || rcm_perm(&adj));
    let n2e = mesh.node_to_elements();
    let graph = Graph::from_csr(&mesh.element_adjacency(&n2e), mesh.cost_weights());
    let (part, kway_s) = span_median(SETUP_REPS, || partition_kway(&graph, fluid, 4));
    m.push(metric("partition.kway_s", "s", kway_s, SETUP_REPS));
    m.push(metric("partition.rcm_s", "s", rcm_s, SETUP_REPS));
    m.push(metric(
        "partition.edge_cut",
        "count",
        part.edge_cut(&graph) as f64,
        1,
    ));
    m.push(metric(
        "partition.imbalance",
        "ratio",
        1.0 / part.load_balance(&graph),
        1,
    ));
    let my_elems = part.part_members().swap_remove(0);
    let all_elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();

    // ---- core ---------------------------------------------------------
    let (_, setup_s) = span_median(SETUP_REPS, || {
        black_box(fluid_solver(cfg, &airway, my_elems.clone()))
            .plan()
            .num_colors()
    });
    let pool = ThreadPool::new(s.threads.max(1) * 2);
    pool.set_active(s.threads.max(1));
    let mut state = fluid_solver(cfg, &airway, all_elems.clone());

    // ---- per-step replay ---------------------------------------------
    let refs = RefElement::all();
    let pattern = CsrMatrix::from_mesh(mesh, &n2e);
    let nnz = pattern.nnz();
    let plan_mine = AssemblyPlan::new(mesh, my_elems, cfg.strategy, cfg.subdomains_per_rank);
    let plan_all = AssemblyPlan::new(mesh, all_elems, cfg.strategy, cfg.subdomains_per_rank);
    let mut mine = Systems::new(&pattern);
    let mut global = Systems::new(&pattern);
    let bc = state.bc.clone();
    let inflow = state.inflow;
    let mut sgs = SgsField::new(mesh);
    let locator = Locator::new(mesh);
    let mut particles = ParticleSet::default();
    inject_at_inlet(
        &mut particles,
        &locator,
        airway.inlet_center,
        airway.inlet_direction,
        airway.inlet_radius,
        cfg.inflow_speed,
        cfg.particle,
        cfg.num_particles,
        cfg.seed,
    );
    let zero_pressure = vec![0.0; n];

    let (mut assembly, mut momentum, mut pressure, mut sgs_t, mut part_t, mut step_t) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut advected = 0usize;
    for _ in 0..cfg.steps {
        let mut velocity = state.velocity.clone();
        bc.wall_nodes
            .iter()
            .for_each(|&v| velocity[v as usize] = Vec3::ZERO);
        bc.inlet_nodes
            .iter()
            .for_each(|&v| velocity[v as usize] = inflow);

        let (_, t) = span(|| {
            mine.assemble(
                &pool,
                &refs,
                mesh,
                &plan_mine,
                cfg,
                &velocity,
                &zero_pressure,
            )
        });
        assembly.push(t);
        // The global system the allreduce produces (not timed).
        global.assemble(
            &pool,
            &refs,
            mesh,
            &plan_all,
            cfg,
            &velocity,
            &zero_pressure,
        );
        global.apply_bcs(&bc, inflow);

        let mut ustar = vec![Vec3::ZERO; n];
        let mut t_mom = 0.0;
        for c in 0..3 {
            let mut x: Vec<f64> = velocity.iter().map(|v| [v.x, v.y, v.z][c]).collect();
            let (_, t) = span(|| {
                bicgstab(
                    &global.mu,
                    &global.rhs_u[c],
                    &mut x,
                    cfg.solver_tol,
                    cfg.solver_max_iters,
                )
            });
            t_mom += t;
            for (u, xi) in ustar.iter_mut().zip(&x) {
                match c {
                    0 => u.x = *xi,
                    1 => u.y = *xi,
                    _ => u.z = *xi,
                }
            }
        }
        momentum.push(t_mom);
        let rhs_p = poisson_rhs(&refs, mesh, cfg, &ustar, &bc);
        let mut phi = state.pressure.clone();
        let (_, t) = span(|| {
            cg(
                &global.mp,
                &rhs_p,
                &mut phi,
                cfg.solver_tol,
                cfg.solver_max_iters,
            )
        });
        pressure.push(t);

        let (_, t) = span(|| state.step(&pool));
        step_t.push(t);

        let (_, t) = span(|| {
            compute_sgs(
                &pool,
                &refs,
                mesh,
                &plan_mine,
                &state.velocity,
                cfg.fluid,
                &mut sgs,
                5,
                1e-6,
            )
        });
        sgs_t.push(t);

        let active = particles.census().active;
        let (_, t) = span(|| {
            step_particles(
                &mut particles,
                &locator,
                &state.velocity,
                cfg.fluid.density,
                cfg.fluid.viscosity,
                GRAVITY,
                cfg.dt,
            )
        });
        part_t.push(t);
        advected += active;
    }
    let steps = cfg.steps;
    let allreduce_s = allreduce_step_s(fluid, allreduce_sizes(nnz, n));
    let (assembly_s, momentum_s, pressure_s, sgs_s, particles_s) = (
        median(&assembly),
        median(&momentum),
        median(&pressure),
        median(&sgs_t),
        median(&part_t),
    );

    m.push(metric("core.solver_setup_s", "s", setup_s, SETUP_REPS));
    m.push(metric("core.fluid_step_s", "s", median(&step_t), steps));
    m.push(metric("solver.assembly_s", "s", assembly_s, steps));
    m.push(metric("solver.momentum_s", "s", momentum_s, steps));
    m.push(metric("solver.pressure_s", "s", pressure_s, steps));
    m.push(metric("solver.sgs_s", "s", sgs_s, steps));
    // One CSR SpMV: values (f64) and column indices (u32) per entry, row
    // pointers (u32), x read once and y written once per row.
    let spmv_bytes = 12 * nnz + 20 * n + 4;
    m.push(metric(
        "solver.spmv_bytes_per_iter",
        "bytes_computed",
        spmv_bytes as f64,
        1,
    ));
    m.push(metric("particles.step_s", "s", particles_s, steps));
    m.push(metric(
        "particles.advected_per_s",
        "1/s",
        advected as f64 / part_t.iter().sum::<f64>(),
        steps,
    ));
    m.push(metric(
        "simmpi.allreduce_s",
        "s",
        allreduce_s,
        ALLREDUCE_REPS,
    ));
    // The `mpi.bytes_sent` counter adds `size_of` of each message value
    // (a `Vec` header for a slice), so the reduced payload is computed.
    let reduced: usize = allreduce_sizes(nnz, n).iter().sum();
    m.push(metric(
        "simmpi.allreduce_bytes_per_step",
        "bytes_computed",
        (8 * reduced) as f64,
        1,
    ));
    m.push(metric(
        "runtime.region_overhead_s",
        "s",
        region_overhead_s(s.threads),
        REGION_REPS,
    ));

    Replay {
        metrics: m,
        fluid_busy_s: assembly_s + allreduce_s + momentum_s + pressure_s + sgs_s,
        particle_busy_s: particles_s,
    }
}

/// Metrics read from the measured runs themselves: solver iterations and
/// failures from the logical log, lost particles from the census, MPI
/// wait from the phase trace, and telemetry counters per step or run.
fn run_metrics(s: &Scenario, paired: &Paired) -> Vec<Metric> {
    let runs: Vec<&Run> = paired.off.iter().chain(&paired.on).collect();
    let on = paired.on.len().max(1) as f64;
    let steps = s.config.steps as f64;
    let snap = &paired.snap;
    let mut m = Vec::new();

    let first = &runs[0].outcome.result;
    let (mut mom, mut pre) = (Vec::new(), Vec::new());
    for e in &first.logical {
        if let LogicalEvent::Solve {
            system, iterations, ..
        } = e
        {
            if *system == 3 {
                pre.push(*iterations as f64)
            } else {
                mom.push(*iterations as f64)
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let unconverged = runs
        .iter()
        .flat_map(|r| &r.outcome.result.logical)
        .filter(|e| {
            matches!(
                e,
                LogicalEvent::Solve {
                    converged: false,
                    ..
                }
            )
        })
        .count();
    m.push(metric(
        "solver.momentum_iters",
        "count",
        mean(&mom),
        mom.len(),
    ));
    m.push(metric(
        "solver.pressure_iters",
        "count",
        mean(&pre),
        pre.len(),
    ));
    m.push(metric(
        "solver.unconverged",
        "count",
        unconverged as f64 / runs.len() as f64,
        runs.len(),
    ));
    m.push(metric(
        "particles.lost",
        "count",
        first.census.lost as f64,
        1,
    ));

    m.push(metric(
        "simmpi.msgs_per_step",
        "count",
        counter(snap, "mpi.msgs_sent") / (on * steps),
        paired.on.len(),
    ));
    m.push(metric(
        "simmpi.bytes_per_step",
        "bytes",
        counter(snap, "mpi.bytes_sent") / (on * steps),
        paired.on.len(),
    ));
    let wait: Vec<f64> = paired
        .off
        .iter()
        .map(|r| {
            let t = &r.outcome.result.trace;
            let per_rank = t.per_rank_time(cfpd_trace::Phase::MpiComm);
            per_rank.iter().sum::<f64>() / per_rank.len().max(1) as f64 / steps
        })
        .collect();
    m.push(metric("simmpi.wait_s", "s", median(&wait), wait.len()));
    m.push(metric(
        "runtime.regions_per_step",
        "count",
        counter(snap, "runtime.regions") / (on * steps),
        paired.on.len(),
    ));

    let lends = counter(snap, "dlb.lends") / on;
    let grants = counter(snap, "dlb.grants") / on;
    m.push(metric("dlb.lends", "count", lends, paired.on.len()));
    m.push(metric("dlb.grants", "count", grants, paired.on.len()));
    m.push(metric(
        "dlb.reclaims",
        "count",
        counter(snap, "dlb.reclaims") / on,
        paired.on.len(),
    ));
    m.push(metric(
        "dlb.cores_lent_total",
        "count",
        counter(snap, "dlb.cores_lent_total") / on,
        paired.on.len(),
    ));
    m.push(metric(
        "dlb.grant_ratio",
        "ratio",
        if lends > 0.0 { grants / lends } else { 0.0 },
        paired.on.len(),
    ));
    m
}

/// Per-layer metrics of the serving path that a simulation workload
/// never exercises, reported as zero so every traced run carries the
/// same metric set.
const SERVE_ONLY: [(&str, &str); 11] = [
    ("campaign.parse_s", "s"),
    ("campaign.expand_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.segments_per_job", "count"),
    ("serve.segment_s", "s"),
    ("serve.wal_append_s", "s"),
    ("serve.snapshot_write_s", "s"),
    ("serve.overhead_share", "ratio"),
    ("serve.queue_wait_s", "s"),
    ("serve.status_read_s", "s"),
    ("serve.metrics_scrape_s", "s"),
];

fn sim_traced(s: &Scenario, window: Duration) -> Report {
    let mut tally = Tally::default();
    let paired = paired_runs(s, window, &mut tally);
    if paired.off.is_empty() || paired.on.is_empty() {
        return Report {
            tally,
            metrics: Vec::new(),
        };
    }
    let mut metrics = run_metrics(s, &paired);
    let rep = replay(s);
    metrics.extend(rep.metrics);
    metrics.extend(
        SERVE_ONLY
            .iter()
            .map(|&(name, unit)| metric(name, unit, 0.0, 0)),
    );
    metrics.push(metric("serve.shed", "count", 0.0, 0));
    metrics.push(metric("serve.retries", "count", 0.0, 0));

    let step_s = median(&paired.off.iter().map(Run::step_s).collect::<Vec<_>>());
    let busy = match s.config.mode {
        // Every rank runs both chains back to back.
        ExecutionMode::Synchronous => rep.fluid_busy_s + rep.particle_busy_s,
        // Fluid and particle ranks overlap; the longer chain sets the pace.
        ExecutionMode::Coupled { .. } => rep.fluid_busy_s.max(rep.particle_busy_s),
    };
    metrics.push(metric("coverage", "ratio", busy / step_s, paired.off.len()));
    let run_s = |runs: &[Run]| median(&runs.iter().map(|r| r.wall).collect::<Vec<_>>());
    metrics.push(metric(
        "trace.overhead_ratio",
        "ratio",
        run_s(&paired.on) / run_s(&paired.off),
        paired.on.len(),
    ));
    Report {
        tally,
        metrics: sorted(metrics),
    }
}

/// Replay the serving path of one job on its own spec: parse, expand,
/// the segment chain the supervisor runs at `ckpt_interval`, one
/// snapshot write per segment boundary and the WAL appends of a job.
fn serve_replay(spec_text: &str, dir: &Path, tally: &mut Tally) -> Vec<Metric> {
    use cfpd_campaign::{expand, CampaignSpec};
    use cfpd_serve::runner::run_segment;
    use cfpd_serve::{CellAcc, CellSnapshot, PersistGate, Wal, WalRecord};
    use std::sync::Arc;

    let mut m = Vec::new();
    let (spec, parse_s) = span_median(SETUP_REPS, || CampaignSpec::from_text(spec_text));
    let spec = match spec {
        Ok(s) => s,
        Err(e) => {
            tally.check(Err(format!("job spec: {e}")));
            return m;
        }
    };
    let (cells, expand_s) = span_median(SETUP_REPS, || expand(&spec));
    let Some(cell) = cells.ok().and_then(|c| c.into_iter().next()) else {
        tally.check(Err("job spec expands to no cell".to_string()));
        return m;
    };
    m.push(metric("campaign.parse_s", "s", parse_s, SETUP_REPS));
    m.push(metric("campaign.expand_s", "s", expand_s, SETUP_REPS));

    let _ = std::fs::create_dir_all(dir);
    let gate = PersistGate::unlimited();
    let interval = serve::config(dir).ckpt_interval.max(1);
    let mut restore = None;
    let mut acc = CellAcc::default();
    let mut events_text = String::new();
    let (mut seg_t, mut snap_t) = (Vec::new(), Vec::new());
    let mut next_step = 0;
    loop {
        let stop = next_step + interval;
        let (seg, t) = span(|| run_segment(&cell.scenario, restore.take(), Some(stop)));
        seg_t.push(t);
        acc.absorb(&seg.logical);
        events_text.push_str(&seg.events_text);
        if seg.done {
            break;
        }
        let Some(cp) = seg.checkpoint else {
            tally.check(Err("segment stopped without a checkpoint".to_string()));
            break;
        };
        next_step = cp.next_step;
        let snap = CellSnapshot {
            job: 1,
            cell: 0,
            attempt: 0,
            next_step,
            acc: acc.clone(),
            events_text: events_text.clone(),
            checkpoint_text: cp.to_text(),
        };
        let (ok, t) = span(|| snap.write(&dir.join("replay.snap"), &gate));
        if !ok {
            tally.check(Err("snapshot write failed".to_string()));
        }
        snap_t.push(t);
        restore = Some(Arc::new(cp));
    }
    m.push(metric(
        "serve.segments_per_job",
        "count",
        seg_t.len() as f64,
        1,
    ));
    m.push(metric("serve.segment_s", "s", median(&seg_t), seg_t.len()));
    m.push(metric(
        "serve.snapshot_write_s",
        "s",
        if snap_t.is_empty() {
            0.0
        } else {
            median(&snap_t)
        },
        snap_t.len(),
    ));

    let wal = match Wal::open(&dir.join("replay.wal"), "", 1, Arc::clone(&gate)) {
        Ok(w) => w,
        Err(e) => {
            tally.check(Err(format!("scratch WAL: {e}")));
            return m;
        }
    };
    let mut records = vec![
        WalRecord::Submit {
            job: 1,
            name: spec.name.clone(),
            spec_digest: 0,
        },
        WalRecord::Start {
            job: 1,
            cell: 0,
            attempt: 0,
        },
    ];
    records.extend((1..seg_t.len()).map(|k| WalRecord::Ckpt {
        job: 1,
        cell: 0,
        step: k * interval,
        snap_digest: 0,
    }));
    records.push(WalRecord::Done { job: 1 });
    let mut wal_t = Vec::new();
    for r in &records {
        let (ok, t) = span(|| wal.append(r));
        if !ok {
            tally.check(Err("WAL append failed".to_string()));
        }
        wal_t.push(t);
    }
    m.push(metric(
        "serve.wal_append_s",
        "s",
        median(&wal_t),
        wal_t.len(),
    ));
    m
}

fn serve_traced(seed: u64, window: Duration, work: &Path) -> Report {
    let mut tally = Tally::default();
    let spec0 = serve::job_spec(seed, 0);
    let scenario = match serve::job_scenario(&spec0) {
        Ok(s) => s,
        Err(e) => {
            tally.check(Err(e));
            return Report {
                tally,
                metrics: Vec::new(),
            };
        }
    };
    // Simulation layers of one job, as for the simulation workloads.
    let paired = paired_runs(&scenario, window / 4, &mut tally);
    if paired.off.is_empty() || paired.on.is_empty() {
        return Report {
            tally,
            metrics: Vec::new(),
        };
    }
    let mut metrics = run_metrics(&scenario, &paired);
    metrics.extend(replay(&scenario).metrics);
    metrics.extend(serve_replay(&spec0, &work.join("replay"), &mut tally));

    // Two loads on fresh daemons: plain, then with queue-wait polling;
    // the daemon records its counters either way, so reset in between.
    let half = window.mul_f64(3.0 / 8.0);
    let plain = serve::load(seed, half, &work.join("plain"), false);
    cfpd_telemetry::registry::reset();
    let polled = serve::load(seed, half, &work.join("polled"), true);
    let snap = cfpd_telemetry::snapshot();
    let (plain, polled) = match (plain, polled) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                tally.check(Err(e));
            }
            return Report {
                tally,
                metrics: Vec::new(),
            };
        }
    };
    cfpd_telemetry::set_enabled(false);
    cfpd_flight::set_enabled(false);
    serve::verify(&plain, &mut tally);
    serve::verify(&polled, &mut tally);
    let served = polled.served();
    let p50 = |l: &Load| median(&l.latencies());
    let direct_run_s = median(&paired.off.iter().map(|r| r.wall).collect::<Vec<_>>());
    let queue: Vec<f64> = polled.jobs().filter_map(|j| j.queue_wait).collect();
    let med_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    metrics.push(metric(
        "serve.submit_s",
        "s",
        median(&polled.collect(|c| &c.submit_s)),
        served,
    ));
    metrics.push(metric(
        "serve.queue_wait_s",
        "s",
        med_or_zero(&queue),
        queue.len(),
    ));
    let status = polled.collect(|c| &c.status_read_s);
    let scrape = polled.collect(|c| &c.metrics_scrape_s);
    metrics.push(metric(
        "serve.status_read_s",
        "s",
        med_or_zero(&status),
        status.len(),
    ));
    metrics.push(metric(
        "serve.metrics_scrape_s",
        "s",
        med_or_zero(&scrape),
        scrape.len(),
    ));
    metrics.push(metric(
        "serve.overhead_share",
        "ratio",
        1.0 - direct_run_s / p50(&polled),
        served,
    ));
    metrics.push(metric(
        "serve.shed",
        "count",
        counter(&snap, "serve.jobs_shed"),
        served,
    ));
    metrics.push(metric(
        "serve.retries",
        "count",
        counter(&snap, "serve.retries"),
        served,
    ));

    // Busy time per job along its blocking path.
    let find = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let per_job = |name: &str| counter(&snap, name) / served.max(1) as f64;
    let busy = find("serve.submit_s")
        + find("serve.queue_wait_s")
        + find("serve.segments_per_job") * find("serve.segment_s")
        + per_job("serve.checkpoints") * find("serve.snapshot_write_s")
        + per_job("serve.wal_appends") * find("serve.wal_append_s");
    metrics.push(metric("coverage", "ratio", busy / p50(&polled), served));
    metrics.push(metric(
        "trace.overhead_ratio",
        "ratio",
        p50(&polled) / p50(&plain),
        served,
    ));
    for c in plain.clients.into_iter().chain(polled.clients) {
        tally.merge(c.tally);
    }
    Report {
        tally,
        metrics: sorted(metrics),
    }
}

fn sorted(mut metrics: Vec<Metric>) -> Vec<Metric> {
    metrics.sort_by(|a, b| a.name.cmp(b.name));
    metrics
}
