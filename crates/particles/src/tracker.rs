//! Lagrangian particle transport: Newmark time integration of Newton's
//! second law (eq. 3) under drag/gravity/buoyancy, with element-walk
//! relocation, wall deposition and outlet escape.
//!
//! Particles are injected through the nasal/mouth inlet — which places
//! all of them in one or few MPI subdomains at injection time and causes
//! the extreme particle-phase load imbalance (L₉₆ = 0.02) reported in
//! Table 1 of the paper.

use crate::forces::ParticleProps;
use crate::locator::{Locator, WalkResult};
use cfpd_mesh::{BoundaryKind, Vec3};
use cfpd_testkit::rng::Rng;

/// Life-cycle state of a particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticleState {
    /// Being transported; `elem` is valid.
    Active,
    /// Stuck to an airway wall (therapeutically: lost dose... unless the
    /// wall was the target site).
    Deposited,
    /// Left through a distal outlet (reached the deeper lung).
    Escaped,
    /// Walk failed and global relocation found no element.
    Lost,
}

/// Structure-of-arrays particle storage (cache-friendly for the per-step
/// sweep, as a production tracking code uses).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ParticleSet {
    pub pos: Vec<Vec3>,
    pub vel: Vec<Vec3>,
    pub acc: Vec<Vec3>,
    pub elem: Vec<u32>,
    pub state: Vec<ParticleState>,
    pub props: Vec<ParticleProps>,
}

/// Aggregate counts per state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParticleCensus {
    pub active: usize,
    pub deposited: usize,
    pub escaped: usize,
    pub lost: usize,
}

impl ParticleSet {
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    pub fn census(&self) -> ParticleCensus {
        let mut c = ParticleCensus::default();
        for s in &self.state {
            match s {
                ParticleState::Active => c.active += 1,
                ParticleState::Deposited => c.deposited += 1,
                ParticleState::Escaped => c.escaped += 1,
                ParticleState::Lost => c.lost += 1,
            }
        }
        c
    }

    fn push(&mut self, pos: Vec3, vel: Vec3, elem: u32, props: ParticleProps) {
        self.pos.push(pos);
        self.vel.push(vel);
        self.acc.push(Vec3::ZERO);
        self.elem.push(elem);
        self.state.push(ParticleState::Active);
        self.props.push(props);
    }
}

/// Inject `count` particles uniformly over the inlet disc (radius
/// `inlet_radius` around `inlet_center`, moving at `initial_speed` along
/// `direction`). Deterministic for a given `seed`.
#[allow(clippy::too_many_arguments)]
pub fn inject_at_inlet(
    set: &mut ParticleSet,
    locator: &Locator,
    inlet_center: Vec3,
    inlet_direction: Vec3,
    inlet_radius: f64,
    initial_speed: f64,
    props: ParticleProps,
    count: usize,
    seed: u64,
) -> usize {
    let dir = inlet_direction.normalized();
    let mut injected = 0usize;
    for p in inlet_points(inlet_center, dir, inlet_radius, count, seed) {
        if let Some(e) = locator.locate_global(p) {
            set.push(p, dir * initial_speed, e, props);
            injected += 1;
        }
    }
    injected
}

/// The `count` candidate injection points of [`inject_at_inlet`]:
/// uniform over the inlet disc around `inlet_center`, normal to the unit
/// direction `dir`.
fn inlet_points(
    inlet_center: Vec3,
    dir: Vec3,
    inlet_radius: f64,
    count: usize,
    seed: u64,
) -> impl Iterator<Item = Vec3> {
    let mut rng = Rng::new(seed);
    let u = dir.any_orthogonal();
    let v = dir.cross(u);
    // Offset slightly inside the mesh so injection points land in
    // elements rather than exactly on the inlet plane.
    let base = inlet_center + dir * (inlet_radius * 0.1);
    (0..count).map(move |_| {
        // Uniform over the disc (sqrt radial distribution), shrunk to
        // 90 % of the radius to avoid the wall edge.
        let r = inlet_radius * 0.9 * rng.f64().sqrt();
        let a = rng.f64() * std::f64::consts::TAU;
        base + u * (r * a.cos()) + v * (r * a.sin())
    })
}

/// Per-step statistics of the transport sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepStats {
    pub moved: usize,
    pub deposited: usize,
    pub escaped: usize,
    pub lost: usize,
    /// Total element-walk face crossings (a work measure).
    pub walk_steps_estimate: usize,
}

/// Newmark parameters (γ = 1/2, β = 1/4: the unconditionally stable
/// average-acceleration variant; the paper uses Newmark with dt = 1e-4 s).
const NEWMARK_GAMMA: f64 = 0.5;
const NEWMARK_BETA: f64 = 0.25;
/// Fixed-point iterations for the implicit acceleration (drag depends on
/// the end-of-step velocity).
const NEWMARK_PICARD: usize = 3;

/// Advance all active particles of `set` by `dt`.
///
/// `fluid_velocity` is the nodal fluid velocity field; `fluid_density`
/// and `fluid_viscosity` the fluid properties; `gravity` the gravity
/// acceleration vector.
pub fn step_particles(
    set: &mut ParticleSet,
    locator: &Locator,
    fluid_velocity: &[Vec3],
    fluid_density: f64,
    fluid_viscosity: f64,
    gravity: Vec3,
    dt: f64,
) -> StepStats {
    let mut rng = crate::physics::DispersionRng::new(0);
    step_particles_with(
        set,
        locator,
        fluid_velocity,
        fluid_density,
        fluid_viscosity,
        gravity,
        dt,
        &crate::physics::TransportModel::paper_baseline(),
        &mut rng,
    )
}

/// Like [`step_particles`] but with the extended force model
/// ([`crate::physics::TransportModel`]): optional Saffman lift,
/// Brownian motion and turbulent dispersion.
#[allow(clippy::too_many_arguments)]
pub fn step_particles_with(
    set: &mut ParticleSet,
    locator: &Locator,
    fluid_velocity: &[Vec3],
    fluid_density: f64,
    fluid_viscosity: f64,
    gravity: Vec3,
    dt: f64,
    model: &crate::physics::TransportModel,
    rng: &mut crate::physics::DispersionRng,
) -> StepStats {
    let mut stats = StepStats::default();
    for i in 0..set.len() {
        if set.state[i] != ParticleState::Active {
            continue;
        }
        let props = set.props[i];
        let mass = props.mass();
        let e = set.elem[i] as usize;
        let mut uf = locator.interpolate(e, set.pos[i], fluid_velocity);
        if let Some(intensity) = model.turbulence_intensity {
            uf += crate::physics::turbulent_fluctuation(uf, intensity, rng.gaussian3());
        }

        // Newmark-β with a *semi-implicit* drag solve: the drag force is
        // linear in the end-of-step velocity given the drag coefficient
        // k = (π/8) µ d C_D Re, so v₁ solves
        //   v₁ (1 + dtγk/m) = v₀ + dt(1−γ)a₀ + (dtγ/m)(k u_f + F_body).
        // Only k (a weak function of |u_f − v₁|) is Picard-iterated;
        // this stays stable for dt far beyond the particle relaxation
        // time τ = ρ_p d²/(18µ), where a naive explicit update diverges.
        let (x0, v0, a0) = (set.pos[i], set.vel[i], set.acc[i]);
        let mut f_body = crate::forces::gravity_force(props, gravity)
            + crate::forces::buoyancy_force(props, fluid_density, gravity);
        if model.saffman_lift {
            let omega = locator.vorticity(e, fluid_velocity);
            f_body +=
                crate::physics::saffman_lift(fluid_density, fluid_viscosity, props, uf - v0, omega);
        }
        if let Some(temperature) = model.brownian_temperature {
            f_body += crate::physics::brownian_force(
                fluid_density,
                fluid_viscosity,
                props,
                temperature,
                dt,
                rng.gaussian3(),
            );
        }
        let mut v1 = v0;
        let mut k = 0.0;
        for _ in 0..NEWMARK_PICARD {
            let rel_speed = (uf - v1).norm();
            let re = crate::forces::particle_reynolds(
                fluid_density,
                fluid_viscosity,
                props.diameter,
                rel_speed,
            );
            k = std::f64::consts::PI / 8.0
                * fluid_viscosity
                * props.diameter
                * crate::forces::ganser_cd(re)
                * re;
            let c = dt * NEWMARK_GAMMA / mass;
            v1 = (v0 + a0 * (dt * (1.0 - NEWMARK_GAMMA)) + (uf * k + f_body) * c)
                / (1.0 + c * k);
        }
        let a1 = ((uf - v1) * k + f_body) / mass;
        let x1 = x0 + v0 * dt + (a0 * (0.5 - NEWMARK_BETA) + a1 * NEWMARK_BETA) * (dt * dt);
        set.pos[i] = x1;
        set.vel[i] = v1;
        set.acc[i] = a1;
        stats.moved += 1;

        // Relocate.
        match locator.walk(set.elem[i], x1, 256) {
            WalkResult::Inside(ne) => {
                stats.walk_steps_estimate += 1;
                set.elem[i] = ne;
            }
            WalkResult::ExitedBoundary(last, kind) => {
                set.elem[i] = last;
                match kind {
                    BoundaryKind::Wall => {
                        // The walk crossed an exterior face tagged Wall —
                        // but the junction fills of the airway mesh are
                        // star-shaped cones that overlap geometrically
                        // while sharing only the hub node topologically
                        // (DESIGN.md §7), so "through a wall face" can
                        // still be *inside* the overlapping neighbor
                        // region. Only a position no element contains is
                        // a true wall hit.
                        let relocated = locator.locate_global(x1).or_else(|| {
                            // Hop across the thin junction void along the
                            // direction of motion (true wall hits keep
                            // heading outside the mesh and still fail).
                            let speed = v1.norm();
                            if speed > 1e-12 {
                                let h = locator.elem_size(last as usize);
                                locator.locate_forward(x1, v1 / speed, h)
                            } else {
                                None
                            }
                        });
                        match relocated {
                            Some(ne) => set.elem[i] = ne,
                            None => {
                                set.state[i] = ParticleState::Deposited;
                                stats.deposited += 1;
                            }
                        }
                    }
                    BoundaryKind::Outlet | BoundaryKind::Inlet => {
                        set.state[i] = ParticleState::Escaped;
                        stats.escaped += 1;
                    }
                }
            }
            WalkResult::Lost => match locator.locate_global(x1) {
                Some(ne) => set.elem[i] = ne,
                None => {
                    set.state[i] = ParticleState::Lost;
                    stats.lost += 1;
                }
            },
        }
    }
    cfpd_telemetry::count!("particles.steps");
    cfpd_telemetry::count!("particles.advected", stats.moved as u64);
    cfpd_telemetry::count!("particles.deposited", stats.deposited as u64);
    cfpd_telemetry::count!("particles.escaped", stats.escaped as u64);
    stats
}

/// Count active particles per element owner — the per-rank particle load
/// profile that drives the particle-phase imbalance (`elem_owner[e]` is
/// the rank owning element `e`).
pub fn particles_per_owner(set: &ParticleSet, elem_owner: &[u32], num_owners: usize) -> Vec<usize> {
    let mut counts = vec![0usize; num_owners];
    for i in 0..set.len() {
        if set.state[i] == ParticleState::Active {
            counts[elem_owner[set.elem[i] as usize] as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    const AIR_RHO: f64 = 1.14;
    const AIR_MU: f64 = 1.9e-5;

    fn setup() -> (cfpd_mesh::AirwayMesh, ParticleSet) {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        (am, ParticleSet::default())
    }

    #[test]
    fn injection_places_particles_in_elements() {
        let (am, mut set) = setup();
        let loc = Locator::new(&am.mesh);
        let n = inject_at_inlet(
            &mut set,
            &loc,
            am.inlet_center,
            am.inlet_direction,
            am.inlet_radius,
            1.0,
            ParticleProps::default(),
            200,
            42,
        );
        assert!(n >= 190, "only {n}/200 injected");
        assert_eq!(set.census().active, n);
        // All in valid elements near the inlet.
        for i in 0..set.len() {
            assert!((set.elem[i] as usize) < am.mesh.num_elements());
            assert!(set.pos[i].z > -0.02, "injected too deep: {:?}", set.pos[i]);
        }
    }

    /// Injection through the cached locator index places every particle
    /// in the element the recompute-per-query search finds.
    #[test]
    fn injection_matches_recompute_oracle() {
        let (am, mut set) = setup();
        let loc = Locator::new(&am.mesh);
        let oracle = crate::locator::oracle::Recompute { loc: &loc };
        let (count, seed) = (20_000, 11);
        inject_at_inlet(
            &mut set,
            &loc,
            am.inlet_center,
            am.inlet_direction,
            am.inlet_radius,
            1.0,
            ParticleProps::default(),
            count,
            seed,
        );
        let dir = am.inlet_direction.normalized();
        let expected: Vec<(Vec3, u32)> =
            inlet_points(am.inlet_center, dir, am.inlet_radius, count, seed)
                .filter_map(|p| oracle.locate_global(p).map(|e| (p, e)))
                .collect();
        let got: Vec<(Vec3, u32)> = set.pos.iter().copied().zip(set.elem.iter().copied()).collect();
        assert_eq!(got.len(), expected.len());
        assert!(got == expected, "injected elements differ from the oracle");
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let (am, _) = setup();
        let loc = Locator::new(&am.mesh);
        let mut a = ParticleSet::default();
        let mut b = ParticleSet::default();
        let props = ParticleProps::default();
        inject_at_inlet(&mut a, &loc, am.inlet_center, am.inlet_direction, am.inlet_radius, 1.0, props, 50, 7);
        inject_at_inlet(&mut b, &loc, am.inlet_center, am.inlet_direction, am.inlet_radius, 1.0, props, 50, 7);
        assert_eq!(a.pos.len(), b.pos.len());
        for (p, q) in a.pos.iter().zip(&b.pos) {
            assert_eq!(p, q);
        }
    }

    #[test]
    fn injection_concentrates_in_few_elements() {
        // The cause of the paper's particle imbalance: at injection all
        // particles sit in a tiny fraction of the mesh.
        let (am, mut set) = setup();
        let loc = Locator::new(&am.mesh);
        inject_at_inlet(
            &mut set,
            &loc,
            am.inlet_center,
            am.inlet_direction,
            am.inlet_radius,
            1.0,
            ParticleProps::default(),
            300,
            1,
        );
        let distinct: std::collections::HashSet<u32> = set.elem.iter().copied().collect();
        assert!(
            distinct.len() * 20 < am.mesh.num_elements(),
            "{} elements host all particles (of {})",
            distinct.len(),
            am.mesh.num_elements()
        );
    }

    #[test]
    fn particles_follow_downward_flow() {
        let (am, mut set) = setup();
        let loc = Locator::new(&am.mesh);
        inject_at_inlet(
            &mut set,
            &loc,
            am.inlet_center,
            am.inlet_direction,
            am.inlet_radius,
            0.5,
            ParticleProps::default(),
            100,
            3,
        );
        // Uniform downward flow (rapid inhalation along -z).
        let flow = vec![Vec3::new(0.0, 0.0, -2.0); am.mesh.num_nodes()];
        let g = Vec3::new(0.0, 0.0, -9.81);
        let z_before: f64 = set.pos.iter().map(|p| p.z).sum::<f64>() / set.len() as f64;
        for _ in 0..100 {
            step_particles(&mut set, &loc, &flow, AIR_RHO, AIR_MU, g, 1e-4);
        }
        let z_after: f64 = set.pos.iter().map(|p| p.z).sum::<f64>() / set.len() as f64;
        assert!(z_after < z_before, "particles must move down: {z_before} -> {z_after}");
        let c = set.census();
        assert_eq!(c.active + c.deposited + c.escaped + c.lost, set.len());
        assert_eq!(c.lost, 0, "no particle should be lost in a clean tube");
    }

    #[test]
    fn crossflow_deposits_particles_on_walls() {
        let (am, mut set) = setup();
        let loc = Locator::new(&am.mesh);
        inject_at_inlet(
            &mut set,
            &loc,
            am.inlet_center,
            am.inlet_direction,
            am.inlet_radius,
            0.1,
            // Large, heavy particles in a strong sideways flow deposit fast.
            ParticleProps { diameter: 50e-6, density: 2000.0 },
            100,
            9,
        );
        let flow = vec![Vec3::new(3.0, 0.0, -0.2); am.mesh.num_nodes()];
        let g = Vec3::new(0.0, 0.0, -9.81);
        for _ in 0..200 {
            step_particles(&mut set, &loc, &flow, AIR_RHO, AIR_MU, g, 1e-3);
        }
        let c = set.census();
        assert!(c.deposited > 50, "crossflow should deposit most particles: {c:?}");
    }

    #[test]
    fn particles_per_owner_counts() {
        let (am, mut set) = setup();
        let loc = Locator::new(&am.mesh);
        inject_at_inlet(
            &mut set,
            &loc,
            am.inlet_center,
            am.inlet_direction,
            am.inlet_radius,
            1.0,
            ParticleProps::default(),
            100,
            5,
        );
        // Two owners: split elements in half.
        let half = am.mesh.num_elements() / 2;
        let owner: Vec<u32> = (0..am.mesh.num_elements())
            .map(|e| if e < half { 0 } else { 1 })
            .collect();
        let counts = particles_per_owner(&set, &owner, 2);
        assert_eq!(counts.iter().sum::<usize>(), set.census().active);
    }

    #[test]
    fn still_fluid_settling_matches_terminal_velocity() {
        // One particle in still air inside the trachea settles at the
        // Stokes terminal velocity (integration + forces together).
        let (am, mut set) = setup();
        let loc = Locator::new(&am.mesh);
        let props = ParticleProps::default();
        let start = am.inlet_center + am.inlet_direction * 0.02;
        let e = loc.locate_global(start).expect("start inside trachea");
        set.push(start, Vec3::ZERO, e, props);
        let flow = vec![Vec3::ZERO; am.mesh.num_nodes()];
        let g = Vec3::new(0.0, 0.0, -9.81);
        for _ in 0..400 {
            step_particles(&mut set, &loc, &flow, AIR_RHO, AIR_MU, g, 1e-4);
            if set.state[0] != ParticleState::Active {
                break;
            }
        }
        let vt = crate::forces::stokes_terminal_velocity(props, AIR_RHO, AIR_MU, 9.81);
        assert!(
            (set.vel[0].z.abs() - vt).abs() / vt < 0.05,
            "settling velocity {} vs analytic {}",
            set.vel[0].z.abs(),
            vt
        );
    }
}
