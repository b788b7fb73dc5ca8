//! The subgrid-scale (SGS) phase driver: a per-element loop with **no
//! global scatter** — the paper uses it to measure the pure scheduling
//! overhead of coloring and multidependences when no race protection is
//! needed at all (§4.3, Fig. 7).

use crate::assembly::{AssemblyPlan, AssemblyStrategy};
use crate::kernels::{sgs_kernel, ElementScratch, FluidProps};
use crate::shape::RefElement;
use cfpd_mesh::{Mesh, Vec3};
use cfpd_runtime::{
    balanced_ranges, parallel_for, parallel_for_ranges, prefix_weights, Dep, TaskGraph, ThreadPool,
};
use std::cell::UnsafeCell;

/// Per-element, per-quadrature-point subgrid velocity storage.
#[derive(Debug)]
pub struct SgsField {
    /// Flattened per-qp subgrid velocities.
    pub values: Vec<Vec3>,
    /// CSR offsets: element `e` owns `values[offsets[e]..offsets[e+1]]`.
    pub offsets: Vec<u32>,
    /// Characteristic element length (cbrt of volume), cached.
    pub h: Vec<f64>,
}

impl SgsField {
    pub fn new(mesh: &Mesh) -> SgsField {
        let ne = mesh.num_elements();
        let mut offsets = Vec::with_capacity(ne + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for e in 0..ne {
            total += mesh.kinds[e].num_quad_points() as u32;
            offsets.push(total);
        }
        let h = (0..ne).map(|e| mesh.volume(e).abs().cbrt()).collect();
        SgsField { values: vec![Vec3::ZERO; total as usize], offsets, h }
    }

    /// Subgrid velocities of element `e`.
    pub fn elem(&self, e: usize) -> &[Vec3] {
        &self.values[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Mean subgrid-velocity magnitude (diagnostic).
    pub fn mean_norm(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|v| v.norm()).sum::<f64>() / self.values.len() as f64
    }
}

/// Shared view over the SGS storage allowing each element's slice to be
/// written by the thread processing that element.
struct SgsView<'a> {
    values: &'a [UnsafeCell<Vec3>],
}
// SAFETY: every element's range is written by exactly one task/iteration
// (ranges are disjoint per element).
unsafe impl Sync for SgsView<'_> {}

impl<'a> SgsView<'a> {
    fn new(values: &'a mut [Vec3]) -> SgsView<'a> {
        let ptr = values.as_mut_ptr() as *const UnsafeCell<Vec3>;
        // SAFETY: identical layout; exclusivity per element range.
        SgsView { values: unsafe { std::slice::from_raw_parts(ptr, values.len()) } }
    }

    /// # Safety
    /// The caller must be the only accessor of `lo..hi` for the duration
    /// of the borrow.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [Vec3] {
        unsafe {
            std::slice::from_raw_parts_mut(self.values[lo].get(), hi - lo)
        }
    }
}

/// Result of one SGS sweep: per-element inner-iteration counts (a cost
/// profile — elements in sheared flow iterate more, one of the organic
/// imbalance sources) and the weighted total work.
#[derive(Debug, Default, Clone)]
pub struct SgsStats {
    pub elements: usize,
    pub total_iterations: u64,
    pub max_iterations: usize,
    /// Number of color classes swept (Coloring strategy only).
    pub colors: usize,
    /// Number of subdomain tasks run (Multidep only).
    pub tasks: usize,
}

/// Run one SGS update sweep over `plan.elems` with the plan's strategy.
/// All strategies are race-free here by construction (per-element
/// storage) — exactly why the paper uses this phase to isolate the
/// scheduling overhead of coloring/multidependences. Coloring and
/// Multidep sweep the color classes and subdomains the plan built once
/// for assembly, so a sweep pays only the scheduling, never the
/// decomposition.
#[allow(clippy::too_many_arguments)]
pub fn compute_sgs(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    props: FluidProps,
    field: &mut SgsField,
    max_iters: usize,
    tol: f64,
) -> SgsStats {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    let SgsField { values, offsets, h } = field;
    let (offsets, h) = (&*offsets, &*h);
    let view = SgsView::new(values);
    let total_iters = AtomicU64::new(0);
    let max_seen = AtomicUsize::new(0);
    let (mut colors, mut tasks) = (0, 0);

    let process = |scratch: &mut ElementScratch, e: usize| {
        let (kind, nn) = scratch.load(mesh, velocity, e);
        let lo = offsets[e] as usize;
        let hi = offsets[e + 1] as usize;
        // SAFETY: element ranges are disjoint; each element is processed
        // by exactly one executor per sweep.
        let slice = unsafe { view.range_mut(lo, hi) };
        let iters = sgs_kernel(refs, scratch, kind, nn, props, h[e], slice, max_iters, tol);
        total_iters.fetch_add(iters as u64, Ordering::Relaxed);
        max_seen.fetch_max(iters, Ordering::Relaxed);
    };

    match plan.strategy {
        AssemblyStrategy::Serial => {
            let mut scratch = ElementScratch::default();
            for &e in &plan.elems {
                process(&mut scratch, e as usize);
            }
        }
        AssemblyStrategy::Atomics => {
            // "Atomics" SGS is just a plain parallel loop — no shared
            // update exists, so no atomic is emitted (paper §4.3).
            // Chunked by quadrature-point count, not element count:
            // boundary-layer prisms carry more qps (and more inner
            // iterations) than core tets.
            let elems = &plan.elems;
            let prefix = prefix_weights(elems.len(), |k| {
                mesh.kinds[elems[k] as usize].num_quad_points() as u32
            });
            let ranges = balanced_ranges(&prefix, pool.max_workers().max(1) * 8);
            parallel_for_ranges(pool, &ranges, |_c, range| {
                let mut scratch = ElementScratch::default();
                for k in range {
                    process(&mut scratch, elems[k] as usize);
                }
            });
        }
        AssemblyStrategy::Coloring => {
            // Pointless for SGS but measured to expose its overhead.
            let classes = plan.color_classes().expect("coloring plan");
            for class in classes {
                parallel_for(pool, 0..class.len(), 32, |range| {
                    let mut scratch = ElementScratch::default();
                    for k in range {
                        process(&mut scratch, class[k] as usize);
                    }
                });
            }
            colors = classes.len();
        }
        AssemblyStrategy::Multidep => {
            let members = plan.subdomain_members().expect("multidep plan");
            let objs = plan.mutex_objs().expect("multidep plan");
            let mut graph = TaskGraph::new();
            for (elems, objs) in members.iter().zip(objs) {
                let deps: Vec<Dep> = objs.iter().map(|&o| Dep::mutex(o)).collect();
                let process = &process;
                graph.add_task(&deps, move || {
                    let mut scratch = ElementScratch::default();
                    for &e in elems {
                        process(&mut scratch, e as usize);
                    }
                });
            }
            tasks = graph.execute(pool).tasks_run;
        }
    }

    SgsStats {
        elements: plan.elems.len(),
        total_iterations: total_iters.load(Ordering::Relaxed),
        max_iterations: max_seen.load(Ordering::Relaxed),
        colors,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    fn fixture() -> (Mesh, [RefElement; 3], ThreadPool, Vec<Vec3>) {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let vel = am
            .mesh
            .coords
            .iter()
            .map(|p| Vec3::new(p.y * 20.0, -p.x * 10.0, 1.0))
            .collect();
        (am.mesh, RefElement::all(), ThreadPool::new(4), vel)
    }

    fn sweep(
        pool: &ThreadPool,
        refs: &[RefElement; 3],
        mesh: &Mesh,
        plan: &AssemblyPlan,
        vel: &[Vec3],
        field: &mut SgsField,
    ) -> SgsStats {
        compute_sgs(pool, refs, mesh, plan, vel, FluidProps::default(), field, 10, 1e-8)
    }

    fn plan_for(mesh: &Mesh, strategy: AssemblyStrategy) -> AssemblyPlan {
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        AssemblyPlan::new(mesh, elems, strategy, 16)
    }

    fn run_on(strategy: AssemblyStrategy, workers: usize) -> (SgsField, SgsStats) {
        let (mesh, refs, _, vel) = fixture();
        let pool = ThreadPool::new(workers);
        let plan = plan_for(&mesh, strategy);
        let mut field = SgsField::new(&mesh);
        let stats = sweep(&pool, &refs, &mesh, &plan, &vel, &mut field);
        (field, stats)
    }

    fn assert_bits_equal(a: &SgsField, b: &SgsField, what: &str) {
        assert_eq!(a.values.len(), b.values.len(), "{what}: storage size");
        for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
            assert_eq!(x.x.to_bits(), y.x.to_bits(), "{what}: sgs[{i}].x");
            assert_eq!(x.y.to_bits(), y.y.to_bits(), "{what}: sgs[{i}].y");
            assert_eq!(x.z.to_bits(), y.z.to_bits(), "{what}: sgs[{i}].z");
        }
    }

    #[test]
    fn sgs_storage_sized_by_quadrature() {
        let (mesh, ..) = fixture();
        let field = SgsField::new(&mesh);
        let expected: usize = (0..mesh.num_elements())
            .map(|e| mesh.kinds[e].num_quad_points())
            .sum();
        assert_eq!(field.values.len(), expected);
    }

    // SGS elements are mutually independent, so every strategy, pool
    // size and task order writes the same bits as the serial loop.
    #[test]
    fn all_strategies_compute_same_sgs() {
        let (reference, ref_stats) = run_on(AssemblyStrategy::Serial, 4);
        for workers in [1, 2, 4] {
            for s in
                [AssemblyStrategy::Atomics, AssemblyStrategy::Coloring, AssemblyStrategy::Multidep]
            {
                let (field, stats) = run_on(s, workers);
                assert_eq!(stats.elements, reference.offsets.len() - 1);
                assert_eq!(stats.total_iterations, ref_stats.total_iterations, "{s:?}");
                assert_eq!(stats.max_iterations, ref_stats.max_iterations, "{s:?}");
                assert_bits_equal(&field, &reference, &format!("{s:?} on {workers} workers"));
            }
        }
    }

    // Coloring and Multidep sweep the schedule the plan built for
    // assembly: its color classes and its subdomain tasks, even when
    // the plan has fewer subdomains than the pool has workers.
    #[test]
    fn sweep_runs_the_plans_schedule() {
        let (mesh, refs, pool, vel) = fixture();
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        for n_sub in [3, 16] {
            for s in AssemblyStrategy::ALL {
                let plan = AssemblyPlan::new(&mesh, elems.clone(), s, n_sub);
                let mut field = SgsField::new(&mesh);
                let stats = sweep(&pool, &refs, &mesh, &plan, &vel, &mut field);
                assert_eq!(stats.colors, plan.num_colors(), "{s:?} colors");
                assert_eq!(stats.tasks, plan.num_subdomains(), "{s:?} tasks");
                if s == AssemblyStrategy::Multidep {
                    assert_eq!(stats.tasks, n_sub);
                }
            }
        }
        assert!(plan_for(&mesh, AssemblyStrategy::Coloring).num_colors() > 1);
    }

    // Two consecutive sweeps on one plan (the schedule reused, as every
    // step does) match sweeps on freshly built plans bit for bit.
    #[test]
    fn reused_schedule_matches_fresh_plan() {
        let (mesh, refs, pool, vel) = fixture();
        for s in [AssemblyStrategy::Coloring, AssemblyStrategy::Multidep] {
            let plan = plan_for(&mesh, s);
            let mut reused = SgsField::new(&mesh);
            let mut fresh = SgsField::new(&mesh);
            for pass in 0..2 {
                let a = sweep(&pool, &refs, &mesh, &plan, &vel, &mut reused);
                let b = sweep(&pool, &refs, &mesh, &plan_for(&mesh, s), &vel, &mut fresh);
                assert_eq!(a.total_iterations, b.total_iterations, "{s:?} pass {pass}");
                assert_bits_equal(&reused, &fresh, &format!("{s:?} pass {pass}"));
            }
        }
    }

    #[test]
    fn rotational_flow_produces_nonzero_sgs() {
        let (field, stats) = run_on(AssemblyStrategy::Atomics, 4);
        assert!(field.mean_norm() > 0.0);
        assert!(stats.total_iterations as usize >= stats.elements);
        assert!(stats.max_iterations >= 1);
    }
}
