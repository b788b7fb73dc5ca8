//! Locating particles in the unstructured hybrid mesh: a face-plane
//! containment test, a neighbor-walk search, and a uniform-grid global
//! fallback for injection and lost particles.
//!
//! Everything the searches read about an element — its face planes, its
//! centroid and its size — is computed once per mesh into a
//! [`LocatorIndex`], which a run shares across all of its ranks.

use cfpd_mesh::{BoundaryKind, FaceNeighbors, Mesh, Vec3};
use std::borrow::Cow;
use std::collections::HashMap;

/// Result of a walk from one element toward a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkResult {
    /// Point is inside this element.
    Inside(u32),
    /// Walk left the mesh through an exterior face of this element with
    /// this boundary kind (deposition on walls, escape at outlets).
    ExitedBoundary(u32, BoundaryKind),
    /// Walk did not converge (pathological geometry); caller should fall
    /// back to a global search.
    Lost,
}

/// One face plane of an element: the face centroid and the unit outward
/// normal (Newell's method handles warped quads).
#[derive(Debug, Clone, Copy)]
struct FacePlane {
    centroid: Vec3,
    normal: Vec3,
}

impl FacePlane {
    /// The plane of `face` (local node indices) of an element with
    /// global `nodes`. A degenerate face gets a NaN normal: every
    /// comparison against a NaN distance is false, so the searches skip
    /// it.
    fn new(mesh: &Mesh, nodes: &[u32], face: &[usize]) -> FacePlane {
        let mut c = Vec3::ZERO;
        for &li in face.iter() {
            c += mesh.coords[nodes[li] as usize];
        }
        c = c / face.len() as f64;
        let mut n = Vec3::ZERO;
        for k in 0..face.len() {
            let a = mesh.coords[nodes[face[k]] as usize];
            let b = mesh.coords[nodes[face[(k + 1) % face.len()]] as usize];
            n += (a - c).cross(b - c);
        }
        let len = n.norm();
        let normal = if len < 1e-30 { Vec3::new(f64::NAN, f64::NAN, f64::NAN) } else { n / len };
        FacePlane { centroid: c, normal }
    }
}

/// The per-mesh search structures of a [`Locator`]: face neighbors,
/// boundary classification, per-element geometry (face planes, centroid,
/// size) and a uniform grid over element centroids for global lookups.
///
/// It owns no reference to the mesh, so one index built per run can be
/// shared by every rank's [`Locator`]. The cached geometry holds the
/// very `f64`s a per-query recomputation from node coordinates produces,
/// so every search result is bit-identical to it.
#[derive(Debug, Clone)]
pub struct LocatorIndex {
    face_neighbors: FaceNeighbors,
    boundary: HashMap<(u32, u8), BoundaryKind>,
    /// Element `e`'s face planes are `faces[face_offsets[e]..face_offsets[e + 1]]`,
    /// in [`cfpd_mesh::ElementKind::faces`] order.
    face_offsets: Vec<u32>,
    faces: Vec<FacePlane>,
    centroids: Vec<Vec3>,
    /// Characteristic size (volume cube root) per element.
    sizes: Vec<f64>,
    // Uniform grid acceleration structure.
    grid_origin: Vec3,
    grid_cell: f64,
    grid_dims: [usize; 3],
    cells: Vec<Vec<u32>>,
}

impl LocatorIndex {
    /// Build the index of `mesh`.
    pub fn new(mesh: &Mesh) -> LocatorIndex {
        let ne = mesh.num_elements();
        let mut face_offsets = Vec::with_capacity(ne + 1);
        face_offsets.push(0u32);
        let mut faces = Vec::new();
        for e in 0..ne {
            let nodes = mesh.elem_nodes(e);
            for face in mesh.kinds[e].faces() {
                faces.push(FacePlane::new(mesh, nodes, face));
            }
            face_offsets.push(faces.len() as u32);
        }
        let centroids: Vec<Vec3> = (0..ne).map(|e| mesh.centroid(e)).collect();
        let sizes = (0..ne).map(|e| mesh.volume(e).abs().cbrt()).collect();

        // Bounding box of all nodes.
        let mut lo = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut hi = Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &mesh.coords {
            lo = Vec3::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z));
            hi = Vec3::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z));
        }
        // Aim for ~2 elements per cell.
        let target_cells = (ne.max(1) as f64 / 2.0).max(1.0);
        let extent = hi - lo;
        let vol = (extent.x * extent.y * extent.z).max(1e-30);
        let cell = (vol / target_cells).cbrt().max(1e-9);
        let dims = [
            ((extent.x / cell).ceil() as usize).max(1),
            ((extent.y / cell).ceil() as usize).max(1),
            ((extent.z / cell).ceil() as usize).max(1),
        ];
        let index = |p: Vec3| -> usize {
            let ix = (((p.x - lo.x) / cell) as usize).min(dims[0] - 1);
            let iy = (((p.y - lo.y) / cell) as usize).min(dims[1] - 1);
            let iz = (((p.z - lo.z) / cell) as usize).min(dims[2] - 1);
            (iz * dims[1] + iy) * dims[0] + ix
        };
        let mut cells = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        for (e, &c) in centroids.iter().enumerate() {
            cells[index(c)].push(e as u32);
        }
        LocatorIndex {
            face_neighbors: mesh.face_neighbors(),
            boundary: mesh.boundary_map(),
            face_offsets,
            faces,
            centroids,
            sizes,
            grid_origin: lo,
            grid_cell: cell,
            grid_dims: dims,
            cells,
        }
    }

    /// A locator over `mesh` that borrows this index. `mesh` must be the
    /// mesh the index was built from.
    pub fn locator<'a>(&'a self, mesh: &'a Mesh) -> Locator<'a> {
        assert_eq!(self.sizes.len(), mesh.num_elements(), "index built from another mesh");
        Locator { mesh, index: Cow::Borrowed(self) }
    }

    fn face_planes(&self, e: usize) -> &[FacePlane] {
        &self.faces[self.face_offsets[e] as usize..self.face_offsets[e + 1] as usize]
    }
}

/// Mesh locator: a mesh and its [`LocatorIndex`], either owned
/// ([`Locator::new`]) or shared ([`LocatorIndex::locator`]).
pub struct Locator<'m> {
    mesh: &'m Mesh,
    index: Cow<'m, LocatorIndex>,
}

impl<'m> Locator<'m> {
    /// A locator owning a freshly built index of `mesh`.
    pub fn new(mesh: &'m Mesh) -> Locator<'m> {
        Locator { mesh, index: Cow::Owned(LocatorIndex::new(mesh)) }
    }

    /// Face-plane containment test: `p` is inside a convex element if it
    /// lies on the inner side of every face plane (planes through the
    /// face centroid with outward normal; tolerance `eps` relative to
    /// the element size).
    pub fn contains(&self, e: usize, p: Vec3, eps: f64) -> bool {
        self.worst_face(e, p).0 <= eps
    }

    /// Largest signed distance of `p` beyond any face plane of `e`
    /// (negative = strictly inside) and the face index achieving it.
    fn worst_face(&self, e: usize, p: Vec3) -> (f64, usize) {
        let mut worst = (f64::NEG_INFINITY, 0usize);
        for (f, plane) in self.index.face_planes(e).iter().enumerate() {
            let d = (p - plane.centroid).dot(plane.normal);
            if d > worst.0 {
                worst = (d, f);
            }
        }
        worst
    }

    /// Walk from `start` toward `p`, crossing at most `max_steps` faces.
    pub fn walk(&self, start: u32, p: Vec3, max_steps: usize) -> WalkResult {
        let mut e = start as usize;
        let mut prev = usize::MAX;
        for _ in 0..max_steps {
            let (violation, face) = self.worst_face(e, p);
            let h = self.index.sizes[e];
            if violation <= 1e-9 * h.max(1e-30) + 1e-15 {
                return WalkResult::Inside(e as u32);
            }
            match self.index.face_neighbors.neighbor(e, face) {
                Some(next) => {
                    if next as usize == prev {
                        // Ping-pong between two elements (point near a
                        // warped shared face): accept the closer one.
                        let vb = self.worst_face(prev, p).0;
                        let best = if violation <= vb { e } else { prev };
                        return WalkResult::Inside(best as u32);
                    }
                    prev = e;
                    e = next as usize;
                }
                None => {
                    let kind = self
                        .index
                        .boundary
                        .get(&(e as u32, face as u8))
                        .copied()
                        .unwrap_or(BoundaryKind::Wall);
                    return WalkResult::ExitedBoundary(e as u32, kind);
                }
            }
        }
        WalkResult::Lost
    }

    /// The mesh this locator indexes.
    pub fn mesh(&self) -> &Mesh {
        self.mesh
    }

    /// Characteristic size (volume cube root) of element `e`.
    pub fn elem_size(&self, e: usize) -> f64 {
        self.index.sizes[e]
    }

    /// Probe forward from `p` along unit direction `dir` in steps of
    /// `h/2` up to `2h`, returning the first element containing a probe
    /// point. Used to hop across the thin uncovered voids between the
    /// star-filled junction cones of the airway mesh (see tracker docs).
    pub fn locate_forward(&self, p: Vec3, dir: Vec3, h: f64) -> Option<u32> {
        for k in 1..=4 {
            let probe = p + dir * (0.5 * h * k as f64);
            if let Some(e) = self.locate_global(probe) {
                return Some(e);
            }
        }
        None
    }

    /// Global search via the uniform grid (used at injection and to
    /// recover lost particles). Returns the containing element, if any.
    pub fn locate_global(&self, p: Vec3) -> Option<u32> {
        // Search the cell of p and its neighbors, nearest-centroid first,
        // then walk from the best candidate.
        let index = &*self.index;
        let d = index.grid_dims;
        let ix = (((p.x - index.grid_origin.x) / index.grid_cell) as i64).clamp(0, d[0] as i64 - 1);
        let iy = (((p.y - index.grid_origin.y) / index.grid_cell) as i64).clamp(0, d[1] as i64 - 1);
        let iz = (((p.z - index.grid_origin.z) / index.grid_cell) as i64).clamp(0, d[2] as i64 - 1);
        let mut best: Option<(f64, u32)> = None;
        for dz in -1..=1i64 {
            for dy in -1..=1i64 {
                for dx in -1..=1i64 {
                    let (x, y, z) = (ix + dx, iy + dy, iz + dz);
                    if x < 0 || y < 0 || z < 0
                        || x >= d[0] as i64 || y >= d[1] as i64 || z >= d[2] as i64
                    {
                        continue;
                    }
                    for &e in &index.cells[((z as usize) * d[1] + y as usize) * d[0] + x as usize] {
                        let h = index.sizes[e as usize];
                        if self.contains(e as usize, p, 1e-9 * h + 1e-15) {
                            return Some(e);
                        }
                        let dist = index.centroids[e as usize].dist(p);
                        if best.is_none() || dist < best.unwrap().0 {
                            best = Some((dist, e));
                        }
                    }
                }
            }
        }
        // Walk from the nearest candidate centroid.
        if let Some((_, e)) = best {
            if let WalkResult::Inside(found) = self.walk(e, p, 64) {
                return Some(found);
            }
        }
        None
    }

    /// Least-squares linear reconstruction of the gradient of a nodal
    /// vector field over element `e`: returns `G[c]` = ∇(field_c) at the
    /// element (constant per element). Used by the Saffman lift model
    /// (needs the local vorticity) and by diagnostics.
    pub fn gradient(&self, e: usize, field: &[Vec3]) -> [Vec3; 3] {
        let nodes = self.mesh.elem_nodes(e);
        let centroid = self.index.centroids[e];
        // Mean field value.
        let mut mean = Vec3::ZERO;
        for &v in nodes {
            mean += field[v as usize];
        }
        mean = mean / nodes.len() as f64;
        // Normal equations A g_c = b_c with A = Σ dx dxᵀ.
        let mut a = [[0.0f64; 3]; 3];
        let mut b = [[0.0f64; 3]; 3]; // b[c][*]
        for &v in nodes {
            let dx = self.mesh.coords[v as usize] - centroid;
            let df = field[v as usize] - mean;
            let dxa = [dx.x, dx.y, dx.z];
            let dfa = [df.x, df.y, df.z];
            for r in 0..3 {
                for c in 0..3 {
                    a[r][c] += dxa[r] * dxa[c];
                }
                for c in 0..3 {
                    b[c][r] += dxa[r] * dfa[c];
                }
            }
        }
        // Invert A (3x3, SPD up to degeneracy; fall back to zero).
        let det = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
        if det.abs() < 1e-30 {
            return [Vec3::ZERO; 3];
        }
        let inv_det = 1.0 / det;
        let inv = [
            [
                (a[1][1] * a[2][2] - a[1][2] * a[2][1]) * inv_det,
                (a[0][2] * a[2][1] - a[0][1] * a[2][2]) * inv_det,
                (a[0][1] * a[1][2] - a[0][2] * a[1][1]) * inv_det,
            ],
            [
                (a[1][2] * a[2][0] - a[1][0] * a[2][2]) * inv_det,
                (a[0][0] * a[2][2] - a[0][2] * a[2][0]) * inv_det,
                (a[0][2] * a[1][0] - a[0][0] * a[1][2]) * inv_det,
            ],
            [
                (a[1][0] * a[2][1] - a[1][1] * a[2][0]) * inv_det,
                (a[0][1] * a[2][0] - a[0][0] * a[2][1]) * inv_det,
                (a[0][0] * a[1][1] - a[0][1] * a[1][0]) * inv_det,
            ],
        ];
        let mut out = [Vec3::ZERO; 3];
        for c in 0..3 {
            out[c] = Vec3::new(
                inv[0][0] * b[c][0] + inv[0][1] * b[c][1] + inv[0][2] * b[c][2],
                inv[1][0] * b[c][0] + inv[1][1] * b[c][1] + inv[1][2] * b[c][2],
                inv[2][0] * b[c][0] + inv[2][1] * b[c][1] + inv[2][2] * b[c][2],
            );
        }
        out
    }

    /// Vorticity ω = ∇ × u of a nodal velocity field at element `e`.
    pub fn vorticity(&self, e: usize, field: &[Vec3]) -> Vec3 {
        let g = self.gradient(e, field);
        // g[c] = grad of component c; ω = (du_z/dy - du_y/dz, ...).
        Vec3::new(g[2].y - g[1].z, g[0].z - g[2].x, g[1].x - g[0].y)
    }

    /// Interpolate a nodal vector field at `p` inside element `e` using
    /// inverse-distance weights over the element nodes (a standard
    /// low-order interpolant for Lagrangian particle tracking).
    pub fn interpolate(&self, e: usize, p: Vec3, field: &[Vec3]) -> Vec3 {
        let nodes = self.mesh.elem_nodes(e);
        let mut wsum = 0.0;
        let mut acc = Vec3::ZERO;
        for &v in nodes {
            let d = self.mesh.coords[v as usize].dist(p);
            if d < 1e-14 {
                return field[v as usize];
            }
            let w = 1.0 / d;
            wsum += w;
            acc += field[v as usize] * w;
        }
        acc / wsum
    }
}

/// Reference search for the cached [`LocatorIndex`]: every face
/// centroid, Newell normal, element size and centroid is rebuilt from
/// node coordinates on each use. Topology (face neighbors, boundary
/// kinds, grid bins) comes from the locator under test.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) struct Recompute<'a> {
        pub loc: &'a Locator<'a>,
    }

    impl Recompute<'_> {
        pub fn worst_face(&self, e: usize, p: Vec3) -> (f64, usize) {
            let mesh = self.loc.mesh;
            let nodes = mesh.elem_nodes(e);
            let kind = mesh.kinds[e];
            let mut worst = (f64::NEG_INFINITY, 0usize);
            for (f, face) in kind.faces().iter().enumerate() {
                let mut c = Vec3::ZERO;
                for &li in face.iter() {
                    c += mesh.coords[nodes[li] as usize];
                }
                c = c / face.len() as f64;
                let mut n = Vec3::ZERO;
                for k in 0..face.len() {
                    let a = mesh.coords[nodes[face[k]] as usize];
                    let b = mesh.coords[nodes[face[(k + 1) % face.len()]] as usize];
                    n += (a - c).cross(b - c);
                }
                let len = n.norm();
                if len < 1e-30 {
                    continue;
                }
                let d = (p - c).dot(n / len);
                if d > worst.0 {
                    worst = (d, f);
                }
            }
            worst
        }

        fn max_face_violation(&self, e: usize, p: Vec3) -> f64 {
            self.worst_face(e, p).0
        }

        pub fn contains(&self, e: usize, p: Vec3, eps: f64) -> bool {
            self.max_face_violation(e, p) <= eps
        }

        pub fn walk(&self, start: u32, p: Vec3, max_steps: usize) -> WalkResult {
            let index = &*self.loc.index;
            let mut e = start as usize;
            let mut prev = usize::MAX;
            for _ in 0..max_steps {
                let (violation, face) = self.worst_face(e, p);
                let h = self.loc.mesh.volume(e).abs().cbrt();
                if violation <= 1e-9 * h.max(1e-30) + 1e-15 {
                    return WalkResult::Inside(e as u32);
                }
                match index.face_neighbors.neighbor(e, face) {
                    Some(next) => {
                        if next as usize == prev {
                            let va = self.max_face_violation(e, p);
                            let vb = self.max_face_violation(prev, p);
                            let best = if va <= vb { e } else { prev };
                            return WalkResult::Inside(best as u32);
                        }
                        prev = e;
                        e = next as usize;
                    }
                    None => {
                        let kind = index
                            .boundary
                            .get(&(e as u32, face as u8))
                            .copied()
                            .unwrap_or(BoundaryKind::Wall);
                        return WalkResult::ExitedBoundary(e as u32, kind);
                    }
                }
            }
            WalkResult::Lost
        }

        pub fn elem_size(&self, e: usize) -> f64 {
            self.loc.mesh.volume(e).abs().cbrt()
        }

        pub fn locate_forward(&self, p: Vec3, dir: Vec3, h: f64) -> Option<u32> {
            for k in 1..=4 {
                let probe = p + dir * (0.5 * h * k as f64);
                if let Some(e) = self.locate_global(probe) {
                    return Some(e);
                }
            }
            None
        }

        pub fn locate_global(&self, p: Vec3) -> Option<u32> {
            let index = &*self.loc.index;
            let mesh = self.loc.mesh;
            let d = index.grid_dims;
            let ix = (((p.x - index.grid_origin.x) / index.grid_cell) as i64).clamp(0, d[0] as i64 - 1);
            let iy = (((p.y - index.grid_origin.y) / index.grid_cell) as i64).clamp(0, d[1] as i64 - 1);
            let iz = (((p.z - index.grid_origin.z) / index.grid_cell) as i64).clamp(0, d[2] as i64 - 1);
            let mut best: Option<(f64, u32)> = None;
            for dz in -1..=1i64 {
                for dy in -1..=1i64 {
                    for dx in -1..=1i64 {
                        let (x, y, z) = (ix + dx, iy + dy, iz + dz);
                        if x < 0 || y < 0 || z < 0
                            || x >= d[0] as i64 || y >= d[1] as i64 || z >= d[2] as i64
                        {
                            continue;
                        }
                        for &e in &index.cells[((z as usize) * d[1] + y as usize) * d[0] + x as usize] {
                            let h = mesh.volume(e as usize).abs().cbrt();
                            if self.contains(e as usize, p, 1e-9 * h + 1e-15) {
                                return Some(e);
                            }
                            let dist = mesh.centroid(e as usize).dist(p);
                            if best.is_none() || dist < best.unwrap().0 {
                                best = Some((dist, e));
                            }
                        }
                    }
                }
            }
            if let Some((_, e)) = best {
                if let WalkResult::Inside(found) = self.walk(e, p, 64) {
                    return Some(found);
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    fn airway() -> cfpd_mesh::AirwayMesh {
        generate_airway(&AirwaySpec::small()).unwrap()
    }

    #[test]
    fn centroid_is_inside_own_element() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        for e in (0..am.mesh.num_elements()).step_by(17) {
            let c = am.mesh.centroid(e);
            let h = am.mesh.volume(e).abs().cbrt();
            assert!(loc.contains(e, c, 1e-9 * h), "centroid of {e} not inside");
        }
    }

    #[test]
    fn walk_finds_neighbor_centroid() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        let fns = am.mesh.face_neighbors();
        let e = 0usize;
        // Find a neighbor and walk to its centroid.
        let nb = fns.faces(e).iter().flatten().next().copied().unwrap() as usize;
        let target = am.mesh.centroid(nb);
        match loc.walk(e as u32, target, 32) {
            WalkResult::Inside(found) => {
                // Must land on an element containing the target.
                let h = am.mesh.volume(found as usize).abs().cbrt();
                assert!(loc.contains(found as usize, target, 1e-6 * h));
            }
            other => panic!("walk failed: {other:?}"),
        }
    }

    #[test]
    fn walk_far_across_the_mesh() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        // Walk from element 0 to the centroid of the last element.
        let last = am.mesh.num_elements() - 1;
        let target = am.mesh.centroid(last);
        match loc.walk(0, target, 10_000) {
            WalkResult::Inside(found) => {
                let h = am.mesh.volume(found as usize).abs().cbrt();
                assert!(loc.contains(found as usize, target, 1e-6 * h));
            }
            WalkResult::ExitedBoundary(..) => {
                // Acceptable: the straight-line worst-face walk can exit
                // at a junction rim for very distant targets; global
                // relocation handles it.
                let found = loc.locate_global(target);
                assert!(found.is_some());
            }
            WalkResult::Lost => panic!("walk lost"),
        }
    }

    #[test]
    fn outside_point_exits_via_boundary() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        // A point far outside the mesh in +x.
        let p = Vec3::new(1.0, 0.0, -0.01);
        match loc.walk(0, p, 10_000) {
            WalkResult::ExitedBoundary(_, kind) => {
                assert!(matches!(kind, BoundaryKind::Wall | BoundaryKind::Inlet));
            }
            other => panic!("expected boundary exit, got {other:?}"),
        }
    }

    #[test]
    fn locate_global_finds_centroids() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        for e in (0..am.mesh.num_elements()).step_by(37) {
            let c = am.mesh.centroid(e);
            let found = loc.locate_global(c).unwrap_or_else(|| panic!("lost centroid of {e}"));
            let h = am.mesh.volume(found as usize).abs().cbrt();
            assert!(loc.contains(found as usize, c, 1e-6 * h));
        }
    }

    #[test]
    fn locate_global_rejects_far_outside() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        assert_eq!(loc.locate_global(Vec3::new(10.0, 10.0, 10.0)), None);
    }

    #[test]
    fn interpolation_reproduces_constant_field() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        let field = vec![Vec3::new(3.0, -1.0, 2.0); am.mesh.num_nodes()];
        let p = am.mesh.centroid(5);
        let v = loc.interpolate(5, p, &field);
        assert!((v - Vec3::new(3.0, -1.0, 2.0)).norm() < 1e-12);
    }

    /// The cached index reproduces the recompute-per-query search bit
    /// for bit: worst-face distance bits and face index, walks, global
    /// and forward location, on random points inside and outside the
    /// mesh.
    #[test]
    fn cached_index_matches_recompute_oracle() {
        use cfpd_testkit::prop::{check, f64_range, usize_range, PropConfig};
        let am = airway();
        let mesh = &am.mesh;
        let index = LocatorIndex::new(mesh);
        let loc = index.locator(mesh);
        let oracle = oracle::Recompute { loc: &loc };
        let ne = mesh.num_elements();
        let mut lo = mesh.coords[0];
        let mut hi = mesh.coords[0];
        for p in &mesh.coords {
            lo = Vec3::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z));
            hi = Vec3::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z));
        }
        // (element, offset from its centroid in units of its size,
        // bounding-box fractions, walk start, direction angles).
        let gen = (
            usize_range(0, ne),
            (f64_range(-2.0, 2.0), f64_range(-2.0, 2.0), f64_range(-2.0, 2.0)),
            (f64_range(-0.1, 1.1), f64_range(-0.1, 1.1), f64_range(-0.1, 1.1)),
            usize_range(0, ne),
            (f64_range(0.0, std::f64::consts::PI), f64_range(0.0, std::f64::consts::TAU)),
        );
        // Points found inside / outside the mesh, so the sample is known
        // to exercise both.
        let (inside, outside) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let cfg = PropConfig::cases(256);
        check("locator_index_matches_oracle", cfg, &gen, |&(e, off, frac, start, ang)| {
            let h = mesh.volume(e).abs().cbrt();
            let near = mesh.centroid(e) + Vec3::new(off.0, off.1, off.2) * h;
            let ext = hi - lo;
            let anywhere = lo + Vec3::new(frac.0 * ext.x, frac.1 * ext.y, frac.2 * ext.z);
            let dir = Vec3::new(ang.0.sin() * ang.1.cos(), ang.0.sin() * ang.1.sin(), ang.0.cos());
            for p in [near, anywhere] {
                for el in [e, start] {
                    let (dc, fc) = loc.worst_face(el, p);
                    let (dr, fr) = oracle.worst_face(el, p);
                    assert_eq!((dc.to_bits(), fc), (dr.to_bits(), fr), "worst_face({el}, {p:?})");
                    assert_eq!(loc.elem_size(el).to_bits(), oracle.elem_size(el).to_bits());
                }
                let found = loc.locate_global(p);
                assert_eq!(found, oracle.locate_global(p), "locate_global({p:?})");
                let tally = if found.is_some() { &inside } else { &outside };
                tally.set(tally.get() + 1);
                assert_eq!(loc.walk(start as u32, p, 256), oracle.walk(start as u32, p, 256));
                assert_eq!(loc.walk(e as u32, p, 256), oracle.walk(e as u32, p, 256));
                assert_eq!(loc.locate_forward(p, dir, h), oracle.locate_forward(p, dir, h));
            }
        });
        let (inside, outside) = (inside.get(), outside.get());
        assert!(inside > 100 && outside > 100, "{inside} inside, {outside} outside");
    }

    #[test]
    #[should_panic(expected = "index built from another mesh")]
    fn index_rejects_a_different_mesh() {
        let small = airway();
        let other = generate_airway(&AirwaySpec { generations: 1, ..AirwaySpec::small() }).unwrap();
        let index = LocatorIndex::new(&small.mesh);
        let _ = index.locator(&other.mesh);
    }
}
