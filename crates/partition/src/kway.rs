//! K-way graph partitioning by greedy graph growing with boundary
//! refinement — the workspace's stand-in for Metis (used by the paper
//! both for MPI domain decomposition and for carving each MPI domain
//! into the OpenMP-task subdomains of the multidependences scheme).

use crate::graph::Graph;
use std::collections::BinaryHeap;

/// Result of a k-way partition: `parts[v]` is the part of vertex `v`.
#[derive(Debug, Clone)]
pub struct Partition {
    pub parts: Vec<u32>,
    pub num_parts: usize,
}

impl Partition {
    /// Weight of each part.
    pub fn part_weights(&self, g: &Graph) -> Vec<f64> {
        let mut w = vec![0.0; self.num_parts];
        for (v, &p) in self.parts.iter().enumerate() {
            w[p as usize] += g.vwgt[v];
        }
        w
    }

    /// Load-balance metric over parts, matching the paper's Lₙ (eq. 9):
    /// `sum(w_i) / (n * max(w_i))`. 1.0 = perfectly balanced.
    pub fn load_balance(&self, g: &Graph) -> f64 {
        let w = self.part_weights(g);
        let max = w.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            return 1.0;
        }
        w.iter().sum::<f64>() / (self.num_parts as f64 * max)
    }

    /// Number of cut edges (each undirected edge counted once).
    pub fn edge_cut(&self, g: &Graph) -> usize {
        let mut cut = 0;
        for v in 0..g.num_vertices() {
            for &w in g.neighbors(v) {
                if (w as usize) > v && self.parts[w as usize] != self.parts[v] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Vertex lists per part (indices sorted ascending, preserving the
    /// generator's spatial locality within each part).
    pub fn part_members(&self) -> Vec<Vec<u32>> {
        let mut members = vec![Vec::new(); self.num_parts];
        for (v, &p) in self.parts.iter().enumerate() {
            members[p as usize].push(v as u32);
        }
        members
    }
}

/// Partition `g` into `k` parts.
///
/// Algorithm: greedy graph growing (Karypis-Kumar style initial phase) —
/// parts are grown one at a time by a weight-bounded BFS from a
/// pseudo-peripheral seed, preferring frontier vertices with the most
/// neighbors already in the growing part (minimizes perimeter) — followed
/// by `refine_passes` of greedy boundary refinement that moves boundary
/// vertices to reduce edge cut without violating a 3 % balance tolerance.
pub fn partition_kway(g: &Graph, k: usize, refine_passes: usize) -> Partition {
    assert!(k >= 1, "k must be >= 1");
    let n = g.num_vertices();
    if k == 1 || n == 0 {
        return Partition { parts: vec![0; n], num_parts: k };
    }
    let mut part = Partition { parts: grow(g, k), num_parts: k };
    refine(g, &mut part, refine_passes);
    part
}

/// The growing phase of [`partition_kway`]: `k - 1` parts grown one at a
/// time to an equal share of the remaining weight, the last taking the
/// rest.
fn grow(g: &Graph, k: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parts = vec![u32::MAX; n];
    let total = g.total_weight();
    let mut remaining = total;
    let mut seed = g.pseudo_peripheral(0);
    let mut conn = vec![0i64; n];

    for p in 0..k as u32 {
        let parts_left = k as u32 - p;
        let target = remaining / parts_left as f64;
        if p == k as u32 - 1 {
            // Last part takes everything left.
            for v in 0..n {
                if parts[v] == u32::MAX {
                    parts[v] = p;
                }
            }
            break;
        }
        // Grow from `seed`: max-heap on number of neighbors already
        // inside the part (ties broken by insertion order via a counter
        // for determinism). `conn[w]` keeps that count for every vertex
        // as the part grows, so a push costs O(1) instead of a rescan of
        // `neighbors(w)`; on a symmetric graph (`w` listed in
        // `neighbors(v)` as often as `v` in `neighbors(w)`) both agree.
        let mut heap: BinaryHeap<(i64, std::cmp::Reverse<u64>, u32)> = BinaryHeap::new();
        conn.fill(0);
        let mut counter = 0u64;
        let mut grown = 0.0f64;
        if parts[seed] != u32::MAX {
            // Seed already taken (disconnected leftovers): pick any free.
            seed = (0..n).find(|&v| parts[v] == u32::MAX).unwrap();
        }
        heap.push((0, std::cmp::Reverse(counter), seed as u32));
        while grown < target {
            let v = loop {
                match heap.pop() {
                    Some((_, _, v)) if parts[v as usize] == u32::MAX => break Some(v),
                    Some(_) => continue,
                    None => break None,
                }
            };
            let v = match v {
                Some(v) => v as usize,
                // Frontier exhausted (disconnected component): restart
                // from any unassigned vertex.
                None => match (0..n).find(|&v| parts[v] == u32::MAX) {
                    Some(v) => v,
                    None => break,
                },
            };
            parts[v] = p;
            grown += g.vwgt[v];
            // Count all of `v`'s edges before pushing, so a duplicate
            // edge is already counted at its first push.
            for &w in g.neighbors(v) {
                conn[w as usize] += 1;
            }
            for &w in g.neighbors(v) {
                if parts[w as usize] == u32::MAX {
                    counter += 1;
                    heap.push((conn[w as usize], std::cmp::Reverse(counter), w));
                }
            }
        }
        remaining -= grown;
        // Next seed: far from the just-grown region.
        seed = g.pseudo_peripheral(seed);
    }
    parts
}

/// Greedy boundary refinement: move boundary vertices to the neighboring
/// part where they have strictly more connections, if the move keeps the
/// destination part within `1 + TOL` of the average weight and does not
/// empty the source part.
fn refine(g: &Graph, part: &mut Partition, passes: usize) {
    const TOL: f64 = 0.03;
    let n = g.num_vertices();
    let k = part.num_parts;
    let avg = g.total_weight() / k as f64;
    let max_w = avg * (1.0 + TOL);
    let mut weights = part.part_weights(g);

    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let pv = part.parts[v] as usize;
            // Count connections per neighboring part.
            let mut best_part = pv;
            let mut here = 0usize;
            let mut best = 0usize;
            let mut counts: Vec<(usize, usize)> = Vec::with_capacity(4);
            for &w in g.neighbors(v) {
                let pw = part.parts[w as usize] as usize;
                if pw == pv {
                    here += 1;
                    continue;
                }
                match counts.iter_mut().find(|(p, _)| *p == pw) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((pw, 1)),
                }
            }
            for (p, c) in counts {
                if c > best {
                    best = c;
                    best_part = p;
                }
            }
            if best_part != pv
                && best > here
                && weights[best_part] + g.vwgt[v] <= max_w
                && weights[pv] - g.vwgt[v] > 0.0
            {
                part.parts[v] = best_part as u32;
                weights[pv] -= g.vwgt[v];
                weights[best_part] += g.vwgt[v];
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference growing phase: every pushed frontier vertex rescans its
    /// neighbor list for its gain.
    fn grow_scan(g: &Graph, k: usize) -> Vec<u32> {
        let n = g.num_vertices();
        let mut parts = vec![u32::MAX; n];
        let mut remaining = g.total_weight();
        let mut seed = g.pseudo_peripheral(0);
        for p in 0..k as u32 {
            let target = remaining / (k as u32 - p) as f64;
            if p == k as u32 - 1 {
                for v in 0..n {
                    if parts[v] == u32::MAX {
                        parts[v] = p;
                    }
                }
                break;
            }
            let mut heap: BinaryHeap<(i64, std::cmp::Reverse<u64>, u32)> = BinaryHeap::new();
            let mut counter = 0u64;
            let mut grown = 0.0f64;
            if parts[seed] != u32::MAX {
                seed = (0..n).find(|&v| parts[v] == u32::MAX).unwrap();
            }
            heap.push((0, std::cmp::Reverse(counter), seed as u32));
            while grown < target {
                let v = loop {
                    match heap.pop() {
                        Some((_, _, v)) if parts[v as usize] == u32::MAX => break Some(v),
                        Some(_) => continue,
                        None => break None,
                    }
                };
                let v = match v {
                    Some(v) => v as usize,
                    None => match (0..n).find(|&v| parts[v] == u32::MAX) {
                        Some(v) => v,
                        None => break,
                    },
                };
                parts[v] = p;
                grown += g.vwgt[v];
                for &w in g.neighbors(v) {
                    if parts[w as usize] == u32::MAX {
                        let gain = g
                            .neighbors(w as usize)
                            .iter()
                            .filter(|&&x| parts[x as usize] == p)
                            .count() as i64;
                        counter += 1;
                        heap.push((gain, std::cmp::Reverse(counter), w));
                    }
                }
            }
            remaining -= grown;
            seed = g.pseudo_peripheral(seed);
        }
        parts
    }

    fn airway_graph(spec: &cfpd_mesh::AirwaySpec) -> Graph {
        let mesh = cfpd_mesh::generate_airway(spec).unwrap().mesh;
        let adj = mesh.element_adjacency(&mesh.node_to_elements());
        Graph::from_csr(&adj, mesh.cost_weights())
    }

    #[test]
    fn counted_gains_grow_the_same_parts_as_the_scan() {
        use cfpd_mesh::AirwaySpec;
        let graphs = [
            airway_graph(&AirwaySpec { generations: 2, ..AirwaySpec::default() }),
            airway_graph(&AirwaySpec { generations: 3, ..AirwaySpec::small() }),
        ];
        for g in &graphs {
            for k in [2, 16] {
                assert!(grow(g, k) == grow_scan(g, k), "k = {k}, {} vertices", g.num_vertices());
            }
        }
        // Duplicate edges (listed on both sides) and disconnected
        // leftovers take the same path.
        let multi = Graph {
            xadj: vec![0, 3, 6, 8, 11, 13, 14],
            adjncy: vec![1, 1, 2, 0, 0, 2, 0, 1, 4, 4, 5, 3, 3, 3],
            vwgt: vec![1.0; 6],
        };
        for k in [2, 3] {
            assert_eq!(grow(&multi, k), grow_scan(&multi, k), "k = {k}");
        }
    }

    /// Grid graph of `nx * ny` vertices (4-neighborhood).
    fn grid(nx: usize, ny: usize) -> Graph {
        let idx = |x: usize, y: usize| (y * nx + x) as u32;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x > 0 {
                    adjncy.push(idx(x - 1, y));
                }
                if x + 1 < nx {
                    adjncy.push(idx(x + 1, y));
                }
                if y > 0 {
                    adjncy.push(idx(x, y - 1));
                }
                if y + 1 < ny {
                    adjncy.push(idx(x, y + 1));
                }
                xadj.push(adjncy.len() as u32);
            }
        }
        Graph { xadj, adjncy, vwgt: vec![1.0; nx * ny] }
    }

    #[test]
    fn every_vertex_assigned_exactly_one_part() {
        let g = grid(10, 10);
        let p = partition_kway(&g, 4, 4);
        assert_eq!(p.parts.len(), 100);
        assert!(p.parts.iter().all(|&x| (x as usize) < 4));
    }

    #[test]
    fn parts_reasonably_balanced() {
        let g = grid(16, 16);
        let p = partition_kway(&g, 8, 6);
        let lb = p.load_balance(&g);
        assert!(lb > 0.85, "load balance {lb} too poor");
    }

    #[test]
    fn edge_cut_much_smaller_than_total_edges() {
        let g = grid(20, 20);
        let p = partition_kway(&g, 4, 6);
        let total_edges = g.adjncy.len() / 2;
        let cut = p.edge_cut(&g);
        assert!(
            cut * 4 < total_edges,
            "cut {cut} should be far below {total_edges}"
        );
    }

    #[test]
    fn single_part_trivial() {
        let g = grid(5, 5);
        let p = partition_kway(&g, 1, 3);
        assert!(p.parts.iter().all(|&x| x == 0));
        assert_eq!(p.load_balance(&g), 1.0);
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn k_equals_n_each_vertex_its_own_part() {
        let g = grid(3, 3);
        let p = partition_kway(&g, 9, 2);
        let w = p.part_weights(&g);
        // All parts non-empty.
        assert!(w.iter().all(|&x| x > 0.0), "{w:?}");
    }

    #[test]
    fn weighted_balance_accounts_for_weights() {
        // Two heavy vertices must not land in the same part when k = 2
        // and everything else is light.
        let mut g = grid(8, 8);
        g.vwgt[0] = 20.0;
        g.vwgt[63] = 20.0;
        let p = partition_kway(&g, 2, 6);
        assert_ne!(p.parts[0], p.parts[63]);
        assert!(p.load_balance(&g) > 0.8);
    }

    #[test]
    fn handles_disconnected_graph() {
        // Two disjoint triangles.
        let g = Graph {
            xadj: vec![0, 2, 4, 6, 8, 10, 12],
            adjncy: vec![1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4],
            vwgt: vec![1.0; 6],
        };
        let p = partition_kway(&g, 2, 2);
        assert!(p.parts.iter().all(|&x| x < 2));
        let w = p.part_weights(&g);
        assert!(w[0] > 0.0 && w[1] > 0.0);
    }

    #[test]
    fn part_members_partition_the_vertex_set() {
        let g = grid(7, 9);
        let p = partition_kway(&g, 5, 3);
        let members = p.part_members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 63);
        let mut seen = vec![false; 63];
        for m in &members {
            for &v in m {
                assert!(!seen[v as usize], "vertex {v} in two parts");
                seen[v as usize] = true;
            }
        }
    }
}
