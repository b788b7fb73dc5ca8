//! The POP-style efficiency rollup of one run (or of one job's runs
//! laid end to end).
//!
//! [`PopReport::from_phase_seconds`] is the one place the POP metrics of
//! the paper's methodology are computed, from per-rank seconds per
//! phase and the wall time they were measured over:
//!
//! * **parallel efficiency** `PE = Σᵣ usefulᵣ / (n · wall)`;
//! * **load balance** `LB = Σᵣ usefulᵣ / (n · maxᵣ usefulᵣ)` — eq. 9
//!   over per-rank useful (non-MPI) time;
//! * **communication efficiency** `CommE = maxᵣ usefulᵣ / wall`,
//!
//! so `PE = LB × CommE`. The inputs come from a run's own phase trace
//! (`cfpd_trace::pop_report`); this crate stays dependency-free, so
//! phases are passed by key.

/// Key of the communication phase; every other phase counts as useful.
pub const MPI: &str = "mpi";

/// The POP rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct PopReport {
    /// Ranks the phase seconds were given for.
    pub ranks: usize,
    /// Wall time the phase seconds were measured over.
    pub wall_time: f64,
    /// Σ per-rank useful (non-MPI) seconds.
    pub useful_time: f64,
    /// Σ per-rank MPI seconds.
    pub mpi_time: f64,
    /// `useful / (ranks × wall)`.
    pub parallel_efficiency: f64,
    /// Eq. 9 over per-rank useful time.
    pub load_balance: f64,
    /// `max useful / wall` (= `parallel_efficiency / load_balance`).
    pub comm_efficiency: f64,
    /// Per-rank useful seconds, rank order.
    pub per_rank_useful: Vec<f64>,
    /// Seconds per phase summed over ranks, in the caller's key order.
    pub per_phase: Vec<(&'static str, f64)>,
}

impl PopReport {
    /// Roll up `per_rank[r][i]`, rank `r`'s seconds in the phase keyed
    /// `keys[i]`, measured over `wall` seconds. The phase keyed [`MPI`]
    /// is communication; every other phase is useful. An idle run
    /// (`wall` 0) is perfectly efficient and an all-zero useful vector
    /// perfectly balanced.
    pub fn from_phase_seconds<R: AsRef<[f64]>>(
        keys: &[&'static str],
        per_rank: &[R],
        wall: f64,
    ) -> PopReport {
        let mut per_phase: Vec<(&'static str, f64)> = keys.iter().map(|k| (*k, 0.0)).collect();
        let mut per_rank_useful = Vec::with_capacity(per_rank.len());
        let mut mpi_time = 0.0f64;
        for row in per_rank {
            let mut useful = 0.0f64;
            for (slot, &secs) in per_phase.iter_mut().zip(row.as_ref()) {
                slot.1 += secs;
                if slot.0 == MPI {
                    mpi_time += secs;
                } else {
                    useful += secs;
                }
            }
            per_rank_useful.push(useful);
        }
        let useful_time: f64 = per_rank_useful.iter().sum();
        let max_useful = per_rank_useful.iter().copied().fold(0.0f64, f64::max);
        let n = per_rank.len().max(1) as f64;
        PopReport {
            ranks: per_rank.len(),
            wall_time: wall,
            useful_time,
            mpi_time,
            parallel_efficiency: if wall > 0.0 { useful_time / (n * wall) } else { 1.0 },
            load_balance: if max_useful > 0.0 { useful_time / (n * max_useful) } else { 1.0 },
            comm_efficiency: if wall > 0.0 { max_useful / wall } else { 1.0 },
            per_rank_useful,
            per_phase,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_matches_hand_computation() {
        // Rank 0: 2 s useful + 1 s MPI. Rank 1: 1 s useful + 2 s MPI.
        // Both over a 3 s wall.
        let keys = ["mpi", "assembly", "particles"];
        let r = PopReport::from_phase_seconds(&keys, &[[1.0, 2.0, 0.0], [2.0, 0.0, 1.0]], 3.0);
        assert_eq!(r.ranks, 2);
        assert_eq!(r.wall_time, 3.0);
        assert_eq!(r.useful_time, 3.0);
        assert_eq!(r.mpi_time, 3.0);
        assert_eq!(r.per_rank_useful, vec![2.0, 1.0]);
        assert_eq!(r.per_phase, vec![("mpi", 3.0), ("assembly", 2.0), ("particles", 1.0)]);
        // PE = 3 / (2*3) = 0.5; LB = 3 / (2*2) = 0.75; CommE = 2/3.
        assert!((r.parallel_efficiency - 0.5).abs() < 1e-12);
        assert!((r.load_balance - 0.75).abs() < 1e-12);
        assert!((r.comm_efficiency - 2.0 / 3.0).abs() < 1e-12);
        // The POP identity: PE = LB × CommE.
        assert!(
            (r.parallel_efficiency - r.load_balance * r.comm_efficiency).abs() < 1e-12
        );
    }

    #[test]
    fn idle_and_all_mpi_runs_keep_the_identity() {
        let keys = ["mpi", "sgs"];
        let idle = PopReport::from_phase_seconds(&keys, &[[0.0, 0.0]], 0.0);
        assert_eq!(
            (idle.parallel_efficiency, idle.load_balance, idle.comm_efficiency),
            (1.0, 1.0, 1.0)
        );
        let waiting = PopReport::from_phase_seconds(&keys, &[[2.0, 0.0]], 2.0);
        assert_eq!(waiting.parallel_efficiency, 0.0);
        assert_eq!(waiting.parallel_efficiency, waiting.load_balance * waiting.comm_efficiency);
    }
}
