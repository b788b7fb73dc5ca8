//! Aggregate efficiency metrics derived from a trace — the quantities a
//! performance analyst reads off a Paraver view: the POP rollup,
//! communication fraction, per-rank useful duty cycle.
//!
//! Every efficiency here comes from one [`PhaseTimes`] through
//! [`cfpd_telemetry::PopReport::from_phase_seconds`], so the campaign
//! report, `cfpd report`, the lost-cycles table and a served job's live
//! progress all read one formula.

use crate::event::{Phase, Trace};
use cfpd_telemetry::PopReport;

/// Per-rank seconds in each phase plus the wall time they were measured
/// over: everything the POP efficiencies need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimes {
    /// `per_rank[r][i]`: rank `r`'s seconds in `Phase::ALL[i]`.
    pub per_rank: Vec<[f64; Phase::ALL.len()]>,
    /// Wall seconds the phase times span.
    pub wall: f64,
}

impl PhaseTimes {
    /// The phase times of one run. The wall clock is the end of the
    /// last *phase* interval: worker-level events (which include the
    /// trailing barrier wait when tracing is on) are excluded.
    pub fn of(trace: &Trace) -> PhaseTimes {
        let mut per_rank = vec![[0.0f64; Phase::ALL.len()]; trace.num_ranks.max(1)];
        let mut wall = 0.0f64;
        for e in &trace.events {
            per_rank[e.rank][e.phase.index()] += e.duration();
            wall = wall.max(e.t_end);
        }
        PhaseTimes { per_rank, wall }
    }

    /// Nothing measured yet.
    pub fn is_empty(&self) -> bool {
        self.per_rank.is_empty()
    }

    /// Append a run that ran after the ones already summed: per-rank
    /// phase seconds add, and so do the wall times, because the runs
    /// did not overlap. Each run's useful time per rank is at most its
    /// wall time, so the sum keeps PE ≤ 1 however a job is cut into
    /// runs.
    pub fn append(&mut self, later: &PhaseTimes) {
        if self.per_rank.len() < later.per_rank.len() {
            self.per_rank.resize(later.per_rank.len(), [0.0; Phase::ALL.len()]);
        }
        for (mine, theirs) in self.per_rank.iter_mut().zip(&later.per_rank) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.wall += later.wall;
    }

    /// Seconds per phase summed over ranks, [`Phase::ALL`] order.
    pub fn per_phase(&self) -> [f64; Phase::ALL.len()] {
        let mut out = [0.0f64; Phase::ALL.len()];
        for row in &self.per_rank {
            for (o, s) in out.iter_mut().zip(row) {
                *o += s;
            }
        }
        out
    }

    /// The POP rollup of these phase times.
    pub fn pop(&self) -> PopReport {
        PopReport::from_phase_seconds(&Phase::ALL.map(Phase::key), &self.per_rank, self.wall)
    }
}

/// The POP rollup of one run, from its own phase trace.
pub fn pop_report(trace: &Trace) -> PopReport {
    PhaseTimes::of(trace).pop()
}

/// Efficiency summary of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total wall time (end of last phase interval).
    pub wall_time: f64,
    /// Σ useful (non-MPI) busy time over ranks.
    pub useful_time: f64,
    /// Σ time inside MPI.
    pub mpi_time: f64,
    /// Useful time / (ranks × wall): the classic parallel efficiency.
    pub parallel_efficiency: f64,
    /// MPI time / Σ busy time.
    pub comm_fraction: f64,
    /// Per-rank useful duty cycle (useful_r / wall).
    pub duty_cycle: Vec<f64>,
}

/// Compute the efficiency summary from the run's POP rollup.
pub fn trace_stats(trace: &Trace) -> TraceStats {
    let pop = pop_report(trace);
    let wall = pop.wall_time;
    let busy = pop.useful_time + pop.mpi_time;
    TraceStats {
        wall_time: wall,
        useful_time: pop.useful_time,
        mpi_time: pop.mpi_time,
        parallel_efficiency: pop.parallel_efficiency,
        comm_fraction: if busy > 0.0 { pop.mpi_time / busy } else { 0.0 },
        duty_cycle: pop
            .per_rank_useful
            .iter()
            .map(|&u| if wall > 0.0 { u / wall } else { 0.0 })
            .collect(),
    }
}

impl TraceStats {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "wall {:.4}s, parallel efficiency {:.1}%, comm fraction {:.1}%",
            self.wall_time,
            100.0 * self.parallel_efficiency,
            100.0 * self.comm_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_busy_trace_is_fully_efficient() {
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 1.0);
        t.record(1, Phase::Assembly, 0.0, 1.0);
        let s = trace_stats(&t);
        assert!((s.parallel_efficiency - 1.0).abs() < 1e-12);
        assert_eq!(s.comm_fraction, 0.0);
        assert_eq!(s.duty_cycle, vec![1.0, 1.0]);
    }

    #[test]
    fn idle_rank_halves_efficiency() {
        let mut t = Trace::new(2);
        t.record(0, Phase::Particles, 0.0, 2.0);
        // Rank 1 never works.
        let s = trace_stats(&t);
        assert!((s.parallel_efficiency - 0.5).abs() < 1e-12);
        assert_eq!(s.duty_cycle[1], 0.0);
    }

    #[test]
    fn mpi_time_counts_as_overhead() {
        let mut t = Trace::new(1);
        t.record(0, Phase::Solver1, 0.0, 3.0);
        t.record(0, Phase::MpiComm, 3.0, 4.0);
        let s = trace_stats(&t);
        assert!((s.comm_fraction - 0.25).abs() < 1e-12);
        assert!((s.parallel_efficiency - 0.75).abs() < 1e-12);
    }

    #[test]
    fn appended_runs_add_their_wall_times() {
        // One step as one run, or as two back-to-back runs: the same
        // efficiency, never above 1.
        let mut a = Trace::new(2);
        a.record(0, Phase::Assembly, 0.0, 1.0);
        a.record(1, Phase::Assembly, 0.0, 0.5);
        let mut sums = PhaseTimes::default();
        assert!(sums.is_empty());
        sums.append(&PhaseTimes::of(&a));
        sums.append(&PhaseTimes::of(&a));
        let pop = sums.pop();
        assert_eq!(pop.ranks, 2);
        assert_eq!(pop.wall_time, 2.0);
        assert!((pop.parallel_efficiency - 0.75).abs() < 1e-12);
        assert!((pop.parallel_efficiency - pop_report(&a).parallel_efficiency).abs() < 1e-12);
        assert_eq!(sums.per_phase()[Phase::Assembly.index()], 3.0);
    }

    #[test]
    fn empty_trace() {
        let s = trace_stats(&Trace::new(4));
        assert_eq!(s.wall_time, 0.0);
        assert_eq!(s.parallel_efficiency, 1.0);
        assert!(s.summary().contains("efficiency"));
    }
}
