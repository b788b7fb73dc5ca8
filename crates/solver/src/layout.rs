//! The locality layout: one choice between the reference path and the
//! optimized one.
//!
//! [`LayoutPlan::Opt`] groups the three changes that move bits relative
//! to the reference path: RCM node reordering (applied to the mesh
//! before solvers are built), kind-batched SoA assembly (it regroups
//! the scatter-add summation) and the fused deterministic pressure CG.
//! Opt always runs the batched assembly with lane-SIMD element kernels
//! and feeds the fused CG through a SELL-C-σ mirror; both refinements
//! are bit-identical to the code they replace, so they are parts of
//! `Opt`, not choices of their own.
//!
//! [`LayoutPlan::Default`] is the reference path: its golden trace
//! (`tests/golden/sync_small.golden`) must stay byte-identical whether
//! or not the opt code is compiled in. `Opt` is pinned by its own
//! golden (`tests/golden/sync_small_opt.golden`).

/// Which layout a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutPlan {
    /// Native node order, per-element assembly, serial reference CG.
    #[default]
    Default,
    /// RCM node order, kind-batched lane-kernel assembly, fused SELL CG.
    Opt,
}

impl LayoutPlan {
    /// Every layout, in label order.
    pub const ALL: [LayoutPlan; 2] = [LayoutPlan::Default, LayoutPlan::Opt];

    /// Parse a layout label (`default` or `opt`); `None` otherwise.
    pub fn parse(label: &str) -> Option<LayoutPlan> {
        LayoutPlan::ALL.into_iter().find(|l| l.label() == label)
    }

    /// True for the optimized layout.
    pub fn is_opt(self) -> bool {
        self == LayoutPlan::Opt
    }

    /// Short label for CLI values, trace headers and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            LayoutPlan::Default => "default",
            LayoutPlan::Opt => "opt",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_are_distinct() {
        assert_eq!(LayoutPlan::default(), LayoutPlan::Default);
        for l in LayoutPlan::ALL {
            assert_eq!(LayoutPlan::parse(l.label()), Some(l));
        }
        assert_ne!(LayoutPlan::Default.label(), LayoutPlan::Opt.label());
    }
}
