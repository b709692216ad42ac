//! Analytic per-step workload description, the bridge between the real
//! solver and the architecture simulator.
//!
//! The discrete-event platform simulator (`ns-archsim`) replays the solver's
//! per-step structure — compute phases interleaved with the paper's message
//! protocol — without integrating any PDEs. This module derives that
//! structure from the same per-point cost constants the live solver's FLOP
//! ledger uses, so a unit test can pin the two against each other.

use crate::config::Regime;
use crate::field::{Patch, NG};
use crate::opcount;
use serde::Serialize;

/// One element of a rank's per-step program.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum PhaseOp {
    /// Busy computation of `flops` floating-point operations.
    Compute {
        /// Phase label (for per-phase reporting).
        label: &'static str,
        /// FP operations in this phase.
        flops: u64,
    },
    /// Grouped primitive-column exchange with both neighbours
    /// (`u, v, T` — one column each way; the paper's "velocity and
    /// temperature values … packaged into a single send").
    ExchangePrims {
        /// Message payload per neighbour, in bytes.
        bytes: u64,
    },
    /// Two-column flux exchange with both neighbours ("the two flux columns
    /// nearest each boundary are combined into a single send").
    ExchangeFlux {
        /// Message payload per neighbour, in bytes.
        bytes: u64,
    },
    /// Primitive ghost-*row* exchange with the radial neighbours of a 2-D
    /// pencil (one padded-width row each way; viscous runs only).
    ExchangePrimsR {
        /// Message payload per radial neighbour, in bytes.
        bytes: u64,
    },
    /// Two-row flux exchange with the radial neighbours of a 2-D pencil
    /// (the 2-4 stencil reads `j±2`).
    ExchangeFluxR {
        /// Message payload per radial neighbour, in bytes.
        bytes: u64,
    },
}

/// Per-step workload of one rank.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct StepWorkload {
    /// Operations in program order.
    pub ops: Vec<PhaseOp>,
}

/// Bytes of one grouped primitive message (`u, v, T`, one halo line of
/// `points` values per variable).
pub fn prim_message_bytes(points: usize) -> u64 {
    (3 * points * 8) as u64
}

/// Bytes of one two-line flux message (4 components).
pub fn flux_message_bytes(points: usize) -> u64 {
    (4 * 2 * points * 8) as u64
}

/// Build the per-step program of the rank owning `patch` (`nxl` columns ×
/// `nrl` rows of a `px × pr` split; the paper's axial blocks are `pr = 1`).
///
/// Structure (matching `scheme::{x_operator, r_operator}` exactly):
///
/// * axial operator: prims, **exchange prims**, F, **exchange flux**,
///   predictor, prims, (**exchange prims** — N-S only), F, **exchange
///   flux**, corrector, with column messages of `nrl` points. Per step that
///   is 4 sends + 4 receives per axial neighbour for N-S (16 start-ups with
///   two neighbours) and 3 + 3 for Euler (12), which reproduces the paper's
///   Table 1 start-up counts.
/// * radial operator: the same phases, communicating only with radial
///   neighbours: one primitive ghost row each way before every viscous flux
///   evaluation (all four stages — the viscous stress tensor takes radial
///   derivatives in *both* operators), and a two-row flux packet around
///   each radial flux stage. Euler's fluxes are point-local in the
///   primitives, so only the two flux rows remain: 12 radial start-ups per
///   step per radial neighbour for N-S against 4 for Euler. Radial rows
///   span the padded width `nxl + 2 NG`, which is how the edge-adjacent
///   corner strips travel. A rank without radial neighbours (every rank of
///   a `P × 1` layout) makes none of these exchanges.
///
/// The radial updates exclude the far-field row, so a patch that owns it
/// (`j0 + nrl == nr`) updates one row fewer.
pub fn step_workload(regime: Regime, patch: &Patch) -> StepWorkload {
    let (nxl, nrl) = (patch.nxl, patch.nrl);
    let update_rows = nrl - usize::from(patch.j0 + nrl == patch.grid.nr);
    let pts = (nxl * nrl) as u64;
    let viscous = regime == Regime::NavierStokes;
    let flux_cost = if viscous { opcount::COST_FLUX_VISCOUS } else { opcount::COST_FLUX_INVISCID };
    let prim_bytes = prim_message_bytes(nrl);
    let flux_bytes = flux_message_bytes(nrl);
    let row_points = nxl + 2 * NG;
    let prim_r_bytes = prim_message_bytes(row_points);
    let flux_r_bytes = flux_message_bytes(row_points);

    let mut ops = Vec::with_capacity(24);
    // --- radial operator ---------------------------------------------------
    ops.push(PhaseOp::Compute { label: "r:prims", flops: pts * opcount::COST_PRIMS });
    if viscous {
        ops.push(PhaseOp::ExchangePrimsR { bytes: prim_r_bytes });
    }
    ops.push(PhaseOp::Compute { label: "r:flux", flops: pts * (flux_cost + opcount::COST_SOURCE) });
    ops.push(PhaseOp::ExchangeFluxR { bytes: flux_r_bytes });
    ops.push(PhaseOp::Compute {
        label: "r:predict",
        flops: (nxl * update_rows) as u64 * (opcount::COST_PREDICTOR + 2),
    });
    ops.push(PhaseOp::Compute { label: "r:prims2", flops: pts * opcount::COST_PRIMS });
    if viscous {
        ops.push(PhaseOp::ExchangePrimsR { bytes: prim_r_bytes });
    }
    ops.push(PhaseOp::Compute { label: "r:flux2", flops: pts * (flux_cost + opcount::COST_SOURCE) });
    ops.push(PhaseOp::ExchangeFluxR { bytes: flux_r_bytes });
    ops.push(PhaseOp::Compute {
        label: "r:correct",
        flops: (nxl * update_rows) as u64 * (opcount::COST_CORRECTOR + 2),
    });
    // --- axial operator ----------------------------------------------------
    ops.push(PhaseOp::Compute { label: "x:prims", flops: pts * opcount::COST_PRIMS });
    if viscous {
        ops.push(PhaseOp::ExchangePrimsR { bytes: prim_r_bytes });
    }
    ops.push(PhaseOp::ExchangePrims { bytes: prim_bytes });
    ops.push(PhaseOp::Compute { label: "x:flux", flops: pts * flux_cost });
    ops.push(PhaseOp::ExchangeFlux { bytes: flux_bytes });
    ops.push(PhaseOp::Compute { label: "x:predict", flops: pts * opcount::COST_PREDICTOR });
    ops.push(PhaseOp::Compute { label: "x:prims2", flops: pts * opcount::COST_PRIMS });
    if viscous {
        ops.push(PhaseOp::ExchangePrimsR { bytes: prim_r_bytes });
        ops.push(PhaseOp::ExchangePrims { bytes: prim_bytes });
    }
    ops.push(PhaseOp::Compute { label: "x:flux2", flops: pts * flux_cost });
    ops.push(PhaseOp::ExchangeFlux { bytes: flux_bytes });
    ops.push(PhaseOp::Compute { label: "x:correct", flops: pts * opcount::COST_CORRECTOR });

    StepWorkload { ops }
}

impl StepWorkload {
    /// Rewrite the compute-phase labels to the fused V6/V7 vocabulary (each
    /// prims phase merges into the flux sweep that follows it). The flops
    /// and the message protocol are identical across versions — only the
    /// labels change. (A live V7 solver spends most of its `*:predict` /
    /// `*:correct` flops inside the `*:fused*` sweeps — see
    /// [`crate::scheme::x_operator`]; the program keeps them under the
    /// update labels, where the FLOP ledger counts them.)
    pub fn relabel_fused(&mut self) {
        for op in &mut self.ops {
            if let PhaseOp::Compute { label, .. } = op {
                *label = match *label {
                    "r:prims" | "r:flux" => "r:fused",
                    "r:prims2" | "r:flux2" => "r:fused2",
                    "x:prims" | "x:flux" => "x:fused",
                    "x:prims2" | "x:flux2" => "x:fused2",
                    other => other,
                };
            }
        }
    }

    /// Total compute FLOPs per step.
    pub fn compute_flops(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                PhaseOp::Compute { flops, .. } => *flops,
                _ => 0,
            })
            .sum()
    }

    /// Message start-ups per step of a rank with `axial` axial and `radial`
    /// radial neighbours, counting each send and each receive (the paper's
    /// convention: Table 1 reports 80,000 N-S start-ups per processor over
    /// 5000 steps at 16 processors, i.e. 16 per step with two neighbours).
    pub fn startups_per_step(&self, axial: usize, radial: usize) -> u64 {
        self.per_exchange(axial, radial, |_| 2) // one send + one recv per neighbour
    }

    /// Bytes sent per step of a rank with `axial` axial and `radial` radial
    /// neighbours.
    pub fn bytes_sent_per_step(&self, axial: usize, radial: usize) -> u64 {
        self.per_exchange(axial, radial, |bytes| bytes)
    }

    /// Sum of `f(bytes)` over the exchanges, each counted once per
    /// neighbour in its direction.
    fn per_exchange(&self, axial: usize, radial: usize, f: impl Fn(u64) -> u64) -> u64 {
        self.ops
            .iter()
            .map(|op| match *op {
                PhaseOp::Compute { .. } => 0,
                PhaseOp::ExchangePrims { bytes } | PhaseOp::ExchangeFlux { bytes } => f(bytes) * axial as u64,
                PhaseOp::ExchangePrimsR { bytes } | PhaseOp::ExchangeFluxR { bytes } => f(bytes) * radial as u64,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_numerics::Grid;

    /// Rank `rank` of the paper's `p × 1` axial split.
    fn axial(regime: Regime, rank: usize, p: usize) -> StepWorkload {
        step_workload(regime, &Patch::block(Grid::paper(), rank, p))
    }

    fn whole(regime: Regime) -> StepWorkload {
        step_workload(regime, &Patch::whole(Grid::paper()))
    }

    #[test]
    fn navier_stokes_has_16_startups_per_step() {
        let w = axial(Regime::NavierStokes, 1, 16);
        assert_eq!(w.startups_per_step(2, 0), 16);
        // 5000 steps -> the paper's 80,000 per-processor start-ups
        assert_eq!(w.startups_per_step(2, 0) * 5000, 80_000);
    }

    #[test]
    fn euler_has_12_startups_per_step() {
        let w = axial(Regime::Euler, 1, 16);
        assert_eq!(w.startups_per_step(2, 0), 12);
        assert_eq!(w.startups_per_step(2, 0) * 5000, 60_000);
    }

    #[test]
    fn message_sizes_follow_grid() {
        let g = Grid::paper();
        assert_eq!(prim_message_bytes(g.nr), 2400);
        assert_eq!(flux_message_bytes(g.nr), 6400);
    }

    #[test]
    fn euler_computes_roughly_half_of_ns() {
        let ns = whole(Regime::NavierStokes).compute_flops();
        let eu = whole(Regime::Euler).compute_flops();
        let ratio = eu as f64 / ns as f64;
        // the paper's Table 1 ratio is 77/145 = 0.53
        assert!(ratio > 0.4 && ratio < 0.75, "ratio {ratio}");
    }

    #[test]
    fn compute_scales_linearly_with_columns() {
        // 250 columns: rank 0 of 2 owns 125, the whole grid 250
        let a = axial(Regime::NavierStokes, 0, 2).compute_flops();
        let b = whole(Regime::NavierStokes).compute_flops();
        let rel = (b as f64 - 2.0 * a as f64).abs() / b as f64;
        assert!(rel < 1e-12, "linear in nxl");
    }

    #[test]
    fn v6_workload_fuses_labels_but_not_flops_or_protocol() {
        let v5 = axial(Regime::NavierStokes, 1, 16);
        let mut v6 = v5.clone();
        v6.relabel_fused();
        assert_eq!(v5.compute_flops(), v6.compute_flops());
        assert_eq!(v5.startups_per_step(2, 2), v6.startups_per_step(2, 2));
        assert_eq!(v5.bytes_sent_per_step(2, 2), v6.bytes_sent_per_step(2, 2));
        assert_eq!(v5.ops.len(), v6.ops.len());
        let labels: Vec<&str> = v6
            .ops
            .iter()
            .filter_map(|op| match op {
                PhaseOp::Compute { label, .. } => Some(*label),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&"r:fused") && labels.contains(&"x:fused2"));
        assert!(!labels.iter().any(|l| l.contains("prims") || l.ends_with("flux") || l.ends_with("flux2")));
        // the predictor/corrector phases keep their names
        assert!(labels.contains(&"x:predict") && labels.contains(&"r:correct"));
    }

    #[test]
    fn edge_rank_sends_half_of_interior_rank() {
        let w = axial(Regime::NavierStokes, 1, 16);
        assert_eq!(w.bytes_sent_per_step(1, 0) * 2, w.bytes_sent_per_step(2, 0));
    }

    /// An interior pencil of a 16 x 8 split: 16 columns x 12 rows, below
    /// the far-field row.
    fn interior_pencil(regime: Regime) -> StepWorkload {
        let patch = Patch::pencil(Grid::paper(), (1, 4), (16, 8));
        assert_eq!((patch.nxl, patch.nrl), (16, 12));
        assert!(patch.j0 + patch.nrl < patch.grid.nr);
        step_workload(regime, &patch)
    }

    #[test]
    fn pencil_radial_protocol_startup_counts() {
        // N-S: 4 axial exchanges (16 start-ups with two axial neighbours)
        // plus 6 radial ones (24 with two radial neighbours)
        let ns = interior_pencil(Regime::NavierStokes);
        assert_eq!(ns.startups_per_step(2, 0), 16);
        assert_eq!(ns.startups_per_step(2, 2), 40);
        // Euler: point-local fluxes keep only the two flux-row exchanges
        let eu = interior_pencil(Regime::Euler);
        assert_eq!(eu.startups_per_step(2, 0), 12);
        assert_eq!(eu.startups_per_step(2, 2), 20);
    }

    #[test]
    fn pencil_radial_rows_span_padded_width() {
        let w = interior_pencil(Regime::NavierStokes);
        let row_bytes: Vec<u64> = w
            .ops
            .iter()
            .filter_map(|op| match op {
                PhaseOp::ExchangePrimsR { bytes } => Some(*bytes),
                _ => None,
            })
            .collect();
        // 3 planes x (nxl + 2 NG) points x 8 bytes: the corner strips ride
        // along with the owned row
        assert!(row_bytes.iter().all(|&b| b == 3 * (16 + 2 * NG as u64) * 8));
    }
}
