//! Analytic per-step workload description, the bridge between the real
//! solver and the architecture simulator.
//!
//! The discrete-event platform simulator (`ns-archsim`) replays the solver's
//! per-step structure — compute phases interleaved with the paper's message
//! protocol — without integrating any PDEs. This module derives that
//! structure from the same per-point cost constants the live solver's FLOP
//! ledger uses, so a unit test can pin the two against each other.

use crate::config::Regime;
use crate::opcount;
use ns_numerics::Grid;
use serde::Serialize;

/// Which direction the domain is decomposed in.
///
/// The paper decomposes "by blocks along the axial direction only" and
/// names radial blocking as future work ("We will then explore other
/// problem decompositions such as blocking along the radial direction");
/// [`step_workload_decomposed`] models both so the ablation can be run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Decomposition {
    /// Axial blocks (the paper's choice): halo columns of `nr` points.
    Axial,
    /// Radial blocks: halo rows of `nx` points, exchanged around the radial
    /// operator instead.
    Radial,
}

/// Length of the `rank`-th of `size` blocks over `n` cells (the standard
/// remainder-spreading rule, matching `field::Patch::block`).
pub fn block_len(n: usize, rank: usize, size: usize) -> usize {
    n / size + usize::from(rank < n % size)
}

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

impl PhaseOp {
    /// True for the axial (column) exchanges of the paper's protocol.
    pub fn is_axial_exchange(&self) -> bool {
        matches!(self, PhaseOp::ExchangePrims { .. } | PhaseOp::ExchangeFlux { .. })
    }

    /// True for the radial (row) exchanges of the pencil protocol.
    pub fn is_radial_exchange(&self) -> bool {
        matches!(self, PhaseOp::ExchangePrimsR { .. } | PhaseOp::ExchangeFluxR { .. })
    }
}

/// Per-step workload of one rank owning `nxl` axial columns.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct StepWorkload {
    /// Operations in program order.
    pub ops: Vec<PhaseOp>,
    /// Number of radial points (sets message sizes).
    pub nr: usize,
    /// Number of owned axial columns.
    pub nxl: usize,
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

/// Build the per-step program of a rank with `nxl` owned columns.
///
/// Structure (matching `scheme::{x_operator, r_operator}` exactly):
///
/// * radial operator: prims, G+S, predictor, prims, G+S, corrector — no
///   communication;
/// * axial operator: prims, **exchange prims**, F, **exchange flux**,
///   predictor, prims, (**exchange prims** — N-S only), F, **exchange
///   flux**, corrector.
///
/// Per step that is 4 sends + 4 receives per internal neighbour pair for
/// N-S (16 start-ups with two neighbours) and 3 + 3 for Euler (12), which
/// reproduces the paper's Table 1 start-up counts.
pub fn step_workload(regime: Regime, grid: &Grid, nxl: usize) -> StepWorkload {
    // axial ranks span the full radial extent, so every one of them owns
    // the far-field row its radial updates exclude
    step_workload_decomposed(regime, grid, nxl, Decomposition::Axial, true)
}

/// Build the per-step program for either decomposition direction; `local`
/// is the number of owned columns (axial) or rows (radial), and
/// `owns_far_field` says whether this rank's radial extent reaches the
/// far-field boundary (whose row the radial updates exclude) — always true
/// for axial blocks, true only for the top rank of a radial decomposition.
pub fn step_workload_decomposed(
    regime: Regime,
    grid: &Grid,
    local: usize,
    decomp: Decomposition,
    owns_far_field: bool,
) -> StepWorkload {
    let (nxl, nrl) = match decomp {
        Decomposition::Axial => (local, grid.nr),
        Decomposition::Radial => (grid.nx, local),
    };
    let update_rows = nrl - usize::from(owns_far_field);
    let pts = (nxl * nrl) as u64;
    let viscous = regime == Regime::NavierStokes;
    let flux_cost = if viscous { opcount::COST_FLUX_VISCOUS } else { opcount::COST_FLUX_INVISCID };
    // halo lines run across the *other* direction
    let halo_points = match decomp {
        Decomposition::Axial => nrl,
        Decomposition::Radial => nxl,
    };
    let prim_bytes = prim_message_bytes(halo_points);
    let flux_bytes = flux_message_bytes(halo_points);
    let comm_in_r = decomp == Decomposition::Radial;

    let mut ops = Vec::with_capacity(18);
    // --- radial operator (communicates only under radial decomposition) ---
    ops.push(PhaseOp::Compute { label: "r:prims", flops: pts * opcount::COST_PRIMS });
    if comm_in_r {
        ops.push(PhaseOp::ExchangePrims { bytes: prim_bytes });
    }
    ops.push(PhaseOp::Compute { label: "r:flux", flops: pts * (flux_cost + opcount::COST_SOURCE) });
    if comm_in_r {
        ops.push(PhaseOp::ExchangeFlux { bytes: flux_bytes });
    }
    ops.push(PhaseOp::Compute {
        label: "r:predict",
        flops: (nxl * update_rows) as u64 * (opcount::COST_PREDICTOR + 2),
    });
    ops.push(PhaseOp::Compute { label: "r:prims2", flops: pts * opcount::COST_PRIMS });
    if comm_in_r && viscous {
        ops.push(PhaseOp::ExchangePrims { bytes: prim_bytes });
    }
    ops.push(PhaseOp::Compute { label: "r:flux2", flops: pts * (flux_cost + opcount::COST_SOURCE) });
    if comm_in_r {
        ops.push(PhaseOp::ExchangeFlux { bytes: flux_bytes });
    }
    ops.push(PhaseOp::Compute {
        label: "r:correct",
        flops: (nxl * update_rows) as u64 * (opcount::COST_CORRECTOR + 2),
    });
    // --- axial operator (communicates only under axial decomposition) ---
    ops.push(PhaseOp::Compute { label: "x:prims", flops: pts * opcount::COST_PRIMS });
    if !comm_in_r {
        ops.push(PhaseOp::ExchangePrims { bytes: prim_bytes });
    }
    ops.push(PhaseOp::Compute { label: "x:flux", flops: pts * flux_cost });
    if !comm_in_r {
        ops.push(PhaseOp::ExchangeFlux { bytes: flux_bytes });
    }
    ops.push(PhaseOp::Compute { label: "x:predict", flops: pts * opcount::COST_PREDICTOR });
    ops.push(PhaseOp::Compute { label: "x:prims2", flops: pts * opcount::COST_PRIMS });
    if !comm_in_r && viscous {
        ops.push(PhaseOp::ExchangePrims { bytes: prim_bytes });
    }
    ops.push(PhaseOp::Compute { label: "x:flux2", flops: pts * flux_cost });
    if !comm_in_r {
        ops.push(PhaseOp::ExchangeFlux { bytes: flux_bytes });
    }
    ops.push(PhaseOp::Compute { label: "x:correct", flops: pts * opcount::COST_CORRECTOR });

    StepWorkload { ops, nr: nrl, nxl }
}

/// Build the per-step program of one pencil of a 2-D (axial × radial)
/// decomposition owning `nxl` columns × `nrl` rows.
///
/// The axial protocol is the paper's, with column messages of `nrl` points.
/// The radial protocol mirrors it around the radial sweeps: one primitive
/// ghost row each way before every viscous flux evaluation (all four
/// stages — the viscous stress tensor takes radial derivatives in *both*
/// operators), and a two-row flux packet around each radial flux stage.
/// Euler's fluxes are point-local in the primitives, so only the two flux
/// rows remain: 12 radial start-ups per step per interior neighbour pair
/// for N-S against 4 for Euler. Radial rows span the padded width
/// `nxl + 2 NG`, which is how the edge-adjacent corner strips travel.
pub fn step_workload_pencil(regime: Regime, grid: &Grid, nxl: usize, nrl: usize, owns_far_field: bool) -> StepWorkload {
    debug_assert!(nxl <= grid.nx && nrl <= grid.nr, "pencil exceeds the grid");
    let update_rows = nrl - usize::from(owns_far_field);
    let pts = (nxl * nrl) as u64;
    let viscous = regime == Regime::NavierStokes;
    let flux_cost = if viscous { opcount::COST_FLUX_VISCOUS } else { opcount::COST_FLUX_INVISCID };
    let prim_bytes = prim_message_bytes(nrl);
    let flux_bytes = flux_message_bytes(nrl);
    let row_points = nxl + 2 * crate::field::NG;
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

    StepWorkload { ops, nr: nrl, nxl }
}

/// Build the per-step program with phase labels matching `version`'s timer
/// vocabulary. V1–V5 share the prims/flux phase split; the fused V6/V7 path
/// merges primitive recovery into the flux sweep, so its timers report the
/// combined phases as `r:fused` / `x:fused2` etc. The flops and the message
/// protocol are identical across versions — only the labels change. (A live
/// V7 solver spends most of its `*:predict` / `*:correct` flops inside the
/// `*:fused*` sweeps — see [`crate::scheme::x_operator`]; the program here
/// keeps them under the update labels, where the FLOP ledger counts them.)
pub fn step_workload_versioned(
    regime: Regime,
    grid: &Grid,
    nxl: usize,
    version: crate::config::Version,
) -> StepWorkload {
    let mut w = step_workload(regime, grid, nxl);
    if version >= crate::config::Version::V6 {
        w.relabel_fused();
    }
    w
}

impl StepWorkload {
    /// Rewrite the compute-phase labels to the fused V6/V7 vocabulary (each
    /// prims phase merges into the flux sweep that follows it).
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

    /// Message start-ups per step for a rank with `neighbors` neighbours,
    /// counting each send and each receive (the paper's convention: Table 1
    /// reports 80,000 N-S start-ups per processor over 5000 steps at 16
    /// processors, i.e. 16 per step with two neighbours).
    pub fn startups_per_step(&self, neighbors: usize) -> u64 {
        let exchanges = self.ops.iter().filter(|op| !matches!(op, PhaseOp::Compute { .. })).count() as u64;
        exchanges * neighbors as u64 * 2 // one send + one recv per neighbour
    }

    /// Bytes sent per step for a rank with `neighbors` neighbours.
    pub fn bytes_sent_per_step(&self, neighbors: usize) -> u64 {
        let per_neighbor: u64 = self
            .ops
            .iter()
            .map(|op| match op {
                PhaseOp::ExchangePrims { bytes } | PhaseOp::ExchangeFlux { bytes } => *bytes,
                _ => 0,
            })
            .sum();
        per_neighbor * neighbors as u64
    }

    /// Message start-ups per step of a pencil rank, counting axial and
    /// radial exchanges against their own neighbour counts.
    pub fn startups_per_step_pencil(&self, ax_neighbors: usize, rad_neighbors: usize) -> u64 {
        let ax = self.ops.iter().filter(|op| op.is_axial_exchange()).count() as u64;
        let rad = self.ops.iter().filter(|op| op.is_radial_exchange()).count() as u64;
        (ax * ax_neighbors as u64 + rad * rad_neighbors as u64) * 2
    }

    /// Bytes sent per step of a pencil rank.
    pub fn bytes_sent_per_step_pencil(&self, ax_neighbors: usize, rad_neighbors: usize) -> u64 {
        let mut total = 0u64;
        for op in &self.ops {
            match op {
                PhaseOp::ExchangePrims { bytes } | PhaseOp::ExchangeFlux { bytes } => {
                    total += bytes * ax_neighbors as u64;
                }
                PhaseOp::ExchangePrimsR { bytes } | PhaseOp::ExchangeFluxR { bytes } => {
                    total += bytes * rad_neighbors as u64;
                }
                PhaseOp::Compute { .. } => {}
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn navier_stokes_has_16_startups_per_step() {
        let w = step_workload(Regime::NavierStokes, &Grid::paper(), 16);
        assert_eq!(w.startups_per_step(2), 16);
        // 5000 steps -> the paper's 80,000 per-processor start-ups
        assert_eq!(w.startups_per_step(2) * 5000, 80_000);
    }

    #[test]
    fn euler_has_12_startups_per_step() {
        let w = step_workload(Regime::Euler, &Grid::paper(), 16);
        assert_eq!(w.startups_per_step(2), 12);
        assert_eq!(w.startups_per_step(2) * 5000, 60_000);
    }

    #[test]
    fn message_sizes_follow_grid() {
        let g = Grid::paper();
        assert_eq!(prim_message_bytes(g.nr), 2400);
        assert_eq!(flux_message_bytes(g.nr), 6400);
    }

    #[test]
    fn euler_computes_roughly_half_of_ns() {
        let g = Grid::paper();
        let ns = step_workload(Regime::NavierStokes, &g, g.nx).compute_flops();
        let eu = step_workload(Regime::Euler, &g, g.nx).compute_flops();
        let ratio = eu as f64 / ns as f64;
        // the paper's Table 1 ratio is 77/145 = 0.53
        assert!(ratio > 0.4 && ratio < 0.75, "ratio {ratio}");
    }

    #[test]
    fn compute_scales_linearly_with_columns() {
        let g = Grid::paper();
        let a = step_workload(Regime::NavierStokes, &g, 100).compute_flops();
        let b = step_workload(Regime::NavierStokes, &g, 200).compute_flops();
        let rel = (b as f64 - 2.0 * a as f64).abs() / b as f64;
        assert!(rel < 1e-12, "linear in nxl");
    }

    #[test]
    fn v6_workload_fuses_labels_but_not_flops_or_protocol() {
        use crate::config::Version;
        let g = Grid::paper();
        let v5 = step_workload_versioned(Regime::NavierStokes, &g, 16, Version::V5);
        let v6 = step_workload_versioned(Regime::NavierStokes, &g, 16, Version::V6);
        assert_eq!(v5, step_workload(Regime::NavierStokes, &g, 16));
        assert_eq!(v5.compute_flops(), v6.compute_flops());
        assert_eq!(v5.startups_per_step(2), v6.startups_per_step(2));
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
        let w = step_workload(Regime::NavierStokes, &Grid::paper(), 16);
        assert_eq!(w.bytes_sent_per_step(1) * 2, w.bytes_sent_per_step(2));
    }

    #[test]
    fn pencil_radial_protocol_startup_counts() {
        let g = Grid::paper();
        // N-S: 4 axial exchanges (16 start-ups with two axial neighbours)
        // plus 6 radial ones (24 with two radial neighbours)
        let ns = step_workload_pencil(Regime::NavierStokes, &g, 16, 12, false);
        assert_eq!(ns.startups_per_step_pencil(2, 0), 16);
        assert_eq!(ns.startups_per_step_pencil(2, 2), 40);
        // Euler: point-local fluxes keep only the two flux-row exchanges
        let eu = step_workload_pencil(Regime::Euler, &g, 16, 12, false);
        assert_eq!(eu.startups_per_step_pencil(2, 0), 12);
        assert_eq!(eu.startups_per_step_pencil(2, 2), 20);
    }

    #[test]
    fn pencil_degenerates_to_axial_compute() {
        let g = Grid::paper();
        let axial = step_workload(Regime::NavierStokes, &g, 16);
        let pencil = step_workload_pencil(Regime::NavierStokes, &g, 16, g.nr, true);
        assert_eq!(axial.compute_flops(), pencil.compute_flops());
        // with no radial neighbours the pencil sends exactly the axial bytes
        assert_eq!(axial.bytes_sent_per_step(2), pencil.bytes_sent_per_step_pencil(2, 0));
    }

    #[test]
    fn pencil_radial_rows_span_padded_width() {
        let g = Grid::paper();
        let w = step_workload_pencil(Regime::NavierStokes, &g, 16, 12, false);
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
        assert!(row_bytes.iter().all(|&b| b == 3 * (16 + 2 * crate::field::NG as u64) * 8));
    }
}
