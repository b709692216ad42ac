//! The 2-D pencil strong-scaling study: `1 × P` / `P × 1` slabs versus the
//! near-square pencil on simulated large machines, written as the
//! schema-versioned `BENCH_scaling.json` and rendered by
//! `jetns scaling-report`.
//!
//! The paper decomposes along the axial direction only and names 2-D
//! blocking as the obvious next step once processor counts outgrow the
//! column count. This study runs that step on the calibrated simulator: a
//! 512 × 512 strong-scaling grid at P = 32/64/128 virtual ranks on two
//! projection fabrics (a 10 Gbps fat tree and a scaled-out T3D torus),
//! comparing both slab orientations against [`CartTopology::factor`]'s
//! surface-minimizing shape.

use ns_archsim::{simulate, Platform, SimConfig};
use ns_core::config::{Regime, SolverConfig};
use ns_numerics::Grid;
use ns_runtime::CartTopology;
use serde::{Deserialize, Serialize};

/// Schema tag of `BENCH_scaling.json`.
pub const SCALING_SCHEMA: &str = "ns-archsim/scaling/v1";

/// One simulated (platform, rank-shape) cell of the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingCell {
    /// Platform display name.
    pub platform: String,
    /// Total virtual ranks (`px * pr`).
    pub procs: usize,
    /// Axial ranks.
    pub px: usize,
    /// Radial ranks.
    pub pr: usize,
    /// Wall-clock execution time of the slowest rank, seconds.
    pub total_seconds: f64,
    /// Mean per-rank busy time, seconds.
    pub busy_mean_seconds: f64,
    /// Communication time: blocked receives plus message software costs
    /// (`comm:send` / `comm:recv` / `comm:stall`), summed over ranks.
    pub comm_seconds: f64,
    /// Worst per-rank non-overlapped wait, seconds.
    pub wait_max_seconds: f64,
    /// Message start-ups, summed over ranks.
    pub startups: u64,
    /// Bytes sent, summed over ranks.
    pub bytes_sent: u64,
}

/// The whole sweep, the contents of `BENCH_scaling.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingData {
    /// Schema tag ([`SCALING_SCHEMA`]).
    pub schema: String,
    /// `"euler"` or `"navier-stokes"`.
    pub regime: String,
    /// Strong-scaling grid columns.
    pub nx: usize,
    /// Strong-scaling grid rows.
    pub nr: usize,
    /// Steps the times are scaled to.
    pub report_steps: u64,
    /// Steps actually simulated.
    pub sim_steps: u64,
    /// True for the CI smoke variant (P = 32 only).
    pub quick: bool,
    /// All simulated cells.
    pub cells: Vec<ScalingCell>,
}

/// The strong-scaling grid: square, so neither slab orientation is favored
/// by the domain shape, and large enough that P = 128 slabs stay feasible
/// (512 / 128 = 4 columns or rows, the decomposition minimum).
pub fn scaling_grid() -> Grid {
    Grid::new(512, 512, 50.0, 5.0)
}

fn cell(platform: Platform, grid: &Grid, topology: CartTopology) -> ScalingCell {
    let r = simulate(&SimConfig {
        topology,
        solver: SolverConfig::paper(grid.clone(), Regime::NavierStokes),
        report_steps: 1000,
        sim_steps: 5,
        ..SimConfig::paper(platform, 1, Regime::NavierStokes)
    });
    let comm: f64 = r.wait.iter().sum::<f64>()
        + ["comm:send", "comm:recv", "comm:stall"].iter().filter_map(|l| r.phase_seconds.get(l)).sum::<f64>();
    ScalingCell {
        platform: platform.name.to_string(),
        procs: topology.size(),
        px: topology.px,
        pr: topology.pr,
        total_seconds: r.total,
        busy_mean_seconds: r.mean_busy(),
        comm_seconds: comm,
        wait_max_seconds: r.max_wait(),
        startups: r.startups.iter().sum(),
        bytes_sent: r.bytes_sent.iter().sum(),
    }
}

/// The three shapes compared at each processor count: the pure radial slab,
/// the paper's axial slab, and the surface-minimizing near-square pencil.
pub fn shapes(p: usize, grid: &Grid) -> Vec<CartTopology> {
    let mut out = vec![CartTopology { px: 1, pr: p }, CartTopology::axial(p)];
    if let Ok(t) = CartTopology::factor(p, grid.nx, grid.nr) {
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// Run the sweep. `quick` restricts to P = 32 (the CI smoke job); the full
/// sweep covers P = 32/64/128 on both projection fabrics.
pub fn sweep(quick: bool) -> ScalingData {
    let grid = scaling_grid();
    let procs: &[usize] = if quick { &[32] } else { &[32, 64, 128] };
    let mut cells = Vec::new();
    for platform in [Platform::cluster_fat_tree(), Platform::torus_cluster()] {
        for &p in procs {
            for topology in shapes(p, &grid) {
                cells.push(cell(platform, &grid, topology));
            }
        }
    }
    ScalingData {
        schema: SCALING_SCHEMA.to_string(),
        regime: "navier-stokes".to_string(),
        nx: grid.nx,
        nr: grid.nr,
        report_steps: 1000,
        sim_steps: 5,
        quick,
        cells,
    }
}

/// Parse the JSON text of `BENCH_scaling.json`.
pub fn parse(json: &str) -> Result<ScalingData, String> {
    let data: ScalingData = serde_json::from_str(json).map_err(|e| format!("BENCH_scaling.json: {e}"))?;
    if !data.schema.starts_with("ns-archsim/scaling/") {
        return Err(format!("unexpected schema `{}`", data.schema));
    }
    Ok(data)
}

/// Render the sweep as per-platform tables with a shape-versus-shape
/// verdict at each processor count.
pub fn render(data: &ScalingData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Strong scaling, {} on {}x{}, {} steps ({} simulated){}\n\n",
        data.regime,
        data.nx,
        data.nr,
        data.report_steps,
        data.sim_steps,
        if data.quick { " [quick smoke: P=32 only]" } else { "" }
    ));
    let mut platforms: Vec<&str> = data.cells.iter().map(|c| c.platform.as_str()).collect();
    platforms.dedup();
    for platform in platforms {
        out.push_str(&format!("{platform}\n"));
        out.push_str("    P  shape      total(s)   busy(s)    comm(s)  max-wait(s)   startups        bytes\n");
        let cells: Vec<&ScalingCell> = data.cells.iter().filter(|c| c.platform == platform).collect();
        for c in &cells {
            out.push_str(&format!(
                "  {:>3}  {:<9}{:>10.3}{:>10.3}{:>11.3}{:>13.4}{:>11}{:>13}\n",
                c.procs,
                format!("{}x{}", c.px, c.pr),
                c.total_seconds,
                c.busy_mean_seconds,
                c.comm_seconds,
                c.wait_max_seconds,
                c.startups,
                c.bytes_sent,
            ));
        }
        // verdict per processor count: best pencil vs best slab on comm time
        let mut procs: Vec<usize> = cells.iter().map(|c| c.procs).collect();
        procs.dedup();
        for p in procs {
            let at = |f: &dyn Fn(&&&ScalingCell) -> bool| {
                cells.iter().filter(|c| c.procs == p).find(f).map(|c| (c.comm_seconds, c.px, c.pr))
            };
            let pencil = at(&|c| c.px > 1 && c.pr > 1);
            let radial = at(&|c| c.px == 1);
            if let (Some((pc, px, pr)), Some((rc, _, _))) = (pencil, radial) {
                out.push_str(&format!(
                    "  P={p}: {px}x{pr} pencil comm {pc:.3}s vs 1x{p} slab {rc:.3}s ({})\n",
                    if pc < rc { "pencil wins" } else { "slab wins" }
                ));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_all_shapes_and_serializes() {
        let data = sweep(true);
        // 2 platforms x 1 proc count x 3 shapes
        assert_eq!(data.cells.len(), 6);
        assert!(data.cells.iter().any(|c| c.px == 1 && c.pr == 32));
        assert!(data.cells.iter().any(|c| c.px == 32 && c.pr == 1));
        assert!(data.cells.iter().any(|c| c.px > 1 && c.pr > 1));
        let json = serde_json::to_string(&data).unwrap();
        let back = parse(&json).unwrap();
        assert_eq!(back.cells.len(), data.cells.len());
        let text = render(&back);
        assert!(text.contains("32x1") && text.contains("1x32"));
    }

    #[test]
    fn near_square_p64_beats_radial_slab_on_comm_time() {
        // the acceptance criterion of the pencil study, checked at the
        // source so the committed BENCH_scaling.json cannot silently rot
        let grid = scaling_grid();
        let fat = Platform::cluster_fat_tree();
        let square = cell(fat, &grid, CartTopology { px: 8, pr: 8 });
        let radial = cell(fat, &grid, CartTopology { px: 1, pr: 64 });
        assert!(
            square.comm_seconds < radial.comm_seconds,
            "8x8 comm {} must beat 1x64 comm {}",
            square.comm_seconds,
            radial.comm_seconds
        );
        assert!(square.bytes_sent < radial.bytes_sent, "smaller halo surface");
    }

    #[test]
    fn factored_shape_is_near_square_on_the_square_grid() {
        let grid = scaling_grid();
        let dims = |p| shapes(p, &grid).iter().map(|t| (t.px, t.pr)).collect::<Vec<_>>();
        assert_eq!(dims(64), vec![(1, 64), (64, 1), (8, 8)]);
        assert_eq!(dims(128), vec![(1, 128), (128, 1), (16, 8)]);
    }
}
