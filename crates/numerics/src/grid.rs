//! Structured grid for the axisymmetric `(x, r)` domain.
//!
//! The paper's computational domain is 50 jet radii in the axial (`x`)
//! direction and 5 radii in the radial (`r`) direction, discretized on a
//! `250 x 100` grid. The radial coordinate is staggered by half a cell
//! (`r_j = (j + 1/2) dr`) so no solution point sits on the `r = 0` axis
//! singularity; axis conditions are imposed through symmetry ghost rows.

use serde::{Deserialize, Serialize};

/// Uniform structured grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    /// Number of axial points.
    pub nx: usize,
    /// Number of radial points.
    pub nr: usize,
    /// Axial extent (in jet radii).
    pub lx: f64,
    /// Radial extent (in jet radii).
    pub lr: f64,
    /// Axial spacing.
    pub dx: f64,
    /// Radial spacing.
    pub dr: f64,
}

impl Grid {
    /// The fewest points per direction the 2-4 scheme's stencils need.
    pub const MIN_POINTS: usize = 5;

    /// Build a grid with `nx x nr` points covering `lx x lr`.
    ///
    /// Axial points sit at `x_i = i * dx` with `dx = lx / (nx - 1)` (the
    /// first point is the inflow plane, the last the outflow plane); radial
    /// points are cell-centered, `r_j = (j + 1/2) * dr` with `dr = lr / nr`.
    pub fn new(nx: usize, nr: usize, lx: f64, lr: f64) -> Self {
        assert!(nx.min(nr) >= Self::MIN_POINTS, "the 2-4 scheme needs at least 5 points per direction");
        assert!(lx > 0.0 && lr > 0.0);
        Self { nx, nr, lx, lr, dx: lx / (nx as f64 - 1.0), dr: lr / nr as f64 }
    }

    /// The paper's production grid: 250 x 100 over 50R x 5R.
    pub fn paper() -> Self {
        Self::new(250, 100, 50.0, 5.0)
    }

    /// A small grid of the same aspect ratio for tests and workload probing.
    pub fn small() -> Self {
        Self::new(50, 20, 50.0, 5.0)
    }

    /// Axial coordinate of point `i`.
    #[inline(always)]
    pub fn x(&self, i: usize) -> f64 {
        i as f64 * self.dx
    }

    /// Radial coordinate of point `j` (half-cell staggered off the axis).
    #[inline(always)]
    pub fn r(&self, j: usize) -> f64 {
        (j as f64 + 0.5) * self.dr
    }

    /// Radial coordinate for a signed index; negative indices mirror across
    /// the axis (`r_{-1} = -r_0`), which is what the symmetry ghost rows use.
    #[inline(always)]
    pub fn r_signed(&self, j: isize) -> f64 {
        (j as f64 + 0.5) * self.dr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_dimensions() {
        let g = Grid::paper();
        assert_eq!(g.nx, 250);
        assert_eq!(g.nr, 100);
        assert!((g.dx - 50.0 / 249.0).abs() < 1e-12);
        assert!((g.dr - 0.05).abs() < 1e-12);
    }

    #[test]
    fn staggering_avoids_axis() {
        let g = Grid::paper();
        assert!(g.r(0) > 0.0);
        assert!((g.r(0) - 0.025).abs() < 1e-12);
        // last point is half a cell inside the far-field boundary
        assert!(g.r(g.nr - 1) < g.lr);
    }

    #[test]
    fn signed_radius_mirrors_across_axis() {
        let g = Grid::paper();
        assert!((g.r_signed(-1) + g.r(0)).abs() < 1e-12);
        assert!((g.r_signed(-2) + g.r(1)).abs() < 1e-12);
    }

    #[test]
    fn endpoints() {
        let g = Grid::new(11, 10, 10.0, 2.0);
        assert_eq!(g.x(0), 0.0);
        assert!((g.x(10) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_grids() {
        let _ = Grid::new(4, 10, 1.0, 1.0);
    }
}
