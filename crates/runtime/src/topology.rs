//! Cartesian rank topology for the 2-D pencil decomposition.
//!
//! The paper decomposes "by blocks along the axial direction only" and
//! names radial blocking as future work; a `px × pr` pencil grid subsumes
//! both (`P × 1` is the paper's layout, `1 × P` the pure radial one) and
//! lets the halo surface shrink with both factors. Ranks are numbered
//! axial-fastest — `rank = cr * px + cx` — so a `P × 1` topology reproduces
//! the existing 1-D rank numbering exactly and every axial-only code path
//! is the degenerate case, not a special one.

use ns_core::field::NG;
use ns_numerics::Grid;
use std::fmt;

/// Why a decomposition plan was rejected at validation time (instead of a
/// panic mid-run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecompositionError {
    /// A zero-rank (or zero-extent) topology.
    ZeroRanks,
    /// Axial split too fine: some rank would own fewer than the minimum
    /// columns the 2-4 stencil's edge handling needs.
    TooFewColumns {
        /// Axial ranks requested.
        px: usize,
        /// Grid columns being split.
        nx: usize,
    },
    /// Radial split too fine: some rank would own fewer rows than the
    /// far-field cubic extrapolation reads.
    TooFewRows {
        /// Radial ranks requested.
        pr: usize,
        /// Grid rows being split.
        nr: usize,
    },
    /// A DOALL team of zero threads (`RunPlan::threads == 0`).
    ZeroThreads,
}

impl fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompositionError::ZeroRanks => write!(f, "decomposition has zero ranks"),
            DecompositionError::TooFewColumns { px, nx } => {
                write!(f, "{px} ranks over {nx} columns leaves ranks with fewer than {MIN_COLS} columns")
            }
            DecompositionError::TooFewRows { pr, nr } => {
                write!(f, "{pr} radial ranks over {nr} rows leaves ranks with fewer than {MIN_ROWS} rows")
            }
            DecompositionError::ZeroThreads => write!(f, "a DOALL team needs at least one thread"),
        }
    }
}

impl std::error::Error for DecompositionError {}

/// Minimum columns per rank (the axial edge-flux handling and the split
/// one-sided stencils need this much locally).
pub const MIN_COLS: usize = 4;
/// Minimum rows per rank (the far-field cubic extrapolation reads 4 rows,
/// and the 2-4 stencil reaches `j±2`).
pub const MIN_ROWS: usize = 4;

/// The four face neighbours of a pencil, `None` at owned global boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CartNeighbors {
    /// Axial predecessor (towards the inflow).
    pub left: Option<usize>,
    /// Axial successor (towards the outflow).
    pub right: Option<usize>,
    /// Radial predecessor (towards the jet axis).
    pub down: Option<usize>,
    /// Radial successor (towards the far field).
    pub up: Option<usize>,
}

/// An `px × pr` Cartesian rank grid (axial × radial), ranks numbered
/// axial-fastest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CartTopology {
    /// Ranks along the axial direction.
    pub px: usize,
    /// Ranks along the radial direction.
    pub pr: usize,
}

impl CartTopology {
    /// Build a topology; zero extent on either axis is a constructor error
    /// (this is what turns the old "empty rank set reports 0 steps" bug
    /// into a typed failure).
    pub fn new(px: usize, pr: usize) -> Result<Self, DecompositionError> {
        if px == 0 || pr == 0 {
            return Err(DecompositionError::ZeroRanks);
        }
        Ok(Self { px, pr })
    }

    /// The paper's axial layout (`p × 1`). Panics on `p == 0`.
    pub fn axial(p: usize) -> Self {
        Self::new(p, 1).expect("axial topology needs at least one rank")
    }

    /// Total rank count.
    pub fn size(&self) -> usize {
        self.px * self.pr
    }

    /// Cartesian coordinates `(cx, cr)` of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.size(), "rank {rank} outside {}x{} topology", self.px, self.pr);
        (rank % self.px, rank / self.px)
    }

    /// Rank at coordinates `(cx, cr)`.
    pub fn rank(&self, cx: usize, cr: usize) -> usize {
        assert!(cx < self.px && cr < self.pr, "({cx},{cr}) outside {}x{} topology", self.px, self.pr);
        cr * self.px + cx
    }

    /// The four face neighbours of `rank`.
    pub fn neighbors(&self, rank: usize) -> CartNeighbors {
        let (cx, cr) = self.coords(rank);
        CartNeighbors {
            left: (cx > 0).then(|| self.rank(cx - 1, cr)),
            right: (cx + 1 < self.px).then(|| self.rank(cx + 1, cr)),
            down: (cr > 0).then(|| self.rank(cx, cr - 1)),
            up: (cr + 1 < self.pr).then(|| self.rank(cx, cr + 1)),
        }
    }

    /// Validate this topology against the grid it splits: split fineness
    /// on both axes, nothing else. Every kernel rung, comm protocol and
    /// dissipation coefficient runs on every admitted shape. This is the
    /// admission check `ns-serve` runs before accepting a job, so a daemon
    /// never takes work it would panic on.
    pub fn validate(&self, grid: &Grid) -> Result<(), DecompositionError> {
        if self.px == 0 || self.pr == 0 {
            return Err(DecompositionError::ZeroRanks);
        }
        if grid.nx / self.px < MIN_COLS {
            return Err(DecompositionError::TooFewColumns { px: self.px, nx: grid.nx });
        }
        if self.pr > 1 && grid.nr / self.pr < MIN_ROWS {
            return Err(DecompositionError::TooFewRows { pr: self.pr, nr: grid.nr });
        }
        Ok(())
    }

    /// Pick the factorization of `p` ranks that minimizes the per-rank halo
    /// surface on an `nx × nr` grid: axial halos are columns of `~nr/pr`
    /// points, radial halos padded rows of `~nx/px + 2 NG` points. Ties and
    /// infeasible radial splits fall back towards the paper's axial layout
    /// (larger `px`).
    pub fn factor(p: usize, nx: usize, nr: usize) -> Result<Self, DecompositionError> {
        if p == 0 {
            return Err(DecompositionError::ZeroRanks);
        }
        let mut best: Option<(usize, CartTopology)> = None;
        for px in (1..=p).rev() {
            if !p.is_multiple_of(px) {
                continue;
            }
            let pr = p / px;
            if nx / px < MIN_COLS || (pr > 1 && nr / pr < MIN_ROWS) {
                continue;
            }
            let surface =
                (if px > 1 { nr.div_ceil(pr) } else { 0 }) + (if pr > 1 { nx.div_ceil(px) + 2 * NG } else { 0 });
            // strictly-better only: on ties the earlier (larger-px) wins
            if best.is_none_or(|(s, _)| surface < s) {
                best = Some((surface, CartTopology { px, pr }));
            }
        }
        best.map(|(_, t)| t).ok_or(DecompositionError::TooFewColumns { px: p, nx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axial_topology_matches_1d_numbering() {
        let t = CartTopology::axial(4);
        for rank in 0..4 {
            assert_eq!(t.coords(rank), (rank, 0));
            let nb = t.neighbors(rank);
            assert_eq!(nb.left, (rank > 0).then(|| rank - 1));
            assert_eq!(nb.right, (rank < 3).then(|| rank + 1));
            assert_eq!(nb.down, None);
            assert_eq!(nb.up, None);
        }
    }

    #[test]
    fn pencil_neighbors_are_cartesian() {
        // 3 x 2: ranks 0..2 bottom row, 3..5 top row
        let t = CartTopology::new(3, 2).unwrap();
        assert_eq!(t.rank(1, 1), 4);
        let nb = t.neighbors(4);
        assert_eq!(nb.left, Some(3));
        assert_eq!(nb.right, Some(5));
        assert_eq!(nb.down, Some(1));
        assert_eq!(nb.up, None);
        let nb0 = t.neighbors(0);
        assert_eq!((nb0.left, nb0.down), (None, None));
        assert_eq!((nb0.right, nb0.up), (Some(1), Some(3)));
    }

    #[test]
    fn zero_ranks_is_a_constructor_error() {
        assert_eq!(CartTopology::new(0, 1), Err(DecompositionError::ZeroRanks));
        assert_eq!(CartTopology::new(1, 0), Err(DecompositionError::ZeroRanks));
        assert_eq!(CartTopology::factor(0, 66, 24), Err(DecompositionError::ZeroRanks));
    }

    #[test]
    fn factor_prefers_square_when_surface_wins() {
        // 64 ranks on a large square grid: near-square beats slabs
        let t = CartTopology::factor(64, 512, 512).unwrap();
        assert_eq!((t.px, t.pr), (8, 8));
        // paper grid at P=4: axial surface 24/1=24 vs pencil 2x2 surface
        // 12 + (33+4) = 49 -> axial wins
        let t = CartTopology::factor(4, 66, 24).unwrap();
        assert_eq!((t.px, t.pr), (4, 1));
    }

    #[test]
    fn factor_respects_min_extents() {
        // 16 ranks over 66 columns: 16x1 leaves 4 columns (ok); 24 rows
        // cannot take pr=8 (3 rows each)
        let t = CartTopology::factor(16, 66, 24).unwrap();
        assert!(t.px * t.pr == 16 && 66 / t.px >= MIN_COLS);
        assert!(t.pr == 1 || 24 / t.pr >= MIN_ROWS);
        // impossible: 64 ranks over the paper grid has no feasible shape
        // (64x1 leaves 1 column, 16x4 leaves 4 cols x 6 rows -> feasible!)
        let t = CartTopology::factor(64, 66, 24).unwrap();
        assert_eq!((66 / t.px >= MIN_COLS, 24 / t.pr >= MIN_ROWS), (true, true));
    }
}
