#![warn(missing_docs)]

//! # ns-numerics
//!
//! Foundation numerics for the jetns workspace: dense 2-D arrays, structured
//! grids, perfect-gas thermodynamics, shear-layer profiles and cubic
//! boundary extrapolation.
//!
//! Everything here is deliberately dependency-light and allocation-aware:
//! the hot solver loops in `ns-core` are built on [`Array2`], which is a
//! single contiguous buffer with explicit row-major `(i, j)` indexing so the
//! cache behaviour of every sweep is predictable (see the single-processor
//! optimization study, Figure 2 of the paper).

pub mod aligned;
pub mod array;
pub mod extrap;
pub mod gas;
pub mod grid;
pub mod norms;
pub mod profile;

pub use aligned::AlignedVec;
pub use array::Array2;
pub use gas::GasModel;
pub use grid::Grid;
