#![warn(missing_docs)]
// The crate's one `unsafe` block (the ISA dispatch under `soa::fused_sweep`)
// must carry its `SAFETY:` line; CI also counts the blocks.
#![deny(clippy::undocumented_unsafe_blocks)]
// Indexed loops over several parallel planes are the idiom of this solver
// (the loop order *is* the optimization under study); zipped iterators would
// obscure exactly what Figure 2 measures.
#![allow(clippy::needless_range_loop)]

//! # ns-core
//!
//! The paper's application: a time-accurate axisymmetric compressible
//! Navier-Stokes / Euler solver for an excited supersonic jet, discretized
//! with the fourth-order Gottlieb–Turkel "2-4" MacCormack scheme
//! (Jayasimha, Hayder & Pillay, *Parallelizing Navier-Stokes Computations on
//! a Variety of Architectural Platforms*, SC'95).
//!
//! The crate provides:
//!
//! * the governing equations in the paper's radially weighted conservative
//!   form ([`physics`]),
//! * the split one-dimensional 2-4 predictor/corrector operators
//!   ([`scheme`]) with halo hooks so the identical numerics run serially and
//!   distributed,
//! * the paper's boundary treatment: excited tanh-profile inflow,
//!   Hayder–Turkel characteristic outflow, axis symmetry, far field and
//!   cubic flux extrapolation to artificial points ([`bc`]),
//! * the five single-processor optimization versions of the hot kernels
//!   that Figure 2 studies ([`kernels`], [`config::Version`]),
//! * a shared-memory parallel driver in the style of the paper's Cray Y-MP
//!   DOALL parallelization ([`shared`]),
//! * FLOP and workload instrumentation feeding the paper's Tables 1-2 and
//!   the platform simulator ([`opcount`], [`workload`]).
//!
//! ## Quick start
//!
//! ```
//! use ns_core::config::{Regime, SolverConfig};
//! use ns_core::driver::Solver;
//! use ns_numerics::Grid;
//!
//! let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
//! let mut solver = Solver::new(cfg);
//! solver.run(10);
//! assert!(solver.healthy());
//! ```

pub mod bc;
pub mod checkpoint;
pub mod config;
pub mod diag;
pub mod dissipation;
pub mod driver;
pub mod field;
pub mod kernels;
pub mod mms;
pub mod opcount;
pub mod physics;
pub mod probe;
pub mod scheme;
pub mod shared;
pub mod soa;
pub mod workload;

pub use config::{Regime, SolverConfig, Version};
pub use driver::Solver;
pub use field::{Field, Patch};
