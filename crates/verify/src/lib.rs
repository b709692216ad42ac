#![warn(missing_docs)]

//! # ns-verify
//!
//! Correctness as a first-class, CI-gated artifact for the jetns solver.
//! Three pillars (see `DESIGN.md` §11):
//!
//! 1. **Method of Manufactured Solutions** ([`mms`]) — grid-refinement
//!    sweeps against the analytic forced solution from `ns_core::mms`,
//!    asserting the observed convergence order of the 2-4 scheme with
//!    machine-readable tolerances (and that the 2-2 scheme, as a control,
//!    observes a *lower* order — proof the instrument can tell schemes
//!    apart).
//! 2. **Conservation ledgers** ([`conservation`]) — per-step invariant
//!    integrals reconciled against time-integrated boundary-flux budgets
//!    from `ns_core::diag::boundary_budget`, asserting the unexplained
//!    residual stays below tolerance over long runs.
//! 3. **Differential oracle** ([`oracle`]) — one generated list of plan
//!    pairs ([`oracle::plan_space`]) run through `ns_runtime::run`: every
//!    plan `validate` admits on the oracle grid (every kernel rung, rank
//!    grid — 1×1 is the serial run —, comm protocol, chaos twin and
//!    dissipation) against each of its one-axis resets and serial V5,
//!    asserting the verdict [`oracle::expect`] derives from each pair:
//!    bitwise equality where the design guarantees it and
//!    truncation-level agreement where it doesn't; plus committed golden
//!    snapshots ([`snapshot`]) that future PRs regress against.
//!
//! The `jetns verify` subcommand drives all three and emits a
//! machine-readable JSON report ([`report`]).

pub mod conservation;
pub mod mms;
pub mod oracle;
pub mod report;
pub mod snapshot;

pub use report::{run, VerifyConfig, VerifyReport};
