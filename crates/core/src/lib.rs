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
//! * a shared-memory solver in the style of the paper's Cray Y-MP DOALL
//!   parallelization: any solver's V5 station loops on a thread team
//!   ([`driver::Solver::with_threads`]),
//! * FLOP instrumentation ([`opcount`]) that every phase span carries, so
//!   a traced run's recorded step pair feeds the paper's Tables 1-2 and the
//!   platform simulator.
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
pub mod soa;

pub use config::{Regime, SolverConfig, Version};
pub use driver::Solver;
pub use field::{Field, Patch};

/// Tests of the shared-memory solver ([`driver::Solver::with_threads`]): the
/// serial V5 step with its station loops on a DOALL team must reproduce
/// serial V5 exactly, whatever the team size, and the other rungs ignore
/// the team.
#[cfg(test)]
mod shared {
    #[cfg(test)]
    mod tests {
        use crate::config::{Regime, SchemeOrder, SolverConfig, Version};
        use crate::driver::Solver;
        use crate::field::Field;
        use crate::mms::MmsSpec;
        use ns_numerics::Grid;

        fn bits(f: &Field) -> Vec<u64> {
            f.q.iter().flat_map(|c| c.as_slice().iter().map(|x| x.to_bits())).collect()
        }

        /// The DOALL solver against the serial V5 solver on one input: the
        /// field bitwise (ghosts included), the clock, every FLOP category
        /// and, with phase timing on, the phase labels.
        fn assert_shared_is_serial(cfg: &SolverConfig, threads: usize, steps: u64) {
            let v5 = SolverConfig { version: Version::V5, ..cfg.clone() };
            let mut serial = Solver::new(v5.clone());
            let mut shared = Solver::new(v5).with_threads(threads);
            for s in [&mut serial, &mut shared] {
                s.enable_phase_timing();
                s.run(steps);
            }
            let case =
                format!("{:?} eps {} adaptive {} threads {threads}", cfg.regime, cfg.dissipation, cfg.adaptive_dt);
            assert!(bits(&serial.field) == bits(&shared.field), "{case}: field must be bitwise serial V5");
            assert_eq!((serial.t.to_bits(), serial.nstep), (shared.t.to_bits(), shared.nstep), "{case}: clock");
            assert_eq!(serial.ledger, shared.ledger, "{case}: FLOP ledger");
            let labels = |s: &Solver| s.phase_ledger().seconds_by_label().into_keys().collect::<Vec<_>>();
            assert_eq!(labels(&serial), labels(&shared), "{case}: phase labels");
        }

        #[test]
        fn shared_solver_matches_serial_v5_exactly() {
            for regime in [Regime::Euler, Regime::NavierStokes] {
                for dissipation in [0.0, 0.002] {
                    for adaptive_dt in [false, true] {
                        let cfg =
                            SolverConfig { dissipation, adaptive_dt, ..SolverConfig::paper(Grid::small(), regime) };
                        for threads in [1, 2, 3, 8] {
                            assert_shared_is_serial(&cfg, threads, 6);
                        }
                    }
                }
            }
            // the serial operators' MMS forcing and 2-2 scheme run on the team too
            let ns = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
            let mms = SolverConfig { mms: Some(MmsSpec::standard()), dissipation: 0.0, ..ns.clone() };
            let two_two = SolverConfig { scheme: SchemeOrder::TwoTwo, ..ns };
            // fewer axial stations than threads: short chunks, some threads idle
            let narrow = SolverConfig::paper(Grid::new(6, 20, 5.0, 5.0), Regime::NavierStokes);
            for cfg in [mms, two_two, narrow] {
                assert_shared_is_serial(&cfg, 8, 6);
            }
        }

        #[test]
        fn thread_count_does_not_change_results() {
            // the paper configuration runs kernel V5
            let ns = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
            let mut one = Solver::new(ns.clone()).with_threads(1);
            let mut eight = Solver::new(ns.clone()).with_threads(8);
            one.run(5);
            eight.run(5);
            assert!(bits(&one.field) == bits(&eight.field), "1 and 8 threads must agree bitwise");
            assert_eq!(one.ledger, eight.ledger);
            // the team forces no kernel: the other rungs run as they are
            for version in [Version::V3, Version::V7] {
                let cfg = SolverConfig { version, ..ns.clone() };
                let mut teamless = Solver::new(cfg.clone());
                let mut teamed = Solver::new(cfg).with_threads(8);
                assert_eq!(teamed.cfg.version, version, "the team keeps the kernel");
                teamless.run(5);
                teamed.run(5);
                assert!(bits(&teamless.field) == bits(&teamed.field), "{version:?} ignores the team");
            }
        }

        #[test]
        fn ledger_matches_serial() {
            let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
            let mut serial = Solver::new(cfg.clone());
            let mut shared = Solver::new(cfg).with_threads(2);
            serial.run(3);
            shared.run(3);
            assert_eq!(serial.ledger, shared.ledger);
        }
    }
}
