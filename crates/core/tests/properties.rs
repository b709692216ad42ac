//! Property-based tests of the solver core: version equivalence on random
//! fields, decomposition invariants, parity symmetries, workload linearity.

use ns_core::checkpoint::Checkpoint;
use ns_core::config::{Regime, SchemeOrder, SolverConfig, Version};
use ns_core::field::{Field, FluxField, Patch, PrimField, NG};
use ns_core::kernels::{self, EdgeFlags, FluxDir};
use ns_core::opcount::FlopLedger;
use ns_core::{bc, workload};
use ns_numerics::gas::Primitive;
use ns_numerics::{Array2, Grid};
use proptest::prelude::*;

/// The rungs with standalone `compute_prims` / `compute_flux` kernels of
/// their own (V6/V7 exist only as the fused sweep; outside it they are V5).
const STANDALONE: [Version; 5] = [Version::V1, Version::V2, Version::V3, Version::V4, Version::V5];

fn small_patch() -> Patch {
    Patch::whole(Grid::new(16, 10, 8.0, 2.0))
}

/// Build a random-but-physical field from four Fourier coefficients.
fn random_field(patch: &Patch, gas: &ns_numerics::GasModel, seed: [f64; 4]) -> Field {
    Field::from_primitives(patch.clone(), gas, |x, r| Primitive {
        rho: 1.0 + 0.2 * (seed[0] * x + r).sin() * 0.5,
        u: 0.5 + 0.3 * (seed[1] * r).cos() * 0.5,
        v: 0.1 * (seed[2] * x).sin() * (r - patch.grid.lr).min(0.0).abs() / patch.grid.lr,
        p: 0.714 + 0.1 * (seed[3] * (x - r)).sin() * 0.5,
    })
}

fn prepare_prims(field: &Field, gas: &ns_numerics::GasModel, version: Version) -> PrimField {
    let mut prim = PrimField::zeros(&field.patch);
    let mut ledger = FlopLedger::default();
    kernels::compute_prims(version, None, field, &mut prim, gas, &mut ledger);
    bc::mirror_prims_axis(&mut prim);
    bc::extrap_prims_top(&mut prim, field.nr());
    prim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every optimization version recovers the same primitives (to rounding)
    /// on arbitrary smooth fields.
    #[test]
    fn versions_agree_on_random_fields(
        s0 in 0.1f64..2.0, s1 in 0.1f64..2.0, s2 in 0.1f64..2.0, s3 in 0.1f64..2.0,
        viscous in prop::bool::ANY,
    ) {
        let cfg = SolverConfig::paper(
            Grid::new(16, 10, 8.0, 2.0),
            if viscous { Regime::NavierStokes } else { Regime::Euler },
        );
        let gas = cfg.effective_gas();
        let patch = small_patch();
        let field = random_field(&patch, &gas, [s0, s1, s2, s3]);
        let reference = prepare_prims(&field, &gas, Version::V5);
        for v in STANDALONE {
            let prim = prepare_prims(&field, &gas, v);
            for i in 0..patch.nxl {
                for j in 0..patch.nr() {
                    let (ii, jj) = (i + NG, j + NG);
                    prop_assert!((prim.p.at(ii, jj) - reference.p.at(ii, jj)).abs() < 1e-11, "{v:?} p at ({i},{j})");
                    prop_assert!((prim.t.at(ii, jj) - reference.t.at(ii, jj)).abs() < 1e-11, "{v:?} t at ({i},{j})");
                }
            }
        }
    }

    /// The flux kernels agree across versions on arbitrary fields.
    #[test]
    fn flux_versions_agree_on_random_fields(
        s0 in 0.1f64..2.0, s1 in 0.1f64..2.0, s2 in 0.1f64..2.0, s3 in 0.1f64..2.0,
    ) {
        let cfg = SolverConfig::paper(Grid::new(16, 10, 8.0, 2.0), Regime::NavierStokes);
        let gas = cfg.effective_gas();
        let patch = small_patch();
        let field = random_field(&patch, &gas, [s0, s1, s2, s3]);
        let prim = prepare_prims(&field, &gas, Version::V5);
        let edges = EdgeFlags::of(&patch);
        let mut reference = FluxField::zeros(&patch);
        let mut ledger = FlopLedger::default();
        kernels::compute_flux(Version::V5, None, FluxDir::X, &prim, &patch, edges, &gas, &mut reference, None, &mut ledger);
        for v in STANDALONE {
            let mut flux = FluxField::zeros(&patch);
            kernels::compute_flux(v, None, FluxDir::X, &prim, &patch, edges, &gas, &mut flux, None, &mut ledger);
            for c in 0..4 {
                for i in 0..patch.nxl {
                    for j in 0..patch.nr() {
                        let d = (flux.at(c, i as isize, j as isize) - reference.at(c, i as isize, j as isize)).abs();
                        prop_assert!(d < 1e-10, "{v:?} c={c} ({i},{j}): {d}");
                    }
                }
            }
        }
    }

    // The former `v6_solver_is_bitwise_v5_with_identical_ledger` whole-run
    // equivalence test was promoted into the ns-verify differential oracle
    // (`crates/verify/src/oracle.rs`: the V6-vs-V5 serial cell asserts
    // bitwise identity plus an identical FLOP ledger), which `jetns verify`
    // and `tests/verify_oracle.rs` run in CI.

    /// Block decomposition covers every column exactly once, for any grid
    /// size and processor count.
    #[test]
    fn decomposition_partition_properties(nx in 8usize..400, p in 1usize..32) {
        prop_assume!(nx / p >= 1);
        let grid = Grid::new(nx.max(8), 8, 10.0, 2.0);
        let mut covered = vec![0u8; grid.nx];
        for rank in 0..p {
            let patch = Patch::block(grid.clone(), rank, p);
            for c in &mut covered[patch.i0..patch.i0 + patch.nxl] {
                *c += 1;
            }
            // contiguity + ordering
            if rank > 0 {
                let prev = Patch::block(grid.clone(), rank - 1, p);
                prop_assert_eq!(prev.i0 + prev.nxl, patch.i0);
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "every column covered once");
    }

    /// Workload compute flops are additive over a decomposition: the sum of
    /// per-rank work equals the whole-grid work, for axial (`P × 1`), radial
    /// (`1 × P`) and 2-D (`px × pr`) splits alike.
    #[test]
    fn workload_is_additive_over_ranks(
        p in 1usize..16, px in 1usize..6, pr in 1usize..6, viscous in prop::bool::ANY,
    ) {
        let grid = Grid::paper();
        let regime = if viscous { Regime::NavierStokes } else { Regime::Euler };
        let whole = workload::step_workload(regime, &Patch::whole(grid.clone())).compute_flops();
        for (px, pr) in [(p, 1), (1, p), (px, pr)] {
            let sum: u64 = (0..px * pr)
                .map(|rank| {
                    let patch = Patch::pencil(grid.clone(), (rank % px, rank / px), (px, pr));
                    workload::step_workload(regime, &patch).compute_flops()
                })
                .sum();
            prop_assert_eq!(sum, whole, "{}x{}", px, pr);
        }
    }

    /// Checkpoint/restore is bitwise transparent at any point in a run,
    /// for either regime and scheme order.
    #[test]
    fn checkpoint_is_transparent_anywhere(
        pre in 1u64..8, post in 1u64..8,
        viscous in prop::bool::ANY, two_two in prop::bool::ANY,
    ) {
        let mut cfg = SolverConfig::paper(Grid::new(20, 12, 8.0, 2.0), if viscous { Regime::NavierStokes } else { Regime::Euler });
        cfg.scheme = if two_two { SchemeOrder::TwoTwo } else { SchemeOrder::TwoFour };
        let mut reference = ns_core::Solver::new(cfg.clone());
        reference.run(pre + post);
        let mut first = ns_core::Solver::new(cfg);
        first.run(pre);
        let bytes = Checkpoint::capture(&first).to_bytes().unwrap();
        let mut resumed = Checkpoint::from_bytes(&bytes).unwrap().restore();
        resumed.run(post);
        prop_assert_eq!(resumed.field.max_diff(&reference.field), 0.0);
        prop_assert_eq!(resumed.t.to_bits(), reference.t.to_bits());
    }

    /// The DFT amplitude of a sampled sinusoid is independent of its phase.
    #[test]
    fn spectrum_amplitude_is_phase_invariant(phase in 0.0f64..std::f64::consts::TAU) {
        use ns_core::probe::{amplitude_spectrum, dominant_frequency};
        let n = 128;
        let dt = 0.1;
        let f0 = 8.0 / (n as f64 * dt);
        let t: Vec<f64> = (0..n).map(|k| k as f64 * dt).collect();
        let x: Vec<f64> = t.iter().map(|&tt| (2.0 * std::f64::consts::PI * f0 * tt + phase).sin()).collect();
        let peak = dominant_frequency(&amplitude_spectrum(&t, &x)).unwrap();
        prop_assert!((peak.amplitude - 1.0).abs() < 1e-6, "amplitude {}", peak.amplitude);
        prop_assert!((peak.frequency - f0).abs() < 1e-9);
    }

    /// The radial-flux axis mirror parity is self-consistent: mirroring
    /// twice is the identity on random flux planes.
    #[test]
    fn rflux_ghost_mirror_is_involutive(vals in prop::collection::vec(-5.0f64..5.0, 64)) {
        let patch = small_patch();
        let mut flux = FluxField::zeros(&patch);
        let mut k = 0;
        for c in 0..4 {
            for i in 0..patch.nxl.min(4) {
                for j in 0..patch.nr().min(4) {
                    flux.set(c, i as isize, j as isize, vals[k % vals.len()]);
                    k += 1;
                }
            }
        }
        let mut ledger = FlopLedger::default();
        bc::fill_rflux_ghosts(&mut flux, patch.nxl, patch.nr(), &mut ledger);
        for (c, s) in bc::G_PARITY.iter().enumerate() {
            for i in 0..patch.nxl as isize {
                for g in 0..2isize {
                    let ghost = flux.at(c, i, -1 - g);
                    let interior = flux.at(c, i, g);
                    prop_assert!((ghost - s * interior).abs() < 1e-14);
                    // parity is an involution: s * s == 1
                    prop_assert!((s * s - 1.0).abs() < 1e-15);
                }
            }
        }
    }

    /// The FLOP ledger is exactly linear in the number of steps for any
    /// (small) grid and regime.
    #[test]
    fn ledger_linearity(nx in 12usize..40, nr in 8usize..20, viscous in prop::bool::ANY) {
        let grid = Grid::new(nx, nr, 10.0, 2.0);
        let regime = if viscous { Regime::NavierStokes } else { Regime::Euler };
        let mut s = ns_core::Solver::new(SolverConfig::paper(grid, regime));
        s.run(1);
        let a = s.ledger.total();
        s.run(2);
        let b = s.ledger.total();
        s.run(2);
        let c = s.ledger.total();
        prop_assert_eq!(c - b, b - a, "steady per-step cost");
    }

    /// `Field::integral` is linear: doubling the density doubles the mass.
    #[test]
    fn integral_linearity(rho in 0.2f64..4.0) {
        let gas = ns_numerics::GasModel::air(1e6, 1.5);
        let patch = small_patch();
        let mk = |r: f64| {
            Field::from_primitives(patch.clone(), &gas, |_, _| Primitive { rho: r, u: 0.0, v: 0.0, p: 0.7 })
        };
        let m1 = mk(rho).integral(0);
        let m2 = mk(2.0 * rho).integral(0);
        prop_assert!((m2 / m1 - 2.0).abs() < 1e-12);
    }

    /// Dissipation is monotone in eps on a rough field (more smoothing,
    /// smaller fourth difference), and vanishes for eps = 0.
    #[test]
    fn dissipation_monotone(e1 in 0.001f64..0.02, scale in 1.1f64..4.0) {
        let e2 = (e1 * scale).min(0.06);
        let patch = Patch::whole(Grid::new(16, 12, 8.0, 2.0));
        let rough = |_: usize, j: usize| if j.is_multiple_of(2) { 1.0 } else { -1.0 };
        let mk = || {
            let mut f = Field::zeros(patch.clone());
            for i in 0..f.nxl() {
                for j in 0..f.nr() {
                    f.set(3, i as isize, j as isize, 10.0 + rough(i, j));
                }
            }
            f
        };
        let roughness = |f: &Field| {
            let mut s = 0.0;
            for i in 2..f.nxl() - 2 {
                for j in 2..f.nr() - 4 {
                    let (si, sj) = (i as isize, j as isize);
                    s += (f.at(3, si, sj + 1) - f.at(3, si, sj)).abs();
                }
            }
            s
        };
        let mut ledger = FlopLedger::default();
        let (mut fa, mut fb) = (mk(), mk());
        let snap = ns_core::dissipation::fluctuation(&fa, None);
        ns_core::dissipation::smooth(&mut fa, &snap, e1, &mut ledger);
        ns_core::dissipation::smooth(&mut fb, &snap, e2, &mut ledger);
        let base = roughness(&mk());
        let ra = roughness(&fa);
        let rb = roughness(&fb);
        prop_assert!(ra < base, "smoothing reduces roughness");
        prop_assert!(rb <= ra + 1e-9, "more eps, more smoothing: {rb} vs {ra}");
    }

    /// `max_diff` is a metric: symmetric and zero iff equal (on these data).
    #[test]
    fn max_diff_is_symmetric(seed in 0.1f64..2.0) {
        let gas = ns_numerics::GasModel::air(1e6, 1.5);
        let patch = small_patch();
        let a = random_field(&patch, &gas, [seed, 1.0, 1.0, 1.0]);
        let b = random_field(&patch, &gas, [seed + 0.5, 1.0, 1.0, 1.0]);
        prop_assert_eq!(a.max_diff(&b), b.max_diff(&a));
        prop_assert_eq!(a.max_diff(&a), 0.0);
    }

    /// Source plane: for the Euler equations the source is exactly the
    /// pressure, everywhere, whatever the field.
    #[test]
    fn euler_source_is_pressure(s0 in 0.1f64..2.0, s3 in 0.1f64..2.0) {
        let cfg = SolverConfig::paper(Grid::new(16, 10, 8.0, 2.0), Regime::Euler);
        let gas = cfg.effective_gas();
        let patch = small_patch();
        let field = random_field(&patch, &gas, [s0, 1.0, 1.0, s3]);
        let prim = prepare_prims(&field, &gas, Version::V5);
        let mut flux = FluxField::zeros(&patch);
        let mut src = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
        let mut ledger = FlopLedger::default();
        kernels::compute_flux(Version::V5, None, FluxDir::R, &prim, &patch, EdgeFlags::of(&patch), &gas, &mut flux, Some(&mut src), &mut ledger);
        for i in 0..patch.nxl {
            for j in 0..patch.nr() {
                let p = prim.p.at(i + NG, j + NG);
                prop_assert!((src.at(i + NG, j + NG) - p).abs() < 1e-13);
            }
        }
    }

    /// A V7 step runs its predictor/corrector updates inside the sweeps; a
    /// V6 step runs the same sweep into the flux planes and updates from
    /// them; a V5 step shares no sweep code with either. Whole solvers must
    /// agree bit for bit (ghost layers included) with equal FLOP ledgers
    /// whatever the grid, tile size, scheme order, forcing and step count —
    /// odd counts end on `L1`, even ones on `L2`.
    #[test]
    fn v7_steps_are_bitwise_v6_steps(
        nx in 8usize..28, nr in 5usize..26, tile in 1usize..30, steps in 1u64..6,
        viscous in prop::bool::ANY, two_four in prop::bool::ANY, mms in prop::bool::ANY,
    ) {
        let regime = if viscous { Regime::NavierStokes } else { Regime::Euler };
        let mut cfg = SolverConfig::paper(Grid::new(nx, nr, 8.0, 2.0), regime);
        cfg.scheme = if two_four { SchemeOrder::TwoFour } else { SchemeOrder::TwoTwo };
        if mms {
            cfg.mms = Some(ns_core::mms::MmsSpec::standard());
        }
        let run = |version| {
            let mut s = ns_core::Solver::new(SolverConfig { version, tile_r: tile, ..cfg.clone() });
            s.run(steps);
            let bits: Vec<u64> = s.field.q.iter().flat_map(|a| a.as_slice()).map(|v| v.to_bits()).collect();
            (bits, s.ledger)
        };
        let v5 = run(Version::V5);
        for v in [Version::V6, Version::V7] {
            prop_assert!(run(v) == v5, "{v:?} {:?} {}x{} tile {} steps {}", cfg.scheme, nx, nr, tile, steps);
        }
    }

    /// Any valid radial tile size yields a bitwise-identical V7 sweep
    /// (fluxes, source plane, and FLOP ledger): the cache-blocking knob is
    /// pure scheduling, never arithmetic.
    #[test]
    fn v7_tile_size_is_bitwise_invariant(
        s0 in 0.1f64..2.0, s1 in 0.1f64..2.0, s2 in 0.1f64..2.0, s3 in 0.1f64..2.0,
        tile in 1usize..24, viscous in prop::bool::ANY, xdir in prop::bool::ANY,
    ) {
        use ns_core::soa::SoaWs;
        let cfg = SolverConfig::paper(
            Grid::new(16, 10, 8.0, 2.0),
            if viscous { Regime::NavierStokes } else { Regime::Euler },
        );
        let gas = cfg.effective_gas();
        let patch = small_patch();
        let field = random_field(&patch, &gas, [s0, s1, s2, s3]);
        let edges = EdgeFlags::of(&patch);
        let dir = if xdir { FluxDir::X } else { FluxDir::R };
        let sweep = |tile_r: usize| {
            let mut prim = PrimField::zeros(&patch);
            let mut flux = FluxField::zeros(&patch);
            let mut src = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
            let mut ws = SoaWs::new(&patch);
            let mut ledger = FlopLedger::default();
            ns_core::soa::fused_sweep(
                dir,
                &field,
                &mut prim,
                edges,
                &gas,
                &mut flux,
                if xdir { None } else { Some(&mut src) },
                0..patch.nxl,
                0..patch.nxl,
                None,
                &[],
                &mut ws,
                tile_r,
                &mut ledger,
            );
            (flux, src, ledger)
        };
        let (f_ref, src_ref, l_ref) = sweep(ns_core::config::DEFAULT_TILE_R);
        let (f, src, l) = sweep(tile);
        prop_assert_eq!(l, l_ref, "ledger must not depend on tile size");
        let (lo, hi) = (-(NG as isize), (patch.nr() + NG) as isize);
        for c in 0..4 {
            for i in 0..patch.nxl as isize {
                for j in lo..hi {
                    prop_assert_eq!(
                        f.at(c, i, j).to_bits(),
                        f_ref.at(c, i, j).to_bits(),
                        "flux c={} ({},{}) tile={}", c, i, j, tile
                    );
                }
            }
        }
        if !xdir {
            for ii in 0..patch.nxl + 2 * NG {
                for jj in 0..patch.nr() + 2 * NG {
                    prop_assert_eq!(
                        src.at(ii, jj).to_bits(),
                        src_ref.at(ii, jj).to_bits(),
                        "src ({},{}) tile={}", ii, jj, tile
                    );
                }
            }
        }
    }
}
