//! Property-based tests for the numerics foundation.

use ns_numerics::extrap::{cubic_extrap_1, cubic_extrap_2, fill_left_ghosts, fill_right_ghosts};
use ns_numerics::gas::{GasModel, Primitive};
use ns_numerics::profile::ShearLayer;
use ns_numerics::{norms, Array2};
use proptest::prelude::*;

fn finite_f64(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| lo + (v.abs() % 1.0) * (hi - lo)).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    /// Cubic extrapolation is exact on every cubic polynomial.
    #[test]
    fn extrapolation_exact_on_random_cubics(
        a in finite_f64(-3.0, 3.0),
        b in finite_f64(-3.0, 3.0),
        c in finite_f64(-3.0, 3.0),
        d in finite_f64(-3.0, 3.0),
    ) {
        let f = |x: f64| a * x * x * x + b * x * x + c * x + d;
        let v: Vec<f64> = (0..4).map(|k| f(k as f64)).collect();
        let scale = v.iter().fold(1.0_f64, |m, x| m.max(x.abs()));
        prop_assert!((cubic_extrap_1(v[0], v[1], v[2], v[3]) - f(4.0)).abs() < 1e-9 * scale.max(1.0));
        prop_assert!((cubic_extrap_2(v[0], v[1], v[2], v[3]) - f(5.0)).abs() < 1e-8 * scale.max(1.0));
    }

    /// Left and right ghost fills are mirror images of each other.
    #[test]
    fn ghost_fills_are_mirror_symmetric(vals in prop::collection::vec(finite_f64(-10.0, 10.0), 6..20)) {
        let mut right = [0.0; 2];
        fill_right_ghosts(&vals, &mut right);
        let reversed: Vec<f64> = vals.iter().rev().copied().collect();
        let mut left = [0.0; 2];
        fill_left_ghosts(&reversed, &mut left);
        prop_assert!((right[0] - left[0]).abs() < 1e-9);
        prop_assert!((right[1] - left[1]).abs() < 1e-9);
    }

    /// Primitive <-> conservative conversion round-trips for any physically
    /// admissible state.
    #[test]
    fn gas_roundtrip(
        rho in finite_f64(0.05, 10.0),
        u in finite_f64(-3.0, 3.0),
        v in finite_f64(-3.0, 3.0),
        p in finite_f64(0.01, 10.0),
    ) {
        let gas = GasModel::air(1.2e6, 1.5);
        let w = Primitive { rho, u, v, p };
        let q = w.to_conservative(&gas);
        let w2 = Primitive::from_conservative(q, &gas);
        prop_assert!((w.rho - w2.rho).abs() < 1e-10 * rho);
        prop_assert!((w.u - w2.u).abs() < 1e-9 * (1.0 + u.abs()));
        prop_assert!((w.p - w2.p).abs() < 1e-9 * (1.0 + p));
        // total energy is positive and at least the kinetic energy
        prop_assert!(q[3] > 0.5 * rho * (u * u + v * v));
    }

    /// Sound speed scales as sqrt(p / rho).
    #[test]
    fn sound_speed_scaling(rho in finite_f64(0.1, 5.0), p in finite_f64(0.1, 5.0), k in finite_f64(1.1, 4.0)) {
        let gas = GasModel::air(1e6, 1.5);
        let c1 = gas.sound_speed(rho, p);
        let c2 = gas.sound_speed(rho, p * k);
        prop_assert!((c2 / c1 - k.sqrt()).abs() < 1e-9);
        let c3 = gas.sound_speed(rho * k, p);
        prop_assert!((c3 * k.sqrt() / c1 - 1.0).abs() < 1e-9);
    }

    /// The shear-layer profile is monotone in radius and bounded by its
    /// centerline and free-stream values.
    #[test]
    fn shear_profile_monotone_and_bounded(r1 in finite_f64(0.0, 4.9), dr in finite_f64(0.001, 1.0)) {
        let s = ShearLayer::paper();
        let r2 = r1 + dr;
        prop_assert!(s.u(r1) >= s.u(r2) - 1e-12, "u monotone decreasing");
        for r in [r1, r2] {
            prop_assert!(s.u(r) <= s.u_c + 1e-12 && s.u(r) >= s.u_inf - 1e-12);
            prop_assert!(s.rho(r) > 0.0);
            prop_assert!(s.t(r) > 0.0);
        }
    }

    /// Norms: l_inf >= l2 >= l1 for any field, and the l2 difference obeys
    /// the triangle inequality.
    #[test]
    fn norm_inequalities(vals in prop::collection::vec(finite_f64(-5.0, 5.0), 12)) {
        let a = Array2::from_fn(3, 4, |i, j| vals[i * 4 + j]);
        let l1 = norms::l1(&a);
        let l2 = norms::l2(&a);
        let li = norms::linf(&a);
        prop_assert!(li >= l2 - 1e-12);
        prop_assert!(l2 >= l1 - 1e-12);
    }

    #[test]
    fn l2_diff_triangle_inequality(
        xs in prop::collection::vec(finite_f64(-5.0, 5.0), 12),
        ys in prop::collection::vec(finite_f64(-5.0, 5.0), 12),
        zs in prop::collection::vec(finite_f64(-5.0, 5.0), 12),
    ) {
        let a = Array2::from_fn(3, 4, |i, j| xs[i * 4 + j]);
        let b = Array2::from_fn(3, 4, |i, j| ys[i * 4 + j]);
        let c = Array2::from_fn(3, 4, |i, j| zs[i * 4 + j]);
        let ab = norms::l2_diff(&a, &b);
        let bc = norms::l2_diff(&b, &c);
        let ac = norms::l2_diff(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-12);
    }

    /// Block/paste round-trips preserve the block for any in-bounds window.
    #[test]
    fn block_paste_roundtrip(i0 in 0usize..5, j0 in 0usize..5, ni in 1usize..4, nj in 1usize..4) {
        let src = Array2::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let blk = src.block(i0, j0, ni, nj);
        let mut dst = Array2::zeros(8, 8);
        dst.paste(i0, j0, &blk);
        for i in 0..ni {
            for j in 0..nj {
                prop_assert_eq!(dst[(i0 + i, j0 + j)], src[(i0 + i, j0 + j)]);
            }
        }
    }

    /// Column gather/scatter round-trips on random data.
    #[test]
    fn gather_scatter_roundtrip(vals in prop::collection::vec(finite_f64(-9.0, 9.0), 6), col in 0usize..3) {
        let mut a = Array2::zeros(6, 3);
        a.scatter_col(col, &vals);
        let mut out = vec![0.0; 6];
        a.gather_col(col, &mut out);
        prop_assert_eq!(out, vals);
    }
}
