//! Figure 2: single-processor execution time of the optimization versions.
//!
//! [`simulated_1995`] is the calibrated RS6000/560 model's wall time for
//! each version on the paper's full problem (it matches Figure 2's absolute
//! scale by construction of the two anchors). The host's own ladder is
//! measured by the `solver_kernels` bench and rendered by `jetns
//! bench-report`.

use crate::report::{Report, Series};
use ns_archsim::cpu::serial_flops;
use ns_archsim::{Calibration, CpuSpec};
use ns_core::config::{Regime, Version};
use ns_numerics::Grid;

/// Simulated 1995 execution times (seconds, 5000 steps, 250x100) per
/// version, for both applications.
pub fn simulated_1995() -> Report {
    let cal = Calibration::standard();
    let cpu = CpuSpec::rs6000_560();
    let grid = Grid::paper();
    let mut r =
        Report::new("Figure 2: Execution time on a single processor (RS6000/560)", "version", "seconds (5000 steps)");
    for (regime, label) in [(Regime::NavierStokes, "Navier-Stokes"), (Regime::Euler, "Euler")] {
        let flops = serial_flops(regime, 5000);
        let pts = Version::ALL
            .iter()
            .map(|&v| (v.index() as f64, cal.seconds_for(&cpu, v, grid.nx, grid.nr, flops)))
            .collect();
        r.series.push(Series::new(label, pts));
    }
    r.notes.push("paper anchors: N-S V1 ~15600 s (9.3 MFLOPS), V5 ~9060 s (16.0 MFLOPS)".into());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_times_decrease_with_version() {
        let r = simulated_1995();
        for s in &r.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-9, "{}: {:?}", s.label, s.points);
            }
        }
    }

    #[test]
    fn simulated_ns_v1_and_v5_match_paper_scale() {
        let r = simulated_1995();
        let ns = r.series("Navier-Stokes").unwrap();
        let v1 = ns.at(1.0).unwrap();
        let v5 = ns.at(5.0).unwrap();
        assert!((v1 - 15591.0).abs() / 15591.0 < 0.02, "V1 {v1}");
        assert!((v5 - 9062.0).abs() / 9062.0 < 0.02, "V5 {v5}");
        // ~80% overall improvement
        assert!(v1 / v5 > 1.6 && v1 / v5 < 1.9);
    }

    #[test]
    fn euler_is_cheaper_at_every_version() {
        let r = simulated_1995();
        let ns = r.series("Navier-Stokes").unwrap();
        let eu = r.series("Euler").unwrap();
        for k in 1..=6 {
            assert!(eu.at(k as f64).unwrap() < ns.at(k as f64).unwrap());
        }
    }
}
