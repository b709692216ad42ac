//! Figures 9, 10 and 13: the cross-platform comparison and load balance.

use crate::report::{Report, Series};
use ns_archsim::cpu::serial_flops;
use ns_archsim::{simulate, Calibration, Platform, SimConfig, YmpModel};
use ns_core::config::Regime;

/// Processor counts for the platform shootout.
pub const PROCS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// Figures 9 (N-S) and 10 (Euler): execution time on all platforms.
pub fn fig9_10(regime: Regime) -> Report {
    let fig = if regime == Regime::NavierStokes { 9 } else { 10 };
    let mut r = Report::new(
        format!("Figure {fig}: Execution time of {} on computing platforms", regime.name()),
        "processors",
        "seconds",
    );
    // Cray Y-MP: analytic shared-memory model, up to its 8 CPUs
    let cal = Calibration::standard();
    let flops = serial_flops(regime, 5000);
    let ymp = YmpModel::standard();
    let ymp_pts = [1usize, 2, 4, 8].iter().map(|&p| (p as f64, ymp.seconds_for(cal, p, flops))).collect();
    r.series.push(Series::new("Cray Y-MP", ymp_pts));

    for (platform, label) in [
        (Platform::ibm_sp_mpl(), "IBM SP (RS6K/370)"),
        (Platform::lace560_allnode_s(), "ALLNODE-S"),
        (Platform::cray_t3d(), "Cray T3D"),
        (Platform::lace590_allnode_f(), "ALLNODE-F"),
    ] {
        let pts = PROCS
            .iter()
            .map(|&p| {
                let res = simulate(&SimConfig::paper(platform, p, regime));
                (p as f64, res.total)
            })
            .collect();
        r.series.push(Series::new(label, pts));
    }
    r.notes.push(
        "paper: Y-MP fastest; LACE even with ALLNODE-S beats the SP; T3D always below ALLNODE-F, crosses ALLNODE-S near 8 procs; LACE/590 x16 ~ one Y-MP CPU".into(),
    );
    r
}

/// Figure 13: per-processor busy times (N-S, IBM SP, 16 processors).
pub fn fig13() -> Report {
    let mut r =
        Report::new("Figure 13: Processor busy times (Navier-Stokes; IBM SP, 16 procs)", "processor", "seconds");
    let res = simulate(&SimConfig::paper(Platform::ibm_sp_mpl(), 16, Regime::NavierStokes));
    let pts = res.busy.iter().enumerate().map(|(k, &b)| (k as f64 + 1.0, b)).collect();
    r.series.push(Series::new("busy time", pts));
    r.notes.push("paper: almost perfect load balancing; residual spread comes from the 250/16 block remainder and edge ranks' lighter message load".into());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ymp_dominates_everything() {
        for regime in [Regime::NavierStokes, Regime::Euler] {
            let r = fig9_10(regime);
            let ymp8 = r.series("Cray Y-MP").unwrap().at(8.0).unwrap();
            for other in ["IBM SP (RS6K/370)", "ALLNODE-S", "Cray T3D", "ALLNODE-F"] {
                let t = r.series(other).unwrap().at(8.0).unwrap();
                assert!(ymp8 < t, "{regime:?}: Y-MP {ymp8} must beat {other} {t}");
            }
        }
    }

    #[test]
    fn allnode_s_beats_the_sp() {
        let r = fig9_10(Regime::NavierStokes);
        let sp = r.series("IBM SP (RS6K/370)").unwrap();
        let aln = r.series("ALLNODE-S").unwrap();
        for &p in &[4.0, 8.0, 16.0] {
            assert!(aln.at(p).unwrap() < sp.at(p).unwrap(), "ALLNODE-S faster than SP at {p}");
        }
    }

    #[test]
    fn t3d_crosses_allnode_s_near_eight() {
        let r = fig9_10(Regime::NavierStokes);
        let t3d = r.series("Cray T3D").unwrap();
        let aln = r.series("ALLNODE-S").unwrap();
        assert!(t3d.at(2.0).unwrap() > aln.at(2.0).unwrap(), "T3D worse below 8");
        assert!(t3d.at(4.0).unwrap() > aln.at(4.0).unwrap(), "T3D worse below 8");
        assert!(t3d.at(12.0).unwrap() < aln.at(12.0).unwrap(), "T3D better beyond 8");
        assert!(t3d.at(16.0).unwrap() < aln.at(16.0).unwrap(), "T3D better beyond 8");
    }

    #[test]
    fn t3d_never_beats_allnode_f() {
        let r = fig9_10(Regime::NavierStokes);
        let t3d = r.series("Cray T3D").unwrap();
        let f = r.series("ALLNODE-F").unwrap();
        for &(p, t) in &t3d.points {
            assert!(t > f.at(p).unwrap(), "ALLNODE-F always ahead at P={p}");
        }
    }

    #[test]
    fn lace590_at_16_is_comparable_to_one_ymp_cpu() {
        let r = fig9_10(Regime::NavierStokes);
        let f16 = r.series("ALLNODE-F").unwrap().at(16.0).unwrap();
        let ymp1 = r.series("Cray Y-MP").unwrap().at(1.0).unwrap();
        let ratio = f16 / ymp1;
        assert!(ratio > 0.4 && ratio < 2.0, "paper: 'comparable'; ratio {ratio}");
    }

    #[test]
    fn fig13_is_nearly_flat() {
        let r = fig13();
        let s = &r.series[0];
        let mn = s.points.iter().map(|&(_, y)| y).fold(f64::INFINITY, f64::min);
        let mx = s.points.iter().map(|&(_, y)| y).fold(0.0, f64::max);
        assert_eq!(s.points.len(), 16);
        assert!((mx - mn) / mx < 0.2, "spread {mn}..{mx}");
    }
}
