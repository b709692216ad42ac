//! Figures 3-8: the LACE network study.
//!
//! * Figures 3/4 — execution time on ALLNODE-F, ALLNODE-S and Ethernet
//!   (ATM and FDDI tracked their switch-class twins in the paper; we emit
//!   them as extra series so the claim is checkable).
//! * Figures 5/6 — processor busy time vs non-overlapped communication.
//! * Figures 7/8 — communication variants (Versions 5/6/7) on ALLNODE-S and
//!   Ethernet.

use crate::report::{Report, Series};
use ns_archsim::{simulate, Platform, SimConfig};
use ns_core::config::Regime;
use ns_runtime::CommVersion;

/// Processor counts the paper sweeps on LACE.
pub const LACE_PROCS: [usize; 7] = [1, 2, 4, 6, 8, 12, 16];

fn total_series(platform: Platform, regime: Regime, label: &str) -> Series {
    let pts = LACE_PROCS
        .iter()
        .map(|&p| {
            let r = simulate(&SimConfig::paper(platform, p, regime));
            (p as f64, r.total)
        })
        .collect();
    Series::new(label, pts)
}

/// Figures 3 (N-S) and 4 (Euler): execution time on the LACE networks.
pub fn fig3_4(regime: Regime) -> Report {
    let fig = if regime == Regime::NavierStokes { 3 } else { 4 };
    let mut r = Report::new(format!("Figure {fig}: {} execution time on LACE", regime.name()), "processors", "seconds");
    r.series.push(total_series(Platform::lace590_allnode_f(), regime, "ALLNODE-F"));
    r.series.push(total_series(Platform::lace560_allnode_s(), regime, "ALLNODE-S"));
    r.series.push(total_series(Platform::lace560_ethernet(), regime, "LACE/560 Ethernet"));
    r.series.push(total_series(Platform::lace590_atm(), regime, "ATM (tracks ALLNODE-F)"));
    r.series.push(total_series(Platform::lace560_fddi(), regime, "FDDI (tracks ALLNODE-S)"));
    r.notes.push("paper: ALLNODE-F ~70-80% faster than ALLNODE-S; Ethernet peaks near 8-10 processors".into());
    r
}

/// Figures 5 (N-S) and 6 (Euler): components of execution time.
pub fn fig5_6(regime: Regime) -> Report {
    let fig = if regime == Regime::NavierStokes { 5 } else { 6 };
    let mut r = Report::new(
        format!("Figure {fig}: Components of execution time ({}; LACE)", regime.name()),
        "processors",
        "seconds",
    );
    let mut busy_f = Vec::new();
    let mut wait_f = Vec::new();
    let mut busy_s = Vec::new();
    let mut wait_s = Vec::new();
    let mut wait_e = Vec::new();
    for &p in &LACE_PROCS {
        let f = simulate(&SimConfig::paper(Platform::lace590_allnode_f(), p, regime));
        busy_f.push((p as f64, f.mean_busy()));
        wait_f.push((p as f64, f.max_wait().max(1e-3)));
        let s = simulate(&SimConfig::paper(Platform::lace560_allnode_s(), p, regime));
        busy_s.push((p as f64, s.mean_busy()));
        wait_s.push((p as f64, s.max_wait().max(1e-3)));
        let e = simulate(&SimConfig::paper(Platform::lace560_ethernet(), p, regime));
        wait_e.push((p as f64, e.max_wait().max(1e-3)));
    }
    r.series.push(Series::new("LACE/590 Processor busy time", busy_f));
    r.series.push(Series::new("ALLNODE-F Non-overlapped Comm.", wait_f));
    r.series.push(Series::new("LACE/560 Processor busy time", busy_s));
    r.series.push(Series::new("ALLNODE-S Non-overlapped Comm.", wait_s));
    r.series.push(Series::new("Non-overlapped Comm. (Ethernet)", wait_e));
    r.notes.push("paper: busy time falls linearly; Ethernet wait grows superlinearly; ALLNODE wait steady to ~10-12 procs then rises".into());
    r
}

/// Figures 7 (N-S) and 8 (Euler): communication optimization study.
pub fn fig7_8(regime: Regime) -> Report {
    let fig = if regime == Regime::NavierStokes { 7 } else { 8 };
    let mut r = Report::new(
        format!("Figure {fig}: Communication optimization ({}; LACE)", regime.name()),
        "processors",
        "seconds",
    );
    for (mode, mname) in
        [(CommVersion::V5, "Version 5"), (CommVersion::V6, "Version 6"), (CommVersion::V7, "Version 7")]
    {
        for (platform, pname) in
            [(Platform::lace560_allnode_s(), "ALLNODE-S"), (Platform::lace560_ethernet(), "Ethernet")]
        {
            let pts = LACE_PROCS
                .iter()
                .map(|&p| {
                    let mut cfg = SimConfig::paper(platform, p, regime);
                    cfg.comm = mode;
                    (p as f64, simulate(&cfg).total)
                })
                .collect();
            r.series.push(Series::new(format!("{mname} {pname}"), pts));
        }
    }
    r.notes.push(
        "paper: V6 ~ V5 everywhere; V7 helps only Ethernet (fewer bursts) and hurts ALLNODE (more start-ups)".into(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_orderings_match_paper() {
        let r = fig3_4(Regime::NavierStokes);
        let f = r.series("ALLNODE-F").unwrap();
        let s = r.series("ALLNODE-S").unwrap();
        let e = r.series("LACE/560 Ethernet").unwrap();
        for &p in &[4.0, 8.0, 16.0] {
            assert!(f.at(p).unwrap() < s.at(p).unwrap(), "ALLNODE-F faster at P={p}");
            assert!(s.at(p).unwrap() <= e.at(p).unwrap() * 1.001, "ALLNODE-S beats Ethernet at P={p}");
        }
        // Ethernet degrades past its peak
        assert!(e.at(16.0).unwrap() > e.at(8.0).unwrap());
        // ALLNODE-F is 70-80% faster than ALLNODE-S in the paper; allow a
        // generous band around that
        let gain = s.at(8.0).unwrap() / f.at(8.0).unwrap();
        assert!(gain > 1.3 && gain < 2.3, "ALLNODE-F gain {gain}");
    }

    #[test]
    fn atm_and_fddi_track_their_twins() {
        let r = fig3_4(Regime::Euler);
        let f = r.series("ALLNODE-F").unwrap();
        let atm = r.series("ATM (tracks ALLNODE-F)").unwrap();
        for &p in &[2.0, 8.0, 16.0] {
            let rel = (atm.at(p).unwrap() - f.at(p).unwrap()).abs() / f.at(p).unwrap();
            assert!(rel < 0.15, "ATM within 15% of ALLNODE-F at P={p}: {rel}");
        }
    }

    #[test]
    fn fig5_busy_falls_linearly_and_ethernet_wait_explodes() {
        let r = fig5_6(Regime::NavierStokes);
        let busy = r.series("LACE/560 Processor busy time").unwrap();
        let ratio = busy.at(1.0).unwrap() / busy.at(8.0).unwrap();
        assert!(ratio > 6.0 && ratio < 9.5, "busy falls ~linearly: {ratio}");
        let we = r.series("Non-overlapped Comm. (Ethernet)").unwrap();
        assert!(we.at(16.0).unwrap() > 4.0 * we.at(4.0).unwrap(), "superlinear Ethernet wait");
    }

    #[test]
    fn fig7_v7_helps_ethernet_hurts_allnode() {
        let r = fig7_8(Regime::NavierStokes);
        let v5e = r.series("Version 5 Ethernet").unwrap().at(16.0).unwrap();
        let v7e = r.series("Version 7 Ethernet").unwrap().at(16.0).unwrap();
        let v5a = r.series("Version 5 ALLNODE-S").unwrap().at(16.0).unwrap();
        let v7a = r.series("Version 7 ALLNODE-S").unwrap().at(16.0).unwrap();
        // Deviation from the paper, documented in EXPERIMENTS.md: the paper
        // saw a *small improvement* from V7 on Ethernet (burstiness caused
        // UDP loss + PVM retransmission, which a FIFO bus model cannot
        // reproduce); in our model V7 is volume-neutral on Ethernet.
        assert!(v7e <= v5e * 1.02, "V7 ~ V5 on Ethernet: {v7e} vs {v5e}");
        assert!(v7a > v5a * 1.01, "V7 hurts ALLNODE-S: {v7a} vs {v5a}");
        let v6a = r.series("Version 6 ALLNODE-S").unwrap().at(8.0).unwrap();
        let rel = (v6a - r.series("Version 5 ALLNODE-S").unwrap().at(8.0).unwrap()).abs() / v6a;
        assert!(rel < 0.1, "V6 ~ V5: {rel}");
    }
}
