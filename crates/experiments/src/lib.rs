#![warn(missing_docs)]

//! # ns-experiments
//!
//! The experiment harness: one generator per table and figure of the paper,
//! each returning a [`report::Report`] that prints the same rows/series the
//! paper plots, annotated with the paper's reference values.
//!
//! | Paper artifact | Generator |
//! |---|---|
//! | Table 1 | [`tables::table1`] |
//! | Table 2 | [`tables::table2`] |
//! | Figure 1 | [`fig_flow::excited_jet`] |
//! | Figure 2 | [`fig_versions::simulated_1995`] (the host's ladder: [`bench_report`]) |
//! | Figures 3-4 | [`fig_lace::fig3_4`] |
//! | Figures 5-6 | [`fig_lace::fig5_6`] |
//! | Figures 7-8 | [`fig_lace::fig7_8`] |
//! | Figures 9-10 | [`fig_platforms::fig9_10`] |
//! | Figures 11-12 | [`fig_msglib::fig11_12`] |
//! | Figure 13 | [`fig_platforms::fig13`] |
//!
//! [`speedup`] adds the modern real-host scalability check, [`validation`]
//! pins the analytic workload model to the live solver, and [`extensions`]
//! runs the studies the paper's conclusion names as future work (radial
//! decomposition, larger machines, weak scaling).

pub mod acoustics;
pub mod bench_report;
pub mod chaos;
pub mod contour;
pub mod extensions;
pub mod fig_flow;
pub mod fig_lace;
pub mod fig_msglib;
pub mod fig_platforms;
pub mod fig_versions;
pub mod report;
pub mod scaling;
pub mod speedup;
pub mod tables;
pub mod validation;

pub use report::{Report, Series};

/// Regenerate every simulated table/figure report (Figure 1 and the host
/// measurements are excluded: they run the live solver and are exposed as
/// examples, benches and `jetns` subcommands).
pub fn all_reports() -> Vec<Report> {
    use ns_core::config::Regime::{Euler, NavierStokes};
    vec![
        tables::table1(),
        tables::table2(),
        fig_versions::simulated_1995(),
        fig_lace::fig3_4(NavierStokes),
        fig_lace::fig3_4(Euler),
        fig_lace::fig5_6(NavierStokes),
        fig_lace::fig5_6(Euler),
        fig_lace::fig7_8(NavierStokes),
        fig_lace::fig7_8(Euler),
        fig_platforms::fig9_10(NavierStokes),
        fig_platforms::fig9_10(Euler),
        fig_msglib::fig11_12(NavierStokes),
        fig_msglib::fig11_12(Euler),
        fig_platforms::fig13(),
    ]
}
