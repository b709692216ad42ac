//! Aggregate verification report: runs all three pillars and renders the
//! outcome for humans (terminal) and machines (JSON artifact).

use serde::Serialize;

use crate::conservation::{self, ConservationCase};
use crate::mms::{self, MmsCase};
use crate::oracle::{self, OracleConfig, OracleReport};
use crate::snapshot::GoldenDiff;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct VerifyConfig {
    /// Quick mode: one MMS ladder and two conservation cases instead of
    /// every ladder and case. The oracle runs its one plan list
    /// ([`OracleConfig::standard`]) in both modes.
    pub quick: bool,
}

/// The complete verification outcome.
#[derive(Clone, Debug, Serialize)]
pub struct VerifyReport {
    /// Mode the report was produced in.
    pub quick: bool,
    /// MMS refinement sweeps.
    pub mms: Vec<MmsCase>,
    /// Conservation ledgers.
    pub conservation: Vec<ConservationCase>,
    /// Differential-oracle matrix.
    pub oracle: OracleReport,
    /// Golden-snapshot diff (absent when blessing or when skipped).
    pub golden: Option<GoldenDiff>,
}

impl VerifyReport {
    /// Overall verdict.
    pub fn pass(&self) -> bool {
        self.mms.iter().all(|c| c.pass)
            && self.conservation.iter().all(|c| c.pass)
            && self.oracle.pass()
            && self.golden.as_ref().is_none_or(|g| g.pass)
    }

    /// Serialize for the CI artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mark = |ok: bool| if ok { "ok " } else { "FAIL" };
        out.push_str("== MMS order verification ==\n");
        for c in &self.mms {
            out.push_str(&format!(
                "[{}] {:24} interior orders {:?} (floor {}), global orders {:?} (floor {})\n",
                mark(c.pass),
                c.name,
                c.interior_orders.iter().map(|o| (o * 100.0).round() / 100.0).collect::<Vec<_>>(),
                c.order_floor,
                c.global_orders.iter().map(|o| (o * 100.0).round() / 100.0).collect::<Vec<_>>(),
                c.global_floor,
            ));
        }
        out.push_str("== Conservation ledgers ==\n");
        for c in &self.conservation {
            let max_res = c.residual_rel.iter().cloned().fold(0.0f64, f64::max);
            let max_drift = c.drift_rel.iter().cloned().fold(0.0f64, f64::max);
            out.push_str(&format!(
                "[{}] {:24} {} steps: max residual {max_res:.2e} (tol {:.0e}), max raw drift {max_drift:.2e}\n",
                mark(c.pass),
                c.name,
                c.steps,
                c.tolerance,
            ));
        }
        out.push_str("== Differential oracle ==\n");
        let failed: Vec<_> = self.oracle.cells.iter().filter(|c| !c.pass).collect();
        out.push_str(&format!(
            "[{}] {} cells on {}x{} grid, {} steps ({} bitwise, {} tolerance-bounded)\n",
            mark(failed.is_empty()),
            self.oracle.cells.len(),
            self.oracle.grid[0],
            self.oracle.grid[1],
            self.oracle.steps,
            self.oracle.cells.iter().filter(|c| c.expected.starts_with("bitwise")).count(),
            self.oracle.cells.iter().filter(|c| c.expected.starts_with("rel")).count(),
        ));
        for c in failed {
            out.push_str(&format!(
                "  FAIL {} vs {}: expected {}, max abs diff {:.3e} (rel {:.3e})\n",
                c.key, c.baseline, c.expected, c.max_abs_diff, c.rel_diff
            ));
        }
        if let Some(g) = &self.golden {
            out.push_str("== Golden snapshots ==\n");
            out.push_str(&format!("[{}] {} golden entries checked\n", mark(g.pass), g.checked));
            for m in &g.mismatches {
                out.push_str(&format!("  FAIL {m}\n"));
            }
        }
        out.push_str(&format!("verify: {}\n", if self.pass() { "PASS" } else { "FAIL" }));
        out
    }
}

/// Run the full verification suite (golden diff left to the caller, which
/// knows the file location).
pub fn run(cfg: &VerifyConfig) -> VerifyReport {
    let mms = mms::run_sweeps(cfg.quick);
    let conservation = conservation::run_cases(cfg.quick);
    let oracle = oracle::run_matrix(&OracleConfig::standard());
    VerifyReport { quick: cfg.quick, mms, conservation, oracle, golden: None }
}
