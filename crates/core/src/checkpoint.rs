//! Checkpoint / restart.
//!
//! The paper's production runs took "many hours of CPU time on the Cray
//! Y-MP"; any code of that class needs restart files. A checkpoint captures
//! everything the time stepper depends on — configuration, clock, step
//! parity (which selects the `L1`/`L2` operator variant), the conservative
//! field and the instrumentation — so a restored run continues **bitwise
//! identically**, which the tests assert.

use crate::config::SolverConfig;
use crate::driver::Solver;
use crate::field::{Field, Patch, Workspace};
use crate::opcount::FlopLedger;
use ns_numerics::Array2;
use serde::{Deserialize, Serialize};

/// A self-contained snapshot of a (serial) solver.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub format: u32,
    /// Full solver configuration.
    pub cfg: SolverConfig,
    /// Physical time.
    pub t: f64,
    /// Completed steps (parity selects the next operator variant).
    pub nstep: u64,
    /// FLOP ledger.
    pub ledger: FlopLedger,
    /// The patch the field covers.
    pub patch: Patch,
    /// Conservative component planes (including ghosts).
    pub q: [Array2; 4],
}

/// Errors from checkpoint (de)serialization.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying JSON error.
    Json(serde_json::Error),
    /// Unsupported format version.
    BadFormat(u32),
    /// Checkpoint is inconsistent (shape mismatch etc.).
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Json(e) => write!(f, "checkpoint JSON error: {e}"),
            CheckpointError::BadFormat(v) => write!(f, "unsupported checkpoint format {v}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Json(e)
    }
}

/// Current checkpoint format version.
pub const FORMAT: u32 = 1;

/// Largest step count or FLOP counter a checkpoint may carry: 2^60, 36
/// years of FLOPs at 1 GFLOP/s, and far enough below `u64::MAX` that
/// stepping on, or summing the six ledger counters, cannot overflow.
const COUNTER_LIMIT: u64 = 1 << 60;

impl Checkpoint {
    /// Capture a solver's state.
    pub fn capture(solver: &Solver) -> Self {
        Self {
            format: FORMAT,
            cfg: solver.cfg.clone(),
            t: solver.t,
            nstep: solver.nstep,
            ledger: solver.ledger,
            patch: solver.field.patch.clone(),
            q: solver.field.q.clone(),
        }
    }

    /// Serialize to JSON bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        Ok(serde_json::to_vec(self)?)
    }

    /// Deserialize from JSON bytes with validation: whatever the bytes, the
    /// result is an error or a checkpoint whose [`restore`](Self::restore)
    /// steps without panicking.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        use crate::field::NG;
        let cp: Checkpoint = serde_json::from_slice(bytes)?;
        if cp.format != FORMAT {
            return Err(CheckpointError::BadFormat(cp.format));
        }
        if cp.patch.grid != cp.cfg.grid {
            return Err(CheckpointError::Corrupt("patch grid does not match the configuration"));
        }
        let grid = &cp.cfg.grid;
        if grid.nx < 5 || grid.nr < 5 {
            return Err(CheckpointError::Corrupt("grid smaller than the scheme's 5 points per direction"));
        }
        // What restores is a serial solver, and a distributed restart
        // scatters the whole field: a checkpoint covers its grid.
        if cp.patch != Patch::whole(grid.clone()) {
            return Err(CheckpointError::Corrupt("patch is not the whole of its grid"));
        }
        // Checked: a grid as wide as `usize` has a ghosted width that
        // overflows.
        let (ni, nj) = (grid.nx.checked_add(2 * NG), grid.nr.checked_add(2 * NG));
        for plane in &cp.q {
            if Some(plane.ni()) != ni || Some(plane.nj()) != nj {
                return Err(CheckpointError::Corrupt("field plane shape does not match the patch"));
            }
            if Some(plane.len()) != plane.ni().checked_mul(plane.nj()) {
                return Err(CheckpointError::Corrupt("field plane data does not match its shape"));
            }
            if !plane.all_finite() {
                return Err(CheckpointError::Corrupt("non-finite state"));
            }
        }
        // A smoothing coefficient the step would refuse mid-run.
        if !crate::dissipation::admissible(cp.cfg.dissipation) {
            return Err(CheckpointError::Corrupt("smoothing coefficient not below 1/16"));
        }
        let l = &cp.ledger;
        let counters = [cp.nstep, l.prims, l.flux, l.source, l.update, l.boundary, l.dissipation];
        if counters.iter().any(|&c| c > COUNTER_LIMIT) {
            return Err(CheckpointError::Corrupt("step or FLOP count out of range"));
        }
        Ok(cp)
    }

    /// Rebuild a solver that continues exactly where the captured one was.
    pub fn restore(self) -> Solver {
        let field = Field { q: self.q, patch: self.patch };
        let ws = Workspace::new(&field.patch);
        Solver::from_parts(self.cfg, field, ws, self.t, self.nstep, self.ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Regime, SolverConfig};
    use ns_numerics::Grid;

    fn solver() -> Solver {
        Solver::new(SolverConfig::paper(Grid::small(), Regime::NavierStokes))
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let mut s = solver();
        s.run(5);
        let cp = Checkpoint::capture(&s);
        let bytes = cp.to_bytes().unwrap();
        let restored = Checkpoint::from_bytes(&bytes).unwrap().restore();
        assert_eq!(restored.t, s.t);
        assert_eq!(restored.nstep, s.nstep);
        assert_eq!(restored.ledger, s.ledger);
        assert_eq!(restored.field.max_diff(&s.field), 0.0);
    }

    /// A restart is bitwise transparent, damped too: the restored solver
    /// smooths about the fresh one's `t = 0` base, whose inflow column 0 is
    /// already excited.
    #[test]
    fn restored_run_continues_identically() {
        // run 5 + 7 steps in one go vs checkpoint at 5 and continue
        for regime in [Regime::Euler, Regime::NavierStokes] {
            for dissipation in [0.0, 0.002] {
                let cfg = SolverConfig { dissipation, ..SolverConfig::paper(Grid::small(), regime) };
                let mut reference = Solver::new(cfg.clone());
                reference.run(12);

                let mut first = Solver::new(cfg);
                first.run(5);
                let bytes = Checkpoint::capture(&first).to_bytes().unwrap();
                let mut resumed = Checkpoint::from_bytes(&bytes).unwrap().restore();
                resumed.run(7);

                assert_eq!(resumed.nstep, reference.nstep);
                let d = resumed.field.max_diff(&reference.field);
                assert_eq!(d, 0.0, "{regime:?} eps {dissipation}: restart must be bitwise transparent");
            }
        }
    }

    #[test]
    fn odd_step_parity_is_preserved() {
        // checkpoint at an odd step: the next operator variant must be L2's,
        // which only happens if nstep survives the roundtrip
        let mut a = solver();
        a.run(3);
        let mut b = Checkpoint::capture(&a)
            .to_bytes()
            .and_then(|v| Checkpoint::from_bytes(&v))
            .map(Checkpoint::restore)
            .unwrap();
        a.run(1);
        b.run(1);
        assert_eq!(a.field.max_diff(&b.field), 0.0);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let s = solver();
        let mut cp = Checkpoint::capture(&s);
        cp.format = 99;
        let bytes = serde_json::to_vec(&cp).unwrap();
        assert!(matches!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::BadFormat(99))));

        let mut cp = Checkpoint::capture(&s);
        cp.q[2] = Array2::zeros(3, 3);
        let bytes = serde_json::to_vec(&cp).unwrap();
        assert!(matches!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::Corrupt(_))));

        // non-finite state: JSON itself cannot carry NaN (serde_json emits
        // null), so the rejection surfaces at the parse layer — either way,
        // a NaN-bearing checkpoint never restores
        let mut cp = Checkpoint::capture(&s);
        cp.q[0].set(5, 5, f64::NAN);
        let bytes = serde_json::to_vec(&cp).unwrap();
        assert!(Checkpoint::from_bytes(&bytes).is_err());

        assert!(Checkpoint::from_bytes(b"not json").is_err());
    }
}
