//! The run shape: everything about a run but its physics and its length.
//!
//! The paper indexes every experiment by the same few axes: processors and
//! their layout, the message protocol (Versions 5–7), and shared versus
//! distributed memory. A [`Shape`] is those axes, owned and `Copy`, so the
//! differential oracle's runs and the served jobs describe a run the same
//! way; [`Shape::plan`] turns it into the executable [`RunPlan`] for a
//! solver configuration and a step count.

use crate::halo::CommVersion;
use crate::parallel::RunPlan;
use crate::recover::ChaosOptions;
use crate::topology::CartTopology;
use crate::FaultPlan;
use ns_core::config::SolverConfig;

/// How a run is laid out and protected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Rank grid (1×1 is the serial run).
    pub topology: CartTopology,
    /// Halo protocol.
    pub comm: CommVersion,
    /// The recovery machinery armed on a fault-free plan: framed channels,
    /// coordinated checkpoints, nothing injected.
    pub chaos: bool,
    /// DOALL team per rank (1: none); the 1×1 shape with a team is the
    /// shared-memory (Y-MP) solver.
    pub threads: usize,
}

impl Shape {
    /// The serial run: one rank, comm V5, nothing armed.
    pub const SERIAL: Shape =
        Shape { topology: CartTopology { px: 1, pr: 1 }, comm: CommVersion::V5, chaos: false, threads: 1 };

    /// The same run with description-level freedom normalized away: a 1×1
    /// shape exchanges nothing, so its comm protocol is V5.
    pub fn canonical(self) -> Shape {
        let comm = if self.topology.size() == 1 { CommVersion::V5 } else { self.comm };
        Shape { comm, ..self }
    }

    /// Stable name, e.g. `serial`, `parallel/p4/commV6` or
    /// `chaos-pencil/2x2/t2`: the layout and arming, then the protocol
    /// unless V5, then the team unless 1.
    pub fn name(&self) -> String {
        let CartTopology { px, pr } = self.topology;
        let layout = match (px * pr, pr, self.chaos) {
            (1, _, false) => "serial".to_string(),
            (_, 1, false) => format!("parallel/p{px}"),
            (_, 1, true) => format!("chaos/p{px}"),
            (_, _, false) => format!("pencil/{px}x{pr}"),
            (_, _, true) => format!("chaos-pencil/{px}x{pr}"),
        };
        let comm = if self.comm == CommVersion::V5 { String::new() } else { format!("/comm{}", self.comm.name()) };
        let team = if self.threads == 1 { String::new() } else { format!("/t{}", self.threads) };
        format!("{layout}{comm}{team}")
    }

    /// What a served job's `backend` names this shape, with its `procs`:
    /// `serial` (1×1), `parallel` (`procs`×1), `chaos` (`procs`×1, recovery
    /// armed) or `shared` (1×1 with a team of `procs`). `None` for a shape
    /// no backend names: a radial split, or a team on several ranks or
    /// under recovery.
    pub fn alias(&self) -> Option<(&'static str, usize)> {
        let CartTopology { px, pr } = self.topology;
        match (pr, self.chaos, self.threads) {
            (1, false, 1) if px == 1 => Some(("serial", 1)),
            (1, false, 1) => Some(("parallel", px)),
            (1, true, 1) => Some(("chaos", px)),
            (1, false, t) if px == 1 => Some(("shared", t)),
            _ => None,
        }
    }

    /// The canonical shape's cache-key text, `|procs|commVn|backend`: the
    /// text served results have always been keyed by, so spill files and
    /// journals outlive this code.
    ///
    /// # Panics
    /// For a shape no backend names ([`Shape::alias`]); nothing serves one.
    pub fn key(&self) -> String {
        let c = self.canonical();
        let (backend, procs) = c.alias().expect("a served shape is one a backend names");
        format!("|{procs}|comm{}|{backend}", c.comm.name())
    }

    /// The executable plan of `cfg` in this shape for `steps` steps. This
    /// is the one place a fault-free recovery plan is armed: checkpoints at
    /// the default cadence, nothing injected.
    pub fn plan<'a>(&self, cfg: &'a SolverConfig, steps: u64) -> RunPlan<'a> {
        let reliability = self.chaos.then(|| ChaosOptions { plan: FaultPlan::none(42), ..Default::default() });
        RunPlan { reliability, threads: self.threads, ..RunPlan::new(cfg, self.topology, steps, self.comm) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(px: usize, pr: usize, comm: CommVersion, chaos: bool, threads: usize) -> Shape {
        Shape { topology: CartTopology { px, pr }, comm, chaos, threads }
    }

    #[test]
    fn names_list_the_axes_that_differ_from_serial() {
        use CommVersion::{V5, V6};
        assert_eq!(Shape::SERIAL.name(), "serial");
        assert_eq!(shape(4, 1, V6, false, 1).name(), "parallel/p4/commV6");
        assert_eq!(shape(2, 2, V5, true, 2).name(), "chaos-pencil/2x2/t2");
        assert_eq!(shape(1, 1, V6, false, 1).name(), "serial/commV6", "the name keeps what was asked");
    }

    /// A 1×1 shape's protocol moves nothing: it keys as comm V5.
    #[test]
    fn one_rank_keys_ignore_the_protocol() {
        use CommVersion::V7;
        assert_eq!(shape(1, 1, V7, false, 1).key(), Shape::SERIAL.key());
        assert_eq!(Shape::SERIAL.key(), "|1|commV5|serial");
        assert_eq!(shape(1, 1, V7, true, 1).key(), "|1|commV5|chaos");
        assert_eq!(shape(3, 1, V7, false, 1).key(), "|3|commV7|parallel");
        assert_eq!(shape(1, 1, V7, false, 2).key(), "|2|commV5|shared");
    }

    #[test]
    fn the_plan_arms_what_the_shape_says() {
        let cfg = SolverConfig::paper(ns_numerics::Grid::small(), ns_core::config::Regime::Euler);
        let plan = shape(2, 1, CommVersion::V6, true, 3).plan(&cfg, 5);
        assert_eq!(
            (plan.topology, plan.comm, plan.threads, plan.nsteps),
            (CartTopology::axial(2), CommVersion::V6, 3, 5)
        );
        assert!(plan.reliability.is_some_and(|r| r.checkpoint_every < 5 && r.plan == FaultPlan::none(42)));
        assert!(Shape::SERIAL.plan(&cfg, 5).reliability.is_none());
    }
}
