//! The workload table. Sizes are fixed here; `--seconds` only changes how
//! many reps of a workload fit in a run.

use crate::core_layer::SolverCase;
use crate::runtime_layer::Topo;
use crate::serve_layer::{Phase, ServeCase, HOT_CACHE_BYTES};
use ns_core::config::{Regime, Version};

/// Which layer a workload drives end to end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Serial `Solver::step`s.
    Step,
    /// A live `run_parallel*` call on this rank grid.
    Par(Topo),
    /// Socket round trips against an in-process daemon.
    Serve,
}

/// One workload: what its untraced run times, and the problem sizes a
/// traced run uses for each layer's ledger.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The layer the untraced run drives.
    pub kind: Kind,
    /// Solver problem: the workload's own for `step_*`/`par_*`, the median
    /// job shape for `serve_*`.
    pub solver: SolverCase,
    /// Daemon life: the workload's own for `serve_*`, a short one for the
    /// others.
    pub serve: ServeCase,
}

const PAPER_NS: SolverCase =
    SolverCase { nx: 250, nr: 100, regime: Regime::NavierStokes, version: Version::V5, warm: 40, steps: 200 };

/// A short daemon life for the traced runs of non-serve workloads; 256 cold
/// jobs so its p95 has ten samples beyond it.
const SERVE_BRIEF: ServeCase =
    ServeCase { cache_budget_bytes: HOT_CACHE_BYTES, cold: 256, hot: 1024, timed: Phase::Cold };

/// The median `serve_*` job (44 x 17, 3 steps would be too short to time:
/// the ledgers run it for 200).
const SERVE_JOB: SolverCase =
    SolverCase { nx: 44, nr: 17, regime: Regime::NavierStokes, version: Version::V5, warm: 20, steps: 200 };

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 7] = [
    Workload {
        name: "step_paper_ns",
        kind: Kind::Step,
        solver: SolverCase { version: Version::V7, warm: 10, steps: 500, ..PAPER_NS },
        serve: SERVE_BRIEF,
    },
    Workload {
        name: "step_large_euler",
        kind: Kind::Step,
        solver: SolverCase { nx: 512, nr: 512, regime: Regime::Euler, version: Version::V7, warm: 4, steps: 50 },
        serve: SERVE_BRIEF,
    },
    Workload { name: "par_paper_slab_p2", kind: Kind::Par(Topo::slab(2)), solver: PAPER_NS, serve: SERVE_BRIEF },
    Workload {
        name: "par_small_slab_p2",
        kind: Kind::Par(Topo::slab(2)),
        solver: SolverCase { nx: 66, nr: 24, warm: 40, steps: 400, ..PAPER_NS },
        serve: SERVE_BRIEF,
    },
    Workload {
        name: "par_paper_pencil_p2",
        kind: Kind::Par(Topo { px: 1, pr: 2 }),
        solver: PAPER_NS,
        serve: SERVE_BRIEF,
    },
    Workload {
        name: "serve_cold",
        kind: Kind::Serve,
        solver: SERVE_JOB,
        serve: ServeCase { cache_budget_bytes: 64 << 20, cold: 1000, hot: 1000, timed: Phase::Cold },
    },
    Workload {
        name: "serve_hot",
        kind: Kind::Serve,
        solver: SERVE_JOB,
        serve: ServeCase { cache_budget_bytes: HOT_CACHE_BYTES, cold: 256, hot: 10_000, timed: Phase::Hot },
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
