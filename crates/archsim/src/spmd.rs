//! Discrete-event simulation of the SPMD solver on a modeled platform.
//!
//! Each rank of the runtime's own [`CartTopology`] replays its recorded
//! step pair ([`crate::workload`]): the phase spans and messages a
//! two-step traced run of the same plan recorded, in program order. Phase
//! durations come from the calibrated CPU model applied to each span's
//! FLOPs, message software costs from the library model and transport
//! times from the network model; the program itself is the code's. The
//! comm variant is the runtime's [`CommVersion`], and a topology the
//! runtime refuses is refused here too. The engine advances the globally
//! earliest runnable rank, so shared-resource contention (the Ethernet
//! bus, switch ports, torus links) is resolved in time order.
//!
//! Output is the paper's own decomposition: per-rank **processor busy time**
//! (compute + message software overheads) and **non-overlapped communication
//! time** (blocked in receives), per Section 6.

use crate::cpu::{Calibration, CpuSpec};
use crate::msglib::MsgLib;

use crate::platform::Platform;
use crate::workload::{self, Recording};
use ns_core::config::{Regime, SolverConfig};
use ns_core::field::Patch;
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion};
use ns_telemetry::{Event, EventKind};
use serde::Serialize;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

/// Low-level per-rank event. A message is two events, its library cost
/// and its transfer, so the engine resolves every transfer in time order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ev {
    /// A compute phase busy for a fixed duration, attributed to its label —
    /// the per-phase separation the paper could not make "unless we have
    /// hardware performance monitoring tools" (Section 6); the simulator is
    /// that tool.
    Busy { secs: f64, label: &'static str, flops: u64 },
    /// The library's software cost of the send that follows.
    SendCost { secs: f64 },
    /// Inject a message to `to`.
    Send { to: usize, bytes: u64, label: &'static str },
    /// Block until the next message from `from` is delivered.
    Recv { from: usize },
    /// The library's software cost of the receive just completed.
    RecvCost { secs: f64, from: usize, bytes: u64, label: &'static str },
    /// A step begins (a trace mark; takes no time).
    Step,
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The platform to model.
    pub platform: Platform,
    /// Rank grid, axial × radial (`CartTopology::axial(p)` is the paper's
    /// layout).
    pub topology: CartTopology,
    /// The solver configuration the ranks run: its regime, grid, kernel
    /// version and dissipation set the recorded program and its compute
    /// cost (the paper's 250x100 V5 unless studying something else).
    pub solver: SolverConfig,
    /// Steps to *report* (the paper runs 5000).
    pub report_steps: u64,
    /// Steps to *simulate*; per-step behaviour is stationary, so results are
    /// scaled up to `report_steps` (use `report_steps` itself for an exact
    /// run).
    pub sim_steps: u64,
    /// Communication protocol variant (paper Versions 5-7).
    pub comm: CommVersion,
}

impl SimConfig {
    /// The paper's standard experiment on a platform: `nprocs` axial
    /// blocks of the paper's configuration, 5000 steps reported, 50
    /// simulated (stationary), comm V5.
    pub fn paper(platform: Platform, nprocs: usize, regime: Regime) -> Self {
        Self {
            platform,
            topology: CartTopology::axial(nprocs),
            solver: SolverConfig::paper(Grid::paper(), regime),
            report_steps: 5000,
            sim_steps: 50,
            comm: CommVersion::V5,
        }
    }
}

/// Per-rank and aggregate results (seconds, scaled to `report_steps`).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SimResult {
    /// Wall-clock execution time (slowest rank).
    pub total: f64,
    /// Per-rank busy time (compute + message software overheads).
    pub busy: Vec<f64>,
    /// Per-rank non-overlapped communication (blocked in receives).
    pub wait: Vec<f64>,
    /// Per-rank message start-ups (sends + receives).
    pub startups: Vec<u64>,
    /// Per-rank bytes sent.
    pub bytes_sent: Vec<u64>,
    /// Busy seconds attributed to each phase label, aggregated over ranks
    /// (compute phases carry the solver's labels, message software costs
    /// appear as `comm:send` / `comm:recv` / `comm:stall`).
    pub phase_seconds: BTreeMap<&'static str, f64>,
}

impl SimResult {
    /// Mean busy time across ranks.
    pub fn mean_busy(&self) -> f64 {
        self.busy.iter().sum::<f64>() / self.busy.len() as f64
    }

    /// Max non-overlapped communication across ranks.
    pub fn max_wait(&self) -> f64 {
        self.wait.iter().cloned().fold(0.0, f64::max)
    }
}

/// The static label of a recorded phase or message (the runtime records
/// them from static strings).
fn static_label(e: &Event) -> &'static str {
    match e.label {
        Cow::Borrowed(label) => label,
        Cow::Owned(_) => unreachable!("recorded phase and message labels are static"),
    }
}

/// Compile `rank`'s recorded even and odd steps into low-level events:
/// each phase span becomes busy time for its FLOPs on this rank's
/// subdomain, each message its library cost plus the transfer.
fn compile_rank(
    cal: &Calibration,
    cpu: &CpuSpec,
    lib: &MsgLib,
    cfg: &SimConfig,
    rec: &Recording,
    rank: usize,
) -> [Vec<Ev>; 2] {
    let dims = (cfg.topology.px, cfg.topology.pr);
    let patch = Patch::pencil(cfg.solver.grid.clone(), cfg.topology.coords(rank), dims);
    // the local subdomain shape seen by the cache model
    let (nxl, nr) = (patch.nxl, patch.nrl);
    [0, 1].map(|k| {
        // sends posted whose receives have not run yet: compute in that
        // window is the split loop of the Version 6 overlap
        let mut posted = false;
        let mut evs = Vec::new();
        for e in rec.step(rank, k) {
            let label = static_label(e);
            match e.kind {
                EventKind::Phase => {
                    let penalty = if posted { V6_SPLIT_PENALTY } else { 1.0 };
                    let secs = cal.seconds_for(cpu, cfg.solver.version, nxl, nr, e.flops) * penalty;
                    evs.push(Ev::Busy { secs, label, flops: e.flops });
                }
                EventKind::Send => {
                    posted = true;
                    evs.push(Ev::SendCost { secs: lib.send_cost(e.bytes) });
                    evs.push(Ev::Send { to: e.peer.expect("a send has a peer"), bytes: e.bytes, label });
                }
                EventKind::Recv => {
                    posted = false;
                    let from = e.peer.expect("a receive has a peer");
                    evs.push(Ev::Recv { from });
                    evs.push(Ev::RecvCost { secs: lib.recv_cost(e.bytes), from, bytes: e.bytes, label });
                }
                EventKind::Mark => evs.push(Ev::Step),
                EventKind::Fault => unreachable!("a recording runs without fault injection"),
            }
        }
        evs
    })
}

/// Loop-splitting and locality penalty of the Version 6 overlap (paper
/// Section 7.1: "the loop setup overheads are higher. Further, the cache
/// performance also degrades slightly due to loss of temporal locality"),
/// charged on compute that runs while a posted receive is outstanding.
const V6_SPLIT_PENALTY: f64 = 1.06;

/// Run the discrete-event simulation.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    simulate_impl(cfg, false).0
}

/// Run the simulation and also return the virtual-time event trace: the
/// same [`Event`] type the live runtime records, so the simulated
/// timeline opens in the same viewers (JSONL, Chrome `trace_event`, the
/// ASCII Gantt). Timestamps are virtual microseconds over the `sim_steps`
/// horizon — unlike the aggregate numbers in [`SimResult`], the trace is
/// *not* scaled up to `report_steps`.
pub fn simulate_traced(cfg: &SimConfig) -> (SimResult, Vec<Event>) {
    simulate_impl(cfg, true)
}

fn simulate_impl(cfg: &SimConfig, traced: bool) -> (SimResult, Vec<Event>) {
    let nprocs = cfg.topology.size();
    assert!(nprocs <= cfg.platform.max_procs, "processor count out of range");
    let admitted = cfg.topology.validate(&cfg.solver.grid);
    assert!(admitted.is_ok(), "topology refused: {}", admitted.unwrap_err());
    assert!(cfg.sim_steps >= 1 && cfg.sim_steps <= cfg.report_steps);
    let cal = Calibration::standard();
    let mut net = cfg.platform.net.build(nprocs);
    let lib = cfg.platform.lib;
    let rec = workload::record(&cfg.solver, cfg.topology, cfg.comm);

    struct Proc {
        evs: Vec<Ev>,
        pc: usize,
        clock: f64,
        /// Start of the message in flight through the library (its cost
        /// and its transfer or wait).
        msg_t0: f64,
        busy: f64,
        wait: f64,
        startups: u64,
        bytes_sent: u64,
    }

    let mut procs: Vec<Proc> = (0..nprocs)
        .map(|r| {
            let steps = compile_rank(cal, &cfg.platform.cpu, &lib, cfg, &rec, r);
            let mut evs = Vec::with_capacity(steps[0].len() * cfg.sim_steps as usize);
            for k in 0..cfg.sim_steps {
                evs.extend_from_slice(&steps[(k % 2) as usize]);
            }
            Proc { evs, pc: 0, clock: 0.0, msg_t0: 0.0, busy: 0.0, wait: 0.0, startups: 0, bytes_sent: 0 }
        })
        .collect();

    /// Busy time `secs` on `p`, attributed to `label`: a compute phase or
    /// a message's library cost.
    fn charge(p: &mut Proc, phases: &mut BTreeMap<&'static str, f64>, label: &'static str, secs: f64) {
        p.clock += secs;
        p.busy += secs;
        *phases.entry(label).or_insert(0.0) += secs;
    }

    // in-flight deliveries per (src, dst)
    let mut inflight: Vec<VecDeque<f64>> = vec![VecDeque::new(); nprocs * nprocs];
    let key = |src: usize, dst: usize| src * nprocs + dst;
    let mut phase_seconds: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut trace: Vec<Event> = Vec::new();
    let us = |secs: f64| (secs * 1e6).round() as u64;

    loop {
        // pick the earliest runnable process
        let mut pick: Option<usize> = None;
        for (idx, p) in procs.iter().enumerate() {
            if p.pc >= p.evs.len() {
                continue;
            }
            let runnable = match p.evs[p.pc] {
                Ev::Recv { from } => !inflight[key(from, idx)].is_empty(),
                _ => true,
            };
            if runnable && pick.is_none_or(|b| p.clock < procs[b].clock) {
                pick = Some(idx);
            }
        }
        let Some(idx) = pick else {
            assert!(procs.iter().all(|p| p.pc >= p.evs.len()), "deadlock: some rank blocked on a message never sent");
            break;
        };
        let ev = procs[idx].evs[procs[idx].pc];
        procs[idx].pc += 1;
        let now = procs[idx].clock;
        let p = &mut procs[idx];
        // what the event puts on the trace: (kind, label, peer, bytes,
        // flops, start); a message's event spans its library cost too
        let traced_as = match ev {
            Ev::Busy { secs, label, flops } => {
                charge(p, &mut phase_seconds, label, secs);
                Some((EventKind::Phase, label, None, 0, flops, now))
            }
            Ev::SendCost { secs } => {
                p.msg_t0 = now;
                charge(p, &mut phase_seconds, "comm:send", secs);
                None
            }
            Ev::RecvCost { secs, from, bytes, label } => {
                charge(p, &mut phase_seconds, "comm:recv", secs);
                Some((EventKind::Recv, label, Some(from), bytes, 0, p.msg_t0))
            }
            Ev::Send { to, bytes, label } => {
                let delivery = net.transfer(now, idx, to, bytes);
                p.startups += 1;
                p.bytes_sent += bytes;
                if lib.blocking_send {
                    // the CPU spins in the library until the wire is done —
                    // measured as *busy* time by the paper's instrumentation
                    let stall = (delivery - now).max(0.0);
                    p.busy += stall;
                    p.clock = now.max(delivery);
                    *phase_seconds.entry("comm:stall").or_insert(0.0) += stall;
                }
                inflight[key(idx, to)].push_back(delivery);
                Some((EventKind::Send, label, Some(to), bytes, 0, p.msg_t0))
            }
            Ev::Recv { from } => {
                let delivery = inflight[key(from, idx)].pop_front().expect("runnable recv");
                p.startups += 1;
                p.msg_t0 = now;
                if delivery > now {
                    p.wait += delivery - now;
                    p.clock = delivery;
                }
                None
            }
            Ev::Step => Some((EventKind::Mark, "step", None, 0, 0, now)),
        };
        if let Some((kind, label, peer, bytes, flops, start)) = traced_as.filter(|_| traced) {
            let (t_us, dur_us, label) = (us(start), us(p.clock - start), label.into());
            trace.push(Event { t_us, dur_us, rank: idx, kind, label, peer, seq: None, span: None, bytes, flops });
        }
    }

    let scale = cfg.report_steps as f64 / cfg.sim_steps as f64;
    let total = procs.iter().map(|p| p.clock).fold(0.0, f64::max) * scale;
    for v in phase_seconds.values_mut() {
        *v *= scale;
    }
    if traced {
        trace.sort_by_key(|e| (e.t_us, e.rank));
    }
    (
        SimResult {
            total,
            busy: procs.iter().map(|p| p.busy * scale).collect(),
            wait: procs.iter().map(|p| p.wait * scale).collect(),
            startups: procs.iter().map(|p| (p.startups as f64 * scale) as u64).collect(),
            bytes_sent: procs.iter().map(|p| (p.bytes_sent as f64 * scale) as u64).collect(),
            phase_seconds,
        },
        trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::ANCHOR_V5_SECONDS;
    use ns_core::config::Version;

    fn quick(platform: Platform, nprocs: usize, regime: Regime) -> SimResult {
        let mut cfg = SimConfig::paper(platform, nprocs, regime);
        cfg.sim_steps = 10;
        simulate(&cfg)
    }

    #[test]
    fn single_processor_matches_figure2_anchor() {
        let r = quick(Platform::lace560_allnode_s(), 1, Regime::NavierStokes);
        assert!((r.total - ANCHOR_V5_SECONDS).abs() / ANCHOR_V5_SECONDS < 0.02, "total {}", r.total);
        assert_eq!(r.startups[0], 0, "no neighbours, no messages");
    }

    #[test]
    fn allnode_scales_then_flattens() {
        let t1 = quick(Platform::lace560_allnode_s(), 1, Regime::NavierStokes).total;
        let t4 = quick(Platform::lace560_allnode_s(), 4, Regime::NavierStokes).total;
        let t16 = quick(Platform::lace560_allnode_s(), 16, Regime::NavierStokes).total;
        assert!(t4 < t1 / 3.0, "near-linear at 4: {t4} vs {t1}");
        assert!(t16 < t4, "still improving at 16");
        let speedup16 = t1 / t16;
        assert!(speedup16 < 14.0, "but sublinear by 16 (paper Section 7.1): speedup {speedup16:.1}");
    }

    #[test]
    fn ethernet_gets_worse_past_its_peak() {
        let times: Vec<f64> = [4, 8, 12, 16]
            .iter()
            .map(|&p| quick(Platform::lace560_ethernet(), p, Regime::NavierStokes).total)
            .collect();
        // paper: N-S Ethernet peaks around 8 processors, then degrades
        let t8 = times[1];
        let t16 = times[3];
        assert!(t8 < times[0], "8 beats 4 on Ethernet");
        assert!(t16 > t8, "16 must be worse than 8 on Ethernet: {times:?}");
    }

    #[test]
    fn startup_counts_match_table1() {
        let r = quick(Platform::lace560_allnode_s(), 16, Regime::NavierStokes);
        // interior rank: 16 start-ups per step x 5000 steps
        assert_eq!(r.startups[7], 80_000);
        let e = quick(Platform::lace560_allnode_s(), 16, Regime::Euler);
        assert_eq!(e.startups[7], 60_000);
    }

    #[test]
    fn v7_doubles_flux_startups() {
        let mut cfg = SimConfig::paper(Platform::lace560_ethernet(), 8, Regime::NavierStokes);
        cfg.sim_steps = 5;
        let v5 = simulate(&cfg);
        cfg.comm = CommVersion::V7;
        let v7 = simulate(&cfg);
        // V5: 16/step interior; V7 adds 2 flux messages/side/step -> 24/step
        assert_eq!(v5.startups[3], 80_000);
        assert_eq!(v7.startups[3], 120_000);
        assert_eq!(v5.bytes_sent[3], v7.bytes_sent[3], "same volume");
    }

    #[test]
    fn v6_changes_little_on_allnode() {
        // the paper: Version 6 ~ Version 5 (overheads offset the overlap)
        let mut cfg = SimConfig::paper(Platform::lace560_allnode_s(), 8, Regime::NavierStokes);
        cfg.sim_steps = 10;
        let v5 = simulate(&cfg);
        cfg.comm = CommVersion::V6;
        let v6 = simulate(&cfg);
        let rel = (v6.total - v5.total).abs() / v5.total;
        assert!(rel < 0.08, "V6 within a few percent of V5: {rel}");
    }

    #[test]
    fn fused_v6_kernels_speed_compute_and_relabel_phases() {
        let mut cfg = SimConfig::paper(Platform::lace560_allnode_s(), 4, Regime::NavierStokes);
        cfg.sim_steps = 5;
        let v5 = simulate(&cfg);
        cfg.solver.version = Version::V6;
        let v6 = simulate(&cfg);
        assert!(v6.total < v5.total, "fused kernels must be faster: {} vs {}", v6.total, v5.total);
        assert!(v6.phase_seconds.contains_key("x:fused") && v6.phase_seconds.contains_key("r:fused2"));
        assert!(!v6.phase_seconds.keys().any(|l| l.contains("prims")), "prims phases merge into the fused sweeps");
        assert_eq!(v6.startups, v5.startups, "the message protocol is version-independent");
    }

    #[test]
    fn load_is_balanced_at_16_processors() {
        // Figure 13: per-processor busy times nearly equal
        let r = quick(Platform::ibm_sp_mpl(), 16, Regime::NavierStokes);
        let mn = r.busy.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = r.busy.iter().cloned().fold(0.0, f64::max);
        // 250 columns over 16 ranks leaves blocks of 15 or 16 columns
        // (6.7% compute imbalance) and the edge ranks do half the message
        // work; the distribution must still be tight
        assert!((mx - mn) / mx < 0.2, "busy spread {mn}..{mx}");
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_all_ranks() {
        let mut cfg = SimConfig::paper(Platform::lace560_allnode_s(), 4, Regime::NavierStokes);
        cfg.sim_steps = 3;
        let plain = simulate(&cfg);
        let (traced, trace) = simulate_traced(&cfg);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].t_us <= w[1].t_us), "sorted by start");
        for rank in 0..4 {
            assert!(trace.iter().any(|e| e.rank == rank && e.kind == ns_telemetry::EventKind::Phase));
        }
        // interior ranks exchange with both neighbours
        assert!(trace.iter().any(|e| e.rank == 1 && e.kind == ns_telemetry::EventKind::Send && e.peer == Some(2)));
        assert!(trace.iter().any(|e| e.rank == 1 && e.kind == ns_telemetry::EventKind::Recv && e.peer == Some(0)));
        // phase labels on the timeline use the shared vocabulary
        assert!(trace.iter().any(|e| e.label == "x:flux"));
    }

    #[test]
    #[should_panic(expected = "fewer than 4 columns")]
    fn simulator_refuses_what_the_runtime_refuses() {
        // 64 axial blocks of 250 columns leave 3-4 columns a rank, which
        // `CartTopology::validate` refuses for a live run
        let mut t3d = Platform::cray_t3d();
        t3d.max_procs = 64;
        let mut cfg = SimConfig::paper(t3d, 64, Regime::NavierStokes);
        cfg.sim_steps = 1;
        simulate(&cfg);
    }

    #[test]
    fn near_square_pencil_beats_slabs_on_comm() {
        // strong scaling at P=64 on a square grid: the near-square pencil
        // moves less halo data than either slab orientation
        let grid = Grid::new(512, 512, 50.0, 5.0);
        let run = |px: usize, pr: usize| {
            simulate(&SimConfig {
                topology: CartTopology::new(px, pr).unwrap(),
                solver: SolverConfig::paper(grid.clone(), Regime::NavierStokes),
                sim_steps: 3,
                report_steps: 3,
                ..SimConfig::paper(Platform::cluster_fat_tree(), 1, Regime::NavierStokes)
            })
        };
        let radial = run(1, 64);
        let axial = run(64, 1);
        let square = run(8, 8);
        let sent = |r: &SimResult| r.bytes_sent.iter().sum::<u64>();
        assert!(sent(&square) < sent(&axial) && sent(&square) < sent(&radial), "pencil halo surface is smaller");
        let comm = |r: &SimResult| {
            r.wait.iter().sum::<f64>()
                + ["comm:send", "comm:recv", "comm:stall"].iter().filter_map(|l| r.phase_seconds.get(l)).sum::<f64>()
        };
        assert!(comm(&square) < comm(&radial), "{} vs {}", comm(&square), comm(&radial));
    }

    #[test]
    fn wait_plus_busy_bounds_total() {
        let r = quick(Platform::lace560_ethernet(), 8, Regime::Euler);
        for k in 0..8 {
            let sum = r.busy[k] + r.wait[k];
            assert!(sum <= r.total * 1.0001, "rank {k}: busy+wait {sum} vs total {}", r.total);
        }
    }
}
