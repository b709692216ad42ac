//! Low-overhead phase profiler.
//!
//! The solver's operators call [`PhaseTimer::start`] at each phase boundary
//! and [`PhaseTimer::pause`] around unattributed work (halo exchanges, which
//! the runtime accounts separately). Starting a phase implicitly closes the
//! previous one, so instrumented code is a flat sequence of `start` calls
//! rather than nested guards.
//!
//! Phase labels are `&'static str` and must come from the shared vocabulary
//! defined by `ns_core::workload` (`r:prims`, `x:flux2`, …; the fused
//! V6/V7 kernel path merges each prims phase into its flux sweep and reports
//! the combined phases as `r:fused`, `r:fused2`, `x:fused`, `x:fused2`; under
//! V7 those sweeps also run the predictor/corrector update of every station
//! whose flux stencil they emit themselves, so `*:fused*` then contains the
//! interior update and `x:predict` / `x:correct` time only the deferred
//! stations beside a patch edge, `r:predict` / `r:correct` only the
//! far-field row copy and boundary model — the labels stay, what they
//! cover narrows) plus the
//! runtime's communication labels (`comm:send`, `comm:recv`, `comm:stall`);
//! using the same strings on both the measured and the simulated side is
//! what makes the two breakdowns line up in one report.
//!
//! A disabled timer (the default) returns after a single branch, so leaving
//! the instrumentation compiled into the hot path costs effectively nothing.

use ns_metrics::{Event, Recorder};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated cost of one phase label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct PhaseStat {
    /// Total seconds attributed to the label.
    pub seconds: f64,
    /// Number of `start`/close cycles.
    pub calls: u64,
}

/// Per-label accumulated phase costs of one solver instance (one rank).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct PhaseLedger {
    /// Stats keyed by phase label.
    pub by_label: BTreeMap<&'static str, PhaseStat>,
}

impl PhaseLedger {
    /// Attribute `secs` seconds to `label`.
    pub fn add(&mut self, label: &'static str, secs: f64) {
        let e = self.by_label.entry(label).or_default();
        e.seconds += secs;
        e.calls += 1;
    }

    /// Seconds attributed to `label` (0 if never seen).
    pub fn seconds(&self, label: &str) -> f64 {
        self.by_label.get(label).map_or(0.0, |s| s.seconds)
    }

    /// Total attributed seconds over all labels.
    pub fn total_seconds(&self) -> f64 {
        self.by_label.values().map(|s| s.seconds).sum()
    }

    /// Fold another ledger into this one (aggregation over ranks).
    pub fn merge(&mut self, other: &PhaseLedger) {
        for (label, stat) in &other.by_label {
            let e = self.by_label.entry(label).or_default();
            e.seconds += stat.seconds;
            e.calls += stat.calls;
        }
    }

    /// The `label -> seconds` view (the shape `ns-archsim` reports).
    pub fn seconds_by_label(&self) -> BTreeMap<&'static str, f64> {
        self.by_label.iter().map(|(&l, s)| (l, s.seconds)).collect()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.by_label.is_empty()
    }
}

/// The phase profiler: disabled by default, accumulate-only when enabled,
/// optionally also recording every phase span as an [`Event`] for
/// Gantt-style timelines.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimer {
    on: bool,
    current: Option<(&'static str, Instant)>,
    /// Accumulated per-label costs.
    pub ledger: PhaseLedger,
    /// Where the spans go (tracing mode only).
    trace: Option<Recorder>,
}

impl PhaseTimer {
    /// Is the timer collecting anything?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turn on accumulation (no per-event timestamps).
    pub fn enable(&mut self) {
        self.on = true;
    }

    /// Turn on accumulation *and* span recording as `rank`'s events, with
    /// times measured from `t0` (share one `t0` across ranks so their
    /// timelines align).
    pub fn enable_traced(&mut self, rank: usize, t0: Instant) {
        self.on = true;
        let mut rec = Recorder::new(rank, t0);
        rec.trace();
        self.trace = Some(rec);
    }

    /// Begin the phase `label`, closing any phase already open.
    #[inline]
    pub fn start(&mut self, label: &'static str) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.close(now);
        self.current = Some((label, now));
    }

    /// Close the open phase without starting a new one (call around work
    /// that is accounted elsewhere, e.g. halo exchanges).
    #[inline]
    pub fn pause(&mut self) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.close(now);
    }

    fn close(&mut self, now: Instant) {
        if let Some((label, t)) = self.current.take() {
            let dur = now.saturating_duration_since(t);
            self.ledger.add(label, dur.as_secs_f64());
            if let Some(rec) = self.trace.as_mut() {
                rec.phase(label, t, now);
            }
        }
    }

    /// Take the collected ledger and spans, leaving the timer running with
    /// empty accumulators.
    pub fn take(&mut self) -> (PhaseLedger, Vec<Event>) {
        self.pause();
        (std::mem::take(&mut self.ledger), self.trace.as_mut().map_or_else(Vec::new, Recorder::take))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = PhaseTimer::default();
        t.start("x:prims");
        t.start("x:flux");
        t.pause();
        assert!(t.ledger.is_empty());
        assert!(t.take().1.is_empty());
    }

    #[test]
    fn start_closes_previous_phase_and_accumulates() {
        let mut t = PhaseTimer::default();
        t.enable();
        t.start("x:prims");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.start("x:flux");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.pause();
        t.start("x:prims");
        t.pause();
        assert_eq!(t.ledger.by_label["x:prims"].calls, 2);
        assert_eq!(t.ledger.by_label["x:flux"].calls, 1);
        assert!(t.ledger.seconds("x:prims") >= 0.002);
        assert!(t.ledger.seconds("x:flux") >= 0.002);
        assert!((t.ledger.total_seconds() - (t.ledger.seconds("x:prims") + t.ledger.seconds("x:flux"))).abs() < 1e-15);
        // accumulate-only mode records no spans
        assert!(t.take().1.is_empty());
    }

    #[test]
    fn traced_timer_records_ordered_spans() {
        let mut t = PhaseTimer::default();
        t.enable_traced(5, Instant::now());
        t.start("r:prims");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.start("r:flux");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (_, events) = t.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, "r:prims");
        assert!(events.iter().all(|e| e.kind == ns_metrics::EventKind::Phase && e.rank == 5));
        assert!(events[1].t_us >= events[0].t_us + events[0].dur_us);
    }

    #[test]
    fn merge_aggregates_ranks() {
        let mut a = PhaseLedger::default();
        a.add("x:flux", 1.0);
        let mut b = PhaseLedger::default();
        b.add("x:flux", 2.0);
        b.add("comm:recv", 0.5);
        a.merge(&b);
        assert_eq!(a.seconds("x:flux"), 3.0);
        assert_eq!(a.by_label["x:flux"].calls, 2);
        assert_eq!(a.seconds("comm:recv"), 0.5);
    }

    #[test]
    fn take_resets_but_keeps_enabled() {
        let mut t = PhaseTimer::default();
        t.enable();
        t.start("x:correct");
        t.pause();
        let (ledger, events) = t.take();
        assert!(!ledger.is_empty());
        assert!(events.is_empty());
        assert!(t.ledger.is_empty());
        assert!(t.enabled());
    }
}
