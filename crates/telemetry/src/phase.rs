//! Low-overhead phase profiler.
//!
//! The solver's operators call [`PhaseTimer::start`] at each phase boundary
//! and [`PhaseTimer::pause`] around unattributed work (halo exchanges, which
//! the runtime accounts separately). Starting a phase implicitly closes the
//! previous one, so instrumented code is a flat sequence of `start` calls
//! rather than nested guards. Both calls take the solver's FLOP ledger
//! total, so each closed span also carries the FP operations billed while
//! it was open: a traced run's phase spans are the compute half of the
//! step program the platform simulator replays.
//!
//! Phase labels are `&'static str` from the vocabulary documented in
//! `ns_core::scheme`, where the operators name them, plus the runtime's
//! communication labels (`comm:send`, `comm:recv`, `comm:stall`); the
//! simulator replays the recorded spans under the same strings, which is
//! what makes the measured and simulated breakdowns line up in one report.
//!
//! A disabled timer (the default) returns after a single branch, so leaving
//! the instrumentation compiled into the hot path costs effectively nothing.

use ns_metrics::Recorder;
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
    /// FP operations billed while the label was open.
    pub flops: u64,
}

/// Per-label accumulated phase costs of one solver instance (one rank).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct PhaseLedger {
    /// Stats keyed by phase label.
    pub by_label: BTreeMap<&'static str, PhaseStat>,
}

impl PhaseLedger {
    /// Attribute `secs` seconds and `flops` FP operations to `label`.
    pub fn add(&mut self, label: &'static str, secs: f64, flops: u64) {
        let e = self.by_label.entry(label).or_default();
        e.seconds += secs;
        e.calls += 1;
        e.flops += flops;
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
            e.flops += stat.flops;
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
/// optionally also recording every phase span as an [`ns_metrics::Event`] for
/// Gantt-style timelines.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimer {
    on: bool,
    /// The open phase: its label, start and the FLOP total at its start.
    current: Option<(&'static str, Instant, u64)>,
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

    /// Turn on accumulation *and* span recording into `spans` (a
    /// [`Recorder::sibling`] of the rank's endpoint recorder, so the spans
    /// and the messages merge in program order).
    pub fn enable_traced(&mut self, spans: Recorder) {
        self.on = true;
        self.trace = Some(spans);
    }

    /// Begin the phase `label`, closing any phase already open; `flops` is
    /// the FLOP ledger's running total.
    #[inline]
    pub fn start(&mut self, label: &'static str, flops: u64) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.close(now, flops);
        self.current = Some((label, now, flops));
    }

    /// Close the open phase without starting a new one (call around work
    /// that is accounted elsewhere, e.g. halo exchanges); `flops` is the
    /// FLOP ledger's running total.
    #[inline]
    pub fn pause(&mut self, flops: u64) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.close(now, flops);
    }

    fn close(&mut self, now: Instant, flops: u64) {
        if let Some((label, t, at_start)) = self.current.take() {
            let dur = now.saturating_duration_since(t);
            let billed = flops.saturating_sub(at_start);
            self.ledger.add(label, dur.as_secs_f64(), billed);
            if let Some(rec) = self.trace.as_mut() {
                rec.phase(label, t, now, billed);
            }
        }
    }

    /// Take the collected ledger and, when tracing, the span recorder. The
    /// timer keeps accumulating, untraced, into an empty ledger; a phase
    /// still open is dropped.
    pub fn take(&mut self) -> (PhaseLedger, Option<Recorder>) {
        self.current = None;
        (std::mem::take(&mut self.ledger), self.trace.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = PhaseTimer::default();
        t.start("x:prims", 0);
        t.start("x:flux", 5);
        t.pause(9);
        assert!(t.ledger.is_empty());
        assert!(t.take().1.is_none());
    }

    #[test]
    fn start_closes_previous_phase_and_accumulates() {
        let mut t = PhaseTimer::default();
        t.enable();
        t.start("x:prims", 100);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.start("x:flux", 160);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.pause(400);
        t.start("x:prims", 450);
        t.pause(460);
        assert_eq!(t.ledger.by_label["x:prims"].calls, 2);
        // each span bills what the ledger counted while it was open; work
        // done while paused (400..450) belongs to no phase
        assert_eq!(t.ledger.by_label["x:prims"].flops, 70);
        assert_eq!(t.ledger.by_label["x:flux"].flops, 240);
        assert_eq!(t.ledger.by_label["x:flux"].calls, 1);
        assert!(t.ledger.seconds("x:prims") >= 0.002);
        assert!(t.ledger.seconds("x:flux") >= 0.002);
        assert!((t.ledger.total_seconds() - (t.ledger.seconds("x:prims") + t.ledger.seconds("x:flux"))).abs() < 1e-15);
        // accumulate-only mode records no spans
        assert!(t.take().1.is_none());
    }

    #[test]
    fn traced_timer_records_ordered_spans() {
        let mut t = PhaseTimer::default();
        let mut messages = Recorder::new(5, Instant::now());
        messages.trace();
        t.enable_traced(messages.sibling());
        t.start("r:prims", 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.start("r:flux", 30);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.pause(75);
        let (_, spans) = t.take();
        let events = spans.unwrap().take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, "r:prims");
        assert_eq!((events[0].flops, events[1].flops), (30, 45));
        assert!(events.iter().all(|e| e.kind == ns_metrics::EventKind::Phase && e.rank == 5));
        assert!(events[1].t_us >= events[0].t_us + events[0].dur_us);
    }

    #[test]
    fn merge_aggregates_ranks() {
        let mut a = PhaseLedger::default();
        a.add("x:flux", 1.0, 10);
        let mut b = PhaseLedger::default();
        b.add("x:flux", 2.0, 20);
        b.add("comm:recv", 0.5, 0);
        a.merge(&b);
        assert_eq!(a.seconds("x:flux"), 3.0);
        assert_eq!(a.by_label["x:flux"].calls, 2);
        assert_eq!(a.by_label["x:flux"].flops, 30);
        assert_eq!(a.seconds("comm:recv"), 0.5);
    }

    #[test]
    fn take_resets_but_keeps_enabled() {
        let mut t = PhaseTimer::default();
        t.enable();
        t.start("x:correct", 0);
        t.pause(0);
        let (ledger, spans) = t.take();
        assert!(!ledger.is_empty());
        assert!(spans.is_none());
        assert!(t.ledger.is_empty());
        assert!(t.enabled());
    }
}
