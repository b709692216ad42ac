//! The benchmark's own span recorder.
//!
//! Spans are recorded around every call the benchmark makes into a layer's
//! public function, from the benchmark's side of the call (spans inside the
//! program are a later change). They are kept in memory and written to
//! `out/trace.json` when the run ends. All calls come from the benchmark's
//! main thread, so nesting is a stack: a span's parent is whatever span was
//! open when it began.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: u32,
    /// The span open when this one began.
    pub parent: Option<u32>,
    /// Layer call, e.g. `"core.Solver::run"`.
    pub name: &'static str,
    /// Workload the run measured.
    pub workload: &'static str,
    /// Rep or request index, shared by all spans of one operation.
    pub op_id: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Handle returned by [`Recorder::enter`]; hand it back to
/// [`Recorder::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// In-memory span recorder. A disabled recorder (the untraced passes) does
/// nothing, so the same driver code serves both passes.
pub struct Recorder {
    on: bool,
    paused: bool,
    workload: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder for `workload`; `on = false` records nothing.
    pub fn new(workload: &'static str, on: bool) -> Self {
        Self { on, paused: false, workload, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new("", false)
    }

    /// Stop (or resume) recording between two operations. A traced pass
    /// records every other operation, so traced and untraced operations
    /// interleave on the same program state and their difference is the
    /// recorder's cost, not drift.
    pub fn pause(&mut self, paused: bool) {
        assert!(self.open.is_empty(), "pause only between operations");
        self.paused = paused;
    }

    /// Begin a span under the currently open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.on || self.paused {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            workload: self.workload,
            op_id,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// End a span. Spans end in the reverse order they began.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recording as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.spans).expect("spans serialize")
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            // only the part of the child inside the parent's interval counts
            let covered = s.end_ns.min(parent.end_ns).saturating_sub(s.start_ns.max(parent.start_ns));
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// `(calls, total self seconds)` per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ns as f64 * 1e-9;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, workload: "w", op_id: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "submit", 10, 30),
            span(2, Some(0), "wait", 30, 90),
            span(3, Some(2), "inner", 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by = self_seconds_by_name(&spans);
        assert_eq!(by["wait"].0, 1);
        assert!((by["wait"].1 - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn a_child_overhanging_its_parent_only_counts_inside_it() {
        let spans = [span(0, None, "op", 0, 100), span(1, Some(0), "late", 90, 130)];
        assert_eq!(self_times(&spans), vec![90, 40]);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut rec = Recorder::new("w", true);
        let a = rec.enter("a", 7);
        let b = rec.enter("b", 7);
        rec.exit(b);
        let c = rec.enter("c", 7);
        rec.exit(c);
        rec.exit(a);
        let d = rec.enter("d", 8);
        rec.exit(d);
        let parents: Vec<Option<u32>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns && s.workload == "w"));
        assert_eq!(rec.spans()[3].op_id, 8);
        assert!(rec.to_json().starts_with('['));
    }

    #[test]
    fn a_disabled_or_paused_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let a = rec.enter("a", 0);
        rec.exit(a);
        assert!(rec.spans().is_empty());
        let mut rec = Recorder::new("w", true);
        rec.pause(true);
        let a = rec.enter("a", 0);
        rec.exit(a);
        rec.pause(false);
        let b = rec.enter("b", 1);
        rec.exit(b);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].name, "b");
    }
}
