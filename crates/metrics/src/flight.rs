//! The recorder: one per rank, the only place an [`Event`] is recorded.
//!
//! Every rank records the whole run — frames sent and delivered, faults
//! injected and healed, step beginnings, crashes — into its [`Recorder`].
//! By default the recorder is a bounded ring (old events fall off the
//! back, with a drop counter so the dump says how much history was lost)
//! and nothing is written anywhere until something goes wrong: a rank
//! crash, a rollback, a watchdog abort or a serve daemon's drain freezes
//! the ring into a [`FlightDump`], which the CLI writes as
//! `FLIGHT_<rank>.json`. The dump is the black box that makes a chaos
//! failure diagnosable after the fact: the event sequence reconstructs
//! what the failing generation was doing, frame by frame.
//!
//! With tracing on, the same recorder keeps every event instead, and
//! [`Recorder::take`] hands the run's timeline to the trace: a traced run
//! and its flight dump are two views of one recording, stamped by one
//! clock read per event.
//!
//! The recorder is single-writer (one per rank, owned by that rank's
//! endpoint), so recording is a ring push — no locking. A traced rank has
//! a second recorder for its solver's phase spans, a [`Recorder::sibling`]
//! of the endpoint's: the two stamp every traced event with a ticket from
//! one shared counter, and [`Recorder::absorb`] merges them in the order
//! the rank recorded them.

use crate::trace::{Event, EventKind};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema version stamped into every dump.
pub const FLIGHT_SCHEMA: u32 = 2;

/// Ring capacity, and the number of newest events a dump keeps: enough for
/// several steps of 4-neighbour halo traffic plus the fault churn around a
/// crash, small enough to be free.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// One rank's event recorder.
#[derive(Clone, Debug)]
pub struct Recorder {
    origin: Instant,
    rank: usize,
    /// Keep every event (tracing) instead of evicting past the capacity.
    tracing: bool,
    /// The program-order counter a tracing recorder draws its tickets
    /// from, shared with its siblings.
    order: Arc<AtomicU64>,
    /// Events with their program-order tickets (0 for an event recorded
    /// while not tracing), oldest first.
    ring: VecDeque<(u64, Event)>,
    dropped: u64,
}

impl Recorder {
    /// A bounded recorder for `rank`, timestamping against `origin` (share
    /// one origin across ranks so their timelines line up).
    pub fn new(rank: usize, origin: Instant) -> Self {
        let ring = VecDeque::with_capacity(DEFAULT_FLIGHT_CAPACITY);
        Self { origin, rank, tracing: false, order: Arc::new(AtomicU64::new(1)), ring, dropped: 0 }
    }

    /// A tracing recorder for the same rank and origin that shares this
    /// one's program-order counter, so [`Recorder::absorb`] can interleave
    /// the two exactly as they were recorded.
    pub fn sibling(&self) -> Self {
        let ring = VecDeque::new();
        Self { origin: self.origin, rank: self.rank, tracing: true, order: Arc::clone(&self.order), ring, dropped: 0 }
    }

    /// Merge the events of `other`, a [`Recorder::sibling`], into this
    /// recorder in the order the two recorded them. Both rings are already
    /// in ticket order, so this is one merge pass.
    pub fn absorb(&mut self, other: Recorder) {
        let mut theirs = other.ring.into_iter().peekable();
        let mut merged = VecDeque::with_capacity(self.ring.len() + theirs.len());
        for mine in self.ring.drain(..) {
            while let Some(earlier) = theirs.next_if(|t| t.0 < mine.0) {
                merged.push_back(earlier);
            }
            merged.push_back(mine);
        }
        merged.extend(theirs);
        self.ring = merged;
    }

    /// Re-anchor timestamps to `origin`.
    pub fn set_origin(&mut self, origin: Instant) {
        self.origin = origin;
    }

    /// Keep every event from now on, so [`Recorder::take`] can hand the
    /// whole run to the trace.
    pub fn trace(&mut self) {
        self.tracing = true;
    }

    /// Append the event `kind` that began at `start` and lasted `dur`,
    /// evicting the oldest event from a full ring.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        kind: EventKind,
        label: Cow<'static, str>,
        start: Instant,
        dur: Duration,
        peer: Option<usize>,
        seq: Option<u64>,
        span: Option<u64>,
        bytes: u64,
        flops: u64,
    ) {
        let ticket = if self.tracing {
            self.order.fetch_add(1, Ordering::Relaxed)
        } else {
            if self.ring.len() == DEFAULT_FLIGHT_CAPACITY {
                self.ring.pop_front();
                self.dropped += 1;
            }
            0
        };
        let t_us = micros(start.saturating_duration_since(self.origin));
        let rank = self.rank;
        let dur_us = micros(dur);
        self.ring.push_back((ticket, Event { t_us, dur_us, rank, kind, label, peer, seq, span, bytes, flops }));
    }

    /// Record a `kind` event that began at `start` and ends now. The one
    /// clock read stamps the end; the duration is returned, so the caller
    /// can account it without reading the clock again.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: EventKind,
        label: &'static str,
        start: Instant,
        peer: Option<usize>,
        seq: Option<u64>,
        span: Option<u64>,
        bytes: u64,
    ) -> Duration {
        let dur = start.elapsed();
        self.push(kind, Cow::Borrowed(label), start, dur, peer, seq, span, bytes, 0);
        dur
    }

    /// Record the compute phase `label`, which ran from `start` to `end`
    /// and billed `flops` FP operations.
    pub fn phase(&mut self, label: &'static str, start: Instant, end: Instant, flops: u64) {
        let dur = end.saturating_duration_since(start);
        self.push(EventKind::Phase, Cow::Borrowed(label), start, dur, None, None, None, 0, flops);
    }

    /// Record a lifecycle mark now (`seq` carries a serve job's key).
    pub fn mark(&mut self, label: impl Into<Cow<'static, str>>, seq: Option<u64>, span: Option<u64>) {
        self.push(EventKind::Mark, label.into(), Instant::now(), Duration::ZERO, None, seq, span, 0, 0);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Freeze the newest [`DEFAULT_FLIGHT_CAPACITY`] events into a dump (the
    /// recorder keeps recording).
    pub fn dump(&self, reason: impl Into<String>) -> FlightDump {
        let older = self.ring.len().saturating_sub(DEFAULT_FLIGHT_CAPACITY);
        FlightDump {
            schema_version: FLIGHT_SCHEMA,
            rank: self.rank,
            reason: reason.into(),
            dropped: self.dropped + older as u64,
            events: self.ring.iter().skip(older).map(|(_, e)| e.clone()).collect(),
        }
    }

    /// Hand over every event recorded so far when tracing, emptying the
    /// recorder; an untraced recorder hands over nothing and keeps its ring.
    pub fn take(&mut self) -> Vec<Event> {
        if !self.tracing {
            return Vec::new();
        }
        std::mem::take(&mut self.ring).into_iter().map(|(_, e)| e).collect()
    }
}

/// A frozen recorder ring, ready to write as `FLIGHT_<rank>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Dump format version (see [`FLIGHT_SCHEMA`]).
    pub schema_version: u32,
    /// Rank the recorder belonged to.
    pub rank: usize,
    /// Why the dump was taken (`"rank-crash"`, `"rollback"`,
    /// `"watchdog-abort"`, `"drain"`, `"unclean-restart"`).
    pub reason: String,
    /// Events that fell off the back of the ring before the dump.
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<Event>,
}

impl FlightDump {
    /// Canonical artifact name for a rank's dump.
    pub fn file_name(rank: usize) -> String {
        format!("FLIGHT_{rank}.json")
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("flight dump serializes")
    }

    /// Parse a dump, rejecting unknown schema versions loudly.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let dump: FlightDump = serde_json::from_str(text).map_err(|e| format!("parse flight dump: {e}"))?;
        if dump.schema_version != FLIGHT_SCHEMA {
            return Err(format!(
                "flight dump schema_version {} unsupported (expected {FLIGHT_SCHEMA})",
                dump.schema_version
            ));
        }
        Ok(dump)
    }

    /// Events belonging to one causal span, in recorded order.
    pub fn events_for_span(&self, span: u64) -> Vec<&Event> {
        self.events.iter().filter(|e| e.span == Some(span)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn send(rec: &mut Recorder, seq: u64) {
        rec.record(EventKind::Send, "Prims1", Instant::now(), Some(1), Some(seq), None, 16);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = Recorder::new(0, Instant::now());
        let n = DEFAULT_FLIGHT_CAPACITY as u64 + 2;
        for i in 0..n {
            send(&mut rec, i);
        }
        assert_eq!(rec.len(), DEFAULT_FLIGHT_CAPACITY);
        assert_eq!(rec.dropped(), 2);
        let dump = rec.dump("rollback");
        assert_eq!(dump.events.len(), DEFAULT_FLIGHT_CAPACITY);
        assert_eq!(dump.events[0].seq, Some(2), "oldest retained event is seq 2");
        assert_eq!(dump.events.last().unwrap().seq, Some(n - 1));
        assert_eq!(dump.dropped, 2);
    }

    #[test]
    fn tracing_keeps_every_event_and_dumps_the_newest() {
        let mut rec = Recorder::new(3, Instant::now());
        rec.trace();
        let n = DEFAULT_FLIGHT_CAPACITY as u64 + 5;
        for i in 0..n {
            send(&mut rec, i);
        }
        assert_eq!((rec.len() as u64, rec.dropped()), (n, 0), "a tracing recorder evicts nothing");
        // the dump is the same black box an untraced ring would have frozen
        let dump = rec.dump("rank-crash");
        assert_eq!((dump.events.len(), dump.dropped), (DEFAULT_FLIGHT_CAPACITY, 5));
        assert_eq!(dump.events[0].seq, Some(5));
        let all = rec.take();
        assert_eq!(all.len() as u64, n);
        assert_eq!(&all[5..], &dump.events[..], "dump and trace hold identical events");
        assert!(rec.is_empty());
    }

    #[test]
    fn untraced_recorder_hands_over_no_trace() {
        let mut rec = Recorder::new(0, Instant::now());
        send(&mut rec, 0);
        assert!(rec.take().is_empty());
        assert_eq!(rec.len(), 1, "the black box keeps its ring");
    }

    #[test]
    fn record_stamps_start_against_origin() {
        let origin = Instant::now();
        let mut rec = Recorder::new(3, origin);
        std::thread::sleep(Duration::from_millis(2));
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let dur = rec.record(EventKind::Recv, "Flux2", start, Some(2), None, None, 0);
        let e = &rec.dump("test").events[0];
        assert!(e.t_us >= 2000, "stamped at the start, against the origin");
        assert_eq!(e.dur_us, dur.as_micros() as u64);
        assert!(e.dur_us >= 1000);
        assert_eq!((e.rank, e.kind, e.peer), (3, EventKind::Recv, Some(2)));
    }

    #[test]
    fn dump_round_trips_and_validates_schema() {
        let mut rec = Recorder::new(1, Instant::now());
        rec.mark("step", None, Some(crate::span_id(0, 3)));
        let start = Instant::now();
        rec.record(EventKind::Fault, "fault:drop", start, Some(1), Some(9), Some(crate::span_id(0, 3)), 0);
        rec.mark(format!("cancelled: {}", "at step 3"), None, None);
        let dump = rec.dump("rank-crash");
        let back = FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(dump, back);
        assert_eq!(back.events_for_span(crate::span_id(0, 3)).len(), 2);

        for old in [1, 42] {
            let mut foreign = dump.clone();
            foreign.schema_version = old;
            let err = FlightDump::from_json(&foreign.to_json()).unwrap_err();
            assert!(err.contains(&format!("schema_version {old}")), "{err}");
        }
    }

    #[test]
    fn siblings_merge_in_program_order_whatever_their_timestamps() {
        let origin = Instant::now();
        let mut messages = Recorder::new(4, origin);
        messages.trace();
        let mut spans = messages.sibling();
        // a phase and the receive after it inside one microsecond: their
        // whole-µs stamps tie, the tickets do not
        let t = Instant::now();
        spans.phase("x:prims", t, t, 10);
        messages.record(EventKind::Recv, "Prims1", t, Some(3), None, None, 24);
        spans.phase("x:flux", t, t, 20);
        messages.mark("step", None, None);
        spans.phase("x:predict", t, t, 30);
        messages.absorb(spans);
        let labels: Vec<_> = messages.take().iter().map(|e| (e.label.to_string(), e.rank, e.flops)).collect();
        let want = [("x:prims", 10), ("Prims1", 0), ("x:flux", 20), ("step", 0), ("x:predict", 30)];
        assert_eq!(labels, want.map(|(l, f)| (l.to_string(), 4, f)));
    }

    #[test]
    fn a_dump_without_flops_still_parses() {
        // a FLIGHT_<rank>.json written before phase spans carried FLOPs
        let text = r#"{"schema_version":2,"rank":0,"reason":"drain","dropped":0,"events":[
            {"t_us":1,"dur_us":0,"rank":0,"kind":"Mark","label":"admit: j","peer":null,"seq":7,"span":null,"bytes":0},
            {"t_us":2,"dur_us":5,"rank":0,"kind":"Phase","label":"x:flux","peer":null,"seq":null,"span":null,"bytes":0}]}"#;
        let dump = FlightDump::from_json(text).unwrap();
        assert_eq!(dump.events.len(), 2);
        assert!(dump.events.iter().all(|e| e.flops == 0));
        assert_eq!(dump.events[0].seq, Some(7));
    }

    #[test]
    fn timestamps_are_monotone_and_file_name_is_canonical() {
        let mut rec = Recorder::new(7, Instant::now());
        rec.mark("step", None, None);
        rec.mark("crash", None, None);
        let d = rec.dump("cancelled");
        assert!(d.events[1].t_us >= d.events[0].t_us);
        assert_eq!(d.rank, 7);
        assert_eq!(FlightDump::file_name(7), "FLIGHT_7.json");
    }

    fn valid_dump() -> String {
        let mut rec = Recorder::new(2, Instant::now());
        rec.mark("step", None, Some(crate::span_id(1, 4)));
        send(&mut rec, 0);
        rec.mark("crash", None, Some(crate::span_id(1, 4)));
        rec.dump("rank-crash").to_json()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and single-byte flips and truncations of a valid
        /// dump, decode to an error or to a dump, never to a panic.
        #[test]
        fn flight_dump_decoder_never_panics(
            noise in prop::collection::vec(0u8..=255, 0..256),
            at in 0usize..4096,
            bit in 0u8..8,
        ) {
            let _ = FlightDump::from_json(&String::from_utf8_lossy(&noise));
            let valid = valid_dump().into_bytes();
            let mut flipped = valid.clone();
            let i = at % valid.len();
            flipped[i] ^= 1 << bit;
            let _ = FlightDump::from_json(&String::from_utf8_lossy(&flipped));
            let _ = FlightDump::from_json(&String::from_utf8_lossy(&valid[..i]));
        }
    }
}
