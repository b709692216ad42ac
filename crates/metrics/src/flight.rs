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
//! endpoint), so recording is a ring push — no atomics, no locking.

use crate::trace::{Event, EventKind};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
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
    ring: VecDeque<Event>,
    dropped: u64,
}

impl Recorder {
    /// A bounded recorder for `rank`, timestamping against `origin` (share
    /// one origin across ranks so their timelines line up).
    pub fn new(rank: usize, origin: Instant) -> Self {
        Self { origin, rank, tracing: false, ring: VecDeque::with_capacity(DEFAULT_FLIGHT_CAPACITY), dropped: 0 }
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
    ) {
        if !self.tracing && self.ring.len() == DEFAULT_FLIGHT_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let t_us = micros(start.saturating_duration_since(self.origin));
        let rank = self.rank;
        self.ring.push_back(Event { t_us, dur_us: micros(dur), rank, kind, label, peer, seq, span, bytes });
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
        self.push(kind, Cow::Borrowed(label), start, dur, peer, seq, span, bytes);
        dur
    }

    /// Record the compute phase `label`, which ran from `start` to `end`.
    pub fn phase(&mut self, label: &'static str, start: Instant, end: Instant) {
        let dur = end.saturating_duration_since(start);
        self.push(EventKind::Phase, Cow::Borrowed(label), start, dur, None, None, None, 0);
    }

    /// Record a lifecycle mark now (`seq` carries a serve job's key).
    pub fn mark(&mut self, label: impl Into<Cow<'static, str>>, seq: Option<u64>, span: Option<u64>) {
        self.push(EventKind::Mark, label.into(), Instant::now(), Duration::ZERO, None, seq, span, 0);
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
            events: self.ring.iter().skip(older).cloned().collect(),
        }
    }

    /// Hand over every event recorded so far when tracing, emptying the
    /// recorder; an untraced recorder hands over nothing and keeps its ring.
    pub fn take(&mut self) -> Vec<Event> {
        if !self.tracing {
            return Vec::new();
        }
        std::mem::take(&mut self.ring).into()
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
