//! The one event type, and the formats a timeline of them is written in.
//!
//! An [`Event`] is one entry on one rank's timeline: a compute phase, a
//! message send or receive, a fault-layer event, or a lifecycle mark. The
//! comm layer, the phase profiler and the serve daemon all record it into
//! a [`crate::Recorder`], and the architecture simulator emits it from
//! virtual time, so one set of tools renders all of them: the JSONL and
//! Chrome `trace_event` exporters here, the flight dump, and the ASCII
//! Gantt in `ns-experiments`.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// What kind of entry an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A named compute phase.
    Phase,
    /// A message send (duration = time spent in the send call).
    Send,
    /// A message receive (duration = time from the receive's start until
    /// the match was delivered).
    Recv,
    /// A fault-layer event: an injected fault, a NACK, a resend, a frame
    /// discard.
    Fault,
    /// A lifecycle note with no duration: a step beginning, a rank crash, a
    /// watchdog abort, a serve job admitted, completed,
    /// failed or served durably, a daemon drain or unclean restart. The
    /// label starts with the note's name (`step`, `crash`, `admit: …`).
    Mark,
}

impl EventKind {
    /// Lower-case category name (Chrome trace `cat` field).
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Phase => "phase",
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Fault => "fault",
            EventKind::Mark => "mark",
        }
    }
}

/// One entry on a rank's timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Start, microseconds since the recorder's origin (wall clock for the
    /// live runtime, virtual time for the simulator).
    pub t_us: u64,
    /// Duration in microseconds (0 for marks).
    pub dur_us: u64,
    /// Rank the event happened on.
    pub rank: usize,
    /// Entry kind.
    pub kind: EventKind,
    /// Phase label (`x:flux`, …), message kind (`Prims1`, …), fault action
    /// (`fault:drop`, …) or mark note. Static for everything but free-text
    /// marks, so recording a comm or phase event allocates nothing.
    pub label: Cow<'static, str>,
    /// Peer rank for sends, receives and faults.
    pub peer: Option<usize>,
    /// Frame sequence number for framed traffic; the job key for serve
    /// marks.
    pub seq: Option<u64>,
    /// Causal span the event belongs to (minted per `(generation, step)`;
    /// carried inside the reliability layer's frame trailer, so the send,
    /// the NACK and the resend of one logical message share it across
    /// ranks).
    pub span: Option<u64>,
    /// Payload bytes moved; 0 for phases and marks.
    pub bytes: u64,
    /// FP operations the solver's FLOP ledger billed while a phase span
    /// was open; 0 for every other kind. Traces written before phases
    /// carried it have no such key, and read as 0.
    #[serde(default)]
    pub flops: u64,
}

/// Export a trace as JSON Lines: one [`Event`] object per line, suitable for
/// `grep`/`jq` pipelines and incremental appends. Accepts owned events or
/// references (`&[Event]` and `&[&Event]` both work, so merged views
/// borrowed from per-rank storage need no clone).
pub fn to_jsonl<E: std::borrow::Borrow<Event>>(events: &[E]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e.borrow()).expect("trace event serializes"));
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace back (blank lines ignored).
pub fn trace_from_jsonl(s: &str) -> Result<Vec<Event>, serde_json::Error> {
    s.lines().filter(|l| !l.trim().is_empty()).map(serde_json::from_str).collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Export a trace in the Chrome `trace_event` JSON format (open with
/// `chrome://tracing` or <https://ui.perfetto.dev>): every event becomes a
/// complete (`"ph":"X"`) span with `pid` 0 and `tid` = rank, plus thread
/// metadata naming each rank.
pub fn to_chrome_trace<E: std::borrow::Borrow<Event>>(events: &[E]) -> String {
    // Build the JSON by hand: the schema is fixed and tiny, and this keeps
    // the exporter independent of any particular serde data model.
    let nranks = events.iter().map(|e| e.borrow().rank + 1).max().unwrap_or(0);
    let mut parts: Vec<String> = Vec::with_capacity(events.len() + nranks);
    for r in 0..nranks {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\"args\":{{\"name\":\"rank {r}\"}}}}"
        ));
    }
    for e in events {
        let e = e.borrow();
        let peer = e.peer.map_or("null".to_string(), |p| p.to_string());
        // span and flops go into args only when present, so span-less and
        // message traces keep their historical shape
        let span = e.span.map_or(String::new(), |s| format!(",\"span\":{s}"));
        let flops = if e.flops == 0 { String::new() } else { format!(",\"flops\":{}", e.flops) };
        parts.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"peer\":{},\"bytes\":{}{}{}}}}}",
            json_escape(&e.label),
            e.kind.as_str(),
            e.t_us,
            e.dur_us,
            e.rank,
            peer,
            e.bytes,
            span,
            flops,
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(t_us: u64, dur_us: u64, rank: usize, kind: EventKind, label: &'static str) -> Event {
        Event { t_us, dur_us, rank, kind, label: label.into(), peer: None, seq: None, span: None, bytes: 0, flops: 0 }
    }

    fn sample() -> Vec<Event> {
        vec![
            Event { flops: 9000, ..ev(0, 120, 0, EventKind::Phase, "x:flux") },
            Event { peer: Some(1), seq: Some(4), bytes: 2400, ..ev(120, 3, 0, EventKind::Send, "Prims1") },
            Event { peer: Some(0), span: Some(77), ..ev(40, 85, 1, EventKind::Recv, "Prims1") },
            Event { label: "cancelled: at step 3".to_string().into(), ..ev(200, 0, 1, EventKind::Mark, "") },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let evs = sample();
        let text = to_jsonl(&evs);
        assert_eq!(text.lines().count(), 4);
        let back = trace_from_jsonl(&text).unwrap();
        assert_eq!(back, evs);
    }

    #[test]
    fn chrome_trace_is_parseable_json_with_spans() {
        let text = to_chrome_trace(&sample());
        // must parse as JSON at all
        let _: serde_json::Value = serde_json::from_str(&text).unwrap();
        // two ranks -> two thread-name metadata records
        assert_eq!(text.matches("\"thread_name\"").count(), 2);
        // four complete spans with the right names/categories
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 4);
        assert!(text.contains("\"name\":\"x:flux\",\"cat\":\"phase\""));
        assert!(text.contains("\"args\":{\"peer\":null,\"bytes\":0,\"flops\":9000}"));
        assert!(text.contains("\"cat\":\"send\""));
        assert!(text.contains("\"cat\":\"mark\""));
        assert!(text.contains("\"args\":{\"peer\":1,\"bytes\":2400}"));
        assert!(text.contains("\"tid\":1"));
        // a spanned event carries its span in args; span-less events don't
        assert!(text.contains("\"args\":{\"peer\":0,\"bytes\":0,\"span\":77}"));
    }

    #[test]
    fn a_line_without_flops_reads_as_zero_flops() {
        // the format before phase spans carried their FLOPs
        let line = r#"{"t_us":5,"dur_us":7,"rank":1,"kind":"Phase","label":"x:flux","peer":null,"seq":null,"span":null,"bytes":0}"#;
        let back = trace_from_jsonl(line).unwrap();
        assert_eq!(back, vec![ev(5, 7, 1, EventKind::Phase, "x:flux")]);
        assert_eq!(back[0].flops, 0);
    }

    #[test]
    fn chrome_trace_escapes_labels() {
        let evs = vec![ev(0, 1, 0, EventKind::Phase, "odd\"label\\")];
        let text = to_chrome_trace(&evs);
        let _: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(text.contains("odd\\\"label\\\\"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and single-byte flips and truncations of a valid
        /// trace, decode to an error or to events, never to a panic.
        #[test]
        fn trace_decoder_never_panics(
            noise in prop::collection::vec(0u8..=255, 0..256),
            at in 0usize..4096,
            bit in 0u8..8,
        ) {
            let _ = trace_from_jsonl(&String::from_utf8_lossy(&noise));
            let valid = to_jsonl(&sample()).into_bytes();
            let mut flipped = valid.clone();
            let i = at % valid.len();
            flipped[i] ^= 1 << bit;
            let _ = trace_from_jsonl(&String::from_utf8_lossy(&flipped));
            let _ = trace_from_jsonl(&String::from_utf8_lossy(&valid[..i]));
        }
    }
}
