//! Message endpoints: tagged point-to-point communication over in-process
//! channels, with the accounting the paper's Tables 1-2 need.
//!
//! Each rank owns an [`Endpoint`]: senders to every peer and one inbox.
//! Receives match on `(source, tag)`; out-of-order arrivals are stashed, so
//! the protocol layers above never see interleaving. Every send and receive
//! increments the start-up counters — the paper counts both sides, which is
//! how 8 messages per step per neighbour pair become "16 start-ups per
//! step".
//!
//! ## Reliability layer
//!
//! With [`Endpoint::enable_reliability`] armed, every data payload is sealed
//! into a frame (body + per-link sequence number + checksum, see
//! [`crate::pack::open_frame`]) and the endpoint self-heals the link:
//!
//! * **corruption** — a frame failing checksum validation is discarded and a
//!   NACK is sent back immediately;
//! * **loss** — a receive that waits longer than the retry interval NACKs
//!   the sender and backs off exponentially, up to a retry budget;
//! * **duplication** — frames are deduplicated by their per-link sequence
//!   number, so a NACK racing the original delivery is harmless;
//! * **resend** — every sender keeps a bounded retransmit cache of recent
//!   frames and services peers' NACKs from inside its own blocking
//!   receives (both sides of a halo exchange block in `recv`, so the NACK
//!   path needs no background thread).
//!
//! The healing work is visible in [`CommStats`] (`retries`, `resends`,
//! `corrupt_frames`, `dup_frames`) and as `EventKind::Fault` events in the
//! endpoint's [`Recorder`], so in its flight dump and, when tracing is on,
//! on the shared timeline. The fault-free path is
//! untouched: reliability off costs one `Option` check per send and per
//! arrival.
//!
//! ## Waiting
//!
//! Every receive — plain or reliable, and so every collective and halo
//! exchange above it — waits for its inbox through one routine that spins
//! briefly, then polls while yielding the core, and parks only when the
//! message is more than [`POLL_BUDGET`] away (see `next_arrival`). All of it
//! is charged to [`Endpoint::wait_time`].

use crate::fault::{FaultAction, FaultInjector};
use crate::pack::{open_frame, peek_span, PackBuf, UnpackBuf};
use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use ns_metrics::{Counter, EventKind, Recorder, Registry};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry handles for the comm-layer counters, resolved once per endpoint
/// so the hot path is one relaxed atomic add per update (the registry lock
/// is touched only here).
#[derive(Debug)]
struct CommMetrics {
    sends: Arc<Counter>,
    recvs: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_recvd: Arc<Counter>,
    retries: Arc<Counter>,
    resends: Arc<Counter>,
    corrupt_frames: Arc<Counter>,
    dup_frames: Arc<Counter>,
    spanless_frames: Arc<Counter>,
}

impl CommMetrics {
    fn new() -> Self {
        let r = Registry::global();
        Self {
            sends: r.counter("ns_comm_sends_total"),
            recvs: r.counter("ns_comm_recvs_total"),
            bytes_sent: r.counter("ns_comm_bytes_sent_total"),
            bytes_recvd: r.counter("ns_comm_bytes_recvd_total"),
            retries: r.counter("ns_comm_retries_total"),
            resends: r.counter("ns_comm_resends_total"),
            corrupt_frames: r.counter("ns_comm_corrupt_frames_total"),
            dup_frames: r.counter("ns_comm_dup_frames_total"),
            spanless_frames: r.counter("ns_comm_spanless_frames_total"),
        }
    }
}

/// `0` means "no span"; everything else is a minted span id.
#[inline]
fn span_opt(span: u64) -> Option<u64> {
    (span != 0).then_some(span)
}

/// Message kinds of the solver protocol plus collective plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Grouped primitive columns (`u, v, T`) before the predictor.
    Prims1,
    /// Two-column flux packet after the stage-1 flux evaluation.
    Flux1,
    /// Grouped primitive columns before the corrector (N-S only).
    Prims2,
    /// Two-column flux packet after the stage-2 flux evaluation.
    Flux2,
    /// Second half of a split flux packet (Version 7 burst avoidance).
    FluxSplit,
    /// Gather leg of a collective.
    Gather,
    /// Broadcast leg of a collective.
    Bcast,
    /// Control: negative acknowledgement requesting a frame resend (the
    /// payload names the wanted tag). Never framed, never stashed, never
    /// counted as an application start-up.
    Nack,
    /// Primitive ghost-row exchange with a radial neighbour (2-D pencil
    /// decomposition; the sequence number encodes step and call index).
    PrimsR,
    /// Two-row flux packet exchanged with a radial neighbour.
    FluxR,
    /// Two-line packet of the state fluctuation planes, the smoothing halo
    /// of a damped step (grouped under every protocol; one per neighbour).
    State,
}

impl MsgKind {
    /// The kind's name, used as the label of trace events.
    pub fn name(&self) -> &'static str {
        match self {
            MsgKind::Prims1 => "Prims1",
            MsgKind::Flux1 => "Flux1",
            MsgKind::Prims2 => "Prims2",
            MsgKind::Flux2 => "Flux2",
            MsgKind::FluxSplit => "FluxSplit",
            MsgKind::Gather => "Gather",
            MsgKind::Bcast => "Bcast",
            MsgKind::Nack => "Nack",
            MsgKind::PrimsR => "PrimsR",
            MsgKind::FluxR => "FluxR",
            MsgKind::State => "State",
        }
    }

    /// Stable wire code (NACK payloads name the tag they want resent).
    pub fn code(&self) -> u64 {
        match self {
            MsgKind::Prims1 => 0,
            MsgKind::Flux1 => 1,
            MsgKind::Prims2 => 2,
            MsgKind::Flux2 => 3,
            MsgKind::FluxSplit => 4,
            MsgKind::Gather => 5,
            MsgKind::Bcast => 6,
            MsgKind::Nack => 7,
            MsgKind::PrimsR => 8,
            MsgKind::FluxR => 9,
            MsgKind::State => 10,
        }
    }

    /// Inverse of [`MsgKind::code`].
    pub fn from_code(code: u64) -> Option<MsgKind> {
        Some(match code {
            0 => MsgKind::Prims1,
            1 => MsgKind::Flux1,
            2 => MsgKind::Prims2,
            3 => MsgKind::Flux2,
            4 => MsgKind::FluxSplit,
            5 => MsgKind::Gather,
            6 => MsgKind::Bcast,
            7 => MsgKind::Nack,
            8 => MsgKind::PrimsR,
            9 => MsgKind::FluxR,
            10 => MsgKind::State,
            _ => return None,
        })
    }
}

/// Full message tag: protocol kind plus a sequence number (the step for
/// solver messages, a collective epoch for collectives).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Protocol kind.
    pub kind: MsgKind,
    /// Sequence number disambiguating steps/epochs.
    pub seq: u64,
}

/// A tagged message.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Tag.
    pub tag: Tag,
    /// Causal span the message belongs to (0 = none). On the reliable path
    /// this is recovered from the frame trailer on receive, so it survives
    /// the wire, the retransmit cache and the stash.
    pub span: u64,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Per-rank communication statistics (start-ups, volume, and the healing
/// work of the reliability layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent.
    pub sends: u64,
    /// Messages received.
    pub recvs: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recvd: u64,
    /// NACKs this rank issued while waiting for an overdue or corrupt
    /// frame (receiver-side retries).
    pub retries: u64,
    /// Cached frames this rank retransmitted in answer to a peer's NACK.
    pub resends: u64,
    /// Received frames discarded for checksum failure.
    pub corrupt_frames: u64,
    /// Received frames discarded as duplicates.
    pub dup_frames: u64,
    /// Cached frames whose span trailer could not be parsed when serving a
    /// resend; their trace events carry no span instead of a fabricated
    /// span 0.
    pub spanless_frames: u64,
}

impl CommStats {
    /// Total start-ups, counting each send and each receive (the paper's
    /// convention). Control traffic (NACKs, resends) is excluded: Tables 1-2
    /// count the application protocol, not the healing layer.
    pub fn startups(&self) -> u64 {
        self.sends + self.recvs
    }

    /// Merge another rank's (or generation's) counters into this one.
    pub fn merge(&mut self, o: &CommStats) {
        self.sends += o.sends;
        self.recvs += o.recvs;
        self.bytes_sent += o.bytes_sent;
        self.bytes_recvd += o.bytes_recvd;
        self.retries += o.retries;
        self.resends += o.resends;
        self.corrupt_frames += o.corrupt_frames;
        self.dup_frames += o.dup_frames;
        self.spanless_frames += o.spanless_frames;
    }
}

/// Tuning of the self-healing receive path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// How long a receive waits before its first NACK.
    pub retry_timeout: Duration,
    /// How many NACKs a single receive may issue (exponential backoff
    /// between them). After the budget, the receive waits out the hard
    /// [`Endpoint::timeout`] and fails.
    pub max_retries: u32,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self { retry_timeout: Duration::from_millis(5), max_retries: 6 }
    }
}

/// Retransmit-cache capacity (frames). Old entries are evicted FIFO; a NACK
/// for an evicted frame goes unanswered and surfaces as the requester's
/// timeout, which the recovery layer turns into a rollback.
const RETRANSMIT_CACHE: usize = 256;

/// Dedup window per source: sequence numbers this far below the newest seen
/// are considered already delivered.
const DEDUP_WINDOW: usize = 512;

/// Inbox polls a receive makes back to back, a CPU spin hint between them,
/// before it starts yielding the core between polls: about 0.8 µs on the
/// benchmark host (25 ns a poll), the time a peer already inside its send
/// needs to finish it. Kept short on measurement: at P ≤ cores the count
/// does not show from 0 to 256, oversubscribed every poll is time a
/// runnable peer did not get (DESIGN §17).
const SPIN_POLLS: u32 = 32;

/// How long a receive keeps polling before it parks, counted from the start
/// of the receive: about twice the park → wake round trip it saves (~45 µs
/// measured, DESIGN §17), so a message that is a park's cost away is still
/// caught awake, and a hung peer costs each receive at most this much CPU.
const POLL_BUDGET: Duration = Duration::from_micros(100);

/// Per-endpoint state of the reliability layer (boxed off the fault-free
/// hot path: a disabled endpoint pays one `Option` check per send/recv).
#[derive(Debug)]
struct Reliability {
    cfg: ReliableConfig,
    /// Next frame sequence number per destination link.
    next_seq: Vec<u64>,
    /// Recently sent frames, per `(dest, tag)`, for NACK-driven resend.
    cache: HashMap<(usize, Tag), Bytes>,
    /// FIFO eviction order of the retransmit cache.
    cache_order: VecDeque<(usize, Tag)>,
    /// Per-source dedup floor: sequences below it count as delivered.
    seen_floor: Vec<u64>,
    /// Per-source delivered sequences at or above the floor.
    seen: Vec<BTreeSet<u64>>,
    /// Deterministic fault injector (tests and chaos runs only).
    injector: Option<FaultInjector>,
}

impl Reliability {
    fn new(size: usize, cfg: ReliableConfig) -> Self {
        Self {
            cfg,
            next_seq: vec![0; size],
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            seen_floor: vec![0; size],
            seen: vec![BTreeSet::new(); size],
            injector: None,
        }
    }

    /// Record a delivered frame sequence. Returns `false` when the frame is
    /// a duplicate that must be discarded.
    fn accept(&mut self, src: usize, seq: u64) -> bool {
        if seq < self.seen_floor[src] || !self.seen[src].insert(seq) {
            return false;
        }
        while self.seen[src].len() > DEDUP_WINDOW {
            if let Some(min) = self.seen[src].pop_first() {
                self.seen_floor[src] = min + 1;
            }
        }
        true
    }

    /// Cache a sealed frame for possible retransmission.
    fn remember(&mut self, dest: usize, tag: Tag, frame: Bytes) {
        if self.cache.insert((dest, tag), frame).is_none() {
            self.cache_order.push_back((dest, tag));
        }
        while self.cache.len() > RETRANSMIT_CACHE {
            if let Some(old) = self.cache_order.pop_front() {
                self.cache.remove(&old);
            }
        }
    }
}

/// Errors from endpoint operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// Destination rank does not exist.
    NoSuchRank(usize),
    /// The peer hung up (its endpoint was dropped, e.g. after a panic).
    Disconnected,
    /// No matching message arrived within the deadline.
    Timeout,
    /// A matched payload failed to unpack (wrong framing or length for the
    /// receiver's geometry) — the peer is in an inconsistent state.
    Malformed,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::NoSuchRank(r) => write!(f, "no such rank {r}"),
            CommError::Disconnected => write!(f, "peer disconnected"),
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::Malformed => write!(f, "malformed payload"),
        }
    }
}

impl std::error::Error for CommError {}

/// A rank's communication endpoint.
pub struct Endpoint {
    rank: usize,
    txs: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    stash: Vec<Message>,
    reliability: Option<Box<Reliability>>,
    /// Current causal span: stamped into every frame this endpoint seals
    /// (0 = outside any step). Set per step by the halo layer.
    span: u64,
    metrics: CommMetrics,
    /// Every send, receive and fault-layer event of this rank, recorded
    /// once: a bounded ring dumped as the rank's black box when something
    /// goes wrong, or the whole timeline when tracing is on.
    pub recorder: Recorder,
    /// Accumulated statistics.
    pub stats: CommStats,
    /// Accumulated blocking time inside `recv` (the "non-overlapped
    /// communication" component of the paper's time breakdown).
    pub wait_time: Duration,
    /// Accumulated time inside `send`, from the duration each send's event
    /// already measures. Whole microseconds of the events cannot carry
    /// this — a send that wakes no parked peer is well under one.
    pub(crate) send_time: Duration,
    /// Receive deadline; a hung peer surfaces as [`CommError::Timeout`].
    pub timeout: Duration,
}

impl Endpoint {
    /// A plain endpoint for `rank` over its inbox and the senders to every
    /// rank's inbox.
    fn new(rank: usize, txs: Vec<Sender<Message>>, rx: Receiver<Message>) -> Self {
        Self {
            rank,
            txs,
            rx,
            stash: Vec::new(),
            reliability: None,
            span: 0,
            metrics: CommMetrics::new(),
            recorder: Recorder::new(rank, Instant::now()),
            stats: CommStats::default(),
            wait_time: Duration::ZERO,
            send_time: Duration::ZERO,
            timeout: Duration::from_secs(30),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.txs.len()
    }

    /// Arm the reliability layer: outgoing payloads are sealed into
    /// checksummed frames, receives validate/dedup them and heal losses with
    /// NACK-driven resends. All endpoints of a universe must agree on the
    /// mode (see [`universe_reliable`]).
    pub fn enable_reliability(&mut self, cfg: ReliableConfig) {
        let size = self.txs.len();
        self.reliability = Some(Box::new(Reliability::new(size, cfg)));
    }

    /// Is the reliability layer armed?
    pub fn reliable(&self) -> bool {
        self.reliability.is_some()
    }

    /// Set the current causal span (0 = none). Every frame sealed after
    /// this call carries the span in its trailer, so receives, NACKs and
    /// resends of the step's traffic stitch into one cross-rank trace.
    pub fn set_span(&mut self, span: u64) {
        self.span = span;
    }

    /// The current causal span (0 = none).
    pub fn current_span(&self) -> u64 {
        self.span
    }

    /// Attach a deterministic fault injector (requires reliability — an
    /// unframed endpoint cannot recover from what the injector does).
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        let r = self.reliability.as_mut().expect("fault injection requires enable_reliability");
        r.injector = Some(inj);
    }

    /// Committed-fault counters of the attached injector, if any.
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.reliability.as_ref().and_then(|r| r.injector.as_ref()).map(|i| i.stats)
    }

    /// Send a packed buffer to `to` (non-blocking; channels are unbounded,
    /// like PVM's buffered sends).
    pub fn send(&mut self, to: usize, tag: Tag, buf: PackBuf) -> Result<(), CommError> {
        if self.reliability.is_some() {
            return self.send_reliable(to, tag, buf);
        }
        let start = Instant::now();
        let span = self.span;
        let payload = buf.freeze();
        let bytes = payload.len() as u64;
        let tx = self.txs.get(to).ok_or(CommError::NoSuchRank(to))?;
        tx.send(Message { src: self.rank, tag, span, payload }).map_err(|_| CommError::Disconnected)?;
        self.count_send(to, tag, None, bytes, start);
        Ok(())
    }

    /// Count and record a delivered hand-off. Only delivered ones: a
    /// `Disconnected` error is not a start-up, and Tables 1-2 must not
    /// credit it as one.
    fn count_send(&mut self, to: usize, tag: Tag, seq: Option<u64>, bytes: u64, start: Instant) {
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes;
        self.metrics.sends.inc();
        self.metrics.bytes_sent.add(bytes);
        let span = span_opt(self.span);
        self.send_time += self.recorder.record(EventKind::Send, tag.kind.name(), start, Some(to), seq, span, bytes);
    }

    /// Framed send: seal, cache for retransmission, then pass the wire copy
    /// through the fault injector (which may drop, corrupt, duplicate or
    /// delay it). The pristine frame stays in the cache, so every injected
    /// fault is recoverable via NACK.
    fn send_reliable(&mut self, to: usize, tag: Tag, mut buf: PackBuf) -> Result<(), CommError> {
        let start = Instant::now();
        if to >= self.txs.len() {
            return Err(CommError::NoSuchRank(to));
        }
        let span = self.span;
        let r = self.reliability.as_mut().expect("checked by caller");
        let seq = r.next_seq[to];
        r.next_seq[to] += 1;
        buf.seal_frame(seq, span);
        let payload = buf.freeze();
        let bytes = payload.len() as u64;
        r.remember(to, tag, payload.clone());
        let action = r.injector.as_mut().map_or(FaultAction::Deliver, |i| i.decide());
        let src = self.rank;
        let outcome = match action {
            FaultAction::Deliver => self.txs[to].send(Message { src, tag, span, payload }).is_ok(),
            FaultAction::Drop => {
                self.trace_fault("fault:drop", Some(to), Some(seq), bytes, start);
                true // the network ate it; the app's send succeeded
            }
            FaultAction::Corrupt { byte, bit } => {
                let mut wire = payload.to_vec();
                let idx = (byte % wire.len() as u64) as usize;
                wire[idx] ^= 1 << bit;
                self.trace_fault("fault:corrupt", Some(to), Some(seq), bytes, start);
                self.txs[to].send(Message { src, tag, span, payload: Bytes::from(wire) }).is_ok()
            }
            FaultAction::Duplicate => {
                self.trace_fault("fault:dup", Some(to), Some(seq), bytes, start);
                let first = self.txs[to].send(Message { src, tag, span, payload: payload.clone() }).is_ok();
                first && self.txs[to].send(Message { src, tag, span, payload }).is_ok()
            }
            FaultAction::Delay(d) => {
                self.trace_fault("fault:delay", Some(to), Some(seq), bytes, start);
                std::thread::sleep(d);
                self.txs[to].send(Message { src, tag, span, payload }).is_ok()
            }
        };
        if !outcome {
            return Err(CommError::Disconnected);
        }
        self.count_send(to, tag, Some(seq), bytes, start);
        Ok(())
    }

    fn trace_fault(&mut self, label: &'static str, peer: Option<usize>, seq: Option<u64>, bytes: u64, start: Instant) {
        self.recorder.record(EventKind::Fault, label, start, peer, seq, span_opt(self.span), bytes);
    }

    /// Fire-and-forget control send (never framed, never counted as an
    /// application start-up). Errors are ignored: a NACK to a dead peer
    /// changes nothing.
    fn send_nack(&mut self, to: usize, wanted: Tag) {
        let start = Instant::now();
        let mut b = PackBuf::new();
        b.pack_u64(wanted.kind.code());
        b.pack_u64(wanted.seq);
        let payload = b.freeze();
        if let Some(tx) = self.txs.get(to) {
            let _ =
                tx.send(Message { src: self.rank, tag: Tag { kind: MsgKind::Nack, seq: 0 }, span: self.span, payload });
        }
        self.stats.retries += 1;
        self.metrics.retries.inc();
        self.trace_fault("fault:nack", Some(to), None, 0, start);
    }

    /// Service a peer's NACK from the retransmit cache. A cache miss (frame
    /// never sent, or evicted) is ignored — the requester's budget will
    /// expire and the recovery layer takes over.
    fn serve_nack(&mut self, m: Message) {
        let mut u = UnpackBuf::new(m.payload);
        let (Ok(code), Ok(seq)) = (u.unpack_u64(), u.unpack_u64()) else {
            return;
        };
        let Some(kind) = MsgKind::from_code(code) else {
            return;
        };
        let wanted = Tag { kind, seq };
        let cached = self.reliability.as_ref().and_then(|r| r.cache.get(&(m.src, wanted)).cloned());
        if let Some(frame) = cached {
            let start = Instant::now();
            let src = self.rank;
            // the resend serves the cached sealed bytes, so the frame's
            // original span rides along; label the resend with it too. A
            // frame too short to carry a trailer has no span to stitch —
            // count it and record the events spanless rather than inventing
            // span 0.
            let frame_span = match peek_span(&frame) {
                Some(span) => span,
                None => {
                    self.stats.spanless_frames += 1;
                    self.metrics.spanless_frames.inc();
                    0
                }
            };
            if let Some(tx) = self.txs.get(m.src) {
                let _ = tx.send(Message { src, tag: wanted, span: frame_span, payload: frame });
            }
            self.stats.resends += 1;
            self.metrics.resends.inc();
            self.recorder.record(EventKind::Fault, "fault:resend", start, Some(m.src), None, span_opt(frame_span), 0);
        }
    }

    /// Validate, dedup and deframe an incoming data message. Returns the
    /// deframed message to deliver or stash, or `None` when the frame was
    /// discarded (corrupt — NACKed immediately — or duplicate).
    fn admit_frame(&mut self, m: Message) -> Option<Message> {
        let (src, tag) = (m.src, m.tag);
        match open_frame(m.payload) {
            Ok(frame) => {
                let fresh = self.reliability.as_mut().expect("reliable path").accept(src, frame.seq);
                if !fresh {
                    self.stats.dup_frames += 1;
                    self.metrics.dup_frames.inc();
                    self.trace_fault(
                        "fault:dup-discard",
                        Some(src),
                        Some(frame.seq),
                        frame.body.len() as u64,
                        Instant::now(),
                    );
                    return None;
                }
                Some(Message { src, tag, span: frame.span, payload: frame.body })
            }
            Err(_) => {
                self.stats.corrupt_frames += 1;
                self.metrics.corrupt_frames.inc();
                self.trace_fault("fault:checksum", Some(src), None, 0, Instant::now());
                self.send_nack(src, tag);
                None
            }
        }
    }

    /// Absolute deadline for a receive that started at `start`. `start +
    /// timeout` overflows `Instant` for effectively-infinite timeouts
    /// (`Duration::MAX` as "wait forever"), which used to panic before the
    /// channel was even polled; saturate to a deadline ~136 years out
    /// instead. Both receive paths derive their deadline here and compare
    /// it with `saturating_duration_since`, so an already-expired deadline
    /// is a clean `Timeout` on either path, never Duration arithmetic
    /// underflow.
    fn recv_deadline(&self, start: Instant) -> Instant {
        start.checked_add(self.timeout).unwrap_or_else(|| start + Duration::from_secs(u32::MAX as u64))
    }

    /// The next inbox arrival of a receive that began at `start`, waiting no
    /// later than `wake` (the caller's deadline or next retry). Three
    /// phases, because the common arrival is microseconds away and a park
    /// costs the sender a futex wake and this thread a reschedule (~45 µs
    /// the pair, DESIGN §17): poll with a CPU spin hint for [`SPIN_POLLS`];
    /// keep polling but yield the core between polls — so an oversubscribed
    /// peer that needs this core gets it — until [`POLL_BUDGET`] of the
    /// receive is spent; only then park in the channel. `Timeout` is
    /// returned only once `wake` has passed.
    fn next_arrival(&self, start: Instant, wake: Instant) -> Result<Message, RecvTimeoutError> {
        let poll = || match self.rx.try_recv() {
            Ok(m) => Some(Ok(m)),
            Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
            Err(TryRecvError::Empty) => None,
        };
        for _ in 0..SPIN_POLLS {
            if let Some(arrival) = poll() {
                return arrival;
            }
            std::hint::spin_loop();
        }
        let park_at = start.checked_add(POLL_BUDGET).map_or(wake, |t| t.min(wake));
        while Instant::now() < park_at {
            if let Some(arrival) = poll() {
                return arrival;
            }
            std::thread::yield_now();
        }
        self.rx.recv_timeout(wake.saturating_duration_since(Instant::now()))
    }

    /// Blocking receive matching `(from, tag)`; non-matching arrivals are
    /// stashed for later receives. With the reliability layer armed this is
    /// the self-healing receive: it services NACKs while waiting, validates
    /// and dedups frames, and escalates an overdue match into NACK-driven
    /// resend requests with bounded exponential backoff.
    pub fn recv(&mut self, from: usize, tag: Tag) -> Result<Bytes, CommError> {
        let start = Instant::now();
        // check the stash first
        if let Some(pos) = self.stash.iter().position(|m| m.src == from && m.tag == tag) {
            let m = self.stash.swap_remove(pos);
            return Ok(self.deliver(m, start).0);
        }
        let deadline = self.recv_deadline(start);
        // the plain path has no retry schedule (a budget of zero NACKs): it
        // only ever wakes at the deadline
        let cfg = self.reliability.as_ref().map(|r| r.cfg);
        let reliable = cfg.is_some();
        let (max_retries, mut interval) = cfg.map_or((0, Duration::ZERO), |c| (c.max_retries, c.retry_timeout));
        let mut retries = 0u32;
        let mut retry_at = start.checked_add(interval).unwrap_or(deadline);
        loop {
            let now = Instant::now();
            if deadline.saturating_duration_since(now).is_zero() {
                self.wait_time += now - start;
                return Err(CommError::Timeout);
            }
            // wake at whichever comes first: hard deadline or next retry
            let wake = if retries < max_retries { deadline.min(retry_at) } else { deadline };
            match self.next_arrival(start, wake) {
                Ok(m) if reliable && m.tag.kind == MsgKind::Nack => self.serve_nack(m),
                Ok(m) => {
                    let admitted = if reliable { self.admit_frame(m) } else { Some(m) };
                    if let Some(m) = admitted {
                        if m.src == from && m.tag == tag {
                            let (payload, waited) = self.deliver(m, start);
                            self.wait_time += waited;
                            return Ok(payload);
                        }
                        self.stash.push(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        self.wait_time += start.elapsed();
                        return Err(CommError::Timeout);
                    }
                    if retries < max_retries {
                        // the frame is overdue: ask the sender to retransmit
                        retries += 1;
                        self.send_nack(from, tag);
                        interval = interval.saturating_mul(2);
                        retry_at = Instant::now().checked_add(interval).unwrap_or(deadline);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.wait_time += start.elapsed();
                    return Err(CommError::Disconnected);
                }
            }
        }
    }

    /// Count and record a matched message of a receive that began at
    /// `start`, returning its payload and how long the receive took. The
    /// event is stamped at the receive's start and carries the *sender's*
    /// span (recovered from the frame trailer), which is what stitches the
    /// two rank timelines into one causal trace.
    fn deliver(&mut self, m: Message, start: Instant) -> (Bytes, Duration) {
        let bytes = m.payload.len() as u64;
        self.stats.recvs += 1;
        self.stats.bytes_recvd += bytes;
        self.metrics.recvs.inc();
        self.metrics.bytes_recvd.add(bytes);
        let span = span_opt(m.span);
        let took = self.recorder.record(EventKind::Recv, m.tag.kind.name(), start, Some(m.src), None, span, bytes);
        (m.payload, took)
    }
}

/// Create a fully connected universe of `size` endpoints.
pub fn universe(size: usize) -> Vec<Endpoint> {
    assert!(size >= 1);
    let mut txs = Vec::with_capacity(size);
    let mut rxs = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter().enumerate().map(|(rank, rx)| Endpoint::new(rank, txs.clone(), rx)).collect()
}

/// Create a universe with the reliability layer armed on every endpoint and,
/// optionally, a deterministic fault injector per rank (generation 0; the
/// recovery driver builds later generations itself).
pub fn universe_reliable(size: usize, cfg: ReliableConfig, plan: Option<&crate::fault::FaultPlan>) -> Vec<Endpoint> {
    let mut eps = universe(size);
    for (rank, ep) in eps.iter_mut().enumerate() {
        ep.enable_reliability(cfg);
        if let Some(plan) = plan {
            ep.set_fault_injector(FaultInjector::for_rank(plan, rank, 0));
        }
    }
    eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    fn tag(kind: MsgKind, seq: u64) -> Tag {
        Tag { kind, seq }
    }

    fn buf(vals: &[f64]) -> PackBuf {
        let mut p = PackBuf::new();
        p.pack_f64_slice(vals);
        p
    }

    /// Unpack a payload of exactly `n` doubles.
    fn vals(payload: Bytes, n: usize) -> Vec<f64> {
        let mut u = UnpackBuf::new(payload);
        let mut out = vec![0.0; n];
        u.unpack_f64_slice(&mut out).unwrap();
        u.finish().unwrap();
        out
    }

    #[test]
    fn ping_pong_between_threads() {
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        thread::scope(|s| {
            s.spawn(move || {
                a.send(1, tag(MsgKind::Flux1, 0), buf(&[1.0, 2.0])).unwrap();
                let got = a.recv(1, tag(MsgKind::Flux2, 0)).unwrap();
                assert_eq!(got.len(), 8);
            });
            s.spawn(move || {
                let got = b.recv(0, tag(MsgKind::Flux1, 0)).unwrap();
                assert_eq!(got.len(), 16);
                b.send(0, tag(MsgKind::Flux2, 0), buf(&[9.0])).unwrap();
            });
        });
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, tag(MsgKind::Prims1, 7), buf(&[1.0])).unwrap();
        a.send(1, tag(MsgKind::Flux1, 7), buf(&[2.0, 3.0])).unwrap();
        // receive in the opposite order
        let f = b.recv(0, tag(MsgKind::Flux1, 7)).unwrap();
        assert_eq!(f.len(), 16);
        let p = b.recv(0, tag(MsgKind::Prims1, 7)).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(b.stats.recvs, 2);
    }

    #[test]
    fn stats_count_both_sides() {
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, tag(MsgKind::Prims1, 0), buf(&[0.0; 10])).unwrap();
        let _ = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
        assert_eq!(a.stats.sends, 1);
        assert_eq!(a.stats.startups(), 1);
        assert_eq!(b.stats.recvs, 1);
        assert_eq!(a.stats.bytes_sent, 80);
        assert_eq!(b.stats.bytes_recvd, 80);
    }

    #[test]
    fn recorder_records_sends_and_receives() {
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.recorder.trace();
        b.recorder.trace();
        a.send(1, tag(MsgKind::Prims1, 3), buf(&[0.0; 5])).unwrap();
        let _ = b.recv(0, tag(MsgKind::Prims1, 3)).unwrap();
        let sent = a.recorder.take();
        assert_eq!(sent.len(), 1, "one send is one event");
        let s = &sent[0];
        assert_eq!(s.kind, EventKind::Send);
        assert_eq!(s.label, "Prims1");
        assert_eq!(s.peer, Some(1));
        assert_eq!(s.bytes, 40);
        let recvd = b.recorder.take();
        assert_eq!(recvd.len(), 1, "one receive is one event");
        let r = &recvd[0];
        assert_eq!(r.kind, EventKind::Recv);
        assert_eq!((r.rank, r.peer), (1, Some(0)));
        assert_eq!(r.bytes, 40);
        // the send's duration is the endpoint's send time, armed or not
        assert!(a.send_time > Duration::ZERO);
    }

    #[test]
    fn waited_receive_is_one_event_stamped_at_its_start() {
        // a receive that waits for a delayed send is recorded once: stamped
        // when the receive began, lasting until the match was delivered,
        // the same event in the black box and on the traced timeline
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let origin = Instant::now();
        b.recorder.set_origin(origin);
        b.recorder.trace();
        let go = Gate::default();
        let began = Instant::now();
        thread::scope(|s| {
            s.spawn(|| {
                go.pass();
                thread::sleep(Duration::from_millis(20));
                a.send(1, tag(MsgKind::Flux2, 1), buf(&[1.0])).unwrap();
            });
            go.open();
            b.recv(0, tag(MsgKind::Flux2, 1)).unwrap();
        });
        let dump = b.recorder.dump("test");
        let traced = b.recorder.take();
        assert_eq!(traced.len(), 1, "exactly one event for the receive: {traced:?}");
        assert_eq!(dump.events, traced, "the dump and the trace hold the identical event");
        let e = &traced[0];
        let began_us = began.duration_since(origin).as_micros() as u64;
        assert!(e.t_us >= began_us && e.t_us < began_us + 10_000, "stamped at the receive's start: {e:?}");
        assert!(e.dur_us >= 5000, "the wait is the event's duration: {e:?}");
        assert!(b.wait_time.as_micros() as u64 >= e.dur_us, "wait time and the event share one clock read");
    }

    #[test]
    fn send_to_missing_rank_errors() {
        let mut eps = universe(2);
        let mut a = eps.remove(0);
        let err = a.send(5, tag(MsgKind::Prims1, 0), buf(&[1.0])).unwrap_err();
        assert_eq!(err, CommError::NoSuchRank(5));
    }

    #[test]
    fn recv_times_out_when_peer_is_silent() {
        let mut eps = universe(2);
        let mut a = eps.remove(0);
        a.timeout = Duration::from_millis(20);
        let err = a.recv(1, tag(MsgKind::Prims1, 0)).unwrap_err();
        assert_eq!(err, CommError::Timeout);
        assert!(a.wait_time >= Duration::from_millis(15));
    }

    #[test]
    fn infinite_timeout_recv_does_not_panic() {
        // regression: `start + self.timeout` overflowed (panicked) for
        // effectively-infinite timeouts like `Duration::MAX` before the
        // inbox was even polled, on both the plain and reliable paths
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, tag(MsgKind::Prims1, 0), buf(&[4.0])).unwrap();
        b.timeout = Duration::MAX;
        let got = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
        assert_eq!(vals(got, 1), vec![4.0]);

        let mut eps = universe_reliable(2, ReliableConfig::default(), None);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, tag(MsgKind::Prims1, 0), buf(&[7.0])).unwrap();
        b.timeout = Duration::MAX;
        let got = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
        assert_eq!(vals(got, 1), vec![7.0]);
    }

    #[test]
    fn expired_deadline_recv_times_out_cleanly() {
        // regression: an already-expired deadline must surface as a clean
        // `Timeout` (saturating arithmetic), never a Duration underflow —
        // exercised on both receive paths, which now share `recv_deadline`
        let mut eps = universe(2);
        let mut a = eps.remove(0);
        a.timeout = Duration::ZERO;
        assert_eq!(a.recv(1, tag(MsgKind::Prims1, 0)).unwrap_err(), CommError::Timeout);

        let mut eps = universe_reliable(2, ReliableConfig::default(), None);
        let mut a = eps.remove(0);
        a.timeout = Duration::ZERO;
        assert_eq!(a.recv(1, tag(MsgKind::Prims1, 0)).unwrap_err(), CommError::Timeout);
    }

    #[test]
    fn recv_detects_dead_peer() {
        let mut eps = universe(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        drop(b); // peer "panicked"
                 // a's own sender clones keep the channel alive only for a's inbox;
                 // receiving from the dropped peer can only time out (the message
                 // will never come), while a send to it still succeeds into a's copy
                 // of the sender -> use a short timeout
        a.timeout = Duration::from_millis(10);
        let err = a.recv(1, tag(MsgKind::Prims1, 0)).unwrap_err();
        assert_eq!(err, CommError::Timeout);
    }

    #[test]
    fn failed_send_is_not_counted() {
        // satellite: a send that errors must not inflate the start-up
        // counters Tables 1-2 are built from
        let mut eps = universe(2);
        let mut a = eps.remove(0);
        let err = a.send(9, tag(MsgKind::Prims1, 0), buf(&[1.0])).unwrap_err();
        assert_eq!(err, CommError::NoSuchRank(9));
        assert_eq!(a.stats.sends, 0);
        assert_eq!(a.stats.bytes_sent, 0);
    }

    #[test]
    fn send_to_dropped_peer_disconnects_without_counting() {
        // Tear down every clone of the peer's inbox sender so the channel
        // actually disconnects (a full universe keeps self-clones alive).
        let (tx, rx_a) = unbounded();
        let (tx_b, rx_b) = unbounded();
        let mut a = Endpoint::new(0, vec![tx, tx_b], rx_a);
        drop(rx_b); // rank 1's endpoint is gone
        let err = a.send(1, tag(MsgKind::Flux1, 0), buf(&[1.0])).unwrap_err();
        assert_eq!(err, CommError::Disconnected);
        assert_eq!(a.stats.sends, 0, "Disconnected send must not count");
        assert_eq!(a.stats.bytes_sent, 0);
    }

    #[test]
    fn stash_matches_in_arrival_order_per_tag() {
        // same (src, tag) sent twice: receives must drain in FIFO order
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, tag(MsgKind::Prims1, 1), buf(&[1.0])).unwrap();
        a.send(1, tag(MsgKind::Flux1, 1), buf(&[2.0])).unwrap();
        a.send(1, tag(MsgKind::Prims1, 2), buf(&[3.0])).unwrap();
        // force all three into the stash by asking for the last first
        let p2 = b.recv(0, tag(MsgKind::Prims1, 2)).unwrap();
        assert_eq!(vals(p2, 1), vec![3.0]);
        let p1 = b.recv(0, tag(MsgKind::Prims1, 1)).unwrap();
        assert_eq!(vals(p1, 1), vec![1.0]);
        let f1 = b.recv(0, tag(MsgKind::Flux1, 1)).unwrap();
        assert_eq!(vals(f1, 1), vec![2.0]);
    }

    #[test]
    fn timeout_accrues_wait_time() {
        let mut eps = universe(2);
        let mut a = eps.remove(0);
        a.timeout = Duration::from_millis(15);
        let before = a.wait_time;
        let _ = a.recv(1, tag(MsgKind::Prims1, 0)).unwrap_err();
        let first = a.wait_time - before;
        assert!(first >= Duration::from_millis(10), "timeout must be charged to wait_time, got {first:?}");
        let _ = a.recv(1, tag(MsgKind::Prims1, 1)).unwrap_err();
        assert!(a.wait_time >= first + Duration::from_millis(10), "wait_time accumulates across receives");
    }

    // ---- the wait: spin -> yield -> park ----

    /// Busy-wait `d` (a sleep cannot be this short or this punctual).
    fn spin_for(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// A start line a waiting thread crosses within nanoseconds of its
    /// opening: it spins, where a channel or `Barrier` would park it and
    /// add a wake-up as long as the polling phases under test.
    #[derive(Default)]
    struct Gate(AtomicBool);

    impl Gate {
        fn open(&self) {
            self.0.store(true, Ordering::Release);
        }

        fn pass(&self) {
            while !self.0.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        }
    }

    #[test]
    fn arrival_in_any_wait_phase_is_delivered_identically() {
        // already queued (first poll), ~20 us out (polling), 5 ms out
        // (parked): same payload, same counters, wait time covers the delay
        let mut seen = Vec::new();
        for delay in [Duration::ZERO, Duration::from_micros(20), Duration::from_millis(5)] {
            let mut eps = universe(2);
            let mut b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            let go = Gate::default();
            thread::scope(|s| {
                s.spawn(|| {
                    go.pass();
                    spin_for(delay);
                    a.send(1, tag(MsgKind::Flux1, 4), buf(&[1.0, -2.0, 3.5])).unwrap();
                });
                go.open();
                if delay.is_zero() {
                    // let the send land before the receive starts
                    thread::sleep(Duration::from_millis(20));
                }
                let got = b.recv(0, tag(MsgKind::Flux1, 4)).unwrap();
                assert_eq!(vals(got, 3), vec![1.0, -2.0, 3.5]);
            });
            if delay >= Duration::from_millis(1) {
                assert!(b.wait_time >= delay / 2, "a parked wait is charged: {:?}", b.wait_time);
            }
            seen.push(b.stats);
        }
        assert_eq!(seen[0], seen[1], "polled delivery counts like an immediate one");
        assert_eq!(seen[0], seen[2], "parked delivery counts like an immediate one");
        assert_eq!((seen[0].recvs, seen[0].bytes_recvd), (1, 24));
    }

    #[test]
    fn arrivals_during_polling_are_stashed_and_matched_later() {
        // five tags trickle in a few microseconds apart while the receiver
        // is already waiting for the *last* one: the four others must go to
        // the stash in arrival order and match afterwards
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let go = Gate::default();
        thread::scope(|s| {
            s.spawn(|| {
                go.pass();
                for i in 0..5u64 {
                    spin_for(Duration::from_micros(5));
                    a.send(1, tag(MsgKind::Prims1, i), buf(&[i as f64])).unwrap();
                }
            });
            go.open();
            let last = b.recv(0, tag(MsgKind::Prims1, 4)).unwrap();
            assert_eq!(vals(last, 1), vec![4.0]);
            let stashed: Vec<u64> = b.stash.iter().map(|m| m.tag.seq).collect();
            assert_eq!(stashed, vec![0, 1, 2, 3], "stash keeps arrival order");
            for i in [2u64, 0, 3, 1] {
                let got = b.recv(0, tag(MsgKind::Prims1, i)).unwrap();
                assert_eq!(vals(got, 1), vec![i as f64]);
            }
        });
        assert_eq!(b.stats.recvs, 5);
        assert!(b.stash.is_empty());
    }

    #[test]
    fn deadline_inside_the_poll_budget_fires_at_the_deadline() {
        // the polling phases must not hold a receive past its own deadline:
        // a 20 us timeout returns after ~20 us, not after POLL_BUDGET. A
        // yielding test thread on a loaded host can lose the core for
        // milliseconds, so attempts repeat until one comes back inside the
        // budget; a wait held to the budget never would.
        let timeout = Duration::from_micros(20);
        assert!(timeout * 2 < POLL_BUDGET);
        let mut eps = universe(2);
        let mut a = eps.remove(0);
        a.timeout = timeout;
        let began = Instant::now();
        let mut fastest = Duration::MAX;
        for i in 0.. {
            let before = a.wait_time;
            let t0 = Instant::now();
            assert_eq!(a.recv(1, tag(MsgKind::Prims1, i)).unwrap_err(), CommError::Timeout);
            let took = t0.elapsed();
            assert!(took >= timeout, "never early: {took:?}");
            assert!(a.wait_time - before >= timeout, "the whole wait is charged");
            fastest = fastest.min(took);
            if fastest < POLL_BUDGET || began.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        assert!(fastest < POLL_BUDGET, "held to the poll budget instead of the deadline: {fastest:?}");
    }

    #[test]
    fn peer_dropped_mid_wait_disconnects() {
        // the only sender to this inbox goes away 20 us into the receive
        // (polling) or 3 ms into it (parked): Disconnected either way
        for delay in [Duration::from_micros(20), Duration::from_millis(3)] {
            let (tx_a, rx_a) = unbounded();
            let (tx_b, _rx_b) = unbounded();
            let mut a = Endpoint::new(0, vec![tx_b.clone(), tx_b], rx_a);
            a.timeout = Duration::from_secs(5);
            let go = Gate::default();
            thread::scope(|s| {
                s.spawn(|| {
                    go.pass();
                    spin_for(delay);
                    drop(tx_a);
                });
                go.open();
                let t0 = Instant::now();
                assert_eq!(a.recv(1, tag(MsgKind::Prims1, 0)).unwrap_err(), CommError::Disconnected);
                assert!(t0.elapsed() < Duration::from_secs(4), "found out from the channel, not the deadline");
            });
            assert_eq!(a.stats.recvs, 0);
        }
    }

    #[test]
    fn dropped_frame_heals_with_one_nack_and_one_resend() {
        // the counts of `dropped_frame_is_recovered_by_retry`, pinned
        // exactly: the retry interval is long enough that the first resend
        // always lands before a second NACK is due
        let plan = crate::fault::FaultPlan { seed: 31, drop_rate: 1.0, ..crate::fault::FaultPlan::default() };
        let cfg = ReliableConfig { retry_timeout: Duration::from_millis(50), max_retries: 8 };
        let mut eps = universe_reliable(2, cfg, None);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_fault_injector(FaultInjector::for_rank(&plan, 0, 0));
        a.timeout = Duration::from_secs(5);
        b.timeout = Duration::from_secs(5);
        thread::scope(|s| {
            let ha = s.spawn(move || {
                a.send(1, tag(MsgKind::Prims1, 0), buf(&[3.5])).unwrap();
                let got = a.recv(1, tag(MsgKind::Flux1, 0)).unwrap();
                assert_eq!(vals(got, 1), vec![8.5]);
                a
            });
            let got = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
            assert_eq!(vals(got, 1), vec![3.5]);
            b.send(0, tag(MsgKind::Flux1, 0), buf(&[8.5])).unwrap();
            let a = ha.join().unwrap();
            assert_eq!((b.stats.retries, a.stats.resends), (1, 1));
            assert_eq!(a.fault_stats().unwrap().dropped, 1);
            assert_eq!((a.stats.startups(), b.stats.startups()), (2, 2));
        });
    }

    #[test]
    fn nack_landing_on_a_polling_peer_is_served() {
        // rank 0's frame is dropped and rank 0 then waits for the reply in
        // receives whose deadline lies inside the poll budget, so it never
        // parks: the NACK can only have been served from the polling phases
        let plan = crate::fault::FaultPlan { seed: 5, drop_rate: 1.0, ..crate::fault::FaultPlan::default() };
        let cfg = ReliableConfig { retry_timeout: Duration::from_millis(5), max_retries: 8 };
        let mut eps = universe_reliable(2, cfg, None);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_fault_injector(FaultInjector::for_rank(&plan, 0, 0));
        a.timeout = POLL_BUDGET / 2;
        b.timeout = Duration::from_secs(5);
        thread::scope(|s| {
            let ha = s.spawn(move || {
                a.send(1, tag(MsgKind::Prims1, 0), buf(&[6.25])).unwrap();
                let t0 = Instant::now();
                let reply = loop {
                    match a.recv(1, tag(MsgKind::Flux1, 0)) {
                        Ok(p) => break p,
                        Err(CommError::Timeout) => assert!(t0.elapsed() < Duration::from_secs(5), "never healed"),
                        Err(e) => panic!("{e}"),
                    }
                };
                assert_eq!(vals(reply, 1), vec![1.5]);
                a
            });
            let got = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
            assert_eq!(vals(got, 1), vec![6.25]);
            b.send(0, tag(MsgKind::Flux1, 0), buf(&[1.5])).unwrap();
            let a = ha.join().unwrap();
            assert!(b.stats.retries >= 1, "the frame was overdue and NACKed");
            // (a second NACK can go out if rank 0 loses the core for a
            // whole retry interval; it is served or outrun by the reply)
            assert!((1..=b.stats.retries).contains(&a.stats.resends), "the polling receive served the NACK");
            assert_eq!(a.stats.retries, 0, "rank 0's own short receives never reach a retry");
        });
    }

    /// The reference receive, with no polling phases: stash check, then
    /// park in the channel until the match arrives.
    fn recv_park_only(ep: &mut Endpoint, from: usize, want: Tag) -> Bytes {
        if let Some(pos) = ep.stash.iter().position(|m| m.src == from && m.tag == want) {
            return ep.stash.swap_remove(pos).payload;
        }
        loop {
            let m = ep.rx.recv_timeout(Duration::from_secs(5)).expect("reference receive");
            if m.src == from && m.tag == want {
                return m.payload;
            }
            ep.stash.push(m);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Whatever the gaps between sends (none, inside the spin, inside
        /// the poll budget, past it) and whatever order the tags are asked
        /// for in, the three-phase receive hands back the payloads the
        /// park-only reference loop does.
        #[test]
        fn polled_receive_delivers_what_a_parked_one_does(
            sends in proptest::collection::vec((0usize..4, 0u64..1000), 1..6),
        ) {
            const DELAYS_US: [u64; 4] = [0, 10, 200, 2000];
            // receive order: indices sorted by their random key
            let mut order: Vec<usize> = (0..sends.len()).collect();
            order.sort_by_key(|&i| (sends[i].1, i));
            let run = |polled: bool| -> Vec<Vec<f64>> {
                let mut eps = universe(2);
                let mut b = eps.pop().unwrap();
                let mut a = eps.pop().unwrap();
                let delays: Vec<u64> = sends.iter().map(|&(d, _)| DELAYS_US[d]).collect();
                thread::scope(|s| {
                    s.spawn(move || {
                        for (i, us) in delays.into_iter().enumerate() {
                            spin_for(Duration::from_micros(us));
                            a.send(1, tag(MsgKind::Prims1, i as u64), buf(&[i as f64, 0.5])).unwrap();
                        }
                    });
                    order
                        .iter()
                        .map(|&i| {
                            let want = tag(MsgKind::Prims1, i as u64);
                            let payload = if polled { b.recv(0, want).unwrap() } else { recv_park_only(&mut b, 0, want) };
                            vals(payload, 2)
                        })
                        .collect()
                })
            };
            let polled = run(true);
            proptest::prop_assert_eq!(&polled, &run(false));
            let expected: Vec<Vec<f64>> = order.iter().map(|&i| vec![i as f64, 0.5]).collect();
            proptest::prop_assert_eq!(polled, expected);
        }
    }

    // ---- reliability layer ----

    #[test]
    fn reliable_roundtrip_is_transparent() {
        let mut eps = universe_reliable(2, ReliableConfig::default(), None);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, tag(MsgKind::Prims1, 0), buf(&[1.5, -2.5])).unwrap();
        let got = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
        assert_eq!(vals(got, 2), vec![1.5, -2.5]);
        // framing is invisible to the byte accounting the tables use? No:
        // the trailer rides along on the wire, and stats count wire bytes.
        assert_eq!(a.stats.bytes_sent, 16 + crate::pack::FRAME_TRAILER as u64);
        assert_eq!(a.stats.sends, 1);
        assert_eq!(b.stats.recvs, 1);
        assert_eq!(b.stats.corrupt_frames + b.stats.dup_frames, 0);
    }

    #[test]
    fn duplicated_frames_are_deduped() {
        let plan = crate::fault::FaultPlan { seed: 11, dup_rate: 1.0, ..crate::fault::FaultPlan::default() };
        let mut eps = universe_reliable(2, ReliableConfig::default(), Some(&plan));
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..5 {
            a.send(1, tag(MsgKind::Prims1, i), buf(&[i as f64])).unwrap();
        }
        for i in 0..5 {
            let got = b.recv(0, tag(MsgKind::Prims1, i)).unwrap();
            assert_eq!(vals(got, 1), vec![i as f64]);
        }
        // the final frame's duplicate is still in flight when the last
        // matching recv returns; drain it with one timed-out receive
        b.timeout = Duration::from_millis(40);
        let _ = b.recv(0, tag(MsgKind::Prims1, 99)).unwrap_err();
        // every frame was sent twice; the copies must all be discarded
        assert_eq!(b.stats.dup_frames, 5);
        assert_eq!(b.stats.recvs, 5);
    }

    #[test]
    fn corrupt_frame_is_nacked_and_resent() {
        // corrupt every frame once; the receiver NACKs while the sender sits
        // in its own recv servicing them
        let plan = crate::fault::FaultPlan { seed: 21, corrupt_rate: 1.0, ..crate::fault::FaultPlan::default() };
        let mut eps = universe_reliable(2, ReliableConfig::default(), Some(&plan));
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.timeout = Duration::from_secs(5);
        b.timeout = Duration::from_secs(5);
        thread::scope(|s| {
            let ha = s.spawn(move || {
                a.send(1, tag(MsgKind::Prims1, 0), buf(&[42.0])).unwrap();
                // a's own recv loop services b's NACK, then gets b's reply
                let got = a.recv(1, tag(MsgKind::Flux1, 0)).unwrap();
                assert_eq!(vals(got, 1), vec![7.0]);
                a
            });
            let hb = s.spawn(move || {
                let got = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
                assert_eq!(vals(got, 1), vec![42.0]);
                b.send(0, tag(MsgKind::Flux1, 0), buf(&[7.0])).unwrap();
                // the reply was corrupted on the wire too: stay in a recv
                // long enough to service a's NACK before leaving
                b.timeout = Duration::from_millis(500);
                let _ = b.recv(0, tag(MsgKind::Prims2, 99)).unwrap_err();
                b
            });
            let a = ha.join().unwrap();
            let b = hb.join().unwrap();
            assert!(b.stats.corrupt_frames >= 1, "b saw the corrupted frame");
            assert!(b.stats.retries >= 1, "b NACKed it");
            assert!(a.stats.resends >= 1, "a served the NACK from its cache");
        });
    }

    #[test]
    fn unparseable_cached_frame_is_counted_spanless_not_span0() {
        // a NACK answered from a cache entry too short to carry a frame
        // trailer must be counted in `spanless_frames`, not silently
        // attributed to span 0
        let mut eps = universe_reliable(2, ReliableConfig::default(), None);
        let _b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let wanted = tag(MsgKind::Prims1, 5);
        let short = Bytes::from(vec![1u8, 2, 3]);
        a.reliability.as_mut().unwrap().remember(1, wanted, short);
        let mut pb = PackBuf::new();
        pb.pack_u64(wanted.kind.code());
        pb.pack_u64(wanted.seq);
        a.serve_nack(Message { src: 1, tag: Tag { kind: MsgKind::Nack, seq: 0 }, span: 0, payload: pb.freeze() });
        assert_eq!(a.stats.resends, 1, "the resend itself still happens");
        assert_eq!(a.stats.spanless_frames, 1, "but it is counted as spanless");
        // a healthy cached frame (with a trailer) must not be counted
        let mut sealed = PackBuf::new();
        sealed.pack_f64_slice(&[1.0, 2.0]);
        sealed.seal_frame(1, 0);
        a.reliability.as_mut().unwrap().remember(1, tag(MsgKind::Flux1, 5), sealed.freeze());
        let mut pb2 = PackBuf::new();
        pb2.pack_u64(MsgKind::Flux1.code());
        pb2.pack_u64(5);
        a.serve_nack(Message { src: 1, tag: Tag { kind: MsgKind::Nack, seq: 0 }, span: 0, payload: pb2.freeze() });
        assert_eq!(a.stats.resends, 2);
        assert_eq!(a.stats.spanless_frames, 1, "parseable frames are not spanless");
    }

    #[test]
    fn dropped_frame_is_recovered_by_retry() {
        // drop every frame: delivery happens exclusively through the
        // timeout-driven NACK/resend path (resends bypass the injector)
        let plan = crate::fault::FaultPlan { seed: 31, drop_rate: 1.0, ..crate::fault::FaultPlan::default() };
        let cfg = ReliableConfig { retry_timeout: Duration::from_millis(2), max_retries: 8 };
        let mut eps = universe_reliable(2, cfg, Some(&plan));
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.timeout = Duration::from_secs(5);
        b.timeout = Duration::from_secs(5);
        thread::scope(|s| {
            let ha = s.spawn(move || {
                a.send(1, tag(MsgKind::Prims1, 0), buf(&[3.5])).unwrap();
                let got = a.recv(1, tag(MsgKind::Flux1, 0)).unwrap();
                assert_eq!(vals(got, 1), vec![8.5]);
                a
            });
            let hb = s.spawn(move || {
                let got = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
                assert_eq!(vals(got, 1), vec![3.5]);
                b.send(0, tag(MsgKind::Flux1, 0), buf(&[8.5])).unwrap();
                // the reply itself was dropped: serve a's retry NACKs
                b.timeout = Duration::from_millis(500);
                let _ = b.recv(0, tag(MsgKind::Prims2, 99)).unwrap_err();
                b
            });
            let a = ha.join().unwrap();
            let b = hb.join().unwrap();
            assert!(b.stats.retries >= 1, "recovery went through a NACK");
            assert!(a.stats.resends >= 1);
            assert_eq!(a.fault_stats().unwrap().dropped, 1);
        });
    }

    #[test]
    fn retry_budget_exhaustion_times_out() {
        // nobody will ever answer the NACKs: after the budget, the hard
        // deadline fires as a Timeout the recovery layer can catch
        let cfg = ReliableConfig { retry_timeout: Duration::from_millis(1), max_retries: 3 };
        let mut eps = universe_reliable(2, cfg, None);
        let mut a = eps.remove(0);
        a.timeout = Duration::from_millis(40);
        let err = a.recv(1, tag(MsgKind::Prims1, 0)).unwrap_err();
        assert_eq!(err, CommError::Timeout);
        assert_eq!(a.stats.retries, 3, "exactly the budget of NACKs went out");
    }

    #[test]
    fn control_traffic_is_excluded_from_startups() {
        let plan = crate::fault::FaultPlan { seed: 41, drop_rate: 1.0, ..crate::fault::FaultPlan::default() };
        let cfg = ReliableConfig { retry_timeout: Duration::from_millis(2), max_retries: 8 };
        let mut eps = universe_reliable(2, cfg, Some(&plan));
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.timeout = Duration::from_secs(5);
        b.timeout = Duration::from_secs(5);
        thread::scope(|s| {
            let ha = s.spawn(move || {
                a.send(1, tag(MsgKind::Prims1, 0), buf(&[1.0])).unwrap();
                let _ = a.recv(1, tag(MsgKind::Flux1, 0)).unwrap();
                a
            });
            let hb = s.spawn(move || {
                let _ = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
                b.send(0, tag(MsgKind::Flux1, 0), buf(&[2.0])).unwrap();
                // linger to heal the dropped reply; a timed-out receive
                // delivers nothing, so it must not count as a start-up
                b.timeout = Duration::from_millis(500);
                let _ = b.recv(0, tag(MsgKind::Prims2, 99)).unwrap_err();
                b
            });
            let a = ha.join().unwrap();
            let b = hb.join().unwrap();
            // despite NACKs and resends flying, the application protocol is
            // still exactly one send and one recv per side
            assert_eq!(a.stats.startups(), 2);
            assert_eq!(b.stats.startups(), 2);
        });
    }

    // ---- causal spans & flight recorder ----

    #[test]
    fn span_rides_the_frame_trailer_to_the_receiver() {
        let mut eps = universe_reliable(2, ReliableConfig::default(), None);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.recorder.trace();
        let span = ns_metrics::span_id(2, 9);
        a.set_span(span);
        a.send(1, tag(MsgKind::Prims1, 9), buf(&[1.0])).unwrap();
        let _ = b.recv(0, tag(MsgKind::Prims1, 9)).unwrap();
        // both black boxes hold the same span
        let da = a.recorder.dump("test");
        let db = b.recorder.dump("test");
        assert_eq!(da.events_for_span(span).len(), 1, "sender recorded the spanned send");
        assert_eq!(db.events_for_span(span).len(), 1, "receiver recorded the spanned recv");
        assert_eq!(da.events[0].kind, EventKind::Send);
        assert_eq!(db.events[0].kind, EventKind::Recv);
        // the receiver never called set_span: the span crossed on the wire
        let traced = b.recorder.take();
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].span, Some(span));
    }

    #[test]
    fn resend_chain_under_drops_is_one_connected_span() {
        // drop every original frame: delivery goes NACK -> resend, and every
        // event of the chain — send, drop, nack, resend, recv — must carry
        // the same span on both ranks, so the cross-rank trace is connected
        let plan = crate::fault::FaultPlan { seed: 77, drop_rate: 1.0, ..crate::fault::FaultPlan::default() };
        let cfg = ReliableConfig { retry_timeout: Duration::from_millis(2), max_retries: 8 };
        let t0 = Instant::now();
        let mut eps = universe_reliable(2, cfg, Some(&plan));
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.timeout = Duration::from_secs(5);
        b.timeout = Duration::from_secs(5);
        let span = ns_metrics::span_id(1, 4);
        a.set_span(span);
        b.set_span(span);
        for ep in [&mut a, &mut b] {
            ep.recorder.set_origin(t0);
            ep.recorder.trace();
        }
        thread::scope(|s| {
            let ha = s.spawn(move || {
                a.send(1, tag(MsgKind::Prims1, 4), buf(&[2.25])).unwrap();
                // stay in a recv long enough to service b's NACKs
                a.timeout = Duration::from_millis(500);
                let _ = a.recv(1, tag(MsgKind::Flux1, 99)).unwrap_err();
                a
            });
            let hb = s.spawn(move || {
                let got = b.recv(0, tag(MsgKind::Prims1, 4)).unwrap();
                assert_eq!(vals(got, 1), vec![2.25]);
                b
            });
            let mut a = ha.join().unwrap();
            let mut b = hb.join().unwrap();
            // the two ranks' black boxes stitch on the span
            let da = a.recorder.dump("test");
            let db = b.recorder.dump("test");
            assert!(da.events_for_span(span).iter().any(|e| e.label == "fault:resend"));
            assert!(db.events_for_span(span).iter().any(|e| e.label == "fault:nack"));
            assert!(db.events_for_span(span).iter().any(|e| e.kind == EventKind::Recv));
            // every traced event on either rank that names the chain carries
            // the one span: the trace is a single connected component
            let (ta, tb) = (a.recorder.take(), b.recorder.take());
            let chain: Vec<&ns_metrics::Event> = ta
                .iter()
                .chain(tb.iter())
                .filter(|e| {
                    e.label == "Prims1"
                        || e.label == "fault:drop"
                        || e.label == "fault:nack"
                        || e.label == "fault:resend"
                })
                .collect();
            assert!(chain.len() >= 4, "send + drop + nack + resend + recv, got {}", chain.len());
            assert!(chain.iter().all(|e| e.span == Some(span)), "all chain events share the span: {chain:?}");
        });
    }

    #[test]
    fn comm_metrics_land_in_the_global_registry() {
        let before = Registry::global().snapshot();
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, tag(MsgKind::Prims1, 0), buf(&[0.0; 4])).unwrap();
        let _ = b.recv(0, tag(MsgKind::Prims1, 0)).unwrap();
        let delta = Registry::global().snapshot().diff(&before);
        assert!(delta.counter("ns_comm_sends_total") >= 1);
        assert!(delta.counter("ns_comm_recvs_total") >= 1);
        assert!(delta.counter("ns_comm_bytes_sent_total") >= 32);
    }
}
