//! PVM-style pack/unpack buffers.
//!
//! The paper parallelizes with PVM 3.2.2, whose idiom is to *pack* values
//! into a typed send buffer (`pvm_pkdouble`), send it as one message, and
//! *unpack* on the receiving side. [`PackBuf`] reproduces that workflow over
//! [`bytes::BytesMut`]: doubles are packed little-endian, counts are
//! explicit, and unpacking is checked so a truncated or mis-tagged message
//! surfaces as an error instead of garbage.
//!
//! The hot comm path goes through a [`BufPool`]: send buffers are acquired
//! from the pool and received payloads are recycled back into it (the
//! channel hands the receiver sole ownership, so [`Bytes::try_into_mut`]
//! recovers the storage without copying). At steady state each rank's halo
//! exchanges therefore allocate nothing per step.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors surfaced while unpacking a message payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PackError {
    /// The payload ended before the requested items could be read.
    Truncated {
        /// Items requested.
        wanted: usize,
        /// Full f64 items remaining.
        available: usize,
    },
    /// Unpacking finished with bytes left over (protocol mismatch).
    TrailingBytes(usize),
    /// A framed payload failed validation (too short or checksum mismatch).
    CorruptFrame,
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Truncated { wanted, available } => {
                write!(f, "truncated payload: wanted {wanted} f64s, {available} available")
            }
            PackError::TrailingBytes(n) => write!(f, "{n} trailing bytes after unpack"),
            PackError::CorruptFrame => write!(f, "corrupt frame (short payload or checksum mismatch)"),
        }
    }
}

impl std::error::Error for PackError {}

/// A write-side pack buffer.
#[derive(Debug, Default)]
pub struct PackBuf {
    buf: BytesMut,
}

impl PackBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with reserved capacity for `n` doubles.
    pub fn with_capacity_f64(n: usize) -> Self {
        Self { buf: BytesMut::with_capacity(n * 8) }
    }

    /// Pack one double.
    #[inline]
    pub fn pack_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Pack a slice of doubles: one growth of the buffer, then a bulk
    /// little-endian copy into it (a `memcpy` on little-endian hosts).
    pub fn pack_f64_slice(&mut self, vs: &[f64]) {
        let at = self.buf.len();
        self.buf.resize(at + vs.len() * 8, 0);
        for (dst, v) in self.buf[at..].chunks_exact_mut(8).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Pack one unsigned 64-bit integer (frame headers, control payloads).
    #[inline]
    pub fn pack_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append the reliability trailer: the frame sequence number, the
    /// causal span the frame was sent under (0 = none), and a checksum over
    /// the body, the sequence number and the span. The body bytes are
    /// untouched, so sealing is a 24-byte append, not a copy — the fault-free
    /// framed path stays on the zero-allocation pool.
    pub fn seal_frame(&mut self, seq: u64, span: u64) {
        let sum = frame_checksum(seq, span, &self.buf);
        self.buf.reserve(FRAME_TRAILER);
        self.buf.put_u64_le(seq);
        self.buf.put_u64_le(span);
        self.buf.put_u64_le(sum);
    }

    /// Number of packed bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been packed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freeze into an immutable payload (zero-copy handoff to the channel).
    pub fn freeze(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A read-side unpack cursor over a received payload.
#[derive(Debug)]
pub struct UnpackBuf {
    buf: Bytes,
}

impl UnpackBuf {
    /// Wrap a received payload.
    pub fn new(payload: Bytes) -> Self {
        Self { buf: payload }
    }

    /// Full f64 items remaining.
    pub fn remaining_f64(&self) -> usize {
        self.buf.remaining() / 8
    }

    /// Unpack one double.
    pub fn unpack_f64(&mut self) -> Result<f64, PackError> {
        if self.buf.remaining() < 8 {
            return Err(PackError::Truncated { wanted: 1, available: 0 });
        }
        Ok(self.buf.get_f64_le())
    }

    /// Unpack one unsigned 64-bit integer.
    pub fn unpack_u64(&mut self) -> Result<u64, PackError> {
        if self.buf.remaining() < 8 {
            return Err(PackError::Truncated { wanted: 1, available: 0 });
        }
        Ok(self.buf.get_u64_le())
    }

    /// Unpack exactly `out.len()` doubles into `out`.
    pub fn unpack_f64_slice(&mut self, out: &mut [f64]) -> Result<(), PackError> {
        if self.remaining_f64() < out.len() {
            return Err(PackError::Truncated { wanted: out.len(), available: self.remaining_f64() });
        }
        let nbytes = out.len() * 8;
        for (o, src) in out.iter_mut().zip(self.buf[..nbytes].chunks_exact(8)) {
            *o = f64::from_le_bytes(src.try_into().expect("8-byte chunk"));
        }
        self.buf.advance(nbytes);
        Ok(())
    }

    /// Assert the payload is fully consumed, handing it back so the caller
    /// can recycle its storage (see [`BufPool::recycle`]).
    pub fn finish(self) -> Result<Bytes, PackError> {
        if self.buf.has_remaining() {
            Err(PackError::TrailingBytes(self.buf.remaining()))
        } else {
            Ok(self.buf)
        }
    }
}

/// Bytes appended to a sealed frame: sequence number + span + checksum.
pub const FRAME_TRAILER: usize = 24;

/// FNV-1a (folded 8 bytes at a time for speed) over the body, seeded with
/// the frame sequence number and the causal span, so a flipped bit anywhere
/// in the frame — body, sequence, span, or checksum itself — fails
/// validation: each round is xor-then-multiply-by-odd, which is bijective on
/// the 64-bit state, so a single changed chunk always changes the digest.
/// Not cryptographic; it models the link-level CRC a real LACE-era network
/// would apply per packet.
pub fn frame_checksum(seq: u64, span: u64, body: &[u8]) -> u64 {
    const P: u64 = 0x0000_0100_0000_01b3;
    let mut h =
        0xcbf2_9ce4_8422_2325u64 ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ span.wrapping_mul(0xd6e8_feb8_6659_fd93);
    // four independent lanes give the multiplier's latency somewhere to
    // hide on halo-sized bodies; the fold passes each lane through the
    // same xor-multiply bijection, so a flipped chunk in any lane still
    // always changes the digest
    let mut lanes = [h, h ^ P, h.rotate_left(17), h.rotate_left(41)];
    let mut blocks = body.chunks_exact(32);
    for blk in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane ^= u64::from_le_bytes(blk[k * 8..k * 8 + 8].try_into().expect("8-byte chunk"));
            *lane = lane.wrapping_mul(P);
        }
    }
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(P);
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(P);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(P);
    }
    h
}

/// A validated frame: the sequence number, the causal span, and the body
/// with the trailer stripped.
#[derive(Debug)]
pub struct Frame {
    /// Per-link monotone sequence number (duplicate detection).
    pub seq: u64,
    /// Causal span the frame was sealed under (0 = none); a resend serves
    /// the cached sealed bytes, so the original span survives the NACK
    /// round-trip.
    pub span: u64,
    /// The original packed payload.
    pub body: Bytes,
}

/// Validate a sealed frame: strip the trailer, recompute the checksum, and
/// hand back the body. Any mismatch — truncation, a flipped payload bit, a
/// damaged trailer — returns [`PackError::CorruptFrame`] without panicking.
pub fn open_frame(payload: Bytes) -> Result<Frame, PackError> {
    if payload.len() < FRAME_TRAILER {
        return Err(PackError::CorruptFrame);
    }
    let blen = payload.len() - FRAME_TRAILER;
    let seq = u64::from_le_bytes(payload[blen..blen + 8].try_into().expect("8-byte slice"));
    let span = u64::from_le_bytes(payload[blen + 8..blen + 16].try_into().expect("8-byte slice"));
    let sum = u64::from_le_bytes(payload[blen + 16..].try_into().expect("8-byte slice"));
    if frame_checksum(seq, span, &payload[..blen]) != sum {
        return Err(PackError::CorruptFrame);
    }
    // narrowing the view hides the trailer without copying, even while the
    // sender's retransmit cache still holds a clone of the frame
    let mut body = payload;
    body.truncate(blen);
    Ok(Frame { seq, span, body })
}

/// Read the span field straight out of a sealed frame's trailer without
/// validating the checksum (trace labelling of cached frames on the resend
/// path, where the frame was already validated when it was sealed).
pub fn peek_span(payload: &[u8]) -> Option<u64> {
    if payload.len() < FRAME_TRAILER {
        return None;
    }
    let blen = payload.len() - FRAME_TRAILER;
    Some(u64::from_le_bytes(payload[blen + 8..blen + 16].try_into().expect("8-byte slice")))
}

/// A pool of reusable message buffers.
///
/// [`acquire_f64`](BufPool::acquire_f64) hands out a cleared [`PackBuf`],
/// reusing pooled storage when any is available;
/// [`recycle`](BufPool::recycle) returns a consumed payload's storage to the
/// pool when the caller holds the last reference. A pool
/// [warmed](BufPool::warm) to its caller's working set never allocates at
/// all; a cold pool allocates only during its first cycle.
///
/// Every acquire also bumps the process-wide `ns_pool_acquired_total` /
/// `ns_pool_reused_total` registry counters, so the pool hit rate is
/// visible in the live metrics window alongside the comm counters.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<BytesMut>,
    acquired: u64,
    reused: u64,
    m_acquired: std::sync::Arc<ns_metrics::Counter>,
    m_reused: std::sync::Arc<ns_metrics::Counter>,
}

impl Default for BufPool {
    fn default() -> Self {
        let r = ns_metrics::Registry::global();
        Self {
            free: Vec::new(),
            acquired: 0,
            reused: 0,
            m_acquired: r.counter("ns_pool_acquired_total"),
            m_reused: r.counter("ns_pool_reused_total"),
        }
    }
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-fill the pool with `slots` buffers of `f64_capacity` doubles
    /// each. A caller that knows its per-cycle working set up front (e.g.
    /// a rank's halo sends per step) warms the pool once at setup, after
    /// which every acquire — including the very first — is a pool hit.
    pub fn warm(&mut self, slots: usize, f64_capacity: usize) {
        self.free.reserve(slots);
        for _ in 0..slots {
            self.free.push(BytesMut::with_capacity(f64_capacity * 8));
        }
    }

    /// Take a cleared buffer with room for `n` doubles, reusing pooled
    /// storage when available (the `reserve` is a no-op once the recycled
    /// buffer's capacity has grown to the message size).
    pub fn acquire_f64(&mut self, n: usize) -> PackBuf {
        self.acquired += 1;
        self.m_acquired.inc();
        match self.free.pop() {
            Some(mut buf) => {
                self.reused += 1;
                self.m_reused.inc();
                buf.clear();
                buf.reserve(n * 8);
                PackBuf { buf }
            }
            None => PackBuf::with_capacity_f64(n),
        }
    }

    /// Return a payload's storage to the pool. A payload still shared with
    /// other handles is simply dropped (nothing to reuse).
    pub fn recycle(&mut self, payload: Bytes) {
        if let Ok(buf) = payload.try_into_mut() {
            self.free.push(buf);
        }
    }

    /// `(acquired, reused)` counters — `reused == acquired` over a window
    /// means the window ran allocation-free.
    pub fn stats(&self) -> (u64, u64) {
        (self.acquired, self.reused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_slices() {
        let mut p = PackBuf::new();
        p.pack_f64(1.5);
        p.pack_f64_slice(&[2.0, -3.25, f64::MIN_POSITIVE]);
        assert_eq!(p.len(), 4 * 8);
        let mut u = UnpackBuf::new(p.freeze());
        assert_eq!(u.unpack_f64().unwrap(), 1.5);
        let mut out = [0.0; 3];
        u.unpack_f64_slice(&mut out).unwrap();
        assert_eq!(out, [2.0, -3.25, f64::MIN_POSITIVE]);
        u.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut p = PackBuf::new();
        p.pack_f64_slice(&[1.0, 2.0]);
        let mut u = UnpackBuf::new(p.freeze());
        let mut out = [0.0; 3];
        let err = u.unpack_f64_slice(&mut out).unwrap_err();
        assert_eq!(err, PackError::Truncated { wanted: 3, available: 2 });
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut p = PackBuf::new();
        p.pack_f64(7.0);
        p.pack_f64(8.0);
        let mut u = UnpackBuf::new(p.freeze());
        u.unpack_f64().unwrap();
        let err = u.finish().unwrap_err();
        assert_eq!(err, PackError::TrailingBytes(8));
    }

    #[test]
    fn nan_and_inf_survive() {
        let mut p = PackBuf::new();
        p.pack_f64_slice(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let mut u = UnpackBuf::new(p.freeze());
        assert!(u.unpack_f64().unwrap().is_nan());
        assert_eq!(u.unpack_f64().unwrap(), f64::INFINITY);
        assert_eq!(u.unpack_f64().unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn capacity_constructor_packs_without_growth() {
        let mut p = PackBuf::with_capacity_f64(100);
        p.pack_f64_slice(&vec![1.0; 100]);
        assert_eq!(p.len(), 800);
    }

    #[test]
    fn sealed_frame_roundtrips() {
        let mut p = PackBuf::new();
        p.pack_f64_slice(&[1.0, -2.5, f64::NAN]);
        let body_len = p.len();
        p.seal_frame(42, 9001);
        assert_eq!(p.len(), body_len + FRAME_TRAILER);
        let frame = open_frame(p.freeze()).unwrap();
        assert_eq!(frame.seq, 42);
        assert_eq!(frame.span, 9001);
        let mut u = UnpackBuf::new(frame.body);
        assert_eq!(u.unpack_f64().unwrap(), 1.0);
        assert_eq!(u.unpack_f64().unwrap(), -2.5);
        assert!(u.unpack_f64().unwrap().is_nan());
        u.finish().unwrap();
    }

    #[test]
    fn empty_body_frames_are_valid() {
        let mut p = PackBuf::new();
        p.seal_frame(7, 0);
        let frame = open_frame(p.freeze()).unwrap();
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.span, 0);
        assert!(frame.body.is_empty());
    }

    #[test]
    fn peek_span_reads_the_trailer_without_validation() {
        let mut p = PackBuf::new();
        p.pack_f64(4.0);
        p.seal_frame(3, 777);
        let payload = p.freeze();
        assert_eq!(peek_span(&payload), Some(777));
        assert_eq!(peek_span(b"tiny"), None);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut p = PackBuf::new();
        // 48-byte body: one 32-byte lane block plus two 8-byte tail
        // chunks, so both checksum paths a packed message can hit are
        // exercised
        p.pack_f64_slice(&[3.25, 9.5, -1.0, 0.0, 2.5e-3, 7.75]);
        p.seal_frame(11, 13);
        let pristine = p.freeze();
        // flip every bit position in turn: body, seq, span and checksum
        // bytes all must trip validation
        for byte in 0..pristine.len() {
            for bit in 0..8u8 {
                let mut corrupted = pristine.to_vec();
                corrupted[byte] ^= 1 << bit;
                let got = open_frame(Bytes::from(corrupted));
                assert!(matches!(got, Err(PackError::CorruptFrame)), "flip at byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn checksum_detects_flips_at_ragged_lengths() {
        // bodies that are not a multiple of 8 exercise the byte-tail path
        for n in [0usize, 1, 7, 31, 33, 45] {
            let body: Vec<u8> = (0..n as u8).collect();
            let pristine = frame_checksum(5, 0, &body);
            for byte in 0..n {
                for bit in 0..8u8 {
                    let mut c = body.clone();
                    c[byte] ^= 1 << bit;
                    assert_ne!(frame_checksum(5, 0, &c), pristine, "flip at byte {byte} bit {bit} of {n}");
                }
            }
            assert_ne!(frame_checksum(6, 0, &body), pristine, "seq must perturb the digest (len {n})");
            assert_ne!(frame_checksum(5, 1, &body), pristine, "span must perturb the digest (len {n})");
        }
    }

    #[test]
    fn short_frames_are_corrupt_not_panics() {
        assert!(matches!(open_frame(Bytes::copy_from_slice(b"tiny")), Err(PackError::CorruptFrame)));
        assert!(matches!(open_frame(Bytes::new()), Err(PackError::CorruptFrame)));
    }

    #[test]
    fn u64_roundtrip() {
        let mut p = PackBuf::new();
        p.pack_u64(u64::MAX);
        p.pack_u64(3);
        let mut u = UnpackBuf::new(p.freeze());
        assert_eq!(u.unpack_u64().unwrap(), u64::MAX);
        assert_eq!(u.unpack_u64().unwrap(), 3);
        u.finish().unwrap();
    }

    #[test]
    fn pool_recycles_consumed_payloads() {
        let mut pool = BufPool::new();
        for round in 0..3 {
            let mut p = pool.acquire_f64(50);
            p.pack_f64_slice(&[0.25; 50]);
            let mut u = UnpackBuf::new(p.freeze());
            let mut out = [0.0; 50];
            u.unpack_f64_slice(&mut out).unwrap();
            pool.recycle(u.finish().unwrap());
            let (acquired, reused) = pool.stats();
            assert_eq!(acquired, round + 1);
            // every round after the first runs on recycled storage
            assert_eq!(reused, round);
        }
    }

    #[test]
    fn warmed_pool_hits_from_the_first_acquire() {
        let before = ns_metrics::Registry::global().snapshot();
        let mut pool = BufPool::new();
        pool.warm(2, 50);
        for round in 1..=4u64 {
            let mut p = pool.acquire_f64(50);
            p.pack_f64_slice(&[1.5; 50]);
            let mut u = UnpackBuf::new(p.freeze());
            let mut out = [0.0; 50];
            u.unpack_f64_slice(&mut out).unwrap();
            pool.recycle(u.finish().unwrap());
            assert_eq!(pool.stats(), (round, round), "warmed pool must never allocate");
        }
        // the hit-rate counters land in the global registry (other tests
        // may bump them concurrently, so only lower-bound the delta)
        let delta = ns_metrics::Registry::global().snapshot().diff(&before);
        assert!(delta.counter("ns_pool_acquired_total") >= 4);
        assert!(delta.counter("ns_pool_reused_total") >= 4);
    }

    #[test]
    fn pool_drops_shared_payloads() {
        let mut pool = BufPool::new();
        let mut p = pool.acquire_f64(4);
        p.pack_f64(1.0);
        let payload = p.freeze();
        let _clone = payload.clone();
        pool.recycle(payload); // shared -> dropped, not pooled
        let _p2 = pool.acquire_f64(4);
        assert_eq!(pool.stats(), (2, 0));
    }
}
