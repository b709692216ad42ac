//! The paper's halo protocol as an [`XHalo`] implementation.
//!
//! Per axial-operator application each rank exchanges with its left/right
//! neighbours (paper Section 5):
//!
//! 1. the grouped primitive columns — "first, all the velocity and
//!    temperature values along a boundary are calculated and then packaged
//!    into a single send";
//! 2. the two-column flux packet — "the two 'flux columns' nearest each
//!    boundary are combined into a single send";
//! 3. (N-S only) a second grouped primitive exchange before the corrector;
//! 4. the predictor-flux packet.
//!
//! Version 7 ("avoid bursty communication") splits each two-column flux
//! packet into two single-column sends, doubling the start-ups — supported
//! here with [`CommVersion::V7`] so its cost shows up in the live runtime,
//! not just the simulator.
//!
//! One line swap per axis carries every halo: the primitive columns and
//! rows (one line deep, three planes), the flux packets (two lines, four
//! planes) and, on damped runs, the smoothing halo of the state planes
//! ([`XHalo::exchange_state`]), which is the grouped packet under every
//! protocol.

use crate::comm::{CommError, Endpoint, MsgKind, Tag};
use crate::pack::{BufPool, PackBuf, UnpackBuf};
use crate::topology::CartNeighbors;
use ns_core::field::{gi, FluxField, PrimField, NG};
use ns_core::scheme::XHalo;
use ns_numerics::Array2;

/// Communication protocol variant (paper Versions 5-7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommVersion {
    /// Grouped sends, exchange-then-compute (the production protocol).
    V5,
    /// Overlap: post the boundary primitive columns, let the solver compute
    /// the interior flux while they are in flight, complete the receives,
    /// then finish the edge columns (paper Section 6).
    V6,
    /// Split flux packets into single-column sends (less bursty, more
    /// start-ups).
    V7,
}

impl CommVersion {
    /// Every protocol, in rung order.
    pub const ALL: [CommVersion; 3] = [CommVersion::V5, CommVersion::V6, CommVersion::V7];

    /// Stable name: `"V5"`, `"V6"` or `"V7"`.
    pub fn name(self) -> &'static str {
        match self {
            CommVersion::V5 => "V5",
            CommVersion::V6 => "V6",
            CommVersion::V7 => "V7",
        }
    }

    /// Parse a [`CommVersion::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| format!("unknown comm version {s:?} (expected V5|V6|V7)"))
    }
}

/// Thread-backed halo exchanger for one rank.
pub struct ThreadHalo<'a> {
    ep: &'a mut Endpoint,
    left: Option<usize>,
    right: Option<usize>,
    /// Radial predecessor (towards the axis); `None` for axial-only layouts.
    down: Option<usize>,
    /// Radial successor (towards the far field).
    up: Option<usize>,
    nxl: usize,
    nr: usize,
    version: CommVersion,
    step: u64,
    /// Recovery generation (0 outside chaos runs); minted into the causal
    /// span so a re-executed step gets a fresh span, distinct from the one
    /// the crashed generation used.
    generation: u64,
    prim_calls: u8,
    flux_calls: u8,
    prim_r_calls: u8,
    flux_r_calls: u8,
    /// Kind of a posted-but-unreceived split-phase prim exchange (V6).
    pending_prims: Option<Tag>,
    /// Strict mode (the default) panics on comm errors, as a PVM task dies
    /// with its virtual machine. Lenient mode records the first failure and
    /// turns every further exchange into a no-op, so the step loop can
    /// unwind cleanly and the recovery driver can roll back.
    strict: bool,
    /// First communication failure seen in lenient mode.
    failure: Option<CommError>,
    /// Reusable send-buffer pool; received payloads are recycled into it,
    /// so steady-state exchanges allocate nothing.
    pool: BufPool,
    /// Persistent row scratch for radial unpacking (one padded axial line).
    row_scratch: Vec<f64>,
}

impl<'a> ThreadHalo<'a> {
    /// Create the halo for a pencil with the given face neighbours.
    pub fn new_cart(ep: &'a mut Endpoint, nb: CartNeighbors, nxl: usize, nr: usize, version: CommVersion) -> Self {
        let mut pool = BufPool::new();
        // Per step each axial link carries at most six sends: two grouped
        // primitive columns (3*nr doubles) plus up to four flux columns
        // (two two-column packets, or four single-column packets under the
        // split V7 protocol). The largest is the 8*nr two-column flux
        // packet. Each radial link carries at most six sends too (up to
        // four primitive rows plus two two-row flux packets), the largest
        // being the 8*(nxl + 2 NG) flux packet. Warming the pool to that
        // working set makes every pack a pool hit from the first step — the
        // cold pool used to allocate once per send until recycled receives
        // refilled it.
        let ax = usize::from(nb.left.is_some()) + usize::from(nb.right.is_some());
        let rad = usize::from(nb.down.is_some()) + usize::from(nb.up.is_some());
        let width = nxl + 2 * NG;
        let cap = if rad > 0 { (8 * nr).max(8 * width) } else { 8 * nr };
        pool.warm(6 * (ax + rad), cap);
        Self {
            ep,
            left: nb.left,
            right: nb.right,
            down: nb.down,
            up: nb.up,
            nxl,
            nr,
            version,
            step: 0,
            generation: 0,
            prim_calls: 0,
            flux_calls: 0,
            prim_r_calls: 0,
            flux_r_calls: 0,
            pending_prims: None,
            strict: true,
            failure: None,
            pool,
            row_scratch: vec![0.0; width],
        }
    }

    /// Switch to lenient error handling: comm failures are recorded in
    /// [`ThreadHalo::failure`] instead of panicking, and all subsequent
    /// exchanges become no-ops. Used by the chaos/recovery driver.
    pub fn set_lenient(&mut self) {
        self.strict = false;
    }

    /// The first communication failure, if this (lenient) halo has failed.
    pub fn failure(&self) -> Option<&CommError> {
        self.failure.as_ref()
    }

    /// Record a failure (lenient) or die (strict).
    fn fail(&mut self, ctx: &str, e: CommError) {
        if self.strict {
            panic!("{ctx}: {e}");
        }
        if self.failure.is_none() {
            self.failure = Some(e);
        }
    }

    /// Set the recovery generation minted into the causal span (see
    /// [`ThreadHalo::begin_step`]).
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Mark the start of a time step (resets the per-step phase counters
    /// that map exchange calls onto protocol tags) and mint the step's
    /// causal span: every frame the endpoint seals until the next
    /// `begin_step` carries it, which is what stitches this rank's sends
    /// into its neighbours' traces.
    pub fn begin_step(&mut self, step: u64) {
        assert!(self.pending_prims.is_none() || self.failure.is_some(), "split-phase exchange left dangling");
        self.pending_prims = None;
        self.step = step;
        self.prim_calls = 0;
        self.flux_calls = 0;
        self.prim_r_calls = 0;
        self.flux_r_calls = 0;
        let span = ns_metrics::span_id(self.generation, step);
        self.ep.set_span(span);
        self.ep.recorder.mark("step", None, Some(span));
    }

    /// Borrow the endpoint (stats inspection).
    pub fn endpoint(&self) -> &Endpoint {
        self.ep
    }

    /// Mutably borrow the endpoint.
    pub fn endpoint_mut(&mut self) -> &mut Endpoint {
        self.ep
    }

    /// Max-reduce `x` over every rank under `epoch`, through this halo's
    /// failure policy: strict mode dies on a comm error, lenient mode
    /// records it (see [`ThreadHalo::failure`]) and hands back the local
    /// `x`, as a failed halo does for every further exchange. The adaptive
    /// time step and the driver's between-step collectives (health abort,
    /// checkpoint barrier) all reduce here.
    pub fn allreduce_max(&mut self, x: f64, epoch: u64, ctx: &'static str) -> f64 {
        if self.failure.is_some() {
            return x;
        }
        match crate::collectives::allreduce_max(self.ep, x, epoch) {
            Ok(v) => v,
            Err(e) => {
                self.fail(ctx, e);
                x
            }
        }
    }

    /// `(acquired, reused)` counters of the send-buffer pool — equal except
    /// for the warm-up step once the exchange loop reaches steady state.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }

    /// Send unless already failed; strict mode panics on error.
    fn try_send(&mut self, to: usize, tag: Tag, b: PackBuf, what: &str) {
        if self.failure.is_some() {
            return;
        }
        if let Err(e) = self.ep.send(to, tag, b) {
            self.fail(&format!("{what} halo send to rank {to}"), e);
        }
    }

    /// Receive unless already failed; strict mode panics on error.
    fn try_recv(&mut self, from: usize, tag: Tag, what: &str) -> Option<bytes::Bytes> {
        if self.failure.is_some() {
            return None;
        }
        match self.ep.recv(from, tag) {
            Ok(p) => Some(p),
            Err(e) => {
                self.fail(&format!("{what} halo recv from rank {from}"), e);
                None
            }
        }
    }

    /// Pack interior columns `first + k` (`k` in `cols`) of `planes`,
    /// plane-major. An axial halo column is contiguous in memory (`Array2`
    /// is row-major in `j`), so each is one slice.
    fn pack_cols(&mut self, planes: &[&mut Array2], first: usize, cols: &[usize]) -> PackBuf {
        let mut b = self.pool.acquire_f64(planes.len() * cols.len() * self.nr);
        for plane in planes {
            for &k in cols {
                b.pack_f64_slice(&plane.row(first + k + NG)[NG..NG + self.nr]);
            }
        }
        b
    }

    /// Unpack received ghost columns `first + k` (signed local indices) of
    /// `planes`. A payload that does not match this rank's geometry (a peer
    /// in an inconsistent state) is a recorded [`CommError::Malformed`]
    /// failure in lenient mode — not a panic — so the no-op contract holds
    /// even against a misbehaving peer.
    fn unpack_cols(&mut self, planes: &mut [&mut Array2], first: isize, cols: &[usize], p: bytes::Bytes, what: &str) {
        let mut u = UnpackBuf::new(p);
        for plane in planes {
            for &k in cols {
                if u.unpack_f64_slice(&mut plane.row_mut(gi(first + k as isize))[NG..NG + self.nr]).is_err() {
                    return self.fail(&format!("{what} halo payload"), CommError::Malformed);
                }
            }
        }
        match u.finish() {
            Ok(b) => self.pool.recycle(b),
            Err(_) => self.fail(&format!("{what} halo payload framing"), CommError::Malformed),
        }
    }

    /// Pack rows `first + k` of `planes` across the *full padded width* —
    /// the axial ghost columns at a row's ends are the corner strips,
    /// delivered to the radial neighbour in the same message.
    fn pack_rows(&mut self, planes: &[&mut Array2], first: usize, rows: &[usize]) -> PackBuf {
        let width = self.nxl + 2 * NG;
        let mut b = self.pool.acquire_f64(planes.len() * rows.len() * width);
        for plane in planes {
            for &k in rows {
                for ii in 0..width {
                    b.pack_f64(plane.at(ii, first + k + NG));
                }
            }
        }
        b
    }

    /// Unpack received ghost rows `first + k` (signed local indices) of
    /// `planes`; see [`ThreadHalo::unpack_cols`] for malformed payloads.
    fn unpack_rows(&mut self, planes: &mut [&mut Array2], first: isize, rows: &[usize], p: bytes::Bytes, what: &str) {
        let mut u = UnpackBuf::new(p);
        for plane in planes {
            for &k in rows {
                if u.unpack_f64_slice(&mut self.row_scratch).is_err() {
                    return self.fail(&format!("{what} row halo payload"), CommError::Malformed);
                }
                for (ii, &v) in self.row_scratch.iter().enumerate() {
                    plane.set(ii, gi(first + k as isize), v);
                }
            }
        }
        match u.finish() {
            Ok(b) => self.pool.recycle(b),
            Err(_) => self.fail(&format!("{what} row halo payload framing"), CommError::Malformed),
        }
    }

    /// Send the `depth` edge columns of `planes` to both axial neighbours,
    /// one message per piece `(tag, left, right)`: `left` indexes the first
    /// `depth` columns (sent left), `right` the last `depth` (sent right).
    /// `(tag, &[0, 1], &[0, 1])` is the grouped two-column packet.
    fn send_cols(&mut self, planes: &[&mut Array2], depth: usize, pieces: &[Piece<'_>], what: &str) {
        if let Some(l) = self.left {
            for &(tag, cols, _) in pieces {
                let b = self.pack_cols(planes, 0, cols);
                self.try_send(l, tag, b, what);
            }
        }
        if let Some(r) = self.right {
            for &(tag, _, cols) in pieces {
                let b = self.pack_cols(planes, self.nxl - depth, cols);
                self.try_send(r, tag, b, what);
            }
        }
    }

    /// Receive what the neighbours' [`ThreadHalo::send_cols`] of the same
    /// pieces sent into the `depth` ghost columns on each side: a piece's
    /// `right` indexes the ghosts before the left edge, its `left` those
    /// past the right edge. Each link sees the pieces in send order.
    fn recv_cols(&mut self, planes: &mut [&mut Array2], depth: usize, pieces: &[Piece<'_>], what: &str) {
        if let Some(l) = self.left {
            for &(tag, _, ghosts) in pieces {
                if let Some(p) = self.try_recv(l, tag, what) {
                    self.unpack_cols(planes, -(depth as isize), ghosts, p, what);
                }
            }
        }
        if let Some(r) = self.right {
            for &(tag, ghosts, _) in pieces {
                if let Some(p) = self.try_recv(r, tag, what) {
                    self.unpack_cols(planes, self.nxl as isize, ghosts, p, what);
                }
            }
        }
    }

    /// Swap the `depth` edge rows of `planes` with both radial neighbours,
    /// one grouped message a side.
    fn swap_rows(&mut self, planes: &mut [&mut Array2], depth: usize, tag: Tag, what: &str) {
        let (n, rows) = (self.nr, &LINES[..depth]);
        if let Some(d) = self.down {
            let b = self.pack_rows(planes, 0, rows);
            self.try_send(d, tag, b, what);
        }
        if let Some(u) = self.up {
            let b = self.pack_rows(planes, n - depth, rows);
            self.try_send(u, tag, b, what);
        }
        if let Some(d) = self.down {
            if let Some(p) = self.try_recv(d, tag, what) {
                self.unpack_rows(planes, -(depth as isize), rows, p, what);
            }
        }
        if let Some(u) = self.up {
            if let Some(p) = self.try_recv(u, tag, what) {
                self.unpack_rows(planes, n as isize, rows, p, what);
            }
        }
    }
}

/// One message of an axial swap: its tag and the edge-line indices it
/// carries leftwards and rightwards (see [`ThreadHalo::send_cols`]).
type Piece<'a> = (Tag, &'a [usize], &'a [usize]);

/// Line indices `0..depth` of a swap `depth` lines deep.
const LINES: [usize; 2] = [0, 1];

/// The one primitive column each side, grouped (`u, v, T`).
fn prim_piece(tag: Tag) -> [Piece<'static>; 1] {
    [(tag, &[0], &[0])]
}

impl XHalo for ThreadHalo<'_> {
    fn reduce_max(&mut self, x: f64) -> f64 {
        // one reduction per step; the step number is the collective epoch
        self.allreduce_max(x, self.step, "adaptive-dt reduction")
    }

    fn post_prims(&mut self, prim: &mut PrimField) {
        let kind = if self.prim_calls == 0 { MsgKind::Prims1 } else { MsgKind::Prims2 };
        self.prim_calls += 1;
        let tag = Tag { kind, seq: self.step };
        if self.failure.is_some() {
            return;
        }
        // post sends first (buffered, deadlock free)
        let planes = &mut [&mut prim.u, &mut prim.v, &mut prim.t];
        self.send_cols(planes, 1, &prim_piece(tag), "prim");
        if self.version == CommVersion::V6 {
            // Version 6: let the caller compute the interior while the
            // boundary columns are in flight
            self.pending_prims = Some(tag);
        } else {
            self.recv_cols(planes, 1, &prim_piece(tag), "prim");
        }
    }

    fn finish_prims(&mut self, prim: &mut PrimField) {
        let Some(tag) = self.pending_prims.take() else {
            return;
        };
        // post-failure exchanges are true no-ops: drop the pending phase
        // without touching the endpoint
        if self.failure.is_some() {
            return;
        }
        self.recv_cols(&mut [&mut prim.u, &mut prim.v, &mut prim.t], 1, &prim_piece(tag), "prim");
    }

    fn exchange_flux(&mut self, flux: &mut FluxField) {
        let kind = if self.flux_calls == 0 { MsgKind::Flux1 } else { MsgKind::Flux2 };
        self.flux_calls += 1;
        let tag = Tag { kind, seq: self.step };
        let split_tag = Tag { kind: MsgKind::FluxSplit, seq: self.step * 2 + u64::from(self.flux_calls) };
        if self.failure.is_some() {
            return;
        }
        let pieces: &[Piece<'_>] = match self.version {
            // flux packets are never overlapped (the predictor needs them
            // whole), so V6 sends them exactly like V5
            CommVersion::V5 | CommVersion::V6 => &[(tag, &LINES, &LINES)],
            // one column per message: twice the start-ups, half the burst
            CommVersion::V7 => &[(tag, &[1], &[0]), (split_tag, &[0], &[1])],
        };
        let planes = &mut flux.c.each_mut();
        self.send_cols(planes, 2, pieces, "flux");
        self.recv_cols(planes, 2, pieces, "flux");
    }

    fn exchange_prims_r(&mut self, prim: &mut PrimField) {
        if self.down.is_none() && self.up.is_none() {
            return;
        }
        // up to four per step (both stages of both operators, viscous runs);
        // the call index disambiguates them within the step
        let call = self.prim_r_calls;
        self.prim_r_calls += 1;
        let tag = Tag { kind: MsgKind::PrimsR, seq: self.step * 4 + u64::from(call) };
        if self.failure.is_some() {
            return;
        }
        self.swap_rows(&mut [&mut prim.u, &mut prim.v, &mut prim.t], 1, tag, "prim");
    }

    fn exchange_flux_r(&mut self, flux: &mut FluxField) {
        if self.down.is_none() && self.up.is_none() {
            return;
        }
        let call = self.flux_r_calls;
        self.flux_r_calls += 1;
        let tag = Tag { kind: MsgKind::FluxR, seq: self.step * 2 + u64::from(call) };
        if self.failure.is_some() {
            return;
        }
        self.swap_rows(&mut flux.c.each_mut(), 2, tag, "flux");
    }

    fn exchange_state(&mut self, q: &mut [Array2; 4]) {
        let tag = Tag { kind: MsgKind::State, seq: self.step };
        if self.failure.is_some() {
            return;
        }
        // grouped under every protocol: one packet per neighbour and axis
        let planes = &mut q.each_mut();
        let pieces = [(tag, &LINES[..], &LINES[..])];
        self.send_cols(planes, 2, &pieces, "state");
        self.recv_cols(planes, 2, &pieces, "state");
        self.swap_rows(planes, 2, tag, "state");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::universe;
    use ns_core::field::Patch;
    use ns_numerics::Grid;
    use std::thread;

    /// Face neighbours of a rank of the paper's 1-D axial decomposition.
    fn axial(left: Option<usize>, right: Option<usize>) -> CartNeighbors {
        CartNeighbors { left, right, down: None, up: None }
    }

    /// The solver's primitive exchange: post, then finish.
    fn exchange_prims(halo: &mut ThreadHalo<'_>, prim: &mut PrimField) {
        halo.post_prims(prim);
        halo.finish_prims(prim);
    }

    /// Two ranks exchange hand-built planes; each side must see exactly the
    /// other's edge columns in its ghosts.
    #[test]
    fn prim_exchange_moves_edge_columns() {
        let grid = Grid::small();
        let p0 = Patch::block(grid.clone(), 0, 2);
        let p1 = Patch::block(grid.clone(), 1, 2);
        let last_of_rank0 = (p0.nxl - 1) as f64;
        let eps = universe(2);
        let nr = grid.nr;
        let results: Vec<(f64, f64)> = thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .zip([p0, p1])
                .map(|(mut ep, patch)| {
                    s.spawn(move || {
                        let rank = ep.rank();
                        let (left, right) = if rank == 0 { (None, Some(1)) } else { (Some(0), None) };
                        let mut prim = PrimField::zeros(&patch);
                        // mark every interior point with rank*1000 + i_local
                        for i in 0..patch.nxl {
                            for j in 0..nr {
                                prim.u.set(i + NG, j + NG, (rank * 1000 + i) as f64);
                            }
                        }
                        let mut halo =
                            ThreadHalo::new_cart(&mut ep, axial(left, right), patch.nxl, nr, CommVersion::V5);
                        halo.begin_step(0);
                        exchange_prims(&mut halo, &mut prim);
                        if rank == 0 {
                            // ghost col nxl must hold rank 1's column 0
                            (prim.u.at(NG + patch.nxl, NG), f64::NAN)
                        } else {
                            // ghost col -1 must hold rank 0's last column
                            (f64::NAN, prim.u.at(NG - 1, NG))
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results[0].0, 1000.0, "rank 0 sees rank 1 col 0");
        assert_eq!(results[1].1, last_of_rank0, "rank 1 sees rank 0 last col");
    }

    /// V5 and V7 must deliver identical ghost flux columns; V7 just uses
    /// twice as many messages.
    #[test]
    fn v7_split_matches_v5_values_with_more_startups() {
        let grid = Grid::small();
        let run = |version: CommVersion| {
            let p0 = Patch::block(grid.clone(), 0, 2);
            let p1 = Patch::block(grid.clone(), 1, 2);
            let eps = universe(2);
            let nr = grid.nr;
            thread::scope(|s| {
                let handles: Vec<_> = eps
                    .into_iter()
                    .zip([p0, p1])
                    .map(|(mut ep, patch)| {
                        s.spawn(move || {
                            let rank = ep.rank();
                            let (left, right) = if rank == 0 { (None, Some(1)) } else { (Some(0), None) };
                            let mut flux = FluxField::zeros(&patch);
                            for c in 0..4 {
                                for i in 0..patch.nxl {
                                    for j in 0..nr {
                                        flux.set(
                                            c,
                                            i as isize,
                                            j as isize,
                                            (c * 100 + rank * 10 + i) as f64 + j as f64 * 0.001,
                                        );
                                    }
                                }
                            }
                            let mut halo = ThreadHalo::new_cart(&mut ep, axial(left, right), patch.nxl, nr, version);
                            halo.begin_step(3);
                            halo.exchange_flux(&mut flux);
                            let ghosts = if rank == 0 {
                                let n = patch.nxl as isize;
                                (0..4).map(|c| (flux.at(c, n, 5), flux.at(c, n + 1, 5))).collect::<Vec<_>>()
                            } else {
                                (0..4).map(|c| (flux.at(c, -2, 5), flux.at(c, -1, 5))).collect::<Vec<_>>()
                            };
                            (ghosts, halo.endpoint().stats)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
            })
        };
        let v5 = run(CommVersion::V5);
        let v7 = run(CommVersion::V7);
        assert_eq!(v5[0].0, v7[0].0, "rank 0 ghost values agree");
        assert_eq!(v5[1].0, v7[1].0, "rank 1 ghost values agree");
        assert_eq!(v7[0].1.sends, 2 * v5[0].1.sends, "V7 doubles flux start-ups");
        assert_eq!(v5[0].1.bytes_sent, v7[0].1.bytes_sent, "same total volume");
    }

    /// Once a lenient halo has failed, every later exchange must be a true
    /// no-op: no sends, no receives, no blocking — and the recorded error
    /// stays the *first* one even if a later attempt would have failed
    /// differently.
    #[test]
    fn lenient_failure_makes_later_exchanges_true_noops() {
        let grid = Grid::small();
        let patch = Patch::block(grid.clone(), 0, 2);
        let mut eps = universe(2);
        let mut ep = eps.remove(0); // rank 1's endpoint dropped: silent peer
        ep.timeout = std::time::Duration::from_millis(20);
        let mut prim = PrimField::zeros(&patch);
        let mut flux = FluxField::zeros(&patch);
        let mut halo = ThreadHalo::new_cart(&mut ep, axial(None, Some(1)), patch.nxl, grid.nr, CommVersion::V5);
        halo.set_lenient();
        halo.begin_step(0);
        exchange_prims(&mut halo, &mut prim);
        assert_eq!(halo.failure(), Some(&CommError::Timeout), "silent peer must surface as Timeout");
        let stats = halo.endpoint().stats;

        // point the halo at a nonexistent rank: if any later exchange still
        // attempted a send it would now fail with NoSuchRank, overwriting
        // the first error and bumping no counters is impossible
        halo.right = Some(7);
        let t0 = std::time::Instant::now();
        halo.begin_step(1);
        exchange_prims(&mut halo, &mut prim);
        halo.exchange_flux(&mut flux);
        exchange_prims(&mut halo, &mut prim);
        halo.exchange_flux(&mut flux);
        assert_eq!(halo.reduce_max(3.5), 3.5, "post-failure reduction is identity");
        assert_eq!(halo.endpoint().stats, stats, "no sends or recvs after the first failure");
        assert!(t0.elapsed() < std::time::Duration::from_millis(10), "no blocking after the first failure");
        assert_eq!(halo.failure(), Some(&CommError::Timeout), "first error is kept");
    }

    /// A V6 split-phase exchange posted before the failure must be dropped,
    /// not completed, once the halo has failed.
    #[test]
    fn lenient_failure_drops_pending_split_phase() {
        let grid = Grid::small();
        let patch = Patch::block(grid.clone(), 0, 2);
        let mut eps = universe(2);
        let mut ep = eps.remove(0);
        ep.timeout = std::time::Duration::from_millis(20);
        let mut prim = PrimField::zeros(&patch);
        let mut halo = ThreadHalo::new_cart(&mut ep, axial(None, Some(1)), patch.nxl, grid.nr, CommVersion::V6);
        halo.set_lenient();
        halo.begin_step(0);
        halo.post_prims(&mut prim); // send posted, receive pending
        halo.finish_prims(&mut prim); // silent peer -> Timeout recorded
        assert_eq!(halo.failure(), Some(&CommError::Timeout));
        let stats = halo.endpoint().stats;
        halo.begin_step(1);
        halo.post_prims(&mut prim); // no-op: nothing sent, nothing pending
        let t0 = std::time::Instant::now();
        halo.finish_prims(&mut prim); // must not block on the dead receive
        assert!(t0.elapsed() < std::time::Duration::from_millis(10));
        assert_eq!(halo.endpoint().stats, stats);
    }

    /// Regression: a payload that does not match the receiver's geometry
    /// used to panic (`expect`) even in lenient mode; it must be a recorded
    /// `Malformed` failure, after which exchanges are no-ops as usual.
    #[test]
    fn malformed_payload_is_a_recorded_failure_in_lenient_mode() {
        let grid = Grid::small();
        let patch = Patch::block(grid.clone(), 0, 2);
        let mut eps = universe(2);
        let mut peer = eps.pop().unwrap();
        let mut ep = eps.pop().unwrap();
        // the peer sends a one-double "prim column" — far short of the
        // 3 * nr doubles this rank's geometry expects
        let mut b = PackBuf::new();
        b.pack_f64(1.0);
        peer.send(0, Tag { kind: MsgKind::Prims1, seq: 0 }, b).unwrap();
        let mut prim = PrimField::zeros(&patch);
        let mut halo = ThreadHalo::new_cart(&mut ep, axial(None, Some(1)), patch.nxl, grid.nr, CommVersion::V5);
        halo.set_lenient();
        halo.begin_step(0);
        exchange_prims(&mut halo, &mut prim);
        assert_eq!(halo.failure(), Some(&CommError::Malformed));
        let stats = halo.endpoint().stats;
        exchange_prims(&mut halo, &mut prim);
        assert_eq!(halo.endpoint().stats, stats, "exchanges after a malformed payload are no-ops");
    }

    /// Strict mode keeps the fail-fast contract on malformed payloads.
    #[test]
    #[should_panic(expected = "prim halo payload")]
    fn malformed_payload_panics_in_strict_mode() {
        let grid = Grid::small();
        let patch = Patch::block(grid.clone(), 0, 2);
        let mut eps = universe(2);
        let mut peer = eps.pop().unwrap();
        let mut ep = eps.pop().unwrap();
        let mut b = PackBuf::new();
        b.pack_f64(1.0);
        peer.send(0, Tag { kind: MsgKind::Prims1, seq: 0 }, b).unwrap();
        let mut prim = PrimField::zeros(&patch);
        let mut halo = ThreadHalo::new_cart(&mut ep, axial(None, Some(1)), patch.nxl, grid.nr, CommVersion::V5);
        halo.begin_step(0);
        exchange_prims(&mut halo, &mut prim);
    }

    /// The pool is pre-warmed to the halo working set, so *every* pooled
    /// pack — the first step included — must be a pool hit: the exchange
    /// loop never takes the allocation path.
    #[test]
    fn exchange_loop_never_allocates_pack_buffers() {
        let grid = Grid::small();
        let p0 = Patch::block(grid.clone(), 0, 2);
        let p1 = Patch::block(grid.clone(), 1, 2);
        let eps = universe(2);
        let nr = grid.nr;
        let stats: Vec<(u64, u64)> = thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .zip([p0, p1])
                .map(|(mut ep, patch)| {
                    s.spawn(move || {
                        let rank = ep.rank();
                        let (left, right) = if rank == 0 { (None, Some(1)) } else { (Some(0), None) };
                        let mut prim = PrimField::zeros(&patch);
                        let mut flux = FluxField::zeros(&patch);
                        let mut halo =
                            ThreadHalo::new_cart(&mut ep, axial(left, right), patch.nxl, nr, CommVersion::V5);
                        let steps = 8;
                        for step in 0..steps {
                            halo.begin_step(step);
                            exchange_prims(&mut halo, &mut prim);
                            halo.exchange_flux(&mut flux);
                            exchange_prims(&mut halo, &mut prim);
                            halo.exchange_flux(&mut flux);
                        }
                        halo.pool_stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for &(acquired, reused) in &stats {
            // 4 sends per step to the single neighbour, pre-warmed pool:
            // every single pack runs on pooled storage
            assert_eq!(acquired, 4 * 8);
            assert_eq!(reused, acquired, "pre-warmed pool must never allocate: acquired {acquired}, reused {reused}");
        }
    }
}
