//! One-sided (RMA) operations: matching-free window access with
//! passive-target completion.
//!
//! The two-sided paths (`eager`, `rendezvous`) require the target to post
//! a receive; this module implements the complementary one-sided model:
//! a node exposes a *window* of memory once, and remote origins then
//! `put`/`get`/`accumulate` against it without the target ever calling
//! into the library again. Every mutation happens inside the target's
//! `handle_wire` dispatch — i.e. on whichever core PIOMAN's progression
//! happens to run (an idle core, the timer, the blocking-call watcher, or
//! a dedicated progress thread) — which is exactly the paper's
//! "progress-for-all" property applied to one-sided traffic.
//!
//! Wire protocol, by op size:
//!
//! * small puts and accumulates travel as single eager-class frames
//!   ([`WireMsg::RmaPut`]/[`WireMsg::RmaAcc`]);
//! * large puts are chunked into [`WireMsg::RmaPutData`] DMA frames —
//!   rendezvous-style, but with *no RTS/CTS handshake*: the window was
//!   registered at creation, so chunks flow immediately;
//! * every op is answered by the target ([`WireMsg::RmaAck`], or
//!   [`WireMsg::RmaGetReply`] carrying the data), and that answer is what
//!   completes the origin's request.
//!
//! Reliability rides for free: RMA frames enter the same submission path
//! as everything else, so on lossy fabrics they are wrapped in
//! [`WireMsg::Rel`] envelopes, retransmitted on timeout, and — crucially —
//! duplicate-suppressed *before* they reach `handle_wire`. A window is
//! therefore mutated at most once per op (exactly-once accumulate), no
//! matter how many times the frame was retransmitted.

use crate::matching::NmState;
use crate::msg::WireMsg;
use crate::session::Session;
use crate::strategy::PackKind;
use pioman::PiomReq;
use pm2_marcel::ThreadCtx;
use pm2_sim::obs::EventKind;
use pm2_sim::SimDuration;
use pm2_topo::NodeId;

/// Registry-id namespace for window registrations, disjoint from the
/// rendezvous namespaces (`tag` and `tag | 1<<63`).
const RMA_WIN_REG_BASE: u64 = 1 << 62;

/// Chunk size of large puts and get replies (each chunk is one DMA
/// descriptor). Public so pm2-model's conformance layer can derive the
/// expected chunk counts from the same constant the wire code uses.
pub const RMA_CHUNK: usize = 64 << 10;

/// The kind of one-sided operation, for staging and events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaOpKind {
    /// Store bytes into the target window.
    Put,
    /// Read bytes from the target window.
    Get,
    /// Byte-wise wrapping-add into the target window.
    Acc,
}

/// An op staged by the application but not yet injected into the pack
/// lists (the per-thread injection endpoint does that).
pub(crate) enum StagedOp {
    Put {
        win: u64,
        offset: usize,
        data: Vec<u8>,
    },
    Get {
        win: u64,
        offset: usize,
        len: usize,
    },
    Acc {
        win: u64,
        offset: usize,
        data: Vec<u8>,
    },
}

/// Origin-side record of one one-sided op.
pub(crate) struct RmaOp {
    pub(crate) target: NodeId,
    pub(crate) req: PiomReq,
    /// Frames not yet queued (taken by [`Session::rma_inject`]).
    pub(crate) staged: Option<StagedOp>,
    /// A completed get's payload, until the application takes it.
    pub(crate) result: Option<Vec<u8>>,
}

/// Target-side assembly state of one chunked put.
pub(crate) struct RmaChunks {
    pub(crate) seen: Vec<bool>,
    pub(crate) received: u32,
}

/// Origin-side assembly state of one chunked get reply. The occupied
/// slots double as the duplicate-suppression bitmap, exactly like the put
/// path's [`RmaChunks::seen`].
pub(crate) struct RmaGetAssembly {
    pub(crate) parts: Vec<Option<Vec<u8>>>,
    pub(crate) received: u32,
}

impl Session {
    // ----- windows --------------------------------------------------------

    /// Exposes `len` bytes (zero-initialised) as window `win` on this
    /// node, registering the memory with the NIC once so one-sided ops
    /// need no per-op handshake. Returns the registration cost for the
    /// caller to charge.
    pub fn rma_window_create(&self, win: u64, len: usize) -> SimDuration {
        let reg = self.inner.registry.register(win | RMA_WIN_REG_BASE, len);
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(self.inner.node.0));
        verify.lock_acquire("newmad.state");
        {
            let mut st = self.inner.state.borrow_mut();
            let prev = st.rma().windows.insert(win, vec![0; len]);
            assert!(prev.is_none(), "window {win} already exists");
        }
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        reg
    }

    /// Reads `len` bytes at `offset` from local window `win` (test and
    /// target-side verification helper; free of simulated cost).
    pub fn rma_window_read(&self, win: u64, offset: usize, len: usize) -> Vec<u8> {
        let st = self.inner.state.borrow();
        let w = st
            .rma
            .as_deref()
            .and_then(|r| r.windows.get(&win))
            // lint-allow: local test/verification helper, caller owns the window
            .expect("window exists");
        w[offset..offset + len].to_vec()
    }

    // ----- origin: staging ------------------------------------------------

    /// Stages a one-sided put of `data` into `(target, win)` at `offset`;
    /// returns the op id. Self-target ops apply immediately; remote ops
    /// wait for [`Session::rma_inject`] (the injection endpoint calls it).
    pub fn rma_stage_put(&self, target: NodeId, win: u64, offset: usize, data: Vec<u8>) -> u64 {
        self.rma_stage(target, RmaOpKind::Put, win, offset, data.len(), Some(data))
    }

    /// Stages a one-sided read of `len` bytes from `(target, win)` at
    /// `offset`; the payload is retrieved with [`Session::rma_take_result`]
    /// after the op completes.
    pub fn rma_stage_get(&self, target: NodeId, win: u64, offset: usize, len: usize) -> u64 {
        self.rma_stage(target, RmaOpKind::Get, win, offset, len, None)
    }

    /// Stages a one-sided byte-wise wrapping-add of `data` into
    /// `(target, win)` at `offset` (`WrapAdd8`).
    pub fn rma_stage_acc(&self, target: NodeId, win: u64, offset: usize, data: Vec<u8>) -> u64 {
        self.rma_stage(target, RmaOpKind::Acc, win, offset, data.len(), Some(data))
    }

    fn rma_stage(
        &self,
        target: NodeId,
        kind: RmaOpKind,
        win: u64,
        offset: usize,
        len: usize,
        data: Option<Vec<u8>>,
    ) -> u64 {
        let own = self.inner.node;
        let req = PiomReq::new(&self.inner.sim, "rma");
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let op = {
            let mut st = self.inner.state.borrow_mut();
            let op = st.rma().next_op;
            st.rma().next_op += 1;
            match kind {
                RmaOpKind::Put => st.counters.rma_puts += 1,
                RmaOpKind::Get => st.counters.rma_gets += 1,
                RmaOpKind::Acc => st.counters.rma_accs += 1,
            }
            let obs = self.inner.sim.obs();
            obs.emit(
                self.inner.sim.now(),
                Some(own.0),
                EventKind::RmaIssue {
                    op,
                    dest: target.0,
                    win,
                    bytes: len,
                },
            );
            if target == own {
                // Self-target: a plain store through shared memory — apply
                // now, no wire traffic, completion immediate.
                let result = Self::rma_apply_local(&mut st, kind, win, offset, len, data);
                obs.emit(
                    self.inner.sim.now(),
                    Some(own.0),
                    EventKind::RmaApply {
                        op,
                        src: own.0,
                        win,
                        bytes: len,
                    },
                );
                st.rma().ops.insert(
                    op,
                    RmaOp {
                        target,
                        req: req.clone(),
                        staged: None,
                        result,
                    },
                );
            } else {
                let staged = match kind {
                    RmaOpKind::Put => StagedOp::Put {
                        win,
                        offset,
                        // lint-allow: staging invariant, caller passed data
                        data: data.expect("put carries data"),
                    },
                    RmaOpKind::Get => StagedOp::Get { win, offset, len },
                    RmaOpKind::Acc => StagedOp::Acc {
                        win,
                        offset,
                        // lint-allow: staging invariant, caller passed data
                        data: data.expect("accumulate carries data"),
                    },
                };
                st.rma().ops.insert(
                    op,
                    RmaOp {
                        target,
                        req: req.clone(),
                        staged: Some(staged),
                        result: None,
                    },
                );
                st.rma().inflight += 1;
            }
            op
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        self.wake_parked();
        if target == own {
            req.complete(&self.inner.sim);
        }
        op
    }

    fn rma_apply_local(
        st: &mut NmState,
        kind: RmaOpKind,
        win: u64,
        offset: usize,
        len: usize,
        data: Option<Vec<u8>>,
    ) -> Option<Vec<u8>> {
        // lint-allow: self-target op, the local application owns the window
        let w = st.rma().windows.get_mut(&win).expect("window exists");
        let result = match kind {
            RmaOpKind::Put => {
                // lint-allow: staging invariant, caller passed data
                let data = data.expect("put carries data");
                w[offset..offset + data.len()].copy_from_slice(&data);
                None
            }
            RmaOpKind::Get => Some(w[offset..offset + len].to_vec()),
            RmaOpKind::Acc => {
                // lint-allow: staging invariant, caller passed data
                let data = data.expect("accumulate carries data");
                for (wb, db) in w[offset..offset + data.len()].iter_mut().zip(&data) {
                    *wb = wb.wrapping_add(*db);
                }
                None
            }
        };
        st.counters.rma_applied += 1;
        result
    }

    // ----- origin: injection and completion -------------------------------

    /// Queues op `op`'s frames onto the network pack lists (called by the
    /// per-thread injection endpoint under PIOMAN progression). Idempotent
    /// once the frames are queued. Returns the descriptor-build cost.
    pub fn rma_inject(&self, op: u64) -> SimDuration {
        let own = self.inner.node;
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let injected = {
            let mut st = self.inner.state.borrow_mut();
            match st.rma().ops.get_mut(&op).and_then(|o| {
                let t = o.target;
                o.staged.take().map(|s| (t, s))
            }) {
                None => false,
                Some((target, staged)) => {
                    match staged {
                        StagedOp::Put { win, offset, data } => {
                            if data.len() <= self.inner.cfg.rdv_threshold {
                                st.push_pack(
                                    own,
                                    target,
                                    PackKind::Wire {
                                        msg: WireMsg::RmaPut {
                                            win,
                                            offset,
                                            op,
                                            data,
                                        },
                                    },
                                );
                            } else {
                                // Rendezvous-style DMA, minus the handshake.
                                let pieces: Vec<Vec<u8>> =
                                    data.chunks(RMA_CHUNK).map(<[u8]>::to_vec).collect();
                                let total = pieces.len() as u32;
                                for (i, piece) in pieces.into_iter().enumerate() {
                                    st.push_pack(
                                        own,
                                        target,
                                        PackKind::Wire {
                                            msg: WireMsg::RmaPutData {
                                                win,
                                                offset,
                                                op,
                                                chunk: i as u32,
                                                chunks: total,
                                                data: piece,
                                            },
                                        },
                                    );
                                }
                            }
                        }
                        StagedOp::Get { win, offset, len } => {
                            st.push_pack(
                                own,
                                target,
                                PackKind::Wire {
                                    msg: WireMsg::RmaGet {
                                        win,
                                        offset,
                                        len,
                                        op,
                                    },
                                },
                            );
                        }
                        StagedOp::Acc { win, offset, data } => {
                            st.push_pack(
                                own,
                                target,
                                PackKind::Wire {
                                    msg: WireMsg::RmaAcc {
                                        win,
                                        offset,
                                        op,
                                        data,
                                    },
                                },
                            );
                        }
                    }
                    true
                }
            }
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        if injected {
            self.inner.cfg.request_registration
        } else {
            SimDuration::ZERO
        }
    }

    /// The request backing op `op`, while the op is still tracked.
    pub fn rma_op_req(&self, op: u64) -> Option<PiomReq> {
        self.inner
            .state
            .borrow()
            .rma
            .as_deref()
            .and_then(|r| r.ops.get(&op))
            .map(|o| o.req.clone())
    }

    /// Takes a completed get's payload, retiring the op entry.
    pub fn rma_take_result(&self, op: u64) -> Option<Vec<u8>> {
        let mut st = self.inner.state.borrow_mut();
        let entry = st.rma().ops.get_mut(&op)?;
        let result = entry.result.take();
        if result.is_some() {
            st.rma().ops.remove(&op);
        }
        result
    }

    /// Ops issued to remote targets and not yet acked.
    pub fn rma_inflight(&self) -> usize {
        self.inner
            .state
            .borrow()
            .rma
            .as_deref()
            .map_or(0, |r| r.inflight)
    }

    /// Waits for op `op` from thread `ctx`, engine-dependently.
    pub async fn rma_wait(&self, ctx: &ThreadCtx, op: u64) {
        let Some(req) = self.rma_op_req(op) else {
            return; // already retired
        };
        self.swait(&req, ctx).await;
        // Retire result-less entries (self-target put/acc; remote ones
        // were already removed by their ack).
        let mut st = self.inner.state.borrow_mut();
        if st
            .rma()
            .ops
            .get(&op)
            .is_some_and(|o| o.result.is_none() && o.staged.is_none())
        {
            st.rma().ops.remove(&op);
        }
    }

    /// Origin-side ack arrival: the put/accumulate was applied.
    pub(crate) fn handle_rma_ack(&self, src: NodeId, op: u64) -> SimDuration {
        let completed = {
            let mut st = self.inner.state.borrow_mut();
            match st.rma().ops.remove(&op) {
                Some(entry) => {
                    st.rma().inflight -= 1;
                    Some(entry.req)
                }
                // Ack for an op we abandoned (retry budget exhausted on
                // some frame): survivable under a lossy fabric.
                None => None,
            }
        };
        if let Some(req) = completed {
            self.inner.sim.obs().emit(
                self.inner.sim.now(),
                Some(self.inner.node.0),
                EventKind::RmaAckRx { op, src: src.0 },
            );
            req.complete(&self.inner.sim);
        }
        SimDuration::ZERO
    }

    /// Origin-side get reply: copy out and complete.
    pub(crate) fn handle_rma_get_reply(&self, src: NodeId, op: u64, data: Vec<u8>) -> SimDuration {
        let len = data.len();
        let completed = {
            let mut st = self.inner.state.borrow_mut();
            match st.rma().ops.get_mut(&op) {
                Some(entry) if entry.result.is_none() && !entry.req.is_complete() => {
                    entry.result = Some(data);
                    let req = entry.req.clone();
                    st.rma().inflight -= 1;
                    Some(req)
                }
                _ => None, // stale or duplicate reply
            }
        };
        match completed {
            Some(req) => {
                self.inner.sim.obs().emit(
                    self.inner.sim.now(),
                    Some(self.inner.node.0),
                    EventKind::RmaAckRx { op, src: src.0 },
                );
                req.complete(&self.inner.sim);
                self.inner.rails[0].params().memcpy_cost(len)
            }
            None => SimDuration::ZERO,
        }
    }

    /// Origin-side chunked get-reply arrival: assemble; once the last
    /// chunk lands, store the result and complete — the mirror image of
    /// the target's [`Session::handle_rma_put_chunk`].
    pub(crate) fn handle_rma_get_data(
        &self,
        src: NodeId,
        op: u64,
        chunk: u32,
        chunks: u32,
        data: Vec<u8>,
    ) -> SimDuration {
        let len = data.len();
        let completed = {
            let mut st = self.inner.state.borrow_mut();
            let live = st
                .rma()
                .ops
                .get(&op)
                .is_some_and(|o| o.result.is_none() && !o.req.is_complete());
            if !live {
                // Stale or abandoned op: drop the chunk and any partial
                // assembly so nothing leaks.
                st.rma().get_chunks.remove(&op);
                None
            } else {
                let entry = st
                    .rma()
                    .get_chunks
                    .entry(op)
                    .or_insert_with(|| RmaGetAssembly {
                        parts: vec![None; chunks as usize],
                        received: 0,
                    });
                if entry.parts[chunk as usize].is_some() {
                    // Duplicate chunk that slipped past the envelope window.
                    st.counters.dup_suppressed += 1;
                    None
                } else {
                    entry.parts[chunk as usize] = Some(data);
                    entry.received += 1;
                    if entry.received == chunks {
                        // lint-allow: entry was just inserted or found above
                        let assembly = st.rma().get_chunks.remove(&op).expect("assembly present");
                        let mut whole = Vec::new();
                        for part in assembly.parts {
                            // lint-allow: received == chunks ⇒ every slot filled
                            whole.extend_from_slice(&part.expect("chunk present"));
                        }
                        // lint-allow: liveness of the entry checked above, same borrow
                        let entry = st.rma().ops.get_mut(&op).expect("op present");
                        entry.result = Some(whole);
                        let req = entry.req.clone();
                        st.rma().inflight -= 1;
                        Some(req)
                    } else {
                        None
                    }
                }
            }
        };
        if let Some(req) = completed {
            self.inner.sim.obs().emit(
                self.inner.sim.now(),
                Some(self.inner.node.0),
                EventKind::RmaAckRx { op, src: src.0 },
            );
            req.complete(&self.inner.sim);
        }
        self.inner.rails[0].params().memcpy_cost(len)
    }

    // ----- target: matching-free application ------------------------------

    /// Small put arrival at the target: store into the window and ack.
    /// Runs entirely inside progression — the target application never
    /// calls into the library for this (passive target).
    pub(crate) fn handle_rma_put(
        &self,
        src: NodeId,
        win: u64,
        offset: usize,
        op: u64,
        data: Vec<u8>,
    ) -> SimDuration {
        let own = self.inner.node;
        let len = data.len();
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let applied = {
            let mut st = self.inner.state.borrow_mut();
            match st.rma().windows.get_mut(&win) {
                Some(w) => {
                    w[offset..offset + len].copy_from_slice(&data);
                    st.counters.rma_applied += 1;
                    st.counters.rma_acks_tx += 1;
                    st.push_pack(
                        own,
                        src,
                        PackKind::Wire {
                            msg: WireMsg::RmaAck { op },
                        },
                    );
                    true
                }
                None => {
                    st.counters.rma_bad_frames += 1;
                    false
                }
            }
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        if !applied {
            return SimDuration::ZERO;
        }
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(own.0),
            EventKind::RmaApply {
                op,
                src: src.0,
                win,
                bytes: len,
            },
        );
        self.inner.rails[0].params().memcpy_cost(len)
    }

    /// Chunked-put data arrival: assemble into the window; ack once the
    /// last chunk lands.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_rma_put_chunk(
        &self,
        src: NodeId,
        win: u64,
        offset: usize,
        op: u64,
        chunk: u32,
        chunks: u32,
        data: Vec<u8>,
    ) -> SimDuration {
        let own = self.inner.node;
        let len = data.len();
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let applied = {
            let mut st = self.inner.state.borrow_mut();
            if !st.rma().windows.contains_key(&win) {
                st.counters.rma_bad_frames += 1;
                false
            } else {
                let entry = st
                    .rma()
                    .chunks
                    .entry((src, op))
                    .or_insert_with(|| RmaChunks {
                        seen: vec![false; chunks as usize],
                        received: 0,
                    });
                if entry.seen[chunk as usize] {
                    // Duplicate chunk that slipped past the envelope window.
                    st.counters.dup_suppressed += 1;
                    false
                } else {
                    entry.seen[chunk as usize] = true;
                    entry.received += 1;
                    let done = entry.received == chunks;
                    let w = st
                        .rma()
                        .windows
                        .get_mut(&win)
                        // lint-allow: window presence checked above, same borrow
                        .expect("put to unknown window");
                    let at = offset + chunk as usize * RMA_CHUNK;
                    w[at..at + len].copy_from_slice(&data);
                    if done {
                        st.rma().chunks.remove(&(src, op));
                        st.counters.rma_applied += 1;
                        st.counters.rma_acks_tx += 1;
                        st.push_pack(
                            own,
                            src,
                            PackKind::Wire {
                                msg: WireMsg::RmaAck { op },
                            },
                        );
                    }
                    true
                }
            }
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        if !applied {
            return SimDuration::ZERO;
        }
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(own.0),
            EventKind::RmaApply {
                op,
                src: src.0,
                win,
                bytes: len,
            },
        );
        self.inner.rails[0].params().memcpy_cost(len)
    }

    /// Get arrival at the target: read the window and queue the reply.
    /// Large reads are chunked into [`WireMsg::RmaGetData`] DMA frames,
    /// mirroring the large-put path in the opposite direction; small ones
    /// travel as a single [`WireMsg::RmaGetReply`].
    pub(crate) fn handle_rma_get(
        &self,
        src: NodeId,
        win: u64,
        offset: usize,
        len: usize,
        op: u64,
    ) -> SimDuration {
        let own = self.inner.node;
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let served = {
            let mut st = self.inner.state.borrow_mut();
            match st.rma().windows.get(&win) {
                Some(w) => {
                    let data = w[offset..offset + len].to_vec();
                    st.counters.rma_applied += 1;
                    st.counters.rma_acks_tx += 1;
                    if len <= self.inner.cfg.rdv_threshold {
                        st.push_pack(
                            own,
                            src,
                            PackKind::Wire {
                                msg: WireMsg::RmaGetReply { op, data },
                            },
                        );
                    } else {
                        // Rendezvous-style DMA reply, minus the handshake
                        // (same shape as `rma_inject`'s large-put path).
                        let pieces: Vec<Vec<u8>> =
                            data.chunks(RMA_CHUNK).map(<[u8]>::to_vec).collect();
                        let total = pieces.len() as u32;
                        for (i, piece) in pieces.into_iter().enumerate() {
                            st.push_pack(
                                own,
                                src,
                                PackKind::Wire {
                                    msg: WireMsg::RmaGetData {
                                        op,
                                        chunk: i as u32,
                                        chunks: total,
                                        data: piece,
                                    },
                                },
                            );
                        }
                    }
                    true
                }
                None => {
                    st.counters.rma_bad_frames += 1;
                    false
                }
            }
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        if !served {
            return SimDuration::ZERO;
        }
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(own.0),
            EventKind::RmaApply {
                op,
                src: src.0,
                win,
                bytes: len,
            },
        );
        self.inner.rails[0].params().memcpy_cost(len)
    }

    /// Accumulate arrival at the target: byte-wise wrapping add, then ack.
    /// The reliability layer's duplicate suppression upstream guarantees
    /// this runs at most once per op — exactly-once accumulate even under
    /// retransmits.
    pub(crate) fn handle_rma_acc(
        &self,
        src: NodeId,
        win: u64,
        offset: usize,
        op: u64,
        data: Vec<u8>,
    ) -> SimDuration {
        let own = self.inner.node;
        let len = data.len();
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let applied = {
            let mut st = self.inner.state.borrow_mut();
            match st.rma().windows.get_mut(&win) {
                Some(w) => {
                    for (wb, db) in w[offset..offset + len].iter_mut().zip(&data) {
                        *wb = wb.wrapping_add(*db);
                    }
                    st.counters.rma_applied += 1;
                    st.counters.rma_acks_tx += 1;
                    st.push_pack(
                        own,
                        src,
                        PackKind::Wire {
                            msg: WireMsg::RmaAck { op },
                        },
                    );
                    true
                }
                None => {
                    st.counters.rma_bad_frames += 1;
                    false
                }
            }
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        if !applied {
            return SimDuration::ZERO;
        }
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(own.0),
            EventKind::RmaApply {
                op,
                src: src.0,
                win,
                bytes: len,
            },
        );
        self.inner.rails[0].params().memcpy_cost(len)
    }
}
