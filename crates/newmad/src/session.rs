//! The per-node NewMadeleine session: public API, configuration, and gate
//! bookkeeping.
//!
//! The protocol machinery lives in sibling modules since the sharded
//! progression refactor: matching state in [`crate::matching`], the eager
//! receive path in `eager`, the rendezvous protocol in `rendezvous`, and
//! the per-transport PIOMAN drivers plus the submission engine in
//! `progress`.

use crate::config::{EngineKind, NmCounters, OffloadPolicy, SessionConfig};
use crate::handles::{RecvHandle, SendHandle};
use crate::matching::{NmState, RdvState, RmaState};
use crate::msg::{EagerPart, ShmMsg, Tag, WireMsg};
use crate::progress::{RailDriver, ShmDriver};
use crate::rendezvous::{RdvRecv, RdvSend};
use crate::strategy::{PackKind, Strategy, Submission};
use pioman::{PiomReq, Pioman};
use pm2_fabric::{MemoryRegistry, Nic, ShmChannel};
use pm2_marcel::{Marcel, ThreadCtx};
use pm2_sim::obs::EventKind;
use pm2_sim::{Sim, SimDuration};
use pm2_topo::NodeId;
use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

pub(crate) struct SessionInner {
    pub(crate) sim: Sim,
    pub(crate) marcel: Marcel,
    pub(crate) node: NodeId,
    pub(crate) rails: Vec<Rc<Nic<WireMsg>>>,
    pub(crate) shm: Rc<ShmChannel<ShmMsg>>,
    pub(crate) strategy: Rc<dyn Strategy>,
    pub(crate) pioman: Option<Pioman>,
    pub(crate) registry: MemoryRegistry,
    /// Shared by every session of a cluster.
    pub(crate) cfg: Rc<SessionConfig>,
    /// Whether the ack/retransmit reliability layer is active: exactly
    /// when a rail carries an active [`FaultPlan`](pm2_fabric::FaultPlan),
    /// so the happy path stays byte-identical to a build without the
    /// reliability machinery.
    pub(crate) reliability: bool,
    /// Virtual time until which the sequential engine's library-wide
    /// mutex is held.
    pub(crate) seq_lock_until: std::cell::Cell<pm2_sim::SimTime>,
    pub(crate) state: RefCell<NmState>,
}

/// Handle to one node's communication session (cheap to clone).
#[derive(Clone)]
pub struct Session {
    pub(crate) inner: Rc<SessionInner>,
}

/// Snapshot of a session's internal queue depths, for leak checks in
/// fault-injection tests: after a quiesced run everything here should be
/// zero (no parked request, no unacked envelope, no queued pack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionDebugState {
    /// Posted receives still waiting for a match.
    pub posted: usize,
    /// Unexpected eager messages parked in the library pool.
    pub unexpected: usize,
    /// Rendezvous announcements (RTS) with no posted receive.
    pub unexpected_rts: usize,
    /// Sender-side rendezvous still waiting for a CTS.
    pub rdv_sends: usize,
    /// Receiver-side rendezvous still assembling chunks.
    pub rdv_recvs: usize,
    /// Unacked reliability envelopes awaiting retransmit.
    pub rel_pending: usize,
    /// Packs queued for the network rails.
    pub net_packs: usize,
    /// Packs queued for the shared-memory channel.
    pub shm_packs: usize,
    /// One-sided op entries still tracked (in flight, staged, or holding
    /// an untaken get result).
    pub rma_ops: usize,
    /// One-sided ops issued to a remote target and not yet acked.
    pub rma_inflight: usize,
    /// Target-side chunked puts still assembling.
    pub rma_chunks: usize,
    /// Origin-side chunked get replies still assembling.
    pub rma_get_chunks: usize,
}

impl SessionDebugState {
    /// `true` when no request, envelope or pack is outstanding.
    pub fn is_clean(&self) -> bool {
        *self == SessionDebugState::default()
    }
}

impl Session {
    /// Creates a session for `marcel`'s node.
    ///
    /// `rails` are the node's NICs (one per physical network);
    /// `shm` is the node's intra-node channel; `pioman` must be given for
    /// [`EngineKind::Pioman`] and is ignored by the sequential engine.
    ///
    /// Under the PIOMAN engine each transport registers its own driver
    /// with the progression registry: one per rail, then one for the
    /// shared-memory channel. Multirail rails therefore progress
    /// independently — an idle core draining rail 0 never blocks rail 1.
    pub fn new(
        marcel: &Marcel,
        rails: Vec<Rc<Nic<WireMsg>>>,
        shm: Rc<ShmChannel<ShmMsg>>,
        strategy: Rc<dyn Strategy>,
        pioman: Option<Pioman>,
        cfg: impl Into<Rc<SessionConfig>>,
    ) -> Session {
        let cfg = cfg.into();
        assert!(!rails.is_empty(), "a session needs at least one rail");
        if cfg.engine == EngineKind::Pioman {
            assert!(
                pioman.is_some(),
                "the Pioman engine requires a Pioman server"
            );
        }
        let params = Rc::clone(rails[0].params());
        let n_rails = rails.len();
        // Reliability is on iff some rail can actually lose frames, so
        // fault-free runs keep the original wire format.
        let reliability = rails.iter().any(|r| r.params().fault.is_active());
        let inner = Rc::new(SessionInner {
            sim: marcel.sim().clone(),
            marcel: marcel.clone(),
            node: marcel.node(),
            rails,
            shm,
            strategy,
            pioman: pioman.clone(),
            registry: MemoryRegistry::new(params),
            cfg,
            reliability,
            seq_lock_until: std::cell::Cell::new(pm2_sim::SimTime::ZERO),
            state: RefCell::new(NmState::new(n_rails)),
        });
        let session = Session {
            inner: Rc::clone(&inner),
        };
        if let Some(p) = &pioman {
            for rail in 0..n_rails {
                p.attach_driver(Rc::new(RailDriver {
                    session: Rc::downgrade(&inner),
                    rail,
                }));
            }
            p.attach_driver(Rc::new(ShmDriver {
                session: Rc::downgrade(&inner),
            }));
        }
        // Frame arrivals ring the node's doorbell: parked cores observe
        // them at their next polling instant (the continuous busy-poll of
        // §3.2), idle cores are nudged now.
        let doorbell = {
            let m = inner.marcel.clone();
            let p = inner.pioman.clone();
            move || {
                m.doorbell();
                // A parked dedicated progress thread is summoned by the
                // doorbell too (it blocks in `park`, not on a core, so the
                // doorbell's kicks cannot reach it). No-op unless
                // `PiomanConfig::progress_thread` spawned one.
                if let Some(p) = &p {
                    p.wake_progress_thread();
                }
            }
        };
        for rail in &inner.rails {
            rail.set_rx_callback(doorbell.clone());
        }
        inner.shm.set_callback(doorbell);
        session
    }

    /// The node this session runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The engine in use.
    pub fn engine(&self) -> EngineKind {
        self.inner.cfg.engine
    }

    /// Counter snapshot.
    pub fn counters(&self) -> NmCounters {
        self.inner.state.borrow().counters
    }

    /// Whether the ack/retransmit reliability layer is active.
    pub fn reliability_enabled(&self) -> bool {
        self.inner.reliability
    }

    /// Queue-depth snapshot for post-run leak checks (see
    /// [`SessionDebugState`]).
    pub fn debug_state(&self) -> SessionDebugState {
        let st = self.inner.state.borrow();
        let rdv = |f: fn(&RdvState) -> usize| st.rdv.as_deref().map_or(0, f);
        let rma = |f: fn(&RmaState) -> usize| st.rma.as_deref().map_or(0, f);
        SessionDebugState {
            posted: st.posted.len(),
            unexpected: st.unexpected.len(),
            unexpected_rts: rdv(|r| r.unexpected_rts.len()),
            rdv_sends: rdv(|r| r.sends.len()),
            rdv_recvs: rdv(|r| r.recvs.len()),
            rel_pending: st.rel.as_deref().map_or(0, |r| r.pending.len()),
            net_packs: st.net_packs.len(),
            shm_packs: st.shm_packs.len(),
            rma_ops: rma(|r| r.ops.len()),
            rma_inflight: rma(|r| r.inflight),
            rma_chunks: rma(|r| r.chunks.len()),
            rma_get_chunks: rma(|r| r.get_chunks.len()),
        }
    }

    /// The registration cache (rendezvous ablations inspect its stats).
    pub fn registry(&self) -> &MemoryRegistry {
        &self.inner.registry
    }

    /// The PIOMAN server driving this session, if the engine is
    /// [`EngineKind::Pioman`] (`None` under the sequential engine).
    /// pm2-rma uses it to create the node's injection endpoint.
    pub fn pioman(&self) -> Option<Pioman> {
        self.inner.pioman.clone()
    }

    // ----- application API ------------------------------------------------

    /// Posts an asynchronous send of `data` to `(dest, tag)` from thread
    /// `ctx`.
    ///
    /// Only *registers* the request (a fraction of a microsecond on the
    /// calling core); the expensive submission happens later — in the
    /// background under the PIOMAN engine, inside `swait` under the
    /// sequential engine.
    //
    // A plain `fn` around an `async move` block, like the waits below: an
    // `async fn` stores its arguments twice in its state. The posting
    // itself is synchronous (`post_send`), so across the awaits the
    // future holds its arguments and, at the end, the request.
    #[allow(clippy::manual_async_fn)]
    pub fn isend<'a>(
        &'a self,
        ctx: &'a ThreadCtx,
        dest: NodeId,
        tag: Tag,
        data: Vec<u8>,
    ) -> impl Future<Output = SendHandle> + 'a {
        async move {
            self.seq_acquire(ctx).await;
            self.seq_hold(self.inner.cfg.request_registration);
            ctx.compute(self.inner.cfg.request_registration).await;
            let (req, inline_cost) = self.post_send(ctx, dest, tag, data);
            if let Some(cost) = inline_cost {
                // Inline: the calling thread pays the submission here.
                ctx.compute(cost).await;
            }
            SendHandle { req }
        }
    }

    /// Registers a send: the request, its pack or rendezvous record, and
    /// an inline submission's cost for the calling thread to pay.
    fn post_send(
        &self,
        ctx: &ThreadCtx,
        dest: NodeId,
        tag: Tag,
        data: Vec<u8>,
    ) -> (PiomReq, Option<SimDuration>) {
        let req = PiomReq::new(&self.inner.sim, "send");
        let len = data.len();
        let intra = dest == self.inner.node;
        // Offload-or-inline decision (PIOMAN engine, eager messages only).
        let eager = intra || len <= self.inner.cfg.rdv_threshold;
        let inline = self.inner.cfg.engine == EngineKind::Pioman
            && eager
            && match self.inner.cfg.offload_policy {
                OffloadPolicy::Always => false,
                OffloadPolicy::Never => true,
                OffloadPolicy::Adaptive => {
                    let cost = if intra {
                        self.inner.shm.copy_cost(len)
                    } else {
                        self.inner.rails[0].submit_cost(len)
                    };
                    !(self.inner.marcel.has_idle_core() && cost >= self.inner.cfg.adaptive_min_cost)
                }
            };
        let own = self.inner.node;
        let mut rdv_id = None;
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let inline_submission = {
            let mut st = self.inner.state.borrow_mut();
            st.counters.sends += 1;
            let to = st.to.entry(dest).or_default();
            let this_seq = to.seq;
            to.seq += 1;
            // Flow control: an eager send needs unexpected-pool credits at
            // the destination; without them it demotes to rendezvous
            // (which is zero-copy and needs no pool).
            let mut use_rdv = !intra && len > self.inner.cfg.rdv_threshold;
            if !intra && !use_rdv {
                let need = (crate::msg::EAGER_HEADER_BYTES + len) as i64;
                let limit = self.inner.cfg.credit_bytes_per_peer as i64;
                if limit - to.credits_used < need {
                    use_rdv = true;
                    st.counters.credit_fallbacks += 1;
                } else {
                    to.credits_used += need;
                }
            }
            if use_rdv {
                // Rendezvous: queue the RTS control frame.
                let rdvs = st.rdv();
                let rdv = rdvs.next_rdv;
                rdvs.next_rdv += 1;
                rdv_id = Some(rdv);
                rdvs.sends.insert(
                    rdv,
                    RdvSend {
                        dest,
                        tag,
                        data: Some(data),
                        req: req.clone(),
                        cts_received: false,
                    },
                );
                st.push_pack(
                    own,
                    dest,
                    PackKind::Rts {
                        tag,
                        seq: this_seq,
                        len,
                        rdv,
                    },
                );
                st.counters.rdv_started += 1;
                None
            } else {
                let part = EagerPart {
                    tag,
                    seq: this_seq,
                    data,
                };
                if inline {
                    Some(Submission {
                        dest,
                        msg: WireMsg::Eager(part),
                        reqs: vec![req.clone()],
                    })
                } else {
                    st.push_pack(
                        own,
                        dest,
                        PackKind::Eager {
                            part,
                            req: req.clone(),
                        },
                    );
                    None
                }
            }
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(own.0),
            EventKind::SendPosted {
                req: req.id(),
                dest: dest.0,
                tag: tag.0,
                len,
                rdv: rdv_id,
            },
        );
        let inline_cost = match inline_submission {
            Some(sub) => {
                let cost = self.submit(sub);
                self.wake_parked();
                Some(cost)
            }
            None => {
                self.notify_work(ctx);
                None
            }
        };
        (req, inline_cost)
    }

    /// Posts an asynchronous receive for `(src, tag)`; `None` matches any
    /// source.
    #[allow(clippy::manual_async_fn)]
    pub fn irecv<'a>(
        &'a self,
        ctx: &'a ThreadCtx,
        src: Option<NodeId>,
        tag: Tag,
    ) -> impl Future<Output = RecvHandle> + 'a {
        async move {
            self.seq_acquire(ctx).await;
            self.seq_hold(self.inner.cfg.request_registration);
            ctx.compute(self.inner.cfg.request_registration).await;
            let (req, copy_cost) = self.post_recv(src, tag);
            if let Some((cost, copied)) = copy_cost {
                ctx.compute(cost).await;
                // Eager unexpected: completed by the copy itself.
                // Rendezvous: completes when the data lands.
                if copied {
                    req.complete(&self.inner.sim);
                }
            }
            // A match may have queued work (CTS or credit-return packs);
            // a freshly posted receive arms the background engine
            // (polling interest and, if configured, the blocking
            // watcher).
            self.notify_work(ctx);
            RecvHandle { req }
        }
    }

    /// Registers a receive: takes a matching unexpected message or
    /// rendezvous announcement, else posts it. Returns the request and,
    /// when something matched, the cost the calling thread pays for it
    /// and whether the copy completed the receive.
    fn post_recv(&self, src: Option<NodeId>, tag: Tag) -> (PiomReq, Option<(SimDuration, bool)>) {
        let req = PiomReq::new(&self.inner.sim, "recv");
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(self.inner.node.0),
            EventKind::RecvPosted {
                req: req.id(),
                src: src.map(|s| s.0),
                tag: tag.0,
            },
        );
        // Unexpected eager message already here? Copy it out (the §2.2
        // unexpected path: one extra copy).
        let own = self.inner.node;
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(own.0));
        verify.lock_acquire("newmad.state");
        let copy_cost = {
            let mut st = self.inner.state.borrow_mut();
            st.counters.recvs += 1;
            if let Some(u) = st.take_unexpected(src, tag) {
                st.note_delivery(u.src, tag, u.seq);
                let wire = crate::msg::EAGER_HEADER_BYTES + u.data.len();
                let src_node = u.src;
                let cost = self.inner.rails[0].params().memcpy_cost(u.data.len());
                req.set_data(u.data);
                self.credit_freed(&mut st, src_node, wire);
                self.inner.sim.obs().emit(
                    self.inner.sim.now(),
                    Some(own.0),
                    EventKind::EagerDeliver {
                        req: req.id(),
                        src: src_node.0,
                        tag: tag.0,
                        unexpected: true,
                    },
                );
                Some((cost, true))
            } else if let Some(u) = st.take_rts(src, tag) {
                // A rendezvous was waiting for us: answer it.
                let reg = self.inner.registry.register(tag.0 | 1 << 63, u.len);
                st.rdv().recvs.insert(
                    (u.src, u.rdv),
                    RdvRecv {
                        req: req.clone(),
                        chunks: Vec::new(),
                        received: 0,
                    },
                );
                st.push_pack(own, u.src, PackKind::Cts { rdv: u.rdv });
                Some((reg, false))
            } else {
                st.post_recv(src, tag, req.clone());
                None
            }
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        self.wake_parked();
        (req, copy_cost)
    }

    /// Waits for a request from thread `ctx`, engine-dependently.
    #[allow(clippy::manual_async_fn)]
    pub fn swait<'a>(
        &'a self,
        req: &'a PiomReq,
        ctx: &'a ThreadCtx,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            match &self.inner.pioman {
                Some(p) if self.inner.cfg.engine == EngineKind::Pioman => p.wait(req, ctx).await,
                // Boxed: the sequential engine's loop state stays out of
                // every PIOMAN waiter's future.
                _ => Box::pin(self.seq_wait(req, ctx)).await,
            }
        }
    }

    /// The sequential engine's wait: the original NewMadeleine, in which
    /// the calling thread drives all progress, never yields its core, and
    /// serializes against other threads through the library-wide mutex.
    async fn seq_wait(&self, req: &PiomReq, ctx: &ThreadCtx) {
        loop {
            if req.is_complete() {
                self.inner.sim.verify().observe_complete(req.id());
                return;
            }
            self.seq_acquire(ctx).await;
            if req.is_complete() {
                self.inner.sim.verify().observe_complete(req.id());
                return;
            }
            let p = self.progress_unit();
            if !p.cost.is_zero() {
                self.seq_hold(p.cost);
                ctx.compute(p.cost).await;
            }
            if req.is_complete() {
                self.inner.sim.verify().observe_complete(req.id());
                return;
            }
            if !p.did_work {
                ctx.compute(self.inner.cfg.poll_pause).await;
            }
        }
    }

    /// `swait` on a send handle.
    pub fn swait_send<'a>(
        &'a self,
        h: &'a SendHandle,
        ctx: &'a ThreadCtx,
    ) -> impl Future<Output = ()> + 'a {
        self.swait(&h.req, ctx)
    }

    /// Waits until any of `reqs` completes; returns its index.
    #[allow(clippy::manual_async_fn)]
    pub fn swait_any<'a>(
        &'a self,
        reqs: &'a [PiomReq],
        ctx: &'a ThreadCtx,
    ) -> impl Future<Output = usize> + 'a {
        async move {
            match &self.inner.pioman {
                Some(p) if self.inner.cfg.engine == EngineKind::Pioman => {
                    p.wait_any(reqs, ctx).await
                }
                _ => Box::pin(self.seq_wait_any(reqs, ctx)).await,
            }
        }
    }

    /// The sequential engine's `swait_any` (see [`Session::swait`]).
    async fn seq_wait_any(&self, reqs: &[PiomReq], ctx: &ThreadCtx) -> usize {
        loop {
            if let Some(i) = reqs.iter().position(PiomReq::is_complete) {
                self.inner.sim.verify().observe_complete(reqs[i].id());
                return i;
            }
            self.seq_acquire(ctx).await;
            let p = self.progress_unit();
            if !p.cost.is_zero() {
                self.seq_hold(p.cost);
                ctx.compute(p.cost).await;
            }
            if !p.did_work {
                ctx.compute(self.inner.cfg.poll_pause).await;
            }
        }
    }

    /// Blocking send: `isend` + `swait`.
    pub async fn send(&self, ctx: &ThreadCtx, dest: NodeId, tag: Tag, data: Vec<u8>) {
        let h = self.isend(ctx, dest, tag, data).await;
        self.swait_send(&h, ctx).await;
    }

    /// Non-destructive probe: the payload length of a matching message
    /// that has already arrived (eager) or been announced (rendezvous
    /// RTS), without consuming it.
    pub fn iprobe(&self, src: Option<NodeId>, tag: Tag) -> Option<usize> {
        let mut st = self.inner.state.borrow_mut();
        st.probe_unexpected(src, tag)
            .or_else(|| st.probe_rts(src, tag))
    }

    /// Drives the engine until every queued pack has been handed to the
    /// hardware (submissions drained). The calling thread does the work
    /// inline, like the original engine's flush.
    pub async fn flush_sends(&self, ctx: &ThreadCtx) {
        loop {
            if !self.pending().submissions {
                return;
            }
            self.seq_acquire(ctx).await;
            let p = self.progress_unit();
            if p.did_work {
                self.wake_parked();
            }
            if !p.cost.is_zero() {
                self.seq_hold(p.cost);
                ctx.compute(p.cost).await;
            } else if !p.did_work {
                ctx.yield_now().await;
            }
        }
    }

    /// `swait` on a receive handle; returns the payload.
    #[allow(clippy::manual_async_fn)]
    pub fn swait_recv<'a>(
        &'a self,
        h: &'a RecvHandle,
        ctx: &'a ThreadCtx,
    ) -> impl Future<Output = Vec<u8>> + 'a {
        async move {
            self.swait(&h.req, ctx).await;
            // lint-allow: completion implies delivery on the receive path
            h.take_data().expect("completed receive carries data")
        }
    }

    /// Convenience: blocking receive.
    pub async fn recv(&self, ctx: &ThreadCtx, src: Option<NodeId>, tag: Tag) -> Vec<u8> {
        let h = self.irecv(ctx, src, tag).await;
        self.swait_recv(&h, ctx).await
    }

    /// Spins until the sequential engine's library-wide mutex is free
    /// (no-op under the PIOMAN engine, and while the mutex is free).
    #[allow(clippy::manual_async_fn)]
    fn seq_acquire<'a>(&'a self, ctx: &'a ThreadCtx) -> impl Future<Output = ()> + 'a {
        async move {
            if self.inner.cfg.engine == EngineKind::Sequential
                && self.inner.sim.now() < self.inner.seq_lock_until.get()
            {
                // Boxed: the spin's state stays out of every post's future.
                Box::pin(self.seq_spin(ctx)).await;
            }
        }
    }

    /// The sequential engine's mutex spin (see [`Session::seq_acquire`]).
    async fn seq_spin(&self, ctx: &ThreadCtx) {
        loop {
            if self.inner.sim.now() >= self.inner.seq_lock_until.get() {
                return;
            }
            self.inner.state.borrow_mut().counters.seq_lock_contentions += 1;
            ctx.compute(self.inner.cfg.seq_lock_spin).await;
        }
    }

    /// Holds the library-wide mutex for `cost` starting now.
    fn seq_hold(&self, cost: SimDuration) {
        if self.inner.cfg.engine == EngineKind::Sequential {
            self.inner.seq_lock_until.set(self.inner.sim.now() + cost);
        }
    }

    /// Protocol state the idle cores poll changed outside a PIOMAN
    /// progress step: parked cores re-sweep at their next instant.
    pub(crate) fn wake_parked(&self) {
        self.inner.marcel.wake_parked();
    }

    fn notify_work(&self, ctx: &ThreadCtx) {
        if self.inner.cfg.engine == EngineKind::Pioman {
            if let Some(p) = &self.inner.pioman {
                p.notify_work(ctx.current_core());
            }
        }
    }
}
