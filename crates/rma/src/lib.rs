//! pm2-rma: one-sided windows over NewMadeleine with passive-target
//! completion.
//!
//! The two-sided API (`isend`/`irecv`) requires both peers to call into
//! the library. This crate exposes the complementary one-sided model on
//! top of the session's RMA protocol (`pm2-newmad::rma`):
//!
//! * a node exposes a [`Window`] of memory **once**;
//! * remote origins [`Window::put`]/[`Window::get`]/[`Window::accumulate`]
//!   against it, and complete locally with [`Window::flush`] /
//!   [`RmaEngine::flush_all`];
//! * the target never calls into the library again — incoming ops are
//!   applied inside PIOMAN progression, on whichever core happens to run
//!   it (a stolen idle core, the timer tasklet, the blocking-call
//!   watcher, or the dedicated progress thread of
//!   [`pioman::PiomanConfig::progress_thread`]).
//!
//! # Progress for all: one injection endpoint per node
//!
//! Issuing an op only *stages* it (sub-microsecond on the calling core)
//! and enqueues a costed injection closure on the engine's
//! [`InjectionEndpoint`] — one send queue per node, registered as one
//! more driver in the PIOMAN registry at the node's first remote op.
//! Whoever runs progression next drains the endpoint and pays the
//! descriptor-build cost, so a compute-bound origin thread keeps
//! computing while an idle core injects, transmits and completes its
//! one-sided traffic. Every thread of the node injects into the same
//! FIFO, so the injection order is replayed exactly, and a thread that
//! issues ops and finishes leaves nothing behind in the registry.
//!
//! Under the sequential engine (no PIOMAN) there is nobody to steal the
//! work: the origin injects inline and pays the cost itself, and a
//! passive target genuinely never progresses — the paper's motivation,
//! kept observable.

#![warn(missing_docs)]

use pioman::InjectionEndpoint;
use pm2_marcel::{ThreadCtx, ThreadId};
use pm2_newmad::Session;
use pm2_topo::NodeId;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Handle to one issued one-sided op: wait on it individually or collect
/// a completed get's payload.
#[derive(Clone)]
pub struct RmaHandle {
    engine: RmaEngine,
    op: u64,
}

impl RmaHandle {
    /// The session-level op id (stable, for traces and debugging).
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Waits for this single op to complete (flush of one).
    pub async fn wait(&self, ctx: &ThreadCtx) {
        self.engine.inner.session.rma_wait(ctx, self.op).await;
    }

    /// Takes a completed get's payload (None for puts/accumulates or if
    /// the get has not completed yet). Retires the op's bookkeeping.
    pub fn take_result(&self) -> Option<Vec<u8>> {
        self.engine.inner.session.rma_take_result(self.op)
    }
}

struct EngineInner {
    session: Session,
    /// The node's injection endpoint, created at the first remote op
    /// (only under the PIOMAN engine; the sequential engine injects
    /// inline).
    endpoint: OnceCell<InjectionEndpoint>,
    /// Ops issued and not yet flushed, keyed by (issuing thread, window).
    pending: RefCell<HashMap<(ThreadId, u64), Vec<u64>>>,
}

/// The per-node one-sided engine: wraps a [`Session`], owns the node's
/// injection endpoint and the flush bookkeeping.
#[derive(Clone)]
pub struct RmaEngine {
    inner: Rc<EngineInner>,
}

impl RmaEngine {
    /// Creates the engine over `session`.
    pub fn new(session: &Session) -> RmaEngine {
        RmaEngine {
            inner: Rc::new(EngineInner {
                session: session.clone(),
                endpoint: OnceCell::new(),
                pending: RefCell::new(HashMap::new()),
            }),
        }
    }

    /// The node this engine runs on.
    pub fn node(&self) -> NodeId {
        self.inner.session.node()
    }

    /// The underlying session (counters, debug state).
    pub fn session(&self) -> &Session {
        &self.inner.session
    }

    /// Exposes `len` zero-initialised bytes as window `win` on this node
    /// and returns the local handle. The registration cost (NIC memory
    /// pinning) is charged to the calling thread — it is the *only* cost
    /// the target ever pays for passive-target traffic.
    pub async fn window_create(&self, ctx: &ThreadCtx, win: u64, len: usize) -> Window {
        let cost = self.inner.session.rma_window_create(win, len);
        if !cost.is_zero() {
            ctx.compute(cost).await;
        }
        self.window(win)
    }

    /// Handle to window id `win` for issuing ops at remote nodes (every
    /// node addressing the same id gets its own per-target instance, as
    /// with an MPI window object).
    pub fn window(&self, win: u64) -> Window {
        Window {
            engine: self.clone(),
            win,
        }
    }

    /// Completes every outstanding op issued through this engine — any
    /// thread, any window (`MPI_Win_flush_all` over all windows).
    pub async fn flush_all(&self, ctx: &ThreadCtx) {
        loop {
            let ops: Vec<u64> = {
                let mut pending = self.inner.pending.borrow_mut();
                let ops = pending.values().flatten().copied().collect();
                pending.clear();
                ops
            };
            if ops.is_empty() {
                return;
            }
            for op in ops {
                self.inner.session.rma_wait(ctx, op).await;
            }
            // Other threads may have issued more while we blocked.
        }
    }

    /// Ops issued to remote targets and not yet acknowledged.
    pub fn inflight(&self) -> usize {
        self.inner.session.rma_inflight()
    }

    fn issue(&self, ctx: &ThreadCtx, win: u64, op: u64, self_target: bool) -> RmaHandle {
        self.inner
            .pending
            .borrow_mut()
            .entry((ctx.id(), win))
            .or_default()
            .push(op);
        // Self-target ops applied at stage time: nothing to inject.
        if !self_target {
            match self.inner.session.pioman() {
                Some(pioman) => {
                    let ep = self.inner.endpoint.get_or_init(|| pioman.create_endpoint());
                    let session = self.inner.session.clone();
                    ep.inject(ctx.current_core(), move || session.rma_inject(op));
                }
                None => {
                    // Sequential engine: the origin pays for its own
                    // injection, inside its next library call.
                    self.inner.session.rma_inject(op);
                }
            }
        }
        RmaHandle {
            engine: self.clone(),
            op,
        }
    }
}

/// One node's handle to a window id: issue one-sided ops at any target
/// node exposing the same id, or read the local exposure.
#[derive(Clone)]
pub struct Window {
    engine: RmaEngine,
    win: u64,
}

impl Window {
    /// The window id.
    pub fn id(&self) -> u64 {
        self.win
    }

    /// Stores `data` into `target`'s window at `offset`. Returns
    /// immediately with a handle; completion is observed via
    /// [`Window::flush`] (or waiting the handle).
    pub fn put(&self, ctx: &ThreadCtx, target: NodeId, offset: usize, data: Vec<u8>) -> RmaHandle {
        let sess = &self.engine.inner.session;
        let self_target = target == sess.node();
        let op = sess.rma_stage_put(target, self.win, offset, data);
        self.engine.issue(ctx, self.win, op, self_target)
    }

    /// Reads `len` bytes from `target`'s window at `offset`. After the
    /// handle completes (flush or wait), collect the payload with
    /// [`RmaHandle::take_result`].
    pub fn get(&self, ctx: &ThreadCtx, target: NodeId, offset: usize, len: usize) -> RmaHandle {
        let sess = &self.engine.inner.session;
        let self_target = target == sess.node();
        let op = sess.rma_stage_get(target, self.win, offset, len);
        self.engine.issue(ctx, self.win, op, self_target)
    }

    /// Byte-wise wrapping-add of `data` into `target`'s window at
    /// `offset` (`WrapAdd8`). Exactly-once even under retransmission —
    /// the reliability layer suppresses duplicates before they reach the
    /// window.
    pub fn accumulate(
        &self,
        ctx: &ThreadCtx,
        target: NodeId,
        offset: usize,
        data: Vec<u8>,
    ) -> RmaHandle {
        let sess = &self.engine.inner.session;
        let self_target = target == sess.node();
        let op = sess.rma_stage_acc(target, self.win, offset, data);
        self.engine.issue(ctx, self.win, op, self_target)
    }

    /// Completes every op the calling thread issued on this window
    /// (`MPI_Win_flush`): on return, puts and accumulates are applied at
    /// their targets and gets have their payloads ready.
    pub async fn flush(&self, ctx: &ThreadCtx) {
        loop {
            let ops = self
                .engine
                .inner
                .pending
                .borrow_mut()
                .remove(&(ctx.id(), self.win));
            let Some(ops) = ops else { return };
            for op in ops {
                self.engine.inner.session.rma_wait(ctx, op).await;
            }
        }
    }

    /// Reads this node's local exposure of the window (free; target-side
    /// verification and the passive target's way to consume results).
    pub fn read_local(&self, offset: usize, len: usize) -> Vec<u8> {
        self.engine
            .inner
            .session
            .rma_window_read(self.win, offset, len)
    }
}
