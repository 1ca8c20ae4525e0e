//! The collective executor: runs a [`Plan`] over a NewMadeleine session,
//! blocking or nonblocking.
//!
//! The executor issues every step whose dependencies have completed, then
//! waits for *any* in-flight step — so independent branches of the DAG
//! stay in flight together and each underlying point-to-point operation
//! progresses from the session's PIOMAN drivers (idle-core tasklets,
//! timer ticks, blocking waits), not only from this thread.
//!
//! [`CollEngine::coll`] drives the DAG on the calling thread (the wait
//! itself yields the core under the PIOMAN engine). [`CollEngine::icoll`]
//! spawns a Marcel thread to drive it and returns a [`CollHandle`]
//! immediately, so the application computes while the collective runs —
//! the schedulable-thread equivalent of the paper's offloaded tasklets.
//! Under the *sequential* engine `icoll` still works whenever a core is
//! free to run the executor, but cannot overlap once every core busy-waits
//! (that engine's defining limitation).

use crate::algo::AlgoKind;
use crate::plan::{apply_recv, materialize, CollKind, CollSpec, Plan, SendSrc, StepOp};
use crate::tags::{TagAllocator, TagSpace};
use crate::tuning::CollTuning;
use pioman::PiomReq;
use pm2_marcel::{Priority, ThreadCtx};
use pm2_newmad::Session;
use pm2_sim::obs::EventKind;
use pm2_sim::SimTime;
use pm2_topo::NodeId;
use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

/// Cumulative per-rank collective counters (NmCounters-style snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollCounters {
    /// Collectives completed.
    pub collectives: u64,
    /// Of those, started nonblockingly (`icoll`).
    pub nonblocking: u64,
    /// DAG steps executed (sends + receives).
    pub steps: u64,
    /// Send steps executed.
    pub sends: u64,
    /// Receive steps executed.
    pub recvs: u64,
    /// Pipeline chunks transmitted (partial-buffer sends).
    pub chunks: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Virtual nanoseconds of application compute overlapped with
    /// nonblocking collectives (post-to-wait window, capped at
    /// completion).
    pub overlap_ns: u64,
}

struct EngineInner {
    session: Session,
    rank: usize,
    ranks: usize,
    tags: TagAllocator,
    /// Shared by every rank of a cluster.
    tuning: Rc<CollTuning>,
    counters: RefCell<CollCounters>,
}

/// Per-rank collective engine (cheap to clone; clones share counters and
/// tag generations).
#[derive(Clone)]
pub struct CollEngine {
    inner: Rc<EngineInner>,
}

impl CollEngine {
    /// Builds the engine for `rank` of `ranks` over `session`.
    ///
    /// `tuning` is a tuning or an `Rc` of one that every rank shares.
    pub fn new(
        session: Session,
        rank: usize,
        ranks: usize,
        tuning: impl Into<Rc<CollTuning>>,
    ) -> CollEngine {
        let tuning = tuning.into();
        CollEngine {
            inner: Rc::new(EngineInner {
                session,
                rank,
                ranks,
                tags: TagAllocator::new(),
                tuning,
                counters: RefCell::new(CollCounters::default()),
            }),
        }
    }

    /// This engine's rank.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Number of participating ranks.
    pub fn ranks(&self) -> usize {
        self.inner.ranks
    }

    /// The tuning in effect.
    pub fn tuning(&self) -> &CollTuning {
        &self.inner.tuning
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CollCounters {
        *self.inner.counters.borrow()
    }

    /// The algorithm the auto-selector would pick for this call shape.
    pub fn select(&self, kind: &CollKind, len: usize) -> AlgoKind {
        self.inner.tuning.select(kind, len, self.inner.ranks)
    }

    /// Plans one collective: picks the algorithm (unless `force`d), lays
    /// out this rank's DAG and claims the next tag generation. Tag
    /// allocation happens here — in call order, identically on every rank
    /// — never inside a spawned executor, whose scheduling is not part of
    /// the ordering contract.
    fn prepare(&self, kind: CollKind, len: usize, force: Option<AlgoKind>) -> (Plan, TagSpace) {
        let algo = force.unwrap_or_else(|| self.select(&kind, len));
        let spec = CollSpec {
            kind,
            len,
            ranks: self.inner.ranks,
            chunk: self.inner.tuning.ring_chunk_bytes,
        };
        let mut plan = algo.algorithm().plan(&spec, self.inner.rank);
        plan.shrink_to_fit();
        let space = self.inner.tags.alloc(kind.id());
        (plan, space)
    }

    /// Runs one collective to completion on the calling thread.
    ///
    /// `bufs` follows the slot convention of [`CollKind`]; `len` is the
    /// uniform payload length (selection and ring segmentation input);
    /// `force` bypasses auto-selection.
    ///
    /// The run is boxed, one allocation per collective: its executor
    /// state would otherwise sit inside the caller's future, and the
    /// caller's thread, for the thread's whole life.
    pub fn coll<'a>(
        &'a self,
        ctx: &'a ThreadCtx,
        kind: CollKind,
        len: usize,
        mut bufs: Vec<Vec<u8>>,
        force: Option<AlgoKind>,
    ) -> impl Future<Output = Vec<Vec<u8>>> + 'a {
        Box::pin(async move {
            let (plan, space) = self.prepare(kind, len, force);
            self.run_plan(ctx, &plan, &mut bufs, space).await;
            let verify = ctx.marcel().sim().verify();
            verify.lock_acquire("coll.state");
            self.inner.counters.borrow_mut().collectives += 1;
            verify.lock_release("coll.state");
            bufs
        })
    }

    /// Starts one collective nonblockingly: a dedicated Marcel thread
    /// drives the DAG while the caller returns immediately with a
    /// [`CollHandle`]. The executor thread is ordinary schedulable work,
    /// so it runs exactly when a core is idle — the collective's steps
    /// overlap the application's compute.
    pub fn icoll(
        &self,
        ctx: &ThreadCtx,
        kind: CollKind,
        len: usize,
        bufs: Vec<Vec<u8>>,
        force: Option<AlgoKind>,
    ) -> CollHandle {
        let (plan, space) = self.prepare(kind, len, force);
        let sim = ctx.marcel().sim().clone();
        let req = PiomReq::new(&sim, "coll");
        let out: Rc<RefCell<Option<Vec<Vec<u8>>>>> = Rc::new(RefCell::new(None));
        let engine = self.clone();
        let req2 = req.clone();
        let out2 = Rc::clone(&out);
        let sim2 = sim.clone();
        ctx.marcel().spawn(
            format!("coll-{}", kind.name()),
            Priority::Normal,
            None,
            move |tctx| async move {
                let mut bufs = bufs;
                engine.run_plan(&tctx, &plan, &mut bufs, space).await;
                sim2.verify().lock_acquire("coll.state");
                {
                    let mut c = engine.inner.counters.borrow_mut();
                    c.collectives += 1;
                    c.nonblocking += 1;
                }
                sim2.verify().lock_release("coll.state");
                *out2.borrow_mut() = Some(bufs);
                req2.complete(&sim2);
            },
        );
        CollHandle {
            req,
            out,
            posted_at: sim.now(),
            engine: self.clone(),
        }
    }

    /// Executes a plan: issue every dependency-satisfied step, wait for
    /// any completion, apply it, repeat.
    // A plain `fn` around an `async move` block: an `async fn` would keep
    // its arguments twice in the executor's state.
    #[allow(clippy::manual_async_fn)]
    fn run_plan<'a>(
        &'a self,
        ctx: &'a ThreadCtx,
        plan: &'a Plan,
        bufs: &'a mut [Vec<u8>],
        space: TagSpace,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            let n = plan.steps.len();
            if n == 0 {
                return;
            }
            let session = &self.inner.session;
            // A dependency on a *send* step is satisfied at issue time: the
            // payload is materialized (copied out of the slot) when the send
            // is submitted, so a WAR successor may overwrite the slot right
            // away. Waiting for send *completion* would deadlock symmetric
            // exchanges on the rendezvous path, where a send only completes
            // once the peer posts the matching receive. Dependencies on
            // receive steps need the data and wait for completion.
            // One flag byte per step: `ISSUED`, then `DONE` on completion.
            const ISSUED: u8 = 1;
            const DONE: u8 = 2;
            let mut flags = vec![0u8; n];
            let dep_ok = |flags: &[u8], d: usize| {
                let need = if plan.steps[d].is_send() {
                    ISSUED
                } else {
                    DONE
                };
                flags[d] & need != 0
            };
            // The steps in flight (plan indices fit 32 bits) and their
            // requests, index for index: a completion is `swap_remove`d
            // from both at the same index, so `swait_any` sees the
            // requests in `inflight`'s order. They grow one slot at a
            // time and live as long as the collective runs: doubling
            // slack would cost every rank blocked in it its bytes.
            let mut inflight: Vec<u32> = Vec::new();
            let mut reqs: Vec<PiomReq> = Vec::new();
            let mut completed = 0usize;
            while completed < n {
                for i in 0..n {
                    if flags[i] & ISSUED != 0 || !plan.deps(i).all(|d| dep_ok(&flags, d)) {
                        continue;
                    }
                    flags[i] |= ISSUED;
                    let step = &plan.steps[i];
                    let tag = space.tag(u64::from(step.flow));
                    let sim = ctx.marcel().sim();
                    sim.obs().emit(
                        sim.now(),
                        Some(ctx.marcel().node().0),
                        EventKind::CollStep {
                            rank: self.inner.rank,
                            step: i,
                            flow: u64::from(step.flow),
                            peer: step.peer as usize,
                            send: step.is_send(),
                        },
                    );
                    let req = match plan.op(i) {
                        StepOp::Send(src) => {
                            let bytes = materialize(bufs, src);
                            sim.verify().lock_acquire("coll.state");
                            {
                                let mut c = self.inner.counters.borrow_mut();
                                c.sends += 1;
                                c.bytes_sent += bytes.len() as u64;
                                if matches!(src, SendSrc::Slot { range: Some(_), .. }) {
                                    c.chunks += 1;
                                }
                            }
                            sim.verify().lock_release("coll.state");
                            let h = session
                                .isend(ctx, NodeId(step.peer as usize), tag, bytes)
                                .await;
                            h.req().clone()
                        }
                        StepOp::Recv(_) => {
                            let h = session
                                .irecv(ctx, Some(NodeId(step.peer as usize)), tag)
                                .await;
                            h.req().clone()
                        }
                    };
                    if reqs.len() == reqs.capacity() {
                        inflight.reserve_exact(1);
                        reqs.reserve_exact(1);
                    }
                    inflight.push(i as u32);
                    reqs.push(req);
                }
                let idx = session.swait_any(&reqs, ctx).await;
                let i = inflight.swap_remove(idx) as usize;
                let req = reqs.swap_remove(idx);
                if let StepOp::Recv(dst) = plan.op(i) {
                    let data = req.take_data().expect("completed receive carries data");
                    ctx.marcel().sim().verify().lock_acquire("coll.state");
                    {
                        let mut c = self.inner.counters.borrow_mut();
                        c.recvs += 1;
                        c.bytes_recv += data.len() as u64;
                    }
                    ctx.marcel().sim().verify().lock_release("coll.state");
                    apply_recv(bufs, dst, data);
                }
                let verify = ctx.marcel().sim().verify();
                verify.lock_acquire("coll.state");
                self.inner.counters.borrow_mut().steps += 1;
                verify.lock_release("coll.state");
                flags[i] |= DONE;
                completed += 1;
            }
        }
    }
}

/// Handle of a nonblocking collective started with [`CollEngine::icoll`].
pub struct CollHandle {
    req: PiomReq,
    out: Rc<RefCell<Option<Vec<Vec<u8>>>>>,
    posted_at: SimTime,
    engine: CollEngine,
}

impl CollHandle {
    /// True once the collective has completed (the result is ready).
    pub fn is_complete(&self) -> bool {
        self.req.is_complete()
    }

    /// The underlying request (compose with `Session::swait_any`).
    pub fn req(&self) -> &PiomReq {
        &self.req
    }

    /// Waits for completion and returns the buffer slots.
    ///
    /// The post-to-wait window (capped at the completion instant) is
    /// accounted as overlap time in [`CollCounters::overlap_ns`] — virtual
    /// time the application spent computing while the collective
    /// progressed in the background.
    pub async fn wait(&self, ctx: &ThreadCtx) -> Vec<Vec<u8>> {
        let now = ctx.marcel().sim().now();
        // completed_at() models an atomic load of the completion record and
        // stays uninstrumented (swait below performs the verified acquire).
        let progressed_until = self.req.completed_at().unwrap_or(now).min(now);
        let verify = ctx.marcel().sim().verify();
        verify.lock_acquire("coll.state");
        self.engine.inner.counters.borrow_mut().overlap_ns +=
            progressed_until.saturating_since(self.posted_at).as_nanos();
        verify.lock_release("coll.state");
        self.engine.inner.session.swait(&self.req, ctx).await;
        self.out
            .borrow_mut()
            .take()
            .expect("completed collective carries buffers")
    }
}
