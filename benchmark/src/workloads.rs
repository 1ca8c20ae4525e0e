//! The four benchmark programs and their output checks.
//!
//! Each program runs on a fresh [`Cluster`] and touches the crates only
//! through their public API. The app threads stamp `sim.now()` around
//! their own communication calls (the benchmark-side spans), check every
//! received payload against the generator and tally failures instead of
//! panicking.

use crate::gen::{
    all_bytes_are, check_payload, msg_id, payload, Plan, Stream, INCAST_LOSS, OVERLAP_COMPUTE_NS,
    RING_WIRE_JITTER, SALT_FAULT, STEP_GRAD_BYTES, STEP_PUT_BYTES,
};
use pm2_coll::ReduceOp;
use pm2_fabric::FaultPlan;
use pm2_marcel::ThreadCtx;
use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_newmad::{EngineKind, RecvHandle, SendHandle, Session, Tag};
use pm2_sim::{Sim, SimDuration};
use pm2_topo::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

/// Window ids of coll_rma_step: one ring window per rank, one hot
/// accumulate window on rank 0.
const WIN_RING: u64 = 11;
const WIN_HOT: u64 = 12;
const HOT_BYTES: usize = 8;

/// What the app threads observed during one run.
#[derive(Default)]
pub struct Tally {
    /// Ops whose outcome was checked (messages received, rank-steps done).
    pub attempted: u64,
    /// Ops with a typed `ReqError` on a handle or a wrong/missing payload.
    pub failed: u64,
    /// Per-op latency samples, virtual ns.
    pub lat_ns: Vec<u64>,
    /// Virtual ns app threads spent inside communication calls.
    pub comm_ns: u64,
    /// Virtual ns of app-thread lifetime.
    pub life_ns: u64,
    /// Virtual instant the last app thread finished: the makespan. (The
    /// simulation itself goes quiet up to one scheduler timer tick later.)
    pub last_finish_ns: u64,
    /// Open-loop generator lateness (post − due), virtual ns.
    pub late_ns: Vec<u64>,
    /// `Window::flush` waits, virtual ns.
    pub flush_ns: Vec<u64>,
    /// Structural check failures (any makes the command exit non-zero).
    pub errors: Vec<String>,
}

/// Per-thread handle on the shared tally and the clock.
#[derive(Clone)]
struct App {
    sim: Sim,
    tally: Rc<RefCell<Tally>>,
}

impl App {
    fn now_ns(&self) -> u64 {
        self.sim.now().as_nanos()
    }

    /// Awaits a communication call, charging its virtual duration to the
    /// exposed-communication total.
    async fn comm<T>(&self, call: impl Future<Output = T>) -> T {
        let t0 = self.now_ns();
        let out = call.await;
        self.tally.borrow_mut().comm_ns += self.now_ns() - t0;
        out
    }

    /// Records one checked op; `stamp` is the instant its latency runs from.
    fn op_done(&self, stamp: Option<u64>) {
        let mut t = self.tally.borrow_mut();
        t.attempted += 1;
        match stamp {
            Some(t0) => {
                let lat = self.now_ns().saturating_sub(t0);
                t.lat_ns.push(lat);
            }
            None => t.failed += 1,
        }
    }

    /// A send handle finished: a typed error fails the op.
    fn send_done(&self, h: &SendHandle) {
        if h.req().error().is_some() {
            self.tally.borrow_mut().failed += 1;
        }
    }

    /// A receive handle finished: checks the error state and the payload.
    fn recv_done(&self, h: &RecvHandle, id: u64, len: usize) {
        let stamp = match (h.req().error(), h.take_data()) {
            (None, Some(data)) => check_payload(&data, id, len),
            _ => None,
        };
        self.op_done(stamp);
    }

    async fn post_send(
        &self,
        sess: &Session,
        ctx: &ThreadCtx,
        dest: usize,
        tag: Tag,
        data: Vec<u8>,
    ) -> SendHandle {
        self.comm(sess.isend(ctx, NodeId(dest), tag, data)).await
    }

    async fn wait_send(&self, sess: &Session, ctx: &ThreadCtx, h: &SendHandle) {
        self.comm(sess.swait_send(h, ctx)).await;
        self.send_done(h);
    }

    /// `irecv → compute → swait → check`; `compute` may be zero.
    #[allow(clippy::too_many_arguments)]
    async fn recv_msg(
        &self,
        sess: &Session,
        ctx: &ThreadCtx,
        src: usize,
        tag: Tag,
        id: u64,
        len: usize,
        compute: SimDuration,
    ) {
        let h = self.comm(sess.irecv(ctx, Some(NodeId(src)), tag)).await;
        if !compute.is_zero() {
            ctx.compute(compute).await;
        }
        // `swait` on the raw request, not `swait_recv`: a failed request
        // carries no payload and must count as a failed op, not a panic.
        self.comm(sess.swait(h.req(), ctx)).await;
        self.recv_done(&h, id, len);
    }

    /// `isend → compute → swait`, stamped with the post instant.
    #[allow(clippy::too_many_arguments)]
    async fn send_msg(
        &self,
        sess: &Session,
        ctx: &ThreadCtx,
        dest: usize,
        tag: Tag,
        id: u64,
        len: usize,
        compute: SimDuration,
    ) {
        let data = payload(id, self.now_ns(), len);
        let h = self.post_send(sess, ctx, dest, tag, data).await;
        if !compute.is_zero() {
            ctx.compute(compute).await;
        }
        self.wait_send(sess, ctx, &h).await;
    }
}

/// A built cluster with its app threads installed, ready to run.
pub struct Built {
    pub cluster: Cluster,
    /// One communicator per rank where the workload uses collectives.
    pub comms: Vec<Comm>,
    pub tally: Rc<RefCell<Tally>>,
    /// Wall ns spent inside `Cluster::build`.
    pub build_ns: u64,
}

/// The cluster each workload runs on; `seed` drives the simulation RNG and
/// the fault plan.
pub fn cluster_config(plan: &Plan, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_testbed(EngineKind::Pioman);
    cfg.seed = seed;
    match plan {
        Plan::Overlap(_) => {}
        Plan::Ring { ranks, .. } => {
            // A scaled-down node so 1024 schedulers stay cheap: one app
            // thread plus one core for stolen progression.
            cfg.nodes = *ranks;
            cfg.sockets_per_node = 1;
            cfg.cores_per_socket = 2;
            cfg.fabric.jitter_frac = RING_WIRE_JITTER;
        }
        Plan::Incast { ranks, .. } => {
            cfg.nodes = *ranks;
            cfg.fabric.fault = FaultPlan::loss(seed ^ SALT_FAULT, INCAST_LOSS);
        }
        Plan::Step { ranks, .. } => cfg.nodes = *ranks,
    }
    cfg
}

/// Builds the cluster for `plan` and spawns its app threads.
pub fn build(plan: &Rc<Plan>, seed: u64) -> Built {
    let t0 = std::time::Instant::now();
    let cluster = Cluster::build(cluster_config(plan, seed));
    let build_ns = t0.elapsed().as_nanos() as u64;
    let tally = Rc::new(RefCell::new(Tally::default()));
    let comms = match **plan {
        Plan::Overlap(_) => {
            install_overlap(&cluster, plan, &tally);
            Vec::new()
        }
        Plan::Ring { .. } => install_ring(&cluster, plan, &tally),
        Plan::Incast { .. } => {
            install_incast(&cluster, plan, &tally);
            Vec::new()
        }
        Plan::Step { .. } => install_step(&cluster, plan, &tally),
    };
    Built {
        cluster,
        comms,
        tally,
        build_ns,
    }
}

/// Spawns an app thread whose lifetime is charged to the tally.
fn spawn_app<F, Fut>(
    cluster: &Cluster,
    node: usize,
    name: String,
    tally: &Rc<RefCell<Tally>>,
    body: F,
) where
    F: FnOnce(ThreadCtx, App) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let app = App {
        sim: cluster.sim().clone(),
        tally: Rc::clone(tally),
    };
    cluster.spawn_on(node, name, move |ctx| async move {
        let t0 = app.now_ns();
        body(ctx, app.clone()).await;
        let mut t = app.tally.borrow_mut();
        t.life_ns += app.now_ns() - t0;
        t.last_finish_ns = t.last_finish_ns.max(app.now_ns());
    });
}

/// overlap_2n: the paper's fig. 4 loop, four thread pairs across two
/// nodes, closed loop. Node 0's thread sends first, then the direction
/// reverses.
fn install_overlap(cluster: &Cluster, plan: &Rc<Plan>, tally: &Rc<RefCell<Tally>>) {
    let Plan::Overlap(pairs) = &**plan else {
        unreachable!("overlap plan")
    };
    let compute = SimDuration::from_nanos(OVERLAP_COMPUTE_NS);
    for p in 0..pairs.len() {
        let (fwd_tag, back_tag) = (Tag(2 * p as u64), Tag(2 * p as u64 + 1));
        for node in 0..2 {
            let sess = cluster.session(node).clone();
            let plan = Rc::clone(plan);
            spawn_app(
                cluster,
                node,
                format!("pair{p}-n{node}"),
                tally,
                move |ctx, app| async move {
                    let Plan::Overlap(pairs) = &*plan else {
                        unreachable!("overlap plan")
                    };
                    for (i, &(fwd, back)) in pairs[p].iter().enumerate() {
                        let (fwd_id, back_id) = (msg_id(2 * p, i), msg_id(2 * p + 1, i));
                        if node == 0 {
                            app.send_msg(&sess, &ctx, 1, fwd_tag, fwd_id, fwd, compute)
                                .await;
                            app.recv_msg(&sess, &ctx, 1, back_tag, back_id, back, compute)
                                .await;
                        } else {
                            app.recv_msg(&sess, &ctx, 0, fwd_tag, fwd_id, fwd, compute)
                                .await;
                            app.send_msg(&sess, &ctx, 0, back_tag, back_id, back, compute)
                                .await;
                        }
                    }
                },
            );
        }
    }
}

/// ring_1024: barrier, `rounds` neighbour exchanges of ≈64 B, barrier;
/// closed loop with one message in flight per rank.
fn install_ring(cluster: &Cluster, plan: &Rc<Plan>, tally: &Rc<RefCell<Tally>>) -> Vec<Comm> {
    let comms = Comm::world(cluster);
    for (rank, comm) in comms.iter().cloned().enumerate() {
        let plan = Rc::clone(plan);
        spawn_app(
            cluster,
            rank,
            format!("rank{rank}"),
            tally,
            move |ctx, app| async move {
                let Plan::Ring {
                    ranks,
                    rounds,
                    sizes,
                } = &*plan
                else {
                    unreachable!("ring plan")
                };
                let (ranks, rounds) = (*ranks, *rounds);
                let sess = comm.session().clone();
                let (right, left) = ((rank + 1) % ranks, (rank + ranks - 1) % ranks);
                app.comm(comm.barrier(&ctx)).await;
                for round in 0..rounds {
                    let tag = Tag(1000 + round as u64);
                    let len = usize::from(sizes[rank * rounds + round]);
                    let data = payload(msg_id(rank, round), app.now_ns(), len);
                    let h = app.post_send(&sess, &ctx, right, tag, data).await;
                    let left_len = usize::from(sizes[left * rounds + round]);
                    app.recv_msg(
                        &sess,
                        &ctx,
                        left,
                        tag,
                        msg_id(left, round),
                        left_len,
                        SimDuration::ZERO,
                    )
                    .await;
                    app.wait_send(&sess, &ctx, &h).await;
                }
                app.comm(comm.barrier(&ctx)).await;
            },
        );
    }
    comms
}

fn stream_of(plan: &Plan, id: usize) -> &Stream {
    let Plan::Incast { streams, .. } = plan else {
        unreachable!("incast plan")
    };
    &streams[id]
}

/// incast_lossy: open loop in virtual time. Each stream has a sender
/// thread that posts at the generated due instants whatever the state of
/// earlier sends, and a receiver thread that takes the messages in order.
fn install_incast(cluster: &Cluster, plan: &Rc<Plan>, tally: &Rc<RefCell<Tally>>) {
    let Plan::Incast {
        streams,
        late_away_ns,
        ..
    } = &**plan
    else {
        unreachable!("incast plan")
    };
    let late_away = SimDuration::from_nanos(*late_away_ns);
    for (id, stream) in streams.iter().enumerate() {
        let (src, dst) = (stream.src, stream.dst);
        // Per-message tags: under loss a retransmitted message may be
        // overtaken, and same-tag ordering is not part of the library's
        // exactly-once contract.
        let tag_of = move |seq: usize| Tag(msg_id(id, seq));
        {
            let sess = cluster.session(src).clone();
            let plan = Rc::clone(plan);
            spawn_app(
                cluster,
                src,
                format!("tx{id}"),
                tally,
                move |ctx, app| async move {
                    let mut inflight: VecDeque<SendHandle> = VecDeque::new();
                    for (seq, &(due, len)) in stream_of(&plan, id).msgs.iter().enumerate() {
                        let now = app.now_ns();
                        if now < due {
                            ctx.sleep(SimDuration::from_nanos(due - now)).await;
                        }
                        let late = app.now_ns() - due;
                        app.tally.borrow_mut().late_ns.push(late);
                        // Latency runs from the due instant, so a stalled
                        // generator shows as latency, not as lower load.
                        let data = payload(msg_id(id, seq), due, len);
                        let h = app.post_send(&sess, &ctx, dst, tag_of(seq), data).await;
                        inflight.push_back(h);
                        while inflight.front().is_some_and(SendHandle::is_complete) {
                            let done = inflight.pop_front().expect("front checked");
                            app.send_done(&done);
                        }
                    }
                    for h in inflight {
                        app.wait_send(&sess, &ctx, &h).await;
                    }
                },
            );
        }
        {
            let sess = cluster.session(dst).clone();
            let plan = Rc::clone(plan);
            spawn_app(
                cluster,
                dst,
                format!("rx{id}"),
                tally,
                move |ctx, app| async move {
                    let stream = stream_of(&plan, id);
                    for (seq, &(_, len)) in stream.msgs.iter().enumerate() {
                        app.recv_msg(
                            &sess,
                            &ctx,
                            src,
                            tag_of(seq),
                            msg_id(id, seq),
                            len,
                            SimDuration::ZERO,
                        )
                        .await;
                        if stream.late {
                            ctx.sleep(late_away).await;
                        }
                    }
                },
            );
        }
    }
}

/// coll_rma_step: per step, a 256 KiB allreduce overlapped with compute,
/// then a 64 KiB put to the right neighbour and an 8 B accumulate into
/// rank 0's hot window, flush, barrier.
fn install_step(cluster: &Cluster, plan: &Rc<Plan>, tally: &Rc<RefCell<Tally>>) -> Vec<Comm> {
    let comms = Comm::world(cluster);
    for (rank, comm) in comms.iter().cloned().enumerate() {
        let plan = Rc::clone(plan);
        let rma = cluster.rma(rank).clone();
        spawn_app(
            cluster,
            rank,
            format!("train{rank}"),
            tally,
            move |ctx, app| async move {
                let Plan::Step {
                    ranks,
                    steps,
                    compute_ns,
                    contrib,
                } = &*plan
                else {
                    unreachable!("step plan")
                };
                let (ranks, steps) = (*ranks, *steps);
                let (right, left) = ((rank + 1) % ranks, (rank + ranks - 1) % ranks);
                let ring = rma.window_create(&ctx, WIN_RING, STEP_PUT_BYTES).await;
                let hot = if rank == 0 {
                    rma.window_create(&ctx, WIN_HOT, HOT_BYTES).await
                } else {
                    rma.window(WIN_HOT)
                };
                // Every window is exposed before the first one-sided op.
                app.comm(comm.barrier(&ctx)).await;
                for step in 0..steps {
                    let t0 = app.now_ns();
                    let mine = contrib[rank * steps + step];
                    let want =
                        (0..ranks).fold(0u8, |acc, r| acc.wrapping_add(contrib[r * steps + step]));
                    let h = comm.iallreduce(&ctx, vec![mine; STEP_GRAD_BYTES], ReduceOp::WrapAdd8);
                    ctx.compute(SimDuration::from_nanos(compute_ns[rank * steps + step]))
                        .await;
                    let reduced = app.comm(h.wait(&ctx)).await;
                    let mut ok = reduced.len() == STEP_GRAD_BYTES && all_bytes_are(&reduced, want);

                    ring.put(&ctx, NodeId(right), 0, vec![mine; STEP_PUT_BYTES]);
                    hot.accumulate(&ctx, NodeId(0), 0, vec![mine; HOT_BYTES]);
                    let f0 = app.now_ns();
                    app.comm(async {
                        ring.flush(&ctx).await;
                        hot.flush(&ctx).await;
                    })
                    .await;
                    let flush = app.now_ns() - f0;
                    app.tally.borrow_mut().flush_ns.push(flush);
                    app.comm(comm.barrier(&ctx)).await;
                    // Every rank flushed before the barrier, so the left
                    // neighbour's put has landed; its next put cannot be
                    // issued before this rank joins the next allreduce.
                    let landed = ring.read_local(0, STEP_PUT_BYTES);
                    ok &= all_bytes_are(&landed, contrib[left * steps + step]);
                    app.op_done(ok.then_some(t0));
                }
                if rank == 0 {
                    let total = contrib.iter().fold(0u8, |acc, c| acc.wrapping_add(*c));
                    if !all_bytes_are(&hot.read_local(0, HOT_BYTES), total) {
                        app.tally
                            .borrow_mut()
                            .errors
                            .push("hot window does not hold the sum of all accumulates".into());
                    }
                }
            },
        );
    }
    comms
}

/// Structural checks after a run reached quiescence; returns the failures.
pub fn structural_checks(built: &Built, plan: &Plan) -> Vec<String> {
    let mut errors = Vec::new();
    let cluster = &built.cluster;
    let tally = built.tally.borrow();
    if tally.attempted != plan.ops() {
        errors.push(format!(
            "{} ops checked, the plan has {}",
            tally.attempted,
            plan.ops()
        ));
    }
    if cluster.sim().pending_events() != 0 {
        errors.push(format!(
            "{} events still pending at quiescence",
            cluster.sim().pending_events()
        ));
    }
    // Message balance: retransmissions re-enter the wire as raw packs, so
    // application sends and first transmissions agree exactly.
    let (mut tx, mut fates, mut dup) = (0u64, 0u64, 0u64);
    for node in 0..cluster.ranks() {
        let c = cluster.session(node).counters();
        if c.eager_msgs_tx + c.rdv_started != c.sends {
            errors.push(format!(
                "rank {node}: eager_msgs_tx {} + rdv_started {} != sends {}",
                c.eager_msgs_tx, c.rdv_started, c.sends
            ));
        }
        if c.retries_exhausted != 0 {
            errors.push(format!(
                "rank {node}: {} envelopes exhausted their retries",
                c.retries_exhausted
            ));
        }
        let n = cluster.nic_counters(node, 0);
        tx += n.tx_frames;
        fates += n.rx_frames + n.faults_dropped + n.faults_corrupted;
        dup += n.faults_duplicated;
    }
    // Frame balance, fabric-global: every frame meets exactly one fate.
    if fates != tx + dup {
        errors.push(format!(
            "frame balance: rx+dropped+corrupted {fates} != tx {tx} + duplicated {dup}"
        ));
    }
    errors.extend(tally.errors.iter().cloned());
    errors
}
