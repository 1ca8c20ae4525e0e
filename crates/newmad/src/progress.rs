//! The progression layer: per-transport PIOMAN drivers, the shared
//! submission engine, and the sequential engine's inline progress unit.
//!
//! Since the sharded-progression refactor each transport registers its
//! own driver with the PIOMAN registry:
//!
//! * one [`RailDriver`] per NIC rail — multirail rails progress
//!   independently, so an idle core draining rail 0 never blocks rail 1;
//! * one [`ShmDriver`] for the shared-memory channel (which doubles as
//!   the self-loopback path: messages a node sends to itself).
//!
//! Submission order across the per-transport pack lists is preserved by
//! [`Pack::seq`] stamps: the registry serves the globally-oldest pack
//! first, so a FIFO strategy behaves exactly as it did with the single
//! monolithic driver.
//!
//! [`Pack::seq`]: crate::strategy::Pack::seq

use crate::msg::{ShmMsg, WireMsg};
use crate::session::{Session, SessionInner};
use crate::strategy::Submission;
use pioman::{DriverPending, Progress, ProgressDriver};
use pm2_sim::obs::EventKind;
use pm2_sim::{SimDuration, Trigger};
use pm2_topo::NodeId;
use std::rc::Weak;

/// PIOMAN driver for one NIC rail: submits network-bound packs and polls
/// this rail's receive queue.
pub(crate) struct RailDriver {
    pub(crate) session: Weak<SessionInner>,
    pub(crate) rail: usize,
}

impl ProgressDriver for RailDriver {
    fn progress(&self) -> Progress {
        match self.session.upgrade() {
            Some(inner) => Session { inner }.rail_progress(self.rail),
            None => Progress::NONE,
        }
    }
    fn pending(&self) -> DriverPending {
        match self.session.upgrade() {
            Some(inner) => Session { inner }.rail_pending(self.rail),
            None => DriverPending::default(),
        }
    }
    fn hw_trigger(&self) -> Option<Trigger> {
        self.session
            .upgrade()
            .map(|inner| inner.rails[self.rail].hw_trigger())
    }
}

/// PIOMAN driver for the shared-memory channel (intra-node/self traffic).
pub(crate) struct ShmDriver {
    pub(crate) session: Weak<SessionInner>,
}

impl ProgressDriver for ShmDriver {
    fn progress(&self) -> Progress {
        match self.session.upgrade() {
            Some(inner) => Session { inner }.shm_progress(),
            None => Progress::NONE,
        }
    }
    fn pending(&self) -> DriverPending {
        match self.session.upgrade() {
            Some(inner) => Session { inner }.shm_pending(),
            None => DriverPending::default(),
        }
    }
    fn hw_trigger(&self) -> Option<Trigger> {
        self.session.upgrade().map(|inner| inner.shm.hw_trigger())
    }
}

impl Session {
    // ----- per-driver pending ---------------------------------------------

    /// What rail `idx`'s driver has outstanding. Matching interest
    /// (posted receives, in-flight rendezvous) arms every rail: any of
    /// them may carry the frame that advances the protocol.
    pub(crate) fn rail_pending(&self, idx: usize) -> DriverPending {
        let st = self.inner.state.borrow();
        DriverPending {
            submissions: !st.net_packs.is_empty(),
            armed: !st.posted.is_empty()
                || !st.rdv_sends.is_empty()
                || !st.rdv_recvs.is_empty()
                // Unacked reliability envelopes wait for their acks.
                || !st.rel_pending.is_empty()
                // In-flight one-sided ops wait for their acks/replies, and
                // half-assembled chunked puts for their remaining chunks.
                || st.rma_inflight > 0
                || !st.rma_chunks.is_empty()
                || !st.rma_get_chunks.is_empty()
                // Unsolicited traffic (unexpected messages, incoming RTS)
                // must be drained even with nothing posted.
                || self.inner.rails[idx].rx_pending(),
            oldest_submission: st.net_packs.front().map(|p| p.seq),
        }
    }

    /// What the shared-memory driver has outstanding. Only actual channel
    /// input arms it: shm delivery is synchronous with the copy, so there
    /// is never a completion to poll for without a visible message.
    pub(crate) fn shm_pending(&self) -> DriverPending {
        let st = self.inner.state.borrow();
        DriverPending {
            submissions: !st.shm_packs.is_empty(),
            armed: self.inner.shm.pending(),
            oldest_submission: st.shm_packs.front().map(|p| p.seq),
        }
    }

    /// Union view (used by the sequential engine's flush).
    pub(crate) fn pending(&self) -> DriverPending {
        let st = self.inner.state.borrow();
        DriverPending {
            submissions: !st.net_packs.is_empty() || !st.shm_packs.is_empty(),
            armed: !st.posted.is_empty()
                || !st.rdv_sends.is_empty()
                || !st.rdv_recvs.is_empty()
                || !st.rel_pending.is_empty()
                || st.rma_inflight > 0
                || !st.rma_chunks.is_empty()
                || !st.rma_get_chunks.is_empty()
                || self.inner.rails.iter().any(|r| r.rx_pending())
                || self.inner.shm.pending(),
            oldest_submission: match (
                st.net_packs.front().map(|p| p.seq),
                st.shm_packs.front().map(|p| p.seq),
            ) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    // ----- per-driver progress --------------------------------------------

    /// One unit of progress on rail `idx`: submit the oldest network
    /// pack, else drain one received frame, else report an unproductive
    /// poll (the registry discards it if another shard works).
    pub(crate) fn rail_progress(&self, idx: usize) -> Progress {
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(self.inner.node.0));
        verify.lock_acquire("newmad.state");
        let submission = {
            let mut st = self.inner.state.borrow_mut();
            let st = &mut *st;
            self.inner.strategy.pop(&mut st.net_packs)
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        if let Some(sub) = submission {
            let cost = self.submit(sub);
            return Progress {
                cost,
                did_work: true,
            };
        }
        let rail = &self.inner.rails[idx];
        if let Some(frame) = rail.rx_poll() {
            let handling = self.handle_wire(frame.src, frame.payload);
            self.note_driver_work(idx);
            return Progress {
                cost: rail.poll_cost() + handling,
                did_work: true,
            };
        }
        Progress {
            cost: rail.poll_cost(),
            did_work: false,
        }
    }

    /// One unit of progress on the shared-memory channel.
    pub(crate) fn shm_progress(&self) -> Progress {
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(self.inner.node.0));
        verify.lock_acquire("newmad.state");
        let submission = {
            let mut st = self.inner.state.borrow_mut();
            let st = &mut *st;
            self.inner.strategy.pop(&mut st.shm_packs)
        };
        verify.lock_release("newmad.state");
        verify.set_node(vnode);
        if let Some(sub) = submission {
            let cost = self.submit(sub);
            return Progress {
                cost,
                did_work: true,
            };
        }
        if let Some(msg) = self.inner.shm.poll() {
            let cost = self.handle_shm(msg);
            self.note_driver_work(self.inner.rails.len());
            return Progress {
                cost,
                did_work: true,
            };
        }
        Progress::NONE
    }

    /// Tallies a productive step on driver shard `idx` (rails…, shm).
    fn note_driver_work(&self, idx: usize) {
        let verify = self.inner.sim.verify();
        verify.lock_acquire("newmad.state");
        {
            let mut st = self.inner.state.borrow_mut();
            st.driver_work[idx] += 1;
            if idx < self.inner.rails.len() {
                st.counters.net_progress += 1;
            } else {
                st.counters.shm_progress += 1;
            }
        }
        verify.lock_release("newmad.state");
    }

    /// Productive progress steps per driver shard, in driver registration
    /// order (one entry per rail, then shared memory).
    pub fn driver_progress(&self) -> Vec<u64> {
        self.inner.state.borrow().driver_work.clone()
    }

    // ----- sequential engine ----------------------------------------------

    /// One unit of progress: submit one frame or poll one source.
    ///
    /// The sequential engine calls this inline from `swait`; under the
    /// PIOMAN engine the equivalent scheduling decision is made by the
    /// driver registry over its rail and shared-memory drivers.
    pub fn progress_unit(&self) -> Progress {
        let verify = self.inner.sim.verify();
        let vnode = verify.set_node(Some(self.inner.node.0));
        let p = self.progress_unit_inner();
        verify.set_node(vnode);
        p
    }

    fn progress_unit_inner(&self) -> Progress {
        let verify = self.inner.sim.verify();
        // 1. Feed the network: pop the globally-oldest submission.
        verify.lock_acquire("newmad.state");
        let submission = {
            let mut st = self.inner.state.borrow_mut();
            let st = &mut *st;
            let net = st.net_packs.front().map(|p| p.seq);
            let shm = st.shm_packs.front().map(|p| p.seq);
            let queue = match (net, shm) {
                (Some(a), Some(b)) if b < a => Some(&mut st.shm_packs),
                (Some(_), _) => Some(&mut st.net_packs),
                (None, Some(_)) => Some(&mut st.shm_packs),
                (None, None) => None,
            };
            queue.and_then(|q| self.inner.strategy.pop(q))
        };
        verify.lock_release("newmad.state");
        if let Some(sub) = submission {
            let cost = self.submit(sub);
            return Progress {
                cost,
                did_work: true,
            };
        }
        // 2. Poll one input source (rails and shm in rotation).
        let n_sources = self.inner.rails.len() + 1;
        for _ in 0..n_sources {
            verify.lock_acquire("newmad.state");
            let rotor = {
                let mut st = self.inner.state.borrow_mut();
                let r = st.poll_rotor;
                st.poll_rotor = (st.poll_rotor + 1) % n_sources;
                r
            };
            verify.lock_release("newmad.state");
            if rotor < self.inner.rails.len() {
                let rail = &self.inner.rails[rotor];
                if let Some(frame) = rail.rx_poll() {
                    let handling = self.handle_wire(frame.src, frame.payload);
                    self.note_driver_work(rotor);
                    return Progress {
                        cost: rail.poll_cost() + handling,
                        did_work: true,
                    };
                }
            } else if let Some(msg) = self.inner.shm.poll() {
                let cost = self.handle_shm(msg);
                self.note_driver_work(self.inner.rails.len());
                return Progress {
                    cost,
                    did_work: true,
                };
            }
        }
        // 3. Nothing arrived: an unproductive poll if something is armed.
        if self.pending().armed {
            Progress {
                cost: self.inner.rails[0].poll_cost(),
                did_work: false,
            }
        } else {
            Progress::NONE
        }
    }

    // ----- submission and dispatch ----------------------------------------

    /// Executes one submission; returns host CPU cost.
    pub(crate) fn submit(&self, sub: Submission) -> SimDuration {
        let sim = &self.inner.sim;
        let intra = sub.dest == self.inner.node;
        if intra {
            // Shared-memory channel: copy-in cost, completion immediate
            // (the message now lives in the channel).
            let parts = match sub.msg {
                WireMsg::Eager(p) => vec![p],
                WireMsg::Packed(ps) => ps,
                // lint-allow: strategy never packs control frames intra-node
                other => unreachable!("intra-node control frame {other:?}"),
            };
            let mut cost = SimDuration::ZERO;
            {
                let mut st = self.inner.state.borrow_mut();
                st.counters.shm_msgs += parts.len() as u64;
            }
            let total_bytes: usize = parts.iter().map(|p| p.data.len()).sum();
            let site = sim.obs().site();
            for req in &sub.reqs {
                sim.obs().emit(
                    sim.now(),
                    Some(self.inner.node.0),
                    EventKind::ShmSubmit {
                        req: req.id(),
                        dest: sub.dest.0,
                        bytes: total_bytes,
                        site,
                    },
                );
            }
            for p in parts {
                let copy = self.inner.shm.copy_cost(p.data.len());
                // The message becomes visible once its copy-in completes.
                self.inner.shm.push_after(
                    ShmMsg {
                        tag: p.tag,
                        seq: p.seq,
                        data: p.data,
                    },
                    cost + copy,
                );
                cost += copy;
            }
            let sim2 = sim.clone();
            let done = sim.now() + cost;
            sim.schedule_at(done, move |_| {
                for req in sub.reqs {
                    req.complete(&sim2);
                }
            });
            self.note_driver_work(self.inner.rails.len());
            return cost;
        }
        // Pick a rail.
        let rail_idx = if self.inner.cfg.multirail && self.inner.rails.len() > 1 {
            let mut st = self.inner.state.borrow_mut();
            st.rail_rr = (st.rail_rr + 1) % self.inner.rails.len();
            st.rail_rr
        } else {
            0
        };
        let rail = &self.inner.rails[rail_idx];
        let cost = submit_cost_for(rail, &sub.msg);
        {
            let mut st = self.inner.state.borrow_mut();
            match &sub.msg {
                WireMsg::Eager(_) => {
                    st.counters.eager_frames_tx += 1;
                    st.counters.eager_msgs_tx += 1;
                }
                WireMsg::Packed(ps) => {
                    st.counters.eager_frames_tx += 1;
                    st.counters.eager_msgs_tx += ps.len() as u64;
                }
                _ => {}
            }
        }
        // pm2-obs: typed submission events, matched before the reliability
        // wrap (retransmitted envelopes re-enter as WireMsg::Rel and are
        // deliberately not re-reported as fresh submissions).
        if sim.obs().is_enabled() {
            let site = sim.obs().site();
            let now = sim.now();
            let node = Some(self.inner.node.0);
            match &sub.msg {
                WireMsg::Eager(_) | WireMsg::Packed(_) => {
                    for req in &sub.reqs {
                        sim.obs().emit(
                            now,
                            node,
                            EventKind::NicSubmit {
                                req: req.id(),
                                dest: sub.dest.0,
                                bytes: sub.msg.wire_bytes(),
                                site,
                            },
                        );
                    }
                }
                WireMsg::Rts { len, rdv, .. } => {
                    sim.obs().emit(
                        now,
                        node,
                        EventKind::RtsTx {
                            rdv: *rdv,
                            dest: sub.dest.0,
                            len: *len,
                        },
                    );
                }
                WireMsg::Cts { rdv } => {
                    sim.obs().emit(
                        now,
                        node,
                        EventKind::CtsTx {
                            rdv: *rdv,
                            dest: sub.dest.0,
                        },
                    );
                }
                WireMsg::RdvData {
                    rdv, chunk, data, ..
                } => {
                    sim.obs().emit(
                        now,
                        node,
                        EventKind::DmaTx {
                            rdv: *rdv,
                            dest: sub.dest.0,
                            chunk: *chunk,
                            len: data.len(),
                        },
                    );
                }
                WireMsg::RmaPut { win, op, data, .. }
                | WireMsg::RmaPutData { win, op, data, .. }
                | WireMsg::RmaAcc { win, op, data, .. } => {
                    sim.obs().emit(
                        now,
                        node,
                        EventKind::RmaIssue {
                            op: *op,
                            dest: sub.dest.0,
                            win: *win,
                            bytes: data.len(),
                        },
                    );
                }
                WireMsg::RmaGet { win, len, op, .. } => {
                    sim.obs().emit(
                        now,
                        node,
                        EventKind::RmaIssue {
                            op: *op,
                            dest: sub.dest.0,
                            win: *win,
                            bytes: *len,
                        },
                    );
                }
                WireMsg::Credit { .. }
                | WireMsg::Rel { .. }
                | WireMsg::Ack { .. }
                | WireMsg::RmaGetReply { .. }
                | WireMsg::RmaGetData { .. }
                | WireMsg::RmaAck { .. } => {}
            }
        }
        // Lossy-fabric mode: wrap the frame in a reliability envelope
        // (retransmitted frames are already wrapped; acks never are).
        let (msg, rel) = if self.inner.reliability
            && !matches!(sub.msg, WireMsg::Rel { .. } | WireMsg::Ack { .. })
        {
            let (msg, rel) = self.wrap_rel(sub.dest, sub.msg);
            (msg, Some(rel))
        } else {
            (sub.msg, None)
        };
        let wire_bytes = msg.wire_bytes();
        let retained = rel.map(|_| msg.clone());
        // The frame reaches the NIC only after the submission work
        // (PIO/copy/descriptor post) completes on the submitting core.
        let info = rail.tx_after(sub.dest, wire_bytes, msg, cost);
        if let (Some(rel), Some(retained)) = (rel, retained) {
            self.track_rel(sub.dest, rel, retained, info.arrival);
        }
        // Eager sends complete when the NIC has consumed the buffer.
        for req in sub.reqs {
            let sim2 = sim.clone();
            sim.schedule_at(info.egress_end, move |_| req.complete(&sim2));
        }
        self.note_driver_work(rail_idx);
        self.trace(|| format!("submit {}B to {}", wire_bytes, sub.dest));
        cost
    }

    /// Handles one frame from a NIC; returns handling CPU cost.
    pub(crate) fn handle_wire(&self, src: NodeId, msg: WireMsg) -> SimDuration {
        match msg {
            WireMsg::Eager(part) => self.deliver_eager(src, part),
            WireMsg::Packed(parts) => {
                let mut cost = SimDuration::ZERO;
                for p in parts {
                    cost += self.deliver_eager(src, p);
                }
                cost
            }
            WireMsg::Rts { tag, seq, len, rdv } => self.handle_rts(src, tag, seq, len, rdv),
            WireMsg::Cts { rdv } => self.handle_cts(rdv),
            WireMsg::Credit { bytes } => {
                let limit = self.inner.cfg.credit_bytes_per_peer as i64;
                let mut st = self.inner.state.borrow_mut();
                *st.credits.entry(src).or_insert(limit) += bytes as i64;
                SimDuration::ZERO
            }
            WireMsg::RdvData {
                rdv,
                chunk,
                chunks,
                data,
            } => self.handle_rdv_data(src, rdv, chunk, chunks, data),
            WireMsg::Rel { rel, inner } => self.handle_rel(src, rel, *inner),
            WireMsg::Ack { rel } => self.handle_ack(src, rel),
            WireMsg::RmaPut {
                win,
                offset,
                op,
                data,
            } => self.handle_rma_put(src, win, offset, op, data),
            WireMsg::RmaPutData {
                win,
                offset,
                op,
                chunk,
                chunks,
                data,
            } => self.handle_rma_put_chunk(src, win, offset, op, chunk, chunks, data),
            WireMsg::RmaGet {
                win,
                offset,
                len,
                op,
            } => self.handle_rma_get(src, win, offset, len, op),
            WireMsg::RmaGetReply { op, data } => self.handle_rma_get_reply(src, op, data),
            WireMsg::RmaGetData {
                op,
                chunk,
                chunks,
                data,
            } => self.handle_rma_get_data(src, op, chunk, chunks, data),
            WireMsg::RmaAcc {
                win,
                offset,
                op,
                data,
            } => self.handle_rma_acc(src, win, offset, op, data),
            WireMsg::RmaAck { op } => self.handle_rma_ack(src, op),
        }
    }
}

/// Host CPU cost of submitting `msg`: PIO/copy for eager payloads, a
/// fixed control-frame submission for the handshake traffic, a DMA
/// descriptor post for zero-copy chunks. The reliability envelope adds
/// nothing — it is part of the frame header.
fn submit_cost_for(rail: &pm2_fabric::Nic<WireMsg>, msg: &WireMsg) -> SimDuration {
    match msg {
        WireMsg::Eager(_) | WireMsg::Packed(_) => rail.submit_cost(msg.app_bytes()),
        WireMsg::Rts { .. }
        | WireMsg::Cts { .. }
        | WireMsg::Credit { .. }
        | WireMsg::Ack { .. }
        | WireMsg::RmaGet { .. }
        | WireMsg::RmaAck { .. } => rail.submit_cost(64),
        WireMsg::RdvData { .. } | WireMsg::RmaPutData { .. } | WireMsg::RmaGetData { .. } => {
            rail.params().dma_setup
        }
        WireMsg::RmaPut { data, .. }
        | WireMsg::RmaAcc { data, .. }
        | WireMsg::RmaGetReply { data, .. } => rail.submit_cost(data.len()),
        WireMsg::Rel { inner, .. } => submit_cost_for(rail, inner),
    }
}
