//! The ack/retransmit reliability layer for lossy fabrics.
//!
//! The paper's engine assumes a reliable Myrinet/MX fabric; this module is
//! what lets the same protocol stack survive an *unreliable* one (the
//! [`FaultPlan`](pm2_fabric::FaultPlan) injection modes). The design folds
//! reliability into the progression engine, as production engines do:
//!
//! * every inter-node frame — eager data, RTS, CTS, credit returns and
//!   rendezvous chunks alike — is wrapped in a [`WireMsg::Rel`] envelope
//!   carrying a per-(sender, destination) sequence number;
//! * the receiver acks every envelope (fresh or duplicate) and suppresses
//!   duplicates through a [`SeqWindow`](crate::matching::SeqWindow) before
//!   they can reach matching, so delivery stays exactly-once;
//! * the sender keeps a clone of each unacked envelope and retransmits it
//!   on a timer, spacing retries by [`pm2_sync::exp_factor`] exponential
//!   backoff, until the ack arrives or the retry budget
//!   ([`SessionConfig::max_retries`](crate::SessionConfig::max_retries))
//!   is exhausted;
//! * retransmissions re-enter the normal submission path as
//!   [`PackKind::Wire`] packs, so they are scheduled, charged and counted
//!   like any other frame, under either engine.
//!
//! The rendezvous handshake needs no dedicated retry state machine on top
//! of this: a lost RTS or CTS is just a lost envelope, re-issued by the
//! same timer (counted separately in
//! [`NmCounters::rts_reissues`](crate::NmCounters::rts_reissues)), and a
//! duplicated CTS dies in the receive window before it could restart the
//! transfer. Acks themselves are never wrapped — a lost ack is recovered
//! by the data retransmit, which the receiver re-acks.
//!
//! With the layer disabled (the default on fault-free fabrics) none of
//! this code runs and the wire format is byte-identical to the original.

use crate::matching::NmState;
use crate::msg::WireMsg;
use crate::session::Session;
use crate::strategy::PackKind;
use pioman::{PiomReq, ReqError};
use pm2_sim::obs::EventKind;
use pm2_sim::{SimDuration, SimTime, TimerHandle};
use pm2_topo::NodeId;
use std::rc::Rc;

/// Sender-side record of one unacknowledged envelope.
pub(crate) struct RelPending {
    /// The wrapped frame, kept for retransmission.
    pub(crate) msg: WireMsg,
    /// Retransmissions performed so far.
    pub(crate) attempts: u32,
    /// The pending retransmit timer (cancelled by the ack).
    pub(crate) timer: TimerHandle,
}

impl Session {
    /// Wraps `msg` in a reliability envelope bound for `dest`, allocating
    /// the next sequence number of that flow. The caller must transmit
    /// the returned frame and then [`Session::track_rel`] it with the
    /// frame's nominal arrival time.
    pub(crate) fn wrap_rel(&self, dest: NodeId, msg: WireMsg) -> (WireMsg, u64) {
        let mut st = self.inner.state.borrow_mut();
        let next = st.rel().next_tx.entry(dest).or_insert(0);
        let rel = *next;
        *next += 1;
        (
            WireMsg::Rel {
                rel,
                inner: Box::new(msg),
            },
            rel,
        )
    }

    /// Registers a transmitted envelope for retransmission: the first
    /// timeout fires one base RTO after the frame's nominal `arrival`, so
    /// queueing delays on the egress don't cause spurious retries.
    pub(crate) fn track_rel(&self, dest: NodeId, rel: u64, msg: WireMsg, arrival: SimTime) {
        let fire_at = arrival + self.rel_rto(&msg);
        let timer = self.schedule_rel_timeout(dest, rel, fire_at);
        self.inner.state.borrow_mut().rel().pending.insert(
            (dest, rel),
            RelPending {
                msg,
                attempts: 0,
                timer,
            },
        );
    }

    /// Base retransmit timeout for one envelope: the configured floor
    /// plus a round trip of the frame's own wire time.
    fn rel_rto(&self, msg: &WireMsg) -> SimDuration {
        let wire = self.inner.rails[0].params().wire_time(msg.wire_bytes());
        self.inner.cfg.retransmit_timeout + wire + wire
    }

    fn schedule_rel_timeout(&self, dest: NodeId, rel: u64, at: SimTime) -> TimerHandle {
        let weak = Rc::downgrade(&self.inner);
        self.inner.sim.schedule_at(at, move |_| {
            if let Some(inner) = weak.upgrade() {
                Session { inner }.rel_timeout(dest, rel);
            }
        })
    }

    /// Ack timeout: re-queue the envelope (or abandon it once the retry
    /// budget is spent) and re-arm the timer with exponential backoff.
    fn rel_timeout(&self, dest: NodeId, rel: u64) {
        let own = self.inner.node;
        let retransmit = {
            let mut st = self.inner.state.borrow_mut();
            let Some(p) = st.rel().pending.get_mut(&(dest, rel)) else {
                return; // acked between fire and dispatch
            };
            p.attempts += 1;
            if p.attempts > self.inner.cfg.max_retries {
                let p = st
                    .rel()
                    .pending
                    .remove(&(dest, rel))
                    // lint-allow: key held by the get_mut above, same borrow
                    .expect("pending present");
                st.counters.retries_exhausted += 1;
                self.inner.sim.obs().emit(
                    self.inner.sim.now(),
                    Some(own.0),
                    EventKind::RetryExhausted { rel, dest: dest.0 },
                );
                let failed = self.rel_abandon(&mut st, dest, &p.msg);
                drop(st);
                self.wake_parked();
                if let Some(req) = failed {
                    // The rail is presumed dead for this flow: surface a
                    // typed completion error so `swait` wakes instead of
                    // spinning forever on a request that can never finish.
                    req.fail(&self.inner.sim, ReqError::RetriesExhausted);
                }
                false
            } else {
                let attempts = p.attempts;
                let msg = p.msg.clone();
                let rto = self.rel_rto(&msg);
                let delay = SimDuration::from_nanos(
                    rto.as_nanos()
                        .saturating_mul(pm2_sync::exp_factor(attempts, 6)),
                );
                st.counters.retransmits += 1;
                self.inner.sim.obs().emit(
                    self.inner.sim.now(),
                    Some(own.0),
                    EventKind::Retransmit {
                        rel,
                        dest: dest.0,
                        attempt: attempts,
                    },
                );
                if let WireMsg::Rel { inner, .. } = &msg {
                    if matches!(**inner, WireMsg::Rts { .. } | WireMsg::Cts { .. }) {
                        st.counters.rts_reissues += 1;
                    }
                }
                st.push_pack(own, dest, PackKind::Wire { msg });
                drop(st);
                let timer = self.schedule_rel_timeout(dest, rel, self.inner.sim.now() + delay);
                let mut st = self.inner.state.borrow_mut();
                if let Some(p) = st.rel().pending.get_mut(&(dest, rel)) {
                    p.timer = timer;
                } else {
                    timer.cancel();
                }
                true
            }
        };
        if retransmit {
            // Ring the doorbell the way a frame arrival would: the
            // retransmit pack must not wait for the next app call.
            if let Some(p) = &self.inner.pioman {
                p.notify_work(None);
            }
            self.inner.marcel.doorbell();
        }
    }

    /// Maps an abandoned envelope to the local request still waiting on
    /// it, cleaning up the protocol state that request owned. Returns the
    /// request to fail (after the state borrow is released).
    ///
    /// Eager data, rendezvous chunks and credit returns have no local
    /// waiter — the sender's request completes at NIC egress — so their
    /// exhaustion only shows up in the counters (honest limit: the peer's
    /// receive stalls until its own timeout machinery gives up).
    fn rel_abandon(&self, st: &mut NmState, dest: NodeId, msg: &WireMsg) -> Option<PiomReq> {
        let WireMsg::Rel { inner, .. } = msg else {
            return None; // only envelopes are tracked
        };
        match &**inner {
            WireMsg::Rts { rdv, .. } => st.rdv().sends.remove(rdv).map(|s| s.req),
            WireMsg::Cts { rdv } => st.rdv().recvs.remove(&(dest, *rdv)).map(|r| r.req),
            WireMsg::RmaPut { op, .. }
            | WireMsg::RmaPutData { op, .. }
            | WireMsg::RmaGet { op, .. }
            | WireMsg::RmaAcc { op, .. } => {
                let rma = st.rma();
                if rma.ops.get(op).is_some_and(|o| !o.req.is_complete()) {
                    let entry = rma.ops.remove(op)?;
                    rma.inflight -= 1;
                    rma.get_chunks.remove(op);
                    Some(entry.req)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Envelope arrival: ack it (always — a duplicate means our previous
    /// ack was lost) and dispatch the inner frame if it is fresh.
    pub(crate) fn handle_rel(&self, src: NodeId, rel: u64, inner: WireMsg) -> SimDuration {
        let own = self.inner.node;
        let fresh = {
            let mut st = self.inner.state.borrow_mut();
            let fresh = st.rel().rx.entry(src).or_default().insert(rel);
            st.push_pack(
                own,
                src,
                PackKind::Wire {
                    msg: WireMsg::Ack { rel },
                },
            );
            st.counters.acks_sent += 1;
            if !fresh {
                st.counters.dup_suppressed += 1;
                self.inner.sim.obs().emit(
                    self.inner.sim.now(),
                    Some(own.0),
                    EventKind::DupSuppressed { rel, src: src.0 },
                );
            }
            fresh
        };
        if fresh {
            self.handle_wire(src, inner)
        } else {
            SimDuration::ZERO
        }
    }

    /// Ack arrival: retire the pending envelope and cancel its timer.
    pub(crate) fn handle_ack(&self, src: NodeId, rel: u64) -> SimDuration {
        let mut st = self.inner.state.borrow_mut();
        if let Some(p) = st.rel().pending.remove(&(src, rel)) {
            p.timer.cancel();
        }
        // A late ack for an abandoned envelope is silently ignored.
        SimDuration::ZERO
    }
}
