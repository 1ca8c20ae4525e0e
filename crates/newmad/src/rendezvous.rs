//! The rendezvous protocol (§2.3): RTS → match + register → CTS →
//! zero-copy data chunks over the rails (extracted from the session
//! monolith).
//!
//! The payload has one owner from `isend` to the receiver's
//! [`PiomReq::take_data`]: the sender's `Vec` waits in [`RdvSend`], its
//! first chunk *is* that `Vec` (the others are split off its back, each
//! copied once), the fabric moves each chunk, and the receiver appends
//! the other chunks to chunk 0, which already has the room. On one rail
//! the receiver gets the sender's allocation and no host copy happens;
//! on n rails (n−1)/n of the bytes are copied once. The one deep copy
//! left is the reliability layer's retained clone of each chunk on a
//! lossy fabric, which backs its retransmit.

use crate::matching::UnexpectedRts;
use crate::msg::{join_chunks, split_chunks, Tag, WireMsg};
use crate::session::Session;
use crate::strategy::PackKind;
use pioman::PiomReq;
use pm2_sim::obs::EventKind;
use pm2_sim::SimDuration;
use pm2_topo::NodeId;

/// Sender-side record of an in-flight rendezvous (RTS sent, payload
/// parked until the CTS arrives).
pub(crate) struct RdvSend {
    pub(crate) dest: NodeId,
    pub(crate) tag: Tag,
    pub(crate) data: Option<Vec<u8>>,
    pub(crate) req: PiomReq,
    pub(crate) cts_received: bool,
}

/// Receiver-side record of an in-flight rendezvous (CTS sent, chunks
/// being assembled).
pub(crate) struct RdvRecv {
    pub(crate) req: PiomReq,
    pub(crate) chunks: Vec<Option<Vec<u8>>>,
    pub(crate) received: u32,
}

impl Session {
    /// RTS arrival: if the receive is posted, register the buffer and
    /// queue the CTS; otherwise park the RTS.
    pub(crate) fn handle_rts(
        &self,
        src: NodeId,
        tag: Tag,
        seq: u32,
        len: usize,
        rdv: u64,
    ) -> SimDuration {
        let mut st = self.inner.state.borrow_mut();
        // A duplicate RTS (late-delivered copy of a handshake we already
        // answered or parked) must not spawn a second transfer.
        let answered = st
            .rdv
            .as_deref()
            .is_some_and(|r| r.recvs.contains_key(&(src, rdv)));
        if answered || st.rts_parked(src, rdv) {
            st.counters.dup_suppressed += 1;
            return SimDuration::ZERO;
        }
        let matched = st.take_posted(src, tag);
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(self.inner.node.0),
            EventKind::RtsRx {
                rdv,
                src: src.0,
                matched: matched.is_some(),
            },
        );
        match matched {
            Some(posted) => {
                st.note_delivery(src, tag, seq);
                st.rdv().recvs.insert(
                    (src, rdv),
                    RdvRecv {
                        req: posted,
                        chunks: Vec::new(),
                        received: 0,
                    },
                );
                st.push_pack(self.inner.node, src, PackKind::Cts { rdv });
                drop(st);
                self.inner.registry.register(tag.0 | 1 << 63, len)
            }
            None => {
                st.park_rts(UnexpectedRts {
                    src,
                    tag,
                    seq,
                    len,
                    rdv,
                });
                SimDuration::ZERO
            }
        }
    }

    /// CTS arrival at the sender: register the send buffer and queue the
    /// data chunks, chunk 0 being the send buffer itself.
    pub(crate) fn handle_cts(&self, rdv: u64) -> SimDuration {
        let mut st = self.inner.state.borrow_mut();
        let Some(send) = st.rdv().sends.get_mut(&rdv) else {
            // Unknown rendezvous: a stale CTS (e.g. for an envelope we
            // abandoned after the retry budget). Ignore it gracefully —
            // under a lossy fabric this is survivable, not a bug.
            return SimDuration::ZERO;
        };
        if send.cts_received {
            // Duplicate CTS that slipped past the envelope window: the
            // transfer is already in flight, do not restart it.
            st.counters.dup_suppressed += 1;
            return SimDuration::ZERO;
        }
        send.cts_received = true;
        // lint-allow: cts_received guard above makes a second take impossible
        let data = send.data.take().expect("rendezvous payload present");
        let dest = send.dest;
        let tag = send.tag;
        let req = send.req.clone();
        st.rdv().sends.remove(&rdv);
        drop(st);
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(self.inner.node.0),
            EventKind::CtsRx { rdv, req: req.id() },
        );

        let reg = self.inner.registry.register(tag.0, data.len());
        // Split over the rails (multirail distribution).
        let n_chunks = if self.inner.cfg.multirail && self.inner.rails.len() > 1 {
            self.inner.rails.len()
        } else {
            1
        };
        let chunk_size = data.len().div_ceil(n_chunks);
        let mut cost = reg;
        let mut last_egress = self.inner.sim.now();
        let chunks = split_chunks(data, chunk_size.max(1));
        let total = chunks.len() as u32;
        for (i, chunk) in chunks.into_iter().enumerate() {
            let rail = &self.inner.rails[i % self.inner.rails.len()];
            cost += rail.params().dma_setup;
            self.inner.sim.obs().emit(
                self.inner.sim.now(),
                Some(self.inner.node.0),
                EventKind::DmaTx {
                    rdv,
                    dest: dest.0,
                    chunk: i as u32,
                    len: chunk.len(),
                },
            );
            let msg = WireMsg::RdvData {
                rdv,
                chunk: i as u32,
                chunks: total,
                data: chunk,
            };
            // Under the reliability layer each chunk travels in its own
            // envelope; the retained clone backs its retransmit timer.
            let (msg, rel) = if self.inner.reliability {
                let (msg, rel) = self.wrap_rel(dest, msg);
                (msg, Some(rel))
            } else {
                (msg, None)
            };
            let wire = msg.wire_bytes();
            let retained = rel.map(|_| msg.clone());
            // Each descriptor post takes CPU time before the DMA starts.
            let info = rail.tx_after(dest, wire, msg, cost);
            if let (Some(rel), Some(retained)) = (rel, retained) {
                self.track_rel(dest, rel, retained, info.arrival);
            }
            last_egress = last_egress.max(info.egress_end);
        }
        // The send completes when the NIC finishes reading the buffer.
        let sim2 = self.inner.sim.clone();
        self.inner
            .sim
            .schedule_at(last_egress, move |_| req.complete(&sim2));
        cost
    }

    /// Rendezvous data arrival: the last chunk completes the receive with
    /// chunk 0's buffer, the other chunks appended to it in place.
    pub(crate) fn handle_rdv_data(
        &self,
        src: NodeId,
        rdv: u64,
        chunk: u32,
        chunks: u32,
        data: Vec<u8>,
    ) -> SimDuration {
        let mut st = self.inner.state.borrow_mut();
        let Some(recv) = st.rdv().recvs.get_mut(&(src, rdv)) else {
            // Data for a rendezvous we no longer track: a late retransmit
            // that raced the completing original. Safe to drop — the
            // payload was already assembled and delivered.
            return SimDuration::ZERO;
        };
        if recv.chunks.is_empty() {
            recv.chunks.resize(chunks as usize, None);
        }
        if recv.chunks[chunk as usize].is_some() {
            // Duplicate chunk delivery (retransmit raced the ack).
            st.counters.dup_suppressed += 1;
            return SimDuration::ZERO;
        }
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(self.inner.node.0),
            EventKind::DmaRx {
                rdv,
                src: src.0,
                chunk,
                len: data.len(),
            },
        );
        recv.chunks[chunk as usize] = Some(data);
        recv.received += 1;
        if recv.received == chunks {
            // lint-allow: the entry was borrowed mutably just above
            let recv = st.rdv().recvs.remove(&(src, rdv)).expect("present");
            st.counters.rdv_completed += 1;
            drop(st);
            recv.req.set_data(join_chunks(recv.chunks));
            self.inner.sim.obs().emit(
                self.inner.sim.now(),
                Some(self.inner.node.0),
                EventKind::RdvComplete {
                    rdv,
                    req: recv.req.id(),
                    src: src.0,
                },
            );
            recv.req.complete(&self.inner.sim);
        }
        SimDuration::ZERO
    }
}
