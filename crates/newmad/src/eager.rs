//! The eager protocol's receive side: delivery, the unexpected pool, and
//! credit-based flow control (extracted from the session monolith).

use crate::matching::{NmState, UnexpectedMsg};
use crate::msg::{EagerPart, ShmMsg};
use crate::session::Session;
use crate::strategy::PackKind;
use pm2_sim::obs::EventKind;
use pm2_sim::SimDuration;
use pm2_topo::NodeId;

impl Session {
    /// Records that `wire_bytes` of a peer's unexpected-pool allowance
    /// were freed; returns credits in batches of a quarter pool.
    pub(crate) fn credit_freed(&self, st: &mut NmState, src: NodeId, wire_bytes: usize) {
        if src == self.inner.node {
            return;
        }
        let owed = &mut st.from.entry(src).or_default().credit_owed;
        *owed += wire_bytes;
        let batch = (self.inner.cfg.credit_bytes_per_peer / 4).max(1);
        if *owed >= batch {
            let bytes = std::mem::take(owed);
            st.push_pack(self.inner.node, src, PackKind::Credit { bytes });
            st.counters.credits_returned += 1;
        }
    }

    /// Eager arrival: deliver to a posted receive (zero copy — the NIC
    /// DMA'd straight to the application buffer) or park as unexpected.
    pub(crate) fn deliver_eager(&self, src: NodeId, part: EagerPart) -> SimDuration {
        let mut st = self.inner.state.borrow_mut();
        match st.take_posted(src, part.tag) {
            Some(posted) => {
                st.note_delivery(src, part.tag, part.seq);
                let wire = crate::msg::EAGER_HEADER_BYTES + part.data.len();
                self.credit_freed(&mut st, src, wire);
                drop(st);
                posted.set_data(part.data);
                self.inner.sim.obs().emit(
                    self.inner.sim.now(),
                    Some(self.inner.node.0),
                    EventKind::EagerDeliver {
                        req: posted.id(),
                        src: src.0,
                        tag: part.tag.0,
                        unexpected: false,
                    },
                );
                posted.complete(&self.inner.sim);
                SimDuration::ZERO
            }
            None => {
                st.park_unexpected(UnexpectedMsg {
                    src,
                    tag: part.tag,
                    seq: part.seq,
                    data: part.data,
                });
                SimDuration::ZERO
            }
        }
    }

    /// Intra-node message: deliver (copy-out cost) or park as unexpected.
    pub(crate) fn handle_shm(&self, msg: ShmMsg) -> SimDuration {
        let own = self.inner.node;
        let mut st = self.inner.state.borrow_mut();
        match st.take_posted(own, msg.tag) {
            Some(posted) => {
                st.note_delivery(own, msg.tag, msg.seq);
                drop(st);
                let cost = self.inner.shm.copy_cost(msg.data.len());
                posted.set_data(msg.data);
                self.inner.sim.obs().emit(
                    self.inner.sim.now(),
                    Some(own.0),
                    EventKind::EagerDeliver {
                        req: posted.id(),
                        src: own.0,
                        tag: msg.tag.0,
                        unexpected: false,
                    },
                );
                posted.complete(&self.inner.sim);
                cost
            }
            None => {
                st.park_unexpected(UnexpectedMsg {
                    src: own,
                    tag: msg.tag,
                    seq: msg.seq,
                    data: msg.data,
                });
                SimDuration::ZERO
            }
        }
    }
}
