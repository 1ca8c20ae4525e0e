//! The optimizer/scheduler layer: deciding what goes on the wire next.
//!
//! "The scheduler is only activated when a NIC becomes idle in order to
//! feed it" (§3.1) — strategies operate on the list of waiting packs and
//! produce one wire submission at a time. They are pure policies: the
//! session charges the submission cost and performs the transfer.

use crate::msg::{EagerPart, Tag, WireMsg};
use pioman::PiomReq;
use pm2_topo::NodeId;
use std::collections::VecDeque;

/// A pack waiting in the send list (Figure 3's "waiting packs" layer).
#[derive(Debug)]
pub struct Pack {
    /// Destination node.
    pub dest: NodeId,
    /// Session-wide enqueue rank (monotonically increasing). The session
    /// keeps one pack list per transport; this stamp lets the PIOMAN
    /// driver registry replay the global FIFO submission order across
    /// those lists.
    pub seq: u64,
    /// What to send.
    pub kind: PackKind,
}

/// The payload of a pending pack.
#[derive(Debug)]
pub enum PackKind {
    /// An eager message; the request completes when the NIC has consumed
    /// the buffer.
    Eager {
        /// Eager payload and matching info.
        part: EagerPart,
        /// Send request to complete at egress.
        req: PiomReq,
    },
    /// A rendezvous request-to-send control frame.
    Rts {
        /// Matching tag.
        tag: Tag,
        /// Flow sequence number.
        seq: u32,
        /// Upcoming payload length.
        len: usize,
        /// Rendezvous id.
        rdv: u64,
    },
    /// A clear-to-send control frame.
    Cts {
        /// Rendezvous id being acknowledged.
        rdv: u64,
    },
    /// A flow-control credit return.
    Credit {
        /// Unexpected-pool bytes freed at the receiver.
        bytes: usize,
    },
    /// A pre-built wire frame re-queued by the reliability layer
    /// (retransmissions and acks). Strategies pass it through verbatim:
    /// it was already scheduled once and must not be re-aggregated.
    Wire {
        /// The frame to transmit as-is.
        msg: WireMsg,
    },
}

/// A unit of work produced by a strategy: one frame for one destination.
#[derive(Debug)]
pub struct Submission {
    /// Destination node.
    pub dest: NodeId,
    /// Frame to transmit.
    pub msg: WireMsg,
    /// Send requests completed when the NIC has consumed the frame.
    pub reqs: Vec<PiomReq>,
}

/// A packet-scheduling strategy over the waiting-packs list.
pub trait Strategy {
    /// Pops the next submission, or `None` if the list is empty.
    fn pop(&self, list: &mut VecDeque<Pack>) -> Option<Submission>;
    /// Human-readable name (reported in benchmark output).
    fn name(&self) -> &'static str;
}

fn single(pack: Pack) -> Submission {
    match pack.kind {
        PackKind::Eager { part, req } => Submission {
            dest: pack.dest,
            msg: WireMsg::Eager(part),
            reqs: vec![req],
        },
        PackKind::Rts { tag, seq, len, rdv } => Submission {
            dest: pack.dest,
            msg: WireMsg::Rts { tag, seq, len, rdv },
            reqs: Vec::new(),
        },
        PackKind::Cts { rdv } => Submission {
            dest: pack.dest,
            msg: WireMsg::Cts { rdv },
            reqs: Vec::new(),
        },
        PackKind::Credit { bytes } => Submission {
            dest: pack.dest,
            msg: WireMsg::Credit { bytes },
            reqs: Vec::new(),
        },
        PackKind::Wire { msg } => Submission {
            dest: pack.dest,
            msg,
            reqs: Vec::new(),
        },
    }
}

/// Submit packs strictly in application order, one frame per pack.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoStrategy;

impl Strategy for FifoStrategy {
    fn pop(&self, list: &mut VecDeque<Pack>) -> Option<Submission> {
        list.pop_front().map(single)
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Aggregate consecutive small eager messages to the same destination into
/// one frame (NewMadeleine's flagship optimization, \[2\]).
///
/// Saves per-frame submission and wire overheads at the cost of slightly
/// delaying the first message. Control frames and messages to other
/// destinations act as barriers only for themselves: the scan skips over
/// them without reordering non-aggregable traffic.
#[derive(Debug, Clone, Copy)]
pub struct AggregStrategy {
    /// Stop aggregating once the combined payload reaches this size.
    pub max_bytes: usize,
    /// Never fold more than this many messages into one frame.
    pub max_msgs: usize,
}

impl Default for AggregStrategy {
    fn default() -> Self {
        AggregStrategy {
            max_bytes: 8 << 10,
            max_msgs: 16,
        }
    }
}

impl Strategy for AggregStrategy {
    fn pop(&self, list: &mut VecDeque<Pack>) -> Option<Submission> {
        let first = list.pop_front()?;
        let (dest, mut parts, mut reqs) = match first.kind {
            PackKind::Eager { part, req } => (first.dest, vec![part], vec![req]),
            _ => return Some(single(first)),
        };
        let mut bytes: usize = parts[0].data.len();
        // Gather further eligible eager packs for the same destination.
        let mut i = 0;
        while i < list.len() && parts.len() < self.max_msgs {
            let eligible = matches!(
                &list[i],
                Pack { dest: d, kind: PackKind::Eager { part, .. }, .. }
                    if *d == dest && bytes + part.data.len() <= self.max_bytes
            );
            if eligible {
                // lint-allow: index bounded by the loop condition
                let pack = list.remove(i).expect("index in bounds");
                if let PackKind::Eager { part, req } = pack.kind {
                    bytes += part.data.len();
                    parts.push(part);
                    reqs.push(req);
                }
            } else {
                i += 1;
            }
        }
        if parts.len() == 1 {
            // lint-allow: length checked on the previous line
            let part = parts.pop().expect("one part");
            Some(Submission {
                dest,
                msg: WireMsg::Eager(part),
                reqs,
            })
        } else {
            Some(Submission {
                dest,
                msg: WireMsg::Packed(parts),
                reqs,
            })
        }
    }
    fn name(&self) -> &'static str {
        "aggreg"
    }
}

/// Submit the smallest eager message first (latency-oriented reordering).
///
/// Control frames keep absolute priority: rendezvous handshakes must not
/// starve behind bulk eager traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShortestFirstStrategy;

impl Strategy for ShortestFirstStrategy {
    fn pop(&self, list: &mut VecDeque<Pack>) -> Option<Submission> {
        if list.is_empty() {
            return None;
        }
        // Control frames first.
        if let Some(pos) = list
            .iter()
            .position(|p| !matches!(p.kind, PackKind::Eager { .. }))
        {
            // Only jump the queue if the control frame is not already first
            // and would otherwise wait behind eager data.
            if pos == 0 {
                return list.pop_front().map(single);
            }
            // lint-allow: position returned by the iterator just above
            let pack = list.remove(pos).expect("index in bounds");
            return Some(single(pack));
        }
        // All eager: pick the smallest payload.
        let (pos, _) = list
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| {
                let len = match &p.kind {
                    PackKind::Eager { part, .. } => part.data.len(),
                    _ => usize::MAX,
                };
                (len, *i)
            })
            // lint-allow: emptiness rejected at function entry
            .expect("non-empty");
        // lint-allow: position returned by the iterator just above
        let pack = list.remove(pos).expect("index in bounds");
        Some(single(pack))
    }
    fn name(&self) -> &'static str {
        "shortest-first"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm2_sim::Sim;

    fn eager(dest: usize, tag: u64, len: usize, sim: &Sim) -> Pack {
        Pack {
            dest: NodeId(dest),
            seq: tag,
            kind: PackKind::Eager {
                part: EagerPart {
                    tag: Tag(tag),
                    seq: 0,
                    data: vec![tag as u8; len],
                },
                req: PiomReq::new(sim, "send"),
            },
        }
    }

    fn rts(dest: usize, sim: &Sim) -> Pack {
        let _ = sim;
        Pack {
            dest: NodeId(dest),
            seq: 0,
            kind: PackKind::Rts {
                tag: Tag(9),
                seq: 0,
                len: 1 << 20,
                rdv: 7,
            },
        }
    }

    #[test]
    fn fifo_preserves_order() {
        let sim = Sim::new(0);
        let mut list: VecDeque<Pack> = [eager(1, 1, 10, &sim), eager(1, 2, 10, &sim)].into();
        let s = FifoStrategy;
        let a = s.pop(&mut list).unwrap();
        let b = s.pop(&mut list).unwrap();
        assert!(s.pop(&mut list).is_none());
        match (a.msg, b.msg) {
            (WireMsg::Eager(p1), WireMsg::Eager(p2)) => {
                assert_eq!(p1.tag, Tag(1));
                assert_eq!(p2.tag, Tag(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggreg_merges_same_destination() {
        let sim = Sim::new(0);
        let mut list: VecDeque<Pack> = [
            eager(1, 1, 100, &sim),
            eager(2, 2, 100, &sim), // other destination: skipped, not merged
            eager(1, 3, 100, &sim),
        ]
        .into();
        let s = AggregStrategy::default();
        let first = s.pop(&mut list).unwrap();
        match &first.msg {
            WireMsg::Packed(parts) => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[0].tag, Tag(1));
                assert_eq!(parts[1].tag, Tag(3));
            }
            other => panic!("expected Packed, got {other:?}"),
        }
        assert_eq!(first.reqs.len(), 2);
        let second = s.pop(&mut list).unwrap();
        assert_eq!(second.dest, NodeId(2));
    }

    #[test]
    fn aggreg_respects_byte_limit() {
        let sim = Sim::new(0);
        let mut list: VecDeque<Pack> = [
            eager(1, 1, 6 << 10, &sim),
            eager(1, 2, 6 << 10, &sim), // 12K > default 8K limit
        ]
        .into();
        let s = AggregStrategy::default();
        let first = s.pop(&mut list).unwrap();
        assert!(matches!(first.msg, WireMsg::Eager(_)));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn aggreg_passes_control_frames_through() {
        let sim = Sim::new(0);
        let mut list: VecDeque<Pack> = [rts(1, &sim), eager(1, 1, 10, &sim)].into();
        let s = AggregStrategy::default();
        assert!(matches!(s.pop(&mut list).unwrap().msg, WireMsg::Rts { .. }));
    }

    #[test]
    fn shortest_first_picks_smallest_and_prioritizes_control() {
        let sim = Sim::new(0);
        let mut list: VecDeque<Pack> =
            [eager(1, 1, 500, &sim), eager(1, 2, 50, &sim), rts(1, &sim)].into();
        let s = ShortestFirstStrategy;
        assert!(matches!(s.pop(&mut list).unwrap().msg, WireMsg::Rts { .. }));
        match s.pop(&mut list).unwrap().msg {
            WireMsg::Eager(p) => assert_eq!(p.tag, Tag(2)),
            other => panic!("unexpected {other:?}"),
        }
        match s.pop(&mut list).unwrap().msg {
            WireMsg::Eager(p) => assert_eq!(p.tag, Tag(1)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
