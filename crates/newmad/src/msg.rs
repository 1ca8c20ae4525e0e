//! Wire messages and tags.

use std::fmt;

/// Per-message framing overhead on the wire for eager messages.
pub const EAGER_HEADER_BYTES: usize = 32;
/// Framing overhead for rendezvous data frames.
pub const RDV_HEADER_BYTES: usize = 48;
/// Extra wire bytes of the reliability envelope (sequence number).
pub const REL_HEADER_BYTES: usize = 8;

/// Application-level message tag used for matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// One eager message inside an aggregated frame.
#[derive(Debug, Clone)]
pub struct EagerPart {
    /// Matching tag.
    pub tag: Tag,
    /// The sender's per-destination sequence number (monotone within
    /// each tag's flow).
    pub seq: u32,
    /// Payload.
    pub data: Vec<u8>,
}

/// Frames exchanged between NICs (the fabric payload type).
#[derive(Debug, Clone)]
pub enum WireMsg {
    /// A single eager message.
    Eager(EagerPart),
    /// Several eager messages aggregated into one frame (the
    /// [`crate::AggregStrategy`] optimization).
    Packed(Vec<EagerPart>),
    /// Rendezvous request-to-send: "I have `len` bytes for `tag`".
    Rts {
        /// Matching tag.
        tag: Tag,
        /// The sender's per-destination sequence number.
        seq: u32,
        /// Payload length of the upcoming transfer.
        len: usize,
        /// Sender-local rendezvous id, echoed back in the CTS.
        rdv: u64,
    },
    /// Clear-to-send: the receiver matched the RTS and registered its
    /// buffer.
    Cts {
        /// The sender's rendezvous id.
        rdv: u64,
    },
    /// Flow-control credit return: the receiver freed unexpected-pool
    /// space (credit-based flow control protects the bounded pool of
    /// §2.2's unexpected-message path).
    Credit {
        /// Pool bytes returned to the sender.
        bytes: usize,
    },
    /// A chunk of zero-copy rendezvous data: chunk 0 is the sender's
    /// buffer itself, moved; the others are split off its back.
    RdvData {
        /// The sender's rendezvous id.
        rdv: u64,
        /// Chunk index (multirail distribution splits the payload).
        chunk: u32,
        /// Total chunks of this transfer.
        chunks: u32,
        /// Chunk payload.
        data: Vec<u8>,
    },
    /// Reliability envelope: wraps any other frame with a per-(sender,
    /// destination) sequence number when the lossy-fabric mode is active.
    /// The receiver acks every envelope and suppresses duplicates; the
    /// sender retransmits unacked envelopes with exponential backoff.
    Rel {
        /// Envelope sequence number in the (sender → destination) flow.
        rel: u64,
        /// The protected frame.
        inner: Box<WireMsg>,
    },
    /// Acknowledgement of a reliability envelope (never itself wrapped:
    /// a lost ack is recovered by the sender's retransmit, which the
    /// receiver re-acks).
    Ack {
        /// The acknowledged envelope sequence number.
        rel: u64,
    },
    /// One-sided put small enough for a single eager-class frame. The
    /// target applies it to its window without any posted receive
    /// (matching-free) and answers with an [`WireMsg::RmaAck`].
    RmaPut {
        /// Target window id.
        win: u64,
        /// Byte offset inside the window.
        offset: usize,
        /// Origin-scoped op id, echoed in the ack.
        op: u64,
        /// Bytes to store.
        data: Vec<u8>,
    },
    /// One chunk of a large one-sided put (rendezvous-style DMA). Unlike
    /// the two-sided path there is no RTS/CTS handshake: the window was
    /// registered at creation, so chunks flow immediately.
    RmaPutData {
        /// Target window id.
        win: u64,
        /// Byte offset of the whole put inside the window.
        offset: usize,
        /// Origin-scoped op id, echoed in the ack after the last chunk.
        op: u64,
        /// Chunk index.
        chunk: u32,
        /// Total chunks of this put.
        chunks: u32,
        /// Chunk payload.
        data: Vec<u8>,
    },
    /// One-sided read request: the target answers with an
    /// [`WireMsg::RmaGetReply`] carrying the window bytes.
    RmaGet {
        /// Target window id.
        win: u64,
        /// Byte offset inside the window.
        offset: usize,
        /// Bytes to read.
        len: usize,
        /// Origin-scoped op id, echoed in the reply.
        op: u64,
    },
    /// Window bytes answering an [`WireMsg::RmaGet`] small enough for a
    /// single eager-class frame.
    RmaGetReply {
        /// The origin's op id.
        op: u64,
        /// The bytes read.
        data: Vec<u8>,
    },
    /// One chunk of a large get reply (rendezvous-style DMA, mirroring
    /// [`WireMsg::RmaPutData`] in the opposite direction): replies above
    /// the rendezvous threshold are split so a single lost frame only
    /// costs one chunk's retransmit, not the whole payload's.
    RmaGetData {
        /// The origin's op id.
        op: u64,
        /// Chunk index.
        chunk: u32,
        /// Total chunks of this reply.
        chunks: u32,
        /// Chunk payload.
        data: Vec<u8>,
    },
    /// One-sided byte-wise wrapping-add accumulate (`WrapAdd8`). Applied
    /// exactly once: the reliability envelope suppresses retransmitted
    /// duplicates before they can reach the window.
    RmaAcc {
        /// Target window id.
        win: u64,
        /// Byte offset inside the window.
        offset: usize,
        /// Origin-scoped op id, echoed in the ack.
        op: u64,
        /// Bytes to add (wrapping, per byte).
        data: Vec<u8>,
    },
    /// Target → origin completion ack for a put or accumulate. Unlike the
    /// reliability-level [`WireMsg::Ack`] this is an application frame and
    /// *is* itself wrapped in a reliability envelope on lossy fabrics.
    RmaAck {
        /// The completed op id.
        op: u64,
    },
}

impl WireMsg {
    /// Bytes this message occupies on the wire (payload + headers).
    pub fn wire_bytes(&self) -> usize {
        match self {
            WireMsg::Eager(p) => EAGER_HEADER_BYTES + p.data.len(),
            WireMsg::Packed(parts) => parts
                .iter()
                .map(|p| EAGER_HEADER_BYTES + p.data.len())
                .sum::<usize>(),
            WireMsg::Rts { .. } | WireMsg::Cts { .. } | WireMsg::Credit { .. } => 64,
            WireMsg::RdvData { data, .. } => RDV_HEADER_BYTES + data.len(),
            WireMsg::Rel { inner, .. } => REL_HEADER_BYTES + inner.wire_bytes(),
            WireMsg::Ack { .. } => 64,
            WireMsg::RmaPut { data, .. } | WireMsg::RmaAcc { data, .. } => {
                EAGER_HEADER_BYTES + data.len()
            }
            WireMsg::RmaPutData { data, .. } | WireMsg::RmaGetData { data, .. } => {
                RDV_HEADER_BYTES + data.len()
            }
            WireMsg::RmaGetReply { data, .. } => EAGER_HEADER_BYTES + data.len(),
            WireMsg::RmaGet { .. } | WireMsg::RmaAck { .. } => 64,
        }
    }

    /// Application payload bytes carried.
    pub fn app_bytes(&self) -> usize {
        match self {
            WireMsg::Eager(p) => p.data.len(),
            WireMsg::Packed(parts) => parts.iter().map(|p| p.data.len()).sum(),
            WireMsg::Rts { .. } | WireMsg::Cts { .. } | WireMsg::Credit { .. } => 0,
            WireMsg::RdvData { data, .. } => data.len(),
            WireMsg::Rel { inner, .. } => inner.app_bytes(),
            WireMsg::Ack { .. } => 0,
            WireMsg::RmaPut { data, .. }
            | WireMsg::RmaPutData { data, .. }
            | WireMsg::RmaAcc { data, .. }
            | WireMsg::RmaGetReply { data, .. }
            | WireMsg::RmaGetData { data, .. } => data.len(),
            WireMsg::RmaGet { .. } | WireMsg::RmaAck { .. } => 0,
        }
    }
}

/// Intra-node message carried by the shared-memory channel.
#[derive(Debug, Clone)]
pub struct ShmMsg {
    /// Matching tag.
    pub tag: Tag,
    /// The node's own per-destination sequence number.
    pub seq: u32,
    /// Payload.
    pub data: Vec<u8>,
}

/// Splits a DMA payload into the pieces of `data.chunks(size)` (`size`
/// ≥ 1) without copying the first: the others are split off from the
/// back, each copied once, and chunk 0 keeps the original allocation with
/// its whole capacity. A payload of at most `size` bytes is its own only
/// chunk, moved, not copied.
pub(crate) fn split_chunks(mut data: Vec<u8>, size: usize) -> Vec<Vec<u8>> {
    let n = data.len().div_ceil(size);
    let mut chunks = Vec::with_capacity(n);
    for i in (1..n).rev() {
        chunks.push(data.split_off(i * size));
    }
    if n > 0 {
        chunks.push(data);
    }
    chunks.reverse();
    chunks
}

/// Joins a DMA transfer's chunks, every slot filled, back into one
/// buffer: the others are appended to chunk 0 in place, so a one-chunk
/// transfer copies nothing and chunk 0 from [`split_chunks`] has the room
/// for the rest already.
pub(crate) fn join_chunks(chunks: Vec<Option<Vec<u8>>>) -> Vec<u8> {
    let mut parts = chunks.into_iter().flatten();
    let mut whole = parts.next().unwrap_or_default();
    for part in parts {
        whole.extend_from_slice(&part); // copy-allow: multirail tail join
    }
    whole
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_chunks_cuts_like_chunks_and_moves_chunk_zero() {
        for (len, size) in [
            (0, 1),
            (1, 1),
            (5, 2),
            (8, 4),
            (9, 4),
            (10, 16),
            (1 << 16, 1 << 16),
        ] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let (ptr, cap) = (data.as_ptr(), data.capacity());
            let want: Vec<Vec<u8>> = data.chunks(size).map(<[u8]>::to_vec).collect();
            let got = split_chunks(data, size);
            assert_eq!(got, want, "len {len}, size {size}");
            if let Some(first) = got.first() {
                assert_eq!((first.as_ptr(), first.capacity()), (ptr, cap));
            }
            let back = join_chunks(got.into_iter().map(Some).collect());
            assert_eq!(back, (0..len).map(|i| i as u8).collect::<Vec<u8>>());
            if len > 0 {
                // Chunk 0 had the room: the join appended in place.
                assert_eq!(back.as_ptr(), ptr);
            }
        }
    }

    #[test]
    fn wire_bytes_include_headers() {
        let m = WireMsg::Eager(EagerPart {
            tag: Tag(1),
            seq: 0,
            data: vec![0; 100],
        });
        assert_eq!(m.wire_bytes(), 132);
        assert_eq!(m.app_bytes(), 100);
    }

    #[test]
    fn packed_sums_parts() {
        let part = |n| EagerPart {
            tag: Tag(n),
            seq: 0,
            data: vec![0; 10],
        };
        let m = WireMsg::Packed(vec![part(1), part(2), part(3)]);
        assert_eq!(m.wire_bytes(), 3 * (EAGER_HEADER_BYTES + 10));
        assert_eq!(m.app_bytes(), 30);
    }

    #[test]
    fn control_frames_are_small_fixed_size() {
        let rts = WireMsg::Rts {
            tag: Tag(0),
            seq: 0,
            len: 1 << 20,
            rdv: 1,
        };
        assert_eq!(rts.wire_bytes(), 64);
        assert_eq!(rts.app_bytes(), 0);
        assert_eq!(WireMsg::Cts { rdv: 1 }.wire_bytes(), 64);
    }

    #[test]
    fn reliability_envelope_adds_fixed_header() {
        let m = WireMsg::Rel {
            rel: 3,
            inner: Box::new(WireMsg::Eager(EagerPart {
                tag: Tag(1),
                seq: 0,
                data: vec![0; 100],
            })),
        };
        assert_eq!(m.wire_bytes(), REL_HEADER_BYTES + EAGER_HEADER_BYTES + 100);
        assert_eq!(m.app_bytes(), 100);
        assert_eq!(WireMsg::Ack { rel: 3 }.wire_bytes(), 64);
        assert_eq!(WireMsg::Ack { rel: 3 }.app_bytes(), 0);
    }

    #[test]
    fn rma_frames_pin_their_byte_accounting() {
        let put = WireMsg::RmaPut {
            win: 1,
            offset: 0,
            op: 9,
            data: vec![0; 100],
        };
        assert_eq!(put.wire_bytes(), EAGER_HEADER_BYTES + 100);
        assert_eq!(put.app_bytes(), 100);
        let acc = WireMsg::RmaAcc {
            win: 1,
            offset: 0,
            op: 9,
            data: vec![0; 8],
        };
        assert_eq!(acc.wire_bytes(), EAGER_HEADER_BYTES + 8);
        let chunk = WireMsg::RmaPutData {
            win: 1,
            offset: 0,
            op: 9,
            chunk: 0,
            chunks: 4,
            data: vec![0; 1 << 14],
        };
        assert_eq!(chunk.wire_bytes(), RDV_HEADER_BYTES + (1 << 14));
        let get = WireMsg::RmaGet {
            win: 1,
            offset: 0,
            len: 1 << 10,
            op: 9,
        };
        assert_eq!(get.wire_bytes(), 64);
        assert_eq!(get.app_bytes(), 0);
        let reply = WireMsg::RmaGetReply {
            op: 9,
            data: vec![0; 1 << 10],
        };
        assert_eq!(reply.wire_bytes(), EAGER_HEADER_BYTES + (1 << 10));
        assert_eq!(reply.app_bytes(), 1 << 10);
        // A chunked get reply is a DMA frame like a put chunk.
        let reply_chunk = WireMsg::RmaGetData {
            op: 9,
            chunk: 1,
            chunks: 4,
            data: vec![0; 1 << 14],
        };
        assert_eq!(reply_chunk.wire_bytes(), RDV_HEADER_BYTES + (1 << 14));
        assert_eq!(reply_chunk.app_bytes(), 1 << 14);
        assert_eq!(WireMsg::RmaAck { op: 9 }.wire_bytes(), 64);
        // An RMA ack rides inside a reliability envelope on lossy fabrics
        // (unlike the rel-level Ack, which never does).
        let wrapped = WireMsg::Rel {
            rel: 1,
            inner: Box::new(WireMsg::RmaAck { op: 9 }),
        };
        assert_eq!(wrapped.wire_bytes(), REL_HEADER_BYTES + 64);
    }
}
