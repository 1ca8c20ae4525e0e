//! NewMadeleine: the communication library of the PM2 suite.
//!
//! NewMadeleine has the 3-layer architecture of Figure 3: the application
//! enqueues *packs* into a list and returns immediately; an
//! optimizer/scheduler (the [`Strategy`] layer: FIFO, aggregation,
//! shortest-first) decides what actually goes on the wire when a NIC is
//! ready; per-network drivers (the MX-like NIC of `pm2-fabric`, the
//! intra-node shared-memory channel) move the bytes.
//!
//! Two protocols are implemented, mirroring MX:
//!
//! * **eager** for messages up to the rendezvous threshold (32 kB): the
//!   submission (PIO or copy-into-registered-memory + DMA post) costs host
//!   CPU — this is the cost §2.2 offloads; unexpected messages land in a
//!   library pool and are copied out when the receive is posted, expected
//!   messages are delivered zero-copy;
//! * **rendezvous** above the threshold (§2.3): RTS → (match + register
//!   buffer) → CTS → zero-copy data transfer. Every arrow requires host
//!   *reactivity* — the handshake only advances when somebody polls — which
//!   is exactly what PIOMAN guarantees in the background. On the host the
//!   payload `Vec` moves from `isend` to the receiver's handle: one rail
//!   copies nothing, n rails copy the (n−1)/n tail once, and a lossy
//!   fabric's reliability layer keeps a clone of each chunk for its
//!   retransmit.
//!
//! The crate contains **both engines** compared in the paper's evaluation:
//!
//! * [`EngineKind::Sequential`] — the original NewMadeleine: progress
//!   happens only inside library calls, on the calling thread
//!   (registration in `isend`, everything else in `swait`);
//! * [`EngineKind::Pioman`] — the multithreaded engine: `isend` only
//!   registers the request and notifies PIOMAN; submission, polling and
//!   rendezvous progression run on idle cores, at timer ticks, or from the
//!   blocking-call watcher.
//!
//! # Sharded progression
//!
//! Under the PIOMAN engine the session registers **one progression driver
//! per transport** with the server's driver registry: one per NIC rail and
//! one for the shared-memory channel. Each driver exposes its own pending
//! state and hardware trigger, so the registry polls only the transports
//! that actually have work, multirail rails progress independently, and
//! the blocking-call watcher arms the union of the per-rail interrupts.
//! Waiting packs live in per-transport lists; a session-wide enqueue rank
//! ([`Pack::seq`]) lets the registry replay the global FIFO submission
//! order across those lists, so FIFO and aggregation behave exactly as
//! they did with a single list. The one intentional deviation: the
//! shortest-first strategy reorders only *within* a transport, so mixed
//! intra/inter-node traffic is no longer globally shortest-first.
//!
//! Internally the crate splits the protocol machinery by concern:
//! `matching` (posted/unexpected state and the pack lists), `eager`
//! (delivery, unexpected pool, credit flow control), `rendezvous`
//! (RTS/CTS/data handshake), and `progress` (the per-transport drivers
//! and the submission engine); `session` keeps the public API, with the
//! tuning knobs in `config` and the request handles in `handles`.

#![warn(missing_docs)]

mod config;
mod eager;
mod handles;
mod matching;
mod msg;
mod progress;
mod reliability;
mod rendezvous;
mod rma;
mod session;
mod strategy;

#[cfg(test)]
mod tests;

pub use config::{EngineKind, NmCounters, OffloadPolicy, SessionConfig};
pub use handles::{RecvHandle, SendHandle};
pub use matching::SeqWindow;
pub use msg::{EagerPart, ShmMsg, Tag, WireMsg, EAGER_HEADER_BYTES, RDV_HEADER_BYTES};
pub use rma::{RmaOpKind, RMA_CHUNK};
pub use session::{Session, SessionDebugState};
pub use strategy::{
    AggregStrategy, FifoStrategy, Pack, ShortestFirstStrategy, Strategy, Submission,
};
