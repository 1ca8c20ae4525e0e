//! pm2-obs: structured observability — typed events, request timelines and
//! a metrics registry.
//!
//! This is the simulator's one observation channel. It records *typed*
//! events carrying the ids the engine already tracks (request id, driver
//! id, shard, tasklet id, rendezvous id), so a run can be reconstructed programmatically: which call site
//! (inline / idle hook / tasklet) submitted each message to the NIC, when an
//! RTS met its CTS, how long a request waited end to end.
//!
//! Three pieces:
//!
//! * [`Obs`] — a bounded typed-event ring hung off every
//!   [`Sim`](crate::Sim) (see [`Sim::obs`](crate::Sim::obs)), plus the
//!   progression-site context and per-label latency histograms. Disabled by
//!   default; when disabled, emitting costs one branch and recording nothing.
//!   Enabling it never schedules simulation events or charges virtual time,
//!   so enabled and disabled runs are time-step identical.
//! * [`build_timelines`] — folds an event snapshot into per-request
//!   ([`ReqTimeline`]) and per-rendezvous ([`RdvTimeline`]) timelines:
//!   eager `posted → NIC submit → deliver → complete`, rendezvous
//!   `RTS → CTS → DMA → complete`.
//! * [`MetricsRegistry`] — one snapshot/export path over provider closures
//!   (engine counters, NIC fault counters, latency histograms), emitting
//!   deterministic JSON.

use crate::stats::Histogram;
use crate::SimTime;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Which progression path was running when an event fired.
///
/// `App` is the default (application thread calling into the library);
/// PIOMAN sets the others for the duration of a locked progress pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Site {
    /// Application thread, outside any PIOMAN progress pass.
    #[default]
    App,
    /// Inline progress (polling wait or explicit kick).
    Inline,
    /// Idle-core hook progress.
    Hook,
    /// Offloaded tasklet progress.
    Tasklet,
}

impl Site {
    /// Lowercase name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Site::App => "app",
            Site::Inline => "inline",
            Site::Hook => "hook",
            Site::Tasklet => "tasklet",
        }
    }
}

/// Typed payload of one observability event.
///
/// All fields are plain ids/sizes so construction is allocation-free;
/// `node` lives on the enclosing [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A send was posted (`rdv` is the rendezvous id when the payload took
    /// the RTS/CTS path, `None` for eager).
    SendPosted {
        /// Request id.
        req: u64,
        /// Destination node index.
        dest: usize,
        /// Wire tag.
        tag: u64,
        /// Payload length in bytes.
        len: usize,
        /// Rendezvous id, if the rendezvous path was chosen.
        rdv: Option<u64>,
    },
    /// A receive was posted.
    RecvPosted {
        /// Request id.
        req: u64,
        /// Source filter, if any.
        src: Option<usize>,
        /// Wire tag.
        tag: u64,
    },
    /// A message was handed to a NIC rail.
    NicSubmit {
        /// Request id the submission progresses.
        req: u64,
        /// Destination node index.
        dest: usize,
        /// Wire bytes.
        bytes: usize,
        /// Progression site that performed the submit.
        site: Site,
    },
    /// A message was handed to the shared-memory transport.
    ShmSubmit {
        /// Request id the submission progresses.
        req: u64,
        /// Destination node index.
        dest: usize,
        /// Wire bytes.
        bytes: usize,
        /// Progression site that performed the submit.
        site: Site,
    },
    /// An eager payload reached its receive request.
    EagerDeliver {
        /// Receive-request id.
        req: u64,
        /// Source node index.
        src: usize,
        /// Wire tag.
        tag: u64,
        /// True if the payload arrived before the receive was posted.
        unexpected: bool,
    },
    /// Sender issued a rendezvous request-to-send.
    RtsTx {
        /// Sender-scoped rendezvous id.
        rdv: u64,
        /// Destination node index.
        dest: usize,
        /// Payload length in bytes.
        len: usize,
    },
    /// Receiver saw the RTS (`matched` = a receive was already posted).
    RtsRx {
        /// Sender-scoped rendezvous id.
        rdv: u64,
        /// Sender node index.
        src: usize,
        /// True if a matching receive was already posted.
        matched: bool,
    },
    /// Receiver issued the clear-to-send.
    CtsTx {
        /// Sender-scoped rendezvous id.
        rdv: u64,
        /// Sender node index the CTS travels to.
        dest: usize,
    },
    /// Sender saw the CTS and will start the data transfer.
    CtsRx {
        /// Sender-scoped rendezvous id.
        rdv: u64,
        /// Send-request id.
        req: u64,
    },
    /// Sender pushed one rendezvous data chunk onto the rail.
    DmaTx {
        /// Sender-scoped rendezvous id.
        rdv: u64,
        /// Destination node index.
        dest: usize,
        /// Chunk ordinal within the transfer.
        chunk: u32,
        /// Chunk length in bytes.
        len: usize,
    },
    /// Receiver absorbed one rendezvous data chunk.
    DmaRx {
        /// Sender-scoped rendezvous id.
        rdv: u64,
        /// Sender node index.
        src: usize,
        /// Chunk ordinal within the transfer.
        chunk: u32,
        /// Chunk length in bytes.
        len: usize,
    },
    /// The rendezvous transfer finished on the receiver.
    RdvComplete {
        /// Sender-scoped rendezvous id.
        rdv: u64,
        /// Receive-request id.
        req: u64,
        /// Sender node index.
        src: usize,
    },
    /// Reliability layer retransmitted an unacked envelope.
    Retransmit {
        /// Reliability sequence number.
        rel: u64,
        /// Destination node index.
        dest: usize,
        /// Retry ordinal (1 = first retransmit).
        attempt: u32,
    },
    /// Reliability layer suppressed a duplicate envelope.
    DupSuppressed {
        /// Reliability sequence number.
        rel: u64,
        /// Sender node index.
        src: usize,
    },
    /// Reliability layer abandoned an envelope after its retry budget ran
    /// out; any request waiting on that frame fails with a typed error.
    RetryExhausted {
        /// Reliability sequence number of the abandoned envelope.
        rel: u64,
        /// Destination node index of the abandoned envelope.
        dest: usize,
    },
    /// A PIOMAN request completed.
    ReqComplete {
        /// Request id.
        req: u64,
        /// Post-to-completion latency in virtual nanoseconds.
        latency_ns: u64,
    },
    /// One registered driver did work during a progress pass.
    DriverProgress {
        /// Driver id.
        driver: u64,
        /// Progression site of the pass.
        site: Site,
        /// Virtual-time cost charged, in nanoseconds.
        cost: u64,
    },
    /// A Marcel tasklet body ran.
    TaskletRun {
        /// Tasklet id.
        tasklet: u64,
        /// Core it ran on.
        core: usize,
        /// Shard it progressed, when it reported one.
        shard: Option<usize>,
        /// Virtual-time cost charged, in nanoseconds.
        cost: u64,
    },
    /// An idle hook did work (an unproductive poll records nothing).
    HookWork {
        /// Core the hook ran on.
        core: usize,
        /// Shard it progressed, when it reported one.
        shard: Option<usize>,
        /// Virtual-time cost charged, in nanoseconds.
        cost: u64,
    },
    /// Origin issued a one-sided (RMA) operation onto the wire.
    RmaIssue {
        /// Origin-scoped RMA op id.
        op: u64,
        /// Target node index.
        dest: usize,
        /// Window id the op addresses.
        win: u64,
        /// Payload bytes moved (put/accumulate data out, get data back).
        bytes: usize,
    },
    /// Target applied a one-sided op (or one chunk of a large put) to its
    /// window — without the target ever calling into the library.
    RmaApply {
        /// Origin-scoped RMA op id.
        op: u64,
        /// Origin node index.
        src: usize,
        /// Window id the op addressed.
        win: u64,
        /// Bytes applied in this event.
        bytes: usize,
    },
    /// Origin saw the target's completion ack (or get reply) for an op.
    RmaAckRx {
        /// Origin-scoped RMA op id.
        op: u64,
        /// Target node index that acked.
        src: usize,
    },
    /// A collective DAG step was issued.
    CollStep {
        /// Issuing rank.
        rank: usize,
        /// Step index within the plan.
        step: usize,
        /// Planner-assigned flow id.
        flow: u64,
        /// Peer rank.
        peer: usize,
        /// True for a send step, false for a receive step.
        send: bool,
    },
}

/// One recorded observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Node the event was observed on, when attributable.
    pub node: Option<usize>,
    /// Typed payload.
    pub kind: EventKind,
}

struct ObsInner {
    events: VecDeque<Event>,
    latency: BTreeMap<&'static str, Histogram>,
}

/// Per-simulation observability state: typed-event ring, progression-site
/// context, request-id allocator and latency histograms.
///
/// Disabled by default. The request-id counter ticks whether or not
/// recording is enabled, so ids — and therefore every downstream decision —
/// are identical in enabled and disabled runs.
pub struct Obs {
    enabled: Cell<bool>,
    capacity: Cell<usize>,
    dropped: Cell<u64>,
    site: Cell<Site>,
    next_req: Cell<u64>,
    inner: RefCell<ObsInner>,
}

/// Latency-histogram resolution: 1 µs buckets.
const LATENCY_RESOLUTION_NS: f64 = 1_000.0;
/// Linear latency-histogram span: 8192 buckets ≈ 8 ms at 1 µs resolution.
const LATENCY_BUCKETS: usize = 8_192;
/// Geometric tail buckets past the linear span, so overload forensics keep
/// resolving instead of clamping at ~8 ms.
const LATENCY_TAIL_BUCKETS: usize = 64;
/// Tail bucket growth factor: 8.192 ms × 1.15⁶⁴ ≈ 63 s of span, past the
/// scenario suite's 60 s wedge deadline.
const LATENCY_TAIL_GROWTH: f64 = 1.15;

impl Obs {
    /// Creates a disabled recorder with the default capacity (256 Ki
    /// events).
    pub fn new() -> Obs {
        Obs {
            enabled: Cell::new(false),
            capacity: Cell::new(1 << 18),
            dropped: Cell::new(0),
            site: Cell::new(Site::App),
            next_req: Cell::new(0),
            inner: RefCell::new(ObsInner {
                events: VecDeque::new(),
                latency: BTreeMap::new(),
            }),
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Caps the ring at `capacity` events (oldest evicted first, counted in
    /// [`Obs::dropped`]). A capacity of zero records nothing.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.set(capacity);
        let mut inner = self.inner.borrow_mut();
        while inner.events.len() > capacity {
            inner.events.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Events evicted to keep the ring within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Allocates the next request id. Ticks unconditionally so enabled and
    /// disabled runs see identical ids.
    pub fn next_req_id(&self) -> u64 {
        let id = self.next_req.get();
        self.next_req.set(id + 1);
        id
    }

    /// The progression site currently executing (set by PIOMAN around each
    /// locked progress pass).
    pub fn site(&self) -> Site {
        self.site.get()
    }

    /// Sets the progression-site context, returning the previous value for
    /// the caller to restore.
    pub fn set_site(&self, site: Site) -> Site {
        self.site.replace(site)
    }

    /// Records one event if enabled; a branch and nothing else when not.
    pub fn emit(&self, at: SimTime, node: Option<usize>, kind: EventKind) {
        if !self.enabled.get() {
            return;
        }
        let capacity = self.capacity.get();
        if capacity == 0 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        while inner.events.len() >= capacity {
            inner.events.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        inner.events.push_back(Event { at, node, kind });
    }

    /// Records a latency sample under `label` if enabled.
    pub fn record_latency(&self, label: &'static str, ns: u64) {
        if !self.enabled.get() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner
            .latency
            .entry(label)
            .or_insert_with(|| {
                Histogram::with_geometric_tail(
                    LATENCY_RESOLUTION_NS,
                    LATENCY_BUCKETS,
                    LATENCY_TAIL_BUCKETS,
                    LATENCY_TAIL_GROWTH,
                )
            })
            .record(ns as f64);
    }

    /// Snapshot of all recorded events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// Per-label latency summary: `(label, count, p50_ns, p99_ns,
    /// p999_ns)`, sorted by label.
    pub fn latency_snapshot(&self) -> Vec<(&'static str, u64, f64, f64, f64)> {
        self.inner
            .borrow()
            .latency
            .iter()
            .map(|(label, h)| (*label, h.count(), h.p50(), h.p99(), h.p999()))
            .collect()
    }

    /// Clears recorded events and latency histograms (the request-id
    /// counter keeps running).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.events.clear();
        inner.latency.clear();
        self.dropped.set(0);
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

/// Which side of a point-to-point operation a request represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The sending side.
    Send,
    /// The receiving side.
    Recv,
}

impl Role {
    /// Lowercase name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Role::Send => "send",
            Role::Recv => "recv",
        }
    }
}

/// Reconstructed lifetime of one posted request.
///
/// The eager path reads `posted_at → submit_at → delivered_at →
/// completed_at`; a rendezvous sender instead links to its
/// [`RdvTimeline`] through `rdv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqTimeline {
    /// Request id.
    pub req: u64,
    /// Node the request was posted on.
    pub node: Option<usize>,
    /// Send or receive side.
    pub role: Role,
    /// Peer node (destination for sends, source filter for receives).
    pub peer: Option<usize>,
    /// Wire tag.
    pub tag: u64,
    /// Payload length (sends only).
    pub len: Option<usize>,
    /// Rendezvous id, when the send took the RTS/CTS path.
    pub rdv: Option<u64>,
    /// When the request was posted.
    pub posted_at: SimTime,
    /// First NIC/shared-memory submission progressing this request.
    pub submit_at: Option<SimTime>,
    /// Progression site of that first submission.
    pub submit_site: Option<Site>,
    /// Eager delivery into this (receive) request.
    pub delivered_at: Option<SimTime>,
    /// True if the eager payload arrived before the receive was posted.
    pub unexpected: Option<bool>,
    /// Completion instant.
    pub completed_at: Option<SimTime>,
    /// Post-to-completion latency in nanoseconds.
    pub latency_ns: Option<u64>,
}

/// Reconstructed RTS → CTS → DMA → complete path of one rendezvous
/// transfer, keyed by `(sender, rdv)` (rendezvous ids are sender-scoped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdvTimeline {
    /// Sender-scoped rendezvous id.
    pub rdv: u64,
    /// Sender node.
    pub sender: Option<usize>,
    /// Receiver node.
    pub receiver: Option<usize>,
    /// Payload length from the RTS.
    pub len: Option<usize>,
    /// RTS issued by the sender.
    pub rts_tx: Option<SimTime>,
    /// RTS observed by the receiver.
    pub rts_rx: Option<SimTime>,
    /// True if the receive was already posted when the RTS arrived.
    pub matched: Option<bool>,
    /// CTS issued by the receiver.
    pub cts_tx: Option<SimTime>,
    /// CTS observed by the sender.
    pub cts_rx: Option<SimTime>,
    /// Send-request id (learned at CTS receipt).
    pub send_req: Option<u64>,
    /// Receive-request id (learned at completion).
    pub recv_req: Option<u64>,
    /// Data chunks pushed by the sender.
    pub dma_chunks: u32,
    /// First data chunk leaving the sender.
    pub dma_first_tx: Option<SimTime>,
    /// Last data chunk absorbed by the receiver.
    pub dma_last_rx: Option<SimTime>,
    /// Transfer completion on the receiver.
    pub completed_at: Option<SimTime>,
}

/// Timelines reconstructed from an event snapshot.
#[derive(Debug, Clone, Default)]
pub struct Timelines {
    /// Per-request timelines, ordered by request id.
    pub reqs: Vec<ReqTimeline>,
    /// Per-rendezvous timelines, ordered by `(sender, rdv)`.
    pub rdvs: Vec<RdvTimeline>,
}

/// Folds an event snapshot (as returned by [`Obs::events`]) into
/// per-request and per-rendezvous timelines.
///
/// Only requests with a `SendPosted`/`RecvPosted` event get a
/// [`ReqTimeline`]; internal requests (RTS/CTS control messages and the
/// like) contribute to the rendezvous timelines instead. Rendezvous ids are
/// sender-scoped, so rendezvous records are keyed by `(sender, rdv)` —
/// receiver-side events recover the sender from their `src`/`dest` fields.
pub fn build_timelines(events: &[Event]) -> Timelines {
    let mut reqs: BTreeMap<u64, ReqTimeline> = BTreeMap::new();
    let mut rdvs: BTreeMap<(Option<usize>, u64), RdvTimeline> = BTreeMap::new();
    let mut completions: BTreeMap<u64, (SimTime, u64)> = BTreeMap::new();
    fn rdv_entry(
        rdvs: &mut BTreeMap<(Option<usize>, u64), RdvTimeline>,
        sender: Option<usize>,
        rdv: u64,
    ) -> &mut RdvTimeline {
        rdvs.entry((sender, rdv)).or_insert_with(|| RdvTimeline {
            rdv,
            sender,
            receiver: None,
            len: None,
            rts_tx: None,
            rts_rx: None,
            matched: None,
            cts_tx: None,
            cts_rx: None,
            send_req: None,
            recv_req: None,
            dma_chunks: 0,
            dma_first_tx: None,
            dma_last_rx: None,
            completed_at: None,
        })
    }
    for ev in events {
        match ev.kind {
            EventKind::SendPosted {
                req,
                dest,
                tag,
                len,
                rdv,
            } => {
                reqs.insert(
                    req,
                    ReqTimeline {
                        req,
                        node: ev.node,
                        role: Role::Send,
                        peer: Some(dest),
                        tag,
                        len: Some(len),
                        rdv,
                        posted_at: ev.at,
                        submit_at: None,
                        submit_site: None,
                        delivered_at: None,
                        unexpected: None,
                        completed_at: None,
                        latency_ns: None,
                    },
                );
            }
            EventKind::RecvPosted { req, src, tag } => {
                reqs.insert(
                    req,
                    ReqTimeline {
                        req,
                        node: ev.node,
                        role: Role::Recv,
                        peer: src,
                        tag,
                        len: None,
                        rdv: None,
                        posted_at: ev.at,
                        submit_at: None,
                        submit_site: None,
                        delivered_at: None,
                        unexpected: None,
                        completed_at: None,
                        latency_ns: None,
                    },
                );
            }
            EventKind::NicSubmit { req, site, .. } | EventKind::ShmSubmit { req, site, .. } => {
                if let Some(t) = reqs.get_mut(&req) {
                    if t.submit_at.is_none() {
                        t.submit_at = Some(ev.at);
                        t.submit_site = Some(site);
                    }
                }
            }
            EventKind::EagerDeliver {
                req, unexpected, ..
            } => {
                if let Some(t) = reqs.get_mut(&req) {
                    t.delivered_at = Some(ev.at);
                    t.unexpected = Some(unexpected);
                }
            }
            EventKind::ReqComplete { req, latency_ns } => {
                completions.insert(req, (ev.at, latency_ns));
            }
            EventKind::RtsTx { rdv, dest, len } => {
                let t = rdv_entry(&mut rdvs, ev.node, rdv);
                t.rts_tx = Some(ev.at);
                t.len = Some(len);
                t.receiver = Some(dest);
            }
            EventKind::RtsRx { rdv, src, matched } => {
                let t = rdv_entry(&mut rdvs, Some(src), rdv);
                t.rts_rx = Some(ev.at);
                t.matched = Some(matched);
                if t.receiver.is_none() {
                    t.receiver = ev.node;
                }
            }
            EventKind::CtsTx { rdv, dest } => {
                let t = rdv_entry(&mut rdvs, Some(dest), rdv);
                t.cts_tx = Some(ev.at);
            }
            EventKind::CtsRx { rdv, req } => {
                let t = rdv_entry(&mut rdvs, ev.node, rdv);
                t.cts_rx = Some(ev.at);
                t.send_req = Some(req);
            }
            EventKind::DmaTx { rdv, .. } => {
                let t = rdv_entry(&mut rdvs, ev.node, rdv);
                t.dma_chunks += 1;
                if t.dma_first_tx.is_none() {
                    t.dma_first_tx = Some(ev.at);
                }
            }
            EventKind::DmaRx { rdv, src, .. } => {
                let t = rdv_entry(&mut rdvs, Some(src), rdv);
                t.dma_last_rx = Some(ev.at);
            }
            EventKind::RdvComplete { rdv, req, src } => {
                let t = rdv_entry(&mut rdvs, Some(src), rdv);
                t.completed_at = Some(ev.at);
                t.recv_req = Some(req);
            }
            EventKind::Retransmit { .. }
            | EventKind::DupSuppressed { .. }
            | EventKind::RetryExhausted { .. }
            | EventKind::DriverProgress { .. }
            | EventKind::TaskletRun { .. }
            | EventKind::HookWork { .. }
            | EventKind::RmaIssue { .. }
            | EventKind::RmaApply { .. }
            | EventKind::RmaAckRx { .. }
            | EventKind::CollStep { .. } => {}
        }
    }
    for (req, (at, latency_ns)) in completions {
        if let Some(t) = reqs.get_mut(&req) {
            t.completed_at = Some(at);
            t.latency_ns = Some(latency_ns);
        }
    }
    Timelines {
        reqs: reqs.into_values().collect(),
        rdvs: rdvs.into_values().collect(),
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

fn json_opt_usize(v: Option<usize>) -> String {
    json_opt_u64(v.map(|v| v as u64))
}

fn json_opt_time(v: Option<SimTime>) -> String {
    json_opt_u64(v.map(SimTime::as_nanos))
}

fn json_opt_bool(v: Option<bool>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

impl Timelines {
    /// Serializes the timelines as deterministic JSON
    /// (`pm2-obs-timeline/v1`; all instants are virtual nanoseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"pm2-obs-timeline/v1\",\n  \"reqs\": [");
        for (i, r) in self.reqs.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"req\": {}, \"node\": {}, \"role\": \"{}\", \"peer\": {}, \
                 \"tag\": {}, \"len\": {}, \"rdv\": {}, \"posted_at\": {}, \
                 \"submit_at\": {}, \"submit_site\": {}, \"delivered_at\": {}, \
                 \"unexpected\": {}, \"completed_at\": {}, \"latency_ns\": {}}}",
                if i == 0 { "" } else { "," },
                r.req,
                json_opt_usize(r.node),
                r.role.name(),
                json_opt_usize(r.peer),
                r.tag,
                json_opt_usize(r.len),
                json_opt_u64(r.rdv),
                r.posted_at.as_nanos(),
                json_opt_time(r.submit_at),
                match r.submit_site {
                    Some(s) => format!("\"{}\"", s.name()),
                    None => "null".to_string(),
                },
                json_opt_time(r.delivered_at),
                json_opt_bool(r.unexpected),
                json_opt_time(r.completed_at),
                json_opt_u64(r.latency_ns),
            );
        }
        out.push_str("\n  ],\n  \"rdvs\": [");
        for (i, r) in self.rdvs.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"rdv\": {}, \"sender\": {}, \"receiver\": {}, \"len\": {}, \
                 \"rts_tx\": {}, \"rts_rx\": {}, \"matched\": {}, \"cts_tx\": {}, \
                 \"cts_rx\": {}, \"send_req\": {}, \"recv_req\": {}, \"dma_chunks\": {}, \
                 \"dma_first_tx\": {}, \"dma_last_rx\": {}, \"completed_at\": {}}}",
                if i == 0 { "" } else { "," },
                r.rdv,
                json_opt_usize(r.sender),
                json_opt_usize(r.receiver),
                json_opt_usize(r.len),
                json_opt_time(r.rts_tx),
                json_opt_time(r.rts_rx),
                json_opt_bool(r.matched),
                json_opt_time(r.cts_tx),
                json_opt_time(r.cts_rx),
                json_opt_u64(r.send_req),
                json_opt_u64(r.recv_req),
                r.dma_chunks,
                json_opt_time(r.dma_first_tx),
                json_opt_time(r.dma_last_rx),
                json_opt_time(r.completed_at),
            );
        }
        out.push_str("\n  ]\n}");
        out
    }
}

type Provider = Box<dyn Fn() -> Vec<(String, f64)>>;

/// One snapshot/export path over every counter family in the stack.
///
/// Subsystems register named groups of metrics as provider closures
/// (`NmCounters` per node, NIC fault counters, collective counters, obs
/// latency histograms); [`MetricsRegistry::snapshot`] pulls them all at
/// once and [`MetricsRegistry::to_json`] emits deterministic JSON
/// (`pm2-obs-metrics/v1`).
#[derive(Default)]
pub struct MetricsRegistry {
    groups: RefCell<BTreeMap<String, Provider>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or replaces) the provider for `group`.
    pub fn register(
        &self,
        group: impl Into<String>,
        provider: impl Fn() -> Vec<(String, f64)> + 'static,
    ) {
        self.groups
            .borrow_mut()
            .insert(group.into(), Box::new(provider));
    }

    /// Pulls every provider; groups sorted by name, metrics within a group
    /// sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Vec<(String, f64)>)> {
        self.groups
            .borrow()
            .iter()
            .map(|(name, provider)| {
                let mut metrics = provider();
                metrics.sort_by(|a, b| a.0.cmp(&b.0));
                (name.clone(), metrics)
            })
            .collect()
    }

    /// Serializes a snapshot as deterministic JSON (`pm2-obs-metrics/v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"pm2-obs-metrics/v1\",\n  \"groups\": {");
        for (gi, (group, metrics)) in self.snapshot().iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": {{",
                if gi == 0 { "" } else { "," },
                group
            );
            for (mi, (name, value)) in metrics.iter().enumerate() {
                let rendered = if value.fract() == 0.0 && value.abs() < 9e15 {
                    format!("{}", *value as i64)
                } else {
                    format!("{value}")
                };
                let _ = write!(
                    out,
                    "{}\"{}\": {}",
                    if mi == 0 { "" } else { ", " },
                    name,
                    rendered
                );
            }
            out.push('}');
        }
        out.push_str("\n  }\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing_but_ids_tick() {
        let obs = Obs::new();
        obs.emit(
            SimTime::ZERO,
            Some(0),
            EventKind::ReqComplete {
                req: 0,
                latency_ns: 1,
            },
        );
        obs.record_latency("x", 5);
        assert!(obs.events().is_empty());
        assert!(obs.latency_snapshot().is_empty());
        assert_eq!(obs.next_req_id(), 0);
        assert_eq!(obs.next_req_id(), 1);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let emit = |obs: &Obs, i: u64| {
            obs.emit(
                SimTime::from_nanos(i),
                None,
                EventKind::ReqComplete {
                    req: i,
                    latency_ns: 0,
                },
            )
        };
        let reqs = |obs: &Obs| -> Vec<u64> {
            obs.events()
                .iter()
                .map(|e| match e.kind {
                    EventKind::ReqComplete { req, .. } => req,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        let obs = Obs::new();
        obs.set_enabled(true);
        obs.set_capacity(2);
        for i in 0..5 {
            emit(&obs, i);
        }
        assert_eq!(obs.events().len(), 2);
        assert_eq!(obs.dropped(), 3);
        obs.set_capacity(0);
        assert!(obs.events().is_empty());
        emit(&obs, 9);
        assert!(obs.events().is_empty());

        // Shrink below the live length, then keep emitting: the ring never
        // exceeds the new bound again, and every eviction is counted.
        let obs = Obs::new();
        obs.set_enabled(true);
        obs.set_capacity(4);
        for i in 0..4 {
            emit(&obs, i);
        }
        assert_eq!(obs.dropped(), 0);
        obs.set_capacity(2);
        assert_eq!(reqs(&obs), [2, 3]);
        for i in 4..8 {
            emit(&obs, i);
            assert!(obs.events().len() <= 2);
        }
        assert_eq!(reqs(&obs), [6, 7]);
        assert_eq!(obs.dropped(), 6);
    }

    #[test]
    fn site_context_nests() {
        let obs = Obs::new();
        assert_eq!(obs.site(), Site::App);
        let prev = obs.set_site(Site::Tasklet);
        assert_eq!(prev, Site::App);
        assert_eq!(obs.site(), Site::Tasklet);
        obs.set_site(prev);
        assert_eq!(obs.site(), Site::App);
    }

    #[test]
    fn latency_histograms_accumulate() {
        let obs = Obs::new();
        obs.set_enabled(true);
        for ns in [1_000u64, 2_000, 3_000] {
            obs.record_latency("isend", ns);
        }
        let snap = obs.latency_snapshot();
        assert_eq!(snap.len(), 1);
        let (label, count, p50, p99, p999) = snap[0];
        assert_eq!(label, "isend");
        assert_eq!(count, 3);
        assert!(p50 > 0.0);
        // Three samples: every tail percentile answers the same bucket.
        assert_eq!(p99, p999);
    }

    #[test]
    fn latency_histogram_resolves_past_the_old_8ms_clamp() {
        let obs = Obs::new();
        obs.set_enabled(true);
        // 100 ms — far past the 8.192 ms linear span. The geometric tail
        // must answer a value at or above the sample, not clamp to 8.192 ms.
        obs.record_latency("svc", 100_000_000);
        let (_, _, _, _, p999) = obs.latency_snapshot()[0];
        assert!(p999 >= 100_000_000.0, "tail still clamps: p999 = {p999} ns");
        // And the tail is bounded: well under 10 minutes.
        assert!(p999 < 600_000_000_000.0);
    }

    #[test]
    fn eager_timeline_reconstructs() {
        let events = vec![
            Event {
                at: SimTime::from_nanos(10),
                node: Some(0),
                kind: EventKind::SendPosted {
                    req: 1,
                    dest: 1,
                    tag: 7,
                    len: 64,
                    rdv: None,
                },
            },
            Event {
                at: SimTime::from_nanos(11),
                node: Some(1),
                kind: EventKind::RecvPosted {
                    req: 2,
                    src: Some(0),
                    tag: 7,
                },
            },
            Event {
                at: SimTime::from_nanos(20),
                node: Some(0),
                kind: EventKind::NicSubmit {
                    req: 1,
                    dest: 1,
                    bytes: 80,
                    site: Site::Tasklet,
                },
            },
            Event {
                at: SimTime::from_nanos(30),
                node: Some(1),
                kind: EventKind::EagerDeliver {
                    req: 2,
                    src: 0,
                    tag: 7,
                    unexpected: false,
                },
            },
            Event {
                at: SimTime::from_nanos(25),
                node: Some(0),
                kind: EventKind::ReqComplete {
                    req: 1,
                    latency_ns: 15,
                },
            },
            Event {
                at: SimTime::from_nanos(30),
                node: Some(1),
                kind: EventKind::ReqComplete {
                    req: 2,
                    latency_ns: 19,
                },
            },
        ];
        let tl = build_timelines(&events);
        assert_eq!(tl.reqs.len(), 2);
        assert!(tl.rdvs.is_empty());
        let send = &tl.reqs[0];
        assert_eq!(send.role, Role::Send);
        assert_eq!(send.submit_site, Some(Site::Tasklet));
        assert_eq!(send.submit_at, Some(SimTime::from_nanos(20)));
        assert_eq!(send.completed_at, Some(SimTime::from_nanos(25)));
        assert_eq!(send.latency_ns, Some(15));
        let recv = &tl.reqs[1];
        assert_eq!(recv.role, Role::Recv);
        assert_eq!(recv.delivered_at, Some(SimTime::from_nanos(30)));
        assert_eq!(recv.unexpected, Some(false));
        let json = tl.to_json();
        assert!(json.contains("pm2-obs-timeline/v1"));
        assert!(json.contains("\"submit_site\": \"tasklet\""));
    }

    #[test]
    fn rdv_timeline_reconstructs() {
        let events = vec![
            Event {
                at: SimTime::from_nanos(10),
                node: Some(0),
                kind: EventKind::RtsTx {
                    rdv: 1,
                    dest: 1,
                    len: 1 << 16,
                },
            },
            Event {
                at: SimTime::from_nanos(20),
                node: Some(1),
                kind: EventKind::RtsRx {
                    rdv: 1,
                    src: 0,
                    matched: true,
                },
            },
            Event {
                at: SimTime::from_nanos(21),
                node: Some(1),
                kind: EventKind::CtsTx { rdv: 1, dest: 0 },
            },
            Event {
                at: SimTime::from_nanos(30),
                node: Some(0),
                kind: EventKind::CtsRx { rdv: 1, req: 5 },
            },
            Event {
                at: SimTime::from_nanos(31),
                node: Some(0),
                kind: EventKind::DmaTx {
                    rdv: 1,
                    dest: 1,
                    chunk: 0,
                    len: 1 << 15,
                },
            },
            Event {
                at: SimTime::from_nanos(32),
                node: Some(0),
                kind: EventKind::DmaTx {
                    rdv: 1,
                    dest: 1,
                    chunk: 1,
                    len: 1 << 15,
                },
            },
            Event {
                at: SimTime::from_nanos(40),
                node: Some(1),
                kind: EventKind::DmaRx {
                    rdv: 1,
                    src: 0,
                    chunk: 1,
                    len: 1 << 15,
                },
            },
            Event {
                at: SimTime::from_nanos(41),
                node: Some(1),
                kind: EventKind::RdvComplete {
                    rdv: 1,
                    req: 6,
                    src: 0,
                },
            },
        ];
        let tl = build_timelines(&events);
        assert_eq!(tl.rdvs.len(), 1);
        let r = &tl.rdvs[0];
        assert_eq!(r.sender, Some(0));
        assert_eq!(r.receiver, Some(1));
        assert_eq!(r.matched, Some(true));
        assert_eq!(r.dma_chunks, 2);
        assert_eq!(r.send_req, Some(5));
        assert_eq!(r.recv_req, Some(6));
        assert!(r.rts_tx.unwrap() < r.rts_rx.unwrap());
        assert!(r.cts_tx.unwrap() < r.cts_rx.unwrap());
        assert!(r.dma_first_tx.unwrap() < r.dma_last_rx.unwrap());
        assert!(tl.to_json().contains("\"dma_chunks\": 2"));
    }

    #[test]
    fn metrics_registry_exports_sorted_json() {
        let reg = MetricsRegistry::new();
        reg.register("nm.node1", || vec![("b".into(), 2.0), ("a".into(), 1.0)]);
        reg.register("nm.node0", || vec![("x".into(), 1.5)]);
        let snap = reg.snapshot();
        assert_eq!(snap[0].0, "nm.node0");
        assert_eq!(snap[1].1[0].0, "a");
        let json = reg.to_json();
        assert!(json.contains("pm2-obs-metrics/v1"));
        assert!(json.contains("\"a\": 1, \"b\": 2"));
        assert!(json.contains("\"x\": 1.5"));
    }
}
