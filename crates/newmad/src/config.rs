//! Session configuration, engine selection, and cumulative counters.

use pm2_sim::SimDuration;

/// When does an eager submission run in the background vs. inline?
///
/// The paper's §5 lists "an adaptive strategy to choose whether to offload
/// communication or not" as future work; this implements it. Offloading a
/// submission costs the ≈2 µs cross-CPU tasklet invocation measured in
/// §4.1, which is only worth paying when the submission itself is
/// expensive and an idle core actually exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadPolicy {
    /// Always defer to the background engine (the paper's evaluated
    /// design).
    Always,
    /// Always submit inline on the calling thread (classical eager
    /// behaviour, but still PIOMAN-driven for receives).
    Never,
    /// Offload only when an idle core exists *and* the submission cost
    /// exceeds [`SessionConfig::adaptive_min_cost`].
    Adaptive,
}

/// Which progression engine drives the session (the paper's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Original NewMadeleine: progress only inside library calls, on the
    /// calling thread. `swait` busy-polls and never releases the core.
    Sequential,
    /// PIOMAN-enabled NewMadeleine: progress on idle cores / timer ticks /
    /// blocking calls; `swait` blocks and frees the core.
    Pioman,
}

/// Session tuning knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Progression engine.
    pub engine: EngineKind,
    /// Messages above this use the rendezvous protocol (MX: 32 kB).
    pub rdv_threshold: usize,
    /// CPU cost of registering a request in `isend`/`irecv`.
    pub request_registration: SimDuration,
    /// Busy-poll pause of the sequential `swait`.
    pub poll_pause: SimDuration,
    /// Distribute traffic over all rails (multirail) instead of rail 0.
    pub multirail: bool,
    /// Offload-or-inline decision for eager submissions (PIOMAN engine).
    pub offload_policy: OffloadPolicy,
    /// Credit-based flow control: bytes of unexpected-pool space each
    /// peer may consume at this node before its eager sends fall back to
    /// rendezvous. Protects the bounded pool behind §2.2's unexpected
    /// path (MX-style).
    pub credit_bytes_per_peer: usize,
    /// Minimum submission cost worth offloading under
    /// [`OffloadPolicy::Adaptive`] (≈ the cross-CPU tasklet overhead).
    pub adaptive_min_cost: SimDuration,
    /// Spin granularity on the sequential engine's library-wide mutex.
    ///
    /// The original engine is only thread-safe "through a library-wide
    /// scope mutex" (§2): every `isend`/`irecv`/`swait` iteration takes
    /// the big lock, so concurrent threads serialize and burn this much
    /// CPU per failed acquisition. The PIOMAN engine does not use it
    /// (per-event spinlocks are modelled in `PiomanConfig::lock_model`).
    pub seq_lock_spin: SimDuration,
    /// Base retransmit timeout for an unacknowledged envelope, on top of
    /// twice the frame's nominal wire time. Retries back off
    /// exponentially from here (`pm2_sync::exp_factor`).
    pub retransmit_timeout: SimDuration,
    /// Retry budget per envelope: after this many unacknowledged
    /// retransmissions the frame is abandoned and counted in
    /// [`NmCounters::retries_exhausted`] (the rail is presumed dead).
    pub max_retries: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            engine: EngineKind::Pioman,
            rdv_threshold: 32 << 10,
            request_registration: SimDuration::from_nanos(300),
            poll_pause: SimDuration::from_nanos(300),
            multirail: false,
            offload_policy: OffloadPolicy::Always,
            adaptive_min_cost: SimDuration::from_micros(2),
            credit_bytes_per_peer: 16 << 20,
            seq_lock_spin: SimDuration::from_nanos(200),
            retransmit_timeout: SimDuration::from_micros(100),
            max_retries: 16,
        }
    }
}

/// Cumulative session counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NmCounters {
    /// `isend` calls.
    pub sends: u64,
    /// `irecv` calls.
    pub recvs: u64,
    /// Eager frames transmitted (after aggregation).
    pub eager_frames_tx: u64,
    /// Eager messages transmitted (before aggregation).
    pub eager_msgs_tx: u64,
    /// Messages that arrived before their receive was posted.
    pub unexpected: u64,
    /// Rendezvous transfers started (RTS sent).
    pub rdv_started: u64,
    /// Rendezvous transfers completed on the receive side.
    pub rdv_completed: u64,
    /// Intra-node messages through the shared-memory channel.
    pub shm_msgs: u64,
    /// Deliveries observed out of sequence order (expected only under the
    /// shortest-first reordering strategy).
    pub ooo_deliveries: u64,
    /// Failed acquisitions of the sequential engine's library-wide mutex.
    pub seq_lock_contentions: u64,
    /// Eager sends demoted to rendezvous for lack of flow-control credits.
    pub credit_fallbacks: u64,
    /// Credit-return frames transmitted.
    pub credits_returned: u64,
    /// Productive progress steps executed by the network-rail drivers
    /// (submissions plus received frames handled).
    pub net_progress: u64,
    /// Productive progress steps executed by the shared-memory driver.
    pub shm_progress: u64,
    /// Reliability envelopes retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Retransmissions whose protected frame was a rendezvous RTS or CTS
    /// (the handshake re-issue path).
    pub rts_reissues: u64,
    /// Acknowledgement frames queued for received envelopes.
    pub acks_sent: u64,
    /// Duplicate envelopes (or rendezvous chunks) suppressed before they
    /// could reach matching — exactly-once delivery to the app.
    pub dup_suppressed: u64,
    /// Envelopes abandoned after the retry budget ran out.
    pub retries_exhausted: u64,
    /// One-sided puts issued (origin side, any size).
    pub rma_puts: u64,
    /// One-sided gets issued (origin side).
    pub rma_gets: u64,
    /// One-sided accumulates issued (origin side).
    pub rma_accs: u64,
    /// One-sided ops applied to a local window (target side; a chunked
    /// put counts once, on its final chunk).
    pub rma_applied: u64,
    /// RMA completion frames (acks and get replies) queued by the target.
    pub rma_acks_tx: u64,
    /// One-sided frames addressed to a window this node does not expose,
    /// dropped gracefully instead of panicking (a misbehaving or stale
    /// peer must not take the target down).
    pub rma_bad_frames: u64,
    /// Matching-queue records examined across all posted/unexpected
    /// lookups (arena bucket fronts plus lazily skipped stale twins).
    /// Stays O(messages) since the arena refactor; the old linear scans
    /// made this quadratic under unexpected backlogs.
    pub match_probes: u64,
}
