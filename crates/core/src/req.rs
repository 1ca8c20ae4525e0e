//! Communication requests tracked by PIOMAN.

use pm2_sim::{obs::EventKind, Sim, SimTime, Trigger};
use std::cell::Cell;

/// Why a request finished in an error state rather than with its payload.
///
/// Carried by the request itself so waiters observe the failure through
/// the normal completion path: `fail()` sets the error and then completes,
/// so `swait` loops (which poll `is_complete`) wake up instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqError {
    /// The reliability layer abandoned a frame this request was waiting
    /// on after exhausting its retry budget (the peer or rail is presumed
    /// dead).
    RetriesExhausted,
}

/// A request whose completion PIOMAN detects and signals.
///
/// Created by the communication library when the application posts an
/// operation (isend/irecv); completed by the library's progress callbacks
/// when the corresponding hardware event is detected. Threads wait on the
/// request through [`Pioman::wait`](crate::Pioman::wait), which either
/// makes progress inline or blocks on the request's [`Trigger`] — in the
/// latter case "PIOMAN … unblocks the corresponding thread and asks MARCEL
/// to schedule it" (§3.2).
///
/// The request is its completion trigger: the [`ReqRecord`] rides in the
/// trigger's allocation, so a pending request is one heap block, result
/// and first waiter included, and a handle is one pointer.
#[derive(Clone)]
pub struct PiomReq {
    trigger: Trigger<ReqRecord>,
}

/// What a request knows about itself, carried by its completion trigger.
pub struct ReqRecord {
    id: u64,
    label: &'static str,
    created_at: SimTime,
    /// [`PENDING`] until the request completes.
    completed_at: Cell<SimTime>,
    error: Cell<Option<ReqError>>,
    /// A receive's payload, from delivery until the application takes it.
    data: Cell<Option<Vec<u8>>>,
}

/// `completed_at` of a request that has not completed.
const PENDING: SimTime = SimTime::MAX;

impl PiomReq {
    /// Creates a pending request.
    pub fn new(sim: &Sim, label: &'static str) -> Self {
        PiomReq {
            trigger: Trigger::with_value(ReqRecord {
                id: sim.obs().next_req_id(),
                label,
                created_at: sim.now(),
                completed_at: Cell::new(PENDING),
                error: Cell::new(None),
                data: Cell::new(None),
            }),
        }
    }

    fn rec(&self) -> &ReqRecord {
        self.trigger.value()
    }

    /// Simulation-unique request id (allocated at creation; pm2-obs events
    /// reference requests by this id).
    pub fn id(&self) -> u64 {
        self.rec().id
    }

    /// Marks the request complete, waking all waiters. Idempotent.
    pub fn complete(&self, sim: &Sim) {
        let rec = self.rec();
        if rec.completed_at.get() == PENDING {
            let now = sim.now();
            rec.completed_at.set(now);
            let latency_ns = now.saturating_since(rec.created_at).as_nanos();
            sim.obs().emit(
                now,
                None,
                EventKind::ReqComplete {
                    req: rec.id,
                    latency_ns,
                },
            );
            sim.obs().record_latency(rec.label, latency_ns);
            // pm2-verify: the completion record is the tracked write; the
            // trigger fire is its Release-publish. (is_complete() raw reads
            // model atomic flag loads and stay uninstrumented.)
            sim.verify().touch_write(rec.id);
            sim.verify().hb_publish(rec.id);
            self.trigger.fire();
        }
    }

    /// Completes the request in an error state: records `err`, then runs
    /// the normal completion path so every waiter wakes. A request that
    /// already completed successfully is left untouched (the error would
    /// be a stale verdict — e.g. an ack that was lost after the payload
    /// was delivered). Idempotent like [`PiomReq::complete`].
    pub fn fail(&self, sim: &Sim, err: ReqError) {
        if !self.is_complete() {
            self.rec().error.set(Some(err));
            self.complete(sim);
        }
    }

    /// The typed error, if the request failed rather than completed.
    pub fn error(&self) -> Option<ReqError> {
        self.rec().error.get()
    }

    /// True once completed (successfully or with an error — check
    /// [`PiomReq::error`] to distinguish).
    pub fn is_complete(&self) -> bool {
        self.rec().completed_at.get() != PENDING
    }

    /// Stores a receive's payload, replacing any not yet taken (the
    /// library calls this just before [`PiomReq::complete`]).
    pub fn set_data(&self, data: Vec<u8>) {
        self.rec().data.set(Some(data));
    }

    /// Takes the stored payload, if any.
    pub fn take_data(&self) -> Option<Vec<u8>> {
        self.rec().data.take()
    }

    /// The completion trigger (fires exactly once).
    pub fn trigger(&self) -> &Trigger<ReqRecord> {
        &self.trigger
    }

    /// Diagnostic label ("isend", "rdv-rts", …).
    pub fn label(&self) -> &'static str {
        self.rec().label
    }

    /// When the request was posted.
    pub fn created_at(&self) -> SimTime {
        self.rec().created_at
    }

    /// When it completed, if it has.
    pub fn completed_at(&self) -> Option<SimTime> {
        Some(self.rec().completed_at.get()).filter(|&t| t != PENDING)
    }

    /// Post-to-completion latency, if completed.
    pub fn latency(&self) -> Option<pm2_sim::SimDuration> {
        self.completed_at()
            .map(|t| t.saturating_since(self.rec().created_at))
    }
}

impl std::fmt::Debug for PiomReq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiomReq")
            .field("label", &self.label())
            .field("complete", &self.is_complete())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm2_sim::SimDuration;

    #[test]
    fn lifecycle() {
        let sim = Sim::new(0);
        let req = PiomReq::new(&sim, "test");
        assert!(!req.is_complete());
        assert_eq!(req.latency(), None);
        sim.run_for(SimDuration::from_micros(4));
        req.complete(&sim);
        assert!(req.is_complete());
        assert!(req.trigger().is_fired());
        assert_eq!(req.latency().unwrap().as_micros(), 4);
    }

    #[test]
    fn complete_is_idempotent() {
        let sim = Sim::new(0);
        let req = PiomReq::new(&sim, "x");
        req.complete(&sim);
        let first = req.completed_at();
        sim.run_for(SimDuration::from_micros(1));
        req.complete(&sim);
        assert_eq!(req.completed_at(), first);
    }

    #[test]
    fn fail_completes_with_typed_error() {
        let sim = Sim::new(0);
        let req = PiomReq::new(&sim, "x");
        req.fail(&sim, ReqError::RetriesExhausted);
        assert!(req.is_complete());
        assert!(req.trigger().is_fired());
        assert_eq!(req.error(), Some(ReqError::RetriesExhausted));
    }

    #[test]
    fn fail_after_success_is_a_stale_verdict() {
        let sim = Sim::new(0);
        let req = PiomReq::new(&sim, "x");
        req.complete(&sim);
        req.fail(&sim, ReqError::RetriesExhausted);
        assert_eq!(req.error(), None);
    }

    #[test]
    fn payload_rides_in_the_request() {
        let sim = Sim::new(0);
        let req = PiomReq::new(&sim, "recv");
        let handle = req.clone();
        req.set_data(vec![1, 2]);
        req.complete(&sim);
        assert_eq!(handle.take_data(), Some(vec![1, 2]));
        assert_eq!(handle.take_data(), None, "taken once");
        assert_eq!(std::mem::size_of::<PiomReq>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn clones_share_state() {
        let sim = Sim::new(0);
        let req = PiomReq::new(&sim, "x");
        let req2 = req.clone();
        req.complete(&sim);
        assert!(req2.is_complete());
    }
}
