//! Intra-node shared-memory channel.

use crate::params::FabricParams;
use pm2_sim::{Sim, SimDuration, Trigger};
use pm2_topo::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A mailbox between threads of the same node.
///
/// The Table 1 meta-application generates "both intra-node and inter-node
/// communication requests which are either submitted to the network … or to
/// a shared-memory channel" (§4.3). The channel is a coherent-memory
/// queue: the sender copies the message in (CPU cost on the sending side),
/// the receiver copies it out (CPU cost on the receiving side), and
/// visibility takes a short cache-coherence latency.
pub struct ShmChannel<P> {
    node: NodeId,
    sim: Sim,
    params: Rc<FabricParams>,
    queue: RefCell<VecDeque<P>>,
    trigger: RefCell<Trigger>,
    callback: RefCell<Option<Box<dyn Fn()>>>,
    pushed: RefCell<u64>,
    popped: RefCell<u64>,
}

impl<P: 'static> ShmChannel<P> {
    /// Creates the channel for `node`; pass the fabric's `Rc` to share
    /// its cost model instead of holding a copy.
    pub fn new(sim: Sim, node: NodeId, params: impl Into<Rc<FabricParams>>) -> Rc<Self> {
        Rc::new(ShmChannel {
            node,
            sim,
            params: params.into(),
            queue: RefCell::new(VecDeque::new()),
            trigger: RefCell::new(Trigger::new()),
            callback: RefCell::new(None),
            pushed: RefCell::new(0),
            popped: RefCell::new(0),
        })
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// CPU cost of copying `bytes` into (or out of) the channel.
    pub fn copy_cost(&self, bytes: usize) -> SimDuration {
        self.params.shm_copy_cost(bytes)
    }

    /// Enqueues a message; it becomes visible after the coherence latency.
    /// The sender must charge [`ShmChannel::copy_cost`] separately.
    pub fn push(self: &Rc<Self>, msg: P) {
        self.push_after(msg, SimDuration::ZERO);
    }

    /// Enqueues a message whose copy-in takes `delay` of sender CPU time
    /// first; visibility follows the copy plus the coherence latency.
    pub fn push_after(self: &Rc<Self>, msg: P, delay: SimDuration) {
        let this = Rc::clone(self);
        self.sim
            .schedule_in(delay + self.params.shm_latency, move |_| {
                this.queue.borrow_mut().push_back(msg);
                *this.pushed.borrow_mut() += 1;
                this.trigger.borrow().fire();
                if let Some(cb) = this.callback.borrow().as_ref() {
                    cb();
                }
            });
    }

    /// Installs a callback invoked whenever a message becomes visible
    /// (same role as [`pm2's Nic::set_rx_callback`]: nudging idle cores).
    ///
    /// [`pm2's Nic::set_rx_callback`]: crate::Nic::set_rx_callback
    pub fn set_callback(&self, cb: impl Fn() + 'static) {
        *self.callback.borrow_mut() = Some(Box::new(cb));
    }

    /// Polls the mailbox. The receiver must charge
    /// [`ShmChannel::copy_cost`] for the payload it takes.
    pub fn poll(&self) -> Option<P> {
        let m = self.queue.borrow_mut().pop_front();
        if m.is_some() {
            *self.popped.borrow_mut() += 1;
        }
        m
    }

    /// True if a message is visible.
    pub fn pending(&self) -> bool {
        !self.queue.borrow().is_empty()
    }

    /// Trigger fired when a message becomes visible (pre-fired if one is
    /// already pending).
    pub fn trigger(&self) -> Trigger {
        let mut slot = self.trigger.borrow_mut();
        if self.queue.borrow().is_empty() && slot.is_fired() {
            *slot = Trigger::new();
        }
        slot.clone()
    }

    /// The shared-memory wake-up source for PIOMAN's blocking-call
    /// method (alias of [`ShmChannel::trigger`], mirroring
    /// `Nic::hw_trigger` so per-transport progress drivers treat both
    /// uniformly).
    pub fn hw_trigger(&self) -> Trigger {
        self.trigger()
    }

    /// (messages pushed, messages popped) so far.
    pub fn counters(&self) -> (u64, u64) {
        (*self.pushed.borrow(), *self.popped.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_visible_after_latency() {
        let sim = Sim::new(0);
        let ch: Rc<ShmChannel<u32>> =
            ShmChannel::new(sim.clone(), NodeId(0), FabricParams::myri10g());
        ch.push(5);
        assert!(!ch.pending(), "not visible before coherence latency");
        sim.run();
        assert_eq!(sim.now().as_nanos(), 200);
        assert_eq!(ch.poll(), Some(5));
        assert_eq!(ch.poll(), None);
        assert_eq!(ch.counters(), (1, 1));
    }

    #[test]
    fn fifo_order() {
        let sim = Sim::new(0);
        let ch: Rc<ShmChannel<u32>> =
            ShmChannel::new(sim.clone(), NodeId(0), FabricParams::myri10g());
        for i in 0..5 {
            ch.push(i);
        }
        sim.run();
        let got: Vec<u32> = std::iter::from_fn(|| ch.poll()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn trigger_semantics() {
        let sim = Sim::new(0);
        let ch: Rc<ShmChannel<u32>> =
            ShmChannel::new(sim.clone(), NodeId(0), FabricParams::myri10g());
        let t = ch.trigger();
        assert!(!t.is_fired());
        ch.push(1);
        sim.run();
        assert!(t.is_fired());
        assert!(ch.trigger().is_fired(), "pending message keeps it fired");
        let _ = ch.poll();
        assert!(!ch.trigger().is_fired(), "fresh trigger after drain");
    }

    #[test]
    fn copy_cost_scales() {
        let sim = Sim::new(0);
        let ch: Rc<ShmChannel<u32>> = ShmChannel::new(sim, NodeId(0), FabricParams::myri10g());
        assert!(ch.copy_cost(16 << 10) > ch.copy_cost(1 << 10));
    }
}
