//! Idle hooks: the polling sites PIOMAN attaches to otherwise-idle cores
//! ("leaving a core idle boils down to a busy waiting", §3.2).

use super::Marcel;
use crate::sched::stats::bump_shard;
use pm2_sim::obs::EventKind;
use pm2_sim::{SimDuration, SimTime};
use pm2_topo::CoreId;
use std::rc::Rc;

/// Result of one idle-hook invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookResult {
    /// Nothing to do and nothing expected: the core may truly sleep.
    Nothing,
    /// An unproductive poll that charged the given CPU time and changed
    /// nothing but counters; events are being awaited, so the core keeps
    /// polling (the "busy waiting" of §3.2). Because the poll is pure,
    /// the core *parks*: its polling grid (one sweep every `cost`, or
    /// every [`crate::MarcelConfig::idle_poll_period`] if `cost` is zero)
    /// is computed, not simulated, until [`Marcel::doorbell`] or
    /// [`Marcel::wake_parked`] reports a change (see
    /// [`IdleHook::skipped`]). A poll that wrote shared state (took a
    /// lock, counted towards a quarantine) must report
    /// [`HookResult::Worked`] instead.
    Idle(SimDuration),
    /// Work was performed (or shared state written), consuming the given
    /// CPU time; re-check immediately afterwards.
    Worked(SimDuration),
    /// Like [`HookResult::Worked`], additionally naming which shard of
    /// the hook's backend did the work (e.g. which PIOMAN progress
    /// driver); Marcel tallies per-shard hook work for it.
    WorkedOn {
        /// CPU time the work consumed.
        cost: SimDuration,
        /// Shard index the work is attributed to.
        shard: u32,
    },
}

/// A polling site run by idle cores.
pub trait IdleHook {
    /// Polls once on `core`.
    fn poll(&self, marcel: &Marcel, core: CoreId) -> HookResult;

    /// `sweeps` polls that would each have returned [`HookResult::Idle`]
    /// were computed instead of run (the core was parked): account for
    /// them as if they had run, as the last poll that returned
    /// [`HookResult::Idle`] did.
    fn skipped(&self, _sweeps: u64) {}

    /// A fingerprint of everything a poll reads, which must not depend on
    /// the polling core: two equal views mean two polls behave alike.
    ///
    /// This is what lets a node wake one parked core per change (see
    /// [`Marcel::wake_parked`]): a pure sweep on any core proves every
    /// parked core's next sweep pure. Debug builds check, after each step
    /// in which a parked core's computed sweeps fired, that the views are
    /// those the node's last cleaning sweep read, so a change that forgets
    /// to ring panics before a skipped sweep could matter.
    fn view(&self) -> u64;
}

/// What one sweep over every hook found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sweep {
    /// Every hook returned [`HookResult::Nothing`].
    Nothing,
    /// Some hook is awaiting events and none did work: the core parks.
    Idle(SimDuration),
    /// Some hook worked: poll again after `cost` (in real events).
    Worked(SimDuration),
}

/// The registered hooks, snapshotted so a sweep runs them unborrowed
/// without copying the list.
pub(crate) type Hooks = Rc<[Rc<dyn IdleHook>]>;

impl Marcel {
    /// Registers an idle hook, called whenever a core runs out of work.
    pub fn register_idle_hook(&self, hook: impl IdleHook + 'static) {
        let mut st = self.inner.state.borrow_mut();
        let mut hooks: Vec<Rc<dyn IdleHook>> = st.hooks.iter().cloned().collect();
        hooks.push(Rc::new(hook));
        st.hooks = hooks.into();
        drop(st);
        self.wake_parked();
    }

    /// The parking oracle, run in debug builds after each step in which
    /// parked cores of this node made computed sweeps. They may only fire
    /// while the node is clean — a dirty node keeps an observer pending
    /// ahead of every parked core, so none fires — and while its hooks
    /// still show the views its cleaning sweep read. Either failing means
    /// a parked core skipped a sweep that would have read a change.
    #[cfg(debug_assertions)]
    pub(crate) fn parking_oracle(&self) {
        let st = self.inner.state.borrow();
        let (node, now) = (self.node().0, self.inner.sim.now().as_nanos());
        assert!(
            !st.bell.dirty,
            "parking oracle: node {node}, after {now} ns: a parked core swept \
             unobserved on a dirty node (no observer ahead of it)"
        );
        let same = st.hooks.len() == st.bell.views.len()
            && st
                .hooks
                .iter()
                .zip(&st.bell.views)
                .all(|(h, v)| h.view() == *v);
        assert!(
            same,
            "parking oracle: node {node}, after {now} ns: the state its idle \
             sweeps read changed without a ring"
        );
    }

    /// Runs every registered hook once on `core` and folds the results.
    pub(crate) fn hook_sweep(&self, core: CoreId, now: SimTime) -> Sweep {
        let hooks = {
            let mut st = self.inner.state.borrow_mut();
            st.stats.hook_sweeps += 1;
            Rc::clone(&st.hooks)
        };
        let mut idle = None;
        let mut worked = None;
        for hook in hooks.iter() {
            let (c, shard) = match hook.poll(self, core) {
                HookResult::Nothing => continue,
                HookResult::Idle(c) => {
                    idle = Some(idle.unwrap_or(SimDuration::ZERO) + c);
                    continue;
                }
                HookResult::Worked(c) => (c, None),
                HookResult::WorkedOn { cost, shard } => {
                    bump_shard(&mut self.inner.state.borrow_mut().hook_shard_work, shard);
                    (cost, Some(shard as usize))
                }
            };
            worked = Some(worked.unwrap_or(SimDuration::ZERO) + c);
            self.inner.sim.obs().emit(
                now,
                Some(self.node().0),
                EventKind::HookWork {
                    core: core.0,
                    shard,
                    cost: c.as_nanos(),
                },
            );
        }
        match (worked, idle) {
            // An unproductive poll beside a productive one is charged
            // too; the core polls again in real events either way.
            (Some(w), i) => Sweep::Worked(w + i.unwrap_or(SimDuration::ZERO)),
            (None, Some(i)) => Sweep::Idle(i),
            (None, None) => Sweep::Nothing,
        }
    }
}
