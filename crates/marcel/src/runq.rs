//! Hierarchical run queues: core / socket / node levels.
//!
//! Marcel "was carefully designed to … efficiently exploit hierarchical
//! architectures" (§3.1). Ready threads are queued at the level matching
//! what is known about their cache footprint:
//!
//! * **core** — strict affinity only; no other core may pop these;
//! * **socket** — preference: woken communicating threads return to the
//!   socket they last ran on (warm shared cache), but cores of other
//!   sockets may *steal* them rather than idle;
//! * **node** — anywhere (fresh spawns, migrating threads).
//!
//! [`RunQueues::pop_for`] scans priorities from high to low, and within
//! one priority walks own core → own socket → node → other sockets
//! (steal). Two invariants follow, and are asserted directly by the tests
//! below (including randomized ones):
//!
//! * **Priority dominates locality.** The priority loop is outermost, so
//!   a high-priority thread queued on a *remote* socket is picked before
//!   a normal-priority thread in the local one — urgent wakeups
//!   ("communicating threads are ensured to be scheduled as soon as the
//!   communication event is detected", §3.2) are never delayed for cache
//!   reasons. Within one priority, nearer levels win, and the node queue
//!   is drained before any cross-socket steal.
//! * **Urgent wakeups jump their queue.** `front: true` inserts at the
//!   head of the socket or node queue. The strict core level has no
//!   `front` flag: a pinned thread's queue order is its arrival order
//!   (its urgency is already expressed by the priority index).

use crate::thread::{Priority, ThreadId};
use std::collections::VecDeque;

const PRIOS: usize = 3;

/// Where a dispatched thread was queued, for locality statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PopSource {
    /// The core's own strict-affinity queue.
    Core,
    /// The core's own socket (cache-warm).
    LocalSocket,
    /// A node-wide queue.
    Node,
    /// Stolen from another socket's queue.
    RemoteSocket,
}

/// Queue index of a priority (higher index pops first).
pub(crate) fn prio_idx(p: Priority) -> usize {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// Where to enqueue a ready thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Strict: only this local core may run the thread.
    Core(usize),
    /// Preferred socket; `front` jumps the queue (urgent wakeups).
    Socket {
        /// Local socket index.
        socket: usize,
        /// Queue-jump for urgent wakeups.
        front: bool,
    },
    /// Anywhere on the node.
    Node {
        /// Queue-jump for urgent wakeups.
        front: bool,
    },
}

pub(crate) struct RunQueues {
    core: Vec<[VecDeque<ThreadId>; PRIOS]>,
    socket: Vec<[VecDeque<ThreadId>; PRIOS]>,
    node: [VecDeque<ThreadId>; PRIOS],
    cores_per_socket: usize,
}

fn empty_prios() -> [VecDeque<ThreadId>; PRIOS] {
    [VecDeque::new(), VecDeque::new(), VecDeque::new()]
}

impl RunQueues {
    pub(crate) fn new(cores: usize, sockets: usize) -> Self {
        assert!(sockets > 0 && cores % sockets == 0);
        RunQueues {
            core: (0..cores).map(|_| empty_prios()).collect(),
            socket: (0..sockets).map(|_| empty_prios()).collect(),
            node: empty_prios(),
            cores_per_socket: cores / sockets,
        }
    }

    /// Socket of a local core index.
    pub(crate) fn socket_of(&self, local_core: usize) -> usize {
        local_core / self.cores_per_socket
    }

    pub(crate) fn push(&mut self, tid: ThreadId, prio: usize, placement: Placement) {
        match placement {
            Placement::Core(c) => self.core[c][prio].push_back(tid),
            Placement::Socket { socket, front } => {
                if front {
                    self.socket[socket][prio].push_front(tid);
                } else {
                    self.socket[socket][prio].push_back(tid);
                }
            }
            Placement::Node { front } => {
                if front {
                    self.node[prio].push_front(tid);
                } else {
                    self.node[prio].push_back(tid);
                }
            }
        }
    }

    /// Total queued threads.
    pub(crate) fn len(&self) -> usize {
        let per: usize = self
            .core
            .iter()
            .chain(self.socket.iter())
            .map(|qs| qs.iter().map(VecDeque::len).sum::<usize>())
            .sum();
        per + self.node.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Pops the best thread for `local_core`: highest priority first, then
    /// nearest level; remote-socket stealing beats idling.
    pub(crate) fn pop_for(&mut self, local_core: usize) -> Option<(ThreadId, PopSource)> {
        let my_socket = self.socket_of(local_core);
        for prio in (0..PRIOS).rev() {
            if let Some(t) = self.core[local_core][prio].pop_front() {
                return Some((t, PopSource::Core));
            }
            if let Some(t) = self.socket[my_socket][prio].pop_front() {
                return Some((t, PopSource::LocalSocket));
            }
            if let Some(t) = self.node[prio].pop_front() {
                return Some((t, PopSource::Node));
            }
            for s in 0..self.socket.len() {
                if s == my_socket {
                    continue;
                }
                if let Some(t) = self.socket[s][prio].pop_front() {
                    return Some((t, PopSource::RemoteSocket));
                }
            }
        }
        None
    }

    /// Removes a specific thread from wherever it is queued (used when a
    /// queued thread is cancelled). Returns true if found.
    #[allow(dead_code)]
    pub(crate) fn remove(&mut self, tid: ThreadId) -> bool {
        let scan = |q: &mut VecDeque<ThreadId>| {
            q.iter()
                .position(|&t| t == tid)
                .map(|i| q.remove(i))
                .is_some()
        };
        for qs in self.core.iter_mut().chain(self.socket.iter_mut()) {
            for q in qs.iter_mut() {
                if scan(q) {
                    return true;
                }
            }
        }
        for q in self.node.iter_mut() {
            if scan(q) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm2_sim::rng::Xoshiro256;

    fn t(i: usize) -> ThreadId {
        ThreadId {
            slot: i as u32,
            gen: 0,
        }
    }

    #[test]
    fn priority_dominates_locality() {
        // 4 cores, 2 sockets.
        let mut q = RunQueues::new(4, 2);
        q.push(
            t(1),
            1,
            Placement::Socket {
                socket: 0,
                front: false,
            },
        ); // normal, local
        q.push(
            t(2),
            2,
            Placement::Socket {
                socket: 1,
                front: false,
            },
        ); // high, remote
        let (tid, src) = q.pop_for(0).unwrap();
        assert_eq!(tid, t(2), "high priority wins even cross-socket");
        assert_eq!(src, PopSource::RemoteSocket);
        let (tid, src) = q.pop_for(0).unwrap();
        assert_eq!((tid, src), (t(1), PopSource::LocalSocket));
    }

    #[test]
    fn locality_order_within_priority() {
        let mut q = RunQueues::new(4, 2);
        q.push(t(1), 1, Placement::Node { front: false });
        q.push(
            t(2),
            1,
            Placement::Socket {
                socket: 0,
                front: false,
            },
        );
        q.push(t(3), 1, Placement::Core(0));
        assert_eq!(q.pop_for(0).unwrap(), (t(3), PopSource::Core));
        assert_eq!(q.pop_for(0).unwrap(), (t(2), PopSource::LocalSocket));
        assert_eq!(q.pop_for(0).unwrap(), (t(1), PopSource::Node));
        assert!(q.pop_for(0).is_none());
    }

    #[test]
    fn node_queue_beats_remote_socket_steal() {
        // Same priority: the node-level thread is drained before stealing
        // from another socket (the steal is the last resort of the scan).
        let mut q = RunQueues::new(4, 2);
        q.push(
            t(1),
            1,
            Placement::Socket {
                socket: 1,
                front: false,
            },
        );
        q.push(t(2), 1, Placement::Node { front: false });
        assert_eq!(q.pop_for(0).unwrap(), (t(2), PopSource::Node));
        assert_eq!(q.pop_for(0).unwrap(), (t(1), PopSource::RemoteSocket));
    }

    #[test]
    fn strict_core_queue_is_not_stolen() {
        let mut q = RunQueues::new(4, 2);
        q.push(t(1), 1, Placement::Core(3));
        assert!(
            q.pop_for(0).is_none(),
            "core 0 must not steal core 3's thread"
        );
        assert_eq!(q.pop_for(3).unwrap(), (t(1), PopSource::Core));
    }

    #[test]
    fn urgent_front_insertion() {
        let mut q = RunQueues::new(2, 1);
        q.push(
            t(1),
            2,
            Placement::Socket {
                socket: 0,
                front: false,
            },
        );
        q.push(
            t(2),
            2,
            Placement::Socket {
                socket: 0,
                front: true,
            },
        );
        assert_eq!(q.pop_for(0).unwrap().0, t(2));
        assert_eq!(q.pop_for(0).unwrap().0, t(1));
    }

    #[test]
    fn urgent_front_insertion_on_node_level() {
        let mut q = RunQueues::new(2, 1);
        q.push(t(1), 1, Placement::Node { front: false });
        q.push(t(2), 1, Placement::Node { front: true });
        q.push(t(3), 1, Placement::Node { front: true });
        // Each front-insert jumps everything queued so far: LIFO among
        // urgent, ahead of all non-urgent.
        assert_eq!(q.pop_for(0).unwrap().0, t(3));
        assert_eq!(q.pop_for(0).unwrap().0, t(2));
        assert_eq!(q.pop_for(0).unwrap().0, t(1));
    }

    #[test]
    fn len_counts_all_levels() {
        let mut q = RunQueues::new(4, 2);
        q.push(t(1), 0, Placement::Core(1));
        q.push(
            t(2),
            1,
            Placement::Socket {
                socket: 1,
                front: false,
            },
        );
        q.push(t(3), 2, Placement::Node { front: false });
        assert_eq!(q.len(), 3);
        q.remove(t(2));
        assert_eq!(q.len(), 2);
    }

    /// Randomized pushes; model the queue contents and assert after every
    /// pop that (a) no eligible thread of a higher priority remained
    /// queued (priority dominates locality at every level, stealing
    /// included) and (b) strict-affinity threads never leave their core.
    #[test]
    fn prop_priority_dominates_locality_under_random_load() {
        let mut rng = Xoshiro256::new(0xC0FFEE);
        for round in 0..200 {
            let sockets = 1 + (rng.gen_below(3) as usize); // 1..=3
            let cores = sockets * (1 + rng.gen_below(4) as usize);
            let mut q = RunQueues::new(cores, sockets);
            // Model: priority of every queued thread + its strict core.
            let mut prio_of = std::collections::BTreeMap::new();
            let mut strict = std::collections::BTreeMap::new();
            let n = 1 + rng.gen_below(24) as usize;
            for i in 0..n {
                let prio = rng.gen_below(3) as usize;
                let placement = match rng.gen_below(3) {
                    0 => {
                        let c = rng.gen_below(cores as u64) as usize;
                        strict.insert(t(round * 100 + i), c);
                        Placement::Core(c)
                    }
                    1 => Placement::Socket {
                        socket: rng.gen_below(sockets as u64) as usize,
                        front: rng.gen_bool(0.3),
                    },
                    _ => Placement::Node {
                        front: rng.gen_bool(0.3),
                    },
                };
                prio_of.insert(t(round * 100 + i), prio);
                q.push(t(round * 100 + i), prio, placement);
            }
            let popper = rng.gen_below(cores as u64) as usize;
            let mut popped = 0usize;
            while let Some((tid, _src)) = q.pop_for(popper) {
                let p = prio_of.remove(&tid).expect("popped a queued thread");
                // (b) strict threads only surface on their own core.
                if let Some(c) = strict.get(&tid) {
                    assert_eq!(*c, popper, "strict thread stolen");
                }
                // (a) nothing still queued and *eligible for this core*
                // has a higher priority index.
                let best_left = prio_of
                    .iter()
                    .filter(|(tid, _)| strict.get(*tid).map(|c| *c == popper).unwrap_or(true))
                    .map(|(_, p)| *p)
                    .max();
                if let Some(best) = best_left {
                    assert!(
                        p >= best,
                        "popped prio {p} while an eligible prio-{best} thread waited"
                    );
                }
                popped += 1;
            }
            // Everything non-strict (plus popper-strict) must drain.
            assert!(
                prio_of
                    .keys()
                    .all(|tid| strict.get(tid).map(|c| *c != popper).unwrap_or(false)),
                "eligible threads left queued"
            );
            assert_eq!(popped + prio_of.len(), n);
        }
    }

    /// Randomized front/back pushes at one level+priority must pop with
    /// every `front: true` batch (in LIFO order) ahead of the FIFO rest.
    #[test]
    fn prop_front_insertion_orders_urgent_first() {
        let mut rng = Xoshiro256::new(7);
        for _ in 0..200 {
            let mut q = RunQueues::new(2, 1);
            let n = 1 + rng.gen_below(16) as usize;
            let mut urgent_lifo = Vec::new();
            let mut fifo = std::collections::VecDeque::new();
            for i in 0..n {
                let front = rng.gen_bool(0.5);
                q.push(t(i), 1, Placement::Socket { socket: 0, front });
                // Model of the expected pop order so far.
                if front {
                    urgent_lifo.push(t(i));
                } else {
                    fifo.push_back(t(i));
                }
            }
            let mut expect: Vec<ThreadId> = urgent_lifo.into_iter().rev().collect();
            expect.extend(fifo);
            let mut got = Vec::new();
            while let Some((tid, src)) = q.pop_for(0) {
                assert_eq!(src, PopSource::LocalSocket);
                got.push(tid);
            }
            assert_eq!(got, expect);
        }
    }
}
