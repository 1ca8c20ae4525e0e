//! A differential script for virtual periodic events: chains of periodic
//! events, each run once as real self-rescheduling events and once as a
//! virtual event, woken at random by probe events. Both runs must log the
//! same lines at the same instants.
//!
//! Shared by pm2-sim's unit tests and the seed-matrix suite in
//! `tests/idle.rs`; the including module must have `Sim`, `SimDuration`,
//! `SimTime` and `VirtualEvent` in scope.

use super::{Sim, SimDuration, SimTime, VirtualEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// One chain: a periodic event that, once woken, runs its next firing for
/// real and starts over.
#[derive(Default)]
struct Chain {
    period: u64,
    fired: u64,
    /// Started and not woken yet.
    parked: bool,
    woken: bool,
    virt: Option<VirtualEvent>,
}

type Log = Rc<RefCell<Vec<(u64, String)>>>;
type Chains = Rc<RefCell<Vec<Chain>>>;

fn start_chain(sim: &Sim, chains: &Chains, log: &Log, i: usize, virtual_: bool) {
    let at = sim.now() + SimDuration::from_nanos(chains.borrow()[i].period);
    chains.borrow_mut()[i].fired = 0;
    chains.borrow_mut()[i].parked = true;
    if virtual_ {
        let period = SimDuration::from_nanos(chains.borrow()[i].period);
        chains.borrow_mut()[i].virt = Some(sim.schedule_virtual(at, period));
    } else {
        let (chains, log) = (Rc::clone(chains), Rc::clone(log));
        sim.schedule_at(at, move |sim| fire_real(sim, &chains, &log, i));
    }
}

fn fire_real(sim: &Sim, chains: &Chains, log: &Log, i: usize) {
    let woken = std::mem::take(&mut chains.borrow_mut()[i].woken);
    if woken {
        woke(sim, chains, log, i, false);
    } else {
        chains.borrow_mut()[i].fired += 1;
        let at = sim.now() + SimDuration::from_nanos(chains.borrow()[i].period);
        let (chains, log) = (Rc::clone(chains), Rc::clone(log));
        sim.schedule_at(at, move |sim| fire_real(sim, &chains, &log, i));
    }
}

fn woke(sim: &Sim, chains: &Chains, log: &Log, i: usize, virtual_: bool) {
    let fired = chains.borrow()[i].fired;
    log.borrow_mut()
        .push((sim.now().as_nanos(), format!("chain {i} after {fired}")));
    start_chain(sim, chains, log, i, virtual_);
}

fn wake(sim: &Sim, chains: &Chains, log: &Log, i: usize, virtual_: bool) {
    if !std::mem::take(&mut chains.borrow_mut()[i].parked) {
        return; // not started, or already woken
    }
    if virtual_ {
        let v = chains.borrow_mut()[i].virt.take().expect("parked");
        let (c2, l2) = (Rc::clone(chains), Rc::clone(log));
        let (_, _, fired) = sim.materialize(v, move |sim| woke(sim, &c2, &l2, i, true));
        chains.borrow_mut()[i].fired = fired;
    } else {
        chains.borrow_mut()[i].woken = true;
    }
}

fn probe(sim: &Sim, chains: &Chains, log: &Log, id: u64, virtual_: bool) {
    log.borrow_mut()
        .push((sim.now().as_nanos(), format!("probe {id}")));
    let n = chains.borrow().len() as u64;
    let (roll, pick, delay) = sim.with_rng(|r| {
        let delays = [0u64, 10, 100, 230, 460, 500, 10 * r.gen_below(100)];
        (
            r.gen_below(3),
            r.gen_below(n) as usize,
            delays[r.gen_below(7) as usize],
        )
    });
    match roll {
        0 => {
            let (c, l) = (Rc::clone(chains), Rc::clone(log));
            sim.schedule_in(SimDuration::from_nanos(delay), move |sim| {
                probe(sim, &c, &l, id + 1000, virtual_)
            });
        }
        1 => wake(sim, chains, log, pick, virtual_),
        _ => {}
    }
}

/// A seeded script of probe events on a 10 ns lattice — with delays that
/// hit the chains' grids exactly — that wake the chains, one per entry of
/// `periods`, at random; 20 probes per chain. Returns the log of probes
/// and wake-ups, stamped with their instants.
pub fn chain_script(seed: u64, periods: &[u64], virtual_: bool) -> Vec<(u64, String)> {
    let sim = Sim::new(seed);
    let log: Log = Rc::default();
    let chains: Chains = Rc::default();
    for &period in periods {
        chains.borrow_mut().push(Chain {
            period,
            ..Chain::default()
        });
    }
    for i in 0..periods.len() {
        let start = sim.with_rng(|r| 10 * r.gen_below(200));
        let (c, l) = (Rc::clone(&chains), Rc::clone(&log));
        sim.schedule_at(SimTime::from_nanos(start), move |sim| {
            start_chain(sim, &c, &l, i, virtual_)
        });
    }
    for id in 0..20 * periods.len() as u64 {
        let at = sim.with_rng(|r| 10 * r.gen_below(3000));
        let (c, l) = (Rc::clone(&chains), Rc::clone(&log));
        sim.schedule_at(SimTime::from_nanos(at), move |sim| {
            probe(sim, &c, &l, id, virtual_)
        });
    }
    sim.run_until(SimTime::from_nanos(40_000));
    let out = log.borrow().clone();
    out
}
