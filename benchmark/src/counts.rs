//! Per-layer counts: every public counter the crates expose, read after a
//! run and summed over ranks.
//!
//! The node-level families come through the crates' own
//! `register_metrics` providers (`nm.node<i>`, `pioman.node<i>`,
//! `sched.node<i>`, `nic.node<i>.rail<r>`, `coll.rank<r>`), so a counter
//! added there shows up here without a change; the registration cache and
//! the simulator's own getters are added by hand.

use crate::workloads::Built;
use pm2_sim::MetricsRegistry;
use std::collections::BTreeMap;

/// `family.counter → sum over ranks`, e.g. `nm.sends`, `nic.tx_frames`.
pub type Counts = BTreeMap<String, f64>;

/// Reads every counter of a finished run.
pub fn snapshot(built: &Built) -> Counts {
    let reg = MetricsRegistry::new();
    built.cluster.register_metrics(&reg);
    for comm in &built.comms {
        comm.register_metrics(&reg);
    }
    let mut counts = Counts::new();
    for (group, metrics) in reg.snapshot() {
        // The `latency` group holds obs histograms, not summable counters.
        let Some((family, _)) = group.split_once('.') else {
            continue;
        };
        for (name, value) in metrics {
            *counts.entry(format!("{family}.{name}")).or_default() += value;
        }
    }
    for node in 0..built.cluster.ranks() {
        let cache = built.cluster.session(node).registry().stats();
        *counts.entry("reg.hits".into()).or_default() += cache.hits as f64;
        *counts.entry("reg.misses".into()).or_default() += cache.misses as f64;
        *counts.entry("reg.evictions".into()).or_default() += cache.evictions as f64;
    }
    let sim = built.cluster.sim();
    counts.insert("sim.executed_events".into(), sim.executed_events() as f64);
    counts.insert("sim.polls".into(), sim.polls() as f64);
    counts.insert("sim.live_tasks".into(), sim.live_tasks() as f64);
    counts.insert("sim.event_queue_keys".into(), sim.event_queue_keys() as f64);
    counts.insert("sim.pending_events".into(), sim.pending_events() as f64);
    counts
}
