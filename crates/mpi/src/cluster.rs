//! Building the whole simulated stack from one configuration.

use pioman::{Pioman, PiomanConfig};
use pm2_coll::CollTuning;
use pm2_fabric::{Fabric, FabricParams, ShmChannel};
use pm2_marcel::{Marcel, MarcelConfig, Priority, ThreadCtx, ThreadId};
use pm2_newmad::{
    AggregStrategy, EngineKind, FifoStrategy, OffloadPolicy, Session, SessionConfig, ShmMsg,
    ShortestFirstStrategy, Strategy, WireMsg,
};
use pm2_rma::RmaEngine;
use pm2_sim::{MetricsRegistry, Sim, SimTime};
use pm2_topo::{NodeId, Topology};
use std::future::Future;
use std::rc::Rc;

/// Which packet-scheduling strategy the sessions use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Strict FIFO (one frame per pack).
    #[default]
    Fifo,
    /// Aggregation of small messages (\[2\]'s optimization).
    Aggreg,
    /// Smallest-payload-first reordering.
    ShortestFirst,
}

impl StrategyKind {
    fn build(self) -> Rc<dyn Strategy> {
        match self {
            StrategyKind::Fifo => Rc::new(FifoStrategy),
            StrategyKind::Aggreg => Rc::new(AggregStrategy::default()),
            StrategyKind::ShortestFirst => Rc::new(ShortestFirstStrategy),
        }
    }
}

/// Everything needed to build a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (= MPI ranks).
    pub nodes: usize,
    /// Sockets per node.
    pub sockets_per_node: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Progression engine (the paper's comparison axis).
    pub engine: EngineKind,
    /// Independent network rails (NICs per node).
    pub rails: usize,
    /// Distribute traffic over all rails.
    pub multirail: bool,
    /// Packet-scheduling strategy.
    pub strategy: StrategyKind,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Interconnect cost model.
    pub fabric: FabricParams,
    /// Scheduler cost model.
    pub marcel: MarcelConfig,
    /// PIOMAN behaviour (ignored by the sequential engine).
    pub pioman: PiomanConfig,
    /// Rendezvous threshold (bytes).
    pub rdv_threshold: usize,
    /// Offload-or-inline policy for eager submissions (PIOMAN engine).
    pub offload_policy: OffloadPolicy,
    /// Per-peer unexpected-pool credits (flow control).
    pub credit_bytes_per_peer: usize,
    /// Collective-engine tuning (algorithm selection thresholds).
    pub coll: CollTuning,
}

impl ClusterConfig {
    /// The paper's testbed: 2 nodes × dual quad-core, MYRI-10G, with the
    /// given engine.
    pub fn paper_testbed(engine: EngineKind) -> Self {
        ClusterConfig {
            nodes: 2,
            sockets_per_node: 2,
            cores_per_socket: 4,
            engine,
            rails: 1,
            multirail: false,
            strategy: StrategyKind::Fifo,
            seed: 42,
            fabric: FabricParams::myri10g(),
            marcel: MarcelConfig::default(),
            pioman: PiomanConfig::default(),
            rdv_threshold: 32 << 10,
            offload_policy: OffloadPolicy::Always,
            credit_bytes_per_peer: 16 << 20,
            coll: CollTuning::default(),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_testbed(EngineKind::Pioman)
    }
}

/// A fully wired simulated cluster.
///
/// # Example
/// ```
/// use pm2_mpi::{Cluster, ClusterConfig};
/// use pm2_newmad::{EngineKind, Tag};
/// use pm2_topo::NodeId;
///
/// let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Pioman));
/// let tx = cluster.session(0).clone();
/// cluster.spawn_on(0, "tx", move |ctx| async move {
///     tx.send(&ctx, NodeId(1), Tag(1), vec![7; 1024]).await;
/// });
/// let rx = cluster.session(1).clone();
/// cluster.spawn_on(1, "rx", move |ctx| async move {
///     assert_eq!(rx.recv(&ctx, Some(NodeId(0)), Tag(1)).await, vec![7; 1024]);
/// });
/// cluster.run();
/// ```
pub struct Cluster {
    sim: Sim,
    topo: Rc<Topology>,
    engine: EngineKind,
    /// Kept alive so the links persist (NICs hold weak fabric handles).
    #[allow(dead_code)]
    fabrics: Vec<Rc<Fabric<WireMsg>>>,
    marcels: Vec<Marcel>,
    piomans: Vec<Option<Pioman>>,
    sessions: Vec<Session>,
    rmas: Vec<RmaEngine>,
    /// Shared by every rank's collective engine ([`crate::Comm::world`]).
    pub(crate) coll: Rc<CollTuning>,
}

impl Cluster {
    /// Builds the stack described by `cfg`.
    pub fn build(cfg: ClusterConfig) -> Cluster {
        assert!(cfg.rails >= 1, "need at least one rail");
        let sim = Sim::new(cfg.seed);
        let topo = Rc::new(Topology::new(
            cfg.nodes,
            cfg.sockets_per_node,
            cfg.cores_per_socket,
        ));
        // One cost model for the whole cluster: every rail's NICs, every
        // shared-memory channel and every session's registry share it.
        let params = Rc::new(cfg.fabric);
        let fabrics: Vec<Rc<Fabric<WireMsg>>> = (0..cfg.rails)
            .map(|_| Fabric::new(sim.clone(), Rc::clone(&topo), Rc::clone(&params)))
            .collect();
        // Likewise one scheduler, server and session config for all
        // nodes.
        let marcel_cfg = Rc::new(cfg.marcel);
        let pioman_cfg = Rc::new(cfg.pioman);
        let session_cfg = Rc::new(SessionConfig {
            engine: cfg.engine,
            rdv_threshold: cfg.rdv_threshold,
            multirail: cfg.multirail,
            offload_policy: cfg.offload_policy,
            credit_bytes_per_peer: cfg.credit_bytes_per_peer,
            ..SessionConfig::default()
        });
        let mut marcels = Vec::new();
        let mut piomans = Vec::new();
        let mut sessions = Vec::new();
        for n in 0..cfg.nodes {
            let marcel = Marcel::new(
                sim.clone(),
                Rc::clone(&topo),
                NodeId(n),
                Rc::clone(&marcel_cfg),
            );
            let pioman = match cfg.engine {
                EngineKind::Pioman => Some(Pioman::new(&marcel, Rc::clone(&pioman_cfg))),
                EngineKind::Sequential => None,
            };
            let rails = fabrics.iter().map(|f| f.nic(NodeId(n))).collect();
            let shm: Rc<ShmChannel<ShmMsg>> =
                ShmChannel::new(sim.clone(), NodeId(n), Rc::clone(&params));
            let session = Session::new(
                &marcel,
                rails,
                shm,
                cfg.strategy.build(),
                pioman.clone(),
                Rc::clone(&session_cfg),
            );
            marcels.push(marcel);
            piomans.push(pioman);
            sessions.push(session);
        }
        let rmas = sessions.iter().map(RmaEngine::new).collect();
        Cluster {
            sim,
            topo,
            engine: cfg.engine,
            fabrics,
            marcels,
            piomans,
            sessions,
            rmas,
            coll: Rc::new(cfg.coll),
        }
    }

    /// Collective-engine tuning this cluster was built with.
    pub fn coll_tuning(&self) -> &CollTuning {
        &self.coll
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The topology.
    pub fn topology(&self) -> &Rc<Topology> {
        &self.topo
    }

    /// Engine the cluster was built with.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Number of ranks (= nodes).
    pub fn ranks(&self) -> usize {
        self.sessions.len()
    }

    /// The scheduler of `node`.
    pub fn marcel(&self, node: usize) -> &Marcel {
        &self.marcels[node]
    }

    /// The PIOMAN server of `node` (None under the sequential engine).
    pub fn pioman(&self, node: usize) -> Option<&Pioman> {
        self.piomans[node].as_ref()
    }

    /// The session of `node`.
    pub fn session(&self, node: usize) -> &Session {
        &self.sessions[node]
    }

    /// The one-sided (RMA) engine of `node`: create windows with
    /// [`RmaEngine::window_create`] and issue `put`/`get`/`accumulate`
    /// against remote windows with passive-target completion.
    pub fn rma(&self, node: usize) -> &RmaEngine {
        &self.rmas[node]
    }

    /// Traffic and fault counters of `node`'s NIC on `rail` (the
    /// fault-scenario tests read injection tallies through this).
    pub fn nic_counters(&self, node: usize, rail: usize) -> pm2_fabric::NicCounters {
        self.fabrics[rail].nic(NodeId(node)).counters()
    }

    /// Registers this cluster's counter families with a pm2-obs
    /// [`MetricsRegistry`]: per-node NewMadeleine counters (`nm.node<i>`),
    /// PIOMAN progression stats (`pioman.node<i>`), per-NIC traffic and
    /// fault counters (`nic.node<i>.rail<r>`) and the request-latency
    /// histograms accumulated by the obs layer (`latency`). Providers pull
    /// live state, so one registration serves every later snapshot.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        for n in 0..self.ranks() {
            let session = self.sessions[n].clone();
            reg.register(format!("nm.node{n}"), move || {
                let c = session.counters();
                vec![
                    ("sends".into(), c.sends as f64),
                    ("recvs".into(), c.recvs as f64),
                    ("eager_frames_tx".into(), c.eager_frames_tx as f64),
                    ("eager_msgs_tx".into(), c.eager_msgs_tx as f64),
                    ("unexpected".into(), c.unexpected as f64),
                    ("match_probes".into(), c.match_probes as f64),
                    ("rdv_started".into(), c.rdv_started as f64),
                    ("rdv_completed".into(), c.rdv_completed as f64),
                    ("shm_msgs".into(), c.shm_msgs as f64),
                    ("ooo_deliveries".into(), c.ooo_deliveries as f64),
                    ("seq_lock_contentions".into(), c.seq_lock_contentions as f64),
                    ("credit_fallbacks".into(), c.credit_fallbacks as f64),
                    ("credits_returned".into(), c.credits_returned as f64),
                    ("net_progress".into(), c.net_progress as f64),
                    ("shm_progress".into(), c.shm_progress as f64),
                    ("retransmits".into(), c.retransmits as f64),
                    ("rts_reissues".into(), c.rts_reissues as f64),
                    ("acks_sent".into(), c.acks_sent as f64),
                    ("dup_suppressed".into(), c.dup_suppressed as f64),
                    ("retries_exhausted".into(), c.retries_exhausted as f64),
                    ("rma_puts".into(), c.rma_puts as f64),
                    ("rma_gets".into(), c.rma_gets as f64),
                    ("rma_accs".into(), c.rma_accs as f64),
                    ("rma_applied".into(), c.rma_applied as f64),
                    ("rma_acks_tx".into(), c.rma_acks_tx as f64),
                    ("rma_bad_frames".into(), c.rma_bad_frames as f64),
                ]
            });
            if let Some(pioman) = self.piomans[n].clone() {
                reg.register(format!("pioman.node{n}"), move || {
                    let s = pioman.stats();
                    vec![
                        ("inline_progress".into(), s.inline_progress as f64),
                        ("hook_progress".into(), s.hook_progress as f64),
                        ("tasklet_progress".into(), s.tasklet_progress as f64),
                        ("blocking_wakeups".into(), s.blocking_wakeups as f64),
                        ("lock_contentions".into(), s.lock_contentions as f64),
                        ("waits".into(), s.waits as f64),
                        ("max_submission_burst".into(), s.max_submission_burst as f64),
                        ("thread_progress".into(), s.thread_progress as f64),
                    ]
                });
            }
            let marcel = self.marcels[n].clone();
            reg.register(format!("sched.node{n}"), move || {
                let s = marcel.stats();
                let mut kv: Vec<(String, f64)> = vec![
                    ("dispatches".into(), s.dispatches as f64),
                    ("tasklet_runs".into(), s.tasklet_runs as f64),
                    ("tasklet_coalesced".into(), s.tasklet_coalesced as f64),
                    ("hook_sweeps".into(), s.hook_sweeps as f64),
                    ("compute_steals".into(), s.compute_steals as f64),
                    ("timer_ticks".into(), s.timer_ticks as f64),
                    ("pop_core".into(), s.pop_core as f64),
                    ("pop_local_socket".into(), s.pop_local_socket as f64),
                    ("pop_node".into(), s.pop_node as f64),
                    ("pop_steal".into(), s.pop_steal as f64),
                ];
                for (i, w) in marcel.hook_shard_work().iter().enumerate() {
                    kv.push((format!("hook_shard{i}_work"), *w as f64));
                }
                for (i, w) in marcel.tasklet_shard_work().iter().enumerate() {
                    kv.push((format!("tasklet_shard{i}_work"), *w as f64));
                }
                kv
            });
            for (r, fabric) in self.fabrics.iter().enumerate() {
                let nic = fabric.nic(NodeId(n));
                reg.register(format!("nic.node{n}.rail{r}"), move || {
                    let c = nic.counters();
                    vec![
                        ("tx_frames".into(), c.tx_frames as f64),
                        ("tx_bytes".into(), c.tx_bytes as f64),
                        ("rx_frames".into(), c.rx_frames as f64),
                        ("rx_bytes".into(), c.rx_bytes as f64),
                        ("polls".into(), c.polls as f64),
                        ("faults_dropped".into(), c.faults_dropped as f64),
                        ("faults_duplicated".into(), c.faults_duplicated as f64),
                        ("faults_delayed".into(), c.faults_delayed as f64),
                        ("faults_corrupted".into(), c.faults_corrupted as f64),
                        ("faults_stalled".into(), c.faults_stalled as f64),
                    ]
                });
            }
        }
        let sim = self.sim.clone();
        reg.register("latency", move || {
            sim.obs()
                .latency_snapshot()
                .into_iter()
                .flat_map(|(label, count, p50, p99, p999)| {
                    vec![
                        (format!("{label}.count"), count as f64),
                        (format!("{label}.p50_ns"), p50),
                        (format!("{label}.p99_ns"), p99),
                        (format!("{label}.p999_ns"), p999),
                    ]
                })
                .collect()
        });
    }

    /// Spawns a thread on `node` running `body`.
    pub fn spawn_on<F, Fut>(&self, node: usize, name: impl Into<String>, body: F) -> ThreadId
    where
        F: FnOnce(ThreadCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        self.marcels[node].spawn(name, Priority::Normal, None, body)
    }

    /// Runs the simulation to quiescence; returns the final virtual time.
    pub fn run(&self) -> SimTime {
        self.sim.run()
    }

    /// Runs to quiescence like [`Cluster::run`], but panics if the run
    /// has not converged by virtual time `deadline` — the CI-friendly way
    /// to execute workloads that *should* finish (a wedged protocol fails
    /// the test with a clear message instead of spinning forever).
    /// Cancelled timers past the deadline don't count as pending work
    /// (see [`Sim::run_bounded`]).
    pub fn run_deadline(&self, deadline: SimTime) -> SimTime {
        match self.sim.run_bounded(deadline) {
            Ok(end) => end,
            Err(_) => panic!(
                "simulation still busy at the {deadline} deadline: \
                 protocol wedged (live events pending at t={})",
                self.sim.now()
            ),
        }
    }
}

impl Drop for Cluster {
    /// Discards the work left unfinished ([`Sim::discard_pending`]): an
    /// application thread, watcher or timer that never ran to its end
    /// holds the simulation, and with it the whole cluster, alive.
    fn drop(&mut self) {
        self.sim.discard_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm2_newmad::Tag;
    use std::cell::RefCell;

    #[test]
    fn paper_testbed_builds_and_communicates() {
        let cluster = Cluster::build(ClusterConfig::default());
        assert_eq!(cluster.ranks(), 2);
        assert_eq!(cluster.topology().cores_per_node(), 8);
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let s = cluster.session(0).clone();
            cluster.spawn_on(0, "tx", move |ctx| async move {
                let h = s.isend(&ctx, NodeId(1), Tag(1), vec![1, 2, 3]).await;
                s.swait_send(&h, &ctx).await;
            });
        }
        {
            let s = cluster.session(1).clone();
            let got = Rc::clone(&got);
            cluster.spawn_on(1, "rx", move |ctx| async move {
                *got.borrow_mut() = s.recv(&ctx, Some(NodeId(0)), Tag(1)).await;
            });
        }
        cluster.run();
        assert_eq!(*got.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn sequential_engine_has_no_pioman() {
        let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Sequential));
        assert!(cluster.pioman(0).is_none());
        assert_eq!(cluster.engine(), EngineKind::Sequential);
    }

    #[test]
    fn bad_rma_frames_reach_the_registry() {
        let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Sequential));
        let s = cluster.session(0).clone();
        cluster.spawn_on(0, "tx", move |ctx| async move {
            // Node 1 exposes no window 7: its put frame is dropped there.
            let op = s.rma_stage_put(NodeId(1), 7, 0, vec![1; 8]);
            s.rma_inject(op);
            let h = s.isend(&ctx, NodeId(1), Tag(1), vec![2]).await;
            s.swait_send(&h, &ctx).await;
        });
        let s = cluster.session(1).clone();
        cluster.spawn_on(1, "rx", move |ctx| async move {
            let _ = s.recv(&ctx, Some(NodeId(0)), Tag(1)).await;
        });
        cluster.run();
        let reg = MetricsRegistry::new();
        cluster.register_metrics(&reg);
        let snapshot = reg.snapshot();
        let nm1 = &snapshot.iter().find(|(g, _)| g == "nm.node1").unwrap().1;
        assert!(nm1.contains(&("rma_bad_frames".into(), 1.0)), "{nm1:?}");
    }

    #[test]
    fn deterministic_across_builds() {
        fn run_once() -> u64 {
            let cluster = Cluster::build(ClusterConfig::default());
            let s = cluster.session(0).clone();
            cluster.spawn_on(0, "tx", move |ctx| async move {
                let h = s.isend(&ctx, NodeId(1), Tag(1), vec![7; 4096]).await;
                s.swait_send(&h, &ctx).await;
            });
            let s = cluster.session(1).clone();
            cluster.spawn_on(1, "rx", move |ctx| async move {
                let _ = s.recv(&ctx, Some(NodeId(0)), Tag(1)).await;
            });
            cluster.run().as_nanos()
        }
        assert_eq!(run_once(), run_once());
    }
}
