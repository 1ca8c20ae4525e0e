//! Tracing a communication: every typed pm2-obs event of one eager send,
//! in virtual-time order, one line per event as `[at] node kind`.
//!
//! ```sh
//! cargo run --release -p pm2-mpi --example trace
//! ```

use pm2_mpi::{Cluster, ClusterConfig};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::SimDuration;
use pm2_topo::NodeId;

fn main() {
    let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Pioman));
    let obs = cluster.sim().obs();
    obs.set_enabled(true);

    {
        let s = cluster.session(0).clone();
        cluster.spawn_on(0, "sender", move |ctx| async move {
            let h = s.isend(&ctx, NodeId(1), Tag(1), vec![0xee; 4096]).await;
            ctx.compute(SimDuration::from_micros(20)).await;
            s.swait_send(&h, &ctx).await;
        });
    }
    {
        let s = cluster.session(1).clone();
        cluster.spawn_on(1, "receiver", move |ctx| async move {
            let _ = s.recv(&ctx, Some(NodeId(0)), Tag(1)).await;
        });
    }
    cluster.run();

    let events = obs.events();
    for e in &events {
        let node = e.node.map_or_else(|| "-".to_string(), |n| n.to_string());
        println!("[{:>12}] {node} {:?}", e.at.to_string(), e.kind);
    }
    println!("{} events, {} dropped", events.len(), obs.dropped());
}
