//! Selecting a Marcel scheduling policy on the cluster config, and why it
//! matters: the fig. 4 overlap loop runs on a node whose cores are shared
//! with background compute, so how fast the woken communicating thread
//! gets a core back depends on the policy.
//!
//! ```sh
//! cargo run --release -p pm2-mpi --example sched_policies
//! ```

use pm2_mpi::workloads::{run_overlap, OverlapParams};
use pm2_mpi::{Cluster, ClusterConfig, SchedPolicyKind};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::stats::OnlineStats;
use pm2_sim::SimDuration;
use pm2_topo::NodeId;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    println!("Marcel scheduling policies under the fig. 4 overlap loop\n");

    // On an idle testbed every policy overlaps equally well: the
    // communication finishes inside the 20 µs compute window, so the
    // scheduler never has a queue to order.
    let p = OverlapParams::default();
    print!("idle node, 8 kB + 20 µs compute: ");
    let mut idle = Vec::new();
    for kind in SchedPolicyKind::all() {
        let cfg = ClusterConfig::paper_testbed(EngineKind::Pioman).with_sched_policy(kind.name());
        let r = run_overlap(cfg, &p);
        idle.push(format!("{} {:.2}µs", kind.name(), r.half_round_us.mean()));
    }
    println!("{}", idle.join(", "));

    // On a loaded node the policies separate: FIFO parks the freshly
    // woken communicating thread behind the compute queue; the
    // hierarchical and comm-aware policies front-insert it.
    println!("\nloaded node (2 cores, 3 background compute threads), 2 µs slices:");
    println!("{:<10} {:>12}  vs fifo", "policy", "half-round");
    let fifo = loaded_half_round("fifo");
    for kind in SchedPolicyKind::all() {
        let us = loaded_half_round(kind.name());
        let delta = (fifo - us) / fifo * 100.0;
        println!("{:<10} {:>10.3}µs  {:+.1}%", kind.name(), us, delta);
    }
}

/// Fig. 4 loop with a 2 µs compute slice, sharing a 2-core node with
/// three background compute threads (the loaded point of
/// `tests/sched.rs::comm_aware_improves_loaded_overlap_vs_fifo`).
fn loaded_half_round(policy: &str) -> f64 {
    let cfg = ClusterConfig {
        sockets_per_node: 1,
        cores_per_socket: 2,
        ..ClusterConfig::paper_testbed(EngineKind::Pioman).with_sched_policy(policy)
    };
    let len = 8 << 10;
    let compute = SimDuration::from_micros(2);
    let (iters, warmup) = (10usize, 2usize);
    let cluster = Cluster::build(cfg);
    let stats = Rc::new(RefCell::new(OnlineStats::new()));
    for b in 0..3 {
        cluster.spawn_on(0, format!("bg-{b}"), move |ctx| async move {
            for _ in 0..400 {
                ctx.compute(SimDuration::from_micros(2)).await;
                ctx.yield_now().await;
            }
        });
    }
    {
        let s = cluster.session(0).clone();
        let stats = Rc::clone(&stats);
        cluster.spawn_on(0, "overlap-0", move |ctx| async move {
            for i in 0..iters + warmup {
                let t1 = ctx.marcel().sim().now();
                let h = s
                    .isend(&ctx, NodeId(1), Tag(2 * i as u64), vec![0xa5; len])
                    .await;
                ctx.compute(compute).await;
                s.swait_send(&h, &ctx).await;
                let hr = s.irecv(&ctx, Some(NodeId(1)), Tag(2 * i as u64 + 1)).await;
                ctx.compute(compute).await;
                let _ = s.swait_recv(&hr, &ctx).await;
                let t2 = ctx.marcel().sim().now();
                if i >= warmup {
                    stats
                        .borrow_mut()
                        .record(t2.saturating_since(t1).as_micros_f64() / 2.0);
                }
            }
        });
    }
    {
        let s = cluster.session(1).clone();
        cluster.spawn_on(1, "overlap-1", move |ctx| async move {
            for i in 0..iters + warmup {
                let hr = s.irecv(&ctx, Some(NodeId(0)), Tag(2 * i as u64)).await;
                ctx.compute(compute).await;
                let _ = s.swait_recv(&hr, &ctx).await;
                let h = s
                    .isend(&ctx, NodeId(0), Tag(2 * i as u64 + 1), vec![0x5a; len])
                    .await;
                ctx.compute(compute).await;
                s.swait_send(&h, &ctx).await;
            }
        });
    }
    cluster.run();
    Rc::try_unwrap(stats)
        .expect("sole owner")
        .into_inner()
        .mean()
}
