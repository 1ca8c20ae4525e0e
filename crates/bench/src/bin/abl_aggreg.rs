//! Ablation: the strategy layer — FIFO vs. aggregation vs. reordering.
//!
//! NewMadeleine's optimizer (§3.1, \[2\]) can aggregate consecutive small
//! messages to the same destination into one frame, saving per-frame
//! submission and wire overheads. This benchmark sends bursts of small
//! messages and compares total delivery time and frames on the wire.

use pm2_bench::{fmt_size, header, row};
use pm2_mpi::{Cluster, ClusterConfig, StrategyKind};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::SimDuration;
use pm2_topo::NodeId;
use std::cell::Cell;
use std::rc::Rc;

const BURST: usize = 32;

fn run(strategy: StrategyKind, msg_len: usize) -> (f64, u64) {
    let cfg = ClusterConfig {
        strategy,
        ..ClusterConfig::paper_testbed(EngineKind::Pioman)
    };
    let cluster = Cluster::build(cfg);
    let end = Rc::new(Cell::new(0u64));
    {
        let s = cluster.session(0).clone();
        cluster.spawn_on(0, "tx", move |ctx| async move {
            let mut hs = Vec::new();
            for m in 0..BURST {
                hs.push(
                    s.isend(&ctx, NodeId(1), Tag(m as u64), vec![m as u8; msg_len])
                        .await,
                );
            }
            // One long computation: the burst is submitted in background.
            ctx.compute(SimDuration::from_micros(50)).await;
            for h in &hs {
                s.swait_send(h, &ctx).await;
            }
        });
    }
    {
        let s = cluster.session(1).clone();
        let end = Rc::clone(&end);
        cluster.spawn_on(1, "rx", move |ctx| async move {
            // Pre-post every receive (zero-copy delivery for all frames),
            // so the comparison isolates submission + wire effects.
            let mut hs = Vec::new();
            for m in 0..BURST {
                hs.push(s.irecv(&ctx, Some(NodeId(0)), Tag(m as u64)).await);
            }
            for h in &hs {
                let _ = s.swait_recv(h, &ctx).await;
            }
            end.set(ctx.marcel().sim().now().as_nanos());
        });
    }
    cluster.run();
    (
        end.get() as f64 / 1000.0,
        cluster.session(0).counters().eager_frames_tx,
    )
}

fn main() {
    println!("Ablation — packet-scheduling strategies ({BURST}-message bursts)");
    println!("Time until the receiver has all messages, and frames on the wire\n");
    for msg_len in [256usize, 1 << 10, 4 << 10] {
        println!("message size {}:", fmt_size(msg_len));
        println!(
            "{}",
            header("strategy", &["time (µs)".into(), "frames".into()])
        );
        for (name, strat) in [
            ("fifo", StrategyKind::Fifo),
            ("aggreg", StrategyKind::Aggreg),
            ("shortest", StrategyKind::ShortestFirst),
        ] {
            let (t, frames) = run(strat, msg_len);
            println!("{}", row(name, &[t, frames as f64]));
        }
        println!();
    }
    println!("Aggregation folds a burst into few frames: fewer submissions and");
    println!("fewer per-frame wire overheads — the gain shrinks as messages grow");
    println!("(the byte limit caps folding).");
}
