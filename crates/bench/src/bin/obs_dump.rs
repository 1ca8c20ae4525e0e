//! pm2-obs timeline dump: the Figure 5 overlap loop, observed.
//!
//! Replays the fig5 program (`isend; compute; swait` symmetric on two
//! nodes, PIOMAN engine) with the structured-observability layer enabled,
//! at one eager size and one rendezvous size, plus a closing allreduce so
//! the collective counters move too. The run then reconstructs every
//! request and rendezvous timeline from the event ring, self-validates the
//! phase ordering (posted ≤ submit ≤ complete on the eager path,
//! RTS → CTS → DMA → complete on the rendezvous path) and prints one JSON
//! document combining the timelines with the unified metrics snapshot.
//!
//! Unlike the baseline-checked claims rows this output carries
//! virtual timestamps, so CI validates it against the
//! `pm2-obs-dump/v1` schema rather than a golden file.

use pm2_mpi::workloads::OverlapParams;
use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::obs::{build_timelines, Role};
use pm2_sim::MetricsRegistry;
use pm2_topo::NodeId;
use std::process::ExitCode;

/// Eager-path payload (below the 32 KiB paper-testbed threshold).
const EAGER_LEN: usize = 8 << 10;
/// Rendezvous-path payload (above the threshold).
const RDV_LEN: usize = 64 << 10;
/// Iterations per size class.
const ITERS: usize = 3;

fn main() -> ExitCode {
    let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Pioman));
    // Enable before any traffic so the very first request is observed.
    cluster.sim().obs().set_enabled(true);
    let reg = MetricsRegistry::new();
    cluster.register_metrics(&reg);
    let comms = Comm::world(&cluster);
    for comm in &comms {
        comm.register_metrics(&reg);
    }
    let p = OverlapParams::default();
    let compute = p.compute;

    // The fig5 loop body, replicated here rather than through
    // `run_overlap` (which builds its own cluster and would bypass the
    // enabled obs layer): node 0 sends on even tags, node 1 answers on
    // odd ones, both overlap the wait with compute.
    let sizes: Vec<usize> = [EAGER_LEN; ITERS]
        .into_iter()
        .chain([RDV_LEN; ITERS])
        .collect();
    {
        let s = cluster.session(0).clone();
        let comm = comms[0].clone();
        let sizes = sizes.clone();
        cluster.spawn_on(0, "obs-0", move |ctx| async move {
            for (i, len) in sizes.into_iter().enumerate() {
                let h = s
                    .isend(&ctx, NodeId(1), Tag(2 * i as u64), vec![0xa5; len])
                    .await;
                ctx.compute(compute).await;
                s.swait_send(&h, &ctx).await;
                let hr = s.irecv(&ctx, Some(NodeId(1)), Tag(2 * i as u64 + 1)).await;
                ctx.compute(compute).await;
                let _ = s.swait_recv(&hr, &ctx).await;
            }
            comm.allreduce_sum(&ctx, 1).await;
        });
    }
    {
        let s = cluster.session(1).clone();
        let comm = comms[1].clone();
        let sizes = sizes.clone();
        cluster.spawn_on(1, "obs-1", move |ctx| async move {
            for (i, len) in sizes.into_iter().enumerate() {
                let hr = s.irecv(&ctx, Some(NodeId(0)), Tag(2 * i as u64)).await;
                ctx.compute(compute).await;
                let _ = s.swait_recv(&hr, &ctx).await;
                let h = s
                    .isend(&ctx, NodeId(0), Tag(2 * i as u64 + 1), vec![0x5a; len])
                    .await;
                ctx.compute(compute).await;
                s.swait_send(&h, &ctx).await;
            }
            comm.allreduce_sum(&ctx, 1).await;
        });
    }
    cluster.run_deadline(pm2_sim::SimTime::from_secs(60));

    let events = cluster.sim().obs().events();
    let timelines = build_timelines(&events);
    let mut errors = Vec::new();

    // Eager sends: posted ≤ first submission ≤ completion, with a site.
    let eager_sends: Vec<_> = timelines
        .reqs
        .iter()
        .filter(|r| r.role == Role::Send && r.len == Some(EAGER_LEN) && r.rdv.is_none())
        .collect();
    if eager_sends.len() < 2 * ITERS {
        errors.push(format!(
            "expected {} eager send timelines, found {}",
            2 * ITERS,
            eager_sends.len()
        ));
    }
    for r in &eager_sends {
        let (Some(submit), Some(done)) = (r.submit_at, r.completed_at) else {
            errors.push(format!("eager send req {} missing submit/complete", r.req));
            continue;
        };
        if !(r.posted_at <= submit && submit <= done) {
            errors.push(format!("eager send req {} out of order", r.req));
        }
        if r.submit_site.is_none() {
            errors.push(format!("eager send req {} has no submission site", r.req));
        }
    }
    // Eager receives: a delivery instant and an expectedness verdict.
    if !timelines
        .reqs
        .iter()
        .any(|r| r.role == Role::Recv && r.delivered_at.is_some() && r.unexpected.is_some())
    {
        errors.push("no eager receive delivery observed".into());
    }
    // Rendezvous: the full RTS → CTS → DMA → complete handshake.
    let rdvs: Vec<_> = timelines
        .rdvs
        .iter()
        .filter(|v| v.len == Some(RDV_LEN))
        .collect();
    if rdvs.len() < 2 * ITERS {
        errors.push(format!(
            "expected {} rendezvous timelines, found {}",
            2 * ITERS,
            rdvs.len()
        ));
    }
    for v in &rdvs {
        let ordered = matches!(
            (v.rts_tx, v.rts_rx, v.cts_tx, v.cts_rx, v.completed_at),
            (Some(rts_tx), Some(rts_rx), Some(cts_tx), Some(cts_rx), Some(done))
                if rts_tx <= rts_rx && rts_rx <= cts_tx && cts_tx <= cts_rx && cts_rx <= done
        );
        if !ordered {
            errors.push(format!("rendezvous {:?}/{} out of order", v.sender, v.rdv));
        }
        if v.dma_chunks == 0 {
            errors.push(format!("rendezvous {:?}/{} moved no data", v.sender, v.rdv));
        }
    }

    if !errors.is_empty() {
        for e in &errors {
            eprintln!("obs_dump: {e}");
        }
        return ExitCode::FAILURE;
    }

    println!("{{");
    println!("  \"schema\": \"pm2-obs-dump/v1\",");
    println!("  \"events\": {},", events.len());
    println!("  \"dropped\": {},", cluster.sim().obs().dropped());
    println!("  \"timeline\": {},", timelines.to_json());
    println!("  \"metrics\": {}", reg.to_json());
    println!("}}");
    ExitCode::SUCCESS
}
