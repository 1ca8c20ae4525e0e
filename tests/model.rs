//! pm2-model end-to-end: the explicit-state explorer over the faithful
//! protocol tables, mutation self-validation (every seeded bug must be
//! found and printed as a counterexample), and trace conformance of real
//! cluster runs against the same tables.
//!
//! The explorer tests pin *zero violations with the state space
//! exhausted* on the real tables across eager, rendezvous and RMA flows
//! under adversarial loss/duplication budgets; the mutation tests prove
//! the checker is not vacuous. `PM2_MODEL_DEEP=1` (the ci.sh `model`
//! lane) additionally explores larger configurations that are too slow
//! for a debug-profile tier-1 run.

use pm2_fabric::{FabricParams, FaultPlan};
use pm2_model::{
    check_trace, explore, AppOp, Cfg, ConformCfg, Limits, Mutation, Muts, OpKind, Report,
};
use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::obs::Event;
use pm2_sim::{SimDuration, SimTime};
use pm2_topo::NodeId;

/// Wedge guard (virtual time) for the trace-generating cluster runs.
const DEADLINE: SimTime = SimTime::from_secs(60);

/// Whether the deep lane (ci.sh `model`) is active.
fn deep() -> bool {
    std::env::var("PM2_MODEL_DEEP").is_ok()
}

fn op(flow: u64, kind: OpKind) -> AppOp {
    AppOp { flow, kind }
}

/// Two ranks, all traffic scripted on rank 0.
fn two_rank(script0: Vec<AppOp>, max_retries: u32, drop: u8, dup: u8) -> Cfg {
    Cfg {
        ranks: 2,
        scripts: vec![script0, vec![]],
        max_retries,
        drop_budget: drop,
        dup_budget: dup,
    }
}

/// Explore and require: space exhausted, zero violations, and at least
/// one all-goals-met terminal. Prints the report on failure.
fn assert_clean(report: &Report, what: &str) {
    assert!(
        report.complete,
        "{what}: state-space bound hit\n{}",
        report.render()
    );
    assert!(
        report.violations.is_empty(),
        "{what}: unexpected violations\n{}",
        report.render()
    );
    assert!(
        report.success_terminals > 0,
        "{what}: no successful terminal reached\n{}",
        report.render()
    );
}

fn fires(report: &Report, rule: &str) -> u64 {
    report.rule_fires.get(rule).copied().unwrap_or(0)
}

// ---- faithful tables: zero violations ---------------------------------

/// One eager message under one adversarial drop and one duplication:
/// exactly-once delivery, window soundness, bounded retries.
#[test]
fn faithful_eager_under_loss_and_dup() {
    let cfg = two_rank(
        vec![op(
            1,
            OpKind::Eager {
                dst: 1,
                tag: 7,
                seq: 0,
            },
        )],
        2,
        1,
        1,
    );
    let report = explore(&cfg, &Muts::none(), Limits::default());
    assert_clean(&report, "eager drop+dup");
    assert!(fires(&report, "eager-deliver") > 0, "rule never exercised");
}

/// Three ranks fanning eager traffic into one receiver: the per-source
/// receive windows stay independent under a drop.
#[test]
fn faithful_eager_fan_in_three_ranks() {
    let cfg = Cfg {
        ranks: 3,
        scripts: vec![
            vec![op(
                1,
                OpKind::Eager {
                    dst: 2,
                    tag: 1,
                    seq: 0,
                },
            )],
            vec![op(
                2,
                OpKind::Eager {
                    dst: 2,
                    tag: 1,
                    seq: 0,
                },
            )],
            vec![],
        ],
        max_retries: 1,
        drop_budget: 1,
        dup_budget: 0,
    };
    let report = explore(&cfg, &Muts::none(), Limits::default());
    assert_clean(&report, "eager fan-in");
    assert!(fires(&report, "eager-deliver") > 0);
}

/// A chunked rendezvous under drop + dup: the RTS/CTS/DMA handshake
/// delivers exactly once and leaves no assembly behind.
#[test]
fn faithful_rendezvous_chunked() {
    let cfg = two_rank(vec![op(1, OpKind::Rdv { dst: 1, chunks: 2 })], 2, 1, 1);
    let report = explore(&cfg, &Muts::none(), Limits::default());
    assert_clean(&report, "rdv chunks=2");
    for rule in ["rts-fresh", "cts-fresh", "rdv-data-fresh"] {
        assert!(fires(&report, rule) > 0, "{rule} never exercised");
    }
}

/// A chunked put next to an accumulate, with one drop allowed: applies
/// stay exactly-once and the ack path completes both origin flows.
#[test]
fn faithful_chunked_put_and_accumulate() {
    let cfg = two_rank(
        vec![
            op(1, OpKind::RmaPut { dst: 1, chunks: 2 }),
            op(2, OpKind::RmaAcc { dst: 1 }),
        ],
        2,
        1,
        0,
    );
    let report = explore(&cfg, &Muts::none(), Limits::default());
    assert_clean(&report, "put+acc");
    for rule in ["rma-put-chunk-fresh", "rma-acc", "rma-ack-fresh"] {
        assert!(fires(&report, rule) > 0, "{rule} never exercised");
    }
}

/// Single-frame and chunked gets under one duplication: the reply path
/// (whole and chunked) completes the origin exactly once.
#[test]
fn faithful_gets_under_duplication() {
    let cfg = two_rank(
        vec![
            op(
                1,
                OpKind::RmaGet {
                    dst: 1,
                    reply_chunks: 0,
                },
            ),
            op(
                2,
                OpKind::RmaGet {
                    dst: 1,
                    reply_chunks: 2,
                },
            ),
        ],
        2,
        0,
        1,
    );
    let report = explore(&cfg, &Muts::none(), Limits::default());
    assert_clean(&report, "gets dup");
    for rule in ["rma-get", "get-reply-fresh", "get-data-fresh"] {
        assert!(fires(&report, rule) > 0, "{rule} never exercised");
    }
}

/// An accumulate under drop + dup: the classic exactly-once stressor
/// (a duplicated accumulate that applied twice would corrupt the cell).
#[test]
fn faithful_accumulate_exactly_once() {
    let cfg = two_rank(vec![op(1, OpKind::RmaAcc { dst: 1 })], 2, 1, 1);
    let report = explore(&cfg, &Muts::none(), Limits::default());
    assert_clean(&report, "acc drop+dup");
    assert!(fires(&report, "rma-acc") > 0);
}

/// When the adversary's drop budget exceeds the retry budget, exhaustion
/// is legitimately reachable — and every such terminal shows a typed
/// failure (voided flow), never a silent stall. Runs where the drops
/// land elsewhere still succeed.
#[test]
fn legitimate_exhaustion_is_typed_not_silent() {
    let cfg = two_rank(vec![op(1, OpKind::RmaPut { dst: 1, chunks: 0 })], 1, 2, 0);
    let report = explore(&cfg, &Muts::none(), Limits::default());
    assert!(report.complete, "bound hit\n{}", report.render());
    assert!(
        report.violations.is_empty(),
        "exhaustion produced violations\n{}",
        report.render()
    );
    assert!(
        report.failed_terminals > 0,
        "no terminal with a voided/failed flow\n{}",
        report.render()
    );
    assert!(
        report.success_terminals > 0,
        "no terminal where the op still made it\n{}",
        report.render()
    );
}

/// Defense-in-depth scope of the seq window, honestly stated: for get
/// flows the origin-side op-liveness guards alone suppress every late
/// duplicate, so removing the window stays violation-free. (For rdv,
/// put and acc it does not — a post-completion duplicate re-creates
/// receiver state or re-applies; those are the mutation tests below.)
#[test]
fn window_redundant_for_get_flows_only() {
    let cfg = two_rank(
        vec![
            op(
                1,
                OpKind::RmaGet {
                    dst: 1,
                    reply_chunks: 0,
                },
            ),
            op(
                2,
                OpKind::RmaGet {
                    dst: 1,
                    reply_chunks: 2,
                },
            ),
        ],
        2,
        0,
        1,
    );
    let muts = Muts::of(&[Mutation::SkipSeqWindowAdvance]);
    let report = explore(&cfg, &muts, Limits::default());
    assert_clean(&report, "gets without seq window");
}

// ---- mutation self-validation -----------------------------------------

/// Every seeded protocol mutation must be caught by the explorer, with
/// the expected violation kind and a non-empty printed counterexample.
#[test]
fn all_mutations_are_caught_with_counterexamples() {
    let eager = |drop, dup| {
        two_rank(
            vec![op(
                1,
                OpKind::Eager {
                    dst: 1,
                    tag: 7,
                    seq: 0,
                },
            )],
            2,
            drop,
            dup,
        )
    };
    let rdv =
        |chunks, drop, dup| two_rank(vec![op(1, OpKind::Rdv { dst: 1, chunks })], 2, drop, dup);
    let cases: Vec<(&str, Muts, Cfg, &str)> = vec![
        (
            "window removed: duplicated eager delivers twice",
            Muts::of(&[Mutation::SkipSeqWindowAdvance]),
            eager(0, 1),
            "double-delivery",
        ),
        (
            "cts-stale guard dropped: duplicate CTS hits no rule",
            Muts::of(&[Mutation::SkipSeqWindowAdvance, Mutation::DropDupCtsGuard]),
            rdv(1, 0, 1),
            "unhandled-frame",
        ),
        (
            "rts dedup removed: in-flight duplicate RTS resets the assembly",
            Muts::of(&[Mutation::SkipSeqWindowAdvance, Mutation::SkipRtsDedup]),
            rdv(2, 0, 1),
            "silent-stall",
        ),
        (
            "chunk bitmap forgotten: put completes with counted-not-marked chunks",
            Muts::of(&[Mutation::ForgetChunkBitmap]),
            two_rank(vec![op(1, OpKind::RmaPut { dst: 1, chunks: 2 })], 2, 0, 0),
            "corrupt-assembly",
        ),
        (
            "exhaustion ignored: the waiter is never failed",
            Muts::of(&[Mutation::IgnoreRetriesExhausted]),
            two_rank(vec![op(1, OpKind::RmaPut { dst: 1, chunks: 0 })], 1, 2, 0),
            "silent-stall",
        ),
        (
            "timer stops re-issuing RTS: exhaustion without matching drops",
            Muts::of(&[Mutation::DontReissueRts]),
            rdv(1, 1, 0),
            "spurious-exhaustion",
        ),
        (
            "duplicates not re-acked: sender retries into exhaustion",
            Muts::of(&[Mutation::AckOnlyFresh]),
            eager(1, 0),
            "spurious-exhaustion",
        ),
        (
            "receive completes a chunk early",
            Muts::of(&[Mutation::CompleteRecvEarly]),
            rdv(2, 0, 0),
            "corrupt-assembly",
        ),
        (
            "get-chunk dedup removed: duplicate reply chunk completes with a hole",
            Muts::of(&[Mutation::SkipSeqWindowAdvance, Mutation::SkipGetChunkDedup]),
            two_rank(
                vec![op(
                    1,
                    OpKind::RmaGet {
                        dst: 1,
                        reply_chunks: 2,
                    },
                )],
                2,
                0,
                1,
            ),
            "corrupt-assembly",
        ),
    ];
    assert!(cases.len() >= 6, "self-validation needs ≥ 6 seeded bugs");
    for (what, muts, cfg, expected) in cases {
        let report = explore(&cfg, &muts, Limits::default());
        eprintln!("=== mutation: {what} ===\n{}", report.render());
        assert!(
            report.kinds().contains(expected),
            "{what}: expected a {expected} violation, found {:?}",
            report.kinds()
        );
        let cx = report
            .violations
            .iter()
            .find(|c| c.kind == expected)
            .expect("kind present implies counterexample kept");
        assert!(
            !cx.trace.is_empty(),
            "{what}: counterexample has an empty trace"
        );
    }
}

/// Deep lane (ci.sh `model`): larger configurations that exhaust much
/// bigger spaces — run in release under `PM2_MODEL_DEEP=1`.
#[test]
fn deep_faithful_suite() {
    if !deep() {
        eprintln!("PM2_MODEL_DEEP not set; skipping deep configurations");
        return;
    }
    let limits = Limits {
        max_states: 4_000_000,
    };
    // Rendezvous with three chunks under drop + dup.
    let rdv3 = two_rank(vec![op(1, OpKind::Rdv { dst: 1, chunks: 3 })], 2, 1, 1);
    let report = explore(&rdv3, &Muts::none(), limits);
    eprintln!("deep rdv3: {}", report.render());
    assert_clean(&report, "deep rdv chunks=3");
    // Chunked put + chunked get side by side, drop + dup.
    let mix = two_rank(
        vec![
            op(1, OpKind::RmaPut { dst: 1, chunks: 2 }),
            op(
                2,
                OpKind::RmaGet {
                    dst: 1,
                    reply_chunks: 2,
                },
            ),
        ],
        2,
        1,
        1,
    );
    let report = explore(&mix, &Muts::none(), limits);
    eprintln!("deep rma mix: {}", report.render());
    assert_clean(&report, "deep put+get under drop+dup");
    // Three ranks: rank 0 sends eager + rdv to different peers.
    let tri = Cfg {
        ranks: 3,
        scripts: vec![
            vec![
                op(
                    1,
                    OpKind::Eager {
                        dst: 1,
                        tag: 3,
                        seq: 0,
                    },
                ),
                op(2, OpKind::Rdv { dst: 2, chunks: 2 }),
            ],
            vec![],
            vec![],
        ],
        max_retries: 2,
        drop_budget: 1,
        dup_budget: 1,
    };
    let report = explore(&tri, &Muts::none(), limits);
    eprintln!("deep tri: {}", report.render());
    assert_clean(&report, "deep three-rank eager+rdv");
}

// ---- trace conformance ------------------------------------------------

/// The fig5-style overlap loop from the obs suite: per-round isend /
/// irecv ping-pong at the given sizes in both directions, then a closing
/// allreduce. Returns the full obs event stream.
fn run_traced(cfg: ClusterConfig, sizes: &'static [usize]) -> Vec<Event> {
    let cluster = Cluster::build(cfg);
    cluster.sim().obs().set_enabled(true);
    let comms = Comm::world(&cluster);
    let compute = SimDuration::from_micros(20);
    {
        let s = cluster.session(0).clone();
        let comm = comms[0].clone();
        cluster.spawn_on(0, "model-0", move |ctx| async move {
            for (i, len) in sizes.iter().copied().enumerate() {
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
        cluster.spawn_on(1, "model-1", move |ctx| async move {
            for (i, len) in sizes.iter().copied().enumerate() {
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
    let end = cluster.run_deadline(DEADLINE);
    assert!(end < DEADLINE, "traced run wedged");
    cluster.sim().obs().events()
}

/// The clean fig5-style eager + rendezvous trace is model-permitted,
/// and non-vacuously so: the replay fires the fresh rules of all three
/// protocols.
#[test]
fn fig5_trace_is_model_permitted() {
    let events = run_traced(
        ClusterConfig::paper_testbed(EngineKind::Pioman),
        &[8 << 10, 8 << 10, 64 << 10],
    );
    let report = check_trace(&events, &ConformCfg::default());
    eprintln!("{}", report.render());
    assert!(report.conformant(), "fig5 trace not permitted");
    assert!(report.rdvs >= 2, "both 64 KiB directions are rendezvous");
    assert!(report.eager_deliveries >= 4, "four eager rounds traced");
    for rule in ["eager-deliver", "rts-fresh", "cts-fresh", "rdv-data-fresh"] {
        let n = report.rule_fires.get(rule).copied().unwrap_or(0);
        assert!(n > 0, "{rule} never fired in the replay");
    }
}

/// A lossy (drop-only) stream across three seeds: retransmissions and
/// duplicate suppressions appear in the trace, and every one of them is
/// model-permitted under the strict drop-only discipline
/// (`dup_faults: false`).
#[test]
fn lossy_stream_trace_is_model_permitted() {
    let sizes: &'static [usize] = &[4 << 10, 48 << 10, 4 << 10, 8 << 10, 48 << 10, 4 << 10];
    let mut total_retx = 0;
    for seed in [1, 7, 42] {
        let mut fabric = FabricParams::myri10g();
        fabric.fault = FaultPlan::loss(seed, 0.05);
        let cfg = ClusterConfig {
            fabric,
            ..ClusterConfig::paper_testbed(EngineKind::Pioman)
        };
        let events = run_traced(cfg, sizes);
        let report = check_trace(&events, &ConformCfg::default());
        eprintln!("seed {seed}: {}", report.render());
        assert!(
            report.conformant(),
            "lossy trace (seed {seed}) not permitted"
        );
        total_retx += report.retransmits;
    }
    assert!(
        total_retx > 0,
        "5% loss over three seeds produced no retransmissions"
    );
}

/// A 16-rank incast at 1 % loss: every other rank sends rank 0 an eager
/// and a rendezvous message. Rendezvous ids are per-session counters, so
/// all fifteen senders reuse the same ids towards one receiver; the
/// replay must tell their deliveries apart by sender.
#[test]
fn lossy_incast_trace_is_model_permitted() {
    const RANKS: usize = 16;
    let mut fabric = FabricParams::myri10g();
    fabric.fault = FaultPlan::loss(1, 0.01);
    let cluster = Cluster::build(ClusterConfig {
        nodes: RANKS,
        fabric,
        ..ClusterConfig::paper_testbed(EngineKind::Pioman)
    });
    cluster.sim().obs().set_enabled(true);
    for src in 1..RANKS {
        let s = cluster.session(src).clone();
        cluster.spawn_on(src, format!("incast-tx{src}"), move |ctx| async move {
            s.send(
                &ctx,
                NodeId(0),
                Tag(2 * src as u64),
                vec![src as u8; 4 << 10],
            )
            .await;
            s.send(
                &ctx,
                NodeId(0),
                Tag(2 * src as u64 + 1),
                vec![src as u8; 64 << 10],
            )
            .await;
        });
        let s = cluster.session(0).clone();
        cluster.spawn_on(0, format!("incast-rx{src}"), move |ctx| async move {
            for tag in [2 * src as u64, 2 * src as u64 + 1] {
                let data = s.recv(&ctx, Some(NodeId(src)), Tag(tag)).await;
                assert!(data.iter().all(|&b| b == src as u8), "payload from {src}");
            }
        });
    }
    let end = cluster.run_deadline(DEADLINE);
    assert!(end < DEADLINE, "incast run wedged");
    let report = check_trace(&cluster.sim().obs().events(), &ConformCfg::default());
    eprintln!("{}", report.render());
    assert!(report.conformant(), "lossy incast trace not permitted");
    assert_eq!(report.rdvs, RANKS - 1, "one rendezvous per sender");
}

/// The passive-target RMA exchange (put, 16 accumulates, two gets, the
/// target computing throughout) is model-permitted: every op is issued
/// once, applied exactly-once and completed exactly-once.
#[test]
fn rma_passive_trace_is_model_permitted() {
    const WIN: u64 = 3;
    let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Pioman));
    cluster.sim().obs().set_enabled(true);
    {
        let rma = cluster.rma(1).clone();
        cluster.spawn_on(1, "target", move |ctx| async move {
            rma.window_create(&ctx, WIN, 16 << 10).await;
            ctx.compute(SimDuration::from_millis(3)).await;
        });
    }
    {
        let rma = cluster.rma(0).clone();
        cluster.spawn_on(0, "origin", move |ctx| async move {
            ctx.compute(SimDuration::from_micros(5)).await;
            let win = rma.window(WIN);
            win.put(&ctx, NodeId(1), 0, vec![0xb7; 4 << 10]);
            for _ in 0..16 {
                win.accumulate(&ctx, NodeId(1), 8 << 10, vec![1u8; 8]);
            }
            win.flush(&ctx).await;
            let g = win.get(&ctx, NodeId(1), 0, 4 << 10);
            win.flush(&ctx).await;
            assert_eq!(
                g.take_result().expect("get incomplete"),
                vec![0xb7; 4 << 10]
            );
        });
    }
    let end = cluster.run_deadline(DEADLINE);
    assert!(end < DEADLINE, "passive-target run wedged");
    let report = check_trace(&cluster.sim().obs().events(), &ConformCfg::default());
    eprintln!("{}", report.render());
    assert!(report.conformant(), "rma trace not permitted");
    assert!(report.rma_ops >= 18, "put + 16 accs + get all issued");
    let acks = report.rule_fires.get("rma-ack-fresh").copied().unwrap_or(0);
    assert!(acks >= 18, "every op completes through the ack rule");
}
