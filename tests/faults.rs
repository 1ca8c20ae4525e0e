//! Deterministic fault-injection scenarios for the reliability layer.
//!
//! Every scenario seeds its own [`FaultPlan`], so a failure replays
//! identically from the seed (see EXPERIMENTS.md). Targeted faults name
//! frame indices in the fabric-global transmission order; for a reliable
//! two-node run the first frames are:
//!
//! * eager: `0` = `Rel{Eager}` data, `1` = its ack;
//! * rendezvous (single rail, single chunk): `0` = `Rel{Rts}`, `1` = ack,
//!   `2` = `Rel{Cts}`, then the data chunk and the remaining acks in
//!   `3..6` (exact interleave depends on submission timing, which is why
//!   the rendezvous test drops each of the first six frames in turn).
//!
//! Engine caveat exercised throughout: the sequential engine only makes
//! progress inside library calls, so a retransmission queued by a timer
//! is not submitted until the application re-enters the library. The
//! scenarios model that with a late fault-free "flush" ping-pong; without
//! it a sender that already returned from `swait` would let the retry
//! budget run out (which is itself bounded, so nothing wedges).

use pm2_fabric::{FabricParams, FaultPlan, NicCounters, StallWindow};
use pm2_mpi::{Cluster, ClusterConfig};
use pm2_newmad::{EngineKind, NmCounters, Tag};
use pm2_sim::{SimDuration, SimTime};
use pm2_topo::NodeId;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Wedge guard: the slowest scenario (an abandoned retry ladder under
/// the sequential engine) ends around 100 ms of virtual time.
const FAULT_DEADLINE: SimTime = SimTime::from_secs(60);

const BOTH_ENGINES: [EngineKind; 2] = [EngineKind::Pioman, EngineKind::Sequential];

/// Seed of the rate-based scenarios; `ci.sh` runs the matrix over several
/// published values.
fn fault_seed() -> u64 {
    std::env::var("PM2_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn faulty(engine: EngineKind, fault: FaultPlan) -> ClusterConfig {
    let mut fabric = FabricParams::myri10g();
    fabric.fault = fault;
    ClusterConfig {
        fabric,
        ..ClusterConfig::paper_testbed(engine)
    }
}

fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i as u8).wrapping_mul(41) ^ (j as u8))
        .collect()
}

struct Outcome {
    end: SimTime,
    rel_enabled: bool,
    c0: NmCounters,
    c1: NmCounters,
    nic0: NicCounters,
    nic1: NicCounters,
}

/// Node 0 streams `lens` messages to node 1 (each byte-verified on
/// arrival). With `flush`, both sides re-enter the library after that
/// long a pause for one fault-free ping-pong, giving the sequential
/// engine its chance to submit pending retransmissions.
fn run_scenario(cfg: ClusterConfig, lens: &[usize], flush: Option<SimDuration>) -> Outcome {
    let engine = cfg.engine;
    let cluster = Cluster::build(cfg);
    let delivered = Rc::new(Cell::new(0usize));
    {
        let s = cluster.session(0).clone();
        let lens = lens.to_vec();
        cluster.spawn_on(0, "tx", move |ctx| async move {
            for (i, len) in lens.iter().enumerate() {
                s.send(&ctx, NodeId(1), Tag(i as u64), payload(i, *len))
                    .await;
            }
            if let Some(pause) = flush {
                ctx.compute(pause).await;
                s.send(&ctx, NodeId(1), Tag(9000), payload(90, 64)).await;
                let pong = s.recv(&ctx, Some(NodeId(1)), Tag(9001)).await;
                assert_eq!(pong, payload(91, 64));
            }
        });
    }
    {
        let s = cluster.session(1).clone();
        let lens = lens.to_vec();
        let delivered = Rc::clone(&delivered);
        cluster.spawn_on(1, "rx", move |ctx| async move {
            for (i, len) in lens.iter().enumerate() {
                let data = s.recv(&ctx, Some(NodeId(0)), Tag(i as u64)).await;
                assert_eq!(data, payload(i, *len), "message {i} corrupted");
                delivered.set(delivered.get() + 1);
            }
            if flush.is_some() {
                let ping = s.recv(&ctx, Some(NodeId(0)), Tag(9000)).await;
                assert_eq!(ping, payload(90, 64));
                s.send(&ctx, NodeId(0), Tag(9001), payload(91, 64)).await;
            }
        });
    }
    let end = cluster.run_deadline(FAULT_DEADLINE);
    assert_eq!(delivered.get(), lens.len(), "messages lost ({engine:?})");
    for node in 0..2 {
        let st = cluster.session(node).debug_state();
        if engine == EngineKind::Pioman {
            // The background engine drains everything once the app quits.
            assert!(st.is_clean(), "node {node} leaked protocol state: {st:?}");
        } else {
            // The sequential engine cannot send after the app leaves the
            // library (final acks may strand, bounded by the retry
            // budget), but no *request* may leak.
            assert_eq!(
                (st.posted, st.unexpected, st.rdv_sends, st.rdv_recvs),
                (0, 0, 0, 0),
                "node {node} leaked a request: {st:?}"
            );
        }
    }
    Outcome {
        end,
        rel_enabled: cluster.session(0).reliability_enabled(),
        c0: cluster.session(0).counters(),
        c1: cluster.session(1).counters(),
        nic0: cluster.nic_counters(0, 0),
        nic1: cluster.nic_counters(1, 0),
    }
}

/// An empty plan keeps the reliability layer off: no acks, no retransmit
/// state, no fault-path counters — the happy path is untouched.
#[test]
fn zero_fault_plan_keeps_reliability_off() {
    for engine in BOTH_ENGINES {
        let out = run_scenario(
            faulty(engine, FaultPlan::default()),
            &[1024, 64 << 10],
            None,
        );
        assert!(!out.rel_enabled, "{engine:?}");
        for c in [&out.c0, &out.c1] {
            assert_eq!(c.acks_sent, 0);
            assert_eq!(c.retransmits, 0);
            assert_eq!(c.dup_suppressed, 0);
        }
        for n in [&out.nic0, &out.nic1] {
            assert_eq!(
                n.faults_dropped + n.faults_duplicated + n.faults_delayed + n.faults_corrupted,
                0
            );
        }
    }
}

/// An active plan (even one that never fires) switches the layer on:
/// every envelope is acknowledged, nothing is retransmitted.
#[test]
fn active_plan_enables_acks_without_retransmits() {
    for engine in BOTH_ENGINES {
        let out = run_scenario(
            faulty(
                engine,
                FaultPlan {
                    drop_frames: vec![9999],
                    ..FaultPlan::default()
                },
            ),
            &[1024],
            // Below the first retransmit timeout: the sequential sender
            // must re-enter the library to *see* the ack before its timer
            // fires, or it would retransmit spuriously.
            Some(SimDuration::from_micros(50)),
        );
        assert!(out.rel_enabled, "{engine:?}");
        assert!(out.c1.acks_sent >= 1, "{engine:?}: {:?}", out.c1);
        assert_eq!(out.c0.retransmits, 0, "{engine:?}");
    }
}

/// Protocol step 1, eager data lost on the wire: the ack timeout
/// retransmits it and the message arrives exactly once.
#[test]
fn eager_data_drop_is_retransmitted() {
    for engine in BOTH_ENGINES {
        let out = run_scenario(
            faulty(
                engine,
                FaultPlan {
                    drop_frames: vec![0],
                    ..FaultPlan::default()
                },
            ),
            &[4096],
            Some(SimDuration::from_millis(2)),
        );
        assert!(out.c0.retransmits >= 1, "{engine:?}: {:?}", out.c0);
        assert_eq!(out.nic1.faults_dropped, 1, "{engine:?}");
    }
}

/// Protocol step 2, the ack lost instead: the sender retransmits, the
/// receiver recognizes the duplicate and only re-acks.
#[test]
fn eager_ack_drop_is_absorbed_by_duplicate_suppression() {
    for engine in BOTH_ENGINES {
        let out = run_scenario(
            faulty(
                engine,
                FaultPlan {
                    drop_frames: vec![1],
                    ..FaultPlan::default()
                },
            ),
            &[4096],
            Some(SimDuration::from_millis(2)),
        );
        assert!(out.c0.retransmits >= 1, "{engine:?}: {:?}", out.c0);
        assert!(out.c1.dup_suppressed >= 1, "{engine:?}: {:?}", out.c1);
        assert_eq!(out.nic0.faults_dropped, 1, "{engine:?}");
    }
}

/// Rendezvous: dropping each of the six handshake frames in turn (RTS,
/// CTS, the data chunk, and their acks) still yields exactly-once
/// delivery within the deadline, and losing the RTS itself re-issues it.
#[test]
fn rendezvous_survives_each_handshake_frame_drop() {
    for engine in BOTH_ENGINES {
        for k in 0..6u64 {
            let out = run_scenario(
                faulty(
                    engine,
                    FaultPlan {
                        drop_frames: vec![k],
                        ..FaultPlan::default()
                    },
                ),
                &[64 << 10],
                Some(SimDuration::from_millis(3)),
            );
            assert!(
                out.c0.retransmits + out.c1.retransmits >= 1,
                "{engine:?} frame {k}: no retransmission recorded"
            );
            assert_eq!(out.nic0.faults_dropped + out.nic1.faults_dropped, 1);
            if k == 0 {
                assert!(
                    out.c0.rts_reissues >= 1,
                    "{engine:?}: lost RTS was not re-issued"
                );
            }
        }
    }
}

/// Duplicated handshake frames (the CTS included) are suppressed by the
/// sequence window: the transfer runs exactly once and nothing is
/// retransmitted.
#[test]
fn duplicated_cts_does_not_restart_the_transfer() {
    for engine in BOTH_ENGINES {
        let out = run_scenario(
            faulty(
                engine,
                FaultPlan {
                    dup_frames: vec![0, 1, 2, 3, 4, 5],
                    ..FaultPlan::default()
                },
            ),
            &[64 << 10],
            Some(SimDuration::from_millis(3)),
        );
        assert!(
            out.c0.dup_suppressed + out.c1.dup_suppressed >= 1,
            "{engine:?}: no duplicate reached the sequence window"
        );
        assert_eq!(out.c0.rdv_started, 1, "{engine:?}: transfer restarted");
        assert_eq!(out.c1.rdv_completed, 1, "{engine:?}");
        assert!(out.nic0.faults_duplicated + out.nic1.faults_duplicated >= 1);
    }
}

/// Reorder-delay and corruption faults: a delayed frame is overtaken but
/// still delivered (in-order to the app), a corrupted frame is discarded
/// by the CRC check and behaves like a loss.
#[test]
fn delayed_and_corrupted_frames_recover() {
    for engine in BOTH_ENGINES {
        let out = run_scenario(
            faulty(
                engine,
                FaultPlan {
                    delay_frames: vec![0],
                    corrupt_frames: vec![2],
                    delay: SimDuration::from_micros(40),
                    ..FaultPlan::default()
                },
            ),
            &[512, 512, 512],
            Some(SimDuration::from_millis(2)),
        );
        assert_eq!(out.nic1.faults_delayed, 1, "{engine:?}");
        assert!(
            out.nic0.faults_corrupted + out.nic1.faults_corrupted >= 1,
            "{engine:?}"
        );
        assert!(out.c0.retransmits >= 1, "{engine:?}: {:?}", out.c0);
    }
}

/// `ooo_deliveries` counts exactly the late deliveries of each
/// `(src, tag)` flow. Node 0 sends tags A and B interleaved to node 1;
/// the frame of the first A is delayed, so the next two A messages
/// overtake it. Node 1 receives only after everything has arrived, so
/// each flow is delivered in arrival order: the first A is the one late
/// delivery. The B messages, numbered from the same per-destination
/// stream between the A messages, add nothing.
#[test]
fn overtaken_message_is_the_only_ooo_delivery() {
    const A: Tag = Tag(1);
    const B: Tag = Tag(2);
    let tags = [A, B, A, B, A, B];
    for engine in BOTH_ENGINES {
        let cluster = Cluster::build(faulty(
            engine,
            FaultPlan {
                delay_frames: vec![0],
                delay: SimDuration::from_micros(40),
                ..FaultPlan::default()
            },
        ));
        {
            let s = cluster.session(0).clone();
            cluster.spawn_on(0, "tx", move |ctx| async move {
                for (i, tag) in tags.into_iter().enumerate() {
                    s.send(&ctx, NodeId(1), tag, payload(i, 512)).await;
                }
            });
        }
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let s = cluster.session(1).clone();
            let order = Rc::clone(&order);
            cluster.spawn_on(1, "rx", move |ctx| async move {
                ctx.compute(SimDuration::from_micros(500)).await;
                for tag in [A, A, A, B, B, B] {
                    let data = s.recv(&ctx, Some(NodeId(0)), tag).await;
                    let i = (0..tags.len()).find(|&i| data == payload(i, 512));
                    order.borrow_mut().push(i.expect("corrupted message"));
                }
            });
        }
        cluster.run_deadline(FAULT_DEADLINE);
        let order = order.take();
        assert_eq!(order, [2, 4, 0, 1, 3, 5], "{engine:?}: delivery order");
        // A delivery is late when its flow already delivered a later send.
        let late = (0..order.len())
            .filter(|&k| {
                order[..k]
                    .iter()
                    .any(|&j| tags[j] == tags[order[k]] && j > order[k])
            })
            .count();
        let c1 = cluster.session(1).counters();
        assert_eq!(c1.ooo_deliveries, late as u64, "{engine:?}: {c1:?}");
        assert_eq!(cluster.nic_counters(1, 0).faults_delayed, 1, "{engine:?}");
    }
}

/// Conservation of frames and messages under randomized fault injection,
/// for any `PM2_FAULT_SEED` (CI runs the published seed matrix) and both
/// engines:
///
/// * **frame balance**, per directed link: every frame the sender's NIC
///   transmits meets exactly one fate at the destination — delivered
///   (`rx_frames`), dropped on the wire (`faults_dropped`) or discarded
///   by the CRC check (`faults_corrupted`) — while duplication injects
///   one extra delivery per duplicated frame, so
///   `rx + dropped + corrupted == tx + duplicated`;
/// * **message balance**, per node: retransmissions re-enter the
///   submission path as raw wire packs and must never be double-counted
///   as application traffic, so `eager_msgs_tx + rdv_started == sends`
///   exactly, no matter how many frames the fault plan destroyed.
#[test]
fn frame_and_message_counters_balance_under_faults() {
    for engine in BOTH_ENGINES {
        let plan = FaultPlan {
            seed: fault_seed(),
            drop_rate: 0.08,
            dup_rate: 0.05,
            corrupt_rate: 0.04,
            window: Some((SimTime::ZERO, SimTime::from_millis(2))),
            ..FaultPlan::default()
        };
        // Mixed sizes: mostly eager, one rendezvous transfer, so both
        // protocol paths contribute frames to the balance.
        let lens = [512usize, 2048, 64 << 10, 512, 512, 2048, 512, 512];
        let out = run_scenario(
            faulty(engine, plan),
            &lens,
            Some(SimDuration::from_millis(5)),
        );
        let seed = fault_seed();
        let injected = out.nic0.faults_dropped
            + out.nic0.faults_duplicated
            + out.nic0.faults_corrupted
            + out.nic1.faults_dropped
            + out.nic1.faults_duplicated
            + out.nic1.faults_corrupted;
        assert!(
            injected >= 1,
            "{engine:?} seed {seed}: fault plan never fired"
        );
        for (dir, tx, rx) in [
            ("0->1", &out.nic0, &out.nic1),
            ("1->0", &out.nic1, &out.nic0),
        ] {
            assert_eq!(
                rx.rx_frames + rx.faults_dropped + rx.faults_corrupted,
                tx.tx_frames + rx.faults_duplicated,
                "{engine:?} seed {seed} link {dir}: frame fates do not \
                 balance (tx {:?} / rx {:?})",
                tx,
                rx
            );
        }
        for (node, c) in [(0, &out.c0), (1, &out.c1)] {
            assert_eq!(
                c.eager_msgs_tx + c.rdv_started,
                c.sends,
                "{engine:?} seed {seed} node {node}: retransmissions \
                 leaked into message counters: {c:?}"
            );
        }
    }
}

fn burst_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_rate: 0.4,
        window: Some((SimTime::from_micros(5), SimTime::from_micros(400))),
        ..FaultPlan::default()
    }
}

/// Burst loss: 40% of the frames sent inside a 400 µs window vanish;
/// every message still arrives exactly once.
#[test]
fn burst_loss_window_recovers() {
    for engine in BOTH_ENGINES {
        let lens = [4096usize; 10];
        let out = run_scenario(
            faulty(engine, burst_plan(fault_seed())),
            &lens,
            Some(SimDuration::from_millis(5)),
        );
        assert!(
            out.nic0.faults_dropped + out.nic1.faults_dropped >= 1,
            "{engine:?} seed {}: burst never fired",
            fault_seed()
        );
        assert!(out.c0.retransmits >= 1, "{engine:?}: {:?}", out.c0);
    }
}

/// Same seed ⇒ same trace: the burst scenario replays to the identical
/// final virtual time and identical counters.
#[test]
fn fault_runs_replay_identically_per_seed() {
    for engine in BOTH_ENGINES {
        let run = || {
            run_scenario(
                faulty(engine, burst_plan(fault_seed())),
                &[4096; 10],
                Some(SimDuration::from_millis(5)),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.end, b.end, "{engine:?}");
        assert_eq!(a.c0, b.c0, "{engine:?}");
        assert_eq!(a.c1, b.c1, "{engine:?}");
        assert_eq!(a.nic1, b.nic1, "{engine:?}");
    }
}

/// A rail going dark mid-rendezvous trips PIOMAN's driver quarantine:
/// the receiver's NIC driver is reported degraded while the rail stalls,
/// polling backs off, and the driver re-arms once frames flow again —
/// with the transfer still delivered exactly once.
#[test]
fn rail_stall_mid_transfer_quarantines_then_recovers() {
    let mut cfg = faulty(
        EngineKind::Pioman,
        FaultPlan {
            stalls: vec![StallWindow {
                node: Some(1),
                from: SimTime::from_micros(20),
                until: SimTime::from_micros(600),
            }],
            ..FaultPlan::default()
        },
    );
    cfg.pioman.quarantine_after = Some(200);
    cfg.pioman.quarantine_backoff = SimDuration::from_micros(20);
    let cluster = Cluster::build(cfg);
    let got = Rc::new(Cell::new(false));
    let len = 256 << 10;
    {
        let s = cluster.session(0).clone();
        cluster.spawn_on(0, "tx", move |ctx| async move {
            s.send(&ctx, NodeId(1), Tag(1), payload(1, len)).await;
        });
    }
    {
        let s = cluster.session(1).clone();
        let got = Rc::clone(&got);
        cluster.spawn_on(1, "rx", move |ctx| async move {
            let data = s.recv(&ctx, Some(NodeId(0)), Tag(1)).await;
            assert_eq!(data, payload(1, len));
            got.set(true);
        });
    }
    // Sample degraded-mode reporting while the rail is dark.
    let degraded_hits = Rc::new(Cell::new(0u32));
    for t in [150u64, 250, 350, 450, 550] {
        let pio = cluster.pioman(1).expect("pioman engine").clone();
        let hits = Rc::clone(&degraded_hits);
        cluster
            .sim()
            .schedule_at(SimTime::from_micros(t), move |_| {
                if !pio.degraded_drivers().is_empty() {
                    hits.set(hits.get() + 1);
                }
            });
    }
    cluster.run_deadline(FAULT_DEADLINE);
    assert!(got.get(), "transfer never completed");
    assert!(
        degraded_hits.get() >= 1,
        "stalled rail was never reported degraded"
    );
    let pio = cluster.pioman(1).expect("pioman engine");
    assert!(
        pio.degraded_drivers().is_empty(),
        "driver still quarantined after recovery"
    );
    let quarantines: u64 = (0..2)
        .map(|i| pio.driver_health(pioman::DriverId(i)).quarantines)
        .sum();
    assert!(quarantines >= 1, "no quarantine window was ever opened");
    assert!(cluster.nic_counters(1, 0).faults_stalled >= 1);
    assert!(cluster.session(1).debug_state().is_clean());
}

/// Long soak: a 1% uniformly lossy fabric under ~10⁶ mixed
/// eager/rendezvous messages in both directions still delivers
/// everything exactly once, under both engines. Tune the volume with
/// `PM2_SOAK_MSGS` (the CI acceptance run uses 100 000).
#[test]
#[ignore = "long soak; run with --release -- --ignored, volume via PM2_SOAK_MSGS"]
fn soak_mixed_traffic_under_one_percent_loss() {
    let total: usize = std::env::var("PM2_SOAK_MSGS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    for engine in BOTH_ENGINES {
        soak_one(engine, total);
    }
}

/// Deterministic pseudo-random size mix crossing the eager/rendezvous
/// boundary (mostly small, a rendezvous transfer every 64 messages).
fn soak_len(i: usize) -> usize {
    let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
    if i % 64 == 63 {
        48 << 10
    } else {
        64 + (h % 2000) as usize
    }
}

fn soak_one(engine: EngineKind, total: usize) {
    const BATCH: usize = 250;
    let per_dir = total / 2;
    let rounds = per_dir.div_ceil(BATCH);
    let cluster = Cluster::build(faulty(engine, FaultPlan::loss(fault_seed(), 0.01)));
    let delivered = Rc::new(Cell::new(0usize));
    let finished = Rc::new(Cell::new(0usize));
    for node in 0..2usize {
        let s = cluster.session(node).clone();
        let delivered = Rc::clone(&delivered);
        let finished = Rc::clone(&finished);
        cluster.spawn_on(node, format!("soak{node}"), move |ctx| async move {
            let peer = NodeId(1 - node);
            for r in 0..rounds {
                let base = r * BATCH;
                let n = BATCH.min(per_dir - base);
                let mut handles = Vec::with_capacity(n);
                for i in 0..n {
                    let uid = base + i;
                    let tag = Tag(((node as u64) << 40) | uid as u64);
                    handles.push(s.isend(&ctx, peer, tag, payload(uid, soak_len(uid))).await);
                }
                for i in 0..n {
                    let uid = base + i;
                    let tag = Tag((((1 - node) as u64) << 40) | uid as u64);
                    let data = s.recv(&ctx, Some(peer), tag).await;
                    assert_eq!(data, payload(uid, soak_len(uid)), "soak message {uid}");
                    delivered.set(delivered.get() + 1);
                }
                for h in &handles {
                    s.swait_send(h, &ctx).await;
                }
            }
            finished.set(finished.get() + 1);
        });
    }
    // The sequential engine needs a pump per node: without background
    // progression, retransmissions queued by timers are only submitted
    // from inside the library. The pump drains submissions until both
    // workers are done, then for a grace period covering a full retry
    // ladder (~70 ms).
    if engine == EngineKind::Sequential {
        for node in 0..2usize {
            let s = cluster.session(node).clone();
            let finished = Rc::clone(&finished);
            cluster.spawn_on(node, format!("pump{node}"), move |ctx| async move {
                while finished.get() < 2 {
                    s.flush_sends(&ctx).await;
                    ctx.compute(SimDuration::from_micros(25)).await;
                }
                for _ in 0..4000 {
                    s.flush_sends(&ctx).await;
                    ctx.compute(SimDuration::from_micros(25)).await;
                }
            });
        }
    }
    cluster.run_deadline(SimTime::from_secs(3600));
    assert_eq!(delivered.get(), per_dir * 2, "soak lost messages");
    let (c0, c1) = (cluster.session(0).counters(), cluster.session(1).counters());
    assert!(
        c0.retransmits + c1.retransmits >= 1,
        "1% loss produced no retransmissions?"
    );
    for node in 0..2 {
        let st = cluster.session(node).debug_state();
        assert_eq!(
            (st.posted, st.unexpected, st.rdv_sends, st.rdv_recvs),
            (0, 0, 0, 0),
            "soak leaked a request on node {node}: {st:?}"
        );
    }
    eprintln!(
        "soak {engine:?}: {} msgs, end {}, retransmits {}, dups {}, exhausted {}",
        per_dir * 2,
        cluster.sim().now(),
        c0.retransmits + c1.retransmits,
        c0.dup_suppressed + c1.dup_suppressed,
        c0.retries_exhausted + c1.retries_exhausted,
    );
}

/// Retry-budget exhaustion surfaces as a *typed* completion error on the
/// waiting request — never a hang (PR-10 reliability pin). Under a 100%
/// loss plan the RTS can never arrive: after the full retry ladder the
/// reliability layer abandons the envelope, fails the send request with
/// `ReqError::RetriesExhausted`, and `swait_send` returns well before
/// the deadline on both engines.
#[test]
fn retry_exhaustion_surfaces_typed_error() {
    for engine in BOTH_ENGINES {
        let cluster = Cluster::build(faulty(engine, FaultPlan::loss(fault_seed(), 1.0)));
        let exhausted = Rc::new(Cell::new(false));
        {
            let s = cluster.session(0).clone();
            let exhausted = Rc::clone(&exhausted);
            cluster.spawn_on(0, "doomed-sender", move |ctx| async move {
                // Rendezvous-sized: the send request only completes via
                // the handshake, so its failure is observable.
                let h = s.isend(&ctx, NodeId(1), Tag(9), vec![0xd0; 64 << 10]).await;
                s.swait_send(&h, &ctx).await;
                assert!(h.is_complete(), "swait returned an incomplete request");
                assert_eq!(
                    h.req().error(),
                    Some(pioman::ReqError::RetriesExhausted),
                    "exhaustion did not surface as a typed error"
                );
                exhausted.set(true);
            });
        }
        let end = cluster.run_deadline(FAULT_DEADLINE);
        assert!(
            end < FAULT_DEADLINE,
            "exhaustion hung instead of failing ({engine:?})"
        );
        assert!(
            exhausted.get(),
            "sender never reached the verdict ({engine:?})"
        );
        let c0 = cluster.session(0).counters();
        assert!(
            c0.retries_exhausted >= 1,
            "exhaustion counter never ticked ({engine:?})"
        );
    }
}
