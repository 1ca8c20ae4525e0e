//! The explicit-state explorer: exhaustive BFS over all interleavings of
//! application steps, frame deliveries, adversarial drop/dup choices and
//! retransmit-timer fires, under the configured budgets.
//!
//! Safety properties (exactly-once delivery, assembly integrity, window
//! soundness, table totality/determinism) are checked on every
//! transition; liveness properties (no silent stall, no leftover state,
//! typed failure on legitimate exhaustion) are checked at terminal
//! states, which exist because budgets and retry counts bound every run.
//!
//! # The timeout-gating theorem
//!
//! A retransmit timer for envelope `rel` may only fire when no copy of
//! the envelope and no ack for it is in flight. Every fire therefore
//! consumes at least one adversary drop (the copy or its ack must have
//! been dropped — delivery of the ack would have cancelled the timer,
//! and a delivered envelope re-acks every time). Hence with
//! `drop_budget ≤ max_retries`, retry exhaustion is unreachable on
//! correct tables: if it happens anyway, the explorer reports
//! [`Violation::SpuriousExhaustion`].

use crate::frames::{Frame, Pkt, ProtoFrame};
use crate::state::{Cfg, FlowSt, Mutation, Muts, OpKind, RelPend, Violation, World};
use crate::table::{dispatch, Effects};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Stop after visiting this many distinct states (`complete` turns
    /// false in the report).
    pub max_states: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 400_000,
        }
    }
}

/// One violating execution, reconstructed from the BFS parent chain.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Stable violation kind (see [`Violation::kind`]).
    pub kind: &'static str,
    /// What exactly went wrong.
    pub detail: String,
    /// The transition labels from the initial state to the violation.
    pub trace: Vec<String>,
}

/// The explorer's verdict over one (cfg, mutations) pair.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (edges, before dedup).
    pub transitions: usize,
    /// Whether the bounded state space was exhausted.
    pub complete: bool,
    /// Total violating transitions found.
    pub violation_count: usize,
    /// First counterexample found per violation kind.
    pub violations: Vec<Counterexample>,
    /// How often each rule fired across all explored transitions.
    pub rule_fires: BTreeMap<&'static str, u64>,
    /// Terminal states where every flow met its goal.
    pub success_terminals: usize,
    /// Terminal states with at least one voided/failed flow.
    pub failed_terminals: usize,
}

impl Report {
    /// The set of violation kinds found.
    pub fn kinds(&self) -> BTreeSet<&'static str> {
        self.violations.iter().map(|c| c.kind).collect()
    }

    /// Human-readable rendering: summary plus each counterexample as a
    /// numbered transition trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explored {} states / {} transitions ({}), {} violating transition(s), terminals: {} ok / {} failed",
            self.states,
            self.transitions,
            if self.complete { "complete" } else { "BOUND HIT" },
            self.violation_count,
            self.success_terminals,
            self.failed_terminals,
        );
        for cx in &self.violations {
            let _ = writeln!(out, "\ncounterexample [{}]: {}", cx.kind, cx.detail);
            for (i, step) in cx.trace.iter().enumerate() {
                let _ = writeln!(out, "  {:>3}. {step}", i + 1);
            }
        }
        out
    }
}

/// One generated successor: label, resulting world, anything that went
/// wrong on the way, and which table rules fired.
struct Succ {
    label: String,
    world: World,
    violations: Vec<Violation>,
    fired: Vec<&'static str>,
}

/// Assign the next envelope seq from `from` to `to` and put the frame on
/// the fabric with a pending-retransmit record.
fn send_env(w: &mut World, from: usize, to: usize, inner: ProtoFrame) {
    let rel = {
        let n = &mut w.nodes[from];
        let next = n.rel_next_tx.entry(to).or_insert(0);
        let rel = *next;
        *next += 1;
        n.rel_pending
            .insert((to, rel), RelPend { inner, attempts: 0 });
        rel
    };
    w.net_add(Pkt {
        src: from,
        dst: to,
        frame: Frame::Env { rel, inner },
    });
}

/// Apply one scripted application operation at rank `n`.
fn app_step(w: &mut World, n: usize, cfg: &Cfg) {
    let op = cfg.scripts[n][w.nodes[n].next_op];
    w.nodes[n].next_op += 1;
    let flow = op.flow;
    let start_flow = |w: &mut World, completed: bool| {
        w.nodes[n].flows.insert(
            flow,
            FlowSt {
                completed,
                failed: false,
            },
        );
    };
    match op.kind {
        OpKind::Eager { dst, tag, seq } => {
            // Production completes an eager isend at NIC consumption,
            // before any delivery guarantee: model it as born-complete.
            start_flow(w, true);
            send_env(w, n, dst, ProtoFrame::Eager { tag, seq });
        }
        OpKind::Rdv { dst, chunks } => {
            start_flow(w, false);
            w.nodes[n].rdv_sends.insert(flow, chunks);
            send_env(w, n, dst, ProtoFrame::Rts { rdv: flow, chunks });
        }
        OpKind::RmaPut { dst, chunks } => {
            start_flow(w, false);
            w.nodes[n].rma_ops.insert(flow, dst);
            if chunks == 0 {
                send_env(w, n, dst, ProtoFrame::RmaPut { op: flow });
            } else {
                for chunk in 0..chunks {
                    send_env(
                        w,
                        n,
                        dst,
                        ProtoFrame::RmaPutData {
                            op: flow,
                            chunk,
                            chunks,
                        },
                    );
                }
            }
        }
        OpKind::RmaGet { dst, reply_chunks } => {
            start_flow(w, false);
            w.nodes[n].rma_ops.insert(flow, dst);
            send_env(
                w,
                n,
                dst,
                ProtoFrame::RmaGet {
                    op: flow,
                    reply_chunks,
                },
            );
        }
        OpKind::RmaAcc { dst } => {
            start_flow(w, false);
            w.nodes[n].rma_ops.insert(flow, dst);
            send_env(w, n, dst, ProtoFrame::RmaAcc { op: flow });
        }
    }
}

/// Deliver one envelope at `dst`: window check, ack, then dispatch
/// through the transition table if fresh. Operates on the successor as a
/// whole (world + fired rules + violations).
fn deliver_env(succ: &mut Succ, src: usize, dst: usize, rel: u64, inner: ProtoFrame, muts: &Muts) {
    let w = &mut succ.world;
    let fresh = if muts.has(Mutation::SkipSeqWindowAdvance) {
        true
    } else {
        let node = &mut w.nodes[dst];
        let fresh = node.rel_rx.entry(src).or_default().insert(rel);
        // Ghost oracle: the exact set of envelope seqs ever offered to
        // this window. The production SeqWindow must agree with it in
        // both directions.
        let seen = node.env_seen.entry(src).or_default();
        let was_offered = !seen.insert(rel);
        if fresh && was_offered {
            succ.violations.push(Violation::WindowUnsound {
                what: format!("window re-admitted envelope {rel} from {src} at {dst}"),
            });
        }
        if !fresh && !was_offered {
            succ.violations.push(Violation::WindowUnsound {
                what: format!("window suppressed never-seen envelope {rel} from {src} at {dst}"),
            });
        }
        fresh
    };
    let w = &mut succ.world;
    // Production re-acks duplicates so the sender's timer always dies;
    // the AckOnlyFresh mutation removes exactly that re-ack.
    if fresh || !muts.has(Mutation::AckOnlyFresh) {
        w.net_add(Pkt {
            src: dst,
            dst: src,
            frame: Frame::Ack { rel },
        });
    }
    if !fresh {
        return;
    }
    let mut eff = Effects::default();
    match dispatch(src, inner, muts, &mut w.nodes[dst], &mut eff) {
        Ok(rule) => succ.fired.push(rule),
        Err(v) => succ.violations.push(v),
    }
    succ.violations.append(&mut eff.violations);
    for flow in eff.complete {
        if let Some(f) = w.nodes[dst].flows.get_mut(&flow) {
            f.completed = true;
        }
    }
    for (to, frame) in eff.send {
        send_env(w, dst, to, frame);
    }
}

/// Release origin/target state held by the flow inside an exhausted
/// envelope, surfacing a typed failure where production has a waiter.
///
/// Mirrors `Session::rel_abandon` + `PiomReq::fail(RetriesExhausted)`.
/// Where production has no local waiter to fail (a lost eager payload,
/// data chunks for an already-completed send, a target-side reply or
/// ack), the flow is merely voided: its goals are excused at terminals,
/// exactly as production accepts silent loss there. Those gaps are the
/// honest limits documented in DESIGN.md §13.
fn abandon(w: &mut World, n: usize, dest: usize, inner: ProtoFrame, cfg: &Cfg) {
    let fail_origin = |w: &mut World, flow: u64| {
        if let Some(f) = w.nodes[n].flows.get_mut(&flow) {
            if !f.completed {
                f.failed = true;
            }
        }
    };
    match inner {
        ProtoFrame::Eager { tag, seq } => {
            if let Some(flow) = cfg.eager_flow(n, dest, tag, seq) {
                w.voided.insert(flow);
            }
        }
        ProtoFrame::Rts { rdv, .. } => {
            w.nodes[n].rdv_sends.remove(&rdv);
            fail_origin(w, rdv);
            w.voided.insert(rdv);
        }
        ProtoFrame::Cts { rdv } => {
            // The receiver abandons its side; the sender still parks the
            // payload forever (production limitation, excused via void).
            w.nodes[n].rdv_recvs.remove(&(dest, rdv));
            w.voided.insert(rdv);
        }
        ProtoFrame::RdvData { rdv, .. } => {
            w.voided.insert(rdv);
        }
        ProtoFrame::RmaPut { op }
        | ProtoFrame::RmaPutData { op, .. }
        | ProtoFrame::RmaGet { op, .. }
        | ProtoFrame::RmaAcc { op } => {
            if w.nodes[n].rma_ops.remove(&op).is_some() {
                w.nodes[n].rma_get_asm.remove(&op);
                fail_origin(w, op);
            }
            w.voided.insert(op);
        }
        ProtoFrame::RmaGetReply { op }
        | ProtoFrame::RmaGetData { op, .. }
        | ProtoFrame::RmaAck { op } => {
            // Target-side answer lost for good: the origin cannot learn
            // of it (production leaves the origin waiting).
            w.voided.insert(op);
        }
    }
}

/// Generate every successor of `w`.
fn successors(w: &World, cfg: &Cfg, muts: &Muts) -> Vec<Succ> {
    let mut out = Vec::new();
    // 1. Application steps.
    for n in 0..cfg.ranks {
        if w.nodes[n].next_op < cfg.scripts[n].len() {
            let mut succ = Succ {
                label: format!(
                    "app: rank {n} runs {:?}",
                    cfg.scripts[n][w.nodes[n].next_op]
                ),
                world: w.clone(),
                violations: Vec::new(),
                fired: Vec::new(),
            };
            app_step(&mut succ.world, n, cfg);
            out.push(succ);
        }
    }
    // 2./3./4. Per in-flight frame: deliver, adversarial drop, dup.
    for pkt in w.net.keys() {
        let mut succ = Succ {
            label: format!("deliver: {} -> {} {:?}", pkt.src, pkt.dst, pkt.frame),
            world: w.clone(),
            violations: Vec::new(),
            fired: Vec::new(),
        };
        succ.world.net_remove(pkt);
        match pkt.frame {
            Frame::Env { rel, inner } => deliver_env(&mut succ, pkt.src, pkt.dst, rel, inner, muts),
            Frame::Ack { rel } => {
                // Ack cancels the sender's retransmit timer; a late ack
                // for an abandoned envelope is a no-op.
                succ.world.nodes[pkt.dst]
                    .rel_pending
                    .remove(&(pkt.src, rel));
            }
        }
        out.push(succ);
        if w.drops_left > 0 {
            let mut succ = Succ {
                label: format!("drop: {} -> {} {:?}", pkt.src, pkt.dst, pkt.frame),
                world: w.clone(),
                violations: Vec::new(),
                fired: Vec::new(),
            };
            succ.world.net_remove(pkt);
            succ.world.drops_left -= 1;
            out.push(succ);
        }
        if w.dups_left > 0 {
            let mut succ = Succ {
                label: format!("dup: {} -> {} {:?}", pkt.src, pkt.dst, pkt.frame),
                world: w.clone(),
                violations: Vec::new(),
                fired: Vec::new(),
            };
            succ.world.net_add(*pkt);
            succ.world.dups_left -= 1;
            out.push(succ);
        }
    }
    // 5. Retransmit-timer fires: enabled only once the envelope and its
    // ack are both gone from the fabric (the gating that makes the
    // timeout theorem hold).
    for n in 0..cfg.ranks {
        for (&(dest, rel), pend) in &w.nodes[n].rel_pending {
            if w.env_in_flight(n, dest, rel) || w.ack_in_flight(dest, n, rel) {
                continue;
            }
            let mut succ = Succ {
                label: format!(
                    "timer: rank {n} refires rel {rel} to {dest} ({:?})",
                    pend.inner
                ),
                world: w.clone(),
                violations: Vec::new(),
                fired: Vec::new(),
            };
            let world = &mut succ.world;
            let p = world.nodes[n].rel_pending.get_mut(&(dest, rel)).unwrap();
            p.attempts += 1;
            let attempts = p.attempts;
            let inner = p.inner;
            if attempts > cfg.max_retries {
                succ.label = format!(
                    "timer: rank {n} exhausts rel {rel} to {dest} ({inner:?}) after {} attempts",
                    attempts - 1
                );
                if u32::from(cfg.drop_budget) <= cfg.max_retries {
                    succ.violations.push(Violation::SpuriousExhaustion {
                        what: format!(
                            "rel {rel} ({inner:?}) from {n} to {dest} exhausted {} retries with only {} drops allowed",
                            cfg.max_retries, cfg.drop_budget
                        ),
                    });
                }
                world.nodes[n].rel_pending.remove(&(dest, rel));
                if !muts.has(Mutation::IgnoreRetriesExhausted) {
                    abandon(world, n, dest, inner, cfg);
                }
            } else if !(muts.has(Mutation::DontReissueRts)
                && matches!(inner, ProtoFrame::Rts { .. }))
            {
                world.net_add(Pkt {
                    src: n,
                    dst: dest,
                    frame: Frame::Env { rel, inner },
                });
            }
            out.push(succ);
        }
    }
    out
}

/// Liveness / cleanliness checks at a terminal state.
fn check_terminal(w: &World, cfg: &Cfg) -> Vec<Violation> {
    let mut out = Vec::new();
    let excused = |flow: u64| w.voided.contains(&flow);
    for (origin, op) in cfg.all_ops() {
        let flow = op.flow;
        let met = match op.kind {
            OpKind::Eager { dst, tag, seq } => {
                w.nodes[dst]
                    .delivered_eager
                    .get(&(origin, tag, seq))
                    .copied()
                    .unwrap_or(0)
                    >= 1
            }
            OpKind::Rdv { dst, .. } => {
                w.nodes[dst]
                    .delivered_rdv
                    .get(&(origin, flow))
                    .copied()
                    .unwrap_or(0)
                    >= 1
                    && w.nodes[origin]
                        .flows
                        .get(&flow)
                        .is_some_and(|f| f.completed)
            }
            OpKind::RmaPut { dst, .. } | OpKind::RmaAcc { dst } => {
                w.nodes[dst]
                    .applied_rma
                    .get(&(origin, flow))
                    .copied()
                    .unwrap_or(0)
                    >= 1
                    && w.nodes[origin]
                        .flows
                        .get(&flow)
                        .is_some_and(|f| f.completed)
            }
            OpKind::RmaGet { .. } => w.nodes[origin]
                .flows
                .get(&flow)
                .is_some_and(|f| f.completed),
        };
        let failed = w.nodes[origin].flows.get(&flow).is_some_and(|f| f.failed);
        if !met && !failed && !excused(flow) {
            out.push(Violation::SilentStall {
                what: format!(
                    "flow {flow} ({:?} from rank {origin}) neither completed nor failed",
                    op.kind
                ),
            });
        }
    }
    for (rank, node) in w.nodes.iter().enumerate() {
        let mut leftovers: Vec<(u64, &'static str)> = Vec::new();
        leftovers.extend(node.rdv_sends.keys().map(|&f| (f, "rdv_sends")));
        leftovers.extend(node.rdv_recvs.keys().map(|&(_, f)| (f, "rdv_recvs")));
        leftovers.extend(node.rma_ops.keys().map(|&f| (f, "rma_ops")));
        leftovers.extend(node.rma_chunks.keys().map(|&(_, f)| (f, "rma_chunks")));
        leftovers.extend(node.rma_get_asm.keys().map(|&f| (f, "rma_get_asm")));
        for (flow, table) in leftovers {
            if !excused(flow) {
                out.push(Violation::LeftoverState {
                    what: format!("rank {rank} still holds flow {flow} in {table}"),
                });
            }
        }
    }
    out
}

/// Exhaustively explore `cfg` under mutation set `muts`.
pub fn explore(cfg: &Cfg, muts: &Muts, limits: Limits) -> Report {
    cfg.validate();
    let mut report = Report {
        complete: true,
        ..Report::default()
    };
    let mut worlds: Vec<World> = vec![World::init(cfg)];
    let mut parents: Vec<Option<(usize, String)>> = vec![None];
    let mut visited: HashMap<World, usize> = HashMap::new();
    visited.insert(worlds[0].clone(), 0);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut seen_kinds: BTreeSet<&'static str> = BTreeSet::new();

    let trace_to = |parents: &[Option<(usize, String)>], mut idx: usize, last: String| {
        let mut steps = vec![last];
        while let Some((parent, label)) = &parents[idx] {
            steps.push(label.clone());
            idx = *parent;
        }
        steps.reverse();
        steps
    };

    while let Some(idx) = queue.pop_front() {
        if visited.len() >= limits.max_states {
            report.complete = false;
            break;
        }
        let succs = successors(&worlds[idx], cfg, muts);
        if succs.is_empty() {
            // Terminal state: run the liveness/cleanliness checks.
            let violations = check_terminal(&worlds[idx], cfg);
            if violations.is_empty() {
                if worlds[idx].voided.is_empty() {
                    report.success_terminals += 1;
                } else {
                    report.failed_terminals += 1;
                }
            }
            for v in violations {
                report.violation_count += 1;
                if seen_kinds.insert(v.kind()) {
                    report.violations.push(Counterexample {
                        kind: v.kind(),
                        detail: v.detail().to_string(),
                        trace: trace_to(&parents, idx, "terminal state reached".to_string()),
                    });
                }
            }
            continue;
        }
        for succ in succs {
            report.transitions += 1;
            for rule in &succ.fired {
                *report.rule_fires.entry(rule).or_insert(0) += 1;
            }
            if !succ.violations.is_empty() {
                for v in &succ.violations {
                    report.violation_count += 1;
                    if seen_kinds.insert(v.kind()) {
                        report.violations.push(Counterexample {
                            kind: v.kind(),
                            detail: v.detail().to_string(),
                            trace: trace_to(&parents, idx, succ.label.clone()),
                        });
                    }
                }
                // Do not explore past a violation: the property is
                // already broken, deeper states only repeat it.
                continue;
            }
            if !visited.contains_key(&succ.world) {
                let id = worlds.len();
                visited.insert(succ.world.clone(), id);
                worlds.push(succ.world);
                parents.push(Some((idx, succ.label)));
                queue.push_back(id);
            }
        }
    }
    report.states = visited.len();
    report
}
