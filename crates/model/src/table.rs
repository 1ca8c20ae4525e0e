//! The declarative transition tables: typed states × frame classes ×
//! guard/action rules.
//!
//! Each production handler (`handle_rts`, `handle_cts`, `handle_rdv_data`,
//! the `handle_rma_*` family, `deliver_eager`) is transcribed into one or
//! more [`Rule`]s. Dispatch is deliberately strict: a frame matched by no
//! rule is an `UnhandledFrame` violation (production would take an
//! unplanned path or panic), and a frame matched by more than one rule is
//! an `AmbiguousRules` violation (the table is not a function).
//!
//! Seeded [`Mutation`]s weaken individual guards/actions so the explorer
//! can demonstrate it detects each class of bug with a counterexample.

use crate::frames::{FrameClass, ProtoFrame};
use crate::state::{Asm, Mutation, Muts, NodeState, Violation};

/// Context a rule sees: who sent the frame, the frame, active mutations.
pub struct RuleCtx<'a> {
    /// Sending rank.
    pub src: usize,
    /// The frame being dispatched.
    pub frame: ProtoFrame,
    /// Active mutation set.
    pub muts: &'a Muts,
}

/// What a rule's action asks the world to do.
#[derive(Default)]
pub struct Effects {
    /// Frames to send (dest, frame) — each gets its own envelope.
    pub send: Vec<(usize, ProtoFrame)>,
    /// Origin-side flows completed at the dispatching node.
    pub complete: Vec<u64>,
    /// Safety violations detected while applying the action.
    pub violations: Vec<Violation>,
}

/// One transition rule: a guard over (frame, local state) and an action.
pub struct Rule {
    /// Stable rule name (reported in fire counts and counterexamples).
    pub name: &'static str,
    /// Frame class this rule applies to.
    pub class: FrameClass,
    /// Whether the rule claims the frame in this state.
    pub guard: fn(&RuleCtx, &NodeState) -> bool,
    /// State transition + emitted effects.
    pub action: fn(&RuleCtx, &mut NodeState, &mut Effects),
}

/// Record a delivery/apply count bump, flagging the second one.
fn bump(counter: &mut u32, eff: &mut Effects, what: impl FnOnce() -> String) {
    *counter += 1;
    if *counter == 2 {
        eff.violations
            .push(Violation::DoubleDelivery { what: what() });
    }
}

/// Close out a chunk assembly: verify every chunk landed exactly once.
fn check_assembly(asm: &Asm, eff: &mut Effects, what: impl FnOnce() -> String) {
    if !asm.seen.iter().all(|s| *s) {
        eff.violations
            .push(Violation::CorruptAssembly { what: what() });
    }
}

// ---- eager ------------------------------------------------------------

fn eager_deliver(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::Eager { tag, seq } = ctx.frame else {
        return;
    };
    let src = ctx.src;
    let count = n.delivered_eager.entry((src, tag, seq)).or_insert(0);
    bump(count, eff, || {
        format!("eager (src {src}, tag {tag}, seq {seq}) delivered twice")
    });
}

// ---- rendezvous -------------------------------------------------------

fn rts_known(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::Rts { rdv, .. } = ctx.frame else {
        return false;
    };
    n.rdv_recvs.contains_key(&(ctx.src, rdv))
}

fn rts_fresh_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    ctx.muts.has(Mutation::SkipRtsDedup) || !rts_known(ctx, n)
}

fn rts_fresh(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::Rts { rdv, chunks } = ctx.frame else {
        return;
    };
    n.rdv_recvs.insert((ctx.src, rdv), Asm::new(chunks));
    eff.send.push((ctx.src, ProtoFrame::Cts { rdv }));
}

fn rts_dup_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    !ctx.muts.has(Mutation::SkipRtsDedup) && rts_known(ctx, n)
}

fn cts_known(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::Cts { rdv } = ctx.frame else {
        return false;
    };
    n.rdv_sends.contains_key(&rdv)
}

fn cts_fresh(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::Cts { rdv } = ctx.frame else {
        return;
    };
    let Some(chunks) = n.rdv_sends.remove(&rdv) else {
        return;
    };
    for chunk in 0..chunks {
        eff.send
            .push((ctx.src, ProtoFrame::RdvData { rdv, chunk, chunks }));
    }
    // Production completes the send request once the NIC has consumed
    // the chunks; data-independently that is "on CTS".
    eff.complete.push(rdv);
}

fn cts_stale_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    !ctx.muts.has(Mutation::DropDupCtsGuard) && !cts_known(ctx, n)
}

fn rdv_data_asm<'a>(ctx: &RuleCtx, n: &'a NodeState) -> Option<&'a Asm> {
    let ProtoFrame::RdvData { rdv, .. } = ctx.frame else {
        return None;
    };
    n.rdv_recvs.get(&(ctx.src, rdv))
}

fn rdv_data_fresh_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::RdvData { chunk, .. } = ctx.frame else {
        return false;
    };
    rdv_data_asm(ctx, n).is_some_and(|a| !a.seen[chunk as usize])
}

fn rdv_data_fresh(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::RdvData { rdv, chunk, chunks } = ctx.frame else {
        return;
    };
    let src = ctx.src;
    let Some(asm) = n.rdv_recvs.get_mut(&(src, rdv)) else {
        return;
    };
    asm.seen[chunk as usize] = true;
    asm.received += 1;
    let target = if ctx.muts.has(Mutation::CompleteRecvEarly) && chunks > 1 {
        chunks - 1
    } else {
        chunks
    };
    if asm.received >= target {
        let asm = n.rdv_recvs.remove(&(src, rdv)).unwrap();
        check_assembly(&asm, eff, || {
            format!(
                "rdv {rdv} completed with {}/{chunks} distinct chunks",
                asm.seen.iter().filter(|s| **s).count()
            )
        });
        let count = n.delivered_rdv.entry((src, rdv)).or_insert(0);
        bump(count, eff, || format!("rdv {rdv} delivered twice"));
    }
}

fn rdv_data_dup_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::RdvData { chunk, .. } = ctx.frame else {
        return false;
    };
    rdv_data_asm(ctx, n).is_some_and(|a| a.seen[chunk as usize])
}

fn rdv_data_stale_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    rdv_data_asm(ctx, n).is_none()
}

// ---- one-sided (RMA) --------------------------------------------------

fn rma_apply(n: &mut NodeState, eff: &mut Effects, src: usize, op: u64, what: &'static str) {
    let count = n.applied_rma.entry((src, op)).or_insert(0);
    bump(count, eff, || {
        format!("{what} op {op} from {src} applied twice")
    });
}

fn rma_put(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::RmaPut { op } = ctx.frame else {
        return;
    };
    rma_apply(n, eff, ctx.src, op, "put");
    eff.send.push((ctx.src, ProtoFrame::RmaAck { op }));
}

fn put_chunk_asm<'a>(ctx: &RuleCtx, n: &'a NodeState) -> Option<&'a Asm> {
    let ProtoFrame::RmaPutData { op, .. } = ctx.frame else {
        return None;
    };
    n.rma_chunks.get(&(ctx.src, op))
}

fn put_chunk_fresh_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::RmaPutData { chunk, .. } = ctx.frame else {
        return false;
    };
    ctx.muts.has(Mutation::ForgetChunkBitmap)
        || put_chunk_asm(ctx, n).is_none_or(|a| !a.seen[chunk as usize])
}

fn put_chunk_fresh(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::RmaPutData { op, chunk, chunks } = ctx.frame else {
        return;
    };
    let src = ctx.src;
    let asm = n
        .rma_chunks
        .entry((src, op))
        .or_insert_with(|| Asm::new(chunks));
    if !ctx.muts.has(Mutation::ForgetChunkBitmap) {
        asm.seen[chunk as usize] = true;
    }
    asm.received += 1;
    if asm.received == chunks {
        let asm = n.rma_chunks.remove(&(src, op)).unwrap();
        check_assembly(&asm, eff, || {
            format!(
                "put op {op} applied with {}/{chunks} distinct chunks",
                asm.seen.iter().filter(|s| **s).count()
            )
        });
        rma_apply(n, eff, src, op, "chunked put");
        eff.send.push((src, ProtoFrame::RmaAck { op }));
    }
}

fn put_chunk_dup_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::RmaPutData { chunk, .. } = ctx.frame else {
        return false;
    };
    !ctx.muts.has(Mutation::ForgetChunkBitmap)
        && put_chunk_asm(ctx, n).is_some_and(|a| a.seen[chunk as usize])
}

fn rma_get(ctx: &RuleCtx, _n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::RmaGet { op, reply_chunks } = ctx.frame else {
        return;
    };
    if reply_chunks <= 1 {
        eff.send.push((ctx.src, ProtoFrame::RmaGetReply { op }));
    } else {
        for chunk in 0..reply_chunks {
            eff.send.push((
                ctx.src,
                ProtoFrame::RmaGetData {
                    op,
                    chunk,
                    chunks: reply_chunks,
                },
            ));
        }
    }
}

fn rma_acc(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::RmaAcc { op } = ctx.frame else {
        return;
    };
    rma_apply(n, eff, ctx.src, op, "accumulate");
    eff.send.push((ctx.src, ProtoFrame::RmaAck { op }));
}

fn op_live(ctx: &RuleCtx, n: &NodeState) -> bool {
    ctx.frame
        .flow()
        .is_some_and(|op| n.rma_ops.contains_key(&op))
}

fn op_complete(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let Some(op) = ctx.frame.flow() else {
        return;
    };
    n.rma_ops.remove(&op);
    n.rma_get_asm.remove(&op);
    eff.complete.push(op);
}

fn op_stale_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    !op_live(ctx, n)
}

fn get_data_stale(ctx: &RuleCtx, n: &mut NodeState, _eff: &mut Effects) {
    // Production clears any half-built assembly for a dead op.
    if let Some(op) = ctx.frame.flow() {
        n.rma_get_asm.remove(&op);
    }
}

fn get_data_fresh_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::RmaGetData { op, chunk, .. } = ctx.frame else {
        return false;
    };
    op_live(ctx, n)
        && (ctx.muts.has(Mutation::SkipGetChunkDedup)
            || n.rma_get_asm
                .get(&op)
                .is_none_or(|a| !a.seen[chunk as usize]))
}

fn get_data_fresh(ctx: &RuleCtx, n: &mut NodeState, eff: &mut Effects) {
    let ProtoFrame::RmaGetData { op, chunk, chunks } = ctx.frame else {
        return;
    };
    let asm = n.rma_get_asm.entry(op).or_insert_with(|| Asm::new(chunks));
    asm.seen[chunk as usize] = true;
    asm.received += 1;
    if asm.received == chunks {
        let asm = n.rma_get_asm.remove(&op).unwrap();
        check_assembly(&asm, eff, || {
            format!(
                "get op {op} assembled with {}/{chunks} distinct chunks",
                asm.seen.iter().filter(|s| **s).count()
            )
        });
        n.rma_ops.remove(&op);
        eff.complete.push(op);
    }
}

fn get_data_dup_guard(ctx: &RuleCtx, n: &NodeState) -> bool {
    let ProtoFrame::RmaGetData { op, chunk, .. } = ctx.frame else {
        return false;
    };
    op_live(ctx, n)
        && !ctx.muts.has(Mutation::SkipGetChunkDedup)
        && n.rma_get_asm
            .get(&op)
            .is_some_and(|a| a.seen[chunk as usize])
}

fn noop(_ctx: &RuleCtx, _n: &mut NodeState, _eff: &mut Effects) {}
fn always(_ctx: &RuleCtx, _n: &NodeState) -> bool {
    true
}

/// The full transition table for the three wire protocols.
///
/// Kept in one place so a reviewer can audit rule-by-rule against the
/// production handlers named in each comment.
pub const RULES: &[Rule] = &[
    // deliver_eager: delivery bookkeeping only (matching is data flow,
    // not protocol state).
    Rule {
        name: "eager-deliver",
        class: FrameClass::Eager,
        guard: always,
        action: eager_deliver,
    },
    // handle_rts: fresh RTS registers the assembly and answers CTS …
    Rule {
        name: "rts-fresh",
        class: FrameClass::Rts,
        guard: rts_fresh_guard,
        action: rts_fresh,
    },
    // … a duplicate RTS for a tracked rendezvous is suppressed.
    Rule {
        name: "rts-dup",
        class: FrameClass::Rts,
        guard: rts_dup_guard,
        action: noop,
    },
    // handle_cts: first CTS releases the parked payload as data chunks …
    Rule {
        name: "cts-fresh",
        class: FrameClass::Cts,
        guard: cts_known,
        action: cts_fresh,
    },
    // … a stale CTS (abandoned or completed rendezvous) is ignored.
    Rule {
        name: "cts-stale",
        class: FrameClass::Cts,
        guard: cts_stale_guard,
        action: noop,
    },
    // handle_rdv_data: fresh chunk lands in the assembly …
    Rule {
        name: "rdv-data-fresh",
        class: FrameClass::RdvData,
        guard: rdv_data_fresh_guard,
        action: rdv_data_fresh,
    },
    // … duplicate chunk is suppressed by the bitmap …
    Rule {
        name: "rdv-data-dup",
        class: FrameClass::RdvData,
        guard: rdv_data_dup_guard,
        action: noop,
    },
    // … and data for an untracked rendezvous is dropped.
    Rule {
        name: "rdv-data-stale",
        class: FrameClass::RdvData,
        guard: rdv_data_stale_guard,
        action: noop,
    },
    // handle_rma_put (small form): apply + ack.
    Rule {
        name: "rma-put",
        class: FrameClass::RmaPut,
        guard: always,
        action: rma_put,
    },
    // handle_rma_put_chunk: fresh chunk, completion applies + acks …
    Rule {
        name: "rma-put-chunk-fresh",
        class: FrameClass::RmaPutData,
        guard: put_chunk_fresh_guard,
        action: put_chunk_fresh,
    },
    // … duplicate chunk suppressed by the per-op bitmap.
    Rule {
        name: "rma-put-chunk-dup",
        class: FrameClass::RmaPutData,
        guard: put_chunk_dup_guard,
        action: noop,
    },
    // handle_rma_get: serve the reply (single frame or chunked).
    Rule {
        name: "rma-get",
        class: FrameClass::RmaGet,
        guard: always,
        action: rma_get,
    },
    // handle_rma_acc: apply + ack.
    Rule {
        name: "rma-acc",
        class: FrameClass::RmaAcc,
        guard: always,
        action: rma_acc,
    },
    // handle_rma_ack: first ack completes the origin-side op …
    Rule {
        name: "rma-ack-fresh",
        class: FrameClass::RmaAck,
        guard: op_live,
        action: op_complete,
    },
    // … a late duplicate ack finds no op and is ignored.
    Rule {
        name: "rma-ack-stale",
        class: FrameClass::RmaAck,
        guard: op_stale_guard,
        action: noop,
    },
    // handle_rma_get_reply: whole-payload reply completes the get …
    Rule {
        name: "get-reply-fresh",
        class: FrameClass::RmaGetReply,
        guard: op_live,
        action: op_complete,
    },
    // … unless the op was abandoned or already completed.
    Rule {
        name: "get-reply-stale",
        class: FrameClass::RmaGetReply,
        guard: op_stale_guard,
        action: noop,
    },
    // handle_rma_get_data: fresh reply chunk, completion on last …
    Rule {
        name: "get-data-fresh",
        class: FrameClass::RmaGetData,
        guard: get_data_fresh_guard,
        action: get_data_fresh,
    },
    // … duplicate chunk suppressed by the assembly bitmap …
    Rule {
        name: "get-data-dup",
        class: FrameClass::RmaGetData,
        guard: get_data_dup_guard,
        action: noop,
    },
    // … and chunks for a dead op clear any half-built assembly.
    Rule {
        name: "get-data-stale",
        class: FrameClass::RmaGetData,
        guard: op_stale_guard,
        action: get_data_stale,
    },
];

/// Dispatch one protocol frame through the table.
///
/// Returns the name of the (unique) rule that fired, or the violation
/// that the dispatch itself constitutes.
pub fn dispatch(
    src: usize,
    frame: ProtoFrame,
    muts: &Muts,
    node: &mut NodeState,
    eff: &mut Effects,
) -> Result<&'static str, Violation> {
    let ctx = RuleCtx { src, frame, muts };
    let class = frame.class();
    let mut hit: Option<&Rule> = None;
    for rule in RULES {
        if rule.class == class && (rule.guard)(&ctx, node) {
            if let Some(first) = hit {
                return Err(Violation::AmbiguousRules {
                    what: format!(
                        "{:?} from {src}: rules '{}' and '{}' both claim it",
                        frame, first.name, rule.name
                    ),
                });
            }
            hit = Some(rule);
        }
    }
    match hit {
        Some(rule) => {
            (rule.action)(&ctx, node, eff);
            Ok(rule.name)
        }
        None => Err(Violation::UnhandledFrame {
            what: format!("{frame:?} from {src}: no rule claims it"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_frame_class_has_a_rule() {
        let classes: BTreeSet<_> = RULES.iter().map(|r| r.class).collect();
        for class in [
            FrameClass::Eager,
            FrameClass::Rts,
            FrameClass::Cts,
            FrameClass::RdvData,
            FrameClass::RmaPut,
            FrameClass::RmaPutData,
            FrameClass::RmaGet,
            FrameClass::RmaGetReply,
            FrameClass::RmaGetData,
            FrameClass::RmaAcc,
            FrameClass::RmaAck,
        ] {
            assert!(classes.contains(&class), "no rule for {class:?}");
        }
    }

    #[test]
    fn rule_names_are_unique() {
        let names: BTreeSet<_> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), RULES.len());
    }

    #[test]
    fn dispatch_is_deterministic_on_faithful_tables() {
        // A CTS in every reachable local state matches exactly one rule.
        let muts = Muts::none();
        let mut eff = Effects::default();
        let mut node = NodeState::default();
        let fired = dispatch(1, ProtoFrame::Cts { rdv: 7 }, &muts, &mut node, &mut eff).unwrap();
        assert_eq!(fired, "cts-stale");
        node.rdv_sends.insert(7, 2);
        let fired = dispatch(1, ProtoFrame::Cts { rdv: 7 }, &muts, &mut node, &mut eff).unwrap();
        assert_eq!(fired, "cts-fresh");
        assert_eq!(eff.send.len(), 2, "two data chunks queued");
        assert_eq!(eff.complete, vec![7]);
    }

    #[test]
    fn mutated_table_leaves_stale_cts_unhandled() {
        let muts = Muts::of(&[Mutation::DropDupCtsGuard]);
        let mut eff = Effects::default();
        let mut node = NodeState::default();
        let err = dispatch(1, ProtoFrame::Cts { rdv: 7 }, &muts, &mut node, &mut eff).unwrap_err();
        assert_eq!(err.kind(), "unhandled-frame");
    }
}
