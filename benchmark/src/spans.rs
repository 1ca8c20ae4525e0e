//! The span table: pm2-obs timelines of a traced run folded into
//! per-stage latency samples.
//!
//! `build_timelines` reconstructs one record per request and per
//! rendezvous; this module pairs each send with its receive, cuts the
//! records into stages at the layer boundaries and keeps eager and
//! rendezvous traffic apart. A stage a record never reached (a send still
//! queued, a handshake without data) contributes no sample to it.

use pm2_sim::obs::{build_timelines, Event, ReqTimeline, Role};
use pm2_sim::SimTime;
use std::collections::BTreeMap;

/// `stage name → samples in virtual ns`.
pub type Stages = BTreeMap<String, Vec<u64>>;

fn span(from: Option<SimTime>, to: Option<SimTime>) -> Option<u64> {
    let (from, to) = (from?, to?);
    (to >= from).then(|| to.saturating_since(from).as_nanos())
}

fn add(stages: &mut Stages, stage: &str, sample: Option<u64>) {
    if let Some(ns) = sample {
        stages.entry(stage.to_string()).or_default().push(ns);
    }
}

/// Folds an event snapshot into the stage table.
///
/// Eager stages: `post_to_submit` (pioman: request posted → first NIC or
/// shm submission, also split by the site that submitted), `submit_to_deliver`
/// (fabric: submission → delivery into an already-posted receive),
/// `deliver_to_complete` (newmad: delivery → receive request complete) and
/// `post_to_complete` (send posted → receive complete). Rendezvous stages:
/// `post_to_submit` (send posted → RTS submitted), `handshake` (RTS out →
/// CTS back), `dma` (first chunk out → last chunk in) and `rts_to_complete`.
pub fn fold(events: &[Event]) -> Stages {
    let timelines = build_timelines(events);
    let mut stages = Stages::new();

    // The k-th send on (src, dest, tag) meets the k-th directed receive
    // posted for it: request ids grow in post order and matching is FIFO
    // per (source, tag).
    type Flow = (Option<usize>, Option<usize>, u64);
    let mut sends: BTreeMap<Flow, Vec<&ReqTimeline>> = BTreeMap::new();
    let mut recvs: BTreeMap<Flow, Vec<&ReqTimeline>> = BTreeMap::new();
    for r in &timelines.reqs {
        match r.role {
            Role::Send => sends.entry((r.node, r.peer, r.tag)).or_default().push(r),
            Role::Recv => recvs.entry((r.peer, r.node, r.tag)).or_default().push(r),
        }
    }

    for (flow, flow_sends) in &sends {
        let no_recvs = Vec::new();
        let flow_recvs = recvs.get(flow).unwrap_or(&no_recvs);
        for (k, send) in flow_sends.iter().enumerate() {
            let proto = if send.rdv.is_some() { "rdv" } else { "eager" };
            let submit = span(Some(send.posted_at), send.submit_at);
            add(&mut stages, &format!("{proto}.post_to_submit"), submit);
            if let Some(site) = send.submit_site {
                let by_site = format!("{proto}.post_to_submit.{}", site.name());
                add(&mut stages, &by_site, submit);
            }
            let Some(recv) = flow_recvs.get(k) else {
                continue;
            };
            if send.rdv.is_none() {
                if recv.unexpected == Some(false) {
                    let wire = span(send.submit_at, recv.delivered_at);
                    add(&mut stages, "eager.submit_to_deliver", wire);
                }
                let done = span(recv.delivered_at, recv.completed_at);
                add(&mut stages, "eager.deliver_to_complete", done);
                let total = span(Some(send.posted_at), recv.completed_at);
                add(&mut stages, "eager.post_to_complete", total);
            }
        }
    }

    for r in &timelines.rdvs {
        add(&mut stages, "rdv.handshake", span(r.rts_tx, r.cts_rx));
        add(&mut stages, "rdv.dma", span(r.dma_first_tx, r.dma_last_rx));
        add(
            &mut stages,
            "rdv.rts_to_complete",
            span(r.rts_tx, r.completed_at),
        );
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm2_sim::obs::{EventKind, Site};

    fn ev(at_ns: u64, node: usize, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_nanos(at_ns),
            node: Some(node),
            kind,
        }
    }

    fn eager_exchange(t0: u64, send_req: u64, recv_req: u64, unexpected: bool) -> Vec<Event> {
        vec![
            ev(
                t0,
                1,
                EventKind::RecvPosted {
                    req: recv_req,
                    src: Some(0),
                    tag: 7,
                },
            ),
            ev(
                t0 + 10,
                0,
                EventKind::SendPosted {
                    req: send_req,
                    dest: 1,
                    tag: 7,
                    len: 64,
                    rdv: None,
                },
            ),
            ev(
                t0 + 110,
                0,
                EventKind::NicSubmit {
                    req: send_req,
                    dest: 1,
                    bytes: 96,
                    site: Site::Hook,
                },
            ),
            ev(
                t0 + 3_110,
                1,
                EventKind::EagerDeliver {
                    req: recv_req,
                    src: 0,
                    tag: 7,
                    unexpected,
                },
            ),
            ev(
                t0 + 3_310,
                1,
                EventKind::ReqComplete {
                    req: recv_req,
                    latency_ns: 3_310,
                },
            ),
        ]
    }

    #[test]
    fn eager_stages_are_cut_at_the_layer_boundaries() {
        let stages = fold(&eager_exchange(1_000, 2, 1, false));
        assert_eq!(stages["eager.post_to_submit"], vec![100]);
        assert_eq!(stages["eager.post_to_submit.hook"], vec![100]);
        assert_eq!(stages["eager.submit_to_deliver"], vec![3_000]);
        assert_eq!(stages["eager.deliver_to_complete"], vec![200]);
        assert_eq!(stages["eager.post_to_complete"], vec![3_300]);
        assert!(!stages.keys().any(|k| k.starts_with("rdv.")));
    }

    #[test]
    fn unexpected_delivery_is_not_a_wire_sample() {
        let stages = fold(&eager_exchange(0, 2, 1, true));
        assert!(!stages.contains_key("eager.submit_to_deliver"));
        assert_eq!(stages["eager.deliver_to_complete"], vec![200]);
    }

    #[test]
    fn same_flow_sends_pair_with_receives_in_post_order() {
        let mut events = eager_exchange(0, 2, 1, false);
        events.extend(eager_exchange(10_000, 4, 3, false));
        let stages = fold(&events);
        assert_eq!(stages["eager.submit_to_deliver"], vec![3_000, 3_000]);
        assert_eq!(stages["eager.post_to_complete"].len(), 2);
    }

    #[test]
    fn rendezvous_is_kept_apart_and_missing_stages_give_no_sample() {
        let mut events = vec![
            ev(
                0,
                0,
                EventKind::SendPosted {
                    req: 1,
                    dest: 1,
                    tag: 9,
                    len: 1 << 20,
                    rdv: Some(0),
                },
            ),
            ev(
                50,
                0,
                EventKind::NicSubmit {
                    req: 1,
                    dest: 1,
                    bytes: 64,
                    site: Site::Tasklet,
                },
            ),
            ev(
                60,
                0,
                EventKind::RtsTx {
                    rdv: 0,
                    dest: 1,
                    len: 1 << 20,
                },
            ),
            ev(6_060, 0, EventKind::CtsRx { rdv: 0, req: 1 }),
        ];
        let stages = fold(&events);
        assert_eq!(stages["rdv.post_to_submit.tasklet"], vec![50]);
        assert_eq!(stages["rdv.handshake"], vec![6_000]);
        // No data chunk and no completion yet: those stages stay empty.
        assert!(!stages.contains_key("rdv.dma"));
        assert!(!stages.contains_key("rdv.rts_to_complete"));
        assert!(!stages.keys().any(|k| k.starts_with("eager.")));

        events.push(ev(
            6_100,
            0,
            EventKind::DmaTx {
                rdv: 0,
                dest: 1,
                chunk: 0,
                len: 1 << 20,
            },
        ));
        events.push(ev(
            900_100,
            1,
            EventKind::DmaRx {
                rdv: 0,
                src: 0,
                chunk: 0,
                len: 1 << 20,
            },
        ));
        events.push(ev(
            900_200,
            1,
            EventKind::RdvComplete {
                rdv: 0,
                req: 2,
                src: 0,
            },
        ));
        let stages = fold(&events);
        assert_eq!(stages["rdv.dma"], vec![894_000]);
        assert_eq!(stages["rdv.rts_to_complete"], vec![900_140]);
    }

    #[test]
    fn a_send_without_a_receive_still_reports_its_submission() {
        let events: Vec<Event> = eager_exchange(0, 2, 1, false)
            .into_iter()
            .filter(|e| e.node == Some(0))
            .collect();
        let stages = fold(&events);
        assert_eq!(stages["eager.post_to_submit"], vec![100]);
        assert!(!stages.contains_key("eager.post_to_complete"));
    }
}
