//! The paper's claims as one table of rows (see `DESIGN.md` §4 and
//! `EXPERIMENTS.md`).
//!
//! Each row of [`CLAIMS`] names a claim and where the paper makes it. Its
//! module of the same name holds the experiment (`measure`), the table
//! it prints (`print`, byte-identical to `tests/baselines/<id>.txt`) and
//! the shape the paper claims (`holds`). `claims <id>` prints a row;
//! `tests/claims.rs` asserts every row's shape.

use crate::{fmt_size, header, row};
use pioman::PiomanConfig;
use pm2_marcel::MarcelConfig;
use pm2_mpi::workloads::{run_overlap, run_pingpong, run_stencil, OverlapParams, StencilParams};
use pm2_mpi::{Cluster, ClusterConfig};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::SimDuration;
use pm2_topo::NodeId;
use std::cell::Cell;
use std::rc::Rc;

/// One paper claim.
pub struct Claim {
    /// The row's id: the argument of `claims` and the baseline's name.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub section: &'static str,
    /// Runs the row's experiment.
    pub run: fn() -> Outcome,
}

/// What one run of a claim's experiment produced.
pub struct Outcome {
    /// The experiment's table, as `claims <id>` prints it.
    pub printed: String,
    /// Whether the claimed shape holds; `Err` names what broke, and where.
    pub holds: Result<(), String>,
}

/// The row for module `$id`.
macro_rules! claim {
    ($id:ident, $section:literal) => {
        Claim {
            id: stringify!($id),
            section: $section,
            run: || {
                let data = $id::measure();
                Outcome {
                    printed: $id::print(&data),
                    holds: $id::holds(&data),
                }
            },
        }
    };
}

/// The table: every claim the reproduction checks.
pub static CLAIMS: [Claim; 11] = [
    claim!(fig5, "§4.1, fig. 5"),
    claim!(fig6, "§4.2, fig. 6"),
    claim!(table1, "§4.3, table 1"),
    claim!(bandwidth, "§2.3, NetPIPE curve"),
    claim!(abl_lock, "§2.1"),
    claim!(abl_blocking, "§2.3"),
    claim!(abl_aggreg, "§3.1"),
    claim!(abl_adaptive, "§5"),
    claim!(abl_timer, "§3.1"),
    claim!(abl_numa, "§3.1"),
    claim!(abl_threshold, "§2.3"),
];

/// The row with this id.
pub fn claim(id: &str) -> Option<&'static Claim> {
    CLAIMS.iter().find(|c| c.id == id)
}

/// Fails the enclosing predicate unless `$ok`, naming the condition and
/// the point it broke at (`format!` arguments).
macro_rules! ensure {
    ($ok:expr, $($at:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            let at = format!($($at)+);
            return Err(format!("`{}` fails at {at}", stringify!($ok)));
        }
    };
}

/// A header over `cols` and one row per `(label, values)`, each line
/// ending in a newline.
fn table<L: AsRef<str>, V: AsRef<[f64]>>(
    label: &str,
    cols: &[&str],
    rows: impl IntoIterator<Item = (L, V)>,
) -> String {
    let mut s = header(label, cols) + "\n";
    for (l, v) in rows {
        s += &(row(l.as_ref(), v.as_ref()) + "\n");
    }
    s
}

/// The mean half-round time of the Figure 4 loop after 3 warm-up rounds.
fn overlap_us(cfg: ClusterConfig, msg_len: usize, compute: SimDuration, iters: usize) -> f64 {
    let p = OverlapParams {
        msg_len,
        compute,
        iters,
        warmup: 3,
    };
    run_overlap(cfg, &p).half_round_us.mean()
}

fn testbed(engine: EngineKind) -> ClusterConfig {
    ClusterConfig::paper_testbed(engine)
}

/// Figure 5: `isend; compute(20µs); swait`, eager sizes. Offloading the
/// submission turns sum(comm, comp) into max(comm, comp) + ≈2 µs.
mod fig5 {
    use super::*;
    use crate::{fig5_sizes, FIG5_COMPUTE};

    /// `(size, [reference, no-offload, offload])` µs; node 0's work per driver.
    pub(super) type Data = (Vec<(usize, [f64; 3])>, Vec<u64>);

    pub(super) fn measure() -> Data {
        let (mut points, mut shard_work) = (Vec::new(), Vec::<u64>::new());
        for size in fig5_sizes() {
            let reference = overlap_us(testbed(EngineKind::Pioman), size, SimDuration::ZERO, 20);
            let no_offload = overlap_us(testbed(EngineKind::Sequential), size, FIG5_COMPUTE, 20);
            let p = OverlapParams {
                msg_len: size,
                compute: FIG5_COMPUTE,
                iters: 20,
                warmup: 3,
            };
            let offloaded = run_overlap(testbed(EngineKind::Pioman), &p);
            if shard_work.len() < offloaded.driver_progress.len() {
                shard_work.resize(offloaded.driver_progress.len(), 0);
            }
            for (acc, w) in shard_work.iter_mut().zip(&offloaded.driver_progress) {
                *acc += w;
            }
            let offload = offloaded.half_round_us.mean();
            points.push((size, [reference, no_offload, offload]));
        }
        (points, shard_work)
    }

    pub(super) fn print((points, shard_work): &Data) -> String {
        // The overhead the paper measures where comm ≈ comp: offload time
        // minus the ideal max(comm, comp).
        let rows = points.iter().map(|&(size, [r, no, off])| {
            let overhead = off - r.max(FIG5_COMPUTE.as_micros_f64());
            (fmt_size(size), [r, no, off, overhead])
        });
        let cols = ["reference", "no-offload", "offload", "overhead"];
        let shards: Vec<String> = (shard_work.iter().enumerate())
            .map(|(i, w)| match i + 1 == shard_work.len() {
                true => format!("shm={w}"),
                false => format!("rail{i}={w}"),
            })
            .collect();
        format!(
            "Figure 5 — Small messages offloading (sending time, µs)\n\
             Testbed: 2 nodes x 8 cores, MYRI-10G model, eager protocol\n\n{}\n\
             Expected shape (paper): no-offload ≈ reference + 20µs;\n\
             offload ≈ max(reference, 20µs) + ~2µs tasklet overhead.\n\
             Per-driver progress, offload runs (node 0): {}\n",
            table("size", &cols, rows),
            shards.join(" ")
        )
    }

    /// No-offload pays the sum, offload the max, each within 3 µs; offload wins.
    pub(super) fn holds((points, _): &Data) -> Result<(), String> {
        let comp = FIG5_COMPUTE.as_micros_f64();
        for &(size, [reference, no_offload, offload]) in points {
            let (sum, max) = (reference + comp, reference.max(comp));
            ensure!((no_offload - sum).abs() < 3.0, "{size}B");
            ensure!((max - 0.5..=max + 3.0).contains(&offload), "{size}B");
            ensure!(no_offload > offload, "{size}B");
        }
        Ok(())
    }
}

/// Figure 6: the same loop, 100 µs of computation, 8K–512K. Idle cores
/// progress the rendezvous handshake: sum(comm, comp) becomes the max.
mod fig6 {
    use super::*;
    use crate::{fig6_sizes, FIG6_COMPUTE};

    /// `(size, [no-rdv-prog, rdv-prog, reference])`, µs.
    pub(super) type Data = Vec<(usize, [f64; 3])>;

    pub(super) fn measure() -> Data {
        let run = |engine, compute| move |size| overlap_us(testbed(engine), size, compute, 15);
        let no_prog = run(EngineKind::Sequential, FIG6_COMPUTE);
        let prog = run(EngineKind::Pioman, FIG6_COMPUTE);
        let reference = run(EngineKind::Pioman, SimDuration::ZERO);
        let point = |size| (size, [no_prog(size), prog(size), reference(size)]);
        fig6_sizes().into_iter().map(point).collect()
    }

    pub(super) fn print(points: &Data) -> String {
        let rows = points.iter().map(|(size, t)| (fmt_size(*size), t));
        format!(
            "Figure 6 — Offloading of rendezvous progression (sending time, µs)\n\
             Testbed: 2 nodes x 8 cores, MYRI-10G model, rendezvous above 32K\n\n{}\n\
             Expected shape (paper): no-rdv-prog ≈ reference + 100µs;\n\
             rdv-prog ≈ max(reference, 100µs); crossover where comm ≈ 100µs (~128K).\n",
            table("size", &["no-rdv-prog", "rdv-prog", "reference"], rows)
        )
    }

    /// Progression sits within 6 µs of the compute, then 8 µs of the reference
    /// and 50 µs ahead of no-prog, which pays the sum within 12 µs to 256K.
    pub(super) fn holds(points: &Data) -> Result<(), String> {
        let comp = FIG6_COMPUTE.as_micros_f64();
        for &(size, [no_prog, prog, reference]) in points {
            if reference < comp {
                ensure!((prog - comp).abs() < 6.0, "{size}B");
                continue;
            }
            let sum = reference + comp;
            ensure!((prog - reference).abs() < 8.0, "{size}B");
            ensure!(no_prog > prog + 50.0, "{size}B");
            ensure!(size > 256 << 10 || (no_prog - sum).abs() < 12.0, "{size}B");
        }
        Ok(())
    }
}

/// Table 1: the convolution meta-application (Figures 7 and 8) at 4 and
/// 16 threads; halos stay eager, so offloading the copies is what counts.
mod table1 {
    use super::*;

    /// Total µs at 4 and 16 threads, `[no-offload, offload]` each.
    pub(super) type Data = [[f64; 2]; 2];

    pub(super) fn measure() -> Data {
        let total = |engine, p: &StencilParams| run_stencil(testbed(engine), p).total_us;
        let both = |p| [EngineKind::Sequential, EngineKind::Pioman].map(|e| total(e, &p));
        let four = both(StencilParams::four_threads());
        [four, both(StencilParams::sixteen_threads())]
    }

    fn speedup([seq, pio]: [f64; 2]) -> f64 {
        (seq - pio) / seq * 100.0
    }

    pub(super) fn print(&[four, sixteen]: &Data) -> String {
        let rows = [
            ("no-offload", [four[0], sixteen[0]]),
            ("offload", [four[1], sixteen[1]]),
            ("speedup %", [speedup(four), speedup(sixteen)]),
        ];
        format!(
            "Table 1 — Impact of the number of threads on communication offloading\n\
             Meta-application: convolution-style stencil, 2 nodes x 8 cores\n\n{}\n\
             Paper reports: no-offload 441µs / 1183µs, offload 382µs / 1031µs,\n\
             speedups 14% / 13% — idle cores absorb the halo submissions, and at\n\
             16 threads PIOMAN fills the gaps left by threads blocked on receives.\n",
            table("", &["4 threads", "16 threads"], rows)
        )
    }

    /// Offloading gains 5–30 % (paper: 13–14 %); 16 threads cost 1.8× four.
    pub(super) fn holds(&[four, sixteen]: &Data) -> Result<(), String> {
        for (threads, times) in [(4, four), (16, sixteen)] {
            ensure!((5.0..30.0).contains(&speedup(times)), "{threads} threads");
        }
        ensure!(sixteen[0] > four[0] * 1.8, "no-offload");
        Ok(())
    }
}

/// Extension: the NetPIPE-style latency/bandwidth curve, both engines and
/// two rails; bandwidth converges to the wire rate.
mod bandwidth {
    use super::*;

    /// Wire rate of one MYRI-10G rail, MB/s.
    const WIRE_MBS: f64 = 1250.0;

    /// `(size, [lat seq, lat pio, MB/s pio, MB/s 2rail])`; rank 0's rail work.
    pub(super) type Data = (Vec<(usize, [f64; 4])>, [u64; 2]);

    pub(super) fn measure() -> Data {
        let (mut points, mut rail_work) = (Vec::new(), [0u64; 2]);
        let mut size = 64usize;
        while size <= 4 << 20 {
            let seq = run_pingpong(testbed(EngineKind::Sequential), size, 10);
            let pio = run_pingpong(testbed(EngineKind::Pioman), size, 10);
            let dual = ClusterConfig {
                rails: 2,
                multirail: true,
                ..testbed(EngineKind::Pioman)
            };
            let dual = run_pingpong(dual, size, 10);
            for (acc, w) in rail_work.iter_mut().zip(&dual.driver_progress) {
                *acc += w;
            }
            let lat = [seq.latency_us.mean(), pio.latency_us.mean()];
            let mbs = [pio.bandwidth_mbs, dual.bandwidth_mbs];
            points.push((size, [lat[0], lat[1], mbs[0], mbs[1]]));
            size *= 4;
        }
        (points, rail_work)
    }

    pub(super) fn print((points, [rail0, rail1]): &Data) -> String {
        let rows = points.iter().map(|(size, cols)| (fmt_size(*size), cols));
        let cols = ["lat seq", "lat pio", "MB/s pio", "MB/s 2rail"];
        format!(
            "Latency / bandwidth sweep (ping-pong, no computation)\n\n{}\n\
             Expected: ~3-4µs small-message latency; a step at the 32K\n\
             rendezvous threshold; asymptotic bandwidth ≈ wire rate (1250 MB/s),\n\
             doubled by multirail.\n\
             Per-rail driver progress, 2rail runs (rank 0): rail0={rail0} rail1={rail1}\n",
            table("size", &cols, rows)
        )
    }

    /// 64 B under 5 µs; bandwidth climbs to the wire rate; 2 rails ≈ double.
    pub(super) fn holds((points, [rail0, rail1]): &Data) -> Result<(), String> {
        let (_, [lat_seq, lat_pio, ..]) = points[0];
        ensure!(lat_seq < 5.0 && lat_pio < 5.0, "64B");
        for pair in points.windows(2) {
            let [(_, [.., mbs, _]), (size, [.., next, _])] = [pair[0], pair[1]];
            ensure!(next > mbs, "{size}B");
        }
        let (_, [.., pio, dual]) = points[points.len() - 1];
        ensure!(pio > 0.95 * WIRE_MBS && pio <= WIRE_MBS, "4M");
        ensure!(dual > 1.8 * pio, "4M");
        ensure!(rail0 == rail1, "2 rails");
        Ok(())
    }
}

/// Ablation (§2.1): per-event spinlocks let idle cores copy intra-node
/// messages at once; a library-wide mutex makes them take turns.
mod abl_lock {
    use super::*;
    use pioman::LockModel;

    const PAIRS: usize = 2;
    const ITERS: usize = 40;
    const MSG_LEN: usize = 28 << 10;

    fn run(lock_model: LockModel) -> (f64, u64) {
        let cfg = ClusterConfig {
            nodes: 2, // node 1 unused; keeps the fabric layout of the testbed
            pioman: PiomanConfig {
                lock_model,
                ..PiomanConfig::default()
            },
            ..ClusterConfig::paper_testbed(EngineKind::Pioman)
        };
        let cluster = Cluster::build(cfg);
        let end = Rc::new(Cell::new(0u64));
        for p in 0..PAIRS {
            {
                let s = cluster.session(0).clone();
                let end = Rc::clone(&end);
                cluster.spawn_on(0, format!("tx{p}"), move |ctx| async move {
                    for m in 0..ITERS {
                        let tag = Tag((p * ITERS + m) as u64);
                        let h = s.isend(&ctx, NodeId(0), tag, vec![0x11; MSG_LEN]).await;
                        ctx.compute(SimDuration::from_micros(12)).await;
                        s.swait_send(&h, &ctx).await;
                    }
                    end.set(end.get().max(ctx.marcel().sim().now().as_nanos()));
                });
            }
            {
                let s = cluster.session(0).clone();
                let end = Rc::clone(&end);
                cluster.spawn_on(0, format!("rx{p}"), move |ctx| async move {
                    for m in 0..ITERS {
                        let tag = Tag((p * ITERS + m) as u64);
                        let h = s.irecv(&ctx, Some(NodeId(0)), tag).await;
                        ctx.compute(SimDuration::from_micros(12)).await;
                        let _ = s.swait_recv(&h, &ctx).await;
                    }
                    end.set(end.get().max(ctx.marcel().sim().now().as_nanos()));
                });
            }
        }
        cluster.run();
        let stats = cluster.pioman(0).expect("pioman engine").stats();
        (end.get() as f64 / 1000.0, stats.lock_contentions)
    }

    /// `(time µs, contentions)` with spinlocks and with the global mutex.
    pub(super) type Data = [(f64, u64); 2];

    pub(super) fn measure() -> Data {
        [LockModel::PerEventSpinlock, LockModel::GlobalMutex].map(run)
    }

    pub(super) fn print(&[(spin_t, spin_c), (mutex_t, mutex_c)]: &Data) -> String {
        let rows = [
            ("spinlocks", [spin_t, spin_c as f64]),
            ("globalmutex", [mutex_t, mutex_c as f64]),
        ];
        format!(
            "Ablation — event protection: per-event spinlocks vs global mutex\n\
             Workload: {PAIRS} intra-node flows x {ITERS} x {}K messages, 8 cores\n\n{}\n\
             Global mutex slowdown: {:.1}% (paper §2.1: light per-event locks let\n\
             several cores process different events concurrently).\n",
            MSG_LEN >> 10,
            table("model", &["time (µs)", "contentions"], rows),
            (mutex_t - spin_t) / spin_t * 100.0
        )
    }

    /// Spinlocks never contend; the mutex contends and is 1.5× slower.
    pub(super) fn holds(&[(spin_t, spin_c), (mutex_t, mutex_c)]: &Data) -> Result<(), String> {
        ensure!(spin_c == 0 && mutex_c > 0, "{spin_c} vs {mutex_c}");
        ensure!(mutex_t > 1.5 * spin_t, "{spin_t:.1} vs {mutex_t:.1}µs");
        Ok(())
    }
}

/// Ablation (§2.3, \[10\]): a 256K rendezvous progressed by idle-core
/// polling, by the blocking system call alone, or only inside `swait`.
mod abl_blocking {
    use super::*;
    use crate::FIG6_COMPUTE;

    fn run(idle_poll: bool, blocking_call: bool, timer_poll: bool) -> f64 {
        let cfg = ClusterConfig {
            pioman: PiomanConfig {
                idle_poll,
                blocking_call,
                timer_poll,
                ..PiomanConfig::default()
            },
            ..ClusterConfig::paper_testbed(EngineKind::Pioman)
        };
        overlap_us(cfg, 256 << 10, FIG6_COMPUTE, 15) // rendezvous
    }

    /// Half-round µs: `[idle-poll, blocking, wait-only]`.
    pub(super) type Data = [f64; 3];

    pub(super) fn measure() -> Data {
        [(true, false), (false, true), (false, false)].map(|(idle, block)| run(idle, block, false))
    }

    pub(super) fn print(&[polling, blocking, none]: &Data) -> String {
        let rows = [
            ("idle-poll", polling),
            ("blocking", blocking),
            ("wait-only", none),
        ];
        format!(
            "Ablation — rendezvous reactivity method (256K transfer, 100µs compute)\n\
             Half-round sending time, µs\n\n{}\n\
             Blocking-call overhead vs idle polling: +{:.1}µs ({:+.1}%)\n\
             Without any background progression the handshake only advances\n\
             inside swait: the transfer serializes after the computation.\n",
            table("method", &["time (µs)"], rows.map(|(l, t)| (l, [t]))),
            blocking - polling,
            (blocking - polling) / polling * 100.0
        )
    }

    /// Polling beats blocking beats `swait` alone, which serializes the transfer.
    pub(super) fn holds(&[polling, blocking, none]: &Data) -> Result<(), String> {
        let half_comp = FIG6_COMPUTE.as_micros_f64() / 2.0;
        ensure!(polling < blocking && blocking < none, "256K");
        ensure!(none > polling + half_comp, "256K");
        Ok(())
    }
}

/// Ablation (§3.1, \[2\]): the strategy layer. Aggregation folds a burst
/// of small messages to one destination into fewer frames.
mod abl_aggreg {
    use super::*;
    use pm2_mpi::StrategyKind;

    const BURST: usize = 32;
    const STRATEGIES: [(&str, StrategyKind); 3] = [
        ("fifo", StrategyKind::Fifo),
        ("aggreg", StrategyKind::Aggreg),
        ("shortest", StrategyKind::ShortestFirst),
    ];

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

    /// Per message size, `(time µs, frames)` under each of [`STRATEGIES`].
    pub(super) type Data = Vec<(usize, [(f64, u64); 3])>;

    pub(super) fn measure() -> Data {
        let point = |len| (len, STRATEGIES.map(|(_, strategy)| run(strategy, len)));
        [256, 1 << 10, 4 << 10].map(point).into()
    }

    pub(super) fn print(points: &Data) -> String {
        let mut s = format!(
            "Ablation — packet-scheduling strategies ({BURST}-message bursts)\n\
             Time until the receiver has all messages, and frames on the wire\n\n"
        );
        for (len, runs) in points {
            let rows = (STRATEGIES.iter().zip(runs)).map(|(&(l, _), &(t, f))| (l, [t, f as f64]));
            let table = table("strategy", &["time (µs)", "frames"], rows);
            s += &format!("message size {}:\n{table}\n", fmt_size(*len));
        }
        s + "Aggregation folds a burst into few frames: fewer submissions and\n\
             fewer per-frame wire overheads — the gain shrinks as messages grow\n\
             (the byte limit caps folding).\n"
    }

    /// Aggregation saves frames and time, a gain that shrinks with size.
    pub(super) fn holds(points: &Data) -> Result<(), String> {
        let (burst, mut last_gain) = (BURST as u64, f64::INFINITY);
        for &(len, [(fifo_t, fifo_f), (agg_t, agg_f), (_, short_f)]) in points {
            let gain = (fifo_t - agg_t) / fifo_t;
            ensure!(
                fifo_f == burst && short_f == burst && agg_f < burst,
                "{len}B"
            );
            ensure!(gain > 0.0 && gain < last_gain, "{len}B");
            last_gain = gain;
        }
        Ok(())
    }
}

/// Ablation (§5 future work): offload always, never, or only submissions
/// costing more than the ≈2 µs invocation; without and with computation.
mod abl_adaptive {
    use super::*;
    use pm2_newmad::OffloadPolicy;

    const SIZES: [usize; 4] = [256, 1 << 10, 8 << 10, 32 << 10];

    fn run(policy: OffloadPolicy, msg_len: usize, compute: SimDuration) -> f64 {
        let cfg = ClusterConfig {
            offload_policy: policy,
            ..ClusterConfig::paper_testbed(EngineKind::Pioman)
        };
        overlap_us(cfg, msg_len, compute, 20)
    }

    /// Per size, half-round µs `[always, never, adaptive]`, per compute.
    pub(super) type Data = [[[f64; 3]; 4]; 2];

    pub(super) fn measure() -> Data {
        use OffloadPolicy::*;
        let sweep = |us| SIZES.map(|n| [Always, Never, Adaptive].map(|p| run(p, n, us)));
        [SimDuration::ZERO, SimDuration::from_micros(20)].map(sweep)
    }

    pub(super) fn print([latency, overlap]: &Data) -> String {
        let mut s =
            String::from("Ablation — adaptive offloading (half-round sending time, µs)\n\n");
        for (wl, times) in [
            ("latency (no compute)", latency),
            ("overlap (20µs compute)", overlap),
        ] {
            let rows = SIZES
                .iter()
                .zip(times)
                .map(|(size, t)| (fmt_size(*size), t));
            let table = table("size", &["always", "never", "adaptive"], rows);
            s += &format!("{wl}:\n{table}\n");
        }
        s + "Observed: in the pure-latency loop the policies tie — `swait` runs\n\
             right after `isend` and reclaims the submission inline before the\n\
             offload tasklet's cross-CPU invocation (2µs) completes, so the\n\
             offload machinery never hurts latency. With 20µs of computation\n\
             to hide behind, offloading (always) wins up to 8K; at 32K the\n\
             transfer outlasts the computation and the invocation shows.\n\
             Adaptive inlines only the submissions cheaper than the invocation\n\
             overhead and otherwise matches `always`.\n"
    }

    /// Without computation the policies tie. With it, offloading wins up
    /// to 8K; adaptive inlines 256 B and 1K (cheaper than the invocation)
    /// and matches `always` above.
    pub(super) fn holds([latency, overlap]: &Data) -> Result<(), String> {
        for (size, &[always, never, adaptive]) in SIZES.iter().zip(latency) {
            ensure!(always == never && never == adaptive, "{size}B, no compute");
        }
        for (&size, &[always, never, adaptive]) in SIZES.iter().zip(overlap) {
            let inlined = if size <= 1 << 10 { never } else { always };
            ensure!(size > 8 << 10 || always < never, "{size}B, 20µs compute");
            ensure!(adaptive == inlined, "{size}B, 20µs compute");
        }
        Ok(())
    }
}

/// Ablation (§3.1): with every core computing, only the timer tick,
/// stealing cycles, progresses a rendezvous handshake before `swait`.
mod abl_timer {
    use super::*;

    const MSG: usize = 128 << 10; // rendezvous
    const COMPUTE_US: u64 = 400;

    fn run(timer_steal: bool, tick_us: u64) -> f64 {
        let cfg = ClusterConfig {
            marcel: MarcelConfig {
                timer_tick: Some(SimDuration::from_micros(tick_us)),
                timer_steals_from_compute: timer_steal,
                ..MarcelConfig::default()
            },
            pioman: PiomanConfig {
                idle_poll: true,
                timer_poll: true,
                blocking_call: false,
                ..PiomanConfig::default()
            },
            ..ClusterConfig::paper_testbed(EngineKind::Pioman)
        };
        let cluster = Cluster::build(cfg);
        let done = Rc::new(Cell::new(0u64));
        // Fill every core of both nodes with computation.
        for node in 0..2 {
            for t in 0..7 {
                cluster.spawn_on(node, format!("busy{node}-{t}"), move |ctx| async move {
                    ctx.compute(SimDuration::from_micros(COMPUTE_US)).await;
                });
            }
        }
        {
            let s = cluster.session(0).clone();
            let done = Rc::clone(&done);
            cluster.spawn_on(0, "tx", move |ctx| async move {
                let h = s.isend(&ctx, NodeId(1), Tag(1), vec![1; MSG]).await;
                ctx.compute(SimDuration::from_micros(COMPUTE_US)).await;
                s.swait_send(&h, &ctx).await;
                done.set(ctx.marcel().sim().now().as_micros());
            });
        }
        {
            let s = cluster.session(1).clone();
            cluster.spawn_on(1, "rx", move |ctx| async move {
                let h = s.irecv(&ctx, Some(NodeId(0)), Tag(1)).await;
                ctx.compute(SimDuration::from_micros(COMPUTE_US)).await;
                let _ = s.swait_recv(&h, &ctx).await;
            });
        }
        cluster.run();
        done.get() as f64
    }

    /// Sender completion µs: `[no stealing, tick 100 µs, tick 25 µs]`.
    pub(super) type Data = [f64; 3];

    pub(super) fn measure() -> Data {
        [run(false, 100), run(true, 100), run(true, 25)]
    }

    pub(super) fn print(&[no_steal, steal_100, steal_25]: &Data) -> String {
        let rows = [
            ("no-steal", no_steal),
            ("tick=100µs", steal_100),
            ("tick=25µs", steal_25),
        ];
        format!(
            "Ablation — timer-tick stealing under full CPU occupancy\n\
             128K rendezvous, all 16 cores computing 400µs; sender completion time\n\n{}\n\
             Without stealing, the handshake waits for swait (no overlap).\n\
             With stealing, reactivity is bounded by the tick period: shorter\n\
             ticks start the transfer earlier at the cost of intruding more on\n\
             the computing threads (§3.1's polling/intrusiveness trade-off).\n",
            table("config", &["time (µs)"], rows.map(|(l, t)| (l, [t])))
        )
    }

    /// Stealing ends within a tick of the computation, ahead of no stealing.
    pub(super) fn holds(&[no_steal, steal_100, steal_25]: &Data) -> Result<(), String> {
        let comp = COMPUTE_US as f64;
        ensure!(steal_100 <= comp + 100.0 && steal_25 <= comp + 25.0, "128K");
        ensure!(no_steal > steal_100 && steal_100 >= steal_25, "128K");
        Ok(())
    }
}

/// Ablation (§3.1): the submission tasklet runs on the idle core nearest
/// the sender; busy neighbours force it across the socket boundary.
mod abl_numa {
    use super::*;

    const MSG: usize = 16 << 10;
    const COMPUTE_US: u64 = 20;
    const ITERS: usize = 20;

    fn run(busy_local_socket: bool) -> f64 {
        let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Pioman));
        let total = Rc::new(Cell::new(0f64));
        if busy_local_socket {
            // Occupy cores 1-3 (socket 0 of node 0): only socket 1 stays idle.
            for c in 1..4usize {
                let core = cluster.topology().core_on(pm2_topo::NodeId(0), c);
                cluster.marcel(0).spawn(
                    format!("busy{c}"),
                    pm2_marcel::Priority::Normal,
                    Some(core),
                    |ctx| async move {
                        ctx.compute(SimDuration::from_millis(10)).await;
                    },
                );
            }
        }
        {
            let s = cluster.session(0).clone();
            let total = Rc::clone(&total);
            let core0 = cluster.topology().core_on(pm2_topo::NodeId(0), 0);
            cluster.marcel(0).spawn(
                "sender",
                pm2_marcel::Priority::Normal,
                Some(core0),
                move |ctx| async move {
                    for i in 0..ITERS {
                        let t1 = ctx.marcel().sim().now();
                        let h = s.isend(&ctx, NodeId(1), Tag(i as u64), vec![1; MSG]).await;
                        ctx.compute(SimDuration::from_micros(COMPUTE_US)).await;
                        s.swait_send(&h, &ctx).await;
                        let t2 = ctx.marcel().sim().now();
                        total.set(total.get() + t2.saturating_since(t1).as_micros_f64());
                    }
                },
            );
        }
        {
            let s = cluster.session(1).clone();
            cluster.spawn_on(1, "rx", move |ctx| async move {
                for i in 0..ITERS {
                    let _ = s.recv(&ctx, Some(NodeId(0)), Tag(i as u64)).await;
                }
            });
        }
        cluster.run();
        total.get() / ITERS as f64
    }

    /// Sender µs with the tasklet on socket 0 and forced to socket 1.
    pub(super) type Data = [f64; 2];

    pub(super) fn measure() -> Data {
        [run(false), run(true)]
    }

    pub(super) fn print(&[near, far]: &Data) -> String {
        let rows = [("same-socket", [near]), ("cross-socket", [far])];
        format!(
            "Ablation — NUMA placement of the offload tasklet\n\
             16K isend + 20µs compute + swait, sender pinned to core 0\n\n{}\n\
             Forcing the tasklet across the socket boundary adds {:.1}µs of\n\
             invocation latency (2µs shared-cache vs 3.2µs interconnect) —\n\
             why Marcel's kick-nearest-idle-core policy matters.\n",
            table("placement", &["sender time (µs)"], rows),
            far - near
        )
    }

    /// Crossing the socket costs the remote invocation's extra, within 0.1 µs.
    pub(super) fn holds(&[near, far]: &Data) -> Result<(), String> {
        let m = MarcelConfig::default();
        let gap = (m.tasklet_invoke_remote - m.tasklet_invoke_same_socket).as_micros_f64();
        ensure!((far - near - gap).abs() < 0.1, "16K");
        Ok(())
    }
}

/// Ablation (§2.3): eager pays a copy, the rendezvous a handshake;
/// sweeping the threshold around each size validates MX's 32K.
mod abl_threshold {
    use super::*;

    const THRESHOLDS: [usize; 5] = [8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];
    const SIZES: [usize; 5] = [4 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];

    /// Per size of [`SIZES`], the ping-pong µs under each of [`THRESHOLDS`].
    pub(super) type Data = [[f64; 5]; 5];

    pub(super) fn measure() -> Data {
        let lat = |size, rdv_threshold| {
            let cfg = ClusterConfig {
                rdv_threshold,
                ..ClusterConfig::paper_testbed(EngineKind::Pioman)
            };
            run_pingpong(cfg, size, 10).latency_us.mean()
        };
        SIZES.map(|size| THRESHOLDS.map(|t| lat(size, t)))
    }

    pub(super) fn print(lats: &Data) -> String {
        let cols = THRESHOLDS.map(|t| format!("thr {}", fmt_size(t)));
        let rows = SIZES.iter().zip(lats).map(|(size, l)| (fmt_size(*size), l));
        format!(
            "Ablation — rendezvous threshold sweep (ping-pong latency, µs)\n\n{}\n\
             For each message size, read across: eager (size ≤ threshold) pays\n\
             the copy; rendezvous (size > threshold) pays the handshake. The\n\
             crossover where the copy cost exceeds one round-trip of handshake\n\
             sits near MX's 32K under this cost model.\n",
            table("msg size", &cols.each_ref().map(|c| c.as_str()), rows)
        )
    }

    /// Eager is faster below 32K, the rendezvous from 32K on.
    pub(super) fn holds(lats: &Data) -> Result<(), String> {
        for (&size, lats) in SIZES.iter().zip(lats) {
            let (mut eager, mut rdv) = (f64::INFINITY, f64::INFINITY);
            for (&t, &lat) in THRESHOLDS.iter().zip(lats) {
                let best = if size <= t { &mut eager } else { &mut rdv };
                *best = best.min(lat);
            }
            ensure!(
                rdv == f64::INFINITY || (rdv < eager) == (size >= 32 << 10),
                "{size}B"
            );
        }
        Ok(())
    }
}
