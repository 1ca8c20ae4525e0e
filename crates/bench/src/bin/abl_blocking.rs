//! Ablation: idle-core polling vs. blocking-syscall progression (§2.3).
//!
//! The authors' earlier work \[10\] guaranteed rendezvous progression with
//! "a blocking system call on a dedicated thread, but this method suffers
//! from a significant overhead". PIOMAN keeps it only as a fallback for
//! when no core is idle. This benchmark measures a rendezvous transfer
//! under three reactivity regimes:
//!
//! * idle-core polling (the paper's preferred mechanism),
//! * blocking call only (polling disabled),
//! * no background progression at all (handshake advances only in swait).

use pioman::PiomanConfig;
use pm2_bench::{header, row};
use pm2_mpi::workloads::{run_overlap, OverlapParams};
use pm2_mpi::ClusterConfig;
use pm2_newmad::EngineKind;

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
    run_overlap(
        cfg,
        &OverlapParams {
            msg_len: 256 << 10, // rendezvous
            compute: pm2_bench::fig6_compute(),
            iters: 15,
            warmup: 3,
        },
    )
    .half_round_us
    .mean()
}

fn main() {
    println!("Ablation — rendezvous reactivity method (256K transfer, 100µs compute)");
    println!("Half-round sending time, µs\n");
    println!("{}", header("method", &["time (µs)".into()]));
    let polling = run(true, false, false);
    let blocking = run(false, true, false);
    let none = run(false, false, false);
    println!("{}", row("idle-poll", &[polling]));
    println!("{}", row("blocking", &[blocking]));
    println!("{}", row("wait-only", &[none]));
    println!(
        "\nBlocking-call overhead vs idle polling: +{:.1}µs ({:+.1}%)",
        blocking - polling,
        (blocking - polling) / polling * 100.0
    );
    println!("Without any background progression the handshake only advances");
    println!("inside swait: the transfer serializes after the computation.");
}
