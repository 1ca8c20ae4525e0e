//! Shared infrastructure for the reproduction binaries and benches.
//!
//! Each binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §4 for the experiment index):
//!
//! * `fig5` — small-message offloading (§4.1, Figure 5)
//! * `fig6` — rendezvous handshake progression (§4.2, Figure 6)
//! * `table1` — convolution meta-application (§4.3, Table 1)
//! * `abl_lock` — per-event spinlocks vs. library-wide mutex (§2.1)
//! * `abl_blocking` — idle-core polling vs. blocking syscalls (§2.3/\[10\])
//! * `abl_aggreg` — strategy layer: FIFO vs. aggregation (§3.1)
//! * `abl_adaptive` — offload-or-not policy (§5 future work)
//! * `abl_timer` — timer-tick cycle stealing when no core is idle (§3.1)
//! * `abl_numa` — progress tasklet on a near vs. a remote socket (§2.3)
//! * `abl_threshold` — where the rendezvous threshold sits (§2.3)
//!
//! The `harness = false` bench `bench_sync` measures the host-side cost of
//! the native primitives (`pm2-sync`) using [`bench()`]; host-side cost of
//! the simulator itself is the benchmark's job (`benchmark/`).

#![warn(missing_docs)]

pub mod collbench;

use pm2_sim::SimDuration;
use std::time::Instant;

/// Runs `f` repeatedly and prints mean wall time per iteration.
///
/// A fixed-iteration measure-after-warmup loop: crude next to a real
/// statistics harness, but dependency-free and stable enough to compare
/// primitives against each other on one host.
pub fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per = total.as_nanos() as f64 / iters as f64;
    println!("{name:>40}  {per:>12.1} ns/iter   ({iters} iters)");
}

/// Pretty-prints one table row: label + f64 columns.
pub fn row(label: &str, cols: &[f64]) -> String {
    let mut s = format!("{label:>12} |");
    for c in cols {
        s.push_str(&format!(" {c:>10.2}"));
    }
    s
}

/// Pretty-prints a header row.
pub fn header(label: &str, cols: &[String]) -> String {
    let mut s = format!("{label:>12} |");
    for c in cols {
        s.push_str(&format!(" {c:>10}"));
    }
    let line = "-".repeat(s.len());
    format!("{s}\n{line}")
}

/// Formats a byte count like the paper's x-axes (1K, 32K, 512K).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// Message sizes of Figure 5 (1K–32K, eager path).
pub fn fig5_sizes() -> Vec<usize> {
    (0..6).map(|i| 1 << (10 + i)).collect()
}

/// Message sizes of Figure 6 (8K–512K, crossing the rendezvous threshold).
pub fn fig6_sizes() -> Vec<usize> {
    (0..7).map(|i| 8 << (10 + i)).collect()
}

/// Computation time of the Figure 5 benchmark.
pub fn fig5_compute() -> SimDuration {
    SimDuration::from_micros(20)
}

/// Computation time of the Figure 6 benchmark.
pub fn fig6_compute() -> SimDuration {
    SimDuration::from_micros(100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper_axes() {
        assert_eq!(fig5_sizes(), vec![1024, 2048, 4096, 8192, 16384, 32768]);
        assert_eq!(fig6_sizes().first(), Some(&8192));
        assert_eq!(fig6_sizes().last(), Some(&(512 << 10)));
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(512), "512");
        assert_eq!(fmt_size(2048), "2K");
        assert_eq!(fmt_size(1 << 20), "1M");
    }

    #[test]
    fn rows_align() {
        let h = header("size", &["a".into(), "b".into()]);
        let r = row("1K", &[1.0, 2.0]);
        assert!(h.lines().next().unwrap().len() == r.len());
    }
}
