//! The reproduction of the paper's figures, tables and ablations.
//!
//! [`claims::CLAIMS`] is one table of rows, one per paper claim (see
//! `DESIGN.md` §4 for the experiment index); `claims <id>` prints a row
//! and `tests/claims.rs` asserts each row's shape. [`collbench`] times
//! collective algorithms for `tests/coll.rs`.
//!
//! Host-side cost of the simulator is the benchmark's job (`benchmark/`).

#![warn(missing_docs)]

pub mod claims;
pub mod collbench;

use pm2_sim::SimDuration;

/// Pretty-prints one table row: label + f64 columns.
pub(crate) fn row(label: &str, cols: &[f64]) -> String {
    (cols.iter()).fold(format!("{label:>12} |"), |s, c| s + &format!(" {c:>10.2}"))
}

/// Pretty-prints a header row.
pub(crate) fn header(label: &str, cols: &[&str]) -> String {
    let s = (cols.iter()).fold(format!("{label:>12} |"), |s, c| s + &format!(" {c:>10}"));
    let line = "-".repeat(s.len());
    format!("{s}\n{line}")
}

/// Formats a byte count like the paper's x-axes (1K, 32K, 512K).
pub(crate) fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// Message sizes of Figure 5 (1K–32K, eager path).
pub(crate) fn fig5_sizes() -> Vec<usize> {
    (0..6).map(|i| 1 << (10 + i)).collect()
}

/// Message sizes of Figure 6 (8K–512K, crossing the rendezvous threshold).
pub(crate) fn fig6_sizes() -> Vec<usize> {
    (0..7).map(|i| 8 << (10 + i)).collect()
}

/// Computation time of the Figure 5 benchmark.
pub(crate) const FIG5_COMPUTE: SimDuration = SimDuration::from_micros(20);

/// Computation time of the Figure 6 benchmark.
pub(crate) const FIG6_COMPUTE: SimDuration = SimDuration::from_micros(100);

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
        let h = header("size", &["a", "b"]);
        let r = row("1K", &[1.0, 2.0]);
        assert!(h.lines().next().unwrap().len() == r.len());
    }
}
