//! pm2-lint: the repo's source-hygiene gate, promoted from the ci.sh
//! grep pipeline into a real scanner with testable rules.
//!
//! Rules:
//!
//! 1. **raw-sync** — no native concurrency anywhere under `crates/`:
//!    `std::sync`, `Atomic*`, `UnsafeCell` and `std::thread` are
//!    forbidden, because the engine is a single-threaded simulation and
//!    every lock or wakeup it models lives in virtual time. Justified
//!    exceptions carry `// sync-allow: <reason>` on the same line.
//!
//! 2. **protocol-panic** — `.unwrap()`, `.expect(`, `panic!`,
//!    `unreachable!`, `todo!` and `unimplemented!` are forbidden in
//!    non-test code of `crates/newmad/src` (the wire-protocol dispatch
//!    paths: a panic there is a remote-triggerable crash). Sites whose
//!    invariants make the panic genuinely unreachable carry
//!    `// lint-allow: <reason>` on the same or the preceding line.
//!
//! Exit status 1 when any finding survives, 0 otherwise — run from the
//! repository root (ci.sh does) or pass the root as the sole argument.

use std::path::{Path, PathBuf};

/// One rule finding: file, 1-based line, rule tag, offending snippet.
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    what: String,
}

/// Recursively collect `.rs` files under `dir` (sorted for stable output).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strip a trailing `// …` comment (naive: not string-literal aware, but
/// the patterns below never appear inside string literals in this tree).
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// The raw-sync rule: one line of any crate.
fn raw_sync_hit(line: &str) -> Option<&'static str> {
    if line.contains("sync-allow:") {
        return None;
    }
    let code = code_of(line);
    ["std::sync", "Atomic", "UnsafeCell", "std::thread"]
        .into_iter()
        .find(|pat| code.contains(pat))
}

/// The protocol-panic rule: one line of newmad non-test code, given
/// whether the previous line carried a `lint-allow:` escape.
fn panic_hit(line: &str, prev_allows: bool) -> Option<&'static str> {
    if prev_allows || line.contains("lint-allow:") {
        return None;
    }
    let code = code_of(line);
    [
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ]
    .into_iter()
    .find(|pat| code.contains(pat))
}

/// Scan one file with the raw-sync rule.
fn scan_raw_sync(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    for (i, line) in src.lines().enumerate() {
        if let Some(pat) = raw_sync_hit(line) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: i + 1,
                rule: "raw-sync",
                what: format!(
                    "{pat}: native concurrency in a simulated engine (model \
                     it in virtual time, or annotate '// sync-allow: <reason>')"
                ),
            });
        }
    }
}

/// Scan one newmad source file with the protocol-panic rule, skipping
/// `#[cfg(test)]` blocks by brace tracking.
fn scan_protocol_panics(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    let mut in_test = false;
    let mut test_depth: i64 = 0;
    let mut test_entered = false;
    let mut prev_allows = false;
    for (i, line) in src.lines().enumerate() {
        let code = code_of(line);
        if in_test {
            // Track until the block opened after #[cfg(test)] closes.
            for c in code.chars() {
                match c {
                    '{' => {
                        test_depth += 1;
                        test_entered = true;
                    }
                    '}' => test_depth -= 1,
                    _ => {}
                }
            }
            if test_entered && test_depth <= 0 {
                in_test = false;
            }
            prev_allows = false;
            continue;
        }
        if code.contains("#[cfg(test)]") {
            in_test = true;
            test_depth = 0;
            test_entered = false;
            prev_allows = false;
            continue;
        }
        if let Some(pat) = panic_hit(line, prev_allows) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: i + 1,
                rule: "protocol-panic",
                what: format!(
                    "{pat} in a newmad protocol path (return a typed error, \
                     or annotate '// lint-allow: <reason>')"
                ),
            });
        }
        prev_allows = line.contains("lint-allow:");
    }
}

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let crates = root.join("crates");
    if !crates.is_dir() {
        eprintln!(
            "pm2-lint: no crates/ under {} — run from the repo root",
            root.display()
        );
        std::process::exit(2);
    }
    let mut files = Vec::new();
    rust_files(&crates, &mut files);
    let mut findings = Vec::new();
    let newmad_prefix = crates.join("newmad").join("src");
    for path in &files {
        // The scanner's own pattern literals are not findings.
        if path.ends_with("bench/src/bin/pm2_lint.rs") {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        scan_raw_sync(path, &src, &mut findings);
        if path.starts_with(&newmad_prefix) {
            scan_protocol_panics(path, &src, &mut findings);
        }
    }
    for f in &findings {
        println!("{}:{}: [{}] {}", f.file.display(), f.line, f.rule, f.what);
    }
    if findings.is_empty() {
        println!("pm2-lint OK ({} files scanned)", files.len());
    } else {
        println!("pm2-lint: {} finding(s)", findings.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_sync_flags_primitives_and_honors_escape() {
        assert!(raw_sync_hit("let m = std::sync::Mutex::new(());").is_some());
        assert!(raw_sync_hit("use std::sync::atomic::AtomicUsize;").is_some());
        assert!(raw_sync_hit("cell: UnsafeCell<T>,").is_some());
        assert!(raw_sync_hit("use std::sync::{Arc, Mutex};").is_some());
        assert!(raw_sync_hit("static N: AtomicU64 = AtomicU64::new(0);").is_some());
        assert!(raw_sync_hit("let t = std::thread::spawn(|| ());").is_some());
        assert!(
            raw_sync_hit("let m = std::sync::Mutex::new(()); // sync-allow: test rig").is_none()
        );
        assert!(raw_sync_hit("// std::sync::Mutex in a comment").is_none());
        assert!(raw_sync_hit("let x = 1;").is_none());
    }

    #[test]
    fn panic_rule_flags_macros_and_honors_escapes() {
        assert!(panic_hit("let v = map.get(&k).unwrap();", false).is_some());
        assert!(panic_hit("panic!(\"bad frame\");", false).is_some());
        assert!(panic_hit("x.expect(\"present\");", false).is_some());
        // Same-line and preceding-line escapes.
        assert!(panic_hit("x.unwrap() // lint-allow: guarded above", false).is_none());
        assert!(panic_hit("x.unwrap()", true).is_none());
        // Comment-only mentions don't count.
        assert!(panic_hit("// production would panic! here", false).is_none());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn a() {\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() { z.unwrap(); }\n";
        let mut findings = Vec::new();
        scan_protocol_panics(Path::new("m.rs"), src, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 8], "test-mod unwrap must be skipped");
    }
}
