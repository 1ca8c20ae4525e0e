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
//! 3. **payload-copy** — `.to_vec()`, `<[u8]>::to_vec` and
//!    `extend_from_slice` are forbidden in non-test code of
//!    `crates/newmad/src`: a payload has one owner from `isend` to the
//!    receiver's handle, so a host copy in the protocol paths is waste
//!    the simulated zero-copy transfer does not pay. The copies the model
//!    needs (window reads, the join of a multirail transfer's tail
//!    chunks) carry `// copy-allow: <reason>` on the same line; a
//!    window's store (`copy_from_slice`) and the reliability layer's
//!    retained frame (`clone`) are not matched.
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

/// The payload-copy rule: one line of newmad non-test code.
fn payload_copy_hit(line: &str) -> Option<&'static str> {
    if line.contains("copy-allow:") {
        return None;
    }
    let code = code_of(line);
    [".to_vec()", "<[u8]>::to_vec", "extend_from_slice"]
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

/// The lines of `src` outside `#[cfg(test)]` blocks (brace tracking),
/// with their 1-based numbers.
fn non_test_lines(src: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut in_test = false;
    let mut test_depth: i64 = 0;
    let mut test_entered = false;
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
            continue;
        }
        if code.contains("#[cfg(test)]") {
            in_test = true;
            test_depth = 0;
            test_entered = false;
            continue;
        }
        out.push((i + 1, line));
    }
    out
}

/// Scan one newmad source file with the protocol-panic and payload-copy
/// rules, skipping `#[cfg(test)]` blocks.
fn scan_newmad(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    // The line number of the last non-test line with a `lint-allow:`.
    let mut allowed_at = None;
    for (n, line) in non_test_lines(src) {
        if let Some(pat) = panic_hit(line, allowed_at == Some(n - 1)) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: n,
                rule: "protocol-panic",
                what: format!(
                    "{pat} in a newmad protocol path (return a typed error, \
                     or annotate '// lint-allow: <reason>')"
                ),
            });
        }
        if let Some(pat) = payload_copy_hit(line) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: n,
                rule: "payload-copy",
                what: format!(
                    "{pat}: a host copy of payload bytes in a newmad protocol \
                     path (move the Vec, or annotate '// copy-allow: <reason>')"
                ),
            });
        }
        if line.contains("lint-allow:") {
            allowed_at = Some(n);
        }
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
            scan_newmad(path, &src, &mut findings);
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
        scan_newmad(Path::new("m.rs"), src, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 8], "test-mod unwrap must be skipped");
    }

    #[test]
    fn payload_copy_flags_copies_and_honors_escape() {
        assert!(payload_copy_hit("let v = data[..n].to_vec();").is_some());
        assert!(payload_copy_hit("data.chunks(n).map(<[u8]>::to_vec).collect()").is_some());
        assert!(payload_copy_hit("whole.extend_from_slice(&part);").is_some());
        assert!(payload_copy_hit("let v = w[a..b].to_vec(); // copy-allow: window read").is_none());
        assert!(payload_copy_hit("// no .to_vec() here").is_none());
        assert!(payload_copy_hit("let v = data.split_off(n);").is_none());
        // Only the same line escapes a copy, unlike a panic.
        let src = "// copy-allow: the next line\nlet v = d.to_vec();\n#[cfg(test)]\nmod t {\n    fn b() { d.to_vec(); }\n}\n";
        let mut findings = Vec::new();
        scan_newmad(Path::new("m.rs"), src, &mut findings);
        let hits: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(hits, vec![(2, "payload-copy")]);
    }
}
