//! `exsel-lint`: a dependency-free token-level scanner enforcing the
//! repo's engineering contracts, run as a CI step over the workspace.
//!
//! The rules are deliberately few and mechanical — each one guards an
//! invariant the test suite cannot express as a runtime assertion:
//!
//! * **R1 `pool-contract`** — every production `impl StepMachine for`
//!   block must override `fn reset` *and* `fn peek`. The machine pool
//!   resets machines in place every trial, and the engine's grant loop
//!   peeks every pending operation per scheduling point; a machine
//!   inheriting the defaults either panics mid-pool (`reset`) or
//!   silently materializes full `ShmOp`s per inspection (`peek`).
//! * **R2 `hot-path-alloc`** — the step engine's grant loops, the
//!   service control plane and the session machine every service grant
//!   advances (`engine.rs`, `service/mod.rs`, `service/mega.rs`,
//!   `machines.rs`) must not call `Arc::new`, `.to_vec()` or
//!   `.clone()`: the zero-alloc steady state (tests/alloc_free.rs)
//!   holds because those files stay churn-free by construction.
//! * **R3 `unsafe-allowlist`** — `unsafe` appears only in explicitly
//!   allowlisted files (the counting-allocator probes, which must
//!   implement `GlobalAlloc`); every library crate already carries
//!   `#![forbid(unsafe_code)]` and this rule keeps new binaries and
//!   integration tests honest too.
//!
//! Scanning is textual but token-aware: comments and string/char
//! literals are blanked before matching (prose about `unsafe` or
//! `.clone()` never trips a rule), and `#[cfg(test)]`-gated items are
//! masked out (test fixtures legitimately break all three rules).
//! Violations print as `path:line: rule: message` and the process exits
//! nonzero if any were found.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories never scanned: vendored shims, build output, VCS state.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git"];

/// R2's hot files: the engine grant loops, the service control plane
/// and the session machine, workspace-relative.
const HOT_FILES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/sim/src/machines.rs",
    "crates/sim/src/service/mod.rs",
    "crates/sim/src/service/mega.rs",
];

/// R2's forbidden calls.
const HOT_PATTERNS: &[&str] = &["Arc::new(", ".to_vec()", ".clone()"];

/// R3's allowlist: the counting-allocator probes (a `GlobalAlloc` impl
/// is `unsafe` by definition).
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/bench/src/bin/bench_gate.rs",
    "crates/bench/src/bin/expt.rs",
    "tests/alloc_free.rs",
];

fn main() -> ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = PathBuf::from(root);
    let mut files = Vec::new();
    collect_rs_files(&root, &mut files);
    files.sort();

    let mut violations = Vec::new();
    for path in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue; // unreadable: not this tool's problem
        };
        let rel = relative(path, &root);
        let masked = mask_test_items(&strip_comments_and_strings(&src));
        check_file(&rel, &masked, &mut violations);
    }

    if violations.is_empty() {
        println!("exsel-lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!(
            "exsel-lint: {} violation(s) in {} files",
            violations.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// Recursively gathers `.rs` files under `dir`, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, with forward slashes.
fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every applicable rule over one masked file.
fn check_file(rel: &str, masked: &str, violations: &mut Vec<String>) {
    let production = (rel.starts_with("crates/") && rel.contains("/src/"))
        || (rel.starts_with("src/") && !rel.contains("/bin/"));
    if production {
        check_pool_contract(rel, masked, violations);
    }
    if HOT_FILES.contains(&rel) {
        check_hot_path(rel, masked, violations);
    }
    if !UNSAFE_ALLOWLIST.contains(&rel) {
        check_unsafe(rel, masked, violations);
    }
}

/// R1: every `impl StepMachine for` block overrides `reset` and `peek`.
fn check_pool_contract(rel: &str, masked: &str, violations: &mut Vec<String>) {
    let mut from = 0;
    while let Some(pos) = masked[from..].find("StepMachine for ") {
        let at = from + pos;
        from = at + "StepMachine for ".len();
        let Some(open) = masked[at..].find('{').map(|o| at + o) else {
            continue;
        };
        let Some(close) = matching_brace(masked, open) else {
            continue;
        };
        let body = &masked[open..close];
        for missing in ["fn reset", "fn peek"] {
            if !body.contains(missing) {
                violations.push(format!(
                    "{rel}:{}: pool-contract: `impl StepMachine` without `{missing}` — pooled machines must reset in place and peek without materializing ShmOps",
                    line_of(masked, at)
                ));
            }
        }
    }
}

/// R2: no allocation/refcount churn in the hot files.
fn check_hot_path(rel: &str, masked: &str, violations: &mut Vec<String>) {
    for pat in HOT_PATTERNS {
        let mut from = 0;
        while let Some(pos) = masked[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            violations.push(format!(
                "{rel}:{}: hot-path-alloc: `{pat}` in a grant-loop file — the steady state must stay zero-alloc",
                line_of(masked, at)
            ));
        }
    }
}

/// R3: the `unsafe` keyword outside the allowlist. Word-boundary
/// matched, so the `forbid(unsafe_code)` attribute never trips it.
fn check_unsafe(rel: &str, masked: &str, violations: &mut Vec<String>) {
    let bytes = masked.as_bytes();
    let mut from = 0;
    while let Some(pos) = masked[from..].find("unsafe") {
        let at = from + pos;
        from = at + "unsafe".len();
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + "unsafe".len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            violations.push(format!(
                "{rel}:{}: unsafe-allowlist: `unsafe` outside the allowlisted allocator probes",
                line_of(masked, at)
            ));
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// 1-based line number of byte offset `at`.
fn line_of(text: &str, at: usize) -> usize {
    text.as_bytes()[..at]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Byte offset just past the brace matching the `{` at `open`, or
/// `None` if unbalanced (a parse the compiler would reject anyway).
fn matching_brace(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in text.as_bytes().iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// If `b[i..]` opens a raw (or raw byte) string literal — `r"`, `r#"`,
/// `br"`, … — returns the offset of the opening quote and the hash
/// count.
fn raw_string_open(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
    (j + hashes < b.len() && b[j + hashes] == b'"').then_some((j + hashes, hashes))
}

/// Blanks comments (line, nested block) and string/char literals
/// (plain, raw, byte), preserving every newline so line numbers and
/// brace structure survive. Lifetimes (`'a`) are left intact.
fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let blank = |out: &mut String, s: &[u8]| {
        for &c in s {
            out.push(if c == b'\n' { '\n' } else { ' ' });
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(b.len(), |p| i + p);
                blank(&mut out, &b[i..end]);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, &b[i..j]);
                i = j;
            }
            b'r' | b'b' if raw_string_open(b, i).is_some() => {
                let (quote, hashes) = raw_string_open(b, i).unwrap();
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                let mut j = quote + 1;
                while j < b.len() && !b[j..].starts_with(&closer) {
                    j += 1;
                }
                let end = (j + closer.len()).min(b.len());
                blank(&mut out, &b[i..end]);
                i = end;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    if b[j] == b'\\' && j + 1 < b.len() {
                        j += 2;
                    } else if b[j] == b'"' {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, &b[i..j]);
                i = j;
            }
            b'\'' => {
                // Char literal ('x', '\n') vs lifetime ('a): a literal
                // closes with a quote right after one (escaped) char.
                let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                    true
                } else {
                    i + 2 < b.len() && b[i + 2] == b'\''
                };
                if is_char {
                    let mut j = i + 1;
                    while j < b.len() {
                        if b[j] == b'\\' && j + 1 < b.len() {
                            j += 2;
                        } else if b[j] == b'\'' {
                            j += 1;
                            break;
                        } else {
                            j += 1;
                        }
                    }
                    blank(&mut out, &b[i..j]);
                    i = j;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Blanks every `#[cfg(test)]`-attributed braced item (test modules and
/// fixtures), newlines preserved. Operates on already-stripped text. An
/// attribute whose item has no body before the next `;` (e.g.
/// `#[cfg(test)] mod tests;`) is left alone — path modules live in
/// their own files, which are scanned (and passed) on their own merits.
fn mask_test_items(stripped: &str) -> String {
    let mut out = stripped.to_string();
    let mut from = 0;
    while let Some(pos) = out[from..].find("#[cfg(test)]") {
        let at = from + pos;
        let after_attr = at + "#[cfg(test)]".len();
        let Some(open) = out[after_attr..].find('{').map(|o| after_attr + o) else {
            break;
        };
        if out[after_attr..open].contains(';') {
            from = after_attr;
            continue;
        }
        let Some(close) = matching_brace(&out, open) else {
            break;
        };
        let masked: String = out[at..close]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        out.replace_range(at..close, &masked);
        from = close;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_blanks_comments_and_strings_but_keeps_lines() {
        let src =
            "let a = 1; // unsafe here\nlet s = \"unsafe\";\n/* unsafe\nstill */ let b = 2;\n";
        let out = strip_comments_and_strings(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(!out.contains("unsafe"));
        assert!(out.contains("let a = 1;"));
        assert!(out.contains("let b = 2;"));
    }

    #[test]
    fn stripping_handles_raw_strings_chars_and_lifetimes() {
        let src = "let r = r#\"unsafe \"# ; let c = '\\''; let q = 'u'; fn f<'a>(x: &'a u32) {}";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("unsafe"));
        assert!(out.contains("fn f<'a>(x: &'a u32) {}"));
    }

    #[test]
    fn test_items_are_masked() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn x(y: &V) { y.clone(); }\n}\nfn after() {}\n";
        let out = mask_test_items(&strip_comments_and_strings(src));
        assert!(!out.contains("clone"));
        assert!(out.contains("fn prod()"));
        assert!(out.contains("fn after()"));
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn path_test_modules_do_not_swallow_following_code() {
        let src = "#[cfg(test)]\nmod tests;\nfn prod(v: &V) { v.clone() }\n";
        let out = mask_test_items(&strip_comments_and_strings(src));
        assert!(out.contains("clone"), "{out}");
    }

    #[test]
    fn pool_contract_flags_missing_overrides() {
        let good = "impl StepMachine for A {\n fn op(&self) {}\n fn peek(&self) {}\n fn reset(&mut self) {}\n}";
        let mut v = Vec::new();
        check_pool_contract("crates/x/src/a.rs", good, &mut v);
        assert!(v.is_empty(), "{v:?}");

        let bad = "impl StepMachine for B {\n fn op(&self) {}\n}";
        check_pool_contract("crates/x/src/a.rs", bad, &mut v);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("fn reset"));
        assert!(v[1].contains("fn peek"));
        assert!(v[0].starts_with("crates/x/src/a.rs:1:"));
    }

    #[test]
    fn hot_path_rule_reports_each_site_with_line() {
        let src = "fn f() {\n    let x = v.to_vec();\n    let y = w.clone();\n}";
        let mut v = Vec::new();
        check_hot_path("crates/sim/src/engine.rs", src, &mut v);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains(":2:")));
        assert!(v.iter().any(|m| m.contains(":3:")));
    }

    #[test]
    fn unsafe_rule_has_word_boundaries() {
        let mut v = Vec::new();
        check_unsafe("a.rs", "#![forbid(unsafe_code)]", &mut v);
        assert!(v.is_empty(), "{v:?}");
        check_unsafe("a.rs", "unsafe { x() }", &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn production_scope_excludes_tests_and_allowlists() {
        let bad = "impl StepMachine for B { fn op(&self) {} }";
        let mut v = Vec::new();
        check_file("tests/fixture.rs", bad, &mut v);
        assert!(v.is_empty(), "{v:?}");
        check_file("crates/core/src/x.rs", bad, &mut v);
        assert_eq!(v.len(), 2);

        v.clear();
        check_file("tests/alloc_free.rs", "unsafe impl G for A {}", &mut v);
        assert!(v.is_empty(), "{v:?}");
        check_file("tests/other.rs", "unsafe impl G for A {}", &mut v);
        assert_eq!(v.len(), 1);
    }
}
