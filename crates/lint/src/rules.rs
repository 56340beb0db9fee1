//! The rule engine: domain policies L1–L5 over cleaned source text.
//!
//! | id | rule | policy |
//! |----|------|--------|
//! | L1 | `no_panic`   | no `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in library `src/` |
//! | L2 | `float_cmp`  | no raw `==` / `!=` where an operand is float-like — compare through `coflow_core::tol` |
//! | L3 | `hash_order` | no `std::collections::HashMap`/`HashSet` imports in library `src/` (iteration order leaks break byte-reproducibility; use `BTreeMap`/`BTreeSet` or justify) |
//! | L4 | `no_print`   | no `println!` / `eprintln!` / `print!` / `eprint!` / `dbg!` in library `src/` |
//! | L5 | `crate_attrs` + `unsafe_code` | crate roots carry `#![deny(missing_docs)]` and `#![forbid(unsafe_code)]` (or `deny` where an allowlisted `unsafe` exists); `unsafe` only in allowlisted files with a `// SAFETY:` comment |
//! | L6 | `hot_alloc`  | no `Vec::new` / `vec![` / `.collect()` / `Box::new` inside a function annotated `// lint: hot` — acquire from reusable scratch or hoist the allocation out |
//! | L7 | `raw_timing` | no `std::time::Instant` / `SystemTime` in library `src/` outside `coflow-obs` and the bench harness — record through a `coflow_obs::Recorder` so the logical clock keeps traces reproducible |
//!
//! Sites with a documented invariant are waived by a marker comment on the
//! same or the preceding line:
//!
//! ```text
//! // lint: allow(no_panic) — index is produced by the loop above
//! ```
//!
//! A marker with no justification text is itself a violation
//! (`bad_marker`); `#[cfg(test)]` items are exempt from L1–L4.

use crate::clean::{clean, find, Cleaned};

/// One reported policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line in the offending file.
    pub line: usize,
    /// Rule identifier (`no_panic`, `float_cmp`, ...).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

/// Every rule id the engine can emit (used by `--self-test` and markers).
pub const ALL_RULES: &[&str] = &[
    "no_panic",
    "float_cmp",
    "hash_order",
    "no_print",
    "crate_attrs",
    "unsafe_code",
    "hot_alloc",
    "raw_timing",
    "bad_marker",
];

/// How a file participates in the pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Library-crate `src/` code: rules L1–L4 + the unsafe scan apply.
    pub library: bool,
    /// A crate root (`lib.rs`): rule L5 attribute checks apply.
    pub crate_root: bool,
    /// On the explicit `unsafe` allowlist (requires a `// SAFETY:` comment).
    pub unsafe_ok: bool,
    /// Allowed to read clocks directly (`coflow-obs` itself and the bench
    /// harness); everywhere else timing goes through a `Recorder`.
    pub timing_ok: bool,
    /// Deliberate failure-injection code (`crates/faults`): chaos
    /// invariants fail fast (L1 `no_panic` waived) and the harness may
    /// time fault windows directly (L7 `raw_timing` waived). All other
    /// rules still apply — injection hooks must stay deterministic and
    /// print-free.
    pub fault_harness: bool,
    /// A module file its parent declares `#[cfg(test)] mod x;`: the whole
    /// file is test code, exempt like a `#[cfg(test)]` item.
    pub test_module: bool,
}

/// An allow marker parsed from a raw source line.
struct Marker {
    line: usize,
    rules: Vec<String>,
    has_reason: bool,
}

fn parse_markers(raw: &str) -> Vec<Marker> {
    let mut out = Vec::new();
    for (idx, line) in raw.lines().enumerate() {
        let Some(p) = line
            .find("lint: allow(")
            .or_else(|| line.find("lint:allow("))
        else {
            continue;
        };
        let after = &line[p..];
        let Some(open) = after.find('(') else {
            continue;
        };
        let Some(close) = after.find(')') else {
            continue;
        };
        if close < open {
            continue;
        }
        let rules = after[open + 1..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let reason = after[close + 1..]
            .trim_start_matches([' ', '-', '—', '–', ':'])
            .trim();
        out.push(Marker {
            line: idx + 1,
            rules,
            has_reason: reason.len() >= 3,
        });
    }
    out
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Iterator over maximal identifier tokens `(start, end)` in cleaned text.
fn idents(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        if is_ident(text[i]) {
            let s = i;
            while i < text.len() && is_ident(text[i]) {
                i += 1;
            }
            out.push((s, i));
        } else {
            i += 1;
        }
    }
    out
}

fn next_nonws(text: &[u8], mut i: usize) -> Option<u8> {
    while i < text.len() {
        if !text[i].is_ascii_whitespace() {
            return Some(text[i]);
        }
        i += 1;
    }
    None
}

fn prev_nonws(text: &[u8], mut i: usize) -> Option<u8> {
    while i > 0 {
        i -= 1;
        if !text[i].is_ascii_whitespace() {
            return Some(text[i]);
        }
    }
    None
}

/// The `Option` / `Result` qualifying the identifier at `s` when it is
/// written as a path (`.map(Option::unwrap)`), else `None`.
fn option_or_result_path(text: &[u8], s: usize) -> Option<&str> {
    let head = text[..s]
        .trim_ascii_end()
        .strip_suffix(b"::")?
        .trim_ascii_end();
    let ty = ["Option", "Result"]
        .into_iter()
        .find(|ty| head.ends_with(ty.as_bytes()))?;
    let before = head.len() - ty.len();
    (before == 0 || !is_ident(head[before - 1])).then_some(ty)
}

/// Does `window` contain a float-like token: a float literal (`1.0`, `2.`,
/// `1e-6`), an `f64`/`f32` type mention, or an `_f64`-suffixed literal?
fn looks_float(window: &[u8]) -> bool {
    for (s, e) in idents(window) {
        let tok = &window[s..e];
        if tok == b"f64" || tok == b"f32" {
            return true;
        }
        if !tok[0].is_ascii_digit() {
            continue;
        }
        // A numeric token: float if it has an exponent or float suffix, or
        // is followed by a decimal point (`1.0`, `1.` — but not `1..`
        // ranges, and not tuple/field access where the token follows `.`).
        let preceded_by_dot = s > 0 && window[s - 1] == b'.';
        if preceded_by_dot {
            continue; // `.0` of `a.0` or the fraction of an already-seen literal
        }
        if tok.starts_with(b"0x") || tok.starts_with(b"0b") || tok.starts_with(b"0o") {
            continue;
        }
        let has_suffix = tok.ends_with(b"f64") || tok.ends_with(b"f32");
        // `1e9` is one token; `1e-6` splits at the sign, so a trailing
        // `e`/`E` with a signed digit right after the token is an exponent.
        let exponent_inside = tok.iter().any(|&b| b == b'e' || b == b'E')
            && tok
                .iter()
                .all(|&b| b.is_ascii_digit() || b == b'e' || b == b'E' || b == b'_');
        let exponent_split = (tok.ends_with(b"e") || tok.ends_with(b"E"))
            && matches!(window.get(e), Some(b'+') | Some(b'-'))
            && window.get(e + 1).is_some_and(|b| b.is_ascii_digit());
        if has_suffix || exponent_inside || exponent_split {
            return true;
        }
        if e < window.len() && window[e] == b'.' && window.get(e + 1) != Some(&b'.') {
            return true;
        }
    }
    false
}

/// The identifier following `::` after byte `e` (`Vec::new` → `new`).
fn path_seg_after(text: &[u8], mut e: usize) -> Option<&[u8]> {
    while e < text.len() && text[e].is_ascii_whitespace() {
        e += 1;
    }
    if text.get(e) != Some(&b':') || text.get(e + 1) != Some(&b':') {
        return None;
    }
    e += 2;
    while e < text.len() && text[e].is_ascii_whitespace() {
        e += 1;
    }
    let s = e;
    while e < text.len() && is_ident(text[e]) {
        e += 1;
    }
    (e > s).then(|| &text[s..e])
}

/// Body spans of functions annotated `// lint: hot`: the marker sits on
/// its own line directly above the item (attributes and doc comments may
/// intervene); the body is the brace-matched block of the next `fn`.
fn hot_fn_bodies(raw: &str, cleaned: &Cleaned) -> Vec<(usize, usize)> {
    let text = &cleaned.text;
    let mut out = Vec::new();
    for (idx, line) in raw.lines().enumerate() {
        // The marker must be a standalone comment line (prose *mentioning*
        // `// lint: hot` must not annotate whatever function follows it).
        if !line.trim_start().starts_with("// lint: hot") {
            continue;
        }
        let from = cleaned.line_starts[idx];
        let Some(fn_pos) = idents(&text[from..])
            .into_iter()
            .find(|&(s, e)| &text[from + s..from + e] == b"fn")
            .map(|(s, _)| from + s)
        else {
            continue;
        };
        // The body opens at the first `{` after the `fn`; a `;` first means
        // a bodyless declaration (trait method) — nothing to scan.
        let mut i = fn_pos;
        let mut open = None;
        while i < text.len() {
            match text[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => {}
            }
            i += 1;
        }
        let Some(start) = open else { continue };
        let mut depth = 0usize;
        let mut end = start;
        while end < text.len() {
            match text[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        out.push((start, end));
    }
    out
}

/// The operand window around a comparison operator at `[op, op+2)`:
/// backwards and forwards to the nearest expression boundary.
fn operand_windows(text: &[u8], op: usize) -> (usize, usize, usize, usize) {
    let boundary = |b: u8| matches!(b, b',' | b';' | b'{' | b'}' | b'\n');
    let mut l = op;
    while l > 0 {
        let b = text[l - 1];
        // A bare `=` left of the operator is an assignment / `let` — the
        // comparison operand cannot extend past it (stops `let x: f64 =`
        // type annotations from tainting the window).
        if boundary(b)
            || b == b'='
            || (b == b'&' && l >= 2 && text[l - 2] == b'&')
            || (b == b'|' && l >= 2 && text[l - 2] == b'|')
        {
            break;
        }
        l -= 1;
    }
    let mut r = op + 2;
    while r < text.len() {
        let b = text[r];
        if boundary(b)
            || (b == b'&' && text.get(r + 1) == Some(&b'&'))
            || (b == b'|' && text.get(r + 1) == Some(&b'|'))
        {
            break;
        }
        r += 1;
    }
    (l, op, op + 2, r)
}

/// Runs every applicable rule over one file.
pub fn check_file(raw: &str, class: FileClass) -> Vec<Violation> {
    let mut cleaned = clean(raw.as_bytes());
    if class.test_module {
        cleaned.test_regions = vec![(0, cleaned.text.len())];
    }
    let markers = parse_markers(raw);
    let mut out = Vec::new();

    for m in &markers {
        for r in &m.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                out.push(Violation {
                    line: m.line,
                    rule: "bad_marker",
                    msg: format!("unknown rule `{r}` in allow marker"),
                });
            }
        }
        if !m.has_reason {
            out.push(Violation {
                line: m.line,
                rule: "bad_marker",
                msg: "allow marker has no justification text".into(),
            });
        }
    }

    let waived = |line: usize, rule: &str| {
        markers.iter().any(|m| {
            m.has_reason
                && (m.line == line || m.line + 1 == line)
                && m.rules.iter().any(|r| r == rule)
        })
    };
    let mut push = |cleaned: &Cleaned, pos: usize, rule: &'static str, msg: String| {
        let line = cleaned.line_of(pos);
        if !cleaned.in_test(pos) && !waived(line, rule) {
            out.push(Violation { line, rule, msg });
        }
    };

    if class.library {
        let text = &cleaned.text;
        for &(s, e) in &idents(text) {
            let tok = &text[s..e];
            match tok {
                b"unwrap" | b"expect" if !class.fault_harness => {
                    let name = String::from_utf8_lossy(tok);
                    let call =
                        if prev_nonws(text, s) == Some(b'.') && next_nonws(text, e) == Some(b'(') {
                            format!(".{name}()")
                        } else if let Some(ty) = option_or_result_path(text, s) {
                            format!("{ty}::{name}")
                        } else {
                            continue;
                        };
                    push(
                        &cleaned,
                        s,
                        "no_panic",
                        format!("`{call}` in library code — return a typed error or document the invariant with an allow marker"),
                    );
                }
                b"panic" | b"unreachable" | b"todo" | b"unimplemented"
                    if !class.fault_harness && next_nonws(text, e) == Some(b'!') =>
                {
                    let name = String::from_utf8_lossy(tok);
                    push(
                        &cleaned,
                        s,
                        "no_panic",
                        format!("`{name}!` in library code — return a typed error or document the invariant with an allow marker"),
                    );
                }
                b"println" | b"eprintln" | b"print" | b"eprint" | b"dbg"
                    if next_nonws(text, e) == Some(b'!') =>
                {
                    let name = String::from_utf8_lossy(tok);
                    push(
                        &cleaned,
                        s,
                        "no_print",
                        format!("`{name}!` in library code — route output through a returned value or metrics struct"),
                    );
                }
                b"Instant" | b"SystemTime" if !class.timing_ok && !class.fault_harness => {
                    let name = String::from_utf8_lossy(tok);
                    push(
                        &cleaned,
                        s,
                        "raw_timing",
                        format!("`{name}` in library code — time through a `coflow_obs::Recorder` span or accumulator so the logical clock keeps traces reproducible"),
                    );
                }
                b"HashMap" | b"HashSet" => {
                    let line_text = cleaned.line_text(s);
                    let trimmed: &[u8] = {
                        let mut t = line_text;
                        while let [b' ' | b'\t', rest @ ..] = t {
                            t = rest;
                        }
                        t
                    };
                    let is_import = trimmed.starts_with(b"use ")
                        || trimmed.starts_with(b"pub use ")
                        || find(line_text, b"std::collections", 0).is_some();
                    if is_import {
                        let name = String::from_utf8_lossy(tok);
                        push(
                            &cleaned,
                            s,
                            "hash_order",
                            format!("`{name}` import in library code — iteration order is nondeterministic; use the BTree variant or justify that it is never iterated into output"),
                        );
                    }
                }
                _ => {}
            }
        }

        // L2: raw float comparisons.
        let mut i = 0;
        while i + 1 < text.len() {
            let two = (text[i], text[i + 1]);
            let is_eq = two == (b'=', b'=')
                && text.get(i + 2) != Some(&b'=')
                && (i == 0 || !matches!(text[i - 1], b'=' | b'!' | b'<' | b'>'));
            let is_ne = two == (b'!', b'=') && text.get(i + 2) != Some(&b'=');
            if is_eq || is_ne {
                let (l, a, b, r) = operand_windows(text, i);
                if looks_float(&text[l..a]) || looks_float(&text[b..r]) {
                    let op = if is_eq { "==" } else { "!=" };
                    push(
                        &cleaned,
                        i,
                        "float_cmp",
                        format!("raw `{op}` on a float operand — use coflow_core::tol (approx_eq/rel_eq/is_zero) with a named epsilon"),
                    );
                }
                i += 2;
                continue;
            }
            i += 1;
        }

        // L6: allocation calls inside `// lint: hot` functions.
        for (b0, b1) in hot_fn_bodies(raw, &cleaned) {
            let body = &text[b0..b1];
            for &(s, e) in &idents(body) {
                let tok = &body[s..e];
                let abs = b0 + s;
                match tok {
                    b"Vec" | b"Box" if path_seg_after(body, e) == Some(b"new".as_slice()) => {
                        let name = String::from_utf8_lossy(tok);
                        push(
                            &cleaned,
                            abs,
                            "hot_alloc",
                            format!("`{name}::new` in a `// lint: hot` function — acquire from reusable scratch (prep/reserve) or hoist the allocation out of the hot path"),
                        );
                    }
                    b"vec" if next_nonws(body, e) == Some(b'!') => {
                        push(
                            &cleaned,
                            abs,
                            "hot_alloc",
                            "`vec![...]` in a `// lint: hot` function — acquire from reusable scratch (prep/reserve) or hoist the allocation out of the hot path".into(),
                        );
                    }
                    b"collect"
                        if prev_nonws(body, s) == Some(b'.')
                            && matches!(next_nonws(body, e), Some(b'(') | Some(b':')) =>
                    {
                        push(
                            &cleaned,
                            abs,
                            "hot_alloc",
                            "`.collect()` in a `// lint: hot` function — fill a reusable buffer with clear + extend instead".into(),
                        );
                    }
                    _ => {}
                }
            }
        }

        // Unsafe scan (part of L5).
        for &(s, e) in &idents(&cleaned.text) {
            if &cleaned.text[s..e] == b"unsafe" {
                if !class.unsafe_ok {
                    push(
                        &cleaned,
                        s,
                        "unsafe_code",
                        "`unsafe` outside the allowlisted files — extend UNSAFE_ALLOWED only with a SAFETY-commented invariant".into(),
                    );
                } else if !raw.contains("// SAFETY:") {
                    push(
                        &cleaned,
                        s,
                        "unsafe_code",
                        "allowlisted `unsafe` lacks a `// SAFETY:` comment stating the invariant"
                            .into(),
                    );
                }
            }
        }
    }

    if class.crate_root {
        let text = &cleaned.text;
        if find(text, b"#![deny(missing_docs)]", 0).is_none() {
            out.push(Violation {
                line: 1,
                rule: "crate_attrs",
                msg: "crate root must carry `#![deny(missing_docs)]`".into(),
            });
        }
        if find(text, b"#![forbid(unsafe_code)]", 0).is_none()
            && find(text, b"#![deny(unsafe_code)]", 0).is_none()
        {
            out.push(Violation {
                line: 1,
                rule: "crate_attrs",
                msg: "crate root must carry `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` when the crate has an allowlisted unsafe block)".into(),
            });
        }
    }

    out.sort_by_key(|v| (v.line, v.rule));
    out
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    const LIB: FileClass = FileClass {
        library: true,
        crate_root: false,
        unsafe_ok: false,
        timing_ok: false,
        fault_harness: false,
        test_module: false,
    };

    const FAULTS: FileClass = FileClass {
        fault_harness: true,
        ..LIB
    };

    fn rules_hit(src: &str, class: FileClass) -> Vec<&'static str> {
        check_file(src, class).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_unwrap_but_not_unwrap_or() {
        assert_eq!(rules_hit("fn f() { x.unwrap(); }", LIB), ["no_panic"]);
        assert!(rules_hit("fn f() { x.unwrap_or(0); }", LIB).is_empty());
        assert!(rules_hit("fn f() { x.unwrap_or_default(); }", LIB).is_empty());
    }

    #[test]
    fn flags_path_form_unwrap_and_expect() {
        let hit = |src| rules_hit(src, LIB);
        assert_eq!(hit("fn f() { v.map(Option::unwrap); }"), ["no_panic"]);
        assert_eq!(hit("fn f() { v.map(Result::expect); }"), ["no_panic"]);
        assert_eq!(
            hit("fn f() { v.map(std::option::Option :: unwrap); }"),
            ["no_panic"]
        );
        assert!(hit("fn f() { v.map(Option::unwrap_or_default); }").is_empty());
        assert!(hit("fn f() { v.map(MyOption::unwrap); }").is_empty());
        assert!(hit("fn f() { v.map(Wrapper::expect); }").is_empty());
    }

    #[test]
    fn flags_macros() {
        assert_eq!(rules_hit("fn f() { panic!(\"x\"); }", LIB), ["no_panic"]);
        assert_eq!(rules_hit("fn f() { println!(\"x\"); }", LIB), ["no_print"]);
        assert!(rules_hit("fn f() { assert!(true); }", LIB).is_empty());
        assert!(rules_hit("fn f() { writeln!(w, \"x\").ok(); }", LIB).is_empty());
    }

    #[test]
    fn fault_harness_waives_panics_and_timing_only() {
        assert!(rules_hit("fn f() { x.unwrap(); }", FAULTS).is_empty());
        assert!(rules_hit("fn f() { panic!(\"chaos invariant\"); }", FAULTS).is_empty());
        assert!(rules_hit("fn f() { let t = std::time::Instant::now(); }", FAULTS).is_empty());
        // Everything else still applies to injection code.
        assert_eq!(
            rules_hit("fn f() { println!(\"x\"); }", FAULTS),
            ["no_print"]
        );
        assert_eq!(
            rules_hit("use std::collections::HashMap;", FAULTS),
            ["hash_order"]
        );
    }

    #[test]
    fn float_eq_heuristic() {
        assert_eq!(
            rules_hit("fn f(x: f64) -> bool { x == 0.0 }", LIB),
            ["float_cmp"]
        );
        assert_eq!(
            rules_hit("fn f(x: f64) -> bool { 1e-6 != x }", LIB),
            ["float_cmp"]
        );
        assert_eq!(
            rules_hit("fn f(x: f64) -> bool { x == f64::INFINITY }", LIB),
            ["float_cmp"]
        );
        assert!(rules_hit("fn f(n: usize) -> bool { n == 0 }", LIB).is_empty());
        assert!(rules_hit("fn f(a: (u8, u8), b: (u8, u8)) -> bool { a.0 == b.0 }", LIB).is_empty());
        assert!(rules_hit("fn f(n: usize) { for i in 0..n { let _ = i; } }", LIB).is_empty());
    }

    #[test]
    fn hash_imports_flagged() {
        assert_eq!(
            rules_hit("use std::collections::HashMap;", LIB),
            ["hash_order"]
        );
        assert!(rules_hit("use std::collections::BTreeMap;", LIB).is_empty());
    }

    #[test]
    fn markers_waive_with_reason_only() {
        let with = "// lint: allow(no_panic) — index produced above\nfn f() { x.unwrap(); }";
        assert!(rules_hit(with, LIB).is_empty());
        let without = "// lint: allow(no_panic)\nfn f() { x.unwrap(); }";
        assert_eq!(rules_hit(without, LIB), ["bad_marker", "no_panic"]);
        let unknown = "// lint: allow(nonsense) — reason\nfn f() {}";
        assert_eq!(rules_hit(unknown, LIB), ["bad_marker"]);
    }

    #[test]
    fn cfg_test_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); assert!(a == 0.0); }\n}\n";
        assert!(rules_hit(src, LIB).is_empty());
    }

    #[test]
    fn crate_root_attrs() {
        let root = FileClass {
            crate_root: true,
            ..LIB
        };
        assert_eq!(
            rules_hit("//! docs\n", root),
            ["crate_attrs", "crate_attrs"]
        );
        let good = "//! docs\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\n";
        assert!(rules_hit(good, root).is_empty());
    }

    #[test]
    fn hot_alloc_flags_allocation_in_hot_fns_only() {
        // Outside a hot function: allocation is fine.
        assert!(rules_hit("fn f() -> Vec<u32> { Vec::new() }", LIB).is_empty());
        // Inside: all four patterns are flagged.
        let hot = "// lint: hot\nfn f() { let v: Vec<u32> = Vec::new(); }";
        assert_eq!(rules_hit(hot, LIB), ["hot_alloc"]);
        let hot = "// lint: hot\nfn f() { let v = vec![0; 4]; }";
        assert_eq!(rules_hit(hot, LIB), ["hot_alloc"]);
        let hot =
            "// lint: hot\nfn f(xs: &[u32]) { let v: Vec<u32> = xs.iter().copied().collect(); }";
        assert_eq!(rules_hit(hot, LIB), ["hot_alloc"]);
        let hot = "// lint: hot\nfn f() { let b = Box::new(3); }";
        assert_eq!(rules_hit(hot, LIB), ["hot_alloc"]);
        // Scratch-style reuse and with_capacity stay legal.
        let ok = "// lint: hot\nfn f(buf: &mut Vec<u32>) { buf.clear(); buf.extend(0..4); let c = Vec::with_capacity(8); }";
        assert!(rules_hit(ok, LIB).is_empty(), "{:?}", rules_hit(ok, LIB));
        // The body ends where its braces do: code after is exempt.
        let after = "// lint: hot\nfn f() {}\nfn g() -> Vec<u32> { Vec::new() }";
        assert!(rules_hit(after, LIB).is_empty());
    }

    #[test]
    fn hot_alloc_waivable_with_marker() {
        let src = "// lint: hot\nfn f() {\n    // lint: allow(hot_alloc) — output vector escapes into the result\n    let v: Vec<u32> = Vec::new();\n    let _ = v;\n}";
        assert!(rules_hit(src, LIB).is_empty(), "{:?}", rules_hit(src, LIB));
    }

    #[test]
    fn raw_timing_flags_clock_types_unless_timing_ok() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); let _ = t; }";
        assert_eq!(rules_hit(src, LIB), ["raw_timing", "raw_timing"]);
        assert_eq!(
            rules_hit(
                "fn f() { let t = std::time::SystemTime::now(); let _ = t; }",
                LIB
            ),
            ["raw_timing"]
        );
        // Duration is a value type, not a clock read: fine anywhere.
        assert!(rules_hit("use std::time::Duration;", LIB).is_empty());
        // The obs crate and the bench harness read clocks by design.
        let timed = FileClass {
            timing_ok: true,
            ..LIB
        };
        assert!(rules_hit("use std::time::Instant;", timed).is_empty());
        // A documented waiver works like every other rule.
        let waived =
            "// lint: allow(raw_timing) — coarse wall budget, never serialized\nuse std::time::Instant;";
        assert!(rules_hit(waived, LIB).is_empty());
    }

    #[test]
    fn unsafe_policy() {
        assert_eq!(rules_hit("fn f() { unsafe { g() } }", LIB), ["unsafe_code"]);
        let test_module = FileClass {
            test_module: true,
            ..LIB
        };
        assert!(rules_hit("fn f() { x.unwrap(); println!(); }", test_module).is_empty());
        let ok = FileClass {
            unsafe_ok: true,
            ..LIB
        };
        assert_eq!(rules_hit("fn f() { unsafe { g() } }", ok), ["unsafe_code"]);
        let with_safety = "// SAFETY: g is in bounds by construction\nfn f() { unsafe { g() } }";
        assert!(rules_hit(with_safety, ok).is_empty());
    }
}
