//! The rule engine: the two domain checks clippy cannot make, over
//! cleaned source text.
//!
//! | rule | policy |
//! |------|--------|
//! | `no_panic`  | no path-form `Option::unwrap` / `Result::expect` (as in `.map(Option::unwrap)`) in library `src/`; clippy's `unwrap_used` / `expect_used` see only method calls |
//! | `float_cmp` | no raw `==` / `!=` where an operand is float-like, including `0.0` and `±∞`, which clippy's `float_cmp` skips — compare through `coflow_core::tol` |
//!
//! Sites with a documented invariant are waived by a marker comment on the
//! same or the preceding line:
//!
//! ```text
//! // lint: allow(float_cmp) — exact zero short-circuit, not a tolerance decision
//! ```
//!
//! A marker with no justification text, or naming any other rule, is
//! itself a violation (`bad_marker`); `#[cfg(test)]` items and test-only
//! module files are exempt.

use crate::clean::{clean, is_ident};

/// One reported policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line in the offending file.
    pub line: usize,
    /// Rule identifier (`no_panic`, `float_cmp`, `bad_marker`).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

/// Every rule id the engine can emit (used by `--self-test` and markers).
pub const ALL_RULES: &[&str] = &["no_panic", "float_cmp", "bad_marker"];

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

/// Runs every rule over one library file; `test_module` marks a file its
/// parent declares `#[cfg(test)] mod x;`, which is exempt throughout.
pub fn check_file(raw: &str, test_module: bool) -> Vec<Violation> {
    let mut cleaned = clean(raw.as_bytes());
    if test_module {
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
    let mut push = |pos: usize, rule: &'static str, msg: String| {
        let line = cleaned.line_of(pos);
        if !cleaned.in_test(pos) && !waived(line, rule) {
            out.push(Violation { line, rule, msg });
        }
    };
    let text = &cleaned.text;

    for (s, e) in idents(text) {
        let name = &text[s..e];
        if name != b"unwrap" && name != b"expect" {
            continue;
        }
        if let Some(ty) = option_or_result_path(text, s) {
            let name = String::from_utf8_lossy(name);
            push(
                s,
                "no_panic",
                format!("`{ty}::{name}` in library code — return a typed error or document the invariant with an allow marker"),
            );
        }
    }

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
                    i,
                    "float_cmp",
                    format!("raw `{op}` on a float operand — use coflow_core::tol (approx_eq/rel_eq) with a named epsilon"),
                );
            }
            i += 2;
            continue;
        }
        i += 1;
    }

    out.sort_by_key(|v| (v.line, v.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        check_file(src, false).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_path_form_unwrap_and_expect() {
        assert_eq!(rules_hit("fn f() { v.map(Option::unwrap); }"), ["no_panic"]);
        assert_eq!(rules_hit("fn f() { v.map(Result::expect); }"), ["no_panic"]);
        assert_eq!(
            rules_hit("fn f() { v.map(std::option::Option :: unwrap); }"),
            ["no_panic"]
        );
        assert!(rules_hit("fn f() { v.map(Option::unwrap_or_default); }").is_empty());
        assert!(rules_hit("fn f() { v.map(MyOption::unwrap); }").is_empty());
        assert!(rules_hit("fn f() { v.map(Wrapper::expect); }").is_empty());
    }

    #[test]
    fn leaves_method_calls_and_macros_to_clippy() {
        assert!(rules_hit("fn f() { x.unwrap(); x.expect(\"y\"); panic!(); }").is_empty());
    }

    #[test]
    fn float_eq_heuristic() {
        assert_eq!(
            rules_hit("fn f(x: f64) -> bool { x == 0.0 }"),
            ["float_cmp"]
        );
        assert_eq!(
            rules_hit("fn f(x: f64) -> bool { 1e-6 != x }"),
            ["float_cmp"]
        );
        assert_eq!(
            rules_hit("fn f(x: f64) -> bool { x == f64::INFINITY }"),
            ["float_cmp"]
        );
        assert!(rules_hit("fn f(n: usize) -> bool { n == 0 }").is_empty());
        assert!(rules_hit("fn f(a: (u8, u8), b: (u8, u8)) -> bool { a.0 == b.0 }").is_empty());
        assert!(rules_hit("fn f(n: usize) { for i in 0..n { let _ = i; } }").is_empty());
    }

    #[test]
    fn markers_waive_with_reason_only() {
        let with = "// lint: allow(float_cmp) — exact zero test\nfn f(x: f64) -> bool { x == 0.0 }";
        assert!(rules_hit(with).is_empty());
        let without = "// lint: allow(float_cmp)\nfn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(rules_hit(without), ["bad_marker", "float_cmp"]);
        let moved = "// lint: allow(no_print) — a rule clippy enforces now\nfn f() {}";
        assert_eq!(rules_hit(moved), ["bad_marker"]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n fn f() { v.map(Option::unwrap); assert!(a == 0.0); }\n}\n";
        assert!(rules_hit(src).is_empty());
        assert!(check_file("fn f(x: f64) -> bool { x == 0.0 }", true).is_empty());
    }
}
