//! `coflow-lint` — the workspace's domain checks that clippy cannot make.
//!
//! The lint policy lives in `[workspace.lints]` (root `Cargo.toml`) and
//! `clippy.toml`; README § "Static analysis" maps each rule to what
//! enforces it. Two rules stay here, std-only (no registry access, so no
//! `syn`): a comment/string-stripping cleaner ([`clean`]) feeds a rule
//! engine ([`rules`]) that flags raw float comparisons, including against
//! `0.0` and `±∞` (`float_cmp`), and path-form unwraps such as
//! `.map(Option::unwrap)` (`no_panic`) in library code.
//!
//! ```text
//! coflow-lint --check [paths...]   # lint the workspace (default) or files
//! coflow-lint --self-test          # run the engine against seeded fixtures
//! ```
//!
//! Run it from the workspace root. Exit codes: 0 = clean, 1 = violations
//! (or fixture mismatch), 2 = usage or I/O error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the lint report is this tool's output"
)]

mod clean;
mod rules;

use rules::{check_file, Violation, ALL_RULES};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories never walked (vendored shims emulate external crates and are
/// exempt by policy; fixtures are deliberately violating).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

const USAGE: &str = "usage: coflow-lint [--check] [--self-test] [paths...]";

fn main() -> ExitCode {
    let mut mode_check = false;
    let mut mode_self_test = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--check" => mode_check = true,
            "--self-test" => mode_self_test = true,
            "-h" | "--help" => {
                println!("coflow-lint: rules {}\n{USAGE}", ALL_RULES.join(", "));
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !mode_check && !mode_self_test {
        mode_check = true;
    }

    let mut failed = false;
    if mode_self_test {
        match self_test() {
            Ok(ok) => failed |= !ok,
            Err(e) => {
                eprintln!("self-test error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if mode_check {
        let result = if paths.is_empty() {
            check_workspace()
        } else {
            check_paths(&paths)
        };
        match result {
            Ok(n) => failed |= n > 0,
            Err(e) => {
                eprintln!("lint error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism,
/// skipping the directories named in `skip`.
fn collect_rs(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip.contains(&name.as_ref()) {
                collect_rs(&path, skip, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether a workspace-relative path is library code: `src/...` of the root
/// package or `crates/<c>/src/...` of a crate with a `src/lib.rs`, outside
/// `src/bin`.
fn is_library(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_dir, in_src) = if parts.first() == Some(&"src") {
        (PathBuf::from("."), &parts[1..])
    } else if parts.first() == Some(&"crates") && parts.len() >= 3 && parts[2] == "src" {
        (Path::new(parts[0]).join(parts[1]), &parts[3..])
    } else {
        return false;
    };
    !in_src.is_empty() && in_src[0] != "bin" && crate_dir.join("src/lib.rs").exists()
}

/// Whether the module in `path` is test code throughout: its parent module
/// file declares it `#[cfg(test)] mod name;`, or the parent is itself such
/// a module. The parent of `dir/name.rs` is `dir/mod.rs`, `dir/lib.rs`,
/// `dir/main.rs` or `dir.rs`; the parent of `dir/mod.rs` (module `dir`) is
/// found the same way one level up.
fn declared_test_only(path: &Path) -> bool {
    let (Some(dir), Some(stem)) = (path.parent(), path.file_stem()) else {
        return false;
    };
    let (dir, name) = if stem == "mod" {
        match (dir.parent(), dir.file_name()) {
            (Some(up), Some(name)) => (up, name),
            _ => return false,
        }
    } else {
        (dir, stem)
    };
    let name = name.to_string_lossy();
    let mut parents: Vec<PathBuf> = ["mod.rs", "lib.rs", "main.rs"]
        .iter()
        .map(|f| dir.join(f))
        .collect();
    parents.push(dir.with_extension("rs"));
    parents
        .iter()
        .filter(|p| p.as_path() != path)
        .any(|parent| {
            fs::read_to_string(parent).is_ok_and(|raw| {
                let declared = clean::clean(raw.as_bytes()).test_mods();
                declared.iter().any(|d| *d == name)
                    || (raw.contains(&format!("mod {name}")) && declared_test_only(parent))
            })
        })
}

fn report(path: &str, violations: &[Violation]) {
    for v in violations {
        println!(
            "{path}:{line}: [{rule}] {msg}",
            line = v.line,
            rule = v.rule,
            msg = v.msg
        );
    }
}

/// Lints every library `.rs` file in the workspace; returns violation count.
fn check_workspace() -> std::io::Result<usize> {
    let mut files = Vec::new();
    for top in ["src", "crates"] {
        collect_rs(Path::new(top), SKIP_DIRS, &mut files)?;
    }
    let mut total = 0;
    let mut scanned = 0;
    for path in files {
        let rel = path.to_string_lossy().replace('\\', "/");
        if !is_library(&rel) {
            continue;
        }
        let vs = check_file(&fs::read_to_string(&path)?, declared_test_only(&path));
        report(&rel, &vs);
        total += vs.len();
        scanned += 1;
    }
    println!("coflow-lint: {scanned} files scanned, {total} violation(s)");
    Ok(total)
}

/// Lints explicitly named files as library code (a file its parent
/// declares `#[cfg(test)] mod x;` is test code).
fn check_paths(paths: &[PathBuf]) -> std::io::Result<usize> {
    let mut total = 0;
    for path in paths {
        let vs = check_file(&fs::read_to_string(path)?, declared_test_only(path));
        report(&path.to_string_lossy(), &vs);
        total += vs.len();
    }
    Ok(total)
}

/// Parses a fixture's `// lint-fixture-expect: rule=count, ...` header.
fn parse_expect(raw: &str) -> Option<Vec<(String, usize)>> {
    let line = raw.lines().find(|l| l.contains("lint-fixture-expect:"))?;
    let spec = line.split("lint-fixture-expect:").nth(1)?;
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (rule, count) = part.split_once('=')?;
        out.push((rule.trim().to_string(), count.trim().parse().ok()?));
    }
    Some(out)
}

/// Runs the rule engine against the seeded fixtures: every declared
/// violation must be found (exact per-rule counts), clean fixtures must
/// produce nothing. Returns `Ok(true)` when all fixtures behave.
fn self_test() -> std::io::Result<bool> {
    let dir = Path::new("crates/lint/fixtures");
    let mut files = Vec::new();
    if dir.is_dir() {
        collect_rs(dir, &[], &mut files)?;
    }
    if files.is_empty() {
        eprintln!("self-test: no fixtures found under {}", dir.display());
        return Ok(false);
    }
    let mut all_ok = true;
    for path in files {
        let raw = fs::read_to_string(&path)?;
        let name = path.to_string_lossy();
        let Some(expect) = parse_expect(&raw) else {
            eprintln!("self-test FAIL {name}: missing `lint-fixture-expect:` header");
            all_ok = false;
            continue;
        };
        let vs = check_file(&raw, declared_test_only(&path));
        let mut ok = true;
        for rule in ALL_RULES {
            let want = expect
                .iter()
                .find(|(r, _)| r == rule)
                .map(|&(_, c)| c)
                .unwrap_or(0);
            let got = vs.iter().filter(|v| v.rule == *rule).count();
            if want != got {
                eprintln!("self-test FAIL {name}: rule {rule}: expected {want}, got {got}");
                ok = false;
            }
        }
        for (rule, _) in &expect {
            if !ALL_RULES.contains(&rule.as_str()) {
                eprintln!("self-test FAIL {name}: header names unknown rule `{rule}`");
                ok = false;
            }
        }
        if ok {
            println!("self-test ok: {name}");
        } else {
            report(&name, &vs);
        }
        all_ok &= ok;
    }
    Ok(all_ok)
}
