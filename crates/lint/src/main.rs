//! `coflow-lint` — the workspace's in-tree domain static-analysis pass.
//!
//! Self-contained and std-only (no registry access, so no `syn`): a
//! comment/string-stripping cleaner ([`clean`]) feeds a rule engine
//! ([`rules`]) that enforces the domain policies L1–L7 described in the
//! rule-catalog table in `rules.rs` and in README § "Static analysis".
//!
//! ```text
//! coflow-lint --check [paths...]   # lint the workspace (default) or files
//! coflow-lint --self-test          # run the engine against seeded fixtures
//! coflow-lint --list-rules         # print the rule catalog
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations (or fixture mismatch), 2 = usage
//! or I/O error.

mod clean;
mod rules;

use rules::{check_file, FileClass, Violation, ALL_RULES};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files allowed to contain `unsafe` (each must carry a `// SAFETY:`
/// comment; the owning crate root downgrades to `#![deny(unsafe_code)]`).
/// Currently empty: the 2026-08 audit found no unsafe anywhere in the
/// workspace, so every crate root carries `#![forbid(unsafe_code)]`.
const UNSAFE_ALLOWED: &[&str] = &[];

/// Directories never walked (vendored shims emulate external crates and are
/// exempt by policy; fixtures are deliberately violating).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_check = false;
    let mut mode_self_test = false;
    let mut root = PathBuf::from(".");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => mode_check = true,
            "--self-test" => mode_self_test = true,
            "--list-rules" => {
                for r in ALL_RULES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match it.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!(
                    "coflow-lint: domain lint pass (rules: {})\n\
                     usage: coflow-lint [--check] [--self-test] [--root DIR] [paths...]",
                    ALL_RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if !mode_check && !mode_self_test {
        mode_check = true;
    }

    let mut failed = false;
    if mode_self_test {
        match self_test(&root) {
            Ok(ok) => failed |= !ok,
            Err(e) => {
                eprintln!("self-test error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if mode_check {
        let result = if paths.is_empty() {
            check_workspace(&root)
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

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Classifies a workspace-relative path. `None` = not linted (bins, tests,
/// benches, examples, non-library crates).
fn classify(rel: &str, root: &Path) -> Option<FileClass> {
    let parts: Vec<&str> = rel.split('/').collect();
    // Library files live at `src/...` of the root package or `crates/<c>/src/...`.
    let (crate_dir, in_src) = if parts.first() == Some(&"src") {
        (root.to_path_buf(), &parts[1..])
    } else if parts.first() == Some(&"crates") && parts.len() >= 3 && parts[2] == "src" {
        (root.join(parts[0]).join(parts[1]), &parts[3..])
    } else {
        return None;
    };
    if in_src.is_empty() || in_src.first() == Some(&"bin") {
        return None; // bins are exempt from the library rules
    }
    if !crate_dir.join("src/lib.rs").exists() {
        return None; // bin-only crate (e.g. coflow-lint itself)
    }
    Some(FileClass {
        library: true,
        crate_root: in_src == ["lib.rs"],
        unsafe_ok: UNSAFE_ALLOWED.contains(&rel),
        // The obs crate is where clock reads live; the bench harness times
        // whole experiment runs and is the other sanctioned reader.
        timing_ok: rel.starts_with("crates/obs/") || rel.starts_with("crates/bench/"),
        // Fault-injection code asserts chaos invariants fail-fast and may
        // time fault windows; L1/L7 are waived there (rules.rs has the
        // rationale), everything else still applies.
        fault_harness: rel.starts_with("crates/faults/"),
        test_module: declared_test_only(&root.join(rel)),
    })
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
fn check_workspace(root: &Path) -> std::io::Result<usize> {
    let mut files = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut total = 0;
    let mut scanned = 0;
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(class) = classify(&rel, root) else {
            continue;
        };
        let raw = fs::read_to_string(&path)?;
        let vs = check_file(&raw, class);
        report(&rel, &vs);
        total += vs.len();
        scanned += 1;
    }
    println!("coflow-lint: {scanned} files scanned, {total} violation(s)");
    Ok(total)
}

/// Lints explicitly named files as library code (fixture-class headers in
/// the file may add the crate-root check; a file its parent declares
/// `#[cfg(test)] mod x;` is test code).
fn check_paths(paths: &[PathBuf]) -> std::io::Result<usize> {
    let mut total = 0;
    for path in paths {
        let raw = fs::read_to_string(path)?;
        let class = FileClass {
            library: true,
            crate_root: raw.contains("// lint-fixture-class: crate_root"),
            unsafe_ok: false,
            timing_ok: raw.contains("// lint-fixture-class: timing_ok"),
            fault_harness: raw.contains("// lint-fixture-class: fault_harness"),
            test_module: declared_test_only(path),
        };
        let vs = check_file(&raw, class);
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
fn self_test(root: &Path) -> std::io::Result<bool> {
    let dir = root.join("crates/lint/fixtures");
    let mut files = Vec::new();
    if dir.is_dir() {
        collect_rs_unfiltered(&dir, &mut files)?;
    }
    if files.is_empty() {
        eprintln!("self-test: no fixtures found under {}", dir.display());
        return Ok(false);
    }
    let mut all_ok = true;
    for path in files {
        let raw = fs::read_to_string(&path)?;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.as_deref().unwrap_or("<fixture>");
        let Some(expect) = parse_expect(&raw) else {
            eprintln!("self-test FAIL {name}: missing `lint-fixture-expect:` header");
            all_ok = false;
            continue;
        };
        let class = FileClass {
            library: true,
            crate_root: raw.contains("// lint-fixture-class: crate_root"),
            unsafe_ok: raw.contains("// lint-fixture-class: unsafe_ok"),
            timing_ok: raw.contains("// lint-fixture-class: timing_ok"),
            fault_harness: raw.contains("// lint-fixture-class: fault_harness"),
            test_module: declared_test_only(&path),
        };
        let vs = check_file(&raw, class);
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
            report(name, &vs);
        }
        all_ok &= ok;
    }
    Ok(all_ok)
}

/// Like [`collect_rs`] but without the skip list (fixtures live in a
/// skipped directory on purpose).
fn collect_rs_unfiltered(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            collect_rs_unfiltered(&path, out)?;
        } else if path.to_string_lossy().ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
