//! `compare A.json B.json`: applies each end-to-end metric's bound to every
//! (metric, workload) pair of two `--all` results, A being the parent.
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a side's own runs spread (interquartile range over
//!   median) wider than the bound, unless every run of one side beats
//!   every run of the other;
//! * `ok` — otherwise.
//!
//! Exact per-layer counts are compared too: on equal seeds they must be
//! identical unless the change meant to move them.

use crate::spec::END_TO_END;
use crate::stats;
use coflow_workloads::io::{parse_json, Value};
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn workloads(doc: &Value) -> &[Value] {
    match doc.lookup("workloads") {
        Some(Value::Arr(ws)) => ws,
        _ => &[],
    }
}

fn name(section: &Value) -> &str {
    match section.lookup("name") {
        Some(Value::Str(s)) => s,
        _ => "?",
    }
}

fn values(section: &Value, metric: &str) -> Vec<f64> {
    let entry = section.lookup("end_to_end").and_then(|m| m.lookup(metric));
    match entry.and_then(|e| e.lookup("values")) {
        Some(Value::Arr(vs)) => vs
            .iter()
            .filter_map(|v| match v {
                Value::Num(x) => Some(*x),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

#[derive(PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Verdict and B's change against A in percent (positive = worse).
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let separated = max(a) < min(b) || max(b) < min(a);
    let verdict = if stats::spread(a).max(stats::spread(b)) > bound && !separated {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse * 100.0)
}

/// Names of the exact per-layer counts that differ between two sections.
fn exact_differences(a: &Value, b: &Value) -> Vec<String> {
    let (Some(Value::Obj(la)), Some(lb)) = (a.lookup("per_layer"), b.lookup("per_layer")) else {
        return vec!["per_layer missing".into()];
    };
    la.iter()
        .filter(|(_, m)| m.lookup("exact") == Some(&Value::Bool(true)))
        .filter(|(k, m)| m.lookup("value") != lb.lookup(k).and_then(|o| o.lookup("value")))
        .map(|(k, _)| k.clone())
        .collect()
}

pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let seed = |doc: &Value| {
        doc.lookup("provenance")
            .and_then(|p| p.lookup("seed"))
            .cloned()
    };
    let same_seeds = seed(&a) == seed(&b) && a.lookup("runs") == b.lookup("runs");

    print!("{:<22}", "workload");
    for m in &END_TO_END {
        print!(" {:<20}", format!("{} ({:.0}%)", m.name, m.bound * 100.0));
    }
    println!(" exact counts");
    let (mut regressed, mut unresolved) = (0, 0);
    for sa in workloads(&a) {
        let Some(sb) = workloads(&b).iter().find(|s| name(s) == name(sa)) else {
            println!("{:<22} missing from {}", name(sa), b_path.display());
            regressed += 1;
            continue;
        };
        print!("{:<22}", name(sa));
        for m in &END_TO_END {
            let (va, vb) = (values(sa, m.name), values(sb, m.name));
            if va.is_empty() || vb.is_empty() {
                print!(" {:<20}", "no values");
                unresolved += 1;
                continue;
            }
            let (verdict, pct) = judge(&va, &vb, m.lower_is_better, m.bound);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            };
            regressed += (verdict == Verdict::Regressed) as usize;
            unresolved += (verdict == Verdict::Unresolved) as usize;
            print!(" {:<20}", format!("{word} {pct:+.1}%"));
        }
        let diff = exact_differences(sa, sb);
        if !same_seeds {
            println!(" seeds differ");
        } else if diff.is_empty() {
            println!(" identical");
        } else {
            println!(" differ: {}", diff.join(" "));
        }
    }
    println!(
        "\n{regressed} regressed, {unresolved} unresolved (percentages: B against A, positive = worse)"
    );
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
