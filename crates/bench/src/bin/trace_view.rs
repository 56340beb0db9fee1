//! **trace_view**: renders a `coflow-trace/v1` JSONL trace
//! ([`coflow_workloads::io::write_trace`]; the `trace_solve` example writes
//! one) as a self/total time tree, a per-name aggregation table with
//! flamegraph-style bars, and — with `--diff` — a per-name self-time
//! comparison of two traces.
//!
//! ```text
//! cargo run --release --example trace_solve -- results/TRACE_solve.jsonl
//! cargo run --release -p coflow-bench --bin trace_view -- results/TRACE_solve.jsonl
//! cargo run --release -p coflow-bench --bin trace_view -- old.jsonl --diff new.jsonl
//! ```
//!
//! Times print in milliseconds for wall-clock traces and in ticks for
//! logical-clock traces (see the `clock` field of the meta line).

#![allow(
    clippy::panic,
    clippy::print_stdout,
    reason = "an experiment binary fails fast on I/O and parsing errors, and its console output is its result"
)]

use coflow_workloads::io::{read_trace_lines, Value};
use std::path::Path;

/// One span parsed back from the wire format.
#[derive(Clone, Debug)]
struct Span {
    name: String,
    depth: u64,
    start: f64,
    dur: f64,
    self_t: f64,
    children: Vec<usize>,
}

/// One histogram parsed back from the wire format: name, total count, and
/// sparse `(bucket index, count)` pairs.
type HistRow = (String, f64, Vec<(u64, f64)>);

/// A parsed trace file: meta fields plus spans with the tree restored.
struct TraceDoc {
    clock: String,
    dropped: f64,
    truncated: f64,
    spans: Vec<Span>,
    roots: Vec<usize>,
    accums: Vec<(String, f64)>,
    counters: Vec<(String, f64)>,
    hists: Vec<HistRow>,
}

fn num(v: &Value, key: &str) -> f64 {
    match v.lookup(key) {
        Some(Value::Num(x)) => *x,
        other => panic!("expected number at \"{key}\", got {other:?}"),
    }
}

fn text(v: &Value, key: &str) -> String {
    match v.lookup(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("expected string at \"{key}\", got {other:?}"),
    }
}

fn load(path: &Path) -> TraceDoc {
    let lines = read_trace_lines(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut doc = TraceDoc {
        clock: "wall".into(),
        dropped: 0.0,
        truncated: 0.0,
        spans: Vec::new(),
        roots: Vec::new(),
        accums: Vec::new(),
        counters: Vec::new(),
        hists: Vec::new(),
    };
    for line in &lines {
        match text(line, "type").as_str() {
            "meta" => {
                doc.clock = text(line, "clock");
                doc.dropped = num(line, "dropped");
                doc.truncated = num(line, "truncated");
            }
            "span" => doc.spans.push(Span {
                name: text(line, "name"),
                depth: num(line, "depth") as u64,
                start: num(line, "start"),
                dur: num(line, "dur"),
                self_t: num(line, "self"),
                children: Vec::new(),
            }),
            "accum" => doc.accums.push((text(line, "name"), num(line, "value"))),
            "counter" => doc.counters.push((text(line, "name"), num(line, "value"))),
            "hist" => {
                let buckets = match line.lookup("buckets") {
                    Some(Value::Arr(items)) => items
                        .iter()
                        .map(|b| match b {
                            Value::Arr(pair) if pair.len() == 2 => match (&pair[0], &pair[1]) {
                                (Value::Num(i), Value::Num(c)) => (*i as u64, *c),
                                _ => panic!("bad bucket pair"),
                            },
                            other => panic!("bad bucket entry {other:?}"),
                        })
                        .collect(),
                    other => panic!("expected buckets array, got {other:?}"),
                };
                doc.hists
                    .push((text(line, "name"), num(line, "total"), buckets));
            }
            other => panic!("unknown trace line type \"{other}\""),
        }
    }

    // Tree reconstruction from completion (post-) order: a span's children
    // are exactly the pending spans one level deeper, and they sit
    // contiguously at the tail of the pending list when their parent
    // completes.
    let mut pending: Vec<usize> = Vec::new();
    for i in 0..doc.spans.len() {
        let d = doc.spans[i].depth;
        let mut kids: Vec<usize> = Vec::new();
        while let Some(&top) = pending.last() {
            if doc.spans[top].depth == d + 1 {
                kids.push(top);
                pending.pop();
            } else {
                break;
            }
        }
        kids.reverse();
        doc.spans[i].children = kids;
        pending.push(i);
    }
    doc.roots = pending;
    doc
}

/// Divisor turning raw trace units into display units (ns→ms for wall
/// traces; logical ticks print as-is).
fn unit(doc: &TraceDoc) -> (f64, &'static str) {
    if doc.clock == "wall" {
        (1e6, "ms")
    } else {
        (1.0, "ticks")
    }
}

fn print_tree(doc: &TraceDoc, idx: usize, indent: usize, scale: f64, unit: &str) {
    let s = &doc.spans[idx];
    println!(
        "{:indent$}{:<14} total {:>10.3} {unit}  self {:>10.3} {unit}  (start {:.3})",
        "",
        s.name,
        s.dur / scale,
        s.self_t / scale,
        s.start / scale,
        indent = indent,
    );
    for &c in &s.children {
        print_tree(doc, c, indent + 2, scale, unit);
    }
}

/// Per-name aggregation: (count, total, self) keyed by span name, in
/// first-appearance order (deterministic, no hash iteration).
fn aggregate(doc: &TraceDoc) -> Vec<(String, usize, f64, f64)> {
    let mut agg: Vec<(String, usize, f64, f64)> = Vec::new();
    for s in &doc.spans {
        match agg.iter_mut().find(|(n, _, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.dur;
                row.3 += s.self_t;
            }
            None => agg.push((s.name.clone(), 1, s.dur, s.self_t)),
        }
    }
    agg
}

fn print_summary(path: &Path, doc: &TraceDoc) {
    let (scale, unit) = unit(doc);
    println!(
        "{}: clock {}, {} spans ({} dropped, {} truncated)",
        path.display(),
        doc.clock,
        doc.spans.len(),
        doc.dropped,
        doc.truncated
    );

    println!("\nspan tree (completion order):");
    for &r in &doc.roots {
        print_tree(doc, r, 2, scale, unit);
    }

    let agg = aggregate(doc);
    let total_self: f64 = agg.iter().map(|(_, _, _, s)| *s).sum();
    println!("\nby span name (bars: share of total self time):");
    for (name, count, dur, self_t) in &agg {
        let share = if total_self > 0.0 {
            self_t / total_self
        } else {
            0.0
        };
        println!(
            "  {:<14} x{:<5} total {:>10.3} {unit}  self {:>10.3} {unit}  {:>5.1}% |{}",
            name,
            count,
            dur / scale,
            self_t / scale,
            share * 100.0,
            "#".repeat((share * 40.0).round() as usize),
        );
    }

    println!("\naccumulators:");
    for (name, v) in &doc.accums {
        println!("  {:<14} {:>12.3} {unit}", name, v / scale);
    }
    println!("counters:");
    for (name, v) in &doc.counters {
        println!("  {:<18} {:>12}", name, *v as u64);
    }
    println!("histograms (power-of-two buckets, upper edges):");
    for (name, total, buckets) in &doc.hists {
        print!("  {:<14} n={:<6}", name, *total as u64);
        for (b, c) in buckets {
            let edge = if *b == 0 { 0 } else { (1u64 << b) - 1 };
            print!(" ≤{}:{}", edge, *c as u64);
        }
        println!();
    }
}

fn print_diff(a_path: &Path, a: &TraceDoc, b_path: &Path, b: &TraceDoc) {
    let (scale, unit) = unit(a);
    if a.clock != b.clock {
        println!(
            "warning: comparing a {} trace against a {} trace",
            a.clock, b.clock
        );
    }
    let agg_a = aggregate(a);
    let agg_b = aggregate(b);
    println!(
        "self-time diff: {} -> {}",
        a_path.display(),
        b_path.display()
    );
    let mut names: Vec<String> = agg_a.iter().map(|(n, _, _, _)| n.clone()).collect();
    for (n, _, _, _) in &agg_b {
        if !names.contains(n) {
            names.push(n.clone());
        }
    }
    for name in &names {
        let sa = agg_a
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map_or(0.0, |r| r.3);
        let sb = agg_b
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map_or(0.0, |r| r.3);
        let ratio = if sa > 0.0 { sb / sa } else { f64::INFINITY };
        println!(
            "  {:<14} {:>10.3} -> {:>10.3} {unit}  ({:+.3} {unit}, x{:.2})",
            name,
            sa / scale,
            sb / scale,
            (sb - sa) / scale,
            ratio,
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut paths: Vec<String> = Vec::new();
    let mut diff: Option<String> = None;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--diff" => {
                diff = Some(argv[i + 1].clone());
                i += 2;
            }
            other => {
                paths.push(other.to_string());
                i += 1;
            }
        }
    }
    assert_eq!(
        paths.len(),
        1,
        "usage: trace_view <trace.jsonl> [--diff <other.jsonl>]"
    );
    let a_path = Path::new(&paths[0]);
    let a = load(a_path);
    match diff {
        None => print_summary(a_path, &a),
        Some(bp) => {
            let b_path = Path::new(&bp);
            let b = load(b_path);
            print_diff(a_path, &a, b_path, &b);
        }
    }
}
