//! `--all`: re-executes this program once per workload and run (so peak
//! RSS is per workload), collects the children's reports, cross-checks
//! the traced process against the untraced one, prints every metric and
//! writes the results file `compare` reads.

use crate::run::out_dir;
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::workloads::THREADS;
use coflow_workloads::io::{parse_json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Untraced runs per workload, on seeds `seed..seed + runs`.
    pub runs: usize,
    pub smoke: bool,
    pub out: PathBuf,
}

pub fn run_report_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run_{workload}_trace{}.json", trace as u8))
}

pub fn write_json(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a result was produced.
fn provenance(seed: u64, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        (
            "git_commit".into(),
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Value::Str(first_line_of("rustc", &["-V"]))),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("solver_threads".into(), Value::Num(THREADS as f64)),
        ("obs_clock".into(), Value::Str("wall".into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
    ])
}

/// Prepends the provenance to a run report object.
pub fn with_provenance(report: Value, seed: u64, seconds: f64) -> Value {
    let mut pairs = vec![("provenance".to_string(), provenance(seed, seconds))];
    if let Value::Obj(rest) = report {
        pairs.extend(rest);
    }
    Value::Obj(pairs)
}

/// Runs one child to completion and returns its report.
fn child(workload: &str, seed: u64, args: &SuiteArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    eprintln!(
        "[{workload}] seed {seed} {} ...",
        if trace { "traced" } else { "untraced" }
    );
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let path = run_report_path(workload, trace);
    let report = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|s| parse_json(&s).map_err(|e| format!("{}: {e:?}", path.display())));
    if !out.status.success() || report.is_err() {
        eprint!("{}", String::from_utf8_lossy(&out.stdout));
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    report
}

/// A number of a child's report; 0 when the report lacks it (the report's
/// own `correct` flag and the section's errors say why).
fn num(v: &Value, key: &str) -> f64 {
    match v.lookup(key) {
        Some(Value::Num(x)) => *x,
        _ => 0.0,
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.lookup(key) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

fn metric(report: &Value, name: &str, errors: &mut Vec<Value>) -> f64 {
    match report.lookup("metrics").and_then(|ms| ms.lookup(name)) {
        Some(Value::Num(x)) => *x,
        _ => {
            errors.push(Value::Str(format!("a run did not report {name}")));
            0.0
        }
    }
}

fn is_correct(report: &Value) -> bool {
    report.lookup("correct") == Some(&Value::Bool(true))
}

/// One workload's section of the results file.
fn workload_section(w: &spec::WorkloadSpec, runs: Vec<Value>, traced: Value) -> (Value, bool) {
    let mut errors: Vec<Value> = Vec::new();
    // Same seed, another process, spans on: every input both ran must
    // agree bit for bit.
    if let (Some(Value::Arr(a)), Some(Value::Arr(b))) = (
        runs[0].lookup("fingerprints"),
        traced.lookup("fingerprints"),
    ) {
        if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) {
            errors.push(Value::Str(format!(
                "determinism: input {i} differs between the untraced and the traced process"
            )));
        }
    }
    // The warm-up input is the same for every seed and process.
    if runs
        .iter()
        .chain([&traced])
        .any(|r| r.lookup("warm_up") != runs[0].lookup("warm_up"))
    {
        errors.push(Value::Str(
            "determinism: the warm-up op differs between runs".into(),
        ));
    }
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| metric(r, m.name, &mut errors))
                .collect();
            let (q1, median, q3) = stats::quartiles(&values);
            let better = if m.lower_is_better { "lower" } else { "higher" };
            let entry = Value::Obj(vec![
                ("unit".into(), Value::Str(m.unit.into())),
                ("better".into(), Value::Str(better.into())),
                ("bound".into(), Value::Num(m.bound)),
                ("median".into(), Value::Num(median)),
                ("q1".into(), Value::Num(q1)),
                ("q3".into(), Value::Num(q3)),
                (
                    "values".into(),
                    Value::Arr(values.into_iter().map(Value::Num).collect()),
                ),
            ]);
            (m.name.to_string(), entry)
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let value = metric(&traced, m.name, &mut errors);
            let entry = Value::Obj(vec![
                ("unit".into(), Value::Str(m.unit.into())),
                ("exact".into(), Value::Bool(m.exact)),
                ("value".into(), Value::Num(value)),
            ]);
            (m.name.to_string(), entry)
        })
        .collect::<Vec<_>>();
    let correct = errors.is_empty() && runs.iter().chain([&traced]).all(is_correct);
    let section = Value::Obj(vec![
        ("name".into(), Value::Str(w.name.into())),
        ("op".into(), Value::Str(w.op.into())),
        ("size".into(), Value::Str(w.size.into())),
        ("correct".into(), Value::Bool(correct)),
        ("errors".into(), Value::Arr(errors)),
        ("end_to_end".into(), Value::Obj(end_to_end)),
        ("per_layer".into(), Value::Obj(per_layer)),
        ("runs".into(), Value::Arr(runs)),
        ("traced".into(), traced),
    ]);
    (section, correct)
}

fn print_section(section: &Value) {
    println!("\n== {} ==", text(section, "name"));
    println!("   op:   {}", text(section, "op"));
    println!("   size: {}", text(section, "size"));
    let traced = section.lookup("traced");
    let count = |key: &str| traced.map_or(0.0, |t| num(t, key));
    if let Some(Value::Arr(runs)) = section.lookup("runs") {
        println!(
            "   {} untraced run(s): {} ops per pass, {} pass(es), {} samples; attempted {} failed {}",
            runs.len(),
            num(&runs[0], "ops_per_pass"),
            num(&runs[0], "passes"),
            num(&runs[0], "samples"),
            runs.iter().map(|r| num(r, "attempted")).sum::<f64>() + count("attempted"),
            runs.iter().map(|r| num(r, "failed")).sum::<f64>() + count("failed"),
        );
    }
    if let Some(Value::Obj(metrics)) = section.lookup("end_to_end") {
        for (name, m) in metrics {
            println!(
                "   {:<26} {:>14.4} {:<6} quartiles {:.4}..{:.4}  bound {:.0} %",
                name,
                num(m, "median"),
                text(m, "unit"),
                num(m, "q1"),
                num(m, "q3"),
                num(m, "bound") * 100.0
            );
        }
    }
    if let Some(Value::Obj(metrics)) = section.lookup("per_layer") {
        for (name, m) in metrics {
            println!(
                "   {:<26} {:>14.4} {}",
                name,
                num(m, "value"),
                text(m, "unit")
            );
        }
    }
    if let Some(Value::Arr(errors)) = section.lookup("errors") {
        for e in errors {
            println!("   ERROR {e:?}");
        }
    }
    if section.lookup("correct") != Some(&Value::Bool(true)) {
        println!("   FAILED verification (see the run's own report above)");
    }
}

pub fn run_all(args: &SuiteArgs) -> ExitCode {
    let mut sections = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let collected = (0..args.runs as u64)
            .map(|r| child(w.name, args.seed + r, args, false))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|runs| Ok((runs, child(w.name, args.seed, args, true)?)));
        let (runs, traced) = match collected {
            Ok(parts) => parts,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let (section, correct) = workload_section(w, runs, traced);
        all_correct &= correct;
        print_section(&section);
        sections.push(section);
    }
    let doc = Value::Obj(vec![
        (
            "schema".into(),
            Value::Str("coflow-benchmark/results-v1".into()),
        ),
        ("provenance".into(), provenance(args.seed, args.seconds)),
        ("runs".into(), Value::Num(args.runs as f64)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("workloads".into(), Value::Arr(sections)),
    ]);
    if let Err(e) = write_json(&args.out, &doc) {
        eprintln!("writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", args.out.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("some outputs FAILED verification");
        ExitCode::FAILURE
    }
}
