//! End-to-end and per-layer benchmark of the coflow workspace: one
//! command, seven named workloads. See `README.md` in this directory.

mod compare;
mod run;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage:
  coflow-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one run of one workload; the last line of output is the result object
  coflow-benchmark --all [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
      every workload in its own process: R untraced runs (seeds N..N+R-1) and
      one traced run each; writes FILE (default benchmark/out/results.json)
  coflow-benchmark --smoke
      --all with one pass over the first input of each workload
  coflow-benchmark compare A.json B.json
      applies every end-to-end bound to two --all results; exit 1 on a regression
  coflow-benchmark spec
      prints BENCHMARK.json
run from the repository root; workloads:";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    for w in &spec::WORKLOADS {
        eprintln!("  {:<22} {}", w.name, w.op);
    }
    ExitCode::from(2)
}

struct Args {
    workload: Option<&'static spec::WorkloadSpec>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: std::path::PathBuf,
}

/// Parses the flags; `Err` carries what was wrong with them.
fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 3,
        out: run::out_dir().join("results.json"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(spec::workload(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|_| bad(v))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                let v = value()?;
                a.runs = v.parse().map_err(|_| bad(v))?;
                if a.runs == 0 {
                    return Err(bad(v));
                }
            }
            "--out" => a.out = value()?.into(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.workload.is_some() && a.all {
        return Err("--workload and --all exclude each other".into());
    }
    if a.workload.is_none() && !a.all && !a.smoke {
        return Err("need --workload, --all or --smoke".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    if let Err(e) = spec::validate() {
        eprintln!("benchmark tables break the BENCHMARK.json contract: {e}");
        return ExitCode::FAILURE;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("spec") if argv.len() == 1 => {
            print!("{}", spec::render_benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match &argv[1..] {
                [a, b] => compare::compare(a.as_ref(), b.as_ref()),
                _ => usage(),
            };
        }
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    // Every `*_ms` read from a chain trace is a tick count under the
    // logical clock; refuse rather than report ticks as milliseconds.
    if coflow_obs::ClockMode::from_env() != coflow_obs::ClockMode::Wall {
        eprintln!("COFLOW_OBS_CLOCK=logical: the benchmark needs the wall clock");
        return ExitCode::from(2);
    }
    let Some(workload) = args.workload else {
        return suite::run_all(&suite::SuiteArgs {
            seed: args.seed,
            seconds: args.seconds,
            runs: if args.smoke { 1 } else { args.runs },
            smoke: args.smoke,
            out: args.out,
        });
    };
    let report = run::run(&run::RunArgs {
        spec: workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    });
    report.print();
    let path = suite::run_report_path(report.workload, report.trace);
    let doc = suite::with_provenance(report.to_json(), args.seed, args.seconds);
    if let Err(e) = suite::write_json(&path, &doc) {
        eprintln!("writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
