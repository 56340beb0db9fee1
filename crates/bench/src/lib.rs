//! Shared experiment machinery for regenerating the paper's tables and
//! figures (§4).
//!
//! Every binary in `src/bin/` composes the same pieces:
//!
//! 1. generate seeded instances ([`coflow_workloads`]);
//! 2. build the four §4.3 schemes — **LP-Based** (the §2.2 algorithm:
//!    path LP → randomized rounding → LP-completion-time order) and the
//!    three heuristics (Baseline, Schedule-only, Route-only);
//! 3. execute all schemes on the same fluid simulator
//!    ([`coflow_sim::fluid`]) with greedy priority-order allocation (§4.2's
//!    "start each flow as soon as possible" tweak);
//! 4. aggregate over trials, print the two panels of the paper's figures
//!    (absolute average completion time, ratio w.r.t. Baseline) and write
//!    CSV artifacts into `results/`.
//!
//! Independent trials run in parallel through [`run_parallel`] (the LP
//! solve dominates wall time, and each solve runs on one thread).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use coflow_core::baselines::{self, BaselineConfig, Scheme};
use coflow_core::bounds;
use coflow_core::circuit::lp_free::{solve_free_paths_lp_paths, FreePathsLpConfig};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig, PathSelection};
use coflow_core::model::Instance;
use coflow_core::order::lp_order;
use coflow_sim::fluid::{simulate, SimConfig};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Names of the four §4.3 schemes, in the paper's plotting order.
pub const SCHEME_NAMES: [&str; 4] = ["LP-Based", "Route-only", "Schedule-only", "Baseline"];

/// Per-trial, per-scheme outcome.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// Scheme name.
    pub scheme: &'static str,
    /// Unweighted average coflow completion time (the figures' y-axis).
    pub avg_completion: f64,
    /// `Σ ω_k C_k`.
    pub weighted_sum: f64,
}

/// Per-trial diagnostics of the LP-based pipeline.
#[derive(Clone, Debug, Default)]
pub struct LpDiagnostics {
    /// LP objective.
    pub lp_objective: f64,
    /// Lemma 5 lower bound (`LP*/2` at ε = 1).
    pub lower_bound: f64,
    /// Mean number of fractional paths per flow before rounding (§4.3).
    pub paths_per_flow: f64,
    /// Simplex pivots.
    pub iterations: usize,
    /// LP solve wall time in milliseconds.
    pub solve_ms: f64,
    /// Trials whose LP solve attempted a warm start (sum over trials when
    /// aggregated). Always zero: every trial solves cold on a fresh chain.
    pub warm_attempted: usize,
}

/// One experiment trial: run all four schemes on `instance`.
///
/// Returns the four outcomes plus LP diagnostics. All schemes use the same
/// candidate-path budget and the same simulator. The LP solves cold:
/// trial instances are independent random draws, and a basis never
/// transfers between them (identically-named variables describe different
/// candidate paths).
pub fn run_trial(
    instance: &Instance,
    lp_cfg: &FreePathsLpConfig,
    seed: u64,
) -> (Vec<TrialOutcome>, LpDiagnostics) {
    let sim_cfg = SimConfig::default();
    let mut outcomes = Vec::with_capacity(4);

    // --- LP-Based (§2.2 + §4.2 tweaks). ---
    let t0 = Instant::now();
    let lp = solve_free_paths_lp_paths(instance, lp_cfg)
        // lint: allow(no_panic) — harness crate: generated instances are always feasible
        .expect("free-paths LP must be feasible on valid instances");
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rounding = round_free_paths(
        instance,
        &lp,
        &FreeRoundingConfig {
            seed,
            selection: PathSelection::LoadAware,
            ..Default::default()
        },
    );
    let order = lp_order(instance, &lp.base);
    let out = simulate(instance, &rounding.paths, &order, &sim_cfg);
    outcomes.push(TrialOutcome {
        scheme: "LP-Based",
        avg_completion: out.metrics.avg_coflow_completion,
        weighted_sum: out.metrics.weighted_sum,
    });
    let diag = LpDiagnostics {
        lp_objective: lp.base.objective,
        lower_bound: bounds::circuit_lower_bound(lp.base.objective, lp.base.grid.eps),
        paths_per_flow: rounding.paths_per_flow.iter().sum::<usize>() as f64
            / rounding.paths_per_flow.len().max(1) as f64,
        iterations: lp.base.iterations,
        solve_ms,
        warm_attempted: lp.base.stats.warm_attempted as usize,
    };

    // --- Heuristics (§4.3). ---
    let bcfg = BaselineConfig {
        path_slack: lp_cfg.path_slack,
        max_paths: lp_cfg.max_paths,
        seed,
    };
    let schemes: Vec<Scheme> = vec![
        baselines::route_only(instance, &bcfg),
        baselines::schedule_only(instance, &bcfg),
        baselines::baseline_random(instance, &bcfg),
    ];
    for s in schemes {
        let out = simulate(instance, &s.paths, &s.order, &sim_cfg);
        outcomes.push(TrialOutcome {
            scheme: s.name,
            avg_completion: out.metrics.avg_coflow_completion,
            weighted_sum: out.metrics.weighted_sum,
        });
    }
    (outcomes, diag)
}

/// Aggregated point (one x-axis value of a figure).
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// Label, e.g. "4 flows" or "10 coflows".
    pub label: String,
    /// `(scheme, mean avg-completion, mean weighted-sum)` in
    /// [`SCHEME_NAMES`] order.
    pub schemes: Vec<(String, f64, f64)>,
    /// Mean LP diagnostics across trials.
    pub diag: LpDiagnostics,
    /// Number of trials aggregated.
    pub trials: usize,
}

impl PointSummary {
    /// Mean average-completion of a scheme.
    pub fn avg_of(&self, scheme: &str) -> f64 {
        self.schemes
            .iter()
            .find(|(n, _, _)| n == scheme)
            .map(|&(_, a, _)| a)
            .unwrap_or(f64::NAN)
    }

    /// Ratio of a scheme's mean completion to Baseline's.
    pub fn ratio_to_baseline(&self, scheme: &str) -> f64 {
        self.avg_of(scheme) / self.avg_of("Baseline")
    }
}

/// Runs `instances` as parallel trials of one figure point. Trials are
/// independent (trial `i` is seeded `1000 + i` and solves cold), so the
/// result does not depend on `threads`.
pub fn run_point(
    label: &str,
    instances: &[Instance],
    lp_cfg: &FreePathsLpConfig,
    threads: usize,
) -> PointSummary {
    let results: Vec<(Vec<TrialOutcome>, LpDiagnostics)> =
        run_parallel(instances, threads, |i, inst| {
            let out = run_trial(inst, lp_cfg, 1000 + i as u64);
            assert_eq!(
                out.1.warm_attempted, 0,
                "sweep trials must never attempt a warm start"
            );
            out
        });

    let trials = results.len();
    let mut schemes = Vec::new();
    for name in SCHEME_NAMES {
        let mut avg = 0.0;
        let mut wsum = 0.0;
        for (outs, _) in &results {
            let o = outs
                .iter()
                .find(|o| o.scheme == name)
                // lint: allow(no_panic) — harness crate: every trial runs every scheme
                .expect("scheme missing");
            avg += o.avg_completion;
            wsum += o.weighted_sum;
        }
        schemes.push((name.to_string(), avg / trials as f64, wsum / trials as f64));
    }
    let diag = LpDiagnostics {
        lp_objective: results.iter().map(|(_, d)| d.lp_objective).sum::<f64>() / trials as f64,
        lower_bound: results.iter().map(|(_, d)| d.lower_bound).sum::<f64>() / trials as f64,
        paths_per_flow: results.iter().map(|(_, d)| d.paths_per_flow).sum::<f64>() / trials as f64,
        iterations: results.iter().map(|(_, d)| d.iterations).sum::<usize>() / trials,
        solve_ms: results.iter().map(|(_, d)| d.solve_ms).sum::<f64>() / trials as f64,
        // A count, not a mean.
        warm_attempted: results.iter().map(|(_, d)| d.warm_attempted).sum(),
    };
    PointSummary {
        label: label.to_string(),
        schemes,
        diag,
        trials,
    }
}

/// Order-preserving parallel map: `f(i, &items[i])` for every item on up
/// to `threads` scoped workers, which take the next unclaimed item as they
/// finish one. Which worker runs an item depends on timing, so `f` must
/// not carry state from one item to the next.
pub fn run_parallel<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Option<R>>> = out.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                // lint: allow(no_panic) — propagate a worker panic to the caller
                **slots[i].lock().expect("worker panicked holding slot lock") = Some(r);
            });
        }
    });
    out.into_iter()
        // lint: allow(no_panic) — a dead worker is a pool bug, not a data error
        .map(|o| o.expect("worker died before filling slot"))
        .collect()
}

/// Prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    // lint: allow(no_print) — this helper IS the experiment binaries' console output
    println!("\n{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        s
    };
    let header: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    // lint: allow(no_print) — this helper IS the experiment binaries' console output
    println!("{}", line(&header));
    // lint: allow(no_print) — this helper IS the experiment binaries' console output
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        // lint: allow(no_print) — this helper IS the experiment binaries' console output
        println!("{}", line(row));
    }
}

/// Writes a CSV file (creating parent directories).
pub fn write_csv(path: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

/// Prints the paper-style improvement summary:
/// improvement of LP over X = `(avg_X − avg_LP) / avg_LP × 100%` (§4.3).
pub fn print_improvements(points: &[PointSummary]) {
    let mut rows = Vec::new();
    for other in ["Baseline", "Schedule-only", "Route-only"] {
        let mut impr = 0.0;
        for p in points {
            impr += (p.avg_of(other) - p.avg_of("LP-Based")) / p.avg_of("LP-Based") * 100.0;
        }
        rows.push(vec![
            other.to_string(),
            format!("{:.0}%", impr / points.len() as f64),
        ]);
    }
    print_table(
        "Average improvement of LP-Based (paper §4.3: Fig3 = 126/96/22%, Fig4 = 110/72/26%)",
        &["vs scheme", "improvement"],
        &rows,
    );
}

/// Shared CLI parsing for the figure binaries: `--k`, `--trials`,
/// `--threads`, `--out`.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Fat-tree arity (4 → 16 hosts; 8 → the paper's 128 servers).
    pub k: usize,
    /// Trials per point (paper: 10).
    pub trials: usize,
    /// Worker threads for independent trials ([`run_parallel`]).
    pub threads: usize,
    /// CSV output path.
    pub out: Option<String>,
}

impl CommonArgs {
    /// Parses from `std::env::args`, with defaults scaled to finish in
    /// minutes on a laptop (`--k 8 --trials 10` reproduces the paper's
    /// exact setting).
    pub fn parse(default_out: &str) -> Self {
        let mut a = Self {
            k: 4,
            trials: 5,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            out: Some(default_out.to_string()),
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--k" => {
                    // lint: allow(no_panic) — CLI arg parsing: fail fast with usage text
                    a.k = argv[i + 1].parse().expect("--k <even int>");
                    i += 2;
                }
                "--trials" => {
                    // lint: allow(no_panic) — CLI arg parsing: fail fast with usage text
                    a.trials = argv[i + 1].parse().expect("--trials <int>");
                    i += 2;
                }
                "--threads" => {
                    // lint: allow(no_panic) — CLI arg parsing: fail fast with usage text
                    a.threads = argv[i + 1].parse().expect("--threads <int>");
                    i += 2;
                }
                "--out" => {
                    a.out = Some(argv[i + 1].clone());
                    i += 2;
                }
                "--no-csv" => {
                    a.out = None;
                    i += 1;
                }
                // lint: allow(no_panic) — CLI arg parsing: fail fast with usage text
                other => panic!("unknown argument {other}"),
            }
        }
        a
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use coflow_core::tol;
    use coflow_net::topo;
    use coflow_workloads::gen::{generate, GenConfig};

    fn small_instance(seed: u64) -> Instance {
        let t = topo::fat_tree(4, 1.0);
        generate(
            &t,
            &GenConfig {
                n_coflows: 3,
                width: 3,
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn trial_produces_all_four_schemes() {
        let inst = small_instance(5);
        let (outs, diag) = run_trial(&inst, &FreePathsLpConfig::default(), 0);
        assert_eq!(outs.len(), 4);
        for name in SCHEME_NAMES {
            assert!(outs.iter().any(|o| o.scheme == name), "missing {name}");
        }
        assert!(diag.lower_bound > 0.0);
        assert!(diag.paths_per_flow >= 1.0);
        // Lower bound must not exceed any scheme's weighted cost.
        for o in &outs {
            assert!(
                diag.lower_bound <= o.weighted_sum + tol::FEAS_EPS,
                "{}: LB {} > cost {}",
                o.scheme,
                diag.lower_bound,
                o.weighted_sum
            );
        }
    }

    #[test]
    fn point_aggregates_trials() {
        let instances: Vec<Instance> = (0..2).map(small_instance).collect();
        let p = run_point("test", &instances, &FreePathsLpConfig::default(), 2);
        assert_eq!(p.trials, 2);
        assert_eq!(p.schemes.len(), 4);
        assert!(p.avg_of("LP-Based") > 0.0);
        assert!(tol::rel_eq(
            p.ratio_to_baseline("Baseline"),
            1.0,
            tol::OBJ_REL_EPS
        ));
    }

    /// Sweeps run every trial cold: no warm start is ever attempted
    /// (independent instances never transfer a basis).
    #[test]
    fn sweep_trials_never_attempt_warm_start() {
        let instances: Vec<Instance> = (0..3).map(small_instance).collect();
        let p = run_point("cold", &instances, &FreePathsLpConfig::default(), 2);
        assert_eq!(p.diag.warm_attempted, 0);
        assert_eq!(p.trials, 3);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..17).collect();
        let out = run_parallel(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..17).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join("coflow-bench-test");
        let path = dir.join("t.csv");
        write_csv(
            path.to_str().unwrap(),
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
        std::fs::remove_file(&path).ok();
    }
}
