//! The benchmark's contract as data: workload names and why each was
//! chosen, end-to-end metrics with their regression bounds, per-layer
//! metrics. `BENCHMARK.json` is rendered from these tables (`spec`
//! subcommand) so the file and the program cannot drift apart.

use crate::workloads::Kind;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`). Input
/// counts below are sized so one pass takes 9 to 10 s on the 2-core
/// reference box when it is quiet (it slows by up to 2x for minutes at a
/// time); `lp_transport_500` fits three passes, for 24 latency samples.
pub const RUN_SECONDS: u64 = 13;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directory (relative to the repository root) the benchmark owns.
pub const PATH: &str = "benchmark";

pub struct WorkloadSpec {
    pub name: &'static str,
    pub kind: Kind,
    /// Inputs of one pass (instances, traces or models).
    pub inputs: usize,
    /// One line: why this workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// What one op is, for the printed report.
    pub op: &'static str,
    /// Input shape, and how it differs from the sizes ISSUE 11 proposed.
    pub size: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "offline_eager_k8",
        kind: Kind::OfflineEager,
        inputs: 200,
        why: "The paper's sec. 4 pipeline on fat-tree k=8 with eager columns: cold LP solves, where pricing, factorization and phase 1 dominate",
        op: "instance -> eager path LP -> rounding -> order -> fluid sim -> check",
        size: "fat-tree k=8 (128 hosts), 200 instances of 10 coflows x width 4 (issue: 8 instances of width 8; cut to width 4 so that a run holds enough instances for a mean that is steady over seeds)",
    },
    WorkloadSpec {
        name: "offline_colgen_k16",
        kind: Kind::OfflineColgen,
        inputs: 140,
        why: "Same pipeline by column generation on fat-tree k=16: oracle, per-round master re-solves and model growth instead of enumeration and pricing",
        op: "instance -> colgen path LP (fresh pool + chain) -> rounding -> order -> fluid sim -> check",
        size: "fat-tree k=16 (1024 hosts), 140 instances of 10 coflows x width 4 (issue: 4 instances of 20 coflows x width 8; cut for the same reason)",
    },
    WorkloadSpec {
        name: "online_eager_k8",
        kind: Kind::OnlineEager,
        inputs: 60,
        why: "Online engine re-solving the eager LP every epoch through one warm chain: row-side warm re-solves and their tail epochs",
        op: "one OnlinePolicy::plan call of LpOrder::new inside engine::run",
        size: "fat-tree k=8, 60 traces of 12 coflows x width 4, arrival rate 1.0, size mean 3, jitter 2 (issue: 2 traces of 16 coflows x width 8; cut for the same reason)",
    },
    WorkloadSpec {
        name: "online_colgen_k8",
        kind: Kind::OnlineColgen,
        inputs: 56,
        why: "Same engine and traces with pooled column generation: pool reuse and oracle, so a gain for eager that costs colgen shows",
        op: "one OnlinePolicy::plan call of LpOrder::colgen inside engine::run",
        size: "the first 56 of the online_eager_k8 traces (same generator seeds)",
    },
    WorkloadSpec {
        name: "online_solverfree_k8",
        kind: Kind::OnlineSolverFree,
        inputs: 26,
        why: "Greedy, WeightedFair and Fifo on long traces: engine loop, residual update, fills and checker with no LP, the bypass for LP-only changes",
        op: "one engine::run of one trace under one of Greedy / WeightedFair / Fifo, plus its check",
        size: "fat-tree k=8, 26 traces of 100 coflows x width 8, arrival rate 2.0 (issue: one trace of 300 coflows with op = one event; cut to 100 coflows, and op = one policy run so that an op can be timed)",
    },
    WorkloadSpec {
        name: "lp_transport_500",
        kind: Kind::LpTransport,
        inputs: 8,
        why: "Cold solves of a 1000-row x 250500-column transport LP: pure coflow-lp, pricing-bound, the bypass for core, net and engine changes",
        op: "one cold Model::solve_with on a prebuilt transport(500) model",
        size: "8 models per pass: lp_bench's transport(500) with seeded cost-lattice multipliers (random costs make solve time vary 10x between models)",
    },
    WorkloadSpec {
        name: "packet_free_grid8",
        kind: Kind::PacketFree,
        inputs: 40,
        why: "The paper's sec. 3.2 packet half on an 8x8 grid: path-choice LP, job-shop block scheduling and the packet checker",
        op: "instance -> packet::free::route_and_schedule -> PacketSchedule::check",
        size: "8x8 grid, 40 instances of 20 coflows x 8 unit packets, arrival rate 1.0 (issue: 12 instances)",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "objective_ratio",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Repeats exactly for one seed; `compare` reports whether two results
    /// agree on it.
    pub exact: bool,
}

const fn ms(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        lower_is_better: true,
        exact: false,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        lower_is_better: true,
        exact: true,
    }
}

const fn ratio(name: &'static str, lower_is_better: bool, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        lower_is_better,
        exact,
    }
}

/// Layer = crate. A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [PerLayer; 50] = [
    ms("workloads.gen_ms"),
    ms("net.topo_ms"),
    ms("net.candidate_paths_ms"),
    ms("net.oracle_ms"),
    count("net.oracle_calls"),
    count("net.oracle_relaxations"),
    ms("core.lp_call_ms"),
    ms("core.lp_build_ms"),
    ms("core.round_ms"),
    ms("core.order_ms"),
    ms("core.check_ms"),
    count("core.check_violations"),
    ms("core.packet_call_ms"),
    ratio("core.approx_ratio", true, true),
    ms("lp.solve_ms"),
    ms("lp.master_ms"),
    ms("lp.pricing_ms"),
    ms("lp.ftran_btran_ms"),
    ms("lp.factor_ms"),
    count("lp.pivots"),
    count("lp.phase1_pivots"),
    count("lp.refactorizations"),
    count("lp.warm_attempted"),
    PerLayer {
        name: "lp.warm_used",
        unit: "count",
        lower_is_better: false,
        exact: true,
    },
    ratio("lp.warm_accept_ratio", false, true),
    count("lp.colgen_rounds"),
    count("lp.columns_generated"),
    count("lp.columns_final"),
    count("lp.rows_max"),
    count("lp.cols_max"),
    count("lp.allocs"),
    count("lp.truncated"),
    count("lp.recoveries"),
    count("lp.cycles_detected"),
    ms("sim.fluid_ms"),
    count("sim.fluid_events"),
    ms("engine.run_ms"),
    ms("engine.plan_ms"),
    ms("engine.loop_ms"),
    count("engine.epochs"),
    count("engine.events"),
    count("engine.degraded_epochs"),
    count("engine.fallback_uses"),
    count("engine.plan_retries"),
    ratio("obs.overhead_ratio", true, false),
    count("obs.spans_dropped"),
    ratio("bench.unattributed_share", true, false),
    ms("bench.op_wall_ms"),
    ms("bench.op_p99_ms"),
    PerLayer {
        name: "bench.op_samples",
        unit: "count",
        lower_is_better: false,
        exact: true,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the tables against the limits of the `BENCHMARK.json` contract.
/// Run at every start-up: a table edited out of bounds fails before any
/// measurement is made.
pub fn validate() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!("{} workloads, need 2 to 8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        return Err(format!(
            "{} end-to-end metrics, need 1 to 16",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        return Err(format!(
            "{} per-layer metrics, need 1 to 128",
            PER_LAYER.len()
        ));
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        return Err(format!("run_seconds {RUN_SECONDS} outside 1..=60"));
    }
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for (i, n) in names.iter().enumerate() {
        if !valid_name(n) {
            return Err(format!(
                "name {n:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if names[..i].contains(n) {
            return Err(format!("name {n:?} is used twice"));
        }
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "{}: why must be one line of at most 200 characters",
                w.name
            ));
        }
        if w.inputs == 0 {
            return Err(format!("{}: needs at least one input", w.name));
        }
    }
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        if !valid_unit(unit) {
            return Err(format!("{name}: unit {unit:?} is not valid"));
        }
    }
    for m in &END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("{}: bound {} outside (0, 0.25]", m.name, m.bound));
        }
    }
    let setup_ok = END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better);
    if !setup_ok {
        return Err("end-to-end metrics must include setup_s [s, lower]".into());
    }
    Ok(())
}

fn better(lower: bool) -> &'static str {
    if lower {
        "lower"
    } else {
        "higher"
    }
}

/// The text of `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let quote = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quote(&COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", quote(&[PATH])));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m.lower_is_better),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            better(m.lower_is_better)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
