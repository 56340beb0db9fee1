//! The seven workloads: seeded inputs, one function that runs and verifies
//! one input, and the per-layer numbers read from the crates' public stats
//! and trace views. Nothing here is timed except through [`Tracer`] spans
//! and the per-op stopwatches; every layer is measured from outside.

use crate::spans::{Tracer, OP};
use coflow_core::bounds;
use coflow_core::circuit::lp_free::{
    solve_free_paths_lp_colgen_on_grid, solve_free_paths_lp_paths_on_grid, FreeLpSolution,
    FreePathsLpConfig, PathPool,
};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig, PathSelection};
use coflow_core::order::lp_order;
use coflow_core::packet::free::{route_and_schedule, PacketFreeConfig};
use coflow_core::tol::{FEAS_EPS, OBJ_REL_EPS};
use coflow_core::{Instance, IntervalGrid};
use coflow_engine::{
    run, EngineConfig, EngineOutcome, EpochPlan, EpochView, Fifo, Greedy, LpOrder, OnlinePolicy,
    PolicyError, WeightedFair,
};
use coflow_lp::{ChainStats, Cmp, ColGenStats, Model, SolveStats, SolverOptions, WarmChain};
use coflow_net::topo::{self, Topology};
use coflow_net::{paths as netpaths, Graph};
use coflow_obs::{Accum, Counter, SpanName};
use coflow_sim::fluid::{simulate, SimConfig};
use coflow_workloads::gen::{generate, generate_packets, GenConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Solver threads, pinned: results are byte-identical at any thread count,
/// so one thread is the reference (and `COFLOW_LP_THREADS` is ignored).
pub const THREADS: usize = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    OfflineEager,
    OfflineColgen,
    OnlineEager,
    OnlineColgen,
    OnlineSolverFree,
    LpTransport,
    PacketFree,
}

impl Kind {
    /// Input stream: workloads with the same stream and seed draw the same
    /// inputs (the two online LP workloads share their traces).
    fn stream(self) -> u64 {
        match self {
            Kind::OfflineEager => 1,
            Kind::OfflineColgen => 2,
            Kind::OnlineEager | Kind::OnlineColgen => 3,
            Kind::OnlineSolverFree => 4,
            Kind::LpTransport => 5,
            Kind::PacketFree => 6,
        }
    }
}

/// What must repeat bit for bit whenever one input is run again.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Fingerprint {
    /// FNV-1a over the bit patterns of the completion times (of the
    /// primal values for the transport LP).
    pub completion_hash: u64,
    pub objective_bits: u64,
    pub pivots: u64,
    pub columns_generated: u64,
    pub epochs: u64,
    pub events: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_bits(mut h: u64, values: &[f64]) -> u64 {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Result of running one input once.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (first reason), for the report.
    pub failure: Option<String>,
    /// Wall time of the input's op root span(s), in milliseconds.
    pub op_wall_ms: f64,
    /// `Σ ω_k C_k` of the checked schedule(s); the optimum for the raw LP.
    pub objective: f64,
    /// The LP-free reference the objective is divided by.
    pub reference: f64,
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// Marks every op of the input as failed.
    fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.failure.get_or_insert(why);
    }
}

/// Per-layer numbers that come from stats and trace views rather than from
/// the benchmark's spans, keyed by metric name.
#[derive(Default)]
pub struct Layer {
    values: BTreeMap<&'static str, f64>,
    /// `Σ ω C` and the sum of the ops' own LP lower bounds
    /// (`core.approx_ratio` is their quotient).
    pub lp_bound_num: f64,
    pub lp_bound_den: f64,
}

impl Layer {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn add_solve(&mut self, s: &SolveStats) {
        self.add("lp.pricing_ms", s.pricing_ms);
        self.add("lp.ftran_btran_ms", s.ftran_btran_ms);
        self.add("lp.factor_ms", s.factor_ms);
        self.add_solve_counts(s);
    }

    /// The part of [`SolveStats`] that has no chain-trace equivalent.
    fn add_solve_counts(&mut self, s: &SolveStats) {
        self.max("lp.rows_max", s.rows as f64);
        self.max("lp.cols_max", s.cols as f64);
        self.add("lp.allocs", s.allocs as f64);
        self.add("lp.truncated", s.truncated as u64 as f64);
        self.add("lp.cycles_detected", s.cycles_detected as f64);
    }

    fn add_chain(&mut self, c: &ChainStats) {
        self.add("lp.pivots", c.total_iterations as f64);
        self.add("lp.phase1_pivots", c.total_phase1 as f64);
        self.add("lp.refactorizations", c.total_refactorizations as f64);
        self.add("lp.warm_attempted", c.warm_attempted as f64);
        self.add("lp.warm_used", c.warm_used as f64);
    }

    fn add_colgen(&mut self, c: &ColGenStats) {
        self.add("lp.colgen_rounds", c.rounds as f64);
        self.add("lp.columns_generated", c.generated_cols as f64);
        self.add("lp.columns_final", c.final_cols as f64);
        self.add("lp.master_ms", c.master_ms);
        self.add("net.oracle_ms", c.pricing_ms);
    }
}

/// Where one input's measurements go.
pub struct Ctx<'a> {
    pub tracer: &'a mut Tracer,
    /// Per-op latencies in milliseconds.
    pub samples: &'a mut Vec<f64>,
    pub layer: &'a mut Layer,
}

/// A transport LP with the data needed to certify an answer without the
/// solver: `min Σ c_ij x_ij`, `Σ_j x_ij = supply_i`, `Σ_i x_ij <= cap`.
struct Transport {
    n: usize,
    cost: Vec<f64>,
    supply: Vec<f64>,
    cap: f64,
    model: Model,
}

pub struct State {
    kind: Kind,
    instances: Vec<Instance>,
    models: Vec<Transport>,
    /// Per input: the LP-free denominator of `objective_ratio`.
    reference: Vec<f64>,
    /// Per input: the rounding / path-sampling seed.
    seeds: Vec<u64>,
    lp_cfg: FreePathsLpConfig,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const WARM_UP_SEED: u64 = 0x5eed_0000_c0f1_0000;

fn input_seed(seed: u64, stream: u64, i: usize) -> u64 {
    splitmix64(splitmix64(seed ^ (stream << 56)).wrapping_add(i as u64))
}

/// The options the figure binaries and `online_arrivals` solve with.
fn experiment_opts() -> SolverOptions {
    SolverOptions {
        threads: THREADS,
        ..SolverOptions::for_experiments()
    }
}

/// `lp_bench`'s production options: defaults without debug verification.
fn production_opts() -> SolverOptions {
    SolverOptions {
        verify: false,
        threads: THREADS,
        ..SolverOptions::default()
    }
}

/// `lp_bench`'s `transport(n)` with seeded cost-lattice multipliers:
/// `c_ij = ((a·i + b·j + c) mod 10) + 1` with `a`, `b` units mod 10, so
/// every seed keeps the degenerate structure (and a solve time within a
/// few percent) while the pivot sequence differs.
fn transport(n: usize, seed: u64) -> Transport {
    const UNITS: [usize; 8] = [1, 3, 7, 9, 11, 13, 17, 19];
    let a = UNITS[(seed % 8) as usize];
    let b = UNITS[((seed >> 8) % 8) as usize];
    let c = ((seed >> 16) % 10) as usize;
    let cost: Vec<f64> = (0..n * n)
        .map(|k| ((a * (k / n) + b * (k % n) + c) % 10) as f64 + 1.0)
        .collect();
    let supply: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let cap = supply.iter().sum::<f64>() / n as f64 + 1.0;
    let mut model = Model::new();
    let vars: Vec<_> = (0..n * n)
        .map(|k| model.add_nonneg(cost[k], format!("x{}_{}", k / n, k % n)))
        .collect();
    for i in 0..n {
        let terms: Vec<_> = (0..n).map(|j| (vars[i * n + j], 1.0)).collect();
        model.add_row(Cmp::Eq, supply[i], &terms);
    }
    for j in 0..n {
        let terms: Vec<_> = (0..n).map(|i| (vars[i * n + j], 1.0)).collect();
        model.add_row(Cmp::Le, cap, &terms);
    }
    Transport {
        n,
        cost,
        supply,
        cap,
        model,
    }
}

impl Transport {
    /// `Σ_i supply_i · min_j c_ij`: every unit shipped costs at least its
    /// row's cheapest column.
    fn reference(&self) -> f64 {
        (0..self.n)
            .map(|i| {
                let row = &self.cost[i * self.n..(i + 1) * self.n];
                self.supply[i] * row.iter().copied().fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Solver-independent optimality certificate: primal feasibility,
    /// `c·x` equal to the reported objective, dual feasibility (reduced
    /// costs and `<=`-row duals of the right sign) and `b·y = c·x`.
    fn certify(&self, x: &[f64], y: &[f64], objective: f64) -> Result<(), String> {
        let n = self.n;
        if x.len() != n * n || y.len() != 2 * n {
            return Err(format!("answer has {} values, {} duals", x.len(), y.len()));
        }
        let mut cx = 0.0;
        let mut col_sum = vec![0.0; n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                let v = x[i * n + j];
                if v < -FEAS_EPS {
                    return Err(format!("x[{i},{j}] = {v} < 0"));
                }
                let reduced = self.cost[i * n + j] - y[i] - y[n + j];
                if reduced < -FEAS_EPS {
                    return Err(format!("reduced cost of x[{i},{j}] = {reduced} < 0"));
                }
                row_sum += v;
                col_sum[j] += v;
                cx += self.cost[i * n + j] * v;
            }
            if (row_sum - self.supply[i]).abs() > FEAS_EPS {
                return Err(format!("supply row {i}: {row_sum} != {}", self.supply[i]));
            }
        }
        let mut by: f64 = (0..n).map(|i| self.supply[i] * y[i]).sum();
        for j in 0..n {
            if col_sum[j] > self.cap + FEAS_EPS {
                return Err(format!("demand row {j}: {} > {}", col_sum[j], self.cap));
            }
            if y[n + j] > FEAS_EPS {
                return Err(format!("dual of demand row {j} = {} > 0", y[n + j]));
            }
            by += self.cap * y[n + j];
        }
        let scale = cx.abs().max(1.0);
        if (cx - objective).abs() > OBJ_REL_EPS * scale {
            return Err(format!("c.x = {cx} but objective = {objective}"));
        }
        if (by - cx).abs() > OBJ_REL_EPS * scale {
            return Err(format!("b.y = {by} but c.x = {cx}"));
        }
        Ok(())
    }
}

fn gen_config(kind: Kind, seed: u64) -> GenConfig {
    match kind {
        Kind::OfflineEager | Kind::OfflineColgen => GenConfig {
            n_coflows: 10,
            width: 4,
            seed,
            ..Default::default()
        },
        Kind::OnlineEager | Kind::OnlineColgen => GenConfig {
            n_coflows: 12,
            width: 4,
            size_mean: 3.0,
            arrival_rate: 1.0,
            jitter_rate: 2.0,
            seed,
            ..Default::default()
        },
        Kind::OnlineSolverFree => GenConfig {
            n_coflows: 100,
            width: 8,
            size_mean: 3.0,
            arrival_rate: 2.0,
            jitter_rate: 2.0,
            seed,
            ..Default::default()
        },
        Kind::PacketFree => GenConfig {
            n_coflows: 20,
            width: 8,
            arrival_rate: 1.0,
            seed,
            ..Default::default()
        },
        Kind::LpTransport => unreachable!("the transport LP has no coflow instance"),
    }
}

/// Builds the topology, generates `inputs` seeded inputs plus the warm-up
/// input and computes their reference bounds. Spans (when on): `net.topo_ms`,
/// `workloads.gen_ms`.
pub fn setup(kind: Kind, seed: u64, inputs: usize, tracer: &mut Tracer) -> State {
    // The last input is the warm-up input: drawn from a fixed seed, so the
    // warm-up op (part of `setup_s`) costs the same whatever `--seed` is.
    let seeds: Vec<u64> = (0..inputs)
        .map(|i| input_seed(seed, kind.stream(), i))
        .chain([input_seed(WARM_UP_SEED, kind.stream(), 0)])
        .collect();
    let lp_cfg = FreePathsLpConfig {
        solver: experiment_opts(),
        ..Default::default()
    };
    let mut state = State {
        kind,
        instances: Vec::new(),
        models: Vec::new(),
        reference: Vec::new(),
        seeds,
        lp_cfg,
    };
    if kind == Kind::LpTransport {
        state.models = state.seeds.iter().map(|&s| transport(500, s)).collect();
        state.reference = state.models.iter().map(Transport::reference).collect();
        return state;
    }
    let topo: Topology = tracer.span("net.topo_ms", |_| match kind {
        Kind::OfflineColgen => topo::fat_tree(16, 1.0),
        Kind::PacketFree => topo::grid(8, 8, 1.0),
        _ => topo::fat_tree(8, 1.0),
    });
    state.instances = tracer.span("workloads.gen_ms", |_| {
        state
            .seeds
            .iter()
            .map(|&s| {
                let cfg = gen_config(kind, s);
                if kind == Kind::PacketFree {
                    generate_packets(&topo, &cfg)
                } else {
                    generate(&topo, &cfg)
                }
            })
            .collect()
    });
    state.reference = state
        .instances
        .iter()
        .map(bounds::trivial_lower_bound)
        .collect();
    state
}

impl State {
    /// Number of measured inputs, `0..inputs()`.
    pub fn inputs(&self) -> usize {
        self.seeds.len() - 1
    }

    /// Index of the seed-independent warm-up input.
    pub fn warm_up_input(&self) -> usize {
        self.seeds.len() - 1
    }

    /// Runs input `i` once and verifies its outputs.
    pub fn run_input(&self, i: usize, ctx: &mut Ctx<'_>) -> Outcome {
        let mut out = match self.kind {
            Kind::OfflineEager => self.offline(i, false, ctx),
            Kind::OfflineColgen => self.offline(i, true, ctx),
            Kind::OnlineEager => self.online_lp(i, false, ctx),
            Kind::OnlineColgen => self.online_lp(i, true, ctx),
            Kind::OnlineSolverFree => self.online_solver_free(i, ctx),
            Kind::LpTransport => self.lp_transport(i, ctx),
            Kind::PacketFree => self.packet_free(i, ctx),
        };
        out.reference = self.reference[i];
        if self.kind != Kind::LpTransport && out.objective < out.reference - FEAS_EPS {
            out.fail_all(format!(
                "input {i}: objective {} below the trivial bound {}",
                out.objective, out.reference
            ));
        }
        out
    }

    fn round_cfg(&self, i: usize) -> FreeRoundingConfig {
        FreeRoundingConfig {
            seed: self.seeds[i],
            selection: PathSelection::LoadAware,
            ..Default::default()
        }
    }

    /// Offline pipeline of the paper's §4: LP → rounding → order → fluid
    /// simulation → check, on a fresh chain (and pool) per instance.
    fn offline(&self, i: usize, colgen: bool, ctx: &mut Ctx<'_>) -> Outcome {
        let inst = &self.instances[i];
        let cfg = &self.lp_cfg;
        let round_cfg = self.round_cfg(i);
        let mut chain = WarmChain::new();
        let mut pool = PathPool::new();
        let mut out = Outcome {
            attempted: 1,
            ..Default::default()
        };
        ctx.tracer.next_op();
        let t0 = Instant::now();
        let done = ctx.tracer.span(OP, |tr| {
            let (lp, cg): (FreeLpSolution, Option<ColGenStats>) =
                tr.span("core.lp_call_ms", |_| {
                    let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
                    if colgen {
                        solve_free_paths_lp_colgen_on_grid(inst, cfg, grid, &mut chain, &mut pool)
                            .map(|(lp, cg)| (lp, Some(cg)))
                    } else {
                        solve_free_paths_lp_paths_on_grid(inst, cfg, grid, &mut chain)
                            .map(|lp| (lp, None))
                    }
                })?;
            let rounding = tr.span("core.round_ms", |_| round_free_paths(inst, &lp, &round_cfg));
            let order = tr.span("core.order_ms", |_| lp_order(inst, &lp.base));
            let sim = tr.span("sim.fluid_ms", |_| {
                simulate(inst, &rounding.paths, &order, &SimConfig::default())
            });
            let violations = tr.span("core.check_ms", |_| {
                let routed = inst.with_paths(&rounding.paths);
                sim.schedule.check(&routed, FEAS_EPS, FEAS_EPS).len()
            });
            Ok::<_, coflow_lp::LpError>((lp, cg, sim, violations))
        });
        out.op_wall_ms = ms_since(t0);
        ctx.samples.push(out.op_wall_ms);

        let chain_stats = chain.stats();
        ctx.layer.add_chain(&chain_stats);
        out.fingerprint.pivots = chain_stats.total_iterations as u64;
        if ctx.tracer.is_on() {
            // One fresh chain per instance, so its cumulative trace is this
            // op's: every master, not only the last one.
            let trace = chain.take_trace();
            ctx.layer
                .add("lp.solve_ms", trace.span_total_ms(SpanName::Solve));
            ctx.layer
                .add("lp.pricing_ms", trace.accum_ms(Accum::Pricing));
            ctx.layer
                .add("lp.ftran_btran_ms", trace.accum_ms(Accum::FtranBtran));
            ctx.layer.add("lp.factor_ms", trace.accum_ms(Accum::Factor));
            let count = |c| trace.counter(c) as f64;
            ctx.layer
                .add("net.oracle_calls", count(Counter::OracleCalls));
            ctx.layer
                .add("net.oracle_relaxations", count(Counter::OracleRelaxations));
            ctx.layer.add("lp.recoveries", count(Counter::Recoveries));
            ctx.layer.add("obs.spans_dropped", trace.dropped as f64);
            if !colgen {
                replay_candidate_paths(inst, cfg.path_slack, cfg.max_paths, ctx.tracer);
            }
        }
        let (lp, cg, sim, violations) = match done {
            Ok(parts) => parts,
            Err(e) => {
                out.fail_all(format!("input {i}: LP failed: {e}"));
                return out;
            }
        };
        ctx.layer.add_solve_counts(&lp.base.stats);
        if let Some(cg) = &cg {
            ctx.layer.add_colgen(cg);
            out.fingerprint.columns_generated = cg.generated_cols as u64;
        }
        ctx.layer.add("sim.fluid_events", sim.events as f64);
        ctx.layer.add("core.check_violations", violations as f64);
        let lp_bound = bounds::circuit_lower_bound(lp.base.objective, lp.base.grid.eps);
        ctx.layer.lp_bound_num += sim.metrics.weighted_sum;
        ctx.layer.lp_bound_den += lp_bound;

        out.objective = sim.metrics.weighted_sum;
        out.fingerprint.objective_bits = out.objective.to_bits();
        out.fingerprint.completion_hash = hash_bits(FNV_OFFSET, &sim.flow_completion);
        if lp.base.stats.truncated {
            out.fail_all(format!("input {i}: LP solve was truncated"));
        }
        if let Some(why) = schedule_defect(violations, &sim.flow_completion) {
            out.fail_all(format!("input {i}: {why}"));
        }
        if out.objective < lp_bound - FEAS_EPS {
            out.fail_all(format!(
                "input {i}: objective {} below the LP bound {lp_bound}",
                out.objective
            ));
        }
        out
    }

    /// One trace under `LpOrder` (eager, or pooled column generation);
    /// an op is one `plan` call.
    fn online_lp(&self, i: usize, colgen: bool, ctx: &mut Ctx<'_>) -> Outcome {
        let inst = &self.instances[i];
        let mut policy = if colgen {
            LpOrder::colgen(self.lp_cfg.clone(), self.round_cfg(i))
        } else {
            LpOrder::new(self.lp_cfg.clone(), self.round_cfg(i))
        };
        let mut plan_ms = Vec::new();
        let mut out = Outcome::default();
        let (run_out, violations) = engine_op(inst, &mut policy, &mut plan_ms, &mut out, ctx);
        ctx.samples.extend_from_slice(&plan_ms);
        out.attempted = plan_ms.len() as u64;

        let engine = &run_out.engine;
        // The policy's chain sees every master solve; `EpochRecord::solve`
        // under column generation is the epoch's last master only.
        let chain_stats = policy.chain_stats().unwrap_or_default();
        ctx.layer.add_chain(&chain_stats);
        for e in &engine.epoch_log {
            if let Some(s) = &e.solve {
                ctx.layer.add_solve(s);
                ctx.layer.add("lp.recoveries", recoveries(s));
                if s.truncated {
                    out.failed += 1;
                    out.failure
                        .get_or_insert(format!("input {i}: epoch at t={} truncated", e.time));
                }
            }
            if let Some(c) = &e.colgen {
                ctx.layer.add_colgen(c);
            }
            if e.degraded.is_some() || e.fallback {
                out.failed += 1;
                out.failure.get_or_insert(format!(
                    "input {i}: epoch at t={} degraded: {}",
                    e.time,
                    e.degraded.as_deref().unwrap_or("fallback")
                ));
            }
        }
        out.failed = out.failed.min(out.attempted);
        out.fingerprint.pivots = chain_stats.total_iterations as u64;
        out.fingerprint.columns_generated = engine.total_columns_generated as u64;
        finish_engine_outcome(i, self.reference[i], &run_out, violations, &mut out);
        out
    }

    /// One trace under each solver-free policy; an op is one policy's run
    /// plus its check.
    fn online_solver_free(&self, i: usize, ctx: &mut Ctx<'_>) -> Outcome {
        let inst = &self.instances[i];
        let mut total = Outcome::default();
        let mut policies: [Box<dyn OnlinePolicy>; 3] =
            [Box::new(Greedy), Box::new(WeightedFair), Box::new(Fifo)];
        for policy in policies.iter_mut() {
            let mut plan_ms = Vec::new();
            let mut out = Outcome {
                attempted: 1,
                ..Default::default()
            };
            let (run_out, violations) =
                engine_op(inst, policy.as_mut(), &mut plan_ms, &mut out, ctx);
            ctx.samples.push(out.op_wall_ms);
            finish_engine_outcome(i, self.reference[i], &run_out, violations, &mut out);

            total.attempted += out.attempted;
            total.failed += out.failed;
            total.failure = total.failure.or(out.failure);
            total.op_wall_ms += out.op_wall_ms;
            total.objective += out.objective;
            let (t, o) = (&mut total.fingerprint, &out.fingerprint);
            t.completion_hash = hash_bits(t.completion_hash, &[f64::from_bits(o.completion_hash)]);
            t.epochs += o.epochs;
            t.events += o.events;
        }
        total.fingerprint.objective_bits = total.objective.to_bits();
        // Three schedules of one instance: three times its bound.
        total.objective /= policies.len() as f64;
        total
    }

    /// One cold solve of a prebuilt transport model.
    fn lp_transport(&self, i: usize, ctx: &mut Ctx<'_>) -> Outcome {
        let t = &self.models[i];
        let opts = production_opts();
        let mut out = Outcome {
            attempted: 1,
            ..Default::default()
        };
        ctx.tracer.next_op();
        let t0 = Instant::now();
        let solved = ctx.tracer.span(OP, |tr| {
            tr.span("lp.solve_ms", |_| t.model.solve_with(&opts))
        });
        out.op_wall_ms = ms_since(t0);
        ctx.samples.push(out.op_wall_ms);
        let sol = match solved {
            Ok(sol) => sol,
            Err(e) => {
                out.fail_all(format!("input {i}: LP failed: {e}"));
                return out;
            }
        };
        ctx.layer.add_solve(&sol.stats);
        let s = &sol.stats;
        ctx.layer.add("lp.pivots", s.iterations as f64);
        ctx.layer
            .add("lp.phase1_pivots", s.phase1_iterations as f64);
        ctx.layer
            .add("lp.refactorizations", s.refactorizations as f64);
        ctx.layer.add("lp.recoveries", recoveries(s));
        out.objective = sol.objective;
        out.fingerprint = Fingerprint {
            completion_hash: hash_bits(FNV_OFFSET, &sol.values),
            objective_bits: sol.objective.to_bits(),
            pivots: sol.iterations as u64,
            ..Default::default()
        };
        if sol.status != coflow_lp::Status::Optimal {
            out.fail_all(format!("input {i}: LP solve was truncated"));
        }
        if let Err(why) = t.certify(&sol.values, &sol.duals, sol.objective) {
            out.fail_all(format!("input {i}: certificate rejected: {why}"));
        }
        out
    }

    /// The paper's §3.2 pipeline: route and schedule packets, then check.
    fn packet_free(&self, i: usize, ctx: &mut Ctx<'_>) -> Outcome {
        let inst = &self.instances[i];
        let cfg = PacketFreeConfig {
            seed: self.seeds[i],
            solver: experiment_opts(),
            ..Default::default()
        };
        let mut out = Outcome {
            attempted: 1,
            ..Default::default()
        };
        ctx.tracer.next_op();
        let t0 = Instant::now();
        let done = ctx.tracer.span(OP, |tr| {
            let res = tr.span("core.packet_call_ms", |_| route_and_schedule(inst, &cfg))?;
            let violations = tr.span("core.check_ms", |_| res.schedule.check(inst).len());
            Ok::<_, coflow_lp::LpError>((res, violations))
        });
        out.op_wall_ms = ms_since(t0);
        ctx.samples.push(out.op_wall_ms);
        if ctx.tracer.is_on() {
            replay_candidate_paths(inst, cfg.path_slack, cfg.max_paths, ctx.tracer);
        }
        let (res, violations) = match done {
            Ok(parts) => parts,
            Err(e) => {
                out.fail_all(format!("input {i}: packet LP failed: {e}"));
                return out;
            }
        };
        let completion = res.schedule.completion_times(inst);
        let lp_bound = bounds::packet_lower_bound(res.lp_objective);
        ctx.layer.add("core.check_violations", violations as f64);
        ctx.layer.lp_bound_num += res.metrics.weighted_sum;
        ctx.layer.lp_bound_den += lp_bound;
        out.objective = res.metrics.weighted_sum;
        out.fingerprint.objective_bits = out.objective.to_bits();
        out.fingerprint.completion_hash = hash_bits(FNV_OFFSET, &completion);
        if let Some(why) = schedule_defect(violations, &completion) {
            out.fail_all(format!("input {i}: {why}"));
        }
        if out.objective < lp_bound - FEAS_EPS {
            out.fail_all(format!(
                "input {i}: objective {} below the LP bound {lp_bound}",
                out.objective
            ));
        }
        out
    }
}

/// Recovery-ladder rungs a solve took.
fn recoveries(s: &SolveStats) -> f64 {
    (s.recovery_refactorizations + s.recovery_basis_repairs + s.recovery_cold_restarts) as f64
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn schedule_defect(violations: usize, completion: &[f64]) -> Option<String> {
    if violations > 0 {
        return Some(format!("{violations} checker violations"));
    }
    let unfinished = completion.iter().filter(|c| !c.is_finite()).count();
    (unfinished > 0).then(|| format!("{unfinished} flows never finish"))
}

/// What the eager LP (and the packet LP) spends enumerating candidate
/// paths, replayed outside the op with the LP's slack and cap: the call
/// happens inside the LP entry point, where no span can reach it.
fn replay_candidate_paths(inst: &Instance, slack: usize, max_paths: usize, tracer: &mut Tracer) {
    let g: &Graph = &inst.graph;
    tracer.span("net.candidate_paths_ms", |_| {
        for (_, _, spec) in inst.flows() {
            std::hint::black_box(netpaths::candidate_paths(
                g, spec.src, spec.dst, slack, max_paths,
            ));
        }
    });
}

/// Forwards to a policy and times every `plan` call.
struct TimedPolicy<'a> {
    inner: &'a mut dyn OnlinePolicy,
    tracer: &'a mut Tracer,
    plan_ms: &'a mut Vec<f64>,
}

impl OnlinePolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        let inner = &mut *self.inner;
        let t0 = Instant::now();
        let plan = self.tracer.span("engine.plan_ms", |_| inner.plan(view));
        self.plan_ms.push(ms_since(t0));
        plan
    }

    fn last_solve(&self) -> Option<SolveStats> {
        self.inner.last_solve()
    }

    fn chain_stats(&self) -> Option<ChainStats> {
        self.inner.chain_stats()
    }

    fn last_colgen(&self) -> Option<ColGenStats> {
        self.inner.last_colgen()
    }
}

/// One `engine::run` of `policy` over `inst`'s arrival trace plus the
/// check of the realized schedule, under one op root span.
fn engine_op(
    inst: &Instance,
    policy: &mut dyn OnlinePolicy,
    plan_ms: &mut Vec<f64>,
    out: &mut Outcome,
    ctx: &mut Ctx<'_>,
) -> (EngineOutcome, usize) {
    ctx.tracer.next_op();
    let t0 = Instant::now();
    let done = ctx.tracer.span(OP, |tr| {
        let run_out = tr.span("engine.run_ms", |tr| {
            let mut timed = TimedPolicy {
                inner: policy,
                tracer: tr,
                plan_ms,
            };
            run(inst, &mut timed, &EngineConfig::default())
        });
        let violations = tr.span("core.check_ms", |_| {
            let routed = inst.with_paths(&run_out.paths);
            run_out.schedule.check(&routed, FEAS_EPS, FEAS_EPS).len()
        });
        (run_out, violations)
    });
    out.op_wall_ms = ms_since(t0);
    let engine = &done.0.engine;
    ctx.layer.add("engine.epochs", engine.epochs as f64);
    ctx.layer.add("engine.events", engine.events as f64);
    ctx.layer
        .add("engine.degraded_epochs", engine.degraded_epochs as f64);
    ctx.layer
        .add("engine.fallback_uses", engine.fallback_policy_uses as f64);
    let retries: usize = engine.epoch_log.iter().map(|e| e.retries).sum();
    ctx.layer.add("engine.plan_retries", retries as f64);
    ctx.layer.add("core.check_violations", done.1 as f64);
    done
}

fn finish_engine_outcome(
    i: usize,
    reference: f64,
    run_out: &EngineOutcome,
    violations: usize,
    out: &mut Outcome,
) {
    out.objective = run_out.metrics.weighted_sum;
    out.fingerprint.objective_bits = out.objective.to_bits();
    out.fingerprint.completion_hash = hash_bits(FNV_OFFSET, &run_out.flow_completion);
    out.fingerprint.epochs = run_out.engine.epochs as u64;
    out.fingerprint.events = run_out.engine.events as u64;
    let unfinished = run_out
        .flow_completion
        .iter()
        .filter(|&&c| !c.is_finite() || c <= 0.0)
        .count();
    if violations > 0 {
        out.fail_all(format!("input {i}: {violations} checker violations"));
    } else if unfinished > 0 {
        out.fail_all(format!("input {i}: {unfinished} flows never finish"));
    } else if out.objective < reference - FEAS_EPS {
        out.fail_all(format!(
            "input {i}: objective {} below the trivial bound {reference}",
            out.objective
        ));
    }
}
