//! One run of one workload: set-up (repeated), warm-up, timed passes with
//! the benchmark's spans off, and — with `--trace 1` — one traced pass.
//!
//! Load model: single process, one solver thread, closed loop with one
//! client (the next input starts when the previous one is checked). The
//! online workloads replay their arrival traces in virtual time, so solver
//! wall time never feeds back into the engine clock and no backlog grows.

use crate::spans::Tracer;
use crate::spec::{WorkloadSpec, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{self, Ctx, Fingerprint, Layer, State};
use coflow_workloads::io::Value;
use std::time::Instant;

pub struct RunArgs {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    /// How long the timed passes should take together.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass.
    pub trace: bool,
    /// One set-up, the first input only, one pass.
    pub smoke: bool,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Pass {
    wall_s: f64,
    op_wall_ms: f64,
    attempted: u64,
    failed: u64,
    failure: Option<String>,
    objective: f64,
    reference: f64,
    fingerprints: Vec<Fingerprint>,
    samples: Vec<f64>,
    layer: Layer,
}

fn run_pass(state: &State, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        op_wall_ms: 0.0,
        attempted: 0,
        failed: 0,
        failure: None,
        objective: 0.0,
        reference: 0.0,
        fingerprints: Vec::with_capacity(state.inputs()),
        samples: Vec::new(),
        layer: Layer::default(),
    };
    let t0 = Instant::now();
    for i in 0..state.inputs() {
        let out = state.run_input(
            i,
            &mut Ctx {
                tracer,
                samples: &mut pass.samples,
                layer: &mut pass.layer,
            },
        );
        pass.op_wall_ms += out.op_wall_ms;
        pass.attempted += out.attempted;
        pass.failed += out.failed;
        if pass.failure.is_none() {
            pass.failure = out.failure;
        }
        pass.objective += out.objective;
        pass.reference += out.reference;
        pass.fingerprints.push(out.fingerprint);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub inputs: usize,
    pub passes: usize,
    pub ops_per_pass: u64,
    pub samples: usize,
    pub setup_s: Vec<f64>,
    pub pass_wall_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Verification or determinism failures; empty means correct.
    pub errors: Vec<String>,
    /// End-to-end metrics without `--trace`, per-layer metrics with it.
    pub metrics: Vec<Metric>,
    /// Per input, what must repeat exactly for this seed.
    pub fingerprints: Vec<Fingerprint>,
    /// The same for the warm-up input, which no seed changes.
    pub warm_up: Fingerprint,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(args: &RunArgs) -> RunReport {
    let mut tracer = Tracer::new();
    // A traced run splits its time between an untraced and a traced pass
    // over the same inputs, so it takes the first half of them.
    let inputs = match (args.smoke, args.trace) {
        (true, _) => 1,
        (false, true) => args.spec.inputs.div_ceil(2),
        (false, false) => args.spec.inputs,
    };
    let mut errors = Vec::new();

    // Set-up: topology, generation, reference bounds, model build and one
    // warm-up op, so that work moved out of the timed ops shows here.
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut state = None;
    let mut warm_ups = Vec::with_capacity(setups);
    for r in 0..setups {
        drop(state.take());
        let t0 = Instant::now();
        tracer.set_on(args.trace && r + 1 == setups);
        let st = workloads::setup(args.spec.kind, args.seed, inputs, &mut tracer);
        tracer.set_on(false);
        let mut scratch = (Vec::new(), Layer::default());
        let out = st.run_input(
            st.warm_up_input(),
            &mut Ctx {
                tracer: &mut tracer,
                samples: &mut scratch.0,
                layer: &mut scratch.1,
            },
        );
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(why) = out.failure {
            errors.push(format!("warm-up op failed: {why}"));
        }
        warm_ups.push(out.fingerprint);
        state = Some(st);
    }
    let state = state.expect("at least one set-up ran");

    let mut passes = vec![run_pass(&state, &mut tracer)];
    if args.trace {
        tracer.set_on(true);
        passes.push(run_pass(&state, &mut tracer));
        tracer.set_on(false);
    } else if !args.smoke {
        let more = (args.seconds / passes[0].wall_s).floor() as usize;
        for _ in 1..more.min(1000) {
            passes.push(run_pass(&state, &mut tracer));
        }
    }

    // Determinism guard: the warm-up ops agree bit for bit with each other,
    // and every pass with the first on every input; a mismatch fails the
    // run, not just an op.
    let first = &passes[0];
    if let Some(w) = warm_ups.iter().find(|&w| *w != warm_ups[0]) {
        errors.push(format!(
            "determinism: warm-up ops differ: {:?} != {w:?}",
            warm_ups[0]
        ));
    }
    for (p, pass) in passes.iter().enumerate().skip(1) {
        if let Some(i) = (0..inputs).find(|&i| pass.fingerprints[i] != first.fingerprints[i]) {
            errors.push(format!(
                "determinism: input {i} differs between pass 0 and pass {p}: {:?} != {:?}",
                first.fingerprints[i], pass.fingerprints[i]
            ));
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    if let Some(why) = passes.iter().find_map(|p| p.failure.clone()) {
        errors.push(format!("{failed} of {attempted} ops failed; first: {why}"));
    }

    let timed = if args.trace {
        &passes[..1]
    } else {
        &passes[..]
    };
    let samples: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.samples.iter().copied())
        .collect();
    let mut metrics: Vec<Metric> = if args.trace {
        if let Err(e) = tracer.write_jsonl(&trace_path(args.spec.name)) {
            errors.push(format!("writing the trace: {e}"));
        }
        per_layer(&passes[0], &passes[1], &tracer)
    } else {
        let throughput: Vec<f64> = timed
            .iter()
            .map(|p| p.attempted as f64 / p.wall_s)
            .collect();
        let value = |name: &str| match name {
            "setup_s" => stats::median(&setup_s),
            "ops_per_s" => stats::median(&throughput),
            "op_p50_ms" => stats::median(&samples),
            "op_p90_ms" => stats::percentile(&samples, 0.9),
            "objective_ratio" => first.objective / first.reference,
            "peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: value(m.name),
            })
            .collect()
    };
    // JSON has no non-finite numbers: report the defect, print a zero.
    for m in &mut metrics {
        if !m.value.is_finite() {
            errors.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }

    RunReport {
        workload: args.spec.name,
        seed: args.seed,
        trace: args.trace,
        inputs,
        passes: timed.len(),
        ops_per_pass: first.attempted,
        samples: samples.len(),
        setup_s,
        pass_wall_s: passes.iter().map(|p| p.wall_s).collect(),
        attempted,
        failed,
        errors,
        metrics,
        fingerprints: passes[0].fingerprints.clone(),
        warm_up: warm_ups[0],
    }
}

/// Per-layer metrics of the traced pass: sums of the benchmark's spans,
/// the stats the ops collected, and the few derived from both.
fn per_layer(untraced: &Pass, traced: &Pass, tracer: &Tracer) -> Vec<Metric> {
    let raw = |name: &str| traced.layer.get(name) + tracer.total_ms(name);
    let value = |name: &str| match name {
        // Time inside the LP entry point that is not a solve (or, under
        // column generation, a master or the oracle): model build, path
        // enumeration, extraction.
        "core.lp_build_ms" => {
            let inside = if raw("lp.colgen_rounds") > 0.0 {
                raw("lp.master_ms") + raw("net.oracle_ms")
            } else {
                raw("lp.solve_ms")
            };
            (raw("core.lp_call_ms") - inside).max(0.0)
        }
        "core.approx_ratio" if traced.layer.lp_bound_den > 0.0 => {
            traced.layer.lp_bound_num / traced.layer.lp_bound_den
        }
        "lp.warm_accept_ratio" if raw("lp.warm_attempted") > 0.0 => {
            raw("lp.warm_used") / raw("lp.warm_attempted")
        }
        // Admission, residual update, fills and segments.
        "engine.loop_ms" => (raw("engine.run_ms") - raw("engine.plan_ms")).max(0.0),
        "obs.overhead_ratio" => traced.op_wall_ms / untraced.op_wall_ms,
        "bench.unattributed_share" => tracer.unattributed_share(),
        "bench.op_wall_ms" => traced.op_wall_ms,
        "bench.op_p99_ms" => stats::percentile(&traced.samples, 0.99),
        "bench.op_samples" => traced.samples.len() as f64,
        _ => raw(name),
    };
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
        })
        .collect()
}

pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(crate::spec::PATH).join("out")
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    out_dir().join(format!("trace_{workload}.jsonl"))
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Every metric by name with its unit, then what was run.
    pub fn print(&self) {
        println!(
            "{} seed {} ({}): {} inputs, {} timed pass(es) of {} ops, {} latency samples",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.inputs,
            self.passes,
            self.ops_per_pass,
            self.samples
        );
        for m in &self.metrics {
            println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let (q1, med, q3) = stats::quartiles(&self.pass_wall_s);
        println!(
            "  pass wall s: median {med:.3} quartiles {q1:.3}..{q3:.3} min {:.3} max {:.3}; set-ups s: {:?}",
            self.pass_wall_s.iter().copied().fold(f64::INFINITY, f64::min),
            self.pass_wall_s.iter().copied().fold(0.0, f64::max),
            self.setup_s
        );
        println!("  attempted {} failed {}", self.attempted, self.failed);
        for e in &self.errors {
            println!("  ERROR {e}");
        }
    }

    /// The one-line result object the benchmark driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run as a JSON value: what `--all` collects and `compare` reads.
    pub fn to_json(&self) -> Value {
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
        let print = |f: &Fingerprint| {
            Value::Str(format!(
                "{:016x}:{:016x}:{}:{}:{}:{}",
                f.completion_hash,
                f.objective_bits,
                f.pivots,
                f.columns_generated,
                f.epochs,
                f.events
            ))
        };
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("trace".into(), Value::Bool(self.trace)),
            ("correct".into(), Value::Bool(self.correct())),
            ("inputs".into(), Value::Num(self.inputs as f64)),
            ("passes".into(), Value::Num(self.passes as f64)),
            ("ops_per_pass".into(), Value::Num(self.ops_per_pass as f64)),
            ("samples".into(), Value::Num(self.samples as f64)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("setup_s".into(), nums(&self.setup_s)),
            ("pass_wall_s".into(), nums(&self.pass_wall_s)),
            (
                "errors".into(),
                Value::Arr(self.errors.iter().map(|e| Value::Str(e.clone())).collect()),
            ),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.to_string(), Value::Num(m.value)))
                        .collect(),
                ),
            ),
            ("warm_up".into(), print(&self.warm_up)),
            (
                "fingerprints".into(),
                Value::Arr(self.fingerprints.iter().map(print).collect()),
            ),
        ])
    }
}
