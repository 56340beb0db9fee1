//! Cross-validation of the production revised simplex against the
//! independent dense-tableau reference on randomized LPs.
//!
//! Both solvers must agree on feasibility/boundedness classification and,
//! when optimal, on the optimal objective value (primal points may differ —
//! LPs have non-unique optima — but objectives must match and both points
//! must be feasible).

#![allow(
    clippy::needless_range_loop,
    clippy::type_complexity,
    reason = "index-based loops mirror the math notation of the reference tableau, and the generated-LP tuples are verbose by nature"
)]
#![allow(
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast on known-good fixtures"
)]

use coflow_lp::{dense, Cmp, LpError, Model, SolverOptions, WarmChain, LP_TOL};
use proptest::prelude::*;

/// A randomly generated LP description.
#[derive(Debug, Clone)]
struct RandomLp {
    n: usize,
    costs: Vec<f64>,
    ubs: Vec<Option<f64>>,
    rows: Vec<(u8, f64, Vec<(usize, f64)>)>, // (cmp code, rhs, terms)
}

fn arb_lp(max_vars: usize, max_rows: usize, bounded: bool) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |n| {
        let costs = proptest::collection::vec(-5.0f64..5.0, n);
        let ubs = proptest::collection::vec(
            prop_oneof![
                3 => (0.5f64..6.0).prop_map(Some),
                if bounded { 0 } else { 2 } => Just(None)
            ],
            n,
        );
        let rows = proptest::collection::vec(
            (
                0u8..3,
                -4.0f64..8.0,
                proptest::collection::vec((0..n, -3.0f64..3.0), 1..=n.min(4)),
            ),
            1..=max_rows,
        );
        (Just(n), costs, ubs, rows).prop_map(|(n, costs, ubs, rows)| RandomLp {
            n,
            costs,
            ubs,
            rows,
        })
    })
}

fn build(lp: &RandomLp) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..lp.n)
        .map(|j| {
            m.add_var(
                lp.costs[j],
                0.0,
                lp.ubs[j].unwrap_or(f64::INFINITY),
                format!("x{j}"),
            )
        })
        .collect();
    for (code, rhs, terms) in &lp.rows {
        let cmp = match code {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let t: Vec<_> = terms.iter().map(|&(j, c)| (vars[j], c)).collect();
        m.add_row(cmp, *rhs, &t);
    }
    m
}

fn classify(r: &Result<coflow_lp::Solution, LpError>) -> &'static str {
    match r {
        Ok(_) => "optimal",
        Err(LpError::Infeasible) => "infeasible",
        Err(LpError::Unbounded) => "unbounded",
        Err(e) => panic!("unexpected solver failure: {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Fully bounded random LPs: never unbounded, so the classification is
    /// binary and objectives must match exactly when feasible.
    #[test]
    fn bounded_lps_agree(lp in arb_lp(6, 5, true)) {
        let m = build(&lp);
        let fast = m.solve();
        let slow = dense::solve(&m);
        prop_assert_eq!(classify(&fast), classify(&slow));
        if let (Ok(f), Ok(s)) = (&fast, &slow) {
            let scale = 1.0 + f.objective.abs().max(s.objective.abs());
            prop_assert!(
                (f.objective - s.objective).abs() / scale < 1e-6,
                "objective mismatch: fast {} vs reference {}", f.objective, s.objective
            );
            prop_assert!(m.max_violation(&f.values) < 1e-6);
            prop_assert!(m.max_violation(&s.values) < 1e-6);
        }
    }

    /// Mixed LPs (some unbounded variables): classifications still agree.
    #[test]
    fn mixed_lps_agree(lp in arb_lp(5, 4, false)) {
        let m = build(&lp);
        let fast = m.solve();
        let slow = dense::solve(&m);
        prop_assert_eq!(classify(&fast), classify(&slow));
        if let (Ok(f), Ok(s)) = (&fast, &slow) {
            let scale = 1.0 + f.objective.abs().max(s.objective.abs());
            prop_assert!((f.objective - s.objective).abs() / scale < 1e-6);
            prop_assert!(m.max_violation(&f.values) < 1e-6);
        }
    }

    /// LPs built to be feasible by construction (rows anchored at a random
    /// interior point): solver must return optimal with objective <= the
    /// witness point's objective.
    #[test]
    fn feasible_by_construction(
        n in 2usize..7,
        seedvals in proptest::collection::vec(0.1f64..2.0, 7),
        costs in proptest::collection::vec(-3.0f64..3.0, 7),
        rows in proptest::collection::vec(
            (0u8..2, proptest::collection::vec((0usize..7, 0.1f64..2.0), 1..4)),
            1..6
        ),
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..n)
            .map(|j| m.add_var(costs[j], 0.0, 3.0, format!("x{j}")))
            .collect();
        let witness: Vec<f64> = (0..n).map(|j| seedvals[j].min(3.0)).collect();
        for (code, terms) in &rows {
            let t: Vec<_> = terms
                .iter()
                .filter(|(j, _)| *j < n)
                .map(|&(j, c)| (vars[j], c))
                .collect();
            if t.is_empty() { continue; }
            let act: f64 = t.iter().map(|&(v, c)| {
                let idx = vars.iter().position(|&x| x == v).unwrap();
                c * witness[idx]
            }).sum();
            // Anchor the row so the witness satisfies it with slack.
            if *code == 0 {
                m.le(&t, act + 0.5);
            } else {
                m.ge(&t, act - 0.5);
            }
        }
        let sol = m.solve().expect("feasible by construction");
        let witness_obj: f64 = (0..n).map(|j| costs[j] * witness[j]).sum();
        prop_assert!(sol.objective <= witness_obj + 1e-6);
        prop_assert!(m.max_violation(&sol.values) < 1e-6);
    }
}

/// A degenerate sparse LP description: coefficients, costs, and right-hand
/// sides drawn from tiny discrete sets, so reduced costs and ratio-test
/// limits tie constantly — the regime where naive pivoting cycles or
/// stalls, and where the sparse-LU simplex must still match the oracle.
#[derive(Debug, Clone)]
struct DegenerateLp {
    n: usize,
    costs: Vec<u8>,                        // index into COSTS
    rows: Vec<(u8, u8, Vec<(usize, u8)>)>, // (cmp, rhs index, (var, coef index))
    dup_row: usize,                        // one row repeated verbatim
}

const DEG_COSTS: [f64; 4] = [-1.0, 0.0, 1.0, -1.0]; // repeated values: cost ties
const DEG_COEFS: [f64; 3] = [0.5, 1.0, 2.0];
const DEG_RHS: [f64; 4] = [0.0, 1.0, 1.0, 2.0]; // zero and repeated rhs

fn arb_degenerate(max_vars: usize, max_rows: usize) -> impl Strategy<Value = DegenerateLp> {
    (3..=max_vars).prop_flat_map(move |n| {
        let costs = proptest::collection::vec(0u8..4, n);
        let rows = proptest::collection::vec(
            (
                0u8..3,
                0u8..4,
                proptest::collection::vec((0..n, 0u8..3), 1..=n.min(3)),
            ),
            2..=max_rows,
        );
        (Just(n), costs, rows, 0usize..max_rows).prop_map(|(n, costs, rows, dup_row)| {
            DegenerateLp {
                n,
                costs,
                rows,
                dup_row,
            }
        })
    })
}

fn build_degenerate(lp: &DegenerateLp) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..lp.n)
        .map(|j| m.add_var(DEG_COSTS[lp.costs[j] as usize], 0.0, 1.0, format!("x{j}")))
        .collect();
    let mut add = |(code, rhs, terms): &(u8, u8, Vec<(usize, u8)>)| {
        let cmp = match code {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let t: Vec<_> = terms
            .iter()
            .map(|&(j, c)| (vars[j], DEG_COEFS[c as usize]))
            .collect();
        m.add_row(cmp, DEG_RHS[*rhs as usize], &t);
    };
    for row in &lp.rows {
        add(row);
    }
    // Repeat one row verbatim: duplicate constraints are a classic source
    // of degenerate bases (dependent artificials in phase 1).
    add(&lp.rows[lp.dup_row % lp.rows.len()]);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Degenerate sparse LPs: the sparse-LU simplex and the
    /// dense-tableau oracle must agree on classification and, when
    /// optimal, on the objective within `LP_TOL` scale.
    #[test]
    fn degenerate_sparse_matches_reference(lp in arb_degenerate(8, 6)) {
        let m = build_degenerate(&lp);
        let fast = m.solve();
        let slow = dense::solve(&m);
        prop_assert_eq!(classify(&fast), classify(&slow));
        if let (Ok(f), Ok(s)) = (&fast, &slow) {
            let scale = 1.0 + f.objective.abs().max(s.objective.abs());
            prop_assert!(
                (f.objective - s.objective).abs() / scale < 10.0 * LP_TOL,
                "objective mismatch: sparse {} vs reference {}", f.objective, s.objective
            );
            prop_assert!(m.max_violation(&f.values) < 10.0 * LP_TOL);
        }
    }

    /// Warm starting a *grown* model from the smaller model's basis must
    /// reproduce the cold objective exactly (warm starts are an
    /// optimization, never a correctness risk) — including when the shared
    /// rows' right-hand sides change with the growth, and including from
    /// the snapshot of an unrelated LP whose names merely overlap.
    #[test]
    fn warm_start_grown_matches_cold(
        small in 3usize..7,
        extra in 1usize..5,
        costs in proptest::collection::vec(1u8..6, 12),
        budget_num in 3usize..9,  // budget rhs = stages * budget_num / 10
        pair_cap in 1usize..3,    // window rhs = 0.6 * pair_cap
        foreign in arb_lp(8, 6, true),
    ) {
        let build = |stages: usize| {
            let mut m = Model::new();
            let xs: Vec<_> = (0..stages)
                .map(|k| m.add_unit(-(costs[k % costs.len()] as f64), format!("x{k}")))
                .collect();
            let terms: Vec<_> = xs.iter().map(|&v| (v, 1.0)).collect();
            // The budget rhs scales with the stage count, so the grown
            // model changes this shared row's rhs — exercising the
            // bound-shifting warm-start repair.
            m.le(&terms, stages as f64 * budget_num as f64 / 10.0);
            for w in xs.windows(2) {
                m.le(&[(w[0], 1.0), (w[1], 1.0)], 0.6 * pair_cap as f64);
            }
            m
        };
        let opts = SolverOptions::default();
        let mut chain = WarmChain::new();
        chain.solve(&build(small), &opts).unwrap();
        let big = build(small + extra);
        let warm = chain.solve(&big, &opts).unwrap();
        let cold = big.solve_with(&opts).unwrap();
        let scale = 1.0 + warm.objective.abs().max(cold.objective.abs());
        prop_assert!(
            (warm.objective - cold.objective).abs() / scale < 10.0 * LP_TOL,
            "warm {} vs cold {}", warm.objective, cold.objective
        );
        prop_assert!(warm.stats.warm_attempted);
        prop_assert!(big.max_violation(&warm.values) < 10.0 * LP_TOL);

        // `foreign` names its variables `x{j}` too and its anonymous rows
        // share positions with `big`'s: whatever its basis maps to, the
        // answer is the cold one.
        let mut junk = WarmChain::new();
        if junk.solve(&crate::build(&foreign), &opts).is_ok() {
            let warm = junk.solve(&big, &opts).unwrap();
            prop_assert!(
                (warm.objective - cold.objective).abs() / scale < 10.0 * LP_TOL,
                "foreign snapshot: warm {} vs cold {}", warm.objective, cold.objective
            );
            prop_assert!(big.max_violation(&warm.values) < 10.0 * LP_TOL);
        }
    }
}

/// Deterministic regression battery: shapes that historically break naive
/// simplex implementations.
#[test]
fn regression_battery() {
    // Klee-Minty-ish 3D cube (exponential for greedy Dantzig, still must
    // terminate correctly).
    let mut m = Model::new();
    let x1 = m.add_nonneg(-100.0, "x1");
    let x2 = m.add_nonneg(-10.0, "x2");
    let x3 = m.add_nonneg(-1.0, "x3");
    m.le(&[(x1, 1.0)], 1.0);
    m.le(&[(x1, 20.0), (x2, 1.0)], 100.0);
    m.le(&[(x1, 200.0), (x2, 20.0), (x3, 1.0)], 10000.0);
    let s = m.solve().unwrap();
    let r = dense::solve(&m).unwrap();
    assert!((s.objective - r.objective).abs() < 1e-6);
    assert!((s.objective - (-10000.0)).abs() < 1e-5);

    // Redundant equalities (rank-deficient A rows describing the same
    // hyperplane) — phase 1 must cope with dependent artificial columns.
    let mut m = Model::new();
    let x = m.add_nonneg(1.0, "x");
    let y = m.add_nonneg(1.0, "y");
    m.eq(&[(x, 1.0), (y, 1.0)], 2.0);
    m.eq(&[(x, 2.0), (y, 2.0)], 4.0); // same plane scaled
    let s = m.solve().unwrap();
    assert!((s.objective - 2.0).abs() < 1e-6);

    // Equality chain forcing long pivoting sequences.
    let mut m = Model::new();
    let vars: Vec<_> = (0..12)
        .map(|i| m.add_var(1.0, 0.0, 10.0, format!("v{i}")))
        .collect();
    for pair in vars.windows(2) {
        m.eq(&[(pair[0], 1.0), (pair[1], -1.0)], 0.0);
    }
    m.ge(&[(vars[0], 1.0)], 3.0);
    let s = m.solve().unwrap();
    assert!(
        (s.objective - 36.0).abs() < 1e-5,
        "all twelve equal 3, obj {}",
        s.objective
    );
}

/// A medium LP with the structure of the paper's path-based formulation:
/// many [0,1] interval variables, per-flow convexity rows, per-edge-interval
/// capacity rows. Checks the solver at a realistic (if small) scale.
#[test]
fn pathlike_lp_medium() {
    let flows = 24usize;
    let paths = 3usize;
    let intervals = 8usize;
    let edges = 20usize;
    let tau: Vec<f64> = (0..=intervals)
        .map(|l| {
            if l == 0 {
                0.0
            } else {
                2.0f64.powi(l as i32 - 1)
            }
        })
        .collect();
    let mut m = Model::new();
    // x[f][p][l], completion c[f]
    let mut xv = vec![vec![vec![None; intervals]; paths]; flows];
    let mut cv = Vec::new();
    for f in 0..flows {
        cv.push(m.add_nonneg(1.0, format!("c{f}")));
        for p in 0..paths {
            for l in 0..intervals {
                xv[f][p][l] = Some(m.add_unit(0.0, format!("x{f}:{p}:{l}")));
            }
        }
    }
    for f in 0..flows {
        // Convexity.
        let mut terms = Vec::new();
        for p in 0..paths {
            for l in 0..intervals {
                terms.push((xv[f][p][l].unwrap(), 1.0));
            }
        }
        m.eq(&terms, 1.0);
        // Completion definition: c_f >= sum tau_l x.
        let mut terms: Vec<_> = (0..paths)
            .flat_map(|p| (0..intervals).map(move |l| (p, l)))
            .map(|(p, l)| (xv[f][p][l].unwrap(), tau[l + 1]))
            .collect();
        terms.push((cv[f], -1.0));
        m.le(&terms, 0.0);
    }
    // Capacity rows: flow f path p uses edges {(f+p) % E, (f+p+1) % E}.
    for l in 0..intervals {
        for e in 0..edges {
            let mut terms = Vec::new();
            for f in 0..flows {
                for p in 0..paths {
                    let e1 = (f + p) % edges;
                    let e2 = (f + p + 1) % edges;
                    if e == e1 || e == e2 {
                        // size 1 flows: bandwidth = x / interval length
                        let len = tau[l + 1] - tau[l];
                        terms.push((xv[f][p][l].unwrap(), 1.0 / len));
                    }
                }
            }
            if !terms.is_empty() {
                m.le(&terms, 1.0);
            }
        }
    }
    let sol = m.solve().expect("path-like LP should be feasible");
    assert!(m.max_violation(&sol.values) < 1e-6);
    assert!(sol.objective > 0.0);
    // Every completion must be >= earliest interval end where work fits.
    for f in 0..flows {
        assert!(
            sol.value(cv[f]) >= tau[1] - 1e-6,
            "flow {f} finishes impossibly early"
        );
    }
}

/// A miniature of the online engine's epoch LP (§2.2, one path per flow)
/// over the given `flows`: per flow, in order, a named convexity (`sum`),
/// completion (`cmp`) and precedence (`prec`) row; only then the named
/// capacity rows `cap{e}:{l}` (all but `skip_cap`). Admitting a flow
/// therefore inserts three rows *ahead of* every capacity row.
fn epoch_lp(flows: &[usize], skip_cap: Option<(usize, usize)>) -> Model {
    const INTERVALS: usize = 6;
    const EDGES: usize = 3;
    let tau = |l: usize| {
        if l == 0 {
            0.0
        } else {
            2.0f64.powi(l as i32 - 1)
        }
    };
    let size = |f: usize| 1.0 + 0.5 * (f * 7 % 5) as f64;
    let mut m = Model::new();
    let coflows: Vec<_> = (0..3)
        .map(|i| m.add_nonneg(1.0 + i as f64, format!("C{i}")))
        .collect();
    let mut x = Vec::new();
    for &f in flows {
        let c = m.add_nonneg(0.0, format!("c{f}"));
        let xs: Vec<_> = (0..INTERVALS)
            .map(|l| m.add_unit(0.0, format!("x{f}:{l}")))
            .collect();
        let ones: Vec<_> = xs.iter().map(|&v| (v, 1.0)).collect();
        m.add_row_named(Cmp::Eq, 1.0, &ones, format!("sum{f}"));
        let mut done: Vec<_> = xs.iter().enumerate().map(|(l, &v)| (v, tau(l))).collect();
        done.push((c, -1.0));
        m.add_row_named(Cmp::Le, 0.0, &done, format!("cmp{f}"));
        let prec = [(c, 1.0), (coflows[f % 3], -1.0)];
        m.add_row_named(Cmp::Le, 0.0, &prec, format!("prec{f}"));
        x.push((f, xs));
    }
    for e in 0..EDGES {
        for l in 0..INTERVALS {
            if skip_cap == Some((e, l)) {
                continue;
            }
            // Volume finished by the end of interval l fits through edge e.
            let terms: Vec<_> = x
                .iter()
                .filter(|(f, _)| f % EDGES == e || (3 * f + 1) % EDGES == e)
                .flat_map(|(f, xs)| xs[..=l].iter().map(|&v| (v, size(*f))))
                .collect();
            m.add_row_named(Cmp::Le, tau(l + 1), &terms, format!("cap{e}:{l}"));
        }
    }
    m
}

/// Rows inserted in the middle (an admitted flow's three rows sit ahead of
/// the capacity rows) or dropped (a capacity row the next epoch no longer
/// has) do not cost the warm start: the snapshot maps by key, not by row
/// index, so it is accepted, reaches the cold optimum and saves pivots.
#[test]
fn warm_start_survives_rows_inserted_and_dropped() {
    let opts = SolverOptions::default();
    let mut chain = WarmChain::new();
    chain
        .solve(&epoch_lp(&[0, 1, 2, 3, 4, 5, 6, 7], None), &opts)
        .unwrap();
    for skip_cap in [None, Some((1, 3))] {
        let next = epoch_lp(&[0, 1, 2, 3, 4, 5, 6, 7, 8], skip_cap);
        // A clone warm-starts from the same snapshot each time.
        let warm = chain.clone().solve(&next, &opts).unwrap();
        let cold = next.solve_with(&opts).unwrap();
        assert!(warm.stats.warm_used, "skip {skip_cap:?}: snapshot rejected");
        let scale = 1.0 + cold.objective.abs();
        assert!(
            (warm.objective - cold.objective).abs() / scale < 10.0 * LP_TOL,
            "skip {skip_cap:?}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.iterations < cold.iterations,
            "skip {skip_cap:?}: warm {} vs cold {} pivots",
            warm.iterations,
            cold.iterations
        );
    }
}

/// The warm-start repair can bring a variable back *into* its range, not
/// only *to* its bound. `u` sits at its upper bound in the snapshot; with
/// that bound raised, the mapped basis puts `xk` at −0.5 (below 0) and
/// `xj` at 1.0 (above 0.2), and every feasible point has `xk` in
/// `[0.3, 0.5]`. One phase 0 on the ranges `[−0.5, 0]` and `[0.2, 1.0]`
/// stops with `xk = 0` and `xj = 0.5`; only a second round, with `xk` free
/// over `[0, 1]` again, returns `xj`. The six filler rows keep two shifted
/// variables under the junk-basis threshold.
#[test]
fn warm_start_repair_reenters_range() {
    let build = |u_ub: f64, xj_ub: f64| {
        let mut m = Model::new();
        let xk = m.add_unit(0.0, "xk");
        let xj = m.add_var(0.0, 0.0, xj_ub, "xj");
        let u = m.add_var(-1.0, 0.0, u_ub, "u");
        m.add_row_named(Cmp::Eq, 0.5, &[(xk, 1.0), (xj, 1.0)], "link");
        m.add_row_named(Cmp::Eq, 1.0, &[(xk, 1.0), (u, 1.0)], "bal");
        for name in ["p", "q"] {
            let v = m.add_unit(0.0, name);
            m.add_row_named(Cmp::Le, 1.9, &[(xk, 1.0), (v, 1.0)], format!("k{name}"));
            m.add_row_named(Cmp::Le, 2.1, &[(xj, 1.0), (v, 2.0)], format!("j{name}"));
            m.add_row_named(Cmp::Le, 2.6, &[(u, 1.0), (v, 2.0)], format!("u{name}"));
        }
        m
    };
    let opts = SolverOptions::default();
    let mut chain = WarmChain::new();
    let before = chain.solve(&build(0.7, 1.0), &opts).unwrap();
    assert!((before.objective + 0.7).abs() < 1e-9);
    let after = build(1.5, 0.2);
    let warm = chain.solve(&after, &opts).unwrap();
    let cold = after.solve_with(&opts).unwrap();
    assert!(warm.stats.warm_used, "repairable snapshot rejected");
    assert!((warm.objective - cold.objective).abs() < 1e-9);
    assert!(
        (warm.values[0] - 0.3).abs() < 1e-9,
        "xk = {}",
        warm.values[0]
    );
}
