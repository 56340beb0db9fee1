//! Delayed column generation: restricted masters, dual-priced oracles, and
//! a persistent column pool.
//!
//! The paper's path-formulation LPs (§2.2 (15)–(23), §3.2 (25)–(32)) range
//! over *all* candidate paths per flow × interval. Materializing that set
//! eagerly is the single biggest wall-clock cost in the repo: the simplex
//! prices hundreds of thousands of columns that never enter the basis.
//! Column generation is the textbook fix — solve a *restricted master* over
//! a small column subset, then ask a *pricing oracle* (a shortest-path
//! computation under the master's row duals) for the most-negative-
//! reduced-cost column not yet present, inject it, and re-solve until no
//! improving column exists. Because the master only ever *grows* and every
//! column keeps a stable name, each re-solve warm-starts from the previous
//! optimal basis through the ordinary [`WarmChain`] machinery.
//!
//! This module hosts the LP-generic pieces:
//!
//! * [`solve_colgen`] — the restricted-master loop. It is oracle-agnostic:
//!   the caller supplies a closure that reads the current [`Solution`]'s
//!   row duals and appends improving columns via [`Model::add_column`],
//!   returning how many it added (0 terminates the loop). A constraint no
//!   present column loads need not exist yet: the closure may append it,
//!   empty, just before the first column that loads it, so a master carries
//!   only the rows its columns touch.
//! * [`ColumnPool`] — a persistent, generic interning pool: columns are
//!   deduplicated by a caller-chosen `u64` signature within a *group*
//!   (one group per flow at the call sites), and every interned item gets
//!   a **stable index** within its group. Call sites derive variable names
//!   from `(group, stable index)`, so rebuilding a master from the same
//!   pool — the next solve of a growing sequence, or the next epoch of the
//!   online engine — reproduces every column's name and the
//!   [`WarmChain`]'s basis snapshot still maps onto it.
//! * [`ColGenStats`] — per-run accounting: rounds, columns generated vs
//!   seeded, oracle time vs master (simplex) time.
//!
//! What this module deliberately does *not* know about: graphs, paths,
//! intervals. The oracles live next to their formulations
//! (`coflow_net::pricing` for the Dijkstra/Bellman–Ford machinery,
//! `coflow_core` for the LP-specific reduced-cost assembly).

use crate::basis::SolveStats;
use crate::fault::{perturb_duals_in_place, ColgenFault};
use crate::model::{LpError, Model, Solution, SolverOptions};
use crate::WarmChain;
use coflow_obs::{Counter, SpanName};
// lint: allow(hash_order) — by_sig is a lookup-only dedup index, never iterated
use std::collections::HashMap;

/// A persistent interning pool for generated columns.
///
/// Items (e.g. [`Path`](../coflow_net/struct.Path.html)s) are deduplicated
/// by `(group, signature)` and receive a stable per-group index in
/// insertion order. The pool outlives individual solves: threading one pool
/// through a sequence of related masters (growing grids, online epochs)
/// means later solves are *seeded* with every column earlier solves paid an
/// oracle call to discover.
#[derive(Clone, Debug)]
pub struct ColumnPool<T> {
    groups: Vec<PoolGroup<T>>,
}

#[derive(Clone, Debug)]
struct PoolGroup<T> {
    by_sig: HashMap<u64, u32>,
    items: Vec<T>,
}

impl<T> Default for PoolGroup<T> {
    fn default() -> Self {
        Self {
            by_sig: HashMap::new(),
            items: Vec::new(),
        }
    }
}

impl<T> Default for ColumnPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ColumnPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self { groups: Vec::new() }
    }

    /// Number of groups ever touched.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total items across all groups.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.items.len()).sum()
    }

    /// True when no item has been interned.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(|g| g.items.is_empty())
    }

    /// The items of `group` in stable (insertion) order; empty for groups
    /// never touched.
    pub fn group(&self, group: usize) -> &[T] {
        self.groups.get(group).map_or(&[], |g| &g.items)
    }

    /// True when `(group, signature)` is already interned.
    pub fn contains(&self, group: usize, signature: u64) -> bool {
        self.groups
            .get(group)
            .is_some_and(|g| g.by_sig.contains_key(&signature))
    }

    /// Interns an item: returns its stable index within `group` and whether
    /// it was newly inserted (`make` runs only on insertion).
    pub fn insert_with(
        &mut self,
        group: usize,
        signature: u64,
        make: impl FnOnce() -> T,
    ) -> (u32, bool) {
        if group >= self.groups.len() {
            self.groups.resize_with(group + 1, PoolGroup::default);
        }
        let g = &mut self.groups[group];
        if let Some(&idx) = g.by_sig.get(&signature) {
            return (idx, false);
        }
        let idx = g.items.len() as u32;
        g.by_sig.insert(signature, idx);
        g.items.push(make());
        (idx, true)
    }

    /// Drops every interned item (groups stay allocated).
    pub fn clear(&mut self) {
        for g in &mut self.groups {
            g.by_sig.clear();
            g.items.clear();
        }
    }
}

/// Accounting of one [`solve_colgen`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ColGenStats {
    /// Restricted-master solves performed (≥ 1).
    pub rounds: usize,
    /// Structural columns the initial master was seeded with.
    pub seeded_cols: usize,
    /// Columns the pricing oracle injected across all rounds.
    pub generated_cols: usize,
    /// Structural columns of the final master (`seeded + generated`).
    pub final_cols: usize,
    /// Total simplex pivots across all master solves.
    pub total_iterations: usize,
    /// Time inside the master solves, in milliseconds — the sum of the
    /// trace's `master` span durations (ticks under the logical clock).
    pub master_ms: f64,
    /// Time inside the pricing oracle, in milliseconds — the sum of the
    /// trace's `oracle` span durations (ticks under the logical clock).
    pub pricing_ms: f64,
    /// True when the loop stopped because the oracle found nothing
    /// (optimality over the full column set is certified); false when it
    /// stopped at `max_rounds` (the solution is only the *restricted*
    /// optimum).
    pub converged: bool,
    /// The final master solve's statistics.
    pub last: SolveStats,
}

/// Solves `model` by delayed column generation.
///
/// `model` is the seeded restricted master (columns restricted, and rows
/// too where no column loads them yet); `price` inspects the current
/// optimal [`Solution`] — its `duals` in particular — and appends improving
/// columns to the model via [`Model::add_column`], returning how many it
/// added. The loop re-solves
/// (warm-started through `chain`, since the master only grows and names are
/// stable) until the oracle adds nothing or `max_rounds` is reached, and
/// returns the last solution together with [`ColGenStats`].
///
/// Two degradation controls tighten the loop without failing it, both
/// returning the current restricted optimum with `converged = false`:
/// [`SolverOptions::budget`]'s `max_colgen_rounds` caps rounds below the
/// caller's `max_rounds`, and an installed
/// [`FaultHook`](crate::FaultHook) may abort a round's pricing or perturb
/// the duals handed to the oracle (chaos testing of exactly that degraded
/// path).
///
/// Correctness contract for `price`:
/// * it may append **columns**, and **rows that only those new columns
///   load** — a constraint no earlier column touches, such as a capacity
///   row created when a generated column first loads it (asserted); it
///   must never add a column that is already present, or the loop cannot
///   terminate;
/// * a row created after the solution it reads has no entry in its
///   `duals` and prices at 0: no column that solution saw loads it;
/// * returning 0 asserts that no column of the full formulation has a
///   negative reduced cost, i.e. the restricted optimum is the full
///   optimum.
///
/// # Panics
/// If `price` gives a coefficient to a column that existed before the
/// round.
pub fn solve_colgen(
    model: &mut Model,
    opts: &SolverOptions,
    chain: &mut WarmChain,
    max_rounds: usize,
    mut price: impl FnMut(&Solution, &mut Model) -> usize,
) -> Result<(Solution, ColGenStats), LpError> {
    assert!(max_rounds >= 1, "need at least one master solve");
    let cap = match opts.budget.max_colgen_rounds {
        Some(b) => max_rounds.min(b.max(1)),
        None => max_rounds,
    };
    let mut stats = ColGenStats {
        seeded_cols: model.num_vars(),
        ..Default::default()
    };
    loop {
        stats.rounds += 1;
        // The round/master/oracle spans live in the chain's recorder; the
        // `master_ms`/`pricing_ms` stats are read back off the span records
        // (one clock, one bookkeeping system).
        chain.obs().enter(SpanName::ColgenRound);
        chain.obs().enter(SpanName::Master);
        let res = chain.solve(model, opts);
        let master = chain.obs().exit();
        let sol = match res {
            Ok(sol) => sol,
            Err(e) => {
                chain.obs().exit(); // balance the colgen_round span
                return Err(e);
            }
        };
        stats.master_ms += chain.obs().mode().to_ms(master.dur);
        stats.total_iterations += sol.stats.iterations;
        stats.last = sol.stats;
        // Stop *before* pricing when the round budget is exhausted, so the
        // returned solution is always optimal for the returned master.
        if stats.rounds >= cap {
            chain.obs().exit();
            stats.final_cols = model.num_vars();
            return Ok((sol, stats));
        }
        // Fault hook: consulted at this serial point, once per round, before
        // the duals reach the oracle (see `crate::fault` for the contract).
        let fault = chain
            .fault_hook_mut()
            .map_or(ColgenFault::None, |h| h.on_colgen_round(stats.rounds));
        if fault != ColgenFault::None {
            chain.obs().bump(Counter::FaultsInjected, 1);
        }
        if fault == ColgenFault::AbortPricing {
            // Oracle outage: the restricted optimum, un-converged — the same
            // degraded contract as hitting the round budget.
            chain.obs().exit();
            stats.final_cols = model.num_vars();
            return Ok((sol, stats));
        }
        let (cols_before, terms_before) = (model.num_vars(), model.triplets.len());
        chain.obs().enter(SpanName::Oracle);
        let added = if let ColgenFault::PerturbDuals(eps) = fault {
            let mut noisy = sol.clone();
            perturb_duals_in_place(&mut noisy.duals, eps);
            price(&noisy, model)
        } else {
            price(&sol, model)
        };
        let oracle = chain.obs().exit();
        stats.pricing_ms += chain.obs().mode().to_ms(oracle.dur);
        chain.obs().exit();
        assert!(
            model.triplets[terms_before..]
                .iter()
                .all(|&(_, c, _)| c as usize >= cols_before),
            "pricing oracles may only add columns, and rows that only those columns load"
        );
        stats.generated_cols += added;
        if added == 0 {
            stats.converged = true;
            stats.final_cols = model.num_vars();
            return Ok((sol, stats));
        }
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::model::Cmp;

    #[test]
    fn pool_dedups_by_signature_with_stable_indices() {
        let mut pool: ColumnPool<Vec<u32>> = ColumnPool::new();
        let (a, fresh_a) = pool.insert_with(0, 0xFEED, || vec![1, 2]);
        let (b, fresh_b) = pool.insert_with(0, 0xBEEF, || vec![3]);
        let (a2, fresh_a2) = pool.insert_with(0, 0xFEED, || panic!("must not rebuild"));
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!((a, b, a2), (0, 1, 0));
        assert_eq!(pool.group(0), &[vec![1, 2], vec![3]]);
        // Same signature in another group is a distinct entry.
        let (c, fresh_c) = pool.insert_with(3, 0xFEED, || vec![9]);
        assert!(fresh_c);
        assert_eq!(c, 0);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.group_count(), 4);
        assert!(pool.group(1).is_empty());
        assert!(pool.contains(0, 0xBEEF) && !pool.contains(1, 0xBEEF));
        pool.clear();
        assert!(pool.is_empty());
    }

    /// Transportation LP solved by column generation must match the eager
    /// full-column solve exactly, while generating only the columns it
    /// needs.
    #[test]
    fn colgen_matches_eager_on_transport() {
        let n = 8usize;
        let cost = |i: usize, j: usize| ((i * 7 + j * 13) % 10) as f64 + 1.0;
        let supply = |i: usize| 1.0 + (i % 3) as f64;
        let demand_cap: f64 = (0..n).map(supply).sum::<f64>() / n as f64 + 1.0;

        // Eager: all n² columns.
        let mut full = Model::new();
        let mut vars = vec![vec![]; n];
        for (i, row) in vars.iter_mut().enumerate() {
            for j in 0..n {
                row.push(full.add_nonneg(cost(i, j), format!("x{i}_{j}")));
            }
        }
        for (i, row) in vars.iter().enumerate() {
            let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
            full.add_row(Cmp::Eq, supply(i), &terms);
        }
        for j in 0..n {
            let terms: Vec<_> = (0..n).map(|i| (vars[i][j], 1.0)).collect();
            full.add_row(Cmp::Le, demand_cap, &terms);
        }
        let eager = full.solve().unwrap();

        // Restricted master: rows first, then a sparse diagonal seed.
        let mut m = Model::new();
        let supply_rows: Vec<_> = (0..n).map(|i| m.add_row(Cmp::Eq, supply(i), &[])).collect();
        let demand_rows: Vec<_> = (0..n)
            .map(|_| m.add_row(Cmp::Le, demand_cap, &[]))
            .collect();
        let mut present = std::collections::HashSet::new();
        for i in 0..n {
            for j in [i, (i + n / 2) % n] {
                m.add_column(
                    cost(i, j),
                    0.0,
                    f64::INFINITY,
                    format!("x{i}_{j}"),
                    &[(supply_rows[i], 1.0), (demand_rows[j], 1.0)],
                );
                present.insert((i, j));
            }
        }

        let mut chain = WarmChain::new();
        let (sol, stats) = solve_colgen(
            &mut m,
            &SolverOptions::default(),
            &mut chain,
            100,
            |sol, m| {
                let mut added = 0;
                for i in 0..n {
                    for j in 0..n {
                        if present.contains(&(i, j)) {
                            continue;
                        }
                        let d = cost(i, j) - sol.dual(supply_rows[i]) - sol.dual(demand_rows[j]);
                        if d < -1e-9 {
                            m.add_column(
                                cost(i, j),
                                0.0,
                                f64::INFINITY,
                                format!("x{i}_{j}"),
                                &[(supply_rows[i], 1.0), (demand_rows[j], 1.0)],
                            );
                            present.insert((i, j));
                            added += 1;
                        }
                    }
                }
                added
            },
        )
        .unwrap();

        assert!(
            (sol.objective - eager.objective).abs() < 1e-7,
            "colgen {} vs eager {}",
            sol.objective,
            eager.objective
        );
        assert_eq!(stats.seeded_cols, 2 * n);
        assert_eq!(stats.final_cols, stats.seeded_cols + stats.generated_cols);
        assert!(
            stats.final_cols < n * n,
            "colgen must not materialize the full column set ({} vs {})",
            stats.final_cols,
            n * n
        );
        assert!(stats.rounds >= 2, "pricing must have fired");
        assert_eq!(chain.stats().solves, stats.rounds);
    }

    /// An oracle may create a row together with the columns that load it:
    /// here the restricted master starts with no demand-cap rows at all,
    /// and each capacity row is appended just before the first generated
    /// column that loads it — a row the solution being priced does not
    /// know reads as dual 0. The loop still reaches the eager optimum.
    #[test]
    fn oracle_may_add_rows_only_its_new_columns_load() {
        let n = 6usize;
        let cost = |i: usize, j: usize| ((i * 5 + j * 11) % 7) as f64 + 1.0;
        let cap = 1.5;

        let mut full = Model::new();
        let vars: Vec<Vec<_>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| full.add_nonneg(cost(i, j), format_args!("x{i}_{j}")))
                    .collect()
            })
            .collect();
        for row in &vars {
            let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
            full.add_row(Cmp::Eq, 1.0, &terms);
        }
        for j in 0..n {
            let terms: Vec<_> = (0..n).map(|i| (vars[i][j], 1.0)).collect();
            full.add_row_named(Cmp::Le, cap, &terms, format_args!("cap{j}"));
        }
        let eager = full.solve().unwrap();

        // Seed: one expensive slack column per supply row, so pricing must
        // fire; no capacity row exists yet.
        let mut m = Model::new();
        let supply: Vec<_> = (0..n).map(|_| m.add_row(Cmp::Eq, 1.0, &[])).collect();
        for (i, &r) in supply.iter().enumerate() {
            m.add_column(100.0, 0.0, f64::INFINITY, format_args!("s{i}"), &[(r, 1.0)]);
        }
        let mut caps: Vec<Option<crate::RowId>> = vec![None; n];
        let mut present = std::collections::HashSet::new();
        let (sol, stats) = solve_colgen(
            &mut m,
            &SolverOptions::default(),
            &mut WarmChain::new(),
            100,
            |sol, m| {
                let mut added = 0;
                for i in 0..n {
                    for j in 0..n {
                        let y_cap = caps[j]
                            .and_then(|r| sol.duals.get(r.index()))
                            .map_or(0.0, |&y| y);
                        let d = cost(i, j) - sol.dual(supply[i]) - y_cap;
                        if d < -1e-9 && present.insert((i, j)) {
                            let row = *caps[j].get_or_insert_with(|| {
                                m.add_row_named(Cmp::Le, cap, &[], format_args!("cap{j}"))
                            });
                            m.add_column(
                                cost(i, j),
                                0.0,
                                f64::INFINITY,
                                format_args!("x{i}_{j}"),
                                &[(supply[i], 1.0), (row, 1.0)],
                            );
                            added += 1;
                        }
                    }
                }
                added
            },
        )
        .unwrap();
        assert!(stats.converged && stats.rounds >= 2);
        assert!(
            (sol.objective - eager.objective).abs() < 1e-7,
            "colgen {} vs eager {}",
            sol.objective,
            eager.objective
        );
        assert_eq!(m.num_rows(), n + caps.iter().flatten().count());
    }

    /// A row that loads a column of an earlier round changes what that
    /// round's optimum meant: the loop refuses it.
    #[test]
    #[should_panic(expected = "pricing oracles may only add columns")]
    fn oracle_may_not_give_an_existing_column_a_term() {
        let mut m = Model::new();
        let r = m.add_row(Cmp::Ge, 1.0, &[]);
        let x = m.add_column(2.0, 0.0, f64::INFINITY, "a", &[(r, 1.0)]);
        let _ = solve_colgen(
            &mut m,
            &SolverOptions::default(),
            &mut WarmChain::new(),
            4,
            |_, m| {
                let y = m.add_column(1.0, 0.0, f64::INFINITY, "b", &[(r, 1.0)]);
                m.add_row(Cmp::Le, 1.0, &[(x, 1.0), (y, 1.0)]);
                1
            },
        );
    }

    /// A master solve that exhausts the recovery ladder surfaces as
    /// `LpError::Numerical` from `solve_colgen` itself: the error is not
    /// swallowed, pricing never runs, and the chain stays usable for a
    /// retry once the hook is cleared.
    #[test]
    fn numerical_failure_propagates_out_of_solve_colgen() {
        struct AlwaysFail;
        impl crate::FaultHook for AlwaysFail {
            fn on_factorization(&mut self) -> bool {
                true
            }
        }
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_nonneg(2.0, "y");
        m.add_row(Cmp::Ge, 1.0, &[(x, 1.0), (y, 1.0)]);
        m.add_row(Cmp::Ge, 1.0, &[(x, 1.0), (y, 2.0)]);

        let mut chain = WarmChain::new();
        chain.set_fault_hook(Some(Box::new(AlwaysFail)));
        let mut priced = 0usize;
        let err = solve_colgen(&mut m, &SolverOptions::default(), &mut chain, 4, |_, _| {
            priced += 1;
            0
        })
        .unwrap_err();
        assert!(matches!(err, LpError::Numerical(_)), "{err:?}");
        assert_eq!(priced, 0, "pricing must not run after a failed master");

        // Clearing the hook heals the chain: the same model now solves.
        chain.set_fault_hook(None);
        let (sol, stats) =
            solve_colgen(&mut m, &SolverOptions::default(), &mut chain, 4, |_, _| 0).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-9);
        assert_eq!(stats.rounds, 1);
    }

    /// Hitting the round cap returns the current restricted optimum (still
    /// a valid LP solution of the *restricted* master).
    #[test]
    fn round_cap_returns_restricted_optimum() {
        let mut m = Model::new();
        let r = m.add_row(Cmp::Ge, 1.0, &[]);
        m.add_column(2.0, 0.0, f64::INFINITY, "a", &[(r, 1.0)]);
        let mut calls = 0usize;
        let (sol, stats) = solve_colgen(
            &mut m,
            &SolverOptions::default(),
            &mut WarmChain::new(),
            1,
            |_, _| {
                calls += 1;
                1
            },
        )
        .unwrap();
        assert_eq!(calls, 0, "round cap must stop before pricing");
        assert_eq!(stats.rounds, 1);
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }
}
