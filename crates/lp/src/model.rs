//! LP model builder and solution types.

use crate::basis::{Basis, SolveStats};
use crate::nonzero;
use crate::{presolve, simplex, LP_TOL};
use std::fmt;

/// Identifier of a decision variable (dense index into the model).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// Identifier of a constraint row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u32);

impl VarId {
    /// Index view.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RowId {
    /// Index view.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Constraint sense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `a·x <= b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x >= b`
    Ge,
}

/// Termination status of a solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Proven optimal within tolerance.
    Optimal,
    /// A [`Budget`] ran out after feasibility was reached: the returned
    /// point is primal feasible but possibly suboptimal. The gap to the
    /// true optimum is bracketed by [`Solution::bound`].
    Truncated,
}

/// Solver failure modes.
#[derive(Clone, PartialEq, Debug)]
pub enum LpError {
    /// No feasible point exists (phase-1 optimum > tolerance).
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// Iteration limit was exhausted (see [`SolverOptions::max_iters`]).
    IterationLimit,
    /// A [`Budget`] ran out *before* a feasible point was found (phase 1
    /// still running), so there is nothing usable to return. Budgets that
    /// expire after feasibility yield [`Status::Truncated`] instead.
    BudgetExhausted,
    /// Numerical trouble the solver could not recover from.
    Numerical(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP is infeasible"),
            LpError::Unbounded => write!(f, "LP is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit reached"),
            LpError::BudgetExhausted => {
                write!(
                    f,
                    "solver budget exhausted before a feasible point was found"
                )
            }
            LpError::Numerical(s) => write!(f, "numerical failure: {s}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Resource budget for a single solve (and, through
/// [`solve_colgen`](crate::solve_colgen), a column-generation sequence).
///
/// All limits default to `None` (unlimited — the behavior before budgets
/// existed). When a limit trips *after* phase 1 has produced a feasible
/// point, the solve returns that point with [`Status::Truncated`] and a
/// valid objective bound instead of an error; tripping during phase 1
/// yields [`LpError::BudgetExhausted`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budget {
    /// Hard cap on simplex pivots for one solve, across both phases.
    /// Unlike [`SolverOptions::max_iters`] (which errors), exhausting this
    /// truncates gracefully.
    pub max_pivots: Option<usize>,
    /// Deadline on the solve's `coflow_obs` clock (comparing against the
    /// recorder's raw stamps, so under `ClockMode::Logical` this is a tick
    /// count and fully deterministic). Checked once per pivot using the
    /// stamp the pivot loop already takes — budgets never add clock reads.
    pub deadline: Option<u64>,
    /// Cap on column-generation rounds, tightening the `max_rounds`
    /// argument of [`solve_colgen`](crate::solve_colgen).
    pub max_colgen_rounds: Option<usize>,
}

/// Options controlling the simplex.
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Hard cap on simplex iterations across both phases.
    pub max_iters: usize,
    /// Verify the returned solution (feasibility + objective consistency)
    /// and fail the solve with [`LpError::Numerical`] on violation. Enabled
    /// by default in debug builds.
    pub verify: bool,
    /// Relative magnitude of a deterministic phase-2 cost perturbation
    /// (0 = exact costs). Interval-indexed coflow LPs are massively
    /// degenerate; a `~1e-7` perturbation breaks ties and cuts pivot counts
    /// by an order of magnitude. The reported objective is always
    /// recomputed with the *true* costs; the returned vertex is optimal for
    /// the perturbed problem, hence within `perturb · Σ|x|·scale` of the
    /// true optimum.
    pub perturb: f64,
    /// Ignored: every solve and every column-generation pricing round runs
    /// on the calling thread. Kept (default 1) only because the benchmark
    /// harness still sets it; it goes once the harness stops.
    pub threads: usize,
    /// Resource budget (pivots / clock deadline / colgen rounds). The
    /// default is unlimited; see [`Budget`] for truncation semantics.
    pub budget: Budget,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            max_iters: 2_000_000,
            verify: cfg!(debug_assertions),
            perturb: 0.0,
            threads: 1,
            budget: Budget::default(),
        }
    }
}

impl SolverOptions {
    /// Options tuned for the large, degenerate experiment LPs.
    pub fn for_experiments() -> Self {
        Self {
            perturb: 1e-7,
            verify: false,
            ..Default::default()
        }
    }
}

/// The integer identity a [`Basis`] snapshot knows a column or row by,
/// computed once at insertion: FNV-1a over the name's formatted bytes
/// through the splitmix64 finisher (a fixed function — no `RandomState` — so
/// keys and everything downstream of them are the same in every run), with
/// the top bit set. The name is hashed as it is formatted, never collected
/// into a `String`; `format_args!("x{i}")` keys exactly as the text it
/// formats to. A name that writes no bytes is anonymous and keyed by its `index` with
/// the top bit clear, so anonymous entries keep their identity exactly while
/// a related model keeps them at the same position (prefix growth).
pub(crate) fn key_of(name: impl fmt::Display, index: usize) -> u64 {
    const NAMED: u64 = 1 << 63;
    let mut sink = Fnv1a {
        hash: 0xCBF2_9CE4_8422_2325,
        named: false,
    };
    // Writing into `Fnv1a` cannot fail; only a `Display` impl that
    // reports an error could, and its bytes so far are still a key.
    let _ = fmt::write(&mut sink, format_args!("{name}"));
    if !sink.named {
        return index as u64 & !NAMED;
    }
    simplex::splitmix64(sink.hash) | NAMED
}

/// The FNV-1a state [`key_of`] feeds a name's formatted bytes into.
struct Fnv1a {
    hash: u64,
    /// Whether any byte was written.
    named: bool,
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.named |= !s.is_empty();
        for &b in s.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// A variable's static data.
#[derive(Clone, Debug)]
pub(crate) struct Column {
    pub cost: f64,
    pub lb: f64,
    pub ub: f64,
    /// [`key_of`] the name: the column's identity across related models.
    /// The name itself is not kept.
    pub key: u64,
}

const _: () = assert!(std::mem::size_of::<Column>() == 32);

/// A constraint row's static data.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    pub cmp: Cmp,
    pub rhs: f64,
    /// [`key_of`] the name the row was added under (its index when
    /// anonymous). Keys let a [`Basis`] snapshot tell which rows of a
    /// related model it has seen and whether their *slack* was basic, which
    /// is what makes warm starts of inequality-heavy LPs effective.
    pub key: u64,
}

/// Builder for a linear program `min cᵀx  s.t.  Ax {<=,=,>=} b, l <= x <= u`.
///
/// * Lower bounds must be finite (all coflow LPs have `l = 0`).
/// * Upper bounds may be `f64::INFINITY`.
/// * Duplicate `(var, coef)` terms within a row are summed.
#[derive(Clone, Debug, Default)]
pub struct Model {
    pub(crate) cols: Vec<Column>,
    pub(crate) rows: Vec<Row>,
    /// Sparse constraint coefficients as (row, col, coef) triplets.
    pub(crate) triplets: Vec<(u32, u32, f64)>,
}

impl Model {
    /// New empty minimization model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with objective coefficient `cost` and bounds
    /// `[lb, ub]`; returns its id. `name` is hashed into the column's key
    /// as it is formatted — a `format_args!` name allocates nothing — and
    /// one that formats to nothing leaves the column anonymous.
    ///
    /// # Panics
    /// If `lb` is not finite, `lb > ub`, or `cost` is not finite.
    pub fn add_var(&mut self, cost: f64, lb: f64, ub: f64, name: impl fmt::Display) -> VarId {
        assert!(lb.is_finite(), "lower bound must be finite");
        assert!(!ub.is_nan() && ub >= lb, "need lb <= ub, got [{lb}, {ub}]");
        assert!(cost.is_finite(), "cost must be finite");
        let id = VarId(self.cols.len() as u32);
        self.cols.push(Column {
            cost,
            lb,
            ub,
            key: key_of(name, id.index()),
        });
        id
    }

    /// Shorthand for a `[0, inf)` variable.
    pub fn add_nonneg(&mut self, cost: f64, name: impl fmt::Display) -> VarId {
        self.add_var(cost, 0.0, f64::INFINITY, name)
    }

    /// Shorthand for a `[0, 1]` variable.
    pub fn add_unit(&mut self, cost: f64, name: impl fmt::Display) -> VarId {
        self.add_var(cost, 0.0, 1.0, name)
    }

    /// Adds constraint `Σ terms {cmp} rhs`; returns the row id.
    ///
    /// Duplicate `(var, coef)` terms are **summed once here**, so presolve
    /// and the solver never re-scan for duplicates: every stored
    /// row has unique variables and nonzero coefficients (terms whose sum
    /// cancels to zero are dropped entirely).
    ///
    /// # Panics
    /// If `rhs` or any coefficient is not finite, or a var id is invalid.
    pub fn add_row(&mut self, cmp: Cmp, rhs: f64, terms: &[(VarId, f64)]) -> RowId {
        self.add_row_named(cmp, rhs, terms, "")
    }

    /// [`Model::add_row`] with a stable row name. Naming a row lets basis
    /// snapshots carry the row's basic-slack status into a related model
    /// wherever the row sits there (see [`WarmChain`](crate::WarmChain));
    /// anonymous rows solve identically but are recognized by position
    /// only.
    pub fn add_row_named(
        &mut self,
        cmp: Cmp,
        rhs: f64,
        terms: &[(VarId, f64)],
        name: impl fmt::Display,
    ) -> RowId {
        assert!(rhs.is_finite(), "rhs must be finite");
        let id = RowId(self.rows.len() as u32);
        self.rows.push(Row {
            cmp,
            rhs,
            key: key_of(name, id.index()),
        });
        let start = self.triplets.len();
        for &(v, c) in terms {
            assert!(c.is_finite(), "coefficient must be finite");
            assert!(v.index() < self.cols.len(), "unknown variable {v:?}");
            if nonzero(c) {
                self.triplets.push((id.0, v.0, c));
            }
        }
        // Canonicalize the row in place: sort by variable, merge duplicates,
        // drop exact cancellations. Rows are short, so this is cheap — and
        // it runs once per row instead of once per solve.
        let row = &mut self.triplets[start..];
        if row.len() > 1 {
            row.sort_unstable_by_key(|&(_, c, _)| c);
            let mut w = start;
            let mut i = start;
            while i < self.triplets.len() {
                let (r, c, mut a) = self.triplets[i];
                let mut k = i + 1;
                while k < self.triplets.len() && self.triplets[k].1 == c {
                    a += self.triplets[k].2;
                    k += 1;
                }
                if nonzero(a) {
                    self.triplets[w] = (r, c, a);
                    w += 1;
                }
                i = k;
            }
            self.triplets.truncate(w);
        }
        id
    }

    /// Appends a new variable together with its coefficients in *existing*
    /// rows — the column-generation dual of [`Model::add_row`]. Duplicate
    /// `(row, coef)` terms are summed and exact cancellations dropped, so
    /// stored columns have unique rows, mirroring the row-side guarantee.
    ///
    /// # Panics
    /// If a row id is invalid or a coefficient is not finite (bounds/cost
    /// are validated by [`Model::add_var`]).
    pub fn add_column(
        &mut self,
        cost: f64,
        lb: f64,
        ub: f64,
        name: impl fmt::Display,
        terms: &[(RowId, f64)],
    ) -> VarId {
        let v = self.add_var(cost, lb, ub, name);
        let mut col: Vec<(u32, f64)> = Vec::with_capacity(terms.len());
        for &(r, c) in terms {
            assert!(c.is_finite(), "coefficient must be finite");
            assert!(r.index() < self.rows.len(), "unknown row {r:?}");
            if nonzero(c) {
                col.push((r.0, c));
            }
        }
        col.sort_unstable_by_key(|&(r, _)| r);
        let mut i = 0;
        while i < col.len() {
            let (r, mut a) = col[i];
            let mut k = i + 1;
            while k < col.len() && col[k].0 == r {
                a += col[k].1;
                k += 1;
            }
            if nonzero(a) {
                self.triplets.push((r, v.0, a));
            }
            i = k;
        }
        v
    }

    /// `Σ terms <= rhs`.
    pub fn le(&mut self, terms: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(Cmp::Le, rhs, terms)
    }

    /// `Σ terms >= rhs`.
    pub fn ge(&mut self, terms: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(Cmp::Ge, rhs, terms)
    }

    /// `Σ terms = rhs`.
    pub fn eq(&mut self, terms: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(Cmp::Eq, rhs, terms)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Solves with default options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solves with explicit options.
    pub fn solve_with(&self, opts: &SolverOptions) -> Result<Solution, LpError> {
        let mut scratch = crate::scratch::Scratch::default();
        Ok(self.solve_in(opts, None, &mut scratch)?.0)
    }

    /// Solves in `scratch`, warm-started from `warm` when given, and
    /// returns the solution with this model's own basis snapshot: the path
    /// of every solve, [`WarmChain`](crate::WarmChain)'s with its retained
    /// workspace and one-shot solves with a transient one.
    pub(crate) fn solve_in(
        &self,
        opts: &SolverOptions,
        warm: Option<&Basis>,
        scratch: &mut crate::scratch::Scratch,
    ) -> Result<(Solution, Basis), LpError> {
        let pre = presolve::presolve(self)?;
        let (sol, basis) = simplex::solve_presolved(self, &pre, opts, warm, scratch)?;
        if opts.verify {
            // Feasibility and objective consistency hold for truncated
            // points too; only reduced-cost optimality would not.
            self.verify_solution(&sol, LP_TOL.max(1e-6) * 100.0)?;
        }
        Ok((sol, basis))
    }

    /// Objective value of an assignment (no feasibility check).
    pub fn objective_of(&self, values: &[f64]) -> f64 {
        self.cols.iter().zip(values).map(|(c, &v)| c.cost * v).sum()
    }

    /// Maximum constraint violation of an assignment.
    pub fn max_violation(&self, values: &[f64]) -> f64 {
        let mut act = vec![0.0; self.rows.len()];
        for &(r, c, a) in &self.triplets {
            act[r as usize] += a * values[c as usize];
        }
        let mut worst = 0.0_f64;
        for (row, &a) in self.rows.iter().zip(&act) {
            let v = match row.cmp {
                Cmp::Le => a - row.rhs,
                Cmp::Ge => row.rhs - a,
                Cmp::Eq => (a - row.rhs).abs(),
            };
            worst = worst.max(v);
        }
        for (col, &x) in self.cols.iter().zip(values) {
            worst = worst.max(col.lb - x).max(x - col.ub);
        }
        worst
    }

    /// Fails if `sol` violates feasibility by more than `tol` or reports
    /// an objective its own values do not reproduce (used by
    /// `SolverOptions::verify`).
    fn verify_solution(&self, sol: &Solution, tol: f64) -> Result<(), LpError> {
        // `!within` rather than `> tol`, so a NaN fails the check.
        let within = |v: f64| v <= tol;
        let viol = self.max_violation(&sol.values);
        if !within(viol) {
            return Err(LpError::Numerical(format!(
                "solver returned infeasible point: violation {viol:.3e} > {tol:.3e}"
            )));
        }
        let obj = self.objective_of(&sol.values);
        let scale = 1.0 + obj.abs().max(sol.objective.abs());
        if !within((obj - sol.objective).abs() / scale) {
            return Err(LpError::Numerical(format!(
                "objective mismatch: reported {} recomputed {obj}",
                sol.objective
            )));
        }
        Ok(())
    }
}

/// An optimal (or budget-truncated feasible) solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Objective value of the returned point (optimal unless
    /// [`Status::Truncated`]).
    pub objective: f64,
    /// A valid lower bound on the optimum of the solver's working
    /// objective. Equals `objective` for [`Status::Optimal`]; for
    /// [`Status::Truncated`] it is the Lagrangian bound at the last dual
    /// iterate (`-inf` when the duals certify nothing yet), so
    /// `objective - bound` brackets the truncation gap.
    pub bound: f64,
    /// Primal values, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Dual prices, indexed by [`RowId`]: raw simplex multipliers
    /// `y = c_B B⁻¹` (for `min` problems, binding `Le` rows are
    /// nonpositive, binding `Ge` rows nonnegative). Singleton rows that
    /// presolve rewrites into variable bounds are **dual-postsolved**:
    /// when the implied bound is active they report the bound's multiplier
    /// (so pricing consumers — delayed column generation — see them bind);
    /// empty/redundant/fixed-support rows report `0.0`, which is their
    /// exact dual. Degenerate optima have non-unique duals; these are the
    /// ones complementary to the returned vertex.
    pub duals: Vec<f64>,
    /// Total simplex pivots across both phases (mirror of
    /// `stats.iterations`, kept for convenience).
    pub iterations: usize,
    /// Termination status: [`Status::Optimal`], or [`Status::Truncated`]
    /// when a [`Budget`] expired after feasibility.
    pub status: Status,
    /// Detailed per-solve statistics (phase-1 pivots, refactorization
    /// count, warm-start outcome, ...).
    pub stats: SolveStats,
}

impl Solution {
    /// Value of variable `v`.
    #[inline]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Dual price of row `r`.
    #[inline]
    pub fn dual(&self, r: RowId) -> f64 {
        self.duals[r.index()]
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_duplicates() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        m.add_row(Cmp::Eq, 3.0, &[(x, 1.0), (x, 2.0)]);
        // x appears twice: effective coefficient 3 => x = 1.
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        m.add_row(Cmp::Ge, 0.0, &[(x, 0.0)]);
        assert!(m.triplets.is_empty());
        let sol = m.solve().unwrap();
        assert_eq!(sol.value(x), 0.0);
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite")]
    fn infinite_lb_rejected() {
        let mut m = Model::new();
        m.add_var(0.0, f64::NEG_INFINITY, 0.0, "x");
    }

    #[test]
    #[should_panic(expected = "lb <= ub")]
    fn inverted_bounds_rejected() {
        let mut m = Model::new();
        m.add_var(0.0, 1.0, 0.0, "x");
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_var_rejected() {
        let mut m = Model::new();
        m.add_row(Cmp::Le, 1.0, &[(VarId(5), 1.0)]);
    }

    /// `SolverOptions::verify` turns an infeasible point or a misreported
    /// objective into a typed error, not a panic.
    #[test]
    fn verify_rejects_forged_solutions() {
        let mut m = Model::new();
        let x = m.add_unit(1.0, "x");
        let y = m.add_unit(2.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 1.0);
        let honest = m.solve().unwrap();
        assert_eq!(m.verify_solution(&honest, 1e-6), Ok(()));

        let mut infeasible = honest.clone();
        infeasible.values = vec![0.0, 0.0]; // violates x + y >= 1
        infeasible.objective = 0.0;
        let err = m.verify_solution(&infeasible, 1e-6).unwrap_err();
        assert!(matches!(&err, LpError::Numerical(s) if s.contains("infeasible point")));

        let mut misreported = honest.clone();
        misreported.objective += 0.5;
        let err = m.verify_solution(&misreported, 1e-6).unwrap_err();
        assert!(matches!(&err, LpError::Numerical(s) if s.contains("objective mismatch")));

        let mut nan = honest;
        nan.values[0] = f64::NAN;
        assert!(m.verify_solution(&nan, 1e-6).is_err());
    }

    /// Keys are distinct where a mis-mapped status would cost warm starts —
    /// the `transport(500)` benchmark model's 250,500 columns, and every
    /// column and row name a fat-tree k=8 `PathLp` master can hold (64
    /// flows × 64 paths × 16 intervals, 768 directed links) — and a fixed
    /// function of the name: two builds agree.
    #[test]
    #[cfg_attr(miri, ignore)] // 650 k `format!` calls: minutes under Miri
    fn keys_are_distinct_and_reproducible() {
        fn assert_distinct(mut keys: Vec<u64>, what: &str) {
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), n, "{what}: colliding keys");
        }
        let transport = || {
            let mut m = Model::new();
            for i in 0..501 {
                for j in 0..500 {
                    m.add_nonneg(1.0, format!("x{i}_{j}"));
                }
            }
            m
        };
        let master = || {
            let mut m = Model::new();
            for flat in 0..64 {
                m.add_nonneg(1.0, format!("C{flat}"));
                m.add_nonneg(0.0, format!("c{flat}"));
                for kind in ["sum", "cmp", "prec"] {
                    m.add_row_named(Cmp::Le, 0.0, &[], format!("{kind}{flat}"));
                }
                for (id, l) in (0..64).flat_map(|id| (0..16).map(move |l| (id, l))) {
                    m.add_unit(0.0, format!("x{flat}:{id}:{l}"));
                }
            }
            for (ei, l) in (0..768).flat_map(|ei| (0..16).map(move |l| (ei, l))) {
                m.add_row_named(Cmp::Le, 1.0, &[], format!("cap{ei}:{l}"));
            }
            m.add_row(Cmp::Le, 1.0, &[]); // anonymous: keyed by index
            m
        };
        for (what, build) in [
            ("transport", &transport as &dyn Fn() -> Model),
            ("master", &master),
        ] {
            let (a, b) = (build(), build());
            let col_keys = |m: &Model| m.cols.iter().map(|c| c.key).collect::<Vec<_>>();
            let row_keys = |m: &Model| m.rows.iter().map(|r| r.key).collect::<Vec<_>>();
            assert_eq!(
                col_keys(&a),
                col_keys(&b),
                "{what}: columns differ across builds"
            );
            assert_eq!(
                row_keys(&a),
                row_keys(&b),
                "{what}: rows differ across builds"
            );
            assert_distinct(col_keys(&a), what);
            assert_distinct(row_keys(&a), what);
        }
        assert_eq!(key_of("", 7), 7);
        assert_ne!(key_of("7", 0), 7);
        // Names are hashed as they are formatted: a `format_args!` name keys
        // exactly as its text does, for every shape the builders write, and
        // one that formats to nothing is anonymous.
        let (flat, id, l, e, v) = (17usize, 3u32, 9usize, VarId(42), 7usize);
        let shapes = [
            (key_of(format_args!("C{flat}"), 0), format!("C{flat}")),
            (key_of(format_args!("c{flat}"), 0), format!("c{flat}")),
            (
                key_of(format_args!("x{flat}:{id}:{l}"), 0),
                format!("x{flat}:{id}:{l}"),
            ),
            (
                key_of(format_args!("x{flat}:{l}"), 0),
                format!("x{flat}:{l}"),
            ),
            (
                key_of(format_args!("y{flat}:{l}:{e:?}"), 0),
                format!("y{flat}:{l}:{e:?}"),
            ),
            (
                key_of(format_args!("z{flat}:{e:?}"), 0),
                format!("z{flat}:{e:?}"),
            ),
            (key_of(format_args!("sum{flat}"), 0), format!("sum{flat}")),
            (key_of(format_args!("cmp{flat}"), 0), format!("cmp{flat}")),
            (key_of(format_args!("prec{flat}"), 0), format!("prec{flat}")),
            (
                key_of(format_args!("con{flat}:{l}:{v}"), 0),
                format!("con{flat}:{l}:{v}"),
            ),
            (key_of(format_args!("cap{v}:{l}"), 0), format!("cap{v}:{l}")),
            (key_of(format_args!("cap{v}"), 0), format!("cap{v}")),
            (
                key_of(format_args!("x{flat}_{l}"), 0),
                format!("x{flat}_{l}"),
            ),
        ];
        for (formatted, text) in &shapes {
            assert_eq!(*formatted, key_of(text.as_str(), 0), "{text}");
            assert_eq!(*formatted, key_of(text, 0), "{text}");
        }
        // FNV-1a + splitmix64 of the bytes, as computed from the text alone.
        assert_eq!(
            key_of(format_args!("cap{v}:{}", 3), 0),
            0xD399_C034_9B97_F80B
        );
        assert_eq!(
            key_of(format_args!("x{flat}:{id}:{l}"), 0),
            0xF5A3_9E00_35D4_E56F
        );
        assert_eq!(key_of(format_args!(""), 7), key_of("", 7));
        assert_eq!(key_of(format_args!("{}", ""), 7), 7);
    }

    #[test]
    fn max_violation_reports_bounds_and_rows() {
        let mut m = Model::new();
        let x = m.add_unit(0.0, "x");
        m.le(&[(x, 1.0)], 0.25);
        assert!(m.max_violation(&[0.2]) < 1e-12);
        assert!((m.max_violation(&[0.5]) - 0.25).abs() < 1e-12);
        assert!((m.max_violation(&[1.5]) - 1.25).abs() < 1e-12); // ub violated by 0.5, row by 1.25
    }
}

#[cfg(test)]
mod perturb_tests {
    use super::*;

    /// The experiment options (cost perturbation) must not move the
    /// reported objective beyond the perturbation scale, and the returned
    /// point must stay feasible.
    #[test]
    fn perturbation_preserves_objective_within_scale() {
        let mut m = Model::new();
        let x = m.add_unit(-3.0, "x");
        let y = m.add_unit(-2.0, "y");
        let z = m.add_unit(-1.0, "z");
        m.le(&[(x, 1.0), (y, 1.0), (z, 1.0)], 1.5);
        let exact = m.solve().unwrap();
        let perturbed = m.solve_with(&SolverOptions::for_experiments()).unwrap();
        assert!((exact.objective - perturbed.objective).abs() < 1e-5);
        assert!(m.max_violation(&perturbed.values) < 1e-6);
    }

    /// Phase-1 iteration accounting: an LP whose crash basis is feasible
    /// (all Le rows) reports zero phase-1 pivots.
    #[test]
    fn slack_crash_basis_skips_phase1() {
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0, "x");
        m.le(&[(x, 1.0)], 4.0);
        let s = m.solve().unwrap();
        assert_eq!(s.stats.phase1_iterations, 0, "Le-only LPs need no phase 1");
        // Ge rows force phase 1 work (two variables, so presolve cannot
        // rewrite the row into a bound).
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_nonneg(2.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 4.0);
        let s = m.solve().unwrap();
        assert!(s.stats.phase1_iterations > 0);
    }
}
