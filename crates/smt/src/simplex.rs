//! Linear arithmetic over rationals and integers: a general simplex solver in
//! the style of Dutertre–de Moura ("A Fast Linear-Arithmetic Solver for
//! DPLL(T)", CAV 2006), using delta-rationals for strict inequalities, plus
//! branch-and-bound for integer variables.
//!
//! Every constraint is normalized into bounds on one variable (a slack
//! variable with its own tableau row for a form of two or more terms), each
//! bound carrying a literal *tag*; [`Simplex::check`] then either produces a
//! satisfying assignment or a conflict — a set of tags of jointly
//! inconsistent bounds.
//!
//! The solver is incremental, which is how the online theory session drives
//! it: bounds are asserted as their literals arrive (each constraint is
//! normalized once and re-asserted from that form after a retraction),
//! [`Simplex::undo_to`] retracts them, and [`Simplex::check_rational`]
//! re-checks from the current basis. Only the basic variables a bound or an
//! assignment change touched since can be violated, so a check looks at that
//! candidate set instead of every row.

use std::collections::HashMap;

use crate::fxmap::FxHashMap;
use crate::rational::{DeltaRat, Rat};

/// A linear expression: a constant plus a sum of `coeff * variable` terms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinExpr {
    /// The constant offset.
    pub constant: Rat,
    /// Coefficients per arithmetic variable index (no zero entries).
    pub terms: HashMap<usize, Rat>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// The constant expression `c`.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            constant: c,
            terms: HashMap::new(),
        }
    }

    /// The expression consisting of a single variable.
    pub fn variable(v: usize) -> LinExpr {
        let mut terms = HashMap::new();
        terms.insert(v, Rat::ONE);
        LinExpr {
            constant: Rat::ZERO,
            terms,
        }
    }

    /// Adds `k * v` to the expression.
    pub fn add_term(&mut self, k: Rat, v: usize) {
        let entry = self.terms.entry(v).or_insert(Rat::ZERO);
        *entry += k;
        if entry.is_zero() {
            self.terms.remove(&v);
        }
    }

    /// Adds another expression scaled by `k`.
    pub fn add_scaled(&mut self, k: Rat, other: &LinExpr) {
        self.constant += other.constant * k;
        for (&v, &c) in &other.terms {
            self.add_term(c * k, v);
        }
    }

    /// True if the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The relation of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `expr <= 0`
    Le,
    /// `expr < 0`
    Lt,
    /// `expr = 0`
    Eq,
    /// `expr != 0` — handled by the caller via case splitting; the simplex
    /// core rejects it.
    Neq,
}

/// Result of an arithmetic consistency check.
#[derive(Clone, Debug)]
pub enum ArithOutcome {
    /// Satisfiable; maps every arithmetic variable to its value.
    Sat(Vec<DeltaRat>),
    /// Unsatisfiable; tags of a jointly inconsistent subset of constraints.
    Conflict(Vec<usize>),
    /// Resource limit reached (only possible with integer branching).
    Unknown,
}

/// A constraint normalized into bounds on one variable by
/// [`Simplex::compile`], ready to be asserted — and asserted again after a
/// retraction — without normalizing it again.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Compiled {
    /// A constraint without variables, and whether it holds.
    Constant(bool),
    /// `lower <= var <= upper`; a missing side is unbounded.
    Bounds {
        var: usize,
        upper: Option<DeltaRat>,
        lower: Option<DeltaRat>,
    },
}

const NO_TAG: usize = usize::MAX;

/// How the simplex picks its pivots.
///
/// Verdicts (and the *existence* of a conflict) are identical under every
/// rule; only the pivot count — and which of several valid conflict
/// explanations is returned — may differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PivotRule {
    /// Bland's rule: smallest-index violated basic variable, first eligible
    /// entering variable. Never cycles, but blind to progress — the legacy
    /// behaviour and the default for a bare [`Simplex`].
    #[default]
    Bland,
    /// Largest-violation leaving variable + largest-coefficient (Dantzig
    /// style) entering variable for the first `bland_after` pivots of the
    /// instance, then permanent fallback to Bland's rule. The fallback bounds
    /// the heuristic phase, so termination is inherited from Bland.
    Hybrid {
        /// Pivot count after which the instance switches to Bland's rule.
        bland_after: u64,
    },
}

impl PivotRule {
    /// The default heuristic phase length of the tuned profile.
    pub const DEFAULT_BLAND_AFTER: u64 = 512;

    /// The tuned hybrid rule with the default fallback threshold.
    pub fn hybrid() -> PivotRule {
        PivotRule::Hybrid {
            bland_after: PivotRule::DEFAULT_BLAND_AFTER,
        }
    }
}

#[derive(Clone, Debug)]
struct Bound {
    value: DeltaRat,
    tag: usize,
}

/// The basic variables that may violate a bound: a superset of the violated
/// ones, in no particular order.
#[derive(Clone, Debug, Default)]
struct Candidates {
    list: Vec<usize>,
    /// Per variable: whether it is in `list`.
    member: Vec<bool>,
}

impl Candidates {
    fn insert(&mut self, b: usize) {
        if !self.member[b] {
            self.member[b] = true;
            self.list.push(b);
        }
    }
}

/// The simplex solver.
///
/// Variables are dense indices `0..num_vars`; the caller declares which are
/// integer-sorted. Constraints are added with [`Simplex::add_constraint`] and
/// the final consistency check is [`Simplex::check`].
#[derive(Clone, Debug, Default)]
pub struct Simplex {
    num_vars: usize,
    is_int: Vec<bool>,
    // Tableau: basic variable index -> row (coeffs over nonbasic variables).
    rows: FxHashMap<usize, FxHashMap<usize, Rat>>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    assignment: Vec<DeltaRat>,
    rule: PivotRule,
    /// Undo trail of bound tightenings: `(var, is_upper, previous bound)` per
    /// accepted tightening, in assertion order. [`Simplex::undo_to`] restores
    /// the recorded bounds in reverse, which is sound because assertions only
    /// ever *tighten*: restoring relaxes, so the current assignment (nonbasic
    /// variables at or within their bounds) stays valid and the tableau —
    /// equivalent under pivoting to the original defining equations — is
    /// untouched. This is what makes basis-preserving warm restarts possible:
    /// retracted rounds only roll back bound changes, never the basis.
    bound_trail: Vec<(usize, bool, Option<Bound>)>,
    /// Slack-variable reuse across warm-restart rounds, keyed by the sorted
    /// linear part of the defining expression (invariant under pivoting: the
    /// tableau always implies `s = linear part`, however the rows are
    /// currently arranged). `None` = disabled (the batch path, which drops
    /// the solver after one check, keeps its historical one-slack-per-call
    /// behaviour byte for byte).
    slack_of: Option<FxHashMap<Vec<(usize, Rat)>, usize>>,
    /// Every violated basic variable, and possibly more. A basic variable
    /// enters when its value changes ([`Simplex::update_nonbasic`],
    /// [`Simplex::pivot_and_update`]), when a bound on it is tightened past
    /// its value, and when a pivot makes it basic. Undo only relaxes bounds,
    /// so it cannot create a violation. Entries found nonbasic or within
    /// bounds are pruned by [`Simplex::violated_basic`].
    candidates: Candidates,
    /// Pivot-count statistic.
    pub pivots: u64,
}

impl Simplex {
    /// Creates a solver with no variables, using Bland's pivot rule.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Creates a solver with an explicit pivot rule.
    pub fn with_rule(rule: PivotRule) -> Simplex {
        Simplex {
            rule,
            ..Simplex::default()
        }
    }

    /// True if a [`PivotRule::Hybrid`] instance has exhausted its heuristic
    /// phase and switched to Bland's rule.
    pub fn in_bland_fallback(&self) -> bool {
        match self.rule {
            PivotRule::Bland => false,
            PivotRule::Hybrid { bland_after } => self.pivots >= bland_after,
        }
    }

    /// Adds a variable; `is_int` marks it integer-sorted. Returns its index.
    pub fn new_var(&mut self, is_int: bool) -> usize {
        let v = self.num_vars;
        self.num_vars += 1;
        self.is_int.push(is_int);
        self.lower.push(None);
        self.upper.push(None);
        self.assignment.push(DeltaRat::ZERO);
        self.candidates.member.push(false);
        v
    }

    /// Number of variables (including internal slack variables).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Turns on slack-variable reuse: later constraints whose linear part
    /// matches an earlier one share its slack variable (and therefore combine
    /// their bounds on it) instead of allocating a fresh variable and row.
    /// For long-lived instances, where the same constraint is asserted again
    /// after a retraction and must not grow the tableau each time.
    pub fn enable_slack_reuse(&mut self) {
        if self.slack_of.is_none() {
            self.slack_of = Some(FxHashMap::default());
        }
    }

    /// A restore point for [`Simplex::undo_to`]: the current length of the
    /// bound-undo trail.
    pub fn mark(&self) -> usize {
        self.bound_trail.len()
    }

    /// Restores every bound recorded after `mark`, in reverse order. The
    /// tableau, the assignment and any slack variables introduced since the
    /// mark are kept: a slack with no bounds can never participate in a
    /// conflict, and the assignment only becomes *more* feasible as bounds
    /// relax.
    pub fn undo_to(&mut self, mark: usize) {
        while self.bound_trail.len() > mark {
            let (x, is_upper, old) = self.bound_trail.pop().expect("trail above mark");
            if is_upper {
                self.upper[x] = old;
            } else {
                self.lower[x] = old;
            }
        }
    }

    /// Adds the constraint `expr rel 0` tagged with `tag`: normalizes it into
    /// bounds on one variable and asserts them.
    /// Returns `Err(conflict)` on an immediately detected conflict.
    ///
    /// # Panics
    /// Panics if `rel` is [`Rel::Neq`] (the caller must case-split).
    pub fn add_constraint(
        &mut self,
        expr: &LinExpr,
        rel: Rel,
        tag: usize,
    ) -> Result<(), Vec<usize>> {
        let compiled = self.compile(expr, rel);
        self.assert_compiled(&compiled, tag)
    }

    /// Normalizes `expr rel 0` into bounds on a single variable:
    /// `linear part rel -constant`, where a linear part of two or more terms
    /// is a slack variable (created here with its defining row, or reused).
    ///
    /// # Panics
    /// Panics if `rel` is [`Rel::Neq`] (the caller must case-split).
    pub(crate) fn compile(&mut self, expr: &LinExpr, rel: Rel) -> Compiled {
        if rel == Rel::Neq {
            panic!("Neq must be split by the caller")
        }
        if expr.is_constant() {
            let c = expr.constant;
            return Compiled::Constant(match rel {
                Rel::Le => c <= Rat::ZERO,
                Rel::Lt => c < Rat::ZERO,
                Rel::Eq => c.is_zero(),
                Rel::Neq => unreachable!(),
            });
        }
        // The linear part is `scale * var`.
        let (var, scale) = if expr.terms.len() == 1 {
            let (&v, &c) = expr.terms.iter().next().unwrap();
            (v, c)
        } else {
            (self.slack_for(expr), Rat::ONE)
        };
        let bound = -expr.constant / scale;
        let exact = Some(DeltaRat::from_rat(bound));
        let (upper, lower) = match (rel, scale.is_negative()) {
            (Rel::Eq, _) => (exact, exact),
            (Rel::Le, false) => (exact, None),
            (Rel::Le, true) => (None, exact),
            (Rel::Lt, false) => (Some(DeltaRat::new(bound, -Rat::ONE)), None),
            (Rel::Lt, true) => (None, Some(DeltaRat::new(bound, Rat::ONE))),
            (Rel::Neq, _) => unreachable!(),
        };
        Compiled::Bounds { var, upper, lower }
    }

    /// Asserts a compiled constraint tagged with `tag` (its upper bound
    /// first). Returns `Err(conflict)` when a bound contradicts the opposite
    /// bound of its variable, or the constant constraint is false; a
    /// contradicted second bound leaves the first asserted.
    pub(crate) fn assert_compiled(&mut self, c: &Compiled, tag: usize) -> Result<(), Vec<usize>> {
        match *c {
            Compiled::Constant(true) => Ok(()),
            Compiled::Constant(false) => Err(vec![tag]),
            Compiled::Bounds { var, upper, lower } => {
                if let Some(u) = upper {
                    self.assert_upper(var, u, tag)?;
                }
                if let Some(l) = lower {
                    self.assert_lower(var, l, tag)?;
                }
                Ok(())
            }
        }
    }

    /// The slack variable standing for the linear part of `expr` (two or
    /// more terms): the one already defined for it when slack reuse is on,
    /// else a fresh basic variable with its defining row.
    fn slack_for(&mut self, expr: &LinExpr) -> usize {
        let key: Option<Vec<(usize, Rat)>> = self.slack_of.is_some().then(|| {
            let mut k: Vec<(usize, Rat)> = expr.terms.iter().map(|(&v, &c)| (v, c)).collect();
            k.sort_unstable_by_key(|&(v, _)| v);
            k
        });
        let reused = key
            .as_ref()
            .and_then(|k| self.slack_of.as_ref().and_then(|m| m.get(k)).copied());
        if let Some(s) = reused {
            return s;
        }
        let s = self.new_var(false);
        let row: FxHashMap<usize, Rat> = expr.terms.iter().map(|(&v, &c)| (v, c)).collect();
        // Substitute any basic variables appearing in the new row.
        let row = self.substitute_basics(row);
        self.assignment[s] = self.row_value(&row);
        self.rows.insert(s, row);
        if let (Some(k), Some(m)) = (key, self.slack_of.as_mut()) {
            m.insert(k, s);
        }
        s
    }

    fn substitute_basics(&self, row: FxHashMap<usize, Rat>) -> FxHashMap<usize, Rat> {
        let mut out: FxHashMap<usize, Rat> = FxHashMap::default();
        for (v, c) in row {
            if let Some(basic_row) = self.rows.get(&v) {
                for (&w, &cw) in basic_row {
                    let e = out.entry(w).or_insert(Rat::ZERO);
                    *e += c * cw;
                }
            } else {
                let e = out.entry(v).or_insert(Rat::ZERO);
                *e += c;
            }
        }
        out.retain(|_, c| !c.is_zero());
        out
    }

    fn row_value(&self, row: &FxHashMap<usize, Rat>) -> DeltaRat {
        let mut val = DeltaRat::ZERO;
        for (&v, &c) in row {
            val = val + self.assignment[v].scale(c);
        }
        val
    }

    fn assert_upper(&mut self, x: usize, c: DeltaRat, tag: usize) -> Result<(), Vec<usize>> {
        if let Some(l) = &self.lower[x] {
            if c < l.value {
                return Err(vec![tag, l.tag]);
            }
        }
        let tighter = match &self.upper[x] {
            Some(u) => c < u.value,
            None => true,
        };
        if tighter {
            self.bound_trail.push((x, true, self.upper[x].take()));
            self.upper[x] = Some(Bound { value: c, tag });
            if self.assignment[x] > c {
                if self.rows.contains_key(&x) {
                    self.candidates.insert(x);
                } else {
                    self.update_nonbasic(x, c);
                }
            }
        }
        Ok(())
    }

    fn assert_lower(&mut self, x: usize, c: DeltaRat, tag: usize) -> Result<(), Vec<usize>> {
        if let Some(u) = &self.upper[x] {
            if c > u.value {
                return Err(vec![tag, u.tag]);
            }
        }
        let tighter = match &self.lower[x] {
            Some(l) => c > l.value,
            None => true,
        };
        if tighter {
            self.bound_trail.push((x, false, self.lower[x].take()));
            self.lower[x] = Some(Bound { value: c, tag });
            if self.assignment[x] < c {
                if self.rows.contains_key(&x) {
                    self.candidates.insert(x);
                } else {
                    self.update_nonbasic(x, c);
                }
            }
        }
        Ok(())
    }

    fn update_nonbasic(&mut self, x: usize, v: DeltaRat) {
        let delta = v - self.assignment[x];
        self.assignment[x] = v;
        for (&b, row) in &self.rows {
            if let Some(&c) = row.get(&x) {
                self.assignment[b] = self.assignment[b] + delta.scale(c);
                self.candidates.insert(b);
            }
        }
    }

    /// Which bound of `x` its value violates, if any: `Some(true)` below its
    /// lower bound, `Some(false)` above its upper bound.
    fn violation(&self, x: usize) -> Option<bool> {
        let value = self.assignment[x];
        if self.lower[x].as_ref().is_some_and(|l| value < l.value) {
            Some(true)
        } else if self.upper[x].as_ref().is_some_and(|u| value > u.value) {
            Some(false)
        } else {
            None
        }
    }

    /// Picks the violated basic variable to fix next: smallest index under
    /// Bland's rule, largest violation (ties to the smallest index) in the
    /// hybrid heuristic phase. Returns `(var, is_below_lower)`.
    ///
    /// Only the candidate set is scanned, pruned of the entries that are no
    /// longer basic or violated on the way. It holds every violated basic
    /// variable, so the choice is the one a scan of every row would make.
    /// The heuristic scan needs a *ranking*, not exact arithmetic: violation
    /// magnitudes are compared as lossy `f64` approximations (exact
    /// delta-rational subtraction would gcd-normalize on every candidate),
    /// with the smallest index breaking ties so the choice stays
    /// deterministic regardless of the candidates' order. A wrong ranking
    /// can only cost extra pivots, never correctness.
    fn violated_basic(&mut self, heuristic: bool) -> Option<(usize, bool)> {
        let mut i = 0;
        while i < self.candidates.list.len() {
            let b = self.candidates.list[i];
            if self.rows.contains_key(&b) && self.violation(b).is_some() {
                i += 1;
            } else {
                self.candidates.member[b] = false;
                self.candidates.list.swap_remove(i);
            }
        }
        debug_assert!(
            self.rows
                .keys()
                .all(|&b| self.candidates.member[b] || self.violation(b).is_none()),
            "a violated basic variable is missing from the candidate set"
        );
        if !heuristic {
            // Bland: smallest violated index (the index order is what
            // guarantees cycle-freedom).
            let b = self.candidates.list.iter().copied().min()?;
            return self.violation(b).map(|below| (b, below));
        }
        let approx = |v: DeltaRat| -> f64 { v.real.to_f64() + 1e-9 * v.delta.to_f64() };
        let mut best: Option<(usize, bool, f64)> = None;
        for &b in &self.candidates.list {
            let below = self.violation(b).expect("pruned to violated candidates");
            let amount = if below {
                approx(self.lower[b].as_ref().unwrap().value) - approx(self.assignment[b])
            } else {
                approx(self.assignment[b]) - approx(self.upper[b].as_ref().unwrap().value)
            };
            let better = match best {
                None => true,
                Some((bb, _, ba)) => amount > ba || (amount == ba && b < bb),
            };
            if better {
                best = Some((b, below, amount));
            }
        }
        best.map(|(b, below, _)| (b, below))
    }

    fn pivot_and_update(&mut self, xi: usize, xj: usize, v: DeltaRat) {
        self.pivots += 1;
        let aij = self.rows[&xi][&xj];
        let theta = (v - self.assignment[xi]).scale(aij.recip());
        self.assignment[xi] = v;
        self.assignment[xj] = self.assignment[xj] + theta;
        for (&b, row) in &self.rows {
            if b != xi {
                if let Some(&c) = row.get(&xj) {
                    self.assignment[b] = self.assignment[b] + theta.scale(c);
                    self.candidates.insert(b);
                }
            }
        }
        self.pivot(xi, xj);
        self.candidates.insert(xj);
    }

    fn pivot(&mut self, xi: usize, xj: usize) {
        // xi is basic with row R: xi = sum_k a_k x_k  (xj among them).
        let row = self.rows.remove(&xi).expect("pivot on basic var");
        let aij = row[&xj];
        // Solve for xj: xj = (1/aij) xi - sum_{k != j} (a_k/aij) x_k
        let mut new_row: FxHashMap<usize, Rat> = FxHashMap::default();
        new_row.insert(xi, aij.recip());
        for (&k, &a) in &row {
            if k != xj {
                new_row.insert(k, -(a / aij));
            }
        }
        // Substitute into all other rows.
        let keys: Vec<usize> = self.rows.keys().copied().collect();
        for b in keys {
            let coeff = self.rows[&b].get(&xj).copied();
            if let Some(c) = coeff {
                let mut r = self.rows[&b].clone();
                r.remove(&xj);
                for (&k, &a) in &new_row {
                    let e = r.entry(k).or_insert(Rat::ZERO);
                    *e += c * a;
                }
                r.retain(|_, v| !v.is_zero());
                self.rows.insert(b, r);
            }
        }
        self.rows.insert(xj, new_row);
    }

    /// Runs the simplex algorithm, then branch-and-bound if integer variables
    /// have fractional values.
    pub fn check(&mut self) -> ArithOutcome {
        self.branch_and_bound(0)
    }

    /// Runs the simplex algorithm over the rationals only (no
    /// branch-and-bound), from the current basis: `Ok(())` leaves a
    /// satisfying assignment in place, `Err` carries the tags of a jointly
    /// inconsistent subset of the asserted bounds. A rational conflict is
    /// also an integer one.
    pub fn check_rational(&mut self) -> Result<(), Vec<usize>> {
        let heartbeat_every = ids_obs::heartbeat_interval();
        loop {
            // Heuristic pivoting runs only while the hybrid rule's budget
            // lasts; afterwards every choice follows Bland's rule, which
            // cannot cycle, so the loop terminates under either rule.
            let heuristic = match self.rule {
                PivotRule::Bland => false,
                PivotRule::Hybrid { bland_after } => self.pivots < bland_after,
            };
            let Some((xi, below)) = self.violated_basic(heuristic) else {
                return Ok(());
            };
            let row: Vec<(usize, Rat)> = {
                let mut r: Vec<(usize, Rat)> =
                    self.rows[&xi].iter().map(|(&k, &v)| (k, v)).collect();
                r.sort_unstable_by_key(|&(k, _)| k);
                r
            };
            let target = if below {
                self.lower[xi].as_ref().unwrap().value
            } else {
                self.upper[xi].as_ref().unwrap().value
            };
            // `xi` must move towards `target`; a nonbasic `xj` with
            // coefficient `a` can absorb that move iff it has slack in the
            // required direction.
            let needs_increase = |a: Rat| -> bool {
                if below {
                    a.is_positive()
                } else {
                    a.is_negative()
                }
            };
            let mut pivot_var: Option<(usize, Rat)> = None;
            for &(xj, a) in &row {
                let can = if needs_increase(a) {
                    self.upper[xj]
                        .as_ref()
                        .is_none_or(|u| self.assignment[xj] < u.value)
                } else {
                    self.lower[xj]
                        .as_ref()
                        .is_none_or(|l| self.assignment[xj] > l.value)
                };
                if !can {
                    continue;
                }
                if !heuristic {
                    // Bland: first eligible index (the row is index-sorted).
                    pivot_var = Some((xj, a));
                    break;
                }
                // Dantzig style: largest |coefficient| moves the violated
                // variable furthest per unit of xj (ties to smallest index).
                if pivot_var.is_none_or(|(_, best)| a.abs() > best.abs()) {
                    pivot_var = Some((xj, a));
                }
            }
            let Some((xj, _)) = pivot_var else {
                // Conflict: the violated bound of xi plus, per column, the
                // bound that blocks the required movement.
                let own = if below {
                    self.lower[xi].as_ref().unwrap().tag
                } else {
                    self.upper[xi].as_ref().unwrap().tag
                };
                let mut tags = vec![own];
                for &(xj, a) in &row {
                    if needs_increase(a) {
                        tags.push(self.upper[xj].as_ref().unwrap().tag);
                    } else {
                        tags.push(self.lower[xj].as_ref().unwrap().tag);
                    }
                }
                tags.retain(|&t| t != NO_TAG);
                tags.sort_unstable();
                tags.dedup();
                return Err(tags);
            };
            self.pivot_and_update(xi, xj, target);
            // Liveness for pivot blow-ups: the conflict-based cadence is
            // scaled up — pivots are much cheaper than SAT conflicts.
            if heartbeat_every != 0 && self.pivots.is_multiple_of(heartbeat_every * 4) {
                ids_obs::emit_heartbeat(ids_obs::Heartbeat {
                    pivots: self.pivots,
                    ..ids_obs::Heartbeat::default()
                });
            }
        }
    }

    fn branch_and_bound(&mut self, depth: usize) -> ArithOutcome {
        const MAX_DEPTH: usize = 60;
        if let Err(tags) = self.check_rational() {
            return ArithOutcome::Conflict(tags);
        }
        // Find an integer variable with a fractional (or infinitesimal) value.
        let frac = (0..self.num_vars).find(|&v| {
            let value = self.assignment[v];
            self.is_int[v] && (!value.delta.is_zero() || !value.real.is_integer())
        });
        let Some(v) = frac else {
            return ArithOutcome::Sat(self.assignment.clone());
        };
        if depth >= MAX_DEPTH {
            return ArithOutcome::Unknown;
        }
        let val = self.assignment[v];
        // The two branches x <= floor(val) and x >= floor(val) + 1. For values
        // with a negative delta at an integer point, floor of the real part
        // still gives the right split.
        let fl = if val.delta.is_negative() && val.real.is_integer() {
            val.real.floor() - 1
        } else {
            val.real.floor()
        };
        // Branch order heuristic: if the infinitesimal pushes the value
        // upwards (a strict lower bound is active), explore the "round up"
        // branch first — this avoids chasing unbounded descents when the
        // fractional value keeps shifting between variables.
        let up_first = val.delta.is_positive();
        // Branches run on a clone; the clone's pivot count (which started at
        // the parent's) is folded back so `pivots` reports the whole tree.
        let run_branch = |this: &mut Simplex, up: bool| -> ArithOutcome {
            let mut s = this.clone();
            let asserted = if up {
                s.assert_lower(v, DeltaRat::from_rat(Rat::from_int(fl + 1)), NO_TAG)
            } else {
                s.assert_upper(v, DeltaRat::from_rat(Rat::from_int(fl)), NO_TAG)
            };
            let out = match asserted {
                Err(mut tags) => {
                    tags.retain(|&t| t != NO_TAG);
                    ArithOutcome::Conflict(tags)
                }
                Ok(()) => s.branch_and_bound(depth + 1),
            };
            this.pivots = s.pivots;
            out
        };
        let first_out = run_branch(self, up_first);
        if let ArithOutcome::Sat(a) = first_out {
            return ArithOutcome::Sat(a);
        }
        let second_out = run_branch(self, !up_first);
        let (left_out, right_out) = (first_out, second_out);
        match (left_out, right_out) {
            (ArithOutcome::Unknown, _) | (_, ArithOutcome::Unknown) => ArithOutcome::Unknown,
            (ArithOutcome::Sat(a), _) | (_, ArithOutcome::Sat(a)) => ArithOutcome::Sat(a),
            (ArithOutcome::Conflict(mut t1), ArithOutcome::Conflict(t2)) => {
                t1.extend(t2);
                t1.retain(|&t| t != NO_TAG);
                t1.sort_unstable();
                t1.dedup();
                ArithOutcome::Conflict(t1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(s: &mut Simplex, terms: &[(i128, usize)], rhs: i128, tag: usize) {
        // sum terms <= rhs  ==>  sum terms - rhs <= 0
        let mut e = LinExpr::constant(Rat::from_int(-rhs));
        for &(c, v) in terms {
            e.add_term(Rat::from_int(c), v);
        }
        s.add_constraint(&e, Rel::Le, tag).unwrap();
    }

    #[test]
    fn simple_feasible() {
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let y = s.new_var(false);
        le(&mut s, &[(1, x), (1, y)], 10, 0);
        le(&mut s, &[(-1, x)], -2, 1); // x >= 2
        le(&mut s, &[(-1, y)], -3, 2); // y >= 3
        assert!(matches!(s.check(), ArithOutcome::Sat(_)));
    }

    #[test]
    fn simple_infeasible_with_core() {
        // The conflict between two direct bounds is detected either eagerly at
        // assertion time or by the check; either way the core is {0, 1}.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        s.add_constraint(&e1, Rel::Le, 0).unwrap(); // x <= 1
        let mut e2 = LinExpr::constant(Rat::from_int(5));
        e2.add_term(-Rat::ONE, x);
        let tags = match s.add_constraint(&e2, Rel::Le, 1) {
            Err(tags) => tags,
            Ok(()) => match s.check() {
                ArithOutcome::Conflict(tags) => tags,
                other => panic!("expected conflict, got {:?}", other),
            },
        };
        let mut tags = tags;
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1]);
    }

    #[test]
    fn chain_infeasible() {
        // x <= y, y <= z, z <= x - 1 : infeasible.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let y = s.new_var(false);
        let z = s.new_var(false);
        le(&mut s, &[(1, x), (-1, y)], 0, 0);
        le(&mut s, &[(1, y), (-1, z)], 0, 1);
        le(&mut s, &[(1, z), (-1, x)], -1, 2);
        match s.check() {
            ArithOutcome::Conflict(tags) => {
                assert_eq!(tags, vec![0, 1, 2]);
            }
            other => panic!("expected conflict, got {:?}", other),
        }
    }

    #[test]
    fn strict_inequality() {
        // x < 1 and x > 0 is satisfiable over rationals.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        s.add_constraint(&e1, Rel::Lt, 0).unwrap(); // x - 1 < 0
        let mut e2 = LinExpr::zero();
        e2.add_term(-Rat::ONE, x);
        s.add_constraint(&e2, Rel::Lt, 1).unwrap(); // -x < 0
        assert!(matches!(s.check(), ArithOutcome::Sat(_)));
    }

    #[test]
    fn strict_cycle_infeasible() {
        // x < y and y < x.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let y = s.new_var(false);
        let mut e1 = LinExpr::zero();
        e1.add_term(Rat::ONE, x);
        e1.add_term(-Rat::ONE, y);
        s.add_constraint(&e1, Rel::Lt, 0).unwrap();
        let mut e2 = LinExpr::zero();
        e2.add_term(Rat::ONE, y);
        e2.add_term(-Rat::ONE, x);
        s.add_constraint(&e2, Rel::Lt, 1).unwrap();
        assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
    }

    #[test]
    fn integer_branching() {
        // 0 < x < 1 with x integer: infeasible; over rationals feasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        s.add_constraint(&e1, Rel::Lt, 0).unwrap();
        let mut e2 = LinExpr::zero();
        e2.add_term(-Rat::ONE, x);
        s.add_constraint(&e2, Rel::Lt, 1).unwrap();
        assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
    }

    #[test]
    fn integer_feasible() {
        // 2x + 3y = 12, x >= 1, y >= 1 has integer solution x=3,y=2.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let mut e = LinExpr::constant(Rat::from_int(-12));
        e.add_term(Rat::from_int(2), x);
        e.add_term(Rat::from_int(3), y);
        s.add_constraint(&e, Rel::Eq, 0).unwrap();
        le(&mut s, &[(-1, x)], -1, 1);
        le(&mut s, &[(-1, y)], -1, 2);
        match s.check() {
            ArithOutcome::Sat(a) => {
                assert!(a[x].real.is_integer() && a[x].delta.is_zero());
                assert!(a[y].real.is_integer() && a[y].delta.is_zero());
            }
            other => panic!("expected sat, got {:?}", other),
        }
    }

    #[test]
    fn equality_propagation_style() {
        // x = y + 1, y = z + 1, x = z : infeasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let z = s.new_var(true);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        e1.add_term(-Rat::ONE, y);
        s.add_constraint(&e1, Rel::Eq, 0).unwrap();
        let mut e2 = LinExpr::constant(Rat::from_int(-1));
        e2.add_term(Rat::ONE, y);
        e2.add_term(-Rat::ONE, z);
        s.add_constraint(&e2, Rel::Eq, 1).unwrap();
        let mut e3 = LinExpr::zero();
        e3.add_term(Rat::ONE, x);
        e3.add_term(-Rat::ONE, z);
        s.add_constraint(&e3, Rel::Eq, 2).unwrap();
        assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
    }
}
