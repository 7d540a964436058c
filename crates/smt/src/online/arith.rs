//! The online arithmetic theory: a warm simplex whose bounds and shared
//! equalities are asserted as their literals arrive, checked rationally at
//! every propagation fixpoint and by branch-and-bound at the final check.
//!
//! Each (atom, polarity) is normalized into bounds once and re-asserted from
//! that form, and each shared equality `x_a − x_b = 0` compiles once per
//! pair of simplex variables; a compiled form keeps its slack row, so the
//! tableau does not grow with the number of assertions. Retraction rolls
//! the bound trail back ([`Simplex::undo_to`]).

use crate::fxmap::FxHashMap;
use crate::rational::Rat;
use crate::simplex::{ArithOutcome, Compiled, LinExpr, PivotRule, Rel, Simplex};
use crate::term::TermId;
use crate::theory::{AtomKind, TheoryChecker};

/// The simplex glue: leaf variables and compiled bounds over one tableau.
#[derive(Clone, Debug)]
pub(super) struct Arith {
    pub(super) simplex: Simplex,
    /// Simplex variable per numeric leaf term.
    var_of_term: FxHashMap<TermId, usize>,
    /// The simplex bounds of each arithmetic (atom, polarity), compiled at
    /// its first assertion and valid until [`Arith::reset`].
    bounds: FxHashMap<(TermId, bool), Compiled>,
    /// The simplex equality of each ordered pair of simplex variables that a
    /// shared equality joined, compiled and valid like `bounds`.
    equalities: FxHashMap<(usize, usize), Compiled>,
    pub(super) pivot: PivotRule,
}

impl Arith {
    /// An empty theory; [`Arith::reset`] makes it usable.
    pub(super) fn new(pivot: PivotRule) -> Arith {
        Arith {
            simplex: Simplex::with_rule(pivot),
            var_of_term: FxHashMap::default(),
            bounds: FxHashMap::default(),
            equalities: FxHashMap::default(),
            pivot,
        }
    }

    /// Starts over on a fresh tableau (the atom universe grew). The
    /// cumulative pivot count carries over, so telemetry deltas stay
    /// monotonic. It is also the count the hybrid pivot rule measures its
    /// heuristic phase by, so that phase is spent once per theory layer (per
    /// method scope in a structure pool, whose pop restores the count): once
    /// spent, every rebuilt simplex starts in Bland mode.
    pub(super) fn reset(&mut self) {
        let mut simplex = Simplex::with_rule(self.pivot);
        simplex.enable_slack_reuse();
        simplex.pivots = self.simplex.pivots;
        self.simplex = simplex;
        self.var_of_term.clear();
        self.bounds.clear();
        self.equalities.clear();
    }

    /// Simplex pivots taken so far.
    pub(super) fn pivots(&self) -> u64 {
        self.simplex.pivots
    }

    /// A restore point for [`Arith::undo_to`].
    pub(super) fn mark(&self) -> usize {
        self.simplex.mark()
    }

    /// Retracts every bound asserted since `mark` was taken.
    pub(super) fn undo_to(&mut self, mark: usize) {
        self.simplex.undo_to(mark);
    }

    /// Asserts the bounds of one (atom, polarity) under conflict tag `tag`;
    /// on a clash with the asserted bounds, returns the clashing tags.
    pub(super) fn assert(
        &mut self,
        checker: &TheoryChecker,
        key: (TermId, bool),
        tag: usize,
    ) -> Result<(), Vec<usize>> {
        let Arith {
            simplex,
            var_of_term,
            bounds,
            ..
        } = self;
        let bound = *bounds
            .entry(key)
            .or_insert_with(|| compile_bounds(checker, simplex, var_of_term, key));
        simplex.assert_compiled(&bound, tag)
    }

    /// Asserts the shared equality of two numeric leaves under conflict tag
    /// `tag`; on a clash, returns the clashing tags.
    pub(super) fn assert_equal(
        &mut self,
        checker: &TheoryChecker,
        (a, b): (TermId, TermId),
        tag: usize,
    ) -> Result<(), Vec<usize>> {
        let Arith {
            simplex,
            var_of_term,
            equalities,
            ..
        } = self;
        let [va, vb] = [a, b].map(|leaf| leaf_var(checker, simplex, var_of_term, leaf));
        let pair = (va.min(vb), va.max(vb));
        let equal = *equalities.entry(pair).or_insert_with(|| {
            let mut expr = LinExpr::variable(pair.0);
            expr.add_term(-Rat::ONE, pair.1);
            simplex.compile(&expr, Rel::Eq)
        });
        simplex.assert_compiled(&equal, tag)
    }

    /// The rational check from the current basis (Dutertre & de Moura, CAV
    /// 2006): the tags of an infeasible subset of the asserted bounds, if
    /// any.
    pub(super) fn check(&mut self) -> Result<(), Vec<usize>> {
        self.simplex.check_rational()
    }

    /// Integer branch-and-bound over the asserted bounds, the one check that
    /// needs a complete assignment.
    pub(super) fn final_check(&mut self) -> ArithOutcome {
        self.simplex.check()
    }
}

/// The simplex variable of a numeric leaf term, created at its first use.
fn leaf_var(
    checker: &TheoryChecker,
    simplex: &mut Simplex,
    var_of_term: &mut FxHashMap<TermId, usize>,
    leaf: TermId,
) -> usize {
    *var_of_term
        .entry(leaf)
        .or_insert_with(|| simplex.new_var(*checker.leaf_is_int.get(&leaf).unwrap_or(&false)))
}

/// Normalizes the arithmetic constraint of one (atom, polarity) into simplex
/// bounds, creating the simplex variables of its leaf terms (and its slack
/// row) as needed. Strict integer inequalities are tightened to non-strict
/// ones (`a < b` becomes `a + 1 <= b`), exactly like the batch path.
fn compile_bounds(
    checker: &TheoryChecker,
    simplex: &mut Simplex,
    var_of_term: &mut FxHashMap<TermId, usize>,
    (atom, positive): (TermId, bool),
) -> Compiled {
    // A negative inequality `¬(a ≤ b)` is `b − a < 0` (`¬(a < b)` is
    // `b − a ≤ 0`); a negative equality carries no bound.
    let (form, rel, both_int) = match checker.kinds.get(&atom) {
        Some(AtomKind::Eq {
            lin: Some(form), ..
        }) if positive => (form, Rel::Eq, false),
        Some(AtomKind::Ineq {
            lin,
            strict,
            both_int,
        }) => {
            let rel = if *strict == positive {
                Rel::Lt
            } else {
                Rel::Le
            };
            (lin, rel, *both_int)
        }
        _ => unreachable!("arithmetic entry without a linear form"),
    };
    let sign = if positive { Rat::ONE } else { -Rat::ONE };
    let mut expr = LinExpr::constant(form.constant * sign);
    for &(leaf, coeff) in &form.terms {
        let v = leaf_var(checker, simplex, var_of_term, leaf);
        expr.add_term(coeff * sign, v);
    }
    let rel = if rel == Rel::Lt && both_int {
        expr.constant += Rat::ONE;
        Rel::Le
    } else {
        rel
    };
    simplex.compile(&expr, rel)
}
