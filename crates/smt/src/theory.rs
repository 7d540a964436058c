//! The combined theory checker: decides whether a conjunction of asserted
//! theory literals (a propositional model of the lowered formula) is
//! consistent in the combination EUF + linear arithmetic.
//!
//! Sets, arrays and pointwise updates were already reduced to EUF applications
//! plus instantiated ground axioms by [`crate::lower`], so the only theories
//! that remain are equality/uninterpreted functions and linear arithmetic.
//! The two are combined Nelson–Oppen-style in one direction: congruence
//! closure runs first and the equalities it derives between numeric terms are
//! propagated into the simplex (with their EUF explanations attached so that
//! arithmetic conflicts translate back to input literals). The reverse
//! direction (equalities implied by arithmetic feeding congruence) is not
//! needed for FWYB verification conditions and is intentionally omitted; the
//! trichotomy lemmas added by the lowering pass cover the common cases.
//!
//! Everything that only depends on the *atoms* (term universe, congruence
//! template, linearized arithmetic forms) is precomputed once in a
//! [`TheoryChecker`]. The online theory session of
//! [`crate::IncrementalSolver`] builds its state from that, and
//! [`TheoryChecker::check`] is the stateless reference decision: the oracle
//! the `IDS_TRAIL_ORACLE` hook and the trail fuzzes check the session
//! against.

use crate::euf::{Euf, EufOutcome, EufTemplate};
use crate::fxmap::FxHashMap;
use crate::rational::Rat;
use crate::simplex::{ArithOutcome, LinExpr, PivotRule, Rel, Simplex};
use crate::term::{Op, Sort, TermId, TermManager};

/// Result of a theory consistency check over asserted literals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryCheck {
    /// The literal set is consistent in the combined theory.
    Consistent,
    /// Inconsistent; indices (into the literal slice) of a conflicting subset.
    Conflict(Vec<usize>),
    /// The check was inconclusive (integer branching limit).
    Unknown,
}

/// Sentinel tag for internal axioms (e.g. `true != false`) that must never be
/// reported in conflicts.
pub(crate) const AXIOM_TAG: usize = usize::MAX - 1;

/// A linear form `Σ cᵢ·leafᵢ + constant` over uninterpreted numeric leaf
/// terms, precomputed from one side-difference `a − b` of an arithmetic atom.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinForm {
    pub(crate) terms: Vec<(TermId, Rat)>,
    pub(crate) constant: Rat,
}

impl LinForm {
    pub(crate) fn negated(&self) -> LinForm {
        LinForm {
            terms: self.terms.iter().map(|&(t, c)| (t, -c)).collect(),
            constant: -self.constant,
        }
    }
}

/// How one theory atom is handled by the checker.
#[derive(Clone, Debug)]
pub(crate) enum AtomKind {
    /// Equality between two terms; `lin` is the linear form of `a − b` when
    /// both sides are numeric (propagated to the simplex on positive
    /// assertion).
    Eq {
        a: TermId,
        b: TermId,
        lin: Option<LinForm>,
    },
    /// `a ≤ b` (`strict = false`) or `a < b` (`strict = true`); `lin` is the
    /// linear form of `a − b`, `both_int` whether both sides are integers.
    Ineq {
        lin: LinForm,
        strict: bool,
        both_int: bool,
    },
    /// Any other Boolean-sorted term: an EUF predicate constrained to equal
    /// `true`/`false`.
    Pred,
}

/// Precomputed theory-checking context for a fixed set of atoms.
#[derive(Clone, Debug)]
pub struct TheoryChecker {
    pub(crate) template: EufTemplate,
    pub(crate) kinds: FxHashMap<TermId, AtomKind>,
    /// Whether each numeric leaf term is integer-sorted.
    pub(crate) leaf_is_int: FxHashMap<TermId, bool>,
    /// The Boolean constants, used to constrain predicate atoms.
    pub(crate) tru: TermId,
    pub(crate) fls: TermId,
}

impl TheoryChecker {
    /// Builds the checker for the given atoms (the theory atoms of the lowered
    /// formula). Sub-terms are collected automatically.
    pub fn new(tm: &mut TermManager, atoms: &[TermId]) -> TheoryChecker {
        let tru = tm.tru();
        let fls = tm.fls();
        let mut checker = TheoryChecker {
            template: EufTemplate::new(tm, &[tru, fls]),
            kinds: FxHashMap::default(),
            leaf_is_int: FxHashMap::default(),
            tru,
            fls,
        };
        checker.extend(tm, atoms);
        checker
    }

    /// Extends the checker with additional atoms (incremental sessions): the
    /// congruence template grows in place instead of being rebuilt, and the
    /// precomputed linear forms of existing atoms are reused. Atoms already
    /// known are ignored.
    pub fn extend(&mut self, tm: &TermManager, atoms: &[TermId]) {
        let fresh: Vec<TermId> = atoms
            .iter()
            .copied()
            .filter(|a| !self.kinds.contains_key(a))
            .collect();
        if fresh.is_empty() {
            return;
        }
        let mut obs_span = ids_obs::span("theory_extend");
        obs_span.note(|| format!("atoms={}", fresh.len()));
        self.template.extend(tm, &fresh);
        for &atom in &fresh {
            let term = tm.term(atom);
            let kind = match term.op {
                Op::Eq => {
                    let (a, b) = (term.args[0], term.args[1]);
                    let lin = if tm.sort(a).is_numeric() {
                        Some(difference_form(tm, a, b, &mut self.leaf_is_int))
                    } else {
                        None
                    };
                    AtomKind::Eq { a, b, lin }
                }
                Op::Le | Op::Lt => {
                    let (a, b) = (term.args[0], term.args[1]);
                    let lin = difference_form(tm, a, b, &mut self.leaf_is_int);
                    let both_int = tm.sort(a) == &Sort::Int && tm.sort(b) == &Sort::Int;
                    AtomKind::Ineq {
                        lin,
                        strict: term.op == Op::Lt,
                        both_int,
                    }
                }
                _ => AtomKind::Pred,
            };
            self.kinds.insert(atom, kind);
        }
    }

    /// Checks the conjunction of `literals` (atom term, polarity) for
    /// consistency in EUF + linear arithmetic, using Bland's pivot rule.
    pub fn check(&self, tm: &TermManager, literals: &[(TermId, bool)]) -> TheoryCheck {
        self.check_with(tm, literals, PivotRule::Bland)
    }

    /// Like [`TheoryChecker::check`], but with an explicit simplex pivot rule.
    pub fn check_with(
        &self,
        tm: &TermManager,
        literals: &[(TermId, bool)],
        pivot: PivotRule,
    ) -> TheoryCheck {
        let (tru, fls) = (self.tru, self.fls);

        // ------------------------------------------------------------- EUF pass
        let mut euf = Euf::with_template(tm, &self.template);
        euf.assert_neq(tru, fls, AXIOM_TAG);

        // Arithmetic literals are collected and loaded after EUF, because EUF
        // equalities over numeric terms must be propagated into the simplex.
        struct ArithLit<'f> {
            form: std::borrow::Cow<'f, LinForm>,
            rel: Rel,
            both_int: bool,
            tag: usize,
        }
        let mut arith_lits: Vec<ArithLit<'_>> = Vec::new();

        for (idx, &(atom, positive)) in literals.iter().enumerate() {
            match self.kinds.get(&atom) {
                Some(AtomKind::Eq { a, b, lin }) => {
                    if positive {
                        euf.assert_eq(*a, *b, idx);
                        if let Some(form) = lin {
                            arith_lits.push(ArithLit {
                                form: std::borrow::Cow::Borrowed(form),
                                rel: Rel::Eq,
                                both_int: false,
                                tag: idx,
                            });
                        }
                    } else {
                        euf.assert_neq(*a, *b, idx);
                        // Negative numeric equalities are covered by the
                        // trichotomy lemmas added during lowering.
                    }
                }
                Some(AtomKind::Ineq {
                    lin,
                    strict,
                    both_int,
                }) => {
                    // positive `a ≤ b` is `a − b ≤ 0`; its negation is `b < a`.
                    let (form, rel) = if positive {
                        (
                            std::borrow::Cow::Borrowed(lin),
                            if *strict { Rel::Lt } else { Rel::Le },
                        )
                    } else {
                        (
                            std::borrow::Cow::Owned(lin.negated()),
                            if *strict { Rel::Le } else { Rel::Lt },
                        )
                    };
                    arith_lits.push(ArithLit {
                        form,
                        rel,
                        both_int: *both_int,
                        tag: idx,
                    });
                }
                Some(AtomKind::Pred) | None => {
                    let target = if positive { tru } else { fls };
                    euf.assert_eq(atom, target, idx);
                }
            }
        }

        if let EufOutcome::Conflict(tags) = euf.check() {
            return TheoryCheck::Conflict(clean_tags(tags));
        }

        // ------------------------------------------------------ arithmetic pass
        if arith_lits.is_empty() {
            return TheoryCheck::Consistent;
        }

        let mut simplex = Simplex::with_rule(pivot);
        let mut var_of_term: FxHashMap<TermId, usize> = FxHashMap::default();
        // Tags >= DERIVED_BASE refer to EUF-derived equalities; their explanation
        // replaces them in conflicts.
        let derived_base = literals.len() + 10;
        let mut derived_explanations: Vec<Vec<usize>> = Vec::new();

        let conflict_from =
            |tags: Vec<usize>, derived_explanations: &Vec<Vec<usize>>| -> TheoryCheck {
                let mut out = Vec::new();
                for t in tags {
                    if t >= derived_base {
                        out.extend(derived_explanations[t - derived_base].iter().copied());
                    } else {
                        out.push(t);
                    }
                }
                TheoryCheck::Conflict(clean_tags(out))
            };

        // Load the arithmetic literals. Strict inequalities over integer-sorted
        // sides are tightened to non-strict ones (`a < b` becomes `a + 1 <= b`),
        // which keeps integer reasoning inside plain simplex and avoids
        // branch-and-bound chasing infinitesimals.
        let mut load_error: Option<Vec<usize>> = None;
        for lit in &arith_lits {
            let mut expr = LinExpr::zero();
            expr.constant = lit.form.constant;
            for &(leaf, coeff) in &lit.form.terms {
                let v = *var_of_term.entry(leaf).or_insert_with(|| {
                    simplex.new_var(*self.leaf_is_int.get(&leaf).unwrap_or(&false))
                });
                expr.add_term(coeff, v);
            }
            let rel = if lit.rel == Rel::Lt && lit.both_int {
                expr.constant += Rat::ONE;
                Rel::Le
            } else {
                lit.rel
            };
            if let Err(tags) = simplex.add_constraint(&expr, rel, lit.tag) {
                load_error = Some(tags);
                break;
            }
        }
        if let Some(tags) = load_error {
            return conflict_from(tags, &derived_explanations);
        }

        // Propagate EUF-derived equalities between numeric atom terms.
        let atom_terms: Vec<TermId> = var_of_term.keys().copied().collect();
        let mut by_class: FxHashMap<usize, Vec<TermId>> = FxHashMap::default();
        for &t in &atom_terms {
            if let Some(c) = euf.class_index(t) {
                by_class.entry(c).or_default().push(t);
            }
        }
        for (_, group) in by_class {
            if group.len() < 2 {
                continue;
            }
            for w in group.windows(2) {
                let (a, b) = (w[0], w[1]);
                let explanation = euf.explain_terms(a, b);
                let derived_tag = derived_base + derived_explanations.len();
                derived_explanations.push(explanation);
                let mut expr = LinExpr::variable(var_of_term[&a]);
                expr.add_term(-Rat::ONE, var_of_term[&b]);
                if let Err(tags) = simplex.add_constraint(&expr, Rel::Eq, derived_tag) {
                    return conflict_from(tags, &derived_explanations);
                }
            }
        }

        match simplex.check() {
            ArithOutcome::Sat(_) => TheoryCheck::Consistent,
            ArithOutcome::Conflict(tags) => conflict_from(tags, &derived_explanations),
            ArithOutcome::Unknown => TheoryCheck::Unknown,
        }
    }
}

/// Checks the conjunction of `literals` (atom term, polarity) for consistency.
///
/// This is the one-shot convenience wrapper around [`TheoryChecker`], which
/// answers any number of literal sets over its atoms once built.
pub fn check_literals(tm: &mut TermManager, literals: &[(TermId, bool)]) -> TheoryCheck {
    let atoms: Vec<TermId> = literals.iter().map(|&(t, _)| t).collect();
    let checker = TheoryChecker::new(tm, &atoms);
    checker.check(tm, literals)
}

fn clean_tags(mut tags: Vec<usize>) -> Vec<usize> {
    tags.retain(|&t| t != AXIOM_TAG);
    tags.sort_unstable();
    tags.dedup();
    tags
}

/// Precomputes the linear form of `a − b` over uninterpreted numeric leaves,
/// recording the integer-sortedness of every leaf encountered.
fn difference_form(
    tm: &TermManager,
    a: TermId,
    b: TermId,
    leaf_is_int: &mut FxHashMap<TermId, bool>,
) -> LinForm {
    let mut form = LinForm::default();
    accumulate(tm, a, Rat::ONE, &mut form, leaf_is_int);
    accumulate(tm, b, -Rat::ONE, &mut form, leaf_is_int);
    // Merge duplicate leaves.
    form.terms.sort_by_key(|&(t, _)| t);
    let mut merged: Vec<(TermId, Rat)> = Vec::with_capacity(form.terms.len());
    for (t, c) in form.terms {
        match merged.last_mut() {
            Some((lt, lc)) if *lt == t => *lc += c,
            _ => merged.push((t, c)),
        }
    }
    merged.retain(|&(_, c)| c != Rat::ZERO);
    form.terms = merged;
    form
}

/// Adds `scale · t` to the linear form, descending through interpreted
/// arithmetic operators and treating everything else as an uninterpreted leaf.
fn accumulate(
    tm: &TermManager,
    t: TermId,
    scale: Rat,
    form: &mut LinForm,
    leaf_is_int: &mut FxHashMap<TermId, bool>,
) {
    let term = tm.term(t);
    match &term.op {
        Op::IntLit(n) => form.constant += scale * Rat::from_int(*n),
        Op::RealLit(r) => form.constant += scale * *r,
        Op::Add => {
            for &a in &term.args {
                accumulate(tm, a, scale, form, leaf_is_int);
            }
        }
        Op::Sub => {
            accumulate(tm, term.args[0], scale, form, leaf_is_int);
            accumulate(tm, term.args[1], -scale, form, leaf_is_int);
        }
        Op::Neg => accumulate(tm, term.args[0], -scale, form, leaf_is_int),
        Op::MulConst(k) => accumulate(tm, term.args[0], scale * *k, form, leaf_is_int),
        _ => {
            leaf_is_int.insert(t, tm.sort(t) == &Sort::Int);
            form.terms.push((t, scale));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euf_only_conflict() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let eq_xy = tm.eq(x, y);
        let eq_f = tm.eq(fx, fy);
        let lits = vec![(eq_xy, true), (eq_f, false)];
        match check_literals(&mut tm, &lits) {
            TheoryCheck::Conflict(c) => assert_eq!(c, vec![0, 1]),
            other => panic!("expected conflict, got {:?}", other),
        }
    }

    #[test]
    fn arith_only_conflict() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let one = tm.int(1);
        let xp1 = tm.add(x, one);
        let le = tm.le(xp1, x);
        let lits = vec![(le, true)];
        match check_literals(&mut tm, &lits) {
            TheoryCheck::Conflict(c) => assert_eq!(c, vec![0]),
            other => panic!("expected conflict, got {:?}", other),
        }
    }

    #[test]
    fn combined_euf_to_arith() {
        // a = b (locs), key(a) <= 5, key(b) >= 7 : conflict needs congruence
        // key(a) = key(b) propagated into arithmetic.
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::Loc);
        let b = tm.var("b", Sort::Loc);
        let ka = tm.app("key", vec![a], Sort::Int);
        let kb = tm.app("key", vec![b], Sort::Int);
        let five = tm.int(5);
        let seven = tm.int(7);
        let eq = tm.eq(a, b);
        let le5 = tm.le(ka, five);
        let ge7 = tm.ge(kb, seven);
        let lits = vec![(eq, true), (le5, true), (ge7, true)];
        match check_literals(&mut tm, &lits) {
            TheoryCheck::Conflict(c) => {
                assert!(c.contains(&0) && c.contains(&1) && c.contains(&2));
            }
            other => panic!("expected conflict, got {:?}", other),
        }
    }

    #[test]
    fn bool_predicate_conflict() {
        // p(x) asserted both true and false (via equal arguments).
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let px = tm.app("p", vec![x], Sort::Bool);
        let py = tm.app("p", vec![y], Sort::Bool);
        let eq = tm.eq(x, y);
        let lits = vec![(eq, true), (px, true), (py, false)];
        match check_literals(&mut tm, &lits) {
            TheoryCheck::Conflict(c) => assert_eq!(c, vec![0, 1, 2]),
            other => panic!("expected conflict, got {:?}", other),
        }
    }

    #[test]
    fn consistent_mixed() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let kx = tm.app("key", vec![x], Sort::Int);
        let ky = tm.app("key", vec![y], Sort::Int);
        let le = tm.le(kx, ky);
        let neq = tm.eq(x, y);
        let lits = vec![(le, true), (neq, false)];
        assert_eq!(check_literals(&mut tm, &lits), TheoryCheck::Consistent);
    }

    #[test]
    fn rational_average_consistent() {
        // rank(z) = (rank(x) + rank(y)) / 2, rank(x) < rank(y)
        // implies rank(x) < rank(z) is consistent; its negation plus the
        // hypotheses is a conflict.
        let mut tm = TermManager::new();
        let rx = tm.var("rank_x", Sort::Real);
        let ry = tm.var("rank_y", Sort::Real);
        let rz = tm.var("rank_z", Sort::Real);
        let sum = tm.add(rx, ry);
        let avg = tm.mul_const(Rat::new(1, 2), sum);
        let def = tm.eq(rz, avg);
        let lt = tm.lt(rx, ry);
        let concl = tm.lt(rx, rz);
        let lits = vec![(def, true), (lt, true), (concl, false)];
        assert!(matches!(
            check_literals(&mut tm, &lits),
            TheoryCheck::Conflict(_)
        ));
    }

    #[test]
    fn checker_is_reusable_across_rounds() {
        // The same precomputed checker must answer different literal subsets
        // independently.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Int);
        let fy = tm.app("f", vec![y], Sort::Int);
        let one = tm.int(1);
        let eq_xy = tm.eq(x, y);
        let eq_f = tm.eq(fx, fy);
        let le = tm.le(fx, one);
        let checker = TheoryChecker::new(&mut tm, &[eq_xy, eq_f, le]);
        // Round 1: x = y but f(x) != f(y) — conflict.
        let r1 = checker.check(&tm, &[(eq_xy, true), (eq_f, false)]);
        assert!(matches!(r1, TheoryCheck::Conflict(_)));
        // Round 2: consistent subset.
        let r2 = checker.check(&tm, &[(eq_xy, false), (le, true)]);
        assert_eq!(r2, TheoryCheck::Consistent);
    }
}
