//! Ground instantiation for the *quantified* (Dafny-style) encoding used in
//! the paper's RQ3 comparison.
//!
//! The decidable FWYB pipeline never produces quantifiers; this module exists
//! only so the repository can reproduce the experiment that contrasts
//! decidable verification conditions with the quantifier-laden conditions a
//! Dafny-like frontend generates for allocation and frame reasoning. There,
//! each call frames the heap with positive, guarded hypotheses
//! `guard ⇒ ∀i. …`, one per heap map and one for the growth of `Alloc`.
//!
//! The solver never sees a `forall` (asserting one makes every check of an
//! [`crate::IncrementalSolver`] answer Unknown). A session instead holds each
//! [`is_guarded_forall`] hypothesis back and asserts its [`instantiate`]d
//! instances over the ground terms of each query: sound for Unsat answers but
//! incomplete, which is exactly the predictability gap the paper criticises.

use std::collections::{HashMap, HashSet};

use crate::term::{Op, Sort, TermId, TermManager};

/// The most instances one `forall` occurrence yields per query.
pub const MAX_INSTANCES_PER_FORALL: usize = 2000;

/// Whether `t` has the shape of a quantified hypothesis, `∀x. body` or
/// `guard ⇒ ∀x. body`: a test of the term's top, not a walk.
pub fn is_guarded_forall(tm: &TermManager, t: TermId) -> bool {
    let term = tm.term(t);
    match term.op {
        Op::Forall(_) => true,
        Op::Implies => matches!(tm.term(term.args[1]).op, Op::Forall(_)),
        _ => false,
    }
}

/// Instances of the [`is_guarded_forall`] `hypotheses` over the ground
/// `Loc`, `Int` and `Real` terms of `roots` (the whole query), as
/// `(hypothesis index, instance)` pairs in hypothesis order.
///
/// An instance is the hypothesis with its `forall` replaced by the body at
/// one tuple of ground terms, at most [`MAX_INSTANCES_PER_FORALL`] tuples
/// per hypothesis, so it follows from the hypothesis. A `forall` inside the
/// body survives into the instance.
pub fn instantiate(
    tm: &mut TermManager,
    hypotheses: &[TermId],
    roots: &[TermId],
) -> Vec<(usize, TermId)> {
    let pool = ground_pool(tm, roots);
    let mut out = Vec::new();
    for (i, &h) in hypotheses.iter().enumerate() {
        let (guard, quantified) = match tm.term(h).op {
            Op::Implies => (Some(tm.term(h).args[0]), tm.term(h).args[1]),
            _ => (None, h),
        };
        let Op::Forall(bound) = tm.term(quantified).op.clone() else {
            panic!("instantiate takes is_guarded_forall hypotheses only");
        };
        let body = tm.term(quantified).args[0];
        for subst in tuples(&bound, &pool)
            .into_iter()
            .take(MAX_INSTANCES_PER_FORALL)
        {
            let instance = tm.substitute(body, &subst);
            let instance = match guard {
                Some(g) => tm.implies(g, instance),
                None => instance,
            };
            out.push((i, instance));
        }
    }
    out
}

/// The ground terms of `roots` by sort, each once, in the order of a
/// depth-first walk: leaves, selects and applications that mention no
/// variable a `forall` of `roots` binds.
fn ground_pool(tm: &TermManager, roots: &[TermId]) -> HashMap<Sort, Vec<TermId>> {
    let order = tm.subterms(roots);
    let bound: Vec<&str> = order
        .iter()
        .filter_map(|&t| match &tm.term(t).op {
            Op::Forall(vars) => Some(vars),
            _ => None,
        })
        .flatten()
        .map(|(name, _)| name.as_str())
        .collect();
    // A term's arguments are older than it, so ascending ids visit them first.
    let mut by_id = order.clone();
    by_id.sort_unstable();
    let mut mentions_bound: HashSet<TermId> = HashSet::new();
    for &t in &by_id {
        let term = tm.term(t);
        let mentions = match &term.op {
            Op::Var(name) => bound.contains(&name.as_str()),
            _ => term.args.iter().any(|a| mentions_bound.contains(a)),
        };
        if mentions {
            mentions_bound.insert(t);
        }
    }
    let mut pool: HashMap<Sort, Vec<TermId>> = HashMap::new();
    for t in order {
        let term = tm.term(t);
        let groundish = term.args.is_empty() || matches!(term.op, Op::Select | Op::App(_));
        if groundish
            && matches!(term.sort, Sort::Loc | Sort::Int | Sort::Real)
            && !mentions_bound.contains(&t)
        {
            pool.entry(term.sort.clone()).or_default().push(t);
        }
    }
    pool
}

/// Every substitution of the bound variables by pool terms of their sorts.
fn tuples(
    bound: &[(String, Sort)],
    pool: &HashMap<Sort, Vec<TermId>>,
) -> Vec<HashMap<String, TermId>> {
    let mut result: Vec<HashMap<String, TermId>> = vec![HashMap::new()];
    for (name, sort) in bound {
        let candidates = pool.get(sort).map(Vec::as_slice).unwrap_or_default();
        let mut next = Vec::new();
        for partial in &result {
            for &c in candidates {
                let mut m = partial.clone();
                m.insert(name.clone(), c);
                next.push(m);
            }
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_forall_yields_one_guarded_instance_per_ground_term() {
        // g ⇒ ∀i. p(i) over a query mentioning a and b: g ⇒ p(a), g ⇒ p(b);
        // the bound variable itself is never an instance.
        let mut tm = TermManager::new();
        let g = tm.var("g", Sort::Bool);
        let (a, b) = (tm.var("a", Sort::Loc), tm.var("b", Sort::Loc));
        let i = tm.var("i", Sort::Loc);
        let pi = tm.app("p", vec![i], Sort::Bool);
        let all = tm.forall(vec![("i".into(), Sort::Loc)], pi);
        let h = tm.implies(g, all);
        let eq = tm.eq(a, b);
        assert!(is_guarded_forall(&tm, h) && is_guarded_forall(&tm, all));
        assert!(!is_guarded_forall(&tm, eq));
        let got = instantiate(&mut tm, &[h], &[h, eq]);
        let pa = tm.app("p", vec![a], Sort::Bool);
        let pb = tm.app("p", vec![b], Sort::Bool);
        let mut want = vec![(0, tm.implies(g, pa)), (0, tm.implies(g, pb))];
        let mut got_sorted = got.clone();
        got_sorted.sort();
        want.sort();
        assert_eq!(got_sorted, want);
    }
}
