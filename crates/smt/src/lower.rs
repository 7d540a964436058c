//! Lowering of set/array structure to EUF + arithmetic by finite
//! instantiation.
//!
//! The FWYB verification conditions use sets and maps only in ways that admit
//! a *local* finite instantiation: every universal fact hidden inside a set or
//! array operation (the meaning of `union`, read-over-write for `store`,
//! pointwise frame updates, extensionality, subset) only ever needs to be
//! known at the ground index/element terms occurring in the query, plus one
//! fresh Skolem witness per (dis)equality or subset atom between containers.
//! After this pass the formula mentions only Boolean structure, equalities,
//! linear arithmetic and uninterpreted applications (`Select`, `Member`, user
//! functions), which is exactly what [`crate::theory`] decides.
//!
//! The pass also:
//! * eliminates non-Boolean `ite` terms by introducing defined constants,
//! * expands `distinct` into pairwise disequalities, and
//! * adds trichotomy lemmas `a = b ∨ a < b ∨ b < a` for numeric equality
//!   atoms so that negated numeric equalities are visible to the simplex.

use crate::fxmap::{FxHashMap, FxHashSet};
use crate::term::{Op, Sort, TermId, TermManager};

/// Lowers the conjunction of `roots`; returns the new conjunction of roots
/// (original assertions rewritten, plus instantiated axioms).
pub fn lower(tm: &mut TermManager, roots: &[TermId]) -> Vec<TermId> {
    let mut ctx = LowerCtx::new();
    let batch = ctx.add(tm, roots);
    let mut out = batch.roots;
    out.extend(batch.facts);
    out
}

/// Rewrites away non-Boolean `ite` and `distinct`.
fn rewrite(
    tm: &mut TermManager,
    t: TermId,
    cache: &mut FxHashMap<TermId, TermId>,
    side: &mut Vec<TermId>,
) -> TermId {
    if let Some(&r) = cache.get(&t) {
        return r;
    }
    let term = tm.term(t).clone();
    let args: Vec<TermId> = term
        .args
        .iter()
        .map(|&a| rewrite(tm, a, cache, side))
        .collect();
    let result = match &term.op {
        Op::Ite if term.sort != Sort::Bool => {
            let v = tm.fresh_var("ite", term.sort.clone());
            let (c, th, el) = (args[0], args[1], args[2]);
            let eq_t = tm.eq(v, th);
            let eq_e = tm.eq(v, el);
            let pos = tm.implies(c, eq_t);
            let nc = tm.not(c);
            let neg = tm.implies(nc, eq_e);
            side.push(pos);
            side.push(neg);
            v
        }
        Op::Distinct => {
            let mut conj = Vec::new();
            for i in 0..args.len() {
                for j in (i + 1)..args.len() {
                    let ne = tm.neq(args[i], args[j]);
                    conj.push(ne);
                }
            }
            tm.and(conj)
        }
        _ => {
            if args == term.args {
                t
            } else {
                rebuild(tm, &term.op, args, &term.sort)
            }
        }
    };
    cache.insert(t, result);
    result
}

/// Rebuilds a term of sort `sort` with new arguments of the same sorts, going
/// through the smart constructors so that folding/normalization stays
/// consistent.
fn rebuild(tm: &mut TermManager, op: &Op, args: Vec<TermId>, sort: &Sort) -> TermId {
    match op {
        Op::Not => tm.not(args[0]),
        Op::And => tm.and(args),
        Op::Or => tm.or(args),
        Op::Implies => tm.implies(args[0], args[1]),
        Op::Iff => tm.iff(args[0], args[1]),
        Op::Ite => tm.ite(args[0], args[1], args[2]),
        Op::Eq => tm.eq(args[0], args[1]),
        Op::Add => tm.add_many(args),
        Op::Sub => tm.sub(args[0], args[1]),
        Op::Neg => tm.neg(args[0]),
        Op::MulConst(k) => tm.mul_const(*k, args[0]),
        Op::Le => tm.le(args[0], args[1]),
        Op::Lt => tm.lt(args[0], args[1]),
        Op::Select => tm.select(args[0], args[1]),
        Op::Store => tm.store(args[0], args[1], args[2]),
        Op::MapIte => tm.map_ite(args[0], args[1], args[2]),
        Op::Singleton => tm.singleton(args[0]),
        Op::Union => tm.union(args[0], args[1]),
        Op::Inter => tm.inter(args[0], args[1]),
        Op::Diff => tm.diff(args[0], args[1]),
        Op::Member => tm.member(args[0], args[1]),
        Op::Subset => tm.subset(args[0], args[1]),
        Op::Forall(bound) => tm.forall(bound.clone(), args[0]),
        _ => tm.mk(op.clone(), args, sort.clone()),
    }
}

/// Per-sort pools of relevant index/element terms. Pools are append-only —
/// the incremental lowering context's watermarks index into them — with an
/// O(1) membership set on the side (a term's sort is unique, so one global
/// set covers every pool).
#[derive(Clone, Debug, Default)]
struct Pools {
    by_sort: FxHashMap<Sort, Vec<TermId>>,
    pooled: FxHashSet<TermId>,
}

impl Pools {
    fn add(&mut self, sort: &Sort, t: TermId) {
        if self.pooled.insert(t) {
            self.by_sort.entry(sort.clone()).or_default().push(t);
        }
    }

    fn get(&self, sort: &Sort) -> &[TermId] {
        self.by_sort.get(sort).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

fn elem_sort_of_container(sort: &Sort) -> Option<&Sort> {
    match sort {
        Sort::Set(e) => Some(e),
        Sort::Array(i, _) => Some(i),
        _ => None,
    }
}

/// The output of one [`LowerCtx::add`] call.
///
/// `roots` are the rewritten input assertions — they carry the *assertion*
/// semantics and must be asserted in whatever scope the caller is in.
/// `facts` are definitional side conditions, instantiated theory axioms and
/// trichotomy lemmas: all of them are valid (or definitional over globally
/// fresh symbols), so a push/pop solver may assert them permanently even when
/// the triggering assertion later gets retracted.
pub struct LoweredBatch {
    /// Rewritten input assertions, in input order.
    pub roots: Vec<TermId>,
    /// Permanent facts: `ite` elimination definitions, instantiated axioms,
    /// trichotomy lemmas — in emission order.
    pub facts: Vec<TermId>,
}

/// A persistent, incremental lowering context.
///
/// The batch [`lower`] pass instantiates the set/array axioms over the ground
/// index/element terms of *one* query. An incremental session instead feeds
/// assertions in piecemeal (a method's shared hypotheses once, then each
/// goal); this context keeps every pool, trigger and Skolem witness across
/// calls so that each [`LowerCtx::add`] emits exactly the *new* axioms —
/// the cross products `new trigger × known elements` and
/// `known triggers × new elements` — and never re-lowers what came before.
///
/// All emitted facts are sound to keep asserted forever: instantiated axioms
/// are valid theory facts, and each Skolem witness is a globally fresh
/// variable constrained only by the Skolemization of a valid existential, so
/// retracting the assertion that introduced them never makes retained facts
/// spurious.
#[derive(Clone, Debug, Default)]
pub struct LowerCtx {
    rewrite_cache: FxHashMap<TermId, TermId>,
    /// Sub-terms already categorized into pools/triggers.
    scanned: FxHashSet<TermId>,
    pools: Pools,
    // Every trigger carries a *watermark*: how many elements of its pool it
    // has already been instantiated against. Pools are append-only, so each
    // (trigger, element) pair is constructed exactly once across all `add`
    // calls — new triggers start at 0 and consume the whole pool, old
    // triggers only consume the pool's new tail.
    stores: Vec<(TermId, usize)>,
    map_ites: Vec<(TermId, usize)>,
    compound_sets: Vec<(TermId, usize)>,
    subset_atoms: Vec<(TermId, usize)>,
    container_eq_atoms: Vec<(TermId, usize)>,
    /// Skolem witnesses whose axiom is not built yet.
    subset_witness: FxHashMap<TermId, TermId>,
    eq_witness: FxHashMap<TermId, TermId>,
    /// Axioms already emitted, so that none is asserted twice.
    emitted: FxHashSet<TermId>,
    /// Sub-terms already scanned for trichotomy lemmas.
    trich_scanned: FxHashSet<TermId>,
}

impl LowerCtx {
    /// Creates an empty context.
    pub fn new() -> LowerCtx {
        LowerCtx::default()
    }

    /// Lowers additional assertions against everything added before.
    pub fn add(&mut self, tm: &mut TermManager, roots: &[TermId]) -> LoweredBatch {
        let mut side: Vec<TermId> = Vec::new();
        let rewritten: Vec<TermId> = roots
            .iter()
            .map(|&r| rewrite(tm, r, &mut self.rewrite_cache, &mut side))
            .collect();

        let mut scan_roots: Vec<TermId> = rewritten.clone();
        scan_roots.extend(side.iter().copied());
        self.scan(tm, &scan_roots);

        let mut axioms: Vec<TermId> = Vec::new();
        self.emit_axioms(tm, &mut axioms);

        let mut trich_roots = scan_roots;
        trich_roots.extend(axioms.iter().copied());
        let mut lemmas: Vec<TermId> = Vec::new();
        self.trichotomy(tm, &trich_roots, &mut lemmas);

        let mut facts = side;
        facts.extend(axioms);
        facts.extend(lemmas);
        LoweredBatch {
            roots: rewritten,
            facts,
        }
    }

    /// Categorizes the not-yet-seen sub-terms of `roots` into element pools
    /// and axiom triggers, creating Skolem witnesses for new subset/equality
    /// atoms (witnesses join the pools like any other element).
    fn scan(&mut self, tm: &mut TermManager, roots: &[TermId]) {
        let mut new_subsets: Vec<TermId> = Vec::new();
        let mut new_eqs: Vec<TermId> = Vec::new();
        // Same stack DFS as `TermManager::subterms`, but with the persistent
        // visited set so repeated calls only walk new structure.
        let mut stack: Vec<TermId> = roots.to_vec();
        while let Some(t) = stack.pop() {
            if !self.scanned.insert(t) {
                continue;
            }
            let term = tm.term(t);
            stack.extend(term.args.iter().copied());
            match &term.op {
                Op::Member => {
                    let elem = term.args[0];
                    self.pools.add(tm.sort(elem), elem);
                }
                Op::Singleton => {
                    let elem = term.args[0];
                    self.pools.add(tm.sort(elem), elem);
                    self.compound_sets.push((t, 0));
                }
                Op::Union | Op::Inter | Op::Diff | Op::EmptySet(_) => {
                    self.compound_sets.push((t, 0));
                }
                Op::Select => {
                    let idx = term.args[1];
                    self.pools.add(tm.sort(idx), idx);
                }
                Op::Store => {
                    let idx = term.args[1];
                    self.pools.add(tm.sort(idx), idx);
                    self.stores.push((t, 0));
                }
                Op::MapIte => {
                    self.map_ites.push((t, 0));
                }
                Op::Subset => {
                    self.subset_atoms.push((t, 0));
                    new_subsets.push(t);
                }
                Op::Eq if tm.sort(term.args[0]).is_container() => {
                    self.container_eq_atoms.push((t, 0));
                    new_eqs.push(t);
                }
                _ => {}
            }
        }
        // Skolem witnesses for the new subset/equality atoms, added to the
        // pools *before* instantiation.
        for a in new_subsets {
            let s = tm.term(a).args[0];
            if let Some(elem_sort) = elem_sort_of_container(tm.sort(s)).cloned() {
                let w = tm.fresh_var("sub_w", elem_sort.clone());
                self.pools.add(&elem_sort, w);
                self.subset_witness.insert(a, w);
            }
        }
        for a in new_eqs {
            let s = tm.term(a).args[0];
            if let Some(elem_sort) = elem_sort_of_container(tm.sort(s)).cloned() {
                let w = tm.fresh_var("ext_w", elem_sort.clone());
                self.pools.add(&elem_sort, w);
                self.eq_witness.insert(a, w);
            }
        }
    }

    /// Emits the axioms of every not-yet-covered (trigger, element) pair:
    /// each trigger consumes its pool from its watermark to the current end,
    /// so repeated `add` calls never re-construct candidate axiom terms for
    /// pairs handled before. Each Skolem witness axiom is built once, by the
    /// first call after its atom was scanned.
    fn emit_axioms(&mut self, tm: &mut TermManager, axioms: &mut Vec<TermId>) {
        let emitted = &mut self.emitted;
        let mut push = |tm: &mut TermManager, ax: TermId, axioms: &mut Vec<TermId>| {
            if tm.term(ax).op != Op::True && emitted.insert(ax) {
                axioms.push(ax);
            }
        };
        // Snapshot of a trigger's uncovered tail of the pool of `elem_sort`
        // (cloned so `tm` can be mutated while iterating; empty when the
        // trigger has no element sort), advancing the watermark to the end.
        let pools = &self.pools;
        let tail = |mark: &mut usize, elem_sort: Option<&Sort>| -> Vec<TermId> {
            let pool = elem_sort.map_or(&[][..], |sort| pools.get(sort));
            let new = pool[*mark..].to_vec();
            *mark = pool.len();
            new
        };

        // 1. Membership axioms for compound set terms, at every pooled element.
        for (s, mark) in self.compound_sets.iter_mut() {
            let s = *s;
            let new = tail(mark, elem_sort_of_container(tm.sort(s)));
            if new.is_empty() {
                continue;
            }
            let term = tm.term(s).clone();
            for e in new {
                let mem = tm.member(e, s);
                let def = match &term.op {
                    Op::EmptySet(_) => {
                        let f = tm.fls();
                        tm.iff(mem, f)
                    }
                    Op::Singleton => {
                        let eq = tm.eq(e, term.args[0]);
                        tm.iff(mem, eq)
                    }
                    Op::Union => {
                        let m1 = tm.member(e, term.args[0]);
                        let m2 = tm.member(e, term.args[1]);
                        let d = tm.or2(m1, m2);
                        tm.iff(mem, d)
                    }
                    Op::Inter => {
                        let m1 = tm.member(e, term.args[0]);
                        let m2 = tm.member(e, term.args[1]);
                        let c = tm.and2(m1, m2);
                        tm.iff(mem, c)
                    }
                    Op::Diff => {
                        let m1 = tm.member(e, term.args[0]);
                        let m2 = tm.member(e, term.args[1]);
                        let nm2 = tm.not(m2);
                        let c = tm.and2(m1, nm2);
                        tm.iff(mem, c)
                    }
                    _ => unreachable!(),
                };
                push(tm, def, axioms);
            }
        }

        // 2. Read-over-write axioms for stores, at every pooled index.
        for (st, mark) in self.stores.iter_mut() {
            let st = *st;
            let args = &tm.term(st).args;
            let (base, idx, val) = (args[0], args[1], args[2]);
            for j in tail(mark, Some(tm.sort(idx))) {
                let sel = tm.select(st, j);
                let eq_idx = tm.eq(j, idx);
                let sel_val = tm.eq(sel, val);
                let hit = tm.implies(eq_idx, sel_val);
                let sel_base = tm.select(base, j);
                let sel_pass = tm.eq(sel, sel_base);
                let ne = tm.not(eq_idx);
                let miss = tm.implies(ne, sel_pass);
                push(tm, hit, axioms);
                push(tm, miss, axioms);
            }
        }

        // 3. Pointwise frame-update axioms for MapIte, at every pooled index.
        for (mi, mark) in self.map_ites.iter_mut() {
            let mi = *mi;
            let args = &tm.term(mi).args;
            let (modset, m_new, m_old) = (args[0], args[1], args[2]);
            for j in tail(mark, elem_sort_of_container(tm.sort(mi))) {
                let sel = tm.select(mi, j);
                let in_mod = tm.member(j, modset);
                let sel_new = tm.select(m_new, j);
                let sel_old = tm.select(m_old, j);
                let eq_new = tm.eq(sel, sel_new);
                let eq_old = tm.eq(sel, sel_old);
                let hit = tm.implies(in_mod, eq_new);
                let nm = tm.not(in_mod);
                let miss = tm.implies(nm, eq_old);
                push(tm, hit, axioms);
                push(tm, miss, axioms);
            }
        }

        // 4. Subset atoms: positive side (pointwise, guarded), negative side
        //    (Skolem witness).
        for (a, mark) in self.subset_atoms.iter_mut() {
            let a = *a;
            let (s, t) = (tm.term(a).args[0], tm.term(a).args[1]);
            for e in tail(mark, elem_sort_of_container(tm.sort(s))) {
                let ms = tm.member(e, s);
                let mt = tm.member(e, t);
                let imp = tm.implies(ms, mt);
                let ax = tm.implies(a, imp);
                push(tm, ax, axioms);
            }
            if let Some(w) = self.subset_witness.remove(&a) {
                let ms = tm.member(w, s);
                let mt = tm.member(w, t);
                let nmt = tm.not(mt);
                let both = tm.and2(ms, nmt);
                let na = tm.not(a);
                let ax = tm.implies(na, both);
                push(tm, ax, axioms);
            }
        }

        // 5. Container equality atoms: guarded pointwise congruence plus
        //    extensionality witness for the negative side.
        for (a, mark) in self.container_eq_atoms.iter_mut() {
            let a = *a;
            let (s, t) = (tm.term(a).args[0], tm.term(a).args[1]);
            let is_set = matches!(tm.sort(s), Sort::Set(_));
            for e in tail(mark, elem_sort_of_container(tm.sort(s))) {
                let (vs, vt) = if is_set {
                    (tm.member(e, s), tm.member(e, t))
                } else {
                    (tm.select(s, e), tm.select(t, e))
                };
                let eq = tm.eq(vs, vt);
                let ax = tm.implies(a, eq);
                push(tm, ax, axioms);
            }
            if let Some(w) = self.eq_witness.remove(&a) {
                let (vs, vt) = if is_set {
                    (tm.member(w, s), tm.member(w, t))
                } else {
                    (tm.select(s, w), tm.select(t, w))
                };
                let ne = tm.neq(vs, vt);
                let na = tm.not(a);
                let ax = tm.implies(na, ne);
                push(tm, ax, axioms);
            }
        }

        // The axioms may themselves contain new compound structure only in
        // the shape of `member`/`select` over existing terms, so one round
        // suffices (same argument as the batch pass).
    }

    /// Adds `a = b ∨ a < b ∨ b < a` for every not-yet-seen numeric equality
    /// atom among the sub-terms of `roots`.
    fn trichotomy(&mut self, tm: &mut TermManager, roots: &[TermId], lemmas: &mut Vec<TermId>) {
        let mut stack: Vec<TermId> = roots.to_vec();
        while let Some(t) = stack.pop() {
            if !self.trich_scanned.insert(t) {
                continue;
            }
            let term = tm.term(t);
            stack.extend(term.args.iter().copied());
            if term.op == Op::Eq && tm.sort(term.args[0]).is_numeric() {
                let (a, b) = (term.args[0], term.args[1]);
                let lt_ab = tm.lt(a, b);
                let lt_ba = tm.lt(b, a);
                let lemma = tm.or(vec![t, lt_ab, lt_ba]);
                lemmas.push(lemma);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;
    use crate::solver::Solver;

    fn solve(tm: &mut TermManager, roots: &[TermId]) -> SatResult {
        let mut s = Solver::new();
        s.check(tm, roots)
    }

    #[test]
    fn store_select_same_index() {
        // select(store(m, i, v), i) != v  is unsat.
        let mut tm = TermManager::new();
        let m = tm.var("m", Sort::array_of(Sort::Loc, Sort::Int));
        let i = tm.var("i", Sort::Loc);
        let v = tm.var("v", Sort::Int);
        let st = tm.store(m, i, v);
        let sel = tm.select(st, i);
        let ne = tm.neq(sel, v);
        assert_eq!(solve(&mut tm, &[ne]), SatResult::Unsat);
    }

    #[test]
    fn store_select_other_index() {
        // i != j -> select(store(m, i, v), j) = select(m, j); negation unsat.
        let mut tm = TermManager::new();
        let m = tm.var("m", Sort::array_of(Sort::Loc, Sort::Int));
        let i = tm.var("i", Sort::Loc);
        let j = tm.var("j", Sort::Loc);
        let v = tm.var("v", Sort::Int);
        let st = tm.store(m, i, v);
        let sel_st = tm.select(st, j);
        let sel_m = tm.select(m, j);
        let ne_ij = tm.neq(i, j);
        let ne_sel = tm.neq(sel_st, sel_m);
        assert_eq!(solve(&mut tm, &[ne_ij, ne_sel]), SatResult::Unsat);
        // Without i != j it is satisfiable.
        let mut tm2 = TermManager::new();
        let m = tm2.var("m", Sort::array_of(Sort::Loc, Sort::Int));
        let i = tm2.var("i", Sort::Loc);
        let j = tm2.var("j", Sort::Loc);
        let v = tm2.var("v", Sort::Int);
        let st = tm2.store(m, i, v);
        let sel_st = tm2.select(st, j);
        let sel_m = tm2.select(m, j);
        let ne_sel = tm2.neq(sel_st, sel_m);
        assert_eq!(solve(&mut tm2, &[ne_sel]), SatResult::Sat);
    }

    #[test]
    fn union_membership() {
        // x in A, not (x in (A ∪ B)) : unsat.
        let mut tm = TermManager::new();
        let set = Sort::set_of(Sort::Loc);
        let a = tm.var("A", set.clone());
        let b = tm.var("B", set);
        let x = tm.var("x", Sort::Loc);
        let u = tm.union(a, b);
        let in_a = tm.member(x, a);
        let in_u = tm.member(x, u);
        let not_in_u = tm.not(in_u);
        assert_eq!(solve(&mut tm, &[in_a, not_in_u]), SatResult::Unsat);
    }

    #[test]
    fn diff_membership() {
        // x in (A \ B) and x in B : unsat.
        let mut tm = TermManager::new();
        let set = Sort::set_of(Sort::Loc);
        let a = tm.var("A", set.clone());
        let b = tm.var("B", set);
        let x = tm.var("x", Sort::Loc);
        let d = tm.diff(a, b);
        let in_d = tm.member(x, d);
        let in_b = tm.member(x, b);
        assert_eq!(solve(&mut tm, &[in_d, in_b]), SatResult::Unsat);
    }

    #[test]
    fn subset_transitive() {
        // A ⊆ B, B ⊆ C, x ∈ A, x ∉ C : unsat.
        let mut tm = TermManager::new();
        let set = Sort::set_of(Sort::Loc);
        let a = tm.var("A", set.clone());
        let b = tm.var("B", set.clone());
        let c = tm.var("C", set);
        let x = tm.var("x", Sort::Loc);
        let s1 = tm.subset(a, b);
        let s2 = tm.subset(b, c);
        let in_a = tm.member(x, a);
        let in_c = tm.member(x, c);
        let not_in_c = tm.not(in_c);
        assert_eq!(solve(&mut tm, &[s1, s2, in_a, not_in_c]), SatResult::Unsat);
    }

    #[test]
    fn set_extensionality() {
        // A ∪ B = B ∪ A is valid: its negation is unsat.
        let mut tm = TermManager::new();
        let set = Sort::set_of(Sort::Loc);
        let a = tm.var("A", set.clone());
        let b = tm.var("B", set);
        let u1 = tm.union(a, b);
        let u2 = tm.union(b, a);
        let ne = tm.neq(u1, u2);
        assert_eq!(solve(&mut tm, &[ne]), SatResult::Unsat);
    }

    #[test]
    fn singleton_and_empty() {
        // y ∈ {x} → y = x ; and nothing is in ∅.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let sing = tm.singleton(x);
        let in_s = tm.member(y, sing);
        let ne = tm.neq(x, y);
        assert_eq!(solve(&mut tm, &[in_s, ne]), SatResult::Unsat);

        let mut tm2 = TermManager::new();
        let z = tm2.var("z", Sort::Loc);
        let empty = tm2.empty_set(Sort::Loc);
        let in_e = tm2.member(z, empty);
        assert_eq!(solve(&mut tm2, &[in_e]), SatResult::Unsat);
    }

    #[test]
    fn map_ite_frame() {
        // m' = frame update of m with mod-set S and havoc map h:
        //   x ∉ S  ⇒  select(MapIte(S,h,m), x) = select(m, x); negation unsat.
        let mut tm = TermManager::new();
        let arr = Sort::array_of(Sort::Loc, Sort::Int);
        let m = tm.var("m", arr.clone());
        let h = tm.var("h", arr);
        let s = tm.var("S", Sort::set_of(Sort::Loc));
        let x = tm.var("x", Sort::Loc);
        let upd = tm.map_ite(s, h, m);
        let in_s = tm.member(x, s);
        let not_in = tm.not(in_s);
        let sel_u = tm.select(upd, x);
        let sel_m = tm.select(m, x);
        let ne = tm.neq(sel_u, sel_m);
        assert_eq!(solve(&mut tm, &[not_in, ne]), SatResult::Unsat);
    }

    #[test]
    fn ite_elimination() {
        // y = ite(c, 1, 2) and y = 3 : unsat ; y = ite(c,1,2) and y = 2 : sat.
        let mut tm = TermManager::new();
        let c = tm.var("c", Sort::Bool);
        let one = tm.int(1);
        let two = tm.int(2);
        let three = tm.int(3);
        let y = tm.var("y", Sort::Int);
        let ite = tm.ite(c, one, two);
        let def = tm.eq(y, ite);
        let bad = tm.eq(y, three);
        assert_eq!(solve(&mut tm, &[def, bad]), SatResult::Unsat);

        let mut tm2 = TermManager::new();
        let c = tm2.var("c", Sort::Bool);
        let one = tm2.int(1);
        let two = tm2.int(2);
        let y = tm2.var("y", Sort::Int);
        let ite = tm2.ite(c, one, two);
        let def = tm2.eq(y, ite);
        let ok = tm2.eq(y, two);
        assert_eq!(solve(&mut tm2, &[def, ok]), SatResult::Sat);
    }

    #[test]
    fn rewriting_an_application_keeps_its_sort() {
        // `f` is used at two sorts: rewriting `f(ite(c, a, b))` must keep
        // this application's sort, not that of another `f` term.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        tm.app("f", vec![x], Sort::Bool);
        let c = tm.var("c", Sort::Bool);
        let a = tm.var("a", Sort::Loc);
        let b = tm.var("b", Sort::Loc);
        let ite = tm.ite(c, a, b);
        let f = tm.app("f", vec![ite], Sort::Int);
        let mut side = Vec::new();
        let r = rewrite(&mut tm, f, &mut FxHashMap::default(), &mut side);
        assert_ne!(r, f);
        assert_eq!(tm.term(r).op, Op::App("f".into()));
        assert_eq!(tm.sort(r), &Sort::Int);
        assert_eq!(side.len(), 2, "two definitions of the ite's constant");
    }

    #[test]
    fn distinct_expansion() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::Loc);
        let b = tm.var("b", Sort::Loc);
        let c = tm.var("c", Sort::Loc);
        let d = tm.distinct(vec![a, b, c]);
        let eq = tm.eq(a, c);
        assert_eq!(solve(&mut tm, &[d, eq]), SatResult::Unsat);
    }

    #[test]
    fn numeric_disequality_uses_trichotomy() {
        // x <= y, y <= x, x != y : unsat (needs arithmetic to see x != y).
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let le1 = tm.le(x, y);
        let le2 = tm.le(y, x);
        let ne = tm.neq(x, y);
        assert_eq!(solve(&mut tm, &[le1, le2, ne]), SatResult::Unsat);
    }
}
