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
//!
//! Axiom instances and trichotomy lemmas are not terms. Each is an
//! [`Instance`]: a [`Kind`], whose fixed clause shape is defined once in
//! [`Kind::clauses`], over at most three atom terms built with the
//! [`TermManager`]'s smart constructors. [`crate::cnf::assert_instance`]
//! adds those clauses to the SAT core directly, so no connective term is
//! interned for an instance and nothing walks one. Only when a constructor
//! folds an atom (to a constant, to an `iff`, or into another atom) does the
//! instance keep the formula the constructors build ([`Instance::Formula`]),
//! which then goes through [`crate::cnf::assert_fact`] like an `ite`
//! definition.

use crate::fxmap::{FxHashMap, FxHashSet};
use crate::term::{Op, Sort, TermId, TermManager};

/// Lowers the conjunction of `roots`; returns the new conjunction of roots
/// (original assertions rewritten, plus instantiated axioms as formulas).
pub fn lower(tm: &mut TermManager, roots: &[TermId]) -> Vec<TermId> {
    let mut ctx = LowerCtx::new();
    let batch = ctx.add(tm, roots);
    let mut out = batch.roots;
    out.extend(batch.facts);
    out.extend(batch.instances.iter().map(|i| i.formula(tm)));
    out
}

/// The kinds of axiom instance and lemma the lowering emits. Each kind is a
/// fixed formula over its atoms, given both as clauses ([`Kind::clauses`])
/// and as the term the smart constructors build ([`Kind::formula`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `e ∈ ∅ ⇔ false`, over `[e ∈ ∅]`.
    EmptyMember,
    /// `e ∈ {x} ⇔ e = x`, over `[e ∈ {x}, e = x]`.
    SingletonMember,
    /// `e ∈ S ∪ T ⇔ e ∈ S ∨ e ∈ T`, over `[e ∈ S ∪ T, e ∈ S, e ∈ T]`.
    UnionMember,
    /// `e ∈ S ∩ T ⇔ e ∈ S ∧ e ∈ T`, over `[e ∈ S ∩ T, e ∈ S, e ∈ T]`.
    InterMember,
    /// `e ∈ S ∖ T ⇔ e ∈ S ∧ e ∉ T`, over `[e ∈ S ∖ T, e ∈ S, e ∈ T]`.
    DiffMember,
    /// `j = i ⇒ m[i:=v][j] = v`, over `[j = i, m[i:=v][j] = v]`.
    StoreHit,
    /// `j ≠ i ⇒ m[i:=v][j] = m[j]`, over `[j = i, m[i:=v][j] = m[j]]`.
    StoreMiss,
    /// `j ∈ M ⇒ ite(M, n, o)[j] = n[j]`, over `[j ∈ M, … = n[j]]`.
    MapIteHit,
    /// `j ∉ M ⇒ ite(M, n, o)[j] = o[j]`, over `[j ∈ M, … = o[j]]`.
    MapIteMiss,
    /// `S ⊆ T ⇒ (e ∈ S ⇒ e ∈ T)`, over `[S ⊆ T, e ∈ S, e ∈ T]`.
    SubsetPointwise,
    /// `S ⊈ T ⇒ w ∈ S ∧ w ∉ T` for the atom's witness `w`, over
    /// `[S ⊆ T, w ∈ S, w ∈ T]`.
    SubsetWitness,
    /// `S = T ⇒ (e ∈ S ⇔ e ∈ T)`, over `[S = T, e ∈ S, e ∈ T]`.
    SetEqPointwise,
    /// `S ≠ T ⇒ ¬(w ∈ S ⇔ w ∈ T)`, over `[S = T, w ∈ S, w ∈ T]`.
    SetEqWitness,
    /// `m = h ⇒ m[e] = h[e]`, over `[m = h, m[e] = h[e]]`.
    ArrayEqPointwise,
    /// `m ≠ h ⇒ m[w] ≠ h[w]`, over `[m = h, m[w] = h[w]]`.
    ArrayEqWitness,
    /// `a = b ∨ a < b ∨ b < a`, over `[a = b, a < b, b < a]`.
    Trichotomy,
}

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; 16] = [
        Kind::EmptyMember,
        Kind::SingletonMember,
        Kind::UnionMember,
        Kind::InterMember,
        Kind::DiffMember,
        Kind::StoreHit,
        Kind::StoreMiss,
        Kind::MapIteHit,
        Kind::MapIteMiss,
        Kind::SubsetPointwise,
        Kind::SubsetWitness,
        Kind::SetEqPointwise,
        Kind::SetEqWitness,
        Kind::ArrayEqPointwise,
        Kind::ArrayEqWitness,
        Kind::Trichotomy,
    ];

    /// The kind's clauses, in DIMACS notation over the atoms numbered from 1
    /// (`-2` is the negation of the second atom). They are the clauses, in
    /// order and literal for literal, that [`crate::cnf::assert_fact`] makes
    /// of [`Kind::formula`] over distinct atoms, and an atom first occurs in
    /// them in atom order.
    pub fn clauses(self) -> &'static [&'static [i8]] {
        match self {
            Kind::EmptyMember => &[&[-1]],
            Kind::SingletonMember => &[&[-1, 2], &[1, -2]],
            Kind::UnionMember => &[&[-1, 2, 3], &[1, -2], &[1, -3]],
            Kind::InterMember => &[&[-1, 2], &[-1, 3], &[1, -2, -3]],
            Kind::DiffMember => &[&[-1, 2], &[-1, -3], &[1, -2, 3]],
            Kind::StoreHit | Kind::MapIteHit | Kind::ArrayEqPointwise => &[&[-1, 2]],
            Kind::StoreMiss | Kind::MapIteMiss => &[&[1, 2]],
            Kind::SubsetPointwise => &[&[-1, -2, 3]],
            Kind::SubsetWitness => &[&[1, 2], &[1, -3]],
            Kind::SetEqPointwise => &[&[-1, -2, 3], &[-1, 2, -3]],
            Kind::SetEqWitness => &[&[1, -2, -3], &[1, 2, 3]],
            Kind::ArrayEqWitness => &[&[1, -2]],
            Kind::Trichotomy => &[&[1, 2, 3]],
        }
    }

    /// Number of atoms the kind is stated over.
    pub fn arity(self) -> usize {
        let atoms = self.clauses().iter().flat_map(|c| c.iter());
        atoms.map(|l| l.unsigned_abs() as usize).max().unwrap_or(0)
    }

    /// The kind as a formula over `atoms`, built with the smart
    /// constructors. Folded instances keep this term, and [`lower`] returns
    /// it for every instance.
    pub fn formula(self, tm: &mut TermManager, atoms: &[TermId]) -> TermId {
        let a = atoms;
        match self {
            Kind::EmptyMember => {
                let f = tm.fls();
                tm.iff(a[0], f)
            }
            Kind::SingletonMember => tm.iff(a[0], a[1]),
            Kind::UnionMember => {
                let d = tm.or2(a[1], a[2]);
                tm.iff(a[0], d)
            }
            Kind::InterMember => {
                let c = tm.and2(a[1], a[2]);
                tm.iff(a[0], c)
            }
            Kind::DiffMember => {
                let n = tm.not(a[2]);
                let c = tm.and2(a[1], n);
                tm.iff(a[0], c)
            }
            Kind::StoreHit | Kind::MapIteHit | Kind::ArrayEqPointwise => tm.implies(a[0], a[1]),
            Kind::StoreMiss | Kind::MapIteMiss => {
                let n = tm.not(a[0]);
                tm.implies(n, a[1])
            }
            Kind::SubsetPointwise => {
                let imp = tm.implies(a[1], a[2]);
                tm.implies(a[0], imp)
            }
            Kind::SubsetWitness => {
                let n = tm.not(a[2]);
                let both = tm.and2(a[1], n);
                let na = tm.not(a[0]);
                tm.implies(na, both)
            }
            Kind::SetEqPointwise => {
                let eq = tm.eq(a[1], a[2]);
                tm.implies(a[0], eq)
            }
            Kind::SetEqWitness => {
                let ne = tm.neq(a[1], a[2]);
                let na = tm.not(a[0]);
                tm.implies(na, ne)
            }
            Kind::ArrayEqWitness => {
                let ne = tm.not(a[1]);
                let na = tm.not(a[0]);
                tm.implies(na, ne)
            }
            Kind::Trichotomy => tm.or(a.iter().copied()),
        }
    }
}

/// One axiom instance or trichotomy lemma.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instance {
    /// The kind's clauses over the first [`Kind::arity`] atoms, which are
    /// distinct theory atoms.
    Clauses(Kind, [TermId; 3]),
    /// An instance whose atoms a smart constructor folded: the
    /// [`Kind::formula`] the constructors built, which is not `true`.
    Formula(TermId),
}

impl Instance {
    /// The instance of `kind` over `atoms`, or `None` when its formula folds
    /// to `true`.
    pub fn new(tm: &mut TermManager, kind: Kind, atoms: &[TermId]) -> Option<Instance> {
        debug_assert_eq!(atoms.len(), kind.arity());
        // Over distinct theory atoms no smart constructor folds anything, so
        // the formula has the kind's shape and its clauses are the kind's.
        let distinct = (1..atoms.len()).all(|i| !atoms[..i].contains(&atoms[i]));
        if distinct
            && atoms
                .iter()
                .all(|&a| !crate::cnf::is_connective(&tm.term(a).op))
        {
            let mut padded = [atoms[0]; 3];
            padded[..atoms.len()].copy_from_slice(atoms);
            return Some(Instance::Clauses(kind, padded));
        }
        let f = kind.formula(tm, atoms);
        (tm.term(f).op != Op::True).then_some(Instance::Formula(f))
    }

    /// The instance as a formula: what [`Kind::formula`] builds.
    pub fn formula(&self, tm: &mut TermManager) -> TermId {
        match *self {
            Instance::Clauses(kind, atoms) => kind.formula(tm, &atoms[..kind.arity()]),
            Instance::Formula(f) => f,
        }
    }

    /// Pushes what the trichotomy scan visits of the instance: its atoms
    /// left to right, or its formula. Popped from the back, they come in the
    /// order a walk of the formula would visit them.
    fn push_scan_roots(&self, stack: &mut Vec<TermId>) {
        match *self {
            Instance::Clauses(kind, atoms) => stack.extend_from_slice(&atoms[..kind.arity()]),
            Instance::Formula(f) => stack.push(f),
        }
    }
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
/// `facts` (definitional side conditions) and `instances` (instantiated
/// theory axioms and trichotomy lemmas) are all valid, or definitional over
/// globally fresh symbols, so a push/pop solver may assert them permanently
/// even when the triggering assertion later gets retracted. The parts are
/// asserted in the order facts, instances, roots.
pub struct LoweredBatch {
    /// Rewritten input assertions, in input order.
    pub roots: Vec<TermId>,
    /// Permanent facts: `ite` elimination definitions, in emission order.
    pub facts: Vec<TermId>,
    /// Instantiated axioms, then trichotomy lemmas, in emission order.
    pub instances: Vec<Instance>,
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

        let mut instances: Vec<Instance> = Vec::new();
        self.emit_axioms(tm, &mut instances);

        // The scan covers the roots, the side facts and the axioms just
        // emitted, not the lemmas it adds.
        let mut trich_roots = scan_roots;
        for inst in &instances {
            inst.push_scan_roots(&mut trich_roots);
        }
        self.trichotomy(tm, trich_roots, &mut instances);

        LoweredBatch {
            roots: rewritten,
            facts: side,
            instances,
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
    /// so repeated `add` calls never re-construct candidate axiom atoms for
    /// pairs handled before. Each Skolem witness axiom is built once, by the
    /// first call after its atom was scanned. The atoms of a pair are built
    /// before its instances, in the order the instances list them.
    fn emit_axioms(&mut self, tm: &mut TermManager, out: &mut Vec<Instance>) {
        let mut emit = |tm: &mut TermManager, kind: Kind, atoms: &[TermId]| {
            out.extend(Instance::new(tm, kind, atoms));
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
                match &term.op {
                    Op::EmptySet(_) => emit(tm, Kind::EmptyMember, &[mem]),
                    Op::Singleton => {
                        let eq = tm.eq(e, term.args[0]);
                        emit(tm, Kind::SingletonMember, &[mem, eq]);
                    }
                    Op::Union | Op::Inter | Op::Diff => {
                        let m1 = tm.member(e, term.args[0]);
                        let m2 = tm.member(e, term.args[1]);
                        let kind = match term.op {
                            Op::Union => Kind::UnionMember,
                            Op::Inter => Kind::InterMember,
                            _ => Kind::DiffMember,
                        };
                        emit(tm, kind, &[mem, m1, m2]);
                    }
                    _ => unreachable!(),
                }
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
                let sel_base = tm.select(base, j);
                let sel_pass = tm.eq(sel, sel_base);
                emit(tm, Kind::StoreHit, &[eq_idx, sel_val]);
                emit(tm, Kind::StoreMiss, &[eq_idx, sel_pass]);
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
                emit(tm, Kind::MapIteHit, &[in_mod, eq_new]);
                emit(tm, Kind::MapIteMiss, &[in_mod, eq_old]);
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
                emit(tm, Kind::SubsetPointwise, &[a, ms, mt]);
            }
            if let Some(w) = self.subset_witness.remove(&a) {
                let ms = tm.member(w, s);
                let mt = tm.member(w, t);
                emit(tm, Kind::SubsetWitness, &[a, ms, mt]);
            }
        }

        // 5. Container equality atoms: guarded pointwise congruence plus
        //    extensionality witness for the negative side. Set members are
        //    the atoms themselves; array reads are compared by an equality
        //    atom.
        for (a, mark) in self.container_eq_atoms.iter_mut() {
            let a = *a;
            let (s, t) = (tm.term(a).args[0], tm.term(a).args[1]);
            let is_set = matches!(tm.sort(s), Sort::Set(_));
            let mut emit_at = |tm: &mut TermManager, e: TermId, witness: bool| {
                if is_set {
                    let (vs, vt) = (tm.member(e, s), tm.member(e, t));
                    let kind = if witness {
                        Kind::SetEqWitness
                    } else {
                        Kind::SetEqPointwise
                    };
                    emit(tm, kind, &[a, vs, vt]);
                } else {
                    let (vs, vt) = (tm.select(s, e), tm.select(t, e));
                    let eq = tm.eq(vs, vt);
                    let kind = if witness {
                        Kind::ArrayEqWitness
                    } else {
                        Kind::ArrayEqPointwise
                    };
                    emit(tm, kind, &[a, eq]);
                }
            };
            for e in tail(mark, elem_sort_of_container(tm.sort(s))) {
                emit_at(tm, e, false);
            }
            if let Some(w) = self.eq_witness.remove(&a) {
                emit_at(tm, w, true);
            }
        }

        // The axioms may themselves contain new compound structure only in
        // the shape of `member`/`select` over existing terms, so one round
        // suffices (same argument as the batch pass).
    }

    /// Adds `a = b ∨ a < b ∨ b < a` for every not-yet-seen numeric equality
    /// atom among the sub-terms of `stack` (popped from the back), in the
    /// order a depth-first walk discovers them.
    fn trichotomy(
        &mut self,
        tm: &mut TermManager,
        mut stack: Vec<TermId>,
        lemmas: &mut Vec<Instance>,
    ) {
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
                lemmas.extend(Instance::new(tm, Kind::Trichotomy, &[t, lt_ab, lt_ba]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalSolver;
    use crate::sat::SatResult;

    fn solve(tm: &mut TermManager, roots: &[TermId]) -> SatResult {
        let mut s = IncrementalSolver::new();
        s.assert_all(tm, roots);
        s.check(tm)
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

    /// The trichotomy scan starts from the instances' atoms, not from their
    /// formulas, and must still find the numeric equalities in the order a
    /// walk of the formulas finds them. Over an integer-indexed array every
    /// read-over-write instance holds two numeric equalities.
    #[test]
    fn trichotomy_lemmas_come_in_the_order_of_a_walk_of_the_formulas() {
        let mut tm = TermManager::new();
        let arr = Sort::array_of(Sort::Int, Sort::Int);
        let (m, h) = (tm.var("m", arr.clone()), tm.var("h", arr));
        let [i, j, k, v, w] = ["i", "j", "k", "v", "w"].map(|n| tm.var(n, Sort::Int));
        let st = tm.store(m, i, v);
        let st2 = tm.store(h, j, w);
        let (r1, r2) = (tm.select(st, k), tm.select(st2, i));
        let roots = [tm.eq(r1, w), tm.lt(r2, v), tm.eq(m, h)];
        let batch = LowerCtx::new().add(&mut tm, &roots);

        let mut lemmas = Vec::new();
        let mut walk: Vec<TermId> = batch.roots.iter().chain(&batch.facts).copied().collect();
        for inst in &batch.instances {
            match *inst {
                Instance::Clauses(Kind::Trichotomy, atoms) => lemmas.push(atoms[0]),
                _ => walk.push(inst.formula(&mut tm)),
            }
        }
        let mut seen = FxHashSet::default();
        let mut expected = Vec::new();
        while let Some(t) = walk.pop() {
            if seen.insert(t) {
                let term = tm.term(t);
                walk.extend(term.args.iter().copied());
                if term.op == Op::Eq && tm.sort(term.args[0]).is_numeric() {
                    expected.push(t);
                }
            }
        }
        assert!(expected.len() > 8, "{} numeric equalities", expected.len());
        assert_eq!(lemmas, expected);
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
