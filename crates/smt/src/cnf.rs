//! Conversion of ground Boolean term DAGs into CNF for the SAT core.
//!
//! Every non-Boolean-connective sub-term of sort `Bool` (an equality, an
//! arithmetic predicate, a membership literal, a Boolean field read, …)
//! becomes a propositional *atom* with its own SAT variable; the mapping in
//! both directions is recorded in [`AtomMap`] so the theory layer can read the
//! propositional model back as a set of theory literals.
//!
//! Three encodings share one [`AtomMap`]:
//!
//! * **Axiom instances are clauses already.** [`assert_instance`] adds the
//!   clauses of an instance's [`Kind`] ([`Kind::clauses`]) over its atoms:
//!   a union-membership instance is three clauses and no variable, a store
//!   hit one clause. No term is built or walked, and no definition
//!   variable is made. The clauses, and the order in which the atoms get
//!   new SAT variables, are those [`assert_fact`] makes of the instance's
//!   formula ([`Kind::formula`]), which `tests/cnf_props.rs` checks kind by
//!   kind.
//! * **Facts become clauses.** [`assert_fact`] asserts a formula that holds
//!   unconditionally — the lowering's `ite` definitions and the rare
//!   instance a smart constructor folded — in clausal form (Plaisted &
//!   Greenbaum, "A Structure-preserving Clause Form Translation", JSC
//!   1986): it splits conjunctions, flattens disjunctions and implications
//!   into one clause, and turns `⇔` and a Boolean `ite` into two clauses.
//!   One conjunctive, `⇔` or `ite` disjunct per clause is distributed when
//!   its arguments are literals; every other sub-formula is named by its
//!   shared Tseitin literal. Atoms get their SAT variables in formula
//!   order, as the Tseitin encoder numbers them: the decision heap breaks
//!   activity ties by variable, so the order steers the search.
//! * **Asserted roots stay Tseitin.** [`encode_root`] returns a literal
//!   equivalent to a root, defined in both directions, which the caller
//!   asserts as a unit or behind an activation literal. Tracked hypotheses,
//!   VC guards and negated goals go this way: their definition variables are
//!   branching points the search uses, and clausifying them too measured
//!   more decisions on the verification registry.
//!
//! [`tseitin`] encodes whole formulas the third way. It is the full-Tseitin
//! reference: `tests/incremental_props.rs` checks sessions against a lazy
//! loop built on it, and `tests/cnf_props.rs` checks [`assert_fact`]
//! against it.

use crate::fxmap::FxHashMap;
use crate::lower::Kind;
use crate::sat::{Lit, SatSolver, Var};
use crate::term::{Op, TermId, TermManager};

/// Mapping between theory atoms (term ids) and SAT variables.
#[derive(Clone, Debug, Default)]
pub struct AtomMap {
    /// Atom term of each SAT variable, indexed by variable: `None` for a
    /// variable that is not an atom (a Tseitin definition variable, an
    /// activation variable). SAT variables are dense, so the table may end
    /// before the solver's last variable.
    pub atom_of_var: Vec<Option<TermId>>,
    /// SAT variable of each encoded term (atoms and internal nodes).
    pub var_of_term: FxHashMap<TermId, Var>,
    /// Number of `Some` entries of `atom_of_var`.
    num_atoms: usize,
}

impl AtomMap {
    /// The asserted theory literals in the current SAT model: pairs of an atom
    /// term and its assigned polarity.
    pub fn model_literals(&self, sat: &SatSolver) -> Vec<(TermId, bool)> {
        let mut out: Vec<(TermId, bool)> = self
            .atoms()
            .filter_map(|(v, t)| sat.value(v).map(|b| (t, b)))
            .collect();
        out.sort();
        out
    }

    /// The `(variable, atom)` pairs, in variable order.
    pub fn atoms(&self) -> impl Iterator<Item = (Var, TermId)> + '_ {
        (0..)
            .zip(&self.atom_of_var)
            .filter_map(|(v, t)| t.map(|t| (v, t)))
    }

    /// Number of atoms encoded.
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    fn add_atom(&mut self, v: Var, t: TermId) {
        let i = v as usize;
        if self.atom_of_var.len() <= i {
            self.atom_of_var.resize(i + 1, None);
        }
        if self.atom_of_var[i].replace(t).is_none() {
            self.num_atoms += 1;
        }
    }

    /// The SAT literal for asserting the given atom with the given polarity.
    ///
    /// # Panics
    /// Panics if the term was never encoded.
    pub fn lit_of(&self, t: TermId, positive: bool) -> Lit {
        Lit::new(self.var_of_term[&t], positive)
    }
}

/// Converts the conjunction of `roots` to CNF inside `sat`, allocating
/// variables as needed, and returns the atom mapping.
///
/// The input must be ground and free of `Forall`, `Store`, `Union`, … — i.e.
/// already processed by [`crate::lower`]. Non-Boolean `Ite` nodes must also
/// have been eliminated.
pub fn tseitin(tm: &TermManager, roots: &[TermId], sat: &mut SatSolver) -> AtomMap {
    let mut map = AtomMap::default();
    for &r in roots {
        let l = encode(tm, r, sat, &mut map);
        sat.add_clause(vec![l]);
    }
    map
}

/// Incrementally encodes one root into an existing solver + atom map and
/// returns the literal equivalent to the root *without asserting it*. The
/// caller decides how to assert it — as a permanent unit clause, or guarded
/// by an activation literal for push/pop retraction. Sub-terms already encoded
/// by earlier calls are shared.
pub fn encode_root(tm: &TermManager, root: TermId, sat: &mut SatSolver, map: &mut AtomMap) -> Lit {
    encode(tm, root, sat, map)
}

/// Asserts `fact` as clauses over the atoms of its Boolean structure (see
/// the [module documentation](self)). Sub-formulas that stay nested behind a
/// clause get their shared [`encode_root`] literal, so the clauses are
/// equisatisfiable with `fact` and every atom of `fact` is encoded.
pub fn assert_fact(tm: &TermManager, fact: TermId, sat: &mut SatSolver, map: &mut AtomMap) {
    assert_signed(tm, (fact, true), sat, map);
}

/// A sub-formula under a polarity: `(t, false)` stands for `¬t`.
type Signed = (TermId, bool);

/// Strips negations into the polarity.
fn strip_not(tm: &TermManager, (mut t, mut pos): Signed) -> Signed {
    while tm.term(t).op == Op::Not {
        t = tm.term(t).args[0];
        pos = !pos;
    }
    (t, pos)
}

/// Whether `(t, pos)` is a conjunction under its polarity: `∧`, `¬∨`, `¬⇒`,
/// and `⇔` and Boolean `ite` (two binary clauses each, under either
/// polarity).
fn is_conjunctive(tm: &TermManager, (t, pos): Signed) -> bool {
    matches!(
        (&tm.term(t).op, pos),
        (Op::And, true) | (Op::Or, false) | (Op::Implies, false) | (Op::Iff, _) | (Op::Ite, _)
    )
}

/// Calls `f` on each conjunct of a conjunctive `(t, pos)`, as the
/// disjunction of one or two signed sub-formulas.
fn for_each_conjunct(tm: &TermManager, (t, pos): Signed, mut f: impl FnMut(&[Signed])) {
    let term = tm.term(t);
    let a = &term.args;
    match term.op {
        Op::And | Op::Or => a.iter().for_each(|&x| f(&[(x, pos)])),
        Op::Implies => {
            f(&[(a[0], true)]);
            f(&[(a[1], false)]);
        }
        Op::Iff => {
            f(&[(a[0], false), (a[1], pos)]);
            f(&[(a[0], true), (a[1], !pos)]);
        }
        Op::Ite => {
            f(&[(a[0], false), (a[1], pos)]);
            f(&[(a[0], true), (a[2], pos)]);
        }
        _ => unreachable!("not a conjunctive connective"),
    }
}

/// Whether `t` is an atom, a constant or a negated atom.
fn is_literal(tm: &TermManager, t: TermId) -> bool {
    let (t, _) = strip_not(tm, (t, true));
    matches!(tm.term(t).op, Op::True | Op::False) || !is_connective(&tm.term(t).op)
}

/// Asserts `s`: a conjunction conjunct by conjunct, anything else as one
/// disjunction.
fn assert_signed(tm: &TermManager, s: Signed, sat: &mut SatSolver, map: &mut AtomMap) {
    let s = strip_not(tm, s);
    if is_conjunctive(tm, s) {
        for_each_conjunct(tm, s, |c| match *c {
            [one] => assert_signed(tm, one, sat, map),
            _ => assert_disjunction(tm, c, sat, map),
        });
    } else {
        assert_disjunction(tm, &[s], sat, map);
    }
}

/// Asserts the disjunction of `disjuncts`, flattened, with at most one
/// conjunctive disjunct over literals distributed into one clause per
/// conjunct.
fn assert_disjunction(
    tm: &TermManager,
    disjuncts: &[Signed],
    sat: &mut SatSolver,
    map: &mut AtomMap,
) {
    let mut lits = Vec::new();
    let mut split = None;
    let mut stack: Vec<Signed> = disjuncts.iter().rev().copied().collect();
    let satisfied = flatten(tm, &mut stack, &mut lits, &mut split, sat, map);
    match split {
        None if !satisfied => {
            sat.add_clause(lits);
        }
        None => {}
        Some(conjunctive) => for_each_conjunct(tm, conjunctive, |c| {
            // The conjuncts are literals, so nothing splits again.
            let mut clause = lits.clone();
            stack.extend(c.iter().rev());
            if !flatten(tm, &mut stack, &mut clause, &mut split, sat, map) && !satisfied {
                sat.add_clause(clause);
            }
        }),
    }
}

/// Pops the signed disjuncts of `stack` (the first on top) into `lits`,
/// flattening `∨`, `¬∧` and `⇒` and dropping false constants. While `split`
/// is empty, the first conjunctive disjunct over literals goes there
/// instead; every other compound disjunct gets its Tseitin literal. Atoms
/// get their variables in formula order, as [`encode`] numbers them.
/// Returns whether a true constant satisfies the disjunction (its atoms are
/// encoded regardless).
fn flatten(
    tm: &TermManager,
    stack: &mut Vec<Signed>,
    lits: &mut Vec<Lit>,
    split: &mut Option<Signed>,
    sat: &mut SatSolver,
    map: &mut AtomMap,
) -> bool {
    let mut satisfied = false;
    while let Some(s) = stack.pop() {
        let (t, pos) = strip_not(tm, s);
        let term = tm.term(t);
        match (&term.op, pos) {
            (Op::True, true) | (Op::False, false) => satisfied = true,
            (Op::True, false) | (Op::False, true) => {}
            (Op::Or, true) | (Op::And, false) => {
                stack.extend(term.args.iter().rev().map(|&x| (x, pos)));
            }
            (Op::Implies, true) => stack.extend([(term.args[1], true), (term.args[0], false)]),
            _ if split.is_none()
                && is_conjunctive(tm, (t, pos))
                && term.args.iter().all(|&x| is_literal(tm, x)) =>
            {
                // Number its atoms here, in formula order; the conjuncts
                // reuse their variables.
                for &x in &term.args {
                    let (x, _) = strip_not(tm, (x, true));
                    if !matches!(tm.term(x).op, Op::True | Op::False) {
                        encode(tm, x, sat, map);
                    }
                }
                *split = Some((t, pos));
            }
            _ => {
                let l = encode(tm, t, sat, map);
                lits.push(if pos { l } else { l.negate() });
            }
        }
    }
    satisfied
}

/// Asserts an axiom instance of `kind` over the distinct theory atoms
/// `atoms` as the kind's clauses ([`Kind::clauses`]): the clauses
/// [`assert_fact`] makes of [`Kind::formula`], literal for literal, with the
/// atoms' new SAT variables numbered in atom order, as [`assert_fact`]
/// numbers them. No term is built or walked.
pub fn assert_instance(kind: Kind, atoms: &[TermId], sat: &mut SatSolver, map: &mut AtomMap) {
    let mut vars: [Var; 3] = [0; 3];
    for (v, &a) in vars.iter_mut().zip(atoms) {
        *v = atom_var(a, sat, map);
    }
    for clause in kind.clauses() {
        let mut lits = [Lit::new(0, true); 3];
        for (lit, &l) in lits.iter_mut().zip(clause.iter()) {
            *lit = Lit::new(vars[l.unsigned_abs() as usize - 1], l > 0);
        }
        sat.add_clause_from(&lits[..clause.len()]);
    }
}

/// Whether `op` is a Boolean connective or constant, which the encoders
/// look through; any other Boolean term is a theory atom.
pub(crate) fn is_connective(op: &Op) -> bool {
    matches!(
        op,
        Op::Not | Op::And | Op::Or | Op::Implies | Op::Iff | Op::Ite | Op::True | Op::False
    )
}

/// The SAT variable of the theory atom `t`, a new one if `t` has none yet.
fn atom_var(t: TermId, sat: &mut SatSolver, map: &mut AtomMap) -> Var {
    if let Some(&v) = map.var_of_term.get(&t) {
        return v;
    }
    let v = sat.new_var();
    map.var_of_term.insert(t, v);
    map.add_atom(v, t);
    v
}

fn encode(tm: &TermManager, t: TermId, sat: &mut SatSolver, map: &mut AtomMap) -> Lit {
    if let Some(&v) = map.var_of_term.get(&t) {
        return Lit::new(v, true);
    }
    let term = tm.term(t);
    if !is_connective(&term.op) {
        return Lit::new(atom_var(t, sat, map), true);
    }
    match term.op {
        Op::True => {
            let v = sat.new_var();
            map.var_of_term.insert(t, v);
            sat.add_clause(vec![Lit::new(v, true)]);
            Lit::new(v, true)
        }
        Op::False => {
            let v = sat.new_var();
            map.var_of_term.insert(t, v);
            sat.add_clause(vec![Lit::new(v, false)]);
            Lit::new(v, true)
        }
        Op::Not => {
            let inner = encode(tm, term.args[0], sat, map);
            // No new variable needed: reuse the negated literal, but we must
            // still be able to find a var for `t` if asked. Allocate lazily by
            // recording the inner variable is enough only for positive terms,
            // so we simply return the negated literal without recording.
            inner.negate()
        }
        Op::And | Op::Or | Op::Implies | Op::Iff | Op::Ite => {
            let args: Vec<Lit> = term.args.iter().map(|a| encode(tm, *a, sat, map)).collect();
            let v = sat.new_var();
            map.var_of_term.insert(t, v);
            let lv = Lit::new(v, true);
            match term.op {
                Op::And => {
                    // v <-> a1 & ... & an
                    for &a in &args {
                        sat.add_clause(vec![lv.negate(), a]);
                    }
                    let mut cl: Vec<Lit> = args.iter().map(|a| a.negate()).collect();
                    cl.push(lv);
                    sat.add_clause(cl);
                }
                Op::Or => {
                    for &a in &args {
                        sat.add_clause(vec![a.negate(), lv]);
                    }
                    let mut cl: Vec<Lit> = args.clone();
                    cl.push(lv.negate());
                    sat.add_clause(cl);
                }
                Op::Implies => {
                    let (a, b) = (args[0], args[1]);
                    // v <-> (a -> b)
                    sat.add_clause(vec![lv.negate(), a.negate(), b]);
                    sat.add_clause(vec![lv, a]);
                    sat.add_clause(vec![lv, b.negate()]);
                }
                Op::Iff => {
                    let (a, b) = (args[0], args[1]);
                    sat.add_clause(vec![lv.negate(), a.negate(), b]);
                    sat.add_clause(vec![lv.negate(), a, b.negate()]);
                    sat.add_clause(vec![lv, a, b]);
                    sat.add_clause(vec![lv, a.negate(), b.negate()]);
                }
                Op::Ite => {
                    let (c, th, el) = (args[0], args[1], args[2]);
                    // v <-> ite(c, th, el)
                    sat.add_clause(vec![lv.negate(), c.negate(), th]);
                    sat.add_clause(vec![lv.negate(), c, el]);
                    sat.add_clause(vec![lv, c.negate(), th.negate()]);
                    sat.add_clause(vec![lv, c, el.negate()]);
                }
                _ => unreachable!(),
            }
            lv
        }
        _ => unreachable!("non-connective handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;
    use crate::term::Sort;

    #[test]
    fn simple_propositional() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let np = tm.not(p);
        let f = tm.and2(np, q);
        let mut sat = SatSolver::new();
        let map = tseitin(&tm, &[f], &mut sat);
        assert_eq!(sat.solve(), SatResult::Sat);
        let lits = map.model_literals(&sat);
        assert!(lits.contains(&(p, false)));
        assert!(lits.contains(&(q, true)));
    }

    #[test]
    fn contradiction_unsat() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let np = tm.not(p);
        let f = tm.and2(p, np);
        let mut sat = SatSolver::new();
        tseitin(&tm, &[f], &mut sat);
        assert_eq!(sat.solve(), SatResult::Unsat);
    }

    #[test]
    fn iff_and_implies() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let imp = tm.implies(p, q);
        let niff = {
            let i = tm.iff(p, q);
            tm.not(i)
        };
        // p -> q, not (p <-> q), p  is unsat; without p it is sat (p=F, q=T).
        let mut sat = SatSolver::new();
        tseitin(&tm, &[imp, niff, p], &mut sat);
        assert_eq!(sat.solve(), SatResult::Unsat);

        let mut tm2 = TermManager::new();
        let p2 = tm2.var("p", Sort::Bool);
        let q2 = tm2.var("q", Sort::Bool);
        let imp2 = tm2.implies(p2, q2);
        let niff2 = {
            let i = tm2.iff(p2, q2);
            tm2.not(i)
        };
        let mut sat2 = SatSolver::new();
        let map2 = tseitin(&tm2, &[imp2, niff2], &mut sat2);
        assert_eq!(sat2.solve(), SatResult::Sat);
        let lits = map2.model_literals(&sat2);
        assert!(lits.contains(&(p2, false)));
        assert!(lits.contains(&(q2, true)));
    }

    #[test]
    fn atoms_are_registered() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let le = tm.le(x, y);
        let eq = tm.eq(x, y);
        let f = tm.or2(le, eq);
        let mut sat = SatSolver::new();
        let mut map = tseitin(&tm, &[f], &mut sat);
        assert_eq!(map.num_atoms(), 2);
        assert_eq!(
            map.atoms().map(|(_, t)| t).collect::<Vec<_>>(),
            vec![le, eq]
        );
        assert!(map.var_of_term.contains_key(&le));
        assert!(map.var_of_term.contains_key(&eq));
        // Incremental encoding counts only the atoms it adds.
        let lt = tm.lt(x, y);
        let g = tm.and2(lt, eq);
        encode_root(&tm, g, &mut sat, &mut map);
        assert_eq!(map.num_atoms(), 3);
        assert_eq!(map.num_atoms(), map.atom_of_var.iter().flatten().count());
    }
}
