//! Tseitin conversion of ground Boolean term DAGs into CNF for the SAT core.
//!
//! Every non-Boolean-connective sub-term of sort `Bool` (an equality, an
//! arithmetic predicate, a membership literal, a Boolean field read, …)
//! becomes a propositional *atom* with its own SAT variable; the mapping in
//! both directions is recorded in [`AtomMap`] so the theory layer can read the
//! propositional model back as a set of theory literals.

use crate::fxmap::FxHashMap;
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

fn is_connective(op: &Op) -> bool {
    matches!(
        op,
        Op::Not | Op::And | Op::Or | Op::Implies | Op::Iff | Op::Ite | Op::True | Op::False
    )
}

fn encode(tm: &TermManager, t: TermId, sat: &mut SatSolver, map: &mut AtomMap) -> Lit {
    if let Some(&v) = map.var_of_term.get(&t) {
        return Lit::new(v, true);
    }
    let term = tm.term(t);
    if !is_connective(&term.op) {
        // A theory atom.
        let v = sat.new_var();
        map.var_of_term.insert(t, v);
        map.add_atom(v, t);
        return Lit::new(v, true);
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
