//! Congruence closure for equality and uninterpreted functions (EUF), with
//! conflict explanations.
//!
//! The solver works in "batch" mode: given the universe of ground terms, a set
//! of asserted equalities and a set of asserted disequalities (each carrying
//! an opaque *tag* identifying the asserted literal it came from), it either
//! produces the equivalence classes of the congruence closure or a conflict
//! explanation — a subset of tags whose literals are jointly inconsistent.
//! Explanations are what make the learned theory clauses of DPLL(T) short
//! enough to be useful.
//!
//! The stateless [`crate::theory::TheoryChecker`] re-runs congruence closure
//! once per check, so the parts of the setup that only depend on the universe
//! of terms (sub-term collection, node numbering, operator interning, the
//! list of congruence-eligible application nodes) are factored into an
//! immutable [`EufTemplate`] that is built once per checker and shared by
//! every check via [`Euf::with_template`]. The online theory session builds
//! its undo-trail EUF from the same template.

use std::collections::HashMap;

use crate::fxmap::FxHashMap;
use crate::term::{Op, TermId, TermManager};

/// Why two nodes were merged. Shared with the trail-based incremental engine
/// in [`crate::trail`], which maintains the same proof-forest shape.
#[derive(Clone, Debug)]
pub(crate) enum Reason {
    /// An input equation with the given tag.
    Asserted(usize),
    /// Congruence of the two application terms (same operator, equal args).
    Congruence(usize, usize),
}

/// The result of congruence closure: either consistency (query the classes
/// with [`Euf::same`] / [`Euf::class_index`]) or a conflict.
#[derive(Clone, Debug)]
pub enum EufOutcome {
    /// Consistent; query equalities with [`Euf::same`] and
    /// [`Euf::class_index`].
    Consistent,
    /// Inconsistent; the tags of a jointly inconsistent subset of the asserted
    /// literals.
    Conflict(Vec<usize>),
}

/// A congruence-eligible application node of the universe.
#[derive(Clone, Debug)]
pub(crate) struct AppNode {
    /// Node index of the application term itself.
    pub(crate) node: usize,
    /// Interned operator id (equal ids ⇔ equal operators).
    pub(crate) op: u32,
    /// Node indices of the arguments.
    pub(crate) args: Vec<usize>,
}

/// The immutable, shareable part of a congruence-closure run: the term
/// universe with dense node numbering and the pre-extracted application nodes.
#[derive(Clone, Debug, Default)]
pub struct EufTemplate {
    pub(crate) terms: Vec<TermId>,
    pub(crate) node_of_term: FxHashMap<TermId, usize>,
    pub(crate) app_nodes: Vec<AppNode>,
    /// Interned operators, kept so the template can be extended with new
    /// terms later (incremental sessions) without renumbering.
    op_ids: HashMap<Op, u32>,
}

impl EufTemplate {
    /// Builds the template for the given universe of terms (sub-terms of the
    /// universe members are added automatically).
    pub fn new(tm: &TermManager, universe: &[TermId]) -> EufTemplate {
        let mut template = EufTemplate::default();
        template.extend(tm, universe);
        template
    }

    /// Extends the template with new universe members (and their sub-terms).
    /// Existing node numbering is preserved; new terms are appended, so an
    /// [`Euf`] built from the extended template subsumes one built before.
    pub fn extend(&mut self, tm: &TermManager, universe: &[TermId]) {
        // Number every new term first (sub-term traversal yields parents
        // before children, so application nodes can only be built once all
        // their arguments have indices).
        let mut new_terms = Vec::new();
        for t in tm.subterms(universe) {
            if self.node_of_term.contains_key(&t) {
                continue;
            }
            self.terms.push(t);
            self.node_of_term.insert(t, self.terms.len() - 1);
            new_terms.push(t);
        }
        for t in new_terms {
            let term = tm.term(t);
            if term.args.is_empty()
                || matches!(
                    term.op,
                    Op::And | Op::Or | Op::Not | Op::Implies | Op::Iff | Op::Ite | Op::Forall(_)
                )
            {
                continue;
            }
            // Intern operators so signature comparison is integer comparison.
            let next = self.op_ids.len() as u32;
            let op = *self.op_ids.entry(term.op.clone()).or_insert(next);
            let node = self.node_of_term[&t];
            let args = term.args.iter().map(|a| self.node_of_term[a]).collect();
            self.app_nodes.push(AppNode { node, op, args });
        }
    }

    /// Number of nodes (distinct sub-terms) in the universe.
    pub fn num_nodes(&self) -> usize {
        self.terms.len()
    }
}

/// A batch congruence-closure solver.
pub struct Euf<'a> {
    tm: &'a TermManager,
    template: std::borrow::Cow<'a, EufTemplate>,
    parent: Vec<usize>,
    // Proof forest for explanations.
    pf_parent: Vec<Option<(usize, Reason)>>,
    diseqs: Vec<(usize, usize, usize)>,
    eq_tags: Vec<usize>,
    explain_incomplete: bool,
}

/// Union-find lookup with path compression, as a free function so that it can
/// be used while other fields of [`Euf`] are borrowed.
fn find_in(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

impl<'a> Euf<'a> {
    /// Creates a solver over the given universe of terms, building a fresh
    /// template internally. Sub-terms of universe members are added
    /// automatically.
    pub fn new(tm: &'a TermManager, universe: &[TermId]) -> Euf<'a> {
        let template = EufTemplate::new(tm, universe);
        Euf::from_cow(tm, std::borrow::Cow::Owned(template))
    }

    /// Creates a solver that shares a pre-built template. This is the cheap
    /// constructor used once per check by the stateless theory checker.
    pub fn with_template(tm: &'a TermManager, template: &'a EufTemplate) -> Euf<'a> {
        Euf::from_cow(tm, std::borrow::Cow::Borrowed(template))
    }

    fn from_cow(tm: &'a TermManager, template: std::borrow::Cow<'a, EufTemplate>) -> Euf<'a> {
        let n = template.terms.len();
        Euf {
            tm,
            template,
            parent: (0..n).collect(),
            pf_parent: vec![None; n],
            diseqs: Vec::new(),
            eq_tags: Vec::new(),
            explain_incomplete: false,
        }
    }

    fn node(&self, t: TermId) -> usize {
        *self
            .template
            .node_of_term
            .get(&t)
            .unwrap_or_else(|| panic!("term {:?} not in EUF universe", t))
    }

    fn find(&mut self, x: usize) -> usize {
        find_in(&mut self.parent, x)
    }

    /// Asserts `a = b`, justified by the literal with the given tag.
    pub fn assert_eq(&mut self, a: TermId, b: TermId, tag: usize) {
        let (na, nb) = (self.node(a), self.node(b));
        self.eq_tags.push(tag);
        self.merge(na, nb, Reason::Asserted(tag));
    }

    /// Asserts `a != b`, justified by the literal with the given tag.
    pub fn assert_neq(&mut self, a: TermId, b: TermId, tag: usize) {
        let (na, nb) = (self.node(a), self.node(b));
        self.diseqs.push((na, nb, tag));
    }

    fn merge(&mut self, a: usize, b: usize, reason: Reason) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Add proof forest edge a -> b: first reverse the path from a to its
        // proof-tree root so that a becomes a root.
        self.reroot(a);
        self.pf_parent[a] = Some((b, reason));
        self.parent[ra] = rb;
    }

    fn reroot(&mut self, a: usize) {
        // Reverse proof-forest edges along the path from a to its root.
        let mut path = vec![a];
        let mut cur = a;
        while let Some((p, _)) = &self.pf_parent[cur] {
            cur = *p;
            path.push(cur);
        }
        // path = a .. root ; reverse edge directions.
        for i in (1..path.len()).rev() {
            let child = path[i - 1];
            let parent = path[i];
            let (_, reason) = self.pf_parent[child].clone().unwrap();
            self.pf_parent[parent] = Some((child, reason));
        }
        self.pf_parent[a] = None;
    }

    /// Runs congruence closure to fixpoint and checks the disequalities.
    pub fn check(&mut self) -> EufOutcome {
        // Repeatedly hash every application node by (operator, canonical
        // argument representatives); nodes that collide on the full signature
        // are congruent and get merged. Iterate until no merge happens.
        //
        // Equal signatures are grouped by SORTING the (hash, node) pairs
        // rather than by a hash table: this inner loop dominates EUF-heavy
        // VCs (tens of thousands of DPLL(T) rounds over thousands of
        // application nodes), and sort-based grouping does no re-hashing and
        // no per-bucket allocation. Signatures are computed for the whole
        // pass before any merge (the old table-based pass re-hashed against
        // the union-find as it mutated), so intra-pass merge cascades can
        // land in a later pass and individual merge partners — hence which
        // of several valid explanations a conflict reports — may differ;
        // the closure reached at fixpoint is the same either way.
        let n_apps = self.template.app_nodes.len();
        let mut sigs: Vec<(u64, u32)> = Vec::with_capacity(n_apps);
        let mut reps: Vec<u32> = Vec::new();
        loop {
            let mut changed = false;
            sigs.clear();
            {
                // Disjoint field borrows: the template is read-only while the
                // union-find array is path-compressed.
                let template: &EufTemplate = &self.template;
                let parent = &mut self.parent;
                for (ai, app) in template.app_nodes.iter().enumerate() {
                    // FNV-style signature hash over (op, canonical args).
                    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                    h = (h ^ u64::from(app.op)).wrapping_mul(0x0000_0100_0000_01b3);
                    for &arg in &app.args {
                        let rep = find_in(parent, arg) as u64;
                        h = (h ^ rep).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                    sigs.push((h, ai as u32));
                }
            }
            sigs.sort_unstable();
            let mut i = 0;
            while i < sigs.len() {
                let h = sigs[i].0;
                reps.clear();
                while i < sigs.len() && sigs[i].0 == h {
                    let ai = sigs[i].1 as usize;
                    i += 1;
                    let node_i = self.template.app_nodes[ai].node;
                    let mut merged_with: Option<usize> = None;
                    for &rep in &reps {
                        let aj = rep as usize;
                        if self.congruent_apps(ai, aj) {
                            let node_j = self.template.app_nodes[aj].node;
                            let (fi, fj) = (
                                find_in(&mut self.parent, node_i),
                                find_in(&mut self.parent, node_j),
                            );
                            if fi != fj {
                                merged_with = Some(node_j);
                            }
                            break;
                        }
                    }
                    if let Some(node_j) = merged_with {
                        self.merge(node_i, node_j, Reason::Congruence(node_i, node_j));
                        changed = true;
                    } else {
                        // Not congruent to any representative, or congruent
                        // but already in the same class — either way this
                        // node joins the representatives, exactly as the old
                        // table-based pass pushed into its bucket.
                        reps.push(ai as u32);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Check disequalities.
        for k in 0..self.diseqs.len() {
            let (a, b, tag) = self.diseqs[k];
            let (fa, fb) = (self.find(a), self.find(b));
            if fa == fb {
                let mut tags = self.explain(a, b);
                if self.explain_incomplete {
                    // Sound fallback: blame every asserted equation.
                    tags = self.eq_tags.clone();
                }
                tags.push(tag);
                tags.sort_unstable();
                tags.dedup();
                return EufOutcome::Conflict(tags);
            }
        }
        EufOutcome::Consistent
    }

    /// True if the two application nodes (indices into the template's app-node
    /// list) have the same operator and pairwise congruent arguments.
    fn congruent_apps(&mut self, ai: usize, aj: usize) -> bool {
        let (op_i, op_j) = (
            self.template.app_nodes[ai].op,
            self.template.app_nodes[aj].op,
        );
        if op_i != op_j
            || self.template.app_nodes[ai].args.len() != self.template.app_nodes[aj].args.len()
        {
            return false;
        }
        for k in 0..self.template.app_nodes[ai].args.len() {
            let (x, y) = (
                self.template.app_nodes[ai].args[k],
                self.template.app_nodes[aj].args[k],
            );
            if find_in(&mut self.parent, x) != find_in(&mut self.parent, y) {
                return false;
            }
        }
        true
    }

    /// True if the two terms are currently in the same class. Intended for use
    /// after [`Euf::check`] returned [`EufOutcome::Consistent`].
    pub fn same(&mut self, a: TermId, b: TermId) -> bool {
        let (na, nb) = (self.node(a), self.node(b));
        self.find(na) == self.find(nb)
    }

    /// A canonical class index for `t` (only meaningful for comparison against
    /// other indices from the same run), or `None` if `t` is not in the
    /// universe. Intended for use after a consistent [`Euf::check`].
    pub fn class_index(&mut self, t: TermId) -> Option<usize> {
        let n = *self.template.node_of_term.get(&t)?;
        Some(self.find(n))
    }

    /// Explains why two equal terms are equal: the tags of the asserted
    /// equations used. If the internal explanation is incomplete, all asserted
    /// equation tags are returned (sound but weaker).
    pub fn explain_terms(&mut self, a: TermId, b: TermId) -> Vec<usize> {
        let (na, nb) = (self.node(a), self.node(b));
        let tags = self.explain(na, nb);
        if self.explain_incomplete {
            self.eq_tags.clone()
        } else {
            tags
        }
    }

    /// Explains why nodes `a` and `b` are equal: returns the tags of asserted
    /// equations used.
    fn explain(&mut self, a: usize, b: usize) -> Vec<usize> {
        let mut tags = Vec::new();
        self.explain_rec(a, b, &mut tags, 0);
        tags
    }

    fn explain_rec(&mut self, a: usize, b: usize, tags: &mut Vec<usize>, depth: usize) {
        if a == b {
            return;
        }
        if depth > 10_000 {
            // Defensive: should not happen. Mark the explanation incomplete so
            // that the caller blames all asserted equations (sound, weaker).
            self.explain_incomplete = true;
            return;
        }
        // Find common ancestor in the proof forest.
        let mut ancestors_a = HashMap::new();
        let mut cur = a;
        let mut idx = 0usize;
        ancestors_a.insert(cur, idx);
        while let Some((p, _)) = &self.pf_parent[cur] {
            cur = *p;
            idx += 1;
            ancestors_a.insert(cur, idx);
        }
        let mut lca = b;
        while !ancestors_a.contains_key(&lca) {
            match &self.pf_parent[lca] {
                Some((p, _)) => lca = *p,
                None => {
                    // Not in the same proof tree — unexpected; be conservative
                    // and blame all asserted equations.
                    self.explain_incomplete = true;
                    return;
                }
            }
        }
        // Walk a -> lca and b -> lca collecting edge reasons.
        let walk =
            |mut x: usize, stop: usize, this: &mut Self, tags: &mut Vec<usize>, depth: usize| {
                while x != stop {
                    let (p, reason) = this.pf_parent[x].clone().expect("path to lca");
                    match reason {
                        Reason::Asserted(t) => tags.push(t),
                        Reason::Congruence(u, v) => {
                            let (tu, tv) = (this.template.terms[u], this.template.terms[v]);
                            let args_u = this.tm.term(tu).args.clone();
                            let args_v = this.tm.term(tv).args.clone();
                            for (x_arg, y_arg) in args_u.iter().zip(args_v.iter()) {
                                let (nu, nv) = (this.node(*x_arg), this.node(*y_arg));
                                this.explain_rec(nu, nv, tags, depth + 1);
                            }
                        }
                    }
                    x = p;
                }
            };
        walk(a, lca, self, tags, depth);
        walk(b, lca, self, tags, depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn setup() -> (TermManager, Vec<TermId>) {
        let tm = TermManager::new();
        (tm, vec![])
    }

    #[test]
    fn transitivity_conflict() {
        let (mut tm, _) = setup();
        let a = tm.var("a", Sort::Loc);
        let b = tm.var("b", Sort::Loc);
        let c = tm.var("c", Sort::Loc);
        let mut euf = Euf::new(&tm, &[a, b, c]);
        euf.assert_eq(a, b, 0);
        euf.assert_eq(b, c, 1);
        euf.assert_neq(a, c, 2);
        match euf.check() {
            EufOutcome::Conflict(tags) => {
                assert_eq!(tags, vec![0, 1, 2]);
            }
            _ => panic!("expected conflict"),
        }
    }

    #[test]
    fn congruence_basic() {
        let (mut tm, _) = setup();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let mut euf = Euf::new(&tm, &[fx, fy]);
        euf.assert_eq(x, y, 0);
        euf.assert_neq(fx, fy, 1);
        match euf.check() {
            EufOutcome::Conflict(tags) => assert_eq!(tags, vec![0, 1]),
            _ => panic!("expected conflict"),
        }
    }

    #[test]
    fn congruence_two_levels() {
        let (mut tm, _) = setup();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let gfx = tm.app("g", vec![fx], Sort::Loc);
        let gfy = tm.app("g", vec![fy], Sort::Loc);
        let mut euf = Euf::new(&tm, &[gfx, gfy]);
        euf.assert_eq(x, y, 7);
        euf.assert_neq(gfx, gfy, 9);
        match euf.check() {
            EufOutcome::Conflict(tags) => assert_eq!(tags, vec![7, 9]),
            _ => panic!("expected conflict"),
        }
    }

    #[test]
    fn consistent_classes() {
        let (mut tm, _) = setup();
        let a = tm.var("a", Sort::Loc);
        let b = tm.var("b", Sort::Loc);
        let c = tm.var("c", Sort::Loc);
        let mut euf = Euf::new(&tm, &[a, b, c]);
        euf.assert_eq(a, b, 0);
        euf.assert_neq(a, c, 1);
        match euf.check() {
            EufOutcome::Consistent => {
                assert!(euf.same(a, b));
                assert!(!euf.same(a, c));
            }
            _ => panic!("expected consistent"),
        }
    }

    #[test]
    fn explanation_is_minimal() {
        // Irrelevant equalities must not show up in the conflict.
        let (mut tm, _) = setup();
        let a = tm.var("a", Sort::Loc);
        let b = tm.var("b", Sort::Loc);
        let p = tm.var("p", Sort::Loc);
        let q = tm.var("q", Sort::Loc);
        let mut euf = Euf::new(&tm, &[a, b, p, q]);
        euf.assert_eq(p, q, 0); // irrelevant
        euf.assert_eq(a, b, 1);
        euf.assert_neq(a, b, 2);
        match euf.check() {
            EufOutcome::Conflict(tags) => assert_eq!(tags, vec![1, 2]),
            _ => panic!("expected conflict"),
        }
    }

    #[test]
    fn function_with_two_args() {
        let (mut tm, _) = setup();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let z = tm.var("z", Sort::Int);
        let fxy = tm.app("f", vec![x, y], Sort::Int);
        let fxz = tm.app("f", vec![x, z], Sort::Int);
        let mut euf = Euf::new(&tm, &[fxy, fxz]);
        euf.assert_eq(y, z, 0);
        euf.assert_neq(fxy, fxz, 1);
        assert!(matches!(euf.check(), EufOutcome::Conflict(_)));
    }

    #[test]
    fn shared_template_runs_are_independent() {
        // Two rounds over the same template must not see each other's
        // assertions.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let template = EufTemplate::new(&tm, &[fx, fy]);

        let mut round1 = Euf::with_template(&tm, &template);
        round1.assert_eq(x, y, 0);
        round1.assert_neq(fx, fy, 1);
        assert!(matches!(round1.check(), EufOutcome::Conflict(_)));

        let mut round2 = Euf::with_template(&tm, &template);
        round2.assert_neq(fx, fy, 1);
        assert!(matches!(round2.check(), EufOutcome::Consistent));
    }
}
