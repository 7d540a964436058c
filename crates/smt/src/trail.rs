//! Trail-based persistent theory state for the online DPLL(T) loop.
//!
//! The batch [`crate::theory::TheoryChecker`] rebuilds congruence closure and
//! a fresh simplex tableau for every propositional model the SAT core hands
//! over. [`TheorySession`] instead keeps the theory state alive for the whole
//! search and binds its undo to the SAT trail: every asserted theory literal
//! remembers the SAT-trail position it was read from, and a backjump that
//! lowers the SAT solver's low-water mark ([`crate::sat::TheoryHook`])
//! retracts exactly the literals read at or above it. Retraction is exact
//! undo —
//!
//! * EUF is a union-find **without path compression** (so links can be
//!   unwound), with union-by-size, a proof forest for explanations, per-class
//!   use-lists for incremental congruence, and an exact signature table in
//!   which *every* mutation is recorded on an undo trail. Popping a literal
//!   restores the structure bit-for-bit, which is what makes the replay
//!   oracle in the tests meaningful. Disequalities sit on per-class lists
//!   too, so a merge finds the disequalities it violates directly: a
//!   consistency check at a propagation fixpoint costs nothing when no merge
//!   since the last one broke a disequality.
//! * Simplex keeps its tableau, basis and slack variables for the whole
//!   search (warm restart); bounds are loaded only on complete assignments
//!   ([`TheorySession::final_check`]) and retraction rolls back bound
//!   tightenings via [`crate::simplex::Simplex::undo_to`]. Slack variables
//!   are reused across re-assertions of the same linear form so the tableau
//!   does not grow with the number of checks.
//!
//! Verdicts are identical to the batch path: congruence closure reaches the
//! same fixpoint regardless of merge order, simplex verdicts are independent
//! of pivot history, and the EUF-derived equality propagation is restricted
//! to exactly the numeric leaf terms of the *currently asserted* literals
//! (the same set the batch path derives per model). Conflict *explanations*
//! may differ from the batch path's (different merge/pivot order picks a
//! different valid inconsistent subset), which is fine for DPLL(T): any
//! inconsistent subset yields a sound theory lemma.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::euf::{EufTemplate, Reason};
use crate::fxmap::FxHashMap;
use crate::rational::Rat;
use crate::sat::Lit;
use crate::simplex::{ArithOutcome, LinExpr, PivotRule, Rel, Simplex};
use crate::term::{TermId, TermManager};
use crate::theory::{AtomKind, TheoryChecker, AXIOM_TAG};

/// Tags at or above this refer to EUF-derived equalities of one final check;
/// their explanations (trail tags) replace them in conflicts. Trail indices
/// are far below this for any conceivable literal count.
const DERIVED_BASE: usize = usize::MAX / 2;

/// An exact congruence signature `[op, rep(arg0), rep(arg1), …]`, stored
/// inline for arity ≤ 4 (every signature the lowering produces) so that
/// computing one allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum SigKey {
    /// The operator and up to four argument representatives, padded with
    /// `u32::MAX` (never a node index).
    Inline([u32; 5]),
    /// Wider applications.
    Heap(Box<[u32]>),
}

/// One reversible mutation of [`EufState`], undone in reverse order.
#[derive(Clone, Debug)]
enum UndoOp {
    /// A class merge: `loser_root`'s class was absorbed into `winner_root`'s,
    /// and the proof-forest edge `pf_child -> …` was added after re-rooting
    /// `pf_child`'s tree (whose old root is recorded for the reverse re-root).
    Merge {
        pf_child: usize,
        old_pf_root: usize,
        loser_root: usize,
        winner_root: usize,
        winner_use_len: usize,
        winner_diseq_len: usize,
    },
    /// A fresh signature-table entry under this key (entries are never
    /// overwritten: a colliding key means congruent nodes, which get merged).
    SigInsert(SigKey),
    /// A pushed disequality (also listed under both endpoint classes).
    Diseq,
    /// A disequality found violated (pushed on `violations`).
    Violation,
    /// A pushed asserted-equation tag.
    EqTag,
}

/// Backtrackable congruence closure: the incremental, exact-undo counterpart
/// of the batch [`crate::euf::Euf`] solver. Congruence is maintained eagerly
/// on every assertion (use-list driven), so there is no fixpoint pass over
/// all application nodes, and violated disequalities are recorded as the
/// merges that violate them happen.
#[derive(Clone, Debug)]
pub(crate) struct EufState {
    template: EufTemplate,
    /// Union-find links; no path compression so that [`EufState::undo_to`]
    /// can restore them exactly.
    parent: Vec<usize>,
    /// Class sizes (union by size keeps find paths logarithmic without
    /// compression).
    size: Vec<usize>,
    /// Proof forest for explanations, exactly as in the batch solver.
    pf_parent: Vec<Option<(usize, Reason)>>,
    /// `use_lists[r]`: application nodes with at least one argument in the
    /// class rooted at `r` (maintained by appending the loser's list to the
    /// winner's on merge; undo truncates the winner's list).
    use_lists: Vec<Vec<u32>>,
    /// Exact signature table: signature → application index. A lookup hit
    /// means true congruence (no hashing ambiguity). Keys containing a
    /// merged-away root are unreachable until the merge is undone, at which
    /// point the table has been restored to match.
    sig_table: FxHashMap<SigKey, u32>,
    /// Asserted disequalities `(node, node, tag)`, in assertion order.
    diseqs: Vec<(usize, usize, usize)>,
    /// `diseq_lists[r]`: indices into `diseqs` with an endpoint in the class
    /// rooted at `r` (maintained like `use_lists`).
    diseq_lists: Vec<Vec<u32>>,
    /// Indices of the disequalities whose endpoints are currently in one
    /// class; the state is consistent iff this is empty.
    violations: Vec<u32>,
    eq_tags: Vec<usize>,
    undo: Vec<UndoOp>,
    /// Scratch stack of the congruence cascade (empty between calls).
    pending: Vec<(usize, usize, Reason)>,
    explain_incomplete: bool,
    /// Nodes of the Boolean constants (predicate atoms are equated with one).
    tru: usize,
    fls: usize,
}

impl EufState {
    fn new(checker: &TheoryChecker) -> EufState {
        let template = checker.template.clone();
        let n = template.terms.len();
        let (tru, fls) = (
            template.node_of_term[&checker.tru],
            template.node_of_term[&checker.fls],
        );
        let mut st = EufState {
            parent: (0..n).collect(),
            size: vec![1; n],
            pf_parent: vec![None; n],
            use_lists: vec![Vec::new(); n],
            sig_table: FxHashMap::default(),
            diseqs: Vec::new(),
            diseq_lists: vec![Vec::new(); n],
            violations: Vec::new(),
            eq_tags: Vec::new(),
            undo: Vec::new(),
            pending: Vec::new(),
            explain_incomplete: false,
            tru,
            fls,
            template,
        };
        for (ai, app) in st.template.app_nodes.iter().enumerate() {
            for &arg in &app.args {
                st.use_lists[arg].push(ai as u32);
            }
        }
        // Seed the signature table. Terms are hash-consed, so two distinct
        // application nodes cannot collide while every class is a singleton;
        // the merge arm is defensive.
        for ai in 0..st.template.app_nodes.len() {
            let key = st.sig(ai);
            match st.sig_table.get(&key).copied() {
                Some(aj) => {
                    let ni = st.template.app_nodes[ai].node;
                    let nj = st.template.app_nodes[aj as usize].node;
                    st.merge_classes(ni, nj, Reason::Congruence(ni, nj));
                }
                None => {
                    st.undo.push(UndoOp::SigInsert(key.clone()));
                    st.sig_table.insert(key, ai as u32);
                }
            }
        }
        st.assert_neq(tru, fls, AXIOM_TAG);
        st
    }

    fn node(&self, t: TermId) -> usize {
        *self
            .template
            .node_of_term
            .get(&t)
            .unwrap_or_else(|| panic!("term {:?} not in EUF universe", t))
    }

    /// Union-find lookup without path compression (undo safety).
    fn find(&self, mut x: usize) -> usize {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    /// Exact signature of an application node under the current classes.
    fn sig(&self, ai: usize) -> SigKey {
        let app = &self.template.app_nodes[ai];
        if app.args.len() < 5 {
            let mut key = [u32::MAX; 5];
            key[0] = app.op;
            for (slot, &arg) in key[1..].iter_mut().zip(&app.args) {
                *slot = self.find(arg) as u32;
            }
            SigKey::Inline(key)
        } else {
            let reps = app.args.iter().map(|&arg| self.find(arg) as u32);
            SigKey::Heap(std::iter::once(app.op).chain(reps).collect())
        }
    }

    fn pf_root(&self, mut x: usize) -> usize {
        while let Some((p, _)) = &self.pf_parent[x] {
            x = *p;
        }
        x
    }

    /// A restore point for [`EufState::undo_to`].
    fn mark(&self) -> usize {
        self.undo.len()
    }

    fn undo_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop().expect("undo above mark") {
                UndoOp::Merge {
                    pf_child,
                    old_pf_root,
                    loser_root,
                    winner_root,
                    winner_use_len,
                    winner_diseq_len,
                } => {
                    self.use_lists[winner_root].truncate(winner_use_len);
                    self.diseq_lists[winner_root].truncate(winner_diseq_len);
                    self.size[winner_root] -= self.size[loser_root];
                    self.parent[loser_root] = loser_root;
                    self.pf_parent[pf_child] = None;
                    self.reroot(old_pf_root);
                }
                UndoOp::SigInsert(key) => {
                    self.sig_table.remove(&key);
                }
                UndoOp::Diseq => {
                    let (a, b, _) = self.diseqs.pop().expect("diseq to undo");
                    let (ra, rb) = (self.find(a), self.find(b));
                    self.diseq_lists[ra].pop();
                    self.diseq_lists[rb].pop();
                }
                UndoOp::Violation => {
                    self.violations.pop();
                }
                UndoOp::EqTag => {
                    self.eq_tags.pop();
                }
            }
        }
    }

    fn assert_eq(&mut self, a: usize, b: usize, tag: usize) {
        self.eq_tags.push(tag);
        self.undo.push(UndoOp::EqTag);
        self.merge_classes(a, b, Reason::Asserted(tag));
    }

    fn assert_neq(&mut self, a: usize, b: usize, tag: usize) {
        let k = self.diseqs.len() as u32;
        let (ra, rb) = (self.find(a), self.find(b));
        self.diseqs.push((a, b, tag));
        self.undo.push(UndoOp::Diseq);
        self.diseq_lists[ra].push(k);
        self.diseq_lists[rb].push(k);
        if ra == rb {
            self.violations.push(k);
            self.undo.push(UndoOp::Violation);
        }
    }

    /// Merges the classes of nodes `a` and `b` and eagerly processes the
    /// congruence cascade via the use-lists.
    fn merge_classes(&mut self, a: usize, b: usize, reason: Reason) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.push((a, b, reason));
        while let Some((x, y, reason)) = pending.pop() {
            let (rx, ry) = (self.find(x), self.find(y));
            if rx == ry {
                continue;
            }
            // Union by size; the proof-forest edge always connects the two
            // *nodes* whose equality was derived, independent of which root
            // wins.
            let (winner, loser, pf_child, pf_other) = if self.size[rx] >= self.size[ry] {
                (rx, ry, x, y)
            } else {
                (ry, rx, y, x)
            };
            self.undo.push(UndoOp::Merge {
                pf_child,
                old_pf_root: self.pf_root(pf_child),
                loser_root: loser,
                winner_root: winner,
                winner_use_len: self.use_lists[winner].len(),
                winner_diseq_len: self.diseq_lists[winner].len(),
            });
            // Disequalities between the two classes become violated. Both
            // endpoints are listed under their classes, so scanning the
            // loser's list finds each exactly once.
            for i in 0..self.diseq_lists[loser].len() {
                let k = self.diseq_lists[loser][i];
                let (da, db, _) = self.diseqs[k as usize];
                let (ra, rb) = (self.find(da), self.find(db));
                if (ra == loser && rb == winner) || (ra == winner && rb == loser) {
                    self.violations.push(k);
                    self.undo.push(UndoOp::Violation);
                }
            }
            self.reroot(pf_child);
            self.pf_parent[pf_child] = Some((pf_other, reason));
            self.parent[loser] = winner;
            self.size[winner] += self.size[loser];
            // Re-hash every application with an argument in the absorbed
            // class: a signature-table hit is a true congruence (exact keys),
            // a miss records the new signature. The loser's lists are kept
            // intact (undo restores by truncating the winner's).
            let lost = std::mem::take(&mut self.use_lists[loser]);
            for &ai_u in &lost {
                let ai = ai_u as usize;
                let key = self.sig(ai);
                match self.sig_table.get(&key).copied() {
                    Some(aj) => {
                        let ni = self.template.app_nodes[ai].node;
                        let nj = self.template.app_nodes[aj as usize].node;
                        if self.find(ni) != self.find(nj) {
                            pending.push((ni, nj, Reason::Congruence(ni, nj)));
                        }
                    }
                    None => {
                        self.undo.push(UndoOp::SigInsert(key.clone()));
                        self.sig_table.insert(key, ai_u);
                    }
                }
            }
            self.use_lists[winner].extend_from_slice(&lost);
            self.use_lists[loser] = lost;
            let lost = std::mem::take(&mut self.diseq_lists[loser]);
            self.diseq_lists[winner].extend_from_slice(&lost);
            self.diseq_lists[loser] = lost;
        }
        self.pending = pending;
    }

    /// Makes `a` the root of its proof tree by reversing the edges on its
    /// path to the old root, in place.
    fn reroot(&mut self, a: usize) {
        let mut cur = a;
        let mut carried: Option<(usize, Reason)> = None;
        while let Some((p, reason)) = self.pf_parent[cur].take() {
            self.pf_parent[cur] = carried.take();
            carried = Some((cur, reason));
            cur = p;
        }
        self.pf_parent[cur] = carried;
    }

    /// The conflict tags of the earliest-asserted violated disequality, if
    /// any (the disequality the batch solver's in-order scan would report).
    fn conflict(&mut self, tm: &TermManager) -> Option<Vec<usize>> {
        let k = *self.violations.iter().min()?;
        let (a, b, tag) = self.diseqs[k as usize];
        self.explain_incomplete = false;
        let mut tags = self.explain(tm, a, b);
        if self.explain_incomplete {
            // Sound fallback: blame every asserted equation.
            tags = self.eq_tags.clone();
        }
        tags.push(tag);
        tags.sort_unstable();
        tags.dedup();
        Some(tags)
    }

    /// A canonical class index for `t` (comparable only within one state).
    fn class_index(&self, t: TermId) -> Option<usize> {
        let n = *self.template.node_of_term.get(&t)?;
        Some(self.find(n))
    }

    /// Explains why two equal terms are equal: the tags of the asserted
    /// equations used (all of them if the explanation was incomplete).
    fn explain_terms(&mut self, tm: &TermManager, a: TermId, b: TermId) -> Vec<usize> {
        self.explain_incomplete = false;
        let (na, nb) = (self.node(a), self.node(b));
        let tags = self.explain(tm, na, nb);
        if self.explain_incomplete {
            self.eq_tags.clone()
        } else {
            tags
        }
    }

    fn explain(&mut self, tm: &TermManager, a: usize, b: usize) -> Vec<usize> {
        let mut tags = Vec::new();
        self.explain_rec(tm, a, b, &mut tags, 0);
        tags
    }

    fn explain_rec(
        &mut self,
        tm: &TermManager,
        a: usize,
        b: usize,
        tags: &mut Vec<usize>,
        depth: usize,
    ) {
        if a == b {
            return;
        }
        if depth > 10_000 {
            self.explain_incomplete = true;
            return;
        }
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
                    self.explain_incomplete = true;
                    return;
                }
            }
        }
        let walk =
            |mut x: usize, stop: usize, this: &mut Self, tags: &mut Vec<usize>, depth: usize| {
                while x != stop {
                    let (p, reason) = this.pf_parent[x].clone().expect("path to lca");
                    match reason {
                        Reason::Asserted(t) => tags.push(t),
                        Reason::Congruence(u, v) => {
                            let (tu, tv) = (this.template.terms[u], this.template.terms[v]);
                            let args_u = tm.term(tu).args.clone();
                            let args_v = tm.term(tv).args.clone();
                            for (x_arg, y_arg) in args_u.iter().zip(args_v.iter()) {
                                let (nu, nv) = (this.node(*x_arg), this.node(*y_arg));
                                this.explain_rec(tm, nu, nv, tags, depth + 1);
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

/// What the EUF side of the session does with one literal of an atom.
#[derive(Clone, Copy, Debug)]
enum EufAtom {
    /// An equality: merged when positive, separated when negative.
    Eq(usize, usize),
    /// A predicate node: equated with `true` or `false`.
    Pred(usize),
    /// An arithmetic inequality: no EUF part.
    Arith,
}

/// How the session reads one SAT variable during a check: the live theory
/// atom it stands for, resolved once per check to the EUF nodes its literals
/// touch (see [`TheorySession::live_atom`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LiveAtom {
    atom: TermId,
    euf: EufAtom,
    /// Whether the positive (`.0`) / negative (`.1`) literal carries a
    /// simplex constraint.
    arith: (bool, bool),
}

impl LiveAtom {
    /// The atom term.
    pub(crate) fn atom(&self) -> TermId {
        self.atom
    }
}

/// One asserted literal on the session trail, with the restore points that
/// retract it.
#[derive(Clone, Debug)]
struct TrailEntry {
    /// The SAT literal (true on the SAT trail while the entry exists).
    lit: Lit,
    atom: TermId,
    /// SAT-trail position the literal was read from.
    sat_pos: usize,
    /// EUF undo-trail length before this literal's EUF assertions.
    euf_mark: usize,
    /// Simplex bound-trail length before this literal's bound assertions
    /// (meaningful for the first `loaded` entries only).
    simplex_mark: usize,
    /// Whether the literal carries a simplex constraint. A linear form whose
    /// terms cancel (e.g. the negation of `x <= x`, i.e. `0 < 0`) has no leaf
    /// terms but still must be sent to the simplex, which refutes constant
    /// infeasible constraints.
    has_arith: bool,
}

/// Result of a session check, with conflicts mapped back to the asserted
/// SAT literals (trail indices are an internal detail of the session).
#[derive(Clone, Debug)]
pub(crate) enum SessionCheck {
    /// The asserted literal set is consistent.
    Consistent,
    /// Inconsistent; a jointly inconsistent subset of the asserted literals,
    /// in trail order.
    Conflict(Vec<Lit>),
    /// Inconclusive (integer branching limit).
    Unknown,
}

/// Persistent theory state for one [`crate::IncrementalSolver`]: EUF and
/// simplex survive the whole search (and checks), with undo bound to the SAT
/// trail.
#[derive(Clone, Debug)]
pub(crate) struct TheorySession {
    euf: Option<EufState>,
    simplex: Simplex,
    /// Simplex variable per numeric leaf term, persistent across checks.
    var_of_term: FxHashMap<TermId, usize>,
    trail: Vec<TrailEntry>,
    /// Length of the SAT-trail prefix the session has read.
    seen: usize,
    /// Entries whose simplex bounds are loaded (always a prefix of `trail`).
    loaded: usize,
    /// Number of atoms the checker knew when the session state was built;
    /// a differing count means the atom universe changed (new atoms pushed,
    /// or a method scope popped) and the session rebuilds from the template.
    known_atoms: usize,
    pivot: PivotRule,
}

impl TheorySession {
    /// An empty session; state is materialized by [`TheorySession::prepare`].
    pub(crate) fn new(pivot: PivotRule) -> TheorySession {
        TheorySession {
            euf: None,
            simplex: Simplex::with_rule(pivot),
            var_of_term: FxHashMap::default(),
            trail: Vec::new(),
            seen: 0,
            loaded: 0,
            known_atoms: 0,
            pivot,
        }
    }

    /// Number of literals currently asserted on the session trail.
    pub(crate) fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// The asserted theory literals, in SAT-trail order.
    pub(crate) fn literals(&self) -> Vec<(TermId, bool)> {
        self.trail
            .iter()
            .map(|e| (e.atom, e.lit.is_positive()))
            .collect()
    }

    /// Readies the session for a check against `checker`: rebuilds from the
    /// checker's template when its atom universe changed since the state was
    /// built. The cumulative pivot counter is carried over so telemetry
    /// deltas stay monotonic.
    pub(crate) fn prepare(&mut self, checker: &TheoryChecker) {
        if self.euf.is_some() && checker.kinds.len() == self.known_atoms {
            return;
        }
        self.euf = Some(EufState::new(checker));
        let mut simplex = Simplex::with_rule(self.pivot);
        simplex.enable_slack_reuse();
        simplex.pivots = self.simplex.pivots;
        self.simplex = simplex;
        self.var_of_term.clear();
        self.trail.clear();
        self.seen = 0;
        self.loaded = 0;
        self.known_atoms = checker.kinds.len();
    }

    /// Resolves a theory atom of `checker` for [`TheorySession::sync`].
    /// Valid until the next rebuild ([`TheorySession::prepare`] after the
    /// checker grew).
    pub(crate) fn live_atom(&self, checker: &TheoryChecker, atom: TermId) -> LiveAtom {
        let euf = self.euf.as_ref().expect("session prepared");
        match checker.kinds.get(&atom) {
            Some(AtomKind::Eq { a, b, lin }) => LiveAtom {
                atom,
                euf: EufAtom::Eq(euf.node(*a), euf.node(*b)),
                // Negative numeric equalities are covered by the trichotomy
                // lemmas added during lowering.
                arith: (lin.is_some(), false),
            },
            Some(AtomKind::Ineq { .. }) => LiveAtom {
                atom,
                euf: EufAtom::Arith,
                arith: (true, true),
            },
            Some(AtomKind::Pred) | None => LiveAtom {
                atom,
                euf: EufAtom::Pred(euf.node(atom)),
                arith: (false, false),
            },
        }
    }

    /// Brings the session in line with the SAT trail at a propagation
    /// fixpoint: retracts the entries read from positions at or above
    /// `low_water` (see [`crate::sat::TheoryHook::fixpoint`]), asserts the
    /// EUF part of the live theory literals read from there on (`live` maps
    /// a SAT variable to its live atom; dead and non-theory variables map to
    /// `None`), and checks the disequalities.
    ///
    /// Returns the verdict (never [`SessionCheck::Unknown`]) and the number
    /// of entries retracted plus asserted.
    pub(crate) fn sync(
        &mut self,
        tm: &TermManager,
        trail: &[Lit],
        low_water: usize,
        live: &[Option<LiveAtom>],
    ) -> (SessionCheck, u64) {
        let low = self.seen.min(low_water);
        self.seen = trail.len();
        let keep = self.trail.partition_point(|e| e.sat_pos < low);
        let is_live = |l: &Lit| matches!(live.get(l.var() as usize), Some(Some(_)));
        let first = match trail[low..].iter().position(is_live) {
            Some(i) => low + i,
            // Nothing to retract or assert: no span, no work.
            None if keep == self.trail.len() => return (self.euf_verdict(tm), 0),
            None => trail.len(),
        };
        let _span = ids_obs::span("euf");
        let retracted = self.trail.len() - keep;
        self.retract_to(keep);
        let euf = self.euf.as_mut().expect("session prepared");
        for (pos, &lit) in trail.iter().enumerate().skip(first) {
            let Some(Some(la)) = live.get(lit.var() as usize) else {
                continue;
            };
            let idx = self.trail.len();
            let euf_mark = euf.mark();
            let positive = lit.is_positive();
            match la.euf {
                EufAtom::Eq(a, b) if positive => euf.assert_eq(a, b, idx),
                EufAtom::Eq(a, b) => euf.assert_neq(a, b, idx),
                EufAtom::Pred(n) => {
                    let target = if positive { euf.tru } else { euf.fls };
                    euf.assert_eq(n, target, idx);
                }
                EufAtom::Arith => {}
            }
            self.trail.push(TrailEntry {
                lit,
                atom: la.atom,
                sat_pos: pos,
                euf_mark,
                simplex_mark: 0,
                has_arith: if positive { la.arith.0 } else { la.arith.1 },
            });
        }
        let delta = (retracted + self.trail.len() - keep) as u64;
        (self.euf_verdict(tm), delta)
    }

    /// The EUF verdict on the asserted entries: the earliest-asserted
    /// violated disequality with its explanation, if any.
    fn euf_verdict(&mut self, tm: &TermManager) -> SessionCheck {
        let euf = self.euf.as_mut().expect("session prepared");
        match euf.conflict(tm) {
            Some(tags) => SessionCheck::Conflict(conflict_lits(&self.trail, &tags, &[])),
            None => SessionCheck::Consistent,
        }
    }

    /// Retracts every entry from `keep` on, restoring EUF and simplex to the
    /// state before the first of them was asserted.
    fn retract_to(&mut self, keep: usize) {
        let Some(first) = self.trail.get(keep) else {
            return;
        };
        self.euf
            .as_mut()
            .expect("session prepared")
            .undo_to(first.euf_mark);
        if keep < self.loaded {
            self.simplex.undo_to(first.simplex_mark);
            self.loaded = keep;
        }
        self.trail.truncate(keep);
    }

    /// The check of a complete assignment, after a consistent
    /// [`TheorySession::sync`]: loads the simplex bounds of the entries not
    /// loaded yet, propagates the EUF-derived equalities between numeric
    /// leaf terms into the simplex and runs it.
    ///
    /// Returns the verdict and the pivots it took.
    pub(crate) fn final_check(
        &mut self,
        tm: &TermManager,
        checker: &TheoryChecker,
    ) -> (SessionCheck, u64) {
        if !self.trail.iter().any(|e| e.has_arith) {
            for e in &mut self.trail[self.loaded..] {
                e.simplex_mark = self.simplex.mark();
            }
            self.loaded = self.trail.len();
            return (SessionCheck::Consistent, 0);
        }
        let TheorySession {
            euf,
            simplex,
            var_of_term,
            trail,
            loaded,
            ..
        } = self;
        let euf = euf.as_mut().expect("session prepared");
        let pivots_before = simplex.pivots;
        let mut simplex_span = ids_obs::span("simplex");

        for i in *loaded..trail.len() {
            let mark = simplex.mark();
            trail[i].simplex_mark = mark;
            if !trail[i].has_arith {
                continue;
            }
            let positive = trail[i].lit.is_positive();
            let (form, rel, both_int) = match checker.kinds.get(&trail[i].atom) {
                Some(AtomKind::Eq {
                    lin: Some(form), ..
                }) => (Cow::Borrowed(form), Rel::Eq, false),
                Some(AtomKind::Ineq {
                    lin,
                    strict,
                    both_int,
                }) => {
                    if positive {
                        (
                            Cow::Borrowed(lin),
                            if *strict { Rel::Lt } else { Rel::Le },
                            *both_int,
                        )
                    } else {
                        (
                            Cow::Owned(lin.negated()),
                            if *strict { Rel::Le } else { Rel::Lt },
                            *both_int,
                        )
                    }
                }
                _ => unreachable!("arithmetic entry without a linear form"),
            };
            let mut expr = LinExpr::zero();
            expr.constant = form.constant;
            for &(leaf, coeff) in &form.terms {
                let v = *var_of_term.entry(leaf).or_insert_with(|| {
                    simplex.new_var(*checker.leaf_is_int.get(&leaf).unwrap_or(&false))
                });
                expr.add_term(coeff, v);
            }
            // Strict integer inequalities are tightened to non-strict ones
            // (`a < b` becomes `a + 1 <= b`), exactly like the batch path.
            let rel = if rel == Rel::Lt && both_int {
                expr.constant += Rat::ONE;
                Rel::Le
            } else {
                rel
            };
            if let Err(tags) = simplex.add_constraint(&expr, rel, i) {
                // A literal may assert two bounds (an equality); failing
                // halfway through must not leave it half loaded.
                simplex.undo_to(mark);
                *loaded = i;
                let pivots = simplex.pivots - pivots_before;
                simplex_span.note(|| format!("pivots={}", pivots));
                return (
                    SessionCheck::Conflict(conflict_lits(trail, &tags, &[])),
                    pivots,
                );
            }
        }
        *loaded = trail.len();

        // Propagate EUF-derived equalities between the numeric leaf terms of
        // the currently asserted literals. These are justified by the current
        // congruence classes, so they never outlive the check: they are
        // always popped below, whatever the verdict.
        let derived_mark = simplex.mark();
        let mut derived_explanations: Vec<Vec<usize>> = Vec::new();
        let mut seen: FxHashMap<TermId, ()> = FxHashMap::default();
        let mut terms_in_order: Vec<TermId> = Vec::new();
        for e in trail.iter().filter(|e| e.has_arith) {
            let form = match checker.kinds.get(&e.atom) {
                Some(AtomKind::Eq {
                    lin: Some(form), ..
                }) => form,
                Some(AtomKind::Ineq { lin, .. }) => lin,
                _ => continue,
            };
            for &(t, _) in &form.terms {
                if seen.insert(t, ()).is_none() {
                    terms_in_order.push(t);
                }
            }
        }
        let mut by_class: FxHashMap<usize, Vec<TermId>> = FxHashMap::default();
        for &t in &terms_in_order {
            if let Some(c) = euf.class_index(t) {
                by_class.entry(c).or_default().push(t);
            }
        }
        let mut derived_error: Option<Vec<usize>> = None;
        'groups: for (_, group) in by_class {
            for w in group.windows(2) {
                let (a, b) = (w[0], w[1]);
                let explanation = euf.explain_terms(tm, a, b);
                let derived_tag = DERIVED_BASE + derived_explanations.len();
                derived_explanations.push(explanation);
                let mut expr = LinExpr::variable(var_of_term[&a]);
                expr.add_term(-Rat::ONE, var_of_term[&b]);
                if let Err(tags) = simplex.add_constraint(&expr, Rel::Eq, derived_tag) {
                    derived_error = Some(tags);
                    break 'groups;
                }
            }
        }

        let outcome = if let Some(tags) = derived_error {
            SessionCheck::Conflict(conflict_lits(trail, &tags, &derived_explanations))
        } else {
            match simplex.check() {
                ArithOutcome::Sat(_) => SessionCheck::Consistent,
                ArithOutcome::Conflict(tags) => {
                    SessionCheck::Conflict(conflict_lits(trail, &tags, &derived_explanations))
                }
                ArithOutcome::Unknown => SessionCheck::Unknown,
            }
        };
        // Retract the derived equalities; the trail literals themselves stay
        // loaded (also on Conflict/Unknown — the SAT core's backjump retracts
        // whatever it undoes).
        simplex.undo_to(derived_mark);
        let pivots = simplex.pivots - pivots_before;
        simplex_span.note(|| format!("pivots={}", pivots));
        (outcome, pivots)
    }
}

/// Maps conflict tags (trail indices, derived tags, the axiom sentinel) back
/// to the asserted SAT literals, in trail order.
fn conflict_lits(trail: &[TrailEntry], tags: &[usize], derived: &[Vec<usize>]) -> Vec<Lit> {
    let mut idxs: Vec<usize> = Vec::new();
    for &t in tags {
        if t == AXIOM_TAG {
            continue;
        }
        if t >= DERIVED_BASE {
            for &u in &derived[t - DERIVED_BASE] {
                if u != AXIOM_TAG {
                    idxs.push(u);
                }
            }
        } else {
            idxs.push(t);
        }
    }
    idxs.sort_unstable();
    idxs.dedup();
    idxs.into_iter().map(|t| trail[t].lit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;
    use crate::theory::TheoryCheck;

    /// Deterministic xorshift generator for the differential fuzz.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    /// A stand-in for the SAT side of the seam: atom `i` is SAT variable
    /// `i`, the trail is a literal list, and `low` is the low-water mark the
    /// next sync receives (lowered by every backtrack, reset by every sync).
    struct Driver {
        atoms: Vec<TermId>,
        trail: Vec<Lit>,
        low: usize,
    }

    impl Driver {
        fn new(atoms: &[TermId]) -> Driver {
            Driver {
                atoms: atoms.to_vec(),
                trail: Vec::new(),
                low: 0,
            }
        }

        fn lit(&self, atom: TermId, positive: bool) -> Lit {
            let var = self.atoms.iter().position(|&a| a == atom).expect("atom");
            Lit::new(var as u32, positive)
        }

        fn backtrack(&mut self, keep: usize) {
            self.trail.truncate(keep);
            self.low = self.low.min(keep);
        }

        fn push(&mut self, atom: TermId, positive: bool) {
            let l = self.lit(atom, positive);
            self.trail.push(l);
        }

        /// Pops a random suffix and appends random fresh literals (each atom
        /// at most once), once or twice before the next sync, like CDCL
        /// backjumps followed by propagation and decisions.
        fn evolve(&mut self, rng: &mut Rng) {
            for _ in 0..1 + rng.below(2) {
                let keep = rng.below(self.trail.len() + 1);
                self.backtrack(keep);
                let mut candidates: Vec<usize> = (0..self.atoms.len())
                    .filter(|&v| self.trail.iter().all(|l| l.var() as usize != v))
                    .collect();
                for _ in 0..rng.below(candidates.len() + 1) {
                    let v = candidates.swap_remove(rng.below(candidates.len()));
                    self.trail.push(Lit::new(v as u32, rng.chance(60)));
                }
            }
        }

        fn pairs(&self, lits: &[Lit]) -> Vec<(TermId, bool)> {
            lits.iter()
                .map(|l| (self.atoms[l.var() as usize], l.is_positive()))
                .collect()
        }

        fn live(
            &self,
            session: &mut TheorySession,
            checker: &TheoryChecker,
        ) -> Vec<Option<LiveAtom>> {
            session.prepare(checker);
            self.atoms
                .iter()
                .map(|&a| Some(session.live_atom(checker, a)))
                .collect()
        }

        /// One fixpoint sync, then (when consistent) the complete-assignment
        /// check, as the SAT loop runs them. Returns the verdict and the sync
        /// delta.
        fn check(
            &mut self,
            session: &mut TheorySession,
            tm: &TermManager,
            checker: &TheoryChecker,
        ) -> (SessionCheck, u64) {
            let live = self.live(session, checker);
            let (verdict, delta) = session.sync(tm, &self.trail, self.low, &live);
            self.low = self.trail.len();
            match verdict {
                SessionCheck::Consistent => (session.final_check(tm, checker).0, delta),
                other => (other, delta),
            }
        }

        /// The same check on a fresh session: the rebuild oracle.
        fn replay(&self, tm: &TermManager, checker: &TheoryChecker) -> SessionCheck {
            let mut fresh = Driver::new(&self.atoms);
            fresh.trail = self.trail.clone();
            fresh
                .check(&mut TheorySession::new(PivotRule::Bland), tm, checker)
                .0
        }
    }

    fn verdict_name(c: &SessionCheck) -> &'static str {
        match c {
            SessionCheck::Consistent => "consistent",
            SessionCheck::Conflict(_) => "conflict",
            SessionCheck::Unknown => "unknown",
        }
    }

    fn batch_verdict_name(c: &TheoryCheck) -> &'static str {
        match c {
            TheoryCheck::Consistent => "consistent",
            TheoryCheck::Conflict(_) => "conflict",
            TheoryCheck::Unknown => "unknown",
        }
    }

    /// A mixed EUF + arithmetic atom universe exercising congruence chains,
    /// predicates, derived-equality propagation and integer tightening.
    fn mixed_universe() -> (TermManager, Vec<TermId>) {
        let mut tm = TermManager::new();
        let locs: Vec<TermId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| tm.var(n, Sort::Loc))
            .collect();
        let keys: Vec<TermId> = locs
            .iter()
            .map(|&l| tm.app("key", vec![l], Sort::Int))
            .collect();
        let mut atoms = Vec::new();
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                atoms.push(tm.eq(locs[i], locs[j]));
            }
        }
        let fa = tm.app("f", vec![locs[0]], Sort::Loc);
        let fb = tm.app("f", vec![locs[1]], Sort::Loc);
        atoms.push(tm.eq(fa, fb));
        atoms.push(tm.app("p", vec![locs[0]], Sort::Bool));
        atoms.push(tm.app("p", vec![locs[2]], Sort::Bool));
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                atoms.push(tm.le(keys[i], keys[j]));
            }
        }
        let five = tm.int(5);
        let seven = tm.int(7);
        atoms.push(tm.le(keys[0], five));
        atoms.push(tm.ge(keys[1], seven));
        atoms.push(tm.lt(keys[2], keys[3]));
        atoms.push(tm.eq(keys[0], keys[3]));
        (tm, atoms)
    }

    /// An EUF-only universe (no arithmetic atoms), where the trail engine and
    /// a fresh rebuild are bit-exact — verdicts AND conflict explanations.
    fn euf_universe() -> (TermManager, Vec<TermId>) {
        let mut tm = TermManager::new();
        let vars: Vec<TermId> = ["x", "y", "z", "w"]
            .iter()
            .map(|n| tm.var(n, Sort::Loc))
            .collect();
        let apps: Vec<TermId> = vars
            .iter()
            .map(|&v| tm.app("g", vec![v], Sort::Loc))
            .collect();
        let nested: Vec<TermId> = apps
            .iter()
            .map(|&a| tm.app("g", vec![a], Sort::Loc))
            .collect();
        let mut atoms = Vec::new();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                atoms.push(tm.eq(vars[i], vars[j]));
            }
        }
        for i in 0..apps.len() {
            for j in (i + 1)..apps.len() {
                atoms.push(tm.eq(apps[i], apps[j]));
            }
        }
        atoms.push(tm.eq(nested[0], nested[2]));
        atoms.push(tm.app("q", vec![vars[0]], Sort::Bool));
        atoms.push(tm.app("q", vec![vars[3]], Sort::Bool));
        (tm, atoms)
    }

    /// Asserting exactly the reported conflict literals must itself be
    /// inconsistent (checked with the independent batch path): every
    /// explanation the session returns is a true theory lemma.
    fn assert_conflict_valid(
        tm: &TermManager,
        checker: &TheoryChecker,
        conflict: &[(TermId, bool)],
        context: &str,
    ) {
        assert!(
            !conflict.is_empty(),
            "{context}: empty conflict (would be the trivially-unsat clause)"
        );
        match checker.check(tm, conflict) {
            TheoryCheck::Conflict(_) => {}
            other => panic!("{context}: reported conflict is not inconsistent: {other:?}"),
        }
    }

    /// Differential fuzz, mixed theories: the persistent session, synced
    /// across random low-water backtracks, must agree on the verdict with
    /// (a) the batch rebuild-per-model checker and (b) a fresh session
    /// syncing the same trail in one shot, on every step of a long random
    /// schedule; every conflict either engine reports must be independently
    /// valid.
    #[test]
    fn fuzz_session_agrees_with_rebuild_mixed() {
        let (tm, atoms) = mixed_universe();
        let mut tm = tm;
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        for step in 0..400 {
            sat.evolve(&mut rng);
            let (got, _) = sat.check(&mut session, &tm, &checker);
            let literals = sat.pairs(&sat.trail);
            let want = checker.check_with(&tm, &literals, PivotRule::Bland);
            assert_eq!(
                verdict_name(&got),
                batch_verdict_name(&want),
                "step {step}: session vs batch on {literals:?}"
            );
            let replay = sat.replay(&tm, &checker);
            assert_eq!(
                verdict_name(&got),
                verdict_name(&replay),
                "step {step}: session vs fresh replay on {literals:?}"
            );
            for (name, verdict) in [("session", &got), ("replay", &replay)] {
                if let SessionCheck::Conflict(c) = verdict {
                    assert_conflict_valid(
                        &tm,
                        &checker,
                        &sat.pairs(c),
                        &format!("step {step} {name}"),
                    );
                }
            }
        }
    }

    /// Differential fuzz, EUF only: with no simplex involved the persistent
    /// session and a fresh rebuild are bit-exact, so verdicts AND conflict
    /// explanations must be identical on every step.
    #[test]
    fn fuzz_euf_explanations_identical_to_rebuild() {
        let (tm, atoms) = euf_universe();
        let mut tm = tm;
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut rng = Rng(0xdead_beef_0000_0042);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        let mut conflicts_seen = 0;
        for step in 0..400 {
            sat.evolve(&mut rng);
            let (got, _) = sat.check(&mut session, &tm, &checker);
            let replay = sat.replay(&tm, &checker);
            let literals = sat.pairs(&sat.trail);
            match (&got, &replay) {
                (SessionCheck::Consistent, SessionCheck::Consistent) => {}
                (SessionCheck::Conflict(a), SessionCheck::Conflict(b)) => {
                    assert_eq!(a, b, "step {step}: explanations diverged on {literals:?}");
                    assert_conflict_valid(&tm, &checker, &sat.pairs(a), &format!("step {step}"));
                    conflicts_seen += 1;
                }
                other => panic!("step {step}: verdicts diverged: {other:?}"),
            }
            let want = checker.check_with(&tm, &literals, PivotRule::Bland);
            assert_eq!(verdict_name(&got), batch_verdict_name(&want), "step {step}");
        }
        assert!(
            conflicts_seen >= 20,
            "fuzz schedule too tame: only {conflicts_seen} conflicts"
        );
    }

    /// Exact-undo check on the internals: sync an extension of a consistent
    /// trail (through its final check, so simplex bounds load too), backtrack
    /// to the original length, sync again, and compare every EUF structure
    /// field against a snapshot taken before the extension.
    #[test]
    fn undo_restores_euf_state_exactly() {
        let (tm, atoms) = mixed_universe();
        let mut tm = tm;
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut rng = Rng(0x0123_4567_89ab_cdef);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        let mut compared = 0;
        for _ in 0..400 {
            sat.evolve(&mut rng);
            let (res, _) = sat.check(&mut session, &tm, &checker);
            if !matches!(res, SessionCheck::Consistent) {
                continue;
            }
            let snapshot = session.clone();
            let base = sat.trail.len();
            // Extend above the base (possibly backtracking within the
            // extension first), check, then backtrack to the base.
            let mut candidates: Vec<TermId> = atoms
                .iter()
                .copied()
                .filter(|&a| sat.trail.iter().all(|l| sat.atoms[l.var() as usize] != a))
                .collect();
            for _ in 0..rng.below(candidates.len() + 1) {
                let a = candidates.swap_remove(rng.below(candidates.len()));
                sat.push(a, rng.chance(60));
            }
            sat.check(&mut session, &tm, &checker);
            sat.backtrack(base);
            let live = sat.live(&mut session, &checker);
            session.sync(&tm, &sat.trail, sat.low, &live);
            sat.low = sat.trail.len();
            let (a, b) = (
                session.euf.as_ref().expect("euf"),
                snapshot.euf.as_ref().expect("euf"),
            );
            assert_eq!(a.parent, b.parent, "union-find links");
            assert_eq!(a.size, b.size, "class sizes");
            assert_eq!(a.use_lists, b.use_lists, "use lists");
            assert_eq!(a.sig_table, b.sig_table, "signature table");
            assert_eq!(a.diseqs, b.diseqs, "disequalities");
            assert_eq!(a.diseq_lists, b.diseq_lists, "disequality lists");
            assert_eq!(a.violations, b.violations, "violations");
            assert_eq!(a.eq_tags, b.eq_tags, "equation tags");
            assert_eq!(a.undo.len(), b.undo.len(), "undo trail length");
            assert_eq!(
                session.trail_len(),
                snapshot.trail_len(),
                "session trail length"
            );
            assert_eq!(session.loaded, snapshot.loaded, "loaded entries");
            assert_eq!(
                session.simplex.mark(),
                snapshot.simplex.mark(),
                "simplex bound trail length"
            );
            compared += 1;
        }
        assert!(compared >= 30, "too few comparable steps: {compared}");
    }

    /// Directed: a conflicting sync followed by a backtrack that keeps a
    /// prefix must retract only the literals above the low-water mark — the
    /// delta is the changed suffix, not the whole trail.
    #[test]
    fn conflict_then_backtrack_keeps_the_prefix() {
        let mut tm = TermManager::new();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| tm.var(n, Sort::Loc));
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let eq_xy = tm.eq(x, y);
        let eq_zw = tm.eq(z, w);
        let eq_xz = tm.eq(x, z);
        let eq_yw = tm.eq(y, w);
        let eq_f = tm.eq(fx, fy);
        let atoms = [eq_xy, eq_zw, eq_xz, eq_yw, eq_f];
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        for (atom, positive) in [(eq_xy, true), (eq_zw, true), (eq_xz, false), (eq_yw, false)] {
            sat.push(atom, positive);
        }
        let (res, delta) = sat.check(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        assert_eq!(delta, 4);
        // f(x) != f(y) contradicts x = y by congruence.
        sat.push(eq_f, false);
        let (res, delta) = sat.check(&mut session, &tm, &checker);
        match res {
            SessionCheck::Conflict(c) => {
                assert_eq!(sat.pairs(&c), vec![(eq_xy, true), (eq_f, false)]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(delta, 1);
        // Backjump below the conflicting literal only and flip it.
        sat.backtrack(4);
        sat.push(eq_f, true);
        let (res, delta) = sat.check(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        assert_eq!(delta, 2, "one retracted, one asserted");
        assert!((delta as usize) < session.trail_len());
        assert_eq!(session.trail_len(), 5);
        assert!(matches!(
            sat.replay(&tm, &checker),
            SessionCheck::Consistent
        ));
    }

    /// Directed regression: a linear form whose terms cancel entirely (the
    /// negation of `x <= x` is `0 < 0`) carries no numeric leaf terms, but
    /// its constant constraint must still reach the simplex and conflict by
    /// itself. An early version skipped the simplex phase whenever no trail
    /// literal had leaf terms, wrongly declaring such checks consistent.
    #[test]
    fn constant_infeasible_ineq_conflicts_alone() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let le_xx = tm.le(x, x);
        let checker = TheoryChecker::new(&mut tm, &[le_xx]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&[le_xx]);
        sat.push(le_xx, false);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        match res {
            SessionCheck::Conflict(c) => assert_eq!(sat.pairs(&c), vec![(le_xx, false)]),
            other => panic!("expected conflict, got {other:?}"),
        }
        // And the positive polarity (0 <= 0) is consistent.
        sat.backtrack(0);
        sat.push(le_xx, true);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
    }

    /// Directed: a congruence conflict discovered only after a retraction
    /// swapped which equality chain is asserted.
    #[test]
    fn congruence_conflict_across_retraction() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let z = tm.var("z", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fz = tm.app("f", vec![z], Sort::Loc);
        let eq_xy = tm.eq(x, y);
        let eq_yz = tm.eq(y, z);
        let eq_f = tm.eq(fx, fz);
        let checker = TheoryChecker::new(&mut tm, &[eq_xy, eq_yz, eq_f]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&[eq_xy, eq_yz, eq_f]);
        // x = y and f(x) != f(z): consistent.
        sat.push(eq_xy, true);
        sat.push(eq_f, false);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        // Retract f(x) != f(z), assert y = z and f(x) != f(z) again after
        // it — the congruence f(x) = f(z) now follows and conflicts.
        sat.backtrack(1);
        sat.push(eq_yz, true);
        sat.push(eq_f, false);
        let (res, delta) = sat.check(&mut session, &tm, &checker);
        match res {
            SessionCheck::Conflict(c) => {
                assert_eq!(
                    sat.pairs(&c),
                    vec![(eq_xy, true), (eq_yz, true), (eq_f, false)]
                );
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        // The old trail shared the [(eq_xy, true)] prefix: popped 1, pushed 2.
        assert_eq!(delta, 3);
    }

    /// Directed: warm simplex restart keeps bounds of retained literals and
    /// retracts only the popped ones.
    #[test]
    fn simplex_bounds_retract_with_their_literals() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let five = tm.int(5);
        let three = tm.int(3);
        let le3 = tm.le(x, three);
        let ge5 = tm.ge(x, five);
        let checker = TheoryChecker::new(&mut tm, &[le3, ge5]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&[le3, ge5]);
        // x >= 5 alone: consistent.
        sat.push(ge5, true);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent));
        // + x <= 3: conflict {x>=5, x<=3}.
        sat.push(le3, true);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        match res {
            SessionCheck::Conflict(c) => {
                assert_eq!(sat.pairs(&c), vec![(ge5, true), (le3, true)]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        // Retract x <= 3, keep x >= 5: consistent again — the old bound must
        // not linger in the warm-restarted tableau.
        sat.backtrack(1);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
    }

    /// The session detects checker growth (new atoms pushed mid-scope) and
    /// rebuilds instead of answering from a stale template.
    #[test]
    fn rebuilds_when_checker_learns_new_atoms() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let eq_xy = tm.eq(x, y);
        let mut checker = TheoryChecker::new(&mut tm, &[eq_xy]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&[eq_xy]);
        sat.push(eq_xy, true);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent));
        // New atoms arrive (a later assertion batch); a new solve starts
        // from low water 0.
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let eq_f = tm.eq(fx, fy);
        checker.extend(&tm, &[eq_f]);
        let mut sat = Driver::new(&[eq_xy, eq_f]);
        sat.push(eq_xy, true);
        sat.push(eq_f, false);
        let (res, _) = sat.check(&mut session, &tm, &checker);
        match res {
            SessionCheck::Conflict(c) => {
                assert_eq!(sat.pairs(&c), vec![(eq_xy, true), (eq_f, false)]);
            }
            other => panic!("expected congruence conflict, got {other:?}"),
        }
    }
}
