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
//! * EUF also *propagates*: per-node watch lists of the check's live atoms
//!   ([`TheorySession::watch`]) and circular class-member links let a merge
//!   or an asserted disequality find the atom literals it decides, and a
//!   consistent sync hands them back to the SAT core with a reason recorded
//!   for lazy explanation ([`TheorySession::explain`]).
//! * Simplex keeps its tableau, basis and slack variables for the whole
//!   search (warm restart). Arithmetic runs at every fixpoint too: after a
//!   consistent EUF verdict, [`TheorySession::sync`] asserts the simplex
//!   bounds of the literals it read and, when it asserted any, runs the
//!   rational check from the current basis (Dutertre & de Moura, CAV 2006).
//!   Each (atom, polarity) is normalized into bounds once and re-asserted
//!   from that form. Retraction rolls back bound tightenings via
//!   [`crate::simplex::Simplex::undo_to`]. Slack variables are reused across
//!   re-assertions of the same linear form so the tableau does not grow
//!   with the number of checks.
//! * EUF and the simplex share equalities at merges (Nelson & Oppen, TOPLAS
//!   1979, done incrementally): each class keeps one numeric-leaf member as
//!   its representative, and a merge that joins two classes with one each
//!   shares the equality of the two representatives. The shared equalities
//!   form a spanning forest over each class's numeric leaves, are trail
//!   state undone with their merge, and load into the simplex with the
//!   entry whose merge made them, as `x_a − x_b = 0` over one reused slack
//!   per pair of simplex variables. A simplex conflict through one is
//!   explained only then, by the proof-forest path between its pair.
//! * Only integer branch-and-bound needs a complete assignment, and waits
//!   for [`TheorySession::final_check`].
//!
//! Verdicts are identical to the batch path: congruence closure reaches the
//! same fixpoint regardless of merge order, simplex verdicts are independent
//! of pivot history, and a rational conflict over a subset of the bounds is
//! a conflict over all of them. The shared equalities are a superset of the
//! batch path's derived ones, which join only the numeric leaves of the
//! asserted arithmetic literals: a leaf no bound mentions is an alias of its
//! class, and joins no constraint the batch path lacks. Every shared
//! equality is entailed by the asserted EUF literals, and under
//! `IDS_TRAIL_ORACLE` the stateless checker re-checks every conflict.
//! Conflict *explanations* may differ from the batch path's (different
//! merge/pivot order picks a different valid inconsistent subset), which is
//! fine for DPLL(T): any inconsistent subset yields a sound theory lemma.

use std::time::{Duration, Instant};

use crate::euf::{EufTemplate, Reason};
use crate::fxmap::FxHashMap;
use crate::rational::Rat;
use crate::sat::{Lit, Var};
use crate::simplex::{ArithOutcome, Compiled, LinExpr, PivotRule, Rel, Simplex};
use crate::term::{TermId, TermManager};
use crate::theory::{AtomKind, TheoryChecker, AXIOM_TAG};

/// Simplex tags at or above this stand for shared equalities:
/// `SHARED_BASE + k` is [`EufState::shared`]`[k]`, whose explanation (trail
/// tags) replaces it in conflicts. Trail indices are far below this for any
/// conceivable literal count.
const SHARED_BASE: usize = usize::MAX / 2;

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

/// The `other` side of a predicate atom's [`Watch`].
const PRED: u32 = u32::MAX;

/// A live atom watched on one of its EUF nodes: an equality atom is watched
/// on both sides (`other` is the opposite side), a predicate atom on its own
/// node (`other` is [`PRED`]).
#[derive(Clone, Copy, Debug)]
struct Watch {
    var: Var,
    other: u32,
}

/// Why the congruence state implies a literal, recorded when it is implied
/// and turned into antecedent literals only on demand
/// ([`TheorySession::explain`]).
#[derive(Clone, Copy, Debug)]
enum Why {
    /// The two nodes are in one class: the literal is their equality, or a
    /// predicate's value (the second node a Boolean constant).
    Equal(usize, usize),
    /// `x ~ dx`, `y ~ dy` and the asserted disequality `dx ≠ dy` (tag
    /// `tag`): the literal is `x ≠ y`. The orientation is fixed when the
    /// literal is implied, because later merges may join more classes before
    /// the session retracts them.
    Apart {
        x: usize,
        dx: usize,
        y: usize,
        dy: usize,
        tag: usize,
    },
}

/// One reversible mutation of [`EufState`], undone in reverse order.
#[derive(Clone, Debug)]
enum UndoOp {
    /// A class merge: `loser_root`'s class was absorbed into `winner_root`'s
    /// (their member links swapped), and the proof-forest edge
    /// `pf_child -> …` was added after re-rooting `pf_child`'s tree (whose
    /// old root is recorded for the reverse re-root).
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
    /// A merge passed the absorbed class's numeric representative to this
    /// winner root, which had none.
    NumRep(usize),
    /// A pushed shared equality.
    Shared,
}

/// Backtrackable congruence closure: the incremental, exact-undo counterpart
/// of the batch [`crate::euf::Euf`] solver. Congruence is maintained eagerly
/// on every assertion (use-list driven), so there is no fixpoint pass over
/// all application nodes, and violated disequalities are recorded as the
/// merges that violate them happen.
///
/// Theory propagation rides on the same events. A merge scans the watches
/// of the absorbed class's members and implies every equality atom whose
/// other side is in the absorbing class, and every predicate atom whose
/// value the absorbing class holds (when the absorbed class holds `true` or
/// `false`, the absorbing class's predicate watches are scanned instead).
/// Asserting `a ≠ b` scans the smaller of the two classes and implies false
/// every equality atom between them. Candidates collect in `implied` until
/// the end of the sync.
#[derive(Clone, Debug, Default)]
pub(crate) struct EufState {
    /// The checker's template as of the last [`EufState::grow`].
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
    /// Undo-trail length at the base state ([`EufState::grow`]).
    base: usize,
    /// Scratch stack of the congruence cascade (empty between calls).
    pending: Vec<(usize, usize, Reason)>,
    explain_incomplete: bool,
    /// Nodes of the Boolean constants (predicate atoms are equated with one).
    tru: usize,
    fls: usize,
    /// Circular class-member links: following `next` from any node visits
    /// its whole class once. A merge swaps the links of the two roots, and
    /// its undo swaps them back.
    next: Vec<usize>,
    /// The check's live atoms watched per node, in one flat list:
    /// `watch_list[watch_start[n]..watch_start[n + 1]]` are node `n`'s
    /// watches. Rebuilt once per check ([`EufState::watch`]); empty
    /// (nothing implied) until then.
    watch_start: Vec<u32>,
    watch_list: Vec<Watch>,
    /// Per SAT variable: whether its literal is on the session trail (such
    /// literals are never implied).
    on_trail: Vec<bool>,
    /// Scratch: literals implied since the sync began, with their reasons.
    implied: Vec<(Lit, Why)>,
    /// Per class root: one numeric-leaf member (a node whose term is a leaf
    /// of a linear form, [`TheoryChecker::leaf_is_int`]), or none.
    num_rep: Vec<Option<u32>>,
    /// The equalities shared with the simplex, one per merge that joined two
    /// classes with numeric representatives: the pair of representatives.
    /// Over each class they form a spanning tree of its numeric leaves, so
    /// they imply every equality congruence derives between numeric leaves.
    shared: Vec<(usize, usize)>,
}

impl EufState {
    /// Grows the state to `checker`'s template: returns to the base state,
    /// appends the template's new nodes with their use-list entries and
    /// signatures, and takes the new base mark. The first growth, from the
    /// empty state, is the build, and also asserts `true ≠ false`.
    ///
    /// At base every class is a singleton, each application's signature is
    /// in the table and only `true ≠ false` is asserted: exactly what one
    /// growth from the empty state builds, field for field, so a state grown
    /// in steps equals one grown in one step.
    fn grow(&mut self, checker: &TheoryChecker) {
        self.undo_to(self.base);
        // No watches while seeding: nothing is implied before the check's
        // watch lists are built.
        self.watch_start.clear();
        self.watch_list.clear();
        let (old_nodes, old_apps) = (self.parent.len(), self.template.app_nodes.len());
        self.template.append_from(&checker.template);
        let n = self.template.terms.len();
        self.parent.extend(old_nodes..n);
        self.next.extend(old_nodes..n);
        self.size.resize(n, 1);
        self.pf_parent.resize(n, None);
        self.use_lists.resize(n, Vec::new());
        self.diseq_lists.resize(n, Vec::new());
        // Every class is a singleton at base, so each numeric leaf is its
        // own class's representative. An old node becomes a leaf when a new
        // atom puts it in a linear form, so every leaf is read again.
        self.num_rep.resize(n, None);
        for &t in checker.leaf_is_int.keys() {
            let leaf = self.node(t);
            self.num_rep[leaf] = Some(leaf as u32);
        }
        let new_apps = old_apps..self.template.app_nodes.len();
        for ai in new_apps.clone() {
            for &arg in &self.template.app_nodes[ai].args {
                self.use_lists[arg].push(ai as u32);
            }
        }
        // Seed the signature table. Terms are hash-consed, so two distinct
        // application nodes cannot collide while every class is a singleton;
        // the merge arm is defensive. Entries below the base mark are never
        // undone, so seeding records no undo.
        for ai in new_apps {
            let key = self.sig(ai);
            match self.sig_table.get(&key).copied() {
                Some(aj) => {
                    let ni = self.template.app_nodes[ai].node;
                    let nj = self.template.app_nodes[aj as usize].node;
                    self.merge_classes(ni, nj, Reason::Congruence(ni, nj));
                }
                None => {
                    self.sig_table.insert(key, ai as u32);
                }
            }
        }
        if old_nodes == 0 {
            self.tru = self.node(checker.tru);
            self.fls = self.node(checker.fls);
            self.assert_neq(self.tru, self.fls, AXIOM_TAG);
        }
        self.base = self.mark();
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

    /// Rebuilds the per-node watch lists from the check's live-atom table
    /// (indexed by SAT variable) and clears the trail flags. One counting
    /// pass sizes each node's slice, and a second fills them in variable
    /// order, so each node's watches are in ascending variable order.
    fn watch(&mut self, live: &[Option<LiveAtom>]) {
        let watched = |la: &Option<LiveAtom>| match la.map(|la| la.euf) {
            Some(EufAtom::Eq(a, b)) if a != b => [Some((a, b as u32)), Some((b, a as u32))],
            Some(EufAtom::Pred(n)) => [Some((n, PRED)), None],
            _ => [None, None],
        };
        let mut start = std::mem::take(&mut self.watch_start);
        start.clear();
        start.resize(self.parent.len() + 1, 0);
        for (n, _) in live.iter().flat_map(watched).flatten() {
            start[n + 1] += 1;
        }
        for n in 0..self.parent.len() {
            start[n + 1] += start[n];
        }
        let mut fill = start.clone();
        let mut list = std::mem::take(&mut self.watch_list);
        list.clear();
        list.resize(
            start[self.parent.len()] as usize,
            Watch { var: 0, other: 0 },
        );
        for (var, la) in live.iter().enumerate() {
            for (n, other) in watched(la).into_iter().flatten() {
                let var = var as Var;
                list[fill[n] as usize] = Watch { var, other };
                fill[n] += 1;
            }
        }
        self.watch_start = start;
        self.watch_list = list;
        self.on_trail.clear();
        self.on_trail.resize(live.len(), false);
    }

    /// The watches on the members of the class rooted at `r`, each with the
    /// member it is on (none before [`EufState::watch`]).
    fn class_watches(&self, r: usize) -> impl Iterator<Item = (usize, Watch)> + '_ {
        let mut member = Some(r);
        let members = std::iter::from_fn(move || {
            let m = member?;
            member = Some(self.next[m]).filter(|&n| n != r);
            Some(m)
        });
        members.flat_map(move |m| {
            let watches = match self.watch_start.get(m..m + 2) {
                Some(&[from, to]) => &self.watch_list[from as usize..to as usize],
                _ => &[],
            };
            watches.iter().map(move |&w| (m, w))
        })
    }

    /// The Boolean value the class rooted at `r` holds, if any.
    fn class_value(&self, r: usize) -> Option<bool> {
        if r == self.find(self.tru) {
            Some(true)
        } else if r == self.find(self.fls) {
            Some(false)
        } else {
            None
        }
    }

    /// Records the literals implied by absorbing the class rooted at
    /// `loser` into the one rooted at `winner` (called before the union).
    fn imply_on_merge(&mut self, winner: usize, loser: usize) {
        let mut implied = std::mem::take(&mut self.implied);
        let winner_value = self.class_value(winner);
        let constant = |v: bool| if v { self.tru } else { self.fls };
        for (m, w) in self.class_watches(loser) {
            if self.on_trail[w.var as usize] {
                continue;
            }
            if w.other != PRED && self.find(w.other as usize) == winner {
                implied.push((Lit::new(w.var, true), Why::Equal(m, w.other as usize)));
            } else if let (PRED, Some(v)) = (w.other, winner_value) {
                implied.push((Lit::new(w.var, v), Why::Equal(m, constant(v))));
            }
        }
        if let (None, Some(v)) = (winner_value, self.class_value(loser)) {
            for (m, w) in self.class_watches(winner) {
                if w.other == PRED && !self.on_trail[w.var as usize] {
                    implied.push((Lit::new(w.var, v), Why::Equal(m, constant(v))));
                }
            }
        }
        self.implied = implied;
    }

    /// Records the equality atoms implied false by asserting `a ≠ b` (tag
    /// `tag`) while `a` and `b` are in the distinct classes `ra`, `rb`.
    fn imply_apart(&mut self, (a, ra): (usize, usize), (b, rb): (usize, usize), tag: usize) {
        let ((small, dx), (big, dy)) = if self.size[ra] <= self.size[rb] {
            ((ra, a), (rb, b))
        } else {
            ((rb, b), (ra, a))
        };
        let mut implied = std::mem::take(&mut self.implied);
        for (x, w) in self.class_watches(small) {
            let y = w.other as usize;
            if w.other != PRED && !self.on_trail[w.var as usize] && self.find(y) == big {
                let why = Why::Apart { x, dx, y, dy, tag };
                implied.push((Lit::new(w.var, false), why));
            }
        }
        self.implied = implied;
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
                    self.next.swap(loser_root, winner_root);
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
                UndoOp::NumRep(root) => {
                    self.num_rep[root] = None;
                }
                UndoOp::Shared => {
                    self.shared.pop();
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
        } else if !self.watch_list.is_empty() {
            self.imply_apart((a, ra), (b, rb), tag);
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
            if !self.watch_list.is_empty() {
                self.imply_on_merge(winner, loser);
            }
            match (self.num_rep[winner], self.num_rep[loser]) {
                (Some(w), Some(l)) => {
                    self.shared.push((w as usize, l as usize));
                    self.undo.push(UndoOp::Shared);
                }
                (None, Some(l)) => {
                    self.num_rep[winner] = Some(l);
                    self.undo.push(UndoOp::NumRep(winner));
                }
                _ => {}
            }
            self.reroot(pf_child);
            self.pf_parent[pf_child] = Some((pf_other, reason));
            self.parent[loser] = winner;
            self.size[winner] += self.size[loser];
            self.next.swap(loser, winner);
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
        let mut tags = self.explain_equal(tm, a, b);
        tags.push(tag);
        tags.sort_unstable();
        tags.dedup();
        Some(tags)
    }

    /// Explains why the nodes `a` and `b` of one class are equal: the tags
    /// of the asserted equations used (all of them, the sound fallback, if
    /// the explanation was incomplete).
    fn explain_equal(&mut self, tm: &TermManager, a: usize, b: usize) -> Vec<usize> {
        self.explain_incomplete = false;
        let tags = self.explain(tm, a, b);
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
        let Some(lca) = self.pf_lca(a, b) else {
            self.explain_incomplete = true;
            return;
        };
        for start in [a, b] {
            let mut x = start;
            while x != lca {
                match self.pf_parent[x] {
                    Some((p, Reason::Asserted(t))) => {
                        tags.push(t);
                        x = p;
                    }
                    Some((p, Reason::Congruence(u, v))) => {
                        let (tu, tv) = (self.template.terms[u], self.template.terms[v]);
                        for (&x_arg, &y_arg) in tm.term(tu).args.iter().zip(&tm.term(tv).args) {
                            let (nu, nv) = (self.node(x_arg), self.node(y_arg));
                            self.explain_rec(tm, nu, nv, tags, depth + 1);
                        }
                        x = p;
                    }
                    None => unreachable!("path to lca"),
                }
            }
        }
    }

    /// The nearest common ancestor of `a` and `b` in the proof forest, or
    /// `None` when they are in different trees. Found by lifting the deeper
    /// node to the other's depth and then both in step, so it needs no
    /// ancestor set.
    fn pf_lca(&self, mut a: usize, mut b: usize) -> Option<usize> {
        let up = |x: usize| self.pf_parent[x].as_ref().map(|&(p, _)| p);
        let depth = |mut x: usize| {
            let mut d = 0usize;
            while let Some(p) = up(x) {
                x = p;
                d += 1;
            }
            d
        };
        let (mut da, mut db) = (depth(a), depth(b));
        while da > db {
            a = up(a)?;
            da -= 1;
        }
        while db > da {
            b = up(b)?;
            db -= 1;
        }
        while a != b {
            a = up(a)?;
            b = up(b)?;
        }
        Some(a)
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
    /// Length of [`EufState::shared`] before this literal's EUF assertions:
    /// the entry's shared equalities run from here to the next entry's
    /// start.
    shared_start: usize,
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

/// The work one [`TheorySession::sync`] did, for telemetry.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SyncWork {
    /// Entries retracted plus asserted.
    pub(crate) delta: u64,
    /// Time spent asserting simplex bounds and checking the simplex (zero
    /// when the sync asserted no bound).
    pub(crate) simplex_time: Duration,
    /// Simplex pivots taken.
    pub(crate) pivots: u64,
    /// Shared equalities asserted in the simplex.
    pub(crate) shared: u64,
}

/// A literal the session implied at the end of a consistent sync, with its
/// reason and the sync that recorded it.
#[derive(Clone, Copy, Debug)]
struct Implied {
    lit: Lit,
    why: Why,
    sync: u64,
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
    /// Entries whose simplex bounds are loaded (always a prefix of `trail`;
    /// all of it after a consistent sync).
    loaded: usize,
    /// The simplex bounds of each arithmetic (atom, polarity), compiled at
    /// its first load and valid until [`TheorySession::prepare`] rebuilds
    /// the simplex.
    bounds: FxHashMap<(TermId, bool), Compiled>,
    /// The simplex equality of each pair of simplex variables, ordered,
    /// that a shared equality joined: compiled at its first load (its slack
    /// then serves every later load) and valid like `bounds`.
    equalities: FxHashMap<(usize, usize), Compiled>,
    /// Number of atoms the checker knew at the last
    /// [`TheorySession::prepare`]; a differing count means new atoms were
    /// pushed, and the session grows its EUF state by them. (A method-scope
    /// pop restores the session with the checker, so the count never
    /// shrinks below the state.)
    known_atoms: usize,
    pivot: PivotRule,
    /// Per SAT variable: the last implication recorded for it. Valid while
    /// the literal sits on the SAT trail with its theory reason: a reason is
    /// recorded only for a variable off the session trail at the end of a
    /// consistent sync, which the SAT core then has unassigned.
    reasons: Vec<Option<Implied>>,
    /// Syncs that handed back implications so far (stamps `reasons`).
    syncs: u64,
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
            bounds: FxHashMap::default(),
            equalities: FxHashMap::default(),
            known_atoms: 0,
            pivot,
            reasons: Vec::new(),
            syncs: 0,
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

    /// Readies the session for a check against `checker`: when its atom
    /// universe grew since the last check, grows the EUF state in place by
    /// the new nodes ([`EufState::grow`]) and starts a fresh simplex and
    /// session trail. The cumulative pivot counter is carried over so
    /// telemetry deltas stay monotonic.
    pub(crate) fn prepare(&mut self, checker: &TheoryChecker) {
        if self.euf.is_some() && checker.kinds.len() == self.known_atoms {
            return;
        }
        self.euf.get_or_insert_with(EufState::default).grow(checker);
        let mut simplex = Simplex::with_rule(self.pivot);
        simplex.enable_slack_reuse();
        simplex.pivots = self.simplex.pivots;
        self.simplex = simplex;
        self.var_of_term.clear();
        self.trail.clear();
        self.seen = 0;
        self.loaded = 0;
        self.bounds.clear();
        self.equalities.clear();
        self.known_atoms = checker.kinds.len();
    }

    /// Starts a check over the live-atom table `live` (indexed by SAT
    /// variable; see [`TheorySession::sync`]): rebuilds the EUF watch lists
    /// from it and forgets the previous check's implications.
    pub(crate) fn watch(&mut self, live: &[Option<LiveAtom>]) {
        let euf = self.euf.as_mut().expect("session prepared");
        euf.watch(live);
        for e in &self.trail {
            euf.on_trail[e.lit.var() as usize] = true;
        }
        self.reasons.clear();
        self.reasons.resize(live.len(), None);
    }

    /// Resolves a theory atom of `checker` for [`TheorySession::sync`].
    /// Valid until the next [`TheorySession::prepare`] that grows the
    /// session.
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
    /// `None`; the table [`TheorySession::watch`] was given), and checks the
    /// disequalities. After a consistent EUF verdict it asserts the simplex
    /// bounds and shared equalities of the new entries, so every entry is
    /// loaded after a consistent sync, and when it asserted any it runs the
    /// rational simplex check; a contradiction there is a conflict too. On a
    /// consistent verdict it pushes onto `implied` the literals the
    /// assertions implied that are not on the trail, each explainable by
    /// [`TheorySession::explain`] until it is retracted.
    ///
    /// Returns the verdict (never [`SessionCheck::Unknown`]) and the work
    /// done.
    pub(crate) fn sync(
        &mut self,
        tm: &TermManager,
        checker: &TheoryChecker,
        trail: &[Lit],
        low_water: usize,
        live: &[Option<LiveAtom>],
        implied: &mut Vec<Lit>,
    ) -> (SessionCheck, SyncWork) {
        let low = self.seen.min(low_water);
        self.seen = trail.len();
        let keep = self.trail.partition_point(|e| e.sat_pos < low);
        let is_live = |l: &Lit| matches!(live.get(l.var() as usize), Some(Some(_)));
        let first = match trail[low..].iter().position(is_live) {
            Some(i) => low + i,
            // Nothing to retract or assert: no span, no work.
            None if keep == self.trail.len() => {
                return (self.euf_verdict(tm), SyncWork::default());
            }
            None => trail.len(),
        };
        let mut work = SyncWork::default();
        let verdict = {
            let _span = ids_obs::span("euf");
            let retracted = self.trail.len() - keep;
            self.retract_to(keep);
            let euf = self.euf.as_mut().expect("session prepared");
            for (pos, &lit) in trail.iter().enumerate().skip(first) {
                let Some(Some(la)) = live.get(lit.var() as usize) else {
                    continue;
                };
                let idx = self.trail.len();
                let (euf_mark, shared_start) = (euf.mark(), euf.shared.len());
                let positive = lit.is_positive();
                euf.on_trail[lit.var() as usize] = true;
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
                    shared_start,
                    simplex_mark: 0,
                    has_arith: if positive { la.arith.0 } else { la.arith.1 },
                });
            }
            work.delta = (retracted + self.trail.len() - keep) as u64;
            self.euf_verdict(tm)
        };
        // An EUF conflict leaves the new entries unloaded: the backjump
        // that follows retracts them.
        let verdict = match verdict {
            SessionCheck::Consistent => self.fixpoint_arith(tm, checker, &mut work),
            conflict => conflict,
        };
        let euf = self.euf.as_mut().expect("session prepared");
        if matches!(verdict, SessionCheck::Consistent) && !euf.implied.is_empty() {
            self.syncs += 1;
            for (lit, why) in euf.implied.drain(..) {
                let v = lit.var() as usize;
                // A literal read later in this sync is on the trail now, and
                // one implied twice keeps its first reason.
                if euf.on_trail[v] || self.reasons[v].is_some_and(|r| r.sync == self.syncs) {
                    continue;
                }
                self.reasons[v] = Some(Implied {
                    lit,
                    why,
                    sync: self.syncs,
                });
                implied.push(lit);
            }
        }
        euf.implied.clear();
        (verdict, work)
    }

    /// The arithmetic part of a sync, after a consistent EUF verdict: loads
    /// the bounds and shared equalities of the entries not loaded yet and,
    /// when they bring any, runs the rational simplex check under a
    /// `simplex` span. Branch-and-bound waits for the final check: a
    /// rational conflict is also an integer one, and strict integer bounds
    /// are already tightened when they are compiled.
    fn fixpoint_arith(
        &mut self,
        tm: &TermManager,
        checker: &TheoryChecker,
        work: &mut SyncWork,
    ) -> SessionCheck {
        let shared = self.euf.as_ref().expect("session prepared").shared.len();
        let unloaded = &self.trail[self.loaded..];
        if unloaded.first().is_none_or(|e| e.shared_start == shared)
            && !unloaded.iter().any(|e| e.has_arith)
        {
            // Nothing to assert: this only records the restore points.
            let loaded = self.load_bounds(checker, &mut work.shared);
            debug_assert!(loaded.is_ok());
            return SessionCheck::Consistent;
        }
        let start = Instant::now();
        let mut span = ids_obs::span("simplex");
        let pivots_before = self.simplex.pivots;
        let outcome = self
            .load_bounds(checker, &mut work.shared)
            .and_then(|()| self.simplex.check_rational());
        work.pivots = self.simplex.pivots - pivots_before;
        span.note(|| format!("pivots={}", work.pivots));
        drop(span);
        work.simplex_time = start.elapsed();
        match outcome {
            Ok(()) => SessionCheck::Consistent,
            Err(tags) => SessionCheck::Conflict(self.arith_conflict(tm, &tags)),
        }
    }

    /// Loads the simplex bounds of the entries from `loaded` on, each
    /// followed by the entry's shared equalities, recording each entry's
    /// restore point and counting the shared equalities in `shared`. The
    /// bounds of an (atom, polarity), and the equality of a pair of simplex
    /// variables, are compiled at their first load. On a contradiction
    /// between bounds it returns their tags and leaves the failing entry
    /// unloaded: a literal may assert several bounds, and failing halfway
    /// must not leave it half loaded.
    fn load_bounds(&mut self, checker: &TheoryChecker, shared: &mut u64) -> Result<(), Vec<usize>> {
        let TheorySession {
            euf,
            simplex,
            var_of_term,
            trail,
            loaded,
            bounds,
            equalities,
            ..
        } = self;
        let euf = euf.as_ref().expect("session prepared");
        for i in *loaded..trail.len() {
            let mark = simplex.mark();
            trail[i].simplex_mark = mark;
            let e = &trail[i];
            let own = if e.has_arith {
                let key = (e.atom, e.lit.is_positive());
                let bound = *bounds
                    .entry(key)
                    .or_insert_with(|| compile_bounds(checker, simplex, var_of_term, key));
                simplex.assert_compiled(&bound, i)
            } else {
                Ok(())
            };
            let end = trail
                .get(i + 1)
                .map_or(euf.shared.len(), |n| n.shared_start);
            let asserted = own.and_then(|()| {
                for k in e.shared_start..end {
                    let (a, b) = euf.shared[k];
                    let [va, vb] = [a, b].map(|n| {
                        let leaf = euf.template.terms[n];
                        leaf_var(checker, simplex, var_of_term, leaf)
                    });
                    let pair = (va.min(vb), va.max(vb));
                    let equal = *equalities.entry(pair).or_insert_with(|| {
                        let mut expr = LinExpr::variable(pair.0);
                        expr.add_term(-Rat::ONE, pair.1);
                        simplex.compile(&expr, Rel::Eq)
                    });
                    simplex.assert_compiled(&equal, SHARED_BASE + k)?;
                    *shared += 1;
                }
                Ok(())
            });
            if let Err(tags) = asserted {
                simplex.undo_to(mark);
                *loaded = i;
                return Err(tags);
            }
        }
        *loaded = trail.len();
        Ok(())
    }

    /// Maps the tags of a simplex conflict back to trail literals: a shared
    /// equality's tag becomes the explanation of its pair. That is the
    /// explanation it had when its merge shared it: while the merge stands,
    /// the proof-forest path between two members of one class does not
    /// change.
    fn arith_conflict(&mut self, tm: &TermManager, tags: &[usize]) -> Vec<Lit> {
        let euf = self.euf.as_mut().expect("session prepared");
        let mut idxs = Vec::with_capacity(tags.len());
        for &t in tags {
            match t.checked_sub(SHARED_BASE) {
                Some(k) => {
                    let (a, b) = euf.shared[k];
                    idxs.extend(euf.explain_equal(tm, a, b));
                }
                None => idxs.push(t),
            }
        }
        conflict_lits(&self.trail, &idxs)
    }

    /// The antecedents of a literal a consistent sync implied: the trail
    /// literals its recorded reason rests on, in trail order.
    ///
    /// Exact while the literal is on the SAT trail: until then the proof
    /// forest only gains edges between distinct trees, so the path that
    /// explains two nodes equal is the one that existed when the literal
    /// was implied, and it runs through entries read before it.
    pub(crate) fn explain(&mut self, tm: &TermManager, lit: Lit) -> Vec<Lit> {
        let implied = self.reasons[lit.var() as usize]
            .filter(|r| r.lit == lit)
            .unwrap_or_else(|| panic!("{lit:?} was not implied by the theory session"));
        let euf = self.euf.as_mut().expect("session prepared");
        euf.explain_incomplete = false;
        let tags = match implied.why {
            Why::Equal(a, b) => euf.explain(tm, a, b),
            Why::Apart { x, dx, y, dy, tag } => {
                let mut tags = euf.explain(tm, x, dx);
                tags.extend(euf.explain(tm, y, dy));
                tags.push(tag);
                tags
            }
        };
        assert!(
            !euf.explain_incomplete,
            "incomplete explanation of implied {lit:?}"
        );
        conflict_lits(&self.trail, &tags)
    }

    /// The EUF verdict on the asserted entries: the earliest-asserted
    /// violated disequality with its explanation, if any.
    fn euf_verdict(&mut self, tm: &TermManager) -> SessionCheck {
        let euf = self.euf.as_mut().expect("session prepared");
        match euf.conflict(tm) {
            Some(tags) => SessionCheck::Conflict(conflict_lits(&self.trail, &tags)),
            None => SessionCheck::Consistent,
        }
    }

    /// Retracts every entry from `keep` on, restoring EUF and simplex to the
    /// state before the first of them was asserted.
    fn retract_to(&mut self, keep: usize) {
        let Some(first) = self.trail.get(keep) else {
            return;
        };
        let euf = self.euf.as_mut().expect("session prepared");
        euf.undo_to(first.euf_mark);
        for e in &self.trail[keep..] {
            euf.on_trail[e.lit.var() as usize] = false;
        }
        if keep < self.loaded {
            self.simplex.undo_to(first.simplex_mark);
            self.loaded = keep;
        }
        self.trail.truncate(keep);
    }

    /// The check of a complete assignment, after a consistent
    /// [`TheorySession::sync`] (so every entry's bounds and shared
    /// equalities are loaded and rationally feasible): integer
    /// branch-and-bound, the one part of the theory that needs the whole
    /// assignment.
    ///
    /// Returns the verdict and the pivots it took.
    pub(crate) fn final_check(&mut self, tm: &TermManager) -> (SessionCheck, u64) {
        debug_assert_eq!(self.loaded, self.trail.len(), "entries left unloaded");
        if !self.trail.iter().any(|e| e.has_arith) {
            return (SessionCheck::Consistent, 0);
        }
        let pivots_before = self.simplex.pivots;
        let mut simplex_span = ids_obs::span("simplex");
        let outcome = self.simplex.check();
        let pivots = self.simplex.pivots - pivots_before;
        simplex_span.note(|| format!("pivots={}", pivots));
        drop(simplex_span);
        let verdict = match outcome {
            ArithOutcome::Sat(_) => SessionCheck::Consistent,
            ArithOutcome::Conflict(tags) => SessionCheck::Conflict(self.arith_conflict(tm, &tags)),
            ArithOutcome::Unknown => SessionCheck::Unknown,
        };
        (verdict, pivots)
    }
}

/// Maps conflict tags (trail indices, the axiom sentinel) back to the
/// asserted SAT literals, in trail order.
fn conflict_lits(trail: &[TrailEntry], tags: &[usize]) -> Vec<Lit> {
    let mut idxs: Vec<usize> = tags.iter().copied().filter(|&t| t != AXIOM_TAG).collect();
    idxs.sort_unstable();
    idxs.dedup();
    idxs.into_iter().map(|t| trail[t].lit).collect()
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
    ///
    /// A *propagating* driver also plays the SAT core's part in theory
    /// propagation: after a consistent sync it audits the implied literals
    /// ([`Driver::audit`]), pushes them and syncs again until nothing new is
    /// implied, and its random backjumps ([`Driver::evolve`]) land only on
    /// *level boundaries* (trail lengths after a consistent sync), so a
    /// backjump never separates an implied literal from the literals whose
    /// reading implied it, and always pops a conflicting sync's literals.
    struct Driver {
        atoms: Vec<TermId>,
        trail: Vec<Lit>,
        low: usize,
        propagating: bool,
        /// Level boundaries, ascending (`0` is implicit).
        levels: Vec<usize>,
        /// Whether the last sync found a conflict.
        conflicted: bool,
        /// Trail positions of the implied literals pushed.
        implied_at: Vec<usize>,
        /// Whether the session's watch lists were built for this driver.
        watched: bool,
        /// Implied literals audited so far.
        implied_total: usize,
    }

    impl Driver {
        fn new(atoms: &[TermId]) -> Driver {
            Driver {
                atoms: atoms.to_vec(),
                trail: Vec::new(),
                low: 0,
                propagating: false,
                levels: Vec::new(),
                conflicted: false,
                implied_at: Vec::new(),
                watched: false,
                implied_total: 0,
            }
        }

        fn propagating(atoms: &[TermId]) -> Driver {
            Driver {
                propagating: true,
                ..Driver::new(atoms)
            }
        }

        fn lit(&self, atom: TermId, positive: bool) -> Lit {
            let var = self.atoms.iter().position(|&a| a == atom).expect("atom");
            Lit::new(var as u32, positive)
        }

        fn backtrack(&mut self, keep: usize) {
            self.trail.truncate(keep);
            self.low = self.low.min(keep);
            self.levels.retain(|&b| b <= keep);
            self.implied_at.retain(|&p| p < keep);
        }

        fn push(&mut self, atom: TermId, positive: bool) {
            let l = self.lit(atom, positive);
            self.trail.push(l);
        }

        /// Backjumps and appends random fresh literals (each atom at most
        /// once), once or twice before the next sync, like CDCL backjumps
        /// followed by propagation and decisions. The first backjump lands
        /// on a level boundary (often the last one: no pop, unless the last
        /// sync conflicted); a second one may also land among the literals
        /// pushed since the last sync.
        fn evolve(&mut self, rng: &mut Rng) {
            for round in 0..1 + rng.below(2) {
                let synced = self.levels.last().copied().unwrap_or(0);
                let keep = if round > 0 && rng.chance(50) {
                    synced + rng.below(self.trail.len() - synced + 1)
                } else if rng.chance(30) {
                    synced
                } else {
                    match rng.below(self.levels.len() + 1) {
                        0 => 0,
                        i => self.levels[i - 1],
                    }
                };
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

        /// Learns new atoms (a later assertion batch) and starts over like
        /// the next check of a solver: the checker grows, so the session's
        /// next prepare grows it and drops its trail, and the next sync
        /// re-reads this trail from the start. The trail's implied literals
        /// become plain ones (their reasons went with the session trail),
        /// and the watch lists are built again for the larger atom table.
        fn grow(&mut self, tm: &TermManager, checker: &mut TheoryChecker, atoms: &[TermId]) {
            checker.extend(tm, atoms);
            self.atoms.extend_from_slice(atoms);
            self.levels.clear();
            self.implied_at.clear();
            self.low = 0;
            self.watched = false;
        }

        fn pairs(&self, lits: &[Lit]) -> Vec<(TermId, bool)> {
            lits.iter()
                .map(|l| (self.atoms[l.var() as usize], l.is_positive()))
                .collect()
        }

        fn live(
            &mut self,
            session: &mut TheorySession,
            checker: &TheoryChecker,
        ) -> Vec<Option<LiveAtom>> {
            session.prepare(checker);
            let live: Vec<Option<LiveAtom>> = self
                .atoms
                .iter()
                .map(|&a| Some(session.live_atom(checker, a)))
                .collect();
            if !std::mem::replace(&mut self.watched, true) {
                session.watch(&live);
            }
            live
        }

        /// Fixpoint syncs, then (when consistent) the complete-assignment
        /// check, as the SAT loop runs them. Returns the verdict and the
        /// summed sync deltas.
        fn check(
            &mut self,
            session: &mut TheorySession,
            tm: &TermManager,
            checker: &TheoryChecker,
        ) -> (SessionCheck, u64) {
            match self.fixpoints(session, tm, checker) {
                (SessionCheck::Consistent, total) => (session.final_check(tm).0, total),
                other => other,
            }
        }

        /// The fixpoint syncs alone, as the SAT loop runs them before it
        /// decides: sync, and on a propagating driver push what a consistent
        /// sync implied and sync again, until nothing new is implied. Every
        /// consistent sync must leave every entry's bounds loaded. Returns
        /// the verdict and the summed sync deltas.
        fn fixpoints(
            &mut self,
            session: &mut TheorySession,
            tm: &TermManager,
            checker: &TheoryChecker,
        ) -> (SessionCheck, u64) {
            let live = self.live(session, checker);
            let mut total = 0;
            loop {
                let mut implied = Vec::new();
                let (verdict, work) =
                    session.sync(tm, checker, &self.trail, self.low, &live, &mut implied);
                self.low = self.trail.len();
                total += work.delta;
                self.conflicted = !matches!(verdict, SessionCheck::Consistent);
                if self.conflicted {
                    return (verdict, total);
                }
                assert_eq!(
                    session.loaded,
                    session.trail_len(),
                    "a consistent sync left entries unloaded"
                );
                if !self.propagating || implied.is_empty() {
                    break;
                }
                self.audit(session, tm, checker, &live, &implied);
                for l in implied {
                    self.implied_at.push(self.trail.len());
                    self.trail.push(l);
                }
            }
            self.levels.push(self.trail.len());
            (SessionCheck::Consistent, total)
        }

        /// Audits the literals a consistent sync implied, and re-explains
        /// those implied earlier that are still on the trail:
        ///
        /// * a fresh implied literal is not on the trail;
        /// * every implied literal is entailed (its explanation plus its
        ///   negation is a conflict for the stateless checker), and is
        ///   explained only by literals earlier on the trail;
        /// * positive completeness: every equality atom whose sides share a
        ///   class, and every predicate atom whose class holds `true` or
        ///   `false`, is on the trail or freshly implied.
        fn audit(
            &mut self,
            session: &mut TheorySession,
            tm: &TermManager,
            checker: &TheoryChecker,
            live: &[Option<LiveAtom>],
            implied: &[Lit],
        ) {
            let mut pos_of = vec![None; self.atoms.len()];
            for (p, l) in self.trail.iter().enumerate() {
                pos_of[l.var() as usize] = Some(p);
            }
            let end = self.trail.len();
            let old = self.implied_at.iter().map(|&p| (self.trail[p], p));
            let fresh = implied.iter().map(|&l| (l, end));
            for (l, at) in old.chain(fresh).collect::<Vec<_>>() {
                if at == end {
                    assert_eq!(
                        pos_of[l.var() as usize],
                        None,
                        "{l:?} implied while on the trail"
                    );
                }
                let antecedents = session.explain(tm, l);
                for a in &antecedents {
                    let p = pos_of[a.var() as usize].expect("antecedent on the trail");
                    assert!(p < at, "{a:?} at {p} explains {l:?} at {at}");
                    assert_eq!(self.trail[p], *a);
                }
                let mut lits = antecedents;
                lits.push(l.negate());
                assert_conflict_valid(tm, checker, &self.pairs(&lits), "implied literal");
            }
            self.implied_total += implied.len();
            let euf = session.euf.as_ref().expect("euf");
            for (v, la) in live.iter().enumerate() {
                let entailed = match la.expect("all atoms live").euf {
                    EufAtom::Eq(a, b) if a != b && euf.find(a) == euf.find(b) => Some(true),
                    EufAtom::Pred(n) => euf.class_value(euf.find(n)),
                    _ => None,
                };
                if let Some(value) = entailed {
                    let l = Lit::new(v as u32, value);
                    assert!(
                        pos_of[v].is_some() || implied.contains(&l),
                        "{l:?} is entailed but neither on the trail nor implied"
                    );
                }
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
    /// predicates, equality sharing and integer tightening.
    fn mixed_universe() -> (TermManager, Vec<TermId>) {
        let mut tm = TermManager::new();
        // The first term, so `0 = key(c)` keeps it on the left and its
        // class absorbs `key(c)`'s, taking over a numeric representative.
        let zero = tm.int(0);
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
        atoms.push(tm.eq(zero, keys[2]));
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
    /// valid, and every implied literal passes [`Driver::audit`]. Some steps
    /// run the fixpoint syncs only ([`Driver::fixpoints`] checks that every
    /// consistent sync loads every entry).
    ///
    /// The atom universe grows between checks: the checker starts with half
    /// of the atoms and learns the rest in three batches
    /// ([`Driver::grow`]; the growth points after those learn nothing and
    /// only start the next check over), so the session's EUF state is grown
    /// in place while the fresh replay builds it in one step.
    #[test]
    fn fuzz_session_agrees_with_rebuild_mixed() {
        let (tm, atoms) = mixed_universe();
        let mut tm = tm;
        let half = atoms.len() / 2;
        let mut checker = TheoryChecker::new(&mut tm, &atoms[..half]);
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::propagating(&atoms[..half]);
        let (mut skipped, mut fixpoint_conflicts) = (0, 0);
        for step in 0..600 {
            if step % 100 == 99 {
                let learned = sat.atoms.len();
                let upto = (learned + (atoms.len() - half) / 3 + 1).min(atoms.len());
                sat.grow(&tm, &mut checker, &atoms[learned..upto]);
            }
            sat.evolve(&mut rng);
            // Now and then the SAT side decides on without a final check,
            // so bounds loaded at fixpoints are retracted by later
            // backjumps with no final check in between. A fixpoint conflict
            // must still be a genuine one.
            if rng.chance(30) {
                skipped += 1;
                if let (SessionCheck::Conflict(c), _) = sat.fixpoints(&mut session, &tm, &checker) {
                    fixpoint_conflicts += 1;
                    let what = format!("step {step} fixpoint");
                    assert_conflict_valid(&tm, &checker, &sat.pairs(&c), &what);
                }
                continue;
            }
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
        assert!(
            skipped >= 50 && fixpoint_conflicts >= 20,
            "fuzz schedule too tame: {skipped} skipped final checks, \
             {fixpoint_conflicts} fixpoint conflicts among them"
        );
        assert!(
            sat.implied_total >= 100,
            "too few implied literals: {}",
            sat.implied_total
        );
        assert_eq!(sat.atoms.len(), atoms.len(), "the universe did not grow");
    }

    /// Differential fuzz, EUF only: with no simplex involved the persistent
    /// session and a fresh rebuild are bit-exact, so verdicts AND conflict
    /// explanations must be identical on every step; every implied literal
    /// passes [`Driver::audit`].
    #[test]
    fn fuzz_euf_explanations_identical_to_rebuild() {
        let (tm, atoms) = euf_universe();
        let mut tm = tm;
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut rng = Rng(0xdead_beef_0000_0042);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::propagating(&atoms);
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
        assert!(
            sat.implied_total >= 100,
            "too few implied literals: {}",
            sat.implied_total
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
        let mut sat = Driver::propagating(&atoms);
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
            session.sync(&tm, &checker, &sat.trail, sat.low, &live, &mut Vec::new());
            sat.low = sat.trail.len();
            let (a, b) = (
                session.euf.as_ref().expect("euf"),
                snapshot.euf.as_ref().expect("euf"),
            );
            assert_eq!(a.parent, b.parent, "union-find links");
            assert_eq!(a.size, b.size, "class sizes");
            assert_eq!(a.next, b.next, "class-member links");
            assert_eq!(a.on_trail, b.on_trail, "trail flags");
            assert_eq!(a.use_lists, b.use_lists, "use lists");
            assert_eq!(a.sig_table, b.sig_table, "signature table");
            assert_eq!(a.diseqs, b.diseqs, "disequalities");
            assert_eq!(a.diseq_lists, b.diseq_lists, "disequality lists");
            assert_eq!(a.violations, b.violations, "violations");
            assert_eq!(a.eq_tags, b.eq_tags, "equation tags");
            assert_eq!(a.num_rep, b.num_rep, "numeric representatives");
            assert_eq!(a.shared, b.shared, "shared equalities");
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

    /// Directed: two clashing bounds conflict at the fixpoint that reads the
    /// second one, without waiting for a complete assignment. (A
    /// non-propagating driver runs one sync per [`Driver::fixpoints`].)
    #[test]
    fn bound_clash_conflicts_at_the_fixpoint() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::Loc);
        let ka = tm.app("key", vec![a], Sort::Int);
        let five = tm.int(5);
        let seven = tm.int(7);
        let le5 = tm.le(ka, five);
        let ge7 = tm.ge(ka, seven);
        let checker = TheoryChecker::new(&mut tm, &[le5, ge7]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&[le5, ge7]);
        sat.push(le5, true);
        let (res, _) = sat.fixpoints(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        sat.push(ge7, true);
        match sat.fixpoints(&mut session, &tm, &checker).0 {
            SessionCheck::Conflict(c) => {
                assert_eq!(sat.pairs(&c), vec![(le5, true), (ge7, true)]);
            }
            other => panic!("expected a fixpoint conflict, got {other:?}"),
        }
    }

    /// Directed: a strict integer cycle `k0 < k1 < k2 < k0` needs the
    /// simplex (no two of its bounds clash), and conflicts at the sync that
    /// reads its third literal.
    #[test]
    fn strict_int_cycle_conflicts_at_its_third_sync() {
        let mut tm = TermManager::new();
        let k: Vec<TermId> = (0..3)
            .map(|i| tm.var(&format!("k{i}"), Sort::Int))
            .collect();
        let cycle: Vec<TermId> = (0..3).map(|i| tm.lt(k[i], k[(i + 1) % 3])).collect();
        let checker = TheoryChecker::new(&mut tm, &cycle);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&cycle);
        for &atom in &cycle[..2] {
            sat.push(atom, true);
            let (res, _) = sat.fixpoints(&mut session, &tm, &checker);
            assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        }
        sat.push(cycle[2], true);
        match sat.fixpoints(&mut session, &tm, &checker).0 {
            SessionCheck::Conflict(c) => {
                let all: Vec<(TermId, bool)> = cycle.iter().map(|&a| (a, true)).collect();
                assert_eq!(sat.pairs(&c), all);
            }
            other => panic!("expected a fixpoint conflict, got {other:?}"),
        }
    }

    /// Directed: the merge that makes `key(a) = key(b)` congruent (`c = b`
    /// after `a = c`) shares that equality with the simplex, so the sync
    /// that reads `key(b) >= 7` conflicts with `key(a) <= 5` at its
    /// fixpoint. The conflict names exactly the merge's explanation and the
    /// two bounds, not the unrelated `x = y`; a backjump that pops `c = b`
    /// takes the shared equality with it.
    #[test]
    fn shared_equality_conflicts_at_the_sync() {
        let mut tm = TermManager::new();
        let [a, b, c, x, y] = ["a", "b", "c", "x", "y"].map(|n| tm.var(n, Sort::Loc));
        let ka = tm.app("key", vec![a], Sort::Int);
        let kb = tm.app("key", vec![b], Sort::Int);
        let five = tm.int(5);
        let seven = tm.int(7);
        let eq_ac = tm.eq(a, c);
        let eq_xy = tm.eq(x, y);
        let eq_cb = tm.eq(c, b);
        let le5 = tm.le(ka, five);
        let ge7 = tm.ge(kb, seven);
        let atoms = [eq_ac, eq_xy, le5, eq_cb, ge7];
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        for atom in atoms {
            sat.push(atom, true);
        }
        match sat.fixpoints(&mut session, &tm, &checker).0 {
            SessionCheck::Conflict(c) => assert_eq!(
                sat.pairs(&c),
                vec![(eq_ac, true), (le5, true), (eq_cb, true), (ge7, true)]
            ),
            other => panic!("expected a fixpoint conflict, got {other:?}"),
        }
        sat.backtrack(3);
        sat.push(ge7, true);
        let (res, _) = sat.fixpoints(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        assert!(session.euf.as_ref().expect("euf").shared.is_empty());
    }

    /// Directed: `0 = key(a)` joins the class of `0`, which has no numeric
    /// leaf, with that of `key(a)`; the winner (`0`'s class) takes over
    /// `key(a)` as its representative, so the congruence `key(a) = key(b)`
    /// that `a = b` makes later is still shared, and conflicts with
    /// `key(b) >= 7`. Popping `0 = key(a)` hands the representative back.
    #[test]
    fn numeric_representative_moves_with_its_merge() {
        let mut tm = TermManager::new();
        let zero = tm.int(0);
        let [a, b] = ["a", "b"].map(|n| tm.var(n, Sort::Loc));
        let ka = tm.app("key", vec![a], Sort::Int);
        let kb = tm.app("key", vec![b], Sort::Int);
        let seven = tm.int(7);
        let eq_0a = tm.eq(zero, ka);
        let eq_ab = tm.eq(a, b);
        let ge7 = tm.ge(kb, seven);
        let atoms = [eq_0a, eq_ab, ge7];
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        sat.live(&mut session, &checker);
        let base = session.euf.as_ref().expect("euf").num_rep.clone();
        sat.push(eq_0a, true);
        let (res, _) = sat.fixpoints(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        let euf = session.euf.as_ref().expect("euf");
        let (n0, nka) = (euf.node(zero), euf.node(ka));
        assert_eq!(euf.find(nka), n0, "the class of 0 absorbed key(a)'s");
        assert_eq!(euf.num_rep[n0], Some(nka as u32));
        sat.push(eq_ab, true);
        sat.push(ge7, true);
        match sat.fixpoints(&mut session, &tm, &checker).0 {
            SessionCheck::Conflict(c) => {
                assert_eq!(
                    sat.pairs(&c),
                    vec![(eq_0a, true), (eq_ab, true), (ge7, true)]
                )
            }
            other => panic!("expected a fixpoint conflict, got {other:?}"),
        }
        sat.backtrack(0);
        let (res, _) = sat.fixpoints(&mut session, &tm, &checker);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        assert_eq!(session.euf.as_ref().expect("euf").num_rep, base);
    }

    /// The session detects checker growth (new atoms pushed mid-scope) and
    /// grows instead of answering from a stale template.
    #[test]
    fn grows_when_checker_learns_new_atoms() {
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

    /// An atom universe for growing a checker in batches: equalities between
    /// variables and between (nested, binary) applications, predicates, and
    /// arithmetic atoms over applications, in random order.
    fn growth_universe(rng: &mut Rng) -> (TermManager, Vec<TermId>) {
        let mut tm = TermManager::new();
        let locs: Vec<TermId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| tm.var(n, Sort::Loc))
            .collect();
        let fs: Vec<TermId> = locs
            .iter()
            .map(|&l| tm.app("f", vec![l], Sort::Loc))
            .collect();
        let ffs: Vec<TermId> = fs
            .iter()
            .map(|&l| tm.app("f", vec![l], Sort::Loc))
            .collect();
        let keys: Vec<TermId> = locs
            .iter()
            .map(|&l| tm.app("key", vec![l], Sort::Int))
            .collect();
        let five = tm.int(5);
        let mut atoms = Vec::new();
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                atoms.push(tm.eq(locs[i], locs[j]));
                atoms.push(tm.eq(fs[i], ffs[j]));
                let g = tm.app("g", vec![locs[i], fs[j]], Sort::Loc);
                atoms.push(tm.eq(g, ffs[i]));
                atoms.push(tm.le(keys[i], keys[j]));
                atoms.push(tm.eq(keys[i], keys[j]));
            }
            atoms.push(tm.app("p", vec![ffs[i]], Sort::Bool));
            let fk = tm.app("h", vec![keys[i]], Sort::Int);
            atoms.push(tm.lt(fk, five));
        }
        for i in (1..atoms.len()).rev() {
            atoms.swap(i, rng.below(i + 1));
        }
        (tm, atoms)
    }

    /// The base state a growth must reach, built straight from `checker`'s
    /// template without the growth path: every class a singleton, each
    /// application in the use lists of its arguments (in application order)
    /// and in the signature table under its signature, each numeric leaf
    /// its own class's representative, nothing shared, and only
    /// `true ≠ false` asserted.
    fn reference_base(checker: &TheoryChecker) -> EufState {
        let template = &checker.template;
        let n = template.terms.len();
        let mut use_lists = vec![Vec::new(); n];
        let mut sig_table = FxHashMap::default();
        for (ai, app) in template.app_nodes.iter().enumerate() {
            for &arg in &app.args {
                use_lists[arg].push(ai as u32);
            }
            let mut key = [u32::MAX; 5];
            key[0] = app.op;
            for (slot, &arg) in key[1..].iter_mut().zip(&app.args) {
                *slot = arg as u32;
            }
            let clash = sig_table.insert(SigKey::Inline(key), ai as u32);
            assert_eq!(clash, None, "two applications share a signature");
        }
        let node = |t: TermId| template.node_of_term[&t];
        let (tru, fls) = (node(checker.tru), node(checker.fls));
        let mut diseq_lists = vec![Vec::new(); n];
        diseq_lists[tru].push(0);
        diseq_lists[fls].push(0);
        let num_rep = (0..n)
            .map(|i| {
                checker
                    .leaf_is_int
                    .contains_key(&template.terms[i])
                    .then_some(i as u32)
            })
            .collect();
        EufState {
            parent: (0..n).collect(),
            size: vec![1; n],
            pf_parent: vec![None; n],
            use_lists,
            sig_table,
            diseqs: vec![(tru, fls, AXIOM_TAG)],
            diseq_lists,
            tru,
            fls,
            next: (0..n).collect(),
            num_rep,
            ..EufState::default()
        }
    }

    /// A checker grown in random batches of atoms, with syncs, backjumps and
    /// checks between the batches: after each growth the session's EUF
    /// state equals, field for field, the base state built straight from
    /// the grown checker's template ([`reference_base`]).
    #[test]
    fn grown_euf_state_equals_a_fresh_build() {
        let mut rng = Rng(0x6a09_e667_f3bc_c908);
        let (mut tm, atoms) = growth_universe(&mut rng);
        let mut checker = TheoryChecker::new(&mut tm, &[]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let (mut learned, mut growths, mut checks) = (0, 0, 0);
        while learned < atoms.len() {
            let upto = (learned + 1 + rng.below(8)).min(atoms.len());
            checker.extend(&tm, &atoms[learned..upto]);
            learned = upto;
            session.prepare(&checker);
            growths += 1;
            let grown = session.euf.as_ref().expect("prepared");
            let want = reference_base(&checker);
            let apps = |t: &EufTemplate| -> Vec<(usize, u32, Vec<usize>)> {
                let nodes = t.app_nodes.iter();
                nodes.map(|a| (a.node, a.op, a.args.clone())).collect()
            };
            assert_eq!(grown.template.terms, checker.template.terms, "nodes");
            assert_eq!(grown.template.node_of_term, checker.template.node_of_term);
            assert_eq!(
                apps(&grown.template),
                apps(&checker.template),
                "applications"
            );
            assert_eq!(grown.parent, want.parent, "union-find links");
            assert_eq!(grown.size, want.size, "class sizes");
            assert_eq!(grown.next, want.next, "class-member links");
            assert!(grown.pf_parent.iter().all(Option::is_none), "proof forest");
            assert_eq!(grown.pf_parent.len(), want.pf_parent.len());
            assert_eq!(grown.use_lists, want.use_lists, "use lists");
            assert_eq!(grown.sig_table, want.sig_table, "signature table");
            assert_eq!(grown.diseqs, want.diseqs, "disequalities");
            assert_eq!(grown.diseq_lists, want.diseq_lists, "disequality lists");
            assert!(grown.violations.is_empty(), "violations");
            assert!(grown.eq_tags.is_empty(), "equation tags");
            assert_eq!(grown.num_rep, want.num_rep, "numeric representatives");
            assert_eq!(grown.shared, want.shared, "shared equalities");
            assert_eq!((grown.tru, grown.fls), (want.tru, want.fls), "constants");
            assert_eq!(session.trail_len(), 0, "session trail");
            // Work the grown state before the next batch: syncs, backjumps
            // and checks over everything learned so far.
            let mut sat = Driver::propagating(&atoms[..learned]);
            for _ in 0..rng.below(12) {
                sat.evolve(&mut rng);
                sat.check(&mut session, &tm, &checker);
                checks += 1;
            }
        }
        assert!(
            growths >= 8 && checks >= 40,
            "{growths} growths, {checks} checks"
        );
    }
}
