//! The online EUF theory: congruence closure with an exact undo trail, watch
//! lists for theory propagation, and lazy explanations.
//!
//! It reads its term universe from the checker's [`EufTemplate`], which the
//! combiner owns and passes in; the state holds only what the search
//! changes.

use crate::euf::{EufTemplate, Reason};
use crate::fxmap::FxHashMap;
use crate::sat::{Lit, Var};
use crate::term::TermManager;
use crate::theory::{TheoryChecker, AXIOM_TAG};

use super::LiveAtom;

/// An exact congruence signature `[op, rep(arg0), rep(arg1), …]`, stored
/// inline for arity ≤ 4 (every signature the lowering produces) so that
/// computing one allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(super) enum SigKey {
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

/// What EUF does with one literal of a live atom.
#[derive(Clone, Copy, Debug)]
pub(super) enum EufAtom {
    /// An equality: merged when positive, separated when negative.
    Eq(usize, usize),
    /// A predicate node: equated with `true` or `false`.
    Pred(usize),
    /// An arithmetic inequality: no EUF part.
    Arith,
}

/// Why the congruence state implies a literal, recorded when it is implied
/// and turned into antecedent tags only on demand ([`EufState::explain`]).
#[derive(Clone, Copy, Debug)]
pub(super) enum Why {
    /// The two nodes are in one class: the literal is their equality, or a
    /// predicate's value (the second node a Boolean constant).
    Equal(usize, usize),
    /// `x ~ dx`, `y ~ dy` and the asserted disequality `dx ≠ dy` (tag
    /// `tag`): the literal is `x ≠ y`. The orientation is fixed when the
    /// literal is implied, because later merges may join more classes before
    /// the combiner retracts them.
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
pub(super) enum UndoOp {
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
///
/// Every method that follows congruence takes the checker's template, whose
/// first `parent.len()` nodes are this state's.
#[derive(Clone, Debug, Default)]
pub(super) struct EufState {
    /// Union-find links; no path compression so that [`EufState::undo_to`]
    /// can restore them exactly.
    pub(super) parent: Vec<usize>,
    /// Class sizes (union by size keeps find paths logarithmic without
    /// compression).
    pub(super) size: Vec<usize>,
    /// Proof forest for explanations, exactly as in the batch solver.
    pub(super) pf_parent: Vec<Option<(usize, Reason)>>,
    /// `use_lists[r]`: application nodes with at least one argument in the
    /// class rooted at `r` (maintained by appending the loser's list to the
    /// winner's on merge; undo truncates the winner's list).
    pub(super) use_lists: Vec<Vec<u32>>,
    /// Exact signature table: signature → application index. A lookup hit
    /// means true congruence (no hashing ambiguity). Keys containing a
    /// merged-away root are unreachable until the merge is undone, at which
    /// point the table has been restored to match.
    pub(super) sig_table: FxHashMap<SigKey, u32>,
    /// Application nodes of the template seeded so far ([`EufState::grow`]).
    pub(super) apps: usize,
    /// Asserted disequalities `(node, node, tag)`, in assertion order.
    pub(super) diseqs: Vec<(usize, usize, usize)>,
    /// `diseq_lists[r]`: indices into `diseqs` with an endpoint in the class
    /// rooted at `r` (maintained like `use_lists`).
    pub(super) diseq_lists: Vec<Vec<u32>>,
    /// Indices of the disequalities whose endpoints are currently in one
    /// class; the state is consistent iff this is empty.
    pub(super) violations: Vec<u32>,
    pub(super) eq_tags: Vec<usize>,
    pub(super) undo: Vec<UndoOp>,
    /// Undo-trail length at the base state ([`EufState::grow`]).
    base: usize,
    /// Scratch stack of the congruence cascade (empty between calls).
    pending: Vec<(usize, usize, Reason)>,
    explain_incomplete: bool,
    /// Nodes of the Boolean constants (predicate atoms are equated with one).
    pub(super) tru: usize,
    pub(super) fls: usize,
    /// Circular class-member links: following `next` from any node visits
    /// its whole class once. A merge swaps the links of the two roots, and
    /// its undo swaps them back.
    pub(super) next: Vec<usize>,
    /// The check's live atoms watched per node, in one flat list:
    /// `watch_list[watch_start[n]..watch_start[n + 1]]` are node `n`'s
    /// watches. Rebuilt once per check ([`EufState::watch`]); empty
    /// (nothing implied) until then.
    watch_start: Vec<u32>,
    watch_list: Vec<Watch>,
    /// Per SAT variable: whether its literal is on the combiner's trail
    /// (such literals are never implied).
    pub(super) on_trail: Vec<bool>,
    /// Scratch: literals implied since the sync began, with their reasons.
    pub(super) implied: Vec<(Lit, Why)>,
    /// Per class root: one numeric-leaf member (a node whose term is a leaf
    /// of a linear form, [`TheoryChecker::leaf_is_int`]), or none.
    pub(super) num_rep: Vec<Option<u32>>,
    /// The equalities shared with the simplex, one per merge that joined two
    /// classes with numeric representatives: the pair of representatives.
    /// Over each class they form a spanning tree of its numeric leaves, so
    /// they imply every equality congruence derives between numeric leaves.
    pub(super) shared: Vec<(usize, usize)>,
}

impl EufState {
    /// Whether the state was never grown (it has no nodes).
    pub(super) fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Grows the state to `checker`'s template: returns to the base state,
    /// appends the template's new nodes with their use-list entries and
    /// signatures, and takes the new base mark. The first growth, from the
    /// empty state, is the build, and also asserts `true ≠ false`.
    ///
    /// At base every class is a singleton, each application's signature is
    /// in the table and only `true ≠ false` is asserted: exactly what one
    /// growth from the empty state builds, field for field, so a state grown
    /// in steps equals one grown in one step.
    pub(super) fn grow(&mut self, checker: &TheoryChecker) {
        self.undo_to(self.base);
        // No watches while seeding: nothing is implied before the check's
        // watch lists are built.
        self.watch_start.clear();
        self.watch_list.clear();
        let template = &checker.template;
        let old_nodes = self.parent.len();
        let n = template.terms.len();
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
            let leaf = template.node(t);
            self.num_rep[leaf] = Some(leaf as u32);
        }
        let new_apps = self.apps..template.app_nodes.len();
        self.apps = template.app_nodes.len();
        for ai in new_apps.clone() {
            for &arg in &template.app_nodes[ai].args {
                self.use_lists[arg].push(ai as u32);
            }
        }
        // Seed the signature table. Terms are hash-consed, so two distinct
        // application nodes cannot collide while every class is a singleton;
        // the merge arm is defensive. Entries below the base mark are never
        // undone, so seeding records no undo.
        for ai in new_apps {
            let key = self.sig(template, ai);
            match self.sig_table.get(&key).copied() {
                Some(aj) => {
                    let ni = template.app_nodes[ai].node;
                    let nj = template.app_nodes[aj as usize].node;
                    self.merge_classes(template, ni, nj, Reason::Congruence(ni, nj));
                }
                None => {
                    self.sig_table.insert(key, ai as u32);
                }
            }
        }
        if old_nodes == 0 {
            self.tru = template.node(checker.tru);
            self.fls = template.node(checker.fls);
            self.assert_neq(self.tru, self.fls, AXIOM_TAG);
        }
        self.base = self.mark();
    }

    /// Union-find lookup without path compression (undo safety).
    pub(super) fn find(&self, mut x: usize) -> usize {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    /// Exact signature of an application node under the current classes.
    fn sig(&self, template: &EufTemplate, ai: usize) -> SigKey {
        let app = &template.app_nodes[ai];
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
    pub(super) fn watch(&mut self, live: &[Option<LiveAtom>]) {
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
    pub(super) fn class_value(&self, r: usize) -> Option<bool> {
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
    pub(super) fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Undoes every mutation made since `mark` was taken.
    pub(super) fn undo_to(&mut self, mark: usize) {
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

    /// Asserts `lit`, a literal of a live atom whose EUF part is `atom`,
    /// under conflict tag `tag`, and flags it as on the trail.
    pub(super) fn assert(&mut self, template: &EufTemplate, lit: Lit, atom: EufAtom, tag: usize) {
        let positive = lit.is_positive();
        self.on_trail[lit.var() as usize] = true;
        match atom {
            EufAtom::Eq(a, b) if positive => self.assert_eq(template, a, b, tag),
            EufAtom::Eq(a, b) => self.assert_neq(a, b, tag),
            EufAtom::Pred(n) => {
                let target = if positive { self.tru } else { self.fls };
                self.assert_eq(template, n, target, tag);
            }
            EufAtom::Arith => {}
        }
    }

    fn assert_eq(&mut self, template: &EufTemplate, a: usize, b: usize, tag: usize) {
        self.eq_tags.push(tag);
        self.undo.push(UndoOp::EqTag);
        self.merge_classes(template, a, b, Reason::Asserted(tag));
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
    fn merge_classes(&mut self, template: &EufTemplate, a: usize, b: usize, reason: Reason) {
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
                let key = self.sig(template, ai);
                match self.sig_table.get(&key).copied() {
                    Some(aj) => {
                        let ni = template.app_nodes[ai].node;
                        let nj = template.app_nodes[aj as usize].node;
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

    /// The verdict on the asserted literals: the conflict tags of the
    /// earliest-asserted violated disequality (the disequality the batch
    /// solver's in-order scan would report), or `None` when consistent.
    pub(super) fn check(&mut self, tm: &TermManager, template: &EufTemplate) -> Option<Vec<usize>> {
        let k = *self.violations.iter().min()?;
        let (a, b, tag) = self.diseqs[k as usize];
        let mut tags = self.explain_equal(tm, template, a, b);
        tags.push(tag);
        tags.sort_unstable();
        tags.dedup();
        Some(tags)
    }

    /// Explains why the nodes `a` and `b` of one class are equal: the tags
    /// of the asserted equations used (all of them, the sound fallback, if
    /// the explanation was incomplete).
    pub(super) fn explain_equal(
        &mut self,
        tm: &TermManager,
        template: &EufTemplate,
        a: usize,
        b: usize,
    ) -> Vec<usize> {
        self.explain_incomplete = false;
        let tags = self.explain_path(tm, template, a, b);
        if self.explain_incomplete {
            self.eq_tags.clone()
        } else {
            tags
        }
    }

    /// The tags an implied literal's reason rests on, or `None` if the
    /// explanation came out incomplete.
    ///
    /// Exact while the literal is on the SAT trail: until then the proof
    /// forest only gains edges between distinct trees, so the path that
    /// explains two nodes equal is the one that existed when the literal
    /// was implied, and it runs through entries read before it.
    pub(super) fn explain(
        &mut self,
        tm: &TermManager,
        template: &EufTemplate,
        why: Why,
    ) -> Option<Vec<usize>> {
        self.explain_incomplete = false;
        let tags = match why {
            Why::Equal(a, b) => self.explain_path(tm, template, a, b),
            Why::Apart { x, dx, y, dy, tag } => {
                let mut tags = self.explain_path(tm, template, x, dx);
                tags.extend(self.explain_path(tm, template, y, dy));
                tags.push(tag);
                tags
            }
        };
        (!self.explain_incomplete).then_some(tags)
    }

    fn explain_path(
        &mut self,
        tm: &TermManager,
        template: &EufTemplate,
        a: usize,
        b: usize,
    ) -> Vec<usize> {
        let mut tags = Vec::new();
        self.explain_rec(tm, template, a, b, &mut tags, 0);
        tags
    }

    fn explain_rec(
        &mut self,
        tm: &TermManager,
        template: &EufTemplate,
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
                        let (tu, tv) = (template.terms[u], template.terms[v]);
                        for (&x_arg, &y_arg) in tm.term(tu).args.iter().zip(&tm.term(tv).args) {
                            let (nu, nv) = (template.node(x_arg), template.node(y_arg));
                            self.explain_rec(tm, template, nu, nv, tags, depth + 1);
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
