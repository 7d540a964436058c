//! The online EUF theory: congruence closure with an exact undo trail, watch
//! lists for theory propagation, and lazy explanations.
//!
//! It reads its term universe from the checker's [`EufTemplate`], which the
//! combiner owns and passes in; the state holds only what the search
//! changes. Every node, tag and list index is a `u32`, and per-class lists
//! live in shared arenas, so a node costs a few words and one undo record
//! 16 bytes.

use crate::euf::EufTemplate;
use crate::fxmap::FxHashMap;
use crate::sat::{Lit, Var};
use crate::term::TermManager;
use crate::theory::{TheoryChecker, AXIOM_TAG};

use super::LiveAtom;

/// The absent node, list entry or numeric representative.
pub(super) const NONE: u32 = u32::MAX;

/// The tag of the `true ≠ false` axiom, [`AXIOM_TAG`] in the combiner's
/// `usize` tags.
const AXIOM: u32 = u32::MAX;

/// A tag as the combiner reads it.
fn wide(tag: u32) -> usize {
    if tag == AXIOM {
        AXIOM_TAG
    } else {
        tag as usize
    }
}

/// An exact congruence signature `[op, rep(arg0), rep(arg1), …]`, stored
/// inline and sized to its arity up to four arguments (every signature the
/// lowering produces), so that computing one allocates nothing and its
/// table entry takes only the words it needs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(super) enum SigKey {
    One([u32; 2]),
    Two([u32; 3]),
    Three([u32; 4]),
    Four([u32; 5]),
    /// Wider applications.
    Wide(Box<[u32]>),
}

impl SigKey {
    /// The signature of operator `op` over the argument representatives
    /// `reps`.
    pub(super) fn new(op: u32, reps: impl ExactSizeIterator<Item = u32>) -> SigKey {
        fn fill<const N: usize>(op: u32, reps: impl Iterator<Item = u32>) -> [u32; N] {
            let mut key = [op; N];
            for (slot, rep) in key[1..].iter_mut().zip(reps) {
                *slot = rep;
            }
            key
        }
        match reps.len() {
            1 => SigKey::One(fill(op, reps)),
            2 => SigKey::Two(fill(op, reps)),
            3 => SigKey::Three(fill(op, reps)),
            4 => SigKey::Four(fill(op, reps)),
            _ => SigKey::Wide(std::iter::once(op).chain(reps).collect()),
        }
    }
}

/// The exact signature table, signature → application index, one map per
/// arity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct SigTable {
    one: FxHashMap<[u32; 2], u32>,
    two: FxHashMap<[u32; 3], u32>,
    three: FxHashMap<[u32; 4], u32>,
    four: FxHashMap<[u32; 5], u32>,
    wide: FxHashMap<Box<[u32]>, u32>,
}

impl SigTable {
    pub(super) fn get(&self, key: &SigKey) -> Option<u32> {
        match key {
            SigKey::One(k) => self.one.get(k),
            SigKey::Two(k) => self.two.get(k),
            SigKey::Three(k) => self.three.get(k),
            SigKey::Four(k) => self.four.get(k),
            SigKey::Wide(k) => self.wide.get(k),
        }
        .copied()
    }

    /// Enters `key`; returns the application it displaced, if any.
    pub(super) fn insert(&mut self, key: SigKey, ai: u32) -> Option<u32> {
        match key {
            SigKey::One(k) => self.one.insert(k, ai),
            SigKey::Two(k) => self.two.insert(k, ai),
            SigKey::Three(k) => self.three.insert(k, ai),
            SigKey::Four(k) => self.four.insert(k, ai),
            SigKey::Wide(k) => self.wide.insert(k, ai),
        }
    }

    fn remove(&mut self, key: &SigKey) {
        match key {
            SigKey::One(k) => self.one.remove(k),
            SigKey::Two(k) => self.two.remove(k),
            SigKey::Three(k) => self.three.remove(k),
            SigKey::Four(k) => self.four.remove(k),
            SigKey::Wide(k) => self.wide.remove(k),
        };
    }
}

/// Why two nodes are joined by a proof-forest edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Reason {
    /// An asserted equation with this tag.
    Asserted(u32),
    /// Congruence of the two application nodes (same operator, equal
    /// arguments).
    Congruence(u32, u32),
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
    Eq(u32, u32),
    /// A predicate node: equated with `true` or `false`.
    Pred(u32),
    /// An arithmetic inequality: no EUF part.
    Arith,
}

/// Why the congruence state implies a literal, recorded when it is implied
/// and turned into antecedent tags only on demand ([`EufState::explain`]).
#[derive(Clone, Copy, Debug)]
pub(super) enum Why {
    /// The two nodes are in one class: the literal is their equality, or a
    /// predicate's value (the second node a Boolean constant).
    Equal(u32, u32),
    /// `x ~ dx`, `y ~ dy` and the asserted disequality `diseq` between `dx`
    /// and `dy`: the literal is `x ≠ y`. The disequality's endpoints are
    /// `(dx, dy)`, or `(dy, dx)` when `flipped`. The orientation is fixed
    /// when the literal is implied, because later merges may join more
    /// classes before the combiner retracts them; the disequality stays
    /// asserted while the literal is on the SAT trail.
    Apart {
        x: u32,
        y: u32,
        diseq: u32,
        flipped: bool,
    },
}

/// One reversible mutation of [`EufState`], undone in reverse order. At most
/// 16 bytes: a record holds what the state cannot tell at undo time, and a
/// merge takes two.
#[derive(Clone, Copy, Debug)]
pub(super) enum UndoOp {
    /// A class merge: `loser`'s class was absorbed into `parent[loser]`'s
    /// (their member links swapped), and the proof-forest edge
    /// `pf_child -> …` was added after re-rooting `pf_child`'s tree (whose
    /// old root is recorded for the reverse re-root).
    Merge {
        loser: u32,
        pf_child: u32,
        old_pf_root: u32,
    },
    /// The same merge appended `loser`'s use and disequality lists to the
    /// winner's, whose tails were these.
    Splice {
        loser: u32,
        use_tail: u32,
        diseq_tail: u32,
    },
    /// A fresh signature-table entry for this application, under the
    /// signature it has until the entry is undone (entries are never
    /// overwritten: a colliding key means congruent nodes, which get merged).
    SigInsert(u32),
    /// A pushed disequality, also appended to the lists of both endpoint
    /// classes, whose tails were these.
    Diseq { tail_a: u32, tail_b: u32 },
    /// A disequality found violated (pushed on `violations`).
    Violation,
    /// A pushed asserted-equation tag.
    EqTag,
    /// A merge passed the absorbed class's numeric representative to this
    /// winner root, which had none.
    NumRep(u32),
    /// A pushed shared equality.
    Shared,
}

/// Per-class lists in one arena: each node's list is circular and known by
/// its last entry, so a merge concatenates two lists by swapping two links
/// and its undo swaps them back, with no header per node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct ClassLists {
    /// Per node: the last entry of its list, or [`NONE`].
    tail: Vec<u32>,
    /// Per entry: the entry after it in its circular list.
    next: Vec<u32>,
}

impl ClassLists {
    /// Gives the new nodes up to `n` empty lists.
    fn grow_nodes(&mut self, n: usize) {
        self.tail.resize(n, NONE);
    }

    /// Appends a new entry, the arena's next, to `r`'s list; returns the
    /// old tail.
    fn push(&mut self, r: u32) -> u32 {
        let e = self.next.len() as u32;
        let tail = self.tail[r as usize];
        if tail == NONE {
            self.next.push(e);
        } else {
            self.next.push(self.next[tail as usize]);
            self.next[tail as usize] = e;
        }
        self.tail[r as usize] = e;
        tail
    }

    /// Removes the last entry of `r`'s list, the arena's last entry, given
    /// the tail before it was pushed.
    fn pop(&mut self, r: u32, old_tail: u32) {
        let last = self.tail[r as usize];
        if old_tail != NONE {
            self.next[old_tail as usize] = self.next[last as usize];
        }
        self.tail[r as usize] = old_tail;
        self.next.pop();
    }

    /// Appends `loser`'s list to `winner`'s; returns `winner`'s old tail.
    fn splice(&mut self, winner: u32, loser: u32) -> u32 {
        let (tw, tl) = (self.tail[winner as usize], self.tail[loser as usize]);
        if tl != NONE {
            if tw != NONE {
                self.next.swap(tw as usize, tl as usize);
            }
            self.tail[winner as usize] = tl;
        }
        tw
    }

    /// Undoes [`ClassLists::splice`]: `loser`'s list was never changed
    /// since.
    fn unsplice(&mut self, winner: u32, loser: u32, old_tail: u32) {
        let tl = self.tail[loser as usize];
        if tl != NONE {
            if old_tail != NONE {
                self.next.swap(old_tail as usize, tl as usize);
            }
            self.tail[winner as usize] = old_tail;
        }
    }

    /// The entries of `r`'s list in order (`r` a class root).
    pub(super) fn iter(&self, r: u32) -> impl Iterator<Item = u32> + '_ {
        let tail = self.tail[r as usize];
        let mut cur = (tail != NONE).then(|| self.next[tail as usize]);
        std::iter::from_fn(move || {
            let e = cur?;
            cur = (e != tail).then(|| self.next[e as usize]);
            Some(e)
        })
    }
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
    pub(super) parent: Vec<u32>,
    /// Class sizes (union by size keeps find paths logarithmic without
    /// compression).
    pub(super) size: Vec<u32>,
    /// Proof forest for explanations, exactly as in the batch solver.
    pub(super) pf_parent: Vec<Option<(u32, Reason)>>,
    /// Per class root: the application nodes with at least one argument in
    /// the class (an entry per argument slot), the absorbed classes' lists
    /// following the winner's in merge order.
    pub(super) use_lists: ClassLists,
    /// Per use-list entry: its application.
    use_app: Vec<u32>,
    /// Exact signature table: signature → application index. A lookup hit
    /// means true congruence (no hashing ambiguity). Keys containing a
    /// merged-away root are unreachable until the merge is undone, at which
    /// point the table has been restored to match.
    pub(super) sig_table: SigTable,
    /// Application nodes of the template seeded so far ([`EufState::grow`]).
    pub(super) apps: usize,
    /// Asserted disequalities `(node, node, tag)`, in assertion order.
    pub(super) diseqs: Vec<(u32, u32, u32)>,
    /// Per class root: the disequalities with an endpoint in the class,
    /// kept like `use_lists`; entries `2k` and `2k + 1` are disequality
    /// `k`'s.
    pub(super) diseq_lists: ClassLists,
    /// Indices of the disequalities whose endpoints are currently in one
    /// class; the state is consistent iff this is empty.
    pub(super) violations: Vec<u32>,
    pub(super) eq_tags: Vec<u32>,
    pub(super) undo: Vec<UndoOp>,
    /// Undo-trail length at the base state ([`EufState::grow`]).
    base: u32,
    /// Scratch stack of the congruence cascade (empty between calls).
    pending: Vec<(u32, u32, Reason)>,
    explain_incomplete: bool,
    /// Nodes of the Boolean constants (predicate atoms are equated with one).
    pub(super) tru: u32,
    pub(super) fls: u32,
    /// Circular class-member links: following `next` from any node visits
    /// its whole class once. A merge swaps the links of the two roots, and
    /// its undo swaps them back.
    pub(super) next: Vec<u32>,
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
    /// of a linear form, [`TheoryChecker::leaf_is_int`]), or [`NONE`].
    pub(super) num_rep: Vec<u32>,
    /// The equalities shared with the simplex, one per merge that joined two
    /// classes with numeric representatives: the pair of representatives.
    /// Over each class they form a spanning tree of its numeric leaves, so
    /// they imply every equality congruence derives between numeric leaves.
    pub(super) shared: Vec<(u32, u32)>,
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
        let template = &checker.template;
        self.undo_to(template, self.base);
        // No watches while seeding: nothing is implied before the check's
        // watch lists are built.
        self.watch_start.clear();
        self.watch_list.clear();
        let old_nodes = self.parent.len() as u32;
        let n = template.terms.len();
        self.parent.extend(old_nodes..n as u32);
        self.next.extend(old_nodes..n as u32);
        self.size.resize(n, 1);
        self.pf_parent.resize(n, None);
        self.use_lists.grow_nodes(n);
        self.diseq_lists.grow_nodes(n);
        // Every class is a singleton at base, so each numeric leaf is its
        // own class's representative. An old node becomes a leaf when a new
        // atom puts it in a linear form, so every leaf is read again.
        self.num_rep.resize(n, NONE);
        for &t in checker.leaf_is_int.keys() {
            let leaf = template.node(t);
            self.num_rep[leaf] = leaf as u32;
        }
        let new_apps = self.apps..template.app_nodes.len();
        self.apps = template.app_nodes.len();
        for ai in new_apps.clone() {
            for &arg in template.args(ai) {
                self.use_lists.push(self.find(arg));
                self.use_app.push(ai as u32);
            }
        }
        // Seed the signature table. Terms are hash-consed, so two distinct
        // application nodes cannot collide while every class is a singleton;
        // the merge arm is defensive. Entries below the base mark are never
        // undone, so seeding records no undo.
        for ai in new_apps {
            let key = self.sig(template, ai);
            match self.sig_table.get(&key) {
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
            self.tru = template.node(checker.tru) as u32;
            self.fls = template.node(checker.fls) as u32;
            self.assert_neq(self.tru, self.fls, AXIOM);
        }
        self.base = self.mark();
    }

    /// Union-find lookup without path compression (undo safety).
    pub(super) fn find(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Exact signature of an application node under the current classes.
    fn sig(&self, template: &EufTemplate, ai: usize) -> SigKey {
        let (op, args) = (template.app_nodes[ai].op, template.args(ai));
        SigKey::new(op, args.iter().map(|&arg| self.find(arg)))
    }

    /// Rebuilds the per-node watch lists from the check's live-atom table
    /// (indexed by SAT variable) and clears the trail flags. One counting
    /// pass sizes each node's slice, and a second fills them in variable
    /// order, so each node's watches are in ascending variable order.
    pub(super) fn watch(&mut self, live: &[Option<LiveAtom>]) {
        let watched = |la: &Option<LiveAtom>| match la.map(|la| la.euf) {
            Some(EufAtom::Eq(a, b)) if a != b => [Some((a, b)), Some((b, a))],
            Some(EufAtom::Pred(n)) => [Some((n, PRED)), None],
            _ => [None, None],
        };
        let mut start = std::mem::take(&mut self.watch_start);
        start.clear();
        start.resize(self.parent.len() + 1, 0);
        for (n, _) in live.iter().flat_map(watched).flatten() {
            start[n as usize + 1] += 1;
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
                list[fill[n as usize] as usize] = Watch { var, other };
                fill[n as usize] += 1;
            }
        }
        self.watch_start = start;
        self.watch_list = list;
        self.on_trail.clear();
        self.on_trail.resize(live.len(), false);
    }

    /// The watches on the members of the class rooted at `r`, each with the
    /// member it is on (none before [`EufState::watch`]).
    fn class_watches(&self, r: u32) -> impl Iterator<Item = (u32, Watch)> + '_ {
        let mut member = Some(r);
        let members = std::iter::from_fn(move || {
            let m = member?;
            member = Some(self.next[m as usize]).filter(|&n| n != r);
            Some(m)
        });
        members.flat_map(move |m| {
            let m_ = m as usize;
            let watches = match self.watch_start.get(m_..m_ + 2) {
                Some(&[from, to]) => &self.watch_list[from as usize..to as usize],
                _ => &[],
            };
            watches.iter().map(move |&w| (m, w))
        })
    }

    /// The Boolean value the class rooted at `r` holds, if any.
    pub(super) fn class_value(&self, r: u32) -> Option<bool> {
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
    fn imply_on_merge(&mut self, winner: u32, loser: u32) {
        let mut implied = std::mem::take(&mut self.implied);
        let winner_value = self.class_value(winner);
        let constant = |v: bool| if v { self.tru } else { self.fls };
        for (m, w) in self.class_watches(loser) {
            if self.on_trail[w.var as usize] {
                continue;
            }
            if w.other != PRED && self.find(w.other) == winner {
                implied.push((Lit::new(w.var, true), Why::Equal(m, w.other)));
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

    /// Records the equality atoms implied false by asserting disequality
    /// `diseq`, `a ≠ b`, while `a` and `b` are in the distinct classes `ra`,
    /// `rb`.
    fn imply_apart(&mut self, diseq: u32, ra: u32, rb: u32) {
        let flipped = self.size[ra as usize] > self.size[rb as usize];
        let (small, big) = if flipped { (rb, ra) } else { (ra, rb) };
        let mut implied = std::mem::take(&mut self.implied);
        for (x, w) in self.class_watches(small) {
            let y = w.other;
            if w.other != PRED && !self.on_trail[w.var as usize] && self.find(y) == big {
                let why = Why::Apart {
                    x,
                    y,
                    diseq,
                    flipped,
                };
                implied.push((Lit::new(w.var, false), why));
            }
        }
        self.implied = implied;
    }

    fn pf_root(&self, mut x: u32) -> u32 {
        while let Some((p, _)) = self.pf_parent[x as usize] {
            x = p;
        }
        x
    }

    /// A restore point for [`EufState::undo_to`].
    pub(super) fn mark(&self) -> u32 {
        self.undo.len() as u32
    }

    /// Undoes every mutation made since `mark` was taken. Undo runs in
    /// reverse, so each record sees the classes it was made under.
    pub(super) fn undo_to(&mut self, template: &EufTemplate, mark: u32) {
        while self.undo.len() > mark as usize {
            match self.undo.pop().expect("undo above mark") {
                UndoOp::Merge {
                    loser,
                    pf_child,
                    old_pf_root,
                } => {
                    let (l, w) = (loser as usize, self.parent[loser as usize] as usize);
                    self.size[w] -= self.size[l];
                    self.parent[l] = loser;
                    self.next.swap(l, w);
                    self.pf_parent[pf_child as usize] = None;
                    self.reroot(old_pf_root);
                }
                UndoOp::Splice {
                    loser,
                    use_tail,
                    diseq_tail,
                } => {
                    let winner = self.parent[loser as usize];
                    self.use_lists.unsplice(winner, loser, use_tail);
                    self.diseq_lists.unsplice(winner, loser, diseq_tail);
                }
                UndoOp::SigInsert(ai) => {
                    let key = self.sig(template, ai as usize);
                    self.sig_table.remove(&key);
                }
                UndoOp::Diseq { tail_a, tail_b } => {
                    let (a, b, _) = self.diseqs.pop().expect("diseq to undo");
                    let (ra, rb) = (self.find(a), self.find(b));
                    self.diseq_lists.pop(rb, tail_b);
                    self.diseq_lists.pop(ra, tail_a);
                }
                UndoOp::Violation => {
                    self.violations.pop();
                }
                UndoOp::EqTag => {
                    self.eq_tags.pop();
                }
                UndoOp::NumRep(root) => {
                    self.num_rep[root as usize] = NONE;
                }
                UndoOp::Shared => {
                    self.shared.pop();
                }
            }
        }
    }

    /// Asserts `lit`, a literal of a live atom whose EUF part is `atom`,
    /// under conflict tag `tag`, and flags it as on the trail.
    pub(super) fn assert(&mut self, template: &EufTemplate, lit: Lit, atom: EufAtom, tag: u32) {
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

    fn assert_eq(&mut self, template: &EufTemplate, a: u32, b: u32, tag: u32) {
        self.eq_tags.push(tag);
        self.undo.push(UndoOp::EqTag);
        self.merge_classes(template, a, b, Reason::Asserted(tag));
    }

    fn assert_neq(&mut self, a: u32, b: u32, tag: u32) {
        let k = self.diseqs.len() as u32;
        let (ra, rb) = (self.find(a), self.find(b));
        self.diseqs.push((a, b, tag));
        let tail_a = self.diseq_lists.push(ra);
        let tail_b = self.diseq_lists.push(rb);
        self.undo.push(UndoOp::Diseq { tail_a, tail_b });
        if ra == rb {
            self.violations.push(k);
            self.undo.push(UndoOp::Violation);
        } else if !self.watch_list.is_empty() {
            self.imply_apart(k, ra, rb);
        }
    }

    /// Merges the classes of nodes `a` and `b` and eagerly processes the
    /// congruence cascade via the use-lists.
    fn merge_classes(&mut self, template: &EufTemplate, a: u32, b: u32, reason: Reason) {
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
            let (winner, loser, pf_child, pf_other) =
                if self.size[rx as usize] >= self.size[ry as usize] {
                    (rx, ry, x, y)
                } else {
                    (ry, rx, y, x)
                };
            self.undo.push(UndoOp::Merge {
                loser,
                pf_child,
                old_pf_root: self.pf_root(pf_child),
            });
            // Disequalities between the two classes become violated. Both
            // endpoints are listed under their classes, so scanning the
            // loser's list finds each exactly once.
            for e in self.diseq_lists.iter(loser) {
                let k = e / 2;
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
            let (w, l) = (winner as usize, loser as usize);
            match (self.num_rep[w], self.num_rep[l]) {
                (_, NONE) => {}
                (NONE, rep) => {
                    self.num_rep[w] = rep;
                    self.undo.push(UndoOp::NumRep(winner));
                }
                (rep_w, rep_l) => {
                    self.shared.push((rep_w, rep_l));
                    self.undo.push(UndoOp::Shared);
                }
            }
            self.reroot(pf_child);
            self.pf_parent[pf_child as usize] = Some((pf_other, reason));
            self.parent[l] = winner;
            self.size[w] += self.size[l];
            self.next.swap(l, w);
            // Re-hash every application with an argument in the absorbed
            // class: a signature-table hit is a true congruence (exact keys),
            // a miss records the new signature.
            for e in self.use_lists.iter(loser) {
                let ai = self.use_app[e as usize];
                let key = self.sig(template, ai as usize);
                match self.sig_table.get(&key) {
                    Some(aj) => {
                        let ni = template.app_nodes[ai as usize].node;
                        let nj = template.app_nodes[aj as usize].node;
                        if self.find(ni) != self.find(nj) {
                            pending.push((ni, nj, Reason::Congruence(ni, nj)));
                        }
                    }
                    None => {
                        self.undo.push(UndoOp::SigInsert(ai));
                        self.sig_table.insert(key, ai);
                    }
                }
            }
            let use_tail = self.use_lists.splice(winner, loser);
            let diseq_tail = self.diseq_lists.splice(winner, loser);
            self.undo.push(UndoOp::Splice {
                loser,
                use_tail,
                diseq_tail,
            });
        }
        self.pending = pending;
    }

    /// Makes `a` the root of its proof tree by reversing the edges on its
    /// path to the old root, in place.
    fn reroot(&mut self, a: u32) {
        let mut cur = a;
        let mut carried: Option<(u32, Reason)> = None;
        while let Some((p, reason)) = self.pf_parent[cur as usize].take() {
            self.pf_parent[cur as usize] = carried.take();
            carried = Some((cur, reason));
            cur = p;
        }
        self.pf_parent[cur as usize] = carried;
    }

    /// The verdict on the asserted literals: the conflict tags of the
    /// earliest-asserted violated disequality (the disequality the batch
    /// solver's in-order scan would report), or `None` when consistent.
    pub(super) fn check(&mut self, tm: &TermManager, template: &EufTemplate) -> Option<Vec<usize>> {
        let k = *self.violations.iter().min()?;
        let (a, b, tag) = self.diseqs[k as usize];
        let mut tags = self.explain_equal(tm, template, a, b);
        tags.push(wide(tag));
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
        a: u32,
        b: u32,
    ) -> Vec<usize> {
        self.explain_incomplete = false;
        let tags = self.explain_path(tm, template, a, b);
        if self.explain_incomplete {
            self.eq_tags.iter().map(|&t| wide(t)).collect()
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
            Why::Apart {
                x,
                y,
                diseq,
                flipped,
            } => {
                let (a, b, tag) = self.diseqs[diseq as usize];
                let (dx, dy) = if flipped { (b, a) } else { (a, b) };
                let mut tags = self.explain_path(tm, template, x, dx);
                tags.extend(self.explain_path(tm, template, y, dy));
                tags.push(wide(tag));
                tags
            }
        };
        (!self.explain_incomplete).then_some(tags)
    }

    fn explain_path(
        &mut self,
        tm: &TermManager,
        template: &EufTemplate,
        a: u32,
        b: u32,
    ) -> Vec<usize> {
        let mut tags = Vec::new();
        self.explain_rec(tm, template, a, b, &mut tags, 0);
        tags
    }

    fn explain_rec(
        &mut self,
        tm: &TermManager,
        template: &EufTemplate,
        a: u32,
        b: u32,
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
                match self.pf_parent[x as usize] {
                    Some((p, Reason::Asserted(t))) => {
                        tags.push(wide(t));
                        x = p;
                    }
                    Some((p, Reason::Congruence(u, v))) => {
                        let (tu, tv) = (template.terms[u as usize], template.terms[v as usize]);
                        for (&x_arg, &y_arg) in tm.term(tu).args.iter().zip(&tm.term(tv).args) {
                            let (nu, nv) = (template.node(x_arg), template.node(y_arg));
                            self.explain_rec(tm, template, nu as u32, nv as u32, tags, depth + 1);
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
    fn pf_lca(&self, mut a: u32, mut b: u32) -> Option<u32> {
        let up = |x: u32| self.pf_parent[x as usize].map(|(p, _)| p);
        let depth = |mut x: u32| {
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

#[cfg(test)]
impl EufState {
    /// Every node's use list, as applications (a root's is its class's).
    pub(super) fn use_lists_of(&self) -> Vec<Vec<u32>> {
        (0..self.parent.len() as u32)
            .map(|r| {
                self.use_lists
                    .iter(r)
                    .map(|e| self.use_app[e as usize])
                    .collect()
            })
            .collect()
    }

    /// Every node's disequality list, as disequality indices.
    pub(super) fn diseq_lists_of(&self) -> Vec<Vec<u32>> {
        (0..self.parent.len() as u32)
            .map(|r| self.diseq_lists.iter(r).map(|e| e / 2).collect())
            .collect()
    }
}
