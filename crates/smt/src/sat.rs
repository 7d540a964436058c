//! A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
//! learning, VSIDS-style variable activities, phase saving, Luby restarts
//! and LBD-based learned-clause database management.
//!
//! The DPLL(T) integration is online: the incremental solver
//! ([`crate::incremental`]) plugs a [`TheoryHook`] into the search loop
//! itself ([`SatSolver::solve_under_with`]), so the theory sees every
//! propagation fixpoint, and a theory conflict clause is learned and analysed
//! like a Boolean conflict, at the level where it arose.
//!
//! The theory also *propagates*: a fixpoint may hand back literals the
//! theory implies, which the search enqueues with a theory-reason marker
//! instead of a clause index. Their reason clauses are built lazily: only
//! when conflict analysis (or the final-conflict analysis that extracts an
//! assumption core) resolves on such a literal does it ask
//! [`TheoryHook::explain`] for the antecedents, and the clause
//! `lit ∨ ¬antecedents` is used for that one resolution step and dropped.
//!
//! # Learned-clause deletion and soundness
//!
//! Clauses learned by first-UIP analysis are resolvents of input and learned
//! clauses only, so they are logically implied and *deleting* them can never
//! change a verdict — it only costs re-derivation. Three clause categories
//! are therefore never deleted by `reduce_db`:
//!
//! * **input clauses** (including the activation-literal-guarded scope
//!   clauses of [`crate::incremental`]) — they define the problem;
//! * **theory conflict clauses** (the conflicts a [`TheoryHook`] returns) —
//!   they carry theory facts the SAT core cannot re-derive, and the
//!   termination argument of DPLL(T)
//!   (every theory-inconsistent assignment is refuted at most once) depends
//!   on them persisting;
//! * **locked clauses** — the current reason of an assigned literal — and
//!   **glue clauses** (LBD ≤ [`ClauseDbOptions::glue_lbd`]), following the
//!   Glucose heuristic that low-LBD clauses are worth keeping forever.
//!
//! Deletion is tombstone-based: a deleted clause keeps its index (indices are
//! used as `reason` handles, in watch lists and in the incremental solver's
//! method-scope snapshots) but drops its literals; watch lists shed dead
//! indices lazily during propagation.
//!
//! # Data layout
//!
//! The search loop allocates nothing per step, following MiniSat's layout
//! (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003):
//!
//! * **One clause arena.** Every clause's literals sit back to back in one
//!   `Vec<Lit>`, behind a fixed-size header (offset, length, flags, LBD,
//!   activity) indexed by the clause index. Deleted clauses' literals are
//!   reclaimed by compacting the arena once they make up half of it; headers
//!   and indices never move.
//! * **In-place watch lists** of `u32` clause indices: propagation compacts
//!   the list of the literal it visits in place, keeping the clauses still
//!   watched in their old order, followed by the unvisited tail after a
//!   conflict.
//! * **An indexed decision heap**: a binary max-heap of variables keyed by
//!   `(activity bits, variable)` that knows each variable's position, so a
//!   bump sifts the variable up in place and a backtrack inserts it at most
//!   once. It picks the unassigned variable with the largest key.
//! * **An assumption cursor**: the assumptions before it are known true, so
//!   a decision does not rescan them; every backtrack rewinds it.
//! * **Scratch buffers** for conflict analysis (the seen flags, the learned
//!   clause, the levels of the LBD count) that live as long as the solver.
//!
//! None of this changes which literal the search picks: pinned counts in
//! `tests/sat_props.rs` hold decisions, conflicts and propagations fixed on
//! seeded instances.

use std::fmt;

use crate::fxmap::FxHashSet;

/// Learned-clause database management knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClauseDbOptions {
    /// Conflicts before the first `reduce_db` run (`u64::MAX`: never).
    pub first_reduce: u64,
    /// How much the reduction interval grows after every reduction.
    pub reduce_inc: u64,
    /// Clauses with an LBD at or below this are *glue* and never deleted.
    pub glue_lbd: u32,
}

/// Tuning options of the SAT core (restart schedule + clause database).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatOptions {
    /// Restart after `restart_unit * luby(i)` conflicts, where `luby` is the
    /// Luby sequence 1,1,2,1,1,2,4,…: frequent cheap restarts interleaved
    /// with exponentially growing deep dives.
    pub restart_unit: u64,
    /// Learned-clause database management.
    pub clause_db: ClauseDbOptions,
}

impl Default for SatOptions {
    /// The solver's one configuration: Luby restarts and LBD-based clause
    /// deletion.
    fn default() -> SatOptions {
        SatOptions {
            restart_unit: 100,
            clause_db: ClauseDbOptions {
                first_reduce: 2000,
                reduce_inc: 300,
                glue_lbd: 2,
            },
        }
    }
}

/// The Luby sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,… (1-indexed).
fn luby(i: u64) -> u64 {
    // Find the smallest k with 2^k - 1 >= i; i at the end of such a block is
    // 2^(k-1), anywhere else recurse into the repeated prefix.
    let mut x = i;
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < x {
            k += 1;
        }
        if (1u64 << k) - 1 == x {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}

/// A propositional variable index.
pub type Var = u32;

/// A literal: a variable together with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var`, positive if `positive` is true.
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var << 1 | (if positive { 0 } else { 1 }))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// True if this is the positive literal of its variable.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var())
        } else {
            write!(f, "~v{}", self.var())
        }
    }
}

/// Result of a (propositional or full SMT) satisfiability check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment / model was found.
    Sat,
    /// The problem is unsatisfiable.
    Unsat,
    /// The solver gave up (resource limit, incomplete fragment).
    Unknown,
}

/// A theory's answer about the current (partial or complete) assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// Consistent as far as the theory checked.
    Consistent,
    /// Inconsistent: a clause every literal of which is false under the
    /// current assignment (the negation of an inconsistent subset of the
    /// trail). The solver learns it as a non-deletable clause.
    Conflict(Vec<Lit>),
    /// Stop the search with [`SatResult::Unknown`] (the theory cannot decide,
    /// or its round budget is spent).
    Unknown,
}

/// A theory solver plugged into the CDCL search loop by
/// [`SatSolver::solve_under_with`] (DPLL(T) in the style of Nieuwenhuis,
/// Oliveras & Tinelli, JACM 2006).
///
/// The solver calls [`TheoryHook::fixpoint`] whenever unit propagation
/// reaches a fixpoint without a Boolean conflict, and
/// [`TheoryHook::final_check`] once every variable is assigned. Between two
/// calls it only ever backtracks or extends the trail; `low_water` tells the
/// theory how far the trail it saw last is still intact, so the theory can
/// bind its own undo to the SAT trail instead of diffing assignments.
///
/// Every literal one `fixpoint` call reads sits at the current decision
/// level, and literals the theory implies are enqueued at that level too,
/// so a backjump never separates an implied literal from the trail
/// literals whose reading implied it.
pub trait TheoryHook {
    /// Called at every propagation fixpoint without a Boolean conflict.
    /// Trail positions below `low_water` hold the literals the previous call
    /// saw; positions at or above it may have changed (backtracking lowers
    /// the mark). The first call of a solve passes `0`.
    ///
    /// On [`TheoryVerdict::Consistent`] the theory may push unassigned
    /// literals it implies onto `implied` (handed in empty); the solver
    /// enqueues them with a theory reason and propagates again. Each one
    /// must stay explainable by [`TheoryHook::explain`] for as long as it
    /// stays on the trail.
    fn fixpoint(
        &mut self,
        trail: &[Lit],
        low_water: usize,
        implied: &mut Vec<Lit>,
    ) -> TheoryVerdict;

    /// The antecedents of a literal the theory implied at a fixpoint: trail
    /// literals, each assigned before `lit`, that imply it in the theory.
    /// Called only while `lit` is on the trail with its theory reason.
    fn explain(&mut self, lit: Lit) -> Vec<Lit>;

    /// Called on a complete assignment, right after `fixpoint` accepted it.
    fn final_check(&mut self, trail: &[Lit]) -> TheoryVerdict;

    /// Theory counters reported in the search's liveness heartbeats:
    /// `(theory rounds, simplex pivots)`.
    fn progress(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The empty theory: plain propositional search.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTheory;

impl TheoryHook for NoTheory {
    fn fixpoint(&mut self, _trail: &[Lit], _low_water: usize, _: &mut Vec<Lit>) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }

    fn explain(&mut self, lit: Lit) -> Vec<Lit> {
        unreachable!("the empty theory implies nothing, yet {lit:?} has a theory reason")
    }

    fn final_check(&mut self, _trail: &[Lit]) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }
}

/// The `reason` of a literal the theory implied at a fixpoint: its reason
/// clause is built on demand from [`TheoryHook::explain`]. Never a clause
/// index (the clause database cannot grow that large), so clause-activity
/// bumps never see it and it locks no clause against deletion.
const THEORY_REASON: u32 = u32::MAX;

/// What [`SatSolver::learn_theory_conflict`] made of a theory conflict.
enum TheoryLemma {
    /// The clause is falsified at level 0: unsatisfiable.
    Unsat,
    /// The clause had one literal at its highest level: the solver
    /// backjumped and asserted it (the clause is its own first UIP).
    Asserted,
    /// The clause is falsified at the (new) current level with at least two
    /// literals there; first-UIP analysis must run on this clause index.
    Analyze(u32),
}

/// What [`SatSolver::decide`] did.
enum Decision {
    /// A decision literal was put on the trail.
    Made,
    /// Every variable is assigned.
    Complete,
    /// An assumption is implied false; `unsat_core` holds the core.
    AssumptionFailed,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Value {
    True,
    False,
    Unassigned,
}

/// A clause's fixed-size header. Its literals are
/// `arena[start..start + len]` of the owning [`SatSolver`]; the watched
/// literals are the first two.
#[derive(Clone, Copy, Debug)]
struct Clause {
    start: u32,
    len: u32,
    /// Learned clauses that [`SatSolver::reduce_db`] may delete: first-UIP
    /// resolvents only. Input and theory conflict clauses are protected (see
    /// the module documentation).
    deletable: bool,
    /// Tombstone: the clause is logically gone but keeps its index so that
    /// `reason` handles and watch lists stay valid; `len` is 0.
    deleted: bool,
    /// Literal-block distance at learning time (0 for non-deletable clauses).
    lbd: u32,
    /// Bump-and-decay activity, the deletion tie-breaker within an LBD band.
    activity: f64,
}

impl Clause {
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The decision order: a binary max-heap of variables keyed by
/// `(activity bits, variable)`, with each variable's position in the heap.
/// Every unassigned variable is in the heap; an assigned one may linger
/// until it is popped and skipped. Activities are never negative, so their
/// bit patterns order like their values.
#[derive(Clone, Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// Each variable's index in `heap`, or [`VarHeap::ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    const ABSENT: u32 = u32::MAX;

    /// Orders by activity, and breaks ties toward the larger variable. The
    /// newest variables are the newest atoms: the current VC's goal and
    /// hypotheses, which get their variables after the prelude's and the
    /// axiom instances'. Most variables are never bumped, so the tie-break
    /// steers most decisions, and it is load-bearing: reversing it (oldest
    /// first) took the whole registry, cold at `--jobs 1` on a 2-vCPU VM,
    /// from 4–5 s to 171–187 s, and `sorted_insert` from 9,182 decisions to
    /// 9.13M.
    fn key(activity: &[f64], v: Var) -> (u64, Var) {
        (activity[v as usize].to_bits(), v)
    }

    /// Registers a new variable (not yet in the heap).
    fn add_var(&mut self) {
        self.pos.push(VarHeap::ABSENT);
    }

    /// Puts `v` in the heap unless it is there already.
    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.pos[v as usize] == VarHeap::ABSENT {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores the heap order after `v`'s activity grew.
    fn increased(&mut self, v: Var, activity: &[f64]) {
        let i = self.pos[v as usize];
        if i != VarHeap::ABSENT {
            self.sift_up(i as usize, activity);
        }
    }

    /// Removes and returns the variable with the largest key.
    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = VarHeap::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-establishes the heap order after every key changed at once (an
    /// activity rescale may round distinct keys to equal ones).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let key = VarHeap::key(activity, v);
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if VarHeap::key(activity, p) >= key {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let key = VarHeap::key(activity, v);
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && VarHeap::key(activity, self.heap[right])
                    > VarHeap::key(activity, self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if VarHeap::key(activity, c) <= key {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// The CDCL SAT solver.
///
/// # Example
/// ```
/// use ids_smt::sat::{SatSolver, Lit, SatResult};
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(vec![Lit::new(a, true), Lit::new(b, true)]);
/// s.add_clause(vec![Lit::new(a, false)]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SatSolver {
    /// Clause headers, indexed by clause index.
    clauses: Vec<Clause>,
    /// The literals of every clause, back to back (see [`Clause`]).
    arena: Vec<Lit>,
    /// Arena literals of deleted clauses, reclaimed by [`SatSolver::compact`].
    wasted: usize,
    /// Clauses not deleted, and the learned ones among them.
    live_clauses: usize,
    live_learned: usize,
    watches: Vec<Vec<u32>>, // indexed by literal
    assign: Vec<Value>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Picks decision variables without scanning every variable.
    order: VarHeap,
    phase: Vec<bool>,
    /// Literals assumed true for the duration of one `solve_under` call.
    /// Assumptions are decided before any free decision; conflict analysis
    /// never resolves on them, so learned clauses stay globally valid.
    assumptions: Vec<Lit>,
    /// Every assumption before this index is true on the trail.
    assumption_head: usize,
    ok: bool,
    options: SatOptions,
    /// Clause-activity increment (decayed geometrically per conflict).
    cla_inc: f64,
    /// Conflicts seen since the last `reduce_db` run.
    conflicts_since_reduce: u64,
    /// Conflict count that triggers the next `reduce_db` run.
    reduce_limit: u64,
    /// Trail length below which nothing changed since the last
    /// [`TheoryHook::fixpoint`] call: reset to the trail length after each
    /// call, lowered by every backtrack, and `0` at the start of a solve.
    theory_low: usize,
    /// Scratch of conflict analysis: per-variable marks (all false between
    /// calls), the learned clause and the levels of an LBD count.
    seen: Vec<bool>,
    learnt: Vec<Lit>,
    levels: Vec<u32>,
    /// Scratch of [`SatSolver::add_clause_from`] (empty between calls).
    clause_buf: Vec<Lit>,
    /// The unsat core of the most recent [`SatResult::Unsat`] answer from
    /// [`SatSolver::solve_under`] / [`SatSolver::solve_under_with`]: a
    /// subset of the assumption literals sufficient for unsatisfiability.
    /// Empty when the clause set is unsatisfiable on its own.
    pub unsat_core: Vec<Lit>,
    /// Number of conflicts encountered (for statistics).
    pub conflicts: u64,
    /// Number of decisions made (for statistics).
    pub decisions: u64,
    /// Number of unit propagations performed (for statistics).
    pub propagations: u64,
    /// Number of theory-implied literals enqueued at fixpoints (for
    /// statistics).
    pub theory_propagations: u64,
    /// Number of restarts performed (for statistics).
    pub restarts: u64,
    /// Learned clauses deleted by database reductions (for statistics).
    pub learned_deleted: u64,
    /// Largest literal-block distance of any learned clause (for statistics).
    pub max_lbd: u32,
}

impl SatSolver {
    /// Creates an empty solver with the tuned default options.
    pub fn new() -> SatSolver {
        SatSolver::with_options(SatOptions::default())
    }

    /// Creates an empty solver with explicit restart/clause-db options.
    pub fn with_options(options: SatOptions) -> SatSolver {
        SatSolver {
            act_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            reduce_limit: options.clause_db.first_reduce,
            options,
            ..Default::default()
        }
    }

    /// Allocates a fresh propositional variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(Value::Unassigned);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.add_var();
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    fn lit_value(&self, l: Lit) -> Value {
        match self.assign[l.var() as usize] {
            Value::Unassigned => Value::Unassigned,
            Value::True => {
                if l.is_positive() {
                    Value::True
                } else {
                    Value::False
                }
            }
            Value::False => {
                if l.is_positive() {
                    Value::False
                } else {
                    Value::True
                }
            }
        }
    }

    /// The current value of a variable, if assigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v as usize] {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Unassigned => None,
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the clause system became trivially
    /// unsatisfiable (empty clause at level 0).
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        self.add_clause_in(&mut lits)
    }

    /// [`SatSolver::add_clause`] for a borrowed clause, which is copied into
    /// a scratch buffer rather than a new vector.
    pub(crate) fn add_clause_from(&mut self, lits: &[Lit]) -> bool {
        let mut buf = std::mem::take(&mut self.clause_buf);
        buf.extend_from_slice(lits);
        let ok = self.add_clause_in(&mut buf);
        buf.clear();
        self.clause_buf = buf;
        ok
    }

    fn add_clause_in(&mut self, lits: &mut Vec<Lit>) -> bool {
        if !self.ok {
            return false;
        }
        // We may be called mid-search (theory conflict clauses). Backtrack to
        // the root level so that clause insertion stays simple and correct.
        self.backtrack(0);
        lits.sort();
        lits.dedup();
        // Remove clauses satisfied at level 0 and false literals.
        let mut i = 0;
        while i < lits.len() {
            if i + 1 < lits.len() && lits[i].var() == lits[i + 1].var() {
                return true; // contains l and ~l: tautology
            }
            match self.lit_value(lits[i]) {
                Value::True => return true,
                Value::False => {
                    lits.remove(i);
                }
                Value::Unassigned => i += 1,
            }
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(lits, false, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learned: bool, deletable: bool, lbd: u32) -> u32 {
        let idx = u32::try_from(self.clauses.len()).expect("clause indices fit in u32");
        let end = u32::try_from(self.arena.len() + lits.len()).expect("arena offsets fit in u32");
        let len = lits.len() as u32; // at most `end`
        self.watches[lits[0].negate().index()].push(idx);
        self.watches[lits[1].negate().index()].push(idx);
        self.clauses.push(Clause {
            start: end - len,
            len,
            deletable,
            deleted: false,
            lbd,
            activity: 0.0,
        });
        self.arena.extend_from_slice(lits);
        self.live_clauses += 1;
        self.live_learned += usize::from(learned);
        idx
    }

    /// The number of distinct decision levels among a clause's literals — the
    /// Glucose "literal block distance" quality measure (lower is better).
    fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        let mut levels = std::mem::take(&mut self.levels);
        levels.clear();
        levels.extend(lits.iter().map(|l| self.level[l.var() as usize]));
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        self.levels = levels;
        lbd
    }

    fn bump_clause(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        if !c.deletable {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), Value::Unassigned);
        let v = l.var() as usize;
        self.assign[v] = if l.is_positive() {
            Value::True
        } else {
            Value::False
        };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // Clauses watching ~l need attention (we store watches under the
            // literal that, when made true, might falsify the watched lit).
            // The list is compacted in place: its first `kept` entries stay
            // watched here, in their old order. It can be taken out of
            // `watches` for the loop because no clause moves its watch onto
            // `l`'s own list (that would mean watching `~l`, which is false).
            let mut ws = std::mem::take(&mut self.watches[l.index()]);
            let watched_false = l.negate();
            let mut kept = 0;
            let mut next = 0;
            let mut conflict = None;
            while next < ws.len() {
                let ci = ws[next];
                next += 1;
                let c = self.clauses[ci as usize];
                if c.deleted {
                    // Lazy watch-list cleanup: dead indices are dropped the
                    // first time propagation visits them.
                    continue;
                }
                let s = c.start as usize;
                // Ensure the false literal is at position 1.
                if self.arena[s] == watched_false {
                    self.arena.swap(s, s + 1);
                }
                let first = self.arena[s];
                if self.lit_value(first) == Value::True {
                    ws[kept] = ci;
                    kept += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in s + 2..s + c.len as usize {
                    let cand = self.arena[k];
                    if self.lit_value(cand) != Value::False {
                        self.arena.swap(s + 1, k);
                        self.watches[cand.negate().index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                ws[kept] = ci;
                kept += 1;
                if self.lit_value(first) == Value::False {
                    // Conflict: the unvisited tail stays watched as it was.
                    ws.copy_within(next.., kept);
                    kept += ws.len() - next;
                    conflict = Some(ci);
                    break;
                } else {
                    self.enqueue(first, Some(ci));
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[l.index()].is_empty());
            self.watches[l.index()] = ws;
            if conflict.is_some() {
                self.prop_head = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v as usize] += self.act_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        }
        self.order.increased(v, &self.activity);
    }

    /// One literal of a clause resolved in first-UIP analysis: marks and
    /// bumps its variable, counting it at the conflict level or adding it
    /// to the learned clause below it. Level-0 literals are dropped.
    fn analyze_lit(&mut self, q: Lit, cur_level: u32, counter: &mut usize, learned: &mut Vec<Lit>) {
        let v = q.var() as usize;
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump(q.var());
            if self.level[v] == cur_level {
                *counter += 1;
            } else {
                learned.push(q);
            }
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause, UIP first
    /// (the solver's scratch buffer: hand it back through `self.learnt`),
    /// and the level to backjump to.
    ///
    /// The reason of a theory-implied literal `l` is the clause
    /// `l ∨ ¬antecedents` built from [`TheoryHook::explain`]; the clause of
    /// a propagated literal has its activity bumped.
    fn analyze<H: TheoryHook>(&mut self, conflict: u32, theory: &mut H) -> (Vec<Lit>, u32) {
        let mut learned = std::mem::take(&mut self.learnt);
        learned.clear();
        learned.push(Lit(0)); // the UIP's slot
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_pos = self.trail.len();
        let cur_level = self.decision_level();
        self.bump_clause(conflict);
        let mut reason = conflict;
        let mut antecedents: Vec<Lit> = Vec::new();

        loop {
            // Skip the literal we are currently resolving on (it occurs in
            // its own reason clause with the opposite polarity).
            let skip = |q: Lit| p.is_some_and(|pl| pl.var() == q.var());
            if reason == THEORY_REASON {
                for &a in &antecedents {
                    debug_assert_eq!(self.lit_value(a), Value::True, "antecedent {a:?}");
                    let q = a.negate();
                    if !skip(q) {
                        self.analyze_lit(q, cur_level, &mut counter, &mut learned);
                    }
                }
            } else {
                for k in self.clauses[reason as usize].range() {
                    let q = self.arena[k];
                    if !skip(q) {
                        self.analyze_lit(q, cur_level, &mut counter, &mut learned);
                    }
                }
            }
            // Find the next literal on the trail (at current level) to resolve.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if self.seen[l.var() as usize] {
                    p = Some(l.negate());
                    self.seen[l.var() as usize] = false;
                    counter -= 1;
                    if counter > 0 {
                        reason = self.reason[l.var() as usize].expect("reason for implied lit");
                        if reason == THEORY_REASON {
                            antecedents = theory.explain(l);
                        } else {
                            self.bump_clause(reason);
                        }
                    }
                    break;
                }
            }
            if counter == 0 {
                break;
            }
        }
        learned[0] = p.expect("first UIP literal");
        for l in &learned[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backjump level = max level among the other literals.
        let bj = learned[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        (learned, bj)
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        while self.trail.len() > target {
            let l = self.trail.pop().unwrap();
            let v = l.var() as usize;
            self.assign[v] = Value::Unassigned;
            self.reason[v] = None;
            self.order.insert(l.var(), &self.activity);
        }
        self.trail_lim.truncate(level as usize);
        self.prop_head = self.trail.len();
        self.theory_low = self.theory_low.min(target);
        self.assumption_head = 0;
    }

    /// The unassigned variable with the largest `(activity bits, index)`.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize] == Value::Unassigned {
                return Some(v);
            }
        }
        None
    }

    /// Searches for a satisfying assignment of the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_budget(u64::MAX)
    }

    /// Searches with a conflict budget; returns [`SatResult::Unknown`] when
    /// the budget is exhausted.
    pub fn solve_with_budget(&mut self, max_conflicts: u64) -> SatResult {
        self.assumptions.clear();
        self.unsat_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        self.search(max_conflicts, &mut NoTheory)
    }

    /// Solves under temporary assumptions: the given literals are decided
    /// before any free decision, and [`SatResult::Unsat`] means *unsatisfiable
    /// together with the assumptions* (the solver itself stays consistent and
    /// usable — clauses learned along the way are globally valid, because
    /// conflict analysis resolves input/learned clauses only).
    ///
    /// This is the building block of the push/pop incremental solver: a scope's
    /// clauses carry a negated activation literal, and the scope is enabled by
    /// assuming the activation literal here.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_under_with(assumptions, &mut NoTheory)
    }

    /// [`SatSolver::solve_under`] with a theory in the loop: one CDCL search
    /// that consults `theory` at every propagation fixpoint and on the
    /// complete assignment (see [`TheoryHook`]). A theory conflict clause is
    /// attached as a non-deletable clause after backtracking to its highest
    /// level, then analysed like a Boolean conflict (first UIP). `Sat` means
    /// the final check accepted the assignment; `Unsat` is reported with an
    /// assumption core exactly as for propositional conflicts.
    pub fn solve_under_with<H: TheoryHook>(
        &mut self,
        assumptions: &[Lit],
        theory: &mut H,
    ) -> SatResult {
        self.unsat_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        self.theory_low = 0;
        self.assumptions.clear();
        self.assumptions.extend_from_slice(assumptions);
        self.assumption_head = 0;
        let r = self.search(u64::MAX, theory);
        self.assumptions.clear();
        r
    }

    /// The CDCL search loop over the current trail, with `theory` consulted
    /// at every propagation fixpoint and on the complete assignment. Every
    /// search starts the restart schedule at its beginning; the
    /// clause-deletion cadence (`reduce_limit`) persists across searches.
    fn search<H: TheoryHook>(&mut self, max_conflicts: u64, theory: &mut H) -> SatResult {
        let mut restarts_here = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = self.options.restart_unit.max(1) * luby(1);
        let mut conflicts_here = 0u64;
        // One trace span per search call, segmented at restarts; the guard's
        // drop keeps Begin/End matched on every return path below.
        let mut obs_span = ids_obs::SegmentedSpan::new("sat");
        let heartbeat_every = ids_obs::heartbeat_interval();
        // Histogram sampling (restart-segment duration, conflict
        // inter-arrival) is snapshotted once per search call: disarmed runs
        // pay one relaxed load here and zero clock reads in the loop.
        let metrics = ids_obs::metrics_active();
        let mut seg_start = metrics.then(std::time::Instant::now);
        let mut last_conflict: Option<std::time::Instant> = None;
        let mut implied: Vec<Lit> = Vec::new();
        loop {
            // A conflict to analyse: a falsified clause at the current level.
            // `None` after a theory lemma that asserted its literal directly.
            let mut conflict = self.propagate();
            if conflict.is_none() {
                let low_water = std::mem::replace(&mut self.theory_low, self.trail.len());
                implied.clear();
                let clause = match theory.fixpoint(&self.trail, low_water, &mut implied) {
                    TheoryVerdict::Unknown => return SatResult::Unknown,
                    TheoryVerdict::Conflict(clause) => clause,
                    TheoryVerdict::Consistent if self.enqueue_implied(&implied) => continue,
                    TheoryVerdict::Consistent => match self.decide(theory) {
                        Decision::Made => continue,
                        Decision::AssumptionFailed => return SatResult::Unsat,
                        Decision::Complete => match theory.final_check(&self.trail) {
                            TheoryVerdict::Consistent => return SatResult::Sat,
                            TheoryVerdict::Unknown => return SatResult::Unknown,
                            TheoryVerdict::Conflict(clause) => clause,
                        },
                    },
                };
                match self.learn_theory_conflict(clause) {
                    TheoryLemma::Unsat => return SatResult::Unsat,
                    TheoryLemma::Asserted => {}
                    TheoryLemma::Analyze(ci) => conflict = Some(ci),
                }
            }
            self.conflicts += 1;
            self.conflicts_since_reduce += 1;
            conflicts_here += 1;
            conflicts_since_restart += 1;
            if metrics {
                let now = std::time::Instant::now();
                if let Some(prev) = last_conflict.replace(now) {
                    ids_obs::record_metric(
                        ids_obs::Metric::ConflictGapUs,
                        now.duration_since(prev).as_micros() as u64,
                    );
                }
            }
            if heartbeat_every != 0 && self.conflicts.is_multiple_of(heartbeat_every) {
                self.emit_heartbeat(theory.progress());
            }
            if conflicts_here > max_conflicts {
                return SatResult::Unknown;
            }
            if let Some(conf) = conflict {
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learned, bj) = self.analyze(conf, theory);
                self.backtrack(bj);
                self.act_inc *= 1.05;
                self.cla_inc *= 1.001;
                if learned.len() == 1 {
                    self.enqueue(learned[0], None);
                } else {
                    // LBD is computed after the backjump, when every literal
                    // of the learned clause is assigned (the asserting
                    // literal is about to be, at the backjump level).
                    let lbd = self.lbd_of(&learned[1..]).saturating_add(1);
                    self.max_lbd = self.max_lbd.max(lbd);
                    let ci = self.attach_clause(&learned, true, true, lbd);
                    self.bump_clause(ci);
                    self.enqueue(learned[0], Some(ci));
                }
                self.learnt = learned;
            } else {
                self.act_inc *= 1.05;
                self.cla_inc *= 1.001;
            }
            if conflicts_since_restart > restart_limit {
                conflicts_since_restart = 0;
                restarts_here += 1;
                self.restarts += 1;
                obs_span.restart(|| format!("restart {restarts_here}"));
                if let Some(start) = seg_start.replace(std::time::Instant::now()) {
                    ids_obs::record_metric(
                        ids_obs::Metric::RestartSegmentUs,
                        start.elapsed().as_micros() as u64,
                    );
                }
                if heartbeat_every != 0 {
                    self.emit_heartbeat(theory.progress());
                }
                restart_limit = self.options.restart_unit.max(1) * luby(restarts_here + 1);
                self.backtrack(0);
                if self.conflicts_since_reduce >= self.reduce_limit {
                    self.reduce_db();
                }
            }
        }
    }

    /// Enqueues the unassigned literals a consistent theory fixpoint
    /// implied, with the theory-reason marker; true if any was.
    fn enqueue_implied(&mut self, implied: &[Lit]) -> bool {
        let before = self.trail.len();
        for &l in implied {
            match self.lit_value(l) {
                Value::Unassigned => self.enqueue(l, Some(THEORY_REASON)),
                Value::True => {}
                Value::False => debug_assert!(false, "consistent theory implied false {l:?}"),
            }
        }
        let enqueued = (self.trail.len() - before) as u64;
        self.theory_propagations += enqueued;
        enqueued > 0
    }

    /// Puts the next decision on the trail. Assumptions are (re-)decided
    /// before any free decision; a backjump or restart may have undone some
    /// of them, and rewinds the assumption cursor.
    fn decide<H: TheoryHook>(&mut self, theory: &mut H) -> Decision {
        while let Some(&a) = self.assumptions.get(self.assumption_head) {
            match self.lit_value(a) {
                Value::True => self.assumption_head += 1,
                // Implied false by clauses and earlier assumptions alone:
                // unsatisfiable under the assumptions. The clause set itself
                // stays consistent (`ok` untouched).
                Value::False => {
                    self.analyze_final(a, theory);
                    return Decision::AssumptionFailed;
                }
                Value::Unassigned => {
                    self.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(a, None);
                    return Decision::Made;
                }
            }
        }
        match self.pick_branch_var() {
            None => Decision::Complete,
            Some(v) => {
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let phase = self.phase[v as usize];
                self.enqueue(Lit::new(v, phase), None);
                Decision::Made
            }
        }
    }

    /// Learns a theory conflict clause (every literal false under the
    /// current assignment). The clause is attached as a non-deletable learned
    /// clause after backtracking to its highest level `h`:
    ///
    /// * with two or more literals at `h` the clause is an ordinary conflict
    ///   at the (new) current level and goes through first-UIP analysis;
    /// * with exactly one literal at `h` the clause is its own first UIP: the
    ///   solver backjumps to the second-highest level and asserts it there
    ///   (a unit clause asserts at level 0);
    /// * falsified at level 0 it proves unsatisfiability.
    fn learn_theory_conflict(&mut self, mut lits: Vec<Lit>) -> TheoryLemma {
        lits.sort();
        lits.dedup();
        debug_assert!(
            lits.iter().all(|&l| self.lit_value(l) == Value::False),
            "theory conflict clause {lits:?} is not falsified"
        );
        // Highest level first (stable: literal order within a level): the two
        // watched positions must be the last literals to become unassigned.
        lits.sort_by_key(|l| std::cmp::Reverse(self.level[l.var() as usize]));
        let top = match lits.first() {
            None => 0,
            Some(l) => self.level[l.var() as usize],
        };
        if top == 0 {
            self.ok = false;
            return TheoryLemma::Unsat;
        }
        if lits.len() == 1 {
            self.bump(lits[0].var());
            self.backtrack(0);
            self.enqueue(lits[0], None);
            return TheoryLemma::Asserted;
        }
        let second = self.level[lits[1].var() as usize];
        if second < top {
            for &l in &lits {
                if self.level[l.var() as usize] > 0 {
                    self.bump(l.var());
                }
            }
            self.backtrack(second);
            let ci = self.attach_clause(&lits, true, false, 0);
            self.enqueue(lits[0], Some(ci));
            return TheoryLemma::Asserted;
        }
        self.backtrack(top);
        TheoryLemma::Analyze(self.attach_clause(&lits, true, false, 0))
    }

    /// MiniSat-style `analyzeFinal`: given an assumption literal found false
    /// under the current trail, walks the implication graph backwards and
    /// collects into `unsat_core` the subset of assumptions responsible.
    ///
    /// Soundness rests on the decision discipline of `search`: assumptions
    /// are (re-)decided before any free decision, and a free decision can
    /// only be on the trail while *every* assumption is assigned true — so
    /// when an assumption evaluates false, every `reason == None` ancestor
    /// above level 0 is itself an assumption. Level-0 implications hold
    /// unconditionally and contribute nothing. A theory-implied ancestor is
    /// expanded through its explanation like a clause reason. The walk
    /// covers the whole trail, so it clears every mark it sets.
    fn analyze_final<H: TheoryHook>(&mut self, failed: Lit, theory: &mut H) {
        let mut core = std::mem::take(&mut self.unsat_core);
        core.clear();
        core.push(failed);
        self.seen[failed.var() as usize] = true;
        for i in (0..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var() as usize;
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            if self.level[v] == 0 {
                continue;
            }
            match self.reason[v] {
                None => core.push(l),
                Some(THEORY_REASON) => {
                    for q in theory.explain(l) {
                        debug_assert_eq!(self.lit_value(q), Value::True, "antecedent {q:?}");
                        if self.level[q.var() as usize] > 0 {
                            self.seen[q.var() as usize] = true;
                        }
                    }
                }
                Some(ci) => {
                    for k in self.clauses[ci as usize].range() {
                        let q = self.arena[k];
                        if q.var() as usize != v && self.level[q.var() as usize] > 0 {
                            self.seen[q.var() as usize] = true;
                        }
                    }
                }
            }
        }
        core.sort();
        core.dedup();
        self.unsat_core = core;
    }

    /// Deletes the worst half of the deletable learned clauses: highest LBD
    /// first, lowest activity as the tie-breaker. Glue clauses
    /// (LBD ≤ [`ClauseDbOptions::glue_lbd`]), locked clauses (the reason of
    /// an assigned literal), input clauses and theory conflict clauses are
    /// kept — see the module documentation for why each class is safe or
    /// necessary to keep.
    fn reduce_db(&mut self) {
        self.conflicts_since_reduce = 0;
        self.reduce_limit = self
            .reduce_limit
            .saturating_add(self.options.clause_db.reduce_inc);
        let locked: FxHashSet<u32> = self
            .trail
            .iter()
            .filter_map(|l| self.reason[l.var() as usize])
            .collect();
        let glue = self.options.clause_db.glue_lbd;
        let mut cands: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&ci| {
                let c = &self.clauses[ci as usize];
                c.deletable && !c.deleted && c.lbd > glue && !locked.contains(&ci)
            })
            .collect();
        // Worst first: high LBD, then low activity (ties by index for
        // determinism — f64 activities of distinct clauses rarely tie, but
        // the sort must be total either way).
        cands.sort_unstable_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.total_cmp(&cb.activity))
                .then(a.cmp(&b))
        });
        for &ci in &cands[..cands.len() / 2] {
            let c = &mut self.clauses[ci as usize];
            c.deleted = true;
            self.wasted += c.len as usize;
            c.len = 0;
            self.live_clauses -= 1;
            self.live_learned -= 1;
            self.learned_deleted += 1;
        }
        if 2 * self.wasted > self.arena.len() {
            self.compact();
        }
    }

    /// Slides every live clause's literals down over the deleted ones.
    /// Clauses keep their indices and their order in the arena.
    fn compact(&mut self) {
        let mut end = 0;
        for c in &mut self.clauses {
            self.arena.copy_within(c.range(), end);
            c.start = end as u32;
            end += c.len as usize;
        }
        self.arena.truncate(end);
        self.wasted = 0;
    }

    /// Number of live clauses currently stored (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Number of live learned clauses currently stored.
    pub fn num_learned(&self) -> usize {
        self.live_learned
    }

    /// Delivers a liveness heartbeat with the core's cumulative counters and
    /// the theory's `(rounds, pivots)` to the observer registered with
    /// [`ids_obs`] (called from the search loop every
    /// [`ids_obs::heartbeat_interval`] conflicts and at each restart).
    fn emit_heartbeat(&self, (theory_rounds, pivots): (u64, u64)) {
        ids_obs::emit_heartbeat(ids_obs::Heartbeat {
            conflicts: self.conflicts,
            decisions: self.decisions,
            propagations: self.propagations,
            restarts: self.restarts,
            learned: self.num_learned() as u64,
            theory_rounds,
            pivots,
            ..ids_obs::Heartbeat::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, b: bool) -> Lit {
        Lit::new(v, b)
    }

    #[test]
    fn lit_encoding() {
        let l = Lit::new(3, true);
        assert_eq!(l.var(), 3);
        assert!(l.is_positive());
        assert!(!l.negate().is_positive());
        assert_eq!(l.negate().negate(), l);
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![lit(a, true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![lit(a, true)]);
        assert!(!s.add_clause(vec![lit(a, false)]) || s.solve() == SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(vec![lit(w[0], false), lit(w[1], true)]);
        }
        s.add_clause(vec![lit(vars[0], true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: unsat. Variables p[i][j] = pigeon i in hole j.
        let mut s = SatSolver::new();
        let mut p = vec![];
        for _ in 0..3 {
            p.push(vec![s.new_var(), s.new_var()]);
        }
        for row in &p {
            s.add_clause(vec![lit(row[0], true), lit(row[1], true)]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                let (pi, pk) = (p[i].clone(), p[k].clone());
                for (&a, &b) in pi.iter().zip(pk.iter()) {
                    s.add_clause(vec![lit(a, false), lit(b, false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lit(a, true), lit(b, true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(vec![lit(a, false)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.add_clause(vec![lit(b, false)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_are_retractable() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        // (~a | b) & (~a | ~b): unsat exactly when a is assumed.
        s.add_clause(vec![lit(a, false), lit(b, true)]);
        s.add_clause(vec![lit(a, false), lit(b, false)]);
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Unsat);
        // The solver stays usable: globally the clauses are satisfiable.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.solve_under(&[lit(a, false)]), SatResult::Sat);
        // Unsat under assumptions again, twice in a row.
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Unsat);
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Unsat);
    }

    #[test]
    fn conflicting_assumptions_detected() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lit(a, true), lit(b, true)]);
        assert_eq!(
            s.solve_under(&[lit(a, false), lit(b, false)]),
            SatResult::Unsat
        );
        assert_eq!(
            s.solve_under(&[lit(a, true), lit(b, false)]),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn random_3sat_consistency() {
        // Small random instances: whatever the result, if SAT then the model
        // must satisfy every clause. Deterministic xorshift so the test is
        // reproducible without an external rand crate.
        let mut state = 42u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30 {
            let mut s = SatSolver::new();
            let n = 12;
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses = vec![];
            for _ in 0..40 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| lit(vars[next() as usize % n], next() % 2 == 0))
                    .collect();
                clauses.push(c.clone());
                s.add_clause(c);
            }
            if s.solve() == SatResult::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|l| {
                        let v = s.value(l.var());
                        v == Some(l.is_positive())
                    }));
                }
            }
        }
    }

    #[test]
    fn unsat_core_is_a_sufficient_assumption_subset() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let x = s.new_var();
        // a -> x, b -> ~x: assuming {a, b} is unsat; c is irrelevant.
        s.add_clause(vec![lit(a, false), lit(x, true)]);
        s.add_clause(vec![lit(b, false), lit(x, false)]);
        assert_eq!(
            s.solve_under(&[lit(a, true), lit(b, true), lit(c, true)]),
            SatResult::Unsat
        );
        let core = s.unsat_core.clone();
        assert!(core.contains(&lit(a, true)), "core {:?} must blame a", core);
        assert!(core.contains(&lit(b, true)), "core {:?} must blame b", core);
        assert!(
            !core.contains(&lit(c, true)),
            "core {:?} must not blame the irrelevant assumption c",
            core
        );
        // Re-solving under the core alone must still be unsat (sufficiency).
        assert_eq!(s.solve_under(&core), SatResult::Unsat);
        // A satisfiable call leaves no stale core behind.
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Sat);
        assert!(s.unsat_core.is_empty());
        // Directly conflicting assumptions blame both polarities.
        assert_eq!(
            s.solve_under(&[lit(a, true), lit(a, false)]),
            SatResult::Unsat
        );
        assert_eq!(s.unsat_core, vec![lit(a, true), lit(a, false)]);
        // A clause-set-level unsat (no assumptions involved) has an empty
        // core: nothing to retract would help.
        s.add_clause(vec![lit(x, true)]);
        s.add_clause(vec![lit(x, false)]);
        assert_eq!(s.solve_under(&[lit(c, true)]), SatResult::Unsat);
        assert!(s.unsat_core.is_empty());
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Asserts the heap order and the position index of the decision heap.
    fn check_heap(s: &SatSolver) {
        let order = &s.order;
        for (i, &v) in order.heap.iter().enumerate() {
            assert_eq!(order.pos[v as usize], i as u32, "position of v{v}");
            if i > 0 {
                let parent = order.heap[(i - 1) / 2];
                assert!(
                    VarHeap::key(&s.activity, parent) > VarHeap::key(&s.activity, v),
                    "heap order at {i}"
                );
            }
        }
        let listed = order.pos.iter().filter(|&&p| p != VarHeap::ABSENT).count();
        assert_eq!(listed, order.heap.len());
    }

    /// The decision heap always yields the unassigned variable with the
    /// largest `(activity bits, index)`: checked against a brute-force scan
    /// under random bumps, decisions, propagation-style assignments and
    /// backtracks, with activity rescales forced along the way.
    #[test]
    fn decision_heap_pops_the_largest_unassigned_key() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut s = SatSolver::new();
        let n = 64u64;
        for _ in 0..n {
            s.new_var();
        }
        let (mut picks, mut rescales) = (0, 0);
        for step in 0..20_000 {
            match next() % 8 {
                0..=3 => {
                    if next().is_multiple_of(64) {
                        s.act_inc *= 1e40;
                    }
                    let inc = s.act_inc;
                    s.bump((next() % n) as Var);
                    rescales += usize::from(s.act_inc < inc);
                    s.act_inc *= 1.05;
                }
                4 | 5 => {
                    let want = (0..n as Var)
                        .filter(|&v| s.assign[v as usize] == Value::Unassigned)
                        .max_by_key(|&v| (s.activity[v as usize].to_bits(), v));
                    let got = s.pick_branch_var();
                    assert_eq!(got, want, "step {step}");
                    if let Some(v) = got {
                        s.trail_lim.push(s.trail.len());
                        s.enqueue(Lit::new(v, next().is_multiple_of(2)), None);
                        picks += 1;
                    }
                }
                6 => {
                    // Assigned without a decision, as propagation does: the
                    // variable stays in the heap until a pick skips it.
                    let v = (next() % n) as Var;
                    if s.decision_level() > 0 && s.assign[v as usize] == Value::Unassigned {
                        s.enqueue(Lit::new(v, true), None);
                    }
                }
                _ => {
                    let level = next() % (u64::from(s.decision_level()) + 1);
                    s.backtrack(level as u32);
                }
            }
            check_heap(&s);
        }
        assert!(picks > 1000, "{picks} picks");
        assert!(rescales > 0, "no activity rescale was exercised");
    }

    /// The running clause counts match a recount of the headers through
    /// learning and deletion, and compacting the arena keeps every live
    /// clause's literals, so the solver answers as an undeleting one does.
    #[test]
    fn clause_counts_and_arena_survive_deletion() {
        let aggressive = SatOptions {
            restart_unit: 1,
            clause_db: ClauseDbOptions {
                first_reduce: 1,
                reduce_inc: 0,
                glue_lbd: 1,
            },
        };
        let undeleting = SatOptions {
            clause_db: ClauseDbOptions {
                first_reduce: u64::MAX,
                ..aggressive.clause_db
            },
            ..aggressive
        };
        let mut next = xorshift(0x5eed);
        let n = 60u64;
        let clauses: Vec<Vec<Lit>> = (0..250)
            .map(|_| {
                (0..3)
                    .map(|_| lit((next() % n) as Var, next().is_multiple_of(2)))
                    .collect()
            })
            .collect();
        let build = |options| {
            let mut s = SatSolver::with_options(options);
            (0..n).for_each(|_| {
                s.new_var();
            });
            for c in &clauses {
                s.add_clause(c.clone());
            }
            s
        };
        let (mut s, mut reference) = (build(aggressive), build(undeleting));
        let live_lits = |s: &SatSolver| -> Vec<Vec<Lit>> {
            s.clauses
                .iter()
                .map(|c| {
                    let mut lits = s.arena[c.range()].to_vec();
                    lits.sort();
                    lits
                })
                .collect()
        };
        let mut verdicts = Vec::new();
        for round in 0..12 {
            let assumptions: Vec<Lit> = (0..6)
                .map(|_| lit((next() % n) as Var, next().is_multiple_of(2)))
                .collect();
            let got = s.solve_under(&assumptions);
            assert_eq!(got, reference.solve_under(&assumptions), "round {round}");
            verdicts.push(got);
            let live = s.clauses.iter().filter(|c| !c.deleted);
            assert_eq!(s.num_clauses(), live.clone().count());
            // No theory here, so the learned clauses are the deletable ones.
            assert_eq!(s.num_learned(), live.filter(|c| c.deletable).count());
            let live_len: usize = s.clauses.iter().map(|c| c.len as usize).sum();
            assert_eq!(s.arena.len(), live_len + s.wasted);
            let before = live_lits(&s);
            s.compact();
            assert_eq!(
                live_lits(&s),
                before,
                "round {round}: compaction moved literals"
            );
            assert_eq!(s.arena.len(), live_len);
        }
        assert!(s.learned_deleted > 0, "no deletion was exercised");
        assert!(verdicts.contains(&SatResult::Sat) && verdicts.contains(&SatResult::Unsat));
    }

    /// Every solve starts the restart schedule at its beginning. Under Luby
    /// unit 1 a segment restarts after its second conflict, so a run of
    /// one-conflict-budget solves never restarts however many conflicts it
    /// adds up to, while one long solve of the same instance does.
    #[test]
    fn fresh_solve_rewinds_restart_schedule() {
        let options = SatOptions {
            restart_unit: 1,
            ..SatOptions::default()
        };
        // Pigeonhole 6 into 5: unsatisfiable, and far from refuted after a
        // few dozen conflicts.
        let pigeonhole = || {
            let mut s = SatSolver::with_options(options);
            let p: Vec<Vec<Var>> = (0..6)
                .map(|_| (0..5).map(|_| s.new_var()).collect())
                .collect();
            for row in &p {
                s.add_clause(row.iter().map(|&v| lit(v, true)).collect());
            }
            for j in 0..5 {
                let hole: Vec<Var> = p.iter().map(|row| row[j]).collect();
                for (i, &a) in hole.iter().enumerate() {
                    for &b in &hole[i + 1..] {
                        s.add_clause(vec![lit(a, false), lit(b, false)]);
                    }
                }
            }
            s
        };
        let mut short = pigeonhole();
        for _ in 0..20 {
            assert_eq!(short.solve_with_budget(1), SatResult::Unknown);
        }
        assert!(short.conflicts >= 20, "conflicts {}", short.conflicts);
        assert_eq!(short.restarts, 0);
        let mut long = pigeonhole();
        assert_eq!(long.solve(), SatResult::Unsat);
        assert!(long.restarts > 0, "conflicts {}", long.conflicts);
    }

    /// When the toy theory checks and what it hands back.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Mode {
        /// Complete assignments only.
        Lazy,
        /// Every propagation fixpoint.
        Eager,
        /// Every propagation fixpoint, implying the other members of a group
        /// with a true member false.
        Implying,
    }

    /// A toy theory for the SAT–theory seam: pairwise at-most-one groups
    /// plus *forbidden* variables (which must be false). The eager variant
    /// checks at every propagation fixpoint with state bound to the trail
    /// through the low-water mark; the lazy variant only checks complete
    /// assignments, so its conflicts sit below the current decision level;
    /// the implying variant is eager and also implies, once a group member
    /// is true, every other member false, explained by that member.
    struct AtMostOne {
        group_of: Vec<Option<usize>>,
        groups: Vec<Vec<Var>>,
        forbidden: Vec<bool>,
        mode: Mode,
        /// `(trail position, var)` of the true group members read so far.
        members: Vec<(usize, Var)>,
        /// The true member of each group, if any.
        holder: Vec<Option<Var>>,
        /// Per variable: the member whose truth implied it false.
        implied_by: Vec<Option<Var>>,
        seen: usize,
        conflicts: usize,
        explained: usize,
    }

    impl AtMostOne {
        fn new(num_vars: usize, groups: &[Vec<Var>], forbidden: &[Var], mode: Mode) -> AtMostOne {
            let mut group_of = vec![None; num_vars];
            for (g, vars) in groups.iter().enumerate() {
                for &v in vars {
                    group_of[v as usize] = Some(g);
                }
            }
            let mut forbid = vec![false; num_vars];
            for &v in forbidden {
                forbid[v as usize] = true;
            }
            AtMostOne {
                group_of,
                groups: groups.to_vec(),
                forbidden: forbid,
                mode,
                members: Vec::new(),
                holder: vec![None; groups.len()],
                implied_by: vec![None; num_vars],
                seen: 0,
                conflicts: 0,
                explained: 0,
            }
        }

        /// Reads `trail[from..]` into the state; the first violation found
        /// comes back as a falsified clause.
        fn read(&mut self, trail: &[Lit], from: usize) -> TheoryVerdict {
            for (pos, &l) in trail.iter().enumerate().skip(from) {
                if !l.is_positive() {
                    continue;
                }
                let v = l.var();
                let clause = if self.forbidden[v as usize] {
                    Some(vec![l.negate()])
                } else if let Some(g) = self.group_of[v as usize] {
                    match self.holder[g] {
                        Some(u) => Some(vec![Lit::new(u, false), l.negate()]),
                        None => {
                            self.holder[g] = Some(v);
                            self.members.push((pos, v));
                            None
                        }
                    }
                } else {
                    None
                };
                if let Some(clause) = clause {
                    self.seen = pos;
                    self.conflicts += 1;
                    return TheoryVerdict::Conflict(clause);
                }
            }
            self.seen = trail.len();
            TheoryVerdict::Consistent
        }
    }

    impl TheoryHook for AtMostOne {
        fn fixpoint(
            &mut self,
            trail: &[Lit],
            low_water: usize,
            implied: &mut Vec<Lit>,
        ) -> TheoryVerdict {
            if self.mode == Mode::Lazy {
                return TheoryVerdict::Consistent;
            }
            let low = self.seen.min(low_water);
            while let Some(&(pos, v)) = self.members.last() {
                if pos < low {
                    break;
                }
                self.members.pop();
                self.holder[self.group_of[v as usize].expect("member")] = None;
            }
            let verdict = self.read(trail, low);
            if verdict == TheoryVerdict::Consistent {
                // The incremental state matches a rescan of the whole trail:
                // the low-water contract held.
                let mut fresh = AtMostOne::new(self.group_of.len(), &self.groups, &[], Mode::Eager);
                fresh.forbidden = self.forbidden.clone();
                assert_eq!(fresh.read(trail, 0), TheoryVerdict::Consistent);
                assert_eq!(fresh.holder, self.holder, "state drifted from the trail");
            }
            if verdict == TheoryVerdict::Consistent && self.mode == Mode::Implying {
                let mut assigned = vec![false; self.group_of.len()];
                for l in trail {
                    assigned[l.var() as usize] = true;
                }
                for (g, holder) in self.holder.iter().enumerate() {
                    let Some(h) = *holder else { continue };
                    for &u in &self.groups[g] {
                        if !assigned[u as usize] {
                            self.implied_by[u as usize] = Some(h);
                            implied.push(Lit::new(u, false));
                        }
                    }
                }
            }
            verdict
        }

        fn explain(&mut self, lit: Lit) -> Vec<Lit> {
            assert!(!lit.is_positive(), "only falsehoods are implied: {lit:?}");
            self.explained += 1;
            let h = self.implied_by[lit.var() as usize].expect("implied literal");
            vec![Lit::new(h, true)]
        }

        fn final_check(&mut self, trail: &[Lit]) -> TheoryVerdict {
            if self.mode != Mode::Lazy {
                return TheoryVerdict::Consistent;
            }
            self.members.clear();
            self.holder.iter_mut().for_each(|h| *h = None);
            self.read(trail, 0)
        }
    }

    /// The theory's constraints as plain clauses, for the reference solver.
    fn amo_clauses(groups: &[Vec<Var>], forbidden: &[Var]) -> Vec<Vec<Lit>> {
        let mut out = Vec::new();
        for g in groups {
            for (i, &a) in g.iter().enumerate() {
                for &b in &g[i + 1..] {
                    out.push(vec![lit(a, false), lit(b, false)]);
                }
            }
        }
        out.extend(forbidden.iter().map(|&v| vec![lit(v, false)]));
        out
    }

    /// Directed: the lazy theory finds `a ∧ b` (both at level 1) only on the
    /// complete assignment at level 3 — a conflict below the current level
    /// with two literals at its highest level, so it is analysed (first UIP
    /// `¬a`, learned as a unit) — and the failed assumption's core is `{a}`.
    #[test]
    fn theory_conflict_below_the_current_level_is_analysed() {
        let mut s = SatSolver::new();
        let [a, b, c, d] = [0; 4].map(|_| s.new_var());
        s.add_clause(vec![lit(a, false), lit(b, true)]);
        let mut theory = AtMostOne::new(4, &[vec![a, b]], &[], Mode::Lazy);
        let assumptions = [lit(a, true), lit(c, true), lit(d, true)];
        assert_eq!(
            s.solve_under_with(&assumptions, &mut theory),
            SatResult::Unsat
        );
        assert_eq!(theory.conflicts, 1);
        assert_eq!(s.unsat_core, vec![lit(a, true)]);
        // The learned unit ¬a lives at level 0 now.
        assert_eq!(s.value(a), Some(false));
        // Without the culprit assumption the problem is satisfiable.
        assert_eq!(
            s.solve_under_with(&[lit(c, true)], &mut theory),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(false));
    }

    /// Directed: an asserting theory clause (one literal at its highest
    /// level) backjumps to the second-highest level and propagates there,
    /// and the assumption core names both culprits.
    #[test]
    fn asserting_theory_clause_blames_both_assumptions() {
        let mut s = SatSolver::new();
        let [a, b, c] = [0; 3].map(|_| s.new_var());
        let mut theory = AtMostOne::new(3, &[vec![a, b]], &[], Mode::Lazy);
        let assumptions = [lit(a, true), lit(b, true), lit(c, true)];
        assert_eq!(
            s.solve_under_with(&assumptions, &mut theory),
            SatResult::Unsat
        );
        assert_eq!(s.unsat_core, vec![lit(a, true), lit(b, true)]);
        assert!(
            s.ok,
            "an assumption conflict leaves the clause set consistent"
        );
        assert_eq!(
            s.solve_under_with(&[lit(b, true)], &mut theory),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(false));
    }

    /// Directed: a unit theory lemma (`f` is forbidden) is asserted at level
    /// 0 and propagates there: assuming `a` (which implies `f`) fails with
    /// core `{a}`, and `¬a` stays a root-level fact.
    #[test]
    fn unit_theory_lemma_asserts_at_level_zero() {
        let mut s = SatSolver::new();
        let [a, f] = [0; 2].map(|_| s.new_var());
        s.add_clause(vec![lit(a, false), lit(f, true)]);
        let mut theory = AtMostOne::new(2, &[], &[f], Mode::Eager);
        assert_eq!(
            s.solve_under_with(&[lit(a, true)], &mut theory),
            SatResult::Unsat
        );
        assert_eq!(s.unsat_core, vec![lit(a, true)]);
        assert_eq!(s.value(f), Some(false));
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.level[f as usize], 0);
        assert_eq!(s.solve_under_with(&[], &mut theory), SatResult::Sat);
    }

    /// Directed: a theory conflict among level-0 literals is unsatisfiable
    /// outright, with an empty core, and stays so.
    #[test]
    fn level_zero_theory_conflict_is_unsat() {
        let mut s = SatSolver::new();
        let [f, x] = [0; 2].map(|_| s.new_var());
        s.add_clause(vec![lit(f, true)]);
        let mut theory = AtMostOne::new(2, &[], &[f], Mode::Eager);
        assert_eq!(
            s.solve_under_with(&[lit(x, true)], &mut theory),
            SatResult::Unsat
        );
        assert!(s.unsat_core.is_empty());
        assert!(!s.ok);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    /// Directed: first-UIP analysis resolves through a theory-implied
    /// literal. Assuming `a` propagates `d`; the theory implies `¬b` (group
    /// `{a, b}`), which propagates `e` and falsifies `b ∨ ¬e ∨ ¬d`. The
    /// analysis walks `e`, then `¬b` through its lazy reason `¬b ∨ ¬a`, then
    /// `d`, and stops at the UIP `¬a`, learned as a unit: no theory conflict
    /// is ever needed.
    #[test]
    fn analysis_resolves_through_a_theory_implied_literal() {
        let mut s = SatSolver::new();
        let [a, b, d, e] = [0; 4].map(|_| s.new_var());
        s.add_clause(vec![lit(a, false), lit(d, true)]);
        s.add_clause(vec![lit(b, true), lit(e, true)]);
        s.add_clause(vec![lit(b, true), lit(e, false), lit(d, false)]);
        let mut theory = AtMostOne::new(4, &[vec![a, b]], &[], Mode::Implying);
        assert_eq!(
            s.solve_under_with(&[lit(a, true)], &mut theory),
            SatResult::Unsat
        );
        assert_eq!(theory.conflicts, 0);
        assert_eq!(theory.explained, 1);
        assert!(s.theory_propagations >= 1);
        assert_eq!(s.unsat_core, vec![lit(a, true)]);
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.level[a as usize], 0, "¬a is the learned unit");
    }

    /// Directed: the final-conflict analysis expands a theory-implied
    /// literal through its explanation. Assuming `a` implies `¬b`, so the
    /// assumption `b` is already false when it is decided, and the core
    /// names both assumptions without any theory conflict.
    #[test]
    fn assumption_core_resolves_through_a_theory_implied_literal() {
        let mut s = SatSolver::new();
        let [a, b, c] = [0; 3].map(|_| s.new_var());
        let mut theory = AtMostOne::new(3, &[vec![a, b]], &[], Mode::Implying);
        let assumptions = [lit(a, true), lit(b, true), lit(c, true)];
        assert_eq!(
            s.solve_under_with(&assumptions, &mut theory),
            SatResult::Unsat
        );
        assert_eq!(theory.conflicts, 0);
        assert_eq!(theory.explained, 1);
        assert_eq!(s.unsat_core, vec![lit(a, true), lit(b, true)]);
        assert_eq!(
            s.solve_under_with(&[lit(b, true)], &mut theory),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(false));
    }

    /// Differential: random seeded CNFs with at-most-one groups and
    /// forbidden variables, solved with the theory in the loop (eager, lazy
    /// and implying) and with the same constraints given as clauses, under
    /// random assumptions. Verdicts agree, models satisfy everything, and
    /// cores are sufficient assumption subsets.
    #[test]
    fn toy_theory_agrees_with_its_clausal_encoding() {
        let mut state = 0x51_7e_a5_ed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 14usize;
        let (mut sat, mut unsat, mut theory_conflicts, mut explained) = (0, 0, 0, 0);
        for instance in 0..120 {
            let cnf: Vec<Vec<Lit>> = (0..34)
                .map(|_| {
                    (0..3)
                        .map(|_| lit((next() % n as u64) as Var, next() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut vars: Vec<Var> = (0..n as Var).collect();
            for i in (1..vars.len()).rev() {
                vars.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let groups: Vec<Vec<Var>> = vars[..9].chunks(3).map(|c| c.to_vec()).collect();
            let forbidden = vec![vars[9]];
            let assumptions: Vec<Lit> = (0..next() % 4)
                .map(|_| lit((next() % n as u64) as Var, next() % 3 != 0))
                .collect();

            let mut reference = SatSolver::new();
            (0..n).for_each(|_| {
                reference.new_var();
            });
            for c in cnf.iter().chain(&amo_clauses(&groups, &forbidden)) {
                reference.add_clause(c.clone());
            }
            let want = reference.solve_under(&assumptions);

            for mode in [Mode::Eager, Mode::Lazy, Mode::Implying] {
                let mut s = SatSolver::new();
                (0..n).for_each(|_| {
                    s.new_var();
                });
                for c in &cnf {
                    s.add_clause(c.clone());
                }
                let mut theory = AtMostOne::new(n, &groups, &forbidden, mode);
                let got = s.solve_under_with(&assumptions, &mut theory);
                theory_conflicts += theory.conflicts;
                assert_eq!(got, want, "instance {instance} ({mode:?})");
                match got {
                    SatResult::Sat => {
                        let value = |l: &Lit| s.value(l.var()) == Some(l.is_positive());
                        for c in cnf.iter().chain(&amo_clauses(&groups, &forbidden)) {
                            assert!(
                                c.iter().any(value),
                                "instance {instance}: model breaks {c:?}"
                            );
                        }
                        assert!(assumptions.iter().all(value));
                    }
                    SatResult::Unsat => {
                        let core = s.unsat_core.clone();
                        assert!(core.iter().all(|l| assumptions.contains(l)));
                        if s.ok {
                            assert_eq!(
                                s.solve_under_with(&core, &mut theory),
                                SatResult::Unsat,
                                "instance {instance}: core {core:?} is not sufficient"
                            );
                        }
                    }
                    SatResult::Unknown => panic!("no budget was set"),
                }
                explained += theory.explained;
                if mode != Mode::Implying {
                    assert_eq!(s.theory_propagations, 0);
                }
            }
            match want {
                SatResult::Sat => sat += 1,
                _ => unsat += 1,
            }
        }
        assert!(
            sat >= 20 && unsat >= 20,
            "unbalanced corpus: {sat} sat, {unsat} unsat"
        );
        assert!(
            theory_conflicts >= 100,
            "theory too quiet: {theory_conflicts}"
        );
        assert!(
            explained >= 20,
            "implied literals too rarely explained: {explained}"
        );
    }
}
