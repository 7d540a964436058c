//! A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
//! learning, VSIDS-style variable activities, phase saving, configurable
//! (Luby or geometric) restarts and LBD-based learned-clause database
//! management.
//!
//! The DPLL(T) integration is online: the incremental solver
//! ([`crate::incremental`]) plugs a [`TheoryHook`] into the search loop
//! itself ([`SatSolver::solve_under_with`]), so the theory sees every
//! propagation fixpoint, and a theory conflict clause is learned and analysed
//! like a Boolean conflict, at the level where it arose.
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
//! used as `reason` handles and in watch lists) but drops its literals; watch
//! lists shed dead indices lazily during propagation.

use std::fmt;

/// The restart schedule of the CDCL search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart after `unit * luby(i)` conflicts, where `luby` is the Luby
    /// sequence 1,1,2,1,1,2,4,… — the de-facto standard schedule: frequent
    /// cheap restarts interleaved with exponentially growing deep dives.
    Luby {
        /// Base number of conflicts multiplied by the Luby sequence.
        unit: u64,
    },
    /// The legacy schedule: first restart after `start` conflicts, each
    /// subsequent limit 1.5× the previous.
    Geometric {
        /// Conflicts before the first restart.
        start: u64,
    },
}

/// Learned-clause database management knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClauseDbOptions {
    /// Whether periodic deletion runs at all (off reproduces the legacy
    /// keep-everything behaviour).
    pub enabled: bool,
    /// Conflicts before the first `reduce_db` run.
    pub first_reduce: u64,
    /// How much the reduction interval grows after every reduction.
    pub reduce_inc: u64,
    /// Clauses with an LBD at or below this are *glue* and never deleted.
    pub glue_lbd: u32,
}

/// Tuning options of the SAT core (restart schedule + clause database).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatOptions {
    /// Restart schedule.
    pub restart: RestartPolicy,
    /// Learned-clause database management.
    pub clause_db: ClauseDbOptions,
}

impl Default for SatOptions {
    /// The tuned profile: Luby restarts and LBD-based clause deletion.
    fn default() -> SatOptions {
        SatOptions {
            restart: RestartPolicy::Luby { unit: 100 },
            clause_db: ClauseDbOptions {
                enabled: true,
                first_reduce: 2000,
                reduce_inc: 300,
                glue_lbd: 2,
            },
        }
    }
}

impl SatOptions {
    /// The pre-tuning behaviour: geometric restarts, no clause deletion.
    pub fn legacy() -> SatOptions {
        SatOptions {
            restart: RestartPolicy::Geometric { start: 100 },
            clause_db: ClauseDbOptions {
                enabled: false,
                first_reduce: u64::MAX,
                reduce_inc: 0,
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
pub trait TheoryHook {
    /// Called at every propagation fixpoint without a Boolean conflict.
    /// Trail positions below `low_water` hold the literals the previous call
    /// saw; positions at or above it may have changed (backtracking lowers
    /// the mark). The first call of a solve passes `0`.
    fn fixpoint(&mut self, trail: &[Lit], low_water: usize) -> TheoryVerdict;

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
    fn fixpoint(&mut self, _trail: &[Lit], _low_water: usize) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }

    fn final_check(&mut self, _trail: &[Lit]) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }
}

/// What [`SatSolver::learn_theory_conflict`] made of a theory conflict.
enum TheoryLemma {
    /// The clause is falsified at level 0: unsatisfiable.
    Unsat,
    /// The clause had one literal at its highest level: the solver
    /// backjumped and asserted it (the clause is its own first UIP).
    Asserted,
    /// The clause is falsified at the (new) current level with at least two
    /// literals there; first-UIP analysis must run on this clause index.
    Analyze(usize),
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

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    /// Learned clauses that [`SatSolver::reduce_db`] may delete: first-UIP
    /// resolvents only. Input and theory conflict clauses are protected (see
    /// the module documentation).
    deletable: bool,
    /// Tombstone: the clause is logically gone but keeps its index so that
    /// `reason` handles and watch lists stay valid; `lits` is emptied.
    deleted: bool,
    /// Literal-block distance at learning time (0 for non-deletable clauses).
    lbd: u32,
    /// Bump-and-decay activity, the deletion tie-breaker within an LBD band.
    activity: f64,
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
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>, // indexed by literal
    assign: Vec<Value>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Max-heap of (activity bits, var) used to pick decision variables
    /// without scanning every variable. Entries may be stale (the activity
    /// may have changed since insertion); staleness only degrades the
    /// heuristic, never correctness, because every unassigned variable is
    /// guaranteed to have at least one entry.
    order: std::collections::BinaryHeap<(u64, Var)>,
    phase: Vec<bool>,
    /// Literals assumed true for the duration of one `solve_under` call.
    /// Assumptions are decided before any free decision; conflict analysis
    /// never resolves on them, so learned clauses stay globally valid.
    assumptions: Vec<Lit>,
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
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push((0, v));
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

    fn attach_clause(&mut self, lits: Vec<Lit>, learned: bool, deletable: bool, lbd: u32) -> usize {
        let idx = self.clauses.len();
        self.watches[lits[0].negate().index()].push(idx);
        self.watches[lits[1].negate().index()].push(idx);
        self.clauses.push(Clause {
            lits,
            learned,
            deletable,
            deleted: false,
            lbd,
            activity: 0.0,
        });
        idx
    }

    /// The number of distinct decision levels among a clause's literals — the
    /// Glucose "literal block distance" quality measure (lower is better).
    fn lbd_of(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var() as usize]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].deletable {
            return;
        }
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
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
    fn propagate(&mut self) -> Option<usize> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // Clauses watching ~l need attention (we store watches under the
            // literal that, when made true, might falsify the watched lit).
            let watch_list = std::mem::take(&mut self.watches[l.index()]);
            let mut keep = Vec::with_capacity(watch_list.len());
            let mut conflict = None;
            let mut wi = 0;
            while wi < watch_list.len() {
                let ci = watch_list[wi];
                wi += 1;
                if self.clauses[ci].deleted {
                    // Lazy watch-list cleanup: dead indices are dropped the
                    // first time propagation visits them.
                    continue;
                }
                let watched_false = l.negate();
                // Ensure the false literal is at position 1.
                if self.clauses[ci].lits[0] == watched_false {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.lit_value(first) == Value::True {
                    keep.push(ci);
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.lit_value(cand) != Value::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.negate().index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                keep.push(ci);
                if self.lit_value(first) == Value::False {
                    // Conflict.
                    keep.extend_from_slice(&watch_list[wi..]);
                    conflict = Some(ci);
                    break;
                } else {
                    self.enqueue(first, Some(ci));
                }
            }
            self.watches[l.index()] = {
                let mut w = keep;
                w.extend(std::mem::take(&mut self.watches[l.index()]));
                w
            };
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
        }
        self.order.push((self.activity[v as usize].to_bits(), v));
    }

    /// First-UIP conflict analysis. Returns the learned clause and the level
    /// to backjump to.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![];
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let cur_level = self.decision_level();

        loop {
            self.bump_clause(clause_idx);
            let lits: Vec<Lit> = self.clauses[clause_idx].lits.clone();
            for &q in &lits {
                // Skip the literal we are currently resolving on (it occurs in
                // its own reason clause with the opposite polarity).
                if p.is_some_and(|pl| pl.var() == q.var()) {
                    continue;
                }
                let v = q.var() as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] == cur_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next literal on the trail (at current level) to resolve.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if seen[l.var() as usize] {
                    p = Some(l.negate());
                    seen[l.var() as usize] = false;
                    counter -= 1;
                    if counter == 0 {
                        break;
                    }
                    clause_idx = self.reason[l.var() as usize].expect("reason for implied lit");
                    break;
                }
            }
            if counter == 0 {
                break;
            }
        }
        let uip = p.expect("first UIP literal");
        learned.insert(0, uip);
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
            self.order.push((self.activity[v].to_bits(), l.var()));
        }
        self.trail_lim.truncate(level as usize);
        self.prop_head = self.trail.len();
        self.theory_low = self.theory_low.min(target);
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some((_, v)) = self.order.pop() {
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
        self.assumptions = assumptions.to_vec();
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
        let mut restart_limit = match self.options.restart {
            RestartPolicy::Luby { unit } => unit.max(1) * luby(1),
            RestartPolicy::Geometric { start } => start.max(1),
        };
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
        loop {
            // A conflict to analyse: a falsified clause at the current level.
            // `None` after a theory lemma that asserted its literal directly.
            let mut conflict = self.propagate();
            if conflict.is_none() {
                let low_water = std::mem::replace(&mut self.theory_low, self.trail.len());
                let clause = match theory.fixpoint(&self.trail, low_water) {
                    TheoryVerdict::Unknown => return SatResult::Unknown,
                    TheoryVerdict::Conflict(clause) => clause,
                    TheoryVerdict::Consistent => match self.decide() {
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
                let (learned, bj) = self.analyze(conf);
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
                    let ci = self.attach_clause(learned.clone(), true, true, lbd);
                    self.bump_clause(ci);
                    self.enqueue(learned[0], Some(ci));
                }
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
                restart_limit = match self.options.restart {
                    RestartPolicy::Luby { unit } => unit.max(1) * luby(restarts_here + 1),
                    RestartPolicy::Geometric { .. } => restart_limit + restart_limit / 2,
                };
                self.backtrack(0);
                if self.options.clause_db.enabled
                    && self.conflicts_since_reduce >= self.reduce_limit
                {
                    self.reduce_db();
                }
            }
        }
    }

    /// Puts the next decision on the trail. Assumptions are (re-)decided
    /// before any free decision; a backjump or restart may have undone some
    /// of them.
    fn decide(&mut self) -> Decision {
        for i in 0..self.assumptions.len() {
            let a = self.assumptions[i];
            match self.lit_value(a) {
                Value::True => continue,
                // Implied false by clauses and earlier assumptions alone:
                // unsatisfiable under the assumptions. The clause set itself
                // stays consistent (`ok` untouched).
                Value::False => {
                    self.unsat_core = self.analyze_final(a);
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
            let ci = self.attach_clause(lits.clone(), true, false, 0);
            self.enqueue(lits[0], Some(ci));
            return TheoryLemma::Asserted;
        }
        self.backtrack(top);
        TheoryLemma::Analyze(self.attach_clause(lits, true, false, 0))
    }

    /// MiniSat-style `analyzeFinal`: given an assumption literal found false
    /// under the current trail, walks the implication graph backwards and
    /// collects the subset of assumptions responsible — the unsat core.
    ///
    /// Soundness rests on the decision discipline of `search`: assumptions
    /// are (re-)decided before any free decision, and a free decision can
    /// only be on the trail while *every* assumption is assigned true — so
    /// when an assumption evaluates false, every `reason == None` ancestor
    /// above level 0 is itself an assumption. Level-0 implications hold
    /// unconditionally and contribute nothing.
    fn analyze_final(&self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        let mut seen = vec![false; self.num_vars()];
        seen[failed.var() as usize] = true;
        for &l in self.trail.iter().rev() {
            let v = l.var() as usize;
            if !seen[v] {
                continue;
            }
            seen[v] = false;
            if self.level[v] == 0 {
                continue;
            }
            match self.reason[v] {
                None => core.push(l),
                Some(ci) => {
                    for &q in &self.clauses[ci].lits {
                        if q.var() as usize != v && self.level[q.var() as usize] > 0 {
                            seen[q.var() as usize] = true;
                        }
                    }
                }
            }
        }
        core.sort();
        core.dedup();
        core
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
        let locked: std::collections::HashSet<usize> = self
            .trail
            .iter()
            .filter_map(|l| self.reason[l.var() as usize])
            .collect();
        let glue = self.options.clause_db.glue_lbd;
        let mut cands: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| {
                let c = &self.clauses[ci];
                c.deletable && !c.deleted && c.lbd > glue && !locked.contains(&ci)
            })
            .collect();
        // Worst first: high LBD, then low activity (ties by index for
        // determinism — f64 activities of distinct clauses rarely tie, but
        // the sort must be total either way).
        cands.sort_unstable_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.total_cmp(&cb.activity))
                .then(a.cmp(&b))
        });
        for &ci in &cands[..cands.len() / 2] {
            let c = &mut self.clauses[ci];
            c.deleted = true;
            c.lits = Vec::new();
            self.learned_deleted += 1;
        }
    }

    /// Number of live clauses currently stored (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Number of live learned clauses currently stored.
    pub fn num_learned(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| c.learned && !c.deleted)
            .count()
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

    /// Every solve starts the restart schedule at its beginning. Under Luby
    /// unit 1 a segment restarts after its second conflict, so a run of
    /// one-conflict-budget solves never restarts however many conflicts it
    /// adds up to, while one long solve of the same instance does.
    #[test]
    fn fresh_solve_rewinds_restart_schedule() {
        let options = SatOptions {
            restart: RestartPolicy::Luby { unit: 1 },
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

    /// A toy theory for the SAT–theory seam: pairwise at-most-one groups
    /// plus *forbidden* variables (which must be false). The eager variant
    /// checks at every propagation fixpoint with state bound to the trail
    /// through the low-water mark; the lazy variant only checks complete
    /// assignments, so its conflicts sit below the current decision level.
    struct AtMostOne {
        group_of: Vec<Option<usize>>,
        forbidden: Vec<bool>,
        eager: bool,
        /// `(trail position, var)` of the true group members read so far.
        members: Vec<(usize, Var)>,
        /// The true member of each group, if any.
        holder: Vec<Option<Var>>,
        seen: usize,
        conflicts: usize,
    }

    impl AtMostOne {
        fn new(num_vars: usize, groups: &[Vec<Var>], forbidden: &[Var], eager: bool) -> AtMostOne {
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
                forbidden: forbid,
                eager,
                members: Vec::new(),
                holder: vec![None; groups.len()],
                seen: 0,
                conflicts: 0,
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
        fn fixpoint(&mut self, trail: &[Lit], low_water: usize) -> TheoryVerdict {
            if !self.eager {
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
                let mut fresh = AtMostOne {
                    members: Vec::new(),
                    holder: vec![None; self.holder.len()],
                    seen: 0,
                    group_of: self.group_of.clone(),
                    forbidden: self.forbidden.clone(),
                    eager: true,
                    conflicts: 0,
                };
                assert_eq!(fresh.read(trail, 0), TheoryVerdict::Consistent);
                assert_eq!(fresh.holder, self.holder, "state drifted from the trail");
            }
            verdict
        }

        fn final_check(&mut self, trail: &[Lit]) -> TheoryVerdict {
            if self.eager {
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
        let mut theory = AtMostOne::new(4, &[vec![a, b]], &[], false);
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
        let mut theory = AtMostOne::new(3, &[vec![a, b]], &[], false);
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
        let mut theory = AtMostOne::new(2, &[], &[f], true);
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
        let mut theory = AtMostOne::new(2, &[], &[f], true);
        assert_eq!(
            s.solve_under_with(&[lit(x, true)], &mut theory),
            SatResult::Unsat
        );
        assert!(s.unsat_core.is_empty());
        assert!(!s.ok);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    /// Differential: random seeded CNFs with at-most-one groups and
    /// forbidden variables, solved with the theory in the loop (eager and
    /// lazy) and with the same constraints given as clauses, under random
    /// assumptions. Verdicts agree, models satisfy everything, and cores are
    /// sufficient assumption subsets.
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
        let (mut sat, mut unsat, mut theory_conflicts) = (0, 0, 0);
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

            for eager in [true, false] {
                let mut s = SatSolver::new();
                (0..n).for_each(|_| {
                    s.new_var();
                });
                for c in &cnf {
                    s.add_clause(c.clone());
                }
                let mut theory = AtMostOne::new(n, &groups, &forbidden, eager);
                let got = s.solve_under_with(&assumptions, &mut theory);
                theory_conflicts += theory.conflicts;
                assert_eq!(got, want, "instance {instance} (eager {eager})");
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
    }
}
