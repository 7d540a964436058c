//! The push/pop incremental solver: shared solver state across a sequence of
//! related queries.
//!
//! This is the crate's one DPLL(T) loop. [`crate::Solver`] runs it one-shot:
//! a fresh session per query, its assertions at base scope, one check — the
//! right shape for a lone VC, but wasteful when dozens of queries share a
//! large prelude (a method's typing hypotheses, heap axioms and
//! local-condition definitions). A long-lived [`IncrementalSolver`] keeps
//! every layer of that work alive across checks:
//!
//! * **Lowering** — a persistent [`crate::lower::LowerCtx`] instantiates the
//!   set/array axioms once per (trigger, element) pair, no matter how many
//!   checks mention them. Axioms and Skolem definitions are *permanent facts*
//!   (valid, or definitional over globally fresh symbols), so they survive
//!   `pop` soundly.
//! * **CNF/SAT** — one growing [`crate::sat::SatSolver`]. The lowering's
//!   axiom instances and trichotomy lemmas enter it as their kinds' clauses
//!   ([`crate::cnf::assert_instance`]: a union membership is three clauses,
//!   a store hit one), its `ite` definitions and folded instances as
//!   clausal facts ([`crate::cnf::assert_fact`]), and each asserted root as
//!   its Tseitin literal ([`crate::cnf::encode_root`]) behind a guard
//!   clause. An instance's atoms are registered with the theory layer as
//!   they are, right to left; only roots, `ite` definitions and folded
//!   instances are walked for their atoms. Assertions made inside a
//!   [`IncrementalSolver::push`] scope carry a negated *activation
//!   literal*; a check assumes the activation literals of the live scopes
//!   ([`crate::sat::SatSolver::solve_under`]), and
//!   [`IncrementalSolver::pop`] retracts the scope by permanently
//!   asserting the negated activation literal. Learned clauses — including
//!   theory conflict clauses — are globally valid and are kept forever.
//! * **Theory** — one online theory layer (`crate::online`, EUF and
//!   arithmetic under a combiner) driven from inside the CDCL search
//!   ([`crate::sat::SatSolver::solve_under_with`]). Its atom registry, a
//!   [`crate::theory::TheoryChecker`] whose congruence template and linear
//!   forms are *extended* as new atoms appear, and its congruence state,
//!   which grows in place with the registry, persist across checks; each
//!   check hands it the newly encoded atoms and the live ones in one call.
//!   At every propagation fixpoint it retracts what the SAT core
//!   backtracked over, asserts the EUF part of the new theory literals,
//!   checks the disequalities, then asserts their simplex bounds and the
//!   equalities between numeric terms that their merges implied, and runs
//!   the rational simplex check; on a complete assignment it only adds what
//!   needs one, integer branch-and-bound. A theory conflict is learned and
//!   analysed at the level where it arose, so one check is one search, not
//!   a loop of searches. A consistent fixpoint also hands back the atom
//!   literals congruence already decides (equalities whose sides are
//!   merged, predicates whose class holds `true`/`false`, equalities an
//!   asserted disequality separates); the SAT core enqueues them with a
//!   theory reason and asks [`crate::sat::TheoryHook::explain`] for their
//!   antecedents only when conflict analysis resolves on one.
//!
//! Model soundness with retraction: atoms that only occur in popped scopes
//! are *dead* — their propositional values are unconstrained don't-cares. The
//! theory check therefore runs on the live atoms only (a var-indexed table
//! built once per check); a consistent live
//! assignment is a genuine model of the active assertions because every
//! remaining clause mentioning dead atoms is either deactivated (by the
//! popped activation literal) or a valid lemma, satisfied by the dead atoms'
//! semantic truth values.
//!
//! # Two-level scope discipline (structure-scoped warm pools)
//!
//! A warm solver pool shares one solver across *all methods of one data
//! structure*: the structure-common hypothesis prelude sits at the base
//! ("structure") scope, each method opens a **method scope**
//! ([`IncrementalSolver::push_method_scope`]) for its method-local residue,
//! and each VC opens an ordinary push/pop scope inside it. The three levels
//! behave differently on retraction:
//!
//! * **Structure scope** (base): assertions, their lowering state, their
//!   instantiated axioms and learned clauses are permanent — they survive
//!   every method and VC pop, which is the whole point of the pool.
//! * **Method scope**: [`IncrementalSolver::push_method_scope`] snapshots
//!   the whole solver — the SAT core, the CNF atom map, the lowering
//!   context, the theory layer and the atom bookkeeping — and
//!   [`IncrementalSolver::pop_method_scope`] restores the snapshot
//!   wholesale. Inside the scope the solver behaves exactly like a plain
//!   per-method session warm-started from the structure scope: residue
//!   assertions are permanent *within the scope*, derived facts are
//!   permanent within the scope, VC scopes nest as usual. Restoring (rather
//!   than deactivating) is what keeps a pool honest: dead methods leave no
//!   SAT variables to decide over, no deactivated clauses in the watch
//!   lists, no stale atoms in the theory template — each successive method
//!   pays for the prelude-free part of itself, not for the whole structure
//!   so far. The snapshot clones are structure-scope-sized (the prelude),
//!   not method-sized.
//! * **VC scope** (plain [`IncrementalSolver::push`]): assertion clauses
//!   carry activation literals and are retracted on pop; derived facts are
//!   permanent (sound — and gone with the method snapshot, if one is open).
//!
//! Quantified formulas are not supported: asserting one puts the solver into
//! a degraded mode where every check answers [`SatResult::Unknown`]. The
//! quantified RQ3 encoding goes through [`crate::Solver`], which eliminates
//! quantifiers before asserting.
//!
//! # Example
//!
//! ```
//! use ids_smt::{IncrementalSolver, SatResult, Sort, TermManager};
//! let mut tm = TermManager::new();
//! let x = tm.var("x", Sort::Int);
//! let zero = tm.int(0);
//! let ge = tm.ge(x, zero);
//! let lt = tm.lt(x, zero);
//! let mut s = IncrementalSolver::new();
//! s.assert(&mut tm, ge); // permanent
//! s.push();
//! s.assert(&mut tm, lt); // scoped: contradicts the permanent assertion
//! assert_eq!(s.check(&mut tm), SatResult::Unsat);
//! s.pop();
//! assert_eq!(s.check(&mut tm), SatResult::Sat); // the contradiction is gone
//! ```

use crate::cnf::{self, encode_root, AtomMap};
use crate::fxmap::{FxHashMap, FxHashSet};
use crate::lower::{Instance, LowerCtx, LoweredBatch};
use crate::model::Model;
use crate::online::Theory;
use crate::quant::contains_forall;
use crate::sat::{Lit, SatResult, SatSolver, Var};
use crate::solver::{SolverConfig, SolverStats};
use crate::term::{Op, Sort, TermId, TermManager};
use crate::theory::TheoryChecker;

/// Where an atom has been used so far: in a permanent assertion (or a derived
/// fact), or only inside the listed push scopes.
#[derive(Clone, Debug)]
enum AtomScope {
    /// Mentioned by at least one permanent assertion — always live.
    Base,
    /// Mentioned only by assertions of these scopes (by scope id); live while
    /// any of them is still on the scope stack.
    Scopes(Vec<u64>),
}

/// One entry of the push/pop stack.
#[derive(Clone, Copy, Debug)]
struct Scope {
    /// Unique id (never reused, so popped ids stay distinguishable).
    id: u64,
    /// Activation variable guarding the scope's assertion clauses.
    act: Var,
}

/// The SAT core's cumulative effort counters at one moment.
#[derive(Clone, Copy, Debug, Default)]
struct SatCounters {
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    theory_propagations: u64,
    restarts: u64,
    learned_deleted: u64,
}

impl SatCounters {
    fn of(sat: &SatSolver) -> SatCounters {
        SatCounters {
            conflicts: sat.conflicts,
            decisions: sat.decisions,
            propagations: sat.propagations,
            theory_propagations: sat.theory_propagations,
            restarts: sat.restarts,
            learned_deleted: sat.learned_deleted,
        }
    }
}

/// An SMT solver with persistent state and a push/pop assertion stack.
///
/// See the [module documentation](self) for the architecture.
#[derive(Clone, Debug)]
pub struct IncrementalSolver {
    config: SolverConfig,
    sat: SatSolver,
    atom_map: AtomMap,
    lower: LowerCtx,
    /// The online theory layer (the atom registry, EUF and simplex), built
    /// at the first check and kept across the search and across checks.
    theory: Option<Theory>,
    /// Atoms encoded since the last check.
    pending_atoms: Vec<TermId>,
    atom_scope: FxHashMap<TermId, AtomScope>,
    /// Scratch visited set of [`IncrementalSolver::mark_atoms`] (empty
    /// between calls).
    marked: FxHashSet<TermId>,
    scopes: Vec<Scope>,
    next_scope_id: u64,
    saw_quantifier: bool,
    stats: SolverStats,
    model: Option<Model>,
    /// The solver as it was when the open method scope of a warm pool was
    /// pushed, if one is open; its pop restores it.
    method: Option<Box<IncrementalSolver>>,
    /// Roots asserted so far, for the prelude-reuse counters.
    asserted_roots: FxHashSet<TermId>,
    /// *Tracked* assertions ([`IncrementalSolver::assert_tracked`]), in
    /// assertion order: caller-chosen tag and the activation variable guarding
    /// the assertion's clauses. A check assumes all of them, and an Unsat
    /// core maps back to tags through this list.
    tracked: Vec<(u32, Var)>,
    /// Tags of the tracked assertions in the last check's unsat core (empty
    /// unless the last check returned [`SatResult::Unsat`]).
    last_core: Vec<u32>,
    /// Reuse counters accumulated since the last `check` (assertions happen
    /// between checks; `check` folds them into its stats delta).
    pending_reused: u64,
    pending_lowered: u64,
    /// Wall-clock time spent lowering assertions since the last `check`
    /// (assertions happen between checks; `check` claims the accumulated
    /// time as its `lower_time`).
    pending_lower_time: std::time::Duration,
    /// Wall-clock time spent encoding lowered assertions into clauses since
    /// the last `check`, claimed as its `cnf_time`.
    pending_cnf_time: std::time::Duration,
    /// SAT counters already credited to a check. A check reports the work
    /// done since, so the unit propagation `assert`, `assert_tracked` and
    /// `pop` do at level 0 (a refutation found while asserting included)
    /// counts toward the next check.
    credited: SatCounters,
}

impl Default for IncrementalSolver {
    fn default() -> IncrementalSolver {
        IncrementalSolver::new()
    }
}

impl IncrementalSolver {
    /// Creates a solver with the default (decidable-mode) configuration.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration. Quantifier support is
    /// ignored — see the module documentation.
    pub fn with_config(config: SolverConfig) -> IncrementalSolver {
        IncrementalSolver {
            config,
            // NB: `SatSolver::with_options`, not `default()` — only the
            // constructors produce a usable (consistent) solver.
            sat: SatSolver::with_options(config.sat),
            atom_map: AtomMap::default(),
            lower: LowerCtx::new(),
            theory: None,
            pending_atoms: Vec::new(),
            atom_scope: FxHashMap::default(),
            marked: FxHashSet::default(),
            scopes: Vec::new(),
            next_scope_id: 0,
            saw_quantifier: false,
            stats: SolverStats::default(),
            model: None,
            method: None,
            asserted_roots: FxHashSet::default(),
            tracked: Vec::new(),
            last_core: Vec::new(),
            pending_reused: 0,
            pending_lowered: 0,
            pending_lower_time: std::time::Duration::ZERO,
            pending_cnf_time: std::time::Duration::ZERO,
            credited: SatCounters::default(),
        }
    }

    /// Statistics of the last [`IncrementalSolver::check`] call. SAT counters
    /// (conflicts, decisions, propagations, theory propagations, restarts,
    /// `learned_deleted`) are per-check deltas that include the
    /// assertion-time work since the previous check; `initial_clauses`, `atoms`, `learned_kept` and
    /// `max_lbd` report the cumulative session state at the time of the
    /// check.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The model of the last `check`, if it returned [`SatResult::Sat`]. The
    /// model covers the live atoms of the session.
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// Opens a new assertion scope: assertions made until the matching
    /// [`IncrementalSolver::pop`] are retracted by it.
    pub fn push(&mut self) {
        let act = self.sat.new_var();
        let id = self.next_scope_id;
        self.next_scope_id += 1;
        self.scopes.push(Scope { id, act });
    }

    /// Closes the innermost scope, retracting its assertions (their clauses
    /// are permanently deactivated via the scope's activation literal; facts
    /// learned from them — instantiated axioms, theory lemmas — are valid and
    /// stay, unless a method scope is open, in which case derived facts live
    /// at the method scope and fall with it).
    ///
    /// # Panics
    /// Panics if no scope is open, or if the innermost scope is a method
    /// scope (close those with [`IncrementalSolver::pop_method_scope`]).
    pub fn pop(&mut self) {
        let scope = self.scopes.pop().expect("pop without matching push");
        self.sat.add_clause(vec![Lit::new(scope.act, false)]);
    }

    /// Opens a *method scope*: the second level of a warm pool's scope
    /// discipline (see the module documentation). Snapshots the complete
    /// structure-scope solver state, a clone of the solver at structure-scope
    /// size (the shared prelude); until the matching
    /// [`IncrementalSolver::pop_method_scope`] the solver behaves exactly
    /// like a per-method session warm-started from that state (assertions
    /// permanent, facts permanent, VC scopes nested inside as usual).
    ///
    /// # Panics
    /// Panics if any scope is already open — a method scope must sit
    /// directly on the structure (base) scope, and only one can be open.
    pub fn push_method_scope(&mut self) {
        assert!(
            self.scopes.is_empty() && self.method.is_none(),
            "a method scope must be the outermost open scope"
        );
        self.method = Some(Box::new(self.clone()));
    }

    /// Closes the open method scope by restoring the structure-scope
    /// snapshot wholesale: the method's assertions, derived facts, SAT
    /// variables, learned clauses, axiom instantiations and theory-template
    /// growth all vanish, and the next method starts from a pool that holds
    /// exactly the structure-scope prelude again. Only the scope-id counter
    /// (ids are never reused) and the last check's statistics carry over;
    /// reuse credit a method never checked falls with it.
    ///
    /// # Panics
    /// Panics if no method scope is open or if VC scopes are still open
    /// inside it.
    pub fn pop_method_scope(&mut self) {
        assert!(
            self.scopes.is_empty(),
            "pop_method_scope with VC scopes still open"
        );
        let snapshot = self.method.take().expect("no method scope open");
        let (next_scope_id, stats) = (self.next_scope_id, self.stats);
        *self = *snapshot;
        self.next_scope_id = next_scope_id;
        self.stats = stats;
        self.model = None;
        self.last_core.clear();
    }

    /// Credits `n` assertions as answered from warm structure-scope state
    /// without any re-assertion (used by session layers that skip an
    /// already-asserted shared prelude outright); surfaces in the next
    /// check's [`SolverStats::prelude_reused`].
    pub fn note_prelude_reuse(&mut self, n: u64) {
        self.pending_reused += n;
    }

    /// Asserts a formula in the current scope (permanently when no scope is
    /// open). Lowering, CNF conversion and axiom instantiation happen now,
    /// incrementally against everything asserted before.
    pub fn assert(&mut self, tm: &mut TermManager, t: TermId) {
        if contains_forall(tm, t) {
            // Not supported incrementally; degrade the whole session rather
            // than silently dropping an assertion (soundness first).
            self.saw_quantifier = true;
            return;
        }
        // Reuse accounting: a root asserted before (e.g. a structure-common
        // hypothesis re-asserted by the next method of a warm pool) hits
        // every lowering/CNF cache below and only costs a guarded clause.
        if self.asserted_roots.insert(t) {
            self.pending_lowered += 1;
        } else {
            self.pending_reused += 1;
        }
        let lower_start = std::time::Instant::now();
        let batch = {
            let _obs = ids_obs::span("lower");
            self.lower.add(tm, &[t])
        };
        self.pending_lower_time += lower_start.elapsed();
        let cnf_start = std::time::Instant::now();
        let _obs = ids_obs::span("cnf");
        self.assert_derived(tm, &batch);
        for r in batch.roots {
            self.assert_root(tm, r);
        }
        self.pending_cnf_time += cnf_start.elapsed();
    }

    /// Asserts several formulas in order.
    pub fn assert_all(&mut self, tm: &mut TermManager, ts: &[TermId]) {
        for &t in ts {
            self.assert(tm, t);
        }
    }

    /// Asserts a formula as a *tracked* assertion: its clauses are guarded by
    /// a dedicated activation variable associated with `tag`, which every
    /// [`IncrementalSolver::check`] assumes true (equivalent to having
    /// asserted the formula permanently). When a check refutes, the tags of
    /// the tracked assertions its unsat core used are reported by
    /// [`IncrementalSolver::last_core_tags`].
    ///
    /// Derived facts (axiom instantiations, Skolem definitions) stay
    /// permanent — they are valid or definitional, so leaving them unguarded
    /// is sound.
    ///
    /// Tracked assertions live at the method/base level of the scope
    /// discipline: a method-scope rollback retracts those made inside it.
    ///
    /// # Panics
    /// Panics if a plain push scope is open (tracked assertions are
    /// hypotheses of the session, not of one goal check).
    pub fn assert_tracked(&mut self, tm: &mut TermManager, t: TermId, tag: u32) {
        assert!(
            self.scopes.is_empty(),
            "tracked assertions must be made outside push/pop scopes"
        );
        if contains_forall(tm, t) {
            self.saw_quantifier = true;
            return;
        }
        if self.asserted_roots.insert(t) {
            self.pending_lowered += 1;
        } else {
            self.pending_reused += 1;
        }
        let lower_start = std::time::Instant::now();
        let batch = {
            let _obs = ids_obs::span("lower");
            self.lower.add(tm, &[t])
        };
        self.pending_lower_time += lower_start.elapsed();
        let cnf_start = std::time::Instant::now();
        let _obs = ids_obs::span("cnf");
        self.assert_derived(tm, &batch);
        let act = self.sat.new_var();
        self.tracked.push((tag, act));
        for r in batch.roots {
            let lit = encode_root(tm, r, &mut self.sat, &mut self.atom_map);
            // Base-scope atoms: the assertion outlives every VC scope.
            self.mark_atoms(tm, r, None);
            self.sat.add_clause(vec![Lit::new(act, false), lit]);
        }
        self.pending_cnf_time += cnf_start.elapsed();
    }

    /// Tags of the tracked assertions the last check's unsat core used
    /// (sorted, deduplicated). Empty unless the last check returned
    /// [`SatResult::Unsat`] — and possibly empty even then, when the
    /// refutation needed no tracked assertion at all.
    pub fn last_core_tags(&self) -> &[u32] {
        &self.last_core
    }

    /// Asserts a batch's derived facts and instances permanently, as
    /// clauses, in emission order. ("Permanent" is relative to the open
    /// method scope, if any: a method snapshot restore discards everything
    /// asserted inside it.)
    fn assert_derived(&mut self, tm: &TermManager, batch: &LoweredBatch) {
        for &f in &batch.facts {
            self.assert_fact(tm, f);
        }
        for inst in &batch.instances {
            match *inst {
                Instance::Clauses(kind, atoms) => {
                    let atoms = &atoms[..kind.arity()];
                    cnf::assert_instance(kind, atoms, &mut self.sat, &mut self.atom_map);
                    // Right to left: the order a walk of the instance's
                    // formula would register them in.
                    for &a in atoms.iter().rev() {
                        self.mark_atom(a, None);
                    }
                }
                Instance::Formula(f) => self.assert_fact(tm, f),
            }
        }
    }

    /// Asserts one derived fact term permanently, as clauses.
    fn assert_fact(&mut self, tm: &TermManager, fact: TermId) {
        cnf::assert_fact(tm, fact, &mut self.sat, &mut self.atom_map);
        self.mark_atoms(tm, fact, None);
    }

    /// Encodes one lowered root to its Tseitin literal and asserts it,
    /// guarded by the current scope's activation literal if one is open.
    fn assert_root(&mut self, tm: &TermManager, root: TermId) {
        let lit = encode_root(tm, root, &mut self.sat, &mut self.atom_map);
        let guard = self.scopes.last().copied();
        self.mark_atoms(tm, root, guard.map(|s| s.id));
        let clause = match guard {
            Some(scope) => vec![Lit::new(scope.act, false), lit],
            None => vec![lit],
        };
        self.sat.add_clause(clause);
    }

    /// Records the scope of every theory atom of `root` (same traversal shape
    /// as the CNF encoder: descend through Boolean connectives, stop at
    /// atoms) and queues new atoms for the theory checker. `scope_id` is the
    /// scope the enclosing assertion clause is guarded by (`None` = base).
    fn mark_atoms(&mut self, tm: &TermManager, root: TermId, scope_id: Option<u64>) {
        let mut visited = std::mem::take(&mut self.marked);
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if !visited.insert(t) {
                continue;
            }
            let term = tm.term(t);
            match term.op {
                Op::True | Op::False => {}
                Op::Not | Op::And | Op::Or | Op::Implies | Op::Iff => {
                    stack.extend(term.args.iter().copied());
                }
                Op::Ite if term.sort == Sort::Bool => {
                    stack.extend(term.args.iter().copied());
                }
                _ => self.mark_atom(t, scope_id),
            }
        }
        visited.clear();
        self.marked = visited;
    }

    /// Records that the theory atom `t` is used in scope `scope_id` (`None`
    /// = base), queueing it for the theory checker if it is new.
    fn mark_atom(&mut self, t: TermId, scope_id: Option<u64>) {
        match self.atom_scope.get_mut(&t) {
            None => {
                self.pending_atoms.push(t);
                let scope = match scope_id {
                    None => AtomScope::Base,
                    Some(id) => AtomScope::Scopes(vec![id]),
                };
                self.atom_scope.insert(t, scope);
            }
            Some(AtomScope::Base) => {}
            Some(AtomScope::Scopes(ids)) => match scope_id {
                None => {
                    self.atom_scope.insert(t, AtomScope::Base);
                }
                Some(id) => {
                    // Popped ids can never become live again: prune them
                    // here so a reused atom's list stays bounded by the
                    // stack depth.
                    ids.retain(|i| self.scopes.iter().any(|s| s.id == *i));
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            },
        }
    }

    /// Checks satisfiability of the conjunction of all live assertions
    /// (permanent ones, all tracked assertions, plus those of open scopes).
    pub fn check(&mut self, tm: &mut TermManager) -> SatResult {
        self.stats = SolverStats::default();
        self.stats.prelude_reused = std::mem::take(&mut self.pending_reused);
        self.stats.prelude_lowered = std::mem::take(&mut self.pending_lowered);
        self.stats.lower_time = std::mem::take(&mut self.pending_lower_time);
        self.stats.cnf_time = std::mem::take(&mut self.pending_cnf_time);
        self.model = None;
        self.last_core.clear();
        if self.saw_quantifier {
            return SatResult::Unknown;
        }

        self.stats.initial_clauses = (self.sat.num_clauses() - self.sat.num_learned()) as u64;
        self.stats.atoms = self.atom_map.num_atoms() as u64;
        // Assumption order: tracked assertions first, then the open scopes'
        // activation literals.
        let mut assumptions: Vec<Lit> = Vec::with_capacity(self.tracked.len() + self.scopes.len());
        // Maps a tracked activation variable back to its tag, for unsat-core
        // extraction.
        let mut tag_of_act: FxHashMap<Var, u32> =
            FxHashMap::with_capacity_and_hasher(self.tracked.len(), Default::default());
        for &(tag, act) in &self.tracked {
            assumptions.push(Lit::new(act, true));
            tag_of_act.insert(act, tag);
        }
        assumptions.extend(self.scopes.iter().map(|s| Lit::new(s.act, true)));

        // Setup: hand the theory layer the atoms encoded since the last
        // check and the live ones. An atom is live while a permanent
        // assertion or an open scope uses it; the theory check runs on live
        // atoms only (see the module documentation for why dead ones must
        // be excluded). Atoms with no registration were only ever used
        // inside a method scope that has since been rolled back: the
        // restored registry does not know them, and every live clause
        // mentioning them is deactivated.
        let pending = std::mem::take(&mut self.pending_atoms);
        let (atom_scope, scopes) = (&self.atom_scope, &self.scopes);
        let live = self
            .atom_map
            .atoms()
            .filter(|(_, atom)| match atom_scope.get(atom) {
                Some(AtomScope::Base) => true,
                Some(AtomScope::Scopes(ids)) => {
                    ids.iter().any(|id| scopes.iter().any(|s| s.id == *id))
                }
                None => false,
            });
        let pivot = self.config.pivot;
        let theory = self
            .theory
            .get_or_insert_with(|| Theory::new(TheoryChecker::new(tm, &[]), pivot));
        let mut hook = theory.check(
            tm,
            &pending,
            live,
            self.sat.num_vars(),
            &mut self.stats,
            self.config.max_theory_rounds as u64,
        );
        let search_start = std::time::Instant::now();
        let result = self.sat.solve_under_with(&assumptions, &mut hook);
        let stats = &mut self.stats;
        stats.sat_time = search_start.elapsed().saturating_sub(stats.theory_time);
        let sat = &self.sat;
        let (now, base) = (SatCounters::of(sat), self.credited);
        self.credited = now;
        stats.sat_conflicts = now.conflicts - base.conflicts;
        stats.sat_decisions = now.decisions - base.decisions;
        stats.sat_propagations = now.propagations - base.propagations;
        stats.theory_propagations = now.theory_propagations - base.theory_propagations;
        stats.restarts = now.restarts - base.restarts;
        stats.learned_deleted = now.learned_deleted - base.learned_deleted;
        stats.learned_kept = sat.num_learned() as u64;
        stats.max_lbd = sat.max_lbd as u64;
        match result {
            SatResult::Sat => self.model = Some(Model::new(theory.literals())),
            SatResult::Unsat => {
                // The refutation's assumption core was extracted by the SAT
                // core's final-conflict analysis.
                stats.unsat_cores = 1;
                stats.unsat_core_size = sat.unsat_core.len() as u64;
                let mut core: Vec<u32> = sat
                    .unsat_core
                    .iter()
                    .filter_map(|l| tag_of_act.get(&l.var()).copied())
                    .collect();
                core.sort_unstable();
                core.dedup();
                self.last_core = core;
            }
            SatResult::Unknown => {}
        }
        result
    }

    /// Number of literals currently held by the persistent theory layer's
    /// trail. Exposed for the scope-leak property tests: rolling back a
    /// method scope must restore the trail to its pre-scope length.
    #[doc(hidden)]
    pub fn theory_trail_len(&self) -> usize {
        self.theory.as_ref().map_or(0, Theory::trail_len)
    }

    /// Convenience wrapper for one goal check under the current assertions:
    /// opens a scope, asserts the negated formula, checks, pops — and
    /// translates the result into validity terms ([`SatResult::Sat`] = the
    /// formula is valid given the asserted hypotheses), mirroring
    /// [`crate::Solver::check_valid`].
    pub fn check_valid_scoped(&mut self, tm: &mut TermManager, formula: TermId) -> SatResult {
        self.push();
        let neg = tm.not(formula);
        self.assert(tm, neg);
        let result = self.check(tm);
        self.pop();
        match result {
            SatResult::Unsat => SatResult::Sat, // valid
            SatResult::Sat => SatResult::Unsat, // counterexample exists
            SatResult::Unknown => SatResult::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;
    use crate::solver::Solver;

    #[test]
    fn push_pop_retracts_assertions() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let zero = tm.int(0);
        let ge = tm.ge(x, zero);
        let lt = tm.lt(x, zero);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, ge);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        s.push();
        s.assert(&mut tm, lt);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        s.pop();
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        // A second scope with a satisfiable refinement.
        s.push();
        let one = tm.int(1);
        let ge1 = tm.ge(x, one);
        s.assert(&mut tm, ge1);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        s.pop();
    }

    #[test]
    fn euf_across_scopes() {
        // Permanent: f(x) != f(y). Scoped: x = y — unsat only inside the
        // scope, and again in a later scope (axiom state is reused).
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Int);
        let fy = tm.app("f", vec![y], Sort::Int);
        let ne = tm.neq(fx, fy);
        let eq = tm.eq(x, y);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, ne);
        for _ in 0..3 {
            s.push();
            s.assert(&mut tm, eq);
            assert_eq!(s.check(&mut tm), SatResult::Unsat);
            s.pop();
            assert_eq!(s.check(&mut tm), SatResult::Sat);
        }
    }

    #[test]
    fn set_axioms_instantiate_across_scopes() {
        // The union axiom must be instantiated at an element that only
        // appears in a *later* scoped assertion.
        let mut tm = TermManager::new();
        let set = Sort::set_of(Sort::Loc);
        let a = tm.var("A", set.clone());
        let b = tm.var("B", set);
        let u = tm.union(a, b);
        let x = tm.var("x", Sort::Loc);
        let mut s = IncrementalSolver::new();
        // Permanent: x in A (also seeds the element pool with x).
        let in_a = tm.member(x, a);
        s.assert(&mut tm, in_a);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        // Scope 1: y not in the union, y = x — new element y arrives after
        // the union trigger was first scanned.
        let y = tm.var("y", Sort::Loc);
        let in_u = tm.member(y, u);
        let not_in_u = tm.not(in_u);
        let eq_xy = tm.eq(x, y);
        s.push();
        s.assert(&mut tm, not_in_u);
        s.assert(&mut tm, eq_xy);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        s.pop();
        assert_eq!(s.check(&mut tm), SatResult::Sat);
    }

    #[test]
    fn check_valid_scoped_matches_fresh_solver() {
        // key(x) <= k, k <= key(y) |= key(x) <= key(y); but not key(x) < key(y).
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let k = tm.var("k", Sort::Int);
        let kx = tm.app("key", vec![x], Sort::Int);
        let ky = tm.app("key", vec![y], Sort::Int);
        let h1 = tm.le(kx, k);
        let h2 = tm.le(k, ky);
        let goal1 = tm.le(kx, ky);
        let goal2 = tm.lt(kx, ky);

        let mut inc = IncrementalSolver::new();
        inc.assert(&mut tm, h1);
        inc.assert(&mut tm, h2);
        for (goal, _name) in [(goal1, "le"), (goal2, "lt")] {
            let got = inc.check_valid_scoped(&mut tm, goal);
            let mut fresh = Solver::new();
            let mut tm2 = tm.clone();
            let imp = {
                let ante = tm2.and2(h1, h2);
                tm2.implies(ante, goal)
            };
            let want = fresh.check_valid(&mut tm2, imp);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn initial_clauses_count_input_clauses_only() {
        // Three pigeons in two holes, inside a scope: the first check learns
        // clauses, and the second, with nothing asserted in between, must
        // report the same input clauses.
        let mut tm = TermManager::new();
        let holes: Vec<Vec<TermId>> = (0..2)
            .map(|h| {
                (0..3)
                    .map(|i| tm.var(&format!("p{i}{h}"), Sort::Bool))
                    .collect()
            })
            .collect();
        let mut s = IncrementalSolver::new();
        s.push();
        for i in 0..3 {
            let some_hole = tm.or(holes.iter().map(|hole| hole[i]).collect());
            s.assert(&mut tm, some_hole);
        }
        for hole in &holes {
            for (i, &a) in hole.iter().enumerate() {
                for &b in &hole[i + 1..] {
                    let both = tm.and2(a, b);
                    let not_both = tm.not(both);
                    s.assert(&mut tm, not_both);
                }
            }
        }
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        let first = s.stats();
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        let second = s.stats();
        assert!(second.learned_kept > 0, "{second:?}");
        assert_eq!(second.initial_clauses, first.initial_clauses);
        assert_eq!(second.atoms, first.atoms);
    }

    #[test]
    fn quantified_input_degrades_to_unknown() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let p = tm.app("p", vec![x], Sort::Bool);
        let all = tm.forall(vec![("x".into(), Sort::Loc)], p);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, all);
        assert_eq!(s.check(&mut tm), SatResult::Unknown);
    }

    #[test]
    fn method_scope_retracts_assertions_and_nests_vc_scopes() {
        // structure scope: x >= 0. Method A: x <= 5 with VCs x < 0 (unsat)
        // and x = 3 (sat). After popping A, method B contradicts A's residue
        // — which must be gone.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let zero = tm.int(0);
        let five = tm.int(5);
        let ge0 = tm.ge(x, zero);
        let le5 = tm.le(x, five);
        let lt0 = tm.lt(x, zero);
        let gt5 = tm.gt(x, five);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, ge0); // structure scope
        s.push_method_scope();
        s.assert(&mut tm, le5); // method residue
        s.push();
        s.assert(&mut tm, lt0);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        s.pop();
        s.push();
        let eq3 = {
            let three = tm.int(3);
            tm.eq(x, three)
        };
        s.assert(&mut tm, eq3);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        s.pop();
        s.pop_method_scope();
        // Method B: x > 5 is consistent with the structure scope alone.
        s.push_method_scope();
        s.assert(&mut tm, gt5);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        // ... but still constrained by the structure scope.
        s.push();
        s.assert(&mut tm, lt0);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        s.pop();
        s.pop_method_scope();
    }

    #[test]
    fn method_scope_rollback_reinstantiates_axioms() {
        // The union axiom instantiated at a method-local element must be
        // retracted with the method and re-derived when the next method
        // needs it again — three times over, exercising repeated rollback.
        let mut tm = TermManager::new();
        let set = Sort::set_of(Sort::Loc);
        let a = tm.var("A", set.clone());
        let b = tm.var("B", set);
        let u = tm.union(a, b);
        let x = tm.var("x", Sort::Loc);
        let in_a = tm.member(x, a);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, in_a); // structure scope
        for round in 0..3 {
            s.push_method_scope();
            let y = tm.var(&format!("y{}", round), Sort::Loc);
            let in_u = tm.member(y, u);
            let not_in_u = tm.not(in_u);
            let eq_xy = tm.eq(x, y);
            s.assert(&mut tm, not_in_u);
            s.assert(&mut tm, eq_xy);
            assert_eq!(s.check(&mut tm), SatResult::Unsat);
            s.pop_method_scope();
        }
        // The structure scope alone is still satisfiable.
        assert_eq!(s.check(&mut tm), SatResult::Sat);
    }

    #[test]
    fn method_scope_rollback_forgets_residue_reuse() {
        // A residue hypothesis re-asserted by the next method counts as
        // *lowered* again (its lowering state was rolled back); a
        // structure-scope hypothesis re-asserted counts as *reused*.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let zero = tm.int(0);
        let one = tm.int(1);
        let ge0 = tm.ge(x, zero);
        let ge1 = tm.ge(x, one);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, ge0);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert_eq!(s.stats().prelude_lowered, 1);

        s.push_method_scope();
        s.assert(&mut tm, ge1); // fresh residue
        s.assert(&mut tm, ge0); // structure-scope formula, reused
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert_eq!(s.stats().prelude_lowered, 1);
        assert_eq!(s.stats().prelude_reused, 1);
        s.pop_method_scope();

        s.push_method_scope();
        s.assert(&mut tm, ge1); // rolled back: lowered again
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert_eq!(s.stats().prelude_lowered, 1);
        assert_eq!(s.stats().prelude_reused, 0);
        s.pop_method_scope();
    }

    #[test]
    fn unconsumed_reuse_credit_does_not_leak_across_method_scopes() {
        // A method that never checks (e.g. all its VCs were cancelled) must
        // not leak its prelude-reuse credit into the next method's stats.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let zero = tm.int(0);
        let ge0 = tm.ge(x, zero);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, ge0);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        s.push_method_scope();
        s.note_prelude_reuse(5); // credited, never consumed by a check
        s.pop_method_scope();
        s.push_method_scope();
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert_eq!(s.stats().prelude_reused, 0, "credit must not leak");
        s.pop_method_scope();
    }

    #[test]
    fn method_scope_quantifier_degradation_is_rolled_back() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let p = tm.app("p", vec![x], Sort::Bool);
        let all = tm.forall(vec![("x".into(), Sort::Loc)], p);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, p);
        s.push_method_scope();
        s.assert(&mut tm, all);
        assert_eq!(s.check(&mut tm), SatResult::Unknown);
        s.pop_method_scope();
        // The quantified assertion fell with its method scope.
        assert_eq!(s.check(&mut tm), SatResult::Sat);
    }

    #[test]
    fn tracked_assertions_report_cores() {
        // Tracked hypotheses: x >= 0 (tag 0), x <= 5 (tag 1), y >= 0 (tag 2).
        // Goal scope asserts x >= 10: refuting needs exactly tag 1.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let zero = tm.int(0);
        let five = tm.int(5);
        let ten = tm.int(10);
        let h0 = tm.ge(x, zero);
        let h1 = tm.le(x, five);
        let h2 = tm.ge(y, zero);
        let goal_neg = tm.ge(x, ten);
        let mut s = IncrementalSolver::new();
        s.assert_tracked(&mut tm, h0, 0);
        s.assert_tracked(&mut tm, h1, 1);
        s.assert_tracked(&mut tm, h2, 2);
        s.push();
        s.assert(&mut tm, goal_neg);
        // The check refutes; the core names only the used hypothesis.
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        assert_eq!(s.last_core_tags(), &[1]);
        assert_eq!(s.stats().unsat_cores, 1);
        assert!(s.stats().unsat_core_size >= 1);
        // Without the goal scope the hypotheses are satisfiable, and the
        // stale core is cleared.
        s.pop();
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert!(s.last_core_tags().is_empty());
    }

    #[test]
    fn tracked_assertions_roll_back_with_the_method_scope() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let zero = tm.int(0);
        let five = tm.int(5);
        let ten = tm.int(10);
        let ge0 = tm.ge(x, zero);
        let le5 = tm.le(x, five);
        let ge10 = tm.ge(x, ten);
        let mut s = IncrementalSolver::new();
        s.assert_tracked(&mut tm, ge0, 0); // structure scope
        s.push_method_scope();
        s.assert_tracked(&mut tm, le5, 1); // method residue
        s.push();
        s.assert(&mut tm, ge10);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        assert_eq!(s.last_core_tags(), &[1]);
        s.pop();
        s.pop_method_scope();
        // Tag 1 fell with the method scope: the same goal scope is now Sat.
        s.push();
        s.assert(&mut tm, ge10);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert!(s.last_core_tags().is_empty());
        s.pop();
    }

    #[test]
    fn stats_track_per_check_deltas() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let x = tm.var("x", Sort::Int);
        let zero = tm.int(0);
        let one = tm.int(1);
        let five = tm.int(5);
        let le0 = tm.le(x, zero);
        let le1 = tm.le(x, one);
        let np = tm.not(p);
        let c1 = tm.implies(p, le0);
        let c2 = tm.implies(np, le1);
        let c3 = tm.ge(x, five);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, c1);
        s.assert(&mut tm, c2);
        s.push();
        s.assert(&mut tm, c3);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        let first = s.stats();
        assert!(first.theory_rounds > 0);
        s.pop();
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        let second = s.stats();
        // Counters are per-check deltas, not cumulative: the second check
        // starts its round count from scratch.
        assert!(second.theory_rounds >= 1);
    }

    /// `x = y` and `p(x)` decide `p(y)` by congruence. The theory implies
    /// it at the first fixpoint, so `¬p(y) ∨ q` propagates `q` and the
    /// scoped `¬q` is refuted without any theory conflict.
    #[test]
    fn congruence_implies_the_atoms_it_decides() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let q = tm.var("q", Sort::Bool);
        let px = tm.app("p", vec![x], Sort::Bool);
        let py = tm.app("p", vec![y], Sort::Bool);
        let eq_xy = tm.eq(x, y);
        let not_py = tm.not(py);
        let clause = tm.or2(not_py, q);
        let not_q = tm.not(q);
        let mut s = IncrementalSolver::new();
        s.assert_all(&mut tm, &[eq_xy, px, clause]);
        s.push();
        s.assert(&mut tm, not_q);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        assert_eq!(s.stats().theory_rounds, 0, "{:?}", s.stats());
        assert!(s.stats().theory_propagations >= 1, "{:?}", s.stats());
        s.pop();
        assert_eq!(s.check(&mut tm), SatResult::Sat);
    }

    /// `x <= 5`, `p ∨ q`, `p -> x >= 7`, `q -> x >= 8`: whichever of `p`,
    /// `q` the search tries, the bound it implies clashes with `x <= 5` at
    /// the fixpoint, so the query is refuted without a complete assignment.
    #[test]
    fn arithmetic_refutes_at_fixpoints_without_a_final_check() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let x = tm.var("x", Sort::Int);
        let five = tm.int(5);
        let seven = tm.int(7);
        let eight = tm.int(8);
        let le5 = tm.le(x, five);
        let ge7 = tm.ge(x, seven);
        let ge8 = tm.ge(x, eight);
        let p_or_q = tm.or2(p, q);
        let p_ge7 = tm.implies(p, ge7);
        let q_ge8 = tm.implies(q, ge8);
        let mut s = IncrementalSolver::new();
        s.assert_all(&mut tm, &[le5, p_or_q, p_ge7, q_ge8]);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        assert_eq!(s.stats().final_checks, 0, "{:?}", s.stats());
        assert!(s.stats().theory_rounds >= 1, "{:?}", s.stats());
    }

    /// `x = y`, `key(x) <= 5`, `p ∨ q`, `p -> key(y) >= 7`,
    /// `q -> key(y) >= 8`: congruence makes `key(x) = key(y)`, and the
    /// merge shares that equality with the simplex, so whichever bound the
    /// search tries clashes with `key(x) <= 5` at its fixpoint and the query
    /// is refuted without a complete assignment.
    #[test]
    fn euf_derived_arithmetic_refutes_without_a_final_check() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let kx = tm.app("key", vec![x], Sort::Int);
        let ky = tm.app("key", vec![y], Sort::Int);
        let five = tm.int(5);
        let seven = tm.int(7);
        let eight = tm.int(8);
        let eq_xy = tm.eq(x, y);
        let le5 = tm.le(kx, five);
        let ge7 = tm.ge(ky, seven);
        let ge8 = tm.ge(ky, eight);
        let p_or_q = tm.or2(p, q);
        let p_ge7 = tm.implies(p, ge7);
        let q_ge8 = tm.implies(q, ge8);
        let mut s = IncrementalSolver::new();
        s.assert_all(&mut tm, &[eq_xy, le5, p_or_q, p_ge7, q_ge8]);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        assert_eq!(s.stats().final_checks, 0, "{:?}", s.stats());
        assert!(s.stats().shared_equalities >= 1, "{:?}", s.stats());
    }

    #[test]
    fn assertion_time_propagation_is_credited_to_the_next_check() {
        // `p` and `p -> q` are settled by unit propagation while asserting:
        // the check itself has nothing left to propagate.
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let p_implies_q = tm.implies(p, q);
        let mut s = IncrementalSolver::new();
        s.assert(&mut tm, p);
        s.assert(&mut tm, p_implies_q);
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        let first = s.stats().sat_propagations;
        assert!(first >= 2, "assertion-time propagation uncredited: {first}");
        // Credited once: a second check reports only its own work.
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert_eq!(s.stats().sat_propagations, 0);

        // A refutation found by propagation while asserting is credited
        // too, and a method scope rollback restores the credited snapshot
        // with the SAT core.
        let a = tm.var("a", Sort::Bool);
        let b = tm.var("b", Sort::Bool);
        let a_implies_b = tm.implies(a, b);
        let nb = tm.not(b);
        let a_and_nb = tm.and2(a, nb);
        s.push_method_scope();
        s.assert(&mut tm, a_implies_b);
        s.assert(&mut tm, a_and_nb);
        assert_eq!(s.check(&mut tm), SatResult::Unsat);
        assert!(s.stats().sat_propagations > 0, "{:?}", s.stats());
        s.pop_method_scope();
        assert_eq!(s.check(&mut tm), SatResult::Sat);
        assert_eq!(s.stats().sat_propagations, 0);
    }
}
