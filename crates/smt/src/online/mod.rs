//! The online theory layer of the DPLL(T) loop: EUF and linear arithmetic
//! combined Nelson–Oppen style inside the CDCL search, with undo bound to
//! the SAT trail.
//!
//! The stateless [`crate::theory::TheoryChecker`] rebuilds congruence
//! closure and a fresh simplex tableau for every literal set it is handed.
//! This layer instead keeps the theory state alive for the whole search and
//! across checks: every asserted theory literal remembers the SAT-trail
//! position it was read from, and a backjump that lowers the SAT solver's
//! low-water mark ([`crate::sat::TheoryHook`]) retracts exactly the
//! literals read at or above it. It has three parts:
//!
//! * [`euf`]: the congruence closure, a union-find **without path
//!   compression** (so links can be unwound) with union-by-size, a proof
//!   forest for explanations, per-class use-lists for incremental
//!   congruence and an exact signature table, every mutation recorded on an
//!   undo trail, so popping a literal restores the structure bit for bit.
//!   Disequalities sit on per-class lists too, so a merge finds the
//!   disequalities it violates directly. EUF also *propagates*: per-node
//!   watch lists of the check's live atoms and circular class-member links
//!   let a merge or an asserted disequality find the atom literals it
//!   decides, each explained lazily from its recorded reason.
//! * [`arith`]: the simplex glue, a warm tableau whose bounds are asserted
//!   as their literals arrive and checked rationally at every fixpoint;
//!   integer branch-and-bound waits for the final check.
//! * The combiner, [`Theory`]: it owns the checker (the atom registry, and
//!   the `IDS_TRAIL_ORACLE` oracle), the trail of asserted literals with
//!   their EUF and simplex restore points, the EUF → simplex equality
//!   channel and the implied-literal reasons. Per check it builds the
//!   live-atom table, and its [`View`] is the SAT core's theory hook.
//!
//! At every propagation fixpoint the combiner retracts what the SAT core
//! backtracked over and then, in this fixed order: asserts the EUF part of
//! each new live literal in trail order; takes the EUF verdict; after a
//! consistent one loads each new entry's simplex bounds and then its shared
//! equalities; runs the rational check when it loaded any; and on a
//! consistent verdict hands back the implied literals in the order EUF
//! recorded them. The two theories are called directly, EUF first: with two
//! of them and one order there is nothing to dispatch.
//!
//! EUF and the simplex share equalities at merges (Nelson & Oppen, TOPLAS
//! 1979, done incrementally): each class keeps one numeric-leaf member as its
//! representative, and a merge that joins two classes with one each shares
//! the equality of the two representatives. The shared equalities form a
//! spanning forest over each class's numeric leaves, are trail state undone
//! with their merge, and load into the simplex with the entry whose merge
//! made them. A simplex conflict through one is explained only then, by the
//! proof-forest path between its pair.
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

mod arith;
mod euf;

use std::time::{Duration, Instant};

use crate::sat::{Lit, TheoryHook, TheoryVerdict, Var};
use crate::simplex::{ArithOutcome, PivotRule};
use crate::solver::SolverStats;
use crate::term::{TermId, TermManager};
use crate::theory::{AtomKind, TheoryCheck, TheoryChecker, AXIOM_TAG};

use arith::Arith;
use euf::{EufAtom, EufState, Why};

/// Simplex tags at or above this stand for shared equalities:
/// `SHARED_BASE + k` is EUF's `shared[k]`, whose explanation (trail tags)
/// replaces it in conflicts. Trail indices are far below this for any
/// conceivable literal count.
const SHARED_BASE: usize = usize::MAX / 2;

/// How the layer reads one SAT variable during a check: the live theory
/// atom it stands for, resolved once per check to the EUF nodes its
/// literals touch.
#[derive(Clone, Copy, Debug)]
struct LiveAtom {
    atom: TermId,
    euf: EufAtom,
    /// Whether the positive (`.0`) / negative (`.1`) literal carries a
    /// simplex constraint.
    arith: (bool, bool),
}

/// One asserted literal on the combiner's trail, with the restore points
/// that retract it.
#[derive(Clone, Debug)]
struct Entry {
    /// The SAT literal (true on the SAT trail while the entry exists).
    lit: Lit,
    atom: TermId,
    /// SAT-trail position the literal was read from.
    sat_pos: usize,
    /// EUF undo-trail length before this literal's EUF assertion.
    euf_mark: usize,
    /// Length of EUF's shared equalities before this literal's EUF
    /// assertion: the entry's shared equalities run from here to the next
    /// entry's start.
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

/// A literal a consistent sync implied, with its reason and the sync that
/// recorded it.
#[derive(Clone, Copy, Debug)]
struct Implied {
    lit: Lit,
    why: Why,
    sync: u64,
}

/// The online theory layer of one [`crate::IncrementalSolver`]: the atom
/// registry and the EUF and simplex states, which survive the whole search
/// and every check, with undo bound to the SAT trail.
#[derive(Clone, Debug)]
pub(crate) struct Theory {
    /// The atom registry: every encoded atom's kind, linear form and EUF
    /// nodes. The stateless oracle checks against it too.
    checker: TheoryChecker,
    euf: EufState,
    arith: Arith,
    /// The check's live-atom table, indexed by SAT variable: dead atoms,
    /// Tseitin and activation variables map to `None`.
    live: Vec<Option<LiveAtom>>,
    trail: Vec<Entry>,
    /// Length of the SAT-trail prefix the layer has read.
    seen: usize,
    /// Entries whose simplex bounds are loaded (always a prefix of `trail`;
    /// all of it after a consistent sync).
    loaded: usize,
    /// Per SAT variable: the last implication recorded for it. Valid while
    /// the literal sits on the SAT trail with its theory reason: a reason is
    /// recorded only for a variable off the combiner's trail at the end of a
    /// consistent sync, which the SAT core then has unassigned.
    reasons: Vec<Option<Implied>>,
    /// Syncs that handed back implications so far (stamps `reasons`).
    syncs: u64,
}

/// One check's view of the layer, the SAT core's [`TheoryHook`]: it
/// borrows the term manager and the check's statistics, and holds the round
/// budget and the oracle switch.
///
/// One *theory round* is one verdict handed back to the SAT core: a theory
/// conflict found at a fixpoint (by EUF or by the simplex), or a final check
/// whatever its verdict; `max_rounds` bounds their number. Fixpoint time
/// spent on simplex bounds and checks counts as `simplex_time`, the rest as
/// `euf_time`.
pub(crate) struct View<'a> {
    theory: &'a mut Theory,
    tm: &'a TermManager,
    stats: &'a mut SolverStats,
    max_rounds: u64,
    /// Whether every theory conflict, every explanation of an implied
    /// literal and every Consistent final check is re-checked against the
    /// stateless checker (`IDS_TRAIL_ORACLE`), which must agree.
    oracle: bool,
}

impl Theory {
    /// A layer over `checker`'s atoms; its state is built at the first
    /// check.
    pub(crate) fn new(checker: TheoryChecker, pivot: PivotRule) -> Theory {
        Theory {
            checker,
            euf: EufState::default(),
            arith: Arith::new(pivot),
            live: Vec::new(),
            trail: Vec::new(),
            seen: 0,
            loaded: 0,
            reasons: Vec::new(),
            syncs: 0,
        }
    }

    /// Number of literals currently asserted on the trail.
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

    /// Starts a check and returns its hook. `atoms` are the atoms encoded
    /// since the last check, and `live` the (SAT variable, atom) pairs of
    /// the atoms live in the open scopes, over `num_vars` SAT variables.
    ///
    /// When the registry grows, EUF grows in place by the new nodes
    /// ([`EufState::grow`]), and the simplex and the trail start over. The
    /// live-atom table and EUF's watch lists are rebuilt, and the previous
    /// check's implications forgotten. The time this takes is the check's
    /// `setup_time`.
    pub(crate) fn check<'a>(
        &'a mut self,
        tm: &'a TermManager,
        atoms: &[TermId],
        live: impl IntoIterator<Item = (Var, TermId)>,
        num_vars: usize,
        stats: &'a mut SolverStats,
        max_rounds: u64,
    ) -> View<'a> {
        let start = Instant::now();
        let known = self.checker.kinds.len();
        self.checker.extend(tm, atoms);
        if self.euf.is_empty() || self.checker.kinds.len() != known {
            self.euf.grow(&self.checker);
            self.arith.reset();
            self.trail.clear();
            self.seen = 0;
            self.loaded = 0;
        }
        let (checker, template) = (&self.checker, &self.checker.template);
        self.live.clear();
        self.live.resize(num_vars, None);
        for (var, atom) in live {
            let (euf, arith) = match checker.kinds.get(&atom) {
                // Negative numeric equalities are covered by the trichotomy
                // lemmas added during lowering.
                Some(AtomKind::Eq { a, b, lin }) => {
                    let nodes = (template.node(*a), template.node(*b));
                    (EufAtom::Eq(nodes.0, nodes.1), (lin.is_some(), false))
                }
                Some(AtomKind::Ineq { .. }) => (EufAtom::Arith, (true, true)),
                Some(AtomKind::Pred) | None => (EufAtom::Pred(template.node(atom)), (false, false)),
            };
            self.live[var as usize] = Some(LiveAtom { atom, euf, arith });
        }
        self.euf.watch(&self.live);
        for e in &self.trail {
            self.euf.on_trail[e.lit.var() as usize] = true;
        }
        self.reasons.clear();
        self.reasons.resize(num_vars, None);
        stats.setup_time = start.elapsed();
        View {
            theory: self,
            tm,
            stats,
            max_rounds,
            oracle: std::env::var_os("IDS_TRAIL_ORACLE").is_some(),
        }
    }

    /// Brings the layer in line with the SAT trail at a propagation
    /// fixpoint: retracts the entries read from positions at or above
    /// `low_water` (see [`TheoryHook::fixpoint`]), asserts the EUF part of
    /// the live literals read from there on, and takes the EUF verdict.
    /// After a consistent one it loads the simplex bounds and shared
    /// equalities of the new entries, so every entry is loaded after a
    /// consistent sync, and when it loaded any it runs the rational check;
    /// a contradiction there is a conflict too. On a consistent verdict it
    /// pushes onto `implied` the literals the assertions implied that are
    /// not on the trail, each explainable by [`Theory::explain`] until it is
    /// retracted. Simplex time, pivots and shared equalities go to `stats`.
    ///
    /// Returns the conflict's trail literals, if any, and the number of
    /// entries retracted plus asserted.
    fn sync(
        &mut self,
        tm: &TermManager,
        trail: &[Lit],
        low_water: usize,
        implied: &mut Vec<Lit>,
        stats: &mut SolverStats,
    ) -> (Result<(), Vec<Lit>>, u64) {
        let low = self.seen.min(low_water);
        self.seen = trail.len();
        let keep = self.trail.partition_point(|e| e.sat_pos < low);
        let is_live = |l: &Lit| matches!(self.live.get(l.var() as usize), Some(Some(_)));
        let first = match trail[low..].iter().position(is_live) {
            Some(i) => low + i,
            // Nothing to retract or assert: no span, no work.
            None if keep == self.trail.len() => return (self.euf_verdict(tm), 0),
            None => trail.len(),
        };
        let (delta, verdict) = {
            let _span = ids_obs::span("euf");
            let retracted = self.trail.len() - keep;
            self.retract_to(keep);
            let template = &self.checker.template;
            for (pos, &lit) in trail.iter().enumerate().skip(first) {
                let Some(Some(la)) = self.live.get(lit.var() as usize) else {
                    continue;
                };
                let entry = Entry {
                    lit,
                    atom: la.atom,
                    sat_pos: pos,
                    euf_mark: self.euf.mark(),
                    shared_start: self.euf.shared.len(),
                    simplex_mark: 0,
                    has_arith: if lit.is_positive() {
                        la.arith.0
                    } else {
                        la.arith.1
                    },
                };
                self.euf.assert(template, lit, la.euf, self.trail.len());
                self.trail.push(entry);
            }
            let delta = (retracted + self.trail.len() - keep) as u64;
            (delta, self.euf_verdict(tm))
        };
        // An EUF conflict leaves the new entries unloaded: the backjump
        // that follows retracts them.
        let verdict = verdict.and_then(|()| self.fixpoint_arith(tm, stats));
        let euf = &mut self.euf;
        if verdict.is_ok() && !euf.implied.is_empty() {
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
        (verdict, delta)
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
        stats: &mut SolverStats,
    ) -> Result<(), Vec<Lit>> {
        let unloaded = &self.trail[self.loaded..];
        if unloaded
            .first()
            .is_none_or(|e| e.shared_start == self.euf.shared.len())
            && !unloaded.iter().any(|e| e.has_arith)
        {
            // Nothing to assert: this only records the restore points.
            let loaded = self.load(&mut stats.shared_equalities);
            debug_assert!(loaded.is_ok());
            return Ok(());
        }
        let start = Instant::now();
        let mut span = ids_obs::span("simplex");
        let pivots_before = self.arith.pivots();
        let outcome = self
            .load(&mut stats.shared_equalities)
            .and_then(|()| self.arith.check());
        let pivots = self.arith.pivots() - pivots_before;
        span.note(|| format!("pivots={pivots}"));
        drop(span);
        stats.simplex_time += start.elapsed();
        stats.pivots += pivots;
        outcome.map_err(|tags| self.arith_conflict(tm, &tags))
    }

    /// Loads the simplex bounds of the entries from `loaded` on, each
    /// followed by the entry's shared equalities, recording each entry's
    /// restore point and counting the shared equalities in `shared`. On a
    /// contradiction it returns the simplex's tags and leaves the failing
    /// entry unloaded: a literal may assert several bounds, and failing
    /// halfway must not leave it half loaded.
    fn load(&mut self, shared: &mut u64) -> Result<(), Vec<usize>> {
        let Theory {
            checker,
            euf,
            arith,
            trail,
            loaded,
            ..
        } = self;
        let (checker, euf) = (&*checker, &*euf);
        for i in *loaded..trail.len() {
            let mark = arith.mark();
            trail[i].simplex_mark = mark;
            let e = &trail[i];
            let own = if e.has_arith {
                arith.assert(checker, (e.atom, e.lit.is_positive()), i)
            } else {
                Ok(())
            };
            let end = trail
                .get(i + 1)
                .map_or(euf.shared.len(), |n| n.shared_start);
            let asserted = own.and_then(|()| {
                for k in e.shared_start..end {
                    let (a, b) = euf.shared[k];
                    let leaves = (checker.template.terms[a], checker.template.terms[b]);
                    arith.assert_equal(checker, leaves, SHARED_BASE + k)?;
                    *shared += 1;
                }
                Ok(())
            });
            if let Err(tags) = asserted {
                arith.undo_to(mark);
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
        let mut idxs = Vec::with_capacity(tags.len());
        for &t in tags {
            match t.checked_sub(SHARED_BASE) {
                Some(k) => {
                    let (a, b) = self.euf.shared[k];
                    let template = &self.checker.template;
                    idxs.extend(self.euf.explain_equal(tm, template, a, b));
                }
                None => idxs.push(t),
            }
        }
        conflict_lits(&self.trail, &idxs)
    }

    /// The antecedents of a literal a consistent sync implied: the trail
    /// literals its recorded reason rests on, in trail order.
    fn explain(&mut self, tm: &TermManager, lit: Lit) -> Vec<Lit> {
        let implied = self.reasons[lit.var() as usize]
            .filter(|r| r.lit == lit)
            .unwrap_or_else(|| panic!("{lit:?} was not implied by the theory layer"));
        let tags = self
            .euf
            .explain(tm, &self.checker.template, implied.why)
            .unwrap_or_else(|| panic!("incomplete explanation of implied {lit:?}"));
        conflict_lits(&self.trail, &tags)
    }

    /// The EUF verdict on the asserted entries: the earliest-asserted
    /// violated disequality with its explanation, if any.
    fn euf_verdict(&mut self, tm: &TermManager) -> Result<(), Vec<Lit>> {
        match self.euf.check(tm, &self.checker.template) {
            Some(tags) => Err(conflict_lits(&self.trail, &tags)),
            None => Ok(()),
        }
    }

    /// Retracts every entry from `keep` on, restoring EUF and simplex to the
    /// state before the first of them was asserted.
    fn retract_to(&mut self, keep: usize) {
        let Some(first) = self.trail.get(keep) else {
            return;
        };
        self.euf.undo_to(first.euf_mark);
        for e in &self.trail[keep..] {
            self.euf.on_trail[e.lit.var() as usize] = false;
        }
        if keep < self.loaded {
            self.arith.undo_to(first.simplex_mark);
            self.loaded = keep;
        }
        self.trail.truncate(keep);
    }

    /// The check of a complete assignment, after a consistent
    /// [`Theory::sync`] (so every entry's bounds and shared equalities are
    /// loaded and rationally feasible): integer branch-and-bound, the one
    /// part of the theory that needs the whole assignment. `None` when it is
    /// inconclusive (the branching limit).
    fn final_check(&mut self, tm: &TermManager) -> Option<Result<(), Vec<Lit>>> {
        debug_assert_eq!(self.loaded, self.trail.len(), "entries left unloaded");
        if !self.trail.iter().any(|e| e.has_arith) {
            return Some(Ok(()));
        }
        let pivots_before = self.arith.pivots();
        let mut span = ids_obs::span("simplex");
        let outcome = self.arith.final_check();
        span.note(|| format!("pivots={}", self.arith.pivots() - pivots_before));
        drop(span);
        match outcome {
            ArithOutcome::Sat(_) => Some(Ok(())),
            ArithOutcome::Conflict(tags) => Some(Err(self.arith_conflict(tm, &tags))),
            ArithOutcome::Unknown => None,
        }
    }
}

/// Maps conflict tags (trail indices, the axiom sentinel) back to the
/// asserted SAT literals, in trail order.
fn conflict_lits(trail: &[Entry], tags: &[usize]) -> Vec<Lit> {
    let mut idxs: Vec<usize> = tags.iter().copied().filter(|&t| t != AXIOM_TAG).collect();
    idxs.sort_unstable();
    idxs.dedup();
    idxs.into_iter().map(|t| trail[t].lit).collect()
}

impl View<'_> {
    /// Counts one theory round and records its telemetry.
    fn round(&mut self, elapsed: Duration, pivots: u64) {
        self.stats.theory_rounds += 1;
        if ids_obs::metrics_active() {
            ids_obs::record_metric(ids_obs::Metric::TheoryRoundUs, elapsed.as_micros() as u64);
            ids_obs::record_metric(ids_obs::Metric::PivotsPerRound, pivots);
        }
    }

    /// Asserts that the stateless checker finds `lits` inconsistent.
    fn oracle_conflict(&self, lits: &[Lit], what: &str) {
        let pairs: Vec<(TermId, bool)> = lits
            .iter()
            .map(|l| {
                let live = self.theory.live[l.var() as usize];
                let atom = live.expect("theory literals are live atoms").atom;
                (atom, l.is_positive())
            })
            .collect();
        let batch = self.theory.checker.check(self.tm, &pairs);
        assert!(
            matches!(batch, TheoryCheck::Conflict(_)),
            "the online theory reported {what}; stateless checker says {batch:?}\n\
             literals: {pairs:?}"
        );
    }

    /// Hands a conflict back to the SAT core as a clause (or stops the
    /// search once the round budget is spent).
    fn conflict(&mut self, lits: Vec<Lit>) -> TheoryVerdict {
        if self.oracle {
            self.oracle_conflict(&lits, "a conflict");
        }
        if self.stats.theory_rounds >= self.max_rounds {
            return TheoryVerdict::Unknown;
        }
        TheoryVerdict::Conflict(lits.into_iter().map(Lit::negate).collect())
    }
}

impl TheoryHook for View<'_> {
    fn fixpoint(
        &mut self,
        trail: &[Lit],
        low_water: usize,
        implied: &mut Vec<Lit>,
    ) -> TheoryVerdict {
        let start = Instant::now();
        let (simplex_time, pivots) = (self.stats.simplex_time, self.stats.pivots);
        let (verdict, delta) = self
            .theory
            .sync(self.tm, trail, low_water, implied, self.stats);
        let elapsed = start.elapsed();
        self.stats.euf_time += elapsed.saturating_sub(self.stats.simplex_time - simplex_time);
        self.stats.theory_time += elapsed;
        if delta > 0 && ids_obs::metrics_active() {
            ids_obs::record_metric(ids_obs::Metric::TheoryDeltaLits, delta);
        }
        match verdict {
            Ok(()) => TheoryVerdict::Consistent,
            Err(lits) => {
                self.round(elapsed, self.stats.pivots - pivots);
                self.conflict(lits)
            }
        }
    }

    fn explain(&mut self, lit: Lit) -> Vec<Lit> {
        let start = Instant::now();
        let antecedents = self.theory.explain(self.tm, lit);
        let elapsed = start.elapsed();
        self.stats.euf_time += elapsed;
        self.stats.theory_time += elapsed;
        if self.oracle {
            let mut lits = antecedents.clone();
            lits.push(lit.negate());
            self.oracle_conflict(&lits, &format!("an explanation of {lit:?}"));
        }
        antecedents
    }

    fn final_check(&mut self, _trail: &[Lit]) -> TheoryVerdict {
        let start = Instant::now();
        let pivots_before = self.theory.arith.pivots();
        let verdict = self.theory.final_check(self.tm);
        let elapsed = start.elapsed();
        let pivots = self.theory.arith.pivots() - pivots_before;
        self.stats.final_checks += 1;
        self.stats.simplex_time += elapsed;
        self.stats.theory_time += elapsed;
        self.stats.pivots += pivots;
        self.round(elapsed, pivots);
        match verdict {
            Some(Ok(())) => {
                if self.oracle {
                    let literals = self.theory.literals();
                    let pivot = self.theory.arith.pivot;
                    let batch = self.theory.checker.check_with(self.tm, &literals, pivot);
                    assert!(
                        matches!(batch, TheoryCheck::Consistent),
                        "the online theory said Consistent; stateless checker says {batch:?}\n\
                         literals: {literals:?}"
                    );
                }
                TheoryVerdict::Consistent
            }
            Some(Err(lits)) => self.conflict(lits),
            None => TheoryVerdict::Unknown,
        }
    }

    fn progress(&self) -> (u64, u64) {
        (self.stats.theory_rounds, self.stats.pivots)
    }
}

#[cfg(test)]
mod tests {
    use super::euf::SigKey;
    use super::*;
    use crate::fxmap::FxHashMap;
    use crate::term::Sort;

    /// A check's verdict as the tests read it: a conflict as its trail
    /// literals.
    #[derive(Debug)]
    enum Verdict {
        Consistent,
        Conflict(Vec<Lit>),
        Unknown,
    }

    impl From<Option<Result<(), Vec<Lit>>>> for Verdict {
        fn from(verdict: Option<Result<(), Vec<Lit>>>) -> Verdict {
            match verdict {
                Some(Ok(())) => Verdict::Consistent,
                Some(Err(lits)) => Verdict::Conflict(lits),
                None => Verdict::Unknown,
            }
        }
    }

    /// A layer over an empty registry: a driver hands it its atoms.
    fn layer(tm: &mut TermManager, pivot: PivotRule) -> Theory {
        Theory::new(TheoryChecker::new(tm, &[]), pivot)
    }

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
        /// Atoms not yet handed to the layer.
        pending: Vec<TermId>,
        /// Whether the layer's check was started for this driver.
        watched: bool,
        /// Implied literals audited so far.
        implied_total: usize,
        /// The statistics the layer's syncs write.
        stats: SolverStats,
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
                pending: atoms.to_vec(),
                watched: false,
                implied_total: 0,
                stats: SolverStats::default(),
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
        /// the next check of a solver: the next start hands them to the
        /// layer, whose registry grows, so the layer grows and drops its
        /// trail, and the next sync re-reads this trail from the start. The
        /// trail's implied literals become plain ones (their reasons went
        /// with the layer's trail), and the watch lists are built again for
        /// the larger atom table.
        fn grow(&mut self, atoms: &[TermId]) {
            self.pending.extend_from_slice(atoms);
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

        /// Starts the layer's check over the driver's atoms (every one live,
        /// atom `i` as SAT variable `i`), handing it the atoms it has not
        /// seen, unless this driver started one already.
        fn start(&mut self, theory: &mut Theory, tm: &TermManager) {
            if !std::mem::replace(&mut self.watched, true) {
                let live = (0..).zip(self.atoms.iter().copied());
                let atoms = std::mem::take(&mut self.pending);
                let n = self.atoms.len();
                theory.check(tm, &atoms, live, n, &mut self.stats, u64::MAX);
            }
        }

        /// Fixpoint syncs, then (when consistent) the complete-assignment
        /// check, as the SAT loop runs them. Returns the verdict and the
        /// summed sync deltas.
        fn check(&mut self, theory: &mut Theory, tm: &TermManager) -> (Verdict, u64) {
            match self.fixpoints(theory, tm) {
                (Verdict::Consistent, total) => (theory.final_check(tm).into(), total),
                other => other,
            }
        }

        /// The fixpoint syncs alone, as the SAT loop runs them before it
        /// decides: sync, and on a propagating driver push what a consistent
        /// sync implied and sync again, until nothing new is implied. Every
        /// consistent sync must leave every entry's bounds loaded. Returns
        /// the verdict and the summed sync deltas.
        fn fixpoints(&mut self, theory: &mut Theory, tm: &TermManager) -> (Verdict, u64) {
            self.start(theory, tm);
            let mut total = 0;
            loop {
                let mut implied = Vec::new();
                let (verdict, delta) =
                    theory.sync(tm, &self.trail, self.low, &mut implied, &mut self.stats);
                self.low = self.trail.len();
                total += delta;
                self.conflicted = verdict.is_err();
                if let Err(lits) = verdict {
                    return (Verdict::Conflict(lits), total);
                }
                assert_eq!(
                    theory.loaded,
                    theory.trail_len(),
                    "a consistent sync left entries unloaded"
                );
                if !self.propagating || implied.is_empty() {
                    break;
                }
                self.audit(theory, tm, &implied);
                for l in implied {
                    self.implied_at.push(self.trail.len());
                    self.trail.push(l);
                }
            }
            self.levels.push(self.trail.len());
            (Verdict::Consistent, total)
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
        fn audit(&mut self, theory: &mut Theory, tm: &TermManager, implied: &[Lit]) {
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
                let antecedents = theory.explain(tm, l);
                for a in &antecedents {
                    let p = pos_of[a.var() as usize].expect("antecedent on the trail");
                    assert!(p < at, "{a:?} at {p} explains {l:?} at {at}");
                    assert_eq!(self.trail[p], *a);
                }
                let mut lits = antecedents;
                lits.push(l.negate());
                let pairs = self.pairs(&lits);
                assert_conflict_valid(tm, &theory.checker, &pairs, "implied literal");
            }
            self.implied_total += implied.len();
            let euf = &theory.euf;
            for (v, la) in theory.live.iter().enumerate() {
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

        /// The same check on a fresh layer over the same registry: the
        /// rebuild oracle.
        fn replay(&self, theory: &Theory, tm: &TermManager) -> Verdict {
            let mut fresh = Driver::new(&self.atoms);
            fresh.trail = self.trail.clone();
            let mut blank = Theory::new(theory.checker.clone(), PivotRule::Bland);
            fresh.check(&mut blank, tm).0
        }
    }

    fn verdict_name(c: &Verdict) -> &'static str {
        match c {
            Verdict::Consistent => "consistent",
            Verdict::Conflict(_) => "conflict",
            Verdict::Unknown => "unknown",
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
    /// explanation the layer returns is a true theory lemma.
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

    /// Differential fuzz, mixed theories: the persistent layer, synced
    /// across random low-water backtracks, must agree on the verdict with
    /// (a) the batch rebuild-per-model checker and (b) a fresh layer
    /// syncing the same trail in one shot, on every step of a long random
    /// schedule; every conflict either engine reports must be independently
    /// valid, and every implied literal passes [`Driver::audit`]. Some steps
    /// run the fixpoint syncs only ([`Driver::fixpoints`] checks that every
    /// consistent sync loads every entry).
    ///
    /// The atom universe grows between checks: the checker starts with half
    /// of the atoms and learns the rest in three batches
    /// ([`Driver::grow`]; the growth points after those learn nothing and
    /// only start the next check over), so the layer's EUF state is grown
    /// in place while the fresh replay builds it in one step.
    #[test]
    fn fuzz_session_agrees_with_rebuild_mixed() {
        let (tm, atoms) = mixed_universe();
        let mut tm = tm;
        let half = atoms.len() / 2;
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        let mut sat = Driver::propagating(&atoms[..half]);
        let (mut skipped, mut fixpoint_conflicts) = (0, 0);
        for step in 0..600 {
            if step % 100 == 99 {
                let learned = sat.atoms.len();
                let upto = (learned + (atoms.len() - half) / 3 + 1).min(atoms.len());
                sat.grow(&atoms[learned..upto]);
            }
            sat.evolve(&mut rng);
            // Now and then the SAT side decides on without a final check,
            // so bounds loaded at fixpoints are retracted by later
            // backjumps with no final check in between. A fixpoint conflict
            // must still be a genuine one.
            if rng.chance(30) {
                skipped += 1;
                if let (Verdict::Conflict(c), _) = sat.fixpoints(&mut theory, &tm) {
                    fixpoint_conflicts += 1;
                    let what = format!("step {step} fixpoint");
                    assert_conflict_valid(&tm, &theory.checker, &sat.pairs(&c), &what);
                }
                continue;
            }
            let (got, _) = sat.check(&mut theory, &tm);
            let literals = sat.pairs(&sat.trail);
            let want = theory.checker.check_with(&tm, &literals, PivotRule::Bland);
            assert_eq!(
                verdict_name(&got),
                batch_verdict_name(&want),
                "step {step}: layer vs batch on {literals:?}"
            );
            let replay = sat.replay(&theory, &tm);
            assert_eq!(
                verdict_name(&got),
                verdict_name(&replay),
                "step {step}: layer vs fresh replay on {literals:?}"
            );
            for (name, verdict) in [("layer", &got), ("replay", &replay)] {
                if let Verdict::Conflict(c) = verdict {
                    assert_conflict_valid(
                        &tm,
                        &theory.checker,
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
    /// layer and a fresh rebuild are bit-exact, so verdicts AND conflict
    /// explanations must be identical on every step; every implied literal
    /// passes [`Driver::audit`].
    #[test]
    fn fuzz_euf_explanations_identical_to_rebuild() {
        let (tm, atoms) = euf_universe();
        let mut tm = tm;
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut rng = Rng(0xdead_beef_0000_0042);
        let mut sat = Driver::propagating(&atoms);
        let mut conflicts_seen = 0;
        for step in 0..400 {
            sat.evolve(&mut rng);
            let (got, _) = sat.check(&mut theory, &tm);
            let replay = sat.replay(&theory, &tm);
            let literals = sat.pairs(&sat.trail);
            match (&got, &replay) {
                (Verdict::Consistent, Verdict::Consistent) => {}
                (Verdict::Conflict(a), Verdict::Conflict(b)) => {
                    assert_eq!(a, b, "step {step}: explanations diverged on {literals:?}");
                    let what = format!("step {step}");
                    assert_conflict_valid(&tm, &theory.checker, &sat.pairs(a), &what);
                    conflicts_seen += 1;
                }
                other => panic!("step {step}: verdicts diverged: {other:?}"),
            }
            let want = theory.checker.check_with(&tm, &literals, PivotRule::Bland);
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut rng = Rng(0x0123_4567_89ab_cdef);
        let mut sat = Driver::propagating(&atoms);
        let mut compared = 0;
        for _ in 0..400 {
            sat.evolve(&mut rng);
            let (res, _) = sat.check(&mut theory, &tm);
            if !matches!(res, Verdict::Consistent) {
                continue;
            }
            let snapshot = theory.clone();
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
            sat.check(&mut theory, &tm);
            sat.backtrack(base);
            sat.start(&mut theory, &tm);
            let stats = &mut sat.stats;
            let _ = theory.sync(&tm, &sat.trail, sat.low, &mut Vec::new(), stats);
            sat.low = sat.trail.len();
            let (a, b) = (&theory.euf, &snapshot.euf);
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
                theory.trail_len(),
                snapshot.trail_len(),
                "layer trail length"
            );
            assert_eq!(theory.loaded, snapshot.loaded, "loaded entries");
            assert_eq!(
                theory.arith.simplex.mark(),
                snapshot.arith.simplex.mark(),
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        for (atom, positive) in [(eq_xy, true), (eq_zw, true), (eq_xz, false), (eq_yw, false)] {
            sat.push(atom, positive);
        }
        let (res, delta) = sat.check(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
        assert_eq!(delta, 4);
        // f(x) != f(y) contradicts x = y by congruence.
        sat.push(eq_f, false);
        let (res, delta) = sat.check(&mut theory, &tm);
        match res {
            Verdict::Conflict(c) => {
                assert_eq!(sat.pairs(&c), vec![(eq_xy, true), (eq_f, false)]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(delta, 1);
        // Backjump below the conflicting literal only and flip it.
        sat.backtrack(4);
        sat.push(eq_f, true);
        let (res, delta) = sat.check(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
        assert_eq!(delta, 2, "one retracted, one asserted");
        assert!((delta as usize) < theory.trail_len());
        assert_eq!(theory.trail_len(), 5);
        assert!(matches!(sat.replay(&theory, &tm), Verdict::Consistent));
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&[le_xx]);
        sat.push(le_xx, false);
        let (res, _) = sat.check(&mut theory, &tm);
        match res {
            Verdict::Conflict(c) => assert_eq!(sat.pairs(&c), vec![(le_xx, false)]),
            other => panic!("expected conflict, got {other:?}"),
        }
        // And the positive polarity (0 <= 0) is consistent.
        sat.backtrack(0);
        sat.push(le_xx, true);
        let (res, _) = sat.check(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&[eq_xy, eq_yz, eq_f]);
        // x = y and f(x) != f(z): consistent.
        sat.push(eq_xy, true);
        sat.push(eq_f, false);
        let (res, _) = sat.check(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
        // Retract f(x) != f(z), assert y = z and f(x) != f(z) again after
        // it — the congruence f(x) = f(z) now follows and conflicts.
        sat.backtrack(1);
        sat.push(eq_yz, true);
        sat.push(eq_f, false);
        let (res, delta) = sat.check(&mut theory, &tm);
        match res {
            Verdict::Conflict(c) => {
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&[le3, ge5]);
        // x >= 5 alone: consistent.
        sat.push(ge5, true);
        let (res, _) = sat.check(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent));
        // + x <= 3: conflict {x>=5, x<=3}.
        sat.push(le3, true);
        let (res, _) = sat.check(&mut theory, &tm);
        match res {
            Verdict::Conflict(c) => {
                assert_eq!(sat.pairs(&c), vec![(ge5, true), (le3, true)]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        // Retract x <= 3, keep x >= 5: consistent again — the old bound must
        // not linger in the warm-restarted tableau.
        sat.backtrack(1);
        let (res, _) = sat.check(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&[le5, ge7]);
        sat.push(le5, true);
        let (res, _) = sat.fixpoints(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
        sat.push(ge7, true);
        match sat.fixpoints(&mut theory, &tm).0 {
            Verdict::Conflict(c) => {
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&cycle);
        for &atom in &cycle[..2] {
            sat.push(atom, true);
            let (res, _) = sat.fixpoints(&mut theory, &tm);
            assert!(matches!(res, Verdict::Consistent), "{res:?}");
        }
        sat.push(cycle[2], true);
        match sat.fixpoints(&mut theory, &tm).0 {
            Verdict::Conflict(c) => {
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        for atom in atoms {
            sat.push(atom, true);
        }
        match sat.fixpoints(&mut theory, &tm).0 {
            Verdict::Conflict(c) => assert_eq!(
                sat.pairs(&c),
                vec![(eq_ac, true), (le5, true), (eq_cb, true), (ge7, true)]
            ),
            other => panic!("expected a fixpoint conflict, got {other:?}"),
        }
        sat.backtrack(3);
        sat.push(ge7, true);
        let (res, _) = sat.fixpoints(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
        assert!(theory.euf.shared.is_empty());
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
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&atoms);
        sat.start(&mut theory, &tm);
        let base = theory.euf.num_rep.clone();
        sat.push(eq_0a, true);
        let (res, _) = sat.fixpoints(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
        let (euf, template) = (&theory.euf, &theory.checker.template);
        let (n0, nka) = (template.node(zero), template.node(ka));
        assert_eq!(euf.find(nka), n0, "the class of 0 absorbed key(a)'s");
        assert_eq!(euf.num_rep[n0], Some(nka as u32));
        sat.push(eq_ab, true);
        sat.push(ge7, true);
        match sat.fixpoints(&mut theory, &tm).0 {
            Verdict::Conflict(c) => {
                assert_eq!(
                    sat.pairs(&c),
                    vec![(eq_0a, true), (eq_ab, true), (ge7, true)]
                )
            }
            other => panic!("expected a fixpoint conflict, got {other:?}"),
        }
        sat.backtrack(0);
        let (res, _) = sat.fixpoints(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent), "{res:?}");
        assert_eq!(theory.euf.num_rep, base);
    }

    /// The layer detects registry growth (new atoms pushed mid-scope) and
    /// grows instead of answering from a stale template.
    #[test]
    fn grows_when_checker_learns_new_atoms() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let eq_xy = tm.eq(x, y);
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let mut sat = Driver::new(&[eq_xy]);
        sat.push(eq_xy, true);
        let (res, _) = sat.check(&mut theory, &tm);
        assert!(matches!(res, Verdict::Consistent));
        // New atoms arrive (a later assertion batch); a new solve starts
        // from low water 0.
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let eq_f = tm.eq(fx, fy);
        let mut sat = Driver::new(&[eq_xy, eq_f]);
        sat.push(eq_xy, true);
        sat.push(eq_f, false);
        let (res, _) = sat.check(&mut theory, &tm);
        match res {
            Verdict::Conflict(c) => {
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
        let mut base = EufState::default();
        base.parent = (0..n).collect();
        base.size = vec![1; n];
        base.pf_parent = vec![None; n];
        base.use_lists = use_lists;
        base.sig_table = sig_table;
        base.diseqs = vec![(tru, fls, AXIOM_TAG)];
        base.diseq_lists = diseq_lists;
        base.tru = tru;
        base.fls = fls;
        base.next = (0..n).collect();
        base.num_rep = num_rep;
        base
    }

    /// A registry grown in random batches of atoms, with syncs, backjumps
    /// and checks between the batches: after each growth the layer's EUF
    /// state covers the registry's template and equals, field for field, the
    /// base state built straight from it ([`reference_base`]).
    #[test]
    fn grown_euf_state_equals_a_fresh_build() {
        let mut rng = Rng(0x6a09_e667_f3bc_c908);
        let (mut tm, atoms) = growth_universe(&mut rng);
        let mut theory = layer(&mut tm, PivotRule::Bland);
        let (mut learned, mut growths, mut checks) = (0, 0, 0);
        while learned < atoms.len() {
            let upto = (learned + 1 + rng.below(8)).min(atoms.len());
            let mut stats = SolverStats::default();
            let batch = &atoms[learned..upto];
            theory.check(&tm, batch, std::iter::empty(), 0, &mut stats, u64::MAX);
            learned = upto;
            growths += 1;
            let (grown, template) = (&theory.euf, &theory.checker.template);
            let want = reference_base(&theory.checker);
            assert_eq!(grown.parent.len(), template.terms.len(), "nodes");
            assert_eq!(grown.apps, template.app_nodes.len(), "applications");
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
            assert_eq!(theory.trail_len(), 0, "layer trail");
            // Work the grown state before the next batch: syncs, backjumps
            // and checks over everything learned so far.
            let mut sat = Driver::propagating(&atoms[..learned]);
            for _ in 0..rng.below(12) {
                sat.evolve(&mut rng);
                sat.check(&mut theory, &tm);
                checks += 1;
            }
        }
        assert!(
            growths >= 8 && checks >= 40,
            "{growths} growths, {checks} checks"
        );
    }

    /// The hybrid rule's heuristic phase is counted over the layer, not
    /// over one simplex instance: [`Arith::reset`] carries the cumulative
    /// pivot counter into every simplex the layer rebuilds when its registry
    /// grows, so once a check has spent `bland_after` pivots, the simplex of
    /// the next check starts in Bland mode.
    #[test]
    fn rebuilt_simplex_starts_with_the_spent_heuristic_phase() {
        let mut tm = TermManager::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| tm.var(n, Sort::Int));
        let one = tm.int(1);
        let sum = tm.add(x, y);
        // `x + y >= 1` is violated at the all-zero start: loading it pivots.
        let first = tm.ge(sum, one);
        let second = tm.ge(z, one);
        let mut theory = layer(&mut tm, PivotRule::Hybrid { bland_after: 1 });
        let mut sat = Driver::new(&[first]);
        sat.push(first, true);
        let (verdict, _) = sat.check(&mut theory, &tm);
        assert!(matches!(verdict, Verdict::Consistent));
        assert!(
            theory.arith.simplex.pivots >= 1,
            "the first check must pivot"
        );
        assert!(theory.arith.simplex.mark() > 0, "the bound is loaded");

        // A new atom: the next check rebuilds the simplex.
        sat.grow(&[second]);
        sat.start(&mut theory, &tm);
        assert_eq!(theory.arith.simplex.mark(), 0, "the simplex was rebuilt");
        assert!(
            theory.arith.simplex.in_bland_fallback(),
            "a rebuilt simplex starts in Bland mode once the layer spent its budget"
        );
    }
}
