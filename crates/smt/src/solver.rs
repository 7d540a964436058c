//! The one-shot SMT solver facade: quantifier elimination as preprocessing,
//! then one check of a fresh [`IncrementalSolver`].
//!
//! The crate has one DPLL(T) loop, the online loop of [`IncrementalSolver`]
//! (theory checked at every propagation fixpoint, theory undo bound to the
//! SAT trail). [`Solver`] only adds what a one-shot query needs on top of
//! it: quantifier elimination for the quantified RQ3 encoding, dropping the
//! quantified assertions instantiation could not eliminate, and reporting a
//! Sat answer of an approximate elimination as Unknown. Because the lowering
//! pass already instantiated all the set and array structure, termination is
//! guaranteed for the decidable FWYB fragment.

use crate::incremental::IncrementalSolver;
use crate::model::Model;
use crate::quant::{contains_forall, eliminate_quantifiers, QuantConfig};
use crate::sat::{SatOptions, SatResult};
use crate::simplex::PivotRule;
use crate::term::{TermId, TermManager};

/// A named bundle of search-heuristic settings (restart policy, clause
/// database management, simplex pivot rule).
///
/// Verdicts are identical under every profile — the profiles differ only in
/// how fast they get there (and in the telemetry they produce). `legacy` is
/// the pre-tuning behaviour, kept selectable for benchmarking and as a
/// differential-testing oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SolverProfile {
    /// Luby restarts, LBD-based clause deletion, hybrid simplex pivoting.
    #[default]
    Default,
    /// Geometric restarts, no clause deletion, Bland pivoting.
    Legacy,
}

impl SolverProfile {
    /// Parses a CLI value (`default` / `legacy`).
    pub fn parse(s: &str) -> Option<SolverProfile> {
        match s {
            "default" => Some(SolverProfile::Default),
            "legacy" => Some(SolverProfile::Legacy),
            _ => None,
        }
    }

    /// The CLI spelling of this profile.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolverProfile::Default => "default",
            SolverProfile::Legacy => "legacy",
        }
    }
}

/// Tuning knobs of the solver.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Maximum number of theory rounds (see [`SolverStats::theory_rounds`]):
    /// the one hard stop of the DPLL(T) loop, answered with
    /// [`SatResult::Unknown`] once exhausted. A round is one theory verdict
    /// handed back to the SAT core: a theory conflict or a final check.
    pub max_theory_rounds: usize,
    /// Whether quantifiers are allowed (RQ3 quantified mode); if false, a
    /// formula containing `forall` yields `Unknown`.
    pub allow_quantifiers: bool,
    /// Quantifier instantiation configuration (quantified mode only).
    pub quant: QuantConfig,
    /// SAT-core options: restart policy and learned-clause database.
    pub sat: SatOptions,
    /// Simplex pivot rule used by the theory checker.
    pub pivot: PivotRule,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_theory_rounds: 200_000,
            allow_quantifiers: false,
            quant: QuantConfig::default(),
            sat: SatOptions::default(),
            pivot: PivotRule::hybrid(),
        }
    }
}

impl SolverConfig {
    /// The configuration used for the quantified (Dafny-style) encoding.
    pub fn quantified() -> SolverConfig {
        SolverConfig {
            allow_quantifiers: true,
            ..SolverConfig::default()
        }
    }

    /// The configuration of a named heuristics profile.
    pub fn with_profile(profile: SolverProfile) -> SolverConfig {
        match profile {
            SolverProfile::Default => SolverConfig::default(),
            SolverProfile::Legacy => SolverConfig {
                sat: SatOptions::legacy(),
                pivot: PivotRule::Bland,
                ..SolverConfig::default()
            },
        }
    }
}

/// Statistics of the last `check` call.
///
/// # Merge semantics
///
/// [`SolverStats::merge`] aggregates the stats of the many checks that
/// discharge one method's VCs — possibly across *multiple* solver sessions
/// (warm pools, repair passes). Every field carries one of exactly two rules,
/// documented per field below:
///
/// * **sum** — effort counters and elapsed wall-clock times. Work done in two
///   checks is the total of both, regardless of whether the checks shared a
///   session; this includes `sat_time`/`theory_time` and the per-phase
///   `lower_time`/`cnf_time`/`setup_time`/`euf_time`/`simplex_time` splits.
/// * **max** — point-in-time gauges. `learned_kept` and `max_lbd` describe
///   solver *state*, not work; summing them across the checks of one warm
///   session would double-count the same live clauses once per check, so
///   merging keeps the largest observed value.
///
/// New fields must pick a rule here and extend the exhaustive
/// `merge_rule_per_field` unit test, which destructures the struct so that an
/// added field fails compilation until its rule is pinned.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Theory rounds: verdicts the theory handed back to the SAT core, one
    /// per theory conflict found at a propagation fixpoint plus one per final
    /// check (whatever its verdict), so a check refuted by Boolean
    /// propagation alone has none. Merge: **sum**.
    pub theory_rounds: u64,
    /// Final checks: theory checks of a complete assignment (integer
    /// branch-and-bound on top of what every fixpoint checks). Merge:
    /// **sum**.
    pub final_checks: u64,
    /// Shared equalities loaded into the simplex: equalities between
    /// numeric leaf terms that an EUF merge implied, each counted every
    /// time a propagation fixpoint asserts it. Merge: **sum**.
    pub shared_equalities: u64,
    /// SAT conflicts. Merge: **sum**.
    pub sat_conflicts: u64,
    /// SAT decisions. Merge: **sum**.
    pub sat_decisions: u64,
    /// SAT unit propagations, including those made at assertion time (unit
    /// clauses propagate at level 0 as they are added). Merge: **sum**.
    pub sat_propagations: u64,
    /// Theory-implied literals the SAT core enqueued at propagation
    /// fixpoints (atoms congruence already decided, so the search never
    /// guessed them). Merge: **sum**.
    pub theory_propagations: u64,
    /// Input clauses the session's SAT core holds at the check (learned
    /// clauses excluded): the session's size at each check, not the
    /// clauses the check added, so a sum over the checks of one warm
    /// session counts its shared prelude once per check. Merge: **sum**.
    pub initial_clauses: u64,
    /// Theory atoms the session has encoded at the check: like
    /// `initial_clauses`, the session's size at each check. Merge: **sum**.
    pub atoms: u64,
    /// Wall-clock time spent inside the SAT core. Merge: **sum**.
    pub sat_time: std::time::Duration,
    /// Wall-clock time spent inside the theory checker (EUF + simplex +
    /// conflict explanation). Merge: **sum**.
    pub theory_time: std::time::Duration,
    /// Wall-clock time spent lowering assertions (set/array finite
    /// instantiation) before CNF conversion. Merge: **sum**.
    pub lower_time: std::time::Duration,
    /// Wall-clock time of the EUF congruence passes (a component of
    /// `theory_time`). Merge: **sum**.
    pub euf_time: std::time::Duration,
    /// Wall-clock time of the simplex passes (a component of `theory_time`).
    /// Merge: **sum**.
    pub simplex_time: std::time::Duration,
    /// Wall-clock time spent encoding lowered assertions into clauses:
    /// clausifying the lowering's facts, Tseitin-encoding the asserted
    /// roots, adding the clauses, and recording each theory atom's scope.
    /// Disjoint from `lower_time`. Merge: **sum**.
    pub cnf_time: std::time::Duration,
    /// Wall-clock time of a check's setup before the search: growing the
    /// theory checker by the new atoms, readying the theory session for it,
    /// and building the check's live-atom table and watch lists. Merge:
    /// **sum**.
    pub setup_time: std::time::Duration,
    /// Assertions answered from already-lowered session state (a warm solver
    /// pool's structure-scope prelude, or any re-asserted formula whose
    /// lowering and CNF encoding were still live). A one-shot [`Solver`]
    /// check starts from an empty session, so only an assertion repeated in
    /// its input counts here. Merge: **sum**.
    pub prelude_reused: u64,
    /// Assertions lowered and clause-converted fresh: for a one-shot
    /// [`Solver`] check, its distinct assertions (one for
    /// [`Solver::check_valid`]). Merge: **sum**.
    pub prelude_lowered: u64,
    /// SAT-core restarts. Merge: **sum**.
    pub restarts: u64,
    /// Live learned clauses at the end of the check (after any deletions).
    /// A point-in-time gauge, not a counter. Merge: **max**.
    pub learned_kept: u64,
    /// Learned clauses deleted by clause-database reductions. Merge: **sum**.
    pub learned_deleted: u64,
    /// Largest literal-block distance of any clause learned during the check.
    /// A gauge. Merge: **max**.
    pub max_lbd: u64,
    /// Simplex pivots performed across all theory rounds. Merge: **sum**.
    pub pivots: u64,
    /// Unsatisfiable cores extracted from the activation-literal assumption
    /// mechanism: one per Unsat check (summing over a run counts how many VCs
    /// closed with a core). A one-shot [`Solver`] check assumes no activation
    /// literal, so its core is empty. Merge: **sum**.
    pub unsat_cores: u64,
    /// Size of the largest extracted unsat core (number of assumption
    /// literals the refutation actually used; 0 when no core was extracted
    /// or the input was unsatisfiable without any assumption). A gauge.
    /// Merge: **max**.
    pub unsat_core_size: u64,
}

impl SolverStats {
    /// Accumulates another stats record into this one following the per-field
    /// rules documented on [`SolverStats`]: counters and times are summed;
    /// the `learned_kept` and `max_lbd` gauges take the maximum.
    pub fn merge(&mut self, other: &SolverStats) {
        self.theory_rounds += other.theory_rounds;
        self.final_checks += other.final_checks;
        self.shared_equalities += other.shared_equalities;
        self.sat_conflicts += other.sat_conflicts;
        self.sat_decisions += other.sat_decisions;
        self.sat_propagations += other.sat_propagations;
        self.theory_propagations += other.theory_propagations;
        self.initial_clauses += other.initial_clauses;
        self.atoms += other.atoms;
        self.sat_time += other.sat_time;
        self.theory_time += other.theory_time;
        self.lower_time += other.lower_time;
        self.euf_time += other.euf_time;
        self.simplex_time += other.simplex_time;
        self.cnf_time += other.cnf_time;
        self.setup_time += other.setup_time;
        self.prelude_reused += other.prelude_reused;
        self.prelude_lowered += other.prelude_lowered;
        self.restarts += other.restarts;
        self.learned_kept = self.learned_kept.max(other.learned_kept);
        self.learned_deleted += other.learned_deleted;
        self.max_lbd = self.max_lbd.max(other.max_lbd);
        self.pivots += other.pivots;
        self.unsat_cores += other.unsat_cores;
        self.unsat_core_size = self.unsat_core_size.max(other.unsat_core_size);
    }
}

/// The one-shot SMT solver facade (see the [module documentation](self)).
///
/// # Example
/// ```
/// use ids_smt::{TermManager, Sort, Solver, SatResult};
/// let mut tm = TermManager::new();
/// let x = tm.var("x", Sort::Loc);
/// let y = tm.var("y", Sort::Loc);
/// let f = tm.app("f", vec![x], Sort::Int);
/// let g = tm.app("f", vec![y], Sort::Int);
/// let eq_xy = tm.eq(x, y);
/// let ne_fg = tm.neq(f, g);
/// let mut solver = Solver::new();
/// assert_eq!(solver.check(&mut tm, &[eq_xy, ne_fg]), SatResult::Unsat);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    model: Option<Model>,
}

impl Solver {
    /// Creates a solver with the default (decidable-mode) configuration.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            config,
            ..Solver::default()
        }
    }

    /// Statistics of the last `check` call.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The model of the last `check` call, if it returned [`SatResult::Sat`].
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// Checks satisfiability of the conjunction of `assertions`: quantifiers
    /// are eliminated first (quantified mode only), then the assertions go
    /// into a fresh [`IncrementalSolver`] at base scope for one check.
    pub fn check(&mut self, tm: &mut TermManager, assertions: &[TermId]) -> SatResult {
        self.stats = SolverStats::default();
        self.model = None;

        let mut assertions = assertions.to_vec();
        let mut approximate = false;
        if assertions.iter().any(|&a| contains_forall(tm, a)) {
            if !self.config.allow_quantifiers {
                return SatResult::Unknown;
            }
            let (out, approx) = eliminate_quantifiers(tm, &assertions, self.config.quant);
            approximate = approx;
            // If instantiation could not eliminate every quantifier we can
            // still be sound for Unsat by dropping the remaining quantified
            // assertions (weakening); a Sat answer is then reported as
            // Unknown.
            assertions = out
                .into_iter()
                .filter(|&a| !contains_forall(tm, a))
                .collect();
        }

        let mut session = IncrementalSolver::with_config(self.config);
        session.assert_all(tm, &assertions);
        let result = session.check(tm);
        self.stats = session.stats();
        self.model = session.model().cloned();
        match result {
            // Positive-forall instantiation is incomplete: a model of the
            // instances is not necessarily a model of the original formula.
            SatResult::Sat if approximate => SatResult::Unknown,
            other => other,
        }
    }

    /// Convenience wrapper: checks whether `formula` is valid (its negation is
    /// unsatisfiable).
    pub fn check_valid(&mut self, tm: &mut TermManager, formula: TermId) -> SatResult {
        let neg = tm.not(formula);
        match self.check(tm, &[neg]) {
            SatResult::Unsat => SatResult::Sat, // valid
            SatResult::Sat => SatResult::Unsat, // counterexample exists
            SatResult::Unknown => SatResult::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn euf_arith_combination() {
        // next(x) = y, len(y) = 3, len(next(x)) = 4 : unsat.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let nx = tm.app("next", vec![x], Sort::Loc);
        let len_y = tm.app("len", vec![y], Sort::Int);
        let len_nx = tm.app("len", vec![nx], Sort::Int);
        let three = tm.int(3);
        let four = tm.int(4);
        let a1 = tm.eq(nx, y);
        let a2 = tm.eq(len_y, three);
        let a3 = tm.eq(len_nx, four);
        let mut s = Solver::new();
        assert_eq!(s.check(&mut tm, &[a1, a2, a3]), SatResult::Unsat);
    }

    #[test]
    fn stats_are_populated_after_check() {
        // A query that needs decisions, propagations and a theory round:
        // (p -> x <= 0) && (!p -> x <= 1) && x >= 5 : unsat.
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
        let mut s = Solver::new();
        assert_eq!(s.check(&mut tm, &[c1, c2, c3]), SatResult::Unsat);
        let stats = s.stats();
        assert!(stats.theory_rounds > 0, "{:?}", stats);
        assert!(stats.sat_propagations > 0, "{:?}", stats);
        assert!(stats.atoms > 0, "{:?}", stats);
        assert!(stats.initial_clauses > 0, "{:?}", stats);

        // merge() accumulates every counter.
        let mut acc = SolverStats::default();
        acc.merge(&stats);
        acc.merge(&stats);
        assert_eq!(acc.sat_propagations, 2 * stats.sat_propagations);
        assert_eq!(acc.theory_rounds, 2 * stats.theory_rounds);
    }

    #[test]
    fn heuristic_telemetry_is_populated_and_merges() {
        use crate::sat::{ClauseDbOptions, RestartPolicy, SatOptions};

        // A conflict-heavy propositional core (pigeonhole 5→4 over Bool
        // vars) under restart/deletion knobs aggressive enough to fire on a
        // test-sized query. It gets a solver of its own: arithmetic asserted
        // alongside would be refuted at the first propagation fixpoint,
        // before the search ever restarts.
        let mut tm = TermManager::new();
        let p: Vec<Vec<TermId>> = (0..5)
            .map(|i| {
                (0..4)
                    .map(|j| tm.var(&format!("p{}_{}", i, j), Sort::Bool))
                    .collect()
            })
            .collect();
        let mut pigeonhole = Vec::new();
        for row in &p {
            pigeonhole.push(tm.or(row.clone()));
        }
        for j in 0..p[0].len() {
            for i in 0..p.len() {
                for k in (i + 1)..p.len() {
                    let (a, b) = (p[i][j], p[k][j]);
                    let na = tm.not(a);
                    let nb = tm.not(b);
                    pigeonhole.push(tm.or2(na, nb));
                }
            }
        }
        let config = SolverConfig {
            sat: SatOptions {
                restart: RestartPolicy::Luby { unit: 1 },
                clause_db: ClauseDbOptions {
                    enabled: true,
                    first_reduce: 1,
                    reduce_inc: 0,
                    glue_lbd: 1,
                },
            },
            ..SolverConfig::default()
        };
        let mut s = Solver::with_config(config);
        assert_eq!(s.check(&mut tm, &pigeonhole), SatResult::Unsat);
        let stats = s.stats();
        assert!(stats.restarts > 0, "{:?}", stats);
        assert!(stats.learned_deleted > 0, "{:?}", stats);
        assert!(stats.max_lbd > 0, "{:?}", stats);

        // Arithmetic that needs simplex pivots: a chain with a contradiction.
        let xs: Vec<TermId> = (0..4)
            .map(|i| tm.var(&format!("x{}", i), Sort::Int))
            .collect();
        let mut arith: Vec<TermId> = xs.windows(2).map(|w| tm.le(w[0], w[1])).collect();
        let one = tm.int(1);
        let last_plus = tm.add(xs[3], one);
        arith.push(tm.le(last_plus, xs[0]));
        let mut s2 = Solver::new();
        assert_eq!(s2.check(&mut tm, &arith), SatResult::Unsat);
        assert!(s2.stats().pivots > 0, "{:?}", s2.stats());

        // merge(): counters sum, max_lbd takes the maximum.
        let mut acc = SolverStats {
            max_lbd: 1,
            ..SolverStats::default()
        };
        acc.merge(&stats);
        acc.merge(&s2.stats());
        assert_eq!(acc.restarts, stats.restarts + s2.stats().restarts);
        assert_eq!(
            acc.learned_deleted,
            stats.learned_deleted + s2.stats().learned_deleted
        );
        assert_eq!(
            acc.learned_kept,
            stats.learned_kept.max(s2.stats().learned_kept),
            "learned_kept is a gauge: merge takes the max"
        );
        assert_eq!(acc.pivots, stats.pivots + s2.stats().pivots);
        assert_eq!(acc.max_lbd, stats.max_lbd.max(s2.stats().max_lbd).max(1));
    }

    /// Pins the merge rule of *every* `SolverStats` field: counters and
    /// elapsed times sum, the `learned_kept`/`max_lbd` gauges take the max.
    /// The struct is fully destructured, so adding a field without choosing
    /// (and asserting) its rule here is a compile error.
    #[test]
    fn merge_rule_per_field() {
        use std::time::Duration;

        let ms = Duration::from_millis;
        let mk = |seed: u64| SolverStats {
            theory_rounds: seed,
            final_checks: seed + 24,
            shared_equalities: seed + 27,
            sat_conflicts: seed + 1,
            sat_decisions: seed + 2,
            sat_propagations: seed + 3,
            theory_propagations: seed + 23,
            initial_clauses: seed + 4,
            atoms: seed + 5,
            sat_time: ms(seed + 6),
            theory_time: ms(seed + 7),
            lower_time: ms(seed + 8),
            euf_time: ms(seed + 9),
            simplex_time: ms(seed + 10),
            prelude_reused: seed + 11,
            prelude_lowered: seed + 12,
            restarts: seed + 13,
            learned_kept: seed + 14,
            learned_deleted: seed + 15,
            max_lbd: seed + 16,
            pivots: seed + 17,
            unsat_cores: seed + 18,
            unsat_core_size: seed + 19,
            cnf_time: ms(seed + 25),
            setup_time: ms(seed + 26),
        };
        let (a, b) = (mk(100), mk(5));
        let mut merged = a;
        merged.merge(&b);
        let SolverStats {
            theory_rounds,
            final_checks,
            shared_equalities,
            sat_conflicts,
            sat_decisions,
            sat_propagations,
            theory_propagations,
            initial_clauses,
            atoms,
            sat_time,
            theory_time,
            lower_time,
            euf_time,
            simplex_time,
            cnf_time,
            setup_time,
            prelude_reused,
            prelude_lowered,
            restarts,
            learned_kept,
            learned_deleted,
            max_lbd,
            pivots,
            unsat_cores,
            unsat_core_size,
        } = merged;
        // Sums: effort counters and wall-clock times.
        assert_eq!(theory_rounds, a.theory_rounds + b.theory_rounds);
        assert_eq!(final_checks, a.final_checks + b.final_checks);
        assert_eq!(shared_equalities, a.shared_equalities + b.shared_equalities);
        assert_eq!(sat_conflicts, a.sat_conflicts + b.sat_conflicts);
        assert_eq!(sat_decisions, a.sat_decisions + b.sat_decisions);
        assert_eq!(sat_propagations, a.sat_propagations + b.sat_propagations);
        assert_eq!(
            theory_propagations,
            a.theory_propagations + b.theory_propagations
        );
        assert_eq!(initial_clauses, a.initial_clauses + b.initial_clauses);
        assert_eq!(atoms, a.atoms + b.atoms);
        assert_eq!(sat_time, a.sat_time + b.sat_time);
        assert_eq!(theory_time, a.theory_time + b.theory_time);
        assert_eq!(lower_time, a.lower_time + b.lower_time);
        assert_eq!(euf_time, a.euf_time + b.euf_time);
        assert_eq!(simplex_time, a.simplex_time + b.simplex_time);
        assert_eq!(cnf_time, a.cnf_time + b.cnf_time);
        assert_eq!(setup_time, a.setup_time + b.setup_time);
        assert_eq!(prelude_reused, a.prelude_reused + b.prelude_reused);
        assert_eq!(prelude_lowered, a.prelude_lowered + b.prelude_lowered);
        assert_eq!(restarts, a.restarts + b.restarts);
        assert_eq!(learned_deleted, a.learned_deleted + b.learned_deleted);
        assert_eq!(pivots, a.pivots + b.pivots);
        assert_eq!(unsat_cores, a.unsat_cores + b.unsat_cores);
        // Gauges: merge must keep the maximum, in either merge order.
        assert_eq!(learned_kept, a.learned_kept.max(b.learned_kept));
        assert_eq!(max_lbd, a.max_lbd.max(b.max_lbd));
        assert_eq!(unsat_core_size, a.unsat_core_size.max(b.unsat_core_size));
        let mut reversed = b;
        reversed.merge(&a);
        assert_eq!(reversed.learned_kept, learned_kept);
        assert_eq!(reversed.max_lbd, max_lbd);
        assert_eq!(reversed.unsat_core_size, unsat_core_size);
    }

    /// A method with *multiple* UNSAT VCs merges its per-check core stats as
    /// counter-plus-gauge: `unsat_cores` counts how many checks closed with a
    /// core (sum), `unsat_core_size` reports the largest core any of them
    /// used (max) — not the last one and not the total.
    #[test]
    fn multi_unsat_vc_core_merge_is_sum_plus_max() {
        let vc = |core_size: u64| SolverStats {
            unsat_cores: 1,
            unsat_core_size: core_size,
            ..SolverStats::default()
        };
        let mut method = SolverStats::default();
        for &size in &[3, 11, 7] {
            method.merge(&vc(size));
        }
        assert_eq!(method.unsat_cores, 3, "one core per UNSAT VC, summed");
        assert_eq!(method.unsat_core_size, 11, "gauge keeps the largest core");
        // A VC refuted without any core (unsatisfiable from the clause set
        // alone, no assumption used) contributes nothing to either field.
        method.merge(&SolverStats::default());
        assert_eq!(method.unsat_cores, 3);
        assert_eq!(method.unsat_core_size, 11);
    }

    #[test]
    fn legacy_profile_matches_default_verdicts() {
        // The two shipped profiles must agree on every verdict; spot-check
        // the module's own test queries under the legacy profile.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Int);
        let fy = tm.app("f", vec![y], Sort::Int);
        let eq_xy = tm.eq(x, y);
        let ne_fg = tm.neq(fx, fy);
        for profile in [SolverProfile::Default, SolverProfile::Legacy] {
            let mut s = Solver::with_config(SolverConfig::with_profile(profile));
            assert_eq!(s.check(&mut tm, &[eq_xy, ne_fg]), SatResult::Unsat);
            assert_eq!(s.check(&mut tm, &[eq_xy]), SatResult::Sat);
        }
        assert_eq!(SolverProfile::parse("legacy"), Some(SolverProfile::Legacy));
        assert_eq!(
            SolverProfile::parse("default"),
            Some(SolverProfile::Default)
        );
        assert_eq!(SolverProfile::parse("bogus"), None);
        assert_eq!(SolverProfile::Legacy.as_str(), "legacy");
    }

    #[test]
    fn model_is_returned_on_sat() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let nq = tm.not(q);
        let f = tm.and2(p, nq);
        let mut s = Solver::new();
        assert_eq!(s.check(&mut tm, &[f]), SatResult::Sat);
        let m = s.model().expect("model");
        assert_eq!(m.value_of(p), Some(true));
        assert_eq!(m.value_of(q), Some(false));
    }

    #[test]
    fn check_valid_wrapper() {
        // (x = y) -> (f(x) = f(y)) is valid.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Int);
        let fy = tm.app("f", vec![y], Sort::Int);
        let eq = tm.eq(x, y);
        let eqf = tm.eq(fx, fy);
        let imp = tm.implies(eq, eqf);
        let mut s = Solver::new();
        assert_eq!(s.check_valid(&mut tm, imp), SatResult::Sat);
        // x = y -> x = z is not valid.
        let z = tm.var("z", Sort::Loc);
        let eq2 = tm.eq(x, z);
        let imp2 = tm.implies(eq, eq2);
        assert_eq!(s.check_valid(&mut tm, imp2), SatResult::Unsat);
    }

    #[test]
    fn quantifier_rejected_in_decidable_mode() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let p = tm.app("p", vec![x], Sort::Bool);
        let all = tm.forall(vec![("x".into(), Sort::Loc)], p);
        let mut s = Solver::new();
        assert_eq!(s.check(&mut tm, &[all]), SatResult::Unknown);
    }

    #[test]
    fn sorted_list_insert_core_reasoning() {
        // A miniature of the sorted-list LC check after insertion:
        //   key(x) <= k, k <= key(y), next(x) = z, next(z) = y,
        //   key(z) = k, and the claim "key(x) <= key(z) and key(z) <= key(y)".
        // Asserting the negation of the claim must be unsat.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let z = tm.var("z", Sort::Loc);
        let k = tm.var("k", Sort::Int);
        let key = |tm: &mut TermManager, l| tm.app("key", vec![l], Sort::Int);
        let kx = key(&mut tm, x);
        let ky = key(&mut tm, y);
        let kz = key(&mut tm, z);
        let nx = tm.app("next", vec![x], Sort::Loc);
        let nz = tm.app("next", vec![z], Sort::Loc);
        let h1 = tm.le(kx, k);
        let h2 = tm.le(k, ky);
        let h3 = tm.eq(nx, z);
        let h4 = tm.eq(nz, y);
        let h5 = tm.eq(kz, k);
        let c1 = tm.le(kx, kz);
        let c2 = tm.le(kz, ky);
        let claim = tm.and2(c1, c2);
        let nclaim = tm.not(claim);
        let mut s = Solver::new();
        assert_eq!(
            s.check(&mut tm, &[h1, h2, h3, h4, h5, nclaim]),
            SatResult::Unsat
        );
    }
}
