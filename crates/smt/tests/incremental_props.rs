//! Property tests for the incremental solver: on randomly generated
//! assertion/goal sequences over the decidable fragment (EUF + arithmetic +
//! sets), a push/pop session must return exactly the verdicts of a reference
//! decision procedure on the equivalent one-shot query — after any number of
//! earlier checks and retractions have warmed the session's state. The
//! reference is the textbook offline lazy loop ([`reference_check`]), not a
//! fresh [`IncrementalSolver`], which runs the same online loop as the
//! session.

use ids_smt::sat::{ClauseDbOptions, SatOptions, SatSolver};
use ids_smt::theory::{TheoryCheck, TheoryChecker};
use ids_smt::{
    cnf, lower, IncrementalSolver, PivotRule, SatResult, SolverConfig, Sort, TermId, TermManager,
};
use proptest::prelude::*;

/// The reference decision procedure: the restart-from-scratch offline lazy
/// DPLL(T) loop over public building blocks. Lower and Tseitin-encode the
/// assertions, find a propositional model, check its theory literals with
/// the stateless checker, and on a conflict add the blocking clause and
/// solve again from scratch. Every blocked model is a distinct assignment of
/// finitely many atoms, so the loop ends.
fn reference_check(tm: &mut TermManager, assertions: &[TermId]) -> SatResult {
    let roots = lower::lower(tm, assertions);
    let mut sat = SatSolver::new();
    let atom_map = cnf::tseitin(tm, &roots, &mut sat);
    // The var-indexed table lists the atoms in variable order.
    let atoms: Vec<TermId> = atom_map.atom_of_var.iter().flatten().copied().collect();
    let checker = TheoryChecker::new(tm, &atoms);
    loop {
        match sat.solve() {
            SatResult::Sat => {}
            other => return other,
        }
        let literals = atom_map.model_literals(&sat);
        match checker.check(tm, &literals) {
            TheoryCheck::Consistent => return SatResult::Sat,
            TheoryCheck::Unknown => return SatResult::Unknown,
            TheoryCheck::Conflict(indices) => {
                let blocking = indices
                    .iter()
                    .map(|&i| {
                        let (atom, positive) = literals[i];
                        atom_map.lit_of(atom, !positive)
                    })
                    .collect();
                if !sat.add_clause(blocking) {
                    return SatResult::Unsat;
                }
            }
        }
    }
}

/// [`reference_check`] in validity terms, like
/// [`IncrementalSolver::check_valid_scoped`]: `Sat` means `formula` is valid.
fn reference_valid(tm: &mut TermManager, formula: TermId) -> SatResult {
    let negated = tm.not(formula);
    match reference_check(tm, &[negated]) {
        SatResult::Unsat => SatResult::Sat,
        SatResult::Sat => SatResult::Unsat,
        SatResult::Unknown => SatResult::Unknown,
    }
}

/// The solver configurations the session properties cycle through: the
/// default, and the same heuristics with the deletion/restart knobs turned
/// aggressive so that clause-database reductions fire on test-sized
/// instances (deletion inside scopes and method scopes must never change a
/// verdict or survive a rollback).
fn session_config(seed: u64) -> SolverConfig {
    match seed % 2 {
        0 => SolverConfig::default(),
        _ => SolverConfig {
            sat: SatOptions {
                restart_unit: 1,
                clause_db: ClauseDbOptions {
                    first_reduce: 1,
                    reduce_inc: 0,
                    glue_lbd: 1,
                },
            },
            pivot: PivotRule::Hybrid { bland_after: 2 },
            ..SolverConfig::default()
        },
    }
}

/// Deterministic xorshift so the tests are reproducible without an external
/// rand crate (same idiom as the SAT core's random tests).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(2654435761).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A little universe of shared terms the random formulas draw from.
struct Universe {
    ints: Vec<TermId>,
    locs: Vec<TermId>,
    sets: Vec<TermId>,
}

impl Universe {
    fn new(tm: &mut TermManager) -> Universe {
        let mut ints: Vec<TermId> = (0..3)
            .map(|i| tm.var(&format!("i{}", i), Sort::Int))
            .collect();
        for k in -1i128..=2 {
            ints.push(tm.int(k));
        }
        let locs: Vec<TermId> = (0..3)
            .map(|i| tm.var(&format!("l{}", i), Sort::Loc))
            .collect();
        // Uninterpreted maps over locations give the EUF theory work to do.
        for &l in locs.clone().iter() {
            ints.push(tm.app("len", vec![l], Sort::Int));
        }
        let set = Sort::set_of(Sort::Loc);
        let mut sets: Vec<TermId> = (0..2)
            .map(|i| tm.var(&format!("S{}", i), set.clone()))
            .collect();
        let u = tm.union(sets[0], sets[1]);
        let d = tm.diff(sets[0], sets[1]);
        let s0 = tm.singleton(locs[0]);
        sets.push(u);
        sets.push(d);
        sets.push(s0);
        Universe { ints, locs, sets }
    }
}

/// One random ground formula of the decidable fragment.
fn random_formula(rng: &mut XorShift, tm: &mut TermManager, u: &Universe, depth: u32) -> TermId {
    if depth > 0 && rng.below(2) == 0 {
        let a = random_formula(rng, tm, u, depth - 1);
        let b = random_formula(rng, tm, u, depth - 1);
        return match rng.below(4) {
            0 => tm.and2(a, b),
            1 => tm.or2(a, b),
            2 => tm.implies(a, b),
            _ => {
                let na = tm.not(a);
                tm.or2(na, b)
            }
        };
    }
    let atom = match rng.below(4) {
        0 => {
            let a = u.ints[rng.below(u.ints.len() as u64) as usize];
            let b = u.ints[rng.below(u.ints.len() as u64) as usize];
            tm.le(a, b)
        }
        1 => {
            let a = u.ints[rng.below(u.ints.len() as u64) as usize];
            let b = u.ints[rng.below(u.ints.len() as u64) as usize];
            tm.eq(a, b)
        }
        2 => {
            let a = u.locs[rng.below(u.locs.len() as u64) as usize];
            let b = u.locs[rng.below(u.locs.len() as u64) as usize];
            tm.eq(a, b)
        }
        _ => {
            let x = u.locs[rng.below(u.locs.len() as u64) as usize];
            let s = u.sets[rng.below(u.sets.len() as u64) as usize];
            tm.member(x, s)
        }
    };
    if rng.below(3) == 0 {
        tm.not(atom)
    } else {
        atom
    }
}

proptest! {
    /// A session interleaving permanent assertions with scoped goal checks
    /// answers every check exactly like the reference on the one-shot
    /// conjunction of the live assertions.
    #[test]
    fn session_checks_match_reference(seed in 0u64..48) {
        let mut rng = XorShift::new(seed);
        let mut tm = TermManager::new();
        let universe = Universe::new(&mut tm);
        let mut session = IncrementalSolver::with_config(session_config(seed));
        let mut permanent: Vec<TermId> = Vec::new();

        let steps = 2 + rng.below(4);
        for _ in 0..steps {
            // Occasionally grow the permanent assertion set (the "shared
            // hypothesis prefix" of a method session).
            if rng.below(2) == 0 {
                let h = random_formula(&mut rng, &mut tm, &universe, 2);
                permanent.push(h);
                session.assert(&mut tm, h);
            }
            // One scoped goal: push / assert / check / pop.
            let goal = random_formula(&mut rng, &mut tm, &universe, 2);
            session.push();
            session.assert(&mut tm, goal);
            let incremental = session.check(&mut tm);
            session.pop();

            let mut fresh_query = permanent.clone();
            fresh_query.push(goal);
            let fresh = reference_check(&mut tm, &fresh_query);
            prop_assert_eq!(
                incremental,
                fresh,
                "seed {} diverged (permanent: {}, goal formula differs)",
                seed,
                permanent.len()
            );

            // The session must also agree on the permanent set alone after
            // the pop (retraction really retracts).
            let after_pop = session.check(&mut tm);
            let fresh_base = reference_check(&mut tm, &permanent);
            prop_assert_eq!(after_pop, fresh_base, "seed {} diverged after pop", seed);
        }
    }

    /// The two-level scope discipline of a structure-scoped warm pool:
    /// random "methods" (a residue assertion set plus scoped goal checks)
    /// run inside method scopes over a shared random structure prelude. Every
    /// check must match the reference on prelude ∪ residue ∪ goal, no
    /// matter how many earlier method scopes were opened, checked and rolled
    /// back — and the prelude alone must still answer like the reference
    /// after each rollback.
    #[test]
    fn method_scopes_match_reference(seed in 0u64..48) {
        let mut rng = XorShift::new(seed);
        let mut tm = TermManager::new();
        let universe = Universe::new(&mut tm);
        let mut pool = IncrementalSolver::with_config(session_config(seed));
        let mut prelude: Vec<TermId> = Vec::new();
        for _ in 0..(1 + rng.below(3)) {
            let h = random_formula(&mut rng, &mut tm, &universe, 1);
            prelude.push(h);
            pool.assert(&mut tm, h);
        }
        let methods = 2 + rng.below(3);
        for _ in 0..methods {
            pool.push_method_scope();
            let mut residue: Vec<TermId> = Vec::new();
            for _ in 0..rng.below(3) {
                let h = random_formula(&mut rng, &mut tm, &universe, 2);
                residue.push(h);
                pool.assert(&mut tm, h);
            }
            for _ in 0..(1 + rng.below(3)) {
                let goal = random_formula(&mut rng, &mut tm, &universe, 2);
                pool.push();
                pool.assert(&mut tm, goal);
                let pooled = pool.check(&mut tm);
                pool.pop();
                let mut fresh_query = prelude.clone();
                fresh_query.extend(&residue);
                fresh_query.push(goal);
                let fresh = reference_check(&mut tm, &fresh_query);
                prop_assert_eq!(
                    pooled,
                    fresh,
                    "seed {} diverged (prelude {}, residue {})",
                    seed,
                    prelude.len(),
                    residue.len()
                );
            }
            pool.pop_method_scope();
            let after = pool.check(&mut tm);
            let fresh_base = reference_check(&mut tm, &prelude);
            prop_assert_eq!(after, fresh_base, "seed {} diverged after rollback", seed);
        }
    }

    /// The persistent theory trail never leaks across method-scope
    /// rollbacks: after every `pop_method_scope` the trail holds exactly the
    /// literals it held before the scope was opened, no matter how many
    /// checks (and theory conflicts) ran inside the scope — so a structure
    /// pool cycling thousands of methods cannot accrete theory state.
    #[test]
    fn method_scope_rollback_restores_theory_trail(seed in 0u64..48) {
        let mut rng = XorShift::new(seed.wrapping_add(101));
        let mut tm = TermManager::new();
        let universe = Universe::new(&mut tm);
        let mut pool = IncrementalSolver::with_config(session_config(seed));
        for _ in 0..(1 + rng.below(2)) {
            let h = random_formula(&mut rng, &mut tm, &universe, 1);
            pool.assert(&mut tm, h);
        }
        pool.check(&mut tm);
        for _ in 0..(3 + rng.below(3)) {
            let before = pool.theory_trail_len();
            pool.push_method_scope();
            for _ in 0..rng.below(3) {
                let h = random_formula(&mut rng, &mut tm, &universe, 2);
                pool.assert(&mut tm, h);
            }
            for _ in 0..(1 + rng.below(3)) {
                let goal = random_formula(&mut rng, &mut tm, &universe, 2);
                pool.check_valid_scoped(&mut tm, goal);
            }
            pool.pop_method_scope();
            prop_assert_eq!(
                pool.theory_trail_len(),
                before,
                "seed {}: trail leaked across pop_method_scope",
                seed
            );
        }
    }

    /// `check_valid_scoped` agrees with the reference's validity verdict on
    /// hypothesis-entailment queries (the VC shape).
    #[test]
    fn scoped_validity_matches_reference(seed in 0u64..48) {
        let mut rng = XorShift::new(seed);
        let mut tm = TermManager::new();
        let universe = Universe::new(&mut tm);
        let mut session = IncrementalSolver::with_config(session_config(seed));
        let mut hyps: Vec<TermId> = Vec::new();
        for _ in 0..(1 + rng.below(3)) {
            let h = random_formula(&mut rng, &mut tm, &universe, 1);
            hyps.push(h);
            session.assert(&mut tm, h);
        }
        for _ in 0..(1 + rng.below(3)) {
            let goal = random_formula(&mut rng, &mut tm, &universe, 2);
            let scoped = session.check_valid_scoped(&mut tm, goal);
            let formula = {
                let ante = tm.and(hyps.clone());
                tm.implies(ante, goal)
            };
            let fresh = reference_valid(&mut tm, formula);
            prop_assert_eq!(scoped, fresh, "seed {} diverged", seed);
        }
    }

    /// A fresh solver's one check agrees with the reference on random
    /// conjunctions, as a satisfiability check and as a validity check of
    /// their implication shape, under every session configuration.
    #[test]
    fn fresh_solver_matches_reference(seed in 0u64..48) {
        let mut rng = XorShift::new(seed.wrapping_add(211));
        let mut tm = TermManager::new();
        let universe = Universe::new(&mut tm);
        let fresh = || IncrementalSolver::with_config(session_config(seed));
        for _ in 0..(1 + rng.below(3)) {
            let assertions: Vec<TermId> = (0..(1 + rng.below(4)))
                .map(|_| random_formula(&mut rng, &mut tm, &universe, 2))
                .collect();
            let mut solver = fresh();
            solver.assert_all(&mut tm, &assertions);
            let got = solver.check(&mut tm);
            let want = reference_check(&mut tm, &assertions);
            prop_assert_eq!(got, want, "seed {} diverged on check", seed);

            let formula = {
                let ante = tm.and(assertions[1..].to_vec());
                tm.implies(ante, assertions[0])
            };
            let got = fresh().check_valid_scoped(&mut tm, formula);
            let want = reference_valid(&mut tm, formula);
            prop_assert_eq!(got, want, "seed {} diverged on check_valid", seed);
        }
    }
}
