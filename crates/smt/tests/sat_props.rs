//! Differential CNF fuzzing of the CDCL SAT core.
//!
//! Heuristic changes to a CDCL solver (restart schedules, clause deletion)
//! are the classic place to ship a silent soundness bug: every individual
//! verdict still *looks* plausible. This suite checks the production
//! [`SatSolver`] — under its default options and under restart and deletion
//! knobs turned aggressive — against an independent oracle: a deliberately
//! naive reference DPLL with
//! none of the machinery under test (no watched literals, no learning, no
//! restarts, no deletion). On SAT answers the model is additionally checked
//! against every clause, so the two implementations cannot agree by luck on
//! a wrong model.
//!
//! All generation is driven by fixed seeds (deterministic xorshift), so a
//! failure reproduces exactly; any discrepancy ever found gets its instance
//! added to the regression corpus at the bottom.

use ids_smt::sat::{ClauseDbOptions, Lit, SatOptions, SatResult, SatSolver, Var};
use proptest::prelude::*;

/// Deterministic xorshift so the tests are reproducible without an external
/// rand crate (same idiom as the SAT core's own random tests).
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

/// A reference DPLL: unit propagation + chronological two-way branching on a
/// plain clause list. Exponential and slow — and therefore simple enough to
/// trust as an oracle for small instances.
fn oracle_dpll(num_vars: usize, clauses: &[Vec<Lit>]) -> Option<Vec<bool>> {
    fn solve(clauses: &[Vec<Lit>], assign: &mut Vec<Option<bool>>) -> bool {
        // Unit propagation to fixpoint.
        loop {
            let mut unit: Option<Lit> = None;
            for c in clauses {
                let mut satisfied = false;
                let mut unassigned = 0usize;
                let mut last = None;
                for &l in c {
                    match assign[l.var() as usize] {
                        Some(v) if v == l.is_positive() => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            unassigned += 1;
                            last = Some(l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned {
                    0 => return false, // falsified clause
                    1 => {
                        unit = last;
                        break;
                    }
                    _ => {}
                }
            }
            match unit {
                Some(l) => assign[l.var() as usize] = Some(l.is_positive()),
                None => break,
            }
        }
        // Branch on a variable of some not-yet-satisfied clause.
        let mut branch: Option<Var> = None;
        'clauses: for c in clauses {
            let satisfied = c
                .iter()
                .any(|l| assign[l.var() as usize] == Some(l.is_positive()));
            if satisfied {
                continue;
            }
            for &l in c {
                if assign[l.var() as usize].is_none() {
                    branch = Some(l.var());
                    break 'clauses;
                }
            }
        }
        let Some(v) = branch else {
            return true; // every clause satisfied
        };
        for value in [true, false] {
            let saved = assign.clone();
            assign[v as usize] = Some(value);
            if solve(clauses, assign) {
                return true;
            }
            *assign = saved;
        }
        false
    }
    let mut assign = vec![None; num_vars];
    if solve(clauses, &mut assign) {
        // Unconstrained variables default to false.
        Some(assign.into_iter().map(|v| v.unwrap_or(false)).collect())
    } else {
        None
    }
}

/// The heuristics configurations under differential test: the solver's
/// configuration, and the same heuristics with the restart and deletion
/// knobs turned aggressive so that restarts and clause-database reductions
/// actually fire on test-sized instances.
fn configs() -> Vec<(&'static str, SatOptions)> {
    vec![
        ("default", SatOptions::default()),
        (
            "luby1+aggressive-deletion",
            SatOptions {
                restart_unit: 1,
                clause_db: ClauseDbOptions {
                    first_reduce: 2,
                    reduce_inc: 1,
                    glue_lbd: 1,
                },
            },
        ),
    ]
}

fn random_instance(rng: &mut XorShift) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = 4 + rng.below(9) as usize; // 4..=12
    let num_clauses = 2 + rng.below(5 * num_vars as u64) as usize;
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let len = 1 + rng.below(3) as usize; // 1..=3
        let clause: Vec<Lit> = (0..len)
            .map(|_| Lit::new(rng.below(num_vars as u64) as Var, rng.below(2) == 0))
            .collect();
        clauses.push(clause);
    }
    (num_vars, clauses)
}

/// Runs one instance through the production solver under `options` and
/// checks it against the oracle verdict; on SAT, checks the model.
fn check_against_oracle(
    label: &str,
    options: SatOptions,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    oracle_sat: bool,
    context: &str,
) {
    let mut s = SatSolver::with_options(options);
    for _ in 0..num_vars {
        s.new_var();
    }
    let mut alive = true;
    for c in clauses {
        alive = s.add_clause(c.clone());
        if !alive {
            break;
        }
    }
    let verdict = if alive { s.solve() } else { SatResult::Unsat };
    match verdict {
        SatResult::Sat => {
            assert!(oracle_sat, "[{label}] solver SAT, oracle UNSAT ({context})");
            for c in clauses {
                assert!(
                    c.iter().any(|l| s.value(l.var()) == Some(l.is_positive())),
                    "[{label}] model violates clause {c:?} ({context})"
                );
            }
        }
        SatResult::Unsat => {
            assert!(
                !oracle_sat,
                "[{label}] solver UNSAT, oracle SAT ({context})"
            );
        }
        SatResult::Unknown => panic!("[{label}] unexpected Unknown without budget ({context})"),
    }
}

proptest! {
    /// Random 3-SAT-ish instances: sat/unsat parity with the oracle and
    /// model validity, under every heuristics configuration.
    #[test]
    fn solver_matches_oracle_on_random_cnf(seed in 0u64..300) {
        let mut rng = XorShift::new(seed);
        let (num_vars, clauses) = random_instance(&mut rng);
        let oracle_sat = oracle_dpll(num_vars, &clauses).is_some();
        for (label, options) in configs() {
            check_against_oracle(
                label,
                options,
                num_vars,
                &clauses,
                oracle_sat,
                &format!("seed {seed}"),
            );
        }
    }

    /// Incremental clause addition: solving between chunks (which warms
    /// learned clauses, restarts and deletions) must not change the verdict
    /// of the accumulated clause set, and every intermediate verdict matches
    /// the oracle on the clauses added so far.
    #[test]
    fn incremental_addition_matches_oracle(seed in 0u64..120) {
        let mut rng = XorShift::new(seed);
        let (num_vars, clauses) = random_instance(&mut rng);
        for (label, options) in configs() {
            let mut s = SatSolver::with_options(options);
            for _ in 0..num_vars {
                s.new_var();
            }
            let mut added = 0usize;
            let mut alive = true;
            while added < clauses.len() {
                let chunk = (1 + rng.below(4) as usize).min(clauses.len() - added);
                for c in &clauses[added..added + chunk] {
                    if alive {
                        alive = s.add_clause(c.clone());
                    }
                }
                added += chunk;
                let verdict = if alive { s.solve() } else { SatResult::Unsat };
                let oracle_sat = oracle_dpll(num_vars, &clauses[..added]).is_some();
                match verdict {
                    SatResult::Sat => prop_assert!(
                        oracle_sat,
                        "[{}] seed {}: SAT after {} clauses, oracle disagrees",
                        label, seed, added
                    ),
                    SatResult::Unsat => prop_assert!(
                        !oracle_sat,
                        "[{}] seed {}: UNSAT after {} clauses, oracle disagrees",
                        label, seed, added
                    ),
                    SatResult::Unknown => prop_assert!(false, "unexpected Unknown"),
                }
            }
        }
    }
}

/// Pigeonhole formula: `pigeons` pigeons into `holes` holes, UNSAT whenever
/// `pigeons > holes`. Conflict-heavy, so restarts and clause-database
/// reductions really fire under the aggressive test configurations.
fn pigeonhole(s: &mut SatSolver, pigeons: usize, holes: usize) -> Vec<Vec<Lit>> {
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    let mut clauses = Vec::new();
    for row in &p {
        clauses.push(row.iter().map(|&v| Lit::new(v, true)).collect::<Vec<_>>());
    }
    for i in 0..pigeons {
        for k in (i + 1)..pigeons {
            for (&a, &b) in p[i].iter().zip(&p[k]) {
                clauses.push(vec![Lit::new(a, false), Lit::new(b, false)]);
            }
        }
    }
    for c in &clauses {
        s.add_clause(c.clone());
    }
    clauses
}

/// Fixed-seed regression corpus. Instances that ever exposed a discrepancy
/// between the production solver and the oracle belong here, pinned forever;
/// the corpus starts with known-hard shapes (pigeonhole, parity-ish chains)
/// that stress learning, restarts and deletion.
#[test]
fn regression_corpus_all_configs() {
    // Hand-picked seeds (dense/UNSAT-heavy shapes) plus the first few.
    let corpus: &[u64] = &[0, 1, 2, 3, 17, 42, 97, 1234, 65535, 987654321];
    for &seed in corpus {
        let mut rng = XorShift::new(seed);
        let (num_vars, clauses) = random_instance(&mut rng);
        let oracle_sat = oracle_dpll(num_vars, &clauses).is_some();
        for (label, options) in configs() {
            check_against_oracle(
                label,
                options,
                num_vars,
                &clauses,
                oracle_sat,
                &format!("corpus seed {seed}"),
            );
        }
    }
}

#[test]
fn pigeonhole_unsat_under_every_config_and_deletion_fires() {
    for (label, options) in configs() {
        let mut s = SatSolver::with_options(options);
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve(), SatResult::Unsat, "[{label}] pigeonhole 6→5");
        if label.contains("aggressive-deletion") {
            assert!(
                s.learned_deleted > 0,
                "[{label}] aggressive deletion config never deleted a clause \
                 (restarts {}, conflicts {})",
                s.restarts,
                s.conflicts
            );
        }
        // Deletions must never exceed what was learned.
        assert!(s.learned_deleted <= s.conflicts, "[{label}]");
    }
}

#[test]
fn sat_core_telemetry_is_populated() {
    // Tiny Luby unit + immediate reductions: restarts and deletions must
    // show up in the public counters on a conflict-heavy instance.
    let options = SatOptions {
        restart_unit: 1,
        clause_db: ClauseDbOptions {
            first_reduce: 1,
            reduce_inc: 0,
            glue_lbd: 1,
        },
    };
    let mut s = SatSolver::with_options(options);
    pigeonhole(&mut s, 6, 5);
    assert_eq!(s.solve(), SatResult::Unsat);
    assert!(s.restarts > 0, "expected restarts, got {:?}", s.restarts);
    assert!(s.conflicts > 0);
    assert!(s.max_lbd > 0, "learned clauses must record an LBD");
    assert!(s.learned_deleted > 0, "reductions must delete something");
}

#[test]
fn deletion_keeps_solver_reusable_after_unsat_subset_retracts() {
    // Solve a SAT instance, then keep adding clauses until UNSAT, under the
    // most aggressive deletion config: verdict monotonicity (SAT may flip to
    // UNSAT, never back) and final parity with the oracle.
    let options = SatOptions {
        restart_unit: 1,
        clause_db: ClauseDbOptions {
            first_reduce: 1,
            reduce_inc: 0,
            glue_lbd: 1,
        },
    };
    let mut rng = XorShift::new(7);
    for _ in 0..20 {
        let (num_vars, clauses) = random_instance(&mut rng);
        let mut s = SatSolver::with_options(options);
        for _ in 0..num_vars {
            s.new_var();
        }
        let mut alive = true;
        let mut was_unsat = false;
        for (i, c) in clauses.iter().enumerate() {
            if alive {
                alive = s.add_clause(c.clone());
            }
            let verdict = if alive { s.solve() } else { SatResult::Unsat };
            let oracle_sat = oracle_dpll(num_vars, &clauses[..=i]).is_some();
            assert_eq!(
                verdict == SatResult::Sat,
                oracle_sat,
                "prefix {} diverged from oracle",
                i + 1
            );
            if was_unsat {
                assert_eq!(verdict, SatResult::Unsat, "UNSAT must be sticky");
            }
            was_unsat = verdict == SatResult::Unsat;
        }
    }
}

/// The effort counters `(decisions, conflicts, propagations)` of a solver.
fn counts(s: &SatSolver) -> (u64, u64, u64) {
    (s.decisions, s.conflicts, s.propagations)
}

/// A seeded random 3-SAT instance with distinct variables per clause.
fn random_3sat(rng: &mut XorShift, num_vars: usize, num_clauses: usize) -> Vec<Vec<Lit>> {
    (0..num_clauses)
        .map(|_| {
            let mut vars: Vec<Var> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.below(num_vars as u64) as Var;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit::new(v, rng.below(2) == 0))
                .collect()
        })
        .collect()
}

/// The search itself is pinned: on fixed instances the solver makes exactly
/// these decisions, conflicts and propagations. Constant-factor work on the
/// SAT core (data layout, allocation) must leave every number unchanged; a
/// deliberate heuristic change updates them.
#[test]
fn search_counts_are_pinned_on_fixed_instances() {
    let mut got = Vec::new();
    // The small differential instances.
    for seed in [0u64, 1, 2, 3, 17, 42, 97, 1234] {
        let mut rng = XorShift::new(seed);
        let (num_vars, clauses) = random_instance(&mut rng);
        let mut s = SatSolver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.clone());
        }
        s.solve();
        got.push(counts(&s));
    }
    // Random 3-SAT near the threshold: enough conflicts for restarts and
    // learned clauses to shape the search.
    for seed in [5u64, 6, 7] {
        let mut rng = XorShift::new(seed);
        let mut s = SatSolver::new();
        for _ in 0..80 {
            s.new_var();
        }
        for c in random_3sat(&mut rng, 80, 340) {
            s.add_clause(c);
        }
        s.solve();
        got.push(counts(&s));
    }
    // Pigeonhole 6 into 5.
    let mut s = SatSolver::new();
    pigeonhole(&mut s, 6, 5);
    assert_eq!(s.solve(), SatResult::Unsat);
    got.push(counts(&s));
    assert_eq!(got, PINNED_COUNTS);
}

/// [`search_counts_are_pinned_on_fixed_instances`], recorded before the SAT
/// core moved to one clause arena and an indexed decision heap. Each row is
/// one instance under `SatOptions::default()`.
#[rustfmt::skip]
const PINNED_COUNTS: &[(u64, u64, u64)] = &[
    // `random_instance` seeds 0, 1, 2, 3, 17, 42, 97, 1234.
    (5, 0, 10),
    (0, 0, 6),
    (0, 0, 10),
    (2, 0, 4),
    (0, 0, 4),
    (7, 0, 10),
    (0, 0, 2),
    (2, 0, 6),
    // Random 3-SAT, 80 variables, 340 clauses, seeds 5, 6, 7.
    (342, 284, 5439),
    (187, 134, 2475),
    (230, 195, 3438),
    // Pigeonhole 6 into 5.
    (194, 151, 1759),
];

/// An assumption-heavy `solve_under` loop shaped like the incremental
/// solver's checks: 48 activation variables, each guarding three clauses
/// and assumed true with probability 2/3 in each of 30 calls on one solver.
/// Verdicts, core sizes and the cumulative counters are pinned.
#[test]
fn assumption_loop_search_is_pinned() {
    let (results, counters) = assumption_loop();
    assert_eq!(results, PINNED_ASSUMPTION_RESULTS);
    assert_eq!(counters, PINNED_ASSUMPTION_COUNTS);
}

/// Per call: `Some(core size)` for Unsat, `None` for Sat.
#[rustfmt::skip]
const PINNED_ASSUMPTION_RESULTS: &[Option<usize>] = &[
    None, Some(27), Some(30), Some(33), Some(26), Some(31), None, None, Some(32), Some(34),
    Some(32), Some(32), Some(32), None, Some(38), None, None, Some(35), None, Some(32),
    None, Some(32), Some(34), Some(26), Some(33), Some(34), None, Some(33), Some(26), None,
];
const PINNED_ASSUMPTION_COUNTS: (u64, u64, u64) = (2864, 1070, 19013);

fn assumption_loop() -> (Vec<Option<usize>>, (u64, u64, u64)) {
    let mut rng = XorShift::new(2024);
    let mut s = SatSolver::new();
    let n = 60;
    for _ in 0..n {
        s.new_var();
    }
    for c in random_3sat(&mut rng, n, 170) {
        s.add_clause(c);
    }
    let acts: Vec<Var> = (0..48).map(|_| s.new_var()).collect();
    for &a in &acts {
        for mut c in random_3sat(&mut rng, n, 3) {
            c.push(Lit::new(a, false));
            s.add_clause(c);
        }
    }
    let mut results = Vec::new();
    for _ in 0..30 {
        let assumptions: Vec<Lit> = acts
            .iter()
            .map(|&a| Lit::new(a, rng.below(3) != 0))
            .collect();
        let verdict = s.solve_under(&assumptions);
        results.push(match verdict {
            SatResult::Sat => None,
            SatResult::Unsat => Some(s.unsat_core.len()),
            SatResult::Unknown => panic!("no budget was set"),
        });
    }
    (results, counts(&s))
}
