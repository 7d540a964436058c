//! Property tests for the simplex pivot rules.
//!
//! Random bounded LRA systems are checked for verdict parity between Bland's
//! rule (the termination-safe legacy rule) and the tuned hybrid rule
//! (largest-violation / Dantzig-style with a Bland fallback): satisfying
//! assignments are evaluated against every constraint, and infeasibility
//! explanations are validated by re-asserting exactly the tagged subset into
//! a fresh Bland instance, which must still be infeasible. A crafted
//! degenerate instance pins the fallback: with a tiny pivot budget the
//! hybrid rule must hand over to Bland and still terminate with the same
//! verdict. Warm instances, used the way the online theory session uses
//! them (constraints added, retracted to restore points and re-checked from
//! the current basis), must agree with a fresh instance on the constraints
//! that survive.

use ids_smt::rational::{DeltaRat, Rat};
use ids_smt::simplex::{ArithOutcome, LinExpr, PivotRule, Rel, Simplex};
use proptest::prelude::*;

/// Deterministic xorshift, same idiom as the other smt property tests.
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
    fn coeff(&mut self) -> i128 {
        // -3..=3, zero allowed (dropped by LinExpr::add_term).
        self.below(7) as i128 - 3
    }
}

/// One random constraint system over `nv` rational variables.
struct System {
    nv: usize,
    constraints: Vec<(LinExpr, Rel)>,
}

fn random_system(rng: &mut XorShift) -> System {
    let nv = 2 + rng.below(3) as usize; // 2..=4 variables
    let nc = 2 + rng.below(7) as usize; // 2..=8 constraints
    let mut constraints = Vec::with_capacity(nc);
    for _ in 0..nc {
        let mut e = LinExpr::constant(Rat::from_int(rng.below(21) as i128 - 10));
        for v in 0..nv {
            e.add_term(Rat::from_int(rng.coeff()), v);
        }
        let rel = match rng.below(4) {
            0 => Rel::Eq,
            1 => Rel::Lt,
            _ => Rel::Le,
        };
        constraints.push((e, rel));
    }
    System { nv, constraints }
}

/// Loads a subset of the system (by constraint index) into a fresh solver
/// with the given rule and checks it. Conflicts at assertion time and at
/// check time are both "infeasible".
fn run_subset(system: &System, subset: &[usize], rule: PivotRule) -> (ArithOutcome, u64, bool) {
    let mut s = Simplex::with_rule(rule);
    for _ in 0..system.nv {
        s.new_var(false);
    }
    for &i in subset {
        let (e, rel) = &system.constraints[i];
        if let Err(tags) = s.add_constraint(e, *rel, i) {
            return (
                ArithOutcome::Conflict(tags),
                s.pivots,
                s.in_bland_fallback(),
            );
        }
    }
    let out = s.check();
    (out, s.pivots, s.in_bland_fallback())
}

/// Evaluates a linear expression at a delta-rational assignment.
fn eval(e: &LinExpr, assignment: &[DeltaRat]) -> DeltaRat {
    let mut total = DeltaRat::from_rat(e.constant);
    for (&v, &c) in &e.terms {
        total = total + assignment[v].scale(c);
    }
    total
}

/// Checks a satisfying assignment against every loaded constraint.
fn assert_model_satisfies(system: &System, subset: &[usize], assignment: &[DeltaRat], label: &str) {
    for &i in subset {
        let (e, rel) = &system.constraints[i];
        let val = eval(e, assignment);
        let ok = match rel {
            Rel::Le => val <= DeltaRat::ZERO,
            Rel::Lt => val < DeltaRat::ZERO,
            Rel::Eq => val == DeltaRat::ZERO,
            Rel::Neq => unreachable!(),
        };
        assert!(ok, "[{label}] constraint #{i} violated: value {val}");
    }
}

proptest! {
    /// Bland, unlimited-budget hybrid and almost-no-budget hybrid must agree
    /// on feasibility; models must satisfy the constraints; conflict
    /// explanations must name a genuinely infeasible subset.
    #[test]
    fn pivot_rules_agree_on_random_systems(seed in 0u64..200) {
        let mut rng = XorShift::new(seed);
        let system = random_system(&mut rng);
        let all: Vec<usize> = (0..system.constraints.len()).collect();
        let rules = [
            ("bland", PivotRule::Bland),
            ("hybrid", PivotRule::Hybrid { bland_after: 1_000_000 }),
            ("hybrid-tiny-budget", PivotRule::Hybrid { bland_after: 1 }),
        ];
        let mut feasibility: Option<bool> = None;
        for (label, rule) in rules {
            let (out, _pivots, _fb) = run_subset(&system, &all, rule);
            let feasible = match out {
                ArithOutcome::Sat(assignment) => {
                    assert_model_satisfies(&system, &all, &assignment, label);
                    true
                }
                ArithOutcome::Conflict(tags) => {
                    // The explanation must itself be infeasible (validated
                    // with the independently terminating Bland rule), and
                    // must only name loaded constraints.
                    prop_assert!(!tags.is_empty(), "[{}] empty conflict", label);
                    prop_assert!(tags.iter().all(|t| all.contains(t)));
                    let (sub_out, _, _) = run_subset(&system, &tags, PivotRule::Bland);
                    prop_assert!(
                        matches!(sub_out, ArithOutcome::Conflict(_)),
                        "[{}] seed {}: conflict subset {:?} is feasible",
                        label, seed, tags
                    );
                    false
                }
                ArithOutcome::Unknown => {
                    prop_assert!(false, "[{}] Unknown on a rational system", label);
                    unreachable!()
                }
            };
            match feasibility {
                None => feasibility = Some(feasible),
                Some(expected) => prop_assert_eq!(
                    feasible, expected,
                    "seed {}: rule {} diverged on feasibility", seed, label
                ),
            }
        }
    }
}

/// A pool of constraints over `nv` rational variables that share a few
/// linear parts (so a warm instance with slack reuse puts several bounds on
/// one slack variable), plus single-variable bounds.
fn shared_form_pool(rng: &mut XorShift, nv: usize) -> Vec<(LinExpr, Rel)> {
    let forms: Vec<LinExpr> = (0..3)
        .map(|_| {
            let mut e = LinExpr::zero();
            for v in 0..nv {
                e.add_term(Rat::from_int(rng.coeff()), v);
            }
            e
        })
        .collect();
    (0..12)
        .map(|_| {
            let mut e = match rng.below(3) {
                0 => LinExpr::variable(rng.below(nv as u64) as usize),
                _ => forms[rng.below(3) as usize].clone(),
            };
            e.constant = Rat::from_int(rng.below(13) as i128 - 6);
            let rel = match rng.below(5) {
                0 => Rel::Eq,
                1 => Rel::Lt,
                _ => Rel::Le,
            };
            (e, rel)
        })
        .collect()
}

/// Feasibility of `subset` of the system in a fresh Bland instance.
fn fresh_feasible(system: &System, subset: &[usize]) -> bool {
    matches!(
        run_subset(system, subset, PivotRule::Bland).0,
        ArithOutcome::Sat(_)
    )
}

proptest! {
    /// One warm instance per pivot rule, slack reuse on, takes a random
    /// interleaving of constraint additions, restore points
    /// ([`Simplex::mark`]), retractions to them ([`Simplex::undo_to`]) and
    /// checks, rational-only ([`Simplex::check_rational`]) or full. An
    /// addition rejected outright is rolled back to the mark taken before
    /// it, as the theory session does. After every check the verdict must
    /// match a fresh instance loaded with exactly the surviving
    /// constraints; a conflict must name an infeasible subset of them, and a
    /// model must satisfy all of them.
    #[test]
    fn warm_instance_agrees_with_fresh_on_surviving_constraints(seed in 0u64..150) {
        let mut rng = XorShift::new(seed);
        let nv = 2 + rng.below(3) as usize;
        let system = System { nv, constraints: shared_form_pool(&mut rng, nv) };
        let pool = &system.constraints;
        for rule in [PivotRule::Bland, PivotRule::hybrid()] {
            let mut warm = Simplex::with_rule(rule);
            warm.enable_slack_reuse();
            for _ in 0..nv {
                warm.new_var(false);
            }
            let mut live: Vec<usize> = Vec::new();
            let mut marks: Vec<(usize, usize)> = Vec::new();
            for op in 0..48 {
                match rng.below(10) {
                    0..=3 => {
                        let i = rng.below(pool.len() as u64) as usize;
                        let (e, rel) = &pool[i];
                        let before = warm.mark();
                        match warm.add_constraint(e, *rel, i) {
                            Ok(()) => live.push(i),
                            Err(tags) => {
                                warm.undo_to(before);
                                let mut with = live.clone();
                                with.push(i);
                                prop_assert!(tags.iter().all(|t| with.contains(t)));
                                prop_assert!(
                                    !fresh_feasible(&system, &tags),
                                    "seed {} op {}: rejected {} with feasible {:?}",
                                    seed, op, i, tags
                                );
                            }
                        }
                    }
                    4..=5 => marks.push((warm.mark(), live.len())),
                    6 => {
                        if let Some((mark, len)) = marks.pop() {
                            warm.undo_to(mark);
                            live.truncate(len);
                        }
                    }
                    k => {
                        let want = fresh_feasible(&system, &live);
                        let got = if k < 8 {
                            warm.check_rational().map_err(ArithOutcome::Conflict)
                        } else {
                            match warm.check() {
                                ArithOutcome::Sat(a) => {
                                    assert_model_satisfies(&system, &live, &a, "warm");
                                    Ok(())
                                }
                                other => Err(other),
                            }
                        };
                        match got {
                            Ok(()) => prop_assert!(
                                want,
                                "seed {} op {}: warm feasible, fresh not, on {:?}",
                                seed, op, live
                            ),
                            Err(ArithOutcome::Conflict(tags)) => {
                                prop_assert!(
                                    !want,
                                    "seed {} op {}: warm infeasible, fresh not, on {:?}",
                                    seed, op, live
                                );
                                prop_assert!(tags.iter().all(|t| live.contains(t)));
                                prop_assert!(!fresh_feasible(&system, &tags));
                            }
                            Err(other) => prop_assert!(false, "unexpected {:?}", other),
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    /// The tableau's column index (per variable, the rows that mention it,
    /// which pivots and nonbasic updates visit instead of every row) lists
    /// exactly the rows' columns after every step of a random interleaving
    /// of constraint additions (compile and assert), retractions to restore
    /// points and checks, rational or with branch-and-bound, under Bland's
    /// rule and the hybrid rule, with and without slack reuse.
    #[test]
    fn column_index_matches_the_rows(seed in 0u64..120) {
        let mut rng = XorShift::new(seed);
        let nv = 2 + rng.below(4) as usize;
        let pool = shared_form_pool(&mut rng, nv);
        let rules = [PivotRule::Bland, PivotRule::hybrid(), PivotRule::Hybrid { bland_after: 3 }];
        for (rule, reuse) in rules.into_iter().flat_map(|r| [(r, false), (r, true)]) {
            let mut s = Simplex::with_rule(rule);
            if reuse {
                s.enable_slack_reuse();
            }
            for _ in 0..nv {
                s.new_var(rng.below(3) == 0);
            }
            let mut marks = Vec::new();
            for op in 0..40 {
                match rng.below(8) {
                    0..=3 => {
                        let i = rng.below(pool.len() as u64) as usize;
                        let before = s.mark();
                        if s.add_constraint(&pool[i].0, pool[i].1, i).is_err() {
                            s.undo_to(before);
                        }
                    }
                    4 => marks.push(s.mark()),
                    5 => {
                        if let Some(mark) = marks.pop() {
                            s.undo_to(mark);
                        }
                    }
                    6 => {
                        let _ = s.check_rational();
                    }
                    _ => {
                        let _ = s.check();
                    }
                }
                prop_assert!(
                    s.column_index_is_exact(),
                    "seed {} op {} ({:?}, reuse {}): column index out of step",
                    seed, op, rule, reuse
                );
            }
        }
    }
}

/// A degenerate, cycling-prone shape: many tied violations and zero-slack
/// equalities, the classic fuel for heuristic-rule cycling. The hybrid rule
/// gets an almost-exhausted budget, so it must engage the Bland fallback,
/// terminate, and agree with pure Bland.
#[test]
fn bland_fallback_engages_and_terminates_on_degenerate_instance() {
    let build = |rule: PivotRule| -> Simplex {
        let mut s = Simplex::with_rule(rule);
        let n = 4;
        for _ in 0..n {
            s.new_var(false);
        }
        // x0 = x1, x1 = x2, x2 = x3 (all tied at zero slack), plus a cycle
        // of inequalities x0 <= x1 <= x2 <= x3 <= x0 and an infeasible twist
        // x3 <= x0 - 1.
        for v in 0..n - 1 {
            let mut e = LinExpr::zero();
            e.add_term(Rat::ONE, v);
            e.add_term(-Rat::ONE, v + 1);
            s.add_constraint(&e, Rel::Eq, v).unwrap();
        }
        let mut e = LinExpr::constant(Rat::ONE);
        e.add_term(Rat::ONE, n - 1);
        e.add_term(-Rat::ONE, 0);
        s.add_constraint(&e, Rel::Le, 100).unwrap(); // x3 - x0 + 1 <= 0
        s
    };
    let mut bland = build(PivotRule::Bland);
    let bland_out = bland.check();
    let mut hybrid = build(PivotRule::Hybrid { bland_after: 1 });
    let hybrid_out = hybrid.check();
    assert_eq!(
        matches!(bland_out, ArithOutcome::Conflict(_)),
        matches!(hybrid_out, ArithOutcome::Conflict(_)),
        "fallback changed the verdict: {bland_out:?} vs {hybrid_out:?}"
    );
    assert!(matches!(hybrid_out, ArithOutcome::Conflict(_)));
    assert!(
        hybrid.in_bland_fallback(),
        "budget 1 must be exhausted (pivots {})",
        hybrid.pivots
    );
}

/// The termination guard itself: a larger random batch with the tiny budget,
/// where any cycling would hang the test rather than fail an assertion —
/// the suite completing is the property.
#[test]
fn tiny_budget_hybrid_terminates_on_batch() {
    let mut rng = XorShift::new(99);
    for _ in 0..200 {
        let system = random_system(&mut rng);
        let all: Vec<usize> = (0..system.constraints.len()).collect();
        let (out, _, _) = run_subset(&system, &all, PivotRule::Hybrid { bland_after: 2 });
        assert!(!matches!(out, ArithOutcome::Unknown));
    }
}

/// Integer branch-and-bound under both rules: outcome kinds agree on small
/// integer systems (Unknown may in principle appear under either rule, but
/// must then appear as a pair — in practice these instances decide).
#[test]
fn integer_branching_agrees_across_rules() {
    let mut rng = XorShift::new(5);
    for _ in 0..60 {
        let nv = 2 + rng.below(2) as usize;
        let nc = 2 + rng.below(5) as usize;
        let build = |rule: PivotRule, rng_seed: &System| -> ArithOutcome {
            let mut s = Simplex::with_rule(rule);
            for _ in 0..rng_seed.nv {
                s.new_var(true);
            }
            for (i, (e, rel)) in rng_seed.constraints.iter().enumerate() {
                if let Err(tags) = s.add_constraint(e, *rel, i) {
                    return ArithOutcome::Conflict(tags);
                }
            }
            s.check()
        };
        let mut constraints = Vec::new();
        for _ in 0..nc {
            let mut e = LinExpr::constant(Rat::from_int(rng.below(11) as i128 - 5));
            for v in 0..nv {
                e.add_term(Rat::from_int(rng.coeff()), v);
            }
            // Keep variables bounded so branch-and-bound terminates fast.
            let rel = if rng.below(3) == 0 { Rel::Eq } else { Rel::Le };
            constraints.push((e, rel));
        }
        for v in 0..nv {
            let mut lo = LinExpr::constant(Rat::from_int(-6));
            lo.add_term(-Rat::ONE, v);
            constraints.push((lo, Rel::Le)); // -6 - v <= 0, i.e. v >= -6
            let mut hi = LinExpr::constant(Rat::from_int(-6));
            hi.add_term(Rat::ONE, v);
            constraints.push((hi, Rel::Le)); // v <= 6
        }
        let system = System { nv, constraints };
        let a = build(PivotRule::Bland, &system);
        let b = build(PivotRule::hybrid(), &system);
        assert_eq!(
            matches!(a, ArithOutcome::Sat(_)),
            matches!(b, ArithOutcome::Sat(_)),
            "integer system diverged: {a:?} vs {b:?}"
        );
    }
}
