//! Sat/unsat smoke tests for the linear-arithmetic core, both against the
//! `Simplex` tableau directly and end-to-end through `IncrementalSolver`
//! (DPLL(T) with the simplex theory).

use ids_smt::simplex::{ArithOutcome, LinExpr, Rel, Simplex};
use ids_smt::{IncrementalSolver, Rat, SatResult, Sort, TermManager};

/// Helper: builds `sum_i coeffs[i] * x_i + c`.
fn linear(coeffs: &[(i64, usize)], c: i64) -> LinExpr {
    let mut e = LinExpr::constant(Rat::from_int(c as i128));
    for &(k, v) in coeffs {
        e.add_term(Rat::from_int(k as i128), v);
    }
    e
}

#[test]
fn contradictory_bounds_conflict() {
    // x >= 5 (i.e. 5 - x <= 0) and x <= 3 (x - 3 <= 0) is unsat.
    let mut s = Simplex::new();
    let x = s.new_var(false);
    s.add_constraint(&linear(&[(-1, x)], 5), Rel::Le, 0)
        .unwrap();
    let r = s.add_constraint(&linear(&[(1, x)], -3), Rel::Le, 1);
    let conflict = match r {
        Err(tags) => tags,
        Ok(()) => match s.check() {
            ArithOutcome::Conflict(tags) => tags,
            other => panic!("expected conflict, got {:?}", other),
        },
    };
    assert!(conflict.contains(&0) && conflict.contains(&1));
}

#[test]
fn tight_bounds_pin_the_value() {
    // x >= 5 and x <= 5: sat with x = 5.
    let mut s = Simplex::new();
    let x = s.new_var(false);
    s.add_constraint(&linear(&[(-1, x)], 5), Rel::Le, 0)
        .unwrap();
    s.add_constraint(&linear(&[(1, x)], -5), Rel::Le, 1)
        .unwrap();
    match s.check() {
        ArithOutcome::Sat(model) => {
            assert_eq!(
                model[x],
                ids_smt::rational::DeltaRat::from_rat(Rat::from_int(5))
            );
        }
        other => panic!("expected sat, got {:?}", other),
    }
}

#[test]
fn strict_cycle_is_unsat() {
    // x < y and y < x.
    let mut s = Simplex::new();
    let x = s.new_var(false);
    let y = s.new_var(false);
    s.add_constraint(&linear(&[(1, x), (-1, y)], 0), Rel::Lt, 0)
        .unwrap();
    let second = s.add_constraint(&linear(&[(1, y), (-1, x)], 0), Rel::Lt, 1);
    let unsat = second.is_err() || matches!(s.check(), ArithOutcome::Conflict(_));
    assert!(unsat, "x < y < x must be unsatisfiable");
}

#[test]
fn strict_inequality_on_reals_is_satisfiable() {
    // 0 < x < 1 over the reals: sat (delta-rationals handle strictness).
    let mut s = Simplex::new();
    let x = s.new_var(false);
    s.add_constraint(&linear(&[(-1, x)], 0), Rel::Lt, 0)
        .unwrap();
    s.add_constraint(&linear(&[(1, x)], -1), Rel::Lt, 1)
        .unwrap();
    assert!(matches!(s.check(), ArithOutcome::Sat(_)));
}

#[test]
fn even_sum_constraint_has_no_odd_integer_solution() {
    // 2x = 1 with x integer: unsat by branch-and-bound.
    let mut s = Simplex::new();
    let x = s.new_var(true);
    s.add_constraint(&linear(&[(2, x)], -1), Rel::Eq, 0)
        .unwrap();
    assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
}

#[test]
fn integer_gap_is_detected() {
    // 1/2 < x < 3/4 has real solutions but no integer ones.
    let mut s = Simplex::new();
    let x = s.new_var(true);
    // 1 - 2x < 0  and  4x - 3 < 0.
    s.add_constraint(&linear(&[(-2, x)], 1), Rel::Lt, 0)
        .unwrap();
    s.add_constraint(&linear(&[(4, x)], -3), Rel::Lt, 1)
        .unwrap();
    assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
}

#[test]
fn equality_system_with_unique_solution() {
    // x + y = 10, x - y = 4  =>  x = 7, y = 3.
    let mut s = Simplex::new();
    let x = s.new_var(false);
    let y = s.new_var(false);
    s.add_constraint(&linear(&[(1, x), (1, y)], -10), Rel::Eq, 0)
        .unwrap();
    s.add_constraint(&linear(&[(1, x), (-1, y)], -4), Rel::Eq, 1)
        .unwrap();
    match s.check() {
        ArithOutcome::Sat(model) => {
            assert_eq!(model[x].real, Rat::from_int(7));
            assert_eq!(model[y].real, Rat::from_int(3));
        }
        other => panic!("expected sat, got {:?}", other),
    }
}

// ---------------------------------------------------------------------------
// The same fragment end-to-end (lowering + CNF + DPLL(T))
// ---------------------------------------------------------------------------

#[test]
fn solver_unsat_increment_cycle() {
    let mut tm = TermManager::new();
    let x = tm.var("x", Sort::Int);
    let one = tm.int(1);
    let xp1 = tm.add(x, one);
    let lt = tm.lt(xp1, x);
    let mut solver = IncrementalSolver::new();
    solver.assert_all(&mut tm, &[lt]);
    assert_eq!(solver.check(&mut tm), SatResult::Unsat);
}

#[test]
fn solver_sat_on_consistent_bounds() {
    let mut tm = TermManager::new();
    let x = tm.var("x", Sort::Int);
    let lo = tm.int(0);
    let hi = tm.int(10);
    let ge = tm.ge(x, lo);
    let le = tm.le(x, hi);
    let mut solver = IncrementalSolver::new();
    solver.assert_all(&mut tm, &[ge, le]);
    assert_eq!(solver.check(&mut tm), SatResult::Sat);
}

#[test]
fn solver_combines_arithmetic_with_boolean_structure() {
    // (x <= 0 or x >= 5) and x = 3 is unsat.
    let mut tm = TermManager::new();
    let x = tm.var("x", Sort::Int);
    let zero = tm.int(0);
    let five = tm.int(5);
    let three = tm.int(3);
    let le = tm.le(x, zero);
    let ge = tm.ge(x, five);
    let disj = tm.or2(le, ge);
    let eq = tm.eq(x, three);
    let mut solver = IncrementalSolver::new();
    solver.assert_all(&mut tm, &[disj, eq]);
    assert_eq!(solver.check(&mut tm), SatResult::Unsat);

    // Relaxing to x = 5 flips it to sat.
    let eq5 = tm.eq(x, five);
    let mut solver2 = IncrementalSolver::new();
    solver2.assert_all(&mut tm, &[disj, eq5]);
    assert_eq!(solver2.check(&mut tm), SatResult::Sat);
}

#[test]
fn solver_theory_combination_euf_plus_arith() {
    // a = b implies f(a) = f(b); f(a) < f(b) is then unsat.
    let mut tm = TermManager::new();
    let a = tm.var("a", Sort::Int);
    let b = tm.var("b", Sort::Int);
    let fa = tm.app("f", vec![a], Sort::Int);
    let fb = tm.app("f", vec![b], Sort::Int);
    let eq = tm.eq(a, b);
    let lt = tm.lt(fa, fb);
    let mut solver = IncrementalSolver::new();
    solver.assert_all(&mut tm, &[eq, lt]);
    assert_eq!(solver.check(&mut tm), SatResult::Unsat);
}
