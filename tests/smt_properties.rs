//! Property-based tests of the SMT substrate (`ids-smt`) through the umbrella
//! crate: the solver's answers are compared against brute-force evaluation and
//! reference models on randomly generated inputs.
//!
//! These properties pin down the soundness of exactly the fragment the FWYB
//! verification conditions live in: Boolean structure, equality over
//! uninterpreted terms, linear integer arithmetic, extensional sets and
//! arrays with read-over-write reasoning.

use std::collections::HashMap;

use intrinsic_verify::smt::{IncrementalSolver, SatResult, Sort, TermId, TermManager};
use proptest::prelude::*;

/// Satisfiability of the conjunction of `assertions`, on a fresh solver.
fn check(tm: &mut TermManager, assertions: &[TermId]) -> SatResult {
    let mut solver = IncrementalSolver::new();
    solver.assert_all(tm, assertions);
    solver.check(tm)
}

/// Validity of `formula` (`Sat` means valid), on a fresh solver.
fn check_valid(tm: &mut TermManager, formula: TermId) -> SatResult {
    IncrementalSolver::new().check_valid_scoped(tm, formula)
}

// ---------------------------------------------------------------------------
// Random propositional formulas vs. brute-force truth tables
// ---------------------------------------------------------------------------

/// A tiny AST of propositional formulas over `n` variables, used as the
/// generator target (generating `TermId`s directly would tie the generator to
/// a term manager instance).
#[derive(Clone, Debug)]
enum PropFormula {
    Var(usize),
    Not(Box<PropFormula>),
    And(Box<PropFormula>, Box<PropFormula>),
    Or(Box<PropFormula>, Box<PropFormula>),
    Implies(Box<PropFormula>, Box<PropFormula>),
    Iff(Box<PropFormula>, Box<PropFormula>),
}

fn prop_formula(num_vars: usize) -> impl Strategy<Value = PropFormula> {
    let leaf = (0..num_vars).prop_map(PropFormula::Var);
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| PropFormula::Not(Box::new(f))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PropFormula::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PropFormula::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PropFormula::Implies(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| PropFormula::Iff(Box::new(a), Box::new(b))),
        ]
    })
}

fn encode(tm: &mut TermManager, vars: &[TermId], f: &PropFormula) -> TermId {
    match f {
        PropFormula::Var(i) => vars[*i],
        PropFormula::Not(a) => {
            let ea = encode(tm, vars, a);
            tm.not(ea)
        }
        PropFormula::And(a, b) => {
            let (ea, eb) = (encode(tm, vars, a), encode(tm, vars, b));
            tm.and2(ea, eb)
        }
        PropFormula::Or(a, b) => {
            let (ea, eb) = (encode(tm, vars, a), encode(tm, vars, b));
            tm.or2(ea, eb)
        }
        PropFormula::Implies(a, b) => {
            let (ea, eb) = (encode(tm, vars, a), encode(tm, vars, b));
            tm.implies(ea, eb)
        }
        PropFormula::Iff(a, b) => {
            let (ea, eb) = (encode(tm, vars, a), encode(tm, vars, b));
            tm.iff(ea, eb)
        }
    }
}

fn eval(f: &PropFormula, assignment: &[bool]) -> bool {
    match f {
        PropFormula::Var(i) => assignment[*i],
        PropFormula::Not(a) => !eval(a, assignment),
        PropFormula::And(a, b) => eval(a, assignment) && eval(b, assignment),
        PropFormula::Or(a, b) => eval(a, assignment) || eval(b, assignment),
        PropFormula::Implies(a, b) => !eval(a, assignment) || eval(b, assignment),
        PropFormula::Iff(a, b) => eval(a, assignment) == eval(b, assignment),
    }
}

fn brute_force_satisfiable(f: &PropFormula, num_vars: usize) -> bool {
    (0..(1u32 << num_vars)).any(|mask| {
        let assignment: Vec<bool> = (0..num_vars).map(|i| mask & (1 << i) != 0).collect();
        eval(f, &assignment)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CDCL core + Tseitin conversion agree with a brute-force truth table
    /// on arbitrary propositional formulas.
    #[test]
    fn propositional_solving_matches_truth_table(f in prop_formula(4)) {
        let mut tm = TermManager::new();
        let vars: Vec<TermId> = (0..4).map(|i| tm.var(&format!("p{}", i), Sort::Bool)).collect();
        let t = encode(&mut tm, &vars, &f);
        let expected = if brute_force_satisfiable(&f, 4) {
            SatResult::Sat
        } else {
            SatResult::Unsat
        };
        prop_assert_eq!(check(&mut tm, &[t]), expected);
    }

    /// Validity of a formula and unsatisfiability of its negation coincide.
    #[test]
    fn check_valid_is_dual_to_check(f in prop_formula(3)) {
        let mut tm = TermManager::new();
        let vars: Vec<TermId> = (0..3).map(|i| tm.var(&format!("p{}", i), Sort::Bool)).collect();
        let t = encode(&mut tm, &vars, &f);
        let valid = (0..(1u32 << 3)).all(|mask| {
            let assignment: Vec<bool> = (0..3).map(|i| mask & (1 << i) != 0).collect();
            eval(&f, &assignment)
        });
        let got = check_valid(&mut tm, t);
        prop_assert_eq!(got == SatResult::Sat, valid);
    }
}

// ---------------------------------------------------------------------------
// Linear integer arithmetic with planted solutions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Constraint sets generated from a planted integer assignment are
    /// reported satisfiable; adding a bound that contradicts the planted value
    /// of some variable by construction is reported unsatisfiable when the
    /// chain of constraints pins that variable exactly.
    #[test]
    fn planted_linear_systems_are_sat(values in proptest::collection::vec(-20i64..20, 2..5)) {
        let mut tm = TermManager::new();
        let vars: Vec<TermId> = (0..values.len())
            .map(|i| tm.var(&format!("v{}", i), Sort::Int))
            .collect();
        // Assert v_i = value_i via two inequalities, plus all pairwise sums.
        let mut assertions = Vec::new();
        for (v, &val) in vars.iter().zip(values.iter()) {
            let c = tm.int(val as i128);
            let le = tm.le(*v, c);
            let ge = tm.ge(*v, c);
            assertions.push(le);
            assertions.push(ge);
        }
        for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                let sum = tm.add(vars[i], vars[j]);
                let c = tm.int((values[i] + values[j]) as i128);
                let eq = tm.eq(sum, c);
                assertions.push(eq);
            }
        }
        prop_assert_eq!(check(&mut tm, &assertions), SatResult::Sat);

        // Now contradict the first variable.
        let wrong = tm.int((values[0] + 1) as i128);
        let bad = tm.eq(vars[0], wrong);
        assertions.push(bad);
        prop_assert_eq!(check(&mut tm, &assertions), SatResult::Unsat);
    }

    /// Transitivity chains x0 <= x1 <= ... <= xn together with xn < x0 are
    /// unsatisfiable regardless of length.
    #[test]
    fn le_chain_with_strict_back_edge_is_unsat(n in 2usize..8) {
        let mut tm = TermManager::new();
        let vars: Vec<TermId> = (0..n).map(|i| tm.var(&format!("x{}", i), Sort::Int)).collect();
        let mut assertions = Vec::new();
        for w in vars.windows(2) {
            let le = tm.le(w[0], w[1]);
            assertions.push(le);
        }
        let lt = tm.lt(vars[n - 1], vars[0]);
        assertions.push(lt);
        prop_assert_eq!(check(&mut tm, &assertions), SatResult::Unsat);
    }
}

// ---------------------------------------------------------------------------
// Equality / uninterpreted functions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitioning variables into classes by index parity: equalities inside
    /// a class plus a disequality across classes is satisfiable; a disequality
    /// inside a class is not.
    #[test]
    fn euf_chains_respect_partitions(n in 3usize..9) {
        let mut tm = TermManager::new();
        let vars: Vec<TermId> = (0..n).map(|i| tm.var(&format!("l{}", i), Sort::Loc)).collect();
        let mut chain = Vec::new();
        // Chain all even-indexed variables together and all odd-indexed ones.
        for i in (2..n).step_by(2) {
            let e = tm.eq(vars[i - 2], vars[i]);
            chain.push(e);
        }
        for i in (3..n).step_by(2) {
            let e = tm.eq(vars[i - 2], vars[i]);
            chain.push(e);
        }
        // f(first even) != f(last even) is inconsistent with the chain.
        let last_even = ((n - 1) / 2) * 2;
        let f0 = tm.app("f", vec![vars[0]], Sort::Int);
        let f1 = tm.app("f", vec![vars[last_even]], Sort::Int);
        let ne = tm.neq(f0, f1);
        let mut bad = chain.clone();
        bad.push(ne);
        prop_assert_eq!(check(&mut tm, &bad), SatResult::Unsat);

        // Across the two classes nothing is forced: f(even) != f(odd) is fine.
        if n > 1 {
            let fo = tm.app("f", vec![vars[1]], Sort::Int);
            let ne2 = tm.neq(f0, fo);
            let mut ok = chain;
            ok.push(ne2);
            prop_assert_eq!(check(&mut tm, &ok), SatResult::Sat);
        }
    }
}

// ---------------------------------------------------------------------------
// Arrays (heap maps): read-over-write against a reference model
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random sequence of writes to distinct locations behaves like a
    /// HashMap: reading any written location yields the last value written to
    /// it, and claiming any other value is unsatisfiable.
    #[test]
    fn store_chains_match_reference_model(writes in proptest::collection::vec((0usize..5, -100i64..100), 1..10)) {
        let mut tm = TermManager::new();
        let arr_sort = Sort::array_of(Sort::Loc, Sort::Int);
        let locs: Vec<TermId> = (0..5).map(|i| tm.var(&format!("o{}", i), Sort::Loc)).collect();
        let distinct = tm.distinct(locs.clone());
        let mut map = tm.var("field", arr_sort);
        let mut reference: HashMap<usize, i64> = HashMap::new();
        for &(loc, val) in &writes {
            let v = tm.int(val as i128);
            map = tm.store(map, locs[loc], v);
            reference.insert(loc, val);
        }
        // Pick the location of the last write for the query.
        let (qloc, qval) = *writes.last().unwrap();
        let expected = reference[&qloc];
        let sel = tm.select(map, locs[qloc]);
        let good = tm.int(expected as i128);
        let eq_good = tm.eq(sel, good);
        prop_assert_eq!(
            check(&mut tm, &[distinct, eq_good]),
            SatResult::Sat
        );
        let bad = tm.int((expected + 1) as i128);
        let eq_bad = tm.eq(sel, bad);
        prop_assert_eq!(
            check(&mut tm, &[distinct, eq_bad]),
            SatResult::Unsat,
            "write set {:?}, query {} = {}", writes, qloc, qval
        );
    }
}

// ---------------------------------------------------------------------------
// Sets: algebraic identities are valid for arbitrary operand structure
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum SetExpr {
    Var(usize),
    Union(Box<SetExpr>, Box<SetExpr>),
    Inter(Box<SetExpr>, Box<SetExpr>),
    Diff(Box<SetExpr>, Box<SetExpr>),
}

fn set_expr(num_vars: usize) -> impl Strategy<Value = SetExpr> {
    let leaf = (0..num_vars).prop_map(SetExpr::Var);
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SetExpr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SetExpr::Inter(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| SetExpr::Diff(Box::new(a), Box::new(b))),
        ]
    })
}

fn encode_set(tm: &mut TermManager, vars: &[TermId], e: &SetExpr) -> TermId {
    match e {
        SetExpr::Var(i) => vars[*i],
        SetExpr::Union(a, b) => {
            let (ea, eb) = (encode_set(tm, vars, a), encode_set(tm, vars, b));
            tm.union(ea, eb)
        }
        SetExpr::Inter(a, b) => {
            let (ea, eb) = (encode_set(tm, vars, a), encode_set(tm, vars, b));
            tm.inter(ea, eb)
        }
        SetExpr::Diff(a, b) => {
            let (ea, eb) = (encode_set(tm, vars, a), encode_set(tm, vars, b));
            tm.diff(ea, eb)
        }
    }
}

/// Evaluates a set expression over concrete bit-set valuations of the vars.
fn eval_set(e: &SetExpr, vals: &[u8]) -> u8 {
    match e {
        SetExpr::Var(i) => vals[*i],
        SetExpr::Union(a, b) => eval_set(a, vals) | eval_set(b, vals),
        SetExpr::Inter(a, b) => eval_set(a, vals) & eval_set(b, vals),
        SetExpr::Diff(a, b) => eval_set(a, vals) & !eval_set(b, vals),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two random set expressions are either equivalent over all small
    /// valuations (then their equality is valid) or a concrete valuation
    /// separates them (then the equality is falsifiable). The solver must
    /// agree with the brute-force verdict.
    #[test]
    fn set_equalities_match_bitset_semantics(a in set_expr(3), b in set_expr(3)) {
        // Brute force over subsets of a 3-element universe.
        let equivalent = (0..(1u16 << 9)).all(|mask| {
            let vals = [
                (mask & 0b111) as u8,
                ((mask >> 3) & 0b111) as u8,
                ((mask >> 6) & 0b111) as u8,
            ];
            eval_set(&a, &vals) == eval_set(&b, &vals)
        });
        let mut tm = TermManager::new();
        let set_sort = Sort::set_of(Sort::Loc);
        let vars: Vec<TermId> = (0..3).map(|i| tm.var(&format!("S{}", i), set_sort.clone())).collect();
        let (ea, eb) = (encode_set(&mut tm, &vars, &a), encode_set(&mut tm, &vars, &b));
        let eq = tm.eq(ea, eb);
        let verdict = check_valid(&mut tm, eq);
        prop_assert_eq!(verdict == SatResult::Sat, equivalent, "a = {:?}, b = {:?}", a, b);
    }
}
