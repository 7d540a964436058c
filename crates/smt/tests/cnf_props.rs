//! Clausal facts against full Tseitin.
//!
//! [`cnf::assert_fact`] asserts the lowering's facts in clausal form, and
//! [`cnf::tseitin`] is the full-Tseitin reference it replaced for them. On
//! random Boolean formulas both must give the verdict of a truth table, and
//! every model of the clausal encoding must satisfy the formulas it encodes.
//! The second half pins what each fact shape the lowering emits costs: at
//! most three clauses and no definition variable.
//!
//! All generation is driven by fixed seeds (deterministic xorshift), so a
//! failure reproduces exactly.

use ids_smt::cnf::{self, AtomMap};
use ids_smt::lower::LowerCtx;
use ids_smt::sat::{Lit, SatResult, SatSolver, Var};
use ids_smt::{Op, Sort, TermId, TermManager};

/// Deterministic xorshift (the same idiom as `sat_props.rs`).
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
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random Boolean formula over `atoms` of depth at most `depth`, built
/// from `∧`, `∨`, `¬`, `⇒`, `⇔`, Boolean `ite` and constants. With `raw`,
/// the connectives are interned as they are, without the smart
/// constructors' folding, so constants, double negations and unit
/// conjunctions reach the encoders too.
fn formula(
    tm: &mut TermManager,
    rng: &mut XorShift,
    atoms: &[TermId],
    depth: u32,
    raw: bool,
) -> TermId {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(10) {
            0 => tm.tru(),
            1 => tm.fls(),
            _ => atoms[rng.below(atoms.len())],
        };
    }
    let sub = |tm: &mut TermManager, rng: &mut XorShift| formula(tm, rng, atoms, depth - 1, raw);
    let (op, arity) = match rng.below(6) {
        0 => (Op::And, 1 + rng.below(3)),
        1 => (Op::Or, 1 + rng.below(3)),
        2 => (Op::Not, 1),
        3 => (Op::Implies, 2),
        4 => (Op::Iff, 2),
        _ => (Op::Ite, 3),
    };
    let args: Vec<TermId> = (0..arity).map(|_| sub(tm, rng)).collect();
    if raw {
        return tm.mk(op, args, Sort::Bool);
    }
    match op {
        Op::And => tm.and(args),
        Op::Or => tm.or(args),
        Op::Not => tm.not(args[0]),
        Op::Implies => tm.implies(args[0], args[1]),
        Op::Iff => tm.iff(args[0], args[1]),
        _ => tm.ite(args[0], args[1], args[2]),
    }
}

/// The truth value of `t` when each atom takes `value(atom)`.
fn eval(tm: &TermManager, t: TermId, value: &dyn Fn(TermId) -> bool) -> bool {
    let term = tm.term(t);
    let arg = |i: usize| eval(tm, term.args[i], value);
    match term.op {
        Op::True => true,
        Op::False => false,
        Op::Not => !arg(0),
        Op::And => (0..term.args.len()).all(arg),
        Op::Or => (0..term.args.len()).any(arg),
        Op::Implies => !arg(0) || arg(1),
        Op::Iff => arg(0) == arg(1),
        Op::Ite => {
            if arg(0) {
                arg(1)
            } else {
                arg(2)
            }
        }
        _ => value(t),
    }
}

/// The verdict of a truth table over `atoms`.
fn truth_table(tm: &TermManager, atoms: &[TermId], formulas: &[TermId]) -> SatResult {
    let sat = (0u32..1 << atoms.len()).any(|row| {
        let value = |a: TermId| {
            let i = atoms.iter().position(|&x| x == a).expect("an atom");
            row >> i & 1 == 1
        };
        formulas.iter().all(|&f| eval(tm, f, &value))
    });
    if sat {
        SatResult::Sat
    } else {
        SatResult::Unsat
    }
}

/// Asserts each formula as clausal facts, or, where `roots` says so, as a
/// Tseitin root (the mix an incremental session makes, sharing one atom
/// map), and solves.
fn solve_clausal(
    tm: &TermManager,
    formulas: &[TermId],
    roots: &[bool],
) -> (SatSolver, AtomMap, SatResult) {
    let mut sat = SatSolver::new();
    let mut map = AtomMap::default();
    for (&f, &root) in formulas.iter().zip(roots) {
        if root {
            let lit = cnf::encode_root(tm, f, &mut sat, &mut map);
            sat.add_clause(vec![lit]);
        } else {
            cnf::assert_fact(tm, f, &mut sat, &mut map);
        }
    }
    let result = sat.solve();
    (sat, map, result)
}

#[test]
fn clausal_facts_agree_with_tseitin_and_the_truth_table() {
    for seed in 0..4000u64 {
        let mut rng = XorShift::new(seed);
        let mut tm = TermManager::new();
        let atoms: Vec<TermId> = (0..1 + rng.below(6))
            .map(|i| tm.var(&format!("p{i}"), Sort::Bool))
            .collect();
        let raw = seed % 2 == 1;
        let formulas: Vec<TermId> = (0..1 + rng.below(3))
            .map(|_| formula(&mut tm, &mut rng, &atoms, 4, raw))
            .collect();
        // Every third instance mixes facts with Tseitin roots.
        let roots: Vec<bool> = formulas
            .iter()
            .map(|_| seed % 3 == 0 && rng.below(2) == 0)
            .collect();

        let expected = truth_table(&tm, &atoms, &formulas);
        let mut reference = SatSolver::new();
        cnf::tseitin(&tm, &formulas, &mut reference);
        assert_eq!(reference.solve(), expected, "seed {seed}: Tseitin");

        let (sat, map, result) = solve_clausal(&tm, &formulas, &roots);
        assert_eq!(result, expected, "seed {seed}: clausal facts");
        if result == SatResult::Sat {
            // An atom no clause mentions may take either value.
            let value = |a: TermId| {
                map.var_of_term
                    .get(&a)
                    .and_then(|&v| sat.value(v))
                    .unwrap_or(false)
            };
            for &f in &formulas {
                assert!(
                    eval(&tm, f, &value),
                    "seed {seed}: the clausal model falsifies a formula"
                );
            }
        }
    }
}

/// What one fact costs in a fresh solver: its clauses (the solver's
/// clauses plus its level-0 assignments, since a unit clause is assigned
/// rather than stored; no shape below has a unit that implies another
/// literal) and its SAT variables that are not atoms.
fn cost(tm: &TermManager, fact: TermId) -> (usize, usize) {
    let mut sat = SatSolver::new();
    let mut map = AtomMap::default();
    cnf::assert_fact(tm, fact, &mut sat, &mut map);
    let units = (0..sat.num_vars() as Var)
        .filter(|&v| sat.value(v).is_some())
        .count();
    (sat.num_clauses() + units, sat.num_vars() - map.num_atoms())
}

/// The fact shapes `LowerCtx::emit_axioms` and `LowerCtx::trichotomy`
/// build, each with the smart-constructor calls the lowering makes, and the
/// clauses and definition variables each costs.
#[test]
fn lowering_fact_shapes_cost_at_most_three_clauses() {
    let mut tm = TermManager::new();
    let loc_set = Sort::set_of(Sort::Loc);
    let loc_arr = Sort::array_of(Sort::Loc, Sort::Int);
    let (s, t) = (tm.var("S", loc_set.clone()), tm.var("T", loc_set));
    let (m, h) = (tm.var("m", loc_arr.clone()), tm.var("h", loc_arr));
    let (e, x) = (tm.var("e", Sort::Loc), tm.var("x", Sort::Loc));
    let (v, y) = (tm.var("v", Sort::Int), tm.var("y", Sort::Int));
    let (ms, mt) = (tm.member(e, s), tm.member(e, t));
    let mut shapes: Vec<(&str, TermId, (usize, usize))> = Vec::new();

    // Membership in ∅, {x}, S ∪ T, S ∩ T and S ∖ T.
    let empty = tm.empty_set(Sort::Loc);
    let mem = tm.member(e, empty);
    let f = tm.fls();
    shapes.push(("∅ membership", tm.iff(mem, f), (1, 0)));
    let single = tm.singleton(x);
    let mem = tm.member(e, single);
    let eq = tm.eq(e, x);
    shapes.push(("singleton membership", tm.iff(mem, eq), (2, 0)));
    let union = tm.union(s, t);
    let mem = tm.member(e, union);
    let d = tm.or2(ms, mt);
    shapes.push(("∪ membership", tm.iff(mem, d), (3, 0)));
    let inter = tm.inter(s, t);
    let mem = tm.member(e, inter);
    let c = tm.and2(ms, mt);
    shapes.push(("∩ membership", tm.iff(mem, c), (3, 0)));
    let diff = tm.diff(s, t);
    let mem = tm.member(e, diff);
    let nmt = tm.not(mt);
    let c = tm.and2(ms, nmt);
    shapes.push(("∖ membership", tm.iff(mem, c), (3, 0)));

    // Read over write: hit and miss.
    let st = tm.store(m, x, v);
    let sel = tm.select(st, e);
    let eq_idx = tm.eq(e, x);
    let sel_val = tm.eq(sel, v);
    shapes.push(("store hit", tm.implies(eq_idx, sel_val), (1, 0)));
    let sel_base = tm.select(m, e);
    let sel_pass = tm.eq(sel, sel_base);
    let ne = tm.not(eq_idx);
    shapes.push(("store miss", tm.implies(ne, sel_pass), (1, 0)));

    // Pointwise frame update: hit and miss.
    let mi = tm.map_ite(s, h, m);
    let sel = tm.select(mi, e);
    let sel_new = tm.select(h, e);
    let sel_old = tm.select(m, e);
    let eq_new = tm.eq(sel, sel_new);
    let eq_old = tm.eq(sel, sel_old);
    shapes.push(("map-ite hit", tm.implies(ms, eq_new), (1, 0)));
    let nm = tm.not(ms);
    shapes.push(("map-ite miss", tm.implies(nm, eq_old), (1, 0)));

    // Subset: pointwise and witness.
    let sub = tm.subset(s, t);
    let imp = tm.implies(ms, mt);
    shapes.push(("subset pointwise", tm.implies(sub, imp), (1, 0)));
    let nsub = tm.not(sub);
    let both = tm.and2(ms, nmt);
    shapes.push(("subset witness", tm.implies(nsub, both), (2, 0)));

    // Container equality, sets and arrays: pointwise and witness.
    let set_eq = tm.eq(s, t);
    let mem_eq = tm.eq(ms, mt);
    shapes.push(("set equality pointwise", tm.implies(set_eq, mem_eq), (2, 0)));
    let n_set_eq = tm.not(set_eq);
    let mem_ne = tm.neq(ms, mt);
    shapes.push(("set equality witness", tm.implies(n_set_eq, mem_ne), (2, 0)));
    let arr_eq = tm.eq(m, h);
    let (sm, sh) = (tm.select(m, e), tm.select(h, e));
    let sel_eq = tm.eq(sm, sh);
    shapes.push((
        "array equality pointwise",
        tm.implies(arr_eq, sel_eq),
        (1, 0),
    ));
    let n_arr_eq = tm.not(arr_eq);
    let sel_ne = tm.neq(sm, sh);
    shapes.push((
        "array equality witness",
        tm.implies(n_arr_eq, sel_ne),
        (1, 0),
    ));

    // Trichotomy.
    let eq = tm.eq(v, y);
    let (lt_vy, lt_yv) = (tm.lt(v, y), tm.lt(y, v));
    shapes.push(("trichotomy", tm.or(vec![eq, lt_vy, lt_yv]), (1, 0)));

    for (name, fact, expected) in shapes {
        let (clauses, vars) = cost(&tm, fact);
        assert_eq!((clauses, vars), expected, "{name}");
        assert!(clauses <= 3 && vars == 0, "{name}");
    }
}

/// The `ite` definitions the lowering's rewrite emits for `y = ite(c, a, b)`,
/// in emission order, with what each costs.
fn ite_definition_costs(tm: &mut TermManager, c: TermId) -> Vec<(usize, usize)> {
    let (a, b) = (tm.var("a", Sort::Loc), tm.var("b", Sort::Loc));
    let y = tm.var("y", Sort::Loc);
    let ite = tm.ite(c, a, b);
    let root = tm.eq(y, ite);
    let batch = LowerCtx::new().add(tm, &[root]);
    batch.facts.iter().map(|&f| cost(tm, f)).collect()
}

#[test]
fn ite_definitions_are_pinned() {
    // A literal condition: `c ⇒ v = a` and `¬c ⇒ v = b`, one clause each.
    let mut tm = TermManager::new();
    let c = tm.var("c", Sort::Bool);
    assert_eq!(ite_definition_costs(&mut tm, c), vec![(1, 0), (1, 0)]);

    // A compound condition `(p ∧ q) ∨ r`. Under `¬c` its conjunct `p ∧ q`
    // is no literal, so the clause names `c` by its shared Tseitin literal
    // (two definition variables, for `∨` and `∧`, with three clauses each);
    // under `c` the disjunction flattens and `p ∧ q` distributes.
    let mut tm = TermManager::new();
    let (p, q, r) = (
        tm.var("p", Sort::Bool),
        tm.var("q", Sort::Bool),
        tm.var("r", Sort::Bool),
    );
    let pq = tm.and2(p, q);
    let c = tm.or2(pq, r);
    assert_eq!(ite_definition_costs(&mut tm, c), vec![(7, 2), (2, 0)]);
}

#[test]
fn every_fact_the_lowering_emits_costs_at_most_three_clauses() {
    // One input with every trigger: membership in compound sets, a store, a
    // frame update, a subset, set and array equalities, and numeric
    // equalities for trichotomy.
    let mut tm = TermManager::new();
    let loc_set = Sort::set_of(Sort::Loc);
    let loc_arr = Sort::array_of(Sort::Loc, Sort::Int);
    let (s, t) = (tm.var("S", loc_set.clone()), tm.var("T", loc_set));
    let (m, h) = (tm.var("m", loc_arr.clone()), tm.var("h", loc_arr));
    let (x, z) = (tm.var("x", Sort::Loc), tm.var("z", Sort::Loc));
    let v = tm.var("v", Sort::Int);
    let mut roots = Vec::new();
    let empty = tm.empty_set(Sort::Loc);
    let single = tm.singleton(x);
    for set in [tm.union(s, t), tm.inter(s, t), tm.diff(s, t), single, empty] {
        roots.push(tm.member(z, set));
    }
    let st = tm.store(m, x, v);
    let sel = tm.select(st, z);
    roots.push(tm.eq(sel, v));
    let mi = tm.map_ite(s, h, m);
    let sel = tm.select(mi, x);
    roots.push(tm.eq(sel, v));
    roots.push(tm.subset(s, t));
    let set_eq = tm.eq(s, t);
    roots.push(tm.not(set_eq));
    let arr_eq = tm.eq(m, h);
    roots.push(tm.not(arr_eq));

    let facts = LowerCtx::new().add(&mut tm, &roots).facts;
    assert!(facts.len() > 40, "{} facts", facts.len());
    for f in facts {
        let (clauses, vars) = cost(&tm, f);
        assert!(
            clauses <= 3 && vars == 0,
            "{clauses} clauses, {vars} variables"
        );
    }
}

#[test]
fn a_false_fact_refutes_and_a_true_one_adds_nothing() {
    let mut tm = TermManager::new();
    let f = tm.fls();
    let t = tm.tru();
    let mut sat = SatSolver::new();
    let mut map = AtomMap::default();
    cnf::assert_fact(&tm, t, &mut sat, &mut map);
    assert_eq!((sat.num_vars(), sat.num_clauses()), (0, 0));
    cnf::assert_fact(&tm, f, &mut sat, &mut map);
    assert_eq!(sat.solve(), SatResult::Unsat);
    // The literal of a fact's atom is the one a root would use.
    let p = tm.var("p", Sort::Bool);
    let mut sat = SatSolver::new();
    let mut map = AtomMap::default();
    cnf::assert_fact(&tm, p, &mut sat, &mut map);
    assert_eq!(map.lit_of(p, true), Lit::new(0, true));
    assert_eq!(sat.value(0), Some(true));
}
