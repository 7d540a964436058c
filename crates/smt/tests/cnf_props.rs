//! Clausal facts against full Tseitin, and axiom instances against
//! clausal facts.
//!
//! [`cnf::assert_fact`] asserts the lowering's fact terms in clausal form,
//! and [`cnf::tseitin`] is the full-Tseitin reference it replaced for them.
//! On random Boolean formulas both must give the verdict of a truth table,
//! and every model of the clausal encoding must satisfy the formulas it
//! encodes. The second half checks each kind of axiom instance: its
//! clauses ([`cnf::assert_instance`]) must be exactly what
//! [`cnf::assert_fact`] made of the fact term the lowering built for it
//! before instances were clausal, folded instances included, and each kind
//! costs at most three clauses and no definition variable.
//!
//! All generation is driven by fixed seeds (deterministic xorshift), so a
//! failure reproduces exactly.

use ids_smt::cnf::{self, AtomMap};
use ids_smt::lower::{Instance, Kind, LowerCtx};
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
fn cost(tm: &mut TermManager, fact: Fact) -> (usize, usize) {
    let mut sat = SatSolver::new();
    let mut map = AtomMap::default();
    assert_fact_or_instance(tm, fact, &mut sat, &mut map);
    let units = (0..sat.num_vars() as Var)
        .filter(|&v| sat.value(v).is_some())
        .count();
    (sat.num_clauses() + units, sat.num_vars() - map.num_atoms())
}

/// A fact term or an axiom instance, as the lowering emits them.
#[derive(Clone, Copy, Debug)]
enum Fact {
    Term(TermId),
    Instance(Instance),
}

/// Asserts a fact as an incremental session does: a term through
/// [`cnf::assert_fact`], an instance's clauses through
/// [`cnf::assert_instance`], a folded instance's formula through
/// [`cnf::assert_fact`].
fn assert_fact_or_instance(
    tm: &mut TermManager,
    fact: Fact,
    sat: &mut SatSolver,
    map: &mut AtomMap,
) {
    match fact {
        Fact::Instance(Instance::Clauses(kind, atoms)) => {
            cnf::assert_instance(kind, &atoms[..kind.arity()], sat, map)
        }
        Fact::Instance(Instance::Formula(f)) | Fact::Term(f) => cnf::assert_fact(tm, f, sat, map),
    }
}

/// The terms one instance of each kind is built from: elements `e`, `x`,
/// sets `s`, `t` over their sort, arrays `m`, `h` indexed by it with values
/// like `v`, and numbers `p`, `q` for trichotomy.
struct Inputs {
    e: TermId,
    x: TermId,
    s: TermId,
    t: TermId,
    m: TermId,
    h: TermId,
    v: TermId,
    p: TermId,
    q: TermId,
}

impl Inputs {
    /// Fresh inputs over elements of `elem` and array values of `value`.
    fn fresh(tm: &mut TermManager, elem: Sort, value: Sort) -> Inputs {
        let set = Sort::set_of(elem.clone());
        let arr = Sort::array_of(elem.clone(), value.clone());
        Inputs {
            e: tm.var("e", elem.clone()),
            x: tm.var("x", elem),
            s: tm.var("S", set.clone()),
            t: tm.var("T", set),
            m: tm.var("m", arr.clone()),
            h: tm.var("h", arr),
            v: tm.var("v", value),
            p: tm.var("p", Sort::Int),
            q: tm.var("q", Sort::Int),
        }
    }
}

/// One instance of `kind`, built from `i` twice: as its atoms (what the
/// lowering passes to [`Instance::new`]) and as the fact term the lowering
/// asserted while instances were terms, with that lowering's own smart
/// constructor calls. `None` where that lowering made no such fact (a
/// trichotomy lemma needs a numeric equality atom).
fn reference(tm: &mut TermManager, kind: Kind, i: &Inputs) -> Option<(Vec<TermId>, TermId)> {
    let Inputs {
        e,
        x,
        s,
        t,
        m,
        h,
        v,
        p,
        q,
    } = *i;
    Some(match kind {
        Kind::EmptyMember => {
            let empty = tm.empty_set(tm.sort(e).clone());
            let mem = tm.member(e, empty);
            let f = tm.fls();
            (vec![mem], tm.iff(mem, f))
        }
        Kind::SingletonMember => {
            let single = tm.singleton(x);
            let mem = tm.member(e, single);
            let eq = tm.eq(e, x);
            (vec![mem, eq], tm.iff(mem, eq))
        }
        Kind::UnionMember | Kind::InterMember | Kind::DiffMember => {
            let set = match kind {
                Kind::UnionMember => tm.union(s, t),
                Kind::InterMember => tm.inter(s, t),
                _ => tm.diff(s, t),
            };
            let mem = tm.member(e, set);
            let m1 = tm.member(e, s);
            let m2 = tm.member(e, t);
            let def = match kind {
                Kind::UnionMember => tm.or2(m1, m2),
                Kind::InterMember => tm.and2(m1, m2),
                _ => {
                    let nm2 = tm.not(m2);
                    tm.and2(m1, nm2)
                }
            };
            (vec![mem, m1, m2], tm.iff(mem, def))
        }
        Kind::StoreHit | Kind::StoreMiss => {
            let st = tm.store(m, x, v);
            let sel = tm.select(st, e);
            let eq_idx = tm.eq(e, x);
            let sel_val = tm.eq(sel, v);
            let hit = tm.implies(eq_idx, sel_val);
            let sel_base = tm.select(m, e);
            let sel_pass = tm.eq(sel, sel_base);
            let ne = tm.not(eq_idx);
            let miss = tm.implies(ne, sel_pass);
            match kind {
                Kind::StoreHit => (vec![eq_idx, sel_val], hit),
                _ => (vec![eq_idx, sel_pass], miss),
            }
        }
        Kind::MapIteHit | Kind::MapIteMiss => {
            let mi = tm.map_ite(s, h, m);
            let sel = tm.select(mi, e);
            let in_mod = tm.member(e, s);
            let sel_new = tm.select(h, e);
            let sel_old = tm.select(m, e);
            let eq_new = tm.eq(sel, sel_new);
            let eq_old = tm.eq(sel, sel_old);
            let hit = tm.implies(in_mod, eq_new);
            let nm = tm.not(in_mod);
            let miss = tm.implies(nm, eq_old);
            match kind {
                Kind::MapIteHit => (vec![in_mod, eq_new], hit),
                _ => (vec![in_mod, eq_old], miss),
            }
        }
        Kind::SubsetPointwise | Kind::SubsetWitness => {
            let a = tm.subset(s, t);
            let ms = tm.member(e, s);
            let mt = tm.member(e, t);
            let ax = if kind == Kind::SubsetPointwise {
                let imp = tm.implies(ms, mt);
                tm.implies(a, imp)
            } else {
                let nmt = tm.not(mt);
                let both = tm.and2(ms, nmt);
                let na = tm.not(a);
                tm.implies(na, both)
            };
            (vec![a, ms, mt], ax)
        }
        Kind::SetEqPointwise
        | Kind::SetEqWitness
        | Kind::ArrayEqPointwise
        | Kind::ArrayEqWitness => {
            let is_set = matches!(kind, Kind::SetEqPointwise | Kind::SetEqWitness);
            let a = if is_set { tm.eq(s, t) } else { tm.eq(m, h) };
            let (vs, vt) = if is_set {
                (tm.member(e, s), tm.member(e, t))
            } else {
                (tm.select(m, e), tm.select(h, e))
            };
            let ax = if matches!(kind, Kind::SetEqPointwise | Kind::ArrayEqPointwise) {
                let eq = tm.eq(vs, vt);
                tm.implies(a, eq)
            } else {
                let ne = tm.neq(vs, vt);
                let na = tm.not(a);
                tm.implies(na, ne)
            };
            let atoms = if is_set {
                vec![a, vs, vt]
            } else {
                vec![a, tm.eq(vs, vt)]
            };
            (atoms, ax)
        }
        Kind::Trichotomy => {
            let eq = tm.eq(p, q);
            if tm.term(eq).op != Op::Eq {
                return None;
            }
            let (a, b) = (tm.term(eq).args[0], tm.term(eq).args[1]);
            let lt_ab = tm.lt(a, b);
            let lt_ba = tm.lt(b, a);
            (vec![eq, lt_ab, lt_ba], tm.or(vec![eq, lt_ab, lt_ba]))
        }
    })
}

/// The SAT core's whole state (clause arena, watch lists, level-0 trail,
/// decision heap) and the atom map, for comparing two encodings.
fn state(sat: &SatSolver, map: &AtomMap) -> (String, Vec<Option<TermId>>) {
    (format!("{sat:?}"), map.atom_of_var.clone())
}

/// Checks that `inst` enters a solver exactly as `cnf::assert_fact` enters
/// `term`: after the same atoms were encoded beforehand (every subset of
/// the instance's atoms, last first), both leave the same clauses in the
/// same order, the same level-0 assignments and the same new variables
/// for the same atoms.
fn assert_same_encoding(tm: &mut TermManager, atoms: &[TermId], term: TermId, inst: Fact) {
    for mask in 0..1u32 << atoms.len() {
        let mut sides = Vec::new();
        for fact in [Fact::Term(term), inst] {
            let mut sat = SatSolver::new();
            let mut map = AtomMap::default();
            for (i, &a) in atoms.iter().enumerate().rev() {
                if mask >> i & 1 == 1 {
                    cnf::encode_root(tm, a, &mut sat, &mut map);
                }
            }
            assert_fact_or_instance(tm, fact, &mut sat, &mut map);
            sides.push(state(&sat, &map));
        }
        assert_eq!(
            sides[0], sides[1],
            "{inst:?}, atoms encoded before: {mask:b}"
        );
    }
}

/// Every kind, over inputs where no smart constructor folds (each instance
/// is its clauses) and over inputs where one does (each instance keeps the
/// formula those constructors built): the instance enters the SAT core as
/// `cnf::assert_fact` entered the fact term before instances were clausal.
#[test]
fn instances_encode_as_assert_fact_encoded_their_terms() {
    let mut tm = TermManager::new();
    let generic = Inputs::fresh(&mut tm, Sort::Loc, Sort::Int);
    // An element equal to the other: `e = x` folds to true.
    let mut equal_elems = Inputs::fresh(&mut tm, Sort::Loc, Sort::Int);
    equal_elems.x = equal_elems.e;
    // Two equal atoms: `e ∈ S` twice, and `S = S` folded to true.
    let mut equal_sets = Inputs::fresh(&mut tm, Sort::Loc, Sort::Int);
    (equal_sets.t, equal_sets.h) = (equal_sets.s, equal_sets.m);
    // Boolean-valued arrays: an equality of reads becomes `iff`.
    let bool_arrays = Inputs::fresh(&mut tm, Sort::Loc, Sort::Bool);
    // Integer literals: `1 = 2` folds to false.
    let mut literals = Inputs::fresh(&mut tm, Sort::Int, Sort::Int);
    (literals.e, literals.x) = (tm.int(1), tm.int(2));
    (literals.p, literals.q) = (tm.int(3), tm.int(4));

    let mut folded = Vec::new();
    for (name, inputs) in [
        ("generic", &generic),
        ("equal elements", &equal_elems),
        ("equal sets", &equal_sets),
        ("Boolean-valued arrays", &bool_arrays),
        ("integer literals", &literals),
    ] {
        for kind in Kind::ALL {
            let Some((atoms, term)) = reference(&mut tm, kind, inputs) else {
                continue;
            };
            let inst = Instance::new(&mut tm, kind, &atoms);
            match inst {
                Some(Instance::Clauses(k, a)) => {
                    assert_eq!((k, &a[..k.arity()]), (kind, &atoms[..]), "{name}");
                    assert_eq!(inst.unwrap().formula(&mut tm), term, "{name} {kind:?}");
                }
                Some(Instance::Formula(f)) => {
                    assert_eq!(f, term, "{name} {kind:?}");
                    folded.push((name, kind));
                }
                None => {
                    assert_eq!(tm.term(term).op, Op::True, "{name} {kind:?}");
                    folded.push((name, kind));
                }
            }
            if name == "generic" {
                assert!(matches!(inst, Some(Instance::Clauses(..))), "{kind:?}");
            }
            let fact = inst.map_or(Fact::Term(term), Fact::Instance);
            assert_same_encoding(&mut tm, &atoms, term, fact);
        }
    }
    // Each kind of fold is exercised.
    for expected in [
        ("equal elements", Kind::SingletonMember),
        ("equal elements", Kind::StoreHit),
        ("equal elements", Kind::StoreMiss),
        ("equal sets", Kind::UnionMember),
        ("equal sets", Kind::SubsetPointwise),
        ("equal sets", Kind::SetEqPointwise),
        ("Boolean-valued arrays", Kind::StoreHit),
        ("Boolean-valued arrays", Kind::ArrayEqWitness),
        ("integer literals", Kind::StoreHit),
        ("integer literals", Kind::StoreMiss),
    ] {
        assert!(folded.contains(&expected), "{expected:?} did not fold");
    }
}

/// What each kind costs, pinned: at most three clauses and no definition
/// variable.
#[test]
fn instance_shapes_cost_at_most_three_clauses() {
    let mut tm = TermManager::new();
    let inputs = Inputs::fresh(&mut tm, Sort::Loc, Sort::Int);
    let expected = [
        (Kind::EmptyMember, 1),
        (Kind::SingletonMember, 2),
        (Kind::UnionMember, 3),
        (Kind::InterMember, 3),
        (Kind::DiffMember, 3),
        (Kind::StoreHit, 1),
        (Kind::StoreMiss, 1),
        (Kind::MapIteHit, 1),
        (Kind::MapIteMiss, 1),
        (Kind::SubsetPointwise, 1),
        (Kind::SubsetWitness, 2),
        (Kind::SetEqPointwise, 2),
        (Kind::SetEqWitness, 2),
        (Kind::ArrayEqPointwise, 1),
        (Kind::ArrayEqWitness, 1),
        (Kind::Trichotomy, 1),
    ];
    assert_eq!(expected.map(|(k, _)| k), Kind::ALL);
    for (kind, clauses) in expected {
        let (atoms, _) = reference(&mut tm, kind, &inputs).unwrap();
        let inst = Instance::new(&mut tm, kind, &atoms).unwrap();
        assert_eq!(
            cost(&mut tm, Fact::Instance(inst)),
            (clauses, 0),
            "{kind:?}"
        );
        assert_eq!(kind.clauses().len(), clauses, "{kind:?}");
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
    batch
        .facts
        .iter()
        .map(|&f| cost(tm, Fact::Term(f)))
        .collect()
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
fn every_instance_the_lowering_emits_costs_at_most_three_clauses() {
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

    let instances = LowerCtx::new().add(&mut tm, &roots).instances;
    assert!(instances.len() > 40, "{} instances", instances.len());
    let mut kinds = Vec::new();
    for inst in instances {
        if let Instance::Clauses(kind, _) = inst {
            kinds.push(kind);
        }
        let (clauses, vars) = cost(&mut tm, Fact::Instance(inst));
        assert!(
            clauses <= 3 && vars == 0,
            "{inst:?}: {clauses} clauses, {vars} variables"
        );
    }
    for kind in Kind::ALL {
        assert!(kinds.contains(&kind), "no {kind:?} instance");
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
