//! Criterion bench of the SMT substrate itself, plus the ablation called out
//! in DESIGN.md: how much of the verification time is spent below the
//! methodology layer (SAT + theories + finite instantiation), measured on
//! solver-level workloads shaped like FWYB verification conditions. The
//! `sat` group measures the CDCL core alone: propagation, conflict analysis
//! and the decision heap on pigeonhole and random 3-SAT, and the assumption
//! handling of an incremental session's checks.

use criterion::{criterion_group, criterion_main, Criterion};
use ids_smt::sat::{Lit, SatSolver, Var};
use ids_smt::{SatResult, Solver, Sort, TermManager};

/// A chain of store/select reasoning like the heap updates of a FWYB method.
fn store_chain(depth: usize) -> (TermManager, Vec<ids_smt::TermId>) {
    let mut tm = TermManager::new();
    let arr = Sort::array_of(Sort::Loc, Sort::Int);
    let mut map = tm.var("f0", arr);
    let mut asserts = Vec::new();
    let mut locs = Vec::new();
    for i in 0..depth {
        let x = tm.var(&format!("x{}", i), Sort::Loc);
        locs.push(x);
        let v = tm.int(i as i128);
        map = tm.store(map, x, v);
    }
    // All locations distinct.
    let distinct = tm.distinct(locs.clone());
    asserts.push(distinct);
    // Claim the first write was overwritten (false): expect Unsat when negated
    // correctly, i.e. the assertion set is satisfiable check.
    let sel = tm.select(map, locs[0]);
    let zero = tm.int(0);
    let eq = tm.eq(sel, zero);
    let ne = tm.not(eq);
    asserts.push(ne);
    (tm, asserts)
}

fn euf_chain(n: usize) -> (TermManager, Vec<ids_smt::TermId>) {
    let mut tm = TermManager::new();
    let mut asserts = Vec::new();
    let xs: Vec<_> = (0..n)
        .map(|i| tm.var(&format!("a{}", i), Sort::Loc))
        .collect();
    for w in xs.windows(2) {
        let e = tm.eq(w[0], w[1]);
        asserts.push(e);
    }
    let f_first = tm.app("f", vec![xs[0]], Sort::Int);
    let f_last = tm.app("f", vec![xs[n - 1]], Sort::Int);
    let ne = tm.neq(f_first, f_last);
    asserts.push(ne);
    (tm, asserts)
}

fn smt_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("smt");
    g.bench_function("store_chain_unsat_depth8", |b| {
        b.iter(|| {
            let (mut tm, asserts) = store_chain(8);
            let mut s = Solver::new();
            assert_eq!(s.check(&mut tm, &asserts), SatResult::Unsat);
        })
    });
    g.bench_function("euf_transitivity_chain_40", |b| {
        b.iter(|| {
            let (mut tm, asserts) = euf_chain(40);
            let mut s = Solver::new();
            assert_eq!(s.check(&mut tm, &asserts), SatResult::Unsat);
        })
    });
    g.bench_function("set_algebra_valid", |b| {
        b.iter(|| {
            let mut tm = TermManager::new();
            let set = Sort::set_of(Sort::Loc);
            let a = tm.var("A", set.clone());
            let bb = tm.var("B", set.clone());
            let cset = tm.var("C", set);
            let ab = tm.union(a, bb);
            let abc = tm.union(ab, cset);
            let bc = tm.union(bb, cset);
            let abc2 = tm.union(a, bc);
            let ne = tm.neq(abc, abc2);
            let mut s = Solver::new();
            assert_eq!(s.check(&mut tm, &[ne]), SatResult::Unsat);
        })
    });
    g.finish();
}

/// Pigeonhole: `pigeons` pigeons into `holes` holes, unsatisfiable whenever
/// `pigeons > holes`, and refuted only after many conflicts.
fn pigeonhole(s: &mut SatSolver, pigeons: usize, holes: usize) {
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        s.add_clause(row.iter().map(|&v| Lit::new(v, true)).collect());
    }
    for i in 0..pigeons {
        for k in i + 1..pigeons {
            for (&a, &b) in p[i].iter().zip(&p[k]) {
                s.add_clause(vec![Lit::new(a, false), Lit::new(b, false)]);
            }
        }
    }
}

/// Deterministic xorshift, so the instances need no rand crate.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A seeded random 3-SAT instance (three distinct variables per clause) over
/// variables `0..num_vars`.
fn random_3sat(rng: &mut XorShift, num_vars: u64, num_clauses: usize) -> Vec<Vec<Lit>> {
    (0..num_clauses)
        .map(|_| {
            let mut vars: Vec<Var> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.below(num_vars) as Var;
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

/// A solver over `num_vars` variables holding `clauses`.
fn solver_with(num_vars: u64, clauses: &[Vec<Lit>]) -> SatSolver {
    let mut s = SatSolver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c.clone());
    }
    s
}

fn sat_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("sat");
    g.sample_size(30);
    g.bench_function("pigeonhole_7_into_6", |b| {
        b.iter(|| {
            let mut s = SatSolver::new();
            pigeonhole(&mut s, 7, 6);
            assert_eq!(s.solve(), SatResult::Unsat);
        })
    });
    // Ten instances at the 4.26 clause/variable threshold, a mix of
    // satisfiable and unsatisfiable ones.
    let batch: Vec<Vec<Vec<Lit>>> = (0..10)
        .map(|seed| random_3sat(&mut XorShift::new(seed), 120, 511))
        .collect();
    g.bench_function("random_3sat_batch_10x120", |b| {
        b.iter(|| {
            batch
                .iter()
                .filter(|clauses| solver_with(120, clauses).solve() == SatResult::Sat)
                .count()
        })
    });
    // 64 activation variables each guarding three clauses, each assumed
    // true with probability 2/3 in each of 40 calls on one solver (about
    // half of them unsatisfiable): the shape of an incremental session's
    // checks, which keep learned clauses between calls.
    let mut rng = XorShift::new(2024);
    let base = random_3sat(&mut rng, 80, 220);
    let guarded = random_3sat(&mut rng, 80, 3 * 64);
    let selections: Vec<Vec<bool>> = (0..40)
        .map(|_| (0..64).map(|_| rng.below(3) != 0).collect())
        .collect();
    g.bench_function("solve_under_loop_64_assumptions", |b| {
        b.iter(|| {
            let mut s = solver_with(80, &base);
            let acts: Vec<Var> = (0..64).map(|_| s.new_var()).collect();
            for (clauses, &act) in guarded.chunks(3).zip(&acts) {
                for c in clauses {
                    let mut c = c.clone();
                    c.push(Lit::new(act, false));
                    s.add_clause(c);
                }
            }
            selections
                .iter()
                .filter(|selected| {
                    let assumptions: Vec<Lit> = acts
                        .iter()
                        .zip(*selected)
                        .map(|(&a, &on)| Lit::new(a, on))
                        .collect();
                    s.solve_under(&assumptions) == SatResult::Unsat
                })
                .count()
        })
    });
    g.finish();
}

criterion_group!(benches, smt_workloads, sat_workloads);
criterion_main!(benches);
