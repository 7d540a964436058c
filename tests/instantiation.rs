//! Instantiating a definition where it is used is substituting it: for every
//! definition of every registry structure (`LC`, `LC2` where there is one,
//! and φ) applied at `x`, `x.next` and `old(x.prev)`, the description
//! printer and the encoder produce what they produce for the substituted
//! copy (`substitute_var`, the reference).

use intrinsic_verify::core::ids::substitute_var;
use intrinsic_verify::core::IntrinsicDefinition;
use intrinsic_verify::ivl::printer::{expr_to_string, write_expr_in};
use intrinsic_verify::ivl::{parse_expr, Expr, FieldDecl, Program, Type};
use intrinsic_verify::smt::{Sort, TermId, TermManager};
use intrinsic_verify::structures::all_benchmarks;
use intrinsic_verify::vcgen::encode::{encode_expr, encode_expr_in, sort_of_type, Env};

const TARGETS: [&str; 3] = ["x", "x.next", "old(x.prev)"];

/// Each definition of `ids` as an application name, its parameter and its
/// body.
fn definitions(ids: &IntrinsicDefinition) -> Vec<(&'static str, &str, &Expr)> {
    let mut out = vec![("LC", "x", &ids.local_condition)];
    if let Some(secondary) = &ids.secondary {
        out.push(("LC2", "x", &secondary.local_condition));
    }
    out.push(("Phi", &ids.correlation_params[0], &ids.correlation));
    out
}

/// The definition's fields, plus `next` and `prev` where it has none, so
/// that every target can be encoded.
fn program_of(ids: &IntrinsicDefinition) -> Program {
    let mut program = ids.prelude();
    for name in ["next", "prev"] {
        if program.field(name).is_none() {
            program.fields.push(FieldDecl {
                name: name.to_string(),
                ty: Type::Loc,
                ghost: false,
            });
        }
    }
    program
}

/// A state binding `x` and `Alloc` with a map per field, and a pre-state
/// with maps of its own, so that `old(..)` reads differently.
fn states<'p>(tm: &mut TermManager, program: &'p Program) -> (Env<'p>, Env<'p>) {
    let mut env = Env::default();
    env.vars.insert("x", tm.var("x", Sort::Loc));
    env.vars
        .insert("Alloc", tm.var("Alloc", Sort::set_of(Sort::Loc)));
    let mut old_env = env.clone();
    for f in &program.fields {
        let sort = Sort::array_of(Sort::Loc, sort_of_type(f.ty));
        env.fields
            .insert(&f.name, tm.var(&format!("fld_{}", f.name), sort.clone()));
        old_env
            .fields
            .insert(&f.name, tm.var(&format!("old_fld_{}", f.name), sort));
    }
    (env, old_env)
}

#[test]
fn instantiation_prints_the_substituted_copy() {
    let mut checked = 0;
    for bench in all_benchmarks() {
        let ids = &bench.definition;
        for (name, param, body) in definitions(ids) {
            for target in TARGETS {
                let target = parse_expr(target).unwrap();
                let app = Expr::App(name.to_string(), vec![target.clone()]);
                let mut printed = String::new();
                write_expr_in(&mut printed, &app, ids);
                let reference = expr_to_string(&substitute_var(body, param, &target));
                assert_eq!(printed, reference, "{} {name}", bench.name);
                checked += 1;
            }
        }
    }
    assert!(checked >= 3 * 2 * 10, "{checked}");
}

#[test]
fn instantiation_encodes_the_substituted_copy() {
    for bench in all_benchmarks() {
        let ids = &bench.definition;
        let program = program_of(ids);
        for (name, param, body) in definitions(ids) {
            for target in TARGETS {
                let at = format!("{} {name}({target})", bench.name);
                let target = parse_expr(target).unwrap();
                let app = Expr::App(name.to_string(), vec![target.clone()]);
                let copy = substitute_var(body, param, &target);

                // Into the same manager: the same term, the same side
                // assumptions.
                let mut tm = TermManager::new();
                let (env, old_env) = states(&mut tm, &program);
                let (mut side, mut side_copy) = (Vec::new(), Vec::new());
                let t = encode_expr_in(&mut tm, &program, ids, &env, &old_env, &app, &mut side);
                let t_copy = encode_expr(&mut tm, &program, &env, &old_env, &copy, &mut side_copy);
                assert_eq!(t.as_ref().ok(), t_copy.as_ref().ok(), "{at}");
                assert!(t.is_ok(), "{at}: {t:?}");
                assert_eq!(side, side_copy, "{at}");

                // Into fresh managers: the same terms in the same order.
                let mut fresh = TermManager::new();
                let (env, old_env) = states(&mut fresh, &program);
                encode_expr_in(&mut fresh, &program, ids, &env, &old_env, &app, &mut side).unwrap();
                let mut fresh_copy = TermManager::new();
                let (env, old_env) = states(&mut fresh_copy, &program);
                encode_expr(&mut fresh_copy, &program, &env, &old_env, &copy, &mut side).unwrap();
                assert_eq!(fresh.len(), fresh_copy.len(), "{at}");
                for i in 0..fresh.len() as u32 {
                    assert_eq!(fresh.term(TermId(i)), fresh_copy.term(TermId(i)), "{at}");
                }
            }
        }
    }
}

#[test]
fn lc2_without_a_secondary_condition_reads_true() {
    let mut without = 0;
    for bench in all_benchmarks()
        .into_iter()
        .filter(|b| b.definition.secondary.is_none())
    {
        let ids = &bench.definition;
        let program = program_of(ids);
        let mut tm = TermManager::new();
        let (env, old_env) = states(&mut tm, &program);
        for target in TARGETS {
            let app = Expr::App("LC2".to_string(), vec![parse_expr(target).unwrap()]);
            let mut printed = String::new();
            write_expr_in(&mut printed, &app, ids);
            assert_eq!(printed, "true", "{}", bench.name);
            let mut side = Vec::new();
            let t = encode_expr_in(&mut tm, &program, ids, &env, &old_env, &app, &mut side);
            assert_eq!(t, Ok(tm.tru()), "{}", bench.name);
            assert!(side.is_empty());
        }
        without += 1;
    }
    assert!(without > 0);
}
