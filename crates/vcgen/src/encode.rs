//! Encoding of IVL expressions into SMT terms over the heap-as-maps model.

use std::collections::BTreeMap;

use ids_ivl::{BinOp, Expr, Program, Type, UnOp};
use ids_smt::{Rat, Sort, TermId, TermManager};

use crate::VcError;

/// Maps an IVL type to an SMT sort.
pub fn sort_of_type(t: Type) -> Sort {
    match t {
        Type::Bool => Sort::Bool,
        Type::Int => Sort::Int,
        Type::Real => Sort::Real,
        Type::Loc => Sort::Loc,
        Type::SetLoc => Sort::set_of(Sort::Loc),
        Type::SetInt => Sort::set_of(Sort::Int),
    }
}

/// The default value stored in a freshly allocated object's field.
pub fn default_value(tm: &mut TermManager, t: Type) -> TermId {
    match t {
        Type::Bool => tm.fls(),
        Type::Int => tm.int(0),
        Type::Real => tm.real(Rat::ZERO),
        Type::Loc => tm.var("nil", Sort::Loc),
        Type::SetLoc => tm.empty_set(Sort::Loc),
        Type::SetInt => tm.empty_set(Sort::Int),
    }
}

/// A symbolic state: the current SMT term for every program variable and for
/// every field map.
///
/// The maps are `BTreeMap`s on purpose: symbolic execution iterates over them
/// (call framing, branch joins), and a deterministic iteration order makes VC
/// generation reproducible run to run — which the driver's persistent VC cache
/// relies on (the structural hash of a VC must not depend on the order fresh
/// variables were numbered in).
#[derive(Clone, Debug, Default)]
pub struct Env {
    /// Program variables (including the implicit ghost sets `Br`, `Alloc`).
    pub vars: BTreeMap<String, TermId>,
    /// Field maps, keyed by field name.
    pub fields: BTreeMap<String, TermId>,
}

/// Encodes an expression in the given state.
///
/// `old_env` is the state `old(..)` refers to. Side assumptions produced by
/// the allocation-set modelling of Appendix A.3 (dereferenced locations are
/// allocated) are appended to `side`.
pub fn encode_expr(
    tm: &mut TermManager,
    program: &Program,
    env: &Env,
    old_env: &Env,
    e: &Expr,
    side: &mut Vec<TermId>,
) -> Result<TermId, VcError> {
    enc(tm, program, env, old_env, e, side)
}

fn err<T>(msg: impl Into<String>) -> Result<T, VcError> {
    Err(VcError::Encoding(msg.into()))
}

fn enc(
    tm: &mut TermManager,
    program: &Program,
    env: &Env,
    old_env: &Env,
    e: &Expr,
    side: &mut Vec<TermId>,
) -> Result<TermId, VcError> {
    match e {
        Expr::BoolLit(true) => Ok(tm.tru()),
        Expr::BoolLit(false) => Ok(tm.fls()),
        Expr::IntLit(n) => Ok(tm.int(*n)),
        Expr::RealLit(n, d) => Ok(tm.real(Rat::new(*n, *d))),
        Expr::Nil => Ok(tm.var("nil", Sort::Loc)),
        Expr::EmptySet(Type::SetInt) => Ok(tm.empty_set(Sort::Int)),
        Expr::EmptySet(_) => Ok(tm.empty_set(Sort::Loc)),
        Expr::Var(name) => env
            .vars
            .get(name)
            .copied()
            .ok_or_else(|| VcError::Encoding(format!("unbound variable '{}'", name))),
        Expr::Field(obj, field) => {
            let o = enc(tm, program, env, old_env, obj, side)?;
            let decl = program
                .field(field)
                .ok_or_else(|| VcError::Encoding(format!("unknown field '{}'", field)))?;
            let map = env
                .fields
                .get(field)
                .copied()
                .ok_or_else(|| VcError::Encoding(format!("field map '{}' missing", field)))?;
            let sel = tm.select(map, o);
            // Appendix A.3: dereferenced location-valued (or set-of-location
            // valued) fields stay inside the allocation set.
            if let Some(&alloc) = env.vars.get("Alloc") {
                match decl.ty {
                    Type::Loc => {
                        let nil = tm.var("nil", Sort::Loc);
                        let is_nil = tm.eq(sel, nil);
                        let in_alloc = tm.member(sel, alloc);
                        let a = tm.or2(is_nil, in_alloc);
                        side.push(a);
                    }
                    Type::SetLoc => {
                        let a = tm.subset(sel, alloc);
                        side.push(a);
                    }
                    _ => {}
                }
            }
            Ok(sel)
        }
        Expr::Old(inner) => enc(tm, program, old_env, old_env, inner, side),
        Expr::Unary(UnOp::Not, inner) => {
            let i = enc(tm, program, env, old_env, inner, side)?;
            Ok(tm.not(i))
        }
        Expr::Unary(UnOp::Neg, inner) => {
            let i = enc(tm, program, env, old_env, inner, side)?;
            Ok(tm.neg(i))
        }
        Expr::Binary(op, a, b) => {
            // The polymorphic empty set `{}` adapts its element sort to the
            // other operand, or, right of `in`, to the element.
            let (ea, eb) = match op {
                BinOp::Member => (
                    &**a,
                    empty_at(b, || {
                        type_of(tm, program, env, old_env, a) == Some(Type::Int)
                    }),
                ),
                _ => coerce_empty(tm, program, env, old_env, a, b),
            };
            let ta = enc(tm, program, env, old_env, ea, side)?;
            let tb = enc(tm, program, env, old_env, eb, side)?;
            match op {
                BinOp::Add => Ok(tm.add(ta, tb)),
                BinOp::Sub => Ok(tm.sub(ta, tb)),
                BinOp::Div => match &**b {
                    Expr::IntLit(n) if *n != 0 => Ok(tm.mul_const(Rat::new(1, *n), ta)),
                    _ => err("division must be by a non-zero integer literal"),
                },
                BinOp::And => Ok(tm.and2(ta, tb)),
                BinOp::Or => Ok(tm.or2(ta, tb)),
                BinOp::Implies => Ok(tm.implies(ta, tb)),
                BinOp::Iff => Ok(tm.iff(ta, tb)),
                BinOp::Eq => Ok(tm.eq(ta, tb)),
                BinOp::Ne => Ok(tm.neq(ta, tb)),
                BinOp::Lt => Ok(tm.lt(ta, tb)),
                BinOp::Le => Ok(tm.le(ta, tb)),
                BinOp::Gt => Ok(tm.gt(ta, tb)),
                BinOp::Ge => Ok(tm.ge(ta, tb)),
                BinOp::Union => Ok(tm.union(ta, tb)),
                BinOp::Inter => Ok(tm.inter(ta, tb)),
                BinOp::Diff => Ok(tm.diff(ta, tb)),
                BinOp::Member => Ok(tm.member(ta, tb)),
                BinOp::Subset => Ok(tm.subset(ta, tb)),
            }
        }
        Expr::Ite(c, t, f) => {
            let ec = enc(tm, program, env, old_env, c, side)?;
            let (t, f) = coerce_empty(tm, program, env, old_env, t, f);
            let et = enc(tm, program, env, old_env, t, side)?;
            let ef = enc(tm, program, env, old_env, f, side)?;
            Ok(tm.ite(ec, et, ef))
        }
        Expr::Singleton(inner) => {
            let i = enc(tm, program, env, old_env, inner, side)?;
            Ok(tm.singleton(i))
        }
        Expr::App(name, args) => {
            let mut ts = Vec::new();
            for a in args {
                ts.push(enc(tm, program, env, old_env, a, side)?);
            }
            Ok(tm.app(name, ts, Sort::Bool))
        }
    }
}

/// The `Set<Int>` empty literal a polymorphic `{}` becomes next to an
/// integer set.
const EMPTY_INT_SET: Expr = Expr::EmptySet(Type::SetInt);

/// If one of the two operands (or `ite` branches) is the polymorphic
/// empty-set literal and the other is a `Set<Int>`, the empty set becomes
/// [`EMPTY_INT_SET`]; otherwise the operands are returned as they are. This
/// keeps the SMT encoding well-sorted without burdening the surface programs.
fn coerce_empty<'e>(
    tm: &TermManager,
    program: &Program,
    env: &Env,
    old_env: &Env,
    a: &'e Expr,
    b: &'e Expr,
) -> (&'e Expr, &'e Expr) {
    let int_set = |e: &Expr| type_of(tm, program, env, old_env, e) == Some(Type::SetInt);
    let ea = if matches!(a, Expr::EmptySet(_)) && int_set(b) {
        &EMPTY_INT_SET
    } else {
        a
    };
    let eb = if matches!(b, Expr::EmptySet(_)) && int_set(a) {
        &EMPTY_INT_SET
    } else {
        b
    };
    (ea, eb)
}

/// `e` where a value is expected that `int_set` says is a `Set<Int>` (an
/// assignment's target, a declared variable, a parameter, the right of `in`
/// on an integer): the polymorphic `{}` becomes [`EMPTY_INT_SET`] there,
/// and any other expression is returned as it is. `int_set` is asked only
/// about a `{}`.
pub(crate) fn empty_at(e: &Expr, int_set: impl FnOnce() -> bool) -> &Expr {
    if matches!(e, Expr::EmptySet(_)) && int_set() {
        &EMPTY_INT_SET
    } else {
        e
    }
}

/// The IVL type of an expression, read off declared types — the program's
/// field types and the sorts of the environment's variables — without
/// encoding anything. `None` for the polymorphic `{}` (and for a set
/// operation on two of them), an unbound variable or an unknown field.
fn type_of(
    tm: &TermManager,
    program: &Program,
    env: &Env,
    old_env: &Env,
    e: &Expr,
) -> Option<Type> {
    let of = |e: &Expr| type_of(tm, program, env, old_env, e);
    match e {
        Expr::BoolLit(_) | Expr::App(..) | Expr::Unary(UnOp::Not, _) => Some(Type::Bool),
        Expr::IntLit(_) => Some(Type::Int),
        Expr::RealLit(..) => Some(Type::Real),
        Expr::Nil => Some(Type::Loc),
        Expr::EmptySet(Type::SetInt) => Some(Type::SetInt),
        Expr::EmptySet(_) => None,
        Expr::Var(name) => match tm.sort(*env.vars.get(name)?) {
            Sort::Bool => Some(Type::Bool),
            Sort::Int => Some(Type::Int),
            Sort::Real => Some(Type::Real),
            Sort::Loc => Some(Type::Loc),
            Sort::Set(elem) if **elem == Sort::Int => Some(Type::SetInt),
            Sort::Set(_) => Some(Type::SetLoc),
            Sort::Array(..) => None,
        },
        Expr::Field(_, field) => program.field(field).map(|f| f.ty),
        Expr::Old(inner) => type_of(tm, program, old_env, old_env, inner),
        Expr::Unary(UnOp::Neg, inner) => of(inner),
        Expr::Binary(op, a, b) => match op {
            BinOp::Add | BinOp::Sub => match (of(a)?, of(b)?) {
                (Type::Int, Type::Int) => Some(Type::Int),
                _ => Some(Type::Real),
            },
            BinOp::Div => Some(Type::Real),
            BinOp::Union | BinOp::Inter | BinOp::Diff => of(a).or_else(|| of(b)),
            _ => Some(Type::Bool),
        },
        Expr::Ite(_, t, f) => of(t).or_else(|| of(f)),
        Expr::Singleton(inner) => match of(inner)? {
            Type::Int => Some(Type::SetInt),
            Type::Loc => Some(Type::SetLoc),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_expr;

    fn setup() -> (TermManager, Program, Env) {
        let program = ids_ivl::parse_program(
            r#"
            field next: Loc;
            field key: Int;
            field ghost keys: Set<Int>;
            field ghost hslist: Set<Loc>;
            field ghost vals: Set<Int>;
            procedure dummy(x: Loc);
            "#,
        )
        .unwrap();
        let mut tm = TermManager::new();
        let mut env = Env::default();
        let x = tm.var("x", Sort::Loc);
        env.vars.insert("x".into(), x);
        let alloc = tm.var("Alloc", Sort::set_of(Sort::Loc));
        env.vars.insert("Alloc".into(), alloc);
        for f in &program.fields {
            let sort = Sort::array_of(Sort::Loc, sort_of_type(f.ty));
            let m = tm.var(&format!("fld_{}", f.name), sort);
            env.fields.insert(f.name.clone(), m);
        }
        (tm, program, env)
    }

    #[test]
    fn encodes_field_chain() {
        let (mut tm, program, env) = setup();
        let e = parse_expr("x.next.key").unwrap();
        let mut side = Vec::new();
        let t = encode_expr(&mut tm, &program, &env, &env, &e, &mut side).unwrap();
        assert_eq!(tm.sort(t), &Sort::Int);
        // The dereference of the Loc-valued field produced an allocation-set
        // side assumption.
        assert!(!side.is_empty());
    }

    #[test]
    fn encodes_set_expression() {
        let (mut tm, program, env) = setup();
        let e = parse_expr("x.hslist == union({x}, x.next.hslist)").unwrap();
        let mut side = Vec::new();
        let t = encode_expr(&mut tm, &program, &env, &env, &e, &mut side).unwrap();
        assert_eq!(tm.sort(t), &Sort::Bool);
    }

    #[test]
    fn empty_set_coerces_to_int_sets() {
        let (mut tm, program, env) = setup();
        let e = parse_expr("x.keys == {}").unwrap();
        let mut side = Vec::new();
        let t = encode_expr(&mut tm, &program, &env, &env, &e, &mut side).unwrap();
        // Both sides must have the Set<Int> sort under the hood.
        let term = tm.term(t).clone();
        let rhs = term.args[1];
        assert_eq!(tm.sort(rhs), &Sort::set_of(Sort::Int));
    }

    #[test]
    fn empty_set_sort_comes_from_declared_types() {
        // Not from field names: `vals` is a `Set<Int>` field, `ks` a
        // `Set<Int>` variable, `k` an `Int` variable; `hslist` and `Alloc`
        // are location sets.
        let (mut tm, program, mut env) = setup();
        let ks = tm.var("ks", Sort::set_of(Sort::Int));
        env.vars.insert("ks".into(), ks);
        let k = tm.var("k", Sort::Int);
        env.vars.insert("k".into(), k);
        let int_set = Sort::set_of(Sort::Int);
        let loc_set = Sort::set_of(Sort::Loc);
        for (src, empty_sort) in [
            ("x.vals == {}", &int_set),
            ("{} == old(x.vals)", &int_set),
            ("ks == {}", &int_set),
            ("{k + 1} == {}", &int_set),
            ("union(ks, x.keys) == {}", &int_set),
            ("{} == ite(k > 0, {}, ks)", &int_set),
            ("x.hslist == {}", &loc_set),
            ("{} == Alloc", &loc_set),
            ("{x} == {}", &loc_set),
        ] {
            let e = parse_expr(src).unwrap();
            let mut side = Vec::new();
            let t = encode_expr(&mut tm, &program, &env, &env, &e, &mut side).unwrap();
            let args = tm.term(t).args.clone();
            assert!(
                args.iter().all(|&a| tm.sort(a) == empty_sort),
                "{src}: operands {:?}",
                args.iter()
                    .map(|&a| tm.sort(a).to_string())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn unknown_variable_is_reported() {
        let (mut tm, program, env) = setup();
        let e = parse_expr("y.key").unwrap();
        let mut side = Vec::new();
        assert!(encode_expr(&mut tm, &program, &env, &env, &e, &mut side).is_err());
    }

    #[test]
    fn division_by_literal_only() {
        let (mut tm, program, env) = setup();
        let ok = parse_expr("(x.key + 1) / 2").unwrap();
        let mut side = Vec::new();
        assert!(encode_expr(&mut tm, &program, &env, &env, &ok, &mut side).is_ok());
        let bad = parse_expr("x.key / x.key").unwrap();
        assert!(encode_expr(&mut tm, &program, &env, &env, &bad, &mut side).is_err());
    }
}
