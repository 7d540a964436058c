//! Encoding of IVL expressions into SMT terms over the heap-as-maps model.

use std::collections::BTreeMap;

use ids_ivl::{
    instance, resolve, BinOp, Binding, Definitions, Expr, Instance, Program, Type, UnOp,
};
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
/// The names are borrowed from the program (or are the implicit `Alloc`,
/// `Br` and `Br2`), so a copy of the state at a branch copies no name.
#[derive(Clone, Debug, Default)]
pub struct Env<'a> {
    /// Program variables (including the implicit ghost sets `Br`, `Alloc`).
    pub vars: BTreeMap<&'a str, TermId>,
    /// Field maps, keyed by field name.
    pub fields: BTreeMap<&'a str, TermId>,
}

/// Encodes an expression in the given state, with no definitions: every
/// application is an uninterpreted predicate.
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
    encode_expr_in(tm, program, &(), env, old_env, e, side)
}

/// Encodes an expression in the given state (see [`encode_expr`]), with
/// every application of one of `defs`' definitions instantiated where it
/// occurs: the definition's body is encoded with each parameter standing for
/// its argument expression, which is encoded again at each occurrence, in
/// that occurrence's state (inside `old(..)` too). The visit order is that
/// of the substituted expression, so the terms, their creation order and the
/// side assumptions are those of encoding the substituted copy.
pub fn encode_expr_in(
    tm: &mut TermManager,
    program: &Program,
    defs: &dyn Definitions,
    env: &Env,
    old_env: &Env,
    e: &Expr,
    side: &mut Vec<TermId>,
) -> Result<TermId, VcError> {
    let encoder = Encoder {
        program,
        defs,
        env,
        old_env,
    };
    encoder.enc(tm, e, None, side)
}

fn err<T>(msg: impl Into<String>) -> Result<T, VcError> {
    Err(VcError::Encoding(msg.into()))
}

/// What an expression is encoded against: the program's field
/// declarations, the definitions its applications stand for, the state and
/// the state `old(..)` refers to.
#[derive(Clone, Copy)]
struct Encoder<'c> {
    program: &'c Program,
    defs: &'c dyn Definitions,
    env: &'c Env<'c>,
    old_env: &'c Env<'c>,
}

/// Where an operand is encoded: under the binding of the definition body it
/// sits in, or (`None`) in the program.
type Scope<'e> = Option<&'e Binding<'e>>;

impl<'c> Encoder<'c> {
    /// The encoder of `old(..)`'s operand.
    fn old(&self) -> Encoder<'c> {
        Encoder {
            env: self.old_env,
            ..*self
        }
    }

    fn enc<'e>(
        &self,
        tm: &mut TermManager,
        e: &'e Expr,
        scope: Scope<'e>,
        side: &mut Vec<TermId>,
    ) -> Result<TermId, VcError> {
        match instance(self.defs, e, scope) {
            Some(Instance::Arg(arg)) => return self.enc(tm, arg, None, side),
            Some(Instance::Body(body, binding)) => return self.enc(tm, body, Some(&binding), side),
            None => {}
        }
        match e {
            Expr::BoolLit(true) => Ok(tm.tru()),
            Expr::BoolLit(false) => Ok(tm.fls()),
            Expr::IntLit(n) => Ok(tm.int(*n)),
            Expr::RealLit(n, d) => Ok(tm.real(Rat::new(*n, *d))),
            Expr::Nil => Ok(tm.var("nil", Sort::Loc)),
            Expr::EmptySet(Type::SetInt) => Ok(tm.empty_set(Sort::Int)),
            Expr::EmptySet(_) => Ok(tm.empty_set(Sort::Loc)),
            Expr::Var(name) => self
                .env
                .vars
                .get(name.as_str())
                .copied()
                .ok_or_else(|| VcError::Encoding(format!("unbound variable '{}'", name))),
            Expr::Field(obj, field) => {
                let o = self.enc(tm, obj, scope, side)?;
                let decl = self
                    .program
                    .field(field)
                    .ok_or_else(|| VcError::Encoding(format!("unknown field '{}'", field)))?;
                let map = self
                    .env
                    .fields
                    .get(field.as_str())
                    .copied()
                    .ok_or_else(|| VcError::Encoding(format!("field map '{}' missing", field)))?;
                let sel = tm.select(map, o);
                // Appendix A.3: dereferenced location-valued (or
                // set-of-location valued) fields stay inside the allocation
                // set.
                if let Some(&alloc) = self.env.vars.get("Alloc") {
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
            Expr::Old(inner) => self.old().enc(tm, inner, scope, side),
            Expr::Unary(UnOp::Not, inner) => {
                let i = self.enc(tm, inner, scope, side)?;
                Ok(tm.not(i))
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let i = self.enc(tm, inner, scope, side)?;
                Ok(tm.neg(i))
            }
            Expr::Binary(op, a, b) => {
                // The polymorphic empty set `{}` adapts its element sort to
                // the other operand, or, right of `in`, to the element.
                let (ea, eb) = match op {
                    BinOp::Member => (
                        &**a,
                        self.empty_at(b, scope, || self.type_of(tm, a, scope) == Some(Type::Int)),
                    ),
                    _ => self.coerce_empty(tm, a, b, scope),
                };
                let ta = self.enc(tm, ea, scope, side)?;
                let tb = self.enc(tm, eb, scope, side)?;
                match op {
                    BinOp::Add => Ok(tm.add(ta, tb)),
                    BinOp::Sub => Ok(tm.sub(ta, tb)),
                    BinOp::Div => match resolve(self.defs, b, scope) {
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
                let ec = self.enc(tm, c, scope, side)?;
                let (t, f) = self.coerce_empty(tm, t, f, scope);
                let et = self.enc(tm, t, scope, side)?;
                let ef = self.enc(tm, f, scope, side)?;
                Ok(tm.ite(ec, et, ef))
            }
            Expr::Singleton(inner) => {
                let i = self.enc(tm, inner, scope, side)?;
                Ok(tm.singleton(i))
            }
            Expr::App(name, args) => {
                let mut ts = Vec::new();
                for a in args {
                    ts.push(self.enc(tm, a, scope, side)?);
                }
                Ok(tm.app(name, ts, Sort::Bool))
            }
        }
    }

    /// If one of the two operands (or `ite` branches) stands for the
    /// polymorphic empty-set literal and the other is a `Set<Int>`, the
    /// empty set becomes [`EMPTY_INT_SET`]; otherwise the operands are
    /// returned as they are. This keeps the SMT encoding well-sorted without
    /// burdening the surface programs.
    fn coerce_empty<'e>(
        &self,
        tm: &TermManager,
        a: &'e Expr,
        b: &'e Expr,
        scope: Scope<'e>,
    ) -> (&'e Expr, &'e Expr) {
        let int_set = |e| self.type_of(tm, e, scope) == Some(Type::SetInt);
        (
            self.empty_at(a, scope, || int_set(b)),
            self.empty_at(b, scope, || int_set(a)),
        )
    }

    /// `e` where `int_set` says a `Set<Int>` is expected: [`EMPTY_INT_SET`]
    /// if `e` stands for the polymorphic `{}`, else `e` as it is.
    fn empty_at<'e>(
        &self,
        e: &'e Expr,
        scope: Scope<'e>,
        int_set: impl FnOnce() -> bool,
    ) -> &'e Expr {
        if is_empty_set(self.defs, e, scope) && int_set() {
            &EMPTY_INT_SET
        } else {
            e
        }
    }

    /// The IVL type of an expression, read off declared types — the
    /// program's field types and the sorts of the environment's variables —
    /// without encoding anything. `None` for the polymorphic `{}` (and for a
    /// set operation on two of them), an unbound variable or an unknown
    /// field.
    fn type_of<'e>(&self, tm: &TermManager, e: &'e Expr, scope: Scope<'e>) -> Option<Type> {
        match instance(self.defs, e, scope) {
            Some(Instance::Arg(arg)) => return self.type_of(tm, arg, None),
            Some(Instance::Body(body, binding)) => return self.type_of(tm, body, Some(&binding)),
            None => {}
        }
        let of = |e: &'e Expr| self.type_of(tm, e, scope);
        match e {
            Expr::BoolLit(_) | Expr::App(..) | Expr::Unary(UnOp::Not, _) => Some(Type::Bool),
            Expr::IntLit(_) => Some(Type::Int),
            Expr::RealLit(..) => Some(Type::Real),
            Expr::Nil => Some(Type::Loc),
            Expr::EmptySet(Type::SetInt) => Some(Type::SetInt),
            Expr::EmptySet(_) => None,
            Expr::Var(name) => match tm.sort(*self.env.vars.get(name.as_str())?) {
                Sort::Bool => Some(Type::Bool),
                Sort::Int => Some(Type::Int),
                Sort::Real => Some(Type::Real),
                Sort::Loc => Some(Type::Loc),
                Sort::Set(elem) if **elem == Sort::Int => Some(Type::SetInt),
                Sort::Set(_) => Some(Type::SetLoc),
                Sort::Array(..) => None,
            },
            Expr::Field(_, field) => self.program.field(field).map(|f| f.ty),
            Expr::Old(inner) => self.old().type_of(tm, inner, scope),
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
}

/// The `Set<Int>` empty literal a polymorphic `{}` becomes next to an
/// integer set.
const EMPTY_INT_SET: Expr = Expr::EmptySet(Type::SetInt);

/// `e` where a value is expected that `int_set` says is a `Set<Int>` (an
/// assignment's target, a declared variable, a parameter): if `e` stands for
/// the polymorphic `{}`, it becomes [`EMPTY_INT_SET`] there, and any other
/// expression is returned as it is. `int_set` is asked only about a `{}`.
pub(crate) fn empty_at<'e>(
    defs: &'e dyn Definitions,
    e: &'e Expr,
    int_set: impl FnOnce() -> bool,
) -> &'e Expr {
    if is_empty_set(defs, e, None) && int_set() {
        &EMPTY_INT_SET
    } else {
        e
    }
}

/// Whether `e`, under `scope`, stands for the polymorphic `{}`. Only a
/// variable or an application can stand for another node.
fn is_empty_set<'e>(defs: &'e dyn Definitions, e: &'e Expr, scope: Scope<'e>) -> bool {
    match e {
        Expr::EmptySet(_) => true,
        Expr::Var(_) | Expr::App(..) => matches!(resolve(defs, e, scope), Expr::EmptySet(_)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_expr;

    /// The program the tests encode against; the environment borrows its
    /// field names.
    static PROGRAM: std::sync::LazyLock<Program> = std::sync::LazyLock::new(|| {
        ids_ivl::parse_program(
            r#"
            field next: Loc;
            field key: Int;
            field ghost keys: Set<Int>;
            field ghost hslist: Set<Loc>;
            field ghost vals: Set<Int>;
            procedure dummy(x: Loc);
            "#,
        )
        .unwrap()
    });

    fn setup() -> (TermManager, &'static Program, Env<'static>) {
        let program = &*PROGRAM;
        let mut tm = TermManager::new();
        let mut env = Env::default();
        let x = tm.var("x", Sort::Loc);
        env.vars.insert("x", x);
        let alloc = tm.var("Alloc", Sort::set_of(Sort::Loc));
        env.vars.insert("Alloc", alloc);
        for f in &program.fields {
            let sort = Sort::array_of(Sort::Loc, sort_of_type(f.ty));
            let m = tm.var(&format!("fld_{}", f.name), sort);
            env.fields.insert(&f.name, m);
        }
        (tm, program, env)
    }

    #[test]
    fn encodes_field_chain() {
        let (mut tm, program, env) = setup();
        let e = parse_expr("x.next.key").unwrap();
        let mut side = Vec::new();
        let t = encode_expr(&mut tm, program, &env, &env, &e, &mut side).unwrap();
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
        let t = encode_expr(&mut tm, program, &env, &env, &e, &mut side).unwrap();
        assert_eq!(tm.sort(t), &Sort::Bool);
    }

    #[test]
    fn empty_set_coerces_to_int_sets() {
        let (mut tm, program, env) = setup();
        let e = parse_expr("x.keys == {}").unwrap();
        let mut side = Vec::new();
        let t = encode_expr(&mut tm, program, &env, &env, &e, &mut side).unwrap();
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
        env.vars.insert("ks", ks);
        let k = tm.var("k", Sort::Int);
        env.vars.insert("k", k);
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
            let t = encode_expr(&mut tm, program, &env, &env, &e, &mut side).unwrap();
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
        assert!(encode_expr(&mut tm, program, &env, &env, &e, &mut side).is_err());
    }

    #[test]
    fn division_by_literal_only() {
        let (mut tm, program, env) = setup();
        let ok = parse_expr("(x.key + 1) / 2").unwrap();
        let mut side = Vec::new();
        assert!(encode_expr(&mut tm, program, &env, &env, &ok, &mut side).is_ok());
        let bad = parse_expr("x.key / x.key").unwrap();
        assert!(encode_expr(&mut tm, program, &env, &env, &bad, &mut side).is_err());
    }
}
