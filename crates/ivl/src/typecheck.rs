//! Scope and type checking for IVL programs.
//!
//! The checker validates variable scoping, field existence, the types of
//! expressions and statements, and basic call-site arity/typing. It is
//! deliberately lenient in two places that the verification layers above rely
//! on:
//!
//! * the special ghost variables `Br`, `Br2` (broken sets) and `Alloc` (the
//!   allocation set) are implicitly in scope with type `Set<Loc>` — the FWYB
//!   instrumentation introduces and threads them;
//! * applications `Name(args)` of unknown predicates (such as `LC(x)`, the
//!   local condition of the active intrinsic definition) are typed `Bool` as
//!   long as their arguments are well-typed; `ids-core` substitutes their
//!   definitions before verification.

use std::collections::HashMap;
use std::fmt;

use crate::ast::*;

/// A type error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeError {
    /// Human-readable message.
    pub message: String,
    /// Procedure in which the error occurred, if any.
    pub procedure: Option<String>,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.procedure {
            Some(p) => write!(f, "type error in procedure '{}': {}", p, self.message),
            None => write!(f, "type error: {}", self.message),
        }
    }
}

impl std::error::Error for TypeError {}

/// Checks a whole program.
pub fn check_program(program: &Program) -> Result<(), TypeError> {
    let mut field_names = HashMap::new();
    for f in &program.fields {
        if field_names.insert(f.name.clone(), f.ty).is_some() {
            return Err(TypeError {
                message: format!("duplicate field '{}'", f.name),
                procedure: None,
            });
        }
    }
    for proc in &program.procedures {
        check_procedure(program, proc).map_err(|mut e| {
            e.procedure = Some(proc.name.clone());
            e
        })?;
    }
    Ok(())
}

struct Ctx<'a> {
    program: &'a Program,
    vars: HashMap<String, Type>,
}

impl<'a> Ctx<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, TypeError> {
        Err(TypeError {
            message: message.into(),
            procedure: None,
        })
    }

    fn var_type(&self, name: &str) -> Result<Type, TypeError> {
        if let Some(&t) = self.vars.get(name) {
            return Ok(t);
        }
        // Implicitly scoped ghost state of the FWYB instrumentation.
        if name == "Br" || name == "Br2" || name == "Alloc" || name.starts_with("Br_") {
            return Ok(Type::SetLoc);
        }
        self.err(format!("unknown variable '{}'", name))
    }
}

fn check_procedure(program: &Program, proc: &Procedure) -> Result<(), TypeError> {
    let mut ctx = Ctx {
        program,
        vars: HashMap::new(),
    };
    for p in proc.params.iter().chain(proc.returns.iter()) {
        ctx.vars.insert(p.name.clone(), p.ty);
    }
    for r in &proc.requires {
        expect_type(&mut ctx, r, Type::Bool)?;
    }
    for e in &proc.ensures {
        expect_type(&mut ctx, e, Type::Bool)?;
    }
    if let Some(m) = &proc.modifies {
        expect_type(&mut ctx, m, Type::SetLoc)?;
    }
    if let Some(d) = &proc.decreases {
        let t = infer(&mut ctx, d)?;
        if !matches!(t, Type::Int | Type::Real) {
            return ctx.err("decreases clause must be numeric");
        }
    }
    if let Some(body) = &proc.body {
        // Collect local declarations first (block-structured scoping is
        // flattened to procedure scope, as in Boogie).
        collect_locals(&mut ctx, body)?;
        check_block(&mut ctx, body)?;
    }
    Ok(())
}

fn collect_locals(ctx: &mut Ctx<'_>, block: &Block) -> Result<(), TypeError> {
    for s in &block.stmts {
        match s {
            Stmt::VarDecl { name, ty, .. } => {
                ctx.vars.insert(name.clone(), *ty);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_locals(ctx, then_branch)?;
                collect_locals(ctx, else_branch)?;
            }
            Stmt::While { body, .. } => collect_locals(ctx, body)?,
            _ => {}
        }
    }
    Ok(())
}

fn check_block(ctx: &mut Ctx<'_>, block: &Block) -> Result<(), TypeError> {
    for s in &block.stmts {
        check_stmt(ctx, s)?;
    }
    Ok(())
}

fn check_stmt(ctx: &mut Ctx<'_>, stmt: &Stmt) -> Result<(), TypeError> {
    match stmt {
        Stmt::VarDecl { name, ty, init, .. } => {
            if let Some(e) = init {
                let et = infer_as(ctx, e, *ty)?;
                if !compatible(*ty, et) {
                    return ctx.err(format!(
                        "initializer of '{}' has type {} but the variable is {}",
                        name, et, ty
                    ));
                }
            }
            Ok(())
        }
        Stmt::Assign { lhs, rhs } => {
            let target = match lhs {
                Lhs::Var(v) => ctx.var_type(v)?,
                Lhs::Field(obj, field) => {
                    let ot = ctx.var_type(obj)?;
                    if ot != Type::Loc {
                        return ctx.err(format!("'{}' is not a location", obj));
                    }
                    match ctx.program.field(field) {
                        Some(f) => f.ty,
                        None => return ctx.err(format!("unknown field '{}'", field)),
                    }
                }
            };
            let vt = infer_as(ctx, rhs, target)?;
            if !compatible(target, vt) {
                return ctx.err(format!(
                    "cannot assign value of type {} to target of type {}",
                    vt, target
                ));
            }
            Ok(())
        }
        Stmt::Havoc { name } => ctx.var_type(name).map(|_| ()),
        Stmt::Assume(e) | Stmt::Assert(e) => expect_type(ctx, e, Type::Bool),
        Stmt::Alloc { lhs } => {
            let t = ctx.var_type(lhs)?;
            if t != Type::Loc {
                return ctx.err(format!("allocation target '{}' must be Loc", lhs));
            }
            Ok(())
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expect_type(ctx, cond, Type::Bool)?;
            check_block(ctx, then_branch)?;
            check_block(ctx, else_branch)
        }
        Stmt::While {
            cond,
            invariants,
            decreases,
            body,
        } => {
            expect_type(ctx, cond, Type::Bool)?;
            for inv in invariants {
                expect_type(ctx, inv, Type::Bool)?;
            }
            if let Some(d) = decreases {
                infer(ctx, d)?;
            }
            check_block(ctx, body)
        }
        Stmt::Call { lhs, proc, args } => {
            let callee = match ctx.program.procedure(proc) {
                Some(p) => p.clone(),
                None => return ctx.err(format!("call to unknown procedure '{}'", proc)),
            };
            if callee.params.len() != args.len() {
                return ctx.err(format!(
                    "procedure '{}' expects {} arguments, got {}",
                    proc,
                    callee.params.len(),
                    args.len()
                ));
            }
            for (param, arg) in callee.params.iter().zip(args.iter()) {
                let at = infer_as(ctx, arg, param.ty)?;
                if !compatible(param.ty, at) {
                    return ctx.err(format!(
                        "argument for '{}' of '{}' has type {}, expected {}",
                        param.name, proc, at, param.ty
                    ));
                }
            }
            if lhs.len() > callee.returns.len() {
                return ctx.err(format!(
                    "procedure '{}' returns {} values, {} targets given",
                    proc,
                    callee.returns.len(),
                    lhs.len()
                ));
            }
            for (target, ret) in lhs.iter().zip(callee.returns.iter()) {
                let tt = ctx.var_type(target)?;
                if !compatible(tt, ret.ty) {
                    return ctx.err(format!(
                        "call target '{}' has type {}, procedure returns {}",
                        target, tt, ret.ty
                    ));
                }
            }
            Ok(())
        }
        Stmt::Return => Ok(()),
        Stmt::Macro { name, args } => {
            // Macro statements are checked structurally here; their expansion
            // is validated by ids-core. `Mut(x, f, v)` additionally checks the
            // field reference.
            match name.as_str() {
                "Mut" => {
                    if args.len() != 3 {
                        return ctx.err("Mut expects (object, field, value)");
                    }
                    expect_type(ctx, &args[0], Type::Loc)?;
                    let field = match &args[1] {
                        Expr::Var(f) => f.clone(),
                        _ => return ctx.err("second argument of Mut must be a field name"),
                    };
                    let fty = match ctx.program.field(&field) {
                        Some(f) => f.ty,
                        None => return ctx.err(format!("unknown field '{}' in Mut", field)),
                    };
                    let vt = infer_as(ctx, &args[2], fty)?;
                    if !compatible(fty, vt) {
                        return ctx.err(format!(
                            "Mut value has type {}, field '{}' has type {}",
                            vt, field, fty
                        ));
                    }
                    Ok(())
                }
                "NewObj" => {
                    if args.len() != 1 {
                        return ctx.err("NewObj expects (variable)");
                    }
                    expect_type(ctx, &args[0], Type::Loc)
                }
                "AssertLCAndRemove" | "InferLCOutsideBr" => {
                    if args.len() != 1 && args.len() != 2 {
                        return ctx
                            .err(format!("{} expects (object) or (object, brokenset)", name));
                    }
                    expect_type(ctx, &args[0], Type::Loc)
                }
                _ => {
                    for a in args {
                        infer(ctx, a)?;
                    }
                    Ok(())
                }
            }
        }
    }
}

fn expect_type(ctx: &mut Ctx<'_>, e: &Expr, expected: Type) -> Result<(), TypeError> {
    let t = infer_as(ctx, e, expected)?;
    if compatible(expected, t) {
        Ok(())
    } else {
        ctx.err(format!("expected {}, found {}", expected, t))
    }
}

/// The type of `e` where a value of type `expected` is wanted: the
/// polymorphic empty set `{}` takes any set type, every other expression
/// its inferred type.
fn infer_as(ctx: &mut Ctx<'_>, e: &Expr, expected: Type) -> Result<Type, TypeError> {
    match e {
        Expr::EmptySet(_) if expected.is_set() => Ok(expected),
        _ => infer(ctx, e),
    }
}

/// Type compatibility: exact match or the Int-as-Real coercion. (The
/// polymorphic empty set is handled structurally, in `infer_as` and
/// `infer`, where the expression — not just its type — is visible.)
fn compatible(expected: Type, found: Type) -> bool {
    expected == found || (expected == Type::Real && found == Type::Int)
}

fn join_numeric(a: Type, b: Type) -> Option<Type> {
    match (a, b) {
        (Type::Int, Type::Int) => Some(Type::Int),
        (Type::Real, Type::Int) | (Type::Int, Type::Real) | (Type::Real, Type::Real) => {
            Some(Type::Real)
        }
        _ => None,
    }
}

fn infer(ctx: &mut Ctx<'_>, e: &Expr) -> Result<Type, TypeError> {
    match e {
        Expr::BoolLit(_) => Ok(Type::Bool),
        Expr::IntLit(_) => Ok(Type::Int),
        Expr::RealLit(_, _) => Ok(Type::Real),
        Expr::Nil => Ok(Type::Loc),
        Expr::EmptySet(t) => Ok(*t),
        Expr::Var(v) => ctx.var_type(v),
        Expr::Field(obj, field) => {
            let ot = infer(ctx, obj)?;
            if ot != Type::Loc {
                return ctx.err(format!(
                    "field access '.{}' on non-location of type {}",
                    field, ot
                ));
            }
            match ctx.program.field(field) {
                Some(f) => Ok(f.ty),
                None => ctx.err(format!("unknown field '{}'", field)),
            }
        }
        Expr::Old(inner) => infer(ctx, inner),
        Expr::Unary(UnOp::Not, inner) => {
            expect_type(ctx, inner, Type::Bool)?;
            Ok(Type::Bool)
        }
        Expr::Unary(UnOp::Neg, inner) => {
            let t = infer(ctx, inner)?;
            join_numeric(t, Type::Int)
                .ok_or(())
                .or_else(|_| ctx.err("negation of non-numeric value"))
        }
        Expr::Binary(op, a, b) => {
            let ta = infer(ctx, a)?;
            let tb = infer(ctx, b)?;
            match op {
                BinOp::Add | BinOp::Sub => join_numeric(ta, tb)
                    .ok_or(())
                    .or_else(|_| ctx.err("arithmetic on non-numeric values")),
                BinOp::Div => {
                    if !matches!(ta, Type::Int | Type::Real) {
                        return ctx.err("division on non-numeric value");
                    }
                    if !matches!(**b, Expr::IntLit(_)) {
                        return ctx.err("division is only supported by an integer literal");
                    }
                    Ok(Type::Real)
                }
                BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff => {
                    if ta != Type::Bool || tb != Type::Bool {
                        return ctx.err("boolean connective on non-boolean values");
                    }
                    Ok(Type::Bool)
                }
                BinOp::Eq | BinOp::Ne => {
                    let ok = compatible(ta, tb)
                        || compatible(tb, ta)
                        || join_numeric(ta, tb).is_some()
                        || (ta.is_set() && tb.is_set());
                    if !ok {
                        return ctx.err(format!("cannot compare {} with {}", ta, tb));
                    }
                    Ok(Type::Bool)
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    if join_numeric(ta, tb).is_none() {
                        return ctx.err("comparison on non-numeric values");
                    }
                    Ok(Type::Bool)
                }
                BinOp::Union | BinOp::Inter | BinOp::Diff => {
                    if !ta.is_set() || !tb.is_set() {
                        return ctx.err("set operation on non-set values");
                    }
                    // The polymorphic empty set adapts to the other side.
                    Ok(if ta == tb {
                        ta
                    } else if matches!(**a, Expr::EmptySet(_)) {
                        tb
                    } else {
                        ta
                    })
                }
                BinOp::Member => {
                    if !tb.is_set() {
                        return ctx.err("'in' requires a set on the right");
                    }
                    let elem = tb.elem().unwrap();
                    // The polymorphic `{}` holds elements of either type.
                    let any_elem =
                        matches!(**b, Expr::EmptySet(_)) && matches!(ta, Type::Int | Type::Loc);
                    if !compatible(elem, ta) && !any_elem {
                        return ctx.err(format!("member of type {} in {}", ta, tb));
                    }
                    Ok(Type::Bool)
                }
                BinOp::Subset => {
                    if !ta.is_set() || !tb.is_set() {
                        return ctx.err("'subset' requires sets");
                    }
                    Ok(Type::Bool)
                }
            }
        }
        Expr::Ite(c, t, f) => {
            expect_type(ctx, c, Type::Bool)?;
            let tt = infer(ctx, t)?;
            let tf = infer(ctx, f)?;
            // The polymorphic `{}` takes the other branch's set type.
            let (tt, tf) = match (&**t, &**f) {
                (Expr::EmptySet(_), _) if tf.is_set() => (tf, tf),
                (_, Expr::EmptySet(_)) if tt.is_set() => (tt, tt),
                _ => (tt, tf),
            };
            if compatible(tt, tf) {
                Ok(tt)
            } else if compatible(tf, tt) {
                Ok(tf)
            } else if let Some(j) = join_numeric(tt, tf) {
                Ok(j)
            } else {
                ctx.err(format!("ite branches have types {} and {}", tt, tf))
            }
        }
        Expr::Singleton(inner) => {
            let t = infer(ctx, inner)?;
            match t {
                Type::Loc => Ok(Type::SetLoc),
                Type::Int => Ok(Type::SetInt),
                other => ctx.err(format!("cannot form a set of {}", other)),
            }
        }
        Expr::App(_, args) => {
            for a in args {
                infer(ctx, a)?;
            }
            Ok(Type::Bool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<(), TypeError> {
        check_program(&parse_program(src).unwrap())
    }

    #[test]
    fn well_typed_program() {
        let src = r#"
            field next: Loc;
            field key: Int;
            field ghost keys: Set<Int>;
            field ghost hslist: Set<Loc>;

            procedure insert(x: Loc, k: Int) returns (r: Loc)
              requires x != nil && k in x.keys;
              ensures r.keys == union(old(x.keys), {k});
              modifies x.hslist;
            {
              var y: Loc;
              y := x.next;
              Mut(x, key, k);
              if (y == nil) { r := x; } else { r := y; }
            }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn unknown_variable_rejected() {
        let src = r#"
            field next: Loc;
            procedure p(x: Loc) { y := x; }
        "#;
        let err = check(src).unwrap_err();
        assert!(err.message.contains("unknown variable"));
    }

    #[test]
    fn unknown_field_rejected() {
        let src = r#"
            field next: Loc;
            procedure p(x: Loc) returns (y: Loc) { y := x.prev; }
        "#;
        assert!(check(src).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let src = r#"
            field key: Int;
            procedure p(x: Loc) returns (y: Loc) { y := x.key; }
        "#;
        assert!(check(src).is_err());
    }

    #[test]
    fn br_is_implicitly_scoped() {
        let src = r#"
            field next: Loc;
            procedure p(x: Loc)
              requires Br == {};
              ensures Br == {};
            {
            }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn bad_call_arity_rejected() {
        let src = r#"
            field next: Loc;
            procedure callee(a: Loc, b: Int) returns (c: Loc);
            procedure caller(x: Loc) returns (y: Loc) {
              call y := callee(x);
            }
        "#;
        assert!(check(src).is_err());
    }

    #[test]
    fn mut_macro_checks_field_type() {
        let src = r#"
            field key: Int;
            procedure p(x: Loc, y: Loc) { Mut(x, key, y); }
        "#;
        assert!(check(src).is_err());
        let ok = r#"
            field key: Int;
            procedure p(x: Loc, k: Int) { Mut(x, key, k); }
        "#;
        assert!(check(ok).is_ok());
    }

    #[test]
    fn int_coerces_to_real() {
        let src = r#"
            field ghost rank: Real;
            procedure p(x: Loc, y: Loc) {
              Mut(x, rank, (x.rank + y.rank) / 2);
              Mut(y, rank, x.rank + 1);
            }
        "#;
        assert!(check(src).is_ok());
    }
}
