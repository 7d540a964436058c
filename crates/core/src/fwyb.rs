//! Expansion of the fix-what-you-break macro statements and of local-condition
//! applications.
//!
//! The verification engineer writes benchmark methods against four macro
//! statements (§4.1 of the paper); this module turns them into plain IVL so
//! that `ids-vcgen` can generate verification conditions:
//!
//! * `Mut(x, f, v)` — adds the impact set of `f` at `x` to the broken set(s),
//!   then performs `x.f := v`. Impact terms are evaluated in the pre-mutation
//!   state (the broken-set updates are emitted *before* the store, which is
//!   equivalent because the broken set does not live in the heap) and are
//!   added only when non-nil.
//! * `NewObj(x)` — `x := new();` followed by adding `x` to the broken set(s).
//! * `AssertLCAndRemove(x)` — if `x != nil`: assert `LC(x)` and remove `x`
//!   from the broken set. (`AssertLCAndRemove2` uses `LC2`/`Br2`.)
//! * `InferLCOutsideBr(x)` — assert `x != nil && !(x in Br)`, then assume
//!   `LC(x)`. (`InferLCOutsideBr2` uses `LC2`/`Br2`.)
//!
//! In addition, applications `LC(e)`, `LC2(e)` and `Phi(e, …)` occurring in
//! contracts, invariants, asserts and assumes are replaced by the instantiated
//! local condition / correlation formula of the active intrinsic definition.

use ids_ivl::{BinOp, Block, Expr, Lhs, Procedure, Program, Stmt, Type};

use crate::ids::IntrinsicDefinition;

/// Errors during macro expansion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExpandError {
    /// A macro was called with the wrong shape of arguments.
    BadMacro(String),
    /// An unknown macro statement was encountered.
    UnknownMacro(String),
    /// `LC2`/`Br2` was used but the definition has no secondary condition.
    NoSecondary(String),
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandError::BadMacro(m) => write!(f, "malformed macro use: {}", m),
            ExpandError::UnknownMacro(m) => write!(f, "unknown macro '{}'", m),
            ExpandError::NoSecondary(m) => {
                write!(f, "'{}' used without a secondary local condition", m)
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// Expands every procedure of the program against the intrinsic definition,
/// returning a macro-free program (prelude fields merged in).
pub fn expand_program(
    ids: &IntrinsicDefinition,
    methods: &Program,
) -> Result<Program, ExpandError> {
    let mut out = ids.prelude();
    // Keep any extra fields the method file declares (rare, but allowed).
    for f in &methods.fields {
        if out.field(&f.name).is_none() {
            out.fields.push(f.clone());
        }
    }
    for proc in &methods.procedures {
        out.procedures.push(expand_procedure(ids, proc)?);
    }
    Ok(out)
}

/// Expands one procedure.
pub fn expand_procedure(
    ids: &IntrinsicDefinition,
    proc: &Procedure,
) -> Result<Procedure, ExpandError> {
    let expand_all = |es: &[Expr]| es.iter().map(|e| expand_expr(ids, e)).collect();
    Ok(Procedure {
        name: proc.name.clone(),
        params: proc.params.clone(),
        returns: proc.returns.clone(),
        requires: expand_all(&proc.requires),
        ensures: expand_all(&proc.ensures),
        modifies: proc.modifies.as_ref().map(|e| expand_expr(ids, e)),
        decreases: proc.decreases.clone(),
        body: proc
            .body
            .as_ref()
            .map(|b| expand_block(ids, b))
            .transpose()?,
    })
}

fn expand_block(ids: &IntrinsicDefinition, block: &Block) -> Result<Block, ExpandError> {
    let mut stmts = Vec::new();
    for s in &block.stmts {
        stmts.extend(expand_stmt(ids, s)?);
    }
    Ok(Block { stmts })
}

/// Expands `LC(e)`, `LC2(e)` and `Phi(e, …)` applications inside an expression.
pub fn expand_expr(ids: &IntrinsicDefinition, e: &Expr) -> Expr {
    match e {
        Expr::App(name, args) if name == "LC" && args.len() == 1 => {
            let target = expand_expr(ids, &args[0]);
            ids.lc_at(&target)
        }
        Expr::App(name, args) if name == "LC2" && args.len() == 1 => {
            let target = expand_expr(ids, &args[0]);
            ids.lc2_at(&target).unwrap_or(Expr::BoolLit(true))
        }
        Expr::App(name, args) if name == "Phi" => {
            let targets: Vec<Expr> = args.iter().map(|a| expand_expr(ids, a)).collect();
            ids.correlation_at(&targets)
        }
        Expr::Field(obj, f) => Expr::Field(Box::new(expand_expr(ids, obj)), f.clone()),
        Expr::Old(inner) => Expr::Old(Box::new(expand_expr(ids, inner))),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(expand_expr(ids, inner))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(expand_expr(ids, a)),
            Box::new(expand_expr(ids, b)),
        ),
        Expr::Ite(c, t, f) => Expr::Ite(
            Box::new(expand_expr(ids, c)),
            Box::new(expand_expr(ids, t)),
            Box::new(expand_expr(ids, f)),
        ),
        Expr::Singleton(inner) => Expr::Singleton(Box::new(expand_expr(ids, inner))),
        Expr::App(name, args) => Expr::App(
            name.clone(),
            args.iter().map(|a| expand_expr(ids, a)).collect(),
        ),
        _ => e.clone(),
    }
}

/// Strips `old(..)` markers from an impact-set term, in place: the
/// broken-set update is emitted before the mutation, so pre-state values are
/// read directly.
fn strip_old(e: &mut Expr) {
    match e {
        Expr::Old(inner) => {
            strip_old(inner);
            let inner = std::mem::replace(&mut **inner, Expr::Nil);
            *e = inner;
        }
        Expr::Field(a, _) | Expr::Unary(_, a) => strip_old(a),
        Expr::Binary(_, a, b) => {
            strip_old(a);
            strip_old(b);
        }
        _ => {}
    }
}

/// `Br := union(Br, ite(t == nil, {}, {t}))` for one impact term.
fn add_to_broken(br: &str, term: Expr) -> Stmt {
    let guarded = Expr::Ite(
        Box::new(Expr::bin(BinOp::Eq, term.clone(), Expr::Nil)),
        Box::new(Expr::EmptySet(Type::SetLoc)),
        Box::new(Expr::Singleton(Box::new(term))),
    );
    Stmt::Assign {
        lhs: Lhs::Var(br.to_string()),
        rhs: Expr::bin(BinOp::Union, Expr::var(br), guarded),
    }
}

/// `Br := diff(Br, {t})`.
fn remove_from_broken(br: &str, term: &Expr) -> Stmt {
    Stmt::Assign {
        lhs: Lhs::Var(br.to_string()),
        rhs: Expr::bin(
            BinOp::Diff,
            Expr::var(br),
            Expr::Singleton(Box::new(term.clone())),
        ),
    }
}

fn expand_stmt(ids: &IntrinsicDefinition, stmt: &Stmt) -> Result<Vec<Stmt>, ExpandError> {
    match stmt {
        Stmt::Macro { name, args } => expand_macro(ids, name, args),
        Stmt::Assert(e) => Ok(vec![Stmt::Assert(expand_expr(ids, e))]),
        Stmt::Assume(e) => Ok(vec![Stmt::Assume(expand_expr(ids, e))]),
        Stmt::Assign { lhs, rhs } => Ok(vec![Stmt::Assign {
            lhs: lhs.clone(),
            rhs: expand_expr(ids, rhs),
        }]),
        Stmt::VarDecl {
            name,
            ty,
            ghost,
            init,
        } => Ok(vec![Stmt::VarDecl {
            name: name.clone(),
            ty: *ty,
            ghost: *ghost,
            init: init.as_ref().map(|e| expand_expr(ids, e)),
        }]),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Ok(vec![Stmt::If {
            cond: expand_expr(ids, cond),
            then_branch: expand_block(ids, then_branch)?,
            else_branch: expand_block(ids, else_branch)?,
        }]),
        Stmt::While {
            cond,
            invariants,
            decreases,
            body,
        } => Ok(vec![Stmt::While {
            cond: expand_expr(ids, cond),
            invariants: invariants.iter().map(|e| expand_expr(ids, e)).collect(),
            decreases: decreases.as_ref().map(|e| expand_expr(ids, e)),
            body: expand_block(ids, body)?,
        }]),
        Stmt::Call { lhs, proc, args } => Ok(vec![Stmt::Call {
            lhs: lhs.clone(),
            proc: proc.clone(),
            args: args.iter().map(|e| expand_expr(ids, e)).collect(),
        }]),
        other => Ok(vec![other.clone()]),
    }
}

fn expand_macro(
    ids: &IntrinsicDefinition,
    name: &str,
    args: &[Expr],
) -> Result<Vec<Stmt>, ExpandError> {
    match name {
        "Mut" => {
            if args.len() != 3 {
                return Err(ExpandError::BadMacro("Mut(object, field, value)".into()));
            }
            let obj = expand_expr(ids, &args[0]);
            let obj_var = match &obj {
                Expr::Var(v) => v.clone(),
                _ => {
                    return Err(ExpandError::BadMacro(
                        "Mut target must be a variable".into(),
                    ))
                }
            };
            let field = match &args[1] {
                Expr::Var(f) => f.clone(),
                _ => {
                    return Err(ExpandError::BadMacro(
                        "Mut field must be a field name".into(),
                    ))
                }
            };
            let value = expand_expr(ids, &args[2]);
            let mut stmts = Vec::new();
            for mut term in ids.impact_at(&field, &obj) {
                strip_old(&mut term);
                stmts.push(add_to_broken("Br", term));
            }
            if ids.secondary.is_some() {
                for mut term in ids.impact2_at(&field, &obj) {
                    strip_old(&mut term);
                    stmts.push(add_to_broken("Br2", term));
                }
            }
            stmts.push(Stmt::Assign {
                lhs: Lhs::Field(obj_var, field),
                rhs: value,
            });
            Ok(stmts)
        }
        "NewObj" => {
            if args.len() != 1 {
                return Err(ExpandError::BadMacro("NewObj(variable)".into()));
            }
            let var = match &args[0] {
                Expr::Var(v) => v.clone(),
                _ => {
                    return Err(ExpandError::BadMacro(
                        "NewObj target must be a variable".into(),
                    ))
                }
            };
            let mut stmts = vec![Stmt::Alloc { lhs: var.clone() }];
            stmts.push(add_to_broken("Br", Expr::var(&var)));
            if ids.secondary.is_some() {
                stmts.push(add_to_broken("Br2", Expr::var(&var)));
            }
            Ok(stmts)
        }
        "AssertLCAndRemove" | "AssertLCAndRemove2" => {
            if args.len() != 1 {
                return Err(ExpandError::BadMacro(format!("{}(object)", name)));
            }
            let secondary = name.ends_with('2');
            let target = expand_expr(ids, &args[0]);
            let lc = if secondary {
                ids.lc2_at(&target)
                    .ok_or_else(|| ExpandError::NoSecondary(name.to_string()))?
            } else {
                ids.lc_at(&target)
            };
            let br = if secondary { "Br2" } else { "Br" };
            let body = Block {
                stmts: vec![Stmt::Assert(lc), remove_from_broken(br, &target)],
            };
            Ok(vec![Stmt::If {
                cond: Expr::bin(BinOp::Ne, target, Expr::Nil),
                then_branch: body,
                else_branch: Block::default(),
            }])
        }
        "InferLCOutsideBr" | "InferLCOutsideBr2" => {
            if args.len() != 1 {
                return Err(ExpandError::BadMacro(format!("{}(object)", name)));
            }
            let secondary = name.ends_with('2');
            let target = expand_expr(ids, &args[0]);
            let lc = if secondary {
                ids.lc2_at(&target)
                    .ok_or_else(|| ExpandError::NoSecondary(name.to_string()))?
            } else {
                ids.lc_at(&target)
            };
            let br = if secondary { "Br2" } else { "Br" };
            let not_nil = Expr::bin(BinOp::Ne, target.clone(), Expr::Nil);
            let not_in_br = Expr::Unary(
                ids_ivl::UnOp::Not,
                Box::new(Expr::bin(BinOp::Member, target, Expr::var(br))),
            );
            Ok(vec![
                Stmt::Assert(Expr::bin(BinOp::And, not_nil, not_in_br)),
                Stmt::Assume(lc),
            ])
        }
        other => Err(ExpandError::UnknownMacro(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_program;

    fn simple_ids() -> IntrinsicDefinition {
        IntrinsicDefinition::parse(
            "list",
            "field next: Loc;\nfield ghost length: Int;",
            "x.next != nil ==> x.length == x.next.length + 1",
            "y",
            "true",
            &[("next", &["x", "old(x.next)"]), ("length", &["x"])],
        )
        .unwrap()
    }

    #[test]
    fn mut_expands_to_broken_set_updates() {
        let ids = simple_ids();
        let program = parse_program(
            r#"
            procedure m(a: Loc, b: Loc) {
              Mut(a, next, b);
            }
            "#,
        )
        .unwrap();
        let expanded = expand_program(&ids, &program).unwrap();
        let body = expanded.procedure("m").unwrap().body.clone().unwrap();
        // Two impact terms + the store itself.
        assert_eq!(body.stmts.len(), 3);
        assert!(
            matches!(&body.stmts[2], Stmt::Assign { lhs: Lhs::Field(o, f), .. } if o == "a" && f == "next")
        );
        // No macros remain.
        assert!(!format!("{:?}", body).contains("Macro"));
    }

    #[test]
    fn lc_applications_are_substituted() {
        let ids = simple_ids();
        let program = parse_program(
            r#"
            procedure m(a: Loc)
              requires LC(a);
              ensures LC(a.next);
            {
              assert LC(a);
            }
            "#,
        )
        .unwrap();
        let expanded = expand_program(&ids, &program).unwrap();
        let proc = expanded.procedure("m").unwrap();
        let req = ids_ivl::printer::expr_to_string(&proc.requires[0]);
        assert!(req.contains("a.length"));
        let ens = ids_ivl::printer::expr_to_string(&proc.ensures[0]);
        assert!(ens.contains("a.next.length"));
    }

    #[test]
    fn assert_lc_and_remove_is_nil_guarded() {
        let ids = simple_ids();
        let program = parse_program(
            r#"
            procedure m(a: Loc) {
              AssertLCAndRemove(a);
            }
            "#,
        )
        .unwrap();
        let expanded = expand_program(&ids, &program).unwrap();
        let body = expanded.procedure("m").unwrap().body.clone().unwrap();
        assert!(matches!(&body.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn unknown_macro_is_rejected() {
        let ids = simple_ids();
        let program = parse_program("procedure m(a: Loc) { Frobnicate(a); }").unwrap();
        assert!(matches!(
            expand_program(&ids, &program),
            Err(ExpandError::UnknownMacro(_))
        ));
    }

    #[test]
    fn secondary_macros_require_secondary_condition() {
        let ids = simple_ids();
        let program = parse_program("procedure m(a: Loc) { AssertLCAndRemove2(a); }").unwrap();
        assert!(matches!(
            expand_program(&ids, &program),
            Err(ExpandError::NoSecondary(_))
        ));
    }
}
