//! The fix-what-you-break macro statements and the local-condition
//! applications, as VC generation instantiates them.
//!
//! The verification engineer writes benchmark methods against four macro
//! statements (§4.1 of the paper). [`IntrinsicDefinition`] implements
//! [`Definitions`], the hook through which `ids-vcgen` reads them: VC
//! generation expands each macro statement into a few plain statements when
//! it reaches it ([`Definitions::expand_macro`]):
//!
//! * `Mut(x, f, v)` — adds the impact set of `f` at `x` to the broken set(s),
//!   then performs `x.f := v`. Impact terms are evaluated in the pre-mutation
//!   state (the broken-set updates come *before* the store, with `old(..)`
//!   stripped, which is equivalent because the broken set does not live in
//!   the heap) and are added only when non-nil.
//! * `NewObj(x)` — `x := new();` followed by adding `x` to the broken set(s).
//! * `AssertLCAndRemove(x)` — if `x != nil`: assert `LC(x)` and remove `x`
//!   from the broken set. (`AssertLCAndRemove2` uses `LC2`/`Br2`.)
//! * `InferLCOutsideBr(x)` — assert `x != nil && !(x in Br)`, then assume
//!   `LC(x)`. (`InferLCOutsideBr2` uses `LC2`/`Br2`.)
//!
//! The applications `LC(e)`, `LC2(e)` and `Phi(e, …)` — in contracts,
//! invariants, asserts, assumes and the expansions above — stand for the
//! definition's local conditions and correlation formula. VC generation and
//! its description printer instantiate them where they meet them, walking
//! the one shared body with the parameter bound to the argument expression
//! ([`ids_ivl::instance`]); no substituted copy is built. `LC2(e)`
//! reads `true` for a definition without a secondary condition.
//!
//! [`check_program`] checks every macro use of a program before VC
//! generation, so that a malformed one is reported for the whole structure.

use std::sync::LazyLock;

use ids_ivl::{BinOp, Block, Definition, Definitions, Expr, Lhs, Program, Stmt, Type, UnOp};

use crate::ids::IntrinsicDefinition;

/// Errors in a macro statement.
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

impl Definitions for IntrinsicDefinition {
    fn definition(&self, name: &str, arity: usize) -> Option<Definition<'_>> {
        /// `LC` and `LC2` are written over `x`.
        static LC_PARAMS: LazyLock<[String; 1]> = LazyLock::new(|| ["x".to_string()]);
        static TRUE: Expr = Expr::BoolLit(true);
        let lc = |body| {
            Some(Definition {
                params: &*LC_PARAMS,
                body,
            })
        };
        match name {
            "LC" if arity == 1 => lc(&self.local_condition),
            "LC2" if arity == 1 => lc(self
                .secondary
                .as_ref()
                .map_or(&TRUE, |s| &s.local_condition)),
            "Phi" => Some(Definition {
                params: &self.correlation_params,
                body: &self.correlation,
            }),
            _ => None,
        }
    }

    fn expand_macro(&self, name: &str, args: &[Expr]) -> Option<Vec<Stmt>> {
        expand_macro(self, name, args).ok()
    }
}

/// Checks every macro statement of the program's procedures against the
/// definition, in program order: the first malformed one is the error.
pub fn check_program(ids: &IntrinsicDefinition, program: &Program) -> Result<(), ExpandError> {
    program
        .procedures
        .iter()
        .filter_map(|p| p.body.as_ref())
        .try_for_each(|body| check_block(ids, &body.stmts))
}

fn check_block(ids: &IntrinsicDefinition, stmts: &[Stmt]) -> Result<(), ExpandError> {
    for s in stmts {
        match s {
            Stmt::Macro { name, args } => {
                parse_macro(ids, name, args)?;
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                check_block(ids, &then_branch.stmts)?;
                check_block(ids, &else_branch.stmts)?;
            }
            Stmt::While { body, .. } => check_block(ids, &body.stmts)?,
            _ => {}
        }
    }
    Ok(())
}

/// The plain statements of one macro statement, with `LC`/`LC2` left as
/// applications.
fn expand_macro(
    ids: &IntrinsicDefinition,
    name: &str,
    args: &[Expr],
) -> Result<Vec<Stmt>, ExpandError> {
    Ok(parse_macro(ids, name, args)?.statements(ids))
}

/// One well-formed macro use, borrowing its arguments.
enum Macro<'e> {
    Mut {
        obj: &'e str,
        field: &'e str,
        value: &'e Expr,
    },
    NewObj(&'e str),
    /// `AssertLCAndRemove`, or with `secondary` `AssertLCAndRemove2`.
    AssertLCAndRemove {
        target: &'e Expr,
        secondary: bool,
    },
    /// `InferLCOutsideBr`, or with `secondary` `InferLCOutsideBr2`.
    InferLCOutsideBr {
        target: &'e Expr,
        secondary: bool,
    },
}

fn parse_macro<'e>(
    ids: &IntrinsicDefinition,
    name: &str,
    args: &'e [Expr],
) -> Result<Macro<'e>, ExpandError> {
    let bad = |m: &str| Err(ExpandError::BadMacro(m.to_string()));
    let var = |e: &'e Expr| match e {
        Expr::Var(v) => Some(v.as_str()),
        _ => None,
    };
    match name {
        "Mut" => {
            let [obj, field, value] = args else {
                return bad("Mut(object, field, value)");
            };
            let Some(obj) = var(obj) else {
                return bad("Mut target must be a variable");
            };
            let Some(field) = var(field) else {
                return bad("Mut field must be a field name");
            };
            Ok(Macro::Mut { obj, field, value })
        }
        "NewObj" => match args {
            [target] => var(target).map_or_else(
                || bad("NewObj target must be a variable"),
                |v| Ok(Macro::NewObj(v)),
            ),
            _ => bad("NewObj(variable)"),
        },
        "AssertLCAndRemove" | "AssertLCAndRemove2" | "InferLCOutsideBr" | "InferLCOutsideBr2" => {
            let [target] = args else {
                return bad(&format!("{}(object)", name));
            };
            let secondary = name.ends_with('2');
            if secondary && ids.secondary.is_none() {
                return Err(ExpandError::NoSecondary(name.to_string()));
            }
            Ok(if name.starts_with("Assert") {
                Macro::AssertLCAndRemove { target, secondary }
            } else {
                Macro::InferLCOutsideBr { target, secondary }
            })
        }
        other => Err(ExpandError::UnknownMacro(other.to_string())),
    }
}

impl Macro<'_> {
    fn statements(&self, ids: &IntrinsicDefinition) -> Vec<Stmt> {
        match *self {
            Macro::Mut { obj, field, value } => {
                let target = Expr::var(obj);
                let impact = ids.impact_at(field, &target).into_iter().map(|t| ("Br", t));
                let impact2 = ids
                    .impact2_at(field, &target)
                    .into_iter()
                    .map(|t| ("Br2", t));
                let mut stmts: Vec<Stmt> = impact
                    .chain(impact2)
                    .map(|(br, mut term)| {
                        strip_old(&mut term);
                        add_to_broken(br, term)
                    })
                    .collect();
                stmts.push(Stmt::Assign {
                    lhs: Lhs::Field(obj.to_string(), field.to_string()),
                    rhs: value.clone(),
                });
                stmts
            }
            Macro::NewObj(var) => {
                let mut stmts = vec![
                    Stmt::Alloc {
                        lhs: var.to_string(),
                    },
                    add_to_broken("Br", Expr::var(var)),
                ];
                if ids.secondary.is_some() {
                    stmts.push(add_to_broken("Br2", Expr::var(var)));
                }
                stmts
            }
            Macro::AssertLCAndRemove { target, secondary } => {
                let (lc, br) = condition(secondary);
                let body = Block {
                    stmts: vec![
                        Stmt::Assert(Expr::App(lc.to_string(), vec![target.clone()])),
                        remove_from_broken(br, target),
                    ],
                };
                vec![Stmt::If {
                    cond: Expr::bin(BinOp::Ne, target.clone(), Expr::Nil),
                    then_branch: body,
                    else_branch: Block::default(),
                }]
            }
            Macro::InferLCOutsideBr { target, secondary } => {
                let (lc, br) = condition(secondary);
                let not_nil = Expr::bin(BinOp::Ne, target.clone(), Expr::Nil);
                let not_in_br = Expr::Unary(
                    UnOp::Not,
                    Box::new(Expr::bin(BinOp::Member, target.clone(), Expr::var(br))),
                );
                vec![
                    Stmt::Assert(Expr::bin(BinOp::And, not_nil, not_in_br)),
                    Stmt::Assume(Expr::App(lc.to_string(), vec![target.clone()])),
                ]
            }
        }
    }
}

/// The local condition and broken set a macro works on: `LC`/`Br`, or for
/// the `2` variants `LC2`/`Br2`.
fn condition(secondary: bool) -> (&'static str, &'static str) {
    if secondary {
        ("LC2", "Br2")
    } else {
        ("LC", "Br")
    }
}

/// Strips `old(..)` markers from an impact-set term, in place: the
/// broken-set update comes before the mutation, so pre-state values are
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

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_program;
    use ids_ivl::printer::{expr_to_string, write_expr_in};

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

    fn args(src: &[&str]) -> Vec<Expr> {
        src.iter()
            .map(|a| ids_ivl::parse_expr(a).unwrap())
            .collect()
    }

    #[test]
    fn mut_expands_to_broken_set_updates() {
        let ids = simple_ids();
        let stmts = expand_macro(&ids, "Mut", &args(&["a", "next", "b"])).unwrap();
        // Two impact terms + the store itself.
        assert_eq!(stmts.len(), 3);
        assert!(
            matches!(&stmts[2], Stmt::Assign { lhs: Lhs::Field(o, f), .. } if o == "a" && f == "next")
        );
        // `old(a.next)` is read before the store, so without `old`.
        let Stmt::Assign { rhs, .. } = &stmts[1] else {
            panic!("{:?}", stmts[1]);
        };
        assert_eq!(
            expr_to_string(rhs),
            "union(Br, ite((a.next == nil), {}, {a.next}))"
        );
        // No macros remain.
        assert!(!format!("{:?}", stmts).contains("Macro"));
    }

    #[test]
    fn lc_applications_are_substituted() {
        let ids = simple_ids();
        let print = |src: &str| {
            let mut out = String::new();
            write_expr_in(&mut out, &ids_ivl::parse_expr(src).unwrap(), &ids);
            out
        };
        assert!(print("LC(a)").contains("a.length"));
        assert!(print("LC(a.next)").contains("a.next.length"));
        // Without a secondary condition `LC2` reads `true`.
        assert_eq!(print("LC2(a) && Phi(a)"), "(true && true)");
    }

    #[test]
    fn assert_lc_and_remove_is_nil_guarded() {
        let ids = simple_ids();
        let stmts = expand_macro(&ids, "AssertLCAndRemove", &args(&["a"])).unwrap();
        assert!(matches!(&stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn unknown_macro_is_rejected() {
        let ids = simple_ids();
        let program = parse_program("procedure m(a: Loc) { Frobnicate(a); }").unwrap();
        assert!(matches!(
            check_program(&ids, &program),
            Err(ExpandError::UnknownMacro(_))
        ));
    }

    #[test]
    fn secondary_macros_require_secondary_condition() {
        let ids = simple_ids();
        let program = parse_program("procedure m(a: Loc) { AssertLCAndRemove2(a); }").unwrap();
        assert!(matches!(
            check_program(&ids, &program),
            Err(ExpandError::NoSecondary(_))
        ));
    }

    #[test]
    fn a_macro_in_a_loop_is_havocked_like_its_expansion() {
        // The loop cut havocs what the body writes, so a macro in a loop
        // body must contribute exactly its expansion's targets: the written
        // program and the one with each macro of the loop replaced by its
        // statements generate the same terms and VCs.
        let ids = simple_ids();
        let mut written = ids.prelude();
        written.extend(
            parse_program(
                r#"
                procedure m(a: Loc, b: Loc, n: Int)
                  requires Br == {} && a != nil;
                {
                  var i: Int := 0;
                  var c: Loc;
                  while (i < n)
                    invariant i >= 0;
                  {
                    NewObj(c);
                    Mut(a, next, b);
                    AssertLCAndRemove(a);
                    i := i + 1;
                  }
                  assert Br == {};
                }
                "#,
            )
            .unwrap(),
        );
        let mut expanded = written.clone();
        let body = expanded.procedures[0].body.as_mut().unwrap();
        let Some(Stmt::While {
            body: loop_body, ..
        }) = body.stmts.get_mut(2)
        else {
            panic!("{:?}", body.stmts);
        };
        loop_body.stmts = std::mem::take(&mut loop_body.stmts)
            .into_iter()
            .flat_map(|s| match s {
                Stmt::Macro { name, args } => expand_macro(&ids, &name, &args).unwrap(),
                other => vec![other],
            })
            .collect();
        let generate = |program: &Program| {
            let mut tm = ids_smt::TermManager::new();
            let vcs = ids_vcgen::VcGen::with_definitions(program, &ids, Default::default())
                .method_vcs(&mut tm, "m")
                .unwrap();
            (tm, vcs)
        };
        let (tm_written, written_vcs) = generate(&written);
        let (tm_expanded, expanded_vcs) = generate(&expanded);
        assert_eq!(tm_written.len(), tm_expanded.len());
        for i in 0..tm_written.len() as u32 {
            let id = ids_smt::TermId(i);
            assert_eq!(tm_written.term(id), tm_expanded.term(id), "term {i}");
        }
        assert_eq!(written_vcs.hypotheses, expanded_vcs.hypotheses);
        let shape = |vcs: &ids_vcgen::MethodVcs| -> Vec<_> {
            vcs.vcs
                .iter()
                .map(|vc| (vc.description.clone(), vc.formula))
                .collect()
        };
        assert_eq!(shape(&written_vcs), shape(&expanded_vcs));
    }
}
