//! Ghost-code legality and the projection that erases ghost code
//! (Appendix A.2 / Definition 3.3 of the paper).
//!
//! Ghost state (ghost fields, ghost variables, the broken sets) may read user
//! state, but user state must never depend on ghost state, and ghost control
//! flow must not steer user code. Under these conditions the *projection*
//! that deletes all ghost code yields a user program with identical behaviour
//! on user state — which is what makes the FWYB soundness theorem transfer
//! verification results from the augmented program back to the original one.

use std::collections::HashSet;

use ids_ivl::{Block, Expr, Lhs, Procedure, Program, Stmt};

/// A violation of ghost-code legality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GhostViolation {
    /// The procedure in which the violation occurs.
    pub procedure: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for GhostViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.procedure, self.message)
    }
}

fn ghost_fields(program: &Program) -> HashSet<String> {
    program
        .fields
        .iter()
        .filter(|f| f.ghost)
        .map(|f| f.name.clone())
        .collect()
}

fn ghost_vars(proc: &Procedure) -> HashSet<String> {
    let mut set: HashSet<String> = proc
        .params
        .iter()
        .chain(proc.returns.iter())
        .filter(|p| p.ghost)
        .map(|p| p.name.clone())
        .collect();
    set.insert("Br".into());
    set.insert("Br2".into());
    if let Some(body) = &proc.body {
        collect_ghost_locals(body, &mut set);
    }
    set
}

fn collect_ghost_locals(block: &Block, out: &mut HashSet<String>) {
    for s in &block.stmts {
        match s {
            Stmt::VarDecl { name, ghost, .. } if *ghost => {
                out.insert(name.clone());
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_ghost_locals(then_branch, out);
                collect_ghost_locals(else_branch, out);
            }
            Stmt::While { body, .. } => collect_ghost_locals(body, out),
            _ => {}
        }
    }
}

fn mentions_ghost(e: &Expr, gvars: &HashSet<String>, gfields: &HashSet<String>) -> bool {
    match e {
        Expr::Var(v) => gvars.contains(v),
        Expr::Field(obj, f) => gfields.contains(f) || mentions_ghost(obj, gvars, gfields),
        Expr::Old(i) | Expr::Unary(_, i) | Expr::Singleton(i) => mentions_ghost(i, gvars, gfields),
        Expr::Binary(_, a, b) => {
            mentions_ghost(a, gvars, gfields) || mentions_ghost(b, gvars, gfields)
        }
        Expr::Ite(c, t, f) => {
            mentions_ghost(c, gvars, gfields)
                || mentions_ghost(t, gvars, gfields)
                || mentions_ghost(f, gvars, gfields)
        }
        Expr::App(_, args) => args.iter().any(|a| mentions_ghost(a, gvars, gfields)),
        _ => false,
    }
}

/// Checks ghost-code legality for the whole program as written.
pub fn check_ghost_legality(program: &Program) -> Vec<GhostViolation> {
    let gfields = ghost_fields(program);
    let mut out = Vec::new();
    for proc in &program.procedures {
        let gvars = ghost_vars(proc);
        if let Some(body) = &proc.body {
            check_block(proc, body, &gvars, &gfields, &mut out);
        }
    }
    out
}

fn violation(proc: &Procedure, message: impl Into<String>) -> GhostViolation {
    GhostViolation {
        procedure: proc.name.clone(),
        message: message.into(),
    }
}

fn block_has_user_code(block: &Block, gvars: &HashSet<String>, gfields: &HashSet<String>) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::Assign { lhs, .. } => match lhs {
            Lhs::Var(v) => !gvars.contains(v),
            Lhs::Field(_, f) => !gfields.contains(f),
        },
        Stmt::Alloc { .. } | Stmt::Call { .. } | Stmt::Return => true,
        Stmt::Macro { name, args } => match name.as_str() {
            "Mut" => matches!(&args[1], Expr::Var(f) if !gfields.contains(f)),
            "NewObj" => true,
            _ => false,
        },
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            block_has_user_code(then_branch, gvars, gfields)
                || block_has_user_code(else_branch, gvars, gfields)
        }
        Stmt::While { body, .. } => block_has_user_code(body, gvars, gfields),
        _ => false,
    })
}

fn check_block(
    proc: &Procedure,
    block: &Block,
    gvars: &HashSet<String>,
    gfields: &HashSet<String>,
    out: &mut Vec<GhostViolation>,
) {
    for s in &block.stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let lhs_ghost = match lhs {
                    Lhs::Var(v) => gvars.contains(v),
                    Lhs::Field(_, f) => gfields.contains(f),
                };
                if !lhs_ghost && mentions_ghost(rhs, gvars, gfields) {
                    out.push(violation(
                        proc,
                        "ghost state flows into a non-ghost assignment",
                    ));
                }
            }
            Stmt::VarDecl {
                name,
                ghost,
                init: Some(e),
                ..
            } if !*ghost && !gvars.contains(name) && mentions_ghost(e, gvars, gfields) => {
                out.push(violation(
                    proc,
                    "ghost state flows into a non-ghost variable initializer",
                ));
            }
            Stmt::Macro { name, args } if name == "Mut" && args.len() == 3 => {
                if let Expr::Var(f) = &args[1] {
                    if !gfields.contains(f) && mentions_ghost(&args[2], gvars, gfields) {
                        out.push(violation(
                            proc,
                            format!("ghost value written into user field '{}'", f),
                        ));
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if mentions_ghost(cond, gvars, gfields)
                    && (block_has_user_code(then_branch, gvars, gfields)
                        || block_has_user_code(else_branch, gvars, gfields))
                {
                    out.push(violation(proc, "ghost condition controls non-ghost code"));
                }
                check_block(proc, then_branch, gvars, gfields, out);
                check_block(proc, else_branch, gvars, gfields, out);
            }
            Stmt::While {
                cond,
                body,
                decreases,
                ..
            } => {
                let ghost_cond = mentions_ghost(cond, gvars, gfields);
                if ghost_cond && block_has_user_code(body, gvars, gfields) {
                    out.push(violation(proc, "ghost condition controls non-ghost loop"));
                }
                if ghost_cond && decreases.is_none() {
                    out.push(violation(
                        proc,
                        "ghost loop must carry a decreases clause (termination)",
                    ));
                }
                check_block(proc, body, gvars, gfields, out);
            }
            _ => {}
        }
    }
}

/// The projection of Definition 3.3: erases all ghost code, yielding the user
/// program.
pub fn project(program: &Program) -> Program {
    let gfields = ghost_fields(program);
    let mut out = Program {
        fields: program
            .fields
            .iter()
            .filter(|f| !f.ghost)
            .cloned()
            .collect(),
        procedures: Vec::new(),
    };
    for proc in &program.procedures {
        let gvars = ghost_vars(proc);
        let mut p = proc.clone();
        p.params.retain(|pa| !pa.ghost);
        p.returns.retain(|pa| !pa.ghost);
        p.requires.clear();
        p.ensures.clear();
        p.modifies = None;
        p.body = proc
            .body
            .as_ref()
            .map(|b| project_block(program, b, &gvars, &gfields));
        out.procedures.push(p);
    }
    out
}

fn project_block(
    program: &Program,
    block: &Block,
    gvars: &HashSet<String>,
    gfields: &HashSet<String>,
) -> Block {
    let mut stmts = Vec::new();
    for s in &block.stmts {
        match s {
            Stmt::VarDecl { ghost, .. } if *ghost => {}
            Stmt::Assign { lhs, .. } => {
                let lhs_ghost = match lhs {
                    Lhs::Var(v) => gvars.contains(v),
                    Lhs::Field(_, f) => gfields.contains(f),
                };
                if !lhs_ghost {
                    stmts.push(s.clone());
                }
            }
            Stmt::Assume(_) | Stmt::Assert(_) => {}
            Stmt::Macro { name, args } => match name.as_str() {
                "Mut" if args.len() == 3 => {
                    if let (Expr::Var(obj), Expr::Var(f)) = (&args[0], &args[1]) {
                        if !gfields.contains(f) {
                            stmts.push(Stmt::Assign {
                                lhs: Lhs::Field(obj.clone(), f.clone()),
                                rhs: args[2].clone(),
                            });
                        }
                    }
                }
                "NewObj" if args.len() == 1 => {
                    if let Expr::Var(v) = &args[0] {
                        stmts.push(Stmt::Alloc { lhs: v.clone() });
                    }
                }
                _ => {}
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if mentions_ghost(cond, gvars, gfields) {
                    // Pure ghost conditional: eliminated entirely.
                    continue;
                }
                stmts.push(Stmt::If {
                    cond: cond.clone(),
                    then_branch: project_block(program, then_branch, gvars, gfields),
                    else_branch: project_block(program, else_branch, gvars, gfields),
                });
            }
            Stmt::While { cond, body, .. } => {
                if mentions_ghost(cond, gvars, gfields) {
                    continue;
                }
                stmts.push(Stmt::While {
                    cond: cond.clone(),
                    invariants: Vec::new(),
                    decreases: None,
                    body: project_block(program, body, gvars, gfields),
                });
            }
            Stmt::Call { lhs, proc, args } => {
                // Drop actuals bound to ghost parameters of the callee.
                let callee = program.procedure(proc);
                let args = match callee {
                    Some(c) => args
                        .iter()
                        .zip(c.params.iter())
                        .filter(|(_, p)| !p.ghost)
                        .map(|(a, _)| a.clone())
                        .collect(),
                    None => args.clone(),
                };
                stmts.push(Stmt::Call {
                    lhs: lhs.clone(),
                    proc: proc.clone(),
                    args,
                });
            }
            other => stmts.push(other.clone()),
        }
    }
    Block { stmts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_program;

    #[test]
    fn legal_ghost_code_passes() {
        let p = parse_program(
            r#"
            field next: Loc;
            field ghost length: Int;
            procedure ok(x: Loc, y: Loc) {
              var ghost n: Int := x.length;
              Mut(x, length, n + 1);
              Mut(x, next, y);
            }
            "#,
        )
        .unwrap();
        assert!(check_ghost_legality(&p).is_empty());
    }

    #[test]
    fn ghost_to_user_flow_rejected() {
        let p = parse_program(
            r#"
            field key: Int;
            field ghost length: Int;
            procedure bad(x: Loc) {
              Mut(x, key, x.length);
            }
            "#,
        )
        .unwrap();
        let v = check_ghost_legality(&p);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("user field"));
    }

    #[test]
    fn ghost_condition_cannot_guard_user_code() {
        let p = parse_program(
            r#"
            field next: Loc;
            field ghost length: Int;
            procedure bad(x: Loc, y: Loc) {
              if (x.length > 0) {
                Mut(x, next, y);
              }
            }
            "#,
        )
        .unwrap();
        let v = check_ghost_legality(&p);
        assert!(v.iter().any(|x| x.message.contains("controls non-ghost")));
    }

    #[test]
    fn ghost_loop_needs_decreases() {
        let p = parse_program(
            r#"
            field ghost length: Int;
            procedure bad(x: Loc) {
              var ghost i: Int := 0;
              while (i < x.length) {
                i := i + 1;
              }
            }
            "#,
        )
        .unwrap();
        let v = check_ghost_legality(&p);
        assert!(v.iter().any(|x| x.message.contains("decreases")));
    }

    #[test]
    fn projection_erases_ghost_code() {
        let p = parse_program(
            r#"
            field next: Loc;
            field ghost length: Int;
            procedure m(x: Loc, y: Loc, ghost g: Int) returns (r: Loc)
              requires x != nil;
              ensures r != nil;
            {
              var ghost n: Int := x.length;
              Mut(x, length, n + 1);
              Mut(x, next, y);
              InferLCOutsideBr(y);
              AssertLCAndRemove(x);
              r := y;
            }
            "#,
        )
        .unwrap();
        let user = project(&p);
        assert_eq!(user.fields.len(), 1);
        let m = user.procedure("m").unwrap();
        assert_eq!(m.params.len(), 2);
        assert!(m.requires.is_empty());
        let body = m.body.clone().unwrap();
        // Only the user mutation and the result assignment remain.
        assert_eq!(body.stmts.len(), 2);
        let printed = ids_ivl::printer::block_to_string(&body, 0);
        assert!(printed.contains("x.next := y"));
        assert!(!printed.contains("length"));
    }
}
