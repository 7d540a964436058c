//! The syntactic discipline of well-behaved programs (Fig. 2 of the paper).
//!
//! A benchmark method is *well-behaved* when every heap mutation, allocation
//! and broken-set manipulation goes through the FWYB macros, and control flow
//! never depends on the broken set. The soundness theorem (Theorem 3.8) only
//! applies to well-behaved programs, so the pipeline checks the discipline
//! before generating VCs and reports violations.

use ids_ivl::{Block, Expr, Lhs, Procedure, Program, Stmt};

/// A violation of the well-behavedness discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The procedure in which the violation occurs.
    pub procedure: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.procedure, self.message)
    }
}

/// Checks every procedure of a program as written.
pub fn check_program(program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for proc in &program.procedures {
        out.extend(check_procedure(proc));
    }
    out
}

/// Checks one procedure for well-behavedness.
pub fn check_procedure(proc: &Procedure) -> Vec<Violation> {
    let mut v = Vec::new();
    if let Some(body) = &proc.body {
        check_block(proc, body, &mut v);
    }
    v
}

fn violation(proc: &Procedure, message: impl Into<String>) -> Violation {
    Violation {
        procedure: proc.name.clone(),
        message: message.into(),
    }
}

fn mentions_broken_set(e: &Expr) -> bool {
    match e {
        Expr::Var(v) => v == "Br" || v == "Br2",
        Expr::Field(obj, _) => mentions_broken_set(obj),
        Expr::Old(i) | Expr::Unary(_, i) | Expr::Singleton(i) => mentions_broken_set(i),
        Expr::Binary(_, a, b) => mentions_broken_set(a) || mentions_broken_set(b),
        Expr::Ite(c, t, f) => {
            mentions_broken_set(c) || mentions_broken_set(t) || mentions_broken_set(f)
        }
        Expr::App(_, args) => args.iter().any(mentions_broken_set),
        _ => false,
    }
}

fn check_block(proc: &Procedure, block: &Block, out: &mut Vec<Violation>) {
    for s in &block.stmts {
        match s {
            Stmt::Assign { lhs, .. } => match lhs {
                Lhs::Field(_, field) => out.push(violation(
                    proc,
                    format!(
                        "raw field mutation of '{}' — use Mut(obj, {}, value)",
                        field, field
                    ),
                )),
                Lhs::Var(v) if v == "Br" || v == "Br2" => out.push(violation(
                    proc,
                    "direct manipulation of the broken set — use the FWYB macros",
                )),
                _ => {}
            },
            Stmt::Alloc { .. } => out.push(violation(
                proc,
                "raw allocation — use NewObj(variable) so the fresh object joins the broken set",
            )),
            Stmt::Havoc { name } if name == "Br" || name == "Br2" => out.push(violation(
                proc,
                "havoc of the broken set is not well-behaved",
            )),
            Stmt::Assume(_) => out.push(violation(
                proc,
                "raw assume — local conditions may only be assumed through InferLCOutsideBr",
            )),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if mentions_broken_set(cond) {
                    out.push(violation(proc, "branch condition mentions the broken set"));
                }
                check_block(proc, then_branch, out);
                check_block(proc, else_branch, out);
            }
            Stmt::While { cond, body, .. } => {
                if mentions_broken_set(cond) {
                    out.push(violation(proc, "loop condition mentions the broken set"));
                }
                check_block(proc, body, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_program;

    #[test]
    fn macro_based_program_is_well_behaved() {
        let p = parse_program(
            r#"
            field next: Loc;
            procedure ok(x: Loc, y: Loc)
              requires Br == {};
              ensures Br == {};
            {
              InferLCOutsideBr(x);
              Mut(x, next, y);
              AssertLCAndRemove(x);
            }
            "#,
        )
        .unwrap();
        assert!(check_program(&p).is_empty());
    }

    #[test]
    fn raw_mutation_is_flagged() {
        let p = parse_program(
            r#"
            field next: Loc;
            procedure bad(x: Loc, y: Loc) {
              x.next := y;
            }
            "#,
        )
        .unwrap();
        let v = check_program(&p);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("raw field mutation"));
    }

    #[test]
    fn raw_allocation_and_br_manipulation_flagged() {
        let p = parse_program(
            r#"
            field next: Loc;
            procedure bad(x: Loc) {
              var z: Loc;
              z := new();
              Br := {};
            }
            "#,
        )
        .unwrap();
        let v = check_program(&p);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn control_flow_on_broken_set_flagged() {
        let p = parse_program(
            r#"
            field next: Loc;
            procedure bad(x: Loc) {
              if (x in Br) {
                x := x;
              }
            }
            "#,
        )
        .unwrap();
        let v = check_program(&p);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("branch condition"));
    }

    #[test]
    fn raw_assume_flagged() {
        let p = parse_program(
            r#"
            field next: Loc;
            procedure bad(x: Loc) {
              assume x != nil;
            }
            "#,
        )
        .unwrap();
        assert_eq!(check_program(&p).len(), 1);
    }
}
