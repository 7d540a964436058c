//! Pretty-printer from the AST back to surface syntax.
//!
//! Used for debugging, for the documentation examples, and for VC
//! descriptions, where [`write_expr_in`] prints an application of a
//! definition (`LC(e)`) as the definition's body instantiated at its
//! arguments.

use std::fmt::Write;

use crate::ast::*;
use crate::defs::{instance, Binding, Definitions, Instance};

/// Renders a whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    for f in &p.fields {
        let _ = writeln!(
            out,
            "field {}{}: {};",
            if f.ghost { "ghost " } else { "" },
            f.name,
            f.ty
        );
    }
    if !p.fields.is_empty() {
        out.push('\n');
    }
    for proc in &p.procedures {
        out.push_str(&procedure_to_string(proc));
        out.push('\n');
    }
    out
}

/// Renders one procedure.
pub fn procedure_to_string(p: &Procedure) -> String {
    let mut out = String::new();
    let params = p
        .params
        .iter()
        .map(param_to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(out, "procedure {}({})", p.name, params);
    if !p.returns.is_empty() {
        let rets = p
            .returns
            .iter()
            .map(param_to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(out, " returns ({})", rets);
    }
    out.push('\n');
    for r in &p.requires {
        let _ = writeln!(out, "  requires {};", expr_to_string(r));
    }
    for e in &p.ensures {
        let _ = writeln!(out, "  ensures {};", expr_to_string(e));
    }
    if let Some(m) = &p.modifies {
        let _ = writeln!(out, "  modifies {};", expr_to_string(m));
    }
    if let Some(d) = &p.decreases {
        let _ = writeln!(out, "  decreases {};", expr_to_string(d));
    }
    match &p.body {
        None => out.push_str(";\n"),
        Some(b) => {
            out.push_str("{\n");
            out.push_str(&block_to_string(b, 1));
            out.push_str("}\n");
        }
    }
    out
}

fn param_to_string(p: &Param) -> String {
    format!(
        "{}{}: {}",
        if p.ghost { "ghost " } else { "" },
        p.name,
        p.ty
    )
}

fn indent(level: usize) -> String {
    "  ".repeat(level)
}

/// Renders a block at the given indentation level.
pub fn block_to_string(b: &Block, level: usize) -> String {
    let mut out = String::new();
    for s in &b.stmts {
        out.push_str(&stmt_to_string(s, level));
    }
    out
}

/// Renders one statement at the given indentation level.
pub fn stmt_to_string(s: &Stmt, level: usize) -> String {
    let ind = indent(level);
    match s {
        Stmt::VarDecl {
            name,
            ty,
            ghost,
            init,
        } => match init {
            Some(e) => format!(
                "{}var {}{}: {} := {};\n",
                ind,
                if *ghost { "ghost " } else { "" },
                name,
                ty,
                expr_to_string(e)
            ),
            None => format!(
                "{}var {}{}: {};\n",
                ind,
                if *ghost { "ghost " } else { "" },
                name,
                ty
            ),
        },
        Stmt::Assign { lhs, rhs } => match lhs {
            Lhs::Var(v) => format!("{}{} := {};\n", ind, v, expr_to_string(rhs)),
            Lhs::Field(v, f) => format!("{}{}.{} := {};\n", ind, v, f, expr_to_string(rhs)),
        },
        Stmt::Havoc { name } => format!("{}havoc {};\n", ind, name),
        Stmt::Assume(e) => format!("{}assume {};\n", ind, expr_to_string(e)),
        Stmt::Assert(e) => format!("{}assert {};\n", ind, expr_to_string(e)),
        Stmt::Alloc { lhs } => format!("{}{} := new();\n", ind, lhs),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let mut out = format!("{}if ({}) {{\n", ind, expr_to_string(cond));
            out.push_str(&block_to_string(then_branch, level + 1));
            if else_branch.stmts.is_empty() {
                out.push_str(&format!("{}}}\n", ind));
            } else {
                out.push_str(&format!("{}}} else {{\n", ind));
                out.push_str(&block_to_string(else_branch, level + 1));
                out.push_str(&format!("{}}}\n", ind));
            }
            out
        }
        Stmt::While {
            cond,
            invariants,
            decreases,
            body,
        } => {
            let mut out = format!("{}while ({})\n", ind, expr_to_string(cond));
            for inv in invariants {
                out.push_str(&format!("{}  invariant {};\n", ind, expr_to_string(inv)));
            }
            if let Some(d) = decreases {
                out.push_str(&format!("{}  decreases {};\n", ind, expr_to_string(d)));
            }
            out.push_str(&format!("{}{{\n", ind));
            out.push_str(&block_to_string(body, level + 1));
            out.push_str(&format!("{}}}\n", ind));
            out
        }
        Stmt::Call { lhs, proc, args } => {
            let args = args
                .iter()
                .map(expr_to_string)
                .collect::<Vec<_>>()
                .join(", ");
            if lhs.is_empty() {
                format!("{}call {}({});\n", ind, proc, args)
            } else {
                format!("{}call {} := {}({});\n", ind, lhs.join(", "), proc, args)
            }
        }
        Stmt::Return => format!("{}return;\n", ind),
        Stmt::Macro { name, args } => {
            let args = args
                .iter()
                .map(expr_to_string)
                .collect::<Vec<_>>()
                .join(", ");
            format!("{}{}({});\n", ind, name, args)
        }
    }
}

/// Renders an expression.
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

/// Appends the rendering of an expression ([`expr_to_string`]) to `out`.
pub fn write_expr(out: &mut String, e: &Expr) {
    write_expr_in(out, e, &());
}

/// Appends the rendering of an expression to `out`, with every application
/// of one of `defs`' definitions printed as the definition's body with its
/// parameters bound to the arguments: the rendering of the substituted
/// expression, without building it.
pub fn write_expr_in(out: &mut String, e: &Expr, defs: &dyn Definitions) {
    write(out, defs, e, None);
}

fn write<'e>(
    out: &mut String,
    defs: &'e dyn Definitions,
    e: &'e Expr,
    scope: Option<&Binding<'e>>,
) {
    match instance(defs, e, scope) {
        Some(Instance::Arg(arg)) => return write(out, defs, arg, None),
        Some(Instance::Body(body, binding)) => return write(out, defs, body, Some(&binding)),
        None => {}
    }
    let sub = |out: &mut String, e: &'e Expr| write(out, defs, e, scope);
    match e {
        Expr::BoolLit(b) => out.push_str(if *b { "true" } else { "false" }),
        Expr::IntLit(n) => {
            let _ = write!(out, "{}", n);
        }
        Expr::RealLit(n, d) => {
            let _ = write!(out, "({} / {})", n, d);
        }
        Expr::Nil => out.push_str("nil"),
        Expr::EmptySet(Type::SetInt) => out.push_str("emptyIntSet"),
        Expr::EmptySet(_) => out.push_str("{}"),
        Expr::Var(v) => out.push_str(v),
        Expr::Field(obj, f) => {
            sub(out, obj);
            out.push('.');
            out.push_str(f);
        }
        Expr::Old(inner) => write_call(out, "old", [&**inner], sub),
        Expr::Unary(UnOp::Not, inner) => write_call(out, "!", [&**inner], sub),
        Expr::Unary(UnOp::Neg, inner) => write_call(out, "-", [&**inner], sub),
        Expr::Binary(op, a, b) => {
            let infix = match op {
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Div => " / ",
                BinOp::And => " && ",
                BinOp::Or => " || ",
                BinOp::Implies => " ==> ",
                BinOp::Iff => " <==> ",
                BinOp::Eq => " == ",
                BinOp::Ne => " != ",
                BinOp::Lt => " < ",
                BinOp::Le => " <= ",
                BinOp::Gt => " > ",
                BinOp::Ge => " >= ",
                BinOp::Member => " in ",
                BinOp::Subset => " subset ",
                BinOp::Union => return write_call(out, "union", [&**a, &**b], sub),
                BinOp::Inter => return write_call(out, "inter", [&**a, &**b], sub),
                BinOp::Diff => return write_call(out, "diff", [&**a, &**b], sub),
            };
            out.push('(');
            sub(out, a);
            out.push_str(infix);
            sub(out, b);
            out.push(')');
        }
        Expr::Ite(c, t, f) => write_call(out, "ite", [&**c, &**t, &**f], sub),
        Expr::Singleton(inner) => {
            out.push('{');
            sub(out, inner);
            out.push('}');
        }
        Expr::App(name, args) => write_call(out, name, args, sub),
    }
}

/// `name(a1, a2, ...)`, each argument written by `sub`.
fn write_call<'e>(
    out: &mut String,
    name: &str,
    args: impl IntoIterator<Item = &'e Expr>,
    mut sub: impl FnMut(&mut String, &'e Expr),
) {
    out.push_str(name);
    out.push('(');
    for (i, a) in args.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        sub(out, a);
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn roundtrip_expression() {
        let e = parse_expr("x.next != nil ==> x.key <= x.next.key").unwrap();
        let s = expr_to_string(&e);
        let e2 = parse_expr(&s).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn roundtrip_program() {
        let src = r#"
            field next: Loc;
            field ghost length: Int;

            procedure touch(x: Loc) returns (y: Loc)
              requires x != nil;
              ensures y != nil;
            {
              var t: Loc := x.next;
              if (t == nil) {
                y := x;
              } else {
                y := t;
              }
              while (y != nil)
                invariant true;
              {
                y := y.next;
              }
              Mut(x, next, y);
            }
        "#;
        let p = parse_program(src).unwrap();
        let printed = program_to_string(&p);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn set_literals_print() {
        let e = parse_expr("union({x}, {})").unwrap();
        let s = expr_to_string(&e);
        assert!(s.contains("{x}"));
        let e2 = parse_expr(&s).unwrap();
        assert_eq!(e, e2);
    }
}
