//! Recursive-descent parser for the IVL surface syntax.
//!
//! The grammar (roughly):
//!
//! ```text
//! program   ::= (fielddecl | procedure)*
//! fielddecl ::= "field" ["ghost"] ident ":" type ";"
//! type      ::= "Bool" | "Int" | "Real" | "Loc" | "Set" "<" ("Loc"|"Int") ">"
//! procedure ::= "procedure" ident "(" params ")" ["returns" "(" params ")"]
//!               spec* (block | ";")
//! spec      ::= ("requires"|"ensures"|"modifies"|"decreases") expr ";"
//! stmt      ::= "var" ["ghost"] ident ":" type [":=" expr] ";"
//!             | ident ":=" "new" "(" ")" ";"
//!             | ident ":=" expr ";"
//!             | ident "." ident ":=" expr ";"
//!             | "havoc" ident ";"
//!             | "assume" expr ";" | "assert" expr ";"
//!             | "if" "(" expr ")" block ["else" (block | ifstmt)]
//!             | "while" "(" expr ")" ("invariant" expr ";" | "decreases" expr ";")* block
//!             | "call" [idents ":="] ident "(" exprs ")" ";"
//!             | "return" ";"
//!             | ident "(" exprs ")" ";"                    // FWYB macro statement
//! expr      ::= iff-level with the usual precedences; set operations are the
//!               function-style builtins union/inter/diff, plus "x in S" and
//!               "S subset T" at comparison level; "{...}" are set literals.
//! ```

use std::fmt;

use crate::ast::*;
use crate::lexer::{tokenize, LexError, SpannedTok, Tok};

/// A parse error with a source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Parses a whole program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

/// Parses a single expression (useful in tests and for building local
/// conditions programmatically).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    /// Consumes the current token, moving it out (the parser never goes
    /// back), and returns it. The final `Eof` is never consumed.
    fn bump(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.toks[self.pos].tok, Tok::Eof);
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected '{}', found '{}'", t, self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected '{}', found '{}'", kw, other)),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(_) => match self.bump() {
                Tok::Ident(s) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            other => self.err(format!("expected identifier, found '{}'", other)),
        }
    }

    // ------------------------------------------------------------- program

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::default();
        loop {
            if self.peek() == &Tok::Eof {
                break;
            }
            if self.at_kw("field") {
                program.fields.push(self.field_decl()?);
            } else if self.at_kw("procedure") {
                program.procedures.push(self.procedure()?);
            } else {
                return self.err(format!(
                    "expected 'field' or 'procedure', found '{}'",
                    self.peek()
                ));
            }
        }
        Ok(program)
    }

    fn field_decl(&mut self) -> Result<FieldDecl, ParseError> {
        self.expect_kw("field")?;
        let ghost = if self.at_kw("ghost") {
            self.bump();
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect(&Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(&Tok::Semi)?;
        Ok(FieldDecl { name, ty, ghost })
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "Bool" => Ok(Type::Bool),
            "Int" => Ok(Type::Int),
            "Real" => Ok(Type::Real),
            "Loc" => Ok(Type::Loc),
            "Set" => {
                self.expect(&Tok::Lt)?;
                let elem = self.ident()?;
                self.expect(&Tok::Gt)?;
                match elem.as_str() {
                    "Loc" => Ok(Type::SetLoc),
                    "Int" => Ok(Type::SetInt),
                    other => self.err(format!("unsupported set element type '{}'", other)),
                }
            }
            other => self.err(format!("unknown type '{}'", other)),
        }
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let ghost = if self.at_kw("ghost") {
                    self.bump();
                    true
                } else {
                    false
                };
                let name = self.ident()?;
                self.expect(&Tok::Colon)?;
                let ty = self.ty()?;
                params.push(Param { name, ty, ghost });
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(params)
    }

    fn procedure(&mut self) -> Result<Procedure, ParseError> {
        self.expect_kw("procedure")?;
        let name = self.ident()?;
        let params = self.param_list()?;
        let returns = if self.at_kw("returns") {
            self.bump();
            self.param_list()?
        } else {
            Vec::new()
        };
        let mut requires = Vec::new();
        let mut ensures = Vec::new();
        let mut modifies = None;
        let mut decreases = None;
        loop {
            if self.at_kw("requires") {
                self.bump();
                requires.push(self.expr()?);
                self.expect(&Tok::Semi)?;
            } else if self.at_kw("ensures") {
                self.bump();
                ensures.push(self.expr()?);
                self.expect(&Tok::Semi)?;
            } else if self.at_kw("modifies") {
                self.bump();
                modifies = Some(self.expr()?);
                self.expect(&Tok::Semi)?;
            } else if self.at_kw("decreases") {
                self.bump();
                decreases = Some(self.expr()?);
                self.expect(&Tok::Semi)?;
            } else {
                break;
            }
        }
        // A body starts with '{'; anything else means a specification-only
        // procedure (an optional trailing ';' is consumed).
        let body = if self.peek() == &Tok::LBrace {
            Some(self.block()?)
        } else {
            if self.peek() == &Tok::Semi {
                self.bump();
            }
            None
        };
        Ok(Procedure {
            name,
            params,
            returns,
            requires,
            ensures,
            modifies,
            decreases,
            body,
        })
    }

    // ----------------------------------------------------------- statements

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.at_kw("var") {
            self.bump();
            let ghost = if self.at_kw("ghost") {
                self.bump();
                true
            } else {
                false
            };
            let name = self.ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.ty()?;
            let init = if self.peek() == &Tok::Assign {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::VarDecl {
                name,
                ty,
                ghost,
                init,
            });
        }
        if self.at_kw("havoc") {
            self.bump();
            let name = self.ident()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Havoc { name });
        }
        if self.at_kw("assume") {
            self.bump();
            let e = self.expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Assume(e));
        }
        if self.at_kw("assert") {
            self.bump();
            let e = self.expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Assert(e));
        }
        if self.at_kw("return") {
            self.bump();
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Return);
        }
        if self.at_kw("if") {
            return self.if_stmt();
        }
        if self.at_kw("while") {
            self.bump();
            self.expect(&Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(&Tok::RParen)?;
            let mut invariants = Vec::new();
            let mut decreases = None;
            loop {
                if self.at_kw("invariant") {
                    self.bump();
                    invariants.push(self.expr()?);
                    self.expect(&Tok::Semi)?;
                } else if self.at_kw("decreases") {
                    self.bump();
                    decreases = Some(self.expr()?);
                    self.expect(&Tok::Semi)?;
                } else {
                    break;
                }
            }
            let body = self.block()?;
            return Ok(Stmt::While {
                cond,
                invariants,
                decreases,
                body,
            });
        }
        if self.at_kw("call") {
            self.bump();
            // call [x, y :=] p(args);
            let first = self.ident()?;
            let mut lhs = Vec::new();
            let proc = if self.peek() == &Tok::LParen {
                first
            } else {
                lhs.push(first);
                while self.peek() == &Tok::Comma {
                    self.bump();
                    lhs.push(self.ident()?);
                }
                self.expect(&Tok::Assign)?;
                self.ident()?
            };
            self.expect(&Tok::LParen)?;
            let args = self.expr_list(&Tok::RParen)?;
            self.expect(&Tok::RParen)?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Call { lhs, proc, args });
        }
        // Starts with an identifier: assignment, field assignment, allocation
        // or macro statement.
        let name = self.ident()?;
        match self.peek() {
            Tok::Assign => {
                self.bump();
                if self.at_kw("new") {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    self.expect(&Tok::RParen)?;
                    self.expect(&Tok::Semi)?;
                    return Ok(Stmt::Alloc { lhs: name });
                }
                let rhs = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Assign {
                    lhs: Lhs::Var(name),
                    rhs,
                })
            }
            Tok::Dot => {
                self.bump();
                let field = self.ident()?;
                self.expect(&Tok::Assign)?;
                let rhs = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Assign {
                    lhs: Lhs::Field(name, field),
                    rhs,
                })
            }
            Tok::LParen => {
                self.bump();
                let args = self.expr_list(&Tok::RParen)?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Macro { name, args })
            }
            other => self.err(format!(
                "expected ':=', '.' or '(' after identifier, found '{}'",
                other
            )),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("if")?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let then_branch = self.block()?;
        let else_branch = if self.at_kw("else") {
            self.bump();
            if self.at_kw("if") {
                Block {
                    stmts: vec![self.if_stmt()?],
                }
            } else {
                self.block()?
            }
        } else {
            Block::default()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn expr_list(&mut self, terminator: &Tok) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.peek() != terminator {
            loop {
                args.push(self.expr()?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok(args)
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.iff_expr()
    }

    fn iff_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.implies_expr()?;
        if self.peek() == &Tok::Iff {
            self.bump();
            let rhs = self.iff_expr()?;
            Ok(Expr::bin(BinOp::Iff, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn implies_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.or_expr()?;
        if self.peek() == &Tok::Implies {
            self.bump();
            // Right-associative.
            let rhs = self.implies_expr()?;
            Ok(Expr::bin(BinOp::Implies, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => Some(BinOp::Eq),
            Tok::Neq => Some(BinOp::Ne),
            Tok::Le => Some(BinOp::Le),
            Tok::Ge => Some(BinOp::Ge),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ident(s) if s == "in" => Some(BinOp::Member),
            Tok::Ident(s) if s == "subset" => Some(BinOp::Subset),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            Ok(Expr::bin(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Bang => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::Unary(UnOp::Not, Box::new(e)))
            }
            Tok::Minus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::Unary(UnOp::Neg, Box::new(e)))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        while self.peek() == &Tok::Dot {
            self.bump();
            let field = self.ident()?;
            e = Expr::Field(Box::new(e), field);
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            &Tok::Int(n) => {
                self.bump();
                Ok(Expr::IntLit(n))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrace => {
                self.bump();
                // Set literal: {} or {e1, e2, ...}
                let elems = self.expr_list(&Tok::RBrace)?;
                self.expect(&Tok::RBrace)?;
                let mut set: Option<Expr> = None;
                for elem in elems {
                    let single = Expr::Singleton(Box::new(elem));
                    set = Some(match set {
                        None => single,
                        Some(acc) => Expr::bin(BinOp::Union, acc, single),
                    });
                }
                Ok(set.unwrap_or(Expr::EmptySet(Type::SetLoc)))
            }
            Tok::Ident(_) => {
                let name = self.ident()?;
                match name.as_str() {
                    "true" => return Ok(Expr::BoolLit(true)),
                    "false" => return Ok(Expr::BoolLit(false)),
                    "nil" => return Ok(Expr::Nil),
                    "emptyIntSet" => return Ok(Expr::EmptySet(Type::SetInt)),
                    "emptyLocSet" => return Ok(Expr::EmptySet(Type::SetLoc)),
                    _ => {}
                }
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let args = self.expr_list(&Tok::RParen)?;
                    self.expect(&Tok::RParen)?;
                    return self.builtin_or_app(&name, args);
                }
                Ok(Expr::Var(name))
            }
            other => self.err(format!("unexpected token '{}' in expression", other)),
        }
    }

    fn builtin_or_app(&mut self, name: &str, mut args: Vec<Expr>) -> Result<Expr, ParseError> {
        let binop = |op: BinOp, args: &mut Vec<Expr>| -> Result<Expr, ParseError> {
            if args.len() != 2 {
                Err(ParseError {
                    message: format!("'{:?}' expects 2 arguments", op),
                    line: 0,
                })
            } else {
                let rhs = args.pop().unwrap();
                let lhs = args.pop().unwrap();
                Ok(Expr::bin(op, lhs, rhs))
            }
        };
        match name {
            "old" => {
                if args.len() != 1 {
                    return self.err("'old' expects 1 argument");
                }
                Ok(Expr::Old(Box::new(args.pop().unwrap())))
            }
            "ite" => {
                if args.len() != 3 {
                    return self.err("'ite' expects 3 arguments");
                }
                let e = args.pop().unwrap();
                let t = args.pop().unwrap();
                let c = args.pop().unwrap();
                Ok(Expr::Ite(Box::new(c), Box::new(t), Box::new(e)))
            }
            "union" => binop(BinOp::Union, &mut args),
            "inter" => binop(BinOp::Inter, &mut args),
            "diff" => binop(BinOp::Diff, &mut args),
            _ => Ok(Expr::App(name.to_string(), args)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_program() {
        let src = r#"
            field next: Loc;
            field key: Int;
            field ghost keys: Set<Int>;

            procedure insert(x: Loc, k: Int) returns (r: Loc)
              requires x != nil;
              ensures r != nil;
              modifies {x};
            {
              var y: Loc;
              y := x.next;
              if (y == nil) {
                r := x;
              } else {
                r := y;
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.fields.len(), 3);
        assert!(p.field("keys").unwrap().ghost);
        let proc = p.procedure("insert").unwrap();
        assert_eq!(proc.params.len(), 2);
        assert_eq!(proc.returns.len(), 1);
        assert_eq!(proc.requires.len(), 1);
        assert!(proc.modifies.is_some());
        assert!(proc.body.is_some());
    }

    #[test]
    fn parse_expressions() {
        let e = parse_expr("x.next != nil ==> x.key <= x.next.key").unwrap();
        match e {
            Expr::Binary(BinOp::Implies, _, _) => {}
            other => panic!("unexpected {:?}", other),
        }
        let e = parse_expr("union({x}, y.hslist)").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Union, _, _)));
        let e = parse_expr("k in x.keys && Br == {}").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::And, _, _)));
        let e = parse_expr("old(x.length) + 1").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Add, _, _)));
        let e = parse_expr("ite(c, 1, 2)").unwrap();
        assert!(matches!(e, Expr::Ite(_, _, _)));
    }

    #[test]
    fn parse_macro_statements() {
        let src = r#"
            field next: Loc;
            procedure m(x: Loc, y: Loc)
            {
              Mut(x, next, y);
              NewObj(y);
              AssertLCAndRemove(x);
              InferLCOutsideBr(x);
            }
        "#;
        let p = parse_program(src).unwrap();
        let body = p.procedure("m").unwrap().body.clone().unwrap();
        assert_eq!(body.stmts.len(), 4);
        assert!(matches!(&body.stmts[0], Stmt::Macro { name, .. } if name == "Mut"));
    }

    #[test]
    fn parse_while_with_invariants() {
        let src = r#"
            field next: Loc;
            procedure loop_it(x: Loc)
            {
              var cur: Loc;
              cur := x;
              while (cur != nil)
                invariant true;
                decreases 0;
              {
                cur := cur.next;
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        let body = p.procedure("loop_it").unwrap().body.clone().unwrap();
        match &body.stmts[2] {
            Stmt::While {
                invariants,
                decreases,
                ..
            } => {
                assert_eq!(invariants.len(), 1);
                assert!(decreases.is_some());
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn parse_call_and_alloc() {
        let src = r#"
            field next: Loc;
            procedure callee(a: Loc) returns (b: Loc);
            procedure caller(x: Loc) returns (y: Loc)
            {
              var t: Loc;
              t := new();
              call y := callee(t);
              call callee(x);
              return;
            }
        "#;
        let p = parse_program(src).unwrap();
        let body = p.procedure("caller").unwrap().body.clone().unwrap();
        assert!(matches!(&body.stmts[1], Stmt::Alloc { .. }));
        assert!(matches!(&body.stmts[2], Stmt::Call { lhs, .. } if lhs.len() == 1));
        assert!(matches!(&body.stmts[3], Stmt::Call { lhs, .. } if lhs.is_empty()));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_program("field next Loc;").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_program("procedure p()\n{\n  x := ;\n}").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            field key: Int;
            procedure m(x: Loc, k: Int) returns (r: Int)
            {
              if (k < x.key) { r := 0; }
              else if (k > x.key) { r := 1; }
              else { r := 2; }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert!(p.procedure("m").is_some());
    }
}
