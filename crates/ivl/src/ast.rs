//! Abstract syntax of the intermediate verification language.
//!
//! A [`Program`] is a set of field declarations (the class signature `F` of
//! the paper, plus the ghost monadic maps `G` once an intrinsic definition has
//! been attached) and a set of procedures with contracts. Statements include
//! the FWYB *macro statements* of §4.1 of the paper; they are ordinary syntax
//! here, and VC generation expands each into mutations plus broken-set
//! updates when it reaches it, through the [`crate::Definitions`] that
//! `ids-core::fwyb` implements.

use std::fmt;

/// Types of the surface language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Type {
    /// Booleans.
    Bool,
    /// Mathematical integers.
    Int,
    /// Rationals/reals (used for `rank` ghost maps).
    Real,
    /// Heap locations (`C?` — includes `nil`).
    Loc,
    /// Finite sets of locations.
    SetLoc,
    /// Finite sets of integers.
    SetInt,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "Bool"),
            Type::Int => write!(f, "Int"),
            Type::Real => write!(f, "Real"),
            Type::Loc => write!(f, "Loc"),
            Type::SetLoc => write!(f, "Set<Loc>"),
            Type::SetInt => write!(f, "Set<Int>"),
        }
    }
}

impl Type {
    /// True for the set types.
    pub fn is_set(self) -> bool {
        matches!(self, Type::SetLoc | Type::SetInt)
    }

    /// The element type of a set type.
    pub fn elem(self) -> Option<Type> {
        match self {
            Type::SetLoc => Some(Type::Loc),
            Type::SetInt => Some(Type::Int),
            _ => None,
        }
    }
}

/// A field (pointer field, data field, or ghost monadic map) of the class.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Value type of the field.
    pub ty: Type,
    /// True if the field is a ghost monadic map.
    pub ghost: bool,
}

/// A procedure parameter or return value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// True if the parameter is ghost.
    pub ghost: bool,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Division by a constant (only well-typed with a literal divisor).
    Div,
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Implication.
    Implies,
    /// Bi-implication.
    Iff,
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Set union.
    Union,
    /// Set intersection.
    Inter,
    /// Set difference.
    Diff,
    /// Set membership (`x in S`).
    Member,
    /// Subset (`S subset T`).
    Subset,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// Boolean literal.
    BoolLit(bool),
    /// Integer literal.
    IntLit(i128),
    /// Rational literal `num/den`.
    RealLit(i128, i128),
    /// The null location.
    Nil,
    /// The empty set of locations (`{}` defaults to `Set<Loc>`; the
    /// typechecker coerces by context).
    EmptySet(Type),
    /// A variable reference.
    Var(String),
    /// Field read `e.f` (also used for ghost monadic maps).
    Field(Box<Expr>, String),
    /// `old(e)` — the value of `e` in the procedure pre-state.
    Old(Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional expression `ite(c, t, e)`.
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Singleton set `{e}`.
    Singleton(Box<Expr>),
    /// Application of a named predicate/function defined by the verification
    /// context (e.g. `LC(x)`, the local condition instantiated at `x`).
    App(String, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// Convenience constructor for a field read on a variable.
    pub fn field(obj: &str, field: &str) -> Expr {
        Expr::Field(Box::new(Expr::var(obj)), field.to_string())
    }

    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }
}

/// The left-hand side of an assignment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Lhs {
    /// Assignment to a local variable / parameter.
    Var(String),
    /// Assignment to a field of the object held in the named variable.
    Field(String, String),
}

/// Statements.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// Local variable declaration with optional initializer.
    VarDecl {
        /// Variable name.
        name: String,
        /// Variable type.
        ty: Type,
        /// True for ghost variables.
        ghost: bool,
        /// Optional initial value.
        init: Option<Expr>,
    },
    /// Assignment `lhs := e`.
    Assign {
        /// Target.
        lhs: Lhs,
        /// Source expression.
        rhs: Expr,
    },
    /// Nondeterministic assignment.
    Havoc {
        /// The variable to havoc.
        name: String,
    },
    /// `assume e;`
    Assume(Expr),
    /// `assert e;`
    Assert(Expr),
    /// Allocation `x := new();`
    Alloc {
        /// The variable receiving the fresh location.
        lhs: String,
    },
    /// Conditional.
    If {
        /// Branch condition.
        cond: Expr,
        /// Then branch.
        then_branch: Block,
        /// Else branch.
        else_branch: Block,
    },
    /// Loop with invariants.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop invariants.
        invariants: Vec<Expr>,
        /// Optional termination measure (required for ghost loops).
        decreases: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// Procedure call `call r1, r2 := p(a, b);`
    Call {
        /// Result targets.
        lhs: Vec<String>,
        /// Callee name.
        proc: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `return;`
    Return,
    /// A FWYB macro statement such as `Mut(x, next, y);` — kept abstract in
    /// the AST and expanded where VC generation reaches it
    /// ([`crate::Definitions::expand_macro`]).
    Macro {
        /// Macro name (`Mut`, `NewObj`, `AssertLCAndRemove`, `InferLCOutsideBr`, …).
        name: String,
        /// Macro arguments.
        args: Vec<Expr>,
    },
}

/// A sequence of statements.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Block {
    /// The statements.
    pub stmts: Vec<Stmt>,
}

/// A procedure with its contract.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Procedure {
    /// Procedure name.
    pub name: String,
    /// Input parameters.
    pub params: Vec<Param>,
    /// Output parameters.
    pub returns: Vec<Param>,
    /// Preconditions.
    pub requires: Vec<Expr>,
    /// Postconditions (may use `old(..)`).
    pub ensures: Vec<Expr>,
    /// The modified heaplet: a `Set<Loc>` expression over the parameters, used
    /// for frame reasoning across calls (§3.7 / Appendix A.3 of the paper).
    pub modifies: Option<Expr>,
    /// Optional termination measure.
    pub decreases: Option<Expr>,
    /// The body; `None` for specification-only (abstract) procedures.
    pub body: Option<Block>,
}

/// A whole program: class signature plus procedures.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Field declarations (user fields and ghost monadic maps).
    pub fields: Vec<FieldDecl>,
    /// Procedure declarations.
    pub procedures: Vec<Procedure>,
}

impl Program {
    /// Looks up a field declaration by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Looks up a procedure by name.
    pub fn procedure(&self, name: &str) -> Option<&Procedure> {
        self.procedures.iter().find(|p| p.name == name)
    }

    /// Merges another program's declarations into this one (used to combine a
    /// data-structure definition prelude with per-method files).
    pub fn extend(&mut self, other: Program) {
        for f in other.fields {
            if self.field(&f.name).is_none() {
                self.fields.push(f);
            }
        }
        for p in other.procedures {
            self.procedures.retain(|q| q.name != p.name);
            self.procedures.push(p);
        }
    }
}

/// Counts the executable (non-ghost, non-spec) statements of a procedure body,
/// mirroring the "LOC" column of Table 2.
pub fn executable_loc(proc: &Procedure) -> usize {
    fn count_block(b: &Block) -> usize {
        b.stmts.iter().map(count_stmt).sum()
    }
    fn count_stmt(s: &Stmt) -> usize {
        match s {
            Stmt::VarDecl { ghost, .. } => {
                if *ghost {
                    0
                } else {
                    1
                }
            }
            Stmt::Assign { .. } | Stmt::Alloc { .. } | Stmt::Call { .. } | Stmt::Return => 1,
            Stmt::Havoc { .. } => 1,
            Stmt::Assume(_) | Stmt::Assert(_) => 0,
            Stmt::Macro { name, .. } => {
                // Mut/NewObj correspond to one executable statement each; the
                // purely ghost macros correspond to none.
                if name == "Mut" || name == "NewObj" {
                    1
                } else {
                    0
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => 1 + count_block(then_branch) + count_block(else_branch),
            Stmt::While { body, .. } => 1 + count_block(body),
        }
    }
    proc.body.as_ref().map(count_block).unwrap_or(0)
}

/// Counts specification lines (requires/ensures/modifies/invariants),
/// mirroring the "Spec" column of Table 2.
pub fn spec_lines(proc: &Procedure) -> usize {
    fn invariants_in(b: &Block) -> usize {
        b.stmts
            .iter()
            .map(|s| match s {
                Stmt::While {
                    invariants, body, ..
                } => invariants.len() + invariants_in(body),
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => invariants_in(then_branch) + invariants_in(else_branch),
                _ => 0,
            })
            .sum()
    }
    proc.requires.len()
        + proc.ensures.len()
        + proc.modifies.iter().count()
        + proc.body.as_ref().map(invariants_in).unwrap_or(0)
}

/// Counts ghost annotation statements (ghost declarations, ghost macro
/// statements, assumes/asserts inserted by the engineer), mirroring the
/// "Annotations" column of Table 2.
pub fn annotation_lines(proc: &Procedure) -> usize {
    fn count_block(b: &Block) -> usize {
        b.stmts.iter().map(count_stmt).sum()
    }
    fn count_stmt(s: &Stmt) -> usize {
        match s {
            Stmt::VarDecl { ghost: true, .. } => 1,
            Stmt::VarDecl { ghost: false, .. } => 0,
            Stmt::Assume(_) | Stmt::Assert(_) => 1,
            Stmt::Macro { name, .. } => {
                if name == "Mut" || name == "NewObj" {
                    // The broken-set update half of the macro is ghost.
                    1
                } else {
                    1
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => count_block(then_branch) + count_block(else_branch),
            Stmt::While { body, .. } => count_block(body),
            _ => 0,
        }
    }
    proc.body.as_ref().map(count_block).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_lookup_and_extend() {
        let mut p = Program::default();
        p.fields.push(FieldDecl {
            name: "next".into(),
            ty: Type::Loc,
            ghost: false,
        });
        assert!(p.field("next").is_some());
        assert!(p.field("prev").is_none());

        let mut q = Program::default();
        q.fields.push(FieldDecl {
            name: "prev".into(),
            ty: Type::Loc,
            ghost: true,
        });
        q.procedures.push(Procedure {
            name: "find".into(),
            params: vec![],
            returns: vec![],
            requires: vec![],
            ensures: vec![],
            modifies: None,
            decreases: None,
            body: None,
        });
        p.extend(q);
        assert!(p.field("prev").is_some());
        assert!(p.procedure("find").is_some());
    }

    #[test]
    fn loc_counting() {
        let proc = Procedure {
            name: "m".into(),
            params: vec![],
            returns: vec![],
            requires: vec![Expr::BoolLit(true)],
            ensures: vec![Expr::BoolLit(true), Expr::BoolLit(true)],
            modifies: None,
            decreases: None,
            body: Some(Block {
                stmts: vec![
                    Stmt::Assign {
                        lhs: Lhs::Var("x".into()),
                        rhs: Expr::Nil,
                    },
                    Stmt::Assert(Expr::BoolLit(true)),
                    Stmt::Macro {
                        name: "Mut".into(),
                        args: vec![],
                    },
                ],
            }),
        };
        assert_eq!(executable_loc(&proc), 2);
        assert_eq!(spec_lines(&proc), 3);
        assert_eq!(annotation_lines(&proc), 2);
    }

    #[test]
    fn type_helpers() {
        assert!(Type::SetLoc.is_set());
        assert_eq!(Type::SetLoc.elem(), Some(Type::Loc));
        assert_eq!(Type::Int.elem(), None);
        assert_eq!(Type::SetInt.to_string(), "Set<Int>");
    }
}
