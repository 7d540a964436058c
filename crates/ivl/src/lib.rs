//! `ids-ivl` — a Boogie-like intermediate verification language (IVL).
//!
//! The paper implements intrinsic definitions and the fix-what-you-break
//! (FWYB) methodology on top of Boogie: a small imperative language with
//! contracts, loop invariants, `assert`/`assume`, ghost state and heap fields
//! modelled as maps. This crate provides the equivalent substrate for the
//! reproduction:
//!
//! * [`ast`] — programs, procedures, statements and expressions, including the
//!   FWYB *macro statements* (`Mut`, `NewObj`, `AssertLCAndRemove`,
//!   `InferLCOutsideBr`, …) that `ids-core` defines;
//! * [`lexer`] / [`parser`] — a concrete surface syntax so the benchmark
//!   programs of Table 2 can be written as readable text (embedded with
//!   `include_str!`) rather than hand-built ASTs;
//! * [`typecheck`] — scoping and sort checking, field declarations, ghost
//!   annotations;
//! * [`printer`] — pretty-printing back to surface syntax;
//! * [`defs`] — the [`Definitions`] hook through which an intrinsic
//!   definition gives `LC(e)`, `Phi(e)` and the FWYB macro statements their
//!   meaning, instantiated where they are used.
//!
//! # Example
//!
//! ```
//! use ids_ivl::parse_program;
//! let src = r#"
//!     field next: Loc;
//!     field key: Int;
//!
//!     procedure skip_one(x: Loc) returns (y: Loc)
//!       requires x != nil;
//!     {
//!       y := x.next;
//!     }
//! "#;
//! let program = parse_program(src).expect("parses");
//! ids_ivl::typecheck::check_program(&program).expect("well-typed");
//! assert_eq!(program.procedures.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod defs;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod typecheck;

pub use ast::{BinOp, Block, Expr, FieldDecl, Lhs, Param, Procedure, Program, Stmt, Type, UnOp};
pub use defs::{instance, resolve, Binding, Definition, Definitions, Instance};
pub use parser::{parse_expr, parse_program, ParseError};
pub use printer::program_to_string;
pub use typecheck::{check_program, TypeError};
