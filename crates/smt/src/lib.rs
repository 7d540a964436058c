//! `ids-smt` — a quantifier-free SMT solver used as the decidable backend of the
//! intrinsic-definitions verification pipeline.
//!
//! The verification conditions produced by the fix-what-you-break (FWYB)
//! methodology fall into quantifier-free combinations of:
//!
//! * equality and uninterpreted functions (EUF),
//! * linear arithmetic over integers and rationals,
//! * extensional arrays (maps from locations to values, with `store` and
//!   pointwise `ite` updates used for frame reasoning), and
//! * finite sets of locations/integers (membership, union, intersection,
//!   difference, subset).
//!
//! This crate implements a from-scratch decision procedure for that fragment:
//!
//! 1. [`lower`] reduces array/set structure to EUF + arithmetic by *finite
//!    instantiation* over the ground index/element terms of the query (plus one
//!    Skolem witness per set/array equality atom, for extensionality),
//! 2. [`cnf`] converts the result to CNF: the lowering's facts (axiom
//!    instances, `ite` definitions, trichotomy lemmas) become one to three
//!    clauses each, and asserted roots go through the Tseitin
//!    transformation,
//! 3. [`sat`] is a CDCL SAT solver (watched literals, first-UIP learning,
//!    VSIDS-style activities, restarts),
//! 4. [`euf`] (congruence closure with explanations) and [`simplex`] (general
//!    simplex over delta-rationals with branch-and-bound for integers) check
//!    theory consistency and explain conflicts — an *online* DPLL(T) loop in
//!    [`incremental`], where the theory runs at every propagation fixpoint of
//!    the CDCL search. [`solver`] is its one-shot wrapper.
//!
//! A bounded quantifier-instantiation engine ([`quant`]) supports the
//! *quantified* (Dafny-style) encoding used only for the paper's RQ3
//! comparison; the decidable pipeline never produces quantifiers.
//!
//! # Example
//!
//! ```
//! use ids_smt::{TermManager, Sort, Solver, SatResult};
//!
//! let mut tm = TermManager::new();
//! let x = tm.var("x", Sort::Int);
//! let one = tm.int(1);
//! let x_plus_1 = tm.add(x, one);
//! let lt = tm.lt(x_plus_1, x); // x + 1 < x : unsatisfiable
//! let mut solver = Solver::new();
//! assert_eq!(solver.check(&mut tm, &[lt]), SatResult::Unsat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
pub mod euf;
mod fxmap;
pub mod hash;
pub mod incremental;
pub mod lower;
pub mod model;
pub mod quant;
pub mod rational;
pub mod sat;
pub mod simplex;
pub mod smtlib;
pub mod solver;
pub mod term;
pub mod theory;
mod trail;

pub use hash::structural_hash;
pub use incremental::IncrementalSolver;
pub use model::Model;
pub use rational::Rat;
pub use sat::{ClauseDbOptions, SatOptions, SatResult};
pub use simplex::PivotRule;
pub use smtlib::to_smtlib;
pub use solver::{Solver, SolverConfig, SolverProfile, SolverStats};
pub use term::{Op, Sort, Term, TermId, TermManager};

/// Parses the zero-padded lowercase-hex `u64` emitted by the build script.
/// (`u64::from_str_radix` is not yet usable in const items; this is the
/// minimal const-evaluable equivalent.)
const fn parse_hex_u64(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut out: u64 = 0;
    let mut i = 0;
    while i < bytes.len() {
        let digit = match bytes[i] {
            b @ b'0'..=b'9' => b - b'0',
            b @ b'a'..=b'f' => b - b'a' + 10,
            _ => panic!("invalid hex digit in solver fingerprint"),
        };
        out = (out << 4) | digit as u64;
        i += 1;
    }
    out
}

/// Fingerprint of the solver/lowering logic, embedded in the on-disk VC cache
/// header so that cached verdicts produced by a different solver generation
/// are invalidated instead of silently replayed.
///
/// Computed by this crate's build script as a hash of every `src/*.rs` file:
/// a verdict-affecting solver change cannot ship without editing a source
/// file, so it cannot ship without invalidating existing caches. (History:
/// 1 = PR-2 solver, manual; 2 = incremental sessions, manual; source-hashed
/// since the structure-scoped warm pools.)
pub const SOLVER_LOGIC_FINGERPRINT: u64 = parse_hex_u64(env!("IDS_SOLVER_LOGIC_FINGERPRINT"));
