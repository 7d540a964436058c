//! `ids-core` — intrinsic definitions of data structures and the
//! fix-what-you-break (FWYB) verification methodology.
//!
//! This crate is the reproduction of the paper's primary contribution:
//!
//! * [`ids`] — [`ids::IntrinsicDefinition`]: a set of ghost *monadic maps*, a
//!   quantifier-free *local condition* `LC(x)` over a location and its
//!   neighbours, a *correlation formula* φ(y) characterising entry points, and
//!   a declared *impact set* per field (Table 1 / Tables 3–4 of the paper);
//! * [`impact`] — automatic checking that the declared impact sets are correct
//!   (the Hoare triple of Appendix C), reduced to decidable VCs;
//! * [`fwyb`] — the well-behaved-programming macro statements (`Mut`,
//!   `NewObj`, `AssertLCAndRemove`, `InferLCOutsideBr`, and their
//!   second-broken-set variants) and the `LC(e)` / `Phi(e)` applications,
//!   given to VC generation through the [`ids_ivl::Definitions`] hook: a
//!   macro expands into mutations plus broken-set updates where VC
//!   generation reaches it, and an application is instantiated where it is
//!   encoded;
//! * [`wellbehaved`] — the syntactic discipline of Fig. 2: raw heap mutation,
//!   allocation, or broken-set manipulation outside the macros is rejected;
//! * [`ghost`] — legality of ghost code (ghost data never flows into user
//!   data) and the projection that erases ghost code (Definition 3.3);
//! * [`pipeline`] — the end-to-end verifier: check, generate VCs with
//!   `ids-vcgen`, discharge them with `ids-smt`, and report per-method
//!   statistics in the shape of Table 2.
//!
//! # Example
//!
//! ```
//! use ids_core::ids::IntrinsicDefinition;
//! use ids_core::pipeline::{verify_method, PipelineConfig};
//!
//! // A miniature intrinsic definition: acyclic singly-linked list segments
//! // witnessed by a strictly decreasing `length` map.
//! let ids = IntrinsicDefinition::parse(
//!     "list",
//!     &["field next: Loc;", "field ghost length: Int;"].join("\n"),
//!     "x.next != nil ==> x.length == x.next.length + 1",
//!     "y",
//!     "true",
//!     &[("next", &["x"]), ("length", &["x"])],
//! ).unwrap();
//!
//! let methods = r#"
//!     procedure set_tail_nil(x: Loc)
//!       requires x != nil && !(x in Br) && Br == {};
//!       ensures Br == {};
//!     {
//!       InferLCOutsideBr(x);
//!       Mut(x, next, nil);
//!       Mut(x, length, 1);
//!       AssertLCAndRemove(x);
//!     }
//! "#;
//! let report = verify_method(&ids, methods, "set_tail_nil", PipelineConfig::default()).unwrap();
//! assert!(report.outcome.is_verified());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fwyb;
pub mod ghost;
pub mod ids;
pub mod impact;
pub mod pipeline;
pub mod report;
pub mod wellbehaved;

pub use ids::IntrinsicDefinition;
pub use pipeline::{verify_method, MethodReport, PipelineConfig};
