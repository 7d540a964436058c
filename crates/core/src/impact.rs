//! Automatic correctness checking of declared impact sets (Appendix C).
//!
//! For every field `f` with declared impact set `A_f(x)` the paper checks the
//! Hoare triple
//!
//! ```text
//! { u ∉ A_f(x) ∧ LC(u) ∧ x ≠ nil }  x.f := v  { LC(u) }
//! ```
//!
//! i.e. mutating `x.f` cannot break the local condition of any location
//! outside the declared impact set. The triple is quantifier-free and
//! decidable; this module builds it as an IVL procedure and discharges it with
//! the standard pipeline. The paper reports these checks take under 3 seconds
//! per data structure; `ids-verify impact` reproduces that measurement over
//! the registry.

use std::time::{Duration, Instant};

use ids_ivl::{BinOp, Block, Expr, Lhs, Param, Procedure, Program, Stmt};
use ids_smt::TermManager;
use ids_vcgen::{Encoding, VcGen, VerifyOutcome};

use crate::ids::{substitute_var, IntrinsicDefinition};

/// The result of checking one field's impact set.
#[derive(Clone, Debug)]
pub struct ImpactCheckResult {
    /// The mutated field.
    pub field: String,
    /// Whether the check used the secondary local condition.
    pub secondary: bool,
    /// The verification outcome.
    pub outcome: VerifyOutcome,
    /// Wall-clock time of the check.
    pub duration: Duration,
}

impl ImpactCheckResult {
    /// True if the impact set was proved correct.
    pub fn is_correct(&self) -> bool {
        self.outcome.is_verified()
    }
}

/// Checks every declared impact set of the definition (primary and secondary).
pub fn check_impact_sets(ids: &IntrinsicDefinition, encoding: Encoding) -> Vec<ImpactCheckResult> {
    let mut results = Vec::new();
    for (field, terms) in &ids.impact_sets {
        results.push(check_one(
            ids,
            field,
            terms,
            &ids.local_condition,
            false,
            encoding,
        ));
    }
    if let Some(sec) = &ids.secondary {
        for (field, terms) in &sec.impact_sets {
            results.push(check_one(
                ids,
                field,
                terms,
                &sec.local_condition,
                true,
                encoding,
            ));
        }
    }
    results
}

fn strip_old(e: &Expr) -> Expr {
    match e {
        Expr::Old(inner) => strip_old(inner),
        Expr::Field(obj, f) => Expr::Field(Box::new(strip_old(obj)), f.clone()),
        _ => e.clone(),
    }
}

fn check_one(
    ids: &IntrinsicDefinition,
    field: &str,
    impact_terms: &[Expr],
    lc: &Expr,
    secondary: bool,
    encoding: Encoding,
) -> ImpactCheckResult {
    let start = Instant::now();
    let program = build_check_program(ids, field, impact_terms, lc);
    let mut tm = TermManager::new();
    let outcome = VcGen::new(&program, encoding)
        .verify(&mut tm, "impact_check")
        .unwrap_or(VerifyOutcome::Unknown {
            undecided: "vc generation failed".into(),
        });
    ImpactCheckResult {
        field: field.to_string(),
        secondary,
        outcome,
        duration: start.elapsed(),
    }
}

/// Builds the single-procedure program encoding the Appendix C triple.
fn build_check_program(
    ids: &IntrinsicDefinition,
    field: &str,
    impact_terms: &[Expr],
    lc: &Expr,
) -> Program {
    let field_decl = ids
        .fields
        .iter()
        .find(|f| f.name == field)
        .expect("impact set for a declared field");
    let xobj = Expr::var("xobj");
    let u = Expr::var("u");

    // requires xobj != nil && u != nil
    let mut requires = vec![
        Expr::bin(BinOp::Ne, xobj.clone(), Expr::Nil),
        Expr::bin(BinOp::Ne, u.clone(), Expr::Nil),
    ];
    // requires u ∉ A_f(xobj):  for each term t, u != t || t == nil
    for t in impact_terms {
        let inst = substitute_var(&strip_old(t), "x", &xobj);
        requires.push(Expr::bin(
            BinOp::Or,
            Expr::bin(BinOp::Ne, u.clone(), inst.clone()),
            Expr::bin(BinOp::Eq, inst, Expr::Nil),
        ));
    }
    // requires LC(u)
    requires.push(substitute_var(lc, "x", &u));
    // ensures LC(u)
    let ensures = vec![substitute_var(lc, "x", &u)];

    let body = Block {
        stmts: vec![Stmt::Assign {
            lhs: Lhs::Field("xobj".into(), field.to_string()),
            rhs: Expr::var("vval"),
        }],
    };
    let proc = Procedure {
        name: "impact_check".into(),
        params: vec![
            Param {
                name: "xobj".into(),
                ty: ids_ivl::Type::Loc,
                ghost: false,
            },
            Param {
                name: "u".into(),
                ty: ids_ivl::Type::Loc,
                ghost: false,
            },
            Param {
                name: "vval".into(),
                ty: field_decl.ty,
                ghost: false,
            },
        ],
        returns: vec![],
        requires,
        ensures,
        modifies: Some(Expr::Singleton(Box::new(xobj))),
        decreases: None,
        body: Some(body),
    };
    Program {
        fields: ids.fields.clone(),
        procedures: vec![proc],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_ids(impact_next: &[&str]) -> IntrinsicDefinition {
        IntrinsicDefinition::parse(
            "list",
            r#"
            field next: Loc;
            field ghost prev: Loc;
            field ghost length: Int;
            "#,
            "(x.next != nil ==> x.next.prev == x && x.length == x.next.length + 1) \
             && (x.prev != nil ==> x.prev.next == x) \
             && (x.next == nil ==> x.length == 1)",
            "y",
            "y.prev == nil",
            &[
                ("next", impact_next),
                ("prev", &["x", "old(x.prev)"]),
                ("length", &["x", "x.prev"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn correct_impact_sets_verify() {
        let ids = list_ids(&["x", "old(x.next)"]);
        let results = check_impact_sets(&ids, Encoding::Decidable);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.is_correct(), "field {} failed: {:?}", r.field, r.outcome);
        }
    }

    #[test]
    fn too_small_impact_set_is_rejected() {
        // Claiming that mutating `next` only impacts x itself is wrong: the
        // old successor's prev-link clause can break.
        let ids = list_ids(&["x"]);
        let results = check_impact_sets(&ids, Encoding::Decidable);
        let next_result = results.iter().find(|r| r.field == "next").unwrap();
        assert!(!next_result.is_correct());
    }
}
