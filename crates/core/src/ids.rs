//! Intrinsic definitions of data structures (Definition 2.4 of the paper).
//!
//! An intrinsic definition consists of ghost *monadic maps* `G` (unary maps
//! from locations to values — ghost fields), a quantifier-free *local
//! condition* `LC(x)` constraining a location and its one-hop neighbours, a
//! *correlation formula* `φ(y)` characterising the entry points of the data
//! structure, and, for the FWYB methodology, a declared *impact set* per
//! mutable field: the locations whose local condition may be broken when that
//! field of `x` is mutated.
//!
//! Definitions are written with the IVL expression syntax over a
//! distinguished free variable `x` (for `LC`) / the declared parameters (for
//! `φ`); field reads like `x.next.length` play the role of the monadic map
//! applications of the paper.

use std::collections::BTreeMap;

use ids_ivl::{parse_expr, parse_program, BinOp, Expr, FieldDecl, ParseError, Program};

/// An intrinsic definition `(G, LC, φ)` plus the FWYB impact-set table.
#[derive(Clone, Debug)]
pub struct IntrinsicDefinition {
    /// Name of the data structure (e.g. `"sorted-list"`).
    pub name: String,
    /// All field declarations: user fields `F` and ghost monadic maps `G`.
    pub fields: Vec<FieldDecl>,
    /// The local condition `LC(x)`, a quantifier-free formula over the free
    /// variable `x`.
    pub local_condition: Expr,
    /// Parameters of the correlation formula (usually one entry point).
    pub correlation_params: Vec<String>,
    /// The correlation formula `φ` over [`Self::correlation_params`].
    pub correlation: Expr,
    /// Impact sets: for each field name, the location terms (over `x`) whose
    /// local condition may be broken by mutating that field of `x`. Terms are
    /// included only when non-nil (the `Mut` expansion guards them).
    pub impact_sets: BTreeMap<String, Vec<Expr>>,
    /// Optional second local condition and impact table, used for overlaid
    /// structures verified with two broken sets (`Br2`).
    pub secondary: Option<SecondaryCondition>,
}

/// A second local condition with its own broken set (`Br2`) and impact table,
/// used for overlaid data structures (§4.4).
#[derive(Clone, Debug)]
pub struct SecondaryCondition {
    /// The second local condition `LC2(x)`.
    pub local_condition: Expr,
    /// Impact sets for the second condition.
    pub impact_sets: BTreeMap<String, Vec<Expr>>,
}

/// Errors building an intrinsic definition.
#[derive(Clone, Debug)]
pub enum IdsError {
    /// A sub-expression failed to parse.
    Parse(ParseError),
    /// The declared fields failed to parse or are inconsistent.
    Fields(String),
}

impl std::fmt::Display for IdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdsError::Parse(e) => write!(f, "{}", e),
            IdsError::Fields(m) => write!(f, "field declaration error: {}", m),
        }
    }
}

impl std::error::Error for IdsError {}

impl From<ParseError> for IdsError {
    fn from(e: ParseError) -> Self {
        IdsError::Parse(e)
    }
}

impl IntrinsicDefinition {
    /// Builds an intrinsic definition from surface-syntax fragments.
    ///
    /// * `fields_src` — a sequence of `field …;` declarations (user and ghost),
    /// * `local_condition` — `LC(x)` over the free variable `x`,
    /// * `correlation_param` — the entry-point variable of `φ`,
    /// * `correlation` — `φ` over that variable,
    /// * `impact` — per-field impact sets, each a list of location expressions
    ///   over `x`.
    pub fn parse(
        name: &str,
        fields_src: &str,
        local_condition: &str,
        correlation_param: &str,
        correlation: &str,
        impact: &[(&str, &[&str])],
    ) -> Result<IntrinsicDefinition, IdsError> {
        let fields_program: Program = parse_program(fields_src)?;
        if fields_program.fields.is_empty() {
            return Err(IdsError::Fields("no fields declared".into()));
        }
        let lc = parse_expr(local_condition)?;
        let corr = parse_expr(correlation)?;
        let mut impact_sets = BTreeMap::new();
        for (field, terms) in impact {
            let mut exprs = Vec::new();
            for t in *terms {
                exprs.push(parse_expr(t)?);
            }
            impact_sets.insert(field.to_string(), exprs);
        }
        for field in impact_sets.keys() {
            if fields_program.field(field).is_none() {
                return Err(IdsError::Fields(format!(
                    "impact set declared for unknown field '{}'",
                    field
                )));
            }
        }
        Ok(IntrinsicDefinition {
            name: name.to_string(),
            fields: fields_program.fields,
            local_condition: lc,
            correlation_params: vec![correlation_param.to_string()],
            correlation: corr,
            impact_sets,
            secondary: None,
        })
    }

    /// Attaches a second local condition / impact table (overlaid structures).
    pub fn with_secondary(
        mut self,
        local_condition: &str,
        impact: &[(&str, &[&str])],
    ) -> Result<IntrinsicDefinition, IdsError> {
        let lc = parse_expr(local_condition)?;
        let mut impact_sets = BTreeMap::new();
        for (field, terms) in impact {
            let mut exprs = Vec::new();
            for t in *terms {
                exprs.push(parse_expr(t)?);
            }
            impact_sets.insert(field.to_string(), exprs);
        }
        self.secondary = Some(SecondaryCondition {
            local_condition: lc,
            impact_sets,
        });
        Ok(self)
    }

    /// The ghost monadic maps `G`.
    pub fn ghost_maps(&self) -> impl Iterator<Item = &FieldDecl> {
        self.fields.iter().filter(|f| f.ghost)
    }

    /// The user fields `F`.
    pub fn user_fields(&self) -> impl Iterator<Item = &FieldDecl> {
        self.fields.iter().filter(|f| !f.ghost)
    }

    /// A program containing only the field declarations, used as the prelude
    /// that benchmark method files are merged into.
    pub fn prelude(&self) -> Program {
        Program {
            fields: self.fields.clone(),
            procedures: Vec::new(),
        }
    }

    /// The number of conjuncts of the local condition (the "LC size" column of
    /// Table 2). Conjunctions are counted recursively through `&&` and the
    /// right-hand sides of implications.
    pub fn lc_size(&self) -> usize {
        fn count(e: &Expr) -> usize {
            match e {
                Expr::Binary(BinOp::And, a, b) => count(a) + count(b),
                Expr::Binary(BinOp::Implies, _, b) => count(b),
                _ => 1,
            }
        }
        let primary = count(&self.local_condition);
        let secondary = self
            .secondary
            .as_ref()
            .map(|s| count(&s.local_condition))
            .unwrap_or(0);
        primary + secondary
    }

    /// The impact set of a field for the primary condition, instantiated at
    /// the mutated object.
    pub fn impact_at(&self, field: &str, target: &Expr) -> Vec<Expr> {
        self.impact_sets
            .get(field)
            .map(|terms| {
                terms
                    .iter()
                    .map(|t| substitute_var(t, "x", target))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The impact set of a field for the secondary condition, instantiated at
    /// the mutated object.
    pub fn impact2_at(&self, field: &str, target: &Expr) -> Vec<Expr> {
        self.secondary
            .as_ref()
            .and_then(|s| s.impact_sets.get(field))
            .map(|terms| {
                terms
                    .iter()
                    .map(|t| substitute_var(t, "x", target))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Substitutes every free occurrence of the variable `name` in `e` by
/// `replacement`. VC generation instantiates definitions without building
/// this copy; it is the reference that instantiation is tested against.
pub fn substitute_var(e: &Expr, name: &str, replacement: &Expr) -> Expr {
    match e {
        Expr::Var(v) if v == name => replacement.clone(),
        Expr::BoolLit(_)
        | Expr::IntLit(_)
        | Expr::RealLit(_, _)
        | Expr::Nil
        | Expr::EmptySet(_)
        | Expr::Var(_) => e.clone(),
        Expr::Field(obj, f) => {
            Expr::Field(Box::new(substitute_var(obj, name, replacement)), f.clone())
        }
        Expr::Old(inner) => Expr::Old(Box::new(substitute_var(inner, name, replacement))),
        Expr::Unary(op, inner) => {
            Expr::Unary(*op, Box::new(substitute_var(inner, name, replacement)))
        }
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(substitute_var(a, name, replacement)),
            Box::new(substitute_var(b, name, replacement)),
        ),
        Expr::Ite(c, t, f) => Expr::Ite(
            Box::new(substitute_var(c, name, replacement)),
            Box::new(substitute_var(t, name, replacement)),
            Box::new(substitute_var(f, name, replacement)),
        ),
        Expr::Singleton(inner) => {
            Expr::Singleton(Box::new(substitute_var(inner, name, replacement)))
        }
        Expr::App(f, args) => Expr::App(
            f.clone(),
            args.iter()
                .map(|a| substitute_var(a, name, replacement))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_list_lite() -> IntrinsicDefinition {
        IntrinsicDefinition::parse(
            "sorted-list-lite",
            r#"
            field next: Loc;
            field key: Int;
            field ghost prev: Loc;
            field ghost length: Int;
            "#,
            "(x.next != nil ==> x.key <= x.next.key && x.next.prev == x && x.length == x.next.length + 1) \
             && (x.prev != nil ==> x.prev.next == x) \
             && (x.next == nil ==> x.length == 1)",
            "y",
            "y.prev == nil",
            &[
                ("next", &["x", "old(x.next)"]),
                ("key", &["x", "x.prev"]),
                ("prev", &["x", "old(x.prev)"]),
                ("length", &["x", "x.prev"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let ids = sorted_list_lite();
        assert_eq!(ids.ghost_maps().count(), 2);
        assert_eq!(ids.user_fields().count(), 2);
        assert_eq!(ids.lc_size(), 5);
        assert_eq!(ids.impact_sets.len(), 4);
    }

    /// `src` printed with its applications instantiated against `ids`.
    fn instantiated(ids: &IntrinsicDefinition, src: &str) -> String {
        let mut out = String::new();
        ids_ivl::printer::write_expr_in(&mut out, &parse_expr(src).unwrap(), ids);
        out
    }

    #[test]
    fn lc_instantiation_substitutes() {
        let printed = instantiated(&sorted_list_lite(), "LC(z)");
        assert!(printed.contains("z.next"));
        assert!(!printed.contains("x.next"));
    }

    #[test]
    fn correlation_instantiation() {
        let printed = instantiated(&sorted_list_lite(), "Phi(head)");
        assert_eq!(printed, "(head.prev == nil)");
    }

    #[test]
    fn impact_sets_instantiate_with_old() {
        let ids = sorted_list_lite();
        let at = ids.impact_at("next", &Expr::var("n"));
        let strs: Vec<String> = at.iter().map(ids_ivl::printer::expr_to_string).collect();
        assert_eq!(strs, vec!["n", "old(n.next)"]);
    }

    #[test]
    fn unknown_impact_field_rejected() {
        let bad = IntrinsicDefinition::parse(
            "bad",
            "field next: Loc;",
            "true",
            "y",
            "true",
            &[("nope", &["x"])],
        );
        assert!(bad.is_err());
    }
}
