//! SMT-LIB 2 rendering of terms (a `Model` renders its atoms with it) and
//! the quantifier-free check `IncrementalSolver` applies to each assertion.

use crate::term::{Op, TermId, TermManager};

/// Renders a single term to SMT-LIB 2 concrete syntax.
pub fn term_to_smtlib(tm: &TermManager, t: TermId) -> String {
    let term = tm.term(t);
    let args = || -> Vec<String> {
        term.args
            .iter()
            .map(|&a| term_to_smtlib(tm, a))
            .collect::<Vec<_>>()
    };
    let nary = |head: &str| -> String { format!("({} {})", head, args().join(" ")) };
    match &term.op {
        Op::True => "true".into(),
        Op::False => "false".into(),
        Op::Var(name) => sanitize(name),
        Op::IntLit(n) => {
            if *n < 0 {
                format!("(- {})", -n)
            } else {
                format!("{}", n)
            }
        }
        Op::RealLit(r) => {
            if r.denom() == 1 {
                format!("{}.0", r.numer())
            } else {
                format!("(/ {}.0 {}.0)", r.numer(), r.denom())
            }
        }
        Op::Not => nary("not"),
        Op::And => nary("and"),
        Op::Or => nary("or"),
        Op::Implies => nary("=>"),
        Op::Iff => nary("="),
        Op::Ite => nary("ite"),
        Op::Eq => nary("="),
        Op::Distinct => nary("distinct"),
        Op::Add => nary("+"),
        Op::Sub => nary("-"),
        Op::Neg => nary("-"),
        Op::MulConst(k) => {
            let inner = term_to_smtlib(tm, term.args[0]);
            if k.denom() == 1 {
                format!("(* {} {})", k.numer(), inner)
            } else {
                format!("(* (/ {} {}) {})", k.numer(), k.denom(), inner)
            }
        }
        Op::Le => nary("<="),
        Op::Lt => nary("<"),
        Op::Select => nary("select"),
        Op::Store => nary("store"),
        Op::EmptySet(_) => "emptyset".into(),
        Op::Singleton => nary("singleton"),
        Op::Union => nary("union"),
        Op::Inter => nary("intersection"),
        Op::Diff => nary("setminus"),
        Op::Member => nary("member"),
        Op::Subset => nary("subset"),
        Op::MapIte => nary("map-ite"),
        Op::App(name) => {
            if term.args.is_empty() {
                sanitize(name)
            } else {
                format!("({} {})", sanitize(name), args().join(" "))
            }
        }
        Op::Forall(bound) => {
            let binders: Vec<String> = bound
                .iter()
                .map(|(n, s)| format!("({} {})", sanitize(n), s))
                .collect();
            format!(
                "(forall ({}) {})",
                binders.join(" "),
                term_to_smtlib(tm, term.args[0])
            )
        }
    }
}

fn sanitize(name: &str) -> String {
    if name
        .chars()
        .all(|c| c.is_alphanumeric() || c == '_' || c == '.' || c == '!' || c == '$')
    {
        name.to_string()
    } else {
        format!("|{}|", name)
    }
}

/// Returns true if the rendered assertions contain no quantifiers or lambda
/// binders — the check the paper performs on Boogie's SMT output. A manager
/// that holds no `forall` ([`TermManager::has_quantifiers`]) answers at
/// once; otherwise the roots are walked.
pub fn is_quantifier_free(tm: &TermManager, roots: &[TermId]) -> bool {
    !tm.has_quantifiers()
        || tm
            .subterms(roots)
            .iter()
            .all(|&t| !matches!(tm.term(t).op, Op::Forall(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn quantifier_detection() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let p = tm.app("p", vec![x], Sort::Bool);
        assert!(is_quantifier_free(&tm, &[p]));
        let q = tm.forall(vec![("x".into(), Sort::Loc)], p);
        assert!(!is_quantifier_free(&tm, &[q]));
    }

    #[test]
    fn negative_literals_and_rationals() {
        let mut tm = TermManager::new();
        let n = tm.int(-5);
        let r = tm.real(crate::Rat::new(1, 2));
        let e = tm.eq(n, n);
        let _ = e;
        assert_eq!(term_to_smtlib(&tm, n), "(- 5)");
        assert_eq!(term_to_smtlib(&tm, r), "(/ 1.0 2.0)");
    }
}
