//! Integration tests spanning the whole stack: IVL parsing → intrinsic
//! definition + FWYB expansion (`ids-core`) → VC generation (`ids-vcgen`) →
//! SMT solving (`ids-smt`), driven through the umbrella crate exactly as a
//! downstream user would.

use intrinsic_verify::core::ids::IntrinsicDefinition;
use intrinsic_verify::core::pipeline::{verify_method, PipelineConfig};
use intrinsic_verify::core::{fwyb, ghost, impact, wellbehaved};
use intrinsic_verify::smt::{SatResult, Solver, Sort, TermManager};
use intrinsic_verify::vcgen::{Encoding, VcGen};

fn two_field_list() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "it-list",
        r#"
        field next: Loc;
        field key: Int;
        field ghost prev: Loc;
        field ghost length: Int;
        "#,
        "(x.next != nil ==> x.next.prev == x && x.length == x.next.length + 1) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1) \
         && x.length >= 1",
        "y",
        "y.prev == nil",
        &[
            ("next", &["x", "old(x.next)"]),
            ("key", &["x"]),
            ("prev", &["x", "old(x.prev)"]),
            ("length", &["x", "x.prev"]),
        ],
    )
    .unwrap()
}

const PUSH: &str = r#"
procedure push(x: Loc, k: Int) returns (r: Loc)
  requires Br == {} && x != nil && x.prev == nil;
  ensures Br == {} && r != nil && r.prev == nil;
  ensures r.length == old(x.length) + 1;
  modifies {x};
{
  InferLCOutsideBr(x);
  var z: Loc;
  NewObj(z);
  Mut(z, key, k);
  Mut(z, next, x);
  Mut(z, prev, nil);
  Mut(z, length, x.length + 1);
  Mut(x, prev, z);
  AssertLCAndRemove(z);
  AssertLCAndRemove(x);
  r := z;
}
"#;

#[test]
fn full_pipeline_verifies_push() {
    let report = verify_method(&two_field_list(), PUSH, "push", PipelineConfig::default()).unwrap();
    assert!(report.outcome.is_verified(), "{:?}", report.outcome);
    assert!(report.num_vcs >= 5);
    assert!(report.wellbehaved_violations.is_empty());
    assert!(report.ghost_violations.is_empty());
}

#[test]
fn pipeline_rejects_wrong_functional_spec() {
    let wrong = PUSH.replace("old(x.length) + 1", "old(x.length) + 2");
    let report =
        verify_method(&two_field_list(), &wrong, "push", PipelineConfig::default()).unwrap();
    assert!(!report.outcome.is_verified());
}

#[test]
fn quantified_encoding_is_supported_but_distinct() {
    let ids = two_field_list();
    let merged = intrinsic_verify::core::pipeline::load_methods(&ids, PUSH).unwrap();
    let expanded = fwyb::expand_program(&ids, &merged).unwrap();
    let mut tm = TermManager::new();
    let dec_vcs = VcGen::new(&expanded, Encoding::Decidable)
        .vcs_for(&mut tm, "push")
        .unwrap();
    let formulas: Vec<_> = dec_vcs.iter().map(|v| v.formula).collect();
    let profile = intrinsic_verify::vcgen::theory_profile(&tm, &formulas);
    assert!(profile.is_decidable_fragment());
    assert!(profile.sets && profile.arrays && profile.arithmetic);
}

#[test]
fn impact_sets_checked_across_crates() {
    let results = impact::check_impact_sets(&two_field_list(), Encoding::Decidable);
    assert_eq!(results.len(), 4);
    assert!(results.iter().all(|r| r.is_correct()));
}

#[test]
fn discipline_checks_catch_rule_breaking() {
    let ids = two_field_list();
    let raw = r#"
        procedure sneaky(x: Loc, y: Loc)
          requires Br == {};
          ensures Br == {};
        {
          x.next := y;
          assume x.length == 1;
        }
    "#;
    let merged = intrinsic_verify::core::pipeline::load_methods(&ids, raw).unwrap();
    let violations = wellbehaved::check_program(&merged);
    assert_eq!(violations.len(), 2);
}

#[test]
fn projection_yields_macro_free_user_code() {
    let ids = two_field_list();
    let merged = intrinsic_verify::core::pipeline::load_methods(&ids, PUSH).unwrap();
    let user = ghost::project(&merged);
    let printed = intrinsic_verify::ivl::program_to_string(&user);
    assert!(printed.contains("z.next := x"));
    assert!(!printed.contains("length"));
    assert!(!printed.contains("Br"));
    assert!(!printed.contains("assert"));
}

#[test]
fn smt_backend_is_usable_directly() {
    // The decidable backend is a public, reusable component: EUF + arithmetic
    // + sets + arrays in one query.
    let mut tm = TermManager::new();
    let set = Sort::set_of(Sort::Loc);
    let s = tm.var("S", set);
    let x = tm.var("x", Sort::Loc);
    let y = tm.var("y", Sort::Loc);
    let len = tm.var("len", Sort::array_of(Sort::Loc, Sort::Int));
    let in_s = tm.member(x, s);
    let eq = tm.eq(x, y);
    let not_in = {
        let m = tm.member(y, s);
        tm.not(m)
    };
    let mut solver = Solver::new();
    assert_eq!(solver.check(&mut tm, &[in_s, eq, not_in]), SatResult::Unsat);

    let lx = tm.select(len, x);
    let one = tm.int(1);
    let upd = tm.store(len, x, one);
    let sel = tm.select(upd, x);
    let two = tm.int(2);
    let bad = tm.eq(sel, two);
    let _ = lx;
    let mut solver2 = Solver::new();
    assert_eq!(solver2.check(&mut tm, &[bad]), SatResult::Unsat);
}

/// The batch solver is deterministic: two fresh `Solver`s on one quantified
/// VC (SLL `set_key`, VC 1) make the same search. Its theory checker's atom
/// order must not follow a hash map's iteration order, which differs per
/// map even within one process.
#[test]
fn batch_solver_searches_identically_on_a_quantified_vc() {
    use intrinsic_verify::core::pipeline::{load_methods, prepare_method_in};
    use intrinsic_verify::structures::lists;

    let ids = lists::singly_linked_list();
    let merged = load_methods(&ids, lists::SINGLY_LINKED_LIST_METHODS).unwrap();
    let config = PipelineConfig {
        encoding: Encoding::Quantified,
        ..PipelineConfig::default()
    };
    let task = prepare_method_in(&ids, &merged, "set_key", config).unwrap();
    let run = || {
        let r = task.check_vc(1);
        let s = r.stats;
        (
            r.verdict,
            s.sat_decisions,
            s.sat_conflicts,
            s.theory_rounds,
            s.pivots,
        )
    };
    let first = run();
    assert!(first.1 > 0, "the VC must need a search: {first:?}");
    assert_eq!(
        first,
        run(),
        "(verdict, decisions, conflicts, rounds, pivots)"
    );
}
