//! The front end's identities: what a method's preparation produces does not
//! depend on whether its structure was expanded for it alone
//! (`prepare_method_in`) or once for all its methods (`ExpandedStructure`,
//! the driver's path), and the CI slice's cache keys are the ones the
//! committed baseline ledger recorded.

use intrinsic_verify::core::pipeline::{
    load_methods, prepare_method_in, ExpandedStructure, MethodTask, PipelineConfig,
};
use intrinsic_verify::core::IntrinsicDefinition;
use intrinsic_verify::driver::ledger;
use intrinsic_verify::smt::{structural_hashes, TermId};
use intrinsic_verify::structures::{all_benchmarks, buggy, lists};
use intrinsic_verify::vcgen::Encoding;

/// Every structure of the registry plus the buggy fixtures, each as its
/// definition, its methods file and the methods to prepare.
fn corpus() -> Vec<(IntrinsicDefinition, &'static str, Vec<String>)> {
    let mut out: Vec<_> = all_benchmarks()
        .into_iter()
        .map(|b| (b.definition, b.methods_src, b.methods))
        .collect();
    for src in [
        buggy::BUGGY_LIST_METHODS,
        buggy::ILL_BEHAVED_METHODS,
        GHOST_LEAK,
    ] {
        let program = intrinsic_verify::ivl::parse_program(src).unwrap();
        let methods = program.procedures.iter().map(|p| p.name.clone()).collect();
        out.push((lists::singly_linked_list(), src, methods));
    }
    out
}

/// A method that copies ghost data into a user variable.
const GHOST_LEAK: &str = r#"
procedure leak(x: Loc) returns (k: Int)
  requires Br == {} && x != nil;
  ensures Br == {};
{
  k := x.length;
}
"#;

/// A methods file whose expansion fails (an unknown macro in `frob`), with
/// a well-behaved and an ill-behaved method besides.
const EXPANSION_ERROR: &str = r#"
procedure fine(x: Loc)
  requires Br == {} && x != nil;
  ensures Br == {};
{
  InferLCOutsideBr(x);
  AssertLCAndRemove(x);
}
procedure raw(x: Loc)
{
  x.next := nil;
}
procedure frob(x: Loc)
{
  Frobnicate(x);
}
"#;

/// The two tasks are the same preparation: VCs, hypotheses, terms in the
/// same id order, keys and violations.
fn assert_same_task(a: &MethodTask, b: &MethodTask, at: &str) {
    assert_eq!(a.structure, b.structure, "{at}");
    assert_eq!(a.method, b.method, "{at}");
    assert_eq!(a.encoding, b.encoding, "{at}");
    assert_eq!(a.num_vcs(), b.num_vcs(), "{at}");
    for (va, vb) in a.vcs.iter().zip(&b.vcs) {
        assert_eq!(va.description, vb.description, "{at}");
        assert_eq!(va.n_hyps, vb.n_hyps, "{at}: {}", va.description);
        assert_eq!(
            (va.formula, va.guard, va.goal),
            (vb.formula, vb.guard, vb.goal),
            "{at}: {}",
            va.description
        );
    }
    assert_eq!(a.vc_keys(), b.vc_keys(), "{at}");
    assert_eq!(a.hypotheses, b.hypotheses, "{at}");
    assert_eq!(
        structural_hashes(&a.tm, &a.hypotheses),
        structural_hashes(&b.tm, &b.hypotheses),
        "{at}"
    );
    assert_eq!(a.tm.len(), b.tm.len(), "{at}");
    for i in 0..a.tm.len() as u32 {
        assert_eq!(a.tm.term(TermId(i)), b.tm.term(TermId(i)), "{at}: term {i}");
    }
    assert_eq!(a.wellbehaved_violations, b.wellbehaved_violations, "{at}");
    assert_eq!(a.ghost_violations, b.ghost_violations, "{at}");
    assert_eq!(
        (a.loc, a.spec, a.annotations, a.lc_size),
        (b.loc, b.spec, b.annotations, b.lc_size),
        "{at}"
    );
}

#[test]
fn per_structure_preparation_matches_prepare_method_in() {
    let mut wellbehaved = 0;
    let mut ghost = 0;
    for (definition, src, methods) in corpus() {
        let merged = load_methods(&definition, src).unwrap();
        let structure = ExpandedStructure::new(&definition, &merged);
        for encoding in [Encoding::Decidable, Encoding::Quantified] {
            let config = PipelineConfig {
                encoding,
                ..PipelineConfig::default()
            };
            for m in &methods {
                let at = format!("{} {m} {encoding:?}", definition.name);
                let shared = structure.prepare(m, config).unwrap();
                let alone = prepare_method_in(&definition, &merged, m, config).unwrap();
                assert_same_task(&shared, &alone, &at);
                wellbehaved += shared.wellbehaved_violations.len();
                ghost += shared.ghost_violations.len();
            }
        }
    }
    // The fixtures do exercise the violation lists.
    assert!(wellbehaved > 0 && ghost > 0, "{wellbehaved} {ghost}");
}

#[test]
fn per_structure_preparation_reports_the_same_errors() {
    let definition = lists::singly_linked_list();
    let merged = load_methods(&definition, EXPANSION_ERROR).unwrap();
    let structure = ExpandedStructure::new(&definition, &merged);
    let lenient = PipelineConfig::default();
    let strict = PipelineConfig {
        strict_wellbehaved: true,
        ..lenient
    };
    // The precedence: no such method, then strict well-behavedness, then
    // the structure's expansion error, which every method then reports.
    for (method, config, expected) in [
        ("nope", lenient, "NoSuchMethod"),
        ("nope", strict, "NoSuchMethod"),
        ("raw", strict, "NotWellBehaved"),
        ("raw", lenient, "Expand(UnknownMacro"),
        ("fine", strict, "Expand(UnknownMacro"),
        ("frob", lenient, "Expand(UnknownMacro"),
    ] {
        let shared = structure.prepare(method, config).map(|_| ()).unwrap_err();
        let alone = prepare_method_in(&definition, &merged, method, config)
            .map(|_| ())
            .unwrap_err();
        let (shared, alone) = (format!("{shared:?}"), format!("{alone:?}"));
        assert_eq!(shared, alone, "{method}");
        assert!(shared.starts_with(expected), "{method}: {shared}");
    }
}

#[test]
fn ci_slice_keys_match_the_committed_baseline() {
    // The cache keys and descriptions of the CI slice, as the committed
    // baseline ledger recorded them: a change to VC generation or hashing
    // that moves a key orphans every cached verdict and every ledger join.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/baseline-ledger.jsonl");
    let runs = ledger::load_runs(std::path::Path::new(path)).unwrap();
    let baseline = &runs.last().expect("a baseline run").vcs;
    assert_eq!(baseline.len(), 23);

    let definition = lists::singly_linked_list();
    let merged = load_methods(&definition, lists::SINGLY_LINKED_LIST_METHODS).unwrap();
    let structure = ExpandedStructure::new(&definition, &merged);
    let config = PipelineConfig::default();
    let mut checked = 0;
    for method in ["set_key", "delete_front", "find", "insert_front"] {
        let shared = structure.prepare(method, config).unwrap();
        let alone = prepare_method_in(&definition, &merged, method, config).unwrap();
        for task in [&shared, &alone] {
            let recorded: Vec<_> = baseline.iter().filter(|e| e.method == method).collect();
            assert_eq!(recorded.len(), task.num_vcs(), "{method}");
            for entry in recorded {
                let vi = entry.vc_index as usize;
                assert_eq!(entry.structure, task.structure, "{method} vc {vi}");
                assert_eq!(
                    entry.description, task.vcs[vi].description,
                    "{method} vc {vi}"
                );
                assert_eq!(
                    format!("{:032x}", task.vc_key(vi)),
                    format!("{:032x}", entry.key),
                    "{method} vc {vi}: {}",
                    entry.description
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 23);
}
