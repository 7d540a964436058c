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

/// One prepared method as [`prepared_front_end_is_pinned`] records it:
/// structure, method, encoding, then the VC, hypothesis and term counts, a
/// fold of each VC's key, description, hypothesis count and term ids with
/// the hypothesis ids, and a fold of every term's structural hash in id
/// order.
type PinRow = (
    &'static str,
    &'static str,
    &'static str,
    usize,
    usize,
    usize,
    u64,
    u64,
);

/// Folds 64-bit words into one: a change to any word, or to their order,
/// changes the fold.
fn fold(acc: u64, word: u64) -> u64 {
    (acc ^ word)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(29)
}

fn fold_u128(acc: u64, x: u128) -> u64 {
    fold(fold(acc, x as u64), (x >> 64) as u64)
}

/// The row of one prepared task (see [`PinRow`]).
fn pin_row(task: &MethodTask) -> (usize, usize, usize, u64, u64) {
    let mut vcs = 0;
    for (vc, &key) in task.vcs.iter().zip(task.vc_keys()) {
        vcs = fold_u128(vcs, key);
        for b in vc.description.bytes() {
            vcs = fold(vcs, u64::from(b));
        }
        vcs = fold(vcs, vc.n_hyps as u64);
        for t in [vc.formula, vc.guard, vc.goal] {
            vcs = fold(vcs, u64::from(t.0));
        }
    }
    for h in &task.hypotheses {
        vcs = fold(vcs, u64::from(h.0));
    }
    let all: Vec<TermId> = (0..task.tm.len() as u32).map(TermId).collect();
    let terms = structural_hashes(&task.tm, &all)
        .into_iter()
        .fold(0, fold_u128);
    (
        task.num_vcs(),
        task.hypotheses.len(),
        task.tm.len(),
        vcs,
        terms,
    )
}

#[test]
fn prepared_front_end_is_pinned() {
    // Every registry method and fixture under both encodings, through the
    // driver's path: a front-end change that must keep its output (terms,
    // their creation order, keys, descriptions) has to keep every row. A
    // deliberate change to what the front end produces updates the table
    // from the printed observation.
    let mut observed = Vec::new();
    for (definition, src, methods) in corpus() {
        let merged = load_methods(&definition, src).unwrap();
        let structure = ExpandedStructure::new(&definition, &merged);
        for encoding in [Encoding::Decidable, Encoding::Quantified] {
            let config = PipelineConfig {
                encoding,
                ..PipelineConfig::default()
            };
            for m in &methods {
                let task = structure.prepare(m, config).unwrap();
                let enc = match encoding {
                    Encoding::Decidable => "decidable",
                    Encoding::Quantified => "quantified",
                };
                observed.push((definition.name.clone(), m.clone(), enc, pin_row(&task)));
            }
        }
    }
    let same = observed.len() == PINNED.len()
        && observed.iter().zip(PINNED).all(|((s, m, e, row), pin)| {
            (s.as_str(), m.as_str(), *e) == (pin.0, pin.1, pin.2)
                && *row == (pin.3, pin.4, pin.5, pin.6, pin.7)
        });
    if !same {
        let mut table = String::new();
        for (s, m, e, (vcs, hyps, terms, vc_fold, term_fold)) in &observed {
            table.push_str(&format!(
                "    ({s:?}, {m:?}, {e:?}, {vcs}, {hyps}, {terms}, {vc_fold:#018x}, {term_fold:#018x}),\n"
            ));
        }
        panic!("the prepared front end moved; observed:\n{table}");
    }
}

/// [`prepared_front_end_is_pinned`]'s table.
#[rustfmt::skip]
const PINNED: &[PinRow] = &[
    ("Singly-Linked List", "insert_front", "decidable", 7, 83, 313, 0x6cf49e666307097c, 0x21196d2394b2df68),
    ("Singly-Linked List", "insert_back", "decidable", 15, 166, 569, 0x2d3fdd15e07f809d, 0x486e709c39227b25),
    ("Singly-Linked List", "find", "decidable", 4, 30, 147, 0x1e6857628f1be53a, 0x0650d574b4dbf984),
    ("Singly-Linked List", "append_node", "decidable", 9, 107, 338, 0x03d67dfa22ccb3be, 0x135598086bfebda7),
    ("Singly-Linked List", "set_key", "decidable", 4, 49, 132, 0x1e7d8502191e7619, 0x7e9faeab1c261098),
    ("Singly-Linked List", "delete_front", "decidable", 8, 98, 308, 0x79265615a98f90bf, 0xc0a372194458178d),
    ("Singly-Linked List", "insert_front", "quantified", 7, 83, 313, 0x554de771af7f4043, 0x21196d2394b2df68),
    ("Singly-Linked List", "insert_back", "quantified", 15, 172, 606, 0x95471fddbc19c132, 0x817f8cf2eaac2933),
    ("Singly-Linked List", "find", "quantified", 4, 36, 184, 0xa8c2859accf5b7ba, 0xea64fd8afb9bd652),
    ("Singly-Linked List", "append_node", "quantified", 9, 107, 338, 0x2facf82bf49f056c, 0x135598086bfebda7),
    ("Singly-Linked List", "set_key", "quantified", 4, 49, 132, 0x6759c8a6c9432fca, 0x7e9faeab1c261098),
    ("Singly-Linked List", "delete_front", "quantified", 8, 98, 308, 0xe50d083a3e00980d, 0xc0a372194458178d),
    ("Sorted List", "sorted_insert", "decidable", 18, 295, 1100, 0x899579bb5ef22c40, 0x55479ec53b4883fb),
    ("Sorted List", "sorted_find", "decidable", 4, 31, 150, 0xe771531c13ab2fad, 0xa236af979f84eca7),
    ("Sorted List", "sorted_insert", "quantified", 18, 301, 1137, 0xe09a27fbde789940, 0x44f9f3de92c5ab68),
    ("Sorted List", "sorted_find", "quantified", 4, 37, 187, 0x8e6f59f49d0b6ccc, 0xe6ecd116bb1db691),
    ("Sorted List (w. min, max)", "concatenate", "decidable", 7, 121, 399, 0x12151f26f0978826, 0x0188a3545724dbe5),
    ("Sorted List (w. min, max)", "find_last", "decidable", 3, 28, 107, 0xb7e116eaf3e2e8da, 0xe9e78c504a93142f),
    ("Sorted List (w. min, max)", "concatenate", "quantified", 7, 121, 399, 0xf0333e2990964564, 0x0188a3545724dbe5),
    ("Sorted List (w. min, max)", "find_last", "quantified", 3, 28, 107, 0x4e10713afb378102, 0xe9e78c504a93142f),
    ("Circular List", "rotate_entry", "decidable", 3, 27, 100, 0x8cc650ba68ab00e7, 0x3e97af9820c49c32),
    ("Circular List", "set_node_key", "decidable", 3, 42, 111, 0xc4561bc3ec3dddf5, 0x79c663b9fb23465b),
    ("Circular List", "rotate_entry", "quantified", 3, 27, 100, 0x238a44c15ee8a3f7, 0x3e97af9820c49c32),
    ("Circular List", "set_node_key", "quantified", 3, 42, 111, 0xfc1d7172ea28823d, 0x79c663b9fb23465b),
    ("Binary Search Tree", "bst_find", "decidable", 5, 43, 237, 0x2861738e3e8bc5c8, 0x8f2aaad1fe417657),
    ("Binary Search Tree", "bst_find_min", "decidable", 4, 37, 152, 0xcc6d887cfcfb7bd2, 0xa00af44dd1e85015),
    ("Binary Search Tree", "bst_right_rotate", "decidable", 10, 354, 818, 0x2b09d1d1973682eb, 0x91f496c08382f5d8),
    ("Binary Search Tree", "bst_find", "quantified", 5, 57, 309, 0xe7aad99853d4d8df, 0xceb1dbacfda9ad0c),
    ("Binary Search Tree", "bst_find_min", "quantified", 4, 44, 194, 0xcf6c8dd904e79abd, 0xc9c33fd1cb8277cd),
    ("Binary Search Tree", "bst_right_rotate", "quantified", 10, 354, 818, 0x3db8a695553c6908, 0x91f496c08382f5d8),
    ("Treap", "treap_find", "decidable", 5, 47, 255, 0xf2d39a0d3e842284, 0xb24597fe2e5a2602),
    ("Treap", "treap_raise_root_priority", "decidable", 5, 217, 338, 0x0df36abbf0445a1d, 0x42392c148946d248),
    ("Treap", "treap_find", "quantified", 5, 63, 336, 0x566a392cdc00edad, 0x6580ba77923faf7d),
    ("Treap", "treap_raise_root_priority", "quantified", 5, 217, 338, 0xe7630b58df559fb2, 0x42392c148946d248),
    ("AVL Tree", "avl_find_min", "decidable", 4, 59, 195, 0x44b12ed6432cfd48, 0xd4dff5a396457f7d),
    ("AVL Tree", "avl_find", "decidable", 5, 65, 285, 0xcf5922f45ad6f5aa, 0xe964a17324e30108),
    ("AVL Tree", "avl_find_min", "quantified", 4, 67, 242, 0xb9e8151e8c842621, 0xb370db2b4b5c2e3f),
    ("AVL Tree", "avl_find", "quantified", 5, 81, 366, 0xd4c6c5c194f7f3e3, 0xf78bb220287d7025),
    ("Red-Black Tree", "rb_find", "decidable", 5, 58, 296, 0x9dd7f8f3310b4854, 0x78e167cb93e06d96),
    ("Red-Black Tree", "rb_find_min", "decidable", 4, 52, 201, 0x7fe376240d985c7f, 0x7cac18c7cf43863e),
    ("Red-Black Tree", "rb_blacken_root", "decidable", 3, 89, 203, 0x44fdf3fef5ef26c4, 0x44ab43af91d652bf),
    ("Red-Black Tree", "rb_find", "quantified", 5, 76, 386, 0x97f308129dbab27a, 0xfd9011fa62335a3d),
    ("Red-Black Tree", "rb_find_min", "quantified", 4, 61, 253, 0x56c68f8a87258223, 0xc73bf9789cd299f2),
    ("Red-Black Tree", "rb_blacken_root", "quantified", 3, 89, 203, 0xcf7cee55afac18c9, 0x44ab43af91d652bf),
    ("BST+Scaffolding", "scaffolding_of", "decidable", 3, 45, 141, 0x090e92088de1136a, 0xb6c81a71b476e2ed),
    ("BST+Scaffolding", "scaffolding_of", "quantified", 3, 45, 141, 0x888e00448f20405d, 0xb6c81a71b476e2ed),
    ("Scheduler Queue (overlaid SLL+BST)", "peek_request", "decidable", 4, 65, 209, 0xdd576b10041ef6e0, 0xc099bf25c7d3618a),
    ("Scheduler Queue (overlaid SLL+BST)", "update_single_request", "decidable", 5, 140, 294, 0x12b957ea6b41a98b, 0x9126b3e99a2e0083),
    ("Scheduler Queue (overlaid SLL+BST)", "peek_request", "quantified", 4, 65, 209, 0x6b5db05692aae3b5, 0xc099bf25c7d3618a),
    ("Scheduler Queue (overlaid SLL+BST)", "update_single_request", "quantified", 5, 140, 294, 0xa2359ffecdfd9232, 0x9126b3e99a2e0083),
    ("Singly-Linked List", "insert_front_forgets_length", "decidable", 4, 75, 295, 0xd608d43b80e1c60c, 0x504e168a53677b59),
    ("Singly-Linked List", "leaves_broken_set_nonempty", "decidable", 1, 7, 35, 0x80a8d01f8b06de4c, 0x1124870fb9ba1374),
    ("Singly-Linked List", "wrong_keys_postcondition", "decidable", 4, 49, 134, 0xd39a51efce82dde7, 0x80e30421d727072f),
    ("Singly-Linked List", "insert_front_forgets_length", "quantified", 4, 75, 295, 0xfc92c2fd98fccd50, 0x504e168a53677b59),
    ("Singly-Linked List", "leaves_broken_set_nonempty", "quantified", 1, 7, 35, 0x0f65bdfe09e18846, 0x1124870fb9ba1374),
    ("Singly-Linked List", "wrong_keys_postcondition", "quantified", 4, 49, 134, 0x28f85417e2bed9d9, 0x80e30421d727072f),
    ("Singly-Linked List", "raw_mutation", "decidable", 1, 5, 25, 0xe0834e50f819a584, 0xe9db24e3aca5426e),
    ("Singly-Linked List", "raw_mutation", "quantified", 1, 5, 25, 0x08afb52cc16127f0, 0xe9db24e3aca5426e),
    ("Singly-Linked List", "leak", "decidable", 1, 5, 25, 0x996648760c7c29e1, 0xc35dc18cc9fac24f),
    ("Singly-Linked List", "leak", "quantified", 1, 5, 25, 0x6e21692d75c27c31, 0xc35dc18cc9fac24f),
];
