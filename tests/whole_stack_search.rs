//! The whole stack's search, pinned: lowering, CNF, the SAT core and the
//! theories together, on two pools run as `ids-verify suite --jobs 1` runs
//! them. One is the CI slice (SLL `insert_front`, `find`, `set_key` and
//! `delete_front`) through one `StructureSession` in registry order; the
//! other is BST `bst_right_rotate` alone in its own session, the registry's
//! heaviest arithmetic method, whose conflicts run through the simplex at
//! propagation fixpoints.
//!
//! Like `crates/smt/tests/sat_props.rs`'s `PINNED_COUNTS`, the tables are a
//! contract: a constant-factor change anywhere in the stack (lowering,
//! clausification, the SAT core, the online theory layer) must leave every
//! row unchanged, and a deliberate change to the search updates the tables
//! in the same commit, saying why. A failure prints the observed table in
//! the table's own format.

use intrinsic_verify::core::ids::IntrinsicDefinition;
use intrinsic_verify::core::pipeline::{
    load_methods, ExpandedStructure, MethodTask, PipelineConfig, StructureSession, VcVerdict,
};
use intrinsic_verify::structures::{lists, trees};

/// One VC's search: method, VC index, verdict, decisions, conflicts,
/// propagations, theory rounds, pivots, atoms, initial clauses, theory
/// propagations and shared equalities.
type Row = (&'static str, usize, VcVerdict, [u64; 9]);

/// The slice's methods in registry order, the order the driver's structure
/// pool runs them in.
const METHODS: [&str; 4] = ["insert_front", "find", "set_key", "delete_front"];

use VcVerdict::Valid;

/// Recorded while axiom instances were still asserted as terms; their
/// clausal form left every row unchanged. Rows `delete_front` 4–7 each
/// gained one theory propagation when the pool began to roll its term
/// manager back with each method scope: the terms the earlier methods'
/// checks create no longer renumber the later methods' terms.
#[rustfmt::skip]
const PINNED: [Row; 23] = [
    ("insert_front", 0, Valid, [7, 0, 29, 0, 0, 18, 26, 1, 0]),
    ("insert_front", 1, Valid, [127, 2, 852, 1, 7, 1643, 1912, 380, 80]),
    ("insert_front", 2, Valid, [1367, 25, 6150, 21, 29, 2340, 2907, 2835, 403]),
    ("insert_front", 3, Valid, [128, 1, 1719, 0, 17, 5054, 8380, 696, 122]),
    ("insert_front", 4, Valid, [78, 0, 1379, 0, 17, 5057, 8383, 636, 122]),
    ("insert_front", 5, Valid, [79, 0, 1384, 0, 17, 5097, 8468, 637, 122]),
    ("insert_front", 6, Valid, [82, 0, 1413, 0, 17, 5244, 8869, 664, 122]),
    ("find", 0, Valid, [4, 0, 18, 0, 0, 10, 15, 0, 0]),
    ("find", 1, Valid, [46, 1, 118, 0, 0, 126, 245, 0, 0]),
    ("find", 2, Valid, [30, 1, 131, 0, 0, 266, 573, 0, 0]),
    ("find", 3, Valid, [35, 5, 233, 0, 0, 266, 585, 6, 0]),
    ("set_key", 0, Valid, [8, 0, 32, 0, 0, 18, 27, 2, 0]),
    ("set_key", 1, Valid, [46, 0, 137, 0, 0, 296, 472, 11, 6]),
    ("set_key", 2, Valid, [87, 1, 345, 0, 0, 592, 1117, 35, 12]),
    ("set_key", 3, Valid, [48, 0, 253, 0, 0, 610, 1153, 32, 12]),
    ("delete_front", 0, Valid, [9, 0, 36, 0, 0, 22, 32, 1, 0]),
    ("delete_front", 1, Valid, [28, 0, 97, 0, 0, 132, 253, 3, 0]),
    ("delete_front", 2, Valid, [168, 2, 564, 2, 3, 904, 1502, 81, 20]),
    ("delete_front", 3, Valid, [366, 9, 1649, 5, 33, 1310, 2345, 430, 66]),
    ("delete_front", 4, Valid, [137, 1, 999, 1, 11, 2763, 5915, 236, 30]),
    ("delete_front", 5, Valid, [93, 0, 869, 0, 0, 2763, 5917, 235, 30]),
    ("delete_front", 6, Valid, [204, 4, 1569, 4, 19, 2766, 5919, 455, 48]),
    ("delete_front", 7, Valid, [162, 2, 1315, 2, 18, 2869, 6275, 378, 39]),
];

/// Recorded before the online theory layer was split into its EUF,
/// arithmetic and combiner modules, which left every row unchanged.
#[rustfmt::skip]
const PINNED_BST: [Row; 10] = [
    ("bst_right_rotate", 0, Valid, [12, 0, 45, 0, 0, 32, 46, 0, 0]),
    ("bst_right_rotate", 1, Valid, [68, 1, 152, 0, 3, 75, 143, 2, 2]),
    ("bst_right_rotate", 2, Valid, [64, 0, 136, 0, 3, 122, 272, 1, 1]),
    ("bst_right_rotate", 3, Valid, [258, 1, 414, 0, 3, 169, 422, 6, 2]),
    ("bst_right_rotate", 4, Valid, [21560, 224, 51832, 203, 645, 2121, 2147, 18580, 7685]),
    ("bst_right_rotate", 5, Valid, [1053, 92, 16895, 65, 696, 2345, 2404, 10518, 2958]),
    ("bst_right_rotate", 6, Valid, [2642, 83, 21945, 53, 561, 2612, 2686, 12432, 3113]),
    ("bst_right_rotate", 7, Valid, [2522, 160, 32063, 133, 889, 2920, 3007, 20214, 4539]),
    ("bst_right_rotate", 8, Valid, [440, 13, 21859, 3, 428, 10102, 18956, 10526, 1342]),
    ("bst_right_rotate", 9, Valid, [353, 0, 1163, 0, 0, 10102, 18962, 227, 144]),
];

/// Runs `methods` of one structure through one structure pool, every
/// method in its own method scope, every VC in order.
fn run_pool(definition: &IntrinsicDefinition, source: &str, methods: &[&'static str]) -> Vec<Row> {
    let merged = load_methods(definition, source).unwrap();
    let structure = ExpandedStructure::new(definition, &merged);
    let tasks: Vec<MethodTask> = methods
        .iter()
        .map(|m| structure.prepare(m, PipelineConfig::default()).unwrap())
        .collect();
    let task_refs: Vec<&MethodTask> = tasks.iter().collect();
    let mut pool = StructureSession::new(&task_refs).expect("the decidable encoding pools");
    let mut rows = Vec::new();
    for (mi, (task, &method)) in tasks.iter().zip(methods).enumerate() {
        pool.begin_method(mi);
        for vi in 0..task.num_vcs() {
            let r = pool.check_vc(mi, vi);
            let s = r.stats;
            let counts = [
                s.sat_decisions,
                s.sat_conflicts,
                s.sat_propagations,
                s.theory_rounds,
                s.pivots,
                s.atoms,
                s.initial_clauses,
                s.theory_propagations,
                s.shared_equalities,
            ];
            rows.push((method, vi, r.verdict, counts));
        }
        pool.end_method();
    }
    rows
}

/// Panics with the observed table, in the table's own format, unless the
/// rows are the pinned ones.
fn assert_pinned(what: &str, rows: &[Row], pinned: &[Row]) {
    if rows != pinned {
        let table: Vec<String> = rows
            .iter()
            .map(|(m, vi, v, c)| format!("    ({m:?}, {vi}, {v:?}, {c:?}),"))
            .collect();
        panic!("{what}'s search changed; observed:\n{}", table.join("\n"));
    }
}

/// Each counter summed over the rows.
fn totals(rows: &[Row]) -> Vec<u64> {
    (0..9).map(|i| rows.iter().map(|r| r.3[i]).sum()).collect()
}

#[test]
fn ci_slice_search_is_pinned() {
    let definition = lists::singly_linked_list();
    let rows = run_pool(&definition, lists::SINGLY_LINKED_LIST_METHODS, &METHODS);
    assert_pinned("the CI slice", &rows, &PINNED);
    // The totals `ids-verify suite --jobs 1 --json` reports for the slice.
    assert_eq!(
        totals(&rows),
        [3339, 54, 21291, 36, 188, 40166, 71290, 7754, 1234]
    );
}

#[test]
fn bst_right_rotate_search_is_pinned() {
    let definition = trees::bst();
    let rows = run_pool(&definition, trees::BST_METHODS, &["bst_right_rotate"]);
    assert_pinned("bst_right_rotate", &rows, &PINNED_BST);
    // The totals of `ids-verify suite --structure "binary search tree"
    // --method bst_right_rotate --jobs 1 --json`.
    assert_eq!(
        totals(&rows),
        [28972, 574, 146504, 457, 3228, 30600, 49045, 72506, 19786]
    );
}
