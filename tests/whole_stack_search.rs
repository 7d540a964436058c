//! The whole stack's search, pinned: lowering, CNF, the SAT core and the
//! theories together, on the CI slice (SLL `insert_front`, `find`,
//! `set_key` and `delete_front`) run through one `StructureSession` in
//! registry order, as `ids-verify suite --jobs 1` runs it.
//!
//! Like `crates/smt/tests/sat_props.rs`'s `PINNED_COUNTS`, the table is a
//! contract: a constant-factor change anywhere in the stack (lowering,
//! clausification, the SAT core, the theory session) must leave every row
//! unchanged, and a deliberate change to the search updates the table in
//! the same commit, saying why. A failure prints the observed table in the
//! table's own format.

use intrinsic_verify::core::pipeline::{
    load_methods, ExpandedStructure, MethodTask, PipelineConfig, StructureSession, VcVerdict,
};
use intrinsic_verify::structures::lists;

/// One VC's search: method, VC index, verdict, decisions, conflicts,
/// propagations, theory rounds, pivots, atoms and initial clauses.
type Row = (&'static str, usize, VcVerdict, [u64; 7]);

/// The slice's methods in registry order, the order the driver's structure
/// pool runs them in.
const METHODS: [&str; 4] = ["insert_front", "find", "set_key", "delete_front"];

use VcVerdict::Valid;

/// Recorded while axiom instances were still asserted as terms; their
/// clausal form left every row unchanged.
#[rustfmt::skip]
const PINNED: [Row; 23] = [
    ("insert_front", 0, Valid, [7, 0, 29, 0, 0, 18, 26]),
    ("insert_front", 1, Valid, [127, 2, 852, 1, 7, 1643, 1912]),
    ("insert_front", 2, Valid, [1367, 25, 6150, 21, 29, 2340, 2907]),
    ("insert_front", 3, Valid, [128, 1, 1719, 0, 17, 5054, 8380]),
    ("insert_front", 4, Valid, [78, 0, 1379, 0, 17, 5057, 8383]),
    ("insert_front", 5, Valid, [79, 0, 1384, 0, 17, 5097, 8468]),
    ("insert_front", 6, Valid, [82, 0, 1413, 0, 17, 5244, 8869]),
    ("find", 0, Valid, [4, 0, 18, 0, 0, 10, 15]),
    ("find", 1, Valid, [46, 1, 118, 0, 0, 126, 245]),
    ("find", 2, Valid, [30, 1, 131, 0, 0, 266, 573]),
    ("find", 3, Valid, [35, 5, 233, 0, 0, 266, 585]),
    ("set_key", 0, Valid, [8, 0, 32, 0, 0, 18, 27]),
    ("set_key", 1, Valid, [46, 0, 137, 0, 0, 296, 472]),
    ("set_key", 2, Valid, [87, 1, 345, 0, 0, 592, 1117]),
    ("set_key", 3, Valid, [48, 0, 253, 0, 0, 610, 1153]),
    ("delete_front", 0, Valid, [9, 0, 36, 0, 0, 22, 32]),
    ("delete_front", 1, Valid, [28, 0, 97, 0, 0, 132, 253]),
    ("delete_front", 2, Valid, [168, 2, 564, 2, 3, 904, 1502]),
    ("delete_front", 3, Valid, [366, 9, 1649, 5, 33, 1310, 2345]),
    ("delete_front", 4, Valid, [137, 1, 999, 1, 11, 2763, 5915]),
    ("delete_front", 5, Valid, [93, 0, 869, 0, 0, 2763, 5917]),
    ("delete_front", 6, Valid, [204, 4, 1569, 4, 19, 2766, 5919]),
    ("delete_front", 7, Valid, [162, 2, 1315, 2, 18, 2869, 6275]),
];

/// Runs the slice through one structure pool, every method in its own
/// method scope, every VC in order.
fn run_slice() -> Vec<Row> {
    let definition = lists::singly_linked_list();
    let merged = load_methods(&definition, lists::SINGLY_LINKED_LIST_METHODS).unwrap();
    let structure = ExpandedStructure::new(&definition, &merged);
    let tasks: Vec<MethodTask> = METHODS
        .iter()
        .map(|m| structure.prepare(m, PipelineConfig::default()).unwrap())
        .collect();
    let task_refs: Vec<&MethodTask> = tasks.iter().collect();
    let mut pool = StructureSession::new(&task_refs).expect("the decidable encoding pools");
    let mut rows = Vec::new();
    for (mi, (task, method)) in tasks.iter().zip(METHODS).enumerate() {
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
            ];
            rows.push((method, vi, r.verdict, counts));
        }
        pool.end_method();
    }
    rows
}

#[test]
fn ci_slice_search_is_pinned() {
    let rows = run_slice();
    if rows != PINNED {
        let table: Vec<String> = rows
            .iter()
            .map(|(m, vi, v, c)| format!("    ({m:?}, {vi}, {v:?}, {c:?}),"))
            .collect();
        panic!(
            "the CI slice's search changed; observed:\n{}",
            table.join("\n")
        );
    }
    // The totals `ids-verify suite --jobs 1 --json` reports for the slice.
    let total = |i: usize| rows.iter().map(|r| r.3[i]).sum::<u64>();
    assert_eq!(
        (0..7).map(total).collect::<Vec<_>>(),
        [3339, 54, 21291, 36, 188, 40166, 71290]
    );
}
