//! `ids-structures` — the benchmark suite of intrinsically defined data
//! structures and FWYB-annotated methods (the programs behind Table 2 of the
//! paper).
//!
//! Each module exposes an [`IntrinsicDefinition`] (ghost monadic maps, local
//! condition, correlation formula, impact table) together with a file of
//! annotated methods in IVL surface syntax. [`all_benchmarks`] returns the
//! registry that `ids-verify suite` and `ids-verify impact` run to
//! regenerate the paper's Table 2, RQ3 comparison and impact-set checks,
//! and [`buggy`] contains deliberately broken variants used by the negative
//! tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buggy;
pub mod lists;
pub mod overlaid;
pub mod trees;

use ids_core::IntrinsicDefinition;

/// One benchmark: a data structure definition plus its annotated methods.
pub struct Benchmark {
    /// Data structure name (Table 2 first column).
    pub name: &'static str,
    /// The intrinsic definition.
    pub definition: IntrinsicDefinition,
    /// The IVL source of the annotated methods.
    pub methods_src: &'static str,
    /// The method names, in Table-2 order.
    pub methods: Vec<String>,
}

fn benchmark(name: &'static str, definition: IntrinsicDefinition, src: &'static str) -> Benchmark {
    let program = ids_ivl::parse_program(src).expect("benchmark methods parse");
    let methods = program
        .procedures
        .iter()
        .filter(|p| p.body.is_some())
        .map(|p| p.name.clone())
        .collect();
    Benchmark {
        name,
        definition,
        methods_src: src,
        methods,
    }
}

/// The full registry of benchmark structures, in the order of Table 2.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        benchmark(
            "Singly-Linked List",
            lists::singly_linked_list(),
            lists::SINGLY_LINKED_LIST_METHODS,
        ),
        benchmark(
            "Sorted List",
            lists::sorted_list(),
            lists::SORTED_LIST_METHODS,
        ),
        benchmark(
            "Sorted List (w. min, max)",
            lists::sorted_list_minmax(),
            lists::SORTED_LIST_MINMAX_METHODS,
        ),
        benchmark(
            "Circular List",
            lists::circular_list(),
            lists::CIRCULAR_LIST_METHODS,
        ),
        benchmark("Binary Search Tree", trees::bst(), trees::BST_METHODS),
        benchmark("Treap", trees::treap(), trees::TREAP_METHODS),
        benchmark("AVL Tree", trees::avl(), trees::AVL_METHODS),
        benchmark(
            "Red-Black Tree",
            trees::red_black(),
            trees::RED_BLACK_METHODS,
        ),
        benchmark(
            "BST+Scaffolding",
            trees::bst_scaffolding(),
            trees::BST_SCAFFOLDING_METHODS,
        ),
        benchmark(
            "Scheduler Queue (overlaid SLL+BST)",
            overlaid::scheduler_queue(),
            overlaid::SCHEDULER_QUEUE_METHODS,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_core::pipeline::{verify_method, PipelineConfig};

    #[test]
    fn registry_covers_all_ten_structures() {
        let benches = all_benchmarks();
        assert_eq!(benches.len(), 10);
        let total_methods: usize = benches.iter().map(|b| b.methods.len()).sum();
        assert!(total_methods >= 20, "expected a substantial suite");
        for b in &benches {
            assert!(!b.methods.is_empty(), "{} has no methods", b.name);
        }
    }

    #[test]
    fn all_method_files_are_well_behaved_and_ghost_legal() {
        for b in all_benchmarks() {
            let merged = ids_core::pipeline::load_methods(&b.definition, b.methods_src)
                .unwrap_or_else(|e| panic!("{}: {}", b.name, e));
            let wb = ids_core::wellbehaved::check_program(&merged);
            assert!(wb.is_empty(), "{}: {:?}", b.name, wb);
            let gh = ids_core::ghost::check_ghost_legality(&merged);
            assert!(gh.is_empty(), "{}: {:?}", b.name, gh);
        }
    }

    #[test]
    fn representative_methods_verify_through_the_batch_driver() {
        // One parallel batch instead of five sequential pipeline runs: the
        // driver memoizes identical VCs across methods and schedules the rest
        // on a worker pool, so this heavy test's wall-clock shrinks while the
        // coverage (SLL insert/delete/set_key, BST find-min, circular-list
        // rotate/set) stays the same. Verdict parity with the sequential
        // pipeline is asserted separately in the root `driver_suite` test.
        // (Selections are built from definitions rather than `Benchmark`s:
        // the dev-dependency cycle gives the test crate its own copy of the
        // `Benchmark` type, but `IntrinsicDefinition` lives in ids-core.)
        let sll = lists::singly_linked_list();
        let bst = trees::bst();
        let circular = lists::circular_list();
        let methods = |names: &[&str]| names.iter().map(|m| m.to_string()).collect::<Vec<_>>();
        let selections = vec![
            ids_driver::Selection {
                name: "Singly-Linked List",
                definition: &sll,
                methods_src: lists::SINGLY_LINKED_LIST_METHODS,
                methods: methods(&["insert_front", "delete_front", "set_key"]),
            },
            ids_driver::Selection {
                name: "Binary Search Tree",
                definition: &bst,
                methods_src: trees::BST_METHODS,
                methods: methods(&["bst_find_min"]),
            },
            ids_driver::Selection {
                name: "Circular List",
                definition: &circular,
                methods_src: lists::CIRCULAR_LIST_METHODS,
                methods: methods(&["rotate_entry", "set_node_key"]),
            },
        ];
        let config = ids_driver::DriverConfig {
            jobs: 2,
            ..ids_driver::DriverConfig::default()
        };
        let batch = ids_driver::verify_selections(&selections, &config);
        assert!(batch.errors.is_empty(), "{:?}", batch.errors);
        assert_eq!(batch.reports.len(), 6);
        for r in &batch.reports {
            assert!(
                r.outcome.is_verified(),
                "{}::{}: {:?}",
                r.structure,
                r.method,
                r.outcome
            );
        }
    }

    #[test]
    fn scheduler_queue_peek_verifies_with_two_broken_sets() {
        let report = verify_method(
            &overlaid::scheduler_queue(),
            overlaid::SCHEDULER_QUEUE_METHODS,
            "peek_request",
            PipelineConfig::default(),
        )
        .unwrap();
        assert!(report.outcome.is_verified(), "{:?}", report.outcome);
    }

    #[test]
    fn buggy_variants_are_rejected() {
        let report = verify_method(
            &lists::singly_linked_list(),
            buggy::BUGGY_LIST_METHODS,
            "insert_front_forgets_length",
            PipelineConfig::default(),
        )
        .unwrap();
        assert!(!report.outcome.is_verified());

        let report = verify_method(
            &lists::singly_linked_list(),
            buggy::BUGGY_LIST_METHODS,
            "leaves_broken_set_nonempty",
            PipelineConfig::default(),
        )
        .unwrap();
        assert!(!report.outcome.is_verified());
    }
}
