//! Integration tests over the shipped benchmark suite (`ids-structures`):
//! the registry is complete, its declared impact sets are proved, the method
//! files obey the FWYB discipline, and a representative method per family
//! verifies end to end.

use intrinsic_verify::core::impact::check_impact_sets;
use intrinsic_verify::driver::{verify_selections, DriverConfig, Selection};
use intrinsic_verify::structures::{all_benchmarks, lists, trees};
use intrinsic_verify::vcgen::Encoding;

#[test]
fn registry_matches_the_papers_structure_list() {
    let names: Vec<String> = all_benchmarks()
        .iter()
        .map(|b| b.name.to_string())
        .collect();
    for expected in [
        "Singly-Linked List",
        "Sorted List",
        "Sorted List (w. min, max)",
        "Circular List",
        "Binary Search Tree",
        "Treap",
        "AVL Tree",
        "Red-Black Tree",
        "BST+Scaffolding",
        "Scheduler Queue (overlaid SLL+BST)",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {}", expected);
    }
}

#[test]
fn every_definition_declares_impact_sets_for_every_field() {
    for b in all_benchmarks() {
        let impact_fields: Vec<&String> = b.definition.impact_sets.keys().collect();
        assert!(
            !impact_fields.is_empty(),
            "{} declares no impact sets",
            b.name
        );
    }
}

/// The declared impact sets whose Appendix C triple is refuted, as
/// (structure, field, secondary condition). Both local conditions read the
/// field through a shared sentinel (`x.last.last == x.last`,
/// `x.scaff.scaff == x.scaff`): a write to the sentinel's field can break the
/// condition of every node that points to it, and no finite set of terms
/// around `x` names those nodes. No registry method writes either field.
/// Their repair is open (item 13 of ROADMAP.md); a repair, or a new
/// refutation, fails the test below until this list is updated.
const REFUTED_IMPACT_SETS: [(&str, &str, bool); 2] = [
    ("Circular List", "last", false),
    ("BST+Scaffolding", "scaff", false),
];

#[test]
fn every_declared_impact_set_is_proved_but_the_known_refuted_ones() {
    let mut checked = 0;
    let mut refuted = Vec::new();
    for b in all_benchmarks() {
        for r in check_impact_sets(&b.definition, Encoding::Decidable) {
            checked += 1;
            if !r.is_correct() {
                refuted.push((b.name, r.field.clone(), r.secondary));
            }
        }
    }
    let expected: Vec<(&str, String, bool)> = REFUTED_IMPACT_SETS
        .iter()
        .map(|&(structure, field, secondary)| (structure, field.to_string(), secondary))
        .collect();
    assert_eq!(
        refuted, expected,
        "refuted impact sets of {checked} checked"
    );
}

#[test]
fn representative_methods_verify() {
    // One method per family, batched through the parallel driver.
    let sll = lists::singly_linked_list();
    let treap = trees::treap();
    let scaffolding = trees::bst_scaffolding();
    let selections = vec![
        Selection {
            name: "Singly-Linked List",
            definition: &sll,
            methods_src: lists::SINGLY_LINKED_LIST_METHODS,
            methods: vec!["set_key".into()],
        },
        Selection {
            name: "Treap",
            definition: &treap,
            methods_src: trees::TREAP_METHODS,
            methods: vec!["treap_raise_root_priority".into()],
        },
        Selection {
            name: "BST+Scaffolding",
            definition: &scaffolding,
            methods_src: trees::BST_SCAFFOLDING_METHODS,
            methods: vec!["scaffolding_of".into()],
        },
    ];
    let config = DriverConfig {
        jobs: 2,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    assert_eq!(batch.reports.len(), 3);
    for report in &batch.reports {
        assert!(
            report.outcome.is_verified(),
            "{} failed: {:?}",
            report.method,
            report.outcome
        );
        assert!(report.num_vcs > 0);
    }
    assert_eq!(batch.stats.methods, 3);
    assert_eq!(
        batch.stats.cache_hits + batch.stats.smt_queries,
        batch.stats.vcs
    );
}
