//! End-to-end tests of the parallel batch driver: verdict parity with the
//! sequential pipeline, warm-cache incrementality (a second run against a
//! persisted cache discharges zero new SMT queries), and solver-statistics
//! threading.

mod common;

use std::path::PathBuf;

use intrinsic_verify::core::pipeline::{load_methods, verify_method_in, PipelineConfig};
use intrinsic_verify::driver::{verify_selections, DriverConfig, Selection};
use intrinsic_verify::structures::lists;

fn temp_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ids-driver-test-{}-{}.cache",
        std::process::id(),
        tag
    ))
}

fn sll_selection(ids: &intrinsic_verify::core::IntrinsicDefinition) -> Selection<'_> {
    Selection {
        name: "Singly-Linked List",
        definition: ids,
        methods_src: lists::SINGLY_LINKED_LIST_METHODS,
        methods: vec!["set_key".into(), "delete_front".into()],
    }
}

#[test]
fn parallel_verdicts_match_sequential_pipeline() {
    let ids = lists::singly_linked_list();
    let selections = vec![sll_selection(&ids)];
    let config = DriverConfig {
        jobs: 4,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);

    let merged = load_methods(&ids, lists::SINGLY_LINKED_LIST_METHODS).unwrap();
    for report in &batch.reports {
        let sequential =
            verify_method_in(&ids, &merged, &report.method, PipelineConfig::default()).unwrap();
        assert_eq!(
            report.outcome.is_verified(),
            sequential.outcome.is_verified(),
            "verdict diverged for {}",
            report.method
        );
        assert_eq!(report.num_vcs, sequential.num_vcs);
        // Statistics are threaded through both paths.
        assert!(report.solver.sat_propagations > 0, "{:?}", report.solver);
        assert!(sequential.solver.sat_propagations > 0);
    }
}

#[test]
fn warm_cache_rerun_discharges_zero_smt_queries() {
    let cache = temp_cache("warm");
    std::fs::remove_file(&cache).ok();
    let ids = lists::singly_linked_list();
    let selections = vec![sll_selection(&ids)];
    let config = DriverConfig {
        jobs: 2,
        cache_path: Some(cache.clone()),
        ..DriverConfig::default()
    };

    let cold = verify_selections(&selections, &config);
    assert!(cold.all_verified(), "{:?}", cold.errors);
    assert!(cold.stats.smt_queries > 0, "cold run must query the solver");
    assert!(cache.exists(), "cache file must be persisted");

    let warm = verify_selections(&selections, &config);
    assert!(warm.all_verified(), "{:?}", warm.errors);
    assert_eq!(
        warm.stats.smt_queries, 0,
        "warm re-run must be answered entirely from the cache"
    );
    assert_eq!(warm.stats.cache_hits, warm.stats.vcs);

    // Verdicts and row shapes are identical between cold and warm runs.
    assert_eq!(cold.reports.len(), warm.reports.len());
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(c.method, w.method);
        assert_eq!(c.outcome.is_verified(), w.outcome.is_verified());
        assert_eq!(c.num_vcs, w.num_vcs);
    }
    std::fs::remove_file(&cache).ok();
}

/// At `--jobs 1` one worker picks up the structure's unit once, so every VC
/// of the unit reports the same queue time, however long the unit's earlier
/// VCs took to solve.
#[test]
fn vcs_of_one_unit_share_their_queue_time() {
    let ids = lists::singly_linked_list();
    let selections = vec![sll_selection(&ids)];
    let config = DriverConfig {
        jobs: 1,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    let queued: Vec<std::time::Duration> = batch
        .reports
        .iter()
        .flat_map(|r| &r.vc_reports)
        .filter(|vc| !vc.cached)
        .map(|vc| vc.queue_time)
        .collect();
    assert!(queued.len() >= 2, "too few solved VCs: {queued:?}");
    assert!(queued.iter().all(|&q| q == queued[0]), "{queued:?}");
}

#[test]
fn structure_pools_report_like_the_one_shot_pipeline_across_structures() {
    // One batch spanning several structure families plus a refuted method,
    // run through the driver's structure-scoped warm pools and, method by
    // method, with every VC checked one-shot, by a fresh session of its own.
    // The *reports* must be identical: outcome kind and failing-VC
    // description, VC counts. Only solver-internal statistics (conflicts,
    // propagations, times, prelude reuse) may differ between the two
    // searches.
    use intrinsic_verify::structures::trees;
    let sll = lists::singly_linked_list();
    let circ = lists::circular_list();
    let bst = trees::bst();
    let methods = |names: &[&str]| names.iter().map(|m| m.to_string()).collect::<Vec<_>>();
    let selections = vec![
        Selection {
            name: "Singly-Linked List",
            definition: &sll,
            methods_src: lists::SINGLY_LINKED_LIST_METHODS,
            methods: methods(&["set_key", "find"]),
        },
        Selection {
            name: "Singly-Linked List (buggy)",
            definition: &sll,
            methods_src: intrinsic_verify::structures::buggy::BUGGY_LIST_METHODS,
            methods: methods(&["insert_front_forgets_length"]),
        },
        Selection {
            name: "Circular List",
            definition: &circ,
            methods_src: lists::CIRCULAR_LIST_METHODS,
            methods: methods(&["rotate_entry", "set_node_key"]),
        },
        Selection {
            name: "Binary Search Tree",
            definition: &bst,
            methods_src: trees::BST_METHODS,
            methods: methods(&["bst_find_min"]),
        },
    ];
    let batch = verify_selections(
        &selections,
        &DriverConfig {
            jobs: 2,
            ..DriverConfig::default()
        },
    );
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    let one_shot: Vec<_> = selections
        .iter()
        .flat_map(|sel| {
            sel.methods
                .iter()
                .map(|m| common::fresh_session_per_vc(sel.definition, sel.methods_src, m))
        })
        .collect();
    assert_eq!(batch.reports.len(), one_shot.len());
    assert_eq!(
        batch.stats.vcs,
        one_shot.iter().map(|r| r.num_vcs).sum::<usize>()
    );
    for (a, b) in batch.reports.iter().zip(&one_shot) {
        assert_eq!(a.structure, b.structure);
        assert_eq!(a.method, b.method);
        // Full outcome equality: kind *and* failing-VC description.
        assert_eq!(
            a.outcome, b.outcome,
            "{}::{} diverged from the one-shot pipeline",
            a.structure, a.method
        );
        assert_eq!(a.num_vcs, b.num_vcs);
    }
    // Stats-consistency: both paths did real solving work. Every solve
    // propagates; theory rounds count theory verdicts only, and a VC refuted
    // by Boolean propagation alone has none.
    for r in batch.reports.iter().chain(&one_shot) {
        if r.outcome.is_verified() {
            assert!(
                r.solver.sat_propagations > 0,
                "{}: {:?}",
                r.method,
                r.solver
            );
        }
    }
    assert!(!batch.all_verified(), "the buggy method must fail");
}

#[test]
fn failing_methods_keep_failing_under_the_driver() {
    let ids = lists::singly_linked_list();
    let selections = vec![Selection {
        name: "Singly-Linked List (buggy)",
        definition: &ids,
        methods_src: intrinsic_verify::structures::buggy::BUGGY_LIST_METHODS,
        methods: vec![
            "insert_front_forgets_length".into(),
            "leaves_broken_set_nonempty".into(),
        ],
    }];
    let config = DriverConfig {
        jobs: 2,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    assert_eq!(batch.reports.len(), 2);
    for report in &batch.reports {
        assert!(
            !report.outcome.is_verified(),
            "{} must be refuted",
            report.method
        );
    }
    assert!(!batch.all_verified());
}

/// `sorted_insert` (the recursive insertion into a sorted list) verifies,
/// all 18 VCs. Its proofs need the equalities congruence derives between
/// keys while the search runs: before EUF shared them with the simplex at
/// each merge, the method returned no verdict within 1,200 s.
#[test]
fn sorted_insert_verifies() {
    let ids = lists::sorted_list();
    let selections = vec![Selection {
        name: "Sorted List",
        definition: &ids,
        methods_src: lists::SORTED_LIST_METHODS,
        methods: vec!["sorted_insert".into()],
    }];
    let config = DriverConfig {
        jobs: 1,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    let [report] = &batch.reports[..] else {
        panic!("one report expected: {:?}", batch.reports.len());
    };
    assert!(report.outcome.is_verified(), "{:?}", report.outcome);
    assert_eq!(report.num_vcs, 18);
}
