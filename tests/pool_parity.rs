//! Property test: the two solver pool modes are observationally identical.
//!
//! On random subsets (and orders) of a structure's methods — including
//! methods refuted at different VCs, so early-stop interleavings are
//! exercised — `--pool-mode structure` and `--pool-mode none` must produce
//! byte-identical reports: outcome kind, failing-VC description and VC
//! counts. On subsets without refutations the number of discharged SMT
//! queries must also be identical (each deduplicated VC is solved exactly
//! once in both modes); with refutations the counts may differ only through
//! cancellation timing, never the reports.

use intrinsic_verify::core::IntrinsicDefinition;
use intrinsic_verify::driver::{verify_selections, DriverConfig, PoolMode, Selection};
use intrinsic_verify::smt::SolverProfile;
use proptest::prelude::*;

fn list_ids() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "acyclic-list",
        r#"
        field next: Loc;
        field ghost prev: Loc;
        field ghost length: Int;
        "#,
        "(x.next != nil ==> x.next.prev == x && x.length == x.next.length + 1) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1) \
         && (x.length >= 1)",
        "y",
        "y.prev == nil",
        &[
            ("next", &["x", "old(x.next)"]),
            ("prev", &["x", "old(x.prev)"]),
            ("length", &["x", "x.prev"]),
        ],
    )
    .unwrap()
}

/// Four methods with distinct cost/verdict profiles: a multi-VC verifying
/// method, a cheap verifying method, a method refuted at its first VC, and a
/// method refuted mid-way (its trailing VCs are early-stopped).
const METHODS_SRC: &str = r#"
    procedure insert_front(x: Loc) returns (r: Loc)
      requires Br == {} && x != nil && x.prev == nil;
      ensures Br == {} && r != nil && r.prev == nil;
      modifies {};
    {
      InferLCOutsideBr(x);
      var z: Loc;
      NewObj(z);
      Mut(z, next, x);
      Mut(z, length, x.length + 1);
      Mut(z, prev, nil);
      Mut(x, prev, z);
      AssertLCAndRemove(z);
      AssertLCAndRemove(x);
      r := z;
    }
    procedure touch(x: Loc)
      requires Br == {} && x != nil;
      ensures Br == {};
      modifies {};
    {
      InferLCOutsideBr(x);
      AssertLCAndRemove(x);
    }
    procedure detach_bad(x: Loc)
      requires Br == {} && x != nil;
      ensures Br == {};
      modifies {};
    {
      Mut(x, next, nil);
    }
    procedure forgets_length(x: Loc) returns (r: Loc)
      requires Br == {} && x != nil && x.prev == nil;
      ensures Br == {} && r != nil;
      modifies {};
    {
      InferLCOutsideBr(x);
      var z: Loc;
      NewObj(z);
      Mut(z, next, x);
      Mut(z, prev, nil);
      Mut(x, prev, z);
      AssertLCAndRemove(z);
      AssertLCAndRemove(x);
      r := z;
    }
"#;

const METHOD_NAMES: [&str; 4] = ["insert_front", "touch", "detach_bad", "forgets_length"];
const REFUTED: [&str; 2] = ["detach_bad", "forgets_length"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn pool_modes_agree_on_random_method_subsets(
        mask in 1usize..16,
        reverse in 0usize..2,
        jobs in 1usize..3,
        profile_idx in 0usize..2,
    ) {
        let profile = if profile_idx == 0 {
            SolverProfile::Default
        } else {
            SolverProfile::Legacy
        };
        let mut methods: Vec<String> = METHOD_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, m)| m.to_string())
            .collect();
        if reverse == 1 {
            methods.reverse();
        }
        let ids = list_ids();
        let selection = Selection {
            name: "acyclic-list",
            definition: &ids,
            methods_src: METHODS_SRC,
            methods: methods.clone(),
        };
        let run = |mode: PoolMode| {
            verify_selections(
                std::slice::from_ref(&selection),
                &DriverConfig {
                    jobs,
                    pool_mode: mode,
                    cache_path: None,
                    solver_profile: profile,
                    ..DriverConfig::default()
                },
            )
        };
        let structure = run(PoolMode::Structure);
        let fresh = run(PoolMode::None);

        for (label, batch) in [("structure", &structure), ("none", &fresh)] {
            prop_assert!(batch.errors.is_empty(), "{}: {:?}", label, batch.errors);
            prop_assert_eq!(batch.reports.len(), methods.len(), "{}", label);
            // Accounting invariant: every VC is cached, solved or skipped.
            prop_assert_eq!(
                batch.stats.cache_hits + batch.stats.smt_queries + batch.stats.skipped_vcs,
                batch.stats.vcs,
                "{}: {:?}",
                label,
                batch.stats
            );
        }
        for (a, b) in structure.reports.iter().zip(&fresh.reports) {
            prop_assert_eq!(&a.method, &b.method);
            prop_assert_eq!(
                &a.outcome,
                &b.outcome,
                "methods {:?} jobs {}: {} diverged under pool mode none",
                &methods,
                jobs,
                &a.method
            );
            prop_assert_eq!(a.num_vcs, b.num_vcs);
        }
        prop_assert_eq!(structure.stats.vcs, fresh.stats.vcs);
        for (name, report) in methods.iter().zip(&structure.reports) {
            prop_assert_eq!(
                report.outcome.is_verified(),
                !REFUTED.contains(&name.as_str()),
                "{} verdict",
                name
            );
        }
        // Without refutations there is no cancellation: both modes solve
        // each deduplicated VC exactly once — query counts are identical.
        if !methods.iter().any(|m| REFUTED.contains(&m.as_str())) {
            prop_assert_eq!(
                structure.stats.smt_queries,
                fresh.stats.smt_queries,
                "query counts diverged under pool mode none (methods {:?})",
                &methods
            );
            prop_assert_eq!(structure.stats.cache_hits, fresh.stats.cache_hits);
        }
    }
}

// Recheck parity: a `--recheck` from a cold run's cache re-solves every VC
// and must be observationally identical to the cold run — same outcomes,
// per-VC verdicts, keys and query counts — in both pool modes and under
// both profiles.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn recheck_and_cold_runs_produce_identical_reports(
        mask in 1usize..16,
        profile_idx in 0usize..2,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);

        let profile = if profile_idx == 0 {
            SolverProfile::Default
        } else {
            SolverProfile::Legacy
        };
        let methods: Vec<String> = METHOD_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, m)| m.to_string())
            .collect();
        let ids = list_ids();
        let selection = Selection {
            name: "acyclic-list",
            definition: &ids,
            methods_src: METHODS_SRC,
            methods: methods.clone(),
        };
        let cache = std::env::temp_dir().join(format!(
            "ids-recheck-parity-{}-{}.cache",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));

        for mode in [PoolMode::Structure, PoolMode::None] {
            let _ = std::fs::remove_file(&cache);
            let run = |recheck: bool| {
                verify_selections(
                    std::slice::from_ref(&selection),
                    &DriverConfig {
                        jobs: 1,
                        pool_mode: mode,
                        cache_path: Some(cache.clone()),
                        solver_profile: profile,
                        recheck,
                        ..DriverConfig::default()
                    },
                )
            };
            // The cold run populates the cache with verdicts and unsat cores.
            let cold = run(false);
            prop_assert!(cold.errors.is_empty(), "{:?}: {:?}", mode, cold.errors);
            let again = run(true);
            prop_assert!(again.errors.is_empty(), "{:?}: {:?}", mode, again.errors);
            prop_assert!(
                again.stats.smt_queries > 0,
                "{:?}: recheck must re-solve, not answer from cache",
                mode
            );
            prop_assert_eq!(again.stats.smt_queries, cold.stats.smt_queries);
            prop_assert_eq!(again.stats.cache_hits, cold.stats.cache_hits);
            prop_assert_eq!(again.reports.len(), cold.reports.len());
            for (a, b) in again.reports.iter().zip(&cold.reports) {
                prop_assert_eq!(&a.method, &b.method);
                prop_assert_eq!(
                    &a.outcome,
                    &b.outcome,
                    "{:?}: {} diverged between recheck and cold (methods {:?})",
                    mode,
                    &a.method,
                    &methods
                );
                prop_assert_eq!(a.num_vcs, b.num_vcs);
                prop_assert_eq!(a.vc_reports.len(), b.vc_reports.len());
                for (va, vb) in a.vc_reports.iter().zip(&b.vc_reports) {
                    prop_assert_eq!(va.vc_key, vb.vc_key);
                    prop_assert_eq!(&va.verdict, &vb.verdict);
                    prop_assert_eq!(&va.description, &vb.description);
                }
            }
        }
        let _ = std::fs::remove_file(&cache);
    }
}

/// Cross-profile parity: `--solver-profile default` and `legacy` must
/// produce byte-identical reports (outcome kind, failing-VC description,
/// VC/cache/query counts) in both pool modes, and byte-identical VC cache
/// keys — a profile change must never invalidate or split the cache.
#[test]
fn solver_profiles_agree_and_share_cache_keys() {
    use intrinsic_verify::core::pipeline::{load_methods, prepare_method_in, PipelineConfig};

    let ids = list_ids();
    let methods: Vec<String> = METHOD_NAMES.iter().map(|m| m.to_string()).collect();

    // Cache keys per (method, vc) under both profiles.
    let merged = load_methods(&ids, METHODS_SRC).unwrap();
    for name in &methods {
        let keys: Vec<Vec<u128>> = [SolverProfile::Default, SolverProfile::Legacy]
            .iter()
            .map(|&profile| {
                let task = prepare_method_in(
                    &ids,
                    &merged,
                    name,
                    PipelineConfig {
                        profile,
                        ..PipelineConfig::default()
                    },
                )
                .unwrap();
                (0..task.num_vcs()).map(|vi| task.vc_key(vi)).collect()
            })
            .collect();
        assert_eq!(
            keys[0], keys[1],
            "{}: cache keys depend on the profile",
            name
        );
    }

    // Full-batch reports per (pool mode, profile).
    let selection = Selection {
        name: "acyclic-list",
        definition: &ids,
        methods_src: METHODS_SRC,
        methods,
    };
    for mode in [PoolMode::Structure, PoolMode::None] {
        let run = |profile: SolverProfile| {
            verify_selections(
                std::slice::from_ref(&selection),
                &DriverConfig {
                    jobs: 1,
                    pool_mode: mode,
                    cache_path: None,
                    solver_profile: profile,
                    ..DriverConfig::default()
                },
            )
        };
        let default = run(SolverProfile::Default);
        let legacy = run(SolverProfile::Legacy);
        assert!(default.errors.is_empty() && legacy.errors.is_empty());
        assert_eq!(default.reports.len(), legacy.reports.len());
        for (a, b) in default.reports.iter().zip(&legacy.reports) {
            assert_eq!(a.method, b.method);
            assert_eq!(
                a.outcome, b.outcome,
                "{:?}: {} diverged across solver profiles",
                mode, a.method
            );
            assert_eq!(a.num_vcs, b.num_vcs);
            assert_eq!(a.cached_vcs, b.cached_vcs);
        }
        assert_eq!(default.stats.vcs, legacy.stats.vcs);
        assert_eq!(default.stats.smt_queries, legacy.stats.smt_queries);
        assert_eq!(default.stats.cache_hits, legacy.stats.cache_hits);
        assert_eq!(default.stats.skipped_vcs, legacy.stats.skipped_vcs);
    }
}

/// Observability parity: arming tracing, a heartbeat observer AND the
/// metrics histograms must not change a single report field — verdicts,
/// per-VC rows (including the stable `vc_key`) and every driver counter are
/// identical with the observer on and off, in both pool modes and under both
/// solver profiles. Histograms are the one intentional difference: empty
/// when disarmed, populated when armed — they are normalized out of the
/// identity comparison and pinned separately. (Verdict parity is what
/// licenses leaving the instrumentation compiled into release builds.)
#[test]
fn observer_on_and_off_produce_identical_reports() {
    use intrinsic_verify::obs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Counting(AtomicU64);
    impl obs::RunObserver for Counting {
        fn heartbeat(&self, _hb: &obs::Heartbeat) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let ids = list_ids();
    let methods: Vec<String> = METHOD_NAMES.iter().map(|m| m.to_string()).collect();
    let selection = Selection {
        name: "acyclic-list",
        definition: &ids,
        methods_src: METHODS_SRC,
        methods,
    };
    // jobs: 1 — inline execution makes skip/cancellation counts exact, so
    // the comparison below can demand equality on every field.
    let run = |mode: PoolMode, profile: SolverProfile| {
        verify_selections(
            std::slice::from_ref(&selection),
            &DriverConfig {
                jobs: 1,
                pool_mode: mode,
                cache_path: None,
                solver_profile: profile,
                ..DriverConfig::default()
            },
        )
    };

    for mode in [PoolMode::Structure, PoolMode::None] {
        for profile in [SolverProfile::Default, SolverProfile::Legacy] {
            let off = run(mode, profile);

            let counter = Arc::new(Counting(AtomicU64::new(0)));
            obs::trace_start();
            obs::set_heartbeat_conflicts(1);
            obs::set_observer(Some(counter.clone()));
            obs::set_metrics(true);
            let on = run(mode, profile);
            obs::set_metrics(false);
            obs::set_observer(None);
            obs::set_heartbeat_conflicts(0);
            let lanes = obs::trace_stop();

            let label = format!("{:?}/{:?}", mode, profile);
            assert!(
                counter.0.load(Ordering::Relaxed) > 0,
                "{}: observer never fired",
                label
            );
            assert!(
                lanes.iter().map(|l| l.events.len()).sum::<usize>() > 0,
                "{}: tracing captured no events",
                label
            );

            assert!(off.errors.is_empty() && on.errors.is_empty(), "{}", label);
            assert_eq!(off.reports.len(), on.reports.len(), "{}", label);
            for (a, b) in off.reports.iter().zip(&on.reports) {
                assert_eq!(a.method, b.method, "{}", label);
                assert_eq!(
                    a.outcome, b.outcome,
                    "{}: {} diverged under observation",
                    label, a.method
                );
                assert_eq!(a.num_vcs, b.num_vcs, "{}", label);
                assert_eq!(a.cached_vcs, b.cached_vcs, "{}", label);
                assert_eq!(a.vc_reports.len(), b.vc_reports.len(), "{}", label);
                for (va, vb) in a.vc_reports.iter().zip(&b.vc_reports) {
                    assert_eq!(va.vc_index, vb.vc_index, "{}", label);
                    assert_eq!(va.vc_key, vb.vc_key, "{}", label);
                    assert_eq!(va.description, vb.description, "{}", label);
                    assert_eq!(va.verdict, vb.verdict, "{}", label);
                    assert_eq!(va.cached, vb.cached, "{}", label);
                    // Histograms are normalized out of the identity check:
                    // the disarmed run must have none at all.
                    assert!(
                        va.hists.is_empty(),
                        "{}: metrics were disarmed yet {} vc {} recorded histograms",
                        label,
                        a.method,
                        va.vc_index
                    );
                }
            }
            // ...and the armed run must have recorded solver dynamics for at
            // least one solved VC (trivial VCs may finish without a round).
            assert!(
                on.reports
                    .iter()
                    .flat_map(|r| &r.vc_reports)
                    .any(|vc| !vc.hists.is_empty()),
                "{}: metrics were armed yet no VC recorded a histogram",
                label
            );
            assert_eq!(off.stats.vcs, on.stats.vcs, "{}", label);
            assert_eq!(off.stats.smt_queries, on.stats.smt_queries, "{}", label);
            assert_eq!(off.stats.cache_hits, on.stats.cache_hits, "{}", label);
            assert_eq!(off.stats.skipped_vcs, on.stats.skipped_vcs, "{}", label);
            assert_eq!(off.stats.cancellations, on.stats.cancellations, "{}", label);
        }
    }
}
