//! Property tests of the structure pool against the one-shot reference path.
//!
//! On random subsets (and orders) of a structure's methods — including
//! methods refuted at different VCs, so early-stop interleavings are
//! exercised — the driver's structure pools must report what the sequential
//! pipeline reports when it checks every VC with a fresh one-shot solver:
//! outcome kind, failing-VC description and VC counts. The one-shot search
//! is a different search (over the registry it makes about 37× the pool's
//! decisions), so agreement is a real differential check.

use intrinsic_verify::core::pipeline::{load_methods, verify_method_in, PipelineConfig};
use intrinsic_verify::core::IntrinsicDefinition;
use intrinsic_verify::driver::{verify_selections, DriverConfig, Selection};
use intrinsic_verify::vcgen::Encoding;
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
    fn structure_pool_agrees_with_one_shot_pipeline_on_random_subsets(
        mask in 1usize..16,
        reverse in 0usize..2,
        jobs in 1usize..3,
    ) {
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
        let batch = verify_selections(
            std::slice::from_ref(&selection),
            &DriverConfig {
                jobs,
                cache_path: None,
                ..DriverConfig::default()
            },
        );
        prop_assert!(batch.errors.is_empty(), "{:?}", batch.errors);
        prop_assert_eq!(batch.reports.len(), methods.len());
        // Accounting invariant: every VC is cached, solved or skipped.
        prop_assert_eq!(
            batch.stats.cache_hits + batch.stats.smt_queries + batch.stats.skipped_vcs,
            batch.stats.vcs,
            "{:?}",
            batch.stats
        );
        let merged = load_methods(&ids, METHODS_SRC).unwrap();
        for (name, report) in methods.iter().zip(&batch.reports) {
            let one_shot = verify_method_in(&ids, &merged, name, PipelineConfig::default()).unwrap();
            prop_assert_eq!(&report.method, name);
            prop_assert_eq!(
                &report.outcome,
                &one_shot.outcome,
                "methods {:?} jobs {}: {} diverged from the one-shot pipeline",
                &methods,
                jobs,
                name
            );
            prop_assert_eq!(report.num_vcs, one_shot.num_vcs);
            prop_assert_eq!(
                report.outcome.is_verified(),
                !REFUTED.contains(&name.as_str()),
                "{} verdict",
                name
            );
        }
        // Without refutations nothing is cancelled or skipped: every VC is
        // solved or answered by an identical one of the batch.
        if !methods.iter().any(|m| REFUTED.contains(&m.as_str())) {
            prop_assert_eq!(batch.stats.skipped_vcs, 0, "methods {:?}", &methods);
        }
    }
}

// Recheck parity: a `--recheck` from a cold run's cache re-solves every VC
// and must be observationally identical to the cold run — same outcomes,
// per-VC verdicts, keys and query counts.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn recheck_and_cold_runs_produce_identical_reports(mask in 1usize..16) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);

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
        let _ = std::fs::remove_file(&cache);
        let run = |recheck: bool| {
            verify_selections(
                std::slice::from_ref(&selection),
                &DriverConfig {
                    jobs: 1,
                    cache_path: Some(cache.clone()),
                    recheck,
                    ..DriverConfig::default()
                },
            )
        };
        // The cold run populates the cache with verdicts and unsat cores.
        let cold = run(false);
        prop_assert!(cold.errors.is_empty(), "{:?}", cold.errors);
        let again = run(true);
        prop_assert!(again.errors.is_empty(), "{:?}", again.errors);
        prop_assert!(
            again.stats.smt_queries > 0,
            "recheck must re-solve, not answer from cache"
        );
        prop_assert_eq!(again.stats.smt_queries, cold.stats.smt_queries);
        prop_assert_eq!(again.stats.cache_hits, cold.stats.cache_hits);
        prop_assert_eq!(again.reports.len(), cold.reports.len());
        for (a, b) in again.reports.iter().zip(&cold.reports) {
            prop_assert_eq!(&a.method, &b.method);
            prop_assert_eq!(
                &a.outcome,
                &b.outcome,
                "{} diverged between recheck and cold (methods {:?})",
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
        let _ = std::fs::remove_file(&cache);
    }
}

/// Observability parity: arming tracing, a heartbeat observer AND the
/// metrics histograms must not change a single report field — verdicts,
/// per-VC rows (including the stable `vc_key`) and every driver counter are
/// identical with the observer on and off, through the structure pools of the
/// decidable encoding and through the one-shot solver the quantified encoding
/// uses. Histograms are the one intentional difference: empty
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
    let run = |encoding: Encoding| {
        verify_selections(
            std::slice::from_ref(&selection),
            &DriverConfig {
                jobs: 1,
                encoding,
                cache_path: None,
                ..DriverConfig::default()
            },
        )
    };

    for encoding in [Encoding::Decidable, Encoding::Quantified] {
        let off = run(encoding);

        let counter = Arc::new(Counting(AtomicU64::new(0)));
        obs::trace_start();
        obs::set_heartbeat_conflicts(1);
        obs::set_observer(Some(counter.clone()));
        obs::set_metrics(true);
        let on = run(encoding);
        obs::set_metrics(false);
        obs::set_observer(None);
        obs::set_heartbeat_conflicts(0);
        let lanes = obs::trace_stop();

        let label = format!("{:?}", encoding);
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
