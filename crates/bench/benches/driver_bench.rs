//! Sequential vs. parallel batch driver and cold vs. warm VC cache, on
//! singly-linked-list slices (mid-size: `delete_front`, 8 real SMT queries,
//! seconds of single-core solving; multi-method: `set_key`, `delete_front`
//! and `find` for the structure-scoped warm pool). On a multicore host the
//! parallel run approaches `1/jobs` of the sequential time; the structure
//! pool shares the structure-common prelude across methods; the warm-cache
//! run collapses to hashing + report assembly because every verdict is
//! answered from the persisted cache. The `observer_off`/`observer_on` pair
//! pins the cost of the `ids-obs` instrumentation: disarmed it is one relaxed
//! atomic load per would-be event, armed it buys the full `--trace` timeline.

use criterion::{criterion_group, criterion_main, Criterion};
use ids_driver::{verify_selections, DriverConfig, Selection};
use ids_structures::lists;

fn sll_selection<'a>(
    ids: &'a ids_core::IntrinsicDefinition,
    methods: &[&str],
) -> Vec<Selection<'a>> {
    vec![Selection {
        name: "Singly-Linked List",
        definition: ids,
        methods_src: lists::SINGLY_LINKED_LIST_METHODS,
        methods: methods.iter().map(|m| m.to_string()).collect(),
    }]
}

fn bench_driver(c: &mut Criterion) {
    let ids = lists::singly_linked_list();
    let methods = ["delete_front"];
    let mut group = c.benchmark_group("driver");
    group.sample_size(2);

    group.bench_function("sequential_jobs1", |b| {
        let selections = sll_selection(&ids, &methods);
        let config = DriverConfig {
            jobs: 1,
            cache_path: None,
            ..DriverConfig::default()
        };
        b.iter(|| {
            let batch = verify_selections(&selections, &config);
            assert!(batch.errors.is_empty());
            batch.reports.len()
        });
    });

    // The structure pool on a *multi-method* slice of one structure, which
    // keeps the structure-common hypothesis prelude warm across methods.
    let pool_methods = ["set_key", "delete_front", "find"];
    group.bench_function("structure_pool_3methods_jobs1", |b| {
        let selections = sll_selection(&ids, &pool_methods);
        let config = DriverConfig {
            jobs: 1,
            cache_path: None,
            ..DriverConfig::default()
        };
        b.iter(|| {
            let batch = verify_selections(&selections, &config);
            assert!(batch.errors.is_empty());
            batch.reports.len()
        });
    });

    // The observability overhead pair: the same single-method run with the
    // subsystem disarmed (the shipping default — one relaxed atomic load per
    // would-be event, histogram and flight-recorder hooks included) vs fully
    // armed (tracing buffers + a heartbeat observer firing every 1024
    // conflicts + the metrics histograms/ring buffer). The pair pins the
    // "near-zero overhead when disabled" claim; `observer_on` bounds the
    // combined cost of `--trace` + `--ledger` instrumentation.
    group.bench_function("observer_off", |b| {
        let selections = sll_selection(&ids, &methods);
        let config = DriverConfig {
            jobs: 1,
            cache_path: None,
            ..DriverConfig::default()
        };
        b.iter(|| {
            let batch = verify_selections(&selections, &config);
            assert!(batch.errors.is_empty());
            batch.reports.len()
        });
    });

    group.bench_function("observer_on", |b| {
        struct Sink;
        impl ids_obs::RunObserver for Sink {
            fn heartbeat(&self, hb: &ids_obs::Heartbeat) {
                std::hint::black_box(hb.conflicts);
            }
        }
        let selections = sll_selection(&ids, &methods);
        let config = DriverConfig {
            jobs: 1,
            cache_path: None,
            ..DriverConfig::default()
        };
        ids_obs::set_heartbeat_conflicts(1024);
        ids_obs::set_observer(Some(std::sync::Arc::new(Sink)));
        ids_obs::set_metrics(true);
        b.iter(|| {
            ids_obs::trace_start();
            let batch = verify_selections(&selections, &config);
            assert!(batch.errors.is_empty());
            let hist_events: u64 = batch
                .reports
                .iter()
                .flat_map(|r| &r.vc_reports)
                .flat_map(|vc| ids_obs::Metric::ALL.map(|m| vc.hists.get(m).count()))
                .sum();
            std::hint::black_box(hist_events);
            let lanes = ids_obs::trace_stop();
            std::hint::black_box(lanes.len());
            batch.reports.len()
        });
        ids_obs::set_metrics(false);
        ids_obs::set_observer(None);
        ids_obs::set_heartbeat_conflicts(0);
    });

    // Per-round theory cost with the persistent trail session. The solver
    // retracts/asserts only the literal delta between consecutive SAT
    // models instead of rebuilding EUF + simplex from scratch each round;
    // `insert_back` is the heaviest SLL method (longest methods, most
    // rounds), so this case pins the per-round cost that the trail
    // optimisation targets. Metrics are armed so the `theory_delta_lits`
    // histogram (delta literals per round — a rebuild would count every
    // literal every round) is recorded and sanity-checked.
    group.bench_function("trail_rounds_insert_back_jobs1", |b| {
        let selections = sll_selection(&ids, &["insert_back"]);
        let config = DriverConfig {
            jobs: 1,
            cache_path: None,
            ..DriverConfig::default()
        };
        ids_obs::set_metrics(true);
        b.iter(|| {
            let batch = verify_selections(&selections, &config);
            assert!(batch.errors.is_empty());
            let (rounds, delta_lits): (u64, u64) = batch
                .reports
                .iter()
                .flat_map(|r| &r.vc_reports)
                .map(|vc| {
                    let h = vc.hists.get(ids_obs::Metric::TheoryDeltaLits);
                    (h.count(), h.sum())
                })
                .fold((0, 0), |(c, s), (hc, hs)| (c + hc, s + hs));
            assert!(rounds > 0, "insert_back must run theory rounds");
            std::hint::black_box(delta_lits);
            batch.reports.len()
        });
        ids_obs::set_metrics(false);
    });

    group.bench_function("parallel_jobs4", |b| {
        let selections = sll_selection(&ids, &methods);
        let config = DriverConfig {
            jobs: 4,
            cache_path: None,
            ..DriverConfig::default()
        };
        b.iter(|| {
            let batch = verify_selections(&selections, &config);
            assert!(batch.errors.is_empty());
            batch.reports.len()
        });
    });

    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let ids = lists::singly_linked_list();
    let methods = ["delete_front"];
    let cache = std::env::temp_dir().join(format!("ids-driver-bench-{}.cache", std::process::id()));
    let mut group = c.benchmark_group("cache");
    group.sample_size(2);

    group.bench_function("cold", |b| {
        let selections = sll_selection(&ids, &methods);
        let config = DriverConfig {
            jobs: 4,
            cache_path: None, // no persistence: every iteration solves anew
            ..DriverConfig::default()
        };
        b.iter(|| verify_selections(&selections, &config).reports.len());
    });

    group.bench_function("warm", |b| {
        std::fs::remove_file(&cache).ok();
        let selections = sll_selection(&ids, &methods);
        let config = DriverConfig {
            jobs: 4,
            cache_path: Some(cache.clone()),
            ..DriverConfig::default()
        };
        // Populate the cache once; every measured iteration then runs warm.
        let seeded = verify_selections(&selections, &config);
        assert!(seeded.stats.smt_queries > 0);
        b.iter(|| {
            let batch = verify_selections(&selections, &config);
            assert_eq!(batch.stats.smt_queries, 0, "warm run must not query");
            batch.reports.len()
        });
    });

    group.finish();
    std::fs::remove_file(&cache).ok();
}

criterion_group!(benches, bench_driver, bench_cache);
criterion_main!(benches);
