//! `ids-driver` — the parallel batch-verification engine.
//!
//! The paper's evaluation discharges dozens of methods across 10+ data
//! structures; verifying them one method and one VC at a time leaves all but
//! one core idle on what is an embarrassingly parallel workload. This crate
//! turns a suite into a batch job:
//!
//! 1. **Decompose** — every `(structure, method)` pair is prepared into a
//!    [`MethodTask`] (parse, discipline checks, FWYB expansion, VC
//!    generation), itself in parallel; every `(task, vc)` pair is then an
//!    independent SMT query.
//! 2. **Memoize** — each VC is keyed by the stable structural hash of its
//!    formula ([`MethodTask::vc_key`]). Identical VCs across the batch are
//!    solved once, previously solved VCs are answered from a persistent
//!    [`cache::VcCache`] file, so re-runs are incremental.
//! 3. **Schedule** — remaining queries go through a channel-fed
//!    [`pool`] of `std::thread` workers ([`DriverConfig::jobs`] wide). Once a
//!    method's VC is refuted, its not-yet-started VCs are cancelled — the
//!    parallel analogue of the sequential pipeline's early stop. A final
//!    repair pass then fills every VC *before* the first non-valid one, so
//!    the reported outcome (kind and failing VC alike) is exactly what the
//!    sequential pipeline reports, regardless of interleaving or cache state.
//! 4. **Aggregate** — per-VC verdicts fold back into the existing
//!    [`MethodReport`] / `Table2Row` reporting by scanning results in VC
//!    order; only VCs past a method's first failure are skipped.
//!
//! The `ids-verify` binary is the command-line front end.
//!
//! # Example
//!
//! (One small method here — doctests build unoptimized, and real suite runs
//! belong to `ids-verify suite` / the integration tests.)
//!
//! ```
//! use ids_driver::{verify_selections, DriverConfig, Selection};
//! use ids_structures::lists;
//!
//! let ids = lists::singly_linked_list();
//! let selection = Selection {
//!     name: "Singly-Linked List",
//!     definition: &ids,
//!     methods_src: lists::SINGLY_LINKED_LIST_METHODS,
//!     methods: vec!["set_key".into()],
//! };
//! let report = verify_selections(&[selection], &DriverConfig::default());
//! assert!(report.all_verified());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod ledger;
pub mod pool;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ids_core::pipeline::{
    load_methods, prepare_method_in, MethodReport, MethodTask, PipelineConfig, VcResult,
};
use ids_core::IntrinsicDefinition;
use ids_smt::{SolverProfile, SolverStats};
use ids_structures::Benchmark;
use ids_vcgen::Encoding;

use crate::cache::VcCache;

/// How solver state is shared across the batch's SMT queries: one warm
/// solver pool per *data structure*. All pending methods of a structure form
/// one unit on a worker, the structure-common hypothesis prelude is lowered
/// once at structure scope, and each method runs in a retractable method
/// scope ([`ids_core::pipeline::StructureSession`]). The repair pass, which
/// fills the VCs before a method's first non-valid one that the solve stage
/// left empty, runs them through one [`ids_core::pipeline::MethodSession`]
/// per method. Quantified-encoding tasks are checked by a fresh one-shot
/// solver per VC ([`MethodTask::check_vc`]).
///
/// There is one mode. The type stays, with this one value, because the
/// benchmark harness in `perfbench/` names it; run ledgers and `--json`
/// still record it as `structure`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// One warm solver pool per data structure.
    #[default]
    Structure,
}

impl PoolMode {
    /// The name run ledgers and `--json` record.
    pub fn as_str(&self) -> &'static str {
        match self {
            PoolMode::Structure => "structure",
        }
    }
}

/// Configuration of a batch run.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Worker threads for both the prepare and the solve stage.
    pub jobs: usize,
    /// VC encoding mode.
    pub encoding: Encoding,
    /// Optional path of the persistent VC cache; loaded before and saved
    /// after the batch. `None` still memoizes within the batch, in memory.
    pub cache_path: Option<PathBuf>,
    /// Solver-state sharing across queries (see [`PoolMode`]). Its one
    /// value is recorded in the run ledger; the field stays because the
    /// benchmark harness in `perfbench/` sets it.
    pub pool_mode: PoolMode,
    /// The solver's one heuristics profile (see [`SolverProfile`]),
    /// recorded in the run ledger; the field stays because the benchmark
    /// harness in `perfbench/` reads it.
    pub solver_profile: SolverProfile,
    /// Optional path of the run-ledger JSONL file; every batch appends one
    /// schema-versioned [`ledger::RunRecord`] line (see [`ledger`]). `None`
    /// disables longitudinal recording.
    pub ledger_path: Option<PathBuf>,
    /// Re-verification mode (`--recheck`): cached verdicts are ignored and
    /// every VC is re-solved from its full hypothesis set, the same search
    /// as a cold run. Recomputed verdicts and unsat cores are stored back.
    pub recheck: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            encoding: Encoding::default(),
            cache_path: None,
            pool_mode: PoolMode::default(),
            solver_profile: SolverProfile::default(),
            ledger_path: None,
            recheck: false,
        }
    }
}

impl DriverConfig {
    /// The pipeline configuration used to prepare each method.
    fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            encoding: self.encoding,
            ..PipelineConfig::default()
        }
    }
}

/// One structure to verify: a definition, its methods file, and which methods
/// of it to run.
pub struct Selection<'a> {
    /// Structure name (reporting label).
    pub name: &'a str,
    /// The intrinsic definition.
    pub definition: &'a IntrinsicDefinition,
    /// IVL source of the annotated methods.
    pub methods_src: &'a str,
    /// Methods to verify, in report order.
    pub methods: Vec<String>,
}

impl<'a> Selection<'a> {
    /// Every method of a benchmark.
    pub fn from_benchmark(b: &'a Benchmark) -> Selection<'a> {
        Selection {
            name: b.name,
            definition: &b.definition,
            methods_src: b.methods_src,
            methods: b.methods.clone(),
        }
    }

    /// A subset of a benchmark's methods.
    pub fn methods_of(b: &'a Benchmark, methods: &[&str]) -> Selection<'a> {
        Selection {
            methods: methods.iter().map(|m| m.to_string()).collect(),
            ..Selection::from_benchmark(b)
        }
    }
}

/// A non-verdict failure (parse/type/expansion error) of one batch unit.
#[derive(Clone, Debug)]
pub struct BatchError {
    /// Structure the failure belongs to.
    pub structure: String,
    /// Method, or `"*"` when the whole structure failed to load.
    pub method: String,
    /// Human-readable error.
    pub message: String,
}

/// Aggregate statistics of a batch run.
#[derive(Clone, Debug, Default)]
pub struct DriverStats {
    /// Methods verified.
    pub methods: usize,
    /// Total VCs across all methods.
    pub vcs: usize,
    /// VCs answered from the cache (on-disk hits plus in-batch duplicates).
    pub cache_hits: usize,
    /// Fresh SMT queries actually discharged.
    pub smt_queries: usize,
    /// VCs skipped because their method was already refuted (the parallel
    /// analogue of the sequential pipeline's early stop).
    pub skipped_vcs: usize,
    /// Early-stop cancellations observed by workers during the solve stage:
    /// the number of scheduled VC executions that were abandoned because a
    /// sibling VC's refutation cancelled their method. Not a subset of
    /// `skipped_vcs` in either direction: a cancelled VC that precedes the
    /// refutation in VC order is re-solved by the repair pass (cancelled but
    /// not skipped), and a VC of a cache-refuted method is never scheduled
    /// at all (skipped but not cancelled).
    pub cancellations: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Merged solver statistics over all fresh queries.
    pub solver: SolverStats,
}

/// The result of a batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Per-method reports, in selection order.
    pub reports: Vec<MethodReport>,
    /// Units that failed before reaching the solver.
    pub errors: Vec<BatchError>,
    /// Aggregate statistics.
    pub stats: DriverStats,
}

impl BatchReport {
    /// True if nothing errored and every method verified.
    pub fn all_verified(&self) -> bool {
        self.errors.is_empty() && self.reports.iter().all(|r| r.outcome.is_verified())
    }
}

/// Verifies every method of every benchmark (the full Table-2 run).
pub fn verify_suite(benchmarks: &[Benchmark], config: &DriverConfig) -> BatchReport {
    let selections: Vec<Selection> = benchmarks.iter().map(Selection::from_benchmark).collect();
    verify_selections(&selections, config)
}

/// Verifies the given selections through the parallel engine.
pub fn verify_selections(selections: &[Selection], config: &DriverConfig) -> BatchReport {
    let start = Instant::now();
    let mut errors = Vec::new();

    // ---------------------------------------------------------- load stage
    // Parse + typecheck each methods file once per structure (cheap, serial).
    let mut loaded: Vec<(&Selection, ids_ivl::Program)> = Vec::new();
    for sel in selections {
        match load_methods(sel.definition, sel.methods_src) {
            Ok(merged) => loaded.push((sel, merged)),
            Err(e) => errors.push(BatchError {
                structure: sel.name.to_string(),
                method: "*".to_string(),
                message: e.to_string(),
            }),
        }
    }

    // ------------------------------------------------------- prepare stage
    // One job per (structure, method): expansion + VC generation in parallel.
    struct PrepJob<'a> {
        sel: &'a Selection<'a>,
        merged: &'a ids_ivl::Program,
        method: &'a str,
    }
    let prep_jobs: Vec<PrepJob> = loaded
        .iter()
        .flat_map(|(sel, merged)| {
            sel.methods.iter().map(move |m| PrepJob {
                sel,
                merged,
                method: m,
            })
        })
        .collect();
    let pipeline_config = config.pipeline_config();
    let prepared = pool::run(config.jobs, prep_jobs, |job| {
        prepare_method_in(job.sel.definition, job.merged, job.method, pipeline_config).map_err(
            |e| BatchError {
                structure: job.sel.name.to_string(),
                method: job.method.to_string(),
                message: e.to_string(),
            },
        )
    });
    let mut tasks = Vec::new();
    for res in prepared {
        match res {
            Ok(task) => tasks.push(task),
            Err(e) => errors.push(e),
        }
    }

    let mut report = verify_tasks(tasks, config);
    report.errors.extend(errors);
    report.stats.wall = start.elapsed();
    report
}

/// Discharges already-prepared tasks through the cache and the worker pool.
///
/// This is the lowest-level entry point; `ids-verify verify <file>` uses it
/// with tasks built by [`ids_core::pipeline::prepare_plain`].
pub fn verify_tasks(tasks: Vec<MethodTask>, config: &DriverConfig) -> BatchReport {
    let start = Instant::now();
    let mut cache = match &config.cache_path {
        Some(path) => VcCache::load(path).unwrap_or_else(|e| {
            eprintln!("warning: could not read cache {}: {}", path.display(), e);
            VcCache::new()
        }),
        None => VcCache::new(),
    };

    // ------------------------------------------------------- resolve stage
    // Hash every VC; answer what the cache already knows; group the rest by
    // key so identical formulas across the batch are solved exactly once.
    let mut results: Vec<Vec<Option<VcResult>>> =
        tasks.iter().map(|t| vec![None; t.num_vcs()]).collect();
    let resolve_span = ids_obs::span("resolve");
    let mut cache_hits = 0usize;
    let mut smt_queries = 0usize;
    // BTreeMap: deterministic job order regardless of hash values.
    let mut pending: BTreeMap<u128, Vec<(usize, usize)>> = BTreeMap::new();
    // Tasks with a known-refuted VC (mapped to when the refutation was
    // learned, for cancellation-latency telemetry): their remaining VCs are
    // skipped, the parallel analogue of the sequential early stop. Seeded
    // from the cache, extended concurrently by workers as refutations come
    // in.
    let mut refuted_tasks: std::collections::HashMap<usize, Instant> =
        std::collections::HashMap::new();
    // Hash every VC once; the resolve and repair passes share the keys
    // (structural hashing walks the whole formula DAG — not free).
    let keys: Vec<Vec<u128>> = tasks
        .iter()
        .map(|t| (0..t.num_vcs()).map(|vi| t.vc_key(vi)).collect())
        .collect();
    // Re-check mode: cached verdicts are not replayed; every VC re-solves.
    for (ti, slots) in results.iter_mut().enumerate() {
        for (vi, slot) in slots.iter_mut().enumerate() {
            let key = keys[ti][vi];
            let known = if config.recheck { None } else { cache.get(key) };
            if let Some(verdict) = known {
                *slot = Some(VcResult::from_cache(vi, verdict));
                cache_hits += 1;
                ids_obs::instant_with("cache_hit", || format!("{} vc {}", tasks[ti].method, vi));
                if verdict == ids_core::pipeline::VcVerdict::Refuted {
                    refuted_tasks.entry(ti).or_insert_with(Instant::now);
                }
            } else {
                pending.entry(key).or_default().push((ti, vi));
            }
        }
    }
    drop(resolve_span);

    // --------------------------------------------------------- solve stage
    // Each pending key is solved at one "primary" site — preferably one whose
    // method is not already refuted, so a cancellation cannot starve a
    // sibling method that shares the formula.
    let solve_span = ids_obs::span("solve");
    // Every pending VC is enqueued now; the gap between this instant and the
    // moment a worker picks up the VC's unit (its structure's pool) is that
    // VC's queue time (`VcResult::queue_time`) — scheduler imbalance, as
    // opposed to solver cost.
    let solve_start = Instant::now();
    let jobs: Vec<(u128, usize, usize)> = pending
        .iter()
        .filter_map(|(&key, sites)| {
            sites
                .iter()
                .find(|(ti, _)| !refuted_tasks.contains_key(ti))
                .or_else(|| sites.first())
                .map(|&(ti, vi)| (key, ti, vi))
        })
        .collect();
    let tasks_ref = &tasks;
    let cancelled = std::sync::Mutex::new(refuted_tasks);
    let cancelled_ref = &cancelled;
    let cancellation_count = std::sync::atomic::AtomicUsize::new(0);
    // Runs one method's pending VCs in index order (hypothesis prefixes are
    // monotone; cache-answered indices are simply skipped) through `check`,
    // honouring per-VC cancellation; a refuted VC cancels the method's rest —
    // exactly the sequential pipeline's early stop. `picked_up` is when a
    // worker picked up the unit the method belongs to: every VC of the unit
    // stopped waiting in the queue then.
    let run_method_items = |ti: usize,
                            mut items: Vec<(u128, usize)>,
                            picked_up: Instant,
                            out: &mut Vec<(u128, usize, usize, Option<VcResult>)>,
                            check: &mut dyn FnMut(usize) -> VcResult| {
        items.sort_by_key(|&(_, vi)| vi);
        for (key, vi) in items {
            let since = cancelled_ref.lock().expect("cancel set").get(&ti).copied();
            if let Some(since) = since {
                // A worker-observed early stop: the method was cancelled
                // `since` ago.
                cancellation_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                ids_obs::instant_with("cancelled", || {
                    format!(
                        "{} vc {} stopped {}us after refutation",
                        tasks_ref[ti].method,
                        vi,
                        since.elapsed().as_micros()
                    )
                });
                out.push((key, ti, vi, None));
                continue;
            }
            let mut result = check(vi);
            result.queue_time = picked_up.duration_since(solve_start);
            if result.verdict == ids_core::pipeline::VcVerdict::Refuted {
                cancelled_ref
                    .lock()
                    .expect("cancel set")
                    .entry(ti)
                    .or_insert_with(Instant::now);
            }
            out.push((key, ti, vi, Some(result)));
        }
    };
    // A method's share of the pending queue: its task index and the
    // (cache key, VC index) pairs to discharge.
    type MethodItems = (usize, Vec<(u128, usize)>);
    // All pending methods of one structure form one *warm-pool unit* on a
    // worker. A StructureSession lowers the structure-common hypothesis
    // prelude once at structure scope; each method then runs in a
    // retractable method scope.
    let mut by_task: BTreeMap<usize, Vec<(u128, usize)>> = BTreeMap::new();
    for (key, ti, vi) in jobs {
        by_task.entry(ti).or_default().push((key, vi));
    }
    // BTreeMap order: a unit's methods run in ascending task index.
    let mut by_structure: BTreeMap<&str, Vec<MethodItems>> = BTreeMap::new();
    for (ti, items) in by_task {
        by_structure
            .entry(tasks_ref[ti].structure.as_str())
            .or_default()
            .push((ti, items));
    }
    let units: Vec<Vec<MethodItems>> = by_structure.into_values().collect();
    let solved: Vec<(u128, usize, usize, Option<VcResult>)> =
        pool::run(config.jobs, units, move |unit| {
            let picked_up = Instant::now();
            let unit_tasks: Vec<&MethodTask> = unit.iter().map(|&(ti, _)| &tasks_ref[ti]).collect();
            // Quantified-encoding tasks fall back to fresh solvers inside
            // the same unit.
            let mut pool_session = ids_core::pipeline::StructureSession::new(&unit_tasks);
            let mut out = Vec::new();
            for (slot, (ti, items)) in unit.into_iter().enumerate() {
                match pool_session.as_mut() {
                    Some(s) => {
                        s.begin_method(slot);
                        let mut check = |vi| s.check_vc(slot, vi);
                        run_method_items(ti, items, picked_up, &mut out, &mut check);
                        s.end_method();
                    }
                    None => {
                        let mut check = |vi| tasks_ref[ti].check_vc(vi);
                        run_method_items(ti, items, picked_up, &mut out, &mut check);
                    }
                }
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();
    drop(cancelled);
    let cancellations = cancellation_count.load(std::sync::atomic::Ordering::Relaxed);
    for (key, ti, vi, result) in solved {
        let Some(result) = result else { continue };
        smt_queries += 1;
        cache.insert_core(key, result.verdict, result.core.clone());
        // The solving site keeps the real stats; duplicates across the batch
        // are answered as cache hits.
        for &(sti, svi) in &pending[&key] {
            if (sti, svi) == (ti, vi) {
                results[sti][svi] = Some(VcResult {
                    vc_index: svi,
                    ..result.clone()
                });
            } else {
                results[sti][svi] = Some(VcResult::from_cache(svi, result.verdict));
                cache_hits += 1;
                ids_obs::instant_with("dedup_hit", || {
                    format!("{} vc {}", tasks_ref[sti].method, svi)
                });
            }
        }
    }
    drop(solve_span);

    // ---------------------------------------------------------- repair pass
    // Walk every method's VCs in order and fill any slot the parallel stage
    // left unsolved (a cancelled primary site, or a sibling's duplicate whose
    // solver was skipped), stopping at the first non-valid result. This
    // restores the exact sequential semantics: the reported outcome — kind
    // *and* failing VC — is the first non-valid VC in VC order, with every VC
    // before it discharged, no matter how the concurrent stage interleaved or
    // what the cache already knew. VCs after that boundary stay unsolved
    // (`skipped_vcs`), the early-stop saving.
    let repair_span = ids_obs::span("repair");
    for (ti, (task, slots)) in tasks.iter().zip(results.iter_mut()).enumerate() {
        // Repaired VCs share one incremental session per method too (opened
        // lazily: most methods need no repair). Indices may be skipped —
        // sessions only require ascending order, which this walk guarantees.
        let mut session: Option<ids_core::pipeline::MethodSession> = None;
        for (vi, slot) in slots.iter_mut().enumerate() {
            if let Some(present) = slot {
                if present.verdict != ids_core::pipeline::VcVerdict::Valid {
                    break;
                }
                continue;
            }
            let key = keys[ti][vi];
            let known = if config.recheck { None } else { cache.get(key) };
            let result = if let Some(verdict) = known {
                cache_hits += 1;
                VcResult::from_cache(vi, verdict)
            } else {
                if session.is_none() {
                    session = ids_core::pipeline::MethodSession::new(task);
                }
                let result = match session.as_mut() {
                    Some(s) => s.check_vc(vi),
                    None => task.check_vc(vi),
                };
                smt_queries += 1;
                cache.insert_core(key, result.verdict, result.core.clone());
                result
            };
            let stop = result.verdict != ids_core::pipeline::VcVerdict::Valid;
            *slot = Some(result);
            if stop {
                break;
            }
        }
    }
    drop(repair_span);

    if let (Some(path), true) = (&config.cache_path, cache.is_dirty()) {
        // Merge-under-lock: concurrent ids-verify runs sharing this cache
        // union their verdicts instead of clobbering each other.
        if let Err(e) = cache.save_merged(path) {
            eprintln!("warning: could not write cache {}: {}", path.display(), e);
        }
    }

    // ----------------------------------------------------- aggregate stage
    let mut stats = DriverStats {
        smt_queries,
        cache_hits,
        cancellations,
        ..DriverStats::default()
    };
    let mut reports = Vec::with_capacity(tasks.len());
    for (task, vc_results) in tasks.iter().zip(results) {
        // Missing entries are VCs skipped after their method was refuted;
        // `MethodTask::report` scans what is present in VC order, exactly as
        // it does for a sequential early stop.
        let vc_results: Vec<VcResult> = vc_results.into_iter().flatten().collect();
        stats.skipped_vcs += task.num_vcs() - vc_results.len();
        let report = task.report(&vc_results);
        stats.methods += 1;
        stats.vcs += report.num_vcs;
        stats.solver.merge(&report.solver);
        reports.push(report);
    }
    stats.wall = start.elapsed();

    // ------------------------------------------------------- ledger stage
    // Longitudinal record: one schema-versioned JSONL line per run, keyed by
    // the same stable vc_keys the cache uses, so runs are joinable across
    // machines and PRs (`ids-verify compare` / `history`).
    if let Some(path) = &config.ledger_path {
        let record = ledger::RunRecord::from_batch(&tasks, &reports, &stats, config);
        if let Err(e) = ledger::append_run(path, &record) {
            eprintln!(
                "warning: could not append run ledger {}: {}",
                path.display(),
                e
            );
        }
    }

    BatchReport {
        reports,
        errors: Vec::new(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_structures::lists;

    #[test]
    fn structure_pool_matches_the_one_shot_pipeline() {
        // The same methods through the driver's structure pools and through
        // the sequential pipeline, which checks each VC with a fresh one-shot
        // solver: outcome (kind and failing VC) and VC counts must be
        // identical; only solver-internal statistics may differ. Includes a
        // refuted method so the early-stop paths are compared too, and a
        // two-method structure so the structure pool actually spans
        // methods.
        let good = ids_structures::Benchmark {
            name: "Singly-Linked List",
            definition: lists::singly_linked_list(),
            methods_src: lists::SINGLY_LINKED_LIST_METHODS,
            methods: vec![],
        };
        let bad = ids_structures::Benchmark {
            name: "Singly-Linked List (buggy)",
            definition: lists::singly_linked_list(),
            methods_src: ids_structures::buggy::BUGGY_LIST_METHODS,
            methods: vec![],
        };
        let sel = vec![
            Selection::methods_of(&good, &["set_key", "find"]),
            Selection::methods_of(&bad, &["insert_front_forgets_length"]),
        ];
        let batch = verify_selections(
            &sel,
            &DriverConfig {
                jobs: 2,
                ..DriverConfig::default()
            },
        );
        assert!(batch.errors.is_empty(), "{:?}", batch.errors);
        let sequential: Vec<MethodReport> = sel
            .iter()
            .flat_map(|s| {
                let merged = load_methods(s.definition, s.methods_src).unwrap();
                s.methods
                    .iter()
                    .map(|m| {
                        ids_core::pipeline::verify_method_in(
                            s.definition,
                            &merged,
                            m,
                            PipelineConfig::default(),
                        )
                        .unwrap()
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(batch.reports.len(), sequential.len());
        for (a, b) in batch.reports.iter().zip(&sequential) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.outcome, b.outcome, "{} diverged", a.method);
            assert_eq!(a.num_vcs, b.num_vcs);
        }
        assert!(batch.reports[0].outcome.is_verified());
        assert!(batch.reports[1].outcome.is_verified());
        assert!(!batch.reports[2].outcome.is_verified());
        // The structure pool's prelude reuse is observable in the second
        // method's stats (methods of one structure run in task order): the
        // structure-common hypothesis prelude is answered from structure
        // scope. A one-shot check reuses nothing: it lowers its one formula.
        assert!(
            batch.reports[1].solver.prelude_reused > 0,
            "{:?}",
            batch.reports[1].solver
        );
        let one_shot_find = &sequential[1];
        assert_eq!(one_shot_find.solver.prelude_reused, 0);
        assert_eq!(
            one_shot_find.solver.prelude_lowered,
            one_shot_find.vc_reports.len() as u64
        );
    }

    #[test]
    fn in_memory_memoization_dedupes_identical_vcs() {
        let b = ids_structures::Benchmark {
            name: "Singly-Linked List",
            definition: lists::singly_linked_list(),
            methods_src: lists::SINGLY_LINKED_LIST_METHODS,
            methods: vec![],
        };
        // The same method twice in one batch: the second copy's VCs are
        // byte-identical, so they must all be deduplicated.
        let sel = vec![
            Selection::methods_of(&b, &["set_key"]),
            Selection::methods_of(&b, &["set_key"]),
        ];
        let batch = verify_selections(&sel, &DriverConfig::default());
        assert!(batch.all_verified(), "{:?}", batch.errors);
        let per_method_vcs = batch.reports[0].num_vcs;
        assert_eq!(batch.stats.vcs, 2 * per_method_vcs);
        assert_eq!(batch.stats.smt_queries, per_method_vcs);
        assert_eq!(batch.stats.cache_hits, per_method_vcs);
        assert_eq!(batch.reports[1].cached_vcs, per_method_vcs);
    }

    #[test]
    fn cached_refutation_skips_the_rest_of_the_method() {
        let cache =
            std::env::temp_dir().join(format!("ids-driver-cancel-{}.cache", std::process::id()));
        std::fs::remove_file(&cache).ok();
        let b = ids_structures::Benchmark {
            name: "Singly-Linked List (buggy)",
            definition: lists::singly_linked_list(),
            methods_src: ids_structures::buggy::BUGGY_LIST_METHODS,
            methods: vec![],
        };
        let sel = vec![Selection::methods_of(&b, &["leaves_broken_set_nonempty"])];
        let config = DriverConfig {
            jobs: 2,
            cache_path: Some(cache.clone()),
            ..DriverConfig::default()
        };
        let cold = verify_selections(&sel, &config);
        assert!(!cold.reports[0].outcome.is_verified());
        assert!(cold.stats.smt_queries > 0);

        // The cache now holds a refuted VC for this method: the re-run skips
        // everything that was never solved instead of solving it now.
        let warm = verify_selections(&sel, &config);
        assert!(!warm.reports[0].outcome.is_verified());
        assert_eq!(
            warm.stats.smt_queries, 0,
            "a cached refutation must cancel the method's remaining VCs"
        );
        assert_eq!(
            warm.stats.cache_hits + warm.stats.skipped_vcs,
            warm.stats.vcs
        );
        std::fs::remove_file(&cache).ok();
    }

    #[test]
    fn refutation_cancels_trailing_vcs_and_counts_them() {
        // A method refuted mid-way: every VC scheduled after the refuting
        // one is abandoned, and each abandonment is surfaced as a
        // cancellation. With jobs=1 the whole job list is enqueued before
        // the inline worker starts, and a session runs its VCs in VC order,
        // so exactly the skipped VCs are cancelled.
        let b = ids_structures::Benchmark {
            name: "Singly-Linked List (buggy)",
            definition: lists::singly_linked_list(),
            methods_src: ids_structures::buggy::BUGGY_LIST_METHODS,
            methods: vec![],
        };
        let sel = vec![Selection::methods_of(&b, &["insert_front_forgets_length"])];
        let batch = verify_selections(
            &sel,
            &DriverConfig {
                jobs: 1,
                ..DriverConfig::default()
            },
        );
        assert!(batch.errors.is_empty(), "{:?}", batch.errors);
        assert!(!batch.reports[0].outcome.is_verified());
        assert!(
            batch.stats.skipped_vcs > 0,
            "the fixture no longer early-stops anything"
        );
        assert_eq!(batch.stats.cancellations, batch.stats.skipped_vcs);
    }

    #[test]
    fn recheck_repeats_the_cold_search() {
        // `--recheck` ignores cached verdicts and re-solves every VC from
        // its full hypothesis set. The cores a run writes back must not
        // steer the next one: two rechecks in a row from a cold run's cache
        // make the cold run's search, VC for VC.
        let cache =
            std::env::temp_dir().join(format!("ids-driver-recheck-{}.cache", std::process::id()));
        std::fs::remove_file(&cache).ok();
        let b = ids_structures::Benchmark {
            name: "Singly-Linked List",
            definition: lists::singly_linked_list(),
            methods_src: lists::SINGLY_LINKED_LIST_METHODS,
            methods: vec![],
        };
        let sel = vec![Selection::methods_of(&b, &["set_key", "find"])];
        let config = DriverConfig {
            jobs: 1,
            cache_path: Some(cache.clone()),
            ..DriverConfig::default()
        };
        let cold = verify_selections(&sel, &config);
        assert!(cold.all_verified(), "{:?}", cold.errors);
        let text = std::fs::read_to_string(&cache).unwrap();
        assert!(text.contains(" V #"), "the cold run records cores");

        let recheck = DriverConfig {
            recheck: true,
            ..config
        };
        for round in 1..=2 {
            let again = verify_selections(&sel, &recheck);
            assert!(again.all_verified(), "recheck {round}: {:?}", again.errors);
            assert!(again.stats.smt_queries > 0, "recheck {round} must re-solve");
            assert_eq!(again.stats.smt_queries, cold.stats.smt_queries);
            assert_eq!(again.reports.len(), cold.reports.len());
            for (a, c) in again.reports.iter().zip(&cold.reports) {
                assert_eq!(a.outcome, c.outcome, "recheck {round}: {}", a.method);
                assert_eq!(a.vc_reports.len(), c.vc_reports.len());
                for (va, vc) in a.vc_reports.iter().zip(&c.vc_reports) {
                    let at = format!("recheck {round}: {} {}", a.method, vc.description);
                    assert_eq!(va.vc_key, vc.vc_key, "{at}");
                    assert_eq!(va.verdict, vc.verdict, "{at}");
                    assert_eq!(va.cached, vc.cached, "{at}");
                    assert_eq!(va.solver.sat_decisions, vc.solver.sat_decisions, "{at}");
                    assert_eq!(va.solver.sat_conflicts, vc.solver.sat_conflicts, "{at}");
                    assert_eq!(va.core, vc.core, "{at}");
                }
            }
        }
        std::fs::remove_file(&cache).ok();
    }

    #[test]
    fn load_errors_are_reported_not_panicked() {
        let b = ids_structures::Benchmark {
            name: "Broken",
            definition: lists::singly_linked_list(),
            methods_src: "procedure oops( {",
            methods: vec!["oops".into()],
        };
        let sel = vec![Selection::from_benchmark(&b)];
        let batch = verify_selections(&sel, &DriverConfig::default());
        assert!(batch.reports.is_empty());
        assert_eq!(batch.errors.len(), 1);
        assert_eq!(batch.errors[0].method, "*");
    }
}
