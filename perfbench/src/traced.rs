//! A traced reproduction of `ids_driver::verify_selections` at `--jobs 1`
//! (structure pools, the default) under the decidable encoding, made only
//! of public calls, each wrapped in a span owned by the benchmark.
//!
//! It must make the same calls in the same order as `verify_selections`, so
//! that its verdicts and SMT query count equal the untraced pass's; the
//! benchmark checks that on every traced pass.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use ids_core::pipeline::{
    prepare_method_in, MethodReport, MethodSession, MethodTask, PipelineConfig, StructureSession,
    VcResult, VcVerdict,
};
use ids_driver::cache::VcCache;
use ids_driver::{ledger, DriverConfig, DriverStats, PoolMode, Selection};
use ids_obs::HistogramSet;

use crate::trace::Tracer;

/// What a traced pass produced besides its spans.
pub struct TracedPass {
    pub reports: Vec<MethodReport>,
    pub stats: DriverStats,
    /// Pipeline errors, one per structure or method that failed to load.
    pub errors: Vec<String>,
    /// Bytes of IVL method source parsed.
    pub source_bytes: usize,
    /// Sum of the prepared tasks' hypothesis counts and term-manager sizes.
    pub hyps: usize,
    pub terms: usize,
    /// Solve time of each fresh SMT query.
    pub query_times: Vec<Duration>,
    /// Fresh queries that ended Unknown.
    pub unknowns: usize,
    /// Solver-dynamics histograms merged over every fresh query.
    pub hists: HistogramSet,
}

/// Runs one traced pass over `selections` with `config` (which must have
/// a cache path, as `ids-verify suite --cache` does).
///
/// The decidable encoding always opens a structure or method session;
/// `verify_selections` falls back to `MethodTask::check_vc` only under the
/// quantified one, which no workload uses.
pub fn traced_pass(selections: &[Selection], config: &DriverConfig, tr: &mut Tracer) -> TracedPass {
    assert_eq!(config.pool_mode, PoolMode::Structure);
    assert!(
        !config.recheck,
        "the traced pass reproduces plain runs only"
    );
    let cache_path = config.cache_path.as_ref().expect("a cache path");
    let root = tr.open("pass", None);
    let mut errors = Vec::new();
    let mut source_bytes = 0;

    // Load stage: parse each methods file, merge it with the definition's
    // field prelude and typecheck (`ids_core::pipeline::load_methods`).
    let mut loaded = Vec::new();
    for sel in selections {
        source_bytes += sel.methods_src.len();
        let parsed = tr.time("parse", None, || ids_ivl::parse_program(sel.methods_src));
        let merged = tr.time("typecheck", None, || {
            let methods = parsed.map_err(|e| e.to_string())?;
            let mut merged = sel.definition.prelude();
            merged.extend(methods);
            ids_ivl::check_program(&merged).map_err(|e| e.to_string())?;
            Ok::<_, String>(merged)
        });
        match merged {
            Ok(m) => loaded.push((sel, m)),
            Err(e) => errors.push(format!("{}: {}", sel.name, e)),
        }
    }

    // Prepare stage. `prepare_method_in` reports the time of its final
    // phase (FWYB expansion + VC generation); the rest of the call is the
    // discipline checks.
    let pipeline = PipelineConfig {
        encoding: config.encoding,
        profile: config.solver_profile,
        ..PipelineConfig::default()
    };
    let mut tasks: Vec<MethodTask> = Vec::new();
    for (sel, merged) in &loaded {
        for method in &sel.methods {
            let id = tr.open("prepare", Some(tasks.len()));
            let task = prepare_method_in(sel.definition, merged, method, pipeline);
            tr.close(id);
            match task {
                Ok(task) => {
                    tr.tail_child(id, "vcgen", task.prepare_time);
                    tasks.push(task);
                }
                Err(e) => errors.push(format!("{}::{}: {}", sel.name, method, e)),
            }
        }
    }
    let hyps = tasks.iter().map(|t| t.hypotheses.len()).sum();
    let terms = tasks.iter().map(|t| t.tm.len()).sum();

    // Resolve stage: load the cache, key every VC, answer what the cache
    // knows and group the rest by key (in-batch dedup).
    let mut cache = tr.time("cache_load", None, || {
        VcCache::load(cache_path).unwrap_or_else(|e| {
            eprintln!(
                "warning: could not read cache {}: {}",
                cache_path.display(),
                e
            );
            VcCache::new()
        })
    });
    let keys: Vec<Vec<u128>> = tasks
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            (0..t.num_vcs())
                .map(|vi| tr.time("key", Some(ti), || t.vc_key(vi)))
                .collect()
        })
        .collect();
    let mut results: Vec<Vec<Option<VcResult>>> =
        tasks.iter().map(|t| vec![None; t.num_vcs()]).collect();
    let mut cache_hits = 0;
    let mut smt_queries = 0;
    let mut refuted: BTreeSet<usize> = BTreeSet::new();
    let mut pending: BTreeMap<u128, Vec<(usize, usize)>> = BTreeMap::new();
    for (ti, slots) in results.iter_mut().enumerate() {
        for (vi, slot) in slots.iter_mut().enumerate() {
            let key = keys[ti][vi];
            match cache.get(key) {
                Some(verdict) => {
                    *slot = Some(VcResult::from_cache(vi, verdict));
                    cache_hits += 1;
                    if verdict == VcVerdict::Refuted {
                        refuted.insert(ti);
                    }
                }
                None => pending.entry(key).or_default().push((ti, vi)),
            }
        }
    }

    // Solve stage: each pending key once, at a site whose method is not
    // refuted if there is one; a structure's methods form one pool unit.
    let mut by_task: BTreeMap<usize, Vec<(u128, usize)>> = BTreeMap::new();
    for (&key, sites) in &pending {
        let &(ti, vi) = sites
            .iter()
            .find(|(ti, _)| !refuted.contains(ti))
            .or_else(|| sites.first())
            .expect("pending keys have a site");
        by_task.entry(ti).or_default().push((key, vi));
    }
    // A method's share of the pending queue: its task index and the
    // (cache key, VC index) pairs to discharge.
    type MethodItems = (usize, Vec<(u128, usize)>);
    let mut by_structure: BTreeMap<&str, Vec<MethodItems>> = BTreeMap::new();
    for (ti, items) in by_task {
        by_structure
            .entry(tasks[ti].structure.as_str())
            .or_default()
            .push((ti, items));
    }
    let mut query_times = Vec::new();
    let mut unknowns = 0;
    let mut hists = HistogramSet::default();
    let mut cancellations = 0;
    let mut solved: Vec<(u128, usize, usize, VcResult)> = Vec::new();
    for unit in by_structure.into_values() {
        let unit_tasks: Vec<&MethodTask> = unit.iter().map(|&(ti, _)| &tasks[ti]).collect();
        let mut session = tr.time("pool_open", None, || {
            StructureSession::new(&unit_tasks).expect("decidable tasks open a structure session")
        });
        for (slot, (ti, mut items)) in unit.into_iter().enumerate() {
            items.sort_by_key(|&(_, vi)| vi);
            tr.time("scope", Some(ti), || session.begin_method(slot));
            for (key, vi) in items {
                if refuted.contains(&ti) {
                    cancellations += 1;
                    continue;
                }
                let result = tr.time("check", Some(ti), || session.check_vc(slot, vi));
                if result.verdict == VcVerdict::Refuted {
                    refuted.insert(ti);
                }
                solved.push((key, ti, vi, result));
            }
            tr.time("scope", Some(ti), || session.end_method());
        }
    }
    let mut note_query = |r: &VcResult| {
        query_times.push(r.time);
        unknowns += usize::from(r.verdict == VcVerdict::Unknown);
        hists.merge(&r.hists);
    };
    for (key, ti, vi, result) in solved {
        smt_queries += 1;
        note_query(&result);
        cache.insert_core(key, result.verdict, result.core.clone());
        for &(sti, svi) in &pending[&key] {
            if (sti, svi) == (ti, vi) {
                results[sti][svi] = Some(result.clone());
            } else {
                results[sti][svi] = Some(VcResult::from_cache(svi, result.verdict));
                cache_hits += 1;
            }
        }
    }

    // Repair pass: fill every VC before a method's first non-valid one that
    // the solve stage left empty.
    for (ti, (task, slots)) in tasks.iter().zip(results.iter_mut()).enumerate() {
        let mut session: Option<MethodSession> = None;
        for (vi, slot) in slots.iter_mut().enumerate() {
            if let Some(present) = slot {
                if present.verdict != VcVerdict::Valid {
                    break;
                }
                continue;
            }
            let key = keys[ti][vi];
            let result = if let Some(verdict) = cache.get(key) {
                cache_hits += 1;
                VcResult::from_cache(vi, verdict)
            } else {
                let s = session.get_or_insert_with(|| {
                    tr.time("pool_open", Some(ti), || {
                        MethodSession::new(task).expect("a decidable task opens a method session")
                    })
                });
                let result = tr.time("check", Some(ti), || s.check_vc(vi));
                smt_queries += 1;
                note_query(&result);
                cache.insert_core(key, result.verdict, result.core.clone());
                result
            };
            let stop = result.verdict != VcVerdict::Valid;
            *slot = Some(result);
            if stop {
                break;
            }
        }
    }

    if cache.is_dirty() {
        let saved = tr.time("cache_save", None, || cache.save_merged(cache_path));
        if let Err(e) = saved {
            eprintln!(
                "warning: could not write cache {}: {}",
                cache_path.display(),
                e
            );
        }
    }

    // Aggregate stage.
    let mut stats = DriverStats {
        smt_queries,
        cache_hits,
        cancellations,
        ..DriverStats::default()
    };
    let mut reports = Vec::with_capacity(tasks.len());
    for (ti, (task, vc_results)) in tasks.iter().zip(results).enumerate() {
        let vc_results: Vec<VcResult> = vc_results.into_iter().flatten().collect();
        stats.skipped_vcs += task.num_vcs() - vc_results.len();
        let report = tr.time("report", Some(ti), || task.report(&vc_results));
        stats.methods += 1;
        stats.vcs += report.num_vcs;
        stats.solver.merge(&report.solver);
        reports.push(report);
    }

    if let Some(path) = &config.ledger_path {
        stats.wall = tr.elapsed_in(root);
        let appended = tr.time("ledger", None, || {
            let record = ledger::RunRecord::from_batch(&tasks, &reports, &stats, config);
            ledger::append_run(path, &record)
        });
        if let Err(e) = appended {
            eprintln!(
                "warning: could not append run ledger {}: {}",
                path.display(),
                e
            );
        }
    }
    tr.close(root);
    stats.wall = tr.duration(root);

    TracedPass {
        reports,
        stats,
        errors,
        source_bytes,
        hyps,
        terms,
        query_times,
        unknowns,
        hists,
    }
}
