//! End-to-end and per-layer benchmark of the Table-2 verification suite.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2-cold --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Each run verifies one workload's corpus in-process through
//! `ids_driver::verify_selections`, configured as `ids-verify suite --jobs 1
//! --cache <fresh file>` configures it (ledger on, solver metrics armed),
//! checks every verdict against a hand-written oracle, and prints its
//! metrics as one JSON object on the last line of standard output. With
//! `--trace 1` it alternates untraced passes with a traced reproduction of
//! the same pass and prints the per-layer metrics instead. See README.md.

mod corpus;
mod stats;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ids_core::pipeline::{
    load_methods, prepare_method_in, MethodReport, PipelineConfig, VcVerdict,
};
use ids_driver::cache::VcCache;
use ids_driver::{verify_selections, BatchReport, DriverConfig, DriverStats, PoolMode};
use ids_obs::Metric;

use corpus::{Corpus, Workload};
use trace::Tracer;

const USAGE: &str = "usage: ids-perfbench --workload <table2-cold|table2-warm> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Set-up is timed in blocks of at least [`SETUP_BLOCK_REPEATS`]
/// repetitions and [`SETUP_BLOCK_SECONDS`]: one before the first pass and
/// one before every later pass that starts [`SETUP_EVERY`] after the
/// previous block; `setup_s` is the median over all of them. A cold set-up
/// takes about 2 ms and the machine's speed drifts over seconds, so set-ups
/// timed at a single instant of a run read up to twice as long as at
/// another.
const SETUP_BLOCK_REPEATS: usize = 5;
const SETUP_BLOCK_SECONDS: f64 = 0.2;
const SETUP_EVERY: Duration = Duration::from_secs(5);

/// `peak_rss_mb` is read right after this untraced pass, and every untraced
/// run makes at least this many. Peak memory grows over a process's first
/// passes (on `table2-cold` from 27.8-35.4 MB after the first to
/// 32.6-39.6 MB after the third, across ten seeds), so a reading at the
/// end of the run would depend on how many passes fitted in it.
const RSS_PASS: usize = 3;

/// Scratch directory for cache and ledger files, relative to the directory
/// the benchmark runs in; each process uses and removes its own
/// subdirectory.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 60;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = corpus::check_coverage(&ids_structures::all_benchmarks()) {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    let work = match WorkFiles::create(args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: cannot create {WORK_DIR}: {e}");
            return ExitCode::from(1);
        }
    };
    // `ids-verify suite` arms solver metrics whenever the ledger is on.
    ids_obs::set_metrics(true);
    let outcome = Bench::new(&args, &work).run();
    work.remove();
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// The cache and ledger files of one process.
struct WorkFiles {
    dir: PathBuf,
    cache: PathBuf,
    ledger: PathBuf,
}

impl WorkFiles {
    fn create(workload: Workload) -> std::io::Result<WorkFiles> {
        let dir = Path::new(WORK_DIR).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        let cache = dir.join(format!("{}.cache", workload.name()));
        // Where `ids-verify --cache X` keeps its ledger: `X.ledger.jsonl`.
        let ledger = dir.join(format!("{}.cache.ledger.jsonl", workload.name()));
        Ok(WorkFiles { dir, cache, ledger })
    }

    fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only when no other run still uses the directory.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// One metric as printed.
#[derive(Clone, Copy)]
struct Reading {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A run's result: the last line of standard output.
struct Outcome {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<Reading>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Solver counts of one pass, compared across passes of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    decisions: u64,
    conflicts: u64,
    rounds: u64,
    pivots: u64,
}

impl Counts {
    fn of(solver: &ids_smt::SolverStats) -> Counts {
        Counts {
            decisions: solver.sat_decisions,
            conflicts: solver.sat_conflicts,
            rounds: solver.theory_rounds,
            pivots: solver.pivots,
        }
    }
}

/// One untraced pass: its wall time and what the determinism record and
/// the traced self-check need.
struct Pass {
    wall: Duration,
    outcomes: Vec<(String, ids_vcgen::VerifyOutcome)>,
    queries: usize,
}

struct Bench<'a> {
    args: &'a Args,
    work: &'a WorkFiles,
    config: DriverConfig,
    attempted: usize,
    failed: usize,
    correct: bool,
    counts: Vec<Counts>,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args, work: &'a WorkFiles) -> Bench<'a> {
        // `ids-verify suite --jobs 1 --cache <file>`.
        let config = DriverConfig {
            jobs: 1,
            cache_path: Some(work.cache.clone()),
            ledger_path: Some(work.ledger.clone()),
            pool_mode: PoolMode::Structure,
            ..DriverConfig::default()
        };
        Bench {
            args,
            work,
            config,
            attempted: 0,
            failed: 0,
            correct: true,
            counts: Vec::new(),
        }
    }

    fn run(mut self) -> Outcome {
        let mut setup_times = Vec::new();
        let corpus = self.set_up_block(&mut setup_times);
        eprintln!(
            "{} seed {}: {} methods",
            self.args.workload.name(),
            self.args.seed,
            corpus.methods()
        );
        for x in corpus::EXCLUSIONS {
            if x.from.contains(&self.args.workload) {
                eprintln!("  excluded {}::{}: {}", x.structure, x.method, x.reason);
            }
        }
        let metrics = if self.args.trace {
            self.traced_run(&corpus)
        } else {
            let (walls, rss_mb) = self.untraced_run(&corpus, &mut setup_times);
            eprintln!(
                "set-up median {:.4} s over {} repetitions",
                stats::median(&setup_times),
                setup_times.len()
            );
            vec![
                Reading {
                    name: "wall_s",
                    value: stats::median(&walls),
                    unit: "s",
                },
                Reading {
                    name: "setup_s",
                    value: stats::median(&setup_times),
                    unit: "s",
                },
                Reading {
                    name: "peak_rss_mb",
                    value: rss_mb,
                    unit: "MB",
                },
            ]
        };
        self.check_determinism();
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: self.correct && self.failed == 0,
            metrics,
        }
    }

    /// Times one block of set-ups into `times`; returns the corpus.
    fn set_up_block(&self, times: &mut Vec<f64>) -> Corpus {
        let (mut repeats, mut spent) = (0, 0.0);
        loop {
            let start = Instant::now();
            let corpus = self.set_up();
            let t = start.elapsed().as_secs_f64();
            times.push(t);
            repeats += 1;
            spent += t;
            if repeats >= SETUP_BLOCK_REPEATS && spent >= SETUP_BLOCK_SECONDS {
                return corpus;
            }
        }
    }

    /// Builds the corpus; for `table2-warm` also writes a cache that answers
    /// every VC Valid, keyed without solving. Unlike the cache a cold run
    /// leaves, it holds no unsat cores.
    fn set_up(&self) -> Corpus {
        let corpus = Corpus::build(self.args.workload, self.args.seed);
        if self.args.workload == Workload::Table2Warm {
            let pipeline = PipelineConfig {
                encoding: self.config.encoding,
                ..PipelineConfig::default()
            };
            let mut cache = VcCache::new();
            for sel in corpus.selections() {
                let merged = load_methods(sel.definition, sel.methods_src).expect("corpus loads");
                for m in &sel.methods {
                    let task = prepare_method_in(sel.definition, &merged, m, pipeline)
                        .expect("corpus methods prepare");
                    for vi in 0..task.num_vcs() {
                        cache.insert(task.vc_key(vi), VcVerdict::Valid);
                    }
                }
            }
            cache.save(&self.work.cache).expect("write the warm cache");
        }
        corpus
    }

    /// Removes what the previous pass left: the cache of a cold workload
    /// and, for every workload, the ledger, so each pass appends to a fresh
    /// ledger and starts from the same files.
    fn reset_files(&self) {
        if self.args.workload != Workload::Table2Warm {
            let _ = std::fs::remove_file(&self.work.cache);
        }
        let _ = std::fs::remove_file(&self.work.ledger);
    }

    /// Untraced passes, with a set-up block before each pass that starts
    /// [`SETUP_EVERY`] after the previous block. Returns the passes' wall
    /// times and the peak memory in MB after pass [`RSS_PASS`].
    fn untraced_run(&mut self, corpus: &Corpus, setup_times: &mut Vec<f64>) -> (Vec<f64>, f64) {
        let mut walls = Vec::new();
        let mut rss_mb = 0.0;
        let mut last_block = Instant::now();
        repeat_within(self.budget(), RSS_PASS, || {
            if last_block.elapsed() >= SETUP_EVERY {
                self.set_up_block(setup_times);
                last_block = Instant::now();
            }
            let pass = self.untraced_pass(corpus);
            walls.push(pass.wall.as_secs_f64());
            if walls.len() == RSS_PASS {
                rss_mb = peak_rss_kb() as f64 / 1024.0;
            }
        });
        (walls, rss_mb)
    }

    fn untraced_pass(&mut self, corpus: &Corpus) -> Pass {
        self.reset_files();
        let selections = corpus.selections();
        let start = Instant::now();
        let batch = verify_selections(&selections, &self.config);
        let wall = start.elapsed();
        self.check_pass(
            "pass",
            corpus,
            &batch.reports,
            &batch_errors(&batch),
            &batch.stats,
        );
        Pass {
            wall,
            outcomes: outcomes(&batch.reports),
            queries: batch.stats.smt_queries,
        }
    }

    /// Checks one pass's verdicts against the oracle and, on the warm
    /// workload, that nothing was solved. Records the pass's solver counts
    /// and prints its line.
    fn check_pass(
        &mut self,
        label: &str,
        corpus: &Corpus,
        reports: &[MethodReport],
        errors: &[String],
        stats: &DriverStats,
    ) {
        let methods = corpus.methods();
        self.attempted += methods;
        let failures = corpus::check_reports(corpus, reports);
        for f in errors.iter().chain(&failures) {
            eprintln!("  FAILED {f}");
        }
        self.failed += failures.len();
        let (vcs, hits, queries) = (stats.vcs, stats.cache_hits, stats.smt_queries);
        if self.args.workload == Workload::Table2Warm && (queries > 0 || hits != vcs) {
            eprintln!("  FAILED warm pass solved {queries} VCs, {hits} of {vcs} cache hits");
            self.failed += methods - failures.len();
        }
        // Warm runs make hundreds of identical passes; their lines after
        // the first few add nothing unless a count moved.
        let c = Counts::of(&stats.solver);
        self.counts.push(c);
        if self.counts.len() <= 5 || self.counts[0] != c {
            eprintln!(
                "{label} {:>8.4} s: {methods} methods, {vcs} VCs, {queries} queries, \
                 {hits} cache hits, {} skipped, peak RSS {:.1} MB | decisions {} conflicts {} \
                 rounds {} pivots {}",
                stats.wall.as_secs_f64(),
                stats.skipped_vcs,
                peak_rss_kb() as f64 / 1024.0,
                c.decisions,
                c.conflicts,
                c.rounds,
                c.pivots
            );
        }
    }

    /// Per-layer metrics: alternates untraced and traced passes and reports
    /// the traced passes' medians.
    fn traced_run(&mut self, corpus: &Corpus) -> Vec<Reading> {
        let mut untraced_walls = Vec::new();
        let mut traced_walls = Vec::new();
        let mut layer_samples: Vec<Vec<Reading>> = Vec::new();
        let mut last_spans = Vec::new();
        repeat_within(self.budget(), 1, || {
            let plain = self.untraced_pass(corpus);
            untraced_walls.push(plain.wall.as_secs_f64());

            self.reset_files();
            let selections = corpus.selections();
            let mut tr = Tracer::new();
            let pass = traced::traced_pass(&selections, &self.config, &mut tr);
            self.check_pass("traced", corpus, &pass.reports, &pass.errors, &pass.stats);
            if outcomes(&pass.reports) != plain.outcomes || pass.stats.smt_queries != plain.queries
            {
                eprintln!(
                    "  FAILED traced pass diverged: {} queries against {} untraced",
                    pass.stats.smt_queries, plain.queries
                );
                self.correct = false;
            }
            traced_walls.push(pass.stats.wall.as_secs_f64());
            layer_samples.push(layer_metrics(&pass, &tr));
            last_spans = tr.spans;
        });
        eprintln!("spans of the last traced pass: name, count, total ms, self ms");
        for (name, t) in trace::totals_by_name(&last_spans) {
            eprintln!(
                "  {name:<11} {:>6} {:>12.3} {:>12.3}",
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.self_time.as_secs_f64() * 1e3
            );
        }
        let mut metrics: Vec<Reading> = layer_samples[0]
            .iter()
            .enumerate()
            .map(|(i, first)| {
                let values: Vec<f64> = layer_samples.iter().map(|s| s[i].value).collect();
                Reading {
                    value: stats::median(&values),
                    ..*first
                }
            })
            .collect();
        let overhead = stats::median(&traced_walls) / stats::median(&untraced_walls) - 1.0;
        metrics.push(Reading {
            name: "obs.trace_overhead_pct",
            value: 100.0 * overhead,
            unit: "%",
        });
        metrics
    }

    /// The determinism record: every pass of a run, traced or not, must
    /// repeat the first pass's solver counts exactly, or the run is not
    /// correct.
    fn check_determinism(&mut self) {
        let Some(first) = self.counts.first() else {
            return;
        };
        let (name, seed) = (self.args.workload.name(), self.args.seed);
        if self.counts.iter().all(|c| c == first) {
            eprintln!(
                "determinism: {name} seed {seed}: solver counts repeat across {} passes",
                self.counts.len()
            );
        } else {
            eprintln!(
                "FAILED determinism: {name} seed {seed}: solver counts differ between passes: {:?}",
                self.counts
            );
            self.correct = false;
        }
    }

    fn budget(&self) -> Duration {
        Duration::from_secs(self.args.seconds)
    }
}

/// Calls `pass` `min_calls` times (at least once), then again while one
/// more call as long as the longest so far still ends within `budget`.
fn repeat_within(budget: Duration, min_calls: usize, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    for calls in 1.. {
        let t = Instant::now();
        pass();
        longest = longest.max(t.elapsed());
        if calls >= min_calls && start.elapsed() + longest > budget {
            break;
        }
    }
}

fn outcomes(reports: &[MethodReport]) -> Vec<(String, ids_vcgen::VerifyOutcome)> {
    reports
        .iter()
        .map(|r| (r.method.clone(), r.outcome.clone()))
        .collect()
}

fn batch_errors(batch: &BatchReport) -> Vec<String> {
    batch
        .errors
        .iter()
        .map(|e| format!("{}::{}: {}", e.structure, e.method, e.message))
        .collect()
}

/// The per-layer metrics of one traced pass, in output order.
fn layer_metrics(pass: &traced::TracedPass, tr: &Tracer) -> Vec<Reading> {
    let totals = trace::totals_by_name(&tr.spans);
    let ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_time.as_secs_f64() * 1e3)
            .sum()
    };
    let s = &pass.stats;
    let solver = &s.solver;
    let secs = |d: Duration| d.as_secs_f64();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let query_ms: Vec<f64> = pass
        .query_times
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let (tail_pct, tail_ms) = stats::tail(&query_ms);
    let solve_ms = ms(&["check", "scope"]);
    let phases = solver.lower_time + solver.sat_time + solver.euf_time + solver.simplex_time;
    let delta = pass.hists.get(Metric::TheoryDeltaLits);
    let readings = [
        ("ivl.parse_ms", ms(&["parse"]), "ms"),
        ("ivl.typecheck_ms", ms(&["typecheck"]), "ms"),
        ("ivl.source_kb", pass.source_bytes as f64 / 1024.0, "KiB"),
        ("core.discipline_ms", ms(&["prepare"]), "ms"),
        ("core.methods", s.methods as f64, "count"),
        ("vcgen.gen_ms", ms(&["vcgen"]), "ms"),
        ("vcgen.vcs", s.vcs as f64, "count"),
        ("vcgen.hyps", pass.hyps as f64, "count"),
        ("vcgen.terms", pass.terms as f64, "count"),
        ("smt.hash_ms", ms(&["key"]), "ms"),
        ("smt.pool_open_ms", ms(&["pool_open"]), "ms"),
        (
            "smt.prelude_reuse_ratio",
            ratio(
                solver.prelude_reused as f64,
                (solver.prelude_reused + solver.prelude_lowered) as f64,
            ),
            "ratio",
        ),
        ("smt.solve_ms", solve_ms, "ms"),
        ("smt.vc_p50_ms", stats::median(&query_ms), "ms"),
        ("smt.vc_tail_ms", tail_ms, "ms"),
        ("smt.vc_tail_pct", tail_pct, "%"),
        (
            "smt.vc_max_ms",
            query_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        ("smt.queries", s.smt_queries as f64, "count"),
        ("smt.unknowns", pass.unknowns as f64, "count"),
        ("smt.lower_s", secs(solver.lower_time), "s"),
        ("smt.sat_s", secs(solver.sat_time), "s"),
        ("smt.euf_s", secs(solver.euf_time), "s"),
        ("smt.simplex_s", secs(solver.simplex_time), "s"),
        ("smt.other_s", solve_ms / 1e3 - secs(phases), "s"),
        ("smt.decisions", solver.sat_decisions as f64, "count"),
        ("smt.conflicts", solver.sat_conflicts as f64, "count"),
        ("smt.propagations", solver.sat_propagations as f64, "count"),
        ("smt.theory_rounds", solver.theory_rounds as f64, "count"),
        ("smt.pivots", solver.pivots as f64, "count"),
        ("smt.restarts", solver.restarts as f64, "count"),
        (
            "smt.learned_deleted",
            solver.learned_deleted as f64,
            "count",
        ),
        ("smt.atoms", solver.atoms as f64, "count"),
        (
            "smt.decisions_per_round",
            ratio(solver.sat_decisions as f64, solver.theory_rounds as f64),
            "count/round",
        ),
        (
            "smt.delta_lits_per_round",
            ratio(delta.sum() as f64, delta.count() as f64),
            "count/round",
        ),
        ("driver.cache_load_ms", ms(&["cache_load"]), "ms"),
        ("driver.cache_save_ms", ms(&["cache_save"]), "ms"),
        ("driver.report_ms", ms(&["report"]), "ms"),
        ("driver.ledger_ms", ms(&["ledger"]), "ms"),
        (
            "driver.cache_hit_ratio",
            ratio(s.cache_hits as f64, s.vcs as f64),
            "ratio",
        ),
        ("driver.skipped_vcs", s.skipped_vcs as f64, "count"),
        ("driver.cancellations", s.cancellations as f64, "count"),
        ("driver.unattributed_ms", ms(&["pass"]), "ms"),
    ];
    readings
        .into_iter()
        .map(|(name, value, unit)| Reading { name, value, unit })
        .collect()
}

/// Peak resident set size of this process so far (`VmHWM`), in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}
