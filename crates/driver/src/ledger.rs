//! The run ledger: longitudinal performance records for `ids-verify`.
//!
//! A ledger is an append-only JSONL file; every batch run appends one
//! schema-versioned [`RunRecord`] line capturing per-VC verdicts, queue/solve
//! times, per-phase seconds, solver counters and histogram summaries, plus
//! run metadata (pool mode, profile, jobs, solver-logic fingerprint,
//! hostname). Records are keyed by the same stable 128-bit
//! [`MethodTask::vc_key`](ids_core::pipeline::MethodTask::vc_key) the VC
//! cache uses, so two runs — different machines, different PRs — are joinable
//! per VC.
//!
//! On top of the records sit the two longitudinal primitives:
//!
//! * [`compare`] joins two runs per VC, attributes solve-time deltas to
//!   phases ("euf +38%, pivots 4.0x"), applies configurable noise thresholds
//!   and reports regressions — the engine behind `ids-verify compare` and the
//!   CI perf gate.
//! * [`history_lines`] renders a per-VC solve-time trajectory across every
//!   run of one ledger file (`ids-verify history`).
//!
//! Appends reuse the [`CacheLock`] advisory-lockfile discipline, so
//! concurrent runs sharing one ledger interleave whole lines instead of
//! corrupting each other. Malformed or foreign-schema lines are skipped (with
//! a warning) when reading — a ledger survives schema evolution the same way
//! the VC cache survives fingerprint changes.

use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use ids_core::pipeline::{MethodReport, MethodTask, VcReport, VcVerdict};
use ids_obs::{Histogram, HistogramSet, Metric};

use crate::cache::CacheLock;
use crate::json::{Json, Value};
use crate::{DriverConfig, DriverStats};

/// Current ledger schema version; bump when a field changes meaning.
///
/// History: v2 appended the `unsat_cores` / `unsat_core_size` solver
/// counters (assumption-core extraction). v3 appended the optional per-VC
/// `core` array (the positional hypothesis indices a Valid verdict's
/// refutation used), and until hypothesis slicing was deleted also the
/// `slice_hits` / `slice_fallbacks` / `slice_dropped_hyps` counters and a
/// `slice_dropped_hyps` histogram. Counters and histograms are read by name,
/// so older lines still parse: counters they lack read as zero, the core as
/// absent, and the retired slice fields are skipped. Pre-bump baselines
/// remain comparable.
pub const LEDGER_SCHEMA: u64 = 3;

/// Oldest schema version [`RunRecord::parse`] still accepts.
pub const LEDGER_SCHEMA_MIN: u64 = 1;

/// How long an append waits for the ledger lockfile before proceeding
/// unlocked (fail-open, like the VC cache).
const APPEND_LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// Run-level metadata of one ledger record.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// Unix timestamp (seconds) when the record was written.
    pub timestamp: u64,
    /// Hostname of the machine the run executed on (`"unknown"` if
    /// undeterminable).
    pub hostname: String,
    /// The invoking command line (argv minus the binary path).
    pub command: String,
    /// Pool mode: `structure`. Older lines may say `none` (a fresh one-shot
    /// solver per VC) or `method` (a session per method), modes the driver
    /// no longer has.
    pub pool_mode: String,
    /// Solver heuristics profile: `default`. Older lines may say `legacy`
    /// (geometric restarts, no clause deletion, Bland pivoting), a profile
    /// the solver no longer has.
    pub profile: String,
    /// Worker threads.
    pub jobs: u64,
    /// VC encoding (`decidable` / `quantified`).
    pub encoding: String,
    /// `ids_smt::SOLVER_LOGIC_FINGERPRINT` of the binary, in hex.
    pub fingerprint: String,
    /// Wall-clock seconds of the whole batch.
    pub wall_s: f64,
}

/// One VC's row in a ledger record.
#[derive(Clone, Debug, PartialEq)]
pub struct VcLedgerEntry {
    /// Stable content-addressed VC key (the join key across runs).
    pub key: u128,
    /// Structure the VC belongs to.
    pub structure: String,
    /// Method the VC belongs to.
    pub method: String,
    /// VC index inside the method.
    pub vc_index: u64,
    /// Human-readable VC description.
    pub description: String,
    /// Verdict (`valid` / `refuted` / `unknown`).
    pub verdict: String,
    /// True if answered from a cache instead of a solver run.
    pub cached: bool,
    /// Milliseconds the VC's unit waited for a worker
    /// (`ids_core::pipeline::VcReport::queue_time`).
    pub queue_ms: f64,
    /// Milliseconds of the solve itself.
    pub solve_ms: f64,
    /// Per-phase seconds: lower, sat, euf, simplex, overhead.
    pub phases: [f64; PHASES.len()],
    /// Solver counters, in [`SOLVER_COUNTERS`] order.
    pub solver: [u64; SOLVER_COUNTERS.len()],
    /// Solver-dynamics histograms (empty unless metrics were armed).
    pub hists: HistogramSet,
    /// The unsat core of a Valid verdict: positional hypothesis indices the
    /// refutation used (`Some(vec![])` = none at all). Absent on pre-v3
    /// lines, refuted/unknown/cached rows and the fresh-solver path.
    pub core: Option<Vec<u32>>,
}

/// The phase names of [`VcLedgerEntry::phases`], in storage order.
pub const PHASES: [&str; 5] = ["lower", "sat", "euf", "simplex", "overhead"];

/// The counter names of [`VcLedgerEntry::solver`], in storage order.
pub const SOLVER_COUNTERS: [&str; 10] = [
    "theory_rounds",
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "pivots",
    "learned_kept",
    "max_lbd",
    "unsat_cores",
    "unsat_core_size",
];

/// One run's ledger record: metadata plus one entry per discharged VC.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Schema version of the parsed line.
    pub schema: u64,
    /// Run metadata.
    pub meta: RunMeta,
    /// Per-VC entries, in (task, VC) order.
    pub vcs: Vec<VcLedgerEntry>,
}

fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return h;
        }
    }
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn vc_entry(task: &MethodTask, vc: &VcReport) -> VcLedgerEntry {
    let wall_s = vc.wall_time.as_secs_f64();
    let lower = vc.solver.lower_time.as_secs_f64();
    let sat = vc.solver.sat_time.as_secs_f64();
    let euf = vc.solver.euf_time.as_secs_f64();
    let simplex = vc.solver.simplex_time.as_secs_f64();
    let overhead = (wall_s - lower - sat - euf - simplex).max(0.0);
    VcLedgerEntry {
        key: vc.vc_key,
        structure: task.structure.clone(),
        method: task.method.clone(),
        vc_index: vc.vc_index as u64,
        description: vc.description.clone(),
        verdict: match vc.verdict {
            VcVerdict::Valid => "valid",
            VcVerdict::Refuted => "refuted",
            VcVerdict::Unknown => "unknown",
        }
        .to_string(),
        cached: vc.cached,
        queue_ms: vc.queue_time.as_secs_f64() * 1e3,
        solve_ms: wall_s * 1e3,
        phases: [lower, sat, euf, simplex, overhead],
        solver: [
            vc.solver.theory_rounds,
            vc.solver.sat_conflicts,
            vc.solver.sat_decisions,
            vc.solver.sat_propagations,
            vc.solver.restarts,
            vc.solver.pivots,
            vc.solver.learned_kept,
            vc.solver.max_lbd,
            vc.solver.unsat_cores,
            vc.solver.unsat_core_size,
        ],
        hists: vc.hists.clone(),
        core: vc.core.clone(),
    }
}

impl RunRecord {
    /// Builds the record for one finished batch (tasks and reports are in the
    /// same order — the driver's aggregate stage guarantees it).
    pub fn from_batch(
        tasks: &[MethodTask],
        reports: &[MethodReport],
        stats: &DriverStats,
        config: &DriverConfig,
    ) -> RunRecord {
        let command: Vec<String> = std::env::args().skip(1).collect();
        let vcs = tasks
            .iter()
            .zip(reports)
            .flat_map(|(task, report)| report.vc_reports.iter().map(|vc| vc_entry(task, vc)))
            .collect();
        RunRecord {
            schema: LEDGER_SCHEMA,
            meta: RunMeta {
                timestamp: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0),
                hostname: hostname(),
                command: command.join(" "),
                pool_mode: config.pool_mode.as_str().to_string(),
                profile: config.solver_profile.as_str().to_string(),
                jobs: config.jobs as u64,
                encoding: format!("{:?}", config.encoding).to_lowercase(),
                fingerprint: format!("{:016x}", ids_smt::SOLVER_LOGIC_FINGERPRINT),
                wall_s: stats.wall.as_secs_f64(),
            },
            vcs,
        }
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut j = Json::new();
        j.begin_object();
        j.num_field("schema", self.schema as f64);
        j.key("meta");
        j.begin_object();
        j.num_field("timestamp", self.meta.timestamp as f64);
        j.str_field("hostname", &self.meta.hostname);
        j.str_field("command", &self.meta.command);
        j.str_field("pool_mode", &self.meta.pool_mode);
        j.str_field("profile", &self.meta.profile);
        j.num_field("jobs", self.meta.jobs as f64);
        j.str_field("encoding", &self.meta.encoding);
        j.str_field("fingerprint", &self.meta.fingerprint);
        j.num_field("wall_s", self.meta.wall_s);
        j.end_object();
        j.key("vcs");
        j.begin_array();
        for vc in &self.vcs {
            j.begin_object();
            j.str_field("key", &format!("{:032x}", vc.key));
            j.str_field("structure", &vc.structure);
            j.str_field("method", &vc.method);
            j.num_field("vc", vc.vc_index as f64);
            j.str_field("desc", &vc.description);
            j.str_field("verdict", &vc.verdict);
            j.bool_field("cached", vc.cached);
            j.num_field("queue_ms", ms3(vc.queue_ms));
            j.num_field("solve_ms", ms3(vc.solve_ms));
            j.key("phases");
            j.begin_object();
            for (name, s) in PHASES.iter().zip(vc.phases) {
                j.num_field(&format!("{name}_s"), s6(s));
            }
            j.end_object();
            j.key("solver");
            j.begin_object();
            for (name, v) in SOLVER_COUNTERS.iter().zip(vc.solver) {
                j.num_field(name, v as f64);
            }
            j.end_object();
            if let Some(core) = &vc.core {
                j.key("core");
                j.begin_array();
                for &t in core {
                    j.num_value(t as f64);
                }
                j.end_array();
            }
            if !vc.hists.is_empty() {
                j.key("hists");
                j.begin_object();
                for metric in Metric::ALL {
                    let h = vc.hists.get(metric);
                    if h.is_empty() {
                        continue;
                    }
                    j.key(metric.name());
                    hist_json(&mut j, h);
                }
                j.end_object();
            }
            j.end_object();
        }
        j.end_array();
        j.end_object();
        j.finish()
    }

    /// Parses one JSONL line back into a record.
    pub fn parse(line: &str) -> Result<RunRecord, String> {
        let v = Value::parse(line)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or("missing schema")?;
        if !(LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA).contains(&schema) {
            return Err(format!("unsupported ledger schema {schema}"));
        }
        let m = v.get("meta").ok_or("missing meta")?;
        let s = |f: &str| {
            m.get(f)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing meta.{f}"))
        };
        let meta = RunMeta {
            timestamp: m.get("timestamp").and_then(Value::as_u64).unwrap_or(0),
            hostname: s("hostname")?,
            command: s("command")?,
            pool_mode: s("pool_mode")?,
            profile: s("profile")?,
            jobs: m.get("jobs").and_then(Value::as_u64).unwrap_or(0),
            encoding: s("encoding")?,
            fingerprint: s("fingerprint")?,
            wall_s: m.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0),
        };
        let mut vcs = Vec::new();
        for vc in v
            .get("vcs")
            .and_then(Value::as_array)
            .ok_or("missing vcs")?
        {
            vcs.push(parse_vc(vc)?);
        }
        Ok(RunRecord { schema, meta, vcs })
    }
}

/// Round milliseconds to 3 decimals (microsecond resolution) for stable,
/// compact ledger lines.
fn ms3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Round seconds to 6 decimals (microsecond resolution).
fn s6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

fn hist_json(j: &mut Json, h: &Histogram) {
    j.begin_object();
    j.num_field("count", h.count() as f64);
    j.num_field("sum", h.sum() as f64);
    j.num_field("max", h.max() as f64);
    j.num_field("p50", h.quantile(0.5) as f64);
    j.num_field("p90", h.quantile(0.9) as f64);
    j.key("buckets");
    j.begin_array();
    // Trailing zero buckets are trimmed; `Histogram::from_parts` zero-extends.
    let counts = h.bucket_counts();
    let used = counts
        .iter()
        .rposition(|&c| c != 0)
        .map(|p| p + 1)
        .unwrap_or(0);
    for &c in &counts[..used] {
        j.num_value(c as f64);
    }
    j.end_array();
    j.end_object();
}

fn parse_vc(vc: &Value) -> Result<VcLedgerEntry, String> {
    let key_hex = vc.get("key").and_then(Value::as_str).ok_or("missing key")?;
    let key = u128::from_str_radix(key_hex, 16).map_err(|e| format!("bad key: {e}"))?;
    let s = |f: &str| {
        vc.get(f)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing vc.{f}"))
    };
    let mut phases = [0.0; PHASES.len()];
    if let Some(p) = vc.get("phases") {
        for (slot, name) in phases.iter_mut().zip(PHASES) {
            *slot = p
                .get(&format!("{name}_s"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
        }
    }
    let mut solver = [0u64; SOLVER_COUNTERS.len()];
    if let Some(c) = vc.get("solver") {
        for (slot, name) in solver.iter_mut().zip(SOLVER_COUNTERS) {
            *slot = c.get(name).and_then(Value::as_u64).unwrap_or(0);
        }
    }
    let mut hists = HistogramSet::default();
    if let Some(hs) = vc.get("hists") {
        for metric in Metric::ALL {
            let Some(h) = hs.get(metric.name()) else {
                continue;
            };
            let buckets: Vec<u64> = h
                .get("buckets")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_u64).collect())
                .unwrap_or_default();
            *hists.get_mut(metric) = Histogram::from_parts(
                &buckets,
                h.get("count").and_then(Value::as_u64).unwrap_or(0),
                h.get("sum").and_then(Value::as_u64).unwrap_or(0),
                h.get("max").and_then(Value::as_u64).unwrap_or(0),
            );
        }
    }
    let core = vc.get("core").and_then(Value::as_array).map(|a| {
        a.iter()
            .filter_map(Value::as_u64)
            .map(|n| n as u32)
            .collect()
    });
    Ok(VcLedgerEntry {
        key,
        structure: s("structure")?,
        method: s("method")?,
        vc_index: vc.get("vc").and_then(Value::as_u64).unwrap_or(0),
        description: s("desc")?,
        verdict: s("verdict")?,
        cached: vc.get("cached").and_then(Value::as_bool).unwrap_or(false),
        queue_ms: vc.get("queue_ms").and_then(Value::as_f64).unwrap_or(0.0),
        solve_ms: vc.get("solve_ms").and_then(Value::as_f64).unwrap_or(0.0),
        phases,
        solver,
        hists,
        core,
    })
}

// ------------------------------------------------------------------ file I/O

/// Appends one record to the ledger at `path` (creating the file and parent
/// directory as needed), holding the [`CacheLock`] so concurrent runs
/// interleave whole lines.
pub fn append_run(path: &Path, record: &RunRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let _lock = CacheLock::acquire(path, APPEND_LOCK_TIMEOUT);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut line = record.to_json_line();
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// Loads every parseable record of a ledger file, oldest first. Malformed or
/// foreign-schema lines are skipped with a warning on stderr; a missing file
/// is an error (the CLI turns it into a friendly message).
pub fn load_runs(path: &Path) -> std::io::Result<Vec<RunRecord>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match RunRecord::parse(line) {
            Ok(r) => out.push(r),
            Err(e) => eprintln!(
                "warning: skipping ledger line {} of {}: {}",
                i + 1,
                path.display(),
                e
            ),
        }
    }
    Ok(out)
}

// ------------------------------------------------------------------- compare

/// Noise thresholds and policy of a [`compare`] run.
#[derive(Clone, Copy, Debug)]
pub struct CompareOpts {
    /// A solve-time delta must exceed this percentage of the base time...
    pub threshold_pct: f64,
    /// ...*and* this many absolute milliseconds to count as a regression
    /// (or improvement). Both gates together keep micro-VC jitter quiet.
    pub threshold_ms: f64,
    /// When true, timing regressions are reported but do not fail the run —
    /// only verdict changes do (the CI cross-machine mode, where absolute
    /// times are not comparable).
    pub advisory_timing: bool,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            threshold_pct: 25.0,
            threshold_ms: 50.0,
            advisory_timing: false,
        }
    }
}

/// The per-VC join row of a [`CompareReport`].
#[derive(Clone, Debug)]
pub struct VcDelta {
    /// The VC's stable key.
    pub key: u128,
    /// `structure/method/description` display label.
    pub label: String,
    /// Verdict in the base run.
    pub base_verdict: String,
    /// Verdict in the new run.
    pub new_verdict: String,
    /// Solve milliseconds in the base run.
    pub base_ms: f64,
    /// Solve milliseconds in the new run.
    pub new_ms: f64,
    /// True when the verdict changed between the runs (always a failure).
    pub verdict_changed: bool,
    /// True when the solve time regressed past both thresholds.
    pub regressed: bool,
    /// True when the solve time improved past both thresholds.
    pub improved: bool,
    /// True when either side was answered from cache (timing and search
    /// not compared).
    pub cached: bool,
    /// True when the VC was solved on both sides with different solver
    /// counters or a different core: the two runs searched differently.
    pub search_changed: bool,
    /// Name of the phase the delta is attributed to (largest absolute phase
    /// movement in the delta's direction), when timing was compared.
    pub attributed_phase: Option<String>,
    /// Human-readable attribution, e.g. `"euf +210% (+0.42s), pivots 4.0x"`.
    pub attribution: String,
}

/// The result of joining two runs per VC.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Joined rows, sorted by descending absolute solve-time delta.
    pub deltas: Vec<VcDelta>,
    /// Labels of VCs only present in the base run.
    pub only_base: Vec<String>,
    /// Labels of VCs only present in the new run.
    pub only_new: Vec<String>,
    /// Number of rows flagged as regressions.
    pub regressions: usize,
    /// Number of rows flagged as improvements.
    pub improvements: usize,
    /// Number of rows whose verdict changed.
    pub verdict_mismatches: usize,
    /// Number of joined rows solved on both sides (neither a cache nor an
    /// in-batch dedup hit): the rows whose search is compared.
    pub solved_both: usize,
    /// Labels of the rows solved on both sides whose search differs.
    pub search_changed: Vec<String>,
}

impl CompareReport {
    /// True when the comparison should fail the process (nonzero exit):
    /// any verdict change, or — unless `advisory_timing` — any regression.
    pub fn failed(&self, opts: &CompareOpts) -> bool {
        self.verdict_mismatches > 0 || (!opts.advisory_timing && self.regressions > 0)
    }
}

fn label_of(vc: &VcLedgerEntry) -> String {
    format!("{}/{}/{}", vc.structure, vc.method, vc.description)
}

/// Attributes a solve-time delta to the phase that moved the most in the
/// delta's direction, and annotates notable pivot-count swings.
fn attribute(base: &VcLedgerEntry, new: &VcLedgerEntry, slower: bool) -> (Option<String>, String) {
    let sign = if slower { 1.0 } else { -1.0 };
    let mut best: Option<(usize, f64)> = None;
    for (i, (b, n)) in base.phases.iter().zip(new.phases).enumerate() {
        let moved = (n - b) * sign;
        if moved > 0.0 && best.map(|(_, m)| moved > m).unwrap_or(true) {
            best = Some((i, moved));
        }
    }
    let Some((phase_idx, moved_s)) = best else {
        return (None, String::new());
    };
    let base_s = base.phases[phase_idx];
    let mut text = if base_s > 0.0 {
        format!(
            "{} {}{:.0}% ({}{:.3}s)",
            PHASES[phase_idx],
            if slower { "+" } else { "-" },
            moved_s / base_s * 100.0,
            if slower { "+" } else { "-" },
            moved_s
        )
    } else {
        format!(
            "{} {}{:.3}s",
            PHASES[phase_idx],
            if slower { "+" } else { "-" },
            moved_s
        )
    };
    // Pivot-count swings are the classic simplex-regression smoking gun;
    // surface them whenever the ratio is notable.
    let pivots_idx = SOLVER_COUNTERS.iter().position(|&c| c == "pivots");
    if let Some(pi) = pivots_idx {
        let (bp, np) = (base.solver[pi], new.solver[pi]);
        if bp > 0 && np > 0 {
            let ratio = np as f64 / bp as f64;
            if !(0.5..=2.0).contains(&ratio) {
                text.push_str(&format!(", pivots {ratio:.1}x"));
            }
        }
    }
    (Some(PHASES[phase_idx].to_string()), text)
}

/// Each key's row in one run: the first row that solved it, or the key's
/// first row when every row of it was answered from cache. A run lists a VC
/// once per occurrence, so a key solved once and deduplicated later in the
/// same batch is represented by the row that solved it.
fn rows_by_key(run: &RunRecord) -> std::collections::BTreeMap<u128, &VcLedgerEntry> {
    let mut rows = std::collections::BTreeMap::new();
    for vc in &run.vcs {
        let kept: &mut &VcLedgerEntry = rows.entry(vc.key).or_insert(vc);
        if kept.cached && !vc.cached {
            *kept = vc;
        }
    }
    rows
}

/// Joins two runs per VC key and classifies every joined row against the
/// thresholds. VCs answered from cache on either side join for verdict
/// comparison but are excluded from timing classification and from the
/// search comparison, which checks that a VC solved on both sides has the
/// same solver counters and core: a change meant to keep the search shows
/// here, whatever the timing. It never fails the comparison.
pub fn compare(base: &RunRecord, new: &RunRecord, opts: &CompareOpts) -> CompareReport {
    let mut report = CompareReport::default();
    let base_by_key = rows_by_key(base);
    let new_by_key = rows_by_key(new);
    for (key, b) in &base_by_key {
        if !new_by_key.contains_key(key) {
            report.only_base.push(label_of(b));
        }
    }
    for (key, n) in &new_by_key {
        let Some(b) = base_by_key.get(key) else {
            report.only_new.push(label_of(n));
            continue;
        };
        let verdict_changed = b.verdict != n.verdict;
        if verdict_changed {
            report.verdict_mismatches += 1;
        }
        let cached = b.cached || n.cached;
        let search_changed = !cached && (b.solver != n.solver || b.core != n.core);
        if !cached {
            report.solved_both += 1;
        }
        if search_changed {
            report.search_changed.push(label_of(n));
        }
        let delta_ms = n.solve_ms - b.solve_ms;
        // A zero-ms baseline (fully cached, or a run predating per-VC
        // timing) makes the percentage gate vacuous — any delta would be
        // infinitely many percent — so such rows are excluded from timing
        // classification entirely, like cached rows.
        let timed = !cached && b.solve_ms > 0.0;
        let past_thresholds = delta_ms.abs() > opts.threshold_ms
            && delta_ms.abs() > b.solve_ms * opts.threshold_pct / 100.0;
        let regressed = timed && past_thresholds && delta_ms > 0.0;
        let improved = timed && past_thresholds && delta_ms < 0.0;
        if regressed {
            report.regressions += 1;
        }
        if improved {
            report.improvements += 1;
        }
        let (attributed_phase, attribution) = if regressed || improved {
            attribute(b, n, regressed)
        } else {
            (None, String::new())
        };
        report.deltas.push(VcDelta {
            key: *key,
            label: label_of(n),
            base_verdict: b.verdict.clone(),
            new_verdict: n.verdict.clone(),
            base_ms: b.solve_ms,
            new_ms: n.solve_ms,
            verdict_changed,
            regressed,
            improved,
            cached,
            search_changed,
            attributed_phase,
            attribution,
        });
    }
    report.deltas.sort_by(|a, d| {
        let (da, dd) = ((a.new_ms - a.base_ms).abs(), (d.new_ms - d.base_ms).abs());
        dd.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.key.cmp(&d.key))
    });
    report
}

// ------------------------------------------------------------------- history

/// Renders the per-VC solve-time trajectory across `runs` (oldest first) as
/// display lines, one VC per line, most recent label wins. Each run
/// contributes its row for the key as [`compare`] picks it: the row that
/// solved the VC, not a later dedup hit. `filter` is an
/// optional case-insensitive substring match against the VC label.
pub fn history_lines(runs: &[RunRecord], filter: Option<&str>) -> Vec<String> {
    use std::collections::BTreeMap;
    // key → (label, per-run Option<solve_ms>)
    let mut series: BTreeMap<u128, (String, Vec<Option<f64>>)> = BTreeMap::new();
    for (ri, run) in runs.iter().enumerate() {
        for vc in rows_by_key(run).into_values() {
            let entry = series
                .entry(vc.key)
                .or_insert_with(|| (label_of(vc), vec![None; runs.len()]));
            entry.0 = label_of(vc);
            entry.1[ri] = Some(if vc.cached { -1.0 } else { vc.solve_ms });
        }
    }
    let matches = |label: &str| {
        filter
            .map(|f| label.to_lowercase().contains(&f.to_lowercase()))
            .unwrap_or(true)
    };
    let mut out = Vec::new();
    for (_, (label, points)) in series {
        if !matches(&label) {
            continue;
        }
        let cells: Vec<String> = points
            .iter()
            .map(|p| match p {
                None => "-".to_string(),
                Some(ms) if *ms < 0.0 => "cached".to_string(),
                Some(ms) => format!("{ms:.1}"),
            })
            .collect();
        out.push(format!("{label}: {} ms", cells.join(" -> ")));
    }
    out
}
