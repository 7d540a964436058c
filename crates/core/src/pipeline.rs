//! The end-to-end FWYB verification pipeline.
//!
//! ```text
//! IDS definition + annotated methods (surface syntax)
//!   → parse, typecheck
//!   → well-behavedness check (Fig. 2 discipline)
//!   → ghost-code legality check
//!   → macro-use check                             (ids-core::fwyb)
//!   → VC generation (decidable or quantified),    (ids-vcgen)
//!     instantiating LC/Phi and expanding the
//!     FWYB macros where it meets them             (ids-core::fwyb hook)
//!   → SMT solving                                 (ids-smt)
//!   → per-method report (Table 2 row shape)
//! ```

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ids_ivl::{ast, parse_program, Definitions, Program};
use ids_smt::{
    structural_hashes, SatResult, SolverProfile, SolverStats, TermId, TermManager, TermMark,
};
use ids_vcgen::{Encoding, StructureVcs, Vc, VcGen, VcSession, VerifyOutcome};

use crate::fwyb::{check_program, ExpandError};
use crate::ghost::{check_ghost_legality, GhostViolation};
use crate::ids::IntrinsicDefinition;
use crate::wellbehaved::Violation;

/// Pipeline configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineConfig {
    /// VC encoding mode (decidable by default).
    pub encoding: Encoding,
    /// If true (default false), well-behavedness violations abort verification
    /// instead of only being reported.
    pub strict_wellbehaved: bool,
    /// The solver's one heuristics profile. Nothing reads it; it stays
    /// because the benchmark harness in `perfbench/` sets it.
    pub profile: SolverProfile,
}

/// Errors of the pipeline (before verification even starts).
#[derive(Debug)]
pub enum PipelineError {
    /// Method file failed to parse.
    Parse(ids_ivl::ParseError),
    /// Method file failed to typecheck against the definition's fields.
    Type(ids_ivl::TypeError),
    /// A macro statement is malformed.
    Expand(ExpandError),
    /// VC generation failed.
    Vc(ids_vcgen::VcError),
    /// Strict mode: the program is not well-behaved.
    NotWellBehaved(Vec<Violation>),
    /// The requested method does not exist.
    NoSuchMethod(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{}", e),
            PipelineError::Type(e) => write!(f, "{}", e),
            PipelineError::Expand(e) => write!(f, "{}", e),
            PipelineError::Vc(e) => write!(f, "{}", e),
            PipelineError::NotWellBehaved(v) => {
                write!(f, "program is not well-behaved: {} violation(s)", v.len())
            }
            PipelineError::NoSuchMethod(m) => write!(f, "no such method '{}'", m),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ids_ivl::ParseError> for PipelineError {
    fn from(e: ids_ivl::ParseError) -> Self {
        PipelineError::Parse(e)
    }
}
impl From<ids_ivl::TypeError> for PipelineError {
    fn from(e: ids_ivl::TypeError) -> Self {
        PipelineError::Type(e)
    }
}
impl From<ExpandError> for PipelineError {
    fn from(e: ExpandError) -> Self {
        PipelineError::Expand(e)
    }
}
impl From<ids_vcgen::VcError> for PipelineError {
    fn from(e: ids_vcgen::VcError) -> Self {
        PipelineError::Vc(e)
    }
}

/// The per-method verification report (one row of Table 2).
#[derive(Clone, Debug)]
pub struct MethodReport {
    /// Data structure name.
    pub structure: String,
    /// Method name.
    pub method: String,
    /// Verification outcome.
    pub outcome: VerifyOutcome,
    /// Number of verification conditions discharged.
    pub num_vcs: usize,
    /// Wall-clock verification time (macro check + VC generation + solving).
    pub duration: Duration,
    /// Lines of executable code (LOC column).
    pub loc: usize,
    /// Lines of specification (Spec column).
    pub spec: usize,
    /// Lines of ghost annotation (Annotation column).
    pub annotations: usize,
    /// Size of the local condition in conjuncts.
    pub lc_size: usize,
    /// Well-behavedness violations (empty for the shipped benchmarks).
    pub wellbehaved_violations: Vec<Violation>,
    /// Ghost-code legality violations (empty for the shipped benchmarks).
    pub ghost_violations: Vec<GhostViolation>,
    /// Aggregated SMT solver statistics over the discharged VCs.
    pub solver: SolverStats,
    /// How many of the VCs were answered from a result cache rather than by a
    /// fresh solver query (always 0 in the sequential pipeline).
    pub cached_vcs: usize,
    /// Per-VC breakdown of the discharged VCs, in VC order. VCs that were
    /// never run (early-stopped after a refutation, or cancelled by the batch
    /// driver) are absent, so the vector can be shorter than `num_vcs`.
    pub vc_reports: Vec<VcReport>,
}

/// The per-VC row of a [`MethodReport`]: verdict, wall-clock latency and
/// solver statistics of one discharged verification condition (the unit of
/// batch-level tail-latency analysis).
#[derive(Clone, Debug)]
pub struct VcReport {
    /// Index of the VC inside its method.
    pub vc_index: usize,
    /// Stable content-addressed identity of the VC ([`MethodTask::vc_key`]),
    /// the join key the run ledger uses across machines and PRs.
    pub vc_key: u128,
    /// Human-readable description of the VC.
    pub description: String,
    /// The verdict.
    pub verdict: VcVerdict,
    /// Wall-clock time spent *solving* this VC (zero for cached results);
    /// excludes queue time.
    pub wall_time: Duration,
    /// Time the VC spent queued before a worker picked up its unit, its
    /// structure pool (zero in the sequential pipeline and for cached
    /// results). Every VC of one unit reports the same wait; a VC's wait
    /// behind earlier VCs of its own unit is not queueing.
    pub queue_time: Duration,
    /// True if the result came from a cache instead of a solver run.
    pub cached: bool,
    /// Solver statistics of the query (zeroed for cached results).
    pub solver: SolverStats,
    /// Per-VC solver-dynamics histograms (empty unless metrics were armed
    /// via [`ids_obs::set_metrics`], and for cached results).
    pub hists: ids_obs::HistogramSet,
    /// The unsat core of a Valid verdict: which of the VC's positional
    /// hypotheses the refutation of the negated goal used (`Some(vec![])` if
    /// none at all). `None` for refuted/unknown/cached VCs.
    pub core: Option<Vec<u32>>,
}

/// The verdict of one verification condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcVerdict {
    /// The VC is valid.
    Valid,
    /// The VC has a counterexample.
    Refuted,
    /// The solver could not decide the VC.
    Unknown,
}

/// The result of discharging one verification condition.
#[derive(Clone, Debug)]
pub struct VcResult {
    /// Index of the VC inside its [`MethodTask`].
    pub vc_index: usize,
    /// The verdict.
    pub verdict: VcVerdict,
    /// Solver statistics of the query (zeroed for cached results).
    pub stats: SolverStats,
    /// Wall-clock time of the solve itself.
    pub time: Duration,
    /// Time spent queued before a worker picked up the VC's unit (filled in
    /// by the batch driver, see [`VcReport::queue_time`]; zero in the
    /// sequential pipeline).
    pub queue_time: Duration,
    /// True if the result came from a cache instead of a solver run.
    pub cached: bool,
    /// Per-VC solver-dynamics histograms (empty unless metrics are armed).
    pub hists: ids_obs::HistogramSet,
    /// The unsat core of a Valid verdict (see [`VcReport::core`]).
    pub core: Option<Vec<u32>>,
}

impl VcResult {
    /// A result answered from a cache (no solver query).
    pub fn from_cache(vc_index: usize, verdict: VcVerdict) -> VcResult {
        VcResult {
            vc_index,
            verdict,
            stats: SolverStats::default(),
            time: Duration::ZERO,
            queue_time: Duration::ZERO,
            cached: true,
            hists: ids_obs::HistogramSet::default(),
            core: None,
        }
    }
}

/// A fully prepared unit of verification work: one method lowered to its
/// verification conditions, but with no solver run yet.
///
/// This is the decomposition point the batch driver (`ids-driver`) schedules
/// on: each `(task, vc_index)` pair is an independent SMT query — the owned
/// [`TermManager`] makes the task `Send`, so tasks can be discharged on
/// different worker threads (each session clones or imports the manager,
/// which shares no state). The sequential pipeline entry points below are
/// thin wrappers over the same decomposition.
#[derive(Clone, Debug)]
pub struct MethodTask {
    /// Data structure (or file) label for reporting.
    pub structure: String,
    /// Method name.
    pub method: String,
    /// The term manager the VC formulas live in.
    pub tm: TermManager,
    /// The verification conditions, in generation order.
    pub vcs: Vec<Vc>,
    /// The method's shared hypothesis list: VC `i` depends on the prefix
    /// `hypotheses[..vcs[i].n_hyps]` (monotone in `i`). This is what an
    /// incremental [`MethodSession`] asserts once instead of per VC.
    pub hypotheses: Vec<TermId>,
    /// The encoding the VCs were generated under.
    pub encoding: Encoding,
    /// Time spent generating the method's VCs. A method prepared alone
    /// ([`prepare_method_in`]) also counts the check of its program's macro
    /// uses; methods prepared from one [`ExpandedStructure`] share that
    /// check, which its `"check"` trace span times.
    pub prepare_time: Duration,
    /// Lines of executable code.
    pub loc: usize,
    /// Lines of specification.
    pub spec: usize,
    /// Lines of ghost annotation.
    pub annotations: usize,
    /// Size of the local condition in conjuncts.
    pub lc_size: usize,
    /// Well-behavedness violations.
    pub wellbehaved_violations: Vec<Violation>,
    /// Ghost-code legality violations.
    pub ghost_violations: Vec<GhostViolation>,
    /// The VC keys, computed on first use ([`MethodTask::vc_keys`]).
    keys: OnceLock<Vec<u128>>,
}

impl MethodTask {
    /// Number of verification conditions.
    pub fn num_vcs(&self) -> usize {
        self.vcs.len()
    }

    /// A stable content-addressed key for one VC: the structural hash of its
    /// formula salted with the encoding mode (the same formula under the
    /// quantified encoding is a different solver problem). Stable across
    /// processes, so usable as an on-disk cache key.
    pub fn vc_key(&self, vc_index: usize) -> u128 {
        self.vc_keys()[vc_index]
    }

    /// Every VC's [`MethodTask::vc_key`], in VC order. The first call hashes
    /// all the method's formulas in one pass, so the hypotheses they share
    /// are hashed once, and stores the keys; later calls read them (so a
    /// task whose `tm` or `vcs` are edited afterwards keeps the old keys).
    pub fn vc_keys(&self) -> &[u128] {
        self.keys.get_or_init(|| {
            let salt = match self.encoding {
                Encoding::Decidable => 0,
                Encoding::Quantified => 0x9e37_79b9_7f4a_7c15_9e37_79b9_7f4a_7c15,
            };
            let formulas: Vec<TermId> = self.vcs.iter().map(|vc| vc.formula).collect();
            structural_hashes(&self.tm, &formulas)
                .into_iter()
                .map(|h| h ^ salt)
                .collect()
        })
    }

    /// Discharges the VCs in order through one [`MethodSession`], stopping
    /// at the first refuted/undecided one — the classic sequential pipeline
    /// behaviour.
    pub fn run_sequential(&self) -> Vec<VcResult> {
        let mut session = MethodSession::new(self).expect("every task opens a method session");
        let mut out = Vec::with_capacity(self.vcs.len());
        for i in 0..self.vcs.len() {
            let r = session.check_vc(i);
            let stop = r.verdict != VcVerdict::Valid;
            out.push(r);
            if stop {
                break;
            }
        }
        out
    }

    /// Folds per-VC results into the method report.
    ///
    /// The outcome is derived by scanning the results in VC order, which gives
    /// verdicts identical to the sequential pipeline even when the results
    /// were computed out of order (or only partially, for an early stop).
    pub fn report(&self, results: &[VcResult]) -> MethodReport {
        let mut outcome = VerifyOutcome::Verified {
            vcs: self.vcs.len(),
        };
        let mut duration = self.prepare_time;
        let mut solver = SolverStats::default();
        let mut cached_vcs = 0;
        let mut vc_reports = Vec::with_capacity(results.len());
        let keys = self.vc_keys();
        let mut ordered: Vec<&VcResult> = results.iter().collect();
        ordered.sort_by_key(|r| r.vc_index);
        for r in &ordered {
            duration += r.time;
            solver.merge(&r.stats);
            if r.cached {
                cached_vcs += 1;
            }
            vc_reports.push(VcReport {
                vc_index: r.vc_index,
                vc_key: keys[r.vc_index],
                description: self.vcs[r.vc_index].description.clone(),
                verdict: r.verdict,
                wall_time: r.time,
                queue_time: r.queue_time,
                cached: r.cached,
                solver: r.stats,
                hists: r.hists.clone(),
                core: r.core.clone(),
            });
        }
        for r in &ordered {
            if r.verdict != VcVerdict::Valid {
                let description = self.vcs[r.vc_index].description.clone();
                outcome = match r.verdict {
                    VcVerdict::Refuted => VerifyOutcome::Refuted {
                        failed: description,
                    },
                    _ => VerifyOutcome::Unknown {
                        undecided: description,
                    },
                };
                break;
            }
        }
        MethodReport {
            structure: self.structure.clone(),
            method: self.method.clone(),
            outcome,
            num_vcs: self.vcs.len(),
            duration,
            loc: self.loc,
            spec: self.spec,
            annotations: self.annotations,
            lc_size: self.lc_size,
            wellbehaved_violations: self.wellbehaved_violations.clone(),
            ghost_violations: self.ghost_violations.clone(),
            solver,
            cached_vcs,
            vc_reports,
        }
    }
}

/// Observability scope of one VC check: labels heartbeats from this thread
/// with the VC's description and opens the `"vc"` trace span; both are undone
/// on drop. Free when instrumentation is disabled.
struct VcObsScope {
    _span: ids_obs::SpanGuard,
}

impl VcObsScope {
    fn open(description: &str) -> VcObsScope {
        if ids_obs::active() {
            ids_obs::set_task(Some(description.to_string()));
        }
        // Opens this VC on the thread's flight recorder (histograms + ring
        // buffer); the check site drains it with `ids_obs::vc_take()`.
        ids_obs::vc_begin(description);
        VcObsScope {
            _span: ids_obs::span_with("vc", || description.to_string()),
        }
    }
}

impl Drop for VcObsScope {
    fn drop(&mut self) {
        ids_obs::set_task(None);
    }
}

/// One incremental solving session over a method's VCs.
///
/// The session owns a private clone of the task's term manager and a
/// [`VcSession`] (an [`ids_smt::IncrementalSolver`] under the hood): the
/// method's hypothesis prefix is asserted once — heap axioms, local-condition
/// definitions and typing hypotheses are lowered and clause-converted a
/// single time — and each VC is then checked in its own push/pop scope.
///
/// VCs must be checked in ascending index order (their hypothesis prefixes
/// grow monotonically); indices may be skipped, e.g. when a batch driver
/// already answered some VCs from a cache.
pub struct MethodSession<'a> {
    task: &'a MethodTask,
    tm: TermManager,
    session: VcSession,
}

impl<'a> MethodSession<'a> {
    /// Opens a session for the task. Every task opens one, under either
    /// encoding, so this is always `Some`; the `Option` stays because the
    /// benchmark harness in `perfbench/` unwraps it.
    pub fn new(task: &'a MethodTask) -> Option<MethodSession<'a>> {
        Some(MethodSession {
            task,
            tm: task.tm.clone(),
            session: VcSession::new(),
        })
    }

    /// Discharges one VC inside the session.
    pub fn check_vc(&mut self, vc_index: usize) -> VcResult {
        let _obs = VcObsScope::open(&self.task.vcs[vc_index].description);
        let start = Instant::now();
        let (result, stats, core) = self.session.check_vc(
            &mut self.tm,
            &self.task.hypotheses,
            &self.task.vcs[vc_index],
        );
        let verdict = match result {
            SatResult::Sat => VcVerdict::Valid,
            SatResult::Unsat => VcVerdict::Refuted,
            SatResult::Unknown => VcVerdict::Unknown,
        };
        VcResult {
            vc_index,
            verdict,
            stats,
            time: start.elapsed(),
            queue_time: Duration::ZERO,
            cached: false,
            hists: ids_obs::vc_take(),
            core,
        }
    }
}

/// One warm solver pool over *all methods of one data structure*.
///
/// Where a [`MethodSession`] shares a solver across the VCs of one method, a
/// `StructureSession` shares it across the methods of a structure: every
/// task's terms are imported into one shared [`TermManager`] (structurally
/// identical terms collapse to identical ids — [`TermManager::import`] is the
/// cross-method hash-consing), the structure-common hypothesis prelude
/// ([`StructureVcs`]) is lowered and asserted once at structure scope, and
/// each method then runs inside a solver *method scope*: its residue
/// hypotheses and everything derived from them are retracted and rolled back
/// when [`StructureSession::end_method`] closes it, while the prelude's
/// lowered clauses, axiom instantiations and Skolem witnesses stay warm for
/// the next method.
///
/// Methods must be run one at a time ([`StructureSession::begin_method`] /
/// [`StructureSession::end_method`]), in any order; each method's VCs must be
/// checked in ascending index order (indices may be skipped, e.g. when a
/// batch driver already answered some VCs from a cache). Verdicts are
/// identical to a [`MethodSession`]'s.
pub struct StructureSession {
    tm: TermManager,
    session: VcSession,
    methods: Vec<ImportedMethod>,
    /// The open method, with the term manager's state when it was opened.
    open: Option<(usize, TermMark)>,
}

/// One task's hypotheses and VCs, re-expressed in the pool's shared manager.
struct ImportedMethod {
    hypotheses: Vec<TermId>,
    vcs: Vec<Vc>,
}

impl StructureSession {
    /// Opens a warm pool over the given tasks (the methods of one structure),
    /// or `None` when there are none.
    pub fn new(tasks: &[&MethodTask]) -> Option<StructureSession> {
        let mut obs_span = ids_obs::span("structure");
        obs_span.note(|| format!("methods={}", tasks.len()));
        tasks.first()?;
        let group = StructureVcs::group(
            &tasks
                .iter()
                .map(|t| (&t.tm, &t.hypotheses[..], &t.vcs[..]))
                .collect::<Vec<_>>(),
        );
        let mut tm = TermManager::new();
        let methods: Vec<ImportedMethod> = tasks
            .iter()
            .map(|task| {
                // Import the task's *whole* manager in creation order, not
                // just the reachable roots: term-id order feeds heuristic
                // orderings downstream (theory literal order, conflict
                // clause shape), so preserving each method's relative
                // creation order keeps a pooled method's solver trajectory
                // essentially identical to a stand-alone session's.
                let mut memo = std::collections::HashMap::new();
                let all: Vec<TermId> = (0..task.tm.len() as u32).map(TermId).collect();
                tm.import(&task.tm, &all, &mut memo);
                let hypotheses = task.hypotheses.iter().map(|h| memo[h]).collect();
                let vcs = task
                    .vcs
                    .iter()
                    .map(|vc| Vc {
                        description: vc.description.clone(),
                        formula: memo[&vc.formula],
                        n_hyps: vc.n_hyps,
                        guard: memo[&vc.guard],
                        goal: memo[&vc.goal],
                    })
                    .collect();
                ImportedMethod { hypotheses, vcs }
            })
            .collect();
        // The prelude was identified by structural hash across managers;
        // after hash-consing into the shared manager it must be id-identical
        // (this would only fire on a 128-bit hash collision).
        if let Some(first) = methods.iter().find(|m| !m.vcs.is_empty()) {
            for m in &methods {
                if !m.vcs.is_empty() {
                    debug_assert_eq!(
                        m.hypotheses[..group.prelude_len],
                        first.hypotheses[..group.prelude_len]
                    );
                }
            }
        }
        let mut session = VcSession::new();
        if let Some(first) = methods.iter().find(|m| !m.vcs.is_empty()) {
            session.assert_prelude(&mut tm, &first.hypotheses, group.prelude_len);
        }
        Some(StructureSession {
            tm,
            session,
            methods,
            open: None,
        })
    }

    /// Opens the method scope for the task at `method_idx` (its position in
    /// the slice the session was built from).
    ///
    /// # Panics
    /// Panics if another method is still open.
    pub fn begin_method(&mut self, method_idx: usize) {
        assert!(self.open.is_none(), "a method is already open");
        assert!(method_idx < self.methods.len());
        self.session.begin_method();
        self.open = Some((method_idx, self.tm.mark()));
    }

    /// Closes the open method scope, rolling the pool back to its
    /// structure-scope state: the solver, and the shared term manager with
    /// the terms and fresh names the method's checks created, so a method's
    /// search does not depend on which methods ran before it.
    pub fn end_method(&mut self) {
        let (_, mark) = self.open.take().expect("no method open");
        self.session.end_method();
        self.tm.truncate_to(mark);
    }

    /// Discharges one VC of the open method.
    ///
    /// # Panics
    /// Panics if no method is open, or on out-of-order VC indices.
    pub fn check_vc(&mut self, method_idx: usize, vc_index: usize) -> VcResult {
        assert_eq!(
            self.open.map(|(m, _)| m),
            Some(method_idx),
            "method not open"
        );
        let _obs = VcObsScope::open(&self.methods[method_idx].vcs[vc_index].description);
        let start = Instant::now();
        let method = &self.methods[method_idx];
        let (result, stats, core) =
            self.session
                .check_vc(&mut self.tm, &method.hypotheses, &method.vcs[vc_index]);
        let verdict = match result {
            SatResult::Sat => VcVerdict::Valid,
            SatResult::Unsat => VcVerdict::Refuted,
            SatResult::Unknown => VcVerdict::Unknown,
        };
        VcResult {
            vc_index,
            verdict,
            stats,
            time: start.elapsed(),
            queue_time: Duration::ZERO,
            cached: false,
            hists: ids_obs::vc_take(),
            core,
        }
    }
}

/// Parses a method file and merges it with the definition's field prelude.
pub fn load_methods(
    ids: &IntrinsicDefinition,
    methods_src: &str,
) -> Result<Program, PipelineError> {
    let methods = parse_program(methods_src)?;
    let mut merged = ids.prelude();
    merged.extend(methods);
    ids_ivl::check_program(&merged)?;
    Ok(merged)
}

/// Verifies a single method of a method file against an intrinsic definition.
pub fn verify_method(
    ids: &IntrinsicDefinition,
    methods_src: &str,
    method: &str,
    config: PipelineConfig,
) -> Result<MethodReport, PipelineError> {
    let merged = load_methods(ids, methods_src)?;
    verify_method_in(ids, &merged, method, config)
}

/// Verifies a single method of an already-parsed program.
pub fn verify_method_in(
    ids: &IntrinsicDefinition,
    merged: &Program,
    method: &str,
    config: PipelineConfig,
) -> Result<MethodReport, PipelineError> {
    let task = prepare_method_in(ids, merged, method, config)?;
    let results = task.run_sequential();
    Ok(task.report(&results))
}

/// The once-per-structure half of preparing methods for verification: the
/// merged program's macro-use and ghost-legality checks, which every method
/// prepared from it shares. [`ExpandedStructure::prepare`] is the
/// once-per-method half: discipline checks and VC generation.
///
/// Nothing is expanded here: VC generation reads the program as written,
/// instantiating the definition's `LC`, `LC2` and `Phi` where it encodes
/// them and expanding each macro statement where it reaches it (the
/// definition's [`Definitions`] hook). Preparing a method here or alone
/// ([`prepare_method_in`], the one-method case of this same path) yields the
/// same task — VCs, hypotheses, keys and violations — or the same error.
pub struct ExpandedStructure<'a> {
    /// Reporting label of the prepared tasks.
    structure: String,
    /// The program as written: methods are looked up, discipline-checked,
    /// measured and turned into VCs here.
    source: &'a Program,
    /// What the program's applications and macro statements stand for:
    /// the intrinsic definition, or nothing for a plain program.
    defs: &'a (dyn Definitions + Sync),
    /// The first malformed macro use of `source`, which every method then
    /// reports.
    macros: Result<(), ExpandError>,
    /// Ghost-legality violations of every procedure of `source`.
    ghost_violations: Vec<GhostViolation>,
    /// Size of the local condition in conjuncts (0 for a plain program).
    lc_size: usize,
    /// Time the macro-use check took (zero for a plain program).
    check_time: Duration,
}

impl<'a> ExpandedStructure<'a> {
    /// Ghost-checks a merged program ([`load_methods`]) and checks its macro
    /// uses against its intrinsic definition.
    pub fn new(ids: &'a IntrinsicDefinition, merged: &'a Program) -> ExpandedStructure<'a> {
        let _obs = ids_obs::span_with("check", || ids.name.clone());
        let ghost_violations = check_ghost_legality(merged);
        let start = Instant::now();
        let macros = check_program(ids, merged);
        ExpandedStructure {
            structure: ids.name.clone(),
            source: merged,
            defs: ids,
            macros,
            ghost_violations,
            lc_size: ids.lc_size(),
            check_time: start.elapsed(),
        }
    }

    /// A plain IVL program, with no intrinsic definition: the `ids-verify
    /// verify <file>` path. Applications are uninterpreted, and a program
    /// using FWYB macro statements must be verified against a definition.
    pub fn plain(structure: &str, program: &'a Program) -> ExpandedStructure<'a> {
        ExpandedStructure {
            structure: structure.to_string(),
            source: program,
            defs: &(),
            macros: Ok(()),
            ghost_violations: check_ghost_legality(program),
            lc_size: 0,
            check_time: Duration::ZERO,
        }
    }

    /// Prepares one method for verification: discipline checks and VC
    /// generation, everything up to (but not including) the solver queries.
    /// The returned [`MethodTask`] owns its term manager and can be
    /// discharged VC by VC, on any thread.
    ///
    /// Errors take precedence in this order: no such method, then (strict
    /// mode) a well-behavedness violation, then the structure's first
    /// malformed macro use, then VC generation.
    pub fn prepare(
        &self,
        method: &str,
        config: PipelineConfig,
    ) -> Result<MethodTask, PipelineError> {
        let proc = self
            .source
            .procedure(method)
            .ok_or_else(|| PipelineError::NoSuchMethod(method.to_string()))?;
        let wellbehaved_violations = crate::wellbehaved::check_procedure(proc);
        if config.strict_wellbehaved && !wellbehaved_violations.is_empty() {
            return Err(PipelineError::NotWellBehaved(wellbehaved_violations));
        }
        let ghost_violations = self
            .ghost_violations
            .iter()
            .filter(|v| v.procedure == method)
            .cloned()
            .collect();
        self.macros.clone().map_err(PipelineError::Expand)?;

        let _obs = ids_obs::span_with("prepare", || method.to_string());
        let start = Instant::now();
        let mut tm = TermManager::new();
        let generated = VcGen::with_definitions(self.source, self.defs, config.encoding)
            .method_vcs(&mut tm, method)?;
        let prepare_time = start.elapsed();

        Ok(MethodTask {
            structure: self.structure.clone(),
            method: method.to_string(),
            tm,
            vcs: generated.vcs,
            hypotheses: generated.hypotheses,
            encoding: config.encoding,
            prepare_time,
            loc: ast::executable_loc(proc),
            spec: ast::spec_lines(proc),
            annotations: ast::annotation_lines(proc),
            lc_size: self.lc_size,
            wellbehaved_violations,
            ghost_violations,
            keys: OnceLock::new(),
        })
    }
}

/// Prepares one method of an already-parsed program for verification: the
/// one-method case of [`ExpandedStructure`], whose macro-use check the
/// task's [`MethodTask::prepare_time`] then includes.
pub fn prepare_method_in(
    ids: &IntrinsicDefinition,
    merged: &Program,
    method: &str,
    config: PipelineConfig,
) -> Result<MethodTask, PipelineError> {
    let structure = ExpandedStructure::new(ids, merged);
    let mut task = structure.prepare(method, config)?;
    task.prepare_time += structure.check_time;
    Ok(task)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Discharges the task's VCs in order, each through a fresh session that
    /// shares nothing with the others, stopping at the first non-valid one.
    fn run_fresh_per_vc(task: &MethodTask) -> Vec<VcResult> {
        let mut out = Vec::with_capacity(task.vcs.len());
        for i in 0..task.vcs.len() {
            let r = MethodSession::new(task).unwrap().check_vc(i);
            let stop = r.verdict != VcVerdict::Valid;
            out.push(r);
            if stop {
                break;
            }
        }
        out
    }

    /// Runs one method of the pool in its own scope, in VC order, stopping
    /// at the first non-valid result.
    fn run_method(pool: &mut StructureSession, method_idx: usize) -> Vec<VcResult> {
        pool.begin_method(method_idx);
        let mut out = Vec::new();
        for i in 0..pool.methods[method_idx].vcs.len() {
            let r = pool.check_vc(method_idx, i);
            let stop = r.verdict != VcVerdict::Valid;
            out.push(r);
            if stop {
                break;
            }
        }
        pool.end_method();
        out
    }

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

    #[test]
    fn insert_front_verifies() {
        // Insert a new head in front of a list head: the paradigmatic FWYB
        // example (allocation + relinking + repairs).
        let ids = list_ids();
        let methods = r#"
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
        "#;
        let report =
            verify_method(&ids, methods, "insert_front", PipelineConfig::default()).unwrap();
        assert!(
            report.outcome.is_verified(),
            "outcome: {:?}",
            report.outcome
        );
        assert!(report.wellbehaved_violations.is_empty());
        assert!(report.ghost_violations.is_empty());
        assert!(report.num_vcs > 0);
    }

    #[test]
    fn session_runner_matches_sequential_pipeline() {
        // The method's one session must reproduce the fresh-per-VC runner's
        // results exactly — same number of results (early stop included),
        // same verdict per VC — on a verifying FWYB method.
        let ids = list_ids();
        let methods = r#"
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
        "#;
        let merged = load_methods(&ids, methods).unwrap();
        let task =
            prepare_method_in(&ids, &merged, "insert_front", PipelineConfig::default()).unwrap();
        let seq = run_fresh_per_vc(&task);
        let inc = task.run_sequential();
        assert_eq!(seq.len(), inc.len());
        for (s, i) in seq.iter().zip(&inc) {
            assert_eq!(s.vc_index, i.vc_index);
            assert_eq!(s.verdict, i.verdict, "vc#{} diverged", s.vc_index);
        }
        assert!(task.report(&inc).outcome.is_verified());
    }

    #[test]
    fn session_runner_matches_sequential_on_refuted_method() {
        // Early-stop parity: both runners must stop at the same failing VC.
        let ids = list_ids();
        let methods = r#"
            procedure detach_bad(x: Loc)
              requires Br == {} && x != nil;
              ensures Br == {};
              modifies {};
            {
              Mut(x, next, nil);
            }
        "#;
        let merged = load_methods(&ids, methods).unwrap();
        let task =
            prepare_method_in(&ids, &merged, "detach_bad", PipelineConfig::default()).unwrap();
        let seq = run_fresh_per_vc(&task);
        let inc = task.run_sequential();
        assert_eq!(seq.len(), inc.len());
        for (s, i) in seq.iter().zip(&inc) {
            assert_eq!(s.verdict, i.verdict, "vc#{} diverged", s.vc_index);
        }
        let (rs, ri) = (task.report(&seq), task.report(&inc));
        assert_eq!(rs.outcome, ri.outcome, "reported outcome must match");
        assert!(!ri.outcome.is_verified());
    }

    #[test]
    fn structure_session_matches_per_method_runners() {
        // Three methods of one structure — a verifying FWYB method, a cheap
        // check-only method and a refuted method — run through ONE warm
        // structure pool. Result lengths (early stop included) and verdicts
        // must match both the fresh-per-VC runner and the per-method
        // session; later methods must visibly reuse the structure prelude.
        let ids = list_ids();
        let methods = r#"
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
        "#;
        let merged = load_methods(&ids, methods).unwrap();
        let tasks: Vec<MethodTask> = ["insert_front", "touch", "detach_bad"]
            .iter()
            .map(|m| prepare_method_in(&ids, &merged, m, PipelineConfig::default()).unwrap())
            .collect();
        let task_refs: Vec<&MethodTask> = tasks.iter().collect();
        let mut pool = StructureSession::new(&task_refs).expect("three tasks");
        for (mi, task) in tasks.iter().enumerate() {
            let pooled = run_method(&mut pool, mi);
            let seq = run_fresh_per_vc(task);
            let inc = task.run_sequential();
            assert_eq!(pooled.len(), seq.len(), "{}: early stop", task.method);
            assert_eq!(pooled.len(), inc.len());
            for ((p, s), i) in pooled.iter().zip(&seq).zip(&inc) {
                assert_eq!(p.vc_index, s.vc_index);
                assert_eq!(
                    p.verdict, s.verdict,
                    "{} vc#{} diverged from sequential",
                    task.method, p.vc_index
                );
                assert_eq!(p.verdict, i.verdict);
            }
            assert_eq!(
                task.report(&pooled).outcome,
                task.report(&seq).outcome,
                "{}: outcome",
                task.method
            );
            let reused: u64 = pooled.iter().map(|r| r.stats.prelude_reused).sum();
            if mi > 0 {
                assert!(
                    reused > 0,
                    "{}: expected structure-prelude reuse, stats {:?}",
                    task.method,
                    pooled[0].stats
                );
            }
        }
        assert!(!tasks[2]
            .report(&run_method(&mut pool, 2))
            .outcome
            .is_verified());
    }

    #[test]
    fn structure_session_allows_skipped_vc_indices() {
        // The driver skips cache-answered VCs: checking a sparse ascending
        // subset must work and agree with the fresh runner.
        let ids = list_ids();
        let methods = r#"
            procedure touch(x: Loc)
              requires Br == {} && x != nil;
              ensures Br == {};
              modifies {};
            {
              InferLCOutsideBr(x);
              AssertLCAndRemove(x);
            }
        "#;
        let merged = load_methods(&ids, methods).unwrap();
        let task = prepare_method_in(&ids, &merged, "touch", PipelineConfig::default()).unwrap();
        assert!(task.num_vcs() >= 2);
        let task_refs = [&task];
        let mut pool = StructureSession::new(&task_refs).unwrap();
        pool.begin_method(0);
        let last = task.num_vcs() - 1;
        let sparse = pool.check_vc(0, last);
        pool.end_method();
        let fresh = MethodSession::new(&task).unwrap().check_vc(last);
        assert_eq!(sparse.verdict, fresh.verdict);
    }

    #[test]
    fn missing_repair_is_caught() {
        // Forgetting to update the new head's length leaves the local
        // condition broken: the final AssertLCAndRemove must fail.
        let ids = list_ids();
        let methods = r#"
            procedure insert_front_bad(x: Loc) returns (r: Loc)
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
        let report =
            verify_method(&ids, methods, "insert_front_bad", PipelineConfig::default()).unwrap();
        assert!(
            !report.outcome.is_verified(),
            "outcome: {:?}",
            report.outcome
        );
    }

    #[test]
    fn forgetting_to_empty_broken_set_is_caught() {
        // Mutating without repairing: the ensures Br == {} fails.
        let ids = list_ids();
        let methods = r#"
            procedure detach_bad(x: Loc)
              requires Br == {} && x != nil;
              ensures Br == {};
              modifies {};
            {
              Mut(x, next, nil);
            }
        "#;
        let report = verify_method(&ids, methods, "detach_bad", PipelineConfig::default()).unwrap();
        assert!(!report.outcome.is_verified());
    }

    #[test]
    fn strict_mode_rejects_raw_mutation() {
        let ids = list_ids();
        let methods = r#"
            procedure raw(x: Loc)
            {
              x.next := nil;
            }
        "#;
        let config = PipelineConfig {
            strict_wellbehaved: true,
            ..PipelineConfig::default()
        };
        assert!(matches!(
            verify_method(&ids, methods, "raw", config),
            Err(PipelineError::NotWellBehaved(_))
        ));
    }
}
