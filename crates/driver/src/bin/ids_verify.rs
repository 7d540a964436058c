//! `ids-verify` — command-line front end of the parallel batch verifier.
//!
//! ```text
//! ids-verify suite  [--structure NAME] [--method NAME] [RUN OPTIONS]
//! ids-verify verify <FILE> [--structure NAME] [--method NAME] [RUN OPTIONS]
//! ids-verify impact [--structure NAME]
//! ids-verify compare <BASE> <NEW> [--threshold-pct P] [--threshold-ms MS]
//!                   [--advisory-timing] [--json]
//! ids-verify history <LEDGER> [--structure NAME] [--method NAME]
//! ```
//!
//! The run options (`--jobs`, `--cache`, `--json`, `--quantified`,
//! `--trace`, `--heartbeat`, `--ledger`, `--no-ledger`, `--recheck`,
//! `--vc-timeout`) belong to `suite` and `verify`; a command given an option
//! it does not read is a usage error.
//!
//! `suite` runs the Table-2 registry (optionally filtered by `--structure` /
//! `--method`), and with `--quantified` the RQ3 encoding; `verify` runs one
//! IVL file, either stand-alone or merged with a registry structure's
//! definition; `impact` checks the registry's declared impact sets
//! (Appendix C). `compare` and `history` read run-ledger files (`--ledger`)
//! for longitudinal performance analysis.
//! Exit code 0 = everything verified, 1 = some method (for `impact`: some
//! impact set) failed or was undecided (for `compare`: a regression or
//! verdict change), 2 = usage or pipeline error. With `--trace` or
//! `--vc-timeout` armed, SIGINT and SIGTERM flush the partial trace and the
//! in-flight dossiers and exit 130 and 143.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ids_core::impact::check_impact_sets;
use ids_core::pipeline::{ExpandedStructure, PipelineConfig, VcVerdict};
use ids_core::report::format_table;
use ids_driver::json::Json;
use ids_driver::{ledger, verify_selections, verify_tasks, BatchReport, DriverConfig, Selection};
use ids_smt::SolverStats;
use ids_structures::{all_benchmarks, Benchmark};
use ids_vcgen::Encoding;

/// Counts heap allocations for `--json`'s `stats`.
#[global_allocator]
static ALLOC: ids_obs::alloc::CountingAlloc = ids_obs::alloc::CountingAlloc;

const USAGE: &str = "\
ids-verify — parallel batch verification of intrinsically defined data structures

USAGE:
    ids-verify suite  [OPTIONS]          verify the whole Table-2 registry
    ids-verify verify <FILE> [OPTIONS]   verify every procedure of an IVL file
    ids-verify impact [--structure NAME] prove each registry structure's
                                         declared impact sets correct
                                         (exit 1 if one is not)
    ids-verify compare <BASE> <NEW>      join two run-ledger files per VC and
                                         report solve-time regressions with
                                         phase attribution (exit 1 on
                                         regression or verdict change) and
                                         the VCs solved on both sides whose
                                         search (solver counters, core)
                                         differs
    ids-verify history <LEDGER>          per-VC solve-time trajectory across
                                         every run recorded in a ledger file

OPTIONS of suite and verify:
    --structure NAME   (suite) only structures whose name contains NAME
                       (substring match, case-insensitive); (verify) merge
                       the file with this registry structure's definition
    --method NAME      only this method; repeatable
    --jobs N           worker threads (default: available parallelism)
    --cache PATH       persistent VC cache file (created if missing)
    --json             machine-readable JSON output
    --quantified       use the quantified (Dafny-style) encoding: call frames
                       and Alloc growth become forall hypotheses, asserted
                       as ground instances over each VC's terms, in the
                       same warm solver pool per data structure as the
                       decidable encoding
    --trace PATH       write a Chrome trace_event JSON timeline of the run to
                       PATH (open in chrome://tracing or Perfetto): one lane
                       per worker thread, spans for each pipeline phase
                       (lowering, CNF, SAT search segmented by restart, EUF,
                       simplex), instants for cache hits, dedup hits and
                       early-stop cancellations
    --heartbeat SECS   print a liveness line to stderr at most every SECS
                       seconds while the solver works (conflict/pivot
                       counters of the VC currently in progress)
    --ledger PATH      append this run to the run-ledger JSONL at PATH (a
                       directory gets ids-ledger.jsonl inside it): per-VC
                       verdicts, queue/solve ms, phase seconds, solver
                       counters and histograms, keyed by stable VC keys for
                       ids-verify compare / history. Defaults to
                       <cache>.ledger.jsonl whenever --cache is given
    --no-ledger        disable the implicit --cache ledger
    --recheck          ignore cached verdicts and re-solve every VC from its
                       full hypothesis set (the same search as a cold run);
                       recomputed verdicts and unsat cores are written back
                       to the cache
    --vc-timeout SECS  watchdog: when a VC is in flight longer than SECS
                       (fractional, e.g. 0.25; at least the watchdog's 0.2 s
                       tick), dump a stuck-VC dossier to stderr (current
                       phase, heartbeat trail, histogram snapshot) — once
                       per VC

OPTIONS of impact:
    --structure NAME   only structures whose name contains NAME

OPTIONS of compare:
    --threshold-pct P  noise gate: a solve-time delta counts only past P
                       percent of the base time (default 25)
    --threshold-ms MS  ...and past MS absolute milliseconds (default 50)
    --advisory-timing  report timing regressions without failing; only
                       verdict changes exit nonzero (cross-machine CI)
    --json             machine-readable JSON output

OPTIONS of history:
    --structure NAME   only rows whose text contains NAME
    --method NAME      only rows of this method; repeatable

A command given an option it does not read exits 2.
    -h, --help         this message
";

struct Options {
    jobs: Option<usize>,
    cache: Option<PathBuf>,
    json: bool,
    quantified: bool,
    trace: Option<PathBuf>,
    heartbeat: Option<u64>,
    ledger: Option<PathBuf>,
    no_ledger: bool,
    recheck: bool,
    vc_timeout: Option<Duration>,
    threshold_pct: Option<f64>,
    threshold_ms: Option<f64>,
    advisory_timing: bool,
    structure: Option<String>,
    methods: Vec<String>,
    positional: Vec<String>,
    /// The options given, as spelled, for [`check_options`].
    given: Vec<String>,
}

impl Options {
    /// True if `name` passes the `--method` filter.
    fn method_wanted(&self, name: &str) -> bool {
        self.methods.is_empty() || self.methods.iter().any(|m| m == name)
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        jobs: None,
        cache: None,
        json: false,
        quantified: false,
        trace: None,
        heartbeat: None,
        ledger: None,
        no_ledger: false,
        recheck: false,
        vc_timeout: None,
        threshold_pct: None,
        threshold_ms: None,
        advisory_timing: false,
        structure: None,
        methods: Vec::new(),
        positional: Vec::new(),
        given: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            o.given.push(arg.clone());
        }
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{} requires a value", flag))
        };
        match arg.as_str() {
            "--jobs" => {
                let v = value_of("--jobs")?;
                o.jobs = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --jobs value '{}'", v))?
                        .max(1),
                );
            }
            "--cache" => o.cache = Some(PathBuf::from(value_of("--cache")?)),
            "--json" => o.json = true,
            "--quantified" => o.quantified = true,
            "--trace" => o.trace = Some(PathBuf::from(value_of("--trace")?)),
            "--heartbeat" => {
                let v = value_of("--heartbeat")?;
                o.heartbeat = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --heartbeat value '{}'", v))?,
                );
            }
            "--ledger" => o.ledger = Some(PathBuf::from(value_of("--ledger")?)),
            "--no-ledger" => o.no_ledger = true,
            "--recheck" => o.recheck = true,
            "--vc-timeout" => {
                let v = value_of("--vc-timeout")?;
                let secs = v
                    .parse::<f64>()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| format!("invalid --vc-timeout value '{}'", v))?;
                o.vc_timeout = Some(secs.max(SUPERVISOR_TICK));
            }
            "--threshold-pct" => {
                let v = value_of("--threshold-pct")?;
                o.threshold_pct = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("invalid --threshold-pct value '{}'", v))?,
                );
            }
            "--threshold-ms" => {
                let v = value_of("--threshold-ms")?;
                o.threshold_ms = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("invalid --threshold-ms value '{}'", v))?,
                );
            }
            "--advisory-timing" => o.advisory_timing = true,
            "--structure" => o.structure = Some(value_of("--structure")?),
            "--method" => o.methods.push(value_of("--method")?),
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option '{}'", other)),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

/// The options `command` reads, or `None` for an unknown command.
fn options_of(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "suite" | "verify" => &[
            "--jobs",
            "--cache",
            "--json",
            "--quantified",
            "--trace",
            "--heartbeat",
            "--ledger",
            "--no-ledger",
            "--recheck",
            "--vc-timeout",
            "--structure",
            "--method",
        ],
        "impact" => &["--structure"],
        "compare" => &[
            "--threshold-pct",
            "--threshold-ms",
            "--advisory-timing",
            "--json",
        ],
        "history" => &["--structure", "--method"],
        _ => return None,
    })
}

/// Rejects an option `command` does not read: silently ignoring it would
/// give a script that asked for, say, `impact --json` the text table. An
/// unknown command is left to the dispatch to report.
fn check_options(command: &str, o: &Options) -> Result<(), String> {
    let Some(reads) = options_of(command) else {
        return Ok(());
    };
    match o.given.iter().find(|flag| !reads.contains(&flag.as_str())) {
        Some(flag) => Err(format!("'{}' does not read the option {}", command, flag)),
        None => Ok(()),
    }
}

fn driver_config(o: &Options) -> DriverConfig {
    let mut config = DriverConfig {
        encoding: if o.quantified {
            Encoding::Quantified
        } else {
            Encoding::Decidable
        },
        cache_path: o.cache.clone(),
        ledger_path: ledger_path(o),
        recheck: o.recheck,
        ..DriverConfig::default()
    };
    if let Some(jobs) = o.jobs {
        config.jobs = jobs;
    }
    config
}

/// Resolves `--ledger` / `--no-ledger` to the run-ledger file this run
/// appends to. An explicit directory gets `ids-ledger.jsonl` inside it; with
/// no explicit path, a `--cache` run keeps its ledger alongside the cache
/// (`<cache>.ledger.jsonl`) so the two artifacts travel together.
fn ledger_path(o: &Options) -> Option<PathBuf> {
    if o.no_ledger {
        return None;
    }
    if let Some(path) = &o.ledger {
        if path.is_dir() {
            return Some(path.join("ids-ledger.jsonl"));
        }
        return Some(path.clone());
    }
    o.cache.as_ref().map(|cache| {
        let mut name = cache
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".ledger.jsonl");
        cache.with_file_name(name)
    })
}

/// The `--heartbeat` observer: prints one `[hb]` liveness line to stderr,
/// rate-limited to at most one line per `every` (a `--heartbeat 0` prints
/// every solver callback — useful only for debugging the plumbing itself).
struct HeartbeatPrinter {
    every: Duration,
    last: Mutex<Option<Instant>>,
}

impl ids_obs::RunObserver for HeartbeatPrinter {
    fn heartbeat(&self, hb: &ids_obs::Heartbeat) {
        {
            let mut last = self.last.lock().expect("heartbeat lock");
            let now = Instant::now();
            if let Some(prev) = *last {
                if now.duration_since(prev) < self.every {
                    return;
                }
            }
            *last = Some(now);
        }
        eprintln!(
            "[hb] {} [{}] conflicts {} decisions {} propagations {} restarts {} learned {} rounds {} pivots {}",
            hb.task.as_deref().unwrap_or("-"),
            hb.phase,
            hb.conflicts,
            hb.decisions,
            hb.propagations,
            hb.restarts,
            hb.learned,
            hb.theory_rounds,
            hb.pivots,
        );
    }
}

/// Arms `--trace` / `--heartbeat` / `--vc-timeout` / the run ledger before
/// the batch runs. The initial `[hb]` line guarantees at least one heartbeat
/// line even on runs that finish before the first solver callback fires.
fn install_observability(o: &Options, config: &DriverConfig) {
    if o.trace.is_some() {
        ids_obs::trace_start();
        ids_obs::set_thread_label("main".to_string());
    }
    if let Some(secs) = o.heartbeat {
        ids_obs::set_heartbeat_conflicts(1024);
        ids_obs::set_observer(Some(Arc::new(HeartbeatPrinter {
            every: Duration::from_secs(secs),
            last: Mutex::new(None),
        })));
        eprintln!("[hb] liveness lines at most every {}s", secs);
    }
    // Histograms feed both the ledger and the stuck-VC dossiers; the flight
    // recorder additionally needs heartbeat snapshots, so the watchdog arms a
    // cadence if --heartbeat did not.
    if config.ledger_path.is_some() || o.vc_timeout.is_some() {
        ids_obs::set_metrics(true);
    }
    if o.vc_timeout.is_some() && o.heartbeat.is_none() {
        ids_obs::set_heartbeat_conflicts(1024);
    }
    install_flush_guards(o);
}

/// How often the supervisor thread wakes up; also the finest `--vc-timeout`.
const SUPERVISOR_TICK: Duration = Duration::from_millis(200);

/// Serializes every write of the `--trace` file: the supervisor thread
/// flushes partial snapshots while the run is still in flight, and the main
/// thread writes the final timeline at exit.
static TRACE_WRITE: Mutex<()> = Mutex::new(());

/// The signal that interrupted the run (0 while none has): set by the
/// SIGINT and SIGTERM handler, turned into a flush and an exit by the
/// supervisor thread.
static INTERRUPTED: AtomicI32 = AtomicI32::new(0);

#[cfg(unix)]
mod signals {
    // Minimal binding to libc's `signal` (libc is already linked via std);
    // avoids depending on the `libc` crate for two constants and one call.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(sig: i32) {
        // Only async-signal-safe work here: record the signal, let the
        // supervisor thread do the flushing and the exit.
        super::INTERRUPTED.store(sig, std::sync::atomic::Ordering::SeqCst);
    }

    /// Routes SIGINT (Ctrl-C) and SIGTERM (`kill`, `timeout`) to the flush.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
}

/// Writes whatever the tracer has buffered so far without stopping it — used
/// by the supervisor thread, the panic hook and the signal path so that an
/// interrupted run still leaves a loadable (partial) Perfetto timeline.
fn flush_partial_trace(path: &std::path::Path) {
    let _guard = TRACE_WRITE.lock().unwrap_or_else(|e| e.into_inner());
    let lanes = ids_obs::trace_snapshot();
    if lanes.iter().all(|l| l.events.is_empty()) {
        return;
    }
    let json = ids_obs::chrome_trace_json(&lanes);
    if let Err(e) = std::fs::write(path, json) {
        eprintln!(
            "warning: cannot flush partial trace {}: {}",
            path.display(),
            e
        );
    }
}

/// Dumps a dossier for every VC still in flight — the interrupt/panic
/// counterpart of the watchdog's stuck-VC reports.
fn dump_flight_dossiers(reason: &str) {
    let dossiers = ids_obs::flight_dossiers();
    if dossiers.is_empty() {
        return;
    }
    eprintln!("[dossier] {}: {} VC(s) in flight", reason, dossiers.len());
    for d in &dossiers {
        eprint!("{}", ids_obs::render_dossier(d));
    }
}

/// Spawns the supervisor thread (stuck-VC watchdog + interrupt flush +
/// periodic partial-trace flush) and installs the panic hook and the SIGINT
/// and SIGTERM handler. All three exist so that aborted runs still leave
/// their observability artifacts behind; none of them is armed unless the
/// run asked for --trace or --vc-timeout.
fn install_flush_guards(o: &Options) {
    let trace = o.trace.clone();
    let vc_timeout = o.vc_timeout;
    if trace.is_none() && vc_timeout.is_none() {
        return;
    }

    {
        let trace = trace.clone();
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            default_hook(info);
            dump_flight_dossiers("panic");
            if let Some(path) = &trace {
                flush_partial_trace(path);
                eprintln!("trace: partial timeline flushed to {}", path.display());
            }
        }));
    }

    signals::install();
    std::thread::Builder::new()
        .name("obs-supervisor".to_string())
        .spawn(move || {
            const TRACE_FLUSH_EVERY: Duration = Duration::from_secs(5);
            let mut last_trace_flush = Instant::now();
            loop {
                std::thread::sleep(SUPERVISOR_TICK);
                let signal = INTERRUPTED.load(Ordering::SeqCst);
                if signal != 0 {
                    dump_flight_dossiers("interrupted");
                    if let Some(path) = &trace {
                        flush_partial_trace(path);
                        eprintln!("trace: partial timeline flushed to {}", path.display());
                    }
                    // 128 + the signal: 130 for SIGINT, 143 for SIGTERM.
                    std::process::exit(128 + signal);
                }
                if let Some(timeout) = vc_timeout {
                    for d in ids_obs::stuck_dossiers(timeout) {
                        eprint!("{}", ids_obs::render_dossier(&d));
                    }
                }
                if trace.is_some() && last_trace_flush.elapsed() >= TRACE_FLUSH_EVERY {
                    last_trace_flush = Instant::now();
                    if let Some(path) = &trace {
                        flush_partial_trace(path);
                    }
                }
            }
        })
        .expect("spawn obs supervisor");
}

/// Writes the `--trace` timeline (if armed). Returns the exit code to use
/// instead of the verdict-derived one when the file cannot be written.
fn write_trace(o: &Options) -> Option<ExitCode> {
    let path = o.trace.as_ref()?;
    let _guard = TRACE_WRITE.lock().unwrap_or_else(|e| e.into_inner());
    let lanes = ids_obs::trace_stop();
    let json = ids_obs::chrome_trace_json(&lanes);
    match std::fs::write(path, json) {
        Ok(()) => {
            let events: usize = lanes.iter().map(|l| l.events.len()).sum();
            eprintln!(
                "trace: {} events on {} lanes written to {}",
                events,
                lanes.len(),
                path.display()
            );
            None
        }
        Err(e) => {
            eprintln!("error: cannot write trace {}: {}", path.display(), e);
            Some(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprint!("{}", USAGE);
        return ExitCode::from(2);
    };
    let options = match parse_options(&args[1..]) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {}\n\n{}", msg, USAGE);
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = check_options(&command, &options) {
        eprintln!("error: {}\n\n{}", msg, USAGE);
        return ExitCode::from(2);
    }
    match command.as_str() {
        "suite" => run_suite(&options),
        "verify" => run_verify(&options),
        "impact" => run_impact(&options),
        "compare" => run_compare(&options),
        "history" => run_history(&options),
        "-h" | "--help" => {
            print!("{}", USAGE);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown command '{}'\n\n{}", other, USAGE);
            ExitCode::from(2)
        }
    }
}

/// The registry structures a `suite` or `impact` run covers: those whose
/// name contains `--structure`, if given. Positional arguments and a filter
/// that matches nothing are usage errors.
fn registry(command: &str, options: &Options) -> Result<Vec<Benchmark>, ExitCode> {
    if !options.positional.is_empty() {
        eprintln!(
            "error: '{}' takes no positional arguments\n\n{}",
            command, USAGE
        );
        return Err(ExitCode::from(2));
    }
    let mut benchmarks = all_benchmarks();
    if let Some(wanted) = &options.structure {
        let needle = wanted.to_lowercase();
        benchmarks.retain(|b| b.name.to_lowercase().contains(&needle));
        if benchmarks.is_empty() {
            eprintln!("error: no registry structure matches '{}'", wanted);
            return Err(ExitCode::from(2));
        }
    }
    Ok(benchmarks)
}

fn run_suite(options: &Options) -> ExitCode {
    let benchmarks = match registry("suite", options) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut selections: Vec<Selection> = benchmarks.iter().map(Selection::from_benchmark).collect();
    for sel in &mut selections {
        sel.methods.retain(|m| options.method_wanted(m));
    }
    // A --method name that matched nothing is almost always a typo (or a
    // renamed benchmark method): fail loudly instead of silently shrinking
    // the run — CI smoke steps depend on every listed method actually running.
    let mut unmatched = false;
    for wanted in &options.methods {
        if !selections
            .iter()
            .any(|sel| sel.methods.iter().any(|m| m == wanted))
        {
            eprintln!(
                "error: --method '{}' matches no method in the suite",
                wanted
            );
            unmatched = true;
        }
    }
    if unmatched {
        return ExitCode::from(2);
    }
    selections.retain(|sel| !sel.methods.is_empty());
    if selections.is_empty() {
        eprintln!("error: the --method filter matched no methods");
        return ExitCode::from(2);
    }
    let config = driver_config(options);
    install_observability(options, &config);
    let batch = verify_selections(&selections, &config);
    let trace_failure = write_trace(options);
    let code = emit(&batch, &config, "suite", options.json);
    trace_failure.unwrap_or(code)
}

fn run_verify(options: &Options) -> ExitCode {
    let [file] = options.positional.as_slice() else {
        eprintln!("error: 'verify' takes exactly one file\n\n{}", USAGE);
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {}", file, e);
            return ExitCode::from(2);
        }
    };
    let config = driver_config(options);
    install_observability(options, &config);
    let pipeline_config = PipelineConfig {
        encoding: config.encoding,
        ..PipelineConfig::default()
    };

    let batch = if let Some(wanted) = &options.structure {
        // Merge the file with a registry definition, which gives its FWYB
        // macros and `LC`/`Phi` applications their meaning.
        // The name must match exactly one structure — verifying against a
        // silently guessed definition would produce meaningless verdicts.
        let registry = all_benchmarks();
        let needle = wanted.to_lowercase();
        let matches: Vec<&ids_structures::Benchmark> = registry
            .iter()
            .filter(|b| b.name.to_lowercase().contains(&needle))
            .collect();
        let benchmark = match matches.as_slice() {
            [one] => *one,
            [] => {
                eprintln!("error: no registry structure matches '{}'", wanted);
                eprintln!("known structures:");
                for b in &registry {
                    eprintln!("  {}", b.name);
                }
                return ExitCode::from(2);
            }
            several => {
                eprintln!("error: --structure '{}' is ambiguous; it matches:", wanted);
                for b in several {
                    eprintln!("  {}", b.name);
                }
                return ExitCode::from(2);
            }
        };
        let methods = match methods_in(&src, options) {
            Ok(m) => m,
            Err(code) => return code,
        };
        if let Some(code) = check_method_filter(&methods, options) {
            return code;
        }
        let selection = Selection {
            name: benchmark.name,
            definition: &benchmark.definition,
            methods_src: &src,
            methods,
        };
        verify_selections(std::slice::from_ref(&selection), &config)
    } else {
        // Stand-alone program: no definition, no macro expansion.
        let program = match ids_ivl::parse_program(&src)
            .map_err(|e| e.to_string())
            .and_then(|p| {
                ids_ivl::check_program(&p)
                    .map(|_| p)
                    .map_err(|e| e.to_string())
            }) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {}: {}", file, e);
                return ExitCode::from(2);
            }
        };
        let label = PathBuf::from(file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.clone());
        let selected: Vec<&str> = program
            .procedures
            .iter()
            .filter(|p| p.body.is_some())
            .map(|p| p.name.as_str())
            .filter(|n| options.method_wanted(n))
            .collect();
        if let Some(code) = check_method_filter(&selected, options) {
            return code;
        }
        let mut tasks = Vec::new();
        let mut batch = BatchReport::default();
        let structure = ExpandedStructure::plain(&label, &program);
        for name in selected {
            match structure.prepare(name, pipeline_config) {
                Ok(task) => tasks.push(task),
                Err(e) => batch.errors.push(ids_driver::BatchError {
                    structure: label.clone(),
                    method: name.to_string(),
                    message: e.to_string(),
                }),
            }
        }
        let mut solved = verify_tasks(tasks, &config);
        solved.errors.extend(batch.errors);
        solved
    };
    let trace_failure = write_trace(options);
    let code = emit(&batch, &config, "verify", options.json);
    trace_failure.unwrap_or(code)
}

/// `ids-verify impact`: proves each registry structure's declared impact sets
/// correct (the Appendix C triples, decidable encoding). Prints one row per
/// structure, then one line per set that was not proved; exits 1 if there is
/// one.
fn run_impact(options: &Options) -> ExitCode {
    let benchmarks = match registry("impact", options) {
        Ok(b) => b,
        Err(code) => return code,
    };
    println!(
        "{:<36} {:>5} {:>7} {:>9}",
        "Data Structure", "sets", "proved", "time (s)"
    );
    println!("{}", "-".repeat(60));
    let start = Instant::now();
    let (mut sets, mut unproved) = (0, Vec::new());
    for b in &benchmarks {
        let checked = Instant::now();
        let results = check_impact_sets(&b.definition, Encoding::Decidable);
        let proved = results.iter().filter(|r| r.is_correct()).count();
        println!(
            "{:<36} {:>5} {:>7} {:>9.2}",
            b.name,
            results.len(),
            format!("{}/{}", proved, results.len()),
            checked.elapsed().as_secs_f64()
        );
        sets += results.len();
        unproved.extend(
            results
                .into_iter()
                .filter(|r| !r.is_correct())
                .map(|r| (b.name, r)),
        );
    }
    println!();
    for (structure, r) in &unproved {
        println!(
            "{}: {} field `{}`{}",
            match r.outcome {
                ids_vcgen::VerifyOutcome::Unknown { .. } => "undecided",
                _ => "refuted",
            },
            structure,
            r.field,
            if r.secondary {
                " (secondary local condition)"
            } else {
                ""
            },
        );
    }
    println!(
        "{} impact sets ({} proved, {} not proved) | wall {:.2}s",
        sets,
        sets - unproved.len(),
        unproved.len(),
        start.elapsed().as_secs_f64()
    );
    if unproved.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Loads a ledger file for `compare`/`history`, with a uniform error shape.
fn load_ledger(path: &str) -> Result<Vec<ledger::RunRecord>, ExitCode> {
    match ledger::load_runs(std::path::Path::new(path)) {
        Ok(runs) if runs.is_empty() => {
            eprintln!("error: {} contains no parseable runs", path);
            Err(ExitCode::from(2))
        }
        Ok(runs) => Ok(runs),
        Err(e) => {
            eprintln!("error: cannot read ledger {}: {}", path, e);
            Err(ExitCode::from(2))
        }
    }
}

/// One-line description of a run used in `compare`/`history` headers.
fn run_label(r: &ledger::RunRecord) -> String {
    format!(
        "ts {} host {} pool {} profile {} jobs {} ({} VCs, wall {:.2}s)",
        r.meta.timestamp,
        r.meta.hostname,
        r.meta.pool_mode,
        r.meta.profile,
        r.meta.jobs,
        r.vcs.len(),
        r.meta.wall_s,
    )
}

fn compare_opts(options: &Options) -> ledger::CompareOpts {
    let mut opts = ledger::CompareOpts::default();
    if let Some(pct) = options.threshold_pct {
        opts.threshold_pct = pct;
    }
    if let Some(ms) = options.threshold_ms {
        opts.threshold_ms = ms;
    }
    opts.advisory_timing = options.advisory_timing;
    opts
}

/// `ids-verify compare BASE NEW`: joins the most recent run of each ledger
/// per VC key, reports timing deltas with phase attribution and whether
/// each VC solved on both sides searched identically, and exits 1 on a
/// regression or a verdict change (0 otherwise, 2 on usage/IO errors).
fn run_compare(options: &Options) -> ExitCode {
    let [base_path, new_path] = options.positional.as_slice() else {
        eprintln!(
            "error: 'compare' takes exactly two ledger files\n\n{}",
            USAGE
        );
        return ExitCode::from(2);
    };
    let (base_runs, new_runs) = match (load_ledger(base_path), load_ledger(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let base = base_runs.last().expect("nonempty");
    let new = new_runs.last().expect("nonempty");
    let opts = compare_opts(options);
    let report = ledger::compare(base, new, &opts);

    if options.json {
        println!("{}", compare_json(&report, &opts));
    } else {
        println!("base: {} — {}", base_path, run_label(base));
        println!("new:  {} — {}", new_path, run_label(new));
        for d in &report.deltas {
            if d.verdict_changed {
                println!(
                    "  VERDICT CHANGE {}: {} -> {}",
                    d.label, d.base_verdict, d.new_verdict
                );
            }
            if d.regressed || d.improved {
                let tag = if d.regressed {
                    "REGRESSION"
                } else {
                    "improved"
                };
                let pct = if d.base_ms > 0.0 {
                    (d.new_ms - d.base_ms) / d.base_ms * 100.0
                } else {
                    0.0
                };
                println!(
                    "  {} {}: {:.1} -> {:.1} ms ({:+.0}%){}{}",
                    tag,
                    d.label,
                    d.base_ms,
                    d.new_ms,
                    pct,
                    if d.attribution.is_empty() {
                        ""
                    } else {
                        " — "
                    },
                    d.attribution,
                );
            }
        }
        for label in &report.only_base {
            println!("  only in base: {}", label);
        }
        for label in &report.only_new {
            println!("  only in new: {}", label);
        }
        for label in &report.search_changed {
            println!("  SEARCH CHANGE {}", label);
        }
        println!(
            "{} VCs joined | {} regressions{}, {} improvements, {} verdict changes",
            report.deltas.len(),
            report.regressions,
            if opts.advisory_timing && report.regressions > 0 {
                " (advisory)"
            } else {
                ""
            },
            report.improvements,
            report.verdict_mismatches,
        );
        println!(
            "search: identical on {} of {} solved VCs",
            report.solved_both - report.search_changed.len(),
            report.solved_both
        );
    }
    if report.failed(&opts) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn compare_json(report: &ledger::CompareReport, opts: &ledger::CompareOpts) -> String {
    let mut j = Json::new();
    j.begin_object();
    j.str_field("command", "compare");
    j.num_field("threshold_pct", opts.threshold_pct);
    j.num_field("threshold_ms", opts.threshold_ms);
    j.bool_field("advisory_timing", opts.advisory_timing);
    j.key("deltas");
    j.begin_array();
    for d in &report.deltas {
        j.begin_object();
        j.str_field("key", &format!("{:032x}", d.key));
        j.str_field("label", &d.label);
        j.str_field("base_verdict", &d.base_verdict);
        j.str_field("new_verdict", &d.new_verdict);
        j.num_field("base_ms", d.base_ms);
        j.num_field("new_ms", d.new_ms);
        j.bool_field("verdict_changed", d.verdict_changed);
        j.bool_field("regressed", d.regressed);
        j.bool_field("improved", d.improved);
        j.bool_field("cached", d.cached);
        j.bool_field("search_changed", d.search_changed);
        if let Some(phase) = &d.attributed_phase {
            j.str_field("attributed_phase", phase);
        }
        if !d.attribution.is_empty() {
            j.str_field("attribution", &d.attribution);
        }
        j.end_object();
    }
    j.end_array();
    j.key("only_base");
    j.begin_array();
    for label in &report.only_base {
        j.str_value(label);
    }
    j.end_array();
    j.key("only_new");
    j.begin_array();
    for label in &report.only_new {
        j.str_value(label);
    }
    j.end_array();
    j.key("search_changed");
    j.begin_array();
    for label in &report.search_changed {
        j.str_value(label);
    }
    j.end_array();
    j.num_field("solved_both", report.solved_both as f64);
    j.num_field("regressions", report.regressions as f64);
    j.num_field("improvements", report.improvements as f64);
    j.num_field("verdict_changes", report.verdict_mismatches as f64);
    j.bool_field("failed", report.failed(opts));
    j.end_object();
    j.finish()
}

/// `ids-verify history LEDGER`: per-VC solve-time trajectory across every
/// run in a ledger file, optionally filtered by `--structure` / `--method`.
fn run_history(options: &Options) -> ExitCode {
    let [path] = options.positional.as_slice() else {
        eprintln!(
            "error: 'history' takes exactly one ledger file\n\n{}",
            USAGE
        );
        return ExitCode::from(2);
    };
    let runs = match load_ledger(path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    println!("{}: {} runs", path, runs.len());
    for (i, r) in runs.iter().enumerate() {
        println!("  run {}: {}", i + 1, run_label(r));
    }
    let lines = ledger::history_lines(&runs, None);
    let structure = options.structure.as_deref().map(str::to_lowercase);
    let methods: Vec<String> = options.methods.iter().map(|m| m.to_lowercase()).collect();
    let mut shown = 0usize;
    for line in &lines {
        let lower = line.to_lowercase();
        if let Some(s) = &structure {
            if !lower.contains(s.as_str()) {
                continue;
            }
        }
        if !methods.is_empty() && !methods.iter().any(|m| lower.contains(m.as_str())) {
            continue;
        }
        println!("{}", line);
        shown += 1;
    }
    if shown == 0 {
        eprintln!("error: no ledger rows match the filter");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// Rejects a run in which a `--method` name matched nothing, or nothing is
/// left to verify — an empty "all verified" run is a trap for scripts.
fn check_method_filter<S: AsRef<str>>(selected: &[S], options: &Options) -> Option<ExitCode> {
    let mut bad = false;
    for wanted in &options.methods {
        if !selected.iter().any(|m| m.as_ref() == wanted) {
            eprintln!("error: --method '{}' matches no procedure", wanted);
            bad = true;
        }
    }
    if selected.is_empty() {
        eprintln!("error: no procedures with a body to verify");
        bad = true;
    }
    if bad {
        Some(ExitCode::from(2))
    } else {
        None
    }
}

/// The bodies of a methods file, restricted to the `--method` filter.
fn methods_in(src: &str, options: &Options) -> Result<Vec<String>, ExitCode> {
    match ids_ivl::parse_program(src) {
        Ok(p) => Ok(p
            .procedures
            .iter()
            .filter(|p| p.body.is_some())
            .map(|p| p.name.clone())
            .filter(|n| options.method_wanted(n))
            .collect()),
        Err(e) => {
            eprintln!("error: {}", e);
            Err(ExitCode::from(2))
        }
    }
}

fn emit(batch: &BatchReport, config: &DriverConfig, command: &str, json: bool) -> ExitCode {
    if json {
        println!("{}", to_json(batch, config, command));
    } else {
        print!("{}", format_table(&batch.reports));
        for e in &batch.errors {
            eprintln!("error: [{}::{}] {}", e.structure, e.method, e.message);
        }
        let s = &batch.stats;
        let verified = batch
            .reports
            .iter()
            .filter(|r| r.outcome.is_verified())
            .count();
        println!(
            "\n{} methods ({} verified, {} failed), {} VCs | cache hits {}, SMT queries {}, skipped {} ({} cancelled in flight) | prelude reused {}, lowered {} | wall {:.2}s (jobs={})",
            s.methods,
            verified,
            s.methods - verified,
            s.vcs,
            s.cache_hits,
            s.smt_queries,
            s.skipped_vcs,
            s.cancellations,
            s.solver.prelude_reused,
            s.solver.prelude_lowered,
            s.wall.as_secs_f64(),
            config.jobs,
        );
    }
    if !batch.errors.is_empty() {
        ExitCode::from(2)
    } else if batch.all_verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn solver_json(j: &mut Json, s: &SolverStats) {
    j.begin_object();
    j.num_field("decisions", s.sat_decisions as f64);
    j.num_field("conflicts", s.sat_conflicts as f64);
    j.num_field("propagations", s.sat_propagations as f64);
    j.num_field("theory_propagations", s.theory_propagations as f64);
    j.num_field("theory_rounds", s.theory_rounds as f64);
    j.num_field("final_checks", s.final_checks as f64);
    j.num_field("shared_equalities", s.shared_equalities as f64);
    j.num_field("initial_clauses", s.initial_clauses as f64);
    j.num_field("atoms", s.atoms as f64);
    j.num_field("sat_time_s", s.sat_time.as_secs_f64());
    j.num_field("theory_time_s", s.theory_time.as_secs_f64());
    j.num_field("lower_time_s", s.lower_time.as_secs_f64());
    j.num_field("euf_time_s", s.euf_time.as_secs_f64());
    j.num_field("simplex_time_s", s.simplex_time.as_secs_f64());
    j.num_field("cnf_time_s", s.cnf_time.as_secs_f64());
    j.num_field("setup_time_s", s.setup_time.as_secs_f64());
    j.num_field("prelude_reused", s.prelude_reused as f64);
    j.num_field("prelude_lowered", s.prelude_lowered as f64);
    j.num_field("restarts", s.restarts as f64);
    j.num_field("learned_kept", s.learned_kept as f64);
    j.num_field("learned_deleted", s.learned_deleted as f64);
    j.num_field("max_lbd", s.max_lbd as f64);
    j.num_field("pivots", s.pivots as f64);
    j.num_field("unsat_cores", s.unsat_cores as f64);
    j.num_field("unsat_core_size", s.unsat_core_size as f64);
    j.end_object();
}

/// The per-phase wall-clock breakdown advertised by the observability layer.
/// `overhead_s` is everything the six instrumented phases do not cover
/// (scope and session management, scheduling) — clamped at zero because
/// cached VCs have wall time without solver time.
fn phases_json(j: &mut Json, s: &SolverStats, wall: Duration) {
    let lower = s.lower_time.as_secs_f64();
    let cnf = s.cnf_time.as_secs_f64();
    let setup = s.setup_time.as_secs_f64();
    let sat = s.sat_time.as_secs_f64();
    let euf = s.euf_time.as_secs_f64();
    let simplex = s.simplex_time.as_secs_f64();
    let overhead = (wall.as_secs_f64() - lower - cnf - setup - sat - euf - simplex).max(0.0);
    j.begin_object();
    j.num_field("lower_s", lower);
    j.num_field("cnf_s", cnf);
    j.num_field("setup_s", setup);
    j.num_field("sat_s", sat);
    j.num_field("euf_s", euf);
    j.num_field("simplex_s", simplex);
    j.num_field("overhead_s", overhead);
    j.end_object();
}

/// Histogram summaries for `--json` per-VC rows: count/sum/max plus the p50
/// and p90 log-bucket upper bounds, per non-empty metric.
fn hists_json(j: &mut Json, hists: &ids_obs::HistogramSet) {
    j.begin_object();
    for metric in ids_obs::Metric::ALL {
        let h = hists.get(metric);
        if h.is_empty() {
            continue;
        }
        j.key(metric.name());
        j.begin_object();
        j.num_field("count", h.count() as f64);
        j.num_field("sum", h.sum() as f64);
        j.num_field("max", h.max() as f64);
        j.num_field("p50", h.quantile(0.5) as f64);
        j.num_field("p90", h.quantile(0.9) as f64);
        j.end_object();
    }
    j.end_object();
}

fn verdict_str(v: VcVerdict) -> &'static str {
    match v {
        VcVerdict::Valid => "valid",
        VcVerdict::Refuted => "refuted",
        VcVerdict::Unknown => "unknown",
    }
}

fn to_json(batch: &BatchReport, config: &DriverConfig, command: &str) -> String {
    // The process's totals so far, read before the JSON itself allocates.
    let alloc = ids_obs::alloc::stats();
    let mut j = Json::new();
    j.begin_object();
    j.str_field("command", command);
    j.num_field("jobs", config.jobs as f64);
    j.str_field("pool_mode", config.pool_mode.as_str());
    j.str_field("solver_profile", config.solver_profile.as_str());
    j.key("rows");
    j.begin_array();
    for r in &batch.reports {
        j.begin_object();
        j.str_field("structure", &r.structure);
        j.str_field("method", &r.method);
        j.bool_field("verified", r.outcome.is_verified());
        if let ids_vcgen::VerifyOutcome::Refuted { failed } = &r.outcome {
            j.str_field("failed_vc", failed);
        }
        j.num_field("vcs", r.num_vcs as f64);
        j.num_field("cached_vcs", r.cached_vcs as f64);
        j.num_field("time_s", r.duration.as_secs_f64());
        j.num_field("loc", r.loc as f64);
        j.num_field("spec", r.spec as f64);
        j.num_field("annotations", r.annotations as f64);
        j.num_field("lc_size", r.lc_size as f64);
        j.key("solver");
        solver_json(&mut j, &r.solver);
        j.key("phases");
        phases_json(&mut j, &r.solver, r.duration);
        j.key("vc_reports");
        j.begin_array();
        for vc in &r.vc_reports {
            j.begin_object();
            j.num_field("index", vc.vc_index as f64);
            j.hex_field("key", vc.vc_key);
            j.str_field("description", &vc.description);
            j.str_field("verdict", verdict_str(vc.verdict));
            j.bool_field("cached", vc.cached);
            j.num_field("queue_ms", vc.queue_time.as_secs_f64() * 1e3);
            j.num_field("solve_ms", vc.wall_time.as_secs_f64() * 1e3);
            j.num_field("unsat_cores", vc.solver.unsat_cores as f64);
            j.num_field("unsat_core_size", vc.solver.unsat_core_size as f64);
            if let Some(core) = &vc.core {
                j.key("core");
                j.begin_array();
                for &t in core {
                    j.num_value(t as f64);
                }
                j.end_array();
            }
            j.key("phases");
            phases_json(&mut j, &vc.solver, vc.wall_time);
            if !vc.hists.is_empty() {
                j.key("hists");
                hists_json(&mut j, &vc.hists);
            }
            j.end_object();
        }
        j.end_array();
        j.end_object();
    }
    j.end_array();
    j.key("errors");
    j.begin_array();
    for e in &batch.errors {
        j.begin_object();
        j.str_field("structure", &e.structure);
        j.str_field("method", &e.method);
        j.str_field("message", &e.message);
        j.end_object();
    }
    j.end_array();
    j.key("stats");
    j.begin_object();
    j.num_field("methods", batch.stats.methods as f64);
    j.num_field("vcs", batch.stats.vcs as f64);
    j.num_field("cache_hits", batch.stats.cache_hits as f64);
    j.num_field("smt_queries", batch.stats.smt_queries as f64);
    j.num_field("skipped_vcs", batch.stats.skipped_vcs as f64);
    j.num_field("cancellations", batch.stats.cancellations as f64);
    j.num_field("wall_s", batch.stats.wall.as_secs_f64());
    j.num_field("allocations", alloc.allocations as f64);
    j.num_field("alloc_bytes", alloc.bytes as f64);
    j.num_field("peak_live_bytes", alloc.peak_live_bytes as f64);
    j.key("solver");
    solver_json(&mut j, &batch.stats.solver);
    j.key("phases");
    phases_json(&mut j, &batch.stats.solver, batch.stats.wall);
    j.end_object();
    j.end_object();
    j.finish()
}
