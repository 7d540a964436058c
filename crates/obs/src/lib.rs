//! `ids-obs` — zero-dependency tracing and metrics for the verification
//! pipeline.
//!
//! The subsystem has three moving parts, all behind process-global toggles so
//! that instrumentation sites never thread a handle through the solver stack
//! (solver configurations are `Copy` and cross thread boundaries freely):
//!
//! * **Spans** — RAII timers ([`span`], [`SpanGuard`], [`SegmentedSpan`])
//!   that record `Begin`/`End` events into a per-thread buffer while a trace
//!   is active, and maintain a thread-local *span stack* (the "current phase"
//!   reported by heartbeats). Buffers are registered globally and merged at
//!   [`trace_stop`]; the hot path takes exactly one uncontended lock on the
//!   emitting thread's own buffer.
//! * **Chrome-trace export** — [`chrome_trace_json`] renders the collected
//!   [`Lane`]s as Chrome `trace_event` JSON (one lane per thread) that opens
//!   directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * **Heartbeats** — a registered [`RunObserver`] is invoked from inside the
//!   SAT search and simplex loops every [`heartbeat_interval`] conflicts (and
//!   at every restart), carrying live counters plus the innermost span name,
//!   so long-running VCs are diagnosable mid-flight.
//! * **Metrics** — mergeable log-bucketed [`Histogram`]s (restart-segment
//!   duration, theory-round duration, pivots per round, conflict
//!   inter-arrival) recorded per VC via [`record_metric`], plus a per-thread
//!   *flight recorder*: a ring buffer of recent [`Heartbeat`] snapshots that
//!   [`stuck_dossiers`] turns into a diagnosable dossier when a VC exceeds a
//!   watchdog deadline (or the run is interrupted). Armed separately from
//!   tracing via [`set_metrics`].
//!
//! **Overhead contract**: with tracing off, no observer installed, and
//! metrics disarmed, every entry point reduces to one relaxed atomic load and
//! an immediate return — no allocation, no locks, no clock reads.
//! Instrumented code must not change behavior either way; the driver's parity
//! tests pin byte-identical verdicts with the observer enabled vs disabled.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- global state

/// Event buffering on/off (flipped by [`trace_start`]/[`trace_stop`]).
static TRACING: AtomicBool = AtomicBool::new(false);
/// Fast-path gate: true iff tracing is on *or* an observer is installed.
/// Every instrumentation entry point loads this (relaxed) and bails early.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Heartbeat cadence in SAT conflicts (0 = heartbeats off).
static HEARTBEAT_CONFLICTS: AtomicU64 = AtomicU64::new(0);
/// Per-VC metrics (histograms + flight recorder) on/off; the single relaxed
/// load on every [`record_metric`] disarmed fast path.
static METRICS: AtomicBool = AtomicBool::new(false);
/// Every thread that ever recorded a metric registers its flight recorder
/// here so watchdogs on other threads can inspect in-flight VCs.
static RECORDERS: Mutex<Vec<Arc<Mutex<Recorder>>>> = Mutex::new(Vec::new());
/// The installed progress observer, if any.
static OBSERVER: RwLock<Option<Arc<dyn RunObserver>>> = RwLock::new(None);
/// Process-wide clock epoch; all event timestamps are microseconds since it.
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every thread that ever emitted registers its buffer here; [`trace_stop`]
/// drains them all. The `Arc` keeps buffers alive past worker-thread exit.
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());
/// Monotone lane allocator (Chrome `tid`), one lane per OS thread.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

struct ThreadBuf {
    lane: u64,
    label: String,
    events: Vec<Event>,
}

thread_local! {
    static BUF: Arc<Mutex<ThreadBuf>> = register_thread();
    static SPANS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static TASK: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn register_thread() -> Arc<Mutex<ThreadBuf>> {
    let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    let buf = Arc::new(Mutex::new(ThreadBuf {
        lane,
        label: format!("thread-{lane}"),
        events: Vec::new(),
    }));
    REGISTRY
        .lock()
        .expect("obs registry")
        .push(Arc::clone(&buf));
    buf
}

fn refresh_active() {
    let observing = OBSERVER.read().map(|o| o.is_some()).unwrap_or(false);
    ACTIVE.store(
        TRACING.load(Ordering::Relaxed) || observing || METRICS.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn push_event(event: Event) {
    // `try_with` so a drop racing thread-local teardown degrades to a lost
    // event instead of a panic.
    let _ = BUF.try_with(|buf| buf.lock().expect("obs thread buffer").events.push(event));
}

/// True while instrumentation must do *any* work (tracing on, or an observer
/// installed). This is the single relaxed load on the disabled fast path.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// True while events are being buffered for trace export.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

// --------------------------------------------------------------------- events

/// The Chrome `trace_event` phase of an [`Event`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A span opened (`ph: "B"`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One buffered trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Span or marker name (a phase like `"sat"`, `"euf"`, `"vc"`).
    pub name: &'static str,
    /// Optional free-form payload rendered into the event's `args`.
    pub detail: Option<String>,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
}

/// All events of one thread, in emission order (timestamps are monotone
/// within a lane).
#[derive(Clone, Debug)]
pub struct Lane {
    /// Chrome `tid` of this lane (unique per thread).
    pub lane: u64,
    /// Human-readable lane name (set via [`set_thread_label`]).
    pub label: String,
    /// The buffered events.
    pub events: Vec<Event>,
}

// ---------------------------------------------------------------------- spans

/// RAII span: records a `Begin` event now and the matching `End` on drop, and
/// keeps the span name on the thread's phase stack in between. Construction
/// snapshots the toggles, so a span stays balanced even if tracing is flipped
/// while it is open.
pub struct SpanGuard {
    name: &'static str,
    pushed: bool,
    buffered: bool,
    end_detail: Option<String>,
}

impl SpanGuard {
    fn open(name: &'static str, detail: Option<String>) -> SpanGuard {
        let pushed = active();
        if pushed {
            let _ = SPANS.try_with(|s| s.borrow_mut().push(name));
        }
        let buffered = tracing();
        if buffered {
            push_event(Event {
                name,
                detail,
                kind: EventKind::Begin,
                ts_us: now_us(),
            });
        }
        SpanGuard {
            name,
            pushed,
            buffered,
            end_detail: None,
        }
    }

    /// Attaches a lazily-built payload to the span's `End` event (e.g. a
    /// pivot count only known when the phase finishes). The closure only runs
    /// while tracing is buffering events.
    pub fn note(&mut self, detail: impl FnOnce() -> String) {
        if self.buffered {
            self.end_detail = Some(detail());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.buffered {
            push_event(Event {
                name: self.name,
                detail: self.end_detail.take(),
                kind: EventKind::End,
                ts_us: now_us(),
            });
        }
        if self.pushed {
            let _ = SPANS.try_with(|s| s.borrow_mut().pop());
        }
    }
}

/// Opens a span named `name`; the span closes when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::open(name, None)
}

/// Like [`span`], with a lazily-built `Begin` payload (only evaluated while
/// tracing is buffering events).
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    let detail = if tracing() { Some(detail()) } else { None };
    SpanGuard::open(name, detail)
}

/// A span that is closed and immediately reopened at interior *segment*
/// boundaries — the SAT search uses one per solve call, restarting the
/// segment at every restart so the trace shows search effort per restart.
/// The drop guarantee of the inner [`SpanGuard`] keeps `Begin`/`End` pairs
/// matched on every exit path.
pub struct SegmentedSpan {
    name: &'static str,
    inner: Option<SpanGuard>,
}

impl SegmentedSpan {
    /// Opens the first segment.
    pub fn new(name: &'static str) -> SegmentedSpan {
        SegmentedSpan {
            name,
            inner: Some(SpanGuard::open(name, None)),
        }
    }

    /// Ends the current segment and begins the next one, labelled by
    /// `detail` (only evaluated while tracing is buffering events).
    pub fn restart(&mut self, detail: impl FnOnce() -> String) {
        // Drop first so the End of the old segment precedes the new Begin.
        self.inner = None;
        self.inner = Some(SpanGuard::open(
            self.name,
            if tracing() { Some(detail()) } else { None },
        ));
    }
}

/// Records a point-in-time marker event.
pub fn instant(name: &'static str) {
    if tracing() {
        push_event(Event {
            name,
            detail: None,
            kind: EventKind::Instant,
            ts_us: now_us(),
        });
    }
}

/// Like [`instant`], with a lazily-built payload (only evaluated while
/// tracing is buffering events).
pub fn instant_with(name: &'static str, detail: impl FnOnce() -> String) {
    if tracing() {
        push_event(Event {
            name,
            detail: Some(detail()),
            kind: EventKind::Instant,
            ts_us: now_us(),
        });
    }
}

// ------------------------------------------------------------- task / threads

/// Labels the current thread's lane in trace exports (e.g. `"worker-3"`).
pub fn set_thread_label(label: String) {
    let _ = BUF.try_with(|buf| buf.lock().expect("obs thread buffer").label = label);
}

/// Sets the task label (typically a VC description) heartbeats from this
/// thread report. No-op unless instrumentation is [`active`].
pub fn set_task(task: Option<String>) {
    if active() {
        let _ = TASK.try_with(|t| *t.borrow_mut() = task);
    }
}

// ----------------------------------------------------------------- heartbeats

/// Live progress counters delivered to a [`RunObserver`]. Counter fields are
/// cumulative over the emitting solver's lifetime (a warm pooled solver keeps
/// counting across the VCs it discharges); each emission site fills the
/// counters it knows and leaves the rest 0.
#[derive(Clone, Debug, Default)]
pub struct Heartbeat {
    /// The task (VC) the emitting thread is working on, if labelled.
    pub task: Option<String>,
    /// Innermost open span name on the emitting thread (`""` if none).
    pub phase: &'static str,
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// SAT unit propagations.
    pub propagations: u64,
    /// SAT restarts.
    pub restarts: u64,
    /// Live learned clauses in the SAT core.
    pub learned: u64,
    /// DPLL(T) theory rounds of the current check.
    pub theory_rounds: u64,
    /// Simplex pivots.
    pub pivots: u64,
}

/// A progress observer. The default implementation ignores everything, so
/// implementors override only what they consume; observers must be cheap and
/// non-blocking — they run inside solver hot loops.
pub trait RunObserver: Send + Sync {
    /// Called from solver loops every [`heartbeat_interval`] conflicts, at
    /// every restart, and once per theory round.
    fn heartbeat(&self, _hb: &Heartbeat) {}
}

/// Installs (or, with `None`, removes) the process-wide observer.
pub fn set_observer(observer: Option<Arc<dyn RunObserver>>) {
    *OBSERVER.write().expect("obs observer") = observer;
    refresh_active();
}

/// Sets the heartbeat cadence in SAT conflicts (0 disables heartbeats).
pub fn set_heartbeat_conflicts(every: u64) {
    HEARTBEAT_CONFLICTS.store(every, Ordering::Relaxed);
}

/// The heartbeat cadence in SAT conflicts (0 = off). Emission sites gate on
/// this before building a [`Heartbeat`].
pub fn heartbeat_interval() -> u64 {
    HEARTBEAT_CONFLICTS.load(Ordering::Relaxed)
}

/// Delivers a heartbeat to the installed observer (and, when metrics are
/// armed, to this thread's flight-recorder ring), filling in the emitting
/// thread's task label and current phase. No-op without an observer or armed
/// metrics.
pub fn emit_heartbeat(mut hb: Heartbeat) {
    let recording = metrics_active();
    let observer = {
        let guard = OBSERVER.read().expect("obs observer");
        guard.clone()
    };
    if observer.is_none() && !recording {
        return;
    }
    hb.task = TASK
        .try_with(|t| t.borrow().clone())
        .ok()
        .flatten()
        .or(hb.task);
    hb.phase = SPANS
        .try_with(|s| s.borrow().last().copied())
        .ok()
        .flatten()
        .unwrap_or(hb.phase);
    if recording {
        let ts = now_us();
        let _ = RECORDER.try_with(|r| {
            let mut rec = r.lock().expect("obs recorder");
            if rec.task.is_some() {
                if rec.ring.len() == RING_CAP {
                    rec.ring.pop_front();
                }
                rec.ring.push_back((ts, hb.clone()));
            }
        });
    }
    if let Some(observer) = observer {
        observer.heartbeat(&hb);
    }
}

// ------------------------------------------------------- histograms & metrics

/// The per-VC solver-dynamics metrics collected into [`Histogram`]s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Wall time of one SAT restart segment, in microseconds.
    RestartSegmentUs = 0,
    /// Wall time of one DPLL(T) theory round, in microseconds: the theory
    /// work that produced one verdict for the SAT core (in the online loop,
    /// the fixpoint sync that found a conflict, or one final check).
    TheoryRoundUs = 1,
    /// Simplex pivots performed in one theory round.
    PivotsPerRound = 2,
    /// Wall time between consecutive SAT conflicts, in microseconds.
    ConflictGapUs = 3,
    /// Literals asserted plus retracted by the persistent theory session in
    /// one propagation-fixpoint sync that changed its state (the online
    /// loop samples once per such fixpoint; a rebuild would count every
    /// literal).
    TheoryDeltaLits = 4,
}

/// Number of [`Metric`] kinds (the arity of a [`HistogramSet`]).
pub const METRIC_COUNT: usize = 5;

impl Metric {
    /// All metric kinds, in `HistogramSet` storage order.
    pub const ALL: [Metric; METRIC_COUNT] = [
        Metric::RestartSegmentUs,
        Metric::TheoryRoundUs,
        Metric::PivotsPerRound,
        Metric::ConflictGapUs,
        Metric::TheoryDeltaLits,
    ];

    /// Stable snake_case name used in JSON/ledger output.
    pub fn name(self) -> &'static str {
        match self {
            Metric::RestartSegmentUs => "restart_segment_us",
            Metric::TheoryRoundUs => "theory_round_us",
            Metric::PivotsPerRound => "pivots_per_round",
            Metric::ConflictGapUs => "conflict_gap_us",
            Metric::TheoryDeltaLits => "theory_delta_lits",
        }
    }

    /// Parses a [`Metric::name`] back to the metric (for ledger readers).
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Number of log2 buckets per histogram; bucket `i` counts values whose
/// `floor(log2(v))` is `i` (values `0` and `1` both land in bucket 0), with
/// everything at or beyond `2^31` clamped into the last bucket.
pub const HIST_BUCKETS: usize = 32;

/// A mergeable log-bucketed histogram over `u64` samples.
///
/// Buckets are powers of two, which keeps `record` allocation-free and makes
/// merging across VCs, methods, and runs a plain vector add — the property
/// the run ledger needs to aggregate per-VC dynamics into per-run summaries
/// without keeping raw samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        let idx = 63 - (v | 1).leading_zeros() as usize;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`); returns 0 for an empty histogram. Resolution is
    /// the bucket width (one octave), which is plenty for phase attribution.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// The raw bucket counts (log2 buckets, see [`HIST_BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Rebuilds a histogram from previously-exported parts (ledger readers).
    /// `buckets` longer than [`HIST_BUCKETS`] is truncated, shorter is
    /// zero-extended; `count`/`sum`/`max` are trusted as recorded.
    pub fn from_parts(buckets: &[u64], count: u64, sum: u64, max: u64) -> Histogram {
        let mut h = Histogram {
            count,
            sum,
            max,
            ..Histogram::default()
        };
        for (dst, src) in h.buckets.iter_mut().zip(buckets.iter()) {
            *dst = *src;
        }
        h
    }
}

/// Inclusive upper bound of log2 bucket `i` (`2^(i+1) - 1`).
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// One [`Histogram`] per [`Metric`]; the unit of per-VC metric collection and
/// of merging up the report tree (VC → method → run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSet {
    hists: [Histogram; METRIC_COUNT],
}

impl HistogramSet {
    /// Records one sample for `metric`.
    pub fn record(&mut self, metric: Metric, v: u64) {
        self.hists[metric as usize].record(v);
    }

    /// Folds another set into this one, metric by metric.
    pub fn merge(&mut self, other: &HistogramSet) {
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
    }

    /// The histogram for `metric`.
    pub fn get(&self, metric: Metric) -> &Histogram {
        &self.hists[metric as usize]
    }

    /// Mutable access for `metric` (ledger readers reassembling a set).
    pub fn get_mut(&mut self, metric: Metric) -> &mut Histogram {
        &mut self.hists[metric as usize]
    }

    /// True when every histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(Histogram::is_empty)
    }
}

/// How many heartbeat snapshots the per-thread flight recorder retains.
pub const RING_CAP: usize = 64;

/// Per-thread flight-recorder state: which VC this thread is solving, since
/// when, the trailing [`Heartbeat`] ring, and the VC's histograms.
struct Recorder {
    label: String,
    task: Option<String>,
    started_us: u64,
    ring: VecDeque<(u64, Heartbeat)>,
    hists: HistogramSet,
    dumped: bool,
}

thread_local! {
    static RECORDER: Arc<Mutex<Recorder>> = register_recorder();
}

fn register_recorder() -> Arc<Mutex<Recorder>> {
    let label = BUF
        .try_with(|b| b.lock().expect("obs thread buffer").label.clone())
        .unwrap_or_else(|_| "thread-?".to_string());
    let rec = Arc::new(Mutex::new(Recorder {
        label,
        task: None,
        started_us: 0,
        ring: VecDeque::with_capacity(RING_CAP),
        hists: HistogramSet::default(),
        dumped: false,
    }));
    RECORDERS
        .lock()
        .expect("obs recorders")
        .push(Arc::clone(&rec));
    rec
}

/// Arms (or disarms) per-VC metrics: histogram recording and the heartbeat
/// flight recorder. Disarmed, [`record_metric`] is one relaxed load.
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
    refresh_active();
}

/// True while per-VC metrics are being collected. This is the single relaxed
/// load on the disarmed [`record_metric`] fast path.
pub fn metrics_active() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Records one metric sample against the VC currently open on this thread.
/// No-op (one relaxed load) while metrics are disarmed.
pub fn record_metric(metric: Metric, v: u64) {
    if !metrics_active() {
        return;
    }
    let _ = RECORDER.try_with(|r| r.lock().expect("obs recorder").hists.record(metric, v));
}

/// Marks the start of a VC on this thread: resets this thread's flight
/// recorder (ring, histograms, dump latch) and stamps the task label and
/// start time the watchdog ages against. No-op while metrics are disarmed.
pub fn vc_begin(task: &str) {
    if !metrics_active() {
        return;
    }
    let ts = now_us();
    let label = BUF
        .try_with(|b| b.lock().expect("obs thread buffer").label.clone())
        .unwrap_or_else(|_| "thread-?".to_string());
    let _ = RECORDER.try_with(|r| {
        let mut rec = r.lock().expect("obs recorder");
        rec.label = label;
        rec.task = Some(task.to_string());
        rec.started_us = ts;
        rec.ring.clear();
        rec.hists = HistogramSet::default();
        rec.dumped = false;
    });
}

/// Closes the VC opened by [`vc_begin`] on this thread and returns its
/// collected histograms (empty while metrics are disarmed).
pub fn vc_take() -> HistogramSet {
    if !metrics_active() {
        return HistogramSet::default();
    }
    RECORDER
        .try_with(|r| {
            let mut rec = r.lock().expect("obs recorder");
            rec.task = None;
            rec.ring.clear();
            std::mem::take(&mut rec.hists)
        })
        .unwrap_or_default()
}

// ------------------------------------------------------------------- dossiers

/// A snapshot of one in-flight VC assembled from its thread's flight
/// recorder: what is running, for how long, its recent heartbeat trail, and
/// its histograms so far. Produced by [`stuck_dossiers`] / [`flight_dossiers`]
/// and rendered with [`render_dossier`].
#[derive(Clone, Debug)]
pub struct Dossier {
    /// Lane label of the thread solving the VC (e.g. `"worker-3"`).
    pub thread: String,
    /// The VC's task label (description).
    pub task: String,
    /// Seconds the VC has been in flight when the snapshot was taken.
    pub age_s: f64,
    /// Trailing heartbeat snapshots, oldest first: `(age-in-VC seconds, hb)`.
    pub trail: Vec<(f64, Heartbeat)>,
    /// Histograms collected for the VC so far.
    pub hists: HistogramSet,
}

fn snapshot_recorder(rec: &mut Recorder, now: u64) -> Dossier {
    let started = rec.started_us;
    Dossier {
        thread: rec.label.clone(),
        task: rec.task.clone().unwrap_or_default(),
        age_s: (now.saturating_sub(started)) as f64 / 1e6,
        trail: rec
            .ring
            .iter()
            .map(|(ts, hb)| ((ts.saturating_sub(started)) as f64 / 1e6, hb.clone()))
            .collect(),
        hists: rec.hists.clone(),
    }
}

/// Returns a dossier for every in-flight VC older than `min_age` whose
/// dossier has not been dumped yet, latching each so a polling watchdog
/// reports a stuck VC exactly once. Safe to call from any thread.
pub fn stuck_dossiers(min_age: Duration) -> Vec<Dossier> {
    let now = now_us();
    let min_us = min_age.as_micros() as u64;
    let mut out = Vec::new();
    for rec in RECORDERS.lock().expect("obs recorders").iter() {
        let mut rec = rec.lock().expect("obs recorder");
        if rec.task.is_none() || rec.dumped || now.saturating_sub(rec.started_us) < min_us {
            continue;
        }
        rec.dumped = true;
        out.push(snapshot_recorder(&mut rec, now));
    }
    out
}

/// Returns a dossier for every VC currently in flight, regardless of age or
/// the stuck latch — the interrupt/panic path, where whatever is running is
/// exactly what the user wants evidence about.
pub fn flight_dossiers() -> Vec<Dossier> {
    let now = now_us();
    let mut out = Vec::new();
    for rec in RECORDERS.lock().expect("obs recorders").iter() {
        let mut rec = rec.lock().expect("obs recorder");
        if rec.task.is_none() {
            continue;
        }
        out.push(snapshot_recorder(&mut rec, now));
    }
    out
}

/// Renders a dossier as a human-readable text block (the `[dossier]` stderr
/// artifact the `--vc-timeout` watchdog and Ctrl-C handler emit).
pub fn render_dossier(d: &Dossier) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[dossier] stuck VC: {} ({}, in flight {:.1}s)",
        d.task, d.thread, d.age_s
    );
    let phase = d
        .trail
        .last()
        .map(|(_, hb)| hb.phase)
        .filter(|p| !p.is_empty())
        .unwrap_or("unknown");
    let _ = writeln!(out, "[dossier]   current phase: {phase}");
    let tail_from = d.trail.len().saturating_sub(8);
    let _ = writeln!(
        out,
        "[dossier]   heartbeat trail (last {} of {}):",
        d.trail.len() - tail_from,
        d.trail.len()
    );
    for (age, hb) in &d.trail[tail_from..] {
        let _ = writeln!(
            out,
            "[dossier]     +{age:8.1}s {phase:<8} conflicts={} decisions={} \
             propagations={} restarts={} learned={} rounds={} pivots={}",
            hb.conflicts,
            hb.decisions,
            hb.propagations,
            hb.restarts,
            hb.learned,
            hb.theory_rounds,
            hb.pivots,
            phase = hb.phase,
        );
    }
    for metric in Metric::ALL {
        let h = d.hists.get(metric);
        if h.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "[dossier]   hist {:<20} count={} p50<={} p90<={} max={}",
            metric.name(),
            h.count(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.max()
        );
    }
    out
}

// -------------------------------------------------------------- trace control

/// Starts buffering trace events (clearing any previous buffers).
pub fn trace_start() {
    EPOCH.get_or_init(Instant::now);
    for buf in REGISTRY.lock().expect("obs registry").iter() {
        buf.lock().expect("obs thread buffer").events.clear();
    }
    TRACING.store(true, Ordering::Relaxed);
    refresh_active();
}

/// Stops buffering and returns every lane that recorded at least one event.
pub fn trace_stop() -> Vec<Lane> {
    TRACING.store(false, Ordering::Relaxed);
    refresh_active();
    let mut lanes: Vec<Lane> = REGISTRY
        .lock()
        .expect("obs registry")
        .iter()
        .filter_map(|buf| {
            let mut buf = buf.lock().expect("obs thread buffer");
            if buf.events.is_empty() {
                return None;
            }
            Some(Lane {
                lane: buf.lane,
                label: buf.label.clone(),
                events: std::mem::take(&mut buf.events),
            })
        })
        .collect();
    lanes.sort_by_key(|l| l.lane);
    lanes
}

/// Snapshots every lane's buffered events *without* draining them or
/// stopping the trace. The interrupt guard and the watchdog use this to keep
/// a loadable partial trace on disk while a run is still in flight (open
/// spans appear as unclosed `Begin` events, which Perfetto tolerates).
pub fn trace_snapshot() -> Vec<Lane> {
    let mut lanes: Vec<Lane> = REGISTRY
        .lock()
        .expect("obs registry")
        .iter()
        .filter_map(|buf| {
            let buf = buf.lock().expect("obs thread buffer");
            if buf.events.is_empty() {
                return None;
            }
            Some(Lane {
                lane: buf.lane,
                label: buf.label.clone(),
                events: buf.events.clone(),
            })
        })
        .collect();
    lanes.sort_by_key(|l| l.lane);
    lanes
}

// -------------------------------------------------------- Chrome-trace export

/// Renders lanes as Chrome `trace_event` JSON (the object form, with a
/// `traceEvents` array), loadable in `chrome://tracing` and Perfetto. Each
/// lane becomes one `tid` under `pid` 1, named via `thread_name` metadata.
pub fn chrome_trace_json(lanes: &[Lane]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    emit(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ids-verify\"}}"
            .to_string(),
        &mut first,
    );
    for lane in lanes {
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                lane.lane,
                escape_json(&lane.label)
            ),
            &mut first,
        );
        for event in &lane.events {
            let ph = match event.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Instant => "i",
            };
            let mut body = format!(
                "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\"",
                ph,
                lane.lane,
                event.ts_us,
                escape_json(event.name)
            );
            if event.kind == EventKind::Instant {
                body.push_str(",\"s\":\"t\"");
            }
            if let Some(detail) = &event.detail {
                body.push_str(",\"args\":{\"detail\":\"");
                body.push_str(&escape_json(detail));
                body.push_str("\"}");
            }
            body.push('}');
            emit(body, &mut first);
        }
    }
    out.push_str("]}");
    out
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Counting {
        calls: AtomicUsize,
        last_phase: Mutex<String>,
    }
    impl RunObserver for Counting {
        fn heartbeat(&self, hb: &Heartbeat) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            *self.last_phase.lock().unwrap() = hb.phase.to_string();
        }
    }

    /// One sequential test for everything touching the process-global
    /// toggles: `cargo test` runs tests concurrently within a binary, so
    /// splitting these up would race on `TRACING`/`OBSERVER`.
    #[test]
    fn global_lifecycle() {
        // Disabled fast path: nothing is recorded, nothing is active.
        assert!(!active() && !tracing());
        {
            let _s = span("dead");
            instant("dead_marker");
        }
        trace_start();
        assert!(tracing() && active());

        // Spans nest, segment, and carry details.
        set_thread_label("test-main".to_string());
        {
            let mut outer = span_with("vc", || "demo vc".to_string());
            {
                let mut seg = SegmentedSpan::new("sat");
                seg.restart(|| "restart 1".to_string());
            }
            instant_with("cache_hit", || "key=42".to_string());
            outer.note(|| "done".to_string());
        }

        let lanes = trace_stop();
        assert!(!tracing() && !active());
        let lane = lanes
            .iter()
            .find(|l| l.label == "test-main")
            .expect("this thread's lane");
        // The "dead" span from before trace_start must not appear.
        assert!(lanes
            .iter()
            .all(|l| l.events.iter().all(|e| !e.name.starts_with("dead"))));
        // Begin/End pairs are matched per lane and timestamps are monotone.
        let mut depth = 0i64;
        let mut last_ts = 0u64;
        for event in &lane.events {
            assert!(event.ts_us >= last_ts, "timestamps monotone");
            last_ts = event.ts_us;
            match event.kind {
                EventKind::Begin => depth += 1,
                EventKind::End => depth -= 1,
                EventKind::Instant => {}
            }
            assert!(depth >= 0, "End without Begin");
        }
        assert_eq!(depth, 0, "unclosed span");
        // The segmented span produced two "sat" Begin events.
        let sat_begins = lane
            .events
            .iter()
            .filter(|e| e.name == "sat" && e.kind == EventKind::Begin)
            .count();
        assert_eq!(sat_begins, 2);
        // The outer span's End event carries the note.
        assert!(lane
            .events
            .iter()
            .any(|e| e.kind == EventKind::End && e.detail.as_deref() == Some("done")));

        // JSON export is well-formed enough to spot-check.
        let json = chrome_trace_json(&lanes);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"test-main\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"s\":\"t\""));

        // Heartbeats reach the observer with the thread's phase and task.
        let observer = Arc::new(Counting {
            calls: AtomicUsize::new(0),
            last_phase: Mutex::new(String::new()),
        });
        set_observer(Some(Arc::clone(&observer) as Arc<dyn RunObserver>));
        assert!(active() && !tracing());
        set_task(Some("vc 3".to_string()));
        {
            let _s = span("simplex");
            emit_heartbeat(Heartbeat {
                pivots: 17,
                ..Heartbeat::default()
            });
        }
        assert_eq!(observer.calls.load(Ordering::Relaxed), 1);
        assert_eq!(&*observer.last_phase.lock().unwrap(), "simplex");
        set_observer(None);
        set_task(None);
        assert!(!active());
        // With no observer, emission is a no-op.
        emit_heartbeat(Heartbeat::default());
        assert_eq!(observer.calls.load(Ordering::Relaxed), 1);

        // Heartbeat cadence plumbing.
        assert_eq!(heartbeat_interval(), 0);
        set_heartbeat_conflicts(1024);
        assert_eq!(heartbeat_interval(), 1024);
        set_heartbeat_conflicts(0);

        // Metrics disarmed: recording and VC bracketing are no-ops.
        assert!(!metrics_active());
        record_metric(Metric::TheoryRoundUs, 10);
        vc_begin("dead vc");
        assert!(vc_take().is_empty());
        assert!(flight_dossiers().is_empty());

        // Metrics armed: histograms accumulate per VC, heartbeats land in
        // the flight-recorder ring, and dossiers surface in-flight VCs.
        set_metrics(true);
        assert!(metrics_active() && active());
        vc_begin("list/insert/ensures#0");
        record_metric(Metric::RestartSegmentUs, 700);
        record_metric(Metric::RestartSegmentUs, 1500);
        record_metric(Metric::PivotsPerRound, 9);
        emit_heartbeat(Heartbeat {
            conflicts: 42,
            ..Heartbeat::default()
        });
        let stuck = stuck_dossiers(Duration::from_secs(0));
        assert_eq!(stuck.len(), 1);
        let d = &stuck[0];
        assert_eq!(d.task, "list/insert/ensures#0");
        assert_eq!(d.trail.len(), 1);
        assert_eq!(d.trail[0].1.conflicts, 42);
        assert_eq!(d.hists.get(Metric::RestartSegmentUs).count(), 2);
        // The stuck latch reports each VC once; the flight view still sees it.
        assert!(stuck_dossiers(Duration::from_secs(0)).is_empty());
        assert_eq!(flight_dossiers().len(), 1);
        let rendered = render_dossier(d);
        assert!(rendered.contains("list/insert/ensures#0"));
        assert!(rendered.contains("restart_segment_us"));
        assert!(rendered.contains("conflicts=42"));
        // Nothing younger than a large min_age is stuck.
        vc_begin("list/insert/ensures#1");
        assert!(stuck_dossiers(Duration::from_secs(3600)).is_empty());
        let hists = vc_take();
        assert!(hists.is_empty(), "vc_begin resets per-VC histograms");
        assert!(flight_dossiers().is_empty(), "vc_take closes the VC");
        set_metrics(false);
        assert!(!active());
    }

    #[test]
    fn histogram_buckets_merge_and_quantiles() {
        // Bucketing: 0 and 1 share bucket 0; powers of two start new buckets.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);

        let mut h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        // Median sample (rank 3) is 3 → bucket [2,3], upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // Top quantiles are clamped to the observed max.
        assert_eq!(h.quantile(1.0), 1000);

        let mut other = Histogram::default();
        other.record(1 << 20);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1 << 20);

        // Round-trip through exported parts (the ledger path).
        let back = Histogram::from_parts(h.bucket_counts(), h.count(), h.sum(), h.max());
        assert_eq!(back, h);
    }

    #[test]
    fn histogram_set_merges_per_metric() {
        let mut a = HistogramSet::default();
        a.record(Metric::TheoryRoundUs, 50);
        let mut b = HistogramSet::default();
        b.record(Metric::TheoryRoundUs, 70);
        b.record(Metric::ConflictGapUs, 5);
        a.merge(&b);
        assert_eq!(a.get(Metric::TheoryRoundUs).count(), 2);
        assert_eq!(a.get(Metric::ConflictGapUs).count(), 1);
        assert!(a.get(Metric::RestartSegmentUs).is_empty());
        assert!(!a.is_empty());
        for metric in Metric::ALL {
            assert_eq!(Metric::from_name(metric.name()), Some(metric));
        }
        assert_eq!(Metric::from_name("nope"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("process_name"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
