//! Integration tests of the run ledger: schema round-trip, concurrent
//! appends under the lockfile discipline, the `compare` regression gate
//! (including the phase-attribution golden test), and `history` rendering.

use std::path::Path;

use ids_driver::ledger::{
    append_run, compare, history_lines, load_runs, CompareOpts, RunMeta, RunRecord, VcLedgerEntry,
    LEDGER_SCHEMA, PHASES, SOLVER_COUNTERS,
};
use ids_obs::{HistogramSet, Metric};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ids-ledger-test-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sample_meta(timestamp: u64) -> RunMeta {
    RunMeta {
        timestamp,
        hostname: "test-host".to_string(),
        command: "suite --quick".to_string(),
        pool_mode: "structure".to_string(),
        profile: "default".to_string(),
        jobs: 4,
        encoding: "decidable".to_string(),
        fingerprint: "deadbeefcafe0123".to_string(),
        wall_s: 1.5,
    }
}

/// A synthetic VC entry. Times are picked to survive the ledger's ms/s
/// rounding so round-trip comparisons can use exact equality.
fn sample_vc(key: u128, solve_ms: f64, euf_s: f64) -> VcLedgerEntry {
    let mut hists = HistogramSet::default();
    for v in [3, 90, 1500, 70_000] {
        hists.record(Metric::TheoryRoundUs, v);
    }
    hists.record(Metric::PivotsPerRound, 12);
    VcLedgerEntry {
        key,
        structure: "Singly-Linked List".to_string(),
        method: "insert_back".to_string(),
        vc_index: key as u64 % 7,
        description: format!("ensures#{} with \"quotes\" and \\ backslash", key),
        verdict: "valid".to_string(),
        cached: false,
        queue_ms: 0.25,
        solve_ms,
        phases: [0.001, 0.0625, euf_s, 0.03125, 0.015625],
        solver: [9, 8, 7, 6, 5, 40, 3, 2, 1, 11],
        core: None,
        hists,
    }
}

fn sample_record(timestamp: u64, solve_ms: f64, euf_s: f64) -> RunRecord {
    RunRecord {
        schema: LEDGER_SCHEMA,
        meta: sample_meta(timestamp),
        vcs: (0..3)
            .map(|i| sample_vc(0x1000 + i as u128, solve_ms, euf_s))
            .collect(),
    }
}

#[test]
fn schema_round_trips_exactly() {
    let mut record = sample_record(1_700_000_000, 250.5, 0.125);
    // One VC with a recorded unsat core (empty cores are legal too) so the
    // optional field round-trips alongside core-less entries.
    record.vcs[1].core = Some(vec![0, 4, 7]);
    record.vcs[2].core = Some(vec![]);
    let line = record.to_json_line();
    assert!(!line.contains('\n'), "a record must be a single JSONL line");
    let parsed = RunRecord::parse(&line).expect("parse own output");
    assert_eq!(parsed, record, "write -> parse must be the identity");
    // Field spot-checks so a silently-permissive PartialEq can't hide a bug.
    assert_eq!(parsed.schema, LEDGER_SCHEMA);
    assert_eq!(parsed.meta.hostname, "test-host");
    assert_eq!(parsed.vcs.len(), 3);
    let vc = &parsed.vcs[0];
    assert_eq!(vc.key, 0x1000);
    assert_eq!(vc.phases.len(), PHASES.len());
    assert_eq!(vc.solver.len(), SOLVER_COUNTERS.len());
    let h = vc.hists.get(Metric::TheoryRoundUs);
    assert_eq!(h.count(), 4);
    assert_eq!(h.max(), 70_000);
    assert!(vc.hists.get(Metric::ConflictGapUs).is_empty());
    assert_eq!(vc.core, None);
    assert_eq!(parsed.vcs[1].core.as_deref(), Some(&[0, 4, 7][..]));
    assert_eq!(parsed.vcs[2].core.as_deref(), Some(&[][..]));
}

/// Schema-1 lines (pre unsat-core counters) and schema-2 lines (pre per-VC
/// cores) must keep parsing so the CI baseline and local history ledgers
/// written before the v3 bump stay comparable; the fields they lack read
/// back as zero / `None`.
#[test]
fn older_schema_lines_still_parse_with_zeroed_new_fields() {
    let record = sample_record(7, 50.0, 0.01);
    let idx = |name: &str| SOLVER_COUNTERS.iter().position(|&c| c == name).unwrap();

    let schema = format!("\"schema\":{}", LEDGER_SCHEMA);

    // Rewrite the line into its v2 form: old schema tag, no cores.
    let v2 = record.to_json_line().replacen(&schema, "\"schema\":2", 1);
    assert!(!v2.contains("\"core\""), "v2 line built incorrectly");
    let parsed = RunRecord::parse(&v2).expect("v2 line parses");
    assert_eq!(parsed.schema, 2);
    for vc in &parsed.vcs {
        assert_eq!(vc.core, None);
        assert_eq!(vc.solver, record.vcs[0].solver);
    }

    // The v1 form additionally lacks the unsat-core counters.
    let v1 = record
        .to_json_line()
        .replacen(&schema, "\"schema\":1", 1)
        .replace(",\"unsat_cores\":1,\"unsat_core_size\":11", "");
    assert!(!v1.contains("core"), "v1 line built incorrectly");
    let parsed = RunRecord::parse(&v1).expect("v1 line parses");
    assert_eq!(parsed.schema, 1);
    for vc in &parsed.vcs {
        assert_eq!(vc.solver[idx("unsat_cores")], 0);
        assert_eq!(vc.solver[idx("unsat_core_size")], 0);
        assert_eq!(vc.core, None);
        assert_eq!(&vc.solver[..8], &record.vcs[0].solver[..8]);
    }

    // A future schema is still foreign and must be rejected.
    let future = record.to_json_line().replacen(
        &format!("\"schema\":{}", LEDGER_SCHEMA),
        "\"schema\":99",
        1,
    );
    assert!(RunRecord::parse(&future).is_err());
}

/// v3 lines written while hypothesis slicing existed carry three more solver
/// counters and, with metrics armed, a `slice_dropped_hyps` histogram. They
/// must still parse: counters and histograms are read by name, so the
/// retired fields are skipped and every remaining one reads as written.
#[test]
fn v3_lines_with_slice_counters_still_parse() {
    let mut record = sample_record(9, 40.0, 0.02);
    record.vcs[1].core = Some(vec![1, 2]);
    let line = record.to_json_line();
    const LAST_COUNTER: &str = ",\"unsat_core_size\":11";
    const SLICE_COUNTERS: &str = ",\"slice_hits\":2,\"slice_fallbacks\":1,\"slice_dropped_hyps\":6";
    const HISTS: &str = "\"hists\":{";
    const SLICE_HIST: &str = "\"slice_dropped_hyps\":{\"count\":2,\"sum\":9,\"max\":6,\
                              \"p50\":3,\"p90\":6,\"buckets\":[0,1,1]},";
    assert_eq!(line.matches(LAST_COUNTER).count(), record.vcs.len());
    assert_eq!(line.matches(HISTS).count(), record.vcs.len());
    let old = line
        .replace(LAST_COUNTER, &format!("{LAST_COUNTER}{SLICE_COUNTERS}"))
        .replace(HISTS, &format!("{HISTS}{SLICE_HIST}"));
    assert_eq!(
        old.matches("\"slice_dropped_hyps\"").count(),
        2 * record.vcs.len()
    );
    let parsed = RunRecord::parse(&old).expect("a v3 line with slice fields parses");
    assert_eq!(parsed.schema, 3);
    assert_eq!(parsed, record, "every remaining field reads as written");
    // Spot-checks, so a silently-permissive PartialEq can't hide a bug.
    assert_eq!(parsed.vcs[0].solver, [9, 8, 7, 6, 5, 40, 3, 2, 1, 11]);
    assert_eq!(parsed.vcs[0].hists.get(Metric::TheoryRoundUs).count(), 4);
    assert!(!SOLVER_COUNTERS.iter().any(|c| c.starts_with("slice_")));
    assert_eq!(Metric::from_name("slice_dropped_hyps"), None);
}

/// Lines written while the driver still had a fresh-solver pool mode and a
/// legacy heuristics profile carry `"pool_mode":"none"` and
/// `"profile":"legacy"` in their metadata. They must still parse, and
/// `compare` and `history` must accept them next to a line of the one
/// configuration left (`structure`, `default`).
#[test]
fn v3_lines_of_retired_pool_modes_and_profiles_still_parse() {
    let current = sample_record(11, 80.0, 0.02);
    let mut retired = sample_record(10, 90.0, 0.02);
    retired.meta.pool_mode = "none".to_string();
    retired.meta.profile = "legacy".to_string();
    let line = retired.to_json_line();
    assert!(line.contains("\"pool_mode\":\"none\""), "{line}");
    assert!(line.contains("\"profile\":\"legacy\""), "{line}");
    let parsed = RunRecord::parse(&line).expect("a line of a retired configuration parses");
    assert_eq!(parsed.schema, 3);
    assert_eq!(parsed, retired);

    let opts = CompareOpts::default();
    let report = compare(&parsed, &current, &opts);
    assert_eq!(report.deltas.len(), current.vcs.len());
    assert_eq!(report.verdict_mismatches, 0);
    assert!(report.only_base.is_empty() && report.only_new.is_empty());
    assert!(!report.failed(&opts));

    let dir = temp_dir("retired");
    let path = dir.join("ledger.jsonl");
    std::fs::write(&path, format!("{line}\n")).expect("write");
    append_run(&path, &current).expect("append");
    let runs = load_runs(&path).expect("load");
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0], retired);
    let lines = history_lines(&runs, None);
    assert_eq!(lines.len(), current.vcs.len());
    assert!(
        lines.iter().all(|l| l.contains("90.0 -> 80.0")),
        "{lines:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_rejects_garbage_and_load_skips_it() {
    assert!(RunRecord::parse("not json").is_err());
    assert!(RunRecord::parse("{}").is_err());
    assert!(RunRecord::parse("[1,2]").is_err());

    // A ledger with one malformed line still yields the good runs.
    let dir = temp_dir("skip");
    let path = dir.join("ledger.jsonl");
    let record = sample_record(1, 10.0, 0.001);
    append_run(&path, &record).expect("append");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        writeln!(f, "{{\"schema\":1,\"truncated\":").expect("write");
    }
    append_run(&path, &record).expect("append");
    let runs = load_runs(&path).expect("load");
    assert_eq!(runs.len(), 2, "malformed middle line must be skipped");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_appends_all_survive() {
    let dir = temp_dir("concurrent");
    let path = dir.join("ledger.jsonl");
    const WRITERS: usize = 8;
    const APPENDS: usize = 5;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let path: &Path = &path;
            s.spawn(move || {
                for i in 0..APPENDS {
                    let record = sample_record((w * APPENDS + i) as u64, 10.0, 0.001);
                    append_run(path, &record).expect("append");
                }
            });
        }
    });
    let runs = load_runs(&path).expect("load");
    assert_eq!(
        runs.len(),
        WRITERS * APPENDS,
        "every concurrent append must yield one intact line"
    );
    let mut stamps: Vec<u64> = runs.iter().map(|r| r.meta.timestamp).collect();
    stamps.sort_unstable();
    stamps.dedup();
    assert_eq!(stamps.len(), WRITERS * APPENDS, "no line torn or lost");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The golden test of the regression gate: inject a synthetic slowdown whose
/// extra time sits in the EUF phase, and require compare() to flag the
/// regression, attribute it to "euf", and fail the run.
#[test]
fn compare_detects_injected_euf_slowdown() {
    let base = sample_record(1, 200.0, 0.05);
    // +400 ms solve time, +0.4 s of it in euf, pivots 40 -> 200 (5x).
    let mut new = sample_record(2, 600.0, 0.45);
    for vc in &mut new.vcs {
        let pivots_idx = SOLVER_COUNTERS.iter().position(|&c| c == "pivots").unwrap();
        vc.solver[pivots_idx] = 200;
    }
    let opts = CompareOpts::default();
    let report = compare(&base, &new, &opts);
    assert_eq!(report.deltas.len(), 3);
    assert_eq!(report.regressions, 3);
    assert_eq!(report.improvements, 0);
    assert_eq!(report.verdict_mismatches, 0);
    for d in &report.deltas {
        assert!(d.regressed, "every VC slowed 3x past both thresholds");
        assert_eq!(
            d.attributed_phase.as_deref(),
            Some("euf"),
            "the slowdown was injected into euf, attribution must say so: {}",
            d.attribution
        );
        assert!(
            d.attribution.contains("euf +"),
            "attribution text names the phase: {}",
            d.attribution
        );
        assert!(
            d.attribution.contains("pivots 5.0x"),
            "notable pivot swing is surfaced: {}",
            d.attribution
        );
    }
    assert!(report.failed(&opts), "a regression must exit nonzero");
    // The same deltas in advisory mode report but do not fail.
    let advisory = CompareOpts {
        advisory_timing: true,
        ..CompareOpts::default()
    };
    assert!(!report.failed(&advisory));
    // The reverse comparison is an improvement, not a regression.
    let reverse = compare(&new, &base, &opts);
    assert_eq!(reverse.regressions, 0);
    assert_eq!(reverse.improvements, 3);
    assert!(!reverse.failed(&opts));
}

#[test]
fn compare_noise_gate_and_verdict_changes() {
    let base = sample_record(1, 100.0, 0.01);
    // +20 ms is past neither the 25% nor the 50 ms default gate... barely
    // past one of them alone must also not count.
    let small = sample_record(2, 120.0, 0.02);
    let opts = CompareOpts::default();
    assert_eq!(compare(&base, &small, &opts).regressions, 0);
    // +60 ms: past the 50 ms absolute gate but only when also past 25%.
    let only_abs = sample_record(3, 160.0, 0.06);
    assert_eq!(compare(&base, &only_abs, &opts).regressions, 3);
    let tight = CompareOpts {
        threshold_pct: 75.0,
        ..CompareOpts::default()
    };
    assert_eq!(
        compare(&base, &only_abs, &tight).regressions,
        0,
        "60% delta must not pass a 75% gate"
    );

    // Cached rows join for verdicts but never for timing.
    let mut cached = sample_record(4, 9_000.0, 0.01);
    for vc in &mut cached.vcs {
        vc.cached = true;
    }
    let report = compare(&base, &cached, &opts);
    assert_eq!(report.regressions, 0);
    assert_eq!(report.deltas.len(), 3);

    // A verdict change always fails, even in advisory mode.
    let mut flipped = sample_record(5, 100.0, 0.01);
    flipped.vcs[0].verdict = "refuted".to_string();
    let advisory = CompareOpts {
        advisory_timing: true,
        ..CompareOpts::default()
    };
    let report = compare(&base, &flipped, &advisory);
    assert_eq!(report.verdict_mismatches, 1);
    assert!(report.failed(&advisory));

    // Disjoint keys land in only_base / only_new, not in the join.
    let mut moved = sample_record(6, 100.0, 0.01);
    for vc in &mut moved.vcs {
        vc.key += 0x9999;
    }
    let report = compare(&base, &moved, &opts);
    assert!(report.deltas.is_empty());
    assert_eq!(report.only_base.len(), 3);
    assert_eq!(report.only_new.len(), 3);
}

#[test]
fn compare_reports_search_identity_on_rows_solved_on_both_sides() {
    let base = sample_record(1, 100.0, 0.01);
    let opts = CompareOpts::default();
    let same = compare(&base, &sample_record(2, 180.0, 0.05), &opts);
    assert_eq!((same.solved_both, same.search_changed.len()), (3, 0));
    assert!(same.deltas.iter().all(|d| !d.search_changed));

    // One more decision, and another core: two searches changed.
    let mut moved = sample_record(3, 100.0, 0.01);
    moved.vcs[0].solver[2] += 1;
    moved.vcs[2].core = Some(vec![1]);
    let report = compare(&base, &moved, &opts);
    assert_eq!(report.solved_both, 3);
    let mut changed = report.search_changed.clone();
    changed.sort();
    let mut expected = vec![label(&moved.vcs[0]), label(&moved.vcs[2])];
    expected.sort();
    assert_eq!(changed, expected);
    assert!(!report.failed(&opts), "a changed search alone never fails");

    // A row answered from cache (or deduplicated) on either side is not
    // compared, whatever its counters.
    let mut cached = moved.clone();
    cached.vcs[0].cached = true;
    let report = compare(&base, &cached, &opts);
    assert_eq!(report.solved_both, 2);
    assert_eq!(report.search_changed, vec![label(&moved.vcs[2])]);
}

/// A run lists a VC once per occurrence: a key solved by one method and met
/// again later in the same batch is answered from the first row (an
/// in-batch dedup hit, `cached`). The solving row is the one compared, and
/// the one `history` shows, wherever the dedup hit sits.
#[test]
fn compare_and_history_use_the_row_that_solved_a_key() {
    let with_dedup_hit = |timestamp, solve_ms| {
        let mut run = sample_record(timestamp, solve_ms, 0.01);
        let mut hit = run.vcs[0].clone();
        hit.method = "find".to_string();
        hit.cached = true;
        hit.solve_ms = 0.0;
        run.vcs.push(hit);
        run
    };
    let base = with_dedup_hit(1, 100.0);
    let opts = CompareOpts::default();
    let same = compare(&base, &with_dedup_hit(2, 100.0), &opts);
    assert_eq!(same.deltas.len(), 3, "one row per key");
    assert_eq!((same.solved_both, same.search_changed.len()), (3, 0));

    // A changed counter on the solving row is a changed search.
    let mut moved = with_dedup_hit(3, 100.0);
    moved.vcs[0].solver[0] += 1;
    let report = compare(&base, &moved, &opts);
    assert_eq!(report.solved_both, 3);
    assert_eq!(report.search_changed, vec![label(&moved.vcs[0])]);

    // A key answered only from cache still joins, through a cached row.
    let mut warm = with_dedup_hit(4, 100.0);
    warm.vcs[0].cached = true;
    let report = compare(&base, &warm, &opts);
    assert_eq!((report.deltas.len(), report.solved_both), (3, 2));

    let lines = history_lines(&[base, moved], Some("ensures#4096"));
    assert_eq!(
        lines,
        [format!("{}: 100.0 -> 100.0 ms", label(&warm.vcs[0]))]
    );
}

fn label(vc: &VcLedgerEntry) -> String {
    format!("{}/{}/{}", vc.structure, vc.method, vc.description)
}

/// Regression test: a baseline row with `solve_ms == 0` (a fully cached run,
/// or a ledger predating per-VC timing) makes the percentage gate vacuous —
/// every nonzero warm time is infinitely many percent over zero. Such rows
/// must be excluded from timing classification (no regression, no
/// improvement, no phase attribution) while still joining for verdicts.
#[test]
fn compare_skips_timing_on_zero_ms_baseline_rows() {
    let mut base = sample_record(1, 0.0, 0.0);
    for vc in &mut base.vcs {
        vc.phases = [0.0; 5];
    }
    let new = sample_record(2, 500.0, 0.4);
    let opts = CompareOpts::default();
    let report = compare(&base, &new, &opts);
    assert_eq!(report.deltas.len(), 3, "zero-ms rows still join");
    assert_eq!(report.regressions, 0, "no percent gate against a 0 ms base");
    assert_eq!(report.improvements, 0);
    for d in &report.deltas {
        assert!(!d.regressed && !d.improved);
        assert_eq!(
            d.attributed_phase, None,
            "an all-zero baseline row must not be attributed to a phase"
        );
        assert!(d.attribution.is_empty(), "attribution: {}", d.attribution);
    }
    assert!(!report.failed(&opts));
    // The mirror image — new run instant, baseline timed — is classified
    // normally: the percent gate divides by the *baseline*, which is sound.
    let reverse = compare(&new, &base, &opts);
    assert_eq!(reverse.regressions, 0);
    assert_eq!(reverse.improvements, 3);
    // Verdict changes on zero-ms rows still fail the gate.
    let mut flipped = sample_record(3, 500.0, 0.4);
    flipped.vcs[0].verdict = "refuted".to_string();
    let report = compare(&base, &flipped, &opts);
    assert_eq!(report.verdict_mismatches, 1);
    assert!(report.failed(&opts));
}

#[test]
fn history_renders_trajectories() {
    let dir = temp_dir("history");
    let path = dir.join("ledger.jsonl");
    append_run(&path, &sample_record(1, 100.0, 0.01)).expect("append");
    let mut second = sample_record(2, 150.0, 0.01);
    second.vcs[0].cached = true;
    second.vcs.remove(2); // VC 0x1002 missing from run 2
    append_run(&path, &second).expect("append");
    let runs = load_runs(&path).expect("load");
    let lines = history_lines(&runs, None);
    assert_eq!(lines.len(), 3);
    let line0 = lines.iter().find(|l| l.contains("ensures#4096")).unwrap();
    assert!(
        line0.contains("100.0 -> cached"),
        "cached runs render as 'cached': {}",
        line0
    );
    let line2 = lines.iter().find(|l| l.contains("ensures#4098")).unwrap();
    assert!(
        line2.contains("100.0 -> -"),
        "missing VCs render as '-': {}",
        line2
    );
    let filtered = history_lines(&runs, Some("INSERT_BACK"));
    assert_eq!(filtered.len(), 3, "filter is case-insensitive");
    assert!(history_lines(&runs, Some("no-such-method")).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
