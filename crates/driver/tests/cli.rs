//! The `ids-verify` command line: each command rejects the options it does
//! not read, and a run killed with SIGTERM still leaves its trace.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Duration;

use ids_driver::json::Value;

fn ids_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ids-verify"))
        .args(args)
        .output()
        .expect("ids-verify runs")
}

/// The run exits 2 with an error that names `option` and `command`.
fn assert_rejected(args: &[&str], command: &str, option: &str) {
    let out = ids_verify(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains(&format!("'{command}'")) && first.contains(option),
        "{args:?}: {first}"
    );
}

#[test]
fn suite_rejects_compare_options() {
    assert_rejected(
        &["suite", "--structure", "singly", "--threshold-pct", "5"],
        "suite",
        "--threshold-pct",
    );
}

#[test]
fn verify_rejects_compare_options() {
    assert_rejected(
        &["verify", "methods.ivl", "--advisory-timing"],
        "verify",
        "--advisory-timing",
    );
}

#[test]
fn impact_rejects_json() {
    assert_rejected(
        &["impact", "--structure", "singly", "--json"],
        "impact",
        "--json",
    );
}

#[test]
fn compare_rejects_cache() {
    assert_rejected(
        &["compare", "a.jsonl", "b.jsonl", "--cache", "x"],
        "compare",
        "--cache",
    );
}

#[test]
fn history_rejects_run_options() {
    assert_rejected(
        &["history", "ledger.jsonl", "--jobs", "8", "--quantified"],
        "history",
        "--jobs",
    );
}

#[cfg(unix)]
#[test]
fn sigterm_flushes_the_partial_trace() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-sigterm");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let _ = std::fs::remove_file(&trace);
    // sorted_insert takes seconds, so the run is still solving when killed.
    let child = Command::new(env!("CARGO_BIN_EXE_ids-verify"))
        .args([
            "suite",
            "--structure",
            "sorted list",
            "--method",
            "sorted_insert",
        ])
        .args(["--jobs", "1", "--no-ledger", "--trace"])
        .arg(&trace)
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("ids-verify starts");
    std::thread::sleep(Duration::from_millis(500));
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let out = child.wait_with_output().expect("ids-verify ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(143), "{stderr}");
    assert!(stderr.contains("partial timeline flushed"), "{stderr}");
    let json = std::fs::read_to_string(&trace).expect("the trace is written");
    let parsed = Value::parse(&json).expect("the trace parses");
    assert!(parsed.get("traceEvents").is_some(), "{json}");
}
