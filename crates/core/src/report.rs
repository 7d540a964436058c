//! Table-2-shaped reporting of verification results.

use std::fmt::Write as _;

use crate::pipeline::MethodReport;

/// Formats reports as an aligned text table in the layout of the paper's
/// Table 2 (data structure, LC size, method, LOC+Spec+Ann, verification
/// time).
pub fn format_table(reports: &[MethodReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>3}  {:<22} {:>4} {:>5} {:>4}  {:>9}  {:>4}  Status",
        "Data Structure", "LC", "Method", "LOC", "Spec", "Ann", "Time(s)", "VCs"
    );
    let _ = writeln!(out, "{}", "-".repeat(100));
    for r in reports {
        let _ = writeln!(
            out,
            "{:<28} {:>3}  {:<22} {:>4} {:>5} {:>4}  {:>9.3}  {:>4}  {}",
            r.structure,
            r.lc_size,
            r.method,
            r.loc,
            r.spec,
            r.annotations,
            r.duration.as_secs_f64(),
            r.num_vcs,
            if r.outcome.is_verified() {
                "verified"
            } else {
                "FAILED"
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn report(structure: &str, method: &str, verified: bool) -> MethodReport {
        MethodReport {
            structure: structure.into(),
            method: method.into(),
            outcome: if verified {
                ids_vcgen::VerifyOutcome::Verified { vcs: 7 }
            } else {
                ids_vcgen::VerifyOutcome::Refuted {
                    failed: "ensures#0".into(),
                }
            },
            num_vcs: 7,
            duration: Duration::from_millis(1234),
            loc: 4,
            spec: 11,
            annotations: 10,
            lc_size: 8,
            wellbehaved_violations: Vec::new(),
            ghost_violations: Vec::new(),
            solver: Default::default(),
            cached_vcs: 0,
            vc_reports: Vec::new(),
        }
    }

    #[test]
    fn table_formatting_contains_rows() {
        let reports = vec![
            report("Singly-Linked List", "Append", true),
            report("Sorted List", "Insert", false),
        ];
        let text = format_table(&reports);
        let rows: Vec<&str> = text.lines().skip(2).collect();
        assert_eq!(rows.len(), 2, "{}", text);
        assert!(rows[0].starts_with("Singly-Linked List"), "{}", rows[0]);
        assert!(rows[0].contains("Append"), "{}", rows[0]);
        assert!(rows[0].contains("1.234"), "{}", rows[0]);
        assert!(rows[0].ends_with("verified"), "{}", rows[0]);
        assert!(rows[1].ends_with("FAILED"), "{}", rows[1]);
    }
}
