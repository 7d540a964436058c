//! The measured corpora, the hand-written verdict oracle and the seeded
//! method order.
//!
//! Nothing here is derived from the verifier: the expected outcomes are
//! written down by hand, and the coverage check compares them against the
//! registry so that a method added to `ids-structures` cannot go unmeasured
//! without a decision recorded here.

use ids_core::pipeline::MethodReport;
use ids_driver::Selection;
use ids_structures::{all_benchmarks, buggy, lists, Benchmark};
use ids_vcgen::VerifyOutcome;

/// A benchmark workload. Both verify under the decidable encoding, whose
/// solver counts repeat exactly for a fixed method order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Empty cache: the body of Table 2.
    Table2Cold,
    /// Every VC already cached: a re-verification.
    Table2Warm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Table2Cold, Workload::Table2Warm];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Cold => "table2-cold",
            Workload::Table2Warm => "table2-warm",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The expected outcome of one method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Every VC is valid.
    Verified,
    /// Refuted, first at VC `vc` (0-based), whose description starts with
    /// `<method>::<label>`.
    Refuted { vc: usize, label: &'static str },
}

/// Name under which the refutation fixtures are verified: the SLL
/// definition merged with `buggy::BUGGY_LIST_METHODS`.
pub const FIXTURES: &str = "Singly-Linked List (buggy)";

/// Hand-written outcome of every measured method: (structure, method,
/// expected outcome). The registry methods are all Verified; the fixtures
/// are Refuted at a named VC.
pub const ORACLE: &[(&str, &str, Expect)] = &[
    ("Singly-Linked List", "insert_front", Expect::Verified),
    ("Singly-Linked List", "insert_back", Expect::Verified),
    ("Singly-Linked List", "find", Expect::Verified),
    ("Singly-Linked List", "append_node", Expect::Verified),
    ("Singly-Linked List", "set_key", Expect::Verified),
    ("Singly-Linked List", "delete_front", Expect::Verified),
    ("Sorted List", "sorted_find", Expect::Verified),
    ("Sorted List (w. min, max)", "concatenate", Expect::Verified),
    ("Sorted List (w. min, max)", "find_last", Expect::Verified),
    ("Circular List", "rotate_entry", Expect::Verified),
    ("Circular List", "set_node_key", Expect::Verified),
    ("Binary Search Tree", "bst_find", Expect::Verified),
    ("Binary Search Tree", "bst_find_min", Expect::Verified),
    ("Binary Search Tree", "bst_right_rotate", Expect::Verified),
    ("Treap", "treap_find", Expect::Verified),
    ("Treap", "treap_raise_root_priority", Expect::Verified),
    ("AVL Tree", "avl_find_min", Expect::Verified),
    ("AVL Tree", "avl_find", Expect::Verified),
    ("Red-Black Tree", "rb_find", Expect::Verified),
    ("Red-Black Tree", "rb_find_min", Expect::Verified),
    ("Red-Black Tree", "rb_blacken_root", Expect::Verified),
    ("BST+Scaffolding", "scaffolding_of", Expect::Verified),
    (
        "Scheduler Queue (overlaid SLL+BST)",
        "peek_request",
        Expect::Verified,
    ),
    (
        "Scheduler Queue (overlaid SLL+BST)",
        "update_single_request",
        Expect::Verified,
    ),
    (
        FIXTURES,
        "insert_front_forgets_length",
        Expect::Refuted {
            vc: 1,
            label: "assert",
        },
    ),
    (
        FIXTURES,
        "leaves_broken_set_nonempty",
        Expect::Refuted {
            vc: 0,
            label: "ensures#1",
        },
    ),
    (
        FIXTURES,
        "wrong_keys_postcondition",
        Expect::Refuted {
            vc: 3,
            label: "ensures#2",
        },
    ),
];

/// A method left out of some workloads, and why.
pub struct Exclusion {
    pub structure: &'static str,
    pub method: &'static str,
    pub from: &'static [Workload],
    pub reason: &'static str,
}

/// Every exclusion. A registry method that is neither in [`ORACLE`] nor
/// excluded from every workload fails [`check_coverage`].
pub const EXCLUSIONS: &[Exclusion] = &[
    Exclusion {
        structure: "Sorted List",
        method: "sorted_insert",
        from: &Workload::ALL,
        reason: "has never returned a verdict (no finish in 1200 s), so it has no oracle entry",
    },
    Exclusion {
        structure: "Singly-Linked List",
        method: "insert_back",
        from: &[Workload::Table2Cold],
        reason: "276 s cold (212 s of it in EUF); it would multiply every check's cost",
    },
    Exclusion {
        structure: "Binary Search Tree",
        method: "bst_right_rotate",
        from: &[Workload::Table2Cold],
        reason: "50 s cold; it would multiply every check's cost",
    },
];

/// The hand-written expectation for `method`, if it has one.
pub fn expected(method: &str) -> Option<Expect> {
    ORACLE
        .iter()
        .find(|(_, m, _)| *m == method)
        .map(|&(_, _, e)| e)
}

fn excluded(workload: Workload, structure: &str, method: &str) -> bool {
    EXCLUSIONS
        .iter()
        .any(|x| x.structure == structure && x.method == method && x.from.contains(&workload))
}

/// Checks the oracle against the registry: every registry method has an
/// expectation or is excluded from every workload with a reason, every
/// oracle entry names a real method, and method names are unique (reports
/// are matched by method name).
pub fn check_coverage(registry: &[Benchmark]) -> Result<(), String> {
    let fixtures = fixture_benchmark();
    let known = |structure: &str, method: &str| {
        registry
            .iter()
            .chain(std::iter::once(&fixtures))
            .any(|b| b.name == structure && b.methods.iter().any(|m| m == method))
    };
    for b in registry {
        for m in &b.methods {
            let in_oracle = ORACLE.iter().any(|(s, om, _)| *s == b.name && om == m);
            let everywhere_excluded = Workload::ALL.iter().all(|&w| excluded(w, b.name, m));
            if !in_oracle && !everywhere_excluded {
                return Err(format!(
                    "registry method {}::{} is in no corpus: add it to the oracle or exclude it with a reason",
                    b.name, m
                ));
            }
        }
    }
    for (s, m, _) in ORACLE {
        if !known(s, m) {
            return Err(format!("oracle entry {s}::{m} names no registry method"));
        }
        if ORACLE.iter().filter(|(_, om, _)| om == m).count() != 1 {
            return Err(format!("method name {m} appears twice in the oracle"));
        }
    }
    for x in EXCLUSIONS {
        if !known(x.structure, x.method) {
            return Err(format!(
                "exclusion {}::{} names no registry method",
                x.structure, x.method
            ));
        }
    }
    Ok(())
}

fn fixture_benchmark() -> Benchmark {
    let methods = ids_ivl::parse_program(buggy::BUGGY_LIST_METHODS)
        .expect("fixture methods parse")
        .procedures
        .into_iter()
        .filter(|p| p.body.is_some())
        .map(|p| p.name)
        .collect();
    Benchmark {
        name: FIXTURES,
        definition: lists::singly_linked_list(),
        methods_src: buggy::BUGGY_LIST_METHODS,
        methods,
    }
}

/// The structures of one workload, owning their definitions, with each
/// structure's methods filtered to the corpus and put in seeded order.
pub struct Corpus {
    pub benches: Vec<Benchmark>,
}

impl Corpus {
    /// Builds the workload's corpus. Seed 0 keeps registry order; any other
    /// seed permutes the methods within each structure.
    pub fn build(workload: Workload, seed: u64) -> Corpus {
        let mut benches = all_benchmarks();
        if workload != Workload::Table2Warm {
            benches.push(fixture_benchmark());
        }
        let mut rng = SplitMix64(seed);
        for b in &mut benches {
            let name = b.name;
            b.methods
                .retain(|m| expected(m).is_some() && !excluded(workload, name, m));
            if seed != 0 {
                shuffle(&mut b.methods, &mut rng);
            }
        }
        benches.retain(|b| !b.methods.is_empty());
        Corpus { benches }
    }

    /// The `ids_driver` selections over this corpus.
    pub fn selections(&self) -> Vec<Selection<'_>> {
        self.benches.iter().map(Selection::from_benchmark).collect()
    }

    /// Number of methods.
    pub fn methods(&self) -> usize {
        self.benches.iter().map(|b| b.methods.len()).sum()
    }
}

/// Counts the reports that break the oracle, plus every corpus method with
/// no report at all (a load or prepare error). Returns the failures with a
/// reason each.
pub fn check_reports(corpus: &Corpus, reports: &[MethodReport]) -> Vec<String> {
    let mut failures = Vec::new();
    for m in corpus.benches.iter().flat_map(|b| &b.methods) {
        let expect = expected(m).expect("corpus methods all have an oracle entry");
        let Some(report) = reports.iter().find(|r| &r.method == m) else {
            failures.push(format!("{m}: no verdict (pipeline error)"));
            continue;
        };
        if let Err(why) = outcome_matches(m, expect, report) {
            failures.push(format!("{m}: {why}"));
        }
    }
    failures
}

fn outcome_matches(method: &str, expect: Expect, report: &MethodReport) -> Result<(), String> {
    match (expect, &report.outcome) {
        (Expect::Verified, VerifyOutcome::Verified { .. }) => Ok(()),
        (Expect::Refuted { vc, label }, VerifyOutcome::Refuted { failed }) => {
            let prefix = format!("{method}::{label}");
            let refuted_at = report
                .vc_reports
                .iter()
                .find(|r| r.verdict == ids_core::pipeline::VcVerdict::Refuted)
                .map(|r| r.vc_index);
            if refuted_at == Some(vc) && failed.starts_with(&prefix) {
                Ok(())
            } else {
                Err(format!(
                    "expected refutation at VC {vc} ({prefix}), got VC {refuted_at:?} ({failed})"
                ))
            }
        }
        (expect, got) => Err(format!("expected {expect:?}, got {got:?}")),
    }
}

/// SplitMix64: a tiny, well-mixed generator, so the order a seed gives is
/// fixed by this file and not by a library version.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_covers_the_registry() {
        check_coverage(&all_benchmarks()).unwrap();
    }

    #[test]
    fn coverage_check_catches_an_unmeasured_method() {
        let mut registry = all_benchmarks();
        registry[0].methods.push("brand_new_method".into());
        let err = check_coverage(&registry).unwrap_err();
        assert!(err.contains("brand_new_method"), "{err}");
    }

    #[test]
    fn corpora_have_the_documented_sizes() {
        let names = |w: Workload| -> Vec<String> {
            let c = Corpus::build(w, 0);
            c.benches.iter().flat_map(|b| b.methods.clone()).collect()
        };
        let cold = names(Workload::Table2Cold);
        let warm = names(Workload::Table2Warm);
        assert_eq!((cold.len(), warm.len()), (25, 24));
        for m in ["sorted_insert", "insert_back", "bst_right_rotate"] {
            assert!(!cold.iter().any(|c| c == m), "{m} in table2-cold");
        }
        assert!(warm.iter().any(|c| c == "insert_back"));
        assert!(!warm.iter().any(|c| c == "sorted_insert"));
        assert!(!warm.iter().any(|c| c.contains("forgets")));
    }

    #[test]
    fn fixtures_are_refuted_and_registry_methods_verified() {
        for (s, m, e) in ORACLE {
            assert_eq!(
                *s == FIXTURES,
                matches!(e, Expect::Refuted { .. }),
                "{s}::{m}"
            );
        }
    }

    #[test]
    fn seed_permutes_within_structures_only() {
        let base = Corpus::build(Workload::Table2Cold, 0);
        let a = Corpus::build(Workload::Table2Cold, 7);
        let b = Corpus::build(Workload::Table2Cold, 7);
        let mut moved = false;
        for ((x, y), z) in base.benches.iter().zip(&a.benches).zip(&b.benches) {
            assert_eq!(x.name, y.name);
            assert_eq!(y.methods, z.methods, "same seed, same order");
            let mut sorted_x = x.methods.clone();
            let mut sorted_y = y.methods.clone();
            sorted_x.sort();
            sorted_y.sort();
            assert_eq!(sorted_x, sorted_y);
            moved |= x.methods != y.methods;
        }
        assert!(moved, "seed 7 left every structure in registry order");
    }
}
