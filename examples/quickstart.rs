//! Quickstart: define a data structure *intrinsically*, annotate a method in
//! the fix-what-you-break style, and verify it — end to end in a few dozen
//! lines.
//!
//! Run with: `cargo run --example quickstart --release`

use intrinsic_verify::core::ids::IntrinsicDefinition;
use intrinsic_verify::core::impact::check_impact_sets;
use intrinsic_verify::core::pipeline::{verify_method, PipelineConfig};
use intrinsic_verify::vcgen::Encoding;

fn main() {
    // 1. An intrinsic definition of acyclic singly-linked lists:
    //    - ghost monadic maps: prev (inverse pointer), length (decreasing rank)
    //    - local condition LC(x): each node agrees with its one-hop neighbours
    //    - impact sets: which nodes can break when a field of x is mutated.
    let ids = IntrinsicDefinition::parse(
        "quickstart-list",
        r#"
        field next: Loc;
        field key: Int;
        field ghost prev: Loc;
        field ghost length: Int;
        "#,
        "(x.next != nil ==> x.next.prev == x && x.length == x.next.length + 1) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1) \
         && x.length >= 1",
        "y",
        "y.prev == nil",
        &[
            ("next", &["x", "old(x.next)"]),
            ("key", &["x"]),
            ("prev", &["x", "old(x.prev)"]),
            ("length", &["x", "x.prev"]),
        ],
    )
    .expect("definition builds");

    // 2. The declared impact sets are themselves proved correct (Appendix C).
    println!("== impact-set correctness ==");
    for r in check_impact_sets(&ids, Encoding::Decidable) {
        println!(
            "  field {:<8} {:>9}  ({:.2}s)",
            r.field,
            if r.is_correct() {
                "correct"
            } else {
                "REJECTED"
            },
            r.duration.as_secs_f64()
        );
    }

    // 3. A fix-what-you-break annotated method: push a new head onto the list.
    let methods = r#"
        procedure push(x: Loc, k: Int) returns (r: Loc)
          requires Br == {} && x != nil && x.prev == nil;
          ensures Br == {} && r != nil && r.prev == nil;
          ensures r.length == old(x.length) + 1;
          modifies {x};
        {
          InferLCOutsideBr(x);
          var z: Loc;
          NewObj(z);
          Mut(z, key, k);
          Mut(z, next, x);
          Mut(z, prev, nil);
          Mut(z, length, x.length + 1);
          Mut(x, prev, z);
          AssertLCAndRemove(z);
          AssertLCAndRemove(x);
          r := z;
        }

        // The same method, but the engineer forgot to repair the length map.
        procedure push_buggy(x: Loc, k: Int) returns (r: Loc)
          requires Br == {} && x != nil && x.prev == nil;
          ensures Br == {} && r != nil;
          modifies {x};
        {
          InferLCOutsideBr(x);
          var z: Loc;
          NewObj(z);
          Mut(z, key, k);
          Mut(z, next, x);
          Mut(z, prev, nil);
          Mut(x, prev, z);
          AssertLCAndRemove(z);
          AssertLCAndRemove(x);
          r := z;
        }
    "#;

    println!("\n== verification ==");
    for method in ["push", "push_buggy"] {
        let report =
            verify_method(&ids, methods, method, PipelineConfig::default()).expect("pipeline runs");
        println!(
            "  {:<12} -> {:<12} ({} VCs, {:.2}s)",
            method,
            if report.outcome.is_verified() {
                "verified"
            } else {
                "rejected"
            },
            report.num_vcs,
            report.duration.as_secs_f64()
        );
        assert_eq!(report.outcome.is_verified(), method == "push");
    }
    println!("\nThe broken variant is rejected exactly at the AssertLCAndRemove that the");
    println!("forgotten repair invalidates — predictably, with no solver hints needed.");
}
