//! The overlaid data structure that motivates §4.4 of the paper: the core of a
//! Linux-deadline-style I/O scheduler keeps every request simultaneously in a
//! FIFO list (dispatch order) and in a binary search tree (sector order),
//! sharing the same nodes.
//!
//! This example loads the benchmark suite's scheduler-queue definition (which
//! composes the list and BST intrinsic definitions and verifies with *two*
//! broken sets), checks its impact tables, and verifies its methods. It exits
//! 1 if an impact set is rejected or a method does not verify.
//!
//! Run with: `cargo run --example io_scheduler --release`

use intrinsic_verify::core::impact::check_impact_sets;
use intrinsic_verify::core::pipeline::{load_methods, ExpandedStructure, PipelineConfig};
use intrinsic_verify::structures::overlaid;
use intrinsic_verify::vcgen::Encoding;

fn main() {
    let ids = overlaid::scheduler_queue();
    println!("Overlaid scheduler queue (SLL + BST on shared nodes)");
    println!(
        "  ghost monadic maps : {}",
        ids.ghost_maps()
            .map(|f| f.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  local condition    : {} conjuncts across two broken sets",
        ids.lc_size()
    );

    println!("\n== impact-set correctness (list condition + tree condition) ==");
    let results = check_impact_sets(&ids, Encoding::Decidable);
    for r in &results {
        println!(
            "  {:<11} {:<10} {:>9}  ({:.2}s)",
            r.field,
            if r.secondary {
                "(tree LC)"
            } else {
                "(list LC)"
            },
            if r.is_correct() {
                "correct"
            } else {
                "REJECTED"
            },
            r.duration.as_secs_f64()
        );
    }

    println!("\n== method verification ==");
    // The definition's macros are expanded once for all methods; each
    // method then gets its own VCs, checked in order.
    let merged = load_methods(&ids, overlaid::SCHEDULER_QUEUE_METHODS).expect("methods load");
    let structure = ExpandedStructure::new(&ids, &merged);
    let reports: Vec<_> = merged
        .procedures
        .iter()
        .filter(|p| p.body.is_some())
        .map(|p| {
            let task = structure
                .prepare(&p.name, PipelineConfig::default())
                .expect("pipeline runs");
            task.report(&task.run_sequential())
        })
        .collect();
    for r in &reports {
        println!(
            "  {:<28} -> {:<10} ({} VCs, {:.2}s)",
            r.method,
            if r.outcome.is_verified() {
                "verified"
            } else {
                "NOT verified"
            },
            r.num_vcs,
            r.duration.as_secs_f64()
        );
    }
    let all_correct = results.iter().all(|r| r.is_correct());
    if !all_correct || !reports.iter().all(|r| r.outcome.is_verified()) {
        std::process::exit(1);
    }
}
