//! Fix-what-you-break, observed at runtime.
//!
//! The static pipeline proves once and for all that a method repairs every
//! location it breaks. This example shows the same discipline on a *concrete*
//! heap using the `ids-heap` substrate: we execute an insert-front by hand,
//! watch the set of broken objects grow after each mutation, repair the ghost
//! maps, and watch it shrink back to empty — and then corrupt the structure
//! and see the local conditions flag exactly the damaged region.
//!
//! Run with: `cargo run --example runtime_checking --release`

use std::collections::BTreeMap;

use intrinsic_verify::core::ids::IntrinsicDefinition;
use intrinsic_verify::heap::{broken_objects, build_list, Heap, Type, Value};
use intrinsic_verify::ivl::Expr;

/// The quickstart list definition: `next`/`key` user fields, `prev`/`length`
/// ghost maps. (`ids-heap::build_list` builds heaps over exactly these
/// fields.)
fn list_definition() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "runtime-list",
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
    .expect("definition builds")
}

fn print_broken(step: &str, heap: &Heap, lc: &Expr) {
    let broken = broken_objects(heap, lc);
    println!("{:<44} broken set = {:?}", step, broken);
}

fn main() {
    let ids = list_definition();
    // The local condition over its free variable `x`, the shape the runtime
    // checker evaluates per object.
    let lc = ids.local_condition.clone();

    // A well-formed three-element list [10, 20, 30].
    let (mut heap, head) = build_list(&[10, 20, 30]);
    let head = head.expect("non-empty list");
    println!("initial heap: {} objects, head = {}", heap.len(), head);
    print_broken("initial well-formed list", &heap, &lc);

    // ----------------------------------------------------------------- insert
    // Insert a new node carrying key 5 in front of `head`, exactly like the
    // verified `insert_front` benchmark method, tracking breakage as we go.
    let fields: &[(&str, Type)] = &[
        ("next", Type::Loc),
        ("key", Type::Int),
        ("prev", Type::Loc),
        ("length", Type::Int),
    ];
    let z = heap.alloc(fields);
    print_broken("after NewObj(z)", &heap, &lc);

    heap.set(z, "key", Value::Int(5));
    heap.set(z, "next", Value::Loc(Some(head)));
    print_broken("after z.key, z.next mutations", &heap, &lc);

    // Repair the ghost maps of z, then fix the old head's prev pointer.
    let head_len = heap.get(head, "length").as_int();
    heap.set(z, "length", Value::Int(head_len + 1));
    heap.set(z, "prev", Value::Loc(None));
    print_broken("after repairing z's ghost maps", &heap, &lc);

    heap.set(head, "prev", Value::Loc(Some(z)));
    print_broken("after repairing old head's prev", &heap, &lc);

    let broken = broken_objects(&heap, &lc);
    assert!(
        broken.is_empty(),
        "the repaired heap must satisfy LC everywhere, broken = {:?}",
        broken
    );
    println!("insert-front complete: every object satisfies LC again.\n");

    // ------------------------------------------------------------ corruption
    // Now damage the structure: make the last node point back to the head,
    // forming a cycle. The local conditions catch it immediately, and they
    // catch it *locally*: only the nodes adjacent to the damage are flagged.
    let mut last = z;
    while let Some(n) = heap.get(last, "next").as_loc() {
        last = n;
    }
    heap.set(last, "next", Value::Loc(Some(z)));
    let broken = broken_objects(&heap, &lc);
    print_broken("after corrupting the last node's next", &heap, &lc);
    assert!(!broken.is_empty(), "the cycle must be detected");

    // The evaluator can also answer ad-hoc queries about single objects.
    let mut env = BTreeMap::new();
    env.insert("x".to_string(), Value::Loc(Some(z)));
    println!(
        "\nthe head still satisfies LC locally: {}",
        intrinsic_verify::heap::eval_expr(&heap, &env, &lc).as_bool()
    );
    println!("runtime checking demo finished.");
}
