//! The overlaid data structure of §4.4: a FIFO list threaded through the same
//! nodes as a binary search tree (the core of the Linux deadline I/O
//! scheduler's request queue).
//!
//! The intrinsic definition is the *conjunction* of the list definition and
//! the BST definition plus linking conditions (`bst_root` / `list_head` agree
//! across the overlay). Verification uses **two broken sets**: `Br` for the
//! list local condition and `Br2` for the tree local condition, exactly as the
//! paper describes.

use ids_core::IntrinsicDefinition;

/// The scheduler queue: list fields (`next`, `prev`) overlaid with BST fields
/// (`left`, `right`, `p`) on the same nodes.
pub fn scheduler_queue() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "Scheduler Queue (overlaid SLL+BST)",
        r#"
        field next: Loc;
        field left: Loc;
        field right: Loc;
        field key: Int;
        field ghost prev: Loc;
        field ghost length: Int;
        field ghost p: Loc;
        field ghost rank: Real;
        field ghost minkey: Int;
        field ghost maxkey: Int;
        field ghost bst_root: Loc;
        field ghost list_head: Loc;
        "#,
        // Primary local condition: the FIFO list overlay.
        "(x.next != nil ==> x.next.prev == x \
            && x.length == x.next.length + 1 \
            && x.next.list_head == x.list_head \
            && x.next.bst_root == x.bst_root) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1) \
         && x.list_head != nil \
         && (x.prev == nil ==> x.list_head == x) \
         && (x.prev != nil ==> x.list_head == x.prev.list_head) \
         && x.length >= 1",
        "y",
        "y.prev == nil && y.p == nil && y.bst_root == y && y.list_head == y",
        &[
            ("next", &["x", "old(x.next)"]),
            ("key", &["x", "x.p", "x.prev"]),
            ("prev", &["x", "old(x.prev)", "old(x.next)"]),
            ("length", &["x", "x.prev"]),
            ("list_head", &["x", "x.next", "x.prev"]),
            ("bst_root", &["x", "x.next", "x.prev"]),
        ],
    )
    .expect("scheduler queue definition")
    .with_secondary(
        // Secondary local condition: the BST overlay (tracked with Br2).
        "x.minkey <= x.key && x.key <= x.maxkey \
         && (x.p != nil ==> x.p.left == x || x.p.right == x) \
         && (x.left == nil ==> x.minkey == x.key) \
         && (x.left != nil ==> x.left.p == x && x.left.rank < x.rank \
              && x.left.maxkey < x.key && x.minkey == x.left.minkey \
              && x.left.bst_root == x.bst_root) \
         && (x.right == nil ==> x.maxkey == x.key) \
         && (x.right != nil ==> x.right.p == x && x.right.rank < x.rank \
              && x.right.minkey > x.key && x.maxkey == x.right.maxkey \
              && x.right.bst_root == x.bst_root) \
         && x.bst_root != nil \
         && (x.p == nil ==> x.bst_root == x) \
         && (x.p != nil ==> x.bst_root == x.p.bst_root)",
        &[
            ("left", &["x", "old(x.left)"]),
            ("right", &["x", "old(x.right)"]),
            ("key", &["x", "x.p", "x.prev"]),
            ("p", &["x", "old(x.p)"]),
            ("rank", &["x", "x.p"]),
            ("minkey", &["x", "x.p"]),
            ("maxkey", &["x", "x.p"]),
            (
                "bst_root",
                &["x", "x.p", "x.left", "x.right", "x.next", "x.prev"],
            ),
        ],
    )
    .expect("scheduler queue secondary condition")
}

/// FWYB-annotated methods over the overlaid scheduler queue.
pub const SCHEDULER_QUEUE_METHODS: &str = r#"
// Read the next request to dispatch (the head of the FIFO overlay) without
// modifying anything: both broken sets stay empty.
procedure peek_request(h: Loc) returns (r: Loc)
  requires Br == {} && Br2 == {} && h != nil;
  ensures Br == {} && Br2 == {};
  ensures r == h;
  modifies {};
{
  InferLCOutsideBr(h);
  InferLCOutsideBr2(h);
  r := h;
}

// Change the key stored in a request that is simultaneously a list node and a
// BST leaf-root (single-node overlay): exercises both broken sets at once.
procedure update_single_request(x: Loc, k: Int) returns ()
  requires Br == {} && Br2 == {} && x != nil;
  requires x.prev == nil && x.next == nil && x.p == nil && x.left == nil && x.right == nil;
  ensures Br == {} && Br2 == {};
  modifies {x};
{
  InferLCOutsideBr(x);
  InferLCOutsideBr2(x);
  Mut(x, key, k);
  Mut(x, minkey, k);
  Mut(x, maxkey, k);
  AssertLCAndRemove(x);
  AssertLCAndRemove2(x);
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition_builds_with_secondary_condition() {
        let ids = scheduler_queue();
        assert!(ids.secondary.is_some());
        assert!(ids.lc_size() >= 20);
        assert_eq!(ids.ghost_maps().count(), 8);
    }

    #[test]
    fn methods_parse_and_typecheck() {
        let ids = scheduler_queue();
        ids_core::pipeline::load_methods(&ids, SCHEDULER_QUEUE_METHODS).expect("methods load");
    }
}
