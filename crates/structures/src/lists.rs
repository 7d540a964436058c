//! List-shaped benchmark structures: singly-linked lists, sorted lists (plain
//! and with min/max maps) and circular lists.
//!
//! Each structure exposes its intrinsic definition (ghost monadic maps, local
//! condition, correlation formula, impact table — §4.1–4.3 and Appendix D of
//! the paper) and a file of FWYB-annotated methods in IVL surface syntax.

use ids_core::IntrinsicDefinition;

/// The singly-linked list: `next`/`key` user fields; ghost `prev`, `length`,
/// `keys`, `hslist` monadic maps. Acyclicity is witnessed by the strictly
/// decreasing `length` map; non-merging by the `prev` inverse pointer.
pub fn singly_linked_list() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "Singly-Linked List",
        r#"
        field next: Loc;
        field key: Int;
        field ghost prev: Loc;
        field ghost length: Int;
        field ghost keys: Set<Int>;
        field ghost hslist: Set<Loc>;
        "#,
        "(x.next != nil ==> x.next.prev == x \
            && x.length == x.next.length + 1 \
            && x.keys == union({x.key}, x.next.keys) \
            && x.hslist == union({x}, x.next.hslist) \
            && !(x in x.next.hslist)) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1 && x.keys == {x.key} && x.hslist == {x}) \
         && (x in x.hslist) \
         && x.length >= 1",
        "y",
        "y.prev == nil",
        &[
            ("next", &["x", "old(x.next)"]),
            ("key", &["x", "x.prev"]),
            ("prev", &["x", "old(x.prev)"]),
            ("length", &["x", "x.prev"]),
            ("keys", &["x", "x.prev"]),
            ("hslist", &["x", "x.prev"]),
        ],
    )
    .expect("singly-linked list definition")
}

/// FWYB-annotated methods over singly-linked lists.
pub const SINGLY_LINKED_LIST_METHODS: &str = r#"
// Insert a freshly allocated node carrying key k in front of the list head x.
procedure insert_front(x: Loc, k: Int) returns (r: Loc)
  requires Br == {} && x != nil && x.prev == nil;
  ensures Br == {} && r != nil && r.prev == nil;
  ensures r.length == old(x.length) + 1;
  ensures r.keys == union({k}, old(x.keys));
  ensures r.hslist == union({r}, old(x.hslist));
  modifies {x};
{
  InferLCOutsideBr(x);
  var z: Loc;
  NewObj(z);
  Mut(z, key, k);
  Mut(z, next, x);
  Mut(z, prev, nil);
  Mut(z, length, x.length + 1);
  Mut(z, keys, union({k}, x.keys));
  Mut(z, hslist, union({z}, x.hslist));
  Mut(x, prev, z);
  AssertLCAndRemove(z);
  AssertLCAndRemove(x);
  r := z;
}

// Insert a key at the back of the list rooted at x (recursive).
//
// The predecessor of x (if any) must lie outside x's own tail: the recursive
// call havocs everything in x.next.hslist, and without this requires nothing
// rules out x.prev sitting in that heaplet, which would let the havoc break
// the `x.prev.next == x` conjunct of LC(x) after the call. The clause is
// self-propagating: at the recursive call site y.prev == x and LC(x) gives
// !(x in y.hslist) directly.
procedure insert_back(x: Loc, k: Int) returns (r: Loc)
  requires Br == {} && x != nil;
  requires x.prev != nil ==> !(x.prev in x.hslist);
  ensures Br == ite(old(x.prev) == nil, {}, {old(x.prev)});
  ensures r == x;
  ensures r.length == old(x.length) + 1;
  ensures r.keys == union(old(x.keys), {k});
  ensures old(x.hslist) subset r.hslist;
  ensures r.prev == old(x.prev);
  ensures r.key == old(x.key);
  ensures inter(diff(r.hslist, old(x.hslist)), old(Alloc)) == {};
  modifies x.hslist;
  decreases x.length;
{
  InferLCOutsideBr(x);
  if (x.next == nil) {
    var z: Loc;
    NewObj(z);
    Mut(z, key, k);
    Mut(z, next, nil);
    Mut(z, length, 1);
    Mut(z, keys, {k});
    Mut(z, hslist, {z});
    Mut(x, next, z);
    Mut(z, prev, x);
    AssertLCAndRemove(z);
    Mut(x, length, 2);
    Mut(x, keys, union({x.key}, {k}));
    Mut(x, hslist, union({x}, {z}));
    AssertLCAndRemove(x);
    r := x;
  } else {
    var y: Loc;
    y := x.next;
    var t: Loc;
    call t := insert_back(y, k);
    InferLCOutsideBr(t);
    Mut(x, length, t.length + 1);
    Mut(x, keys, union({x.key}, t.keys));
    Mut(x, hslist, union({x}, t.hslist));
    AssertLCAndRemove(x);
    r := x;
  }
}

// Membership query: does key k occur in the list rooted at x? (recursive)
procedure find(x: Loc, k: Int) returns (found: Bool)
  requires Br == {} && x != nil;
  ensures Br == {};
  ensures found <==> (k in old(x.keys));
  modifies {};
  decreases x.length;
{
  InferLCOutsideBr(x);
  if (x.key == k) {
    found := true;
  } else if (x.next == nil) {
    found := false;
  } else {
    call found := find(x.next, k);
  }
}

// Append list y (a proper list head) to the last node x of another list.
procedure append_node(x: Loc, y: Loc) returns (r: Loc)
  requires Br == {} && x != nil && y != nil;
  requires x.next == nil && y.prev == nil;
  requires !(x in y.hslist) && !(y in x.hslist);
  ensures Br == ite(old(x.prev) == nil, {}, {old(x.prev)});
  ensures r == x && r.next == y;
  ensures r.length == old(x.length) + old(y.length);
  ensures r.keys == union(old(x.keys), old(y.keys));
  ensures r.hslist == union(old(x.hslist), old(y.hslist));
  modifies union(x.hslist, y.hslist);
{
  InferLCOutsideBr(x);
  InferLCOutsideBr(y);
  Mut(x, next, y);
  Mut(y, prev, x);
  Mut(x, length, 1 + y.length);
  Mut(x, keys, union({x.key}, y.keys));
  Mut(x, hslist, union({x}, y.hslist));
  AssertLCAndRemove(y);
  AssertLCAndRemove(x);
  r := x;
}

// Overwrite the key of the head node (exercises the key impact set).
procedure set_key(x: Loc, k: Int) returns ()
  requires Br == {} && x != nil && x.next == nil && x.prev == nil;
  ensures Br == {};
  ensures x.keys == {k};
  modifies {x};
{
  InferLCOutsideBr(x);
  Mut(x, key, k);
  Mut(x, keys, {k});
  AssertLCAndRemove(x);
}

// Detach the head of a list with at least two nodes and return the new head.
// The detached node becomes a valid singleton list, so both pieces remain
// intrinsically defined lists afterwards.
procedure delete_front(x: Loc) returns (r: Loc)
  requires Br == {} && x != nil && x.prev == nil && x.next != nil;
  ensures Br == {} && r != nil && r.prev == nil;
  ensures r == old(x.next);
  ensures r.length == old(x.length) - 1;
  ensures r.hslist == diff(old(x.hslist), {x});
  modifies {x};
{
  InferLCOutsideBr(x);
  r := x.next;
  InferLCOutsideBr(r);
  Mut(x, next, nil);
  Mut(r, prev, nil);
  Mut(x, length, 1);
  Mut(x, keys, {x.key});
  Mut(x, hslist, {x});
  AssertLCAndRemove(x);
  AssertLCAndRemove(r);
}
"#;

/// The sorted list of §4.1 (Fig. 7): the singly-linked list maps plus the
/// sortedness constraint `key(x) <= key(next(x))`.
pub fn sorted_list() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "Sorted List",
        r#"
        field next: Loc;
        field key: Int;
        field ghost prev: Loc;
        field ghost length: Int;
        field ghost keys: Set<Int>;
        field ghost hslist: Set<Loc>;
        "#,
        "(x.next != nil ==> x.key <= x.next.key \
            && x.next.prev == x \
            && x.length == x.next.length + 1 \
            && x.keys == union({x.key}, x.next.keys) \
            && x.hslist == union({x}, x.next.hslist) \
            && !(x in x.next.hslist)) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1 && x.keys == {x.key} && x.hslist == {x}) \
         && (x in x.hslist) \
         && x.length >= 1",
        "y",
        "y.prev == nil",
        &[
            ("next", &["x", "old(x.next)"]),
            ("key", &["x", "x.prev"]),
            ("prev", &["x", "old(x.prev)"]),
            ("length", &["x", "x.prev"]),
            ("keys", &["x", "x.prev"]),
            ("hslist", &["x", "x.prev"]),
        ],
    )
    .expect("sorted list definition")
}

/// FWYB-annotated methods over sorted lists, following Fig. 7 / Appendix D.1.
pub const SORTED_LIST_METHODS: &str = r#"
// Insertion into a sorted list (Fig. 7 of the paper, recursive).
procedure sorted_insert(x: Loc, k: Int) returns (r: Loc)
  requires Br == {} && x != nil;
  ensures Br == ite(old(x.prev) == nil, {}, {old(x.prev)});
  ensures r != nil && r.prev == nil;
  ensures r.length == old(x.length) + 1;
  ensures r.keys == union(old(x.keys), {k});
  ensures old(x.hslist) subset r.hslist;
  ensures r.key == ite(k <= old(x.key), k, old(x.key));
  ensures LC(r);
  ensures inter(diff(r.hslist, old(x.hslist)), old(Alloc)) == {};
  modifies x.hslist;
  decreases x.length;
{
  InferLCOutsideBr(x);
  if (x.key >= k) {
    // k is inserted before x.
    var z: Loc;
    NewObj(z);
    Mut(z, key, k);
    Mut(z, next, x);
    Mut(z, prev, nil);
    Mut(z, hslist, union({z}, x.hslist));
    Mut(z, length, 1 + x.length);
    Mut(z, keys, union({k}, x.keys));
    Mut(x, prev, z);
    AssertLCAndRemove(z);
    AssertLCAndRemove(x);
    r := z;
  } else {
    if (x.next == nil) {
      // One-element list: k goes after x.
      var z: Loc;
      NewObj(z);
      Mut(z, key, k);
      Mut(z, next, nil);
      Mut(z, hslist, {z});
      Mut(z, length, 1);
      Mut(z, keys, {k});
      Mut(x, next, z);
      Mut(z, prev, x);
      AssertLCAndRemove(z);
      Mut(x, prev, nil);
      Mut(x, hslist, union({x}, {z}));
      Mut(x, length, 2);
      Mut(x, keys, union({x.key}, {k}));
      AssertLCAndRemove(x);
      r := x;
    } else {
      // Recursive case (Fig. 7 of the paper).
      var y: Loc;
      y := x.next;
      var tmp: Loc;
      call tmp := sorted_insert(y, k);
      InferLCOutsideBr(y);
      if (y.prev == x) {
        Mut(y, prev, nil);
      }
      Mut(x, next, tmp);
      AssertLCAndRemove(y);
      Mut(tmp, prev, x);
      AssertLCAndRemove(tmp);
      Mut(x, hslist, union({x}, tmp.hslist));
      Mut(x, length, 1 + tmp.length);
      Mut(x, keys, union({x.key}, tmp.keys));
      Mut(x, prev, nil);
      AssertLCAndRemove(x);
      r := x;
    }
  }
}

// Membership query over a sorted list (recursive; can stop early but the
// simple full search keeps the specification identical to the list case).
procedure sorted_find(x: Loc, k: Int) returns (found: Bool)
  requires Br == {} && x != nil;
  ensures Br == {};
  ensures found <==> (k in old(x.keys));
  modifies {};
  decreases x.length;
{
  InferLCOutsideBr(x);
  if (x.key == k) {
    found := true;
  } else if (x.next == nil) {
    found := false;
  } else {
    call found := sorted_find(x.next, k);
  }
}

"#;

/// The sorted list extended with `min`/`max` maps (used by the paper for
/// `Concatenate` and `Find-Last`, LC size 20).
pub fn sorted_list_minmax() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "Sorted List (w. min, max)",
        r#"
        field next: Loc;
        field key: Int;
        field ghost prev: Loc;
        field ghost length: Int;
        field ghost keys: Set<Int>;
        field ghost hslist: Set<Loc>;
        field ghost minkey: Int;
        field ghost maxkey: Int;
        "#,
        "(x.next != nil ==> x.key <= x.next.key \
            && x.next.prev == x \
            && x.length == x.next.length + 1 \
            && x.keys == union({x.key}, x.next.keys) \
            && x.hslist == union({x}, x.next.hslist) \
            && !(x in x.next.hslist) \
            && x.maxkey == x.next.maxkey \
            && x.next.minkey == x.next.key) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1 && x.keys == {x.key} && x.hslist == {x} \
            && x.maxkey == x.key) \
         && x.minkey == x.key \
         && x.minkey <= x.maxkey \
         && (x in x.hslist) \
         && x.length >= 1",
        "y",
        "y.prev == nil",
        &[
            ("next", &["x", "old(x.next)"]),
            ("key", &["x", "x.prev"]),
            ("prev", &["x", "old(x.prev)"]),
            ("length", &["x", "x.prev"]),
            ("keys", &["x", "x.prev"]),
            ("hslist", &["x", "x.prev"]),
            ("minkey", &["x", "x.prev"]),
            ("maxkey", &["x", "x.prev"]),
        ],
    )
    .expect("sorted list min/max definition")
}

/// Methods over the min/max sorted list.
pub const SORTED_LIST_MINMAX_METHODS: &str = r#"
// Concatenate two sorted lists when every key of the first is below every key
// of the second; x is the last node of the first list.
procedure concatenate(x: Loc, y: Loc) returns (r: Loc)
  requires Br == {} && x != nil && y != nil;
  requires x.next == nil && y.prev == nil;
  requires x.maxkey <= y.minkey && x.key <= y.key;
  requires !(x in y.hslist) && !(y in x.hslist);
  ensures Br == ite(old(x.prev) == nil, {}, {old(x.prev)});
  ensures r == x;
  ensures r.keys == union(old(x.keys), old(y.keys));
  modifies union(x.hslist, y.hslist);
{
  InferLCOutsideBr(x);
  InferLCOutsideBr(y);
  Mut(x, next, y);
  Mut(y, prev, x);
  Mut(x, length, 1 + y.length);
  Mut(x, keys, union({x.key}, y.keys));
  Mut(x, hslist, union({x}, y.hslist));
  Mut(x, maxkey, y.maxkey);
  AssertLCAndRemove(y);
  AssertLCAndRemove(x);
  r := x;
}

// Return the largest key (the max map makes it O(1) at the head; the result
// is a ghost value, i.e. a specification-level query).
procedure find_last(x: Loc) returns (ghost m: Int)
  requires Br == {} && x != nil;
  ensures Br == {};
  ensures m == old(x.maxkey);
  modifies {};
{
  InferLCOutsideBr(x);
  m := x.maxkey;
}
"#;

/// Circular lists (§4.3): every node's `last` map points to the scaffolding
/// node; `length`/`rev_length` measure the distance to it in both directions.
pub fn circular_list() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "Circular List",
        r#"
        field next: Loc;
        field key: Int;
        field ghost prev: Loc;
        field ghost last: Loc;
        field ghost length: Int;
        field ghost rev_length: Int;
        "#,
        "x.next != nil && x.prev != nil && x.last != nil \
         && x.next.prev == x \
         && x.prev.next == x \
         && x.last.last == x.last \
         && (x.last == x ==> x.length == 0 && x.rev_length == 0) \
         && (x.next.last == x.last) \
         && (x != x.last ==> x.length == x.next.length + 1 \
              && x.rev_length == x.prev.rev_length + 1) \
         && x.length >= 0 && x.rev_length >= 0",
        "y",
        "y.last == y",
        &[
            ("next", &["x", "old(x.next)"]),
            ("key", &["x"]),
            ("prev", &["x", "old(x.prev)"]),
            ("last", &["x", "x.prev"]),
            ("length", &["x", "x.prev"]),
            ("rev_length", &["x", "x.next"]),
        ],
    )
    .expect("circular list definition")
}

/// Methods over circular lists.
pub const CIRCULAR_LIST_METHODS: &str = r#"
// Rotate the entry point of a circular list one step forward. The structure
// itself is untouched, so no repairs are needed; this exercises reading the
// scaffolding node.
procedure rotate_entry(x: Loc) returns (r: Loc)
  requires Br == {} && x != nil;
  ensures Br == {} && r != nil;
  modifies {};
{
  InferLCOutsideBr(x);
  r := x.next;
  assert r != nil;
}

// Overwrite the key stored at a node; keys are not part of the circular-list
// local condition, so only the node itself needs a (trivial) repair.
procedure set_node_key(x: Loc, k: Int) returns ()
  requires Br == {} && x != nil;
  ensures Br == {};
  modifies {x};
{
  InferLCOutsideBr(x);
  Mut(x, key, k);
  AssertLCAndRemove(x);
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_build() {
        assert_eq!(singly_linked_list().ghost_maps().count(), 4);
        assert!(sorted_list().lc_size() >= 10);
        assert!(sorted_list_minmax().lc_size() >= 15);
        assert_eq!(circular_list().impact_sets.len(), 6);
    }

    #[test]
    fn insert_back_previously_refuted_lc_assert_now_verifies() {
        // Regression for the latent benchmark bug surfaced by the PR-2
        // driver: in the recursive branch of `insert_back`, the final
        // `AssertLCAndRemove(x)` was refuted because nothing ruled out
        // `x.prev` sitting inside the callee's havoc heaplet
        // (`x.next.hslist`), letting the call frame break `x.prev.next == x`.
        // The fix adds a self-propagating requires clause. This test checks
        // the decisive VCs through one incremental session — the new
        // precondition obligation at the recursive call site and the
        // formerly refuted else-branch LC assert — rather than the whole
        // method, whose ensures VCs take minutes and are covered by the
        // `ids-verify suite` CLI run.
        let ids = singly_linked_list();
        let merged = ids_core::pipeline::load_methods(&ids, SINGLY_LINKED_LIST_METHODS).unwrap();
        let task = ids_core::pipeline::prepare_method_in(
            &ids,
            &merged,
            "insert_back",
            ids_core::pipeline::PipelineConfig::default(),
        )
        .unwrap();
        let mut lc_asserts = Vec::new();
        let mut precondition = None;
        for (i, vc) in task.vcs.iter().enumerate() {
            if vc.description.contains("call insert_back precondition #2") {
                precondition = Some(i);
            }
            if vc.description.starts_with("insert_back::assert")
                && vc.description.contains("x.next.prev == x")
            {
                lc_asserts.push(i);
            }
        }
        let precondition = precondition.expect("the fixed annotation adds a second precondition");
        assert_eq!(
            lc_asserts.len(),
            2,
            "expected the then- and else-branch LC(x) asserts"
        );
        let formerly_refuted = lc_asserts[1];
        assert!(precondition < formerly_refuted);
        let mut session =
            ids_core::pipeline::MethodSession::new(&task).expect("decidable encoding");
        for &i in &[precondition, formerly_refuted] {
            let r = session.check_vc(i);
            assert_eq!(
                r.verdict,
                ids_core::pipeline::VcVerdict::Valid,
                "VC still failing: {}",
                task.vcs[i].description
            );
            // The decisive VCs are solver-heavy enough to exercise the
            // solver telemetry end to end.
            assert!(r.stats.sat_decisions > 0, "{:?}", r.stats);
        }
    }

    #[test]
    fn method_files_parse_and_typecheck() {
        for (ids, src) in [
            (singly_linked_list(), SINGLY_LINKED_LIST_METHODS),
            (sorted_list(), SORTED_LIST_METHODS),
            (sorted_list_minmax(), SORTED_LIST_MINMAX_METHODS),
            (circular_list(), CIRCULAR_LIST_METHODS),
        ] {
            ids_core::pipeline::load_methods(&ids, src).expect("methods load");
        }
    }
}
