//! Property tests of `hash::structural_hashes`: hashing many roots in one
//! walk, with one memo shared across them, gives every root exactly the key
//! `structural_hash` gives it alone.

use ids_smt::hash::{structural_hash, structural_hashes};
use ids_smt::{Op, Sort, TermId, TermManager};
use proptest::prelude::*;

/// Builds a random DAG from `steps`: each step applies one operator to
/// earlier nodes, so later nodes share sub-terms with earlier ones.
/// Commutative operators get their arguments in the drawn order (built with
/// `mk`, which does not normalize it), so the same operator can appear with
/// swapped arguments.
fn random_dag(tm: &mut TermManager, steps: &[(u8, usize, usize, usize)]) -> Vec<TermId> {
    let mut ints: Vec<TermId> = vec![tm.var("x", Sort::Int), tm.var("y", Sort::Int), tm.int(1)];
    let mut bools: Vec<TermId> = vec![tm.var("p", Sort::Bool), tm.var("q", Sort::Bool)];
    let set = Sort::set_of(Sort::Int);
    let mut sets: Vec<TermId> = vec![
        tm.var("S", set.clone()),
        tm.mk(Op::EmptySet(Sort::Int), vec![], set.clone()),
    ];
    for &(op, a, b, c) in steps {
        let (ia, ib) = (ints[a % ints.len()], ints[b % ints.len()]);
        let (ba, bb) = (bools[a % bools.len()], bools[b % bools.len()]);
        let (sa, sb) = (sets[a % sets.len()], sets[b % sets.len()]);
        match op % 10 {
            0 => ints.push(tm.mk(Op::Add, vec![ia, ib], Sort::Int)),
            1 => ints.push(tm.mk(Op::Sub, vec![ia, ib], Sort::Int)),
            2 => bools.push(tm.mk(Op::Eq, vec![ia, ib], Sort::Bool)),
            3 => bools.push(tm.mk(Op::And, vec![ba, bb], Sort::Bool)),
            4 => bools.push(tm.mk(Op::Or, vec![bb, ba], Sort::Bool)),
            5 => bools.push(tm.mk(Op::Le, vec![ia, ib], Sort::Bool)),
            6 => sets.push(tm.mk(Op::Union, vec![sa, sb], set.clone())),
            7 => sets.push(tm.mk(Op::Inter, vec![sb, sa], set.clone())),
            8 => bools.push(tm.mk(Op::Member, vec![ia, sa], Sort::Bool)),
            _ => {
                let ic = ints[c % ints.len()];
                bools.push(tm.mk(Op::Distinct, vec![ia, ib, ic], Sort::Bool));
            }
        }
    }
    ints.into_iter().chain(bools).chain(sets).collect()
}

proptest! {
    /// Every root of one `structural_hashes` call, in any order and with
    /// repeats, hashes as it does alone.
    #[test]
    fn shared_memo_matches_one_root_at_a_time(
        steps in proptest::collection::vec((0u8..10, 0usize..64, 0usize..64, 0usize..64), 1..60),
        picks in proptest::collection::vec(0usize..256, 1..24),
    ) {
        let mut tm = TermManager::new();
        let nodes = random_dag(&mut tm, &steps);
        let roots: Vec<TermId> = picks.iter().map(|&i| nodes[i % nodes.len()]).collect();
        let together = structural_hashes(&tm, &roots);
        prop_assert_eq!(together.len(), roots.len());
        for (i, &root) in roots.iter().enumerate() {
            prop_assert_eq!(together[i], structural_hash(&tm, root), "root #{}", i);
        }
    }

    /// The keys do not depend on the manager: the same DAG built after
    /// unrelated terms (so with other ids) hashes to the same keys.
    #[test]
    fn shared_memo_is_independent_of_id_numbering(
        steps in proptest::collection::vec((0u8..10, 0usize..64, 0usize..64, 0usize..64), 1..40),
    ) {
        let mut tm1 = TermManager::new();
        let nodes1 = random_dag(&mut tm1, &steps);
        let mut tm2 = TermManager::new();
        let _pad = tm2.var("pad", Sort::Real);
        let nodes2 = random_dag(&mut tm2, &steps);
        prop_assert_eq!(structural_hashes(&tm1, &nodes1), structural_hashes(&tm2, &nodes2));
    }
}

#[test]
fn deep_chain_prefixes_hash_as_alone() {
    // A 50,000-deep chain, every prefix a sub-term of the next: the walk is
    // iterative, and later roots reuse what earlier ones memoized.
    let mut tm = TermManager::new();
    let one = tm.int(1);
    let mut t = tm.var("x", Sort::Int);
    let mut prefixes = vec![t];
    for i in 1..=50_000 {
        t = tm.add(t, one);
        if i % 12_500 == 0 {
            prefixes.push(t);
        }
    }
    let mut roots = prefixes.clone();
    roots.reverse();
    roots.extend(&prefixes);
    let together = structural_hashes(&tm, &roots);
    for (i, &root) in roots.iter().enumerate() {
        assert_eq!(together[i], structural_hash(&tm, root), "root #{i}");
    }
}
