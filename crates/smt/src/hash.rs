//! Stable structural hashing of terms.
//!
//! The batch-verification driver (`ids-driver`) memoizes solved verification
//! conditions in a content-addressed cache that is persisted to disk between
//! runs. The cache key must therefore be a *stable* hash of the term's
//! structure: independent of [`TermId`] numbering (ids depend on creation
//! order), of the process (no randomized hasher state), and of the platform
//! (explicit little-endian byte serialization).
//!
//! [`structural_hash`] folds the term DAG bottom-up with memoization;
//! [`structural_hashes`] does the same for many roots in one walk, so the
//! sub-terms they share are hashed once. Each
//! node's digest covers its operator (including payloads such as variable
//! names, literals and sorts) and the digests of its arguments, mixed with two
//! independently seeded FNV-1a streams that are concatenated into a 128-bit
//! key — wide enough that accidental collisions across a realistic cache are
//! not a concern.

use crate::term::{Op, Sort, TermId, TermManager};

/// The digest of one node: two independently seeded FNV-1a 64-bit streams
/// fed the same bytes, whose concatenation is the 128-bit key.
struct Digest {
    lo: u64,
    hi: u64,
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Digest {
    fn new() -> Digest {
        Digest {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x8422_2325_cbf2_9ce4,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_name(&mut self, s: &str) {
        self.write(s.as_bytes());
        // Terminate strings so ("ab", "c") and ("a", "bc") differ.
        self.write(&[0xff]);
    }

    /// Writes the sort's printed form (its `Display`), terminated like a
    /// name.
    fn write_sort(&mut self, sort: &Sort) {
        self.write_sort_text(sort);
        self.write(&[0xff]);
    }

    fn write_sort_text(&mut self, sort: &Sort) {
        match sort {
            Sort::Bool => self.write(b"Bool"),
            Sort::Int => self.write(b"Int"),
            Sort::Real => self.write(b"Real"),
            Sort::Loc => self.write(b"Loc"),
            Sort::Set(elem) => {
                self.write(b"(Set ");
                self.write_sort_text(elem);
                self.write(b")");
            }
            Sort::Array(from, to) => {
                self.write(b"(Array ");
                self.write_sort_text(from);
                self.write(b" ");
                self.write_sort_text(to);
                self.write(b")");
            }
        }
    }

    fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// Writes the operator tag and its payload (but not the arguments).
fn write_op(h: &mut Digest, op: &Op) {
    match op {
        Op::True => h.write(&[0]),
        Op::False => h.write(&[1]),
        Op::Not => h.write(&[2]),
        Op::And => h.write(&[3]),
        Op::Or => h.write(&[4]),
        Op::Implies => h.write(&[5]),
        Op::Iff => h.write(&[6]),
        Op::Ite => h.write(&[7]),
        Op::Eq => h.write(&[8]),
        Op::Distinct => h.write(&[9]),
        Op::Var(name) => {
            h.write(&[10]);
            h.write_name(name);
        }
        Op::IntLit(n) => {
            h.write(&[11]);
            h.write(&n.to_le_bytes());
        }
        Op::RealLit(r) => {
            h.write(&[12]);
            h.write(&r.numer().to_le_bytes());
            h.write(&r.denom().to_le_bytes());
        }
        Op::Add => h.write(&[13]),
        Op::Sub => h.write(&[14]),
        Op::Neg => h.write(&[15]),
        Op::MulConst(k) => {
            h.write(&[16]);
            h.write(&k.numer().to_le_bytes());
            h.write(&k.denom().to_le_bytes());
        }
        Op::Le => h.write(&[17]),
        Op::Lt => h.write(&[18]),
        Op::Select => h.write(&[19]),
        Op::Store => h.write(&[20]),
        Op::EmptySet(sort) => {
            h.write(&[21]);
            h.write_sort(sort);
        }
        Op::Singleton => h.write(&[22]),
        Op::Union => h.write(&[23]),
        Op::Inter => h.write(&[24]),
        Op::Diff => h.write(&[25]),
        Op::Member => h.write(&[26]),
        Op::Subset => h.write(&[27]),
        Op::MapIte => h.write(&[28]),
        Op::App(name) => {
            h.write(&[29]);
            h.write_name(name);
        }
        Op::Forall(bound) => {
            h.write(&[30]);
            h.write_u64(bound.len() as u64);
            for (name, sort) in bound {
                h.write_name(name);
                h.write_sort(sort);
            }
        }
    }
}

/// Computes the 128-bit stable structural hash of a term.
///
/// Two terms receive the same hash exactly when they have the same structure
/// (operators, payloads, sorts and argument order), regardless of the
/// [`TermManager`] they live in or the order in which sub-terms were created.
///
/// # Example
/// ```
/// use ids_smt::{structural_hash, Sort, TermManager};
///
/// let mut tm1 = TermManager::new();
/// let x = tm1.var("x", Sort::Int);
/// let y = tm1.var("y", Sort::Int);
/// let s1 = tm1.add(x, y);
///
/// let mut tm2 = TermManager::new();
/// let _noise = tm2.var("zzz", Sort::Bool); // different id numbering
/// let y = tm2.var("y", Sort::Int);
/// let x = tm2.var("x", Sort::Int);
/// let s2 = tm2.add(x, y);
///
/// assert_eq!(structural_hash(&tm1, s1), structural_hash(&tm2, s2));
/// ```
pub fn structural_hash(tm: &TermManager, root: TermId) -> u128 {
    structural_hashes(tm, &[root])[0]
}

/// The [`structural_hash`] of every root, in order, from one walk of the
/// term DAG: one memo serves all roots, so a sub-term they share (a VC
/// formula's hypotheses, say) is hashed once. Each result is bit-identical
/// to `structural_hash(tm, root)`.
pub fn structural_hashes(tm: &TermManager, roots: &[TermId]) -> Vec<u128> {
    let mut memo: Vec<Option<u128>> = vec![None; tm.len()];
    let mut stack: Vec<TermId> = Vec::new();
    let mut children: Vec<u128> = Vec::new();
    let mut out = Vec::with_capacity(roots.len());
    for &root in roots {
        stack.push(root);
        while let Some(&t) = stack.last() {
            if memo[t.0 as usize].is_some() {
                stack.pop();
                continue;
            }
            let term = tm.term(t);
            let mut ready = true;
            for &a in &term.args {
                if memo[a.0 as usize].is_none() {
                    ready = false;
                    stack.push(a);
                }
            }
            if !ready {
                continue;
            }
            // For commutative operators the child hashes are sorted before
            // mixing: `eq` and friends normalize their argument order by
            // TermId (a creation-order artifact), so an order-sensitive hash
            // would leak id numbering back into the key. Sorting is sound
            // exactly because the operator is commutative — equal keys still
            // imply equivalent formulas.
            let commutative = matches!(
                term.op,
                Op::And
                    | Op::Or
                    | Op::Eq
                    | Op::Iff
                    | Op::Distinct
                    | Op::Add
                    | Op::Union
                    | Op::Inter
            );
            children.clear();
            children.extend(
                term.args
                    .iter()
                    .map(|a| memo[a.0 as usize].expect("child hashed")),
            );
            if commutative {
                children.sort_unstable();
            }
            let mut h = Digest::new();
            write_op(&mut h, &term.op);
            h.write_sort(&term.sort);
            h.write_u64(children.len() as u64);
            for &child in &children {
                h.write_u64(child as u64);
                h.write_u64((child >> 64) as u64);
            }
            memo[t.0 as usize] = Some(h.finish());
            stack.pop();
        }
        out.push(memo[root.0 as usize].expect("root hashed"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rat;

    #[test]
    fn independent_of_creation_order_and_manager() {
        let mut tm1 = TermManager::new();
        let x = tm1.var("x", Sort::Loc);
        let f = tm1.app("f", vec![x], Sort::Int);
        let one = tm1.int(1);
        let e1 = tm1.eq(f, one);

        let mut tm2 = TermManager::new();
        let _pad = tm2.var("pad", Sort::Bool);
        let _pad2 = tm2.int(42);
        let one = tm2.int(1);
        let x = tm2.var("x", Sort::Loc);
        let f = tm2.app("f", vec![x], Sort::Int);
        let e2 = tm2.eq(f, one);

        assert_ne!(e1.0, e2.0, "ids should differ, that is the point");
        assert_eq!(structural_hash(&tm1, e1), structural_hash(&tm2, e2));
    }

    #[test]
    fn distinguishes_names_and_literals() {
        let mut tm = TermManager::new();
        let x_int = tm.var("x", Sort::Int);
        let y_int = tm.var("y", Sort::Int);
        assert_ne!(structural_hash(&tm, x_int), structural_hash(&tm, y_int));
        let one = tm.int(1);
        let two = tm.int(2);
        assert_ne!(structural_hash(&tm, one), structural_hash(&tm, two));
        let a1 = tm.add(x_int, one);
        let a2 = tm.add(x_int, two);
        let a1b = tm.add(x_int, one);
        assert_ne!(structural_hash(&tm, a1), structural_hash(&tm, a2));
        assert_eq!(structural_hash(&tm, a1), structural_hash(&tm, a1b));
    }

    #[test]
    fn argument_order_matters_for_noncommutative_ops() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let xy = tm.sub(x, y);
        let yx = tm.sub(y, x);
        assert_ne!(structural_hash(&tm, xy), structural_hash(&tm, yx));
        let lt = tm.lt(x, y);
        let gt = tm.lt(y, x);
        assert_ne!(structural_hash(&tm, lt), structural_hash(&tm, gt));
    }

    #[test]
    fn commutative_ops_hash_order_insensitively() {
        // `eq` normalizes its arguments by TermId, so the same formula built
        // in managers with different creation orders yields syntactically
        // swapped Eq nodes; the hash must not see the difference.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let e1 = tm.mk(Op::Eq, vec![x, y], Sort::Bool);
        let e2 = tm.mk(Op::Eq, vec![y, x], Sort::Bool);
        assert_eq!(structural_hash(&tm, e1), structural_hash(&tm, e2));
        let member = x_in(&mut tm, x);
        let a = tm.and2(e1, member);
        let b_inner = x_in(&mut tm, x);
        let b = tm.mk(Op::And, vec![b_inner, e1], Sort::Bool);
        assert_eq!(structural_hash(&tm, a), structural_hash(&tm, b));
    }

    fn x_in(tm: &mut TermManager, x: TermId) -> TermId {
        let s = tm.var("S", Sort::set_of(Sort::Loc));
        tm.member(x, s)
    }

    #[test]
    fn deep_shared_dag_hashes_without_stack_overflow() {
        let mut tm = TermManager::new();
        let mut t = tm.var("x", Sort::Int);
        let one = tm.int(1);
        for _ in 0..50_000 {
            t = tm.add(t, one);
        }
        // Also exercises memoized sharing: every prefix is a sub-term.
        let h1 = structural_hash(&tm, t);
        let h2 = structural_hash(&tm, t);
        assert_eq!(h1, h2);
    }

    #[test]
    fn sorts_hash_as_their_printed_form() {
        for sort in [
            Sort::Bool,
            Sort::Int,
            Sort::Real,
            Sort::Loc,
            Sort::set_of(Sort::Int),
            Sort::array_of(Sort::Loc, Sort::set_of(Sort::Loc)),
        ] {
            let (mut direct, mut printed) = (Digest::new(), Digest::new());
            direct.write_sort(&sort);
            printed.write_name(&sort.to_string());
            assert_eq!(direct.finish(), printed.finish(), "{sort}");
        }
    }

    #[test]
    fn keys_are_pinned() {
        // Cache keys persist across runs and versions: a change of the
        // digest (byte order, string terminators, how a sort is printed)
        // would silently orphan every cached verdict, so one digest over
        // every operator is pinned.
        let mut tm = TermManager::new();
        let all = every_op(&mut tm);
        assert_eq!(
            format!("{:032x}", structural_hash(&tm, all)),
            "947151b08b72bb1862c871854ca9cc5d"
        );
    }

    /// One term of every operator, with payloads and nested sorts.
    fn every_op(tm: &mut TermManager) -> TermId {
        let set_loc = Sort::set_of(Sort::Loc);
        let map = Sort::array_of(Sort::Loc, Sort::Int);
        let x = tm.mk(Op::Var("x".into()), vec![], Sort::Int);
        let l = tm.mk(Op::Var("l".into()), vec![], Sort::Loc);
        let m = tm.mk(Op::Var("m".into()), vec![], map.clone());
        let one = tm.mk(Op::IntLit(1), vec![], Sort::Int);
        let half = tm.mk(Op::RealLit(Rat::new(1, 2)), vec![], Sort::Real);
        let t = tm.mk(Op::True, vec![], Sort::Bool);
        let f = tm.mk(Op::False, vec![], Sort::Bool);
        let not = tm.mk(Op::Not, vec![f], Sort::Bool);
        let add = tm.mk(Op::Add, vec![x, one], Sort::Int);
        let sub = tm.mk(Op::Sub, vec![add, one], Sort::Int);
        let neg = tm.mk(Op::Neg, vec![sub], Sort::Int);
        let scaled = tm.mk(Op::MulConst(Rat::new(-3, 4)), vec![neg], Sort::Int);
        let le = tm.mk(Op::Le, vec![scaled, x], Sort::Bool);
        let lt = tm.mk(Op::Lt, vec![x, half], Sort::Bool);
        let sel = tm.mk(Op::Select, vec![m, l], Sort::Int);
        let st = tm.mk(Op::Store, vec![m, l, sel], map.clone());
        let empty = tm.mk(Op::EmptySet(Sort::Loc), vec![], set_loc.clone());
        let single = tm.mk(Op::Singleton, vec![l], set_loc.clone());
        let union = tm.mk(Op::Union, vec![empty, single], set_loc.clone());
        let inter = tm.mk(Op::Inter, vec![union, single], set_loc.clone());
        let diff = tm.mk(Op::Diff, vec![inter, empty], set_loc);
        let member = tm.mk(Op::Member, vec![l, diff], Sort::Bool);
        let subset = tm.mk(Op::Subset, vec![empty, diff], Sort::Bool);
        let framed = tm.mk(Op::MapIte, vec![diff, st, m], map);
        let same_map = tm.mk(Op::Eq, vec![framed, m], Sort::Bool);
        let distinct = tm.mk(Op::Distinct, vec![x, one, sel], Sort::Bool);
        let app = tm.mk(Op::App("p".into()), vec![l, x], Sort::Bool);
        let ite = tm.mk(Op::Ite, vec![app, x, one], Sort::Int);
        let same = tm.mk(Op::Eq, vec![ite, x], Sort::Bool);
        let iff = tm.mk(Op::Iff, vec![same, t], Sort::Bool);
        let implies = tm.mk(Op::Implies, vec![iff, not], Sort::Bool);
        let or = tm.mk(Op::Or, vec![le, lt, member, subset], Sort::Bool);
        let and = tm.mk(Op::And, vec![or, same_map, distinct, implies], Sort::Bool);
        let bound = vec![
            ("l".into(), Sort::Loc),
            ("s".into(), Sort::set_of(Sort::Int)),
        ];
        tm.mk(Op::Forall(bound), vec![and], Sort::Bool)
    }

    #[test]
    fn forall_binder_is_hashed() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let p = tm.app("p", vec![x], Sort::Bool);
        let all_x = tm.forall(vec![("x".into(), Sort::Loc)], p);
        let all_y = tm.forall(vec![("y".into(), Sort::Loc)], p);
        assert_ne!(structural_hash(&tm, all_x), structural_hash(&tm, all_y));
    }
}
