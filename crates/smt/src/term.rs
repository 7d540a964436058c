//! Hash-consed terms and sorts.
//!
//! All formulas handled by the solver are ground terms of sort [`Sort::Bool`]
//! built through a [`TermManager`]. Terms are immutable, deduplicated
//! (hash-consed) and referenced by the copyable index [`TermId`], which makes
//! structural equality and sub-term sharing cheap — both matter because FWYB
//! verification conditions share large sub-formulas across asserts.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;

use crate::fxmap::{FxBuildHasher, FxHashMap};
use crate::rational::Rat;

/// The sort (type) of a term.
///
/// `Loc` is the foreground sort of heap objects (`C?` in the paper — the
/// distinguished constant `nil` also has this sort). `Set` and `Array` are the
/// container sorts used to model ghost monadic maps and heap fields.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Sort {
    /// Booleans.
    Bool,
    /// Mathematical integers.
    Int,
    /// Rationals/reals (used for `rank` maps).
    Real,
    /// Heap locations (including `nil`).
    Loc,
    /// Finite sets of elements of the given sort.
    Set(Box<Sort>),
    /// Total maps (arrays) from the first sort to the second.
    Array(Box<Sort>, Box<Sort>),
}

impl Sort {
    /// Convenience constructor for `Set(elem)`.
    pub fn set_of(elem: Sort) -> Sort {
        Sort::Set(Box::new(elem))
    }

    /// Convenience constructor for `Array(from, to)`.
    pub fn array_of(from: Sort, to: Sort) -> Sort {
        Sort::Array(Box::new(from), Box::new(to))
    }

    /// True if this is a numeric sort (Int or Real).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Sort::Int | Sort::Real)
    }

    /// True if this is a set or array sort.
    pub fn is_container(&self) -> bool {
        matches!(self, Sort::Set(_) | Sort::Array(_, _))
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
            Sort::Real => write!(f, "Real"),
            Sort::Loc => write!(f, "Loc"),
            Sort::Set(e) => write!(f, "(Set {})", e),
            Sort::Array(a, b) => write!(f, "(Array {} {})", a, b),
        }
    }
}

/// The head operator of a term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Boolean constant `true`.
    True,
    /// Boolean constant `false`.
    False,
    /// Negation (1 argument).
    Not,
    /// N-ary conjunction.
    And,
    /// N-ary disjunction.
    Or,
    /// Implication (2 arguments).
    Implies,
    /// Bi-implication (2 arguments).
    Iff,
    /// If-then-else (3 arguments); result sort is the branch sort.
    Ite,
    /// Equality (2 arguments of equal sort).
    Eq,
    /// Pairwise distinctness (n arguments).
    Distinct,
    /// A free constant / variable with the given name.
    Var(String),
    /// An integer literal.
    IntLit(i128),
    /// A rational literal.
    RealLit(Rat),
    /// N-ary addition.
    Add,
    /// Binary subtraction.
    Sub,
    /// Unary negation of a numeric term.
    Neg,
    /// Multiplication by a rational constant (1 argument) — keeps arithmetic linear.
    MulConst(Rat),
    /// Less-or-equal (2 numeric arguments).
    Le,
    /// Strict less-than (2 numeric arguments).
    Lt,
    /// Array read: `Select(a, i)`.
    Select,
    /// Array write: `Store(a, i, v)`.
    Store,
    /// The empty set of the given element sort (0 arguments).
    EmptySet(Sort),
    /// Singleton set `{x}` (1 argument).
    Singleton,
    /// Set union (2 arguments).
    Union,
    /// Set intersection (2 arguments).
    Inter,
    /// Set difference (2 arguments).
    Diff,
    /// Set membership `Member(x, s)` (2 arguments).
    Member,
    /// Subset `Subset(s, t)` (2 arguments).
    Subset,
    /// Pointwise frame update `MapIte(modset, m_new, m_old)`: the map that
    /// equals `m_new` on elements of `modset` and `m_old` elsewhere. This is
    /// the "parameterized map update" of the generalized array theory.
    MapIte,
    /// Application of the named uninterpreted function to the arguments.
    App(String),
    /// Universal quantification over the named, sorted bound variables; the
    /// single argument is the body. Bound variables occur in the body as
    /// [`Op::Var`] terms with the same names. Only produced by the quantified
    /// (Dafny-style) encoding used for RQ3.
    Forall(Vec<(String, Sort)>),
}

/// A term: an operator applied to argument terms, with a result sort.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Term {
    /// The head operator.
    pub op: Op,
    /// The argument terms.
    pub args: Vec<TermId>,
    /// The sort of the term.
    pub sort: Sort,
}

/// An index identifying a hash-consed term inside its [`TermManager`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Owns and deduplicates all terms of a solving session.
///
/// # Example
/// ```
/// use ids_smt::{TermManager, Sort};
/// let mut tm = TermManager::new();
/// let x = tm.var("x", Sort::Int);
/// let y = tm.var("y", Sort::Int);
/// let e1 = tm.add(x, y);
/// let e2 = tm.add(x, y);
/// assert_eq!(e1, e2); // hash-consed
/// ```
#[derive(Clone, Debug, Default)]
pub struct TermManager {
    terms: Vec<Term>,
    // Each term is stored once, in `terms`. The interning index maps the
    // hash of a term's head and arguments to the newest term with that hash,
    // and `older[id]` chains to the next older one (`NO_TERM` ends the
    // chain); a lookup compares the candidates' `(op, args, sort)` against
    // `terms`, so a hit allocates nothing.
    // The sort is part of the interning key so that terms that agree on
    // operator and arguments but differ in sort stay distinct — most
    // importantly `Op::Var` constants, where the sort is the only thing
    // distinguishing `x: Loc` from `x: Int`. It is compared, not hashed, so
    // a lookup needs no owned sort.
    index: FxHashMap<u64, u32>,
    older: Vec<u32>,
    /// How many of the terms are `forall`s, so that a manager without one
    /// answers [`TermManager::has_quantifiers`] without a walk.
    foralls: usize,
    fresh_counter: u64,
    // The flattening buffer of `and`/`or`, kept between calls.
    flat: Vec<TermId>,
}

/// Ends a chain of [`TermManager`]'s interning index.
const NO_TERM: u32 = u32::MAX;

/// A term's head as the interning index sees it: an operator, or the name
/// of a `Var`/`App` that is not owned yet. A name hashes and compares like
/// the operator that would own it.
#[derive(Clone, Copy, Hash)]
enum Head<'a> {
    Op(&'a Op),
    Var(&'a str),
    App(&'a str),
}

impl<'a> Head<'a> {
    /// `Var`/`App` operators as names, so both spellings hash alike.
    fn normal(self) -> Head<'a> {
        match self {
            Head::Op(Op::Var(n)) => Head::Var(n),
            Head::Op(Op::App(n)) => Head::App(n),
            h => h,
        }
    }

    fn matches(self, op: &Op) -> bool {
        match (self.normal(), op) {
            (Head::Var(n), Op::Var(m)) | (Head::App(n), Op::App(m)) => n == m,
            (Head::Op(a), b) => a == b,
            _ => false,
        }
    }
}

/// Where [`TermManager::find`] would put a term it did not find: the
/// index hash and the chain the new term heads.
#[derive(Clone, Copy)]
struct Slot {
    hash: u64,
    newest: u32,
}

/// A point [`TermManager::truncate_to`] rolls the manager back to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermMark {
    len: usize,
    fresh_counter: u64,
}

/// True if `sort` is `Set(elem)`.
fn is_set_of(sort: &Sort, elem: &Sort) -> bool {
    matches!(sort, Sort::Set(e) if **e == *elem)
}

impl TermManager {
    /// Creates an empty term manager.
    pub fn new() -> TermManager {
        TermManager::default()
    }

    /// Number of distinct terms created so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the term structure behind an id.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// Returns the sort of a term.
    pub fn sort(&self, id: TermId) -> &Sort {
        &self.terms[id.0 as usize].sort
    }

    /// Whether the manager holds a `forall` term. Without one every term is
    /// quantifier-free.
    pub fn has_quantifiers(&self) -> bool {
        self.foralls > 0
    }

    /// The current state, for [`TermManager::truncate_to`].
    pub fn mark(&self) -> TermMark {
        TermMark {
            len: self.terms.len(),
            fresh_counter: self.fresh_counter,
        }
    }

    /// Rolls the manager back to `mark`: drops every term created since,
    /// with its interning-index entry, and restores the fresh-name counter,
    /// so the manager then numbers terms and names exactly as it did at
    /// the mark.
    pub fn truncate_to(&mut self, mark: TermMark) {
        if self.terms.len() > mark.len {
            // Chains run newest first: each entry moves to its newest kept
            // term. One sweep of the index costs less than rehashing every
            // dropped term when a method created many.
            let (older, kept) = (&self.older, mark.len as u32);
            self.index.retain(|_, newest| {
                while *newest != NO_TERM && *newest >= kept {
                    *newest = older[*newest as usize];
                }
                *newest != NO_TERM
            });
        }
        if self.foralls > 0 {
            let dropped = self.terms.get(mark.len..).unwrap_or(&[]);
            self.foralls -= dropped
                .iter()
                .filter(|t| matches!(t.op, Op::Forall(_)))
                .count();
        }
        self.terms.truncate(mark.len);
        self.older.truncate(mark.len);
        self.fresh_counter = mark.fresh_counter;
    }

    /// Interns a term, reusing an existing identical term when possible.
    pub fn mk(&mut self, op: Op, args: Vec<TermId>, sort: Sort) -> TermId {
        match self.find(Head::Op(&op), &args, |s| *s == sort) {
            Ok(id) => id,
            Err(slot) => self.insert(slot, op, args, sort),
        }
    }

    /// The interned term with this head, arguments and a sort `is_sort`
    /// accepts, or the slot a new one would take.
    fn find(
        &self,
        head: Head<'_>,
        args: &[TermId],
        is_sort: impl Fn(&Sort) -> bool,
    ) -> Result<TermId, Slot> {
        let hash = FxBuildHasher.hash_one((head.normal(), args));
        let newest = self.index.get(&hash).copied().unwrap_or(NO_TERM);
        let mut id = newest;
        while id != NO_TERM {
            let t = &self.terms[id as usize];
            if t.args == args && head.matches(&t.op) && is_sort(&t.sort) {
                return Ok(TermId(id));
            }
            id = self.older[id as usize];
        }
        Err(Slot { hash, newest })
    }

    /// Adds a term [`TermManager::find`] did not find, at its slot.
    fn insert(&mut self, slot: Slot, op: Op, args: Vec<TermId>, sort: Sort) -> TermId {
        let id = self.terms.len() as u32;
        self.index.insert(slot.hash, id);
        self.older.push(slot.newest);
        if let Op::Forall(_) = op {
            self.foralls += 1;
        }
        self.terms.push(Term { op, args, sort });
        TermId(id)
    }

    /// Interns `op(args)` of sort `sort`, cloning the three only for a new
    /// term.
    fn intern(&mut self, op: &Op, args: &[TermId], sort: &Sort) -> TermId {
        match self.find(Head::Op(op), args, |s| s == sort) {
            Ok(id) => id,
            Err(slot) => self.insert(slot, op.clone(), args.to_vec(), sort.clone()),
        }
    }

    /// Interns `op(args)` with the sort of the term `like`.
    fn intern_sorted_as(&mut self, op: &Op, args: &[TermId], like: TermId) -> TermId {
        let sort = self.sort(like);
        match self.find(Head::Op(op), args, |s| s == sort) {
            Ok(id) => id,
            Err(slot) => {
                let sort = sort.clone();
                self.insert(slot, op.clone(), args.to_vec(), sort)
            }
        }
    }

    /// Returns a variable name guaranteed not to have been produced before by
    /// this method (used for Skolem witnesses and Tseitin-style fresh symbols).
    pub fn fresh_name(&mut self, prefix: impl fmt::Display) -> String {
        self.fresh_counter += 1;
        format!("{}!{}", prefix, self.fresh_counter)
    }

    /// Creates a fresh variable with the given prefix and sort.
    pub fn fresh_var(&mut self, prefix: impl fmt::Display, sort: Sort) -> TermId {
        let name = self.fresh_name(prefix);
        match self.find(Head::Var(&name), &[], |s| *s == sort) {
            Ok(id) => id,
            Err(slot) => self.insert(slot, Op::Var(name), Vec::new(), sort),
        }
    }

    // ---------------------------------------------------------------- core

    /// The constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.intern(&Op::True, &[], &Sort::Bool)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.intern(&Op::False, &[], &Sort::Bool)
    }

    /// A named free constant of the given sort.
    pub fn var(&mut self, name: &str, sort: Sort) -> TermId {
        match self.find(Head::Var(name), &[], |s| *s == sort) {
            Ok(id) => id,
            Err(slot) => self.insert(slot, Op::Var(name.to_string()), Vec::new(), sort),
        }
    }

    /// Boolean negation, with double-negation and constant folding.
    pub fn not(&mut self, t: TermId) -> TermId {
        match self.term(t).op {
            Op::True => self.fls(),
            Op::False => self.tru(),
            Op::Not => self.term(t).args[0],
            _ => self.intern(&Op::Not, &[t], &Sort::Bool),
        }
    }

    /// N-ary conjunction with flattening and unit/zero folding.
    pub fn and(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        self.connective(Op::And, ts)
    }

    /// N-ary disjunction with flattening and unit/zero folding.
    pub fn or(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        self.connective(Op::Or, ts)
    }

    /// `and` (`op` = `And`) or `or` (`Or`): flattens nested `op`s into one
    /// buffer, drops units, stops at a zero and dedups neighbours.
    fn connective(&mut self, op: Op, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let (unit, zero) = match op {
            Op::And => (Op::True, Op::False),
            _ => (Op::False, Op::True),
        };
        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        for t in ts {
            let term = self.term(t);
            if term.op == unit {
                continue;
            }
            if term.op == zero {
                self.flat = flat;
                return self.intern(&zero, &[], &Sort::Bool);
            }
            if term.op == op {
                flat.extend_from_slice(&term.args);
            } else {
                flat.push(t);
            }
        }
        flat.dedup();
        let r = match flat.len() {
            0 => self.intern(&unit, &[], &Sort::Bool),
            1 => flat[0],
            _ => self.intern(&op, &flat, &Sort::Bool),
        };
        self.flat = flat;
        r
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and([a, b])
    }

    /// Binary disjunction.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or([a, b])
    }

    /// Implication `a => b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        if self.term(a).op == Op::True {
            return b;
        }
        if self.term(a).op == Op::False {
            return self.tru();
        }
        if self.term(b).op == Op::True {
            return self.tru();
        }
        self.intern(&Op::Implies, &[a, b], &Sort::Bool)
    }

    /// Bi-implication `a <=> b`.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        self.intern(&Op::Iff, &[a, b], &Sort::Bool)
    }

    /// If-then-else. For Boolean branches this is kept as `Ite` and handled by
    /// the CNF conversion; for other sorts it is eliminated by the lowering
    /// pass.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        match self.term(c).op {
            Op::True => return t,
            Op::False => return e,
            _ => {}
        }
        if t == e {
            return t;
        }
        debug_assert_eq!(self.sort(t), self.sort(e), "ite branch sorts differ");
        self.intern_sorted_as(&Op::Ite, &[c, t, e], t)
    }

    /// Equality. Boolean equalities are turned into `Iff`.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        if self.sort(a) == &Sort::Bool {
            return self.iff(a, b);
        }
        // Order arguments for better sharing.
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        // Constant folding on numeric literals.
        if let (Op::IntLit(x), Op::IntLit(y)) = (&self.term(a).op, &self.term(b).op) {
            return if x == y { self.tru() } else { self.fls() };
        }
        self.intern(&Op::Eq, &[a, b], &Sort::Bool)
    }

    /// Disequality `a != b`.
    pub fn neq(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Pairwise distinctness of all arguments.
    pub fn distinct(&mut self, ts: Vec<TermId>) -> TermId {
        if ts.len() <= 1 {
            return self.tru();
        }
        self.mk(Op::Distinct, ts, Sort::Bool)
    }

    // ---------------------------------------------------------- arithmetic

    /// Integer literal.
    pub fn int(&mut self, n: i128) -> TermId {
        self.intern(&Op::IntLit(n), &[], &Sort::Int)
    }

    /// Rational literal.
    pub fn real(&mut self, r: Rat) -> TermId {
        self.intern(&Op::RealLit(r), &[], &Sort::Real)
    }

    fn numeric_sort(&self, ts: &[TermId]) -> Sort {
        if ts.iter().any(|t| self.sort(*t) == &Sort::Real) {
            Sort::Real
        } else {
            Sort::Int
        }
    }

    /// Binary addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let sort = self.numeric_sort(&[a, b]);
        self.intern(&Op::Add, &[a, b], &sort)
    }

    /// N-ary addition.
    pub fn add_many(&mut self, ts: Vec<TermId>) -> TermId {
        let sort = self.numeric_sort(&ts);
        if ts.len() == 1 {
            return ts[0];
        }
        self.mk(Op::Add, ts, sort)
    }

    /// Binary subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let sort = self.numeric_sort(&[a, b]);
        self.intern(&Op::Sub, &[a, b], &sort)
    }

    /// Numeric negation.
    pub fn neg(&mut self, a: TermId) -> TermId {
        self.intern_sorted_as(&Op::Neg, &[a], a)
    }

    /// Multiplication of a term by a rational constant.
    pub fn mul_const(&mut self, k: Rat, a: TermId) -> TermId {
        if k == Rat::ONE {
            return a;
        }
        let sort = if k.is_integer() && self.sort(a) == &Sort::Int {
            Sort::Int
        } else {
            Sort::Real
        };
        self.intern(&Op::MulConst(k), &[a], &sort)
    }

    /// `a <= b`.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(&Op::Le, &[a, b], &Sort::Bool)
    }

    /// `a < b`.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(&Op::Lt, &[a, b], &Sort::Bool)
    }

    /// `a >= b` (normalized to `b <= a`).
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a > b` (normalized to `b < a`).
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    // ------------------------------------------------------------- arrays

    /// Array read `a[i]`.
    pub fn select(&mut self, a: TermId, i: TermId) -> TermId {
        let sort = match self.sort(a) {
            Sort::Array(_, to) => &**to,
            s => panic!("select on non-array sort {}", s),
        };
        match self.find(Head::Op(&Op::Select), &[a, i], |s| s == sort) {
            Ok(id) => id,
            Err(slot) => {
                let sort = sort.clone();
                self.insert(slot, Op::Select, vec![a, i], sort)
            }
        }
    }

    /// Array write `a[i := v]`.
    pub fn store(&mut self, a: TermId, i: TermId, v: TermId) -> TermId {
        self.intern_sorted_as(&Op::Store, &[a, i, v], a)
    }

    /// Pointwise frame update `ite(modset, m_new, m_old)` over whole maps.
    pub fn map_ite(&mut self, modset: TermId, m_new: TermId, m_old: TermId) -> TermId {
        self.intern_sorted_as(&Op::MapIte, &[modset, m_new, m_old], m_old)
    }

    // --------------------------------------------------------------- sets

    /// The empty set of the given element sort.
    pub fn empty_set(&mut self, elem: Sort) -> TermId {
        match self.find(Head::Op(&Op::EmptySet(elem.clone())), &[], |s| {
            is_set_of(s, &elem)
        }) {
            Ok(id) => id,
            Err(slot) => {
                let op = Op::EmptySet(elem.clone());
                self.insert(slot, op, Vec::new(), Sort::set_of(elem))
            }
        }
    }

    /// The singleton set `{x}`.
    pub fn singleton(&mut self, x: TermId) -> TermId {
        let elem = self.sort(x);
        match self.find(Head::Op(&Op::Singleton), &[x], |s| is_set_of(s, elem)) {
            Ok(id) => id,
            Err(slot) => {
                let sort = Sort::set_of(elem.clone());
                self.insert(slot, Op::Singleton, vec![x], sort)
            }
        }
    }

    /// Set union.
    pub fn union(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern_sorted_as(&Op::Union, &[a, b], a)
    }

    /// Set intersection.
    pub fn inter(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern_sorted_as(&Op::Inter, &[a, b], a)
    }

    /// Set difference `a \ b`.
    pub fn diff(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern_sorted_as(&Op::Diff, &[a, b], a)
    }

    /// Set membership `x ∈ s`.
    pub fn member(&mut self, x: TermId, s: TermId) -> TermId {
        self.intern(&Op::Member, &[x, s], &Sort::Bool)
    }

    /// Subset `s ⊆ t`.
    pub fn subset(&mut self, s: TermId, t: TermId) -> TermId {
        self.intern(&Op::Subset, &[s, t], &Sort::Bool)
    }

    // ---------------------------------------------------- applications etc.

    /// Application of the named uninterpreted function.
    pub fn app(&mut self, name: &str, args: Vec<TermId>, sort: Sort) -> TermId {
        match self.find(Head::App(name), &args, |s| *s == sort) {
            Ok(id) => id,
            Err(slot) => self.insert(slot, Op::App(name.to_string()), args, sort),
        }
    }

    /// Universal quantification (quantified encoding mode only).
    pub fn forall(&mut self, bound: Vec<(String, Sort)>, body: TermId) -> TermId {
        if bound.is_empty() {
            return body;
        }
        self.mk(Op::Forall(bound), vec![body], Sort::Bool)
    }

    /// Substitutes, in `t`, every occurrence of variables named in `map` by
    /// the associated term. Used for quantifier instantiation.
    pub fn substitute(&mut self, t: TermId, map: &HashMap<String, TermId>) -> TermId {
        let mut cache: HashMap<TermId, TermId> = HashMap::new();
        self.subst_rec(t, map, &mut cache)
    }

    fn subst_rec(
        &mut self,
        t: TermId,
        map: &HashMap<String, TermId>,
        cache: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let term = self.term(t).clone();
        let result = match &term.op {
            Op::Var(name) => {
                if let Some(&r) = map.get(name) {
                    r
                } else {
                    t
                }
            }
            Op::Forall(bound) => {
                // Do not substitute shadowed variables.
                let mut inner = map.clone();
                for (name, _) in bound {
                    inner.remove(name);
                }
                let body = self.subst_rec(term.args[0], &inner, &mut HashMap::new());
                self.mk(term.op.clone(), vec![body], term.sort.clone())
            }
            _ => {
                let args: Vec<TermId> = term
                    .args
                    .iter()
                    .map(|a| self.subst_rec(*a, map, cache))
                    .collect();
                if args == term.args {
                    t
                } else {
                    self.mk(term.op.clone(), args, term.sort.clone())
                }
            }
        };
        cache.insert(t, result);
        result
    }

    /// Imports terms from another manager into this one, returning the ids of
    /// `roots` in `self`. Structurally identical terms — whether imported
    /// earlier, from a different source manager, or built directly — map to
    /// the same id (interning is the cross-manager hash-consing the
    /// structure-scoped solver pools rely on: the hypothesis prelude shared
    /// by all methods of a structure collapses to one set of term ids).
    ///
    /// `memo` caches source→destination id mappings and may be reused across
    /// calls importing from the *same* source manager.
    ///
    /// The destination's fresh-name counter is raised to at least the
    /// source's, so names minted here after the import cannot collide with
    /// imported fresh names.
    pub fn import(
        &mut self,
        src: &TermManager,
        roots: &[TermId],
        memo: &mut HashMap<TermId, TermId>,
    ) -> Vec<TermId> {
        self.fresh_counter = self.fresh_counter.max(src.fresh_counter);
        let mut args = Vec::new();
        // Iterative post-order over the source DAG (formulas can be deep).
        for &root in roots {
            let mut stack = vec![root];
            while let Some(&t) = stack.last() {
                if memo.contains_key(&t) {
                    stack.pop();
                    continue;
                }
                let term = src.term(t);
                let mut ready = true;
                for &a in &term.args {
                    if !memo.contains_key(&a) {
                        ready = false;
                        stack.push(a);
                    }
                }
                if !ready {
                    continue;
                }
                args.clear();
                args.extend(term.args.iter().map(|a| memo[a]));
                let id = self.intern(&term.op, &args, &term.sort);
                memo.insert(t, id);
                stack.pop();
            }
        }
        roots.iter().map(|r| memo[r]).collect()
    }

    /// Collects the set of all sub-terms of `roots` (including the roots), in
    /// no particular order.
    pub fn subterms(&self, roots: &[TermId]) -> Vec<TermId> {
        let mut seen = vec![false; self.terms.len()];
        let mut stack: Vec<TermId> = roots.to_vec();
        let mut out = Vec::new();
        while let Some(t) = stack.pop() {
            let idx = t.0 as usize;
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            out.push(t);
            stack.extend(self.term(t).args.iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        assert_eq!(tm.add(x, y), tm.add(x, y));
        assert_ne!(tm.add(x, y), tm.add(y, x));
    }

    #[test]
    fn var_dedup_is_per_name_and_sort() {
        // Two variables sharing a name but not a sort must stay distinct
        // terms; dedup by name alone would alias them (and hand back the
        // first sort for both).
        let mut tm = TermManager::new();
        let x_loc = tm.var("x", Sort::Loc);
        let x_int = tm.var("x", Sort::Int);
        assert_ne!(x_loc, x_int);
        assert_eq!(tm.sort(x_loc), &Sort::Loc);
        assert_eq!(tm.sort(x_int), &Sort::Int);
        // Same name and sort still dedups.
        assert_eq!(x_loc, tm.var("x", Sort::Loc));
    }

    #[test]
    fn boolean_folding() {
        let mut tm = TermManager::new();
        let t = tm.tru();
        let f = tm.fls();
        let p = tm.var("p", Sort::Bool);
        assert_eq!(tm.and(vec![t, p]), p);
        assert_eq!(tm.and(vec![f, p]), f);
        assert_eq!(tm.or(vec![f, p]), p);
        assert_eq!(tm.or(vec![t, p]), t);
        let np = tm.not(p);
        assert_eq!(tm.not(np), p);
    }

    #[test]
    fn eq_folding() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        assert_eq!(tm.eq(x, x), tm.tru());
        let a = tm.int(1);
        let b = tm.int(2);
        assert_eq!(tm.eq(a, b), tm.fls());
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let e = tm.eq(p, q);
        assert_eq!(tm.term(e).op, Op::Iff);
    }

    #[test]
    fn ite_folding() {
        let mut tm = TermManager::new();
        let c = tm.var("c", Sort::Bool);
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let t = tm.tru();
        assert_eq!(tm.ite(t, x, y), x);
        assert_eq!(tm.ite(c, x, x), x);
    }

    #[test]
    fn container_sorts() {
        let mut tm = TermManager::new();
        let loc_set = Sort::set_of(Sort::Loc);
        let s = tm.var("s", loc_set.clone());
        let x = tm.var("x", Sort::Loc);
        let m = tm.member(x, s);
        assert_eq!(tm.sort(m), &Sort::Bool);
        let arr = tm.var("next", Sort::array_of(Sort::Loc, Sort::Loc));
        let sel = tm.select(arr, x);
        assert_eq!(tm.sort(sel), &Sort::Loc);
        let st = tm.store(arr, x, x);
        assert_eq!(tm.sort(st), tm.sort(arr));
    }

    #[test]
    fn substitution() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let e = tm.add(x, y);
        let mut map = HashMap::new();
        let z = tm.var("z", Sort::Int);
        map.insert("x".to_string(), z);
        let e2 = tm.substitute(e, &map);
        assert_eq!(e2, tm.add(z, y));
    }

    #[test]
    fn import_hash_conses_across_managers() {
        // Two source managers built in different orders: importing the "same"
        // formula from both must yield one shared term id.
        let mut a = TermManager::new();
        let xa = a.var("x", Sort::Int);
        let ya = a.var("y", Sort::Int);
        let fa = {
            let s = a.add(xa, ya);
            a.le(s, xa)
        };

        let mut b = TermManager::new();
        let _noise = b.var("noise", Sort::Bool);
        let yb = b.var("y", Sort::Int);
        let xb = b.var("x", Sort::Int);
        let fb = {
            let s = b.add(xb, yb);
            b.le(s, xb)
        };

        let mut shared = TermManager::new();
        let ia = shared.import(&a, &[fa], &mut HashMap::new())[0];
        let ib = shared.import(&b, &[fb], &mut HashMap::new())[0];
        assert_eq!(ia, ib);
        // The imported term is structurally intact.
        assert_eq!(
            crate::hash::structural_hash(&a, fa),
            crate::hash::structural_hash(&shared, ia)
        );
    }

    #[test]
    fn import_syncs_fresh_counter() {
        let mut src = TermManager::new();
        let v = src.fresh_var("w", Sort::Loc);
        let mut dst = TermManager::new();
        let iv = dst.import(&src, &[v], &mut HashMap::new())[0];
        // A fresh name minted after the import must not collide with the
        // imported fresh name.
        let fresh = dst.fresh_var("w", Sort::Loc);
        assert_ne!(iv, fresh);
        assert_ne!(dst.term(iv).op, dst.term(fresh).op);
    }

    /// A xorshift draw below `n`.
    fn below(rng: &mut u64, n: usize) -> usize {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % n as u64) as usize
    }

    /// The interning key of the full-key table below: `(op, args, sort)`.
    type Key = (Op, Vec<TermId>, Sort);

    /// A random `mk` input over every `Op` shape, with arguments drawn from
    /// the `existing` terms (structural interning does not check sorts).
    /// Small name and literal pools make inputs repeat, and make `Var`s that
    /// differ only by sort.
    fn random_key(rng: &mut u64, existing: usize) -> Key {
        let mut next = |n: usize| below(rng, n);
        let sorts = [
            Sort::Bool,
            Sort::Int,
            Sort::Real,
            Sort::Loc,
            Sort::set_of(Sort::Loc),
            Sort::array_of(Sort::Loc, Sort::Int),
        ];
        let sort = sorts[next(sorts.len())].clone();
        let names = ["x", "y", "next"];
        let name = names[next(names.len())].to_string();
        let k = i128::try_from(next(3)).expect("small") - 1;
        let op = match next(31) {
            0 => Op::True,
            1 => Op::False,
            2 => Op::Not,
            3 => Op::And,
            4 => Op::Or,
            5 => Op::Implies,
            6 => Op::Iff,
            7 => Op::Ite,
            8 => Op::Eq,
            9 => Op::Distinct,
            10 => Op::Var(name),
            11 => Op::IntLit(k),
            12 => Op::RealLit(Rat::new(k, 2)),
            13 => Op::Add,
            14 => Op::Sub,
            15 => Op::Neg,
            16 => Op::MulConst(Rat::new(k, 3)),
            17 => Op::Le,
            18 => Op::Lt,
            19 => Op::Select,
            20 => Op::Store,
            21 => Op::EmptySet(sorts[next(sorts.len())].clone()),
            22 => Op::Singleton,
            23 => Op::Union,
            24 => Op::Inter,
            25 => Op::Diff,
            26 => Op::Member,
            27 => Op::Subset,
            28 => Op::MapIte,
            29 => Op::App(name),
            _ => Op::Forall(vec![(name, sort.clone())]),
        };
        let arity = match op {
            Op::True | Op::False | Op::Var(_) | Op::IntLit(_) | Op::RealLit(_) => 0,
            Op::EmptySet(_) => 0,
            _ if existing == 0 => 0,
            _ => next(4),
        };
        let args = (0..arity).map(|_| TermId(next(existing) as u32)).collect();
        (op, args, sort)
    }

    /// Interns `key` in `tm` and checks it against the full-key table of the
    /// previous scheme: a known key gets its id back, a new key the next id.
    fn check_mk(tm: &mut TermManager, table: &mut HashMap<Key, TermId>, key: &Key) {
        let want = table
            .get(key)
            .copied()
            .unwrap_or(TermId(table.len() as u32));
        let got = tm.mk(key.0.clone(), key.1.clone(), key.2.clone());
        assert_eq!(got, want, "{key:?}");
        table.entry(key.clone()).or_insert(got);
        assert_eq!(tm.len(), table.len());
    }

    /// Interning stores each term once yet answers exactly like the table
    /// keyed by the whole `(op, args, sort)`: through `mk`, through a cloned
    /// manager, and through `import`.
    #[test]
    fn interning_matches_a_full_key_table() {
        let mut rng = 0x1357_9bdf_2468_ace0u64;
        let mut tm = TermManager::new();
        let mut table: HashMap<Key, TermId> = HashMap::new();
        let mut keys: Vec<Key> = Vec::new();
        for _ in 0..4000 {
            let key = match keys.len() {
                n if n > 0 && below(&mut rng, 3) == 0 => keys[below(&mut rng, n)].clone(),
                _ => random_key(&mut rng, tm.len()),
            };
            check_mk(&mut tm, &mut table, &key);
            keys.push(key);
        }
        assert!(
            table.len() > 1000 && table.len() + 1000 < keys.len(),
            "{} distinct of {} inputs",
            table.len(),
            keys.len()
        );

        // A clone answers every old input with the old id, and interns new
        // ones exactly like the original.
        let mut cloned = tm.clone();
        let mut cloned_table = table.clone();
        for key in &keys {
            check_mk(&mut cloned, &mut cloned_table, key);
        }
        let mut rng_clone = rng;
        for _ in 0..500 {
            let key = random_key(&mut rng, tm.len());
            check_mk(&mut tm, &mut table, &key);
            let key = random_key(&mut rng_clone, cloned.len());
            check_mk(&mut cloned, &mut cloned_table, &key);
        }
        assert_eq!(cloned.len(), tm.len());

        // `import` interns through the same index: into a manager holding
        // some of the terms already, in another order, each imported term
        // gets the id the full-key table gives its translated key.
        let mut dst = TermManager::new();
        let mut dst_table: HashMap<Key, TermId> = HashMap::new();
        for _ in 0..300 {
            let key = random_key(&mut rng, dst.len());
            check_mk(&mut dst, &mut dst_table, &key);
        }
        let mut memo = HashMap::new();
        for (i, term) in tm.terms.clone().into_iter().enumerate() {
            let args = term.args.iter().map(|a| memo[a]).collect();
            let key = (term.op, args, term.sort);
            let want = dst_table
                .get(&key)
                .copied()
                .unwrap_or(TermId(dst_table.len() as u32));
            let got = dst.import(&tm, &[TermId(i as u32)], &mut memo)[0];
            assert_eq!(got, want, "{key:?}");
            dst_table.entry(key).or_insert(got);
            assert_eq!(dst.len(), dst_table.len());
        }
    }

    /// What `tm` does from here on: ids of a fixed mix of new and existing
    /// terms and a fresh name.
    fn continue_building(tm: &mut TermManager, x: TermId) -> (Vec<TermId>, String) {
        let one = tm.int(1);
        let s = tm.add(x, one);
        let le = tm.le(s, x);
        let w = tm.fresh_var("w", Sort::Int);
        let again = tm.le(s, x);
        let conj = tm.and2(le, again);
        (vec![one, s, le, w, again, conj], tm.fresh_name("n"))
    }

    #[test]
    fn truncate_to_restores_the_manager_at_the_mark() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let _ = tm.fresh_var("v", Sort::Loc);
        let mark = tm.mark();
        let mut reference = tm.clone();
        let expected = continue_building(&mut reference, x);

        // Terms and names made after the mark are forgotten; `x: Loc`
        // heads the index chain of the older `x: Int` (the sort is not
        // hashed) until then.
        let _ = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Int);
        let two = tm.int(2);
        let _ = tm.add(x, y);
        let _ = tm.le(two, y);
        let _ = continue_building(&mut tm, y);
        tm.truncate_to(mark);
        assert_eq!(tm.mark(), mark);
        assert_eq!(continue_building(&mut tm, x), expected);
        assert_eq!(tm.len(), reference.len());
        // Terms from before the mark still intern to their ids.
        assert_eq!(tm.var("x", Sort::Int), x);
    }

    #[test]
    fn forall_count_follows_interning_and_truncation() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let p = tm.app("p", vec![x], Sort::Bool);
        assert!(!tm.has_quantifiers());
        let mark = tm.mark();
        let all = tm.forall(vec![("x".into(), Sort::Loc)], p);
        assert_eq!(tm.forall(vec![("x".into(), Sort::Loc)], p), all);
        let not_all = tm.not(all);
        assert!(tm.has_quantifiers());
        tm.truncate_to(mark);
        assert!(!tm.has_quantifiers());
        // The truncated ids are reused by quantifier-free terms.
        let q = tm.var("q", Sort::Bool);
        let not_q = tm.not(q);
        assert_eq!((q, not_q), (all, not_all));
        assert!(!tm.has_quantifiers());
    }

    #[test]
    fn subterms_collects_all() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let s = tm.add(x, y);
        let l = tm.le(s, x);
        let subs = tm.subterms(&[l]);
        assert!(subs.contains(&x) && subs.contains(&y) && subs.contains(&s) && subs.contains(&l));
    }
}
