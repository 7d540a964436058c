//! `ids-vcgen` — verification-condition generation for the IVL.
//!
//! This crate plays the role Boogie's VC generator plays in the paper: it
//! turns an (FWYB-expanded) IVL procedure into a set of logical validity
//! queries over the theories supported by [`ids_smt`].
//!
//! The heap is modelled exactly as described in §3.7 / Appendix A.3 of the
//! paper:
//!
//! * every field and ghost monadic map `f` becomes a map variable
//!   `Array(Loc, T)`; reads are `select`, writes are `store`;
//! * allocation is modelled with a ghost set `Alloc`: fresh objects are
//!   assumed outside `Alloc` (and `!= nil`), then added; reachable locations
//!   are assumed inside `Alloc`;
//! * heap change across procedure calls is framed with the callee's
//!   `modifies` set. In the **decidable encoding** the new map is the
//!   pointwise update `MapIte(mod, havoc, old)` (a parameterized map update of
//!   the generalized array theory); in the **quantified encoding** (used only
//!   to reproduce the paper's RQ3 comparison against Dafny) the frame is a
//!   universally quantified formula.
//!
//! Loops are cut at invariants, calls are replaced by their contracts, and
//! the body is symbolically executed with if-join merging (`ite` on the
//! changed state), producing **one verification condition per `assert`** — the
//! same "split on every assert" discipline the paper uses (max-VC-splits in
//! Boogie).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod engine;
pub mod qfcheck;

use ids_ivl::Program;
use ids_smt::{
    structural_hashes, IncrementalSolver, SatResult, Solver, SolverConfig, SolverStats, TermId,
    TermManager,
};

pub use encode::sort_of_type;
pub use qfcheck::{theory_profile, TheoryProfile};

/// The solver configuration matching an encoding mode.
pub fn solver_config(encoding: Encoding) -> SolverConfig {
    match encoding {
        Encoding::Decidable => SolverConfig::default(),
        Encoding::Quantified => SolverConfig::quantified(),
    }
}

/// Checks one VC formula for validity with a fresh solver.
///
/// This is the single-query building block the batch driver schedules across
/// worker threads; [`VcGen::verify`] is the sequential loop over it. Returns
/// the solver verdict ([`SatResult::Sat`] means *valid*, the semantics of
/// [`ids_smt::Solver::check_valid`]) together with the solver statistics of
/// the query.
pub fn check_formula(
    tm: &mut TermManager,
    formula: TermId,
    encoding: Encoding,
) -> (SatResult, SolverStats) {
    let mut solver = Solver::with_config(solver_config(encoding));
    let result = solver.check_valid(tm, formula);
    (result, solver.stats())
}

/// The hypothesis split of several methods of one data structure: a
/// *structure-common prelude* every method starts with, identified across the
/// methods' (independent) term managers by stable structural hashing
/// ([`ids_smt::hash`]), and a per-method residue.
///
/// Every method of a structure is verified against the same intrinsic local
/// conditions, so the leading hypotheses — `nil ∉ Alloc`, parameter typing,
/// shared `requires` conjuncts — are byte-identical across methods. A
/// structure-scoped warm solver pool asserts that prelude once, at structure
/// scope, instead of once per method.
///
/// The prelude is a *prefix* (hypothesis lists are positional and VC `i`
/// depends on exactly `hypotheses[..n_hyps]`), and it is capped at the
/// smallest first-VC `n_hyps` across the grouped methods: asserting a
/// hypothesis at structure scope before some VC's prefix reaches it would
/// add hypotheses that VC must not see, changing verdicts.
#[derive(Clone, Debug, Default)]
pub struct StructureVcs {
    /// Number of leading hypotheses shared by every grouped method.
    pub prelude_len: usize,
    /// Structural hashes of the shared prelude hypotheses, in order.
    pub prelude_hashes: Vec<u128>,
}

impl StructureVcs {
    /// Groups methods — each given as its term manager, hypothesis list and
    /// VC list — into the common-prelude split. Methods without VCs never
    /// assert hypotheses and are ignored; grouping zero (effective) methods
    /// yields an empty prelude.
    pub fn group(methods: &[(&TermManager, &[TermId], &[Vc])]) -> StructureVcs {
        let mut prelude: Option<Vec<u128>> = None;
        for (tm, hypotheses, vcs) in methods {
            let Some(first_vc) = vcs.first() else {
                continue;
            };
            // No hypothesis beyond the first VC's prefix may be asserted at
            // structure scope for this method.
            let cap = first_vc.n_hyps.min(hypotheses.len());
            let hashes = structural_hashes(tm, &hypotheses[..cap]);
            prelude = Some(match prelude {
                None => hashes,
                Some(mut common) => {
                    let lcp = common
                        .iter()
                        .zip(&hashes)
                        .take_while(|(a, b)| a == b)
                        .count();
                    common.truncate(lcp);
                    common
                }
            });
        }
        let prelude_hashes = prelude.unwrap_or_default();
        StructureVcs {
            prelude_len: prelude_hashes.len(),
            prelude_hashes,
        }
    }
}

/// The session-aware sibling of [`check_formula`]: one incremental solver
/// shared across all VCs of a method — or, with the structure-scope entry
/// points, across all methods of a structure.
///
/// In the per-method shape (PR 3), the session asserts the method's
/// hypothesis list once — incrementally, as successive VCs bring more of the
/// (monotone) prefix into scope — and checks each goal as `push; assert
/// guard; assert ¬goal; check; pop`, so the heap axioms, local-condition
/// definitions and typing hypotheses of the method are lowered and
/// clause-converted exactly once instead of once per VC.
///
/// In the structure-pool shape, [`VcSession::assert_prelude`] first pins the
/// structure-common hypothesis prelude (see [`StructureVcs`]) at structure
/// scope; each method is then bracketed by [`VcSession::begin_method`] /
/// [`VcSession::end_method`], which map to the solver's method scope: the
/// method's residue hypotheses and everything derived from them are retracted
/// and rolled back when the method ends, while the prelude's lowered state
/// survives for the next method.
///
/// Only the decidable encoding is supported (see [`VcSession::supports`]);
/// each method's VCs must be checked in generation order (their hypothesis
/// prefixes grow).
pub struct VcSession {
    solver: IncrementalSolver,
    /// How many leading hypotheses have been asserted so far (in the current
    /// method, for a structure pool).
    asserted: usize,
    /// How many leading hypotheses sit at structure scope.
    prelude: usize,
    /// Methods bracketed so far (structure pools credit the skipped prelude
    /// as reuse from the second method on).
    methods_begun: usize,
}

impl VcSession {
    /// True if the encoding can be discharged incrementally. The quantified
    /// (Dafny-style) RQ3 encoding performs whole-query quantifier
    /// instantiation and keeps using the fresh-solver path.
    pub fn supports(encoding: Encoding) -> bool {
        encoding == Encoding::Decidable
    }

    /// Creates a session for the decidable encoding.
    ///
    /// # Panics
    /// Panics if the encoding is unsupported — gate on
    /// [`VcSession::supports`] first.
    pub fn new(encoding: Encoding) -> VcSession {
        assert!(
            VcSession::supports(encoding),
            "incremental sessions require the decidable encoding"
        );
        VcSession {
            solver: IncrementalSolver::with_config(solver_config(encoding)),
            asserted: 0,
            prelude: 0,
            methods_begun: 0,
        }
    }

    /// Asserts the structure-common hypothesis prelude at structure scope
    /// (permanently). Must be called at most once, before any
    /// [`VcSession::begin_method`]; the same leading `prelude_len` hypotheses
    /// must be shared — as identical term ids — by every method subsequently
    /// checked through this session.
    ///
    /// # Panics
    /// Panics if hypotheses were already asserted or a method is open.
    pub fn assert_prelude(
        &mut self,
        tm: &mut TermManager,
        hypotheses: &[TermId],
        prelude_len: usize,
    ) {
        assert!(
            self.asserted == 0 && self.prelude == 0 && self.methods_begun == 0,
            "assert_prelude must come first"
        );
        let mut obs_span = ids_obs::span("prelude");
        obs_span.note(|| format!("hypotheses={prelude_len}"));
        for (i, &h) in hypotheses[..prelude_len].iter().enumerate() {
            self.solver.assert_tracked(tm, h, i as u32);
        }
        self.prelude = prelude_len;
        self.asserted = prelude_len;
    }

    /// Opens the next method's scope of a structure pool. The method's
    /// residue hypotheses (asserted by [`VcSession::check_vc`] as its VCs
    /// need them) and all facts derived from them are retracted — and the
    /// solver's lowering/theory state rolled back — by the matching
    /// [`VcSession::end_method`]; the prelude asserted via
    /// [`VcSession::assert_prelude`] stays warm across methods.
    pub fn begin_method(&mut self) {
        ids_obs::instant("method_scope_begin");
        self.solver.push_method_scope();
        self.asserted = self.prelude;
        if self.methods_begun > 0 {
            // The prelude this method would otherwise re-lower was answered
            // from structure-scope state: make the reuse observable.
            self.solver.note_prelude_reuse(self.prelude as u64);
        }
        self.methods_begun += 1;
    }

    /// Closes the current method's scope (see [`VcSession::begin_method`]).
    pub fn end_method(&mut self) {
        ids_obs::instant("method_scope_end");
        self.solver.pop_method_scope();
        self.asserted = self.prelude;
    }

    /// Checks one VC against the session state, under the full hypothesis
    /// prefix `hypotheses[..vc.n_hyps]`. Returns the same validity-oriented
    /// verdict as [`check_formula`] ([`SatResult::Sat`] means *valid*)
    /// together with the per-query solver statistics.
    ///
    /// The third return value reports which of the VC's `n_hyps` positional
    /// hypotheses the refutation used — `Some` (possibly empty: the goal
    /// needed no hypothesis at all) exactly when the verdict is Valid,
    /// `None` otherwise.
    ///
    /// # Panics
    /// Panics if the VC's hypothesis prefix is shorter than what the session
    /// already asserted (VCs checked out of order).
    pub fn check_vc(
        &mut self,
        tm: &mut TermManager,
        hypotheses: &[TermId],
        vc: &Vc,
    ) -> (SatResult, SolverStats, Option<Vec<u32>>) {
        assert!(
            vc.n_hyps >= self.asserted,
            "session VCs must be checked in generation order ({} hypotheses asserted, VC needs {})",
            self.asserted,
            vc.n_hyps
        );
        for (i, &h) in hypotheses[self.asserted..vc.n_hyps].iter().enumerate() {
            self.solver
                .assert_tracked(tm, h, (self.asserted + i) as u32);
        }
        self.asserted = vc.n_hyps;
        self.solver.push();
        self.solver.assert(tm, vc.guard);
        let neg_goal = tm.not(vc.goal);
        self.solver.assert(tm, neg_goal);
        let result = self.solver.check(tm);
        let stats = self.solver.stats();
        let core = (result == SatResult::Unsat).then(|| self.solver.last_core_tags().to_vec());
        self.solver.pop();
        let verdict = match result {
            SatResult::Unsat => SatResult::Sat, // valid
            SatResult::Sat => SatResult::Unsat, // counterexample exists
            SatResult::Unknown => SatResult::Unknown,
        };
        (verdict, stats, core)
    }
}

/// How frame conditions and allocation are encoded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Encoding {
    /// Quantifier-free encoding via parameterized (pointwise) map updates —
    /// the decidable encoding the paper advocates.
    #[default]
    Decidable,
    /// Dafny-style encoding with universally quantified frame axioms — used
    /// only for the RQ3 performance comparison.
    Quantified,
}

/// One verification condition: a formula that must be *valid*.
///
/// `formula` is the self-contained implication used by the fresh-solver path
/// (and by content-addressed caching — it is the hashed artifact). The
/// remaining fields expose the same VC *split* for incremental sessions:
/// `formula == (hypotheses[..n_hyps] ∧ guard) ⇒ goal`, where the hypothesis
/// list lives in [`MethodVcs::hypotheses`] and is shared — as a growing
/// prefix — by every VC of the method.
#[derive(Clone, Debug)]
pub struct Vc {
    /// Human-readable description (which assert, which line of the pipeline).
    pub description: String,
    /// The formula to prove valid.
    pub formula: TermId,
    /// How many leading entries of the method's hypothesis list are in scope.
    pub n_hyps: usize,
    /// The path guard under which the goal must hold.
    pub guard: TermId,
    /// The goal fact itself.
    pub goal: TermId,
}

/// All verification conditions of one method, with the shared hypothesis
/// list factored out for incremental solving.
///
/// The hypothesis list is *monotone*: VC `i` depends on the prefix
/// `hypotheses[..vcs[i].n_hyps]`, and `n_hyps` never decreases along `vcs`
/// (symbolic execution only accumulates assumptions). An incremental session
/// therefore asserts each hypothesis exactly once, in order, and checks each
/// goal in its own push/pop scope.
#[derive(Clone, Debug)]
pub struct MethodVcs {
    /// The accumulated hypotheses, in assumption order.
    pub hypotheses: Vec<TermId>,
    /// The verification conditions, in generation order.
    pub vcs: Vec<Vc>,
}

/// Errors during VC generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VcError {
    /// The procedure does not exist in the program.
    UnknownProcedure(String),
    /// The procedure has no body (nothing to verify).
    NoBody(String),
    /// A FWYB macro statement was not expanded before VC generation.
    UnexpandedMacro(String),
    /// An expression could not be encoded.
    Encoding(String),
}

impl std::fmt::Display for VcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcError::UnknownProcedure(p) => write!(f, "unknown procedure '{}'", p),
            VcError::NoBody(p) => write!(f, "procedure '{}' has no body", p),
            VcError::UnexpandedMacro(m) => {
                write!(f, "macro '{}' must be expanded before VC generation", m)
            }
            VcError::Encoding(msg) => write!(f, "encoding error: {}", msg),
        }
    }
}

impl std::error::Error for VcError {}

/// The outcome of running the solver over a procedure's VCs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// All verification conditions are valid.
    Verified {
        /// Number of VCs discharged.
        vcs: usize,
    },
    /// Some verification condition has a counterexample.
    Refuted {
        /// Description of the first failing VC.
        failed: String,
    },
    /// The solver could not decide some VC (should not happen in the
    /// decidable encoding).
    Unknown {
        /// Description of the first undecided VC.
        undecided: String,
    },
}

impl VerifyOutcome {
    /// True if the outcome is [`VerifyOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, VerifyOutcome::Verified { .. })
    }
}

/// The VC generator facade.
///
/// # Example
/// ```
/// use ids_ivl::parse_program;
/// use ids_vcgen::{VcGen, Encoding};
/// use ids_smt::TermManager;
///
/// let program = parse_program(r#"
///     field key: Int;
///     procedure bump(x: Loc)
///       requires x != nil;
///       ensures x.key == old(x.key) + 1;
///     {
///       x.key := x.key + 1;
///     }
/// "#).unwrap();
/// let mut tm = TermManager::new();
/// let vcgen = VcGen::new(&program, Encoding::Decidable);
/// let vcs = vcgen.vcs_for(&mut tm, "bump").unwrap();
/// assert!(!vcs.is_empty());
/// ```
pub struct VcGen<'a> {
    program: &'a Program,
    encoding: Encoding,
}

impl<'a> VcGen<'a> {
    /// Creates a generator for the given program and encoding mode.
    pub fn new(program: &'a Program, encoding: Encoding) -> VcGen<'a> {
        VcGen { program, encoding }
    }

    /// The program this generator works on.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The encoding mode.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Generates the verification conditions of the named procedure.
    pub fn vcs_for(&self, tm: &mut TermManager, proc_name: &str) -> Result<Vec<Vc>, VcError> {
        Ok(self.method_vcs(tm, proc_name)?.vcs)
    }

    /// Generates the verification conditions of the named procedure together
    /// with the shared hypothesis list (the input of an incremental session).
    pub fn method_vcs(&self, tm: &mut TermManager, proc_name: &str) -> Result<MethodVcs, VcError> {
        let proc = self
            .program
            .procedure(proc_name)
            .ok_or_else(|| VcError::UnknownProcedure(proc_name.to_string()))?;
        if proc.body.is_none() {
            return Err(VcError::NoBody(proc_name.to_string()));
        }
        engine::generate(tm, self.program, proc, self.encoding)
    }

    /// Generates and discharges the VCs of a procedure with the SMT solver.
    ///
    /// Returns the outcome together with the number of solver calls. VCs are
    /// checked in order; the first refuted/undecided VC stops the run.
    pub fn verify(&self, tm: &mut TermManager, proc_name: &str) -> Result<VerifyOutcome, VcError> {
        let vcs = self.vcs_for(tm, proc_name)?;
        for vc in &vcs {
            let (result, _) = check_formula(tm, vc.formula, self.encoding);
            match result {
                SatResult::Sat => {}
                SatResult::Unsat => {
                    return Ok(VerifyOutcome::Refuted {
                        failed: vc.description.clone(),
                    })
                }
                SatResult::Unknown => {
                    return Ok(VerifyOutcome::Unknown {
                        undecided: vc.description.clone(),
                    })
                }
            }
        }
        Ok(VerifyOutcome::Verified { vcs: vcs.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_program;

    fn verify_src(src: &str, proc: &str) -> VerifyOutcome {
        let program = parse_program(src).unwrap();
        ids_ivl::check_program(&program).unwrap();
        let mut tm = TermManager::new();
        VcGen::new(&program, Encoding::Decidable)
            .verify(&mut tm, proc)
            .unwrap()
    }

    #[test]
    fn empty_set_takes_the_declared_element_sort() {
        // `{}` next to a `Set<Int>` field whose name says nothing about
        // keys, next to a `Set<Int>` parameter, and next to a singleton of
        // an `Int` variable: each is the empty integer set, so nothing is a
        // member of it.
        let field = r#"
            field ghost vals: Set<Int>;
            procedure p(x: Loc)
              requires x != nil && x.vals == {};
              ensures !(3 in x.vals);
            {
            }
        "#;
        assert!(verify_src(field, "p").is_verified());
        let param = r#"
            procedure p(s: Set<Int>)
              requires s == {};
              ensures !(3 in s);
            {
            }
        "#;
        assert!(verify_src(param, "p").is_verified());
        let singleton = r#"
            procedure p(k: Int, s: Set<Int>)
              requires s == {k} && union({}, s) != {};
              ensures k in s;
            {
            }
        "#;
        assert!(verify_src(singleton, "p").is_verified());
    }

    #[test]
    fn empty_set_fits_any_set_type() {
        // `{}` right of `in` on an integer, as an `ite` branch beside a
        // `Set<Int>`, and assigned to a `Set<Int>` result: each typechecks
        // and is the empty integer set.
        let member = r#"
            procedure p(k: Int)
              ensures !(k in {});
            {
            }
        "#;
        assert!(verify_src(member, "p").is_verified());
        let ite = r#"
            procedure q(k: Int, s: Set<Int>)
              ensures ite(k > 0, {}, s) != {} ==> k <= 0;
            {
            }
        "#;
        assert!(verify_src(ite, "q").is_verified());
        let assign = r#"
            procedure r(k: Int) returns (t: Set<Int>)
              ensures !(k in t);
            {
              t := {};
            }
        "#;
        assert!(verify_src(assign, "r").is_verified());
    }

    #[test]
    fn session_verdicts_match_fresh_solver_per_vc() {
        // A method with branches, heap writes, set ghost state, a failing
        // assert in the middle and valid VCs after it: the incremental
        // session must reproduce the fresh solver's verdict on every VC.
        let program = parse_program(
            r#"
            field key: Int;
            field ghost keys: Set<Int>;
            procedure m(x: Loc, y: Loc, k: Int)
              requires x != nil && y != nil;
              ensures x.key >= 0 || x.key < 0;
            {
              x.key := k;
              x.keys := union(x.keys, {k});
              assert k in x.keys;
              if (x == y) {
                assert y.key == k;
              }
              assert x.key > 0;
              assert x.key == k;
            }
            "#,
        )
        .unwrap();
        ids_ivl::check_program(&program).unwrap();
        let mut tm = TermManager::new();
        let method = VcGen::new(&program, Encoding::Decidable)
            .method_vcs(&mut tm, "m")
            .unwrap();
        assert!(method.vcs.len() >= 4);
        let mut session = VcSession::new(Encoding::Decidable);
        let mut saw_refuted = false;
        for vc in &method.vcs {
            let (fresh, _) = check_formula(&mut tm, vc.formula, Encoding::Decidable);
            let (inc, inc_stats, _) = session.check_vc(&mut tm, &method.hypotheses, vc);
            assert_eq!(inc, fresh, "verdict diverged on: {}", vc.description);
            assert!(inc_stats.sat_propagations > 0);
            saw_refuted |= inc == SatResult::Unsat;
        }
        assert!(saw_refuted, "the test method should have a refuted VC");
    }

    #[test]
    fn valid_vcs_report_the_hypotheses_their_refutation_used() {
        // One assert that depends on exactly one of three requires: the
        // check reports a strict-subset core. A refuted VC reports none.
        let program = parse_program(
            r#"
            procedure m(x: Loc, k: Int, j: Int)
              requires x != nil;
              requires k > 10;
              requires j < 0;
            {
              assert k > 5;
              assert k > 100;
            }
            "#,
        )
        .unwrap();
        ids_ivl::check_program(&program).unwrap();
        let mut tm = TermManager::new();
        let method = VcGen::new(&program, Encoding::Decidable)
            .method_vcs(&mut tm, "m")
            .unwrap();
        assert_eq!(method.vcs.len(), 2);
        let mut session = VcSession::new(Encoding::Decidable);

        let vc = &method.vcs[0];
        let (verdict, stats, core) = session.check_vc(&mut tm, &method.hypotheses, vc);
        assert_eq!(verdict, SatResult::Sat);
        assert_eq!(stats.unsat_cores, 1);
        let core = core.expect("a Valid verdict must come with a core");
        assert!(
            !core.is_empty() && core.len() < vc.n_hyps,
            "expected a strict-subset core, got {core:?} of {} hypotheses",
            vc.n_hyps
        );

        let (verdict, _, core) = session.check_vc(&mut tm, &method.hypotheses, &method.vcs[1]);
        assert_eq!(verdict, SatResult::Unsat);
        assert!(core.is_none(), "refuted VCs carry no core");
    }

    #[test]
    fn structure_group_finds_common_prelude_and_caps_at_first_vc() {
        // Two methods with the same parameter shape and a shared leading
        // requires: the prelude covers the common prefix; the early assert
        // in `m2` caps it at m2's first-VC hypothesis count.
        let program = parse_program(
            r#"
            field key: Int;
            procedure m1(x: Loc, k: Int)
              requires x != nil;
              requires k > 0;
            {
              x.key := k;
              assert x.key == k;
            }
            procedure m2(x: Loc, k: Int)
              requires x != nil;
              requires k > 10;
            {
              assert k > 5;
              x.key := k;
            }
            "#,
        )
        .unwrap();
        ids_ivl::check_program(&program).unwrap();
        let gen = VcGen::new(&program, Encoding::Decidable);
        let mut tm1 = TermManager::new();
        let mv1 = gen.method_vcs(&mut tm1, "m1").unwrap();
        let mut tm2 = TermManager::new();
        let mv2 = gen.method_vcs(&mut tm2, "m2").unwrap();

        let group = StructureVcs::group(&[
            (&tm1, &mv1.hypotheses[..], &mv1.vcs[..]),
            (&tm2, &mv2.hypotheses[..], &mv2.vcs[..]),
        ]);
        // The methods share `nil ∉ Alloc`, x's typing and `x != nil` but
        // diverge at the second requires; both first VCs come after all
        // requires, so the cap does not bite here.
        assert!(
            group.prelude_len >= 3,
            "expected a common prelude, got {}",
            group.prelude_len
        );
        assert!(group.prelude_len <= mv1.vcs[0].n_hyps);
        assert!(group.prelude_len <= mv2.vcs[0].n_hyps);
        // The prelude really is hash-identical across the managers.
        for (i, h) in group.prelude_hashes.iter().enumerate() {
            assert_eq!(*h, ids_smt::structural_hash(&tm1, mv1.hypotheses[i]));
            assert_eq!(*h, ids_smt::structural_hash(&tm2, mv2.hypotheses[i]));
        }
        // A method whose first VC precedes most hypotheses caps the prelude.
        let capped = StructureVcs::group(&[
            (&tm1, &mv1.hypotheses[..], &mv1.vcs[..]),
            (&tm2, &mv2.hypotheses[..2], &mv2.vcs[..]),
        ]);
        assert!(capped.prelude_len <= 2);
        // Methods without VCs are ignored.
        let empty = StructureVcs::group(&[(&tm1, &mv1.hypotheses[..], &[][..])]);
        assert_eq!(empty.prelude_len, 0);
    }

    #[test]
    fn structure_pool_session_matches_fresh_solver_across_methods() {
        // Three methods of one "structure" — including one with a refuted VC
        // in the middle — checked through ONE structure-pool session over a
        // shared imported term manager: every verdict must match a fresh
        // one-shot solver on the self-contained formula, and the prelude must
        // be visibly reused from the second method on.
        let program = parse_program(
            r#"
            field key: Int;
            field ghost keys: Set<Int>;
            procedure a(x: Loc, k: Int)
              requires x != nil;
              ensures x.key == k;
            {
              x.key := k;
              x.keys := union(x.keys, {k});
              assert k in x.keys;
            }
            procedure b(x: Loc, k: Int)
              requires x != nil;
            {
              assert k in x.keys;
              x.key := k;
            }
            procedure c(x: Loc, k: Int)
              requires x != nil;
              ensures x.key >= 0 || x.key < 0;
            {
              x.key := k + 1;
              assert x.key == k + 1;
            }
            "#,
        )
        .unwrap();
        ids_ivl::check_program(&program).unwrap();
        let gen = VcGen::new(&program, Encoding::Decidable);
        let methods: Vec<(TermManager, MethodVcs)> = ["a", "b", "c"]
            .iter()
            .map(|m| {
                let mut tm = TermManager::new();
                let mv = gen.method_vcs(&mut tm, m).unwrap();
                (tm, mv)
            })
            .collect();
        let group = StructureVcs::group(
            &methods
                .iter()
                .map(|(tm, mv)| (tm, &mv.hypotheses[..], &mv.vcs[..]))
                .collect::<Vec<_>>(),
        );
        assert!(group.prelude_len > 0);

        // Import everything into one shared manager (what the core layer's
        // StructureSession does): identical prelude hypotheses collapse to
        // identical term ids.
        let mut shared = TermManager::new();
        let mut imported: Vec<(Vec<TermId>, Vec<Vc>)> = Vec::new();
        for (tm, mv) in &methods {
            let mut memo = std::collections::HashMap::new();
            let hyps = shared.import(tm, &mv.hypotheses, &mut memo);
            let vcs = mv
                .vcs
                .iter()
                .map(|vc| Vc {
                    description: vc.description.clone(),
                    formula: shared.import(tm, &[vc.formula], &mut memo)[0],
                    n_hyps: vc.n_hyps,
                    guard: shared.import(tm, &[vc.guard], &mut memo)[0],
                    goal: shared.import(tm, &[vc.goal], &mut memo)[0],
                })
                .collect();
            imported.push((hyps, vcs));
        }
        for (hyps, _) in &imported {
            assert_eq!(
                hyps[..group.prelude_len],
                imported[0].0[..group.prelude_len],
                "imported prelude must hash-cons to shared ids"
            );
        }

        let mut session = VcSession::new(Encoding::Decidable);
        session.assert_prelude(&mut shared, &imported[0].0, group.prelude_len);
        let mut saw_refuted = false;
        let mut saw_reuse = false;
        for (mi, (hyps, vcs)) in imported.iter().enumerate() {
            session.begin_method();
            for (vi, vc) in vcs.iter().enumerate() {
                let (pool, stats, _) = session.check_vc(&mut shared, hyps, vc);
                let (orig_tm, orig_mv) = &methods[mi];
                let mut tm = orig_tm.clone();
                let (fresh, _) =
                    check_formula(&mut tm, orig_mv.vcs[vi].formula, Encoding::Decidable);
                assert_eq!(pool, fresh, "verdict diverged on: {}", vc.description);
                saw_refuted |= pool == SatResult::Unsat;
                if mi > 0 && vi == 0 {
                    saw_reuse |= stats.prelude_reused >= group.prelude_len as u64;
                }
            }
            session.end_method();
        }
        assert!(saw_refuted, "method b's first assert should be refuted");
        assert!(saw_reuse, "later methods must reuse the prelude");
    }

    #[test]
    fn straight_line_field_update() {
        let out = verify_src(
            r#"
            field key: Int;
            procedure bump(x: Loc)
              requires x != nil;
              ensures x.key == old(x.key) + 1;
            {
              x.key := x.key + 1;
            }
            "#,
            "bump",
        );
        assert!(out.is_verified(), "{:?}", out);
    }

    #[test]
    fn wrong_postcondition_is_refuted() {
        let out = verify_src(
            r#"
            field key: Int;
            procedure bump(x: Loc)
              requires x != nil;
              ensures x.key == old(x.key) + 2;
            {
              x.key := x.key + 1;
            }
            "#,
            "bump",
        );
        assert!(matches!(out, VerifyOutcome::Refuted { .. }), "{:?}", out);
    }

    #[test]
    fn aliasing_is_respected() {
        // Writing through y must be visible through x when x == y.
        let out = verify_src(
            r#"
            field key: Int;
            procedure alias(x: Loc, y: Loc)
              requires x == y;
              ensures x.key == 5;
            {
              y.key := 5;
            }
            "#,
            "alias",
        );
        assert!(out.is_verified(), "{:?}", out);

        let out = verify_src(
            r#"
            field key: Int;
            procedure alias2(x: Loc, y: Loc)
              ensures x.key == 5;
            {
              y.key := 5;
            }
            "#,
            "alias2",
        );
        assert!(matches!(out, VerifyOutcome::Refuted { .. }), "{:?}", out);
    }

    #[test]
    fn branches_merge() {
        let out = verify_src(
            r#"
            field key: Int;
            procedure maxsel(x: Loc, y: Loc) returns (r: Loc)
              requires x != nil && y != nil;
              ensures r.key >= x.key && r.key >= y.key;
            {
              if (x.key >= y.key) {
                r := x;
              } else {
                r := y;
              }
            }
            "#,
            "maxsel",
        );
        assert!(out.is_verified(), "{:?}", out);
    }

    #[test]
    fn assert_failure_detected() {
        let out = verify_src(
            r#"
            field key: Int;
            procedure bad(x: Loc)
            {
              assert x.key > 0;
            }
            "#,
            "bad",
        );
        assert!(matches!(out, VerifyOutcome::Refuted { .. }));
    }

    #[test]
    fn loop_with_invariant() {
        let out = verify_src(
            r#"
            field next: Loc;
            procedure count(n: Int) returns (i: Int)
              requires n >= 0;
              ensures i == n;
            {
              i := 0;
              while (i < n)
                invariant i <= n;
              {
                i := i + 1;
              }
            }
            "#,
            "count",
        );
        assert!(out.is_verified(), "{:?}", out);
    }

    #[test]
    fn loop_invariant_entry_violation_detected() {
        let out = verify_src(
            r#"
            field next: Loc;
            procedure bad_loop(n: Int) returns (i: Int)
            {
              i := 1;
              while (i < n)
                invariant i == 0;
              {
                i := i + 1;
              }
            }
            "#,
            "bad_loop",
        );
        assert!(matches!(out, VerifyOutcome::Refuted { .. }));
    }

    #[test]
    fn allocation_is_fresh() {
        let out = verify_src(
            r#"
            field next: Loc;
            procedure fresh_alloc(x: Loc) returns (y: Loc)
              requires x != nil;
              ensures y != x && y != nil;
            {
              y := new();
            }
            "#,
            "fresh_alloc",
        );
        assert!(out.is_verified(), "{:?}", out);
    }

    #[test]
    fn call_uses_contract_and_frame() {
        let src = r#"
            field key: Int;
            field ghost hs: Set<Loc>;

            procedure set_to_five(a: Loc)
              requires a != nil;
              ensures a.key == 5;
              modifies {a};

            procedure caller(x: Loc, y: Loc) returns ()
              requires x != nil && y != nil && x != y && y.key == 7;
              ensures x.key == 5 && y.key == 7;
            {
              call set_to_five(x);
            }
        "#;
        let out = verify_src(src, "caller");
        assert!(out.is_verified(), "{:?}", out);
    }

    #[test]
    fn call_frame_violation_detected() {
        // Without x != y the frame cannot preserve y.key.
        let src = r#"
            field key: Int;

            procedure set_to_five(a: Loc)
              requires a != nil;
              ensures a.key == 5;
              modifies {a};

            procedure caller(x: Loc, y: Loc) returns ()
              requires x != nil && y != nil && y.key == 7;
              ensures y.key == 7;
            {
              call set_to_five(x);
            }
        "#;
        let out = verify_src(src, "caller");
        assert!(matches!(out, VerifyOutcome::Refuted { .. }), "{:?}", out);
    }

    #[test]
    fn quantified_encoding_also_verifies() {
        let src = r#"
            field key: Int;

            procedure set_to_five(a: Loc)
              requires a != nil;
              ensures a.key == 5;
              modifies {a};

            procedure caller(x: Loc, y: Loc) returns ()
              requires x != nil && y != nil && x != y && y.key == 7;
              ensures x.key == 5 && y.key == 7;
            {
              call set_to_five(x);
            }
        "#;
        let program = parse_program(src).unwrap();
        let mut tm = TermManager::new();
        let out = VcGen::new(&program, Encoding::Quantified)
            .verify(&mut tm, "caller")
            .unwrap();
        assert!(out.is_verified(), "{:?}", out);
    }

    #[test]
    fn set_ghost_state_reasoning() {
        let out = verify_src(
            r#"
            field ghost keys: Set<Int>;
            procedure add_key(x: Loc, k: Int)
              requires x != nil;
              ensures x.keys == union(old(x.keys), {k});
              ensures k in x.keys;
            {
              x.keys := union(x.keys, {k});
            }
            "#,
            "add_key",
        );
        assert!(out.is_verified(), "{:?}", out);
    }

    #[test]
    fn return_in_middle_checks_post() {
        let out = verify_src(
            r#"
            field key: Int;
            procedure early(x: Loc, b: Int) returns (r: Int)
              ensures r >= 0;
            {
              if (b > 0) {
                r := b;
                return;
              }
              r := 0 - b;
            }
            "#,
            "early",
        );
        assert!(out.is_verified(), "{:?}", out);
    }
}
