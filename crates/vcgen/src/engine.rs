//! The VC generation engine: symbolic execution of procedures with loop
//! cutting, call summarization and per-assert VC splitting.
//!
//! The engine reads the program as written. Applications of a definition
//! (`LC(e)`, `Phi(e)`) are instantiated where they are encoded or printed,
//! and a FWYB macro statement is expanded into its few plain statements
//! ([`Definitions::expand_macro`]) when execution reaches it; no expanded
//! copy of the program is built.

use std::fmt::Write;

use ids_ivl::printer::write_expr_in;
use ids_ivl::{Block, Definitions, Expr, Lhs, Procedure, Program, Stmt, Type};
use ids_smt::{Sort, TermId, TermManager};

use crate::encode::{default_value, empty_at, encode_expr_in, sort_of_type, Env};
use crate::{Encoding, MethodVcs, Vc, VcError};

/// Generates the verification conditions of one procedure, together with the
/// shared hypothesis list (see [`MethodVcs`]), with the program's
/// applications and macro statements standing for `defs`' definitions.
pub fn generate<'a>(
    tm: &mut TermManager,
    program: &'a Program,
    defs: &'a dyn Definitions,
    proc: &'a Procedure,
    encoding: Encoding,
) -> Result<MethodVcs, VcError> {
    let mut ctx = Ctx {
        program,
        defs,
        proc,
        encoding,
        assumptions: Vec::new(),
        vcs: Vec::new(),
    };

    // ------------------------------------------------------------ entry env
    let mut env = Env::default();
    let nil = tm.var("nil", Sort::Loc);
    let alloc = tm.fresh_var("Alloc", Sort::set_of(Sort::Loc));
    env.vars.insert("Alloc", alloc);
    env.vars
        .insert("Br", tm.fresh_var("Br", Sort::set_of(Sort::Loc)));
    env.vars
        .insert("Br2", tm.fresh_var("Br2", Sort::set_of(Sort::Loc)));
    let nil_unalloc = {
        let m = tm.member(nil, alloc);
        tm.not(m)
    };
    ctx.assumptions.push(nil_unalloc);

    for f in program.fields.iter() {
        let sort = Sort::array_of(Sort::Loc, sort_of_type(f.ty));
        let map = tm.fresh_var(format_args!("fld_{}", f.name), sort);
        env.fields.insert(&f.name, map);
    }
    for p in proc.params.iter().chain(proc.returns.iter()) {
        let v = tm.fresh_var(&p.name, sort_of_type(p.ty));
        env.vars.insert(&p.name, v);
        if p.ty == Type::Loc {
            // Parameters point into the allocated heap (Appendix A.3).
            let is_nil = tm.eq(v, nil);
            let in_alloc = tm.member(v, alloc);
            let a = tm.or2(is_nil, in_alloc);
            ctx.assumptions.push(a);
        }
        if p.ty == Type::SetLoc {
            let a = tm.subset(v, alloc);
            ctx.assumptions.push(a);
        }
    }
    // Locals are in scope for the whole body (Boogie-style flattened scope).
    let body = proc
        .body
        .as_ref()
        .ok_or_else(|| VcError::NoBody(proc.name.clone()))?;
    declare_locals(tm, &mut env, body);

    let old_env = env.clone();

    // --------------------------------------------------------- preconditions
    let tru = tm.tru();
    for r in &proc.requires {
        let mut side = Vec::new();
        let t = encode_expr_in(tm, program, defs, &env, &old_env, r, &mut side)?;
        ctx.assumptions.extend(side);
        // Split top-level conjunctions into individual hypotheses. The VC
        // formulas are unchanged — the antecedent `and` flattens nested
        // conjunctions, so prefix *content* at every VC is identical — but
        // the finer granularity widens the structure-common hypothesis
        // prelude: methods sharing leading requires conjuncts (`Br == {}`,
        // `x != nil`) now share them as positional hypotheses even when a
        // later conjunct diverges.
        let term = tm.term(t);
        match &term.op {
            ids_smt::Op::And => ctx.assumptions.extend_from_slice(&term.args),
            _ => ctx.assumptions.push(t),
        }
    }

    // ----------------------------------------------------------------- body
    let final_env = ctx.exec_block(tm, &body.stmts, env, tru, &old_env)?;

    // ------------------------------------------------------- postconditions
    ctx.check_ensures(tm, proc, &final_env, &old_env, tru, "at end of procedure")?;

    Ok(MethodVcs {
        hypotheses: ctx.assumptions,
        vcs: ctx.vcs,
    })
}

fn declare_locals<'a>(tm: &mut TermManager, env: &mut Env<'a>, block: &'a Block) {
    for s in &block.stmts {
        match s {
            Stmt::VarDecl { name, ty, .. } => {
                let v = tm.fresh_var(name, sort_of_type(*ty));
                env.vars.insert(name, v);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                declare_locals(tm, env, then_branch);
                declare_locals(tm, env, else_branch);
            }
            Stmt::While { body, .. } => declare_locals(tm, env, body),
            _ => {}
        }
    }
}

struct Ctx<'a> {
    program: &'a Program,
    /// What the program's applications and macro statements stand for.
    defs: &'a dyn Definitions,
    /// The procedure whose VCs are generated.
    proc: &'a Procedure,
    encoding: Encoding,
    assumptions: Vec<TermId>,
    vcs: Vec<Vc>,
}

impl<'a> Ctx<'a> {
    fn assume_guarded(&mut self, tm: &mut TermManager, guard: TermId, fact: TermId) {
        let t = tm.implies(guard, fact);
        self.assumptions.push(t);
    }

    fn emit_vc(&mut self, tm: &mut TermManager, guard: TermId, fact: TermId, description: String) {
        let n_hyps = self.assumptions.len();
        let ante = tm.and(self.assumptions.iter().copied().chain([guard]));
        let formula = tm.implies(ante, fact);
        self.vcs.push(Vc {
            description,
            formula,
            n_hyps,
            guard,
            goal: fact,
        });
        // Once checked, the fact may be assumed for the rest of the procedure.
        self.assume_guarded(tm, guard, fact);
    }

    /// `"<procedure>::"` followed by `what`: the start of a VC description.
    fn describe(&self, what: std::fmt::Arguments) -> String {
        let mut d = String::new();
        let _ = write!(d, "{}::{}", self.proc.name, what);
        d
    }

    fn encode(
        &mut self,
        tm: &mut TermManager,
        env: &Env,
        old_env: &Env,
        guard: TermId,
        e: &Expr,
    ) -> Result<TermId, VcError> {
        let mut side = Vec::new();
        let t = encode_expr_in(tm, self.program, self.defs, env, old_env, e, &mut side)?;
        for s in side {
            self.assume_guarded(tm, guard, s);
        }
        Ok(t)
    }

    fn check_ensures(
        &mut self,
        tm: &mut TermManager,
        proc: &Procedure,
        env: &Env,
        old_env: &Env,
        guard: TermId,
        where_: &str,
    ) -> Result<(), VcError> {
        for (i, e) in proc.ensures.iter().enumerate() {
            let t = self.encode(tm, env, old_env, guard, e)?;
            let description = self.describe(format_args!("ensures#{} {}", i + 1, where_));
            self.emit_vc(tm, guard, t, description);
        }
        Ok(())
    }

    /// Executes statements in order. A statement need not be part of the
    /// program (a macro's expansion is not): every variable it can write is
    /// bound on entry, so the state borrows no name from it.
    fn exec_block(
        &mut self,
        tm: &mut TermManager,
        stmts: &[Stmt],
        mut env: Env<'a>,
        guard: TermId,
        old_env: &Env<'a>,
    ) -> Result<Env<'a>, VcError> {
        for s in stmts {
            env = self.exec_stmt(tm, s, env, guard, old_env)?;
        }
        Ok(env)
    }

    fn exec_stmt(
        &mut self,
        tm: &mut TermManager,
        stmt: &Stmt,
        mut env: Env<'a>,
        guard: TermId,
        old_env: &Env<'a>,
    ) -> Result<Env<'a>, VcError> {
        match stmt {
            Stmt::VarDecl { name, ty, init, .. } => {
                if let Some(e) = init {
                    let e = empty_at(self.defs, e, || *ty == Type::SetInt);
                    let t = self.encode(tm, &env, old_env, guard, e)?;
                    *var_slot(&mut env, name)? = t;
                }
                Ok(env)
            }
            Stmt::Assign { lhs, rhs } => {
                let rhs = empty_at(self.defs, rhs, || match lhs {
                    Lhs::Var(v) => env
                        .vars
                        .get(v.as_str())
                        .is_some_and(|&t| matches!(tm.sort(t), Sort::Set(e) if **e == Sort::Int)),
                    Lhs::Field(_, f) => self.program.field(f).is_some_and(|d| d.ty == Type::SetInt),
                });
                let value = self.encode(tm, &env, old_env, guard, rhs)?;
                match lhs {
                    Lhs::Var(v) => *var_slot(&mut env, v)? = value,
                    Lhs::Field(obj, field) => {
                        let o = env.vars.get(obj.as_str()).copied().ok_or_else(|| {
                            VcError::Encoding(format!("unbound variable '{}'", obj))
                        })?;
                        let map = env.fields.get_mut(field.as_str()).ok_or_else(|| {
                            VcError::Encoding(format!("unknown field '{}'", field))
                        })?;
                        *map = tm.store(*map, o, value);
                    }
                }
                Ok(env)
            }
            Stmt::Havoc { name } => {
                let slot = var_slot(&mut env, name)?;
                let sort = tm.sort(*slot).clone();
                *slot = tm.fresh_var(name, sort);
                Ok(env)
            }
            Stmt::Assume(e) => {
                let t = self.encode(tm, &env, old_env, guard, e)?;
                self.assume_guarded(tm, guard, t);
                Ok(env)
            }
            Stmt::Assert(e) => {
                let t = self.encode(tm, &env, old_env, guard, e)?;
                let mut description = self.describe(format_args!("assert "));
                write_expr_in(&mut description, e, self.defs);
                self.emit_vc(tm, guard, t, description);
                Ok(env)
            }
            Stmt::Alloc { lhs } => {
                let alloc = env.vars["Alloc"];
                let nil = tm.var("nil", Sort::Loc);
                let fresh = tm.fresh_var(format_args!("new_{}", lhs), Sort::Loc);
                let not_alloc = {
                    let m = tm.member(fresh, alloc);
                    tm.not(m)
                };
                let not_nil = tm.neq(fresh, nil);
                self.assume_guarded(tm, guard, not_alloc);
                self.assume_guarded(tm, guard, not_nil);
                // Default-initialize every field of the fresh object.
                for f in &self.program.fields {
                    let map = env
                        .fields
                        .get_mut(f.name.as_str())
                        .expect("every field has a map");
                    let dv = default_value(tm, f.ty);
                    *map = tm.store(*map, fresh, dv);
                }
                let single = tm.singleton(fresh);
                let grown = tm.union(alloc, single);
                env.vars.insert("Alloc", grown);
                *var_slot(&mut env, lhs)? = fresh;
                Ok(env)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.encode(tm, &env, old_env, guard, cond)?;
                let guard_then = tm.and2(guard, c);
                let nc = tm.not(c);
                let guard_else = tm.and2(guard, nc);
                let env_then =
                    self.exec_block(tm, &then_branch.stmts, env.clone(), guard_then, old_env)?;
                let env_else = self.exec_block(tm, &else_branch.stmts, env, guard_else, old_env)?;
                Ok(merge_envs(tm, c, &env_then, &env_else))
            }
            Stmt::While {
                cond,
                invariants,
                body,
                ..
            } => {
                // 1. Invariants hold on entry.
                for (i, inv) in invariants.iter().enumerate() {
                    let t = self.encode(tm, &env, old_env, guard, inv)?;
                    let description =
                        self.describe(format_args!("loop invariant #{} on entry", i + 1));
                    self.emit_vc(tm, guard, t, description);
                }
                // 2. Havoc the loop targets (arbitrary iteration).
                let targets = self.loop_targets(&env, &body.stmts);
                for &v in &targets.vars {
                    if let Some(slot) = env.vars.get_mut(v) {
                        let sort = tm.sort(*slot).clone();
                        *slot = tm.fresh_var(format_args!("loop_{}", v), sort);
                    }
                }
                for &f in &targets.fields {
                    if let Some(slot) = env.fields.get_mut(f) {
                        let sort = tm.sort(*slot).clone();
                        *slot = tm.fresh_var(format_args!("loop_fld_{}", f), sort);
                    }
                }
                // 3. Assume the invariants for the arbitrary iteration.
                for inv in invariants {
                    let t = self.encode(tm, &env, old_env, guard, inv)?;
                    self.assume_guarded(tm, guard, t);
                }
                // 4. Body path: assume the condition, run the body, re-check
                //    the invariants. This path does not continue past the loop.
                let c = self.encode(tm, &env, old_env, guard, cond)?;
                let guard_body = tm.and2(guard, c);
                let body_env =
                    self.exec_block(tm, &body.stmts, env.clone(), guard_body, old_env)?;
                for (i, inv) in invariants.iter().enumerate() {
                    let t = self.encode(tm, &body_env, old_env, guard_body, inv)?;
                    let description =
                        self.describe(format_args!("loop invariant #{} preserved", i + 1));
                    self.emit_vc(tm, guard_body, t, description);
                }
                // 5. Continue after the loop with the negated condition.
                let nc = tm.not(c);
                self.assume_guarded(tm, guard, nc);
                Ok(env)
            }
            Stmt::Call { lhs, proc, args } => {
                self.exec_call(tm, lhs, proc, args, env, guard, old_env)
            }
            Stmt::Return => {
                // Check the postconditions and make the rest of this path
                // unreachable.
                self.check_ensures(tm, self.proc, &env, old_env, guard, "at return")?;
                let f = tm.fls();
                self.assume_guarded(tm, guard, f);
                Ok(env)
            }
            Stmt::Macro { name, args } => {
                let stmts = self
                    .defs
                    .expand_macro(name, args)
                    .ok_or_else(|| VcError::UnexpandedMacro(name.clone()))?;
                self.exec_block(tm, &stmts, env, guard, old_env)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_call(
        &mut self,
        tm: &mut TermManager,
        lhs: &[String],
        callee_name: &str,
        args: &[Expr],
        mut env: Env<'a>,
        guard: TermId,
        old_env: &Env<'a>,
    ) -> Result<Env<'a>, VcError> {
        let callee = self
            .program
            .procedure(callee_name)
            .ok_or_else(|| VcError::UnknownProcedure(callee_name.to_string()))?;
        if callee.params.len() != args.len() {
            return Err(VcError::Encoding(format!(
                "call to '{}' with {} arguments, expected {}",
                callee_name,
                args.len(),
                callee.params.len()
            )));
        }
        // Bind actuals (evaluated in the caller's pre-call state).
        let mut pre_env = env.clone();
        for (param, arg) in callee.params.iter().zip(args.iter()) {
            let arg = empty_at(self.defs, arg, || param.ty == Type::SetInt);
            let t = self.encode(tm, &env, old_env, guard, arg)?;
            pre_env.vars.insert(&param.name, t);
        }
        // Check the callee's preconditions.
        for (i, r) in callee.requires.iter().enumerate() {
            let t = self.encode(tm, &pre_env, &pre_env, guard, r)?;
            let description =
                self.describe(format_args!("call {} precondition #{}", callee_name, i + 1));
            self.emit_vc(tm, guard, t, description);
        }
        // The modified heaplet, evaluated in the pre-call state.
        let modset = match &callee.modifies {
            Some(m) => self.encode(tm, &pre_env, &pre_env, guard, m)?,
            None => tm.empty_set(Sort::Loc),
        };
        // Havoc the heap on the modified objects.
        for (&f, map) in env.fields.iter_mut() {
            let old_map = *map;
            let sort = tm.sort(old_map).clone();
            let havoc = tm.fresh_var(format_args!("call_{}_{}", callee_name, f), sort);
            *map = match self.encoding {
                Encoding::Decidable => tm.map_ite(modset, havoc, old_map),
                Encoding::Quantified => {
                    // new_map is unconstrained except outside the mod set.
                    let idx_sort = Sort::Loc;
                    let bound = tm.var("frame_i", idx_sort.clone());
                    let in_mod = tm.member(bound, modset);
                    let not_in = tm.not(in_mod);
                    let sel_new = tm.select(havoc, bound);
                    let sel_old = tm.select(old_map, bound);
                    let eq = tm.eq(sel_new, sel_old);
                    let body = tm.implies(not_in, eq);
                    let frame = tm.forall(vec![("frame_i".into(), idx_sort)], body);
                    self.assume_guarded(tm, guard, frame);
                    havoc
                }
            };
        }
        // The callee may allocate: the allocation set can only grow.
        let alloc_old = env.vars["Alloc"];
        let alloc_new = tm.fresh_var("Alloc", Sort::set_of(Sort::Loc));
        match self.encoding {
            Encoding::Decidable => {
                let grow = tm.subset(alloc_old, alloc_new);
                self.assume_guarded(tm, guard, grow);
            }
            Encoding::Quantified => {
                let bound = tm.var("alloc_i", Sort::Loc);
                let in_old = tm.member(bound, alloc_old);
                let in_new = tm.member(bound, alloc_new);
                let body = tm.implies(in_old, in_new);
                let frame = tm.forall(vec![("alloc_i".into(), Sort::Loc)], body);
                self.assume_guarded(tm, guard, frame);
            }
        }
        env.vars.insert("Alloc", alloc_new);
        // The broken sets are threaded through every call: havoc them and let
        // the callee's postcondition pin them down.
        for br in ["Br", "Br2"] {
            let fresh = tm.fresh_var(br, Sort::set_of(Sort::Loc));
            env.vars.insert(br, fresh);
        }
        // Bind the call results.
        let mut post_env = env.clone();
        for param in &callee.params {
            post_env
                .vars
                .insert(&param.name, pre_env.vars[param.name.as_str()]);
        }
        for (i, ret) in callee.returns.iter().enumerate() {
            let fresh = tm.fresh_var(format_args!("ret_{}", ret.name), sort_of_type(ret.ty));
            post_env.vars.insert(&ret.name, fresh);
            if let Some(target) = lhs.get(i) {
                *var_slot(&mut env, target)? = fresh;
            }
        }
        // Assume the callee's postconditions; `old()` in them refers to the
        // pre-call state.
        for e in &callee.ensures {
            let t = self.encode(tm, &post_env, &pre_env, guard, e)?;
            self.assume_guarded(tm, guard, t);
        }
        Ok(env)
    }
}

/// The binding of a variable that a statement writes. Every variable a
/// statement can write is bound on entry: the parameters and results, and
/// every local ([`declare_locals`]).
fn var_slot<'e>(env: &'e mut Env<'_>, name: &str) -> Result<&'e mut TermId, VcError> {
    env.vars
        .get_mut(name)
        .ok_or_else(|| VcError::Encoding(format!("unbound variable '{}'", name)))
}

/// The assignment targets of a loop body (variables and field maps that must
/// be havocked when cutting the loop), as keys of the state at the loop. A
/// name that state does not bind is no target: nothing is havocked for it.
#[derive(Default)]
struct LoopTargets<'a> {
    vars: Vec<&'a str>,
    fields: Vec<&'a str>,
}

impl<'a> LoopTargets<'a> {
    fn var(&mut self, env: &Env<'a>, name: &str) {
        if let Some((&k, _)) = env.vars.get_key_value(name) {
            self.vars.push(k);
        }
    }

    fn field(&mut self, env: &Env<'a>, name: &str) {
        if let Some((&k, _)) = env.fields.get_key_value(name) {
            self.fields.push(k);
        }
    }

    /// Allocation and calls write every field map.
    fn all_fields(&mut self, env: &Env<'a>) {
        self.fields.extend(env.fields.keys());
    }
}

impl<'a> Ctx<'a> {
    /// The targets of a loop body; a macro statement's are those of its
    /// expansion.
    fn loop_targets(&self, env: &Env<'a>, body: &[Stmt]) -> LoopTargets<'a> {
        let mut t = LoopTargets::default();
        self.collect_targets(env, body, &mut t);
        t.vars.sort();
        t.vars.dedup();
        t.fields.sort();
        t.fields.dedup();
        t
    }

    fn collect_targets(&self, env: &Env<'a>, stmts: &[Stmt], out: &mut LoopTargets<'a>) {
        for s in stmts {
            match s {
                Stmt::Assign {
                    lhs: Lhs::Var(name),
                    ..
                }
                | Stmt::Havoc { name }
                | Stmt::VarDecl {
                    name,
                    init: Some(_),
                    ..
                } => out.var(env, name),
                Stmt::Assign {
                    lhs: Lhs::Field(_, f),
                    ..
                } => out.field(env, f),
                Stmt::Alloc { lhs } => {
                    out.var(env, lhs);
                    out.var(env, "Alloc");
                    out.all_fields(env);
                }
                Stmt::Call { lhs, .. } => {
                    for v in lhs.iter().map(String::as_str).chain(["Alloc", "Br", "Br2"]) {
                        out.var(env, v);
                    }
                    out.all_fields(env);
                }
                Stmt::Macro { name, args } => {
                    // A macro that does not expand fails when the body runs.
                    if let Some(expansion) = self.defs.expand_macro(name, args) {
                        self.collect_targets(env, &expansion, out);
                    }
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.collect_targets(env, &then_branch.stmts, out);
                    self.collect_targets(env, &else_branch.stmts, out);
                }
                Stmt::While { body, .. } => self.collect_targets(env, &body.stmts, out),
                _ => {}
            }
        }
    }
}

fn merge_envs<'a>(
    tm: &mut TermManager,
    cond: TermId,
    then_env: &Env<'a>,
    else_env: &Env<'a>,
) -> Env<'a> {
    let mut merged = Env::default();
    for (&k, &tv) in &then_env.vars {
        let ev = else_env.vars.get(k).copied().unwrap_or(tv);
        merged
            .vars
            .insert(k, if tv == ev { tv } else { tm.ite(cond, tv, ev) });
    }
    for (&k, &ev) in &else_env.vars {
        merged.vars.entry(k).or_insert(ev);
    }
    for (&k, &tv) in &then_env.fields {
        let ev = else_env.fields.get(k).copied().unwrap_or(tv);
        merged
            .fields
            .insert(k, if tv == ev { tv } else { tm.ite(cond, tv, ev) });
    }
    for (&k, &ev) in &else_env.fields {
        merged.fields.entry(k).or_insert(ev);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_ivl::parse_program;

    #[test]
    fn one_vc_per_assert_and_postcondition() {
        let program = parse_program(
            r#"
            field key: Int;
            procedure m(x: Loc)
              ensures true;
            {
              assert x == x;
              assert x.key == x.key;
            }
            "#,
        )
        .unwrap();
        let mut tm = TermManager::new();
        let proc = program.procedure("m").unwrap();
        let generated = generate(&mut tm, &program, &(), proc, Encoding::Decidable).unwrap();
        assert_eq!(generated.vcs.len(), 3);
        // The hypothesis split reconstructs each VC formula exactly.
        for vc in &generated.vcs {
            let mut ante = generated.hypotheses[..vc.n_hyps].to_vec();
            ante.push(vc.guard);
            let conj = tm.and(ante);
            let rebuilt = tm.implies(conj, vc.goal);
            assert_eq!(rebuilt, vc.formula);
        }
        // Hypothesis prefixes are monotone in VC order.
        for w in generated.vcs.windows(2) {
            assert!(w[0].n_hyps <= w[1].n_hyps);
        }
    }

    #[test]
    fn unexpanded_macro_is_an_error() {
        let program = parse_program(
            r#"
            field next: Loc;
            procedure m(x: Loc, y: Loc)
            {
              Mut(x, next, y);
            }
            "#,
        )
        .unwrap();
        let mut tm = TermManager::new();
        let proc = program.procedure("m").unwrap();
        let err = generate(&mut tm, &program, &(), proc, Encoding::Decidable).unwrap_err();
        assert!(matches!(err, VcError::UnexpandedMacro(_)));
    }

    #[test]
    fn decidable_vcs_are_quantifier_free() {
        let program = parse_program(
            r#"
            field key: Int;
            procedure callee(a: Loc)
              ensures a.key == 1;
              modifies {a};
            procedure m(x: Loc)
              requires x != nil;
              ensures x.key == 1;
            {
              call callee(x);
            }
            "#,
        )
        .unwrap();
        let mut tm = TermManager::new();
        let proc = program.procedure("m").unwrap();
        let vcs = generate(&mut tm, &program, &(), proc, Encoding::Decidable)
            .unwrap()
            .vcs;
        for vc in &vcs {
            assert!(ids_smt::smtlib::is_quantifier_free(&tm, &[vc.formula]));
        }
        let vcs_q = generate(&mut tm, &program, &(), proc, Encoding::Quantified)
            .unwrap()
            .vcs;
        let any_quantified = vcs_q
            .iter()
            .any(|vc| !ids_smt::smtlib::is_quantifier_free(&tm, &[vc.formula]));
        assert!(any_quantified);
    }
}
