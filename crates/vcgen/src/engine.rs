//! The VC generation engine: symbolic execution of FWYB-expanded procedures
//! with loop cutting, call summarization and per-assert VC splitting.

use ids_ivl::{Block, Expr, Lhs, Procedure, Program, Stmt, Type};
use ids_smt::{Sort, TermId, TermManager};

use crate::encode::{default_value, empty_at, encode_expr, sort_of_type, Env};
use crate::{Encoding, MethodVcs, Vc, VcError};

/// Generates the verification conditions of one procedure, together with the
/// shared hypothesis list (see [`MethodVcs`]).
pub fn generate(
    tm: &mut TermManager,
    program: &Program,
    proc: &Procedure,
    encoding: Encoding,
) -> Result<MethodVcs, VcError> {
    let mut ctx = Ctx {
        program,
        encoding,
        assumptions: Vec::new(),
        vcs: Vec::new(),
        proc_name: proc.name.clone(),
    };

    // ------------------------------------------------------------ entry env
    let mut env = Env::default();
    let nil = tm.var("nil", Sort::Loc);
    let alloc = tm.fresh_var("Alloc", Sort::set_of(Sort::Loc));
    env.vars.insert("Alloc".into(), alloc);
    env.vars
        .insert("Br".into(), tm.fresh_var("Br", Sort::set_of(Sort::Loc)));
    env.vars
        .insert("Br2".into(), tm.fresh_var("Br2", Sort::set_of(Sort::Loc)));
    let nil_unalloc = {
        let m = tm.member(nil, alloc);
        tm.not(m)
    };
    ctx.assumptions.push(nil_unalloc);

    for f in program.fields.iter() {
        let sort = Sort::array_of(Sort::Loc, sort_of_type(f.ty));
        let map = tm.fresh_var(&format!("fld_{}", f.name), sort);
        env.fields.insert(f.name.clone(), map);
    }
    for p in proc.params.iter().chain(proc.returns.iter()) {
        let v = tm.fresh_var(&p.name, sort_of_type(p.ty));
        env.vars.insert(p.name.clone(), v);
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
        .clone()
        .ok_or_else(|| VcError::NoBody(proc.name.clone()))?;
    declare_locals(tm, &mut env, &body);

    let old_env = env.clone();

    // --------------------------------------------------------- preconditions
    let tru = tm.tru();
    for r in &proc.requires {
        let mut side = Vec::new();
        let t = encode_expr(tm, program, &env, &old_env, r, &mut side)?;
        ctx.assumptions.extend(side);
        // Split top-level conjunctions into individual hypotheses. The VC
        // formulas are unchanged — the antecedent `and` flattens nested
        // conjunctions, so prefix *content* at every VC is identical — but
        // the finer granularity widens the structure-common hypothesis
        // prelude: methods sharing leading requires conjuncts (`Br == {}`,
        // `x != nil`) now share them as positional hypotheses even when a
        // later conjunct diverges.
        match &tm.term(t).op {
            ids_smt::Op::And => {
                let conjuncts = tm.term(t).args.clone();
                ctx.assumptions.extend(conjuncts);
            }
            _ => ctx.assumptions.push(t),
        }
    }

    // ----------------------------------------------------------------- body
    let final_env = ctx.exec_block(tm, &body, env, tru, &old_env)?;

    // ------------------------------------------------------- postconditions
    ctx.check_ensures(tm, proc, &final_env, &old_env, tru, "at end of procedure")?;

    Ok(MethodVcs {
        hypotheses: ctx.assumptions,
        vcs: ctx.vcs,
    })
}

fn declare_locals(tm: &mut TermManager, env: &mut Env, block: &Block) {
    for s in &block.stmts {
        match s {
            Stmt::VarDecl { name, ty, .. } => {
                let v = tm.fresh_var(name, sort_of_type(*ty));
                env.vars.insert(name.clone(), v);
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
    encoding: Encoding,
    assumptions: Vec<TermId>,
    vcs: Vec<Vc>,
    proc_name: String,
}

impl<'a> Ctx<'a> {
    fn assume_guarded(&mut self, tm: &mut TermManager, guard: TermId, fact: TermId) {
        let t = tm.implies(guard, fact);
        self.assumptions.push(t);
    }

    fn emit_vc(&mut self, tm: &mut TermManager, guard: TermId, fact: TermId, description: String) {
        let n_hyps = self.assumptions.len();
        let mut antecedent = self.assumptions.clone();
        antecedent.push(guard);
        let ante = tm.and(antecedent);
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

    fn encode(
        &mut self,
        tm: &mut TermManager,
        env: &Env,
        old_env: &Env,
        guard: TermId,
        e: &Expr,
    ) -> Result<TermId, VcError> {
        let mut side = Vec::new();
        let t = encode_expr(tm, self.program, env, old_env, e, &mut side)?;
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
            self.emit_vc(
                tm,
                guard,
                t,
                format!("{}::ensures#{} {}", self.proc_name, i + 1, where_),
            );
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        tm: &mut TermManager,
        block: &Block,
        mut env: Env,
        guard: TermId,
        old_env: &Env,
    ) -> Result<Env, VcError> {
        for s in &block.stmts {
            env = self.exec_stmt(tm, s, env, guard, old_env)?;
        }
        Ok(env)
    }

    fn exec_stmt(
        &mut self,
        tm: &mut TermManager,
        stmt: &Stmt,
        mut env: Env,
        guard: TermId,
        old_env: &Env,
    ) -> Result<Env, VcError> {
        match stmt {
            Stmt::VarDecl { name, ty, init, .. } => {
                if let Some(e) = init {
                    let e = empty_at(e, || *ty == Type::SetInt);
                    let t = self.encode(tm, &env, old_env, guard, e)?;
                    env.vars.insert(name.clone(), t);
                }
                Ok(env)
            }
            Stmt::Assign { lhs, rhs } => {
                let rhs = empty_at(rhs, || match lhs {
                    Lhs::Var(v) => env
                        .vars
                        .get(v)
                        .is_some_and(|&t| matches!(tm.sort(t), Sort::Set(e) if **e == Sort::Int)),
                    Lhs::Field(_, f) => self.program.field(f).is_some_and(|d| d.ty == Type::SetInt),
                });
                let value = self.encode(tm, &env, old_env, guard, rhs)?;
                match lhs {
                    Lhs::Var(v) => {
                        if !env.vars.contains_key(v) {
                            return Err(VcError::Encoding(format!("unbound variable '{}'", v)));
                        }
                        env.vars.insert(v.clone(), value);
                    }
                    Lhs::Field(obj, field) => {
                        let o = env.vars.get(obj).copied().ok_or_else(|| {
                            VcError::Encoding(format!("unbound variable '{}'", obj))
                        })?;
                        let map = env.fields.get(field).copied().ok_or_else(|| {
                            VcError::Encoding(format!("unknown field '{}'", field))
                        })?;
                        let updated = tm.store(map, o, value);
                        env.fields.insert(field.clone(), updated);
                    }
                }
                Ok(env)
            }
            Stmt::Havoc { name } => {
                let sort = env
                    .vars
                    .get(name)
                    .map(|&t| tm.sort(t).clone())
                    .ok_or_else(|| VcError::Encoding(format!("unbound variable '{}'", name)))?;
                let fresh = tm.fresh_var(name, sort);
                env.vars.insert(name.clone(), fresh);
                Ok(env)
            }
            Stmt::Assume(e) => {
                let t = self.encode(tm, &env, old_env, guard, e)?;
                self.assume_guarded(tm, guard, t);
                Ok(env)
            }
            Stmt::Assert(e) => {
                let t = self.encode(tm, &env, old_env, guard, e)?;
                self.emit_vc(
                    tm,
                    guard,
                    t,
                    format!(
                        "{}::assert {}",
                        self.proc_name,
                        ids_ivl::printer::expr_to_string(e)
                    ),
                );
                Ok(env)
            }
            Stmt::Alloc { lhs } => {
                let alloc = env.vars["Alloc"];
                let nil = tm.var("nil", Sort::Loc);
                let fresh = tm.fresh_var(&format!("new_{}", lhs), Sort::Loc);
                let not_alloc = {
                    let m = tm.member(fresh, alloc);
                    tm.not(m)
                };
                let not_nil = tm.neq(fresh, nil);
                self.assume_guarded(tm, guard, not_alloc);
                self.assume_guarded(tm, guard, not_nil);
                // Default-initialize every field of the fresh object.
                for f in self.program.fields.clone() {
                    let map = env.fields[&f.name];
                    let dv = default_value(tm, f.ty);
                    let updated = tm.store(map, fresh, dv);
                    env.fields.insert(f.name.clone(), updated);
                }
                let single = tm.singleton(fresh);
                let grown = tm.union(alloc, single);
                env.vars.insert("Alloc".into(), grown);
                env.vars.insert(lhs.clone(), fresh);
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
                    self.exec_block(tm, then_branch, env.clone(), guard_then, old_env)?;
                let env_else =
                    self.exec_block(tm, else_branch, env.clone(), guard_else, old_env)?;
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
                    self.emit_vc(
                        tm,
                        guard,
                        t,
                        format!("{}::loop invariant #{} on entry", self.proc_name, i + 1),
                    );
                }
                // 2. Havoc the loop targets (arbitrary iteration).
                let targets = loop_targets(self.program, body);
                for v in &targets.vars {
                    if let Some(&old) = env.vars.get(v) {
                        let sort = tm.sort(old).clone();
                        let fresh = tm.fresh_var(&format!("loop_{}", v), sort);
                        env.vars.insert(v.clone(), fresh);
                    }
                }
                for f in &targets.fields {
                    if let Some(&old) = env.fields.get(f) {
                        let sort = tm.sort(old).clone();
                        let fresh = tm.fresh_var(&format!("loop_fld_{}", f), sort);
                        env.fields.insert(f.clone(), fresh);
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
                let body_env = self.exec_block(tm, body, env.clone(), guard_body, old_env)?;
                for (i, inv) in invariants.iter().enumerate() {
                    let t = self.encode(tm, &body_env, old_env, guard_body, inv)?;
                    self.emit_vc(
                        tm,
                        guard_body,
                        t,
                        format!("{}::loop invariant #{} preserved", self.proc_name, i + 1),
                    );
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
                let proc = self
                    .program
                    .procedure(&self.proc_name)
                    .expect("current procedure")
                    .clone();
                self.check_ensures(tm, &proc, &env, old_env, guard, "at return")?;
                let f = tm.fls();
                self.assume_guarded(tm, guard, f);
                Ok(env)
            }
            Stmt::Macro { name, .. } => Err(VcError::UnexpandedMacro(name.clone())),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_call(
        &mut self,
        tm: &mut TermManager,
        lhs: &[String],
        callee_name: &str,
        args: &[Expr],
        mut env: Env,
        guard: TermId,
        old_env: &Env,
    ) -> Result<Env, VcError> {
        let callee = self
            .program
            .procedure(callee_name)
            .ok_or_else(|| VcError::UnknownProcedure(callee_name.to_string()))?
            .clone();
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
            let arg = empty_at(arg, || param.ty == Type::SetInt);
            let t = self.encode(tm, &env, old_env, guard, arg)?;
            pre_env.vars.insert(param.name.clone(), t);
        }
        // Check the callee's preconditions.
        for (i, r) in callee.requires.iter().enumerate() {
            let t = self.encode(tm, &pre_env, &pre_env, guard, r)?;
            self.emit_vc(
                tm,
                guard,
                t,
                format!(
                    "{}::call {} precondition #{}",
                    self.proc_name,
                    callee_name,
                    i + 1
                ),
            );
        }
        // The modified heaplet, evaluated in the pre-call state.
        let modset = match &callee.modifies {
            Some(m) => self.encode(tm, &pre_env, &pre_env, guard, m)?,
            None => tm.empty_set(Sort::Loc),
        };
        // Havoc the heap on the modified objects.
        let field_names: Vec<String> = env.fields.keys().cloned().collect();
        for f in field_names {
            let old_map = env.fields[&f];
            let sort = tm.sort(old_map).clone();
            let havoc = tm.fresh_var(&format!("call_{}_{}", callee_name, f), sort.clone());
            let new_map = match self.encoding {
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
            env.fields.insert(f, new_map);
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
        env.vars.insert("Alloc".into(), alloc_new);
        // The broken sets are threaded through every call: havoc them and let
        // the callee's postcondition pin them down.
        for br in ["Br", "Br2"] {
            let fresh = tm.fresh_var(br, Sort::set_of(Sort::Loc));
            env.vars.insert(br.to_string(), fresh);
        }
        // Bind the call results.
        let mut post_env = env.clone();
        for (param, arg_term) in callee.params.iter().zip(
            callee
                .params
                .iter()
                .map(|p| pre_env.vars[&p.name])
                .collect::<Vec<_>>(),
        ) {
            post_env.vars.insert(param.name.clone(), arg_term);
        }
        for (i, ret) in callee.returns.iter().enumerate() {
            let fresh = tm.fresh_var(&format!("ret_{}", ret.name), sort_of_type(ret.ty));
            post_env.vars.insert(ret.name.clone(), fresh);
            if let Some(target) = lhs.get(i) {
                env.vars.insert(target.clone(), fresh);
            }
        }
        // `old()` in the callee's postcondition refers to the pre-call state.
        let mut callee_old_env = pre_env.clone();
        callee_old_env.fields = pre_env.fields.clone();
        // Assume the callee's postconditions.
        for e in &callee.ensures {
            let t = self.encode(tm, &post_env, &callee_old_env, guard, e)?;
            self.assume_guarded(tm, guard, t);
        }
        Ok(env)
    }
}

/// The assignment targets of a loop body (variables and field maps that must
/// be havocked when cutting the loop).
#[derive(Default)]
struct LoopTargets {
    vars: Vec<String>,
    fields: Vec<String>,
}

fn loop_targets(program: &Program, body: &Block) -> LoopTargets {
    let mut t = LoopTargets::default();
    collect_targets(program, body, &mut t);
    t.vars.sort();
    t.vars.dedup();
    t.fields.sort();
    t.fields.dedup();
    t
}

fn collect_targets(program: &Program, block: &Block, out: &mut LoopTargets) {
    for s in &block.stmts {
        match s {
            Stmt::Assign { lhs, .. } => match lhs {
                Lhs::Var(v) => out.vars.push(v.clone()),
                Lhs::Field(_, f) => out.fields.push(f.clone()),
            },
            Stmt::VarDecl { name, init, .. } if init.is_some() => {
                out.vars.push(name.clone());
            }
            Stmt::Havoc { name } => out.vars.push(name.clone()),
            Stmt::Alloc { lhs } => {
                out.vars.push(lhs.clone());
                out.vars.push("Alloc".into());
                // Allocation writes default values into every field map.
                for f in &program.fields {
                    out.fields.push(f.name.clone());
                }
            }
            Stmt::Call { lhs, .. } => {
                out.vars.extend(lhs.iter().cloned());
                out.vars.push("Alloc".into());
                out.vars.push("Br".into());
                out.vars.push("Br2".into());
                for f in &program.fields {
                    out.fields.push(f.name.clone());
                }
            }
            Stmt::Macro { name, args } => {
                // Conservative: macros that mutate state touch the broken set
                // and (for Mut/NewObj) a field / fresh object.
                out.vars.push("Br".into());
                out.vars.push("Br2".into());
                if name == "Mut" {
                    if let Some(Expr::Var(f)) = args.get(1) {
                        out.fields.push(f.clone());
                    }
                }
                if name == "NewObj" {
                    if let Some(Expr::Var(v)) = args.first() {
                        out.vars.push(v.clone());
                    }
                    out.vars.push("Alloc".into());
                    for f in &program.fields {
                        out.fields.push(f.name.clone());
                    }
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_targets(program, then_branch, out);
                collect_targets(program, else_branch, out);
            }
            Stmt::While { body, .. } => collect_targets(program, body, out),
            _ => {}
        }
    }
}

fn merge_envs(tm: &mut TermManager, cond: TermId, then_env: &Env, else_env: &Env) -> Env {
    let mut merged = Env::default();
    for (k, &tv) in &then_env.vars {
        let ev = else_env.vars.get(k).copied().unwrap_or(tv);
        merged
            .vars
            .insert(k.clone(), if tv == ev { tv } else { tm.ite(cond, tv, ev) });
    }
    for (k, &ev) in &else_env.vars {
        merged.vars.entry(k.clone()).or_insert(ev);
    }
    for (k, &tv) in &then_env.fields {
        let ev = else_env.fields.get(k).copied().unwrap_or(tv);
        merged
            .fields
            .insert(k.clone(), if tv == ev { tv } else { tm.ite(cond, tv, ev) });
    }
    for (k, &ev) in &else_env.fields {
        merged.fields.entry(k.clone()).or_insert(ev);
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
        let generated = generate(&mut tm, &program, proc, Encoding::Decidable).unwrap();
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
        let err = generate(&mut tm, &program, proc, Encoding::Decidable).unwrap_err();
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
        let vcs = generate(&mut tm, &program, proc, Encoding::Decidable)
            .unwrap()
            .vcs;
        for vc in &vcs {
            assert!(ids_smt::smtlib::is_quantifier_free(&tm, &[vc.formula]));
        }
        let vcs_q = generate(&mut tm, &program, proc, Encoding::Quantified)
            .unwrap()
            .vcs;
        let any_quantified = vcs_q
            .iter()
            .any(|vc| !ids_smt::smtlib::is_quantifier_free(&tm, &[vc.formula]));
        assert!(any_quantified);
    }
}
