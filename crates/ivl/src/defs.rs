//! What named applications and macro statements stand for.
//!
//! An intrinsic definition (`ids-core`) gives the applications `LC(e)`,
//! `LC2(e)` and `Phi(e, …)` a meaning: each is the body of a definition with
//! its parameters bound to the arguments. VC generation (`ids-vcgen`) and the
//! description printer ([`crate::printer::write_expr_in`]) instantiate a
//! definition where they meet an application of it: they walk the one shared
//! body and, at a parameter, visit the argument expression, so no substituted
//! copy is built. The visit order is that of a walk of the substituted copy,
//! so what they produce is the same.
//!
//! The FWYB macro statements (`Mut`, `NewObj`, …) expand in the same place:
//! VC generation asks for a macro's few plain statements when it reaches it.

use crate::ast::{Expr, Stmt};

/// The definitions and macro statements a program is verified against.
///
/// `()` is the empty set: every application is uninterpreted and no macro
/// statement expands (a plain IVL program).
pub trait Definitions {
    /// The definition an application `name(..)` with `arity` arguments
    /// stands for, or `None` if the application is uninterpreted.
    fn definition(&self, name: &str, arity: usize) -> Option<Definition<'_>>;

    /// The plain statements the macro statement `name(args)` stands for, or
    /// `None` if it has none. Applications in them stay applications.
    fn expand_macro(&self, name: &str, args: &[Expr]) -> Option<Vec<Stmt>>;
}

impl Definitions for () {
    fn definition(&self, _: &str, _: usize) -> Option<Definition<'_>> {
        None
    }

    fn expand_macro(&self, _: &str, _: &[Expr]) -> Option<Vec<Stmt>> {
        None
    }
}

/// One definition: a body over parameters.
#[derive(Clone, Copy, Debug)]
pub struct Definition<'d> {
    /// The parameters, bound to an application's arguments position by
    /// position. A parameter past the last argument stays a free variable;
    /// an argument past the last parameter is not used.
    pub params: &'d [String],
    /// The body.
    pub body: &'d Expr,
}

/// A definition's parameters bound to an application's arguments: the scope
/// in which the definition's body is walked while it is instantiated. An
/// expression of the program is walked under no binding.
#[derive(Clone, Copy, Debug)]
pub struct Binding<'e> {
    params: &'e [String],
    args: &'e [Expr],
}

/// What an expression stands for while definitions are instantiated.
#[derive(Clone, Copy, Debug)]
pub enum Instance<'e> {
    /// A bound parameter: its argument, an expression of the program.
    Arg(&'e Expr),
    /// An application of a definition in the program: the definition's
    /// body, walked under this binding.
    Body(&'e Expr, Binding<'e>),
}

/// What `e`, walked under `scope` (`None` in the program), stands for: a
/// bound parameter its argument, an application of one of `defs`'
/// definitions in the program that definition's body. `None` if `e` stands
/// for itself; applications in a body are not instantiated again.
#[inline]
pub fn instance<'e>(
    defs: &'e dyn Definitions,
    e: &'e Expr,
    scope: Option<&Binding<'e>>,
) -> Option<Instance<'e>> {
    match (e, scope) {
        (Expr::Var(v), Some(b)) => {
            let i = b.params.iter().position(|p| p == v)?;
            b.args.get(i).map(Instance::Arg)
        }
        (Expr::App(name, args), None) => {
            let d = defs.definition(name, args.len())?;
            let binding = Binding {
                params: d.params,
                args,
            };
            Some(Instance::Body(d.body, binding))
        }
        _ => None,
    }
}

/// The node `e` stands for under `scope`, looked up through bound
/// parameters and definitions ([`instance`]): the node a walk of the
/// substituted copy finds in `e`'s place. Its operands may need a binding
/// this does not return, so it is for reading the node's shape only.
pub fn resolve<'e>(
    defs: &'e dyn Definitions,
    e: &'e Expr,
    scope: Option<&Binding<'e>>,
) -> &'e Expr {
    match instance(defs, e, scope) {
        Some(Instance::Arg(arg)) => resolve(defs, arg, None),
        Some(Instance::Body(body, binding)) => resolve(defs, body, Some(&binding)),
        None => e,
    }
}
