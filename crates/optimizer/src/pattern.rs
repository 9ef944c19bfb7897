//! Term patterns for optimization rules and matching against typed terms.
//!
//! The paper's Section 5 rule declares variables of several sorts:
//! relation variables (`rel1: rel(tuple1) in REL`), *function variables*
//! (`point: (tuple1 -> point)`) that stand for arbitrary parameter
//! expressions, and the catalog-bound representation objects (`rep1`,
//! `lsd2`). A [`TermPattern`] covers all of these.

use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{Const, DataType, Symbol, TypeArg};
use std::collections::HashMap;
use std::sync::Arc;

/// An operator position in a pattern: a fixed name or a variable (for
/// attribute operators, whose names are data).
#[derive(Debug, Clone, PartialEq)]
pub enum OpPat {
    Exact(Symbol),
    Var(Symbol),
}

/// A pattern over typed terms.
#[derive(Debug, Clone, PartialEq)]
pub enum TermPattern {
    /// Bind any subterm to a variable.
    Var(Symbol),
    /// An operator application.
    Apply { op: OpPat, args: Vec<TermPattern> },
    /// A lambda; the pattern's parameter names are pattern-scoped
    /// variables matched positionally against the actual parameters.
    Lambda {
        params: Vec<Symbol>,
        body: Box<TermPattern>,
    },
    /// A function variable applied to lambda parameters — the paper's
    /// `(t1 point)`: matches *any* subterm whose free variables are among
    /// the listed parameters, binding `fvar` to its lambda abstraction.
    FunApp { fvar: Symbol, args: Vec<Symbol> },
    /// Like [`TermPattern::FunApp`], but additionally requires the
    /// subterm to match an inner structural pattern — bind the lambda
    /// abstraction of a *specific* shape of subterm.
    AsFun {
        fvar: Symbol,
        args: Vec<Symbol>,
        inner: Box<TermPattern>,
    },
    /// A specific lambda-parameter occurrence (the pattern parameter must
    /// have been bound by an enclosing [`TermPattern::Lambda`]).
    Param(Symbol),
    /// Bind the whole subterm to a variable *and* match a pattern
    /// against it.
    As(Symbol, Box<TermPattern>),
    /// An exact constant.
    Const(Const),
    /// Any constant, bound to a variable.
    ConstVar(Symbol),
    /// A named object, bound to a variable.
    ObjectVar(Symbol),
}

impl TermPattern {
    pub fn var(name: &str) -> TermPattern {
        TermPattern::Var(Symbol::new(name))
    }

    pub fn apply(op: &str, args: Vec<TermPattern>) -> TermPattern {
        TermPattern::Apply {
            op: OpPat::Exact(Symbol::new(op)),
            args,
        }
    }
}

/// Bindings accumulated by matching a rule.
#[derive(Debug, Clone, Default)]
pub struct RuleBindings {
    /// Term variables (including the lambda abstractions bound by
    /// [`TermPattern::FunApp`]).
    pub terms: HashMap<Symbol, TypedExpr>,
    /// Operator-name variables.
    pub ops: HashMap<Symbol, Symbol>,
    /// Pattern lambda parameters: pattern name -> (actual name, type).
    pub params: HashMap<Symbol, (Symbol, DataType)>,
    /// Type variables bound by `TypeIs` conditions.
    pub types: HashMap<Symbol, TypeArg>,
}

/// Match a pattern against a typed term, extending `b` on success.
pub fn match_term(pat: &TermPattern, node: &TypedExpr, b: &mut RuleBindings) -> bool {
    match pat {
        TermPattern::Var(v) => bind_term(b, v, node),
        TermPattern::Param(p) => {
            let Some((actual, _)) = b.params.get(p) else {
                return false;
            };
            matches!(&node.node, TypedNode::Var(v) if v == actual)
        }
        TermPattern::As(v, inner) => bind_term(b, v, node) && match_term(inner, node, b),
        TermPattern::Const(c) => matches!(&node.node, TypedNode::Const(c2) if c2 == c),
        TermPattern::ConstVar(v) => match &node.node {
            TypedNode::Const(_) => bind_term(b, v, node),
            _ => false,
        },
        TermPattern::ObjectVar(v) => match &node.node {
            TypedNode::Object(_) => bind_term(b, v, node),
            _ => false,
        },
        TermPattern::Apply { op, args } => {
            let Some((actual_op, _, actual_args)) = node.as_apply() else {
                return false;
            };
            if actual_args.len() != args.len() {
                return false;
            }
            match op {
                OpPat::Exact(n) => {
                    if n != actual_op {
                        return false;
                    }
                }
                OpPat::Var(v) => {
                    if let Some(prev) = b.ops.get(v) {
                        if prev != actual_op {
                            return false;
                        }
                    } else {
                        b.ops.insert(v.clone(), actual_op.clone());
                    }
                }
            }
            args.iter()
                .zip(actual_args)
                .all(|(p, a)| match_term(p, a, b))
        }
        TermPattern::Lambda { params, body } => {
            let TypedNode::Lambda {
                params: actual_params,
                body: actual_body,
            } = &node.node
            else {
                return false;
            };
            if actual_params.len() != params.len() {
                return false;
            }
            for (p, (an, at)) in params.iter().zip(actual_params.iter()) {
                b.params.insert(p.clone(), (an.clone(), at.clone()));
            }
            match_term(body, actual_body, b)
        }
        TermPattern::AsFun { fvar, args, inner } => {
            let fa = TermPattern::FunApp {
                fvar: fvar.clone(),
                args: args.clone(),
            };
            match_term(&fa, node, b) && match_term(inner, node, b)
        }
        TermPattern::FunApp { fvar, args } => {
            // The subterm's free variables must all be actual parameters
            // corresponding to the listed pattern parameters.
            let mut allowed = Vec::new();
            let mut lam_params = Vec::new();
            for a in args {
                let Some((actual, ty)) = b.params.get(a) else {
                    return false;
                };
                allowed.push(actual.clone());
                lam_params.push((actual.clone(), ty.clone()));
            }
            let mut free = Vec::new();
            free_vars(node, &mut Vec::new(), &mut free);
            if !free.iter().all(|f| allowed.contains(f)) {
                return false;
            }
            let ty = DataType::Fun(
                lam_params.iter().map(|(_, t)| t.clone()).collect(),
                Box::new(node.ty.clone()),
            );
            let abstraction = TypedExpr::new(
                TypedNode::Lambda {
                    params: lam_params.into(),
                    body: Arc::new(node.clone()),
                },
                ty,
            );
            bind_term(b, fvar, &abstraction)
        }
    }
}

fn bind_term(b: &mut RuleBindings, v: &Symbol, node: &TypedExpr) -> bool {
    if let Some(prev) = b.terms.get(v) {
        return prev == node;
    }
    b.terms.insert(v.clone(), node.clone());
    true
}

/// Collect the free lambda variables of a term.
pub fn free_vars(node: &TypedExpr, bound: &mut Vec<Symbol>, out: &mut Vec<Symbol>) {
    match &node.node {
        TypedNode::Var(v) => {
            if !bound.contains(v) && !out.contains(v) {
                out.push(v.clone());
            }
        }
        TypedNode::Lambda { params, body } => {
            let base = bound.len();
            bound.extend(params.iter().map(|(n, _)| n.clone()));
            free_vars(body, bound, out);
            bound.truncate(base);
        }
        TypedNode::Apply { args, .. } | TypedNode::List(args) | TypedNode::Tuple(args) => {
            for a in args {
                free_vars(a, bound, out);
            }
        }
        TypedNode::ApplyFun { fun, args } => {
            free_vars(fun, bound, out);
            for a in args {
                free_vars(a, bound, out);
            }
        }
        TypedNode::Field { arg, .. } => free_vars(arg, bound, out),
        TypedNode::Const(_) | TypedNode::Object(_) => {}
    }
}
