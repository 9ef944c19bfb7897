//! Typed terms: the checker's output and the optimizer/executor's input.

use crate::symbol::Symbol;
use crate::types::{Const, DataType};
use std::fmt;
use std::sync::Arc;

/// A fully type-annotated term of the bottom-level signature.
#[derive(Clone, PartialEq)]
pub struct TypedExpr {
    pub node: TypedNode,
    pub ty: DataType,
}

/// The node forms of a typed term.
#[derive(Clone, PartialEq)]
pub enum TypedNode {
    Const(Const),
    /// A named database object.
    Object(Symbol),
    /// A lambda-bound variable occurrence.
    Var(Symbol),
    /// Application of a signature operator; `spec` indexes the matched
    /// specification within the signature, and the engine runs the
    /// operator-table entry bound to that spec.
    Apply {
        op: Symbol,
        spec: usize,
        args: Vec<TypedExpr>,
    },
    /// Tuple attribute access `attr(arg)`: an application of the
    /// var-named `$attrname` spec `spec` (Section 2.2), resolved by the
    /// checker to field `idx` of `arg`'s tuple type. The engine loads the
    /// field; readers that care about the term's shape see the
    /// one-argument application through [`TypedExpr::as_apply`].
    Field {
        attr: Symbol,
        spec: usize,
        idx: usize,
        arg: Box<TypedExpr>,
    },
    /// Application of a function *value* (a view object or lambda) —
    /// `cities_in("Germany")` in Section 2.4.
    ApplyFun {
        fun: Box<TypedExpr>,
        args: Vec<TypedExpr>,
    },
    /// A lambda. Parameters and body are shared, not owned: evaluating
    /// the node into a closure (and cloning the term) bumps two reference
    /// counts instead of copying the subtree.
    Lambda {
        params: Arc<[(Symbol, DataType)]>,
        body: Arc<TypedExpr>,
    },
    /// A list term (operator argument).
    List(Vec<TypedExpr>),
    /// A product term (operator argument).
    Tuple(Vec<TypedExpr>),
}

impl TypedExpr {
    pub fn new(node: TypedNode, ty: DataType) -> TypedExpr {
        TypedExpr { node, ty }
    }

    /// The operator-application view of this node: an `Apply` as it is,
    /// and an attribute access `Field` as the one-argument application
    /// `attr(arg)` it was written as. Printing, pattern matching, costing
    /// and plan-cache keys read applications through this, so they see
    /// the same term whether or not the checker resolved a field.
    pub fn as_apply(&self) -> Option<(&Symbol, usize, &[TypedExpr])> {
        match &self.node {
            TypedNode::Apply { op, spec, args } => Some((op, *spec, args)),
            TypedNode::Field {
                attr, spec, arg, ..
            } => Some((attr, *spec, std::slice::from_ref(&**arg))),
            _ => None,
        }
    }

    /// Walk the term top-down, visiting every subterm.
    pub fn visit(&self, f: &mut dyn FnMut(&TypedExpr)) {
        f(self);
        match &self.node {
            TypedNode::Apply { args, .. } | TypedNode::List(args) | TypedNode::Tuple(args) => {
                for a in args {
                    a.visit(f);
                }
            }
            TypedNode::ApplyFun { fun, args } => {
                fun.visit(f);
                for a in args {
                    a.visit(f);
                }
            }
            TypedNode::Lambda { body, .. } => body.visit(f),
            TypedNode::Field { arg, .. } => arg.visit(f),
            TypedNode::Const(_) | TypedNode::Object(_) | TypedNode::Var(_) => {}
        }
    }

    /// Number of nodes in the term (a size metric used by benchmarks).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Convert back to an untyped (abstract-syntax) term. The optimizer
    /// rewrites terms by converting the matched region to abstract syntax,
    /// substituting, and re-checking the whole program term.
    pub fn to_expr(&self) -> crate::types::Expr {
        use crate::types::Expr;
        if let Some((op, _, args)) = self.as_apply() {
            return Expr::Apply {
                op: op.clone(),
                args: args.iter().map(|a| a.to_expr()).collect(),
            };
        }
        match &self.node {
            TypedNode::Const(c) => Expr::Const(c.clone()),
            TypedNode::Object(n) | TypedNode::Var(n) => Expr::Name(n.clone()),
            TypedNode::Apply { .. } | TypedNode::Field { .. } => unreachable!("returned above"),
            TypedNode::ApplyFun { fun, args } => Expr::Apply {
                op: Symbol::new("%call"),
                args: std::iter::once(fun.to_expr())
                    .chain(args.iter().map(|a| a.to_expr()))
                    .collect(),
            },
            TypedNode::Lambda { params, body } => Expr::Lambda {
                params: params.to_vec(),
                body: Box::new(body.to_expr()),
            },
            TypedNode::List(items) => Expr::List(items.iter().map(|i| i.to_expr()).collect()),
            TypedNode::Tuple(items) => Expr::Tuple(items.iter().map(|i| i.to_expr()).collect()),
        }
    }
}

impl fmt::Display for TypedExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((op, _, args)) = self.as_apply() {
            write!(f, "{op}")?;
            return write_items(f, "(", args, ")");
        }
        match &self.node {
            TypedNode::Const(c) => write!(f, "{c}"),
            TypedNode::Object(n) => write!(f, "{n}"),
            TypedNode::Var(v) => write!(f, "{v}"),
            TypedNode::Apply { .. } | TypedNode::Field { .. } => unreachable!("returned above"),
            TypedNode::ApplyFun { fun, args } => {
                write!(f, "({fun})")?;
                write_items(f, "(", args, ")")
            }
            TypedNode::Lambda { params, body } => {
                write!(f, "fun (")?;
                for (i, (x, t)) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}: {t}")?;
                }
                write!(f, ") {body}")
            }
            TypedNode::List(items) => write_items(f, "<", items, ">"),
            TypedNode::Tuple(items) => write_items(f, "(", items, ")"),
        }
    }
}

/// `open a, b, ... close`.
fn write_items(
    f: &mut fmt::Formatter<'_>,
    open: &str,
    items: &[TypedExpr],
    close: &str,
) -> fmt::Result {
    write!(f, "{open}")?;
    for (i, e) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{e}")?;
    }
    write!(f, "{close}")
}

impl fmt::Debug for TypedExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self} : {}", self.ty)
    }
}
