//! Rule conditions: catalog lookups and type tests, evaluated after the
//! structural match. A condition may have several solutions (an object
//! can have several representations), so evaluation maps a binding set
//! to a list of extended binding sets.

use crate::pattern::RuleBindings;
use sos_catalog::Catalog;
use sos_core::pattern::{PatternNode, TypePattern};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{DataType, Symbol, TypeArg};

/// A condition on the bindings of a rule.
#[derive(Debug, Clone)]
pub enum Condition {
    /// `rep(model, r)` — enumerate the representation objects linked to
    /// the object bound to `model` in the named catalog, binding `rep`.
    CatalogLink {
        catalog: Symbol,
        model: Symbol,
        rep: Symbol,
    },
    /// `var : pattern` — the type of the term bound to `var` matches the
    /// type pattern, binding its type variables.
    TypeIs { var: Symbol, pattern: TypePattern },
    /// The term bound to `var` is a literal constant.
    IsConst(Symbol),
    /// The object bound to `rep` is a `btree(t, a, d)` whose key
    /// attribute `a` equals the operator bound to the op-variable `attr`
    /// (or the ident constant bound to the term variable `attr`).
    BTreeKeyIs { rep: Symbol, attr: Symbol },
    /// Negation: holds when the inner condition has no solution. The
    /// inner condition must not bind new variables.
    Not(Box<Condition>),
    /// Soundness condition for the Section 5 spatial rule: the LSD-tree
    /// bound to `lsd` indexes `bbox(a(.))` where `a` is exactly the
    /// attribute the bound region function `fvar` projects — this makes
    /// `point_search` a superset filter for the `inside` predicate.
    LsdIndexesBBoxOf { lsd: Symbol, fvar: Symbol },
}

impl std::fmt::Display for Condition {
    /// The rule-language shape of the condition, as written in the
    /// paper's Section 5 examples (`rep(rel1, rep1)`); rewrite traces
    /// print these so every applied rule shows what it checked.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Condition::CatalogLink {
                catalog,
                model,
                rep,
            } => write!(f, "{catalog}({model}, {rep})"),
            Condition::TypeIs { var, pattern } => write!(f, "{var} : {pattern}"),
            Condition::IsConst(var) => write!(f, "is_const({var})"),
            Condition::BTreeKeyIs { rep, attr } => write!(f, "btree_key({rep}) = {attr}"),
            Condition::Not(inner) => write!(f, "not {inner}"),
            Condition::LsdIndexesBBoxOf { lsd, fvar } => {
                write!(f, "{lsd} indexes bbox of {fvar}")
            }
        }
    }
}

impl Condition {
    pub fn catalog_link(catalog: &str, model: &str, rep: &str) -> Condition {
        Condition::CatalogLink {
            catalog: Symbol::new(catalog),
            model: Symbol::new(model),
            rep: Symbol::new(rep),
        }
    }

    pub fn type_is(var: &str, pattern: TypePattern) -> Condition {
        Condition::TypeIs {
            var: Symbol::new(var),
            pattern,
        }
    }

    pub fn btree_key_is(rep: &str, attr: &str) -> Condition {
        Condition::BTreeKeyIs {
            rep: Symbol::new(rep),
            attr: Symbol::new(attr),
        }
    }

    pub fn negated(inner: Condition) -> Condition {
        Condition::Not(Box::new(inner))
    }

    pub fn lsd_indexes_bbox_of(lsd: &str, fvar: &str) -> Condition {
        Condition::LsdIndexesBBoxOf {
            lsd: Symbol::new(lsd),
            fvar: Symbol::new(fvar),
        }
    }

    /// Evaluate against one binding set, producing all extensions.
    pub fn eval(&self, b: &RuleBindings, catalog: &Catalog) -> Vec<RuleBindings> {
        match self {
            Condition::CatalogLink {
                catalog: cat,
                model,
                rep,
            } => {
                let Some(bound) = b.terms.get(model) else {
                    return Vec::new();
                };
                let TypedNode::Object(model_name) = &bound.node else {
                    return Vec::new();
                };
                catalog
                    .linked(cat, model_name)
                    .into_iter()
                    .filter_map(|rep_name| {
                        let ty = catalog.object(&rep_name)?.ty.clone();
                        let mut nb = b.clone();
                        nb.terms
                            .insert(rep.clone(), TypedExpr::new(TypedNode::Object(rep_name), ty));
                        Some(nb)
                    })
                    .collect()
            }
            Condition::TypeIs { var, pattern } => {
                let Some(bound) = b.terms.get(var) else {
                    return Vec::new();
                };
                let mut nb = b.clone();
                if match_type_pattern(pattern, &TypeArg::Type(bound.ty.clone()), &mut nb) {
                    vec![nb]
                } else {
                    Vec::new()
                }
            }
            Condition::IsConst(var) => match b.terms.get(var) {
                Some(t) if matches!(t.node, TypedNode::Const(_)) => vec![b.clone()],
                _ => Vec::new(),
            },
            Condition::Not(inner) => {
                if inner.eval(b, catalog).is_empty() {
                    vec![b.clone()]
                } else {
                    Vec::new()
                }
            }
            Condition::LsdIndexesBBoxOf { lsd, fvar } => {
                let (Some(lsd_t), Some(region_f)) = (b.terms.get(lsd), b.terms.get(fvar)) else {
                    return Vec::new();
                };
                match (lsd_key_attr(&lsd_t.ty), lambda_attr(region_f)) {
                    (Some(a), Some(c)) if a == c => vec![b.clone()],
                    _ => Vec::new(),
                }
            }
            Condition::BTreeKeyIs { rep, attr } => {
                let Some(bound) = b.terms.get(rep) else {
                    return Vec::new();
                };
                let attr_name = match (b.ops.get(attr), b.terms.get(attr)) {
                    (Some(n), _) => n.clone(),
                    (None, Some(t)) => match &t.node {
                        TypedNode::Const(sos_core::Const::Ident(n)) => n.clone(),
                        _ => return Vec::new(),
                    },
                    _ => return Vec::new(),
                };
                let attr_name = &attr_name;
                let DataType::Cons(cons, args) = &bound.ty else {
                    return Vec::new();
                };
                if cons.as_str() != "btree" || args.len() != 3 {
                    return Vec::new();
                }
                match &args[1] {
                    TypeArg::Expr(sos_core::Expr::Const(sos_core::Const::Ident(a)))
                        if a == attr_name =>
                    {
                        vec![b.clone()]
                    }
                    _ => Vec::new(),
                }
            }
        }
    }
}

/// The attribute `a` such that an `lsdtree` type's key function is
/// `fun (x) bbox(a(x))` (or `fun (x) bbox(x a)` in concrete form).
fn lsd_key_attr(ty: &DataType) -> Option<Symbol> {
    let DataType::Cons(name, args) = ty else {
        return None;
    };
    if name.as_str() != "lsdtree" {
        return None;
    }
    let TypeArg::Expr(sos_core::Expr::Lambda { params, body }) = args.get(1)? else {
        return None;
    };
    let (pname, _) = params.first()?;
    // Body must be `bbox` applied to an attribute of the parameter — in
    // abstract syntax `bbox(a(p))` or in concrete (unresolved) syntax
    // `bbox(p a)` / a one-word sequence with paren argument.
    let (op, barg) = match body.as_ref() {
        sos_core::Expr::Apply { op, args: bargs } if bargs.len() == 1 => (op.clone(), &bargs[0]),
        sos_core::Expr::Seq(atoms) => match atoms.as_slice() {
            [sos_core::SeqAtom::Word {
                name,
                brackets: None,
                parens: Some(pargs),
            }] if pargs.len() == 1 => (name.clone(), &pargs[0]),
            _ => return None,
        },
        _ => return None,
    };
    if op.as_str() != "bbox" {
        return None;
    }
    attr_of_param_expr(barg, pname)
}

/// The attribute a bound region function projects: `fun (t) a(t)`.
fn lambda_attr(f: &TypedExpr) -> Option<Symbol> {
    let TypedNode::Lambda { params, body } = &f.node else {
        return None;
    };
    let (pname, _) = params.first()?;
    match body.as_apply()? {
        (op, _, [arg]) => match &arg.node {
            TypedNode::Var(v) if v == pname => Some(op.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// `a(t)` (abstract) or `t a` (one-operand sequence) for parameter `t`.
fn attr_of_param_expr(e: &sos_core::Expr, param: &Symbol) -> Option<Symbol> {
    match e {
        sos_core::Expr::Apply { op, args } => match args.as_slice() {
            [sos_core::Expr::Name(n)] if n == param => Some(op.clone()),
            _ => None,
        },
        sos_core::Expr::Seq(atoms) => match atoms.as_slice() {
            [sos_core::SeqAtom::Word {
                name: n,
                brackets: None,
                parens: None,
            }, sos_core::SeqAtom::Word {
                name: a,
                brackets: None,
                parens: None,
            }] if n == param => Some(a.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// Plain structural type-pattern matching (no kinds, no widening):
/// binders bind type variables into `b.types`.
pub fn match_type_pattern(pat: &TypePattern, actual: &TypeArg, b: &mut RuleBindings) -> bool {
    if let Some(binder) = &pat.binder {
        if let Some(prev) = b.types.get(binder) {
            if prev != actual {
                return false;
            }
        } else {
            b.types.insert(binder.clone(), actual.clone());
        }
    }
    match &pat.node {
        PatternNode::Any => true,
        PatternNode::Cons(name, args) => {
            let TypeArg::Type(DataType::Cons(n2, actual_args)) = actual else {
                return false;
            };
            n2 == name
                && actual_args.len() == args.len()
                && args
                    .iter()
                    .zip(actual_args)
                    .all(|(p, a)| match_type_pattern(p, a, b))
        }
    }
}
