//! Witness synthesis: type-directed enumeration of well-typed plan
//! fragments matching a rule's left-hand side, and the rule
//! type-preservation verifier built on it (the engine behind the `L006`
//! lint and the rule fuzzer).
//!
//! A rewrite rule is checked *semantically*, not by inspecting its
//! template syntax: we build a small canonical [`Scenario`] (model
//! relations with representation objects linked through a `rep`
//! catalog), enumerate candidate terms shaped like the rule's LHS
//! pattern, keep the ones the checker accepts, and run a one-rule
//! optimizer over each witness. A rule is unsound when some witness
//! rewrite fails to re-check (ill-typed RHS) or re-checks at a type
//! that is not representation-equivalent to the witness's type (see
//! [`crate::types_equivalent`]).

use crate::pattern::{OpPat, TermPattern};
use crate::rewrite::{OptimizeOpts, Optimizer, Rule, RuleStep, Strategy};
use crate::OptError;
use sos_catalog::Catalog;
use sos_core::check::Checker;
use sos_core::typed::TypedExpr;
use sos_core::{Const, DataType, Expr, Signature, Symbol, TypeArg};

/// Per-node cap on enumerated candidate terms (the cartesian product of
/// argument candidates is truncated here, earliest combinations first).
const NODE_CAP: usize = 4096;

/// Default number of well-typed witnesses collected per rule.
pub const DEFAULT_WITNESSES: usize = 8;

/// A canonical database the verifier checks rules against: a handful of
/// model relations covering the builtin attribute types (int, string,
/// point, polygon), each linked to representation objects — a clustering
/// B-tree, scannable `srel`s and an LSD-tree — through a catalog named
/// `rep`, the name the paper's Section 5 rules consult.
pub struct Scenario {
    pub catalog: Catalog,
    /// Model (rel-typed) objects, in creation order: `(name, tuple type)`.
    pub models: Vec<(Symbol, DataType)>,
}

/// Object definitions `(name, type)` in creation order.
pub type ObjectDefs = Vec<(Symbol, DataType)>;
/// `rep` catalog links `(model, representation)`.
pub type RepLinks = Vec<(Symbol, Symbol)>;

/// The scenario's object set: `(name, type)` in creation order, plus the
/// `rep` catalog links `(model, representation)`. Exposed so the rule
/// fuzzer can install the same objects into a live database.
pub fn object_defs() -> (ObjectDefs, RepLinks) {
    let t_item = DataType::tuple(vec![
        (Symbol::new("k"), DataType::atom("int")),
        (Symbol::new("name"), DataType::atom("string")),
    ]);
    let t_ord = DataType::tuple(vec![
        (Symbol::new("k2"), DataType::atom("int")),
        (Symbol::new("label"), DataType::atom("string")),
    ]);
    let t_pt = DataType::tuple(vec![
        (Symbol::new("cid"), DataType::atom("int")),
        (Symbol::new("center"), DataType::atom("point")),
    ]);
    let t_st = DataType::tuple(vec![
        (Symbol::new("sname"), DataType::atom("string")),
        (Symbol::new("region"), DataType::atom("pgon")),
    ]);
    let btree_on = |t: &DataType, key: &str| {
        DataType::Cons(
            Symbol::new("btree"),
            vec![
                TypeArg::Type(t.clone()),
                TypeArg::Expr(Expr::Const(Const::Ident(Symbol::new(key)))),
                TypeArg::Type(DataType::atom("int")),
            ],
        )
    };
    let btree_item = btree_on(&t_item, "k");
    // A btree on a *differently-attributed* relation: equi-join witnesses
    // need an indexed inner whose tuple type differs from the outer's
    // (identical attribute sets are rejected by the join checker).
    let btree_ord = btree_on(&t_ord, "k2");
    let srel = |t: &DataType| DataType::Cons(Symbol::new("srel"), vec![TypeArg::Type(t.clone())]);
    // `lsdtree(t_st, fun (s) bbox(region(s)))` — the key function shape
    // the `lsdbbox` condition recognizes.
    let lsd_key = Expr::Lambda {
        params: vec![(Symbol::new("s"), t_st.clone())],
        body: Box::new(Expr::Apply {
            op: Symbol::new("bbox"),
            args: vec![Expr::Apply {
                op: Symbol::new("region"),
                args: vec![Expr::Name(Symbol::new("s"))],
            }],
        }),
    };
    let lsd_st = DataType::Cons(
        Symbol::new("lsdtree"),
        vec![TypeArg::Type(t_st.clone()), TypeArg::Expr(lsd_key)],
    );
    let catalog_ty = DataType::Cons(
        Symbol::new("catalog"),
        vec![TypeArg::List(vec![
            TypeArg::Type(DataType::atom("ident")),
            TypeArg::Type(DataType::atom("ident")),
        ])],
    );
    let objects = vec![
        (Symbol::new("fz_items"), DataType::rel(t_item.clone())),
        (Symbol::new("fz_items_btree"), btree_item),
        (Symbol::new("fz_items_srel"), srel(&t_item)),
        (Symbol::new("fz_items_b"), DataType::rel(t_item.clone())),
        (Symbol::new("fz_items_b_srel"), srel(&t_item)),
        (Symbol::new("fz_orders"), DataType::rel(t_ord.clone())),
        (Symbol::new("fz_orders_srel"), srel(&t_ord)),
        (Symbol::new("fz_orders_btree"), btree_ord),
        (Symbol::new("fz_points"), DataType::rel(t_pt.clone())),
        (Symbol::new("fz_points_srel"), srel(&t_pt)),
        (Symbol::new("fz_regions"), DataType::rel(t_st.clone())),
        (Symbol::new("fz_regions_lsd"), lsd_st),
        (Symbol::new("fz_regions_srel"), srel(&t_st)),
        (Symbol::new("rep"), catalog_ty),
    ];
    let links = vec![
        (Symbol::new("fz_items"), Symbol::new("fz_items_btree")),
        (Symbol::new("fz_items"), Symbol::new("fz_items_srel")),
        (Symbol::new("fz_items_b"), Symbol::new("fz_items_b_srel")),
        (Symbol::new("fz_orders"), Symbol::new("fz_orders_srel")),
        (Symbol::new("fz_orders"), Symbol::new("fz_orders_btree")),
        (Symbol::new("fz_points"), Symbol::new("fz_points_srel")),
        (Symbol::new("fz_regions"), Symbol::new("fz_regions_lsd")),
        (Symbol::new("fz_regions"), Symbol::new("fz_regions_srel")),
    ];
    (objects, links)
}

impl Scenario {
    /// Build the canonical scenario under a signature. Object creation
    /// never fails structurally (types are not validated by the
    /// catalog); under a signature missing the builtin constructors the
    /// witnesses simply fail to check and every rule reports
    /// [`Verdict::NeverFired`].
    pub fn build(sig: &Signature) -> Scenario {
        let mut catalog = Catalog::default();
        let (objects, links) = object_defs();
        let mut models = Vec::new();
        for (name, ty) in objects {
            if let DataType::Cons(c, args) = &ty {
                if c.as_str() == "rel" {
                    if let Some(TypeArg::Type(t)) = args.first() {
                        models.push((name.clone(), t.clone()));
                    }
                }
            }
            let _ = catalog.create_object(sig, name, ty);
        }
        for (model, rep) in links {
            let _ = catalog.catalog_insert(
                &Symbol::new("rep"),
                vec![Const::Ident(model), Const::Ident(rep)],
            );
        }
        Scenario { catalog, models }
    }

    /// The distinct tuple types of the scenario's model objects, in
    /// first-appearance order.
    fn tuple_types(&self) -> Vec<DataType> {
        let mut out: Vec<DataType> = Vec::new();
        for (_, t) in &self.models {
            if !out.contains(t) {
                out.push(t.clone());
            }
        }
        out
    }
}

/// A canonical constant of an attribute type, where one exists.
fn const_of(ty: &DataType) -> Option<Const> {
    match ty.cons_name()?.as_str() {
        "int" => Some(Const::Int(7)),
        "string" => Some(Const::Str("x".into())),
        "bool" => Some(Const::Bool(true)),
        _ => None,
    }
}

fn app(op: &Symbol, args: Vec<Expr>) -> Expr {
    Expr::Apply {
        op: op.clone(),
        args,
    }
}

fn attr_app(attr: &Symbol, var: &Symbol) -> Expr {
    app(attr, vec![Expr::Name(var.clone())])
}

/// Lambda parameters in scope during enumeration: pattern parameter
/// name, the actual parameter symbol used in generated terms, and its
/// (tuple) type.
type Env = Vec<(Symbol, Symbol, DataType)>;

struct Gen<'a> {
    scenario: &'a Scenario,
    checker: Checker<'a>,
    tuple_types: Vec<DataType>,
}

impl Gen<'_> {
    /// Candidate subterms for an unconstrained hole inside a lambda:
    /// the parameters themselves, their attribute projections,
    /// attribute-constant comparisons, `true`, and cross-parameter
    /// equalities — enough to exercise every builtin predicate shape.
    fn fun_universe(&self, env: &Env) -> Vec<Expr> {
        let mut out = Vec::new();
        for (_, actual, ty) in env {
            for (a, _) in ty.tuple_attrs().unwrap_or_default() {
                out.push(attr_app(&a, actual));
            }
        }
        for (_, actual, ty) in env {
            for (a, d) in ty.tuple_attrs().unwrap_or_default() {
                if let Some(c) = const_of(&d) {
                    out.push(app(
                        &Symbol::new("="),
                        vec![attr_app(&a, actual), Expr::Const(c)],
                    ));
                }
            }
        }
        out.push(Expr::Const(Const::Bool(true)));
        for (i, (_, a1, t1)) in env.iter().enumerate() {
            for (_, a2, t2) in env.iter().skip(i + 1) {
                for (x, dx) in t1.tuple_attrs().unwrap_or_default() {
                    for (y, dy) in t2.tuple_attrs().unwrap_or_default() {
                        if dx == dy {
                            out.push(app(
                                &Symbol::new("="),
                                vec![attr_app(&x, a1), attr_app(&y, a2)],
                            ));
                        }
                    }
                }
            }
        }
        for (_, actual, _) in env {
            out.push(Expr::Name(actual.clone()));
        }
        out
    }

    /// Candidate terms for a top-level (closed) hole: predicate
    /// lambdas, attribute-projection lambdas, `mktuple` literals, plain
    /// constants, and the scenario objects.
    fn hole_universe(&self) -> Vec<Expr> {
        let mut out = Vec::new();
        for t in &self.tuple_types {
            for (a, d) in t.tuple_attrs().unwrap_or_default() {
                if let Some(c) = const_of(&d) {
                    out.push(Expr::Lambda {
                        params: vec![(Symbol::new("t"), t.clone())],
                        body: Box::new(app(
                            &Symbol::new("="),
                            vec![attr_app(&a, &Symbol::new("t")), Expr::Const(c)],
                        )),
                    });
                }
            }
        }
        for t in &self.tuple_types {
            for (a, _) in t.tuple_attrs().unwrap_or_default() {
                out.push(Expr::Lambda {
                    params: vec![(Symbol::new("t"), t.clone())],
                    body: Box::new(attr_app(&a, &Symbol::new("t"))),
                });
            }
        }
        for t in &self.tuple_types {
            let attrs = t.tuple_attrs().unwrap_or_default();
            let pairs: Vec<Expr> = attrs
                .iter()
                .filter_map(|(a, d)| {
                    let c = const_of(d)?;
                    Some(Expr::Tuple(vec![
                        Expr::Const(Const::Ident(a.clone())),
                        Expr::Const(c),
                    ]))
                })
                .collect();
            if pairs.len() == attrs.len() {
                out.push(app(&Symbol::new("mktuple"), vec![Expr::List(pairs)]));
            }
        }
        out.push(Expr::Const(Const::Int(7)));
        out.push(Expr::Const(Const::Str("x".into())));
        for (name, _) in &self.scenario.models {
            out.push(Expr::Name(name.clone()));
        }
        out
    }

    /// Constants tried for a `ConstVar`: plain values plus every
    /// attribute name of the scenario (for attrname arguments).
    fn const_universe(&self) -> Vec<Expr> {
        let mut out = vec![
            Expr::Const(Const::Int(7)),
            Expr::Const(Const::Str("x".into())),
        ];
        for t in &self.tuple_types {
            for (a, _) in t.tuple_attrs().unwrap_or_default() {
                out.push(Expr::Const(Const::Ident(a)));
            }
        }
        out
    }

    fn gen(&self, pat: &TermPattern, env: &Env) -> Vec<Expr> {
        match pat {
            TermPattern::Var(_) => {
                if env.is_empty() {
                    self.hole_universe()
                } else {
                    self.fun_universe(env)
                }
            }
            TermPattern::ObjectVar(_) => self
                .scenario
                .models
                .iter()
                .map(|(n, _)| Expr::Name(n.clone()))
                .collect(),
            TermPattern::ConstVar(_) => self.const_universe(),
            TermPattern::Const(c) => vec![Expr::Const(c.clone())],
            TermPattern::Param(p) => env
                .iter()
                .find(|(pn, _, _)| pn == p)
                .map(|(_, actual, _)| vec![Expr::Name(actual.clone())])
                .unwrap_or_default(),
            TermPattern::As(_, inner) => self.gen(inner, env),
            TermPattern::AsFun { inner, .. } => self.gen(inner, env),
            TermPattern::FunApp { .. } => self.fun_universe(env),
            TermPattern::Apply { op, args } => {
                // An operator variable applied to a single lambda
                // parameter is an attribute access: enumerate the
                // parameter's attributes.
                if let (OpPat::Var(_), [TermPattern::Param(p)]) = (op, args.as_slice()) {
                    let Some((_, actual, ty)) = env.iter().find(|(pn, _, _)| pn == p) else {
                        return Vec::new();
                    };
                    return ty
                        .tuple_attrs()
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(a, _)| attr_app(&a, actual))
                        .collect();
                }
                let OpPat::Exact(opname) = op else {
                    return Vec::new();
                };
                let parts: Vec<Vec<Expr>> = args.iter().map(|a| self.gen(a, env)).collect();
                cartesian(&parts)
                    .into_iter()
                    .map(|row| app(opname, row))
                    .collect()
            }
            TermPattern::Lambda { params, body } => {
                let type_choices: Vec<Vec<DataType>> =
                    params.iter().map(|_| self.tuple_types.clone()).collect();
                let mut out = Vec::new();
                for assignment in cartesian(&type_choices) {
                    let mut inner_env = env.clone();
                    for (p, t) in params.iter().zip(&assignment) {
                        inner_env.push((p.clone(), p.clone(), t.clone()));
                    }
                    for b in self.gen(body, &inner_env) {
                        let lam = Expr::Lambda {
                            params: params
                                .iter()
                                .zip(&assignment)
                                .map(|(p, t)| (p.clone(), t.clone()))
                                .collect(),
                            body: Box::new(b),
                        };
                        // A lambda whose parameters are all in scope here
                        // is closed: pre-prune ill-typed bodies so the
                        // enclosing cartesian product stays small.
                        if env.is_empty() && self.checker.check_expr(&lam).is_err() {
                            continue;
                        }
                        out.push(lam);
                        if out.len() >= NODE_CAP {
                            return out;
                        }
                    }
                }
                out
            }
        }
    }
}

/// Truncated cartesian product, earliest combinations (leftmost factor
/// varying slowest) first.
fn cartesian<T: Clone>(parts: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = vec![Vec::new()];
    for part in parts {
        let mut next = Vec::new();
        'expand: for prefix in &out {
            for item in part {
                let mut row = prefix.clone();
                row.push(item.clone());
                next.push(row);
                if next.len() >= NODE_CAP {
                    break 'expand;
                }
            }
        }
        out = next;
        if out.is_empty() {
            return out;
        }
    }
    out
}

/// Enumerate up to `max` well-typed witnesses for a rule's LHS against
/// a scenario. Deterministic: candidates are generated in a fixed order
/// and checked in sequence.
pub fn witnesses(sig: &Signature, scenario: &Scenario, rule: &Rule, max: usize) -> Vec<TypedExpr> {
    let checker = Checker {
        sig,
        objects: &scenario.catalog,
    };
    let tuple_types = scenario.tuple_types();
    let g = Gen {
        scenario,
        checker: Checker {
            sig,
            objects: &scenario.catalog,
        },
        tuple_types,
    };
    let mut out = Vec::new();
    for cand in g.gen(&rule.lhs, &Vec::new()) {
        if let Ok(t) = checker.check_expr(&cand) {
            out.push(t);
            if out.len() >= max {
                break;
            }
        }
    }
    out
}

/// The verdict of verifying one rule against the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The rule fired on `fired` witnesses and preserved the plan type
    /// (modulo representation) on every one.
    Preserves { fired: usize },
    /// No enumerated witness made the rule fire — nothing to judge.
    /// (`witnesses` well-typed LHS instances were tried.)
    NeverFired { witnesses: usize },
    /// Rewriting `witness` produced a term the checker rejects.
    IllTyped { witness: String, error: String },
    /// Rewriting `witness` changed the plan's result type.
    TypeChanged { witness: String, detail: String },
}

/// One rule's verification result.
#[derive(Debug, Clone)]
pub struct RuleReport {
    pub step: String,
    pub rule: String,
    pub verdict: Verdict,
}

/// Verify one rule: run a one-rule optimizer over every witness and
/// report the first violation, if any.
pub fn verify_rule(sig: &Signature, scenario: &Scenario, step_name: &str, rule: &Rule) -> Verdict {
    let ws = witnesses(sig, scenario, rule, DEFAULT_WITNESSES);
    let one = Optimizer::new(vec![RuleStep {
        name: step_name.to_string(),
        rules: vec![rule.clone()],
        strategy: Strategy::OnceTopDown,
        budget: 8,
    }]);
    let checker = Checker {
        sig,
        objects: &scenario.catalog,
    };
    let traced = OptimizeOpts {
        traced: true,
        ..OptimizeOpts::default()
    };
    let mut fired = 0;
    for w in &ws {
        match one.optimize(w, &checker, &scenario.catalog, &traced) {
            Err(OptError::Recheck { error, .. }) => {
                return Verdict::IllTyped {
                    witness: w.to_string(),
                    error: error.to_string(),
                };
            }
            Err(_) => continue,
            Ok((_, _, trace)) => {
                if trace.is_empty() {
                    continue;
                }
                fired += 1;
                if let Some(reason) = trace.iter().find_map(|a| a.validation_failure.clone()) {
                    return Verdict::TypeChanged {
                        witness: w.to_string(),
                        detail: reason,
                    };
                }
            }
        }
    }
    if fired > 0 {
        Verdict::Preserves { fired }
    } else {
        Verdict::NeverFired {
            witnesses: ws.len(),
        }
    }
}

/// Verify every rule of an optimizer against the canonical scenario.
pub fn verify_optimizer(sig: &Signature, opt: &Optimizer) -> Vec<RuleReport> {
    let scenario = Scenario::build(sig);
    let mut out = Vec::new();
    for step in &opt.steps {
        for rule in &step.rules {
            out.push(RuleReport {
                step: step.name.clone(),
                rule: rule.name.clone(),
                verdict: verify_rule(sig, &scenario, &step.name, rule),
            });
        }
    }
    out
}
