//! The rewrite engine: rules, steps with control strategies, and the
//! optimizer driver.

use crate::condition::Condition;
use crate::pattern::{free_vars, match_term, RuleBindings, TermPattern};
use crate::validate::types_equivalent;
use crate::OptError;
use sos_catalog::Catalog;
use sos_core::check::Checker;
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{DataType, Expr, Symbol, TypeArg};
use std::borrow::Cow;
use std::time::Instant;

/// One optimization rule: pattern, conditions, template.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub lhs: TermPattern,
    pub conditions: Vec<Condition>,
    /// Template in abstract syntax. `Name(v)` splices the term bound to
    /// `v`; `Apply{op: f}` where `f` is a bound function variable becomes
    /// the bound lambda's body with its parameters substituted by the
    /// (variable) arguments, or else an application of the bound lambda
    /// or view object; a type written `$v` inside a lambda parameter
    /// splices the type bound to `v`.
    pub rhs: Expr,
}

/// How a step scans for redexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Apply at most one rewrite, scanning top-down.
    OnceTopDown,
    /// Rewrite until no rule applies, scanning top-down each pass.
    ExhaustiveTopDown,
    /// Rewrite until no rule applies, scanning bottom-up each pass.
    ExhaustiveBottomUp,
}

/// A step: a rule collection with a control strategy (the architecture
/// of \[BeG92\]).
#[derive(Debug, Clone)]
pub struct RuleStep {
    pub name: String,
    pub rules: Vec<Rule>,
    pub strategy: Strategy,
    /// Upper bound on rewrites before the step reports divergence.
    pub budget: usize,
}

impl RuleStep {
    pub fn exhaustive(name: &str, rules: Vec<Rule>) -> RuleStep {
        RuleStep {
            name: name.to_string(),
            rules,
            strategy: Strategy::ExhaustiveTopDown,
            budget: 200,
        }
    }
}

/// Counters reported after optimization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    pub rewrites: usize,
    pub rule_attempts: usize,
    /// Wall time of the whole optimize call, in nanoseconds.
    pub optimize_ns: u64,
    /// Time spent probing the plan cache before the rewriter ran (set by
    /// the system layer; zero when the cache is off).
    pub cache_lookup_ns: u64,
}

impl OptimizerStats {
    /// Fold another run's counters into this one (the metrics registry
    /// keeps cumulative totals across statements).
    pub fn absorb(&mut self, other: OptimizerStats) {
        self.rewrites += other.rewrites;
        self.rule_attempts += other.rule_attempts;
        self.optimize_ns += other.optimize_ns;
        self.cache_lookup_ns += other.cache_lookup_ns;
    }
}

/// One applied rewrite, recorded in application order when optimization
/// runs traced: which step and rule fired, the conditions the rule
/// checked, and the whole term before and after the rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleApplication {
    /// The rule step (e.g. `index-access`) the rule belongs to.
    pub step: String,
    /// The rule's name (e.g. `join-inside-lsdtree`).
    pub rule: String,
    /// The conditions that held for this application, rendered in the
    /// rule language (`rep(rel1, rep1)`, ...).
    pub conditions: Vec<String>,
    /// The whole (re-checked) term before the rewrite.
    pub before: String,
    /// The whole (re-checked) term after the rewrite.
    pub after: String,
}

/// A sequence of rule steps.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    pub steps: Vec<RuleStep>,
}

impl Optimizer {
    pub fn new(steps: Vec<RuleStep>) -> Optimizer {
        Optimizer { steps }
    }

    /// Optimize a closed, checked term. Every rewrite is re-checked,
    /// and its result type is compared (modulo representation) with the
    /// type before the rewrite: a rewrite that changes it rejects the
    /// plan with [`OptError::PlanTypeChanged`]. The rewrite trace (the
    /// one behind `EXPLAIN`) is empty unless `traced`; untraced runs
    /// render no term strings.
    pub fn optimize(
        &self,
        term: &TypedExpr,
        checker: &Checker,
        catalog: &Catalog,
        traced: bool,
    ) -> Result<(TypedExpr, OptimizerStats, Vec<RuleApplication>), OptError> {
        let started = Instant::now();
        let mut trace = traced.then(Vec::new);
        let mut stats = OptimizerStats::default();
        let mut current = term.clone();
        for (step_idx, step) in self.steps.iter().enumerate() {
            let mut rewrites_in_step = 0;
            loop {
                let search = Search {
                    rules: &step.rules,
                    catalog,
                    top_down: step.strategy != Strategy::ExhaustiveBottomUp,
                    render: trace.is_some(),
                };
                let Some(rewrite) = walk(&current, &search, &mut stats) else {
                    break;
                };
                let before = trace.is_some().then(|| current.to_string());
                let prev_ty = current.ty.clone();
                current = checker
                    .check_expr(&rewrite.raw)
                    .map_err(|e| OptError::Recheck {
                        rule: rewrite.label.clone(),
                        error: e,
                        term: format!("{}", rewrite.raw),
                    })?;
                if !types_equivalent(checker.sig, &prev_ty, &current.ty) {
                    return Err(OptError::PlanTypeChanged {
                        rule: rewrite.label,
                        before: prev_ty.to_string(),
                        after: current.ty.to_string(),
                    });
                }
                if let (Some(trace), Some(before)) = (trace.as_mut(), before) {
                    trace.push(RuleApplication {
                        step: step.name.clone(),
                        rule: rewrite.label,
                        conditions: rewrite.conditions,
                        before,
                        after: current.to_string(),
                    });
                }
                stats.rewrites += 1;
                rewrites_in_step += 1;
                if step.strategy == Strategy::OnceTopDown {
                    break;
                }
                if rewrites_in_step > step.budget {
                    return Err(OptError::NoFixpoint {
                        step: step_idx,
                        budget: step.budget,
                    });
                }
            }
        }
        stats.optimize_ns = started.elapsed().as_nanos() as u64;
        Ok((current, stats, trace.unwrap_or_default()))
    }
}

/// Search parameters threaded through the redex walk.
struct Search<'a> {
    rules: &'a [Rule],
    catalog: &'a Catalog,
    top_down: bool,
    /// Render rule conditions in the rule language (traced runs).
    render: bool,
}

/// The rewrite instantiated at a redex: the whole term in abstract
/// syntax with the template spliced in, re-checked before it applies.
struct Rewrite {
    label: String,
    conditions: Vec<String>,
    raw: Expr,
}

/// Find the first redex (by strategy order) and return the rewrite
/// instantiated there: the first matching rule's template under its
/// first condition solution.
fn walk(node: &TypedExpr, search: &Search, stats: &mut OptimizerStats) -> Option<Rewrite> {
    if search.top_down {
        if let Some(r) = try_rules(node, search, stats) {
            return Some(r);
        }
    }
    if let Some((i, mut c)) = walk_children(node, search, stats) {
        c.raw = rebuild(node, i, c.raw);
        return Some(c);
    }
    if !search.top_down {
        if let Some(r) = try_rules(node, search, stats) {
            return Some(r);
        }
    }
    None
}

fn walk_children(
    node: &TypedExpr,
    search: &Search,
    stats: &mut OptimizerStats,
) -> Option<(usize, Rewrite)> {
    let children: Vec<&TypedExpr> = match &node.node {
        TypedNode::Apply { args, .. } | TypedNode::List(args) | TypedNode::Tuple(args) => {
            args.iter().collect()
        }
        TypedNode::ApplyFun { fun, args } => std::iter::once(&**fun).chain(args.iter()).collect(),
        TypedNode::Lambda { body, .. } => vec![&**body],
        TypedNode::Field { arg, .. } => vec![&**arg],
        _ => Vec::new(),
    };
    for (i, c) in children.into_iter().enumerate() {
        if let Some(r) = walk(c, search, stats) {
            return Some((i, r));
        }
    }
    None
}

fn try_rules(node: &TypedExpr, search: &Search, stats: &mut OptimizerStats) -> Option<Rewrite> {
    for rule in search.rules {
        stats.rule_attempts += 1;
        let mut b = RuleBindings::default();
        if !match_term(&rule.lhs, node, &mut b) {
            continue;
        }
        // Pattern lambda parameters also bind their types, so templates
        // can type their own lambdas with `$param` placeholders.
        for (p, (_, ty)) in b.params.clone() {
            b.types.insert(p, TypeArg::Type(ty));
        }
        // Conditions: a frontier of alternative binding sets; the first
        // solution instantiates the template.
        let frontier = eval_conditions(&rule.conditions, vec![b], search.catalog);
        let Some(solution) = frontier.first() else {
            continue;
        };
        return Some(Rewrite {
            label: rule.name.clone(),
            conditions: rendered(search, &rule.conditions),
            raw: instantiate(&rule.rhs, solution),
        });
    }
    None
}

/// Evaluate a condition list over a frontier of binding sets.
fn eval_conditions(
    conditions: &[Condition],
    mut frontier: Vec<RuleBindings>,
    catalog: &Catalog,
) -> Vec<RuleBindings> {
    for cond in conditions {
        let mut next = Vec::new();
        for fb in &frontier {
            next.extend(cond.eval(fb, catalog));
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// Render conditions in the rule language for the rewrite trace (only on
/// traced runs — the hot path allocates nothing here).
fn rendered(search: &Search, conditions: &[Condition]) -> Vec<String> {
    if !search.render {
        return Vec::new();
    }
    conditions.iter().map(|c| c.to_string()).collect()
}

/// Rebuild a node in abstract syntax with child `i` replaced.
fn rebuild(node: &TypedExpr, i: usize, child: Expr) -> Expr {
    if let Some((op, _, args)) = node.as_apply() {
        return Expr::Apply {
            op: op.clone(),
            args: replace_at(args, i, child),
        };
    }
    match &node.node {
        TypedNode::List(args) => Expr::List(replace_at(args, i, child)),
        TypedNode::Tuple(args) => Expr::Tuple(replace_at(args, i, child)),
        TypedNode::ApplyFun { fun, args } => {
            let mut all: Vec<Expr> = std::iter::once(fun.to_expr())
                .chain(args.iter().map(|a| a.to_expr()))
                .collect();
            all[i] = child;
            Expr::Apply {
                op: Symbol::new("%call"),
                args: all,
            }
        }
        TypedNode::Lambda { params, .. } => Expr::Lambda {
            params: params.to_vec(),
            body: Box::new(child),
        },
        _ => node.to_expr(),
    }
}

fn replace_at(args: &[TypedExpr], i: usize, child: Expr) -> Vec<Expr> {
    args.iter()
        .enumerate()
        .map(|(j, a)| if j == i { child.clone() } else { a.to_expr() })
        .collect()
}

/// Instantiate a template from the rule bindings, avoiding capture: a
/// template lambda parameter that occurs free in a bound term is renamed
/// (primed) before the term is spliced under it. Function variables
/// applied to variables are substituted into, so the result is
/// beta-normal wherever the template is.
pub fn instantiate(template: &Expr, b: &RuleBindings) -> Expr {
    let mut free = Vec::new();
    for t in b.terms.values() {
        free_vars(t, &mut Vec::new(), &mut free);
    }
    subst(template, b, &free)
}

fn subst(template: &Expr, b: &RuleBindings, free: &[Symbol]) -> Expr {
    match template {
        Expr::Name(v) => {
            if let Some(t) = b.terms.get(v) {
                t.to_expr()
            } else if let Some(op) = b.ops.get(v) {
                // An operator-name variable used as an argument becomes
                // the identifier value (attribute-name arguments).
                Expr::Const(sos_core::Const::Ident(op.clone()))
            } else {
                template.clone()
            }
        }
        Expr::Const(_) => template.clone(),
        Expr::Apply { op, args } => {
            let new_args: Vec<Expr> = args.iter().map(|a| subst(a, b, free)).collect();
            if let Some(f) = b.terms.get(op) {
                // A bound function variable applied to variables is
                // substituted into: the lambda's body with its parameters
                // renamed to the arguments (beta-normal, as in Fiore &
                // Mahmoud's metavariable instantiation).
                if let (TypedNode::Lambda { params, body }, Some(names)) =
                    (&f.node, arg_names(&new_args))
                {
                    if params.len() == names.len() {
                        let map: Vec<(Symbol, Symbol)> =
                            params.iter().map(|(p, _)| p.clone()).zip(names).collect();
                        return rename(&body.to_expr(), &map);
                    }
                }
                // Any other application of a lambda or view object stays
                // a function application.
                if matches!(f.node, TypedNode::Lambda { .. } | TypedNode::Object(_)) {
                    return Expr::Apply {
                        op: Symbol::new("%call"),
                        args: std::iter::once(f.to_expr()).chain(new_args).collect(),
                    };
                }
            }
            // A bound operator-name variable renames the application.
            if let Some(n) = b.ops.get(op) {
                return Expr::Apply {
                    op: n.clone(),
                    args: new_args,
                };
            }
            Expr::Apply {
                op: op.clone(),
                args: new_args,
            }
        }
        Expr::Lambda { params, body } => {
            let mut body = Cow::Borrowed(body.as_ref());
            let params = params
                .iter()
                .map(|(n, t)| {
                    let mut fresh = n.clone();
                    while free.contains(&fresh) {
                        fresh = Symbol::new(&format!("{fresh}'"));
                    }
                    if fresh != *n {
                        body = Cow::Owned(rename(&body, &[(n.clone(), fresh.clone())]));
                    }
                    (fresh, instantiate_type(t, b))
                })
                .collect();
            Expr::Lambda {
                params,
                body: Box::new(subst(&body, b, free)),
            }
        }
        Expr::List(items) => Expr::List(items.iter().map(|e| subst(e, b, free)).collect()),
        Expr::Tuple(items) => Expr::Tuple(items.iter().map(|e| subst(e, b, free)).collect()),
        Expr::Seq(_) => template.clone(),
    }
}

/// The arguments as variable names, or `None` if any is not a name.
fn arg_names(args: &[Expr]) -> Option<Vec<Symbol>> {
    args.iter()
        .map(|a| match a {
            Expr::Name(n) => Some(n.clone()),
            _ => None,
        })
        .collect()
}

/// Rename the free occurrences of every `from` to its `to`,
/// simultaneously and without capture: a binder of `e` that would
/// capture a `to` is primed first.
fn rename(e: &Expr, map: &[(Symbol, Symbol)]) -> Expr {
    let to = |v: &Symbol| {
        map.iter()
            .find(|(from, _)| from == v)
            .map_or_else(|| v.clone(), |(_, to)| to.clone())
    };
    match e {
        Expr::Name(v) => Expr::Name(to(v)),
        Expr::Apply { op, args } => Expr::Apply {
            op: to(op),
            args: args.iter().map(|a| rename(a, map)).collect(),
        },
        Expr::Lambda { params, body } => {
            // A parameter shadows the variable of the same name.
            let mut inner: Vec<(Symbol, Symbol)> = map
                .iter()
                .filter(|(from, _)| params.iter().all(|(n, _)| n != from))
                .cloned()
                .collect();
            if inner.is_empty() {
                return e.clone();
            }
            let params = params
                .iter()
                .map(|(n, t)| {
                    let mut fresh = n.clone();
                    while inner.iter().any(|(_, to)| *to == fresh)
                        || (fresh != *n && mentions(body, &fresh))
                    {
                        fresh = Symbol::new(&format!("{fresh}'"));
                    }
                    if fresh != *n {
                        inner.push((n.clone(), fresh.clone()));
                    }
                    (fresh, t.clone())
                })
                .collect();
            Expr::Lambda {
                params,
                body: Box::new(rename(body, &inner)),
            }
        }
        Expr::List(items) => Expr::List(items.iter().map(|a| rename(a, map)).collect()),
        Expr::Tuple(items) => Expr::Tuple(items.iter().map(|a| rename(a, map)).collect()),
        Expr::Const(_) | Expr::Seq(_) => e.clone(),
    }
}

/// Whether `n` occurs anywhere in `e`, bound or free (the freshness test
/// for a primed binder).
fn mentions(e: &Expr, n: &Symbol) -> bool {
    match e {
        Expr::Name(v) => v == n,
        Expr::Apply { op, args } => op == n || args.iter().any(|a| mentions(a, n)),
        Expr::Lambda { params, body } => params.iter().any(|(p, _)| p == n) || mentions(body, n),
        Expr::List(items) | Expr::Tuple(items) => items.iter().any(|a| mentions(a, n)),
        Expr::Const(_) | Expr::Seq(_) => false,
    }
}

/// Replace `$v` type placeholders by bound types.
fn instantiate_type(t: &DataType, b: &RuleBindings) -> DataType {
    match t {
        DataType::Cons(name, args) => {
            if let Some(stripped) = name.as_str().strip_prefix('$') {
                if let Some(TypeArg::Type(bound)) = b.types.get(&Symbol::new(stripped)) {
                    return bound.clone();
                }
            }
            DataType::Cons(
                name.clone(),
                args.iter()
                    .map(|a| match a {
                        TypeArg::Type(x) => TypeArg::Type(instantiate_type(x, b)),
                        other => other.clone(),
                    })
                    .collect(),
            )
        }
        DataType::Fun(params, res) => DataType::Fun(
            params.iter().map(|p| instantiate_type(p, b)).collect(),
            Box::new(instantiate_type(res, b)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn int() -> DataType {
        DataType::atom("int")
    }

    fn var(n: &str) -> TypedExpr {
        TypedExpr::new(TypedNode::Var(Symbol::new(n)), int())
    }

    fn app(op: &str, args: Vec<TypedExpr>) -> TypedExpr {
        TypedExpr::new(
            TypedNode::Apply {
                op: Symbol::new(op),
                spec: 0,
                args,
            },
            int(),
        )
    }

    fn lambda(params: &[&str], body: TypedExpr) -> TypedExpr {
        let params: Vec<(Symbol, DataType)> =
            params.iter().map(|p| (Symbol::new(p), int())).collect();
        let ty = DataType::Fun(
            params.iter().map(|(_, t)| t.clone()).collect(),
            Box::new(int()),
        );
        TypedExpr::new(
            TypedNode::Lambda {
                params: params.into(),
                body: Arc::new(body),
            },
            ty,
        )
    }

    /// Bindings with function variable `f` bound to `term`.
    fn binding(f: &str, term: TypedExpr) -> RuleBindings {
        let mut b = RuleBindings::default();
        b.terms.insert(Symbol::new(f), term);
        b
    }

    fn call(f: &str, args: &[&str]) -> Expr {
        Expr::apply(f, args.iter().map(|a| Expr::name(a)).collect())
    }

    #[test]
    fn function_variable_instantiates_to_its_body() {
        // pointf ↦ fun (%p0) center(%p0): pointf(t1) is center(t1), also
        // under a template binder.
        let b = binding("pointf", lambda(&["%p0"], app("center", vec![var("%p0")])));
        assert_eq!(
            instantiate(&call("pointf", &["t1"]), &b).to_string(),
            "center(t1)"
        );
        let template = Expr::Lambda {
            params: vec![(Symbol::new("t1"), int())],
            body: Box::new(call("pointf", &["t1"])),
        };
        assert_eq!(
            instantiate(&template, &b).to_string(),
            "fun (t1: int) center(t1)"
        );
    }

    #[test]
    fn two_parameter_instantiation_is_simultaneous() {
        // f ↦ fun (t1, t2) -(t1, t2) applied to (t2, t1): renaming one
        // parameter after the other would give -(t1, t1).
        let b = binding(
            "f",
            lambda(&["t1", "t2"], app("-", vec![var("t1"), var("t2")])),
        );
        assert_eq!(
            instantiate(&call("f", &["t2", "t1"]), &b).to_string(),
            "-(t2, t1)"
        );
    }

    #[test]
    fn inner_binder_of_the_body_is_renamed_not_captured() {
        // f ↦ fun (p) g(fun (t1) +(p, t1)) applied to t1: the body's own
        // t1 is primed so the argument stays free.
        let body = app(
            "g",
            vec![lambda(&["t1"], app("+", vec![var("p"), var("t1")]))],
        );
        let b = binding("f", lambda(&["p"], body));
        assert_eq!(
            instantiate(&call("f", &["t1"]), &b).to_string(),
            "g(fun (t1': int) +(t1, t1'))"
        );
    }

    #[test]
    fn view_objects_and_non_variable_arguments_stay_applications() {
        let view = TypedExpr::new(TypedNode::Object(Symbol::new("cities_in")), int());
        assert_eq!(
            instantiate(&call("f", &["t1"]), &binding("f", view)).to_string(),
            "%call(cities_in, t1)"
        );
        let b = binding("f", lambda(&["p"], app("center", vec![var("p")])));
        let nested = Expr::apply("f", vec![call("g", &["t1"])]);
        assert_eq!(
            instantiate(&nested, &b).to_string(),
            "%call(fun (p: int) center(p), g(t1))"
        );
    }
}
