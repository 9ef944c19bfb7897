//! Kind checking, polymorphic operator resolution, and elaboration.
//!
//! This module gives the second-order signature its *checking* semantics:
//!
//! * [`Checker::check_type`] verifies that a type is a well-formed term of
//!   the top-level signature (constructor arities, argument sorts,
//!   constructor specs such as `btree`'s attribute/type consistency).
//! * [`Checker::check_expr`] elaborates an untyped term into a
//!   [`TypedExpr`]: it resolves concrete-syntax operand sequences
//!   ([`Expr::Seq`]), selects a matching [`OperatorSpec`] for every
//!   application by *pattern matching argument types against sort
//!   patterns* (binding quantified variables, Figure 1), applies subtype
//!   widening, elaborates parameter functions — including the paper's
//!   implicit-lambda sugar `select[pop > 100000]` and
//!   attribute-name-as-function shorthand — and finally computes result
//!   types, calling registered type operators where the spec says
//!   `-> s: KIND`.

use crate::error::{CheckError, CheckResult};
use crate::pattern::{PatternNode, SortPattern, TypePattern};
use crate::signature::{Signature, TypeOpCtx};
use crate::spec::{ArgCount, OpName, OperatorSpec, Quantifier, ResultSpec, SyntaxPattern};
use crate::symbol::Symbol;
use crate::typed::{TypedExpr, TypedNode};
use crate::types::{Const, DataType, Expr, SeqAtom, TypeArg};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Where object (database) names get their types during checking.
pub trait ObjectEnv {
    fn object_type(&self, name: &Symbol) -> Option<DataType>;
}

/// An environment with no objects (pure expression checking).
pub struct EmptyEnv;

impl ObjectEnv for EmptyEnv {
    fn object_type(&self, _name: &Symbol) -> Option<DataType> {
        None
    }
}

impl ObjectEnv for HashMap<Symbol, DataType> {
    fn object_type(&self, name: &Symbol) -> Option<DataType> {
        self.get(name).cloned()
    }
}

/// Lexically scoped lambda variables.
#[derive(Default)]
pub struct Scope {
    vars: Vec<(Symbol, DataType)>,
}

impl Scope {
    pub fn new() -> Scope {
        Scope::default()
    }

    fn lookup(&self, name: &Symbol) -> Option<&DataType> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    fn push(&mut self, name: Symbol, ty: DataType) {
        self.vars.push((name, ty));
    }

    fn truncate(&mut self, len: usize) {
        self.vars.truncate(len);
    }

    fn len(&self) -> usize {
        self.vars.len()
    }
}

/// The type checker: a signature plus an object environment.
pub struct Checker<'a> {
    pub sig: &'a Signature,
    pub objects: &'a dyn ObjectEnv,
}

/// The prefix used for synthesized implicit-lambda parameters; it cannot
/// collide with user identifiers (the lexer never produces `%`).
const IMPLICIT_PARAM: &str = "%p";

impl<'a> Checker<'a> {
    pub fn new(sig: &'a Signature, objects: &'a dyn ObjectEnv) -> Self {
        Checker { sig, objects }
    }

    // =====================================================================
    // Types (the top-level signature)
    // =====================================================================

    /// Verify that `ty` is a well-formed type of the signature.
    pub fn check_type(&self, ty: &DataType) -> CheckResult<()> {
        match ty {
            DataType::Fun(params, res) => {
                for p in params {
                    self.check_type(p)?;
                }
                self.check_type(res)
            }
            DataType::Cons(name, args) => {
                let def = self
                    .sig
                    .constructor(name)
                    .ok_or_else(|| CheckError::UnknownConstructor(name.clone()))?
                    .clone();
                if def.args.len() != args.len() {
                    return Err(CheckError::BadTypeArgs {
                        constructor: name.clone(),
                        message: format!(
                            "expected {} argument(s), got {}",
                            def.args.len(),
                            args.len()
                        ),
                    });
                }
                // Validate nested types first so errors point at the leaf.
                for a in args {
                    self.check_nested_types(a)?;
                }
                let mut ctx = MatchCtx::new(self.sig, &def.quantifiers);
                let mut scope = Scope::new();
                for (pat, arg) in def.args.iter().zip(args) {
                    self.match_type_arg(pat, arg, &mut ctx, &mut scope)
                        .map_err(|m| CheckError::BadTypeArgs {
                            constructor: name.clone(),
                            message: m,
                        })?;
                }
                ctx.finish_inlists().map_err(|m| CheckError::BadTypeArgs {
                    constructor: name.clone(),
                    message: m,
                })?;
                Ok(())
            }
        }
    }

    fn check_nested_types(&self, arg: &TypeArg) -> CheckResult<()> {
        match arg {
            TypeArg::Type(t) => self.check_type(t),
            TypeArg::List(items) | TypeArg::Pair(items) => {
                for i in items {
                    self.check_nested_types(i)?;
                }
                Ok(())
            }
            TypeArg::Expr(_) => Ok(()), // typed during matching
        }
    }

    /// Match one constructor argument against its sort pattern,
    /// elaborating embedded value expressions (key functions, names).
    fn match_type_arg(
        &self,
        pat: &SortPattern,
        arg: &TypeArg,
        ctx: &mut MatchCtx,
        scope: &mut Scope,
    ) -> Result<(), String> {
        match arg {
            TypeArg::Expr(e) => {
                self.elaborate(e, pat, ctx, scope)?;
                Ok(())
            }
            other => ctx.match_sort(pat, other),
        }
    }

    // =====================================================================
    // Expressions (the bottom-level signature)
    // =====================================================================

    /// Elaborate a closed term.
    pub fn check_expr(&self, e: &Expr) -> CheckResult<TypedExpr> {
        let mut scope = Scope::new();
        self.check_in(e, &mut scope)
    }

    /// Elaborate a term under lambda-bound variables.
    pub fn check_in(&self, e: &Expr, scope: &mut Scope) -> CheckResult<TypedExpr> {
        match e {
            Expr::Const(c) => Ok(TypedExpr::new(TypedNode::Const(c.clone()), const_type(c))),
            Expr::Name(n) => self.check_name(n, scope),
            Expr::Apply { op, args } => self.resolve_apply(op, args, scope),
            Expr::Lambda { params, body } => {
                for (_, t) in params {
                    self.check_type(t)?;
                }
                let base = scope.len();
                for (x, t) in params {
                    scope.push(x.clone(), t.clone());
                }
                let body_t = self.check_in(body, scope)?;
                scope.truncate(base);
                let ty = DataType::Fun(
                    params.iter().map(|(_, t)| t.clone()).collect(),
                    Box::new(body_t.ty.clone()),
                );
                Ok(TypedExpr::new(
                    TypedNode::Lambda {
                        params: params.as_slice().into(),
                        body: Arc::new(body_t),
                    },
                    ty,
                ))
            }
            Expr::Seq(atoms) => self.resolve_seq(atoms, scope),
            Expr::List(_) | Expr::Tuple(_) => Err(CheckError::Other(
                "list/product terms may only appear as operator arguments".into(),
            )),
        }
    }

    fn check_name(&self, n: &Symbol, scope: &mut Scope) -> CheckResult<TypedExpr> {
        if let Some(t) = scope.lookup(n) {
            return Ok(TypedExpr::new(TypedNode::Var(n.clone()), t.clone()));
        }
        if let Some(t) = self.objects.object_type(n) {
            return Ok(TypedExpr::new(TypedNode::Object(n.clone()), t));
        }
        Err(CheckError::UnknownName(n.clone()))
    }

    // ---- concrete-syntax sequences --------------------------------------

    /// Resolve an operand/operator sequence with the operand-stack scheme
    /// described in Section 2.3 (and used by the Gral system).
    fn resolve_seq(&self, atoms: &[SeqAtom], scope: &mut Scope) -> CheckResult<TypedExpr> {
        let mut stack: Vec<Expr> = Vec::new();
        for atom in atoms {
            match atom {
                SeqAtom::Operand(e) => stack.push(e.clone()),
                SeqAtom::Word {
                    name,
                    brackets,
                    parens,
                } => self.resolve_word(name, brackets, parens, &mut stack, scope)?,
            }
        }
        match stack.len() {
            1 => {
                let e = stack.pop().expect("one element");
                // Avoid infinite recursion on a single bare-word sequence.
                if let Expr::Seq(inner) = &e {
                    if inner.len() == 1 {
                        return Err(CheckError::BadSequence(format!(
                            "cannot resolve `{}`",
                            excerpt(&e)
                        )));
                    }
                }
                self.check_in(&e, scope)
            }
            n => Err(CheckError::BadSequence(format!(
                "sequence leaves {n} operands (expected exactly 1): {}",
                excerpt(&SpaceSeparated(atoms))
            ))),
        }
    }

    fn resolve_word(
        &self,
        name: &Symbol,
        brackets: &Option<Vec<Expr>>,
        parens: &Option<Vec<Expr>>,
        stack: &mut Vec<Expr>,
        scope: &mut Scope,
    ) -> CheckResult<()> {
        let is_operand_name =
            scope.lookup(name).is_some() || self.objects.object_type(name).is_some();
        let is_fixed_op = self.sig.is_fixed_op(name);

        if let Some(pargs) = parens {
            if is_fixed_op && !is_operand_name {
                let syntax = self
                    .sig
                    .syntax_of(name)
                    .cloned()
                    .unwrap_or_else(SyntaxPattern::prefix);
                if syntax.before == 0 && brackets.is_none() {
                    // Prefix application: `insert (rel, c)`.
                    stack.push(Expr::Apply {
                        op: name.clone(),
                        args: pargs.clone(),
                    });
                    return Ok(());
                }
                // A postfix operator juxtaposed with a parenthesized
                // operand (`feed (fun ...) search_join`): apply the
                // operator to its preceding operands, then push the
                // parenthesized expressions as following operands.
                self.resolve_word(name, brackets, &None, stack, scope)?;
                for p in pargs {
                    stack.push(p.clone());
                }
                return Ok(());
            }
            if is_operand_name {
                // A function-valued object applied to arguments
                // (`cities_in ("Germany")`), or juxtaposition
                // (`states_rep (c center) point_search`).
                let ty = scope
                    .lookup(name)
                    .cloned()
                    .or_else(|| self.objects.object_type(name));
                if let Some(DataType::Fun(params, _)) = ty {
                    if params.len() == pargs.len() {
                        stack.push(Expr::Apply {
                            op: Symbol::new("%call"),
                            args: std::iter::once(Expr::Name(name.clone()))
                                .chain(pargs.iter().cloned())
                                .collect(),
                        });
                        return Ok(());
                    }
                }
                stack.push(Expr::Name(name.clone()));
                for p in pargs {
                    stack.push(p.clone());
                }
                return Ok(());
            }
            return Err(CheckError::UnknownName(name.clone()));
        }

        let treat_as_operator = if brackets.is_some() {
            true
        } else if is_operand_name {
            false
        } else if is_fixed_op {
            true
        } else {
            // Unknown bare name: a (possible) attribute operator when it
            // has an operand to consume; otherwise an identifier operand
            // (e.g. inside an implicit lambda or an `ident` argument).
            !stack.is_empty()
        };

        if !treat_as_operator {
            stack.push(Expr::Name(name.clone()));
            return Ok(());
        }

        let syntax = self
            .sig
            .syntax_of(name)
            .cloned()
            .unwrap_or_else(|| SyntaxPattern::postfix(1));
        let mut args: Vec<Expr> = Vec::new();
        if stack.len() < syntax.before {
            return Err(CheckError::BadSequence(format!(
                "operator `{name}` needs {} preceding operand(s), found {}",
                syntax.before,
                stack.len()
            )));
        }
        let split = stack.len() - syntax.before;
        args.extend(stack.drain(split..));
        match (&syntax.brackets, brackets) {
            (Some(ArgCount::Variadic), Some(bargs)) => {
                args.push(Expr::List(bargs.clone()));
            }
            (Some(ArgCount::Exact(k)), Some(bargs)) => {
                if bargs.len() != *k {
                    return Err(CheckError::BadSequence(format!(
                        "operator `{name}` expects {k} bracket argument(s), got {}",
                        bargs.len()
                    )));
                }
                args.extend(bargs.iter().cloned());
            }
            (None, Some(bargs)) => {
                // Attribute-style operator given brackets anyway; pass
                // them through positionally.
                args.extend(bargs.iter().cloned());
            }
            (Some(ArgCount::Exact(k)), None) if *k > 0 => {
                return Err(CheckError::BadSequence(format!(
                    "operator `{name}` expects {k} bracket argument(s)"
                )));
            }
            _ => {}
        }
        let _ = scope;
        stack.push(Expr::Apply {
            op: name.clone(),
            args,
        });
        Ok(())
    }

    // ---- operator resolution --------------------------------------------

    fn resolve_apply(
        &self,
        op: &Symbol,
        raw_args: &[Expr],
        scope: &mut Scope,
    ) -> CheckResult<TypedExpr> {
        // `%call` is the internal marker for applying a function value.
        if op.as_str() == "%call" {
            let fun = self.check_in(&raw_args[0], scope)?;
            let DataType::Fun(params, res) = fun.ty.clone() else {
                return Err(CheckError::Other(format!(
                    "`{}` is not a function value",
                    raw_args[0]
                )));
            };
            if params.len() != raw_args.len() - 1 {
                return Err(CheckError::Other(format!(
                    "function expects {} argument(s), got {}",
                    params.len(),
                    raw_args.len() - 1
                )));
            }
            let mut args = Vec::new();
            for (p, raw) in params.iter().zip(&raw_args[1..]) {
                let a = self.check_in(raw, scope)?;
                if &a.ty != p {
                    return Err(CheckError::Other(format!(
                        "function argument `{raw}` has type {}, expected {p}",
                        a.ty
                    )));
                }
                args.push(a);
            }
            return Ok(TypedExpr::new(
                TypedNode::ApplyFun {
                    fun: Box::new(fun),
                    args,
                },
                *res,
            ));
        }

        let candidates = self.sig.candidates(op);
        if candidates.is_empty() {
            return Err(CheckError::UnknownOperator(op.clone()));
        }
        let mut rejections = Vec::new();
        for idx in candidates {
            match self.try_spec(idx, op, raw_args, scope) {
                Ok(t) => return Ok(t),
                Err(msg) => rejections.push(msg),
            }
        }
        let arg_types: Vec<String> = raw_args
            .iter()
            .map(|a| {
                self.check_in(a, scope)
                    .map(|t| t.ty.to_string())
                    .unwrap_or_else(|_| format!("<{a}>"))
            })
            .collect();
        Err(CheckError::NoMatchingSpec {
            op: op.clone(),
            arg_types,
            rejections,
        })
    }

    fn try_spec(
        &self,
        spec_idx: usize,
        op: &Symbol,
        raw_args: &[Expr],
        scope: &mut Scope,
    ) -> Result<TypedExpr, String> {
        let spec: OperatorSpec = self.sig.spec(spec_idx).clone();
        if spec.args.len() != raw_args.len() {
            return Err(format!(
                "spec `{}` expects {} argument(s), got {}",
                display_op_name(&spec.name),
                spec.args.len(),
                raw_args.len()
            ));
        }
        let mut ctx = MatchCtx::new(self.sig, &spec.quantifiers);
        if let OpName::Var(v) = &spec.name {
            ctx.bind(
                v.clone(),
                TypeArg::Expr(Expr::Const(Const::Ident(op.clone()))),
            )?;
        }
        let mut typed_args = Vec::with_capacity(raw_args.len());
        for (pat, raw) in spec.args.iter().zip(raw_args) {
            typed_args.push(self.elaborate(raw, pat, &mut ctx, scope)?);
        }
        ctx.finish_inlists()?;
        let ty = match &spec.result {
            ResultSpec::Pattern(p) => ctx.instantiate_type(p)?,
            ResultSpec::TypeOperator { var: _, kind } => {
                let top = self
                    .sig
                    .type_op(match &spec.name {
                        OpName::Fixed(n) => n,
                        OpName::Var(_) => op,
                    })
                    .ok_or_else(|| format!("no type operator registered for `{op}`"))?;
                let result = top(&TypeOpCtx {
                    bindings: &ctx.bindings,
                    args: &typed_args,
                })?;
                if self.sig.kind_of(&result).is_some() && !self.sig.type_in_kind(&result, kind) {
                    return Err(format!(
                        "type operator for `{op}` produced {result}, not of kind {kind}"
                    ));
                }
                result
            }
        };
        if spec.is_update && !matches!(typed_args[0].node, TypedNode::Object(_)) {
            return Err(format!(
                "update operator `{op}` requires a named object as first argument"
            ));
        }
        // A var-named spec applied to a tuple with that attribute is a
        // field access: record the position now, so evaluation never
        // searches the tuple type.
        let field = match (&spec.name, typed_args.as_slice()) {
            (OpName::Var(_), [arg]) => arg
                .ty
                .tuple_attrs()
                .and_then(|attrs| attrs.iter().position(|(a, _)| a == op)),
            _ => None,
        };
        let node = match field {
            Some(idx) => TypedNode::Field {
                attr: op.clone(),
                spec: spec_idx,
                idx,
                arg: Box::new(typed_args.remove(0)),
            },
            None => TypedNode::Apply {
                op: op.clone(),
                spec: spec_idx,
                args: typed_args,
            },
        };
        Ok(TypedExpr::new(node, ty))
    }

    // ---- argument elaboration --------------------------------------------

    /// Elaborate a raw argument against its sort pattern, updating
    /// bindings. This is where parameter functions, implicit lambdas,
    /// lists and products are handled.
    fn elaborate(
        &self,
        raw: &Expr,
        pat: &SortPattern,
        ctx: &mut MatchCtx,
        scope: &mut Scope,
    ) -> Result<TypedExpr, String> {
        match pat {
            SortPattern::Fun(ps, rp) => self.elaborate_function(raw, ps, rp, ctx, scope),
            SortPattern::List(el) => {
                let Expr::List(items) = raw else {
                    return Err(format!("expected a list argument, got `{raw}`"));
                };
                if items.is_empty() {
                    return Err("list arguments must be non-empty (sort s+)".into());
                }
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.elaborate(item, el, ctx, scope)?);
                }
                Ok(TypedExpr::new(
                    TypedNode::List(out),
                    DataType::atom("%list"),
                ))
            }
            SortPattern::Product(ps) => {
                let Expr::Tuple(items) = raw else {
                    return Err(format!("expected a product argument, got `{raw}`"));
                };
                if items.len() != ps.len() {
                    return Err(format!(
                        "product argument has {} component(s), expected {}",
                        items.len(),
                        ps.len()
                    ));
                }
                let mut out = Vec::with_capacity(items.len());
                for (p, item) in ps.iter().zip(items) {
                    out.push(self.elaborate(item, p, ctx, scope)?);
                }
                Ok(TypedExpr::new(
                    TypedNode::Tuple(out),
                    DataType::atom("%prod"),
                ))
            }
            SortPattern::Union(alts) => {
                let mut errs = Vec::new();
                for alt in alts {
                    let snapshot = ctx.bindings.clone();
                    match self.elaborate(raw, alt, ctx, scope) {
                        Ok(t) => return Ok(t),
                        Err(e) => {
                            ctx.bindings = snapshot;
                            errs.push(e);
                        }
                    }
                }
                Err(format!("no union alternative matched: {}", errs.join("; ")))
            }
            _ => {
                // Value positions expecting identifiers accept bare names.
                if expects_ident(pat, ctx) {
                    if let Some(n) = bare_name(raw) {
                        let t = TypedExpr::new(
                            TypedNode::Const(Const::Ident(n.clone())),
                            DataType::atom("ident"),
                        );
                        ctx.match_sort(pat, &TypeArg::Expr(Expr::Const(Const::Ident(n))))?;
                        return Ok(t);
                    }
                }
                let mut typed = self.check_in(raw, scope).map_err(|e| e.to_string())?;
                // Auto-apply nullary views used as plain operands.
                if let DataType::Fun(params, inner) = &typed.ty {
                    if params.is_empty() {
                        let inner = (**inner).clone();
                        typed = TypedExpr::new(
                            TypedNode::ApplyFun {
                                fun: Box::new(typed),
                                args: Vec::new(),
                            },
                            inner,
                        );
                    }
                }
                let summary = summarize(&typed);
                ctx.match_sort(pat, &summary)?;
                Ok(typed)
            }
        }
    }

    fn elaborate_function(
        &self,
        raw: &Expr,
        ps: &[SortPattern],
        rp: &SortPattern,
        ctx: &mut MatchCtx,
        scope: &mut Scope,
    ) -> Result<TypedExpr, String> {
        let expected: Vec<DataType> = ps
            .iter()
            .map(|p| ctx.instantiate_type(p))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot determine parameter function type: {e}"))?;

        // Case 1: an explicit lambda.
        if let Expr::Lambda { params, body } = raw {
            if params.len() != expected.len() {
                return Err(format!(
                    "parameter function has {} parameter(s), expected {}",
                    params.len(),
                    expected.len()
                ));
            }
            for ((_, t), exp) in params.iter().zip(&expected) {
                if t != exp {
                    return Err(format!("parameter declared as {t}, expected {exp}"));
                }
            }
            return self.finish_lambda(params.clone(), body, &expected, rp, ctx, scope);
        }

        // Case 2: an attribute name as a unary function (`btree(city, pop)`,
        // `project[(name, cname)]`).
        if let Some(n) = bare_name(raw) {
            if expected.len() == 1 {
                if let Some(attrs) = expected[0].tuple_attrs() {
                    if attrs.iter().any(|(a, _)| a == &n) {
                        let p = Symbol::new(&format!("{IMPLICIT_PARAM}0"));
                        let body = Expr::Apply {
                            op: n.clone(),
                            args: vec![Expr::Name(p.clone())],
                        };
                        return self.finish_lambda(
                            vec![(p, expected[0].clone())],
                            &body,
                            &expected,
                            rp,
                            ctx,
                            scope,
                        );
                    }
                }
            }
            // A named function-valued object used as the parameter.
            if let Some(DataType::Fun(op_params, op_res)) = self.objects.object_type(&n) {
                if op_params == expected {
                    let typed = TypedExpr::new(
                        TypedNode::Object(n),
                        DataType::Fun(op_params, op_res.clone()),
                    );
                    ctx.match_sort(rp, &TypeArg::Type(*op_res))?;
                    return Ok(typed);
                }
            }
        }

        // Case 3: the implicit lambda of Section 2.3 — attribute names in
        // the expression refer to components of the expected tuple types.
        let mut params = Vec::with_capacity(expected.len());
        let mut attr_map: HashMap<Symbol, Symbol> = HashMap::new();
        for (i, t) in expected.iter().enumerate() {
            let p = Symbol::new(&format!("{IMPLICIT_PARAM}{i}"));
            if let Some(attrs) = t.tuple_attrs() {
                for (a, _) in attrs {
                    if let Some(prev) = attr_map.get(&a) {
                        if prev != &p {
                            return Err(format!(
                                "attribute `{a}` is ambiguous between parameter tuples"
                            ));
                        }
                    }
                    attr_map.insert(a, p.clone());
                }
            }
            params.push((p, t.clone()));
        }
        let body = subst_attrs(raw, &attr_map);
        self.finish_lambda(params, &body, &expected, rp, ctx, scope)
    }

    fn finish_lambda(
        &self,
        params: Vec<(Symbol, DataType)>,
        body: &Expr,
        expected: &[DataType],
        rp: &SortPattern,
        ctx: &mut MatchCtx,
        scope: &mut Scope,
    ) -> Result<TypedExpr, String> {
        let base = scope.len();
        for (x, t) in &params {
            scope.push(x.clone(), t.clone());
        }
        let body_t = self.check_in(body, scope).map_err(|e| e.to_string());
        scope.truncate(base);
        let body_t = body_t?;
        ctx.match_sort(rp, &TypeArg::Type(body_t.ty.clone()))
            .map_err(|e| format!("parameter function result: {e}"))?;
        let ty = DataType::Fun(expected.to_vec(), Box::new(body_t.ty.clone()));
        Ok(TypedExpr::new(
            TypedNode::Lambda {
                params: params.into(),
                body: Arc::new(body_t),
            },
            ty,
        ))
    }
}

fn display_op_name(n: &OpName) -> String {
    match n {
        OpName::Fixed(s) => s.to_string(),
        OpName::Var(s) => format!("<{s}>"),
    }
}

/// Bytes of source text an error message quotes before it elides the
/// rest.
const EXCERPT_BYTES: usize = 80;

/// `text` as an error message quotes it: whole when short, otherwise its
/// first [`EXCERPT_BYTES`] (cut at a character boundary) followed by
/// `… (N more bytes)`, so a huge input never echoes back whole. The
/// rendering goes through an [`Excerpt`] sink, so only the quoted head
/// is ever stored.
fn excerpt(text: &impl fmt::Display) -> String {
    let mut sink = Excerpt::default();
    let _ = write!(sink, "{text}");
    if sink.total <= EXCERPT_BYTES {
        return sink.head;
    }
    let more = sink.total - sink.head.len();
    format!("{}… ({more} more bytes)", sink.head)
}

/// A [`fmt::Write`] sink that keeps the first [`EXCERPT_BYTES`] of what
/// is written (whole characters only) and counts the rest.
#[derive(Default)]
struct Excerpt {
    head: String,
    /// Bytes written in all, kept or not.
    total: usize,
}

impl fmt::Write for Excerpt {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Once a character has been dropped the head is final, even if a
        // later, narrower one would fit.
        if self.total == self.head.len() {
            for c in s.chars() {
                if self.head.len() + c.len_utf8() > EXCERPT_BYTES {
                    break;
                }
                self.head.push(c);
            }
        }
        self.total += s.len();
        Ok(())
    }
}

/// Sequence atoms rendered as the source spelled them, one space apart.
struct SpaceSeparated<'a>(&'a [SeqAtom]);

impl fmt::Display for SpaceSeparated<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, atom) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{atom}")?;
        }
        Ok(())
    }
}

/// The type of a literal constant.
pub fn const_type(c: &Const) -> DataType {
    match c {
        Const::Int(_) => DataType::atom("int"),
        Const::Real(_) => DataType::atom("real"),
        Const::Str(_) => DataType::atom("string"),
        Const::Bool(_) => DataType::atom("bool"),
        Const::Ident(_) => DataType::atom("ident"),
    }
}

/// Summarize a typed term as a [`TypeArg`] for pattern matching:
/// constants keep their value (so value variables like `attrname` can
/// bind); everything else is represented by its type.
fn summarize(t: &TypedExpr) -> TypeArg {
    match &t.node {
        TypedNode::Const(c) => TypeArg::Expr(Expr::Const(c.clone())),
        TypedNode::List(items) => TypeArg::List(items.iter().map(summarize).collect()),
        TypedNode::Tuple(items) => TypeArg::Pair(items.iter().map(summarize).collect()),
        _ => TypeArg::Type(t.ty.clone()),
    }
}

/// Extract a bare name from `Name`, a one-word sequence, or an ident
/// constant.
fn bare_name(e: &Expr) -> Option<Symbol> {
    match e {
        Expr::Name(n) => Some(n.clone()),
        Expr::Const(Const::Ident(n)) => Some(n.clone()),
        Expr::Seq(atoms) => match atoms.as_slice() {
            [SeqAtom::Word {
                name,
                brackets: None,
                parens: None,
            }] => Some(name.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// Does this pattern expect an identifier value? True for the atomic
/// `ident` sort and for value variables bound by an in-list quantifier.
fn expects_ident(pat: &SortPattern, ctx: &MatchCtx) -> bool {
    match pat {
        SortPattern::Cons(n, args) => n.as_str() == "ident" && args.is_empty(),
        SortPattern::Var(v) => ctx.is_inlist_var(v),
        _ => false,
    }
}

/// Rewrite attribute references to applications on the synthesized
/// lambda parameter (`pop` becomes `pop(%p0)`), respecting shadowing.
fn subst_attrs(e: &Expr, map: &HashMap<Symbol, Symbol>) -> Expr {
    match e {
        Expr::Name(n) => match map.get(n) {
            Some(p) => Expr::Apply {
                op: n.clone(),
                args: vec![Expr::Name(p.clone())],
            },
            None => e.clone(),
        },
        Expr::Const(_) => e.clone(),
        Expr::Apply { op, args } => Expr::Apply {
            op: op.clone(),
            args: args.iter().map(|a| subst_attrs(a, map)).collect(),
        },
        Expr::Lambda { params, body } => {
            let mut inner = map.clone();
            for (x, _) in params {
                inner.remove(x);
            }
            Expr::Lambda {
                params: params.clone(),
                body: Box::new(subst_attrs(body, &inner)),
            }
        }
        Expr::List(items) => Expr::List(items.iter().map(|a| subst_attrs(a, map)).collect()),
        Expr::Tuple(items) => Expr::Tuple(items.iter().map(|a| subst_attrs(a, map)).collect()),
        Expr::Seq(atoms) => Expr::Seq(
            atoms
                .iter()
                .map(|a| match a {
                    SeqAtom::Operand(e) => SeqAtom::Operand(subst_attrs(e, map)),
                    SeqAtom::Word {
                        name,
                        brackets: None,
                        parens: None,
                    } if map.contains_key(name) => SeqAtom::Operand(Expr::Apply {
                        op: name.clone(),
                        args: vec![Expr::Name(map[name].clone())],
                    }),
                    SeqAtom::Word {
                        name,
                        brackets,
                        parens,
                    } => SeqAtom::Word {
                        name: name.clone(),
                        brackets: brackets
                            .as_ref()
                            .map(|bs| bs.iter().map(|b| subst_attrs(b, map)).collect()),
                        parens: parens
                            .as_ref()
                            .map(|ps| ps.iter().map(|p| subst_attrs(p, map)).collect()),
                    },
                })
                .collect(),
        ),
    }
}

// =========================================================================
// The matching context
// =========================================================================

struct QuantInfo {
    pattern: Option<TypePattern>,
    kind: Symbol,
    elementwise: bool,
}

/// Matching state: the quantifier table of one specification and the
/// bindings accumulated so far.
pub(crate) struct MatchCtx<'a> {
    sig: &'a Signature,
    quants: HashMap<Symbol, QuantInfo>,
    inlists: Vec<(Vec<Symbol>, Symbol)>,
    inlist_vars: HashSet<Symbol>,
    pub(crate) bindings: crate::pattern::Bindings,
    /// Variables whose quantifier pattern is currently being matched
    /// (guards against re-entrant binding).
    in_progress: HashSet<Symbol>,
}

impl<'a> MatchCtx<'a> {
    fn new(sig: &'a Signature, quantifiers: &[Quantifier]) -> MatchCtx<'a> {
        let mut quants = HashMap::new();
        let mut inlists = Vec::new();
        let mut inlist_vars = HashSet::new();
        for q in quantifiers {
            match q {
                Quantifier::Kind {
                    var,
                    pattern,
                    kind,
                    elementwise,
                } => {
                    quants.insert(
                        var.clone(),
                        QuantInfo {
                            pattern: pattern.clone(),
                            kind: kind.clone(),
                            elementwise: *elementwise,
                        },
                    );
                }
                Quantifier::InList { vars, list } => {
                    for v in vars {
                        inlist_vars.insert(v.clone());
                    }
                    inlists.push((vars.clone(), list.clone()));
                }
            }
        }
        MatchCtx {
            sig,
            quants,
            inlists,
            inlist_vars,
            bindings: HashMap::new(),
            in_progress: HashSet::new(),
        }
    }

    fn is_inlist_var(&self, v: &Symbol) -> bool {
        self.inlist_vars.contains(v)
    }

    fn is_elementwise(&self, v: &Symbol) -> bool {
        self.quants.get(v).map(|q| q.elementwise).unwrap_or(false)
    }

    /// Bind a variable, enforcing consistency, kind membership and the
    /// quantifier pattern (with subtype widening on failure).
    fn bind(&mut self, var: Symbol, value: TypeArg) -> Result<(), String> {
        // A variable in a value position binds the value's *type*
        // (`data x data -> bool` applied to `5 > 3` binds data=int) —
        // except for in-list value variables like `attrname`, which bind
        // the identifier itself.
        let value = match &value {
            TypeArg::Expr(Expr::Const(c)) if !self.inlist_vars.contains(&var) => {
                TypeArg::Type(const_type(c))
            }
            _ => value,
        };
        if let Some(existing) = self.bindings.get(&var) {
            if *existing == value {
                return Ok(());
            }
            if !self.is_elementwise(&var) {
                return Err(format!(
                    "variable `{var}` bound to both {existing} and {value}"
                ));
            }
            // fall through: rebind for this element
        }
        if self.in_progress.contains(&var) {
            self.bindings.insert(var, value);
            return Ok(());
        }
        let quant = self
            .quants
            .get(&var)
            .map(|q| (q.pattern.clone(), q.kind.clone()));
        let Some((pattern, kind)) = quant else {
            self.bindings.insert(var, value);
            return Ok(());
        };
        // A kind-quantified variable must be bound to a type.
        let TypeArg::Type(t) = &value else {
            return Err(format!(
                "variable `{var}` of kind {kind} cannot be bound to value {value}"
            ));
        };
        // Try the type itself, then supertypes via the subtype rules.
        let mut queue: Vec<DataType> = vec![t.clone()];
        let mut seen: Vec<DataType> = Vec::new();
        let mut tried = Vec::new();
        while let Some(cand) = queue.pop() {
            if seen.contains(&cand) {
                continue;
            }
            seen.push(cand.clone());
            let kind_ok = self.sig.type_in_kind(&cand, &kind);
            if kind_ok {
                let snapshot = self.bindings.clone();
                self.in_progress.insert(var.clone());
                let pat_ok = match &pattern {
                    Some(p) => self.match_tpattern(p, &TypeArg::Type(cand.clone())),
                    None => Ok(()),
                };
                self.in_progress.remove(&var);
                match pat_ok {
                    Ok(()) => {
                        self.bindings.insert(var, TypeArg::Type(cand));
                        return Ok(());
                    }
                    Err(e) => {
                        self.bindings = snapshot;
                        tried.push(e);
                    }
                }
            }
            if seen.len() <= 8 {
                queue.extend(self.widen_once(&cand));
            }
        }
        Err(format!(
            "type {t} does not satisfy quantifier `{var}` in {kind}{}",
            if tried.is_empty() {
                String::new()
            } else {
                format!(" ({})", tried.join("; "))
            }
        ))
    }

    /// One step of subtype widening: every supertype derivable by a
    /// single rule application.
    fn widen_once(&self, t: &DataType) -> Vec<DataType> {
        let mut out = Vec::new();
        for rule in self.sig.subtypes() {
            let mut trial = MatchCtx::new(self.sig, &[]);
            if trial
                .match_tpattern(&rule.sub, &TypeArg::Type(t.clone()))
                .is_ok()
            {
                if let Ok(sup) = trial.instantiate_type(&rule.sup) {
                    out.push(sup);
                }
            }
        }
        out
    }

    /// Match a quantifier pattern (term tree with binders) against a
    /// bound type argument.
    fn match_tpattern(&mut self, pat: &TypePattern, actual: &TypeArg) -> Result<(), String> {
        if let Some(b) = &pat.binder {
            self.bind(b.clone(), actual.clone())?;
        }
        match &pat.node {
            PatternNode::Any => Ok(()),
            PatternNode::Cons(name, args) => {
                let TypeArg::Type(DataType::Cons(n2, actual_args)) = actual else {
                    return Err(format!("pattern `{pat}` does not match {actual}"));
                };
                if n2 != name || actual_args.len() != args.len() {
                    return Err(format!(
                        "pattern `{pat}` does not match {}",
                        DataType::Cons(n2.clone(), actual_args.clone())
                    ));
                }
                for (p, a) in args.iter().zip(actual_args) {
                    self.match_tpattern(p, a)?;
                }
                Ok(())
            }
        }
    }

    /// Match a sort pattern against a type argument.
    fn match_sort(&mut self, pat: &SortPattern, actual: &TypeArg) -> Result<(), String> {
        match pat {
            SortPattern::Var(v) => self.bind(v.clone(), actual.clone()),
            SortPattern::Kind(k) => match actual {
                TypeArg::Type(t) => {
                    if self.sig.type_in_kind(t, k) {
                        Ok(())
                    } else {
                        Err(format!("type {t} is not of kind {k}"))
                    }
                }
                other => Err(format!("kind {k} position cannot hold {other}")),
            },
            SortPattern::Cons(name, ps) => match actual {
                TypeArg::Type(t) => {
                    // Direct structural match, widening on name mismatch.
                    let mut cand = t.clone();
                    let mut depth = 0;
                    loop {
                        if let DataType::Cons(n2, args) = &cand {
                            if n2 == name {
                                if args.len() != ps.len() {
                                    return Err(format!(
                                        "constructor `{name}` arity mismatch in {cand}"
                                    ));
                                }
                                let args = args.clone();
                                for (p, a) in ps.iter().zip(&args) {
                                    self.match_sort(p, a)?;
                                }
                                return Ok(());
                            }
                        }
                        depth += 1;
                        if depth > 4 {
                            break;
                        }
                        match self.widen_once(&cand).into_iter().next() {
                            Some(w) => cand = w,
                            None => break,
                        }
                    }
                    Err(format!("type {t} does not match sort `{pat}`"))
                }
                TypeArg::Expr(Expr::Const(c)) => {
                    let want = DataType::Cons(
                        name.clone(),
                        ps.iter()
                            .map(|p| self.instantiate(p))
                            .collect::<Result<_, _>>()?,
                    );
                    if const_type(c) == want {
                        Ok(())
                    } else {
                        Err(format!("value {c} is not of type {want}"))
                    }
                }
                other => Err(format!("sort `{pat}` cannot match {other}")),
            },
            SortPattern::List(el) => match actual {
                TypeArg::List(items) => {
                    if items.is_empty() {
                        return Err("list sort s+ requires at least one element".into());
                    }
                    for item in items {
                        self.match_sort(el, item)?;
                    }
                    Ok(())
                }
                other => Err(format!("list sort cannot match {other}")),
            },
            SortPattern::Product(ps) => match actual {
                TypeArg::Pair(items) if items.len() == ps.len() => {
                    for (p, a) in ps.iter().zip(items) {
                        self.match_sort(p, a)?;
                    }
                    Ok(())
                }
                other => Err(format!("product sort `{pat}` cannot match {other}")),
            },
            SortPattern::Union(alts) => {
                let mut errs = Vec::new();
                for alt in alts {
                    let snapshot = self.bindings.clone();
                    match self.match_sort(alt, actual) {
                        Ok(()) => return Ok(()),
                        Err(e) => {
                            self.bindings = snapshot;
                            errs.push(e);
                        }
                    }
                }
                Err(format!(
                    "no alternative of `{pat}` matches {actual}: {}",
                    errs.join("; ")
                ))
            }
            SortPattern::Fun(ps, rp) => match actual {
                TypeArg::Type(DataType::Fun(params, res)) => {
                    if params.len() != ps.len() {
                        return Err(format!(
                            "function arity mismatch: pattern `{pat}` vs {} parameter(s)",
                            params.len()
                        ));
                    }
                    for (p, a) in ps.iter().zip(params) {
                        self.match_sort(p, &TypeArg::Type(a.clone()))?;
                    }
                    self.match_sort(rp, &TypeArg::Type((**res).clone()))
                }
                other => Err(format!("function sort `{pat}` cannot match {other}")),
            },
        }
    }

    /// Resolve the in-list quantifier constraints (`(attrname, dtype) in
    /// list`) once all arguments are matched.
    fn finish_inlists(&mut self) -> Result<(), String> {
        let inlists = self.inlists.clone();
        for (vars, list) in &inlists {
            let Some(TypeArg::List(items)) = self.bindings.get(list).cloned() else {
                return Err(format!("list variable `{list}` is not bound"));
            };
            let candidates: Vec<&TypeArg> = items
                .iter()
                .filter(|item| {
                    let TypeArg::Pair(comps) = item else {
                        return false;
                    };
                    if comps.len() != vars.len() {
                        return false;
                    }
                    vars.iter()
                        .zip(comps)
                        .all(|(v, c)| self.bindings.get(v).map(|b| b == c).unwrap_or(true))
                })
                .collect();
            if candidates.is_empty() {
                let bound: Vec<String> = vars
                    .iter()
                    .filter_map(|v| self.bindings.get(v).map(|b| format!("{v} = {b}")))
                    .collect();
                return Err(format!(
                    "no element of `{list}` matches ({}) [{}]",
                    vars.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    bound.join(", ")
                ));
            }
            // Bind any still-unbound variables; all candidates must agree.
            for (i, v) in vars.iter().enumerate() {
                if self.bindings.contains_key(v) {
                    continue;
                }
                let mut values: Vec<&TypeArg> = Vec::new();
                for cand in &candidates {
                    let TypeArg::Pair(comps) = cand else { continue };
                    values.push(&comps[i]);
                }
                let first = values[0].clone();
                if values.iter().any(|x| **x != first) {
                    return Err(format!(
                        "variable `{v}` is ambiguous over the elements of `{list}`"
                    ));
                }
                self.bindings.insert(v.clone(), first);
            }
        }
        Ok(())
    }

    /// Instantiate a sort pattern from the bindings into a type argument.
    fn instantiate(&self, pat: &SortPattern) -> Result<TypeArg, String> {
        match pat {
            SortPattern::Var(v) => self
                .bindings
                .get(v)
                .cloned()
                .ok_or_else(|| format!("variable `{v}` is unbound")),
            SortPattern::Cons(name, ps) => Ok(TypeArg::Type(DataType::Cons(
                name.clone(),
                ps.iter()
                    .map(|p| self.instantiate(p))
                    .collect::<Result<_, _>>()?,
            ))),
            SortPattern::Fun(ps, rp) => {
                let params = ps
                    .iter()
                    .map(|p| self.instantiate_type(p))
                    .collect::<Result<_, _>>()?;
                Ok(TypeArg::Type(DataType::Fun(
                    params,
                    Box::new(self.instantiate_type(rp)?),
                )))
            }
            other => Err(format!("cannot instantiate sort `{other}`")),
        }
    }

    /// Instantiate a sort pattern that must denote a type.
    fn instantiate_type(&self, pat: &SortPattern) -> Result<DataType, String> {
        match self.instantiate(pat)? {
            TypeArg::Type(t) => Ok(t),
            other => Err(format!("sort `{pat}` instantiates to non-type {other}")),
        }
    }
}

impl CheckError {
    /// Convenience used by the system layer: wrap a plain message.
    pub fn msg(m: impl Into<String>) -> CheckError {
        CheckError::Other(m.into())
    }
}
