//! The evaluator: a second-order algebra for the typed terms produced by
//! the checker.
//!
//! Each operator of the signature has exactly one function here (the
//! Ω_A functions of Section 3.3), held in the engine's [`OpTable`]; the
//! buffer pool beneath provides the representation structures. The
//! checker has already resolved every node, and the engine follows that
//! resolution instead of deciding again: an `Apply` runs the table entry
//! bound to its spec, and a `Field` (tuple attribute access) loads the
//! field position the checker matched. Evaluation is an
//! environment-passing interpreter: lambdas close over the current
//! variable bindings, and operator applications evaluate their arguments
//! and call the entry.

use crate::error::{ExecError, ExecResult};
use crate::handles::{attr_index, load_field, BTreeHandle, KeyExtractor, LsdHandle};
use crate::ops::basic::Atomic;
use crate::ops::OpTable;
use crate::value::{Closure, Value};
use sos_catalog::Catalog;
use sos_core::check::Checker;
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{DataType, Signature, Symbol, TypeArg};
use sos_storage::btree::BTree;
use sos_storage::heap::HeapFile;
use sos_storage::lsdtree::LsdTree;
use sos_storage::BufferPool;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// An operator implementation: receives the (typed) application node for
/// schema information and the already-evaluated argument values.
pub type OpImpl = Box<dyn Fn(&mut EvalCtx, &TypedExpr, Vec<Value>) -> ExecResult<Value>>;

/// The execution engine: operator implementations over a buffer pool.
pub struct ExecEngine {
    pub pool: Arc<BufferPool>,
    ops: OpTable,
    /// Tuples pulled per [`crate::stream::Cursor::next_batch_into`] call
    /// by the draining consumers — a parameter of the one pipeline, so
    /// `1` is tuple-at-a-time through the same code.
    batch: usize,
    /// Whether closures are lowered to bytecode where possible (see
    /// [`crate::compile`]); `false` keeps the interpreter everywhere.
    compile: bool,
    /// Per-operator execution counters.
    pub stats: Rc<crate::stats::ExecStats>,
}

/// Default vectorized batch width: enough rows to amortize closure-call
/// setup, small enough that a batch of tuples stays cache-resident.
pub const DEFAULT_BATCH: usize = 1024;

impl ExecEngine {
    /// An engine with every built-in operator registered. Every drain
    /// runs on the calling thread. Applications evaluate only once a
    /// signature is bound ([`ExecEngine::bind_signature`]).
    pub fn new(pool: Arc<BufferPool>) -> ExecEngine {
        let mut e = ExecEngine {
            pool,
            ops: OpTable::default(),
            batch: DEFAULT_BATCH,
            compile: true,
            stats: Rc::new(crate::stats::ExecStats::default()),
        };
        crate::ops::register_builtins(&mut e);
        e
    }

    /// Register (or override) an operator implementation — the paper's
    /// extensibility story: new algebra operators plug in here. An
    /// override of a built-in is no longer pure: a replaced
    /// implementation may do anything. A new name is reachable once the
    /// signature is (re)bound.
    pub fn add_op<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut EvalCtx, &TypedExpr, Vec<Value>) -> ExecResult<Value> + 'static,
    {
        self.ops.add(name, Box::new(f), None);
    }

    /// Register a built-in atomic operator with its context-free
    /// evaluation.
    pub(crate) fn add_pure(&mut self, op: Atomic) {
        let imp: OpImpl = Box::new(move |_, _, args| op.eval(&args));
        self.ops.add(op.name(), imp, Some(op));
    }

    /// Bind the operator table to `sig`: every spec of a registered
    /// operator name resolves to that operator's entry. Call again
    /// whenever the signature or the set of operator names grows.
    pub fn bind_signature(&mut self, sig: &Signature) {
        self.ops.bind(sig);
    }

    /// The operator table.
    pub fn ops(&self) -> &OpTable {
        &self.ops
    }

    /// Set the vectorized batch width (min 1); `1` pulls one tuple per
    /// call through the same pipeline.
    pub fn set_batch_size(&mut self, n: usize) {
        self.batch = n.max(1);
    }

    /// The current vectorized batch width.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Enable or disable expression compilation. `false` keeps the
    /// interpreter on every path (the A/B switch for the differential
    /// compiled-vs-interpreted harness).
    pub fn set_compile_exprs(&mut self, on: bool) {
        self.compile = on;
    }

    /// Whether closures are currently lowered to bytecode.
    pub fn compile_exprs_enabled(&self) -> bool {
        self.compile
    }

    /// Create the initial value for a freshly created object of `ty`
    /// (the `create` statement): representation structures are
    /// materialized immediately; model relations start empty; everything
    /// else starts `Undefined` until the first update.
    pub fn init_value(
        &self,
        sig: &Signature,
        env: &dyn sos_core::check::ObjectEnv,
        ty: &DataType,
    ) -> ExecResult<Value> {
        let DataType::Cons(name, args) = ty else {
            return Ok(Value::Undefined);
        };
        match name.as_str() {
            "rel" => Ok(Value::Rel(Vec::new())),
            "srel" => Ok(Value::SRel(Rc::new(HeapFile::create(self.pool.clone())?))),
            "tidrel" => Ok(Value::TidRel(Rc::new(HeapFile::create(self.pool.clone())?))),
            "btree" => {
                let (tuple_type, attr) = match args.as_slice() {
                    [TypeArg::Type(t), TypeArg::Expr(sos_core::Expr::Const(sos_core::Const::Ident(a))), _] => {
                        (t.clone(), a.clone())
                    }
                    _ => return Err(ExecError::Other(format!("malformed btree type {ty}"))),
                };
                let idx = attr_index(&tuple_type, &attr).ok_or_else(|| {
                    ExecError::Other(format!("attribute `{attr}` not in {tuple_type}"))
                })?;
                Ok(Value::BTree(Rc::new(BTreeHandle {
                    tree: BTree::create(self.pool.clone())?,
                    tuple_type,
                    key: KeyExtractor::Attr(idx),
                })))
            }
            "mbtree" => {
                let (tuple_type, attr_args) = match args.as_slice() {
                    [TypeArg::Type(t), TypeArg::List(items)] => (t.clone(), items.clone()),
                    _ => return Err(ExecError::Other(format!("malformed mbtree type {ty}"))),
                };
                let mut idxs = Vec::with_capacity(attr_args.len());
                for a in &attr_args {
                    let TypeArg::Expr(sos_core::Expr::Const(sos_core::Const::Ident(name))) = a
                    else {
                        return Err(ExecError::Other(format!(
                            "mbtree attribute list must hold attribute names, got {a}"
                        )));
                    };
                    let idx = attr_index(&tuple_type, name).ok_or_else(|| {
                        ExecError::Other(format!("attribute `{name}` not in {tuple_type}"))
                    })?;
                    idxs.push(idx);
                }
                Ok(Value::BTree(Rc::new(BTreeHandle {
                    tree: BTree::create(self.pool.clone())?,
                    tuple_type,
                    key: KeyExtractor::Attrs(idxs),
                })))
            }
            "kbtree" => {
                let (tuple_type, keyfun) = match args.as_slice() {
                    [TypeArg::Type(t), TypeArg::Expr(e)] => (t.clone(), e.clone()),
                    _ => return Err(ExecError::Other(format!("malformed kbtree type {ty}"))),
                };
                let checked = check_keyfun(sig, env, &keyfun, &tuple_type)?;
                Ok(Value::BTree(Rc::new(BTreeHandle {
                    tree: BTree::create(self.pool.clone())?,
                    tuple_type,
                    key: KeyExtractor::Fun(checked),
                })))
            }
            "lsdtree" => {
                let (tuple_type, keyfun) = match args.as_slice() {
                    [TypeArg::Type(t), TypeArg::Expr(e)] => (t.clone(), e.clone()),
                    _ => return Err(ExecError::Other(format!("malformed lsdtree type {ty}"))),
                };
                let checked = check_keyfun(sig, env, &keyfun, &tuple_type)?;
                Ok(Value::LsdTree(Rc::new(LsdHandle {
                    tree: LsdTree::create(self.pool.clone())?,
                    tuple_type,
                    keyfun: checked,
                })))
            }
            _ => Ok(Value::Undefined),
        }
    }
}

/// Type-check a key function expression embedded in a type (`kbtree` /
/// `lsdtree` key expressions). An attribute name is accepted as a unary
/// function per the paper's shorthand.
fn check_keyfun(
    sig: &Signature,
    env: &dyn sos_core::check::ObjectEnv,
    e: &sos_core::Expr,
    tuple_type: &DataType,
) -> ExecResult<TypedExpr> {
    let checker = Checker::new(sig, env);
    // Wrap a bare attribute name as a lambda.
    let expr = match e {
        sos_core::Expr::Lambda { .. } => e.clone(),
        sos_core::Expr::Name(n) | sos_core::Expr::Const(sos_core::Const::Ident(n)) => {
            sos_core::Expr::Lambda {
                params: vec![(Symbol::new("%k"), tuple_type.clone())],
                body: Box::new(sos_core::Expr::Apply {
                    op: n.clone(),
                    args: vec![sos_core::Expr::Name(Symbol::new("%k"))],
                }),
            }
        }
        other => other.clone(),
    };
    Ok(checker.check_expr(&expr)?)
}

/// A saved variable environment plus the length of the installed
/// captured prefix — the bookkeeping for one amortized batch of closure
/// calls (see [`EvalCtx::begin_call`]).
pub struct CallFrame {
    saved: Vec<(Symbol, Value)>,
    base: usize,
}

/// Per-evaluation context: the mutable object store, the catalog, and
/// the lambda-variable environment.
pub struct EvalCtx<'a> {
    pub engine: &'a ExecEngine,
    pub store: &'a mut HashMap<Symbol, Value>,
    pub catalog: &'a mut Catalog,
    vars: Vec<(Symbol, Value)>,
}

impl<'a> EvalCtx<'a> {
    pub fn new(
        engine: &'a ExecEngine,
        store: &'a mut HashMap<Symbol, Value>,
        catalog: &'a mut Catalog,
    ) -> EvalCtx<'a> {
        EvalCtx {
            engine,
            store,
            catalog,
            vars: Vec::new(),
        }
    }

    /// Evaluate a typed term to a value.
    pub fn eval(&mut self, te: &TypedExpr) -> ExecResult<Value> {
        match &te.node {
            TypedNode::Const(c) => Ok(Value::from_const(c)),
            TypedNode::Object(name) => match self.store.get(name) {
                Some(Value::Undefined) | None => {
                    // "create" gives an object an undefined value
                    // (Section 2.4). A freshly created relation reads as
                    // empty; other objects read as Undefined and the
                    // operator that receives one reports the error.
                    if matches!(&te.ty, DataType::Cons(n, _) if n.as_str() == "rel") {
                        Ok(Value::Rel(Vec::new()))
                    } else {
                        Ok(Value::Undefined)
                    }
                }
                Some(v) => Ok(v.clone()),
            },
            TypedNode::Var(name) => self
                .vars
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| ExecError::Other(format!("unbound variable `{name}`"))),
            TypedNode::Lambda { params, body } => Ok(Value::Closure(Rc::new(Closure {
                params: params.clone(),
                body: body.clone(),
                captured: self.vars.clone(),
            }))),
            TypedNode::List(items) => Ok(Value::List(
                items
                    .iter()
                    .map(|i| self.eval(i))
                    .collect::<ExecResult<_>>()?,
            )),
            TypedNode::Tuple(items) => Ok(Value::Pair(
                items
                    .iter()
                    .map(|i| self.eval(i))
                    .collect::<ExecResult<_>>()?,
            )),
            TypedNode::ApplyFun { fun, args } => {
                let f = self.eval(fun)?;
                let argv = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<ExecResult<Vec<_>>>()?;
                let closure = f.as_closure("function application")?.clone();
                self.call(&closure, argv)
            }
            TypedNode::Field { attr, idx, arg, .. } => load_field(&self.eval(arg)?, *idx, attr),
            TypedNode::Apply { op, spec, args } => {
                let argv = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<ExecResult<Vec<_>>>()?;
                let engine = self.engine;
                let (_, entry) = engine
                    .ops
                    .of_spec(*spec)
                    .ok_or_else(|| ExecError::NoImpl(op.clone()))?;
                (entry.imp)(self, te, argv)
            }
        }
    }

    /// Apply a closure to argument values.
    pub fn call(&mut self, closure: &Closure, args: Vec<Value>) -> ExecResult<Value> {
        let frame = self.begin_call(closure);
        let out = self.call_bound(closure, &frame, args);
        self.end_call(frame);
        out
    }

    /// Install `closure`'s captured environment once, so a batch of
    /// [`EvalCtx::call_bound`] invocations pays the environment clone a
    /// single time instead of per tuple. Must be balanced by
    /// [`EvalCtx::end_call`] with the returned frame.
    pub fn begin_call(&mut self, closure: &Closure) -> CallFrame {
        let saved = std::mem::take(&mut self.vars);
        self.vars = closure.captured.clone();
        CallFrame {
            saved,
            base: self.vars.len(),
        }
    }

    /// Apply `closure` to `args` inside an installed frame: rebinds only
    /// the parameters (the captured prefix stays in place). Semantically
    /// identical to [`EvalCtx::call`] for the same closure.
    pub fn call_bound(
        &mut self,
        closure: &Closure,
        frame: &CallFrame,
        args: Vec<Value>,
    ) -> ExecResult<Value> {
        if closure.params.len() != args.len() {
            return Err(ExecError::Other(format!(
                "function expects {} argument(s), got {}",
                closure.params.len(),
                args.len()
            )));
        }
        self.vars.truncate(frame.base);
        for ((name, _), v) in closure.params.iter().zip(args) {
            self.vars.push((name.clone(), v));
        }
        self.eval(&closure.body)
    }

    /// Single-argument [`EvalCtx::call_bound`] without the argument
    /// vector: the per-tuple shape of batched `filter`/`project`/`replace`.
    pub fn call_bound1(
        &mut self,
        closure: &Closure,
        frame: &CallFrame,
        arg: Value,
    ) -> ExecResult<Value> {
        if closure.params.len() != 1 {
            return Err(ExecError::Other(format!(
                "function expects {} argument(s), got 1",
                closure.params.len()
            )));
        }
        self.vars.truncate(frame.base);
        self.vars.push((closure.params[0].0.clone(), arg));
        self.eval(&closure.body)
    }

    /// Restore the variable environment saved by [`EvalCtx::begin_call`].
    pub fn end_call(&mut self, frame: CallFrame) {
        self.vars = frame.saved;
    }

    /// Derive the B-tree key value for a tuple.
    pub fn key_value(&mut self, handle: &BTreeHandle, tuple: &Value) -> ExecResult<Value> {
        match &handle.key {
            KeyExtractor::Attr(idx) => {
                let fields = tuple.as_tuple("btree key")?;
                fields.get(*idx).cloned().ok_or_else(|| {
                    ExecError::Other("tuple too short for btree key attribute".into())
                })
            }
            KeyExtractor::Attrs(idxs) => {
                let fields = tuple.as_tuple("mbtree key")?;
                let mut comps = Vec::with_capacity(idxs.len());
                for idx in idxs {
                    comps.push(fields.get(*idx).cloned().ok_or_else(|| {
                        ExecError::Other("tuple too short for mbtree key attribute".into())
                    })?);
                }
                Ok(Value::Pair(comps))
            }
            KeyExtractor::Fun(f) => {
                let v = self.eval(f)?;
                let closure = v.as_closure("btree key function")?.clone();
                self.call(&closure, vec![tuple.clone()])
            }
        }
    }

    /// Derive the indexed rectangle for an LSD-tree entry.
    pub fn rect_value(&mut self, handle: &LsdHandle, tuple: &Value) -> ExecResult<sos_geom::Rect> {
        let v = self.eval(&handle.keyfun.clone())?;
        let closure = v.as_closure("lsdtree key function")?.clone();
        match self.call(&closure, vec![tuple.clone()])? {
            Value::Rect(r) => Ok(r),
            other => Err(crate::error::mismatch(
                "lsdtree key",
                "rect",
                &other.kind_name(),
            )),
        }
    }
}
