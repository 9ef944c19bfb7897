//! The evaluator: a second-order algebra for the typed terms produced by
//! the checker.
//!
//! Each operator of the signature has exactly one function here (the
//! Ω_A functions of Section 3.3), held in the engine's [`OpTable`]; the
//! buffer pool beneath provides the representation structures. The
//! checker has already resolved every node, and the engine follows that
//! resolution instead of deciding again: an `Apply` runs the table entry
//! bound to its spec, and a `Field` (tuple attribute access) loads the
//! field position the checker matched. A plan is evaluated by walking
//! it: operator applications evaluate their arguments and call the
//! entry. Function values are different: every lambda compiles to a
//! program once, and its closures run that program
//! ([`crate::compile`]) — there is one evaluator for function values.

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

/// What an object's catalog type makes of its value
/// ([`ExecEngine::layout`]).
pub enum Layout {
    /// A catalog relation (`catalog(...)`): its value is its name token.
    Catalog,
    /// A model relation: starts empty.
    Rel,
    /// A heap file addressed by scan only.
    SRel,
    /// A heap file addressed by tuple id.
    TidRel,
    /// A `btree`, `mbtree` or `kbtree` with its key derivation.
    BTree {
        tuple_type: DataType,
        key: KeyExtractor,
    },
    /// An `lsdtree` with its compiled rectangle function.
    LsdTree {
        tuple_type: DataType,
        keyfun: Rc<Closure>,
    },
    /// Any other type: a plain value, undefined until the first update.
    Value,
}

/// The execution engine: operator implementations over a buffer pool.
pub struct ExecEngine {
    pub pool: Arc<BufferPool>,
    ops: OpTable,
    /// Tuples pulled per [`crate::stream::Cursor::next_batch_into`] call
    /// by the draining consumers — a parameter of the one pipeline, so
    /// `1` is tuple-at-a-time through the same code.
    batch: usize,
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

    /// Derive what an object's catalog type makes of its value: which
    /// structure it is, with the tuple type and the key attribute,
    /// attribute list or compiled key function a structure needs. The
    /// one place a type is read for this: `create` allocates from it
    /// ([`ExecEngine::init_value`]) and a reopen attaches to it
    /// ([`crate::stored::from_stored`]). Allocates nothing.
    pub fn layout(
        &self,
        sig: &Signature,
        env: &dyn sos_core::check::ObjectEnv,
        ty: &DataType,
    ) -> ExecResult<Layout> {
        let DataType::Cons(name, args) = ty else {
            return Ok(Layout::Value);
        };
        let attr = |tuple_type: &DataType, a: &TypeArg| match a {
            TypeArg::Expr(sos_core::Expr::Const(sos_core::Const::Ident(attr))) => {
                attr_index(tuple_type, attr).ok_or_else(|| {
                    ExecError::Other(format!("attribute `{attr}` not in {tuple_type}"))
                })
            }
            other => Err(ExecError::Other(format!(
                "{name} key attributes must be attribute names, got {other}"
            ))),
        };
        Ok(match (name.as_str(), args.as_slice()) {
            ("catalog", _) => Layout::Catalog,
            ("rel", _) => Layout::Rel,
            ("srel", _) => Layout::SRel,
            ("tidrel", _) => Layout::TidRel,
            ("btree", [TypeArg::Type(t), a, _]) => Layout::BTree {
                key: KeyExtractor::Attr(attr(t, a)?),
                tuple_type: t.clone(),
            },
            ("mbtree", [TypeArg::Type(t), TypeArg::List(items)]) => Layout::BTree {
                key: KeyExtractor::Attrs(
                    items
                        .iter()
                        .map(|a| attr(t, a))
                        .collect::<ExecResult<_>>()?,
                ),
                tuple_type: t.clone(),
            },
            ("kbtree", [TypeArg::Type(t), TypeArg::Expr(e)]) => Layout::BTree {
                key: KeyExtractor::Fun(self.compile_keyfun(sig, env, e, t)?),
                tuple_type: t.clone(),
            },
            ("lsdtree", [TypeArg::Type(t), TypeArg::Expr(e)]) => Layout::LsdTree {
                keyfun: self.compile_keyfun(sig, env, e, t)?,
                tuple_type: t.clone(),
            },
            ("btree" | "mbtree" | "kbtree" | "lsdtree", _) => {
                return Err(ExecError::Other(format!("malformed {name} type {ty}")))
            }
            _ => Layout::Value,
        })
    }

    /// Create the initial value for a freshly created object `name` of
    /// `ty` (the `create` statement), allocating from its
    /// [`Layout`]: representation structures are materialized
    /// immediately, model relations start empty, a catalog object's
    /// value is its name token, and everything else starts `Undefined`
    /// until the first update.
    pub fn init_value(
        &self,
        sig: &Signature,
        env: &dyn sos_core::check::ObjectEnv,
        name: &Symbol,
        ty: &DataType,
    ) -> ExecResult<Value> {
        let pool = || self.pool.clone();
        Ok(match self.layout(sig, env, ty)? {
            Layout::Catalog => Value::Ident(name.clone()),
            Layout::Rel => Value::Rel(Vec::new()),
            Layout::SRel => Value::SRel(Rc::new(HeapFile::create(pool())?)),
            Layout::TidRel => Value::TidRel(Rc::new(HeapFile::create(pool())?)),
            Layout::BTree { tuple_type, key } => Value::BTree(Rc::new(BTreeHandle {
                tree: BTree::create(pool())?,
                tuple_type,
                key,
            })),
            Layout::LsdTree { tuple_type, keyfun } => Value::LsdTree(Rc::new(LsdHandle {
                tree: LsdTree::create(pool())?,
                tuple_type,
                keyfun,
            })),
            Layout::Value => Value::Undefined,
        })
    }

    /// Check and compile a key function expression embedded in a type
    /// (`kbtree` / `lsdtree` key expressions), once per handle. An
    /// attribute name is accepted as a unary function per the paper's
    /// shorthand.
    fn compile_keyfun(
        &self,
        sig: &Signature,
        env: &dyn sos_core::check::ObjectEnv,
        e: &sos_core::Expr,
        tuple_type: &DataType,
    ) -> ExecResult<Rc<Closure>> {
        let checker = Checker::new(sig, env);
        // Wrap a bare attribute name as a lambda.
        let expr = match e {
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
        let checked = checker.check_expr(&expr)?;
        let TypedNode::Lambda { params, body } = &checked.node else {
            return Err(ExecError::Other(format!(
                "key function must be a lambda or an attribute name, got {checked:?}"
            )));
        };
        Ok(Rc::new(Closure::compile(self, params, body)?))
    }
}

/// Per-evaluation context: the mutable object store and the catalog.
pub struct EvalCtx<'a> {
    pub engine: &'a ExecEngine,
    pub store: &'a mut HashMap<Symbol, Value>,
    pub catalog: &'a mut Catalog,
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
        }
    }

    /// Evaluate a typed term to a value. A lambda compiles here, once
    /// per evaluation of the term (see [`crate::compile`]); variables
    /// occur only inside lambdas, so a bare one is unbound.
    pub fn eval(&mut self, te: &TypedExpr) -> ExecResult<Value> {
        match &te.node {
            TypedNode::Const(c) => Ok(Value::from_const(c)),
            TypedNode::Object(name) => self.object(name, &te.ty),
            TypedNode::Var(name) => Err(ExecError::Other(format!("unbound variable `{name}`"))),
            TypedNode::Lambda { params, body } => Ok(Value::Closure(Rc::new(Closure::compile(
                self.engine,
                params,
                body,
            )?))),
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

    /// The value of database object `name` of type `ty`. "create" gives
    /// an object an undefined value (Section 2.4): a freshly created
    /// relation reads as empty; an undefined function (a view, also
    /// after a durable reopen, since function values have no stored
    /// image) is an [`ExecError::UndefinedObject`] error; any other
    /// object reads as Undefined, which the operators of an extension
    /// model may take as its empty value.
    pub fn object(&self, name: &Symbol, ty: &DataType) -> ExecResult<Value> {
        match self.store.get(name) {
            Some(Value::Undefined) | None => match ty {
                DataType::Cons(n, _) if n.as_str() == "rel" => Ok(Value::Rel(Vec::new())),
                DataType::Fun(..) => Err(ExecError::UndefinedObject(name.clone())),
                DataType::Cons(..) => Ok(Value::Undefined),
            },
            Some(v) => Ok(v.clone()),
        }
    }

    /// Apply a closure to argument values: run its program.
    pub fn call(&mut self, closure: &Closure, args: Vec<Value>) -> ExecResult<Value> {
        closure.apply(Some(self), &args)
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
            KeyExtractor::Fun(f) => f.apply(Some(self), std::slice::from_ref(tuple)),
        }
    }

    /// Derive the indexed rectangle for an LSD-tree entry.
    pub fn rect_value(&mut self, handle: &LsdHandle, tuple: &Value) -> ExecResult<sos_geom::Rect> {
        match handle
            .keyfun
            .apply(Some(self), std::slice::from_ref(tuple))?
        {
            Value::Rect(r) => Ok(r),
            other => Err(crate::error::mismatch(
                "lsdtree key",
                "rect",
                &other.kind_name(),
            )),
        }
    }
}
