//! Pipelined stream cursors.
//!
//! Section 4 assumes "the underlying execution engine can process
//! sequences of operations on streams in a pipelined fashion". A
//! [`Cursor`] is a small pull-based plan: scans and index searches
//! produce tuples on demand (touching pages lazily), `filter` and `head`
//! compose without materializing, and consumers (`count`, `collect`,
//! blocking operators like `sortby`) drain incrementally. `head[n]` over
//! a million-tuple B-tree therefore touches a handful of pages — see
//! `tests/pipelining.rs`.
//!
//! A cursor travels inside a [`Value::Cursor`] behind `Arc<Mutex<..>>`:
//! cloning a stream value shares the cursor (streams are linear; a
//! drained stream stays drained). Crossing the statement boundary, the
//! system materializes cursors into plain [`Value::Stream`] results.

use crate::compile::{compile_gated, CompiledFun};
use crate::engine::{EvalCtx, ExecEngine};
use crate::error::{ExecError, ExecResult};
use crate::handles::BTreeHandle;
use crate::value::{Closure, Value};
use sos_storage::heap::HeapFile;
use sos_storage::keys::KeyBytes;
use sos_storage::PageId;
use std::collections::VecDeque;
use std::sync::Arc;

/// A pull-based tuple stream.
pub enum Cursor {
    /// Materialized tuples (the degenerate cursor).
    Mat(VecDeque<Value>),
    /// Page-at-a-time scan of a heap file.
    Heap {
        heap: Arc<HeapFile>,
        pages: Vec<PageId>,
        page_idx: usize,
        buf: VecDeque<Value>,
    },
    /// Leaf-chain walk of a clustered B-tree over `[lo, hi]`.
    BTreeRange {
        handle: Arc<BTreeHandle>,
        lo: KeyBytes,
        hi: KeyBytes,
        next_page: Option<PageId>,
        primed: bool,
        done: bool,
        buf: VecDeque<Value>,
    },
    /// Pipelined selection. `compiled` holds the predicate lowered to
    /// bytecode (see [`crate::compile`]); `None` keeps the interpreter.
    Filter {
        input: Box<Cursor>,
        pred: Arc<Closure>,
        compiled: Option<Arc<CompiledFun>>,
    },
    /// Pipelined prefix (stops pulling once exhausted).
    Head {
        input: Box<Cursor>,
        remaining: usize,
    },
    /// Pipelined generalized projection: each output tuple is built by
    /// applying the attribute functions to the input tuple. `compiled`
    /// parallels `funs` (compilation is per attribute function).
    Project {
        input: Box<Cursor>,
        funs: Vec<Arc<Closure>>,
        compiled: Vec<Option<Arc<CompiledFun>>>,
    },
    /// Pipelined attribute replacement.
    Replace {
        input: Box<Cursor>,
        idx: usize,
        fun: Arc<Closure>,
        compiled: Option<Arc<CompiledFun>>,
    },
    /// Pipelined search join: for each outer tuple, the parameter
    /// function produces the matching inner stream (Section 4).
    SearchJoin {
        outer: Box<Cursor>,
        fun: Arc<Closure>,
        current_outer: Option<Value>,
        inner: VecDeque<Value>,
    },
    /// A cursor shared through a cloned stream value.
    Shared(Arc<parking_lot::Mutex<Cursor>>),
}

impl Cursor {
    pub fn materialized(tuples: Vec<Value>) -> Cursor {
        Cursor::Mat(tuples.into())
    }

    pub fn heap_scan(heap: Arc<HeapFile>) -> Cursor {
        let pages = heap.pages();
        Cursor::Heap {
            heap,
            pages,
            page_idx: 0,
            buf: VecDeque::new(),
        }
    }

    pub fn btree_range(handle: Arc<BTreeHandle>, lo: KeyBytes, hi: KeyBytes) -> Cursor {
        Cursor::BTreeRange {
            handle,
            lo,
            hi,
            next_page: None,
            primed: false,
            done: false,
            buf: VecDeque::new(),
        }
    }

    /// The scan source over any relation representation (the `feed` of
    /// the `relrep` subtype hierarchy). Heaps and B-trees stay
    /// pipelined; LSD-trees materialize (their `scan` is bulk), as do
    /// in-memory relations.
    pub(crate) fn scan_of(v: &Value) -> ExecResult<Cursor> {
        match v {
            Value::SRel(h) | Value::TidRel(h) => Ok(Cursor::heap_scan(h.clone())),
            Value::BTree(h) => Ok(Cursor::btree_range(
                h.clone(),
                sos_storage::keys::bottom(),
                sos_storage::keys::top(),
            )),
            Value::LsdTree(h) => {
                let entries = h.tree.scan().map_err(ExecError::Storage)?;
                let tuples = entries
                    .iter()
                    .map(|e| Value::decode_tuple(&e.payload))
                    .collect::<ExecResult<Vec<_>>>()?;
                Ok(Cursor::materialized(tuples))
            }
            // Hybrid convenience: an in-memory relation also feeds.
            Value::Rel(ts) | Value::Stream(ts) => Ok(Cursor::materialized(ts.clone())),
            Value::Undefined => Ok(Cursor::materialized(Vec::new())),
            other => Err(crate::error::mismatch(
                "feed",
                "relation representation",
                &other.kind_name(),
            )),
        }
    }

    /// A filter step, compiling the predicate when the engine allows
    /// (recording the compile/fallback either way).
    pub fn filter(engine: &ExecEngine, input: Cursor, pred: Arc<Closure>) -> Cursor {
        let compiled = compile_gated(engine, &pred);
        Cursor::Filter {
            input: Box::new(input),
            pred,
            compiled,
        }
    }

    /// A projection step; each attribute function compiles independently
    /// (a mix of compiled and interpreted columns is fine).
    pub fn project(engine: &ExecEngine, input: Cursor, funs: Vec<Arc<Closure>>) -> Cursor {
        let compiled = funs.iter().map(|f| compile_gated(engine, f)).collect();
        Cursor::Project {
            input: Box::new(input),
            funs,
            compiled,
        }
    }

    /// An attribute-replacement step, compiling the field function when
    /// the engine allows.
    pub fn replace(engine: &ExecEngine, input: Cursor, idx: usize, fun: Arc<Closure>) -> Cursor {
        let compiled = compile_gated(engine, &fun);
        Cursor::Replace {
            input: Box::new(input),
            idx,
            fun,
            compiled,
        }
    }

    /// Pull the next tuple: [`Cursor::next_batch_into`] at width 1.
    pub fn next(&mut self, ctx: &mut EvalCtx) -> ExecResult<Option<Value>> {
        let mut one = Vec::with_capacity(1);
        self.next_batch_into(ctx, 1, &mut one)?;
        Ok(one.pop())
    }

    /// The pipeline kernel: append up to `n` tuples to `out` and return
    /// how many were appended (0 once exhausted). Every pipeline step
    /// and every scan source is evaluated here and nowhere else — the
    /// width is a parameter (`n = 1` is tuple-at-a-time).
    ///
    /// Sources decode a whole page per refill ([`Cursor::scan_into`]);
    /// `Filter`, `Project` and `Replace` evaluate their closures over
    /// the whole batch — through the bytecode when the closure compiled,
    /// otherwise through [`EvalCtx::call_bound1`] inside one installed
    /// [`crate::engine::CallFrame`], paying the captured-environment
    /// clone once per batch instead of per tuple.
    ///
    /// The first error in row order surfaces, with one documented
    /// exception: `Project` evaluates column-wise (each function over
    /// the whole batch), so when several projection functions fail
    /// within one batch the error surfaced is the first in (function,
    /// row) order rather than (row, function) order.
    pub fn next_batch_into(
        &mut self,
        ctx: &mut EvalCtx,
        n: usize,
        out: &mut Vec<Value>,
    ) -> ExecResult<usize> {
        let n = n.max(1);
        let start = out.len();
        let target = start + n;
        match self {
            Cursor::Mat(_) | Cursor::Heap { .. } | Cursor::BTreeRange { .. } => {
                self.scan_into(n, out)?;
            }
            Cursor::Filter {
                input,
                pred,
                compiled,
            } => {
                let pred = pred.clone();
                let compiled = compiled.clone();
                let mut scratch = Vec::with_capacity(n.min(4096));
                loop {
                    scratch.clear();
                    if input.next_batch_into(ctx, n, &mut scratch)? == 0 {
                        break;
                    }
                    if let Some(cf) = &compiled {
                        // Compiled path: the whole batch through the
                        // bytecode (columnar when the predicate is
                        // int/bool throughout), then push by mask.
                        let mask = cf.eval_mask(&scratch, "filter")?;
                        for (t, keep) in scratch.drain(..).zip(mask) {
                            if keep {
                                out.push(t);
                            }
                        }
                    } else {
                        let frame = ctx.begin_call(&pred);
                        let mut res = Ok(());
                        for t in scratch.drain(..) {
                            match ctx
                                .call_bound1(&pred, &frame, t.clone())
                                .and_then(|v| v.as_bool("filter"))
                            {
                                Ok(true) => out.push(t),
                                Ok(false) => {}
                                Err(e) => {
                                    res = Err(e);
                                    break;
                                }
                            }
                        }
                        ctx.end_call(frame);
                        res?;
                    }
                    if out.len() > start {
                        break;
                    }
                }
            }
            Cursor::Project {
                input,
                funs,
                compiled,
            } => {
                let mut batch = Vec::with_capacity(n.min(4096));
                if input.next_batch_into(ctx, n, &mut batch)? > 0 {
                    let funs = funs.clone();
                    let compiled = compiled.clone();
                    let mut cols: Vec<Vec<Value>> = Vec::with_capacity(funs.len());
                    for (f, cf) in funs.iter().zip(&compiled) {
                        if let Some(cf) = cf {
                            // Compiled column: same (function, row) error
                            // order as the interpreted batch loop below.
                            cols.push(cf.eval_column(&batch)?);
                            continue;
                        }
                        let frame = ctx.begin_call(f);
                        let mut col = Vec::with_capacity(batch.len());
                        let mut res = Ok(());
                        for t in &batch {
                            match ctx.call_bound1(f, &frame, t.clone()) {
                                Ok(v) => col.push(v),
                                Err(e) => {
                                    res = Err(e);
                                    break;
                                }
                            }
                        }
                        ctx.end_call(frame);
                        res?;
                        cols.push(col);
                    }
                    let mut iters: Vec<_> = cols.into_iter().map(|c| c.into_iter()).collect();
                    for _ in 0..batch.len() {
                        out.push(Value::tuple(
                            iters
                                .iter_mut()
                                .map(|it| it.next().expect("column length matches batch"))
                                .collect(),
                        ));
                    }
                }
            }
            Cursor::Replace {
                input,
                idx,
                fun,
                compiled,
            } => {
                let mut batch = Vec::with_capacity(n.min(4096));
                if input.next_batch_into(ctx, n, &mut batch)? > 0 {
                    let (idx, fun, compiled) = (*idx, fun.clone(), compiled.clone());
                    if let Some(cf) = &compiled {
                        // Columnar only when the whole batch evaluates
                        // clean (`try_columnar`); otherwise interleave
                        // call-then-rebuild per row like the interpreted
                        // loop, so the first error (function vs. tuple
                        // rebuild) lands in the same place.
                        let vals = cf.try_columnar(&batch);
                        for (r, t) in batch.iter().enumerate() {
                            let v = match &vals {
                                Some(vs) => vs[r].clone(),
                                None => cf.call(std::slice::from_ref(t))?,
                            };
                            let mut fields = t.as_tuple("replace")?.to_vec();
                            fields[idx] = v;
                            out.push(Value::tuple(fields));
                        }
                    } else {
                        let frame = ctx.begin_call(&fun);
                        let mut res = Ok(());
                        for t in &batch {
                            let built = ctx.call_bound1(&fun, &frame, t.clone()).and_then(|v| {
                                let mut fields = t.as_tuple("replace")?.to_vec();
                                fields[idx] = v;
                                Ok(Value::tuple(fields))
                            });
                            match built {
                                Ok(v) => out.push(v),
                                Err(e) => {
                                    res = Err(e);
                                    break;
                                }
                            }
                        }
                        ctx.end_call(frame);
                        res?;
                    }
                }
            }
            Cursor::Head { input, remaining } => {
                if *remaining > 0 {
                    let take = n.min(*remaining);
                    let got = input.next_batch_into(ctx, take, out)?;
                    *remaining = if got == 0 { 0 } else { *remaining - got };
                }
            }
            Cursor::Shared(c) => {
                let c = c.clone();
                let mut guard = c.lock();
                guard.next_batch_into(ctx, n, out)?;
            }
            // One outer tuple per refill of the inner buffer, so a
            // `head` above stops the outer scan as early as it can.
            Cursor::SearchJoin {
                outer,
                fun,
                current_outer,
                inner,
            } => {
                while out.len() < target {
                    if let Some(i) = inner.pop_front() {
                        let o = current_outer.as_ref().expect("outer set with inner");
                        out.push(crate::ops::relational::concat_tuples(o, &i, "search_join")?);
                        continue;
                    }
                    let Some(o) = outer.next(ctx)? else {
                        break;
                    };
                    let produced = ctx.call(fun, vec![o.clone()])?;
                    *inner = materialize(ctx, produced)?.into();
                    *current_outer = Some(o);
                }
            }
        }
        Ok(out.len() - start)
    }

    /// The source half of the kernel: append up to `n` tuples of a scan
    /// source (`Mat`, `Heap` or `BTreeRange`) to `out`, a whole page per
    /// refill (one fetch and latch via the storage
    /// `visit_page`/`visit_leaf` helpers, spilling the remainder past `n`
    /// into the cursor's buffer). Sources read storage only, so callers
    /// without an evaluation context ([`Cursor::scan_all`]) pull them
    /// here directly.
    pub(crate) fn scan_into(&mut self, n: usize, out: &mut Vec<Value>) -> ExecResult<usize> {
        let start = out.len();
        let target = start + n.max(1);
        match self {
            Cursor::Mat(buf) => {
                let take = n.min(buf.len());
                out.extend(buf.drain(..take));
            }
            Cursor::Heap {
                heap,
                pages,
                page_idx,
                buf,
            } => {
                while out.len() < target {
                    if let Some(v) = buf.pop_front() {
                        out.push(v);
                        continue;
                    }
                    if *page_idx >= pages.len() {
                        break;
                    }
                    let page = pages[*page_idx];
                    *page_idx += 1;
                    heap.visit_page::<ExecError, _>(page, |_, bytes| {
                        let v = Value::decode_tuple(bytes)?;
                        if out.len() < target {
                            out.push(v);
                        } else {
                            buf.push_back(v);
                        }
                        Ok(())
                    })?;
                }
            }
            Cursor::BTreeRange {
                handle,
                lo,
                hi,
                next_page,
                primed,
                done,
                buf,
            } => {
                while out.len() < target {
                    if let Some(v) = buf.pop_front() {
                        out.push(v);
                        continue;
                    }
                    if *done {
                        break;
                    }
                    let pid = if !*primed {
                        *primed = true;
                        handle.tree.find_leaf(lo)?
                    } else {
                        match *next_page {
                            Some(p) => p,
                            None => {
                                *done = true;
                                break;
                            }
                        }
                    };
                    let mut past_hi = false;
                    let next = handle.tree.visit_leaf::<ExecError, _>(pid, |k, bytes| {
                        if past_hi || k < lo.as_slice() {
                            return Ok(());
                        }
                        if k > hi.as_slice() {
                            past_hi = true;
                            return Ok(());
                        }
                        let v = Value::decode_tuple(bytes)?;
                        if out.len() < target {
                            out.push(v);
                        } else {
                            buf.push_back(v);
                        }
                        Ok(())
                    })?;
                    *next_page = next;
                    // `done` stops further page reads; buffered tuples
                    // still drain through the loop head above.
                    if past_hi || next.is_none() {
                        *done = true;
                    }
                }
            }
            other => {
                return Err(ExecError::Other(format!("{other:?} is not a scan source")));
            }
        }
        Ok(out.len() - start)
    }

    /// Drain a scan source to its tuples (see [`Cursor::scan_into`]).
    pub(crate) fn scan_all(mut self) -> ExecResult<Vec<Value>> {
        let mut out = Vec::new();
        while self.scan_into(crate::engine::DEFAULT_BATCH, &mut out)? > 0 {}
        Ok(out)
    }

    /// Pull every remaining tuple through `f` in batches of the engine's
    /// width, reusing one buffer; returns `(batches, rows)` delivered.
    /// Every consumer that drains a cursor does so through this loop.
    pub(crate) fn for_each_batch(
        &mut self,
        ctx: &mut EvalCtx,
        mut f: impl FnMut(&mut Vec<Value>) -> ExecResult<()>,
    ) -> ExecResult<(u64, u64)> {
        let width = ctx.engine.batch_size();
        let mut buf = Vec::with_capacity(width.min(4096));
        let (mut batches, mut rows) = (0u64, 0u64);
        loop {
            buf.clear();
            let got = self.next_batch_into(ctx, width, &mut buf)?;
            if got == 0 {
                return Ok((batches, rows));
            }
            batches += 1;
            rows += got as u64;
            f(&mut buf)?;
        }
    }

    /// Drain the remaining tuples, recording the batch traffic
    /// under the `materialize` pseudo-operator.
    pub fn drain(&mut self, ctx: &mut EvalCtx) -> ExecResult<Vec<Value>> {
        self.drain_as(ctx, "materialize")
    }

    /// [`Cursor::drain`] on behalf of operator `op`.
    pub(crate) fn drain_as(
        &mut self,
        ctx: &mut EvalCtx,
        op: &'static str,
    ) -> ExecResult<Vec<Value>> {
        // Batches land in the result directly: no per-batch buffer to
        // copy out of, unlike the folding consumers of `for_each_batch`.
        let width = ctx.engine.batch_size();
        let mut out = Vec::new();
        let mut batches = 0u64;
        while self.next_batch_into(ctx, width, &mut out)? > 0 {
            batches += 1;
        }
        ctx.engine
            .stats
            .record_batches(op, batches, out.len() as u64);
        Ok(out)
    }
}

impl std::fmt::Debug for Cursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Cursor::Mat(b) => return write!(f, "cursor[mat, {} buffered]", b.len()),
            Cursor::Heap { .. } => "heap-scan",
            Cursor::BTreeRange { .. } => "btree-range",
            Cursor::Filter { .. } => "filter",
            Cursor::Head { .. } => "head",
            Cursor::Project { .. } => "project",
            Cursor::Replace { .. } => "replace",
            Cursor::SearchJoin { .. } => "search-join",
            Cursor::Shared(_) => "shared",
        };
        write!(f, "cursor[{kind}]")
    }
}

/// Turn any stream-like value into its tuples, draining cursors
/// ([`Cursor::drain`]).
pub fn materialize(ctx: &mut EvalCtx, v: Value) -> ExecResult<Vec<Value>> {
    match v {
        Value::Stream(ts) | Value::Rel(ts) => Ok(ts),
        Value::Cursor(c) => c.lock().drain(ctx),
        Value::Undefined => Ok(Vec::new()),
        other => Err(ExecError::TypeMismatch {
            op: "stream".into(),
            expected: "stream".into(),
            found: other.kind_name().into(),
        }),
    }
}

/// Extract a cursor from a stream-like value (wrapping materialized
/// streams), for operators that stay pipelined.
pub fn into_cursor(v: Value) -> ExecResult<Cursor> {
    match v {
        Value::Cursor(c) => {
            // Take the cursor out if uniquely held; otherwise drain lazily
            // through the shared handle by wrapping.
            match Arc::try_unwrap(c) {
                Ok(m) => Ok(m.into_inner()),
                Err(shared) => Ok(Cursor::Shared(shared)),
            }
        }
        Value::Stream(ts) | Value::Rel(ts) => Ok(Cursor::materialized(ts)),
        Value::Undefined => Ok(Cursor::materialized(Vec::new())),
        other => Err(ExecError::TypeMismatch {
            op: "stream".into(),
            expected: "stream".into(),
            found: other.kind_name().into(),
        }),
    }
}
