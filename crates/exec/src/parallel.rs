//! Intra-operator parallelism: a parallel drain is N ordinary cursors
//! over disjoint slices of one scan source.
//!
//! A pipeline is only parallelized when every function it applies is
//! *pure*: built from attribute access and applications whose
//! operator-table entry is pure (the context-free operators of
//! [`crate::ops::basic`]). The driver then splits the spine's source
//! into scan units in serial scan order, and each worker rebuilds the
//! spine's `Filter`/`Project`/`Replace` steps over its slice of units
//! and pulls it through [`Cursor::next_batch_into`] — the same kernel,
//! the same compiled programs, a context of its own. Per-worker results
//! are concatenated in unit order, so the outcome is extensionally equal
//! to the serial drain by construction — `tests/par_vs_serial.rs` checks
//! this differentially.
//!
//! `workers == 1` (the default on single-core machines) never spawns:
//! every hook here returns `None` and the caller drains on its own
//! thread.

use crate::compile::{compile_gated, CompiledFun};
use crate::engine::{EvalCtx, ExecEngine};
use crate::error::ExecResult;
use crate::ops::relational::concat_tuples;
use crate::stream::{Cursor, ScanTally};
use crate::value::{Closure, Value};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_storage::heap::HeapFile;
use sos_storage::keys::KeyBytes;
use sos_storage::PageId;
use std::sync::Arc;

/// Minimum scan units (heap pages, partitions, tuple ranges) before a
/// scan is worth splitting.
pub const PAR_MIN_PAGES: usize = 2;
/// Minimum in-memory tuples before chunked evaluation is worth spawning.
pub const PAR_MIN_TUPLES: usize = 64;

// ---------------------------------------------------------------------
// Pure functions: closures safe to evaluate on worker threads.
// ---------------------------------------------------------------------

/// A closure proven context-free: its body touches no database object,
/// applies only pure operators and attribute access, and contains no
/// nested function values — so evaluating it reads neither the object
/// store nor the catalog, and any thread may do so under a context of
/// its own ([`with_worker_ctx`]).
pub struct PureFun {
    closure: Arc<Closure>,
    compiled: Option<Arc<CompiledFun>>,
}

impl PureFun {
    /// Verify purity; `None` means the closure needs the serial engine.
    /// Compiles through the engine's gate like any other plan closure.
    pub fn new(engine: &ExecEngine, closure: &Arc<Closure>) -> Option<PureFun> {
        is_pure_expr(engine, &closure.body).then(|| PureFun {
            closure: closure.clone(),
            compiled: compile_gated(engine, closure),
        })
    }

    /// Apply to argument values: the bytecode when the closure
    /// compiled, [`EvalCtx::call`] otherwise.
    pub fn call(&self, ctx: &mut EvalCtx, args: &[Value]) -> ExecResult<Value> {
        match &self.compiled {
            Some(cf) => cf.call(args),
            None => ctx.call(&self.closure, args.to_vec()),
        }
    }
}

fn is_pure_expr(engine: &ExecEngine, te: &TypedExpr) -> bool {
    match &te.node {
        TypedNode::Const(_) | TypedNode::Var(_) => true,
        // Objects read the store; function values re-enter the
        // interpreter. Both stay on the serial path.
        TypedNode::Object(_) | TypedNode::Lambda { .. } | TypedNode::ApplyFun { .. } => false,
        TypedNode::List(items) | TypedNode::Tuple(items) => {
            items.iter().all(|i| is_pure_expr(engine, i))
        }
        TypedNode::Field { arg, .. } => is_pure_expr(engine, arg),
        TypedNode::Apply { spec, args, .. } => {
            engine
                .ops()
                .of_spec(*spec)
                .is_some_and(|(_, entry)| entry.pure.is_some())
                && args.iter().all(|a| is_pure_expr(engine, a))
        }
    }
}

/// Run `f` under an evaluation context of the calling worker's own: an
/// empty object store and a scratch catalog, which a pure closure never
/// reads.
fn with_worker_ctx<R>(engine: &ExecEngine, f: impl FnOnce(&mut EvalCtx) -> R) -> R {
    let mut store = std::collections::HashMap::new();
    let mut catalog = sos_catalog::Catalog::new();
    f(&mut EvalCtx::new(engine, &mut store, &mut catalog))
}

// ---------------------------------------------------------------------
// Scan units: a fresh source split for the workers.
// ---------------------------------------------------------------------

/// One independently scannable fragment of a source: a single heap page,
/// a B-tree leaf-chain range (one partition of a partitioned B-tree), or
/// a run of in-memory tuples (a materialized LSD partition, a tuple
/// range of an in-memory relation). Units are listed in serial scan
/// order, so concatenating per-unit results reproduces the serial drain.
enum ScanUnit {
    HeapPage(Arc<HeapFile>, PageId),
    BTreeRange(Arc<crate::handles::BTreeHandle>, KeyBytes, KeyBytes),
    Mem(Vec<Value>),
}

/// Split a cursor spine's source into scan units. `None` whenever any
/// part of the spine must stay serial: a partially drained or
/// non-scannable source, an impure function, a `head` (early termination
/// is the point of pipelining), a `search_join`, or a shared link
/// another value still holds.
fn scan_units(engine: &ExecEngine, cursor: &Cursor, workers: usize) -> Option<Vec<ScanUnit>> {
    let pure = |f: &Arc<Closure>| is_pure_expr(engine, &f.body);
    match cursor {
        Cursor::Filter { input, pred, .. } if pure(pred) => scan_units(engine, input, workers),
        Cursor::Project { input, funs, .. } if funs.iter().all(pure) => {
            scan_units(engine, input, workers)
        }
        Cursor::Replace { input, fun, .. } if pure(fun) => scan_units(engine, input, workers),
        // A shared link inside a spine is parallel-safe only when the
        // spine is its sole owner (a clone elsewhere could observe a
        // partial drain).
        Cursor::Shared(arc) if Arc::strong_count(arc) == 1 => {
            scan_units(engine, &arc.lock(), workers)
        }
        // An in-memory relation splits into one tuple range per worker.
        Cursor::Mat(buf) if buf.len() >= PAR_MIN_TUPLES => {
            let per = buf.len().div_ceil(workers);
            let mut rows = buf.iter().cloned();
            Some(
                (0..buf.len().div_ceil(per))
                    .map(|_| ScanUnit::Mem(rows.by_ref().take(per).collect()))
                    .collect(),
            )
        }
        Cursor::PartScan {
            cursors, idx: 0, ..
        } => {
            let mut units = Vec::new();
            for c in cursors {
                units.extend(source_units(c)?);
            }
            Some(units)
        }
        Cursor::Heap { .. } | Cursor::BTreeRange { .. } => source_units(cursor),
        _ => None,
    }
}

/// The units of one fresh (undrained) scan source, in scan order.
fn source_units(source: &Cursor) -> Option<Vec<ScanUnit>> {
    match source {
        Cursor::Heap {
            heap,
            pages,
            page_idx: 0,
            buf,
        } if buf.is_empty() => Some(
            pages
                .iter()
                .map(|p| ScanUnit::HeapPage(heap.clone(), *p))
                .collect(),
        ),
        Cursor::BTreeRange {
            handle,
            lo,
            hi,
            primed: false,
            done: false,
            buf,
            ..
        } if buf.is_empty() => Some(vec![ScanUnit::BTreeRange(
            handle.clone(),
            lo.clone(),
            hi.clone(),
        )]),
        Cursor::Mat(buf) => Some(vec![ScanUnit::Mem(buf.iter().cloned().collect())]),
        _ => None,
    }
}

/// The source cursors over one worker's slice of units: runs of pages of
/// one heap become one `Heap` cursor over that page sub-list, so batches
/// still span pages.
fn unit_cursors(part: &[ScanUnit]) -> Vec<Cursor> {
    let mut out: Vec<Cursor> = Vec::new();
    for unit in part {
        match unit {
            ScanUnit::HeapPage(heap, pid) => match out.last_mut() {
                Some(Cursor::Heap { heap: h, pages, .. }) if Arc::ptr_eq(h, heap) => {
                    pages.push(*pid)
                }
                _ => out.push(Cursor::Heap {
                    heap: heap.clone(),
                    pages: vec![*pid],
                    page_idx: 0,
                    buf: Default::default(),
                }),
            },
            ScanUnit::BTreeRange(handle, lo, hi) => {
                out.push(Cursor::btree_range(handle.clone(), lo.clone(), hi.clone()))
            }
            ScanUnit::Mem(rows) => out.push(Cursor::materialized(rows.clone())),
        }
    }
    out
}

impl Cursor {
    /// This spine's `Filter`/`Project`/`Replace` steps rebuilt over
    /// another source, sharing the closures and their compiled programs.
    fn with_source(&self, source: Cursor) -> Cursor {
        match self {
            Cursor::Filter {
                input,
                pred,
                compiled,
            } => Cursor::Filter {
                input: Box::new(input.with_source(source)),
                pred: pred.clone(),
                compiled: compiled.clone(),
            },
            Cursor::Project {
                input,
                funs,
                compiled,
            } => Cursor::Project {
                input: Box::new(input.with_source(source)),
                funs: funs.clone(),
                compiled: compiled.clone(),
            },
            Cursor::Replace {
                input,
                idx,
                fun,
                compiled,
            } => Cursor::Replace {
                input: Box::new(input.with_source(source)),
                idx: *idx,
                fun: fun.clone(),
                compiled: compiled.clone(),
            },
            Cursor::Shared(arc) => arc.lock().with_source(source),
            _ => source,
        }
    }
}

// ---------------------------------------------------------------------
// Drain hooks: entry points called by the serial operators.
// ---------------------------------------------------------------------

/// Try to fold a cursor's tuples in parallel on behalf of operator `op`.
/// `None` falls back to the serial drain. Otherwise each worker folds
/// the batches of its unit slice into a `T` with `fold`, `finish` turns
/// the per-worker `T`s (in unit order) into the result plus the
/// operator's `tuples_out`, and the cursor is left consumed (as a serial
/// drain would). The first error in unit order wins.
fn try_par_fold<T, R>(
    engine: &ExecEngine,
    cursor: &mut Cursor,
    op: &'static str,
    fold: impl Fn(&mut T, &mut Vec<Value>) + Sync,
    finish: impl FnOnce(Vec<T>) -> (R, usize),
) -> Option<ExecResult<R>>
where
    T: Default + Send,
{
    if let Cursor::Shared(arc) = cursor {
        let arc = arc.clone();
        let mut guard = arc.lock();
        return try_par_fold(engine, &mut guard, op, fold, finish);
    }
    let workers = engine.workers();
    if workers <= 1 {
        return None;
    }
    let units = scan_units(engine, cursor, workers)?;
    if units.len() < PAR_MIN_PAGES {
        return None;
    }
    let spine: &Cursor = cursor;
    let chunks = par_chunks(&units, workers, |_, part| {
        with_worker_ctx(engine, |ctx| -> ExecResult<(T, ScanTally, (u64, u64))> {
            let mut acc = T::default();
            let (mut batches, mut rows) = (0, 0);
            for source in unit_cursors(part) {
                let (b, r) = spine.with_source(source).for_each_batch(ctx, |batch| {
                    fold(&mut acc, batch);
                    Ok(())
                })?;
                batches += b;
                rows += r;
            }
            Ok((acc, ctx.scanned, (batches, rows)))
        })
    });
    // Collecting surfaces the first error in unit order.
    let result = chunks
        .into_iter()
        .collect::<ExecResult<Vec<_>>>()
        .map(|chunks| {
            let mut accs = Vec::with_capacity(chunks.len());
            let mut scanned = ScanTally::default();
            let (mut batches, mut rows) = (0, 0);
            for (acc, tally, (b, r)) in chunks {
                accs.push(acc);
                scanned.rows += tally.rows;
                scanned.pages += tally.pages;
                batches += b;
                rows += r;
            }
            let (out, tuples_out) = finish(accs);
            engine
                .stats
                .record(op, workers, scanned.rows, tuples_out, scanned.pages);
            engine.stats.record_batches(op, batches, rows);
            out
        });
    if result.is_ok() {
        *cursor = Cursor::Mat(Default::default());
    }
    Some(result)
}

/// Try to drain a cursor in parallel, recorded as an invocation of `op`
/// (see [`try_par_fold`]): the tuples come back in serial scan order.
pub fn try_par_drain(
    engine: &ExecEngine,
    cursor: &mut Cursor,
    op: &'static str,
) -> Option<ExecResult<Vec<Value>>> {
    try_par_fold(
        engine,
        cursor,
        op,
        |acc: &mut Vec<Value>, batch| acc.append(batch),
        |accs| {
            let mut out = Vec::with_capacity(accs.iter().map(Vec::len).sum());
            for mut acc in accs {
                out.append(&mut acc);
            }
            let n = out.len();
            (out, n)
        },
    )
}

/// Try to count a cursor's tuples in parallel without materializing them
/// (the filter + count pushdown). Same contract as [`try_par_drain`].
pub fn try_par_count(engine: &ExecEngine, cursor: &mut Cursor) -> Option<ExecResult<i64>> {
    try_par_fold(
        engine,
        cursor,
        "count",
        |n: &mut i64, batch| *n += batch.len() as i64,
        // `count` emits one value; tuples_out = 1 matches the serial path.
        |accs| (accs.into_iter().sum(), 1),
    )
}

// ---------------------------------------------------------------------
// Parallel search join.
// ---------------------------------------------------------------------

/// The recognized shapes of a `search_join` parameter function whose
/// inner side is *outer-invariant* (references no outer-tuple variable):
///
/// * `fun (o) SRC filter[fun (d) PRED]` — the inner source evaluates
///   once, `PRED(o, d)` must be pure; workers then join outer chunks
///   against the materialized inner side.
/// * `fun (o) SRC exactmatch[K] / point_search[K] / overlap_search[K]`
///   — the index handle evaluates once, the key expression `K(o)` must
///   be pure; workers probe the index (partition-pruned for partitioned
///   indexes) per outer tuple.
enum SjInner {
    FilterMat {
        pred: PureFun,
    },
    Probe {
        probe: crate::ops::indexes::ProbeFn,
        key: PureFun,
    },
}

/// Whether `name` occurs as a variable anywhere in `te`. Conservative:
/// shadowing is ignored, so a shadowed occurrence still counts as a use
/// (which only ever disables the rewrite).
fn expr_refs_var(te: &TypedExpr, name: &sos_core::Symbol) -> bool {
    let mut found = false;
    te.visit(&mut |n| found |= matches!(&n.node, TypedNode::Var(v) if v == name));
    found
}

/// Try to run a `search_join` cursor data-parallel. `None` falls back to
/// the serial nested-loop drain; `Some` returns the joined tuples in
/// serial order and leaves the cursor consumed.
///
/// The rewrite applies when the parameter function's inner source is
/// outer-invariant (see [`SjInner`]): the source is evaluated *once*
/// under the closure's captured environment instead of once per outer
/// tuple, and the per-tuple work (pure predicate or pure key + index
/// probe) runs on worker threads over outer chunks. Per-tuple probe
/// results keep the serial operator's order, so concatenation in chunk
/// order reproduces the serial join exactly.
pub fn try_par_search_join(
    ctx: &mut crate::engine::EvalCtx,
    cursor: &mut Cursor,
) -> Option<ExecResult<Vec<Value>>> {
    if let Cursor::Shared(arc) = cursor {
        let arc = arc.clone();
        let mut guard = arc.lock();
        return try_par_search_join(ctx, &mut guard);
    }
    let engine = ctx.engine;
    let workers = engine.workers();
    if workers <= 1 {
        return None;
    }
    let Cursor::SearchJoin {
        outer,
        fun,
        current_outer: None,
        inner,
    } = cursor
    else {
        return None;
    };
    if !inner.is_empty() {
        return None;
    }
    let [(outer_param, outer_ty)] = &fun.params[..] else {
        return None;
    };
    let TypedNode::Apply { op, args, .. } = &fun.body.node else {
        return None;
    };
    let [src, second] = args.as_slice() else {
        return None;
    };
    if expr_refs_var(src, outer_param) {
        return None;
    }
    let plan = match op.as_str() {
        "filter" => {
            let TypedNode::Lambda { params, body } = &second.node else {
                return None;
            };
            let [inner_param] = &params[..] else {
                return None;
            };
            let pred = Arc::new(Closure {
                params: [(outer_param.clone(), outer_ty.clone()), inner_param.clone()].into(),
                body: body.clone(),
                captured: fun.captured.clone(),
            });
            SjInner::FilterMat {
                pred: PureFun::new(engine, &pred)?,
            }
        }
        op => {
            let (_, probe) = *crate::ops::indexes::PROBE_OPS
                .iter()
                .find(|(name, _)| *name == op)?;
            let key = Arc::new(Closure {
                params: fun.params.clone(),
                body: Arc::new(second.clone()),
                captured: fun.captured.clone(),
            });
            SjInner::Probe {
                probe,
                key: PureFun::new(engine, &key)?,
            }
        }
    };
    // Evaluate the outer-invariant inner source once, under the closure's
    // captured environment (exactly the environment the serial per-tuple
    // evaluation would see, minus the unused outer binding).
    let src_closure = Closure {
        params: Arc::new([]),
        body: Arc::new(src.clone()),
        captured: fun.captured.clone(),
    };
    let mut run = || -> ExecResult<Vec<Value>> {
        let src_value = ctx.call(&src_closure, Vec::new())?;
        let outer_tuples = outer.drain_any(ctx)?;
        let (src_value, inner_tuples) = match &plan {
            SjInner::FilterMat { .. } => (
                Value::Undefined,
                crate::stream::materialize(ctx, src_value)?,
            ),
            SjInner::Probe { .. } => (src_value, Vec::new()),
        };
        let chunks = par_chunks(&outer_tuples, workers, |_, part| {
            with_worker_ctx(engine, |ctx| -> ExecResult<Vec<Value>> {
                let mut out = Vec::new();
                for o in part {
                    match &plan {
                        SjInner::FilterMat { pred } => {
                            for i in &inner_tuples {
                                if pred.call(ctx, &[o.clone(), i.clone()])?.as_bool("filter")? {
                                    out.push(concat_tuples(o, i, "search_join")?);
                                }
                            }
                        }
                        SjInner::Probe { probe, key } => {
                            let k = key.call(ctx, std::slice::from_ref(o))?;
                            let hits = match probe(engine, &src_value, &k)? {
                                Value::Stream(ts) => ts,
                                cursor => crate::stream::into_cursor(cursor)?.scan_all()?,
                            };
                            for m in &hits {
                                out.push(concat_tuples(o, m, "search_join")?);
                            }
                        }
                    }
                }
                Ok(out)
            })
        });
        let out = merge_chunks(chunks)?;
        engine.stats.record(
            "search_join",
            workers,
            outer_tuples.len() + inner_tuples.len(),
            out.len(),
            0,
        );
        Ok(out)
    };
    let result = run();
    if result.is_ok() {
        *cursor = Cursor::Mat(Default::default());
    }
    Some(result)
}

// ---------------------------------------------------------------------
// Chunked evaluation over in-memory tuple slices.
// ---------------------------------------------------------------------

/// Run `f` over contiguous chunks of `items` on scoped worker threads,
/// returning per-chunk results in chunk order (so concatenation
/// reproduces serial order and the first error in chunk order is the
/// first error in item order). `f` receives each chunk's base index.
pub fn par_chunks<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return vec![f(0, items)];
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| {
                let f = &f;
                scope.spawn(move || f(i * chunk, part))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Flatten chunk results, surfacing the first error in chunk order.
fn merge_chunks(chunks: Vec<ExecResult<Vec<Value>>>) -> ExecResult<Vec<Value>> {
    let mut out = Vec::new();
    for c in chunks {
        out.append(&mut c?);
    }
    Ok(out)
}

/// Parallel nested-loop `join`: partitions the left side, each worker
/// joins its chunk against the whole right side.
pub fn try_par_join(
    engine: &ExecEngine,
    left: &[Value],
    right: &[Value],
    pred: &Value,
) -> Option<ExecResult<Vec<Value>>> {
    let workers = engine.workers();
    if workers <= 1 || left.len().saturating_mul(right.len()) < PAR_MIN_TUPLES {
        return None;
    }
    let fun = PureFun::new(engine, pred.as_closure("join").ok()?)?;
    let chunks = par_chunks(left, workers, |_, part| {
        with_worker_ctx(engine, |ctx| -> ExecResult<Vec<Value>> {
            let mut out = Vec::new();
            for l in part {
                for r in right {
                    if fun.call(ctx, &[l.clone(), r.clone()])?.as_bool("join")? {
                        out.push(concat_tuples(l, r, "join")?);
                    }
                }
            }
            Ok(out)
        })
    });
    let out = merge_chunks(chunks);
    if let Ok(joined) = &out {
        engine
            .stats
            .record("join", workers, left.len() + right.len(), joined.len(), 0);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{apply, engine};
    use sos_core::{Const, DataType, Symbol};

    fn int_ty() -> DataType {
        DataType::Cons(Symbol::new("int"), vec![])
    }

    fn closure_of(body: TypedExpr) -> Arc<Closure> {
        Arc::new(Closure {
            params: [(Symbol::new("x"), int_ty())].into(),
            body: Arc::new(body),
            captured: vec![],
        })
    }

    #[test]
    fn identity_and_arithmetic_closures_are_pure() {
        let e = engine();
        let var = TypedExpr::new(TypedNode::Var(Symbol::new("x")), int_ty());
        let body = apply(
            "+",
            vec![
                var.clone(),
                TypedExpr::new(TypedNode::Const(Const::Int(1)), int_ty()),
            ],
            int_ty(),
        );
        let f = PureFun::new(&e, &closure_of(body)).expect("x + 1 is pure");
        let got = with_worker_ctx(&e, |ctx| f.call(ctx, &[Value::Int(41)]));
        assert_eq!(got.unwrap(), Value::Int(42));
        assert!(PureFun::new(&e, &closure_of(var)).is_some());
    }

    #[test]
    fn object_references_are_impure() {
        let e = engine();
        let body = TypedExpr::new(TypedNode::Object(Symbol::new("cities")), int_ty());
        assert!(PureFun::new(&e, &closure_of(body)).is_none());
    }

    #[test]
    fn overriding_an_atomic_op_revokes_purity() {
        let mut e = engine();
        let body = apply(
            "+",
            vec![
                TypedExpr::new(TypedNode::Var(Symbol::new("x")), int_ty()),
                TypedExpr::new(TypedNode::Const(Const::Int(1)), int_ty()),
            ],
            int_ty(),
        );
        assert!(PureFun::new(&e, &closure_of(body.clone())).is_some());
        // A user override of `+` may do anything; the pure evaluator must
        // no longer claim it.
        e.add_op("+", |_, _, _| Ok(Value::Int(0)));
        assert!(PureFun::new(&e, &closure_of(body)).is_none());
    }

    #[test]
    fn par_chunks_preserves_order_and_offsets() {
        let items: Vec<i64> = (0..100).collect();
        for workers in [1, 3, 8, 200] {
            let chunks = par_chunks(&items, workers, |base, part| {
                part.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        assert_eq!((base + i) as i64, *v, "base offsets line up");
                        v * 2
                    })
                    .collect::<Vec<_>>()
            });
            let flat: Vec<i64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }
}
