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
//! [`try_par_fold`] is the engine's one parallel driver; no operator
//! keeps a parallel copy of its serial loop. The engine starts with one
//! worker ([`ExecEngine::new`]), and at `workers == 1` every entry point
//! here returns `None`, so the caller drains on its own thread.

use crate::engine::{EvalCtx, ExecEngine};
use crate::error::ExecResult;
use crate::stream::Cursor;
use crate::value::{Closure, Value};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_storage::heap::HeapFile;
use sos_storage::PageId;
use std::sync::Arc;

/// Minimum scan units (heap pages, tuple ranges) before a
/// scan is worth splitting.
pub const PAR_MIN_PAGES: usize = 2;
/// Minimum in-memory tuples before chunked evaluation is worth spawning.
pub const PAR_MIN_TUPLES: usize = 64;

// ---------------------------------------------------------------------
// Purity: closures safe to evaluate on worker threads.
// ---------------------------------------------------------------------

/// Whether a closure body is context-free: it touches no database
/// object, applies only pure operators and attribute access, and
/// contains no nested function values — so evaluating it reads neither
/// the object store nor the catalog, and any thread may do so under a
/// context of its own ([`with_worker_ctx`]).
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

/// One independently scannable fragment of a source: a single heap page
/// or a tuple range of an in-memory relation. Units are listed in serial
/// scan order, so concatenating per-unit results reproduces the serial
/// drain. A B-tree range is one leaf chain, which does not split, so it
/// always drains serially.
enum ScanUnit {
    HeapPage(Arc<HeapFile>, PageId),
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
        // A fresh (undrained) heap scan splits into its pages.
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
// The driver and its two entry points.
// ---------------------------------------------------------------------

/// Try to fold a cursor's tuples in parallel on behalf of operator `op`.
/// `None` falls back to the serial drain. Otherwise each worker folds
/// the batches of its unit slice into a `T` with `fold`, `finish` turns
/// the per-worker `T`s (in unit order) into the result, and the cursor
/// is left consumed (as a serial drain would). The first error in unit
/// order wins.
///
/// The drain's batch traffic is recorded under `op`, as the serial drain
/// records it. The caller records the invocation itself, with the same
/// `tuples_in`/`tuples_out` as its serial branch and the engine's worker
/// count, so a statement reports the same rows on either path.
fn try_par_fold<T, R>(
    engine: &ExecEngine,
    cursor: &mut Cursor,
    op: &'static str,
    fold: impl Fn(&mut T, &mut Vec<Value>) + Sync,
    finish: impl FnOnce(Vec<T>) -> R,
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
        with_worker_ctx(engine, |ctx| -> ExecResult<(T, u64, u64)> {
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
            Ok((acc, batches, rows))
        })
    });
    // Collecting surfaces the first error in unit order.
    let result = chunks
        .into_iter()
        .collect::<ExecResult<Vec<_>>>()
        .map(|chunks| {
            let (mut batches, mut rows) = (0, 0);
            let accs = chunks
                .into_iter()
                .map(|(acc, b, r)| {
                    batches += b;
                    rows += r;
                    acc
                })
                .collect();
            engine.stats.record_batches(op, batches, rows);
            finish(accs)
        });
    if result.is_ok() {
        *cursor = Cursor::Mat(Default::default());
    }
    Some(result)
}

/// Try to drain a cursor in parallel, its batches recorded under `op`
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
        |accs| accs.into_iter().flatten().collect(),
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
        |accs| accs.into_iter().sum(),
    )
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use crate::testing::{apply, engine};
    use sos_core::{Const, DataType, Symbol};
    use sos_storage::{mem_pool, BufferPool, DiskManager, MemDisk, StorageError, StorageResult};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn int_ty() -> DataType {
        DataType::atom("int")
    }

    fn cint(v: i64) -> TypedExpr {
        TypedExpr::new(TypedNode::Const(Const::Int(v)), int_ty())
    }

    fn var(name: &str) -> TypedExpr {
        TypedExpr::new(TypedNode::Var(Symbol::new(name)), int_ty())
    }

    /// `fun (param) body`; the parameter type does not affect evaluation.
    fn closure_of(param: &str, body: TypedExpr) -> Arc<Closure> {
        Arc::new(Closure {
            params: [(Symbol::new(param), int_ty())].into(),
            body: Arc::new(body),
            captured: vec![],
        })
    }

    #[test]
    fn identity_and_arithmetic_closures_are_pure() {
        let e = engine();
        let body = apply("+", vec![var("x"), cint(1)], int_ty());
        assert!(is_pure_expr(&e, &body), "x + 1 is pure");
        assert!(is_pure_expr(&e, &var("x")));
        // A worker evaluates it under a context of its own.
        let got = with_worker_ctx(&e, |ctx| {
            ctx.call(&closure_of("x", body), vec![Value::Int(41)])
        });
        assert_eq!(got.unwrap(), Value::Int(42));
    }

    #[test]
    fn object_references_are_impure() {
        let body = TypedExpr::new(TypedNode::Object(Symbol::new("cities")), int_ty());
        assert!(!is_pure_expr(&engine(), &body));
    }

    #[test]
    fn overriding_an_atomic_op_revokes_purity() {
        let mut e = engine();
        let body = apply("+", vec![var("x"), cint(1)], int_ty());
        assert!(is_pure_expr(&e, &body));
        // A user override of `+` may do anything; the driver must no
        // longer send it to a worker.
        e.add_op("+", |_, _, _| Ok(Value::Int(0)));
        assert!(!is_pure_expr(&e, &body));
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

    // -----------------------------------------------------------------
    // The driver over heap scans.
    // -----------------------------------------------------------------

    /// The encoded tuple `(k, pad)` with a pad of `pad` bytes.
    fn item(k: usize, pad: usize) -> Vec<u8> {
        let t = Value::tuple(vec![Value::Int(k as i64), Value::Str("x".repeat(pad))]);
        t.encode_tuple("test").unwrap()
    }

    /// `n` tuples with 100–399-byte pads: a few dozen per page.
    fn filled_heap(n: usize) -> Arc<HeapFile> {
        let heap = HeapFile::create(mem_pool(256)).unwrap();
        for k in 0..n {
            heap.insert(&item(k, 100 + k % 300)).unwrap();
        }
        Arc::new(heap)
    }

    fn key(t: &Value) -> i64 {
        match t.as_tuple("test").unwrap()[0] {
            Value::Int(k) => k,
            ref other => panic!("not an int key: {other:?}"),
        }
    }

    fn engine_with(workers: usize) -> ExecEngine {
        let mut e = engine();
        e.set_workers(workers);
        e
    }

    fn scan(heap: &Arc<HeapFile>) -> Cursor {
        Cursor::heap_scan(heap.clone())
    }

    /// `fun (t) t k mod m = 0` over the `(k, pad)` tuple.
    fn k_mod_is_zero(m: i64) -> Arc<Closure> {
        let k = TypedNode::Field {
            attr: Symbol::new("k"),
            spec: 0,
            idx: 0,
            arg: Box::new(var("t")),
        };
        let modulo = apply("mod", vec![TypedExpr::new(k, int_ty()), cint(m)], int_ty());
        closure_of(
            "t",
            apply("=", vec![modulo, cint(0)], DataType::atom("bool")),
        )
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let heap = filled_heap(5000);
        let sequential = heap.count().unwrap() as i64;
        assert!(try_par_count(&engine_with(1), &mut scan(&heap)).is_none());
        for workers in [2, 4, 8] {
            let got = try_par_count(&engine_with(workers), &mut scan(&heap)).expect("splits");
            assert_eq!(got.unwrap(), sequential, "workers={workers}");
        }
    }

    #[test]
    fn parallel_filter_matches_sequential() {
        let heap = filled_heap(3000);
        let e = engine_with(4);
        let mut c = Cursor::filter(&e, scan(&heap), k_mod_is_zero(3));
        let got = try_par_count(&e, &mut c).expect("a pure filter splits");
        assert_eq!(got.unwrap(), 1000);
    }

    #[test]
    fn parallel_scan_on_empty_heap() {
        // No pages, no units: the driver declines and the serial drain
        // finds nothing.
        let heap = Arc::new(HeapFile::create(mem_pool(8)).unwrap());
        assert!(try_par_count(&engine_with(4), &mut scan(&heap)).is_none());
        assert!(scan(&heap).scan_all().unwrap().is_empty());
    }

    #[test]
    fn parallel_fold_collects_all_tids() {
        let heap = filled_heap(500);
        let rows = try_par_drain(&engine_with(3), &mut scan(&heap), "feed").expect("splits");
        let mut keys: Vec<i64> = rows.unwrap().iter().map(key).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            (0..500).collect::<Vec<_>>(),
            "each record exactly once"
        );
    }

    #[test]
    fn more_threads_than_pages() {
        // Each worker gets at most one page; excess workers get none.
        let heap = filled_heap(100);
        let pages = heap.pages().len();
        assert!(pages >= PAR_MIN_PAGES, "need a multi-page heap");
        let e = engine_with(pages + 13);
        assert_eq!(try_par_count(&e, &mut scan(&heap)).unwrap().unwrap(), 100);
        let rows = try_par_drain(&e, &mut scan(&heap), "feed")
            .unwrap()
            .unwrap();
        assert_eq!(rows, scan(&heap).scan_all().unwrap());
    }

    #[test]
    fn single_page_heap() {
        // One page is one unit, below the split floor at every worker
        // count: the serial drain yields the records in insertion order.
        let heap = Arc::new(HeapFile::create(mem_pool(8)).unwrap());
        for k in 0..5 {
            heap.insert(&item(k, 10)).unwrap();
        }
        assert_eq!(heap.pages().len(), 1);
        for workers in [1, 2, 8] {
            assert!(try_par_count(&engine_with(workers), &mut scan(&heap)).is_none());
        }
        let keys: Vec<i64> = scan(&heap).scan_all().unwrap().iter().map(key).collect();
        assert_eq!(keys, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn par_collect_preserves_serial_order() {
        let heap = filled_heap(2000);
        let serial = scan(&heap).scan_all().unwrap();
        for workers in [2, 3, 8] {
            let e = engine_with(workers);
            let got = try_par_drain(&e, &mut scan(&heap), "feed").expect("splits");
            assert_eq!(got.unwrap(), serial, "workers={workers}");
            // Its batches carry exactly the rows the serial drain would.
            assert_eq!(e.stats.op("feed").batched_rows, 2000);
        }
    }

    #[test]
    fn par_filter_collect_preserves_serial_order() {
        let heap = filled_heap(2000);
        let mut serial = scan(&heap).scan_all().unwrap();
        serial.retain(|t| key(t) % 7 == 0);
        for workers in [2, 4] {
            let e = engine_with(workers);
            let mut c = Cursor::filter(&e, scan(&heap), k_mod_is_zero(7));
            let got = try_par_drain(&e, &mut c, "feed").expect("a pure filter splits");
            assert_eq!(got.unwrap(), serial, "workers={workers}");
        }
    }

    /// A disk that serves a limited number of reads, then fails every
    /// further one with the page it was asked for.
    struct FuseDisk {
        inner: MemDisk,
        reads_left: AtomicUsize,
    }

    impl DiskManager for FuseDisk {
        fn read_page(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
            let burned = self
                .reads_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_err();
            if burned {
                return Err(StorageError::PageOutOfBounds(pid));
            }
            self.inner.read_page(pid, buf)
        }
        fn write_page(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
            self.inner.write_page(pid, buf)
        }
        fn allocate_page(&self) -> StorageResult<PageId> {
            self.inner.allocate_page()
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
        fn sync(&self) -> StorageResult<()> {
            self.inner.sync()
        }
    }

    /// A multi-page heap on a fuse disk, reopened behind a cold pool so
    /// that every page a scan touches is a disk read.
    fn fused_heap() -> (Arc<FuseDisk>, Arc<HeapFile>) {
        let disk = Arc::new(FuseDisk {
            inner: MemDisk::new(),
            reads_left: AtomicUsize::new(usize::MAX),
        });
        let pool = Arc::new(BufferPool::new(disk.clone(), 64));
        let heap = HeapFile::create(pool.clone()).unwrap();
        for k in 0..200 {
            heap.insert(&item(k, 300)).unwrap();
        }
        pool.flush_all().unwrap();
        assert!(heap.pages().len() > 4, "need a multi-page heap");
        let cold = Arc::new(BufferPool::new(disk.clone(), 2));
        (disk, Arc::new(HeapFile::from_pages(cold, heap.pages())))
    }

    #[test]
    fn worker_error_propagates_without_panicking() {
        let (disk, heap) = fused_heap();
        disk.reads_left.store(0, Ordering::SeqCst);
        let parallel = try_par_count(&engine_with(4), &mut scan(&heap)).expect("splits");
        let serial = scan(&heap).scan_all();
        for res in [parallel.map(|_| ()), serial.map(|_| ())] {
            assert!(
                matches!(
                    res,
                    Err(ExecError::Storage(StorageError::PageOutOfBounds(_)))
                ),
                "expected the injected fault, got {res:?}"
            );
        }
    }

    #[test]
    fn first_error_in_page_order_wins() {
        // Every worker's first read fails. Whichever fails first in
        // wall-clock time, the error surfaced is the first chunk's: the
        // heap's first page.
        let (disk, heap) = fused_heap();
        disk.reads_left.store(0, Ordering::SeqCst);
        for workers in [2, 8] {
            match try_par_count(&engine_with(workers), &mut scan(&heap)) {
                Some(Err(ExecError::Storage(StorageError::PageOutOfBounds(pid)))) => {
                    assert_eq!(pid, heap.pages()[0], "workers={workers}");
                }
                other => panic!("expected the injected fault, got {other:?}"),
            }
        }
    }
}
