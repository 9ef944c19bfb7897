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
//! A cursor travels inside a [`Value::Cursor`] behind `Rc<RefCell<..>>`:
//! cloning a stream value shares the cursor (streams are linear; a
//! drained stream stays drained). Crossing the statement boundary, the
//! system materializes cursors into plain [`Value::Stream`] results.

use crate::engine::EvalCtx;
use crate::error::{ExecError, ExecResult};
use crate::handles::BTreeHandle;
use crate::ops::streams::Fold;
use crate::value::{Closure, Row, Value};
use sos_core::Symbol;
use sos_storage::field::RecordView;
use sos_storage::heap::HeapFile;
use sos_storage::keys::KeyBytes;
use sos_storage::{PageId, StorageResult};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A pull-based tuple stream.
pub enum Cursor {
    /// Materialized tuples (the degenerate cursor).
    Mat(VecDeque<Value>),
    /// Page-at-a-time scan of a heap file or a B-tree range, with the
    /// `filter` steps pushed into it.
    Scan(Scan),
    /// Pipelined selection.
    Filter {
        input: Box<Cursor>,
        pred: Rc<Closure>,
    },
    /// Pipelined prefix (stops pulling once exhausted).
    Head {
        input: Box<Cursor>,
        remaining: usize,
    },
    /// Pipelined generalized projection: each output tuple is built by
    /// applying the attribute functions to the input tuple.
    Project {
        input: Box<Cursor>,
        funs: Vec<Rc<Closure>>,
    },
    /// Pipelined attribute replacement of `field` (index and name).
    Replace {
        input: Box<Cursor>,
        field: (usize, Symbol),
        fun: Rc<Closure>,
    },
    /// Pipelined search join: for each outer tuple, the parameter
    /// function produces the matching inner stream (Section 4).
    SearchJoin {
        outer: Box<Cursor>,
        fun: Rc<Closure>,
        current_outer: Option<Value>,
        inner: VecDeque<Value>,
    },
    /// A cursor shared through a cloned stream value.
    Shared(Rc<RefCell<Cursor>>),
}

impl Cursor {
    pub fn materialized(tuples: Vec<Value>) -> Cursor {
        Cursor::Mat(tuples.into())
    }

    pub fn heap_scan(heap: Rc<HeapFile>) -> Cursor {
        let pages = heap.pages();
        Scan::over(Pages::Heap {
            heap,
            pages,
            next: 0,
        })
    }

    pub fn btree_range(handle: Rc<BTreeHandle>, lo: KeyBytes, hi: KeyBytes) -> Cursor {
        Scan::over(Pages::BTree {
            handle,
            lo,
            hi,
            next_page: None,
            primed: false,
            done: false,
        })
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

    /// A filter step. A predicate that needs no context and reads its
    /// tuple only through field loads is pushed into a scan source
    /// beneath it: the scan then tests it on records read in place and
    /// decodes only the records that pass.
    pub fn filter(input: Cursor, pred: Rc<Closure>) -> Cursor {
        match input {
            Cursor::Scan(mut scan)
                if pred.program().reads_fields_only() && scan.at_page_boundary() =>
            {
                scan.preds.push(pred);
                Cursor::Scan(scan)
            }
            input => Cursor::Filter {
                input: Box::new(input),
                pred,
            },
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
    /// Sources read a whole page per refill ([`Cursor::scan_into`]);
    /// `Filter`, `Project` and `Replace` run their closures' programs
    /// over the whole batch, in one register frame.
    ///
    /// The first error in row order surfaces, with one documented
    /// exception: `Project` evaluates column-wise (each function over
    /// the whole batch), so when several projection functions fail
    /// within one batch the error surfaced is the first in (function,
    /// row) order rather than (row, function) order. `Replace` likewise
    /// runs its function over the whole batch before it rebuilds the
    /// tuples, so a function error anywhere in the batch wins over a
    /// tuple too short for the replaced attribute.
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
            Cursor::Mat(_) | Cursor::Scan(_) => {
                let res = self.scan_into(n, out);
                if let Cursor::Scan(scan) = self {
                    let decoded = std::mem::take(&mut scan.ahead.decoded);
                    ctx.engine.stats.record_decoded(decoded);
                }
                res?;
            }
            Cursor::Filter { input, pred } => {
                let mut scratch = Vec::with_capacity(n.min(4096));
                loop {
                    scratch.clear();
                    if input.next_batch_into(ctx, n, &mut scratch)? == 0 {
                        break;
                    }
                    // The whole batch through the program (columnar
                    // when the predicate is int/bool throughout), then
                    // push by mask.
                    let mask = pred.eval_mask(Some(&mut *ctx), &scratch, "filter")?;
                    for (t, keep) in scratch.drain(..).zip(mask) {
                        if keep {
                            out.push(t);
                        }
                    }
                    if out.len() > start {
                        break;
                    }
                }
            }
            Cursor::Project { input, funs } => {
                let mut batch = Vec::with_capacity(n.min(4096));
                if input.next_batch_into(ctx, n, &mut batch)? > 0 {
                    let mut cols = Vec::with_capacity(funs.len());
                    for f in funs.iter() {
                        cols.push(f.eval_column(Some(&mut *ctx), &batch)?.into_iter());
                    }
                    for _ in 0..batch.len() {
                        out.push(Value::tuple(
                            cols.iter_mut()
                                .map(|it| it.next().expect("column length matches batch"))
                                .collect(),
                        ));
                    }
                }
            }
            Cursor::Replace { input, field, fun } => {
                let mut batch = Vec::with_capacity(n.min(4096));
                if input.next_batch_into(ctx, n, &mut batch)? > 0 {
                    let vals = fun.eval_column(Some(&mut *ctx), &batch)?;
                    for (t, v) in batch.iter().zip(vals) {
                        let mut fields = t.as_tuple("replace")?.to_vec();
                        let slot = fields.get_mut(field.0);
                        *slot.ok_or_else(|| crate::handles::too_short(&field.1))? = v;
                        out.push(Value::tuple(fields));
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
                c.borrow_mut().next_batch_into(ctx, n, out)?;
            }
            // One outer tuple per refill of the inner buffer, so a
            // `head` above stops the outer scan as early as it can. The
            // inner batches drained by this call are recorded once,
            // before it returns, so a consumer that stops early still
            // sees them.
            Cursor::SearchJoin {
                outer,
                fun,
                current_outer,
                inner,
            } => {
                let (mut inner_batches, mut inner_rows) = (0, 0);
                while out.len() < target {
                    if let Some(i) = inner.pop_front() {
                        let o = current_outer.as_ref().expect("outer set with inner");
                        out.push(crate::ops::relational::concat_tuples(o, &i, "search_join")?);
                        continue;
                    }
                    let Some(o) = outer.next(ctx)? else {
                        break;
                    };
                    let produced = fun.apply(Some(&mut *ctx), std::slice::from_ref(&o))?;
                    let tuples = match produced {
                        Value::Cursor(c) => {
                            let (tuples, batches) = c.borrow_mut().drain_unrecorded(ctx)?;
                            inner_batches += batches;
                            inner_rows += tuples.len() as u64;
                            tuples
                        }
                        other => materialize(ctx, other)?,
                    };
                    *inner = tuples.into();
                    *current_outer = Some(o);
                }
                ctx.engine
                    .stats
                    .record_batches("search_join", inner_batches, inner_rows);
            }
        }
        Ok(out.len() - start)
    }

    /// The source half of the kernel: append up to `n` tuples of a scan
    /// source (`Mat` or `Scan`) to `out`, a whole page per refill. A scan
    /// does what a `filter` chain over it does at width `n`: it takes
    /// chunks of `n` records until one has survivors
    /// ([`Scan::next_chunk`]) and appends those, decoded; without pushed
    /// predicates every chunk is all survivors. Sources read storage
    /// only, so callers without an evaluation context
    /// ([`Cursor::scan_all`]) pull them here directly.
    pub(crate) fn scan_into(&mut self, n: usize, out: &mut Vec<Value>) -> ExecResult<usize> {
        let start = out.len();
        match self {
            Cursor::Mat(buf) => {
                let take = n.min(buf.len());
                out.extend(buf.drain(..take));
            }
            Cursor::Scan(scan) => {
                while let (1.., 0) = scan.next_chunk(n.max(1), Sink::Decode(out))? {}
            }
            other => {
                return Err(ExecError::Other(format!("{other:?} is not a scan source")));
            }
        }
        Ok(out.len() - start)
    }

    /// Fold a scan source straight from its records, decoding none of
    /// them, and record the batches a drain at the engine's width would
    /// have delivered under the fold's operator. `Ok(false)`, with the
    /// cursor untouched, for any other cursor (and for a scan that has
    /// read records ahead of its consumer, so rows fold in scan order).
    pub(crate) fn fold_in_place(&mut self, ctx: &EvalCtx, fold: &mut Fold) -> ExecResult<bool> {
        let Cursor::Scan(scan) = self else {
            return Ok(false);
        };
        if !scan.at_page_boundary() {
            return Ok(false);
        }
        let before = fold.rows();
        let batches = scan.fold(ctx.engine.batch_size(), fold)?;
        let rows = fold.rows() - before;
        ctx.engine.stats.record_batches(fold.op(), batches, rows);
        Ok(true)
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
        let (out, batches) = self.drain_unrecorded(ctx)?;
        ctx.engine
            .stats
            .record_batches(op, batches, out.len() as u64);
        Ok(out)
    }

    /// Drain the remaining tuples at the engine's width, returning them
    /// and the number of batches, and record nothing.
    fn drain_unrecorded(&mut self, ctx: &mut EvalCtx) -> ExecResult<(Vec<Value>, u64)> {
        // Batches land in the result directly: no per-batch buffer to
        // copy out of, unlike the folding consumers of `for_each_batch`.
        let width = ctx.engine.batch_size();
        let mut out = Vec::new();
        let mut batches = 0u64;
        while self.next_batch_into(ctx, width, &mut out)? > 0 {
            batches += 1;
        }
        Ok((out, batches))
    }
}

impl std::fmt::Debug for Cursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Cursor::Mat(b) => return write!(f, "cursor[mat, {} buffered]", b.len()),
            Cursor::Scan(scan) => {
                let kind = match scan.pages {
                    Pages::Heap { .. } => "heap-scan",
                    Pages::BTree { .. } => "btree-range",
                };
                return match scan.preds.len() {
                    0 => write!(f, "cursor[{kind}]"),
                    n => write!(f, "cursor[{kind}, {n} pushed filter(s)]"),
                };
            }
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

/// A scan source: where its pages come from, the compiled predicates of
/// the `filter` steps pushed into it, and the records read but not yet
/// delivered.
pub struct Scan {
    pages: Pages,
    /// Tested in order on records read in place; a record is decoded
    /// only if every predicate keeps it.
    preds: Vec<Rc<Closure>>,
    ahead: ReadAhead,
}

/// Records read but not yet taken in a chunk, by position in the scan:
/// what the predicates made of them is held until the chunk each
/// belongs to is taken.
#[derive(Default)]
struct ReadAhead {
    /// Records taken so far, and records read so far.
    taken: u64,
    read: u64,
    /// Positions of the records every predicate kept, in order.
    kept: VecDeque<u64>,
    /// Their decoded tuples (the decoding sink only).
    tuples: VecDeque<Value>,
    /// `(position, predicate, error)` of each failed test.
    failed: Vec<(u64, usize, ExecError)>,
    /// Records decoded into tuples since the engine's counter last took
    /// them.
    decoded: u64,
}

/// Where a scan's pages come from.
enum Pages {
    Heap {
        heap: Rc<HeapFile>,
        pages: Vec<PageId>,
        next: usize,
    },
    /// Leaf-chain walk of a clustered B-tree over `[lo, hi]`.
    BTree {
        handle: Rc<BTreeHandle>,
        lo: KeyBytes,
        hi: KeyBytes,
        next_page: Option<PageId>,
        primed: bool,
        done: bool,
    },
}

/// The records of one page, borrowed from the pinned frame.
type Records<'r, 'a> = &'r mut dyn Iterator<Item = StorageResult<&'a [u8]>>;

impl Pages {
    /// Read the next page under one fetch and read borrow and hand `f`
    /// its records in scan order (for a B-tree range, only the entries
    /// within `[lo, hi]`). `Ok(false)` once no page is left.
    fn next_page(&mut self, f: impl FnOnce(Records<'_, '_>) -> ExecResult<()>) -> ExecResult<bool> {
        match self {
            Pages::Heap { heap, pages, next } => {
                let Some(&page) = pages.get(*next) else {
                    return Ok(false);
                };
                *next += 1;
                heap.visit_page(page, |mut records| f(&mut records))?;
            }
            Pages::BTree {
                handle,
                lo,
                hi,
                next_page,
                primed,
                done,
            } => {
                if *done {
                    return Ok(false);
                }
                let pid = if !*primed {
                    *primed = true;
                    handle.tree.find_leaf(lo)?
                } else {
                    match *next_page {
                        Some(p) => p,
                        None => {
                            *done = true;
                            return Ok(false);
                        }
                    }
                };
                let mut past_hi = false;
                let ((), next) = handle.tree.visit_leaf(pid, |entries| {
                    let mut in_range = entries.filter_map(|e| match e {
                        Err(e) => Some(Err(e)),
                        Ok((k, _)) if past_hi || k < lo.as_slice() => None,
                        Ok((k, _)) if k > hi.as_slice() => {
                            past_hi = true;
                            None
                        }
                        Ok((_, record)) => Some(Ok(record)),
                    });
                    f(&mut in_range)
                })?;
                *next_page = next;
                // `done` stops further page reads; records already read
                // still drain.
                if past_hi || next.is_none() {
                    *done = true;
                }
            }
        }
        Ok(true)
    }
}

impl Scan {
    fn over(pages: Pages) -> Cursor {
        Cursor::Scan(Scan {
            pages,
            preds: Vec::new(),
            ahead: ReadAhead::default(),
        })
    }

    /// Whether nothing has been read ahead of the consumer, so a filter
    /// or a fold may take over the records from here on.
    fn at_page_boundary(&self) -> bool {
        self.ahead.read == self.ahead.taken
    }

    /// Fold every remaining record in place, chunk by chunk at `width`;
    /// returns the number of chunks that had survivors (the batches a
    /// drain at that width delivers).
    fn fold(&mut self, width: usize, fold: &mut Fold) -> ExecResult<u64> {
        let mut batches = 0;
        loop {
            match self.next_chunk(width, Sink::Fold(fold))? {
                (0, _) => return Ok(batches),
                (_, 0) => {}
                _ => batches += 1,
            }
        }
    }

    /// Take the next `n` records of the scan (fewer at its end) as one
    /// chunk and deliver those every pushed predicate keeps to `sink`;
    /// returns how many records were taken (0 once exhausted) and how
    /// many were kept.
    ///
    /// This is the unit of work of a `filter` chain at width `n`: pages
    /// are read until `n` records are at hand, then each predicate runs
    /// over the chunk's survivors of the ones before it, and the first
    /// error (lowest predicate, then lowest row) fails the chunk. The
    /// predicates run while a page is borrowed, on all its records
    /// ([`read_page`]), but what they found is only acted on once the
    /// record's chunk is taken, so the same error surfaces, at the same
    /// point, as in the chain over the decoding scan.
    fn next_chunk(&mut self, n: usize, mut sink: Sink<'_>) -> ExecResult<(usize, usize)> {
        let Scan {
            pages,
            preds,
            ahead,
        } = self;
        while ahead.read - ahead.taken < n as u64 {
            let more = pages.next_page(|records| read_page(records, preds, ahead, &mut sink))?;
            if !more {
                break;
            }
        }
        let end = ahead.read.min(ahead.taken.saturating_add(n as u64));
        let failed = (ahead.failed.iter().enumerate())
            .filter(|(_, (pos, _, _))| *pos < end)
            .min_by_key(|(_, (pos, pred, _))| (*pred, *pos));
        if let Some((i, _)) = failed {
            return Err(ahead.failed.swap_remove(i).2);
        }
        let mut kept = 0;
        while ahead.kept.front().is_some_and(|&pos| pos < end) {
            ahead.kept.pop_front();
            kept += 1;
            let Some(t) = ahead.tuples.pop_front() else {
                continue;
            };
            match &mut sink {
                Sink::Decode(out) => out.push(t),
                Sink::Fold(fold) => fold.push(&t),
            }
        }
        let taken = (end - ahead.taken) as usize;
        ahead.taken = end;
        Ok((taken, kept))
    }
}

/// Where the records a scan keeps go.
enum Sink<'s> {
    /// Decoded tuples, appended.
    Decode(&'s mut Vec<Value>),
    /// Folded in place, never decoded.
    Fold(&'s mut Fold),
}

/// Read one borrowed page in place: check every record (a malformed one
/// fails the scan here, before any predicate runs on the page, as it
/// fails a decoding scan), run the predicates over the page, each on
/// the records the ones before it kept, and note what they found in
/// `ahead`. A kept record is decoded or folded now, while its bytes are
/// at hand. With no predicate to run, a decoding scan decodes each
/// record straight away (the decode checks it as it goes).
fn read_page(
    records: Records<'_, '_>,
    preds: &[Rc<Closure>],
    ahead: &mut ReadAhead,
    sink: &mut Sink<'_>,
) -> ExecResult<()> {
    if let (Sink::Decode(_), []) = (&sink, preds) {
        for r in records {
            ahead.tuples.push_back(Value::decode_tuple(r?)?);
            ahead.kept.push_back(ahead.read);
            ahead.read += 1;
            ahead.decoded += 1;
        }
        return Ok(());
    }
    let mut views = Vec::with_capacity(records.size_hint().1.unwrap_or(0));
    for r in records {
        views.push(RecordView::new(r?)?);
    }
    let base = ahead.read;
    ahead.read += views.len() as u64;
    let mut live: Vec<usize> = (0..views.len()).collect();
    let mut failed = Vec::new();
    for (k, pred) in preds.iter().enumerate() {
        let mask = if live.len() == views.len() {
            pred.eval_each(&views, "filter", &mut failed)
        } else {
            let rows: Vec<RecordView<'_>> = live.iter().map(|&i| views[i]).collect();
            pred.eval_each(&rows, "filter", &mut failed)
        };
        for (j, e) in failed.drain(..) {
            ahead.failed.push((base + live[j] as u64, k, e));
        }
        let mut keep = mask.into_iter();
        live.retain(|_| keep.next().unwrap_or(false));
    }
    for i in live {
        ahead.kept.push_back(base + i as u64);
        match sink {
            Sink::Decode(_) => {
                ahead.decoded += 1;
                ahead.tuples.push_back(views[i].value());
            }
            Sink::Fold(fold) => fold.push(&views[i]),
        }
    }
    Ok(())
}

/// Turn any stream-like value into its tuples, draining cursors
/// ([`Cursor::drain`]).
pub fn materialize(ctx: &mut EvalCtx, v: Value) -> ExecResult<Vec<Value>> {
    match v {
        Value::Stream(ts) | Value::Rel(ts) => Ok(ts),
        Value::Cursor(c) => c.borrow_mut().drain(ctx),
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
            match Rc::try_unwrap(c) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecEngine;
    use sos_catalog::Catalog;
    use std::collections::HashMap;

    #[test]
    fn only_a_scan_with_nothing_read_ahead_folds_in_place() {
        // A consumer that pulled one tuple left the rest of the page
        // read ahead; folding it in place would fold the next page
        // before those rows, so it drains instead, in scan order.
        let engine = ExecEngine::new(sos_storage::mem_pool(64));
        let heap = Rc::new(HeapFile::create(engine.pool.clone()).unwrap());
        for i in 0..50 {
            let t = Value::tuple(vec![Value::Int(i)]);
            heap.insert(&t.encode_tuple("t").unwrap()).unwrap();
        }
        let (mut store, mut cat) = (HashMap::new(), Catalog::new());
        let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);

        let mut fresh = Cursor::heap_scan(heap.clone());
        let mut fold = Fold::count();
        assert!(fresh.fold_in_place(&ctx, &mut fold).unwrap());
        assert_eq!(fold.rows(), 50);

        let mut pulled = Cursor::heap_scan(heap);
        assert_eq!(
            pulled.next(&mut ctx).unwrap(),
            Some(Value::tuple(vec![Value::Int(0)]))
        );
        let mut fold = Fold::count();
        assert!(!pulled.fold_in_place(&ctx, &mut fold).unwrap());
        let rest = pulled.drain(&mut ctx).unwrap();
        assert_eq!(rest.first(), Some(&Value::tuple(vec![Value::Int(1)])));
        assert_eq!(rest.len(), 49);
    }
}
