//! Unit tests for the pipelined cursor machinery: shared-cursor
//! linearity, boundary conditions, and page-touch accounting.

use sos_catalog::Catalog;
use sos_core::{sym, DataType};
use sos_exec::stream::{into_cursor, materialize, Cursor};
use sos_exec::{EvalCtx, ExecEngine, Value};
use sos_storage::PageId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

fn engine_with_heap(n: usize) -> (ExecEngine, Rc<sos_storage::heap::HeapFile>) {
    let engine = ExecEngine::new(sos_storage::mem_pool(256));
    let heap = Rc::new(sos_storage::heap::HeapFile::create(engine.pool.clone()).unwrap());
    for i in 0..n {
        let t = Value::tuple(vec![Value::Int(i as i64)]);
        heap.insert(&t.encode_tuple("test").unwrap()).unwrap();
    }
    (engine, heap)
}

#[test]
fn heap_cursor_yields_every_tuple_once() {
    let (engine, heap) = engine_with_heap(500);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let mut c = Cursor::heap_scan(heap);
    let mut seen = Vec::new();
    while let Some(t) = c.next(&mut ctx).unwrap() {
        seen.push(t);
    }
    assert_eq!(seen.len(), 500);
    // Exhausted cursors stay exhausted.
    assert!(c.next(&mut ctx).unwrap().is_none());
}

#[test]
fn shared_cursors_are_linear() {
    // Two clones of one stream value drain from the same cursor: tuples
    // are delivered exactly once across both.
    let (engine, heap) = engine_with_heap(100);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let v = Value::Cursor(Rc::new(RefCell::new(Cursor::heap_scan(heap))));
    let v2 = v.clone();
    let first_half = {
        let mut c = into_cursor(v).unwrap();
        let mut out = Vec::new();
        for _ in 0..60 {
            out.push(c.next(&mut ctx).unwrap().unwrap());
        }
        out
    };
    let rest = materialize(&mut ctx, v2).unwrap();
    assert_eq!(first_half.len() + rest.len(), 100);
}

#[test]
fn head_zero_and_oversized() {
    let (engine, heap) = engine_with_heap(10);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let mut zero = Cursor::Head {
        input: Box::new(Cursor::heap_scan(heap.clone())),
        remaining: 0,
    };
    assert!(zero.next(&mut ctx).unwrap().is_none());
    let mut big = Cursor::Head {
        input: Box::new(Cursor::heap_scan(heap)),
        remaining: 1_000_000,
    };
    assert_eq!(big.drain(&mut ctx).unwrap().len(), 10);
}

#[test]
fn materialize_accepts_all_stream_shapes() {
    let engine = ExecEngine::new(sos_storage::mem_pool(8));
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let ts = vec![Value::Int(1), Value::Int(2)];
    assert_eq!(
        materialize(&mut ctx, Value::Stream(ts.clone())).unwrap(),
        ts
    );
    assert_eq!(materialize(&mut ctx, Value::Rel(ts.clone())).unwrap(), ts);
    assert_eq!(materialize(&mut ctx, Value::Undefined).unwrap(), vec![]);
    assert!(materialize(&mut ctx, Value::Int(1)).is_err());
    let _ = sym("x");
    let _ = DataType::atom("int");
}

#[test]
fn head_batch_arm_is_exact_when_limit_falls_mid_batch() {
    // Regression guard for the vectorized `Head` arm: when the limit
    // falls inside a batch, the cursor must clamp the pull to the
    // remaining budget (never over-pull from the input) and report
    // exhaustion exactly at the limit — across widths that land before,
    // on, and past the boundary.
    let (engine, heap) = engine_with_heap(100);
    for width in [1usize, 3, 5, 7, 64] {
        let mut store = HashMap::new();
        let mut cat = Catalog::new();
        let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
        let mut head = Cursor::Head {
            input: Box::new(Cursor::heap_scan(heap.clone())),
            remaining: 5,
        };
        let mut out = Vec::new();
        let mut pulls = Vec::new();
        loop {
            let got = head.next_batch_into(&mut ctx, width, &mut out).unwrap();
            if got == 0 {
                break;
            }
            pulls.push(got);
        }
        assert_eq!(out.len(), 5, "width {width} over- or under-delivered");
        assert!(
            pulls.iter().all(|&g| g <= width.max(1)),
            "width {width} pulls {pulls:?}"
        );
        // The Head cursor left the un-consumed remainder in the input:
        // a fresh scan of the same heap still sees all 100 tuples, and
        // the head itself stays exhausted.
        assert_eq!(head.next_batch_into(&mut ctx, width, &mut out).unwrap(), 0);
        assert!(head.next(&mut ctx).unwrap().is_none());
    }
}

#[test]
fn next_is_the_batch_kernel_at_width_one() {
    // `next` has no arms of its own: interleaving it with batch pulls of
    // a width that never divides a page's tuple count must hand out
    // every tuple exactly once, in scan order, through the page spill.
    let (engine, heap) = engine_with_heap(500);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let mut c = Cursor::heap_scan(heap);
    let mut seen = Vec::new();
    loop {
        match c.next(&mut ctx).unwrap() {
            Some(t) => seen.push(t),
            None => break,
        }
        c.next_batch_into(&mut ctx, 7, &mut seen).unwrap();
    }
    let expected: Vec<Value> = (0..500)
        .map(|i| Value::tuple(vec![Value::Int(i)]))
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(c.next_batch_into(&mut ctx, 7, &mut seen).unwrap(), 0);
}

#[test]
fn feed_value_drains_the_same_scan_sources_the_pipeline_pulls() {
    let (engine, heap) = engine_with_heap(300);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let fed = sos_exec::ops::streams::feed_value(&Value::TidRel(heap.clone())).unwrap();
    let pulled = Cursor::heap_scan(heap).drain(&mut ctx).unwrap();
    assert_eq!(fed.len(), 300);
    assert_eq!(fed, pulled);
    assert!(sos_exec::ops::streams::feed_value(&Value::Int(1)).is_err());
}

/// `filter` takes its input out of the owned argument list: the uniquely
/// held `feed` pipeline over a heap is moved into the filter, not wrapped
/// in `Cursor::Shared` (which takes a mutex on every batch). A compiled
/// predicate is pushed into the moved heap scan itself; an interpreted
/// one wraps it.
#[test]
fn filter_moves_a_uniquely_held_input_pipeline() {
    use sos_core::typed::{TypedExpr, TypedNode};
    use sos_core::{Const, Symbol};
    let sig = sos_system::builtin::builtin_signature();
    let (mut engine, heap) = engine_with_heap(100);
    engine.bind_signature(&sig);
    let apply = |op: &str, args: Vec<TypedExpr>| {
        let op = Symbol::new(op);
        let spec = sig.candidates(&op)[0];
        TypedExpr::new(TypedNode::Apply { op, spec, args }, DataType::atom("bool"))
    };
    let tuple = DataType::tuple(vec![(sym("k"), DataType::atom("int"))]);
    let pred = TypedExpr::new(
        TypedNode::Lambda {
            params: Arc::from(vec![(sym("t"), tuple.clone())]),
            body: Arc::new(TypedExpr::new(
                TypedNode::Const(Const::Bool(true)),
                DataType::atom("bool"),
            )),
        },
        DataType::Fun(vec![tuple], Box::new(DataType::atom("bool"))),
    );
    let feed = apply(
        "feed",
        vec![TypedExpr::new(
            TypedNode::Object(sym("h")),
            DataType::atom("bool"),
        )],
    );
    let filter = apply("filter", vec![feed, pred]);

    let mut store = HashMap::new();
    store.insert(sym("h"), Value::TidRel(heap));
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let Value::Cursor(c) = ctx.eval(&filter).unwrap() else {
        panic!("feed filter over a heap is a pipelined cursor");
    };
    assert_eq!(
        format!("{:?}", c.borrow()),
        "cursor[heap-scan, 1 pushed filter(s)]"
    );

    engine.set_compile_exprs(false);
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let Value::Cursor(c) = ctx.eval(&filter).unwrap() else {
        panic!("feed filter over a heap is a pipelined cursor");
    };
    let Cursor::Filter { input, .. } = &*c.borrow() else {
        panic!("expected a filter cursor");
    };
    assert_eq!(format!("{input:?}"), "cursor[heap-scan]");
}

#[test]
fn empty_heap_drains_nothing() {
    let (engine, heap) = engine_with_heap(0);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    assert!(Cursor::heap_scan(heap).drain(&mut ctx).unwrap().is_empty());
}

#[test]
fn single_page_heap_drains_in_insertion_order() {
    let (engine, heap) = engine_with_heap(5);
    assert_eq!(heap.pages().len(), 1);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&engine, &mut store, &mut cat);
    let keys: Vec<Value> = (0..5).map(|i| Value::tuple(vec![Value::Int(i)])).collect();
    assert_eq!(Cursor::heap_scan(heap).drain(&mut ctx).unwrap(), keys);
}

/// Drain a heap scan over `pages`, which `pool` only partly holds, and
/// return the page its read error names.
fn failed_page(
    engine: &ExecEngine,
    pool: Arc<sos_storage::BufferPool>,
    pages: Vec<PageId>,
) -> PageId {
    let heap = sos_storage::heap::HeapFile::from_pages(pool, pages);
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(engine, &mut store, &mut cat);
    match Cursor::heap_scan(Rc::new(heap)).drain(&mut ctx) {
        Err(sos_exec::ExecError::Storage(sos_storage::StorageError::PageOutOfBounds(pid))) => pid,
        other => panic!("expected a page read error, got {other:?}"),
    }
}

/// A page read that fails surfaces as a typed storage error, not as a
/// panic.
#[test]
fn a_failed_page_read_is_a_typed_storage_error() {
    let (engine, heap) = engine_with_heap(2000);
    assert!(heap.pages().len() > 1, "need a multi-page heap");
    // The same pages behind a pool whose disk never held them.
    let lost = failed_page(&engine, sos_storage::mem_pool(2), heap.pages());
    assert_eq!(lost, heap.pages()[0]);
}

/// Of several unreadable pages, the error names the first in scan
/// order, not the lowest page id.
#[test]
fn the_first_failed_page_in_scan_order_is_reported() {
    let (engine, heap) = engine_with_heap(5);
    let mut pages = heap.pages();
    pages.extend([900, 700]);
    assert_eq!(failed_page(&engine, engine.pool.clone(), pages), 900);
}
