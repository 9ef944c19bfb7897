//! Pipelined stream execution (Section 4: streams are processed "in a
//! pipelined fashion"): early-terminating consumers touch only the
//! pages they need, and pipelined plans never materialize intermediate
//! streams.

use sos_exec::Value;
use sos_system::Database;

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

fn big_db(n: usize) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (pad, string)>);
        create items_rep : btree(item, k, int);
        create heap_rep : tidrel(item);
    "#,
    )
    .unwrap();
    db.run(WHOLE_DDL).unwrap();
    let tuples: Vec<Value> = (0..n)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Str(format!("{:0200}", i)), // ~35 tuples per page
            ])
        })
        .collect();
    db.bulk_insert("items_rep", tuples.clone()).unwrap();
    db.bulk_insert("heap_rep", tuples).unwrap();
    db
}

#[test]
fn head_terminates_the_scan_early() {
    let mut db = big_db(20_000);
    // Full scan cost, for reference.
    db.reset_metrics();
    db.query("items_rep feed count").unwrap();
    let full = db.metrics().pool.logical_reads;

    db.reset_metrics();
    let v = db.query("items_rep feed head[5] count").unwrap();
    let early = db.metrics().pool.logical_reads;
    assert_eq!(as_count(&v), 5);
    assert!(
        early * 20 < full,
        "head[5] must stop the scan: {early} vs full {full} page touches"
    );
}

#[test]
fn filter_head_pipelines_through_the_heap() {
    let mut db = big_db(20_000);
    db.reset_metrics();
    let v = db
        .query("heap_rep feed filter[k mod 2 = 0] head[10] count")
        .unwrap();
    let early = db.metrics().pool.logical_reads;
    assert_eq!(as_count(&v), 10);
    db.reset_metrics();
    db.query("heap_rep feed count").unwrap();
    let full = db.metrics().pool.logical_reads;
    assert!(
        early * 20 < full,
        "filter|head must stop the scan: {early} vs {full}"
    );
}

#[test]
fn range_head_reads_only_the_needed_leaves() {
    let mut db = big_db(20_000);
    db.reset_metrics();
    let v = db
        .query("items_rep range_from[10000] head[3] count")
        .unwrap();
    let reads = db.metrics().pool.logical_reads;
    assert_eq!(as_count(&v), 3);
    // Descent (height ~3) + one leaf.
    assert!(reads <= 10, "range_from + head[3] touched {reads} pages");
}

#[test]
fn pipelined_results_match_materialized_semantics() {
    let mut db = big_db(2_000);
    // Every pipelined chain agrees with its drained form.
    let a = as_count(&db.query("items_rep feed filter[k < 100] count").unwrap());
    assert_eq!(a, 100);
    let b = as_count(
        &db.query("items_rep feed filter[k < 100] collect feed count")
            .unwrap(),
    );
    assert_eq!(b, 100);
    // head beyond the stream length drains everything exactly once.
    let c = as_count(&db.query("items_rep feed head[99999] count").unwrap());
    assert_eq!(c, 2000);
    // Query results at the statement boundary are materialized streams.
    let v = db.query("items_rep feed head[3]").unwrap();
    assert!(matches!(v, Value::Stream(ref ts) if ts.len() == 3), "{v:?}");
}

#[test]
fn search_join_inner_pipelines_per_probe() {
    // The inner function of a search_join produces a fresh pipelined
    // range per outer tuple; correctness must be unaffected.
    let mut db = big_db(1_000);
    db.run(
        r#"
        type probe = tuple(<(pk, int), (plabel, string)>);
        create probes : btree(probe, pk, int);
    "#,
    )
    .unwrap();
    let probes: Vec<Value> = (0..1000)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("p{i}"))]))
        .collect();
    db.bulk_insert("probes", probes).unwrap();
    let v = db
        .query(
            "items_rep range[0, 9] \
             (fun (o: item) probes exactmatch[5] filter[fun (p: probe) p pk = o k]) \
             search_join count",
        )
        .unwrap();
    assert_eq!(as_count(&v), 1); // only outer k = 5 matches probe 5
}

#[test]
fn search_join_head_early_terminates() {
    // join ... head[k]: the pipelined search join stops probing after k
    // result tuples.
    let mut db = big_db(10_000);
    db.run(
        r#"
        type probe = tuple(<(pk, int), (plabel, string)>);
        create probes : btree(probe, pk, int);
    "#,
    )
    .unwrap();
    let probes: Vec<Value> = (0..10_000)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("p{i}"))]))
        .collect();
    db.bulk_insert("probes", probes).unwrap();

    db.reset_metrics();
    let v = db
        .query(
            "items_rep feed \
             (fun (o: item) probes range[0, 0]) \
             search_join head[4] count",
        )
        .unwrap();
    let early = db.metrics().pool.logical_reads;
    assert_eq!(as_count(&v), 4);
    db.reset_metrics();
    db.query("items_rep feed count").unwrap();
    let full_outer_scan = db.metrics().pool.logical_reads;
    assert!(
        early < full_outer_scan / 5,
        "pipelined join+head should stop early: {early} vs outer scan {full_outer_scan}"
    );
}

/// EXPLAIN ANALYZE reports the inner batches a `search_join` drained
/// even when the consumer stops early: under `head[4]` over a unique
/// key, four probes of one row each.
#[test]
fn search_join_under_head_records_its_inner_batches() {
    let mut db = big_db(50);
    db.run(
        r#"
        type probe = tuple(<(pk, int), (plabel, string)>);
        create probes : btree(probe, pk, int);
    "#,
    )
    .unwrap();
    let probes: Vec<Value> = (0..50)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("p{i}"))]))
        .collect();
    db.bulk_insert("probes", probes).unwrap();
    let join = "heap_rep feed (fun (t: item) probes exactmatch[t k]) search_join";
    for (q, probes) in [
        (format!("{join} head[4] count"), 4),
        (format!("{join} count"), 50),
    ] {
        let report = db.explain_analyze(&q).unwrap();
        let ops = &report.analysis.expect("analyze ran the plan").ops;
        let (_, sj) = ops
            .iter()
            .find(|(n, _)| n == "search_join")
            .unwrap_or_else(|| panic!("no search_join entry for `{q}`: {ops:?}"));
        assert_eq!((sj.batches, sj.batched_rows), (probes, probes), "`{q}`");
    }
}

#[test]
fn project_replace_pipelines() {
    let mut db = big_db(20_000);
    db.reset_metrics();
    let v = db
        .query("items_rep feed project[(k2, fun (t: item) t k * 2)] head[5] count")
        .unwrap();
    let early = db.metrics().pool.logical_reads;
    assert_eq!(as_count(&v), 5);
    assert!(early < 40, "project|head touched {early} pages");

    db.reset_metrics();
    let v2 = db
        .query("items_rep feed replace[k, fun (t: item) t k + 1] head[5] count")
        .unwrap();
    assert_eq!(as_count(&v2), 5);
    assert!(db.metrics().pool.logical_reads < 40);
}

/// Self-referential updates see a snapshot, not their own effects:
/// `stream_insert(x, x feed)` exactly doubles the relation.
#[test]
fn self_referential_stream_insert_uses_a_snapshot() {
    let mut db = big_db(500);
    db.run("update heap_rep := stream_insert(heap_rep, heap_rep feed);")
        .unwrap();
    assert_eq!(as_count(&db.query("heap_rep feed count").unwrap()), 1000);
    // And on the B-tree (splits during insertion must not disturb the
    // already-drained snapshot).
    db.run("update items_rep := stream_insert(items_rep, items_rep range[0, 99]);")
        .unwrap();
    assert_eq!(
        as_count(&db.query("items_rep range[0, 99] count").unwrap()),
        200
    );
}

// ---------------------------------------------------------------------
// Seams of the single pipeline kernel: one arm per step at every width
// and evaluation tier.
// ---------------------------------------------------------------------

const WIDTHS: &[usize] = &[1, 7, 1024];

/// A function object that keeps every `item`. A filter on `whole(t)`
/// hands the function the whole tuple, so it is never pushed into a
/// scan: put first over a source, it keeps every step after it on
/// decoded tuples.
const WHOLE_DDL: &str = r#"
    create whole : (item -> bool);
    update whole := fun (u: item) true;
"#;

/// `q` with a `whole(t)` filter right after its source (the first
/// `feed`, or else the first `[...]` argument list): the same result,
/// on the decoding path.
fn decoding(q: &str) -> String {
    let at = match q.find(" feed") {
        Some(i) => i + " feed".len(),
        None => q.find(']').expect("a source with arguments") + 1,
    };
    format!("{} filter[fun (t: item) whole(t)]{}", &q[..at], &q[at..])
}

#[test]
fn first_error_is_identical_at_every_width_and_tier() {
    // k = 1234 is the only failing row and sits mid-page (page 35 of
    // ~86), so batches straddle it at every width.
    let pool = sos_storage::mem_pool(4096);
    let mut db = Database::builder().pool(pool.clone()).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (pad, string)>);
        create heap_rep : tidrel(item);
    "#,
    )
    .unwrap();
    db.run(WHOLE_DDL).unwrap();
    let tuples: Vec<Value> = (0..3000)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("{:0200}", i))]))
        .collect();
    db.bulk_insert("heap_rep", tuples).unwrap();
    let zero = "division by zero";
    let cases = [
        ("heap_rep feed filter[100 div (k - 1234) > 0] count", zero),
        ("heap_rep feed filter[100 div (k - 1234) > 0] consume", zero),
        (
            "heap_rep feed replace[k, fun (t: item) 100 div (t k - 1234)] consume",
            zero,
        ),
        (
            "heap_rep feed project[(q, fun (t: item) 100 div (t k - 1234))] count",
            zero,
        ),
        // i64::MIN div -1 at k = 1234; every other divisor is below -1.
        (
            "heap_rep feed filter[(0 - 9223372036854775807 - 1) div (0 - 1 - (k - 1234) * (k - 1234)) < 0] count",
            "integer overflow in `div`",
        ),
    ];
    for (q, msg) in cases {
        let mut seen: Option<String> = None;
        for q in [q.to_string(), decoding(q)] {
            for &width in WIDTHS {
                db.set_batch_size(width);
                let err = db.query(&q).expect_err("row k = 1234 fails").to_string();
                assert!(err.contains(msg), "`{q}`: {err}");
                let first = seen.get_or_insert_with(|| err.clone());
                assert_eq!(&err, first, "`{q}` at width={width}");
                // An error aborts the drain without leaking a page pin.
                assert_eq!(pool.pinned_frames(), 0, "`{q}` leaked pins");
            }
        }
    }
}

#[test]
fn search_join_under_head_pulls_one_outer_page_at_every_width() {
    // 1003 outer tuples: no width in play divides it, and head[3] needs
    // only the first three of them — one outer page plus three probes.
    let mut db = big_db(1003);
    db.run(
        r#"
        type probe = tuple(<(pk, int), (plabel, string)>);
        create probes : btree(probe, pk, int);
    "#,
    )
    .unwrap();
    let probes: Vec<Value> = (0..1003)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("p{i}"))]))
        .collect();
    db.bulk_insert("probes", probes).unwrap();
    let reads = |db: &mut Database, q: &str, expect: i64| {
        db.reset_metrics();
        assert_eq!(as_count(&db.query(q).unwrap()), expect, "`{q}`");
        db.metrics().pool.logical_reads
    };
    db.set_batch_size(1);
    let outer_page = reads(&mut db, "heap_rep feed head[3] count", 3);
    let probe = reads(&mut db, "probes exactmatch[1] count", 1);
    let full_outer = reads(&mut db, "heap_rep feed count", 1003);
    for &width in WIDTHS {
        db.set_batch_size(width);
        let got = reads(
            &mut db,
            "heap_rep feed (fun (o: item) probes exactmatch[o k]) search_join head[3] count",
            3,
        );
        assert!(
            got <= outer_page + 3 * probe,
            "width={width}: {got} page touches, \
             one outer page is {outer_page}, a probe {probe}"
        );
        assert!(got < full_outer, "width={width}");
    }
}

#[test]
fn impure_in_memory_select_stays_serial_in_the_same_order() {
    // A predicate that reads an object returns what the pure form of
    // the same predicate returns, in the same order.
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (tag, string)>);
        create items : rel(item);
        create threshold : int;
        update threshold := 150;
    "#,
    )
    .unwrap();
    let rows: Vec<Value> = (0..300)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("i{i}"))]))
        .collect();
    db.bulk_insert("items", rows.clone()).unwrap();
    db.set_optimizer_enabled(false);
    let pure = db.query("items select[k < 150]").unwrap();
    db.reset_metrics();
    let impure = db.query("items select[k < threshold]").unwrap();
    let select = db.op_stats("select").expect("select ran");
    assert_eq!(
        (select.invocations, select.tuples_in),
        (1, 300),
        "{select:?}"
    );
    assert_eq!(impure, pure);
    assert_eq!(pure, Value::Rel(rows[..150].to_vec()));
}

// ---------------------------------------------------------------------
// Records read in place: pushed-down filters and fused aggregates.
// ---------------------------------------------------------------------

/// A heap of `item`s (`k` = 0..300, 200-byte pads) with one raw record
/// inserted after row 200, straight into the heap file.
fn heap_with_raw_record(pool: &std::sync::Arc<sos_storage::BufferPool>, raw: &[u8]) -> Database {
    let mut db = Database::builder().pool(pool.clone()).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (pad, string)>);
        create heap_rep : tidrel(item);
    "#,
    )
    .unwrap();
    db.run(WHOLE_DDL).unwrap();
    let row = |i: i64| Value::tuple(vec![Value::Int(i), Value::Str(format!("{i:0200}"))]);
    db.bulk_insert("heap_rep", (0..200).map(row).collect())
        .unwrap();
    let Some(Value::TidRel(h)) = db.object_value("heap_rep") else {
        panic!("heap_rep is a tidrel");
    };
    let h = h.clone();
    h.insert(raw).unwrap();
    for i in 200..300 {
        h.insert(&row(i).encode_tuple("test").unwrap()).unwrap();
    }
    db
}

#[test]
fn malformed_records_fail_alike_on_every_path() {
    // Field tags: 1 int, 3 string. Each record claims two fields.
    let unknown_tag: &[u8] = &[2, 0, 200];
    let truncated_int: &[u8] = &[2, 0, 1, 7, 0, 0, 0];
    // k = -1 (every predicate below rejects it), pad = 0xFF 0xFE.
    let mut bad_utf8 = vec![2, 0, 1];
    bad_utf8.extend((-1i64).to_le_bytes());
    bad_utf8.extend([3, 2, 0, 0, 0, 0xFF, 0xFE]);
    for (raw, msg) in [
        (unknown_tag, "unknown field tag 200"),
        (truncated_int, "field needs 8 bytes, 4 left"),
        (&bad_utf8[..], "invalid utf8 in string field"),
    ] {
        let pool = sos_storage::mem_pool(4096);
        let mut db = heap_with_raw_record(&pool, raw);
        for q in [
            "heap_rep feed filter[k >= 0] count",
            "heap_rep feed filter[k >= 0] sum[k]",
            "heap_rep feed filter[k >= 0] consume",
            "heap_rep feed count",
            "heap_rep feed sum[k]",
        ] {
            let mut seen: Option<String> = None;
            for q in [q.to_string(), decoding(q)] {
                for &width in WIDTHS {
                    db.set_batch_size(width);
                    let err = db.query(&q).expect_err(&q).to_string();
                    assert!(err.contains(msg), "`{q}`: {err}");
                    let first = seen.get_or_insert_with(|| err.clone());
                    assert_eq!(&err, first, "`{q}` at width={width}");
                    assert_eq!(pool.pinned_frames(), 0, "`{q}` leaked pins");
                }
            }
        }
    }
}

#[test]
fn a_corrupt_heap_page_fails_a_query_instead_of_panicking() {
    let pool = sos_storage::mem_pool(4096);
    let mut db = heap_with_raw_record(&pool, &[0, 0]);
    let Some(Value::TidRel(h)) = db.object_value("heap_rep") else {
        panic!("heap_rep is a tidrel");
    };
    // Slot 0's length (page header 4 bytes, then offset, length).
    let page = h.pages()[0];
    pool.fetch(page).unwrap().write()[6..8].copy_from_slice(&u16::MAX.to_le_bytes());
    for q in [
        "heap_rep feed count",
        "heap_rep feed filter[k > 3] count",
        "heap_rep feed consume",
    ] {
        let err = db.query(q).expect_err(q).to_string();
        assert!(err.contains("overruns the page"), "`{q}`: {err}");
        assert_eq!(pool.pinned_frames(), 0, "`{q}` leaked a pin");
    }
}

#[test]
fn head_over_a_pushed_filter_reads_what_the_filter_chain_reads() {
    // Behind a `whole(t)` filter the predicate stays a filter step over
    // the decoding scan; alone it is pushed into the scan. Both must
    // touch the same pages at every width, and stop early.
    let mut db = big_db(20_000);
    db.reset_metrics();
    db.query("heap_rep feed count").unwrap();
    let full = db.metrics().pool.logical_reads;
    for q in [
        "heap_rep feed filter[k mod 2 = 0] head[10] count",
        "heap_rep feed filter[k > 100] filter[k mod 3 = 0] head[10] count",
        "items_rep feed filter[k mod 2 = 0] head[10] count",
        "items_rep range_from[10000] filter[k mod 5 = 1] head[3] count",
    ] {
        for &width in WIDTHS {
            db.set_batch_size(width);
            let mut reads = Vec::new();
            for q in [q.to_string(), decoding(q)] {
                db.reset_metrics();
                let n = as_count(&db.query(&q).unwrap());
                assert!(n == 10 || n == 3, "`{q}`: {n}");
                reads.push(db.metrics().pool.logical_reads);
            }
            assert_eq!(reads[0], reads[1], "`{q}` at width={width}");
            assert!(reads[0] * 20 < full, "`{q}`: {reads:?} vs {full}");
        }
    }
}

#[test]
fn a_record_shorter_than_its_schema_fails_an_aggregate_on_every_path() {
    // One stored record with only `k`: aggregating or replacing `pad` is
    // an error on the fused and on the decoding path, never an index
    // past the tuple.
    let mut short = vec![1, 0, 1];
    short.extend(7i64.to_le_bytes());
    let pool = sos_storage::mem_pool(4096);
    let mut db = heap_with_raw_record(&pool, &short);
    for feed in ["heap_rep feed", &decoding("heap_rep feed")] {
        for &width in WIDTHS {
            db.set_batch_size(width);
            let count = format!("{feed} count");
            assert_eq!(db.query(&count).unwrap(), Value::Int(301));
            for q in ["max[pad]", "replace[pad, fun (t: item) \"x\"] count"] {
                let err = db.query(&format!("{feed} {q}")).unwrap_err().to_string();
                assert_eq!(err, "tuple too short for attribute `pad`", "{feed} {q}");
            }
        }
    }
}
