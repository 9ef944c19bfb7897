//! Differential batch-width harness: every query must produce the
//! identical result (same tuples, same order, same errors) whatever
//! width the one cursor pipeline is pulled at — one tuple per call
//! (width 1), vectorized batches, or batches with the parallel
//! operators engaged on top — and that result must equal the expected
//! value computed here, outside the engine.
//!
//! Batch widths 1, 7 and 1024 are exercised deliberately: 1 is
//! tuple-at-a-time, 7 never divides a page's tuple count (so every
//! refill spills a remainder into the cursor buffer — the boundary
//! bugs), and 1024 is the production default.

mod oracle;

use oracle::Expect::{Agree, Int, Len, Rows};
use oracle::{ints, item, replaced, small, Expect};
use sos_exec::Value;
use sos_system::Database;

/// Batch widths exercised against the tuple-at-a-time baseline.
const BATCHES: &[usize] = &[1, 7, 1024];
/// Worker counts layered on top of each batch width.
const WORKERS: &[usize] = &[1, 4];

/// `item(i)` joined with its `probes` row.
fn joined(i: usize) -> Value {
    let mut fields = match item(i) {
        Value::Tuple(fs) => fs.to_vec(),
        other => panic!("{other:?}"),
    };
    fields.extend([Value::Int(i as i64), Value::Str(format!("p{i}"))]);
    Value::tuple(fields)
}

/// ~35 tuples per page; heap + clustering B-tree + small model relation
/// + a 100-row probe index.
fn rep_db(n: usize) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        create heap_rep : tidrel(item);
        create items_rep : btree(item, k, int);
        create items : rel(item);
        type probe = tuple(<(pk, int), (plabel, string)>);
        create probes : btree(probe, pk, int);
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = (0..n).map(item).collect();
    db.bulk_insert("heap_rep", tuples.clone()).unwrap();
    db.bulk_insert("items_rep", tuples).unwrap();
    db.bulk_insert("items", (0..200).map(small).collect())
        .unwrap();
    let probes = (0..100).map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("p{i}"))]));
    db.bulk_insert("probes", probes.collect()).unwrap();
    db
}

fn run(db: &mut Database, q: &str) -> Result<Value, String> {
    db.query(q).map_err(|e| e.to_string())
}

/// Run every query tuple-at-a-time serially and hold it against its
/// engine-independent expectation, then run it under each batch width
/// and worker count and require identical outcomes (values *and*
/// errors).
fn assert_differential(db: &mut Database, queries: &[(&str, Expect)]) {
    db.set_batch_size(1);
    db.set_parallelism(1);
    let baseline: Vec<Result<Value, String>> = queries
        .iter()
        .map(|(q, expect)| {
            let got = run(db, q);
            expect.check(q, &got);
            got
        })
        .collect();
    for &b in BATCHES {
        for &w in WORKERS {
            db.set_batch_size(b);
            db.set_parallelism(w);
            for ((q, _), expected) in queries.iter().zip(&baseline) {
                let got = run(db, q);
                assert_eq!(
                    &got, expected,
                    "query `{q}` diverged at batch={b} workers={w}"
                );
            }
        }
    }
    db.set_batch_size(1);
    db.set_parallelism(1);
}

#[test]
fn scans_filters_and_counts_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            ("heap_rep feed count", Int(3000)),
            ("heap_rep feed consume", Rows(3000, item(0), item(2999))),
            // k in {0, 7, .., 2996}
            ("heap_rep feed filter[k mod 7 = 0] count", Int(429)),
            (
                "heap_rep feed filter[grp = 3] consume",
                Rows(300, item(3), item(2993)),
            ),
            ("heap_rep feed filter[k < 0] count", Int(0)),
            (
                "heap_rep feed filter[pad != \"x\"] filter[k mod 2 = 1] count",
                Int(1500),
            ),
        ],
    );
}

#[test]
fn in_memory_selects_match_tuple_at_a_time() {
    // 200 model-level rows: above the chunking floor, so workers = 4
    // splits the `select` while workers = 1 filters in place.
    let mut db = rep_db(100);
    assert_differential(
        &mut db,
        &[
            ("items select[k mod 2 = 0] count", Int(100)),
            ("items select[grp > 5]", Rows(80, small(6), small(199))),
            ("items select[k < 0]", Len(0)),
        ],
    );
}

#[test]
fn btree_ranges_match_tuple_at_a_time() {
    // E5's plan pair: range query vs filtered full scan over the
    // clustering B-tree, at several selectivities.
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            ("items_rep feed count", Int(3000)),
            ("items_rep range[100, 250] count", Int(151)),
            (
                "items_rep range[100, 250] consume",
                Rows(151, item(100), item(250)),
            ),
            (
                "items_rep feed filter[k <= 250] filter[k >= 100] count",
                Int(151),
            ),
            (
                "items_rep range[2995, 9999] consume",
                Rows(5, item(2995), item(2999)),
            ),
            ("items_rep range[9999, 10000] count", Int(0)),
        ],
    );
}

#[test]
fn projections_replacements_and_heads_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            (
                "heap_rep feed project[(k2, fun (t: item) t k * 2)] consume",
                Rows(3000, ints(&[0]), ints(&[5998])),
            ),
            (
                "heap_rep feed project[(k2, fun (t: item) t k * 2), (g, fun (t: item) t grp)] count",
                Int(3000),
            ),
            (
                "heap_rep feed replace[k, fun (t: item) t k + 1000000] consume",
                Rows(3000, replaced(0, 1_000_000, 0), replaced(2999, 1_002_999, 9)),
            ),
            (
                "heap_rep feed filter[k mod 3 = 0] replace[grp, fun (t: item) t grp * t grp] consume",
                Rows(1000, replaced(0, 0, 0), replaced(2997, 2997, 49)),
            ),
            // head boundaries around the batch widths in play.
            ("heap_rep feed head[1] consume", Rows(1, item(0), item(0))),
            ("heap_rep feed head[7] consume", Rows(7, item(0), item(6))),
            ("heap_rep feed head[8] consume", Rows(8, item(0), item(7))),
            (
                "heap_rep feed filter[grp = 2] head[25] consume",
                Rows(25, item(2), item(242)),
            ),
        ],
    );
}

#[test]
fn blocking_operators_and_joins_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            ("heap_rep feed sum[k]", Int(2999 * 3000 / 2)),
            ("heap_rep feed avg[k]", Agree),
            ("heap_rep feed collect feed count", Int(3000)),
            // Stable sort: the first 25 of the 300 rows with grp = 0.
            (
                "heap_rep feed sortby[grp] head[25] consume",
                Rows(25, item(0), item(240)),
            ),
            (
                "heap_rep feed project[(g, fun (t: item) t grp)] sortby[g] rdup consume",
                Rows(10, ints(&[0]), ints(&[9])),
            ),
            // Both search-join shapes the parallel executor recognizes
            // (index probe, filtered scan), over the first 50 keys.
            (
                "items_rep range[0, 49] (fun (t: item) probes exactmatch[t k]) search_join consume",
                Rows(50, joined(0), joined(49)),
            ),
            (
                "items_rep range[0, 49] \
                 (fun (t: item) probes feed filter[fun (p: probe) p pk = t k]) \
                 search_join count",
                Int(50),
            ),
        ],
    );
}

#[test]
fn e3_style_programs_match_tuple_at_a_time() {
    // The Section 2.4 cities program (E3): model-level selects through
    // plain objects, views, and parameterized views.
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(name, string), (pop, int), (country, string)>);
        type city_rel = rel(city);
        create cities : city_rel;
        update cities := insert(cities, mktuple[(name, "Hagen"), (pop, 190000), (country, "Germany")]);
        update cities := insert(cities, mktuple[(name, "Paris"), (pop, 2100000), (country, "France")]);
        update cities := insert(cities, mktuple[(name, "Nice"), (pop, 340000), (country, "France")]);
        create french_cities : ( -> city_rel);
        update french_cities := fun () cities select[country = "France"];
        create cities_in : (string -> city_rel);
        update cities_in := fun (c: string) cities select[country = c];
    "#,
    )
    .unwrap();
    assert_differential(
        &mut db,
        &[
            ("cities select[pop > 1000000]", Len(1)),
            ("french_cities select[pop > 1000000]", Len(1)),
            (r#"cities_in ("Germany") count"#, Int(1)),
        ],
    );
}

#[test]
fn runtime_errors_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    // k = 0 divides by zero; every batch width must surface the same
    // error the tuple-at-a-time drain does.
    assert_differential(
        &mut db,
        &[
            ("heap_rep feed filter[100 div k = 1] count", Agree),
            (
                "heap_rep feed replace[k, fun (t: item) t k div t grp] consume",
                Agree,
            ),
        ],
    );
}

#[test]
fn batched_drains_are_visible_in_metrics() {
    let mut db = rep_db(3000);
    db.set_parallelism(1);
    db.set_batch_size(256);
    db.reset_metrics();
    db.query("heap_rep feed filter[grp = 3] count").unwrap();
    let count = db.op_stats("count").expect("count ran");
    assert!(count.batches > 0, "count stats: {count:?}");
    assert_eq!(count.batched_rows, 300);
    assert!(
        count.rows_per_batch() > 0 && count.rows_per_batch() <= 256,
        "count stats: {count:?}"
    );

    // Width 1 is the same path pulled one tuple per call.
    db.set_batch_size(1);
    db.reset_metrics();
    db.query("heap_rep feed filter[grp = 3] count").unwrap();
    let count = db.op_stats("count").expect("count ran");
    assert_eq!(count.batched_rows, 300, "count stats: {count:?}");
    assert_eq!(count.batches, count.batched_rows, "count stats: {count:?}");
}

#[test]
fn batch_width_one_keeps_pins_balanced() {
    let pool = sos_storage::mem_pool(4096);
    let mut db = Database::builder().pool(pool.clone()).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        create heap_rep : tidrel(item);
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = (0..2000)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("{:0180}", i)),
            ])
        })
        .collect();
    db.bulk_insert("heap_rep", tuples).unwrap();
    for &b in BATCHES {
        db.set_batch_size(b);
        db.query("heap_rep feed filter[k mod 3 = 1] consume")
            .unwrap();
        assert_eq!(pool.pinned_frames(), 0, "batch={b} leaked page pins");
    }
}
