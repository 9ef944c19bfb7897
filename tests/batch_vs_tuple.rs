//! Differential batch-width harness: every query must produce the
//! identical result (same tuples, same order, same errors) whatever
//! width the one cursor pipeline is pulled at — one tuple per call
//! (width 1) or vectorized batches — and that result must equal the
//! expected value computed here, outside the engine.
//!
//! Batch widths 1, 7 and 1024 are exercised deliberately: 1 is
//! tuple-at-a-time, 7 never divides a page's tuple count (so every
//! refill spills a remainder into the cursor buffer — the boundary
//! bugs), and 1024 is the production default.

mod oracle;

use oracle::Expect::{Agree, Int, Len, Rows};
use oracle::{ints, item, replaced, small, Expect};
use proptest::prelude::*;
use sos_exec::Value;
use sos_storage::BufferPool;
use sos_system::Database;
use std::sync::Arc;

/// Batch widths exercised against the tuple-at-a-time baseline.
const BATCHES: &[usize] = &[1, 7, 1024];

/// `item(i)` joined with its `probes` row.
fn joined(i: usize) -> Value {
    let mut fields = match item(i) {
        Value::Tuple(fs) => fs.to_vec(),
        other => panic!("{other:?}"),
    };
    fields.extend([Value::Int(i as i64), Value::Str(format!("p{i}"))]);
    Value::tuple(fields)
}

/// ~35 tuples per page: a heap, a clustering B-tree, a small model
/// relation, a 100-row probe index, 60 mates (`j = 0, 3, .., 177`) as a
/// model relation and as a heap, and an int object `threshold` = 1500.
fn rep_db(n: usize) -> Database {
    rep_db_on(sos_storage::mem_pool(4096), n)
}

fn rep_db_on(pool: Arc<BufferPool>, n: usize) -> Database {
    let mut db = Database::builder().pool(pool).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        create heap_rep : tidrel(item);
        create items_rep : btree(item, k, int);
        create items : rel(item);
        type probe = tuple(<(pk, int), (plabel, string)>);
        create probes : btree(probe, pk, int);
        type mate = tuple(<(j, int), (tag, string)>);
        create mate_rep : tidrel(mate);
        create mates : rel(mate);
        create threshold : int;
        update threshold := 1500;
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = (0..n).map(item).collect();
    db.bulk_load("heap_rep", tuples.clone()).unwrap();
    db.bulk_load("items_rep", tuples).unwrap();
    db.bulk_load("items", (0..200).map(small).collect())
        .unwrap();
    let probes = (0..100).map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("p{i}"))]));
    db.bulk_load("probes", probes.collect()).unwrap();
    let mates: Vec<Value> = (0..60)
        .map(|i| Value::tuple(vec![Value::Int(i * 3), Value::Str(format!("m{i}"))]))
        .collect();
    db.bulk_load("mate_rep", mates.clone()).unwrap();
    db.bulk_load("mates", mates).unwrap();
    db
}

fn run(db: &mut Database, q: &str) -> Result<Value, String> {
    db.query(q).map_err(|e| e.to_string())
}

/// Run every query tuple-at-a-time and hold it against its
/// engine-independent expectation, then run it under each batch width
/// and require identical outcomes (values *and* errors).
fn assert_differential(db: &mut Database, queries: &[(&str, Expect)]) {
    db.set_batch_size(1);
    let baseline: Vec<Result<Value, String>> = queries
        .iter()
        .map(|(q, expect)| {
            let got = run(db, q);
            expect.check(q, &got);
            got
        })
        .collect();
    for &b in BATCHES {
        db.set_batch_size(b);
        for ((q, _), expected) in queries.iter().zip(&baseline) {
            let got = run(db, q);
            assert_eq!(&got, expected, "query `{q}` diverged at batch={b}");
        }
    }
    db.set_batch_size(1);
}

/// Per-operator `[tuples_in, tuples_out, batched_rows]`, all-zero rows
/// left out.
type OpRows = Vec<(String, [u64; 3])>;

/// Run every query on reset counters tuple-at-a-time, then under each
/// batch width, and require every operator to record the same rows
/// whether the query succeeds or fails.
fn assert_same_operator_rows(db: &mut Database, queries: &[(&str, Expect)]) {
    let op_rows = |db: &mut Database, q: &str| -> OpRows {
        db.reset_metrics();
        let _ = run(db, q);
        db.metrics()
            .ops
            .into_iter()
            .map(|(op, s)| (op, [s.tuples_in, s.tuples_out, s.batched_rows]))
            .filter(|(_, rows)| *rows != [0; 3])
            .collect()
    };
    db.set_batch_size(1);
    let baseline: Vec<OpRows> = queries.iter().map(|(q, _)| op_rows(db, q)).collect();
    for &b in BATCHES {
        db.set_batch_size(b);
        for ((q, _), expected) in queries.iter().zip(&baseline) {
            assert!(
                !expected.is_empty(),
                "query `{q}` recorded no operator rows"
            );
            let got = op_rows(db, q);
            assert_eq!(
                &got, expected,
                "query `{q}` recorded different operator rows at batch={b}"
            );
        }
    }
    db.set_batch_size(1);
}

fn scan_queries() -> Vec<(&'static str, Expect)> {
    vec![
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
    ]
}

#[test]
fn scans_filters_and_counts_match_tuple_at_a_time() {
    assert_differential(&mut rep_db(3000), &scan_queries());
}

#[test]
fn scans_filters_and_counts_record_the_same_operator_rows_at_every_width() {
    assert_same_operator_rows(&mut rep_db(3000), &scan_queries());
}

#[test]
fn object_referencing_filters_match_tuple_at_a_time() {
    // The predicate reads the object `threshold` on every evaluation, so
    // an update between two queries shows in the second.
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            ("heap_rep feed filter[k < threshold] count", Int(1500)),
            (
                "heap_rep feed filter[k >= threshold] consume",
                Rows(1500, item(1500), item(2999)),
            ),
        ],
    );
    db.run("update threshold := 10;").unwrap();
    assert_differential(
        &mut db,
        &[("heap_rep feed filter[k < threshold] count", Int(10))],
    );
}

#[test]
fn in_memory_selects_match_tuple_at_a_time() {
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

fn projection_queries() -> Vec<(&'static str, Expect)> {
    vec![
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
            Rows(
                3000,
                replaced(0, 1_000_000, 0),
                replaced(2999, 1_002_999, 9),
            ),
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
    ]
}

#[test]
fn projections_replacements_and_heads_match_tuple_at_a_time() {
    assert_differential(&mut rep_db(3000), &projection_queries());
}

#[test]
fn projections_and_replacements_record_the_same_operator_rows_at_every_width() {
    let queries: Vec<_> = projection_queries()
        .into_iter()
        .filter(|(q, _)| !q.contains("head"))
        .collect();
    assert_same_operator_rows(&mut rep_db(3000), &queries);
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
            // Both search-join shapes (index probe, filtered scan), over
            // the first 50 keys.
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
fn min_max_and_filtered_sums_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            ("heap_rep feed min[k]", Int(0)),
            ("heap_rep feed max[k]", Int(2999)),
            // 7 + 17 + .. + 2997
            (
                "heap_rep feed filter[grp = 7] sum[k]",
                Int(300 * (7 + 2997) / 2),
            ),
        ],
    );
}

#[test]
fn model_joins_and_hashjoins_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            // mates: j = 0, 3, .., 177 — all below the 200 items.
            ("items mates join[k = j] count", Int(60)),
            // For j = 3m: the 3m items with k < j.
            ("items mates join[k < j] count", Int(3 * 59 * 60 / 2)),
            (
                "heap_rep feed mate_rep feed hashjoin[k, j] consume",
                Len(60),
            ),
            ("heap_rep feed mate_rep feed hashjoin[k, j] count", Int(60)),
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

/// k = 0 divides by zero; every batch width must surface the same
/// error the tuple-at-a-time drain does.
fn error_queries() -> Vec<(&'static str, Expect)> {
    vec![
        ("heap_rep feed filter[100 div k = 1] count", Agree),
        (
            "heap_rep feed replace[k, fun (t: item) t k div t grp] consume",
            Agree,
        ),
    ]
}

#[test]
fn runtime_errors_match_tuple_at_a_time() {
    assert_differential(&mut rep_db(3000), &error_queries());
}

#[test]
fn runtime_errors_release_every_pin_at_every_width() {
    // A statement that fails inside a scan leaves no page pinned and the pool
    // consistent, and the next statement runs normally.
    let pool = sos_storage::mem_pool(4096);
    let mut db = rep_db_on(pool.clone(), 3000);
    for &b in BATCHES {
        db.set_batch_size(b);
        for (q, _) in error_queries() {
            assert!(run(&mut db, q).is_err(), "`{q}` at batch={b}");
            assert_eq!(
                pool.pinned_frames(),
                0,
                "`{q}` at batch={b} leaked page pins"
            );
            let p = pool.stats();
            assert_eq!(p.logical_reads, p.cache_hits + p.physical_reads);
            assert_eq!(run(&mut db, "heap_rep feed count"), Ok(Value::Int(3000)));
        }
    }
}

#[test]
fn batched_drains_are_visible_in_metrics() {
    let mut db = rep_db(3000);
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

/// A drain, a `count` and a `select`, each with the operator it records
/// under and that operator's `[tuples_in, tuples_out, batched_rows]`
/// over `rep_db_on(_, 2000)`.
const DRAIN_COUNT_SELECT: [(&str, &str, [u64; 3]); 3] = [
    // k in {1, 4, .., 1999}
    (
        "heap_rep feed filter[k mod 3 = 1] consume",
        "materialize",
        [0, 0, 667],
    ),
    (
        "heap_rep feed filter[grp = 3] count",
        "count",
        [200, 1, 200],
    ),
    ("items select[k mod 2 = 0] count", "select", [200, 100, 100]),
];

#[test]
fn batch_width_one_keeps_pins_balanced() {
    let pool = sos_storage::mem_pool(4096);
    let mut db = rep_db_on(pool.clone(), 2000);
    for &b in BATCHES {
        db.set_batch_size(b);
        for (q, _, _) in DRAIN_COUNT_SELECT {
            db.query(q).unwrap();
            assert_eq!(
                pool.pinned_frames(),
                0,
                "`{q}` at batch={b} leaked page pins"
            );
        }
    }
}

#[test]
fn drains_counts_and_selects_record_their_rows_and_keep_the_pool_consistent() {
    let pool = sos_storage::mem_pool(4096);
    let mut db = rep_db_on(pool.clone(), 2000);
    for &b in BATCHES {
        db.set_batch_size(b);
        for (q, op, rows) in DRAIN_COUNT_SELECT {
            db.reset_metrics();
            db.query(q).unwrap();
            let s = db.op_stats(op).expect("operator ran");
            let got = [s.tuples_in, s.tuples_out, s.batched_rows];
            assert_eq!(got, rows, "`{q}` at batch={b}: {s:?}");
            assert_eq!(
                pool.pinned_frames(),
                0,
                "`{q}` at batch={b} leaked page pins"
            );
            let p = pool.stats();
            assert_eq!(p.logical_reads, p.cache_hits + p.physical_reads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary keys, arbitrary filter modulus: every width agrees with
    /// width 1 on filtered counts, full drains, replacements and sums.
    #[test]
    fn random_heaps_match_tuple_at_a_time(
        keys in prop::collection::vec(-1000i64..1000, 0..150),
        m in 1i64..20,
    ) {
        let mut db = Database::builder().build();
        db.run(
            r#"
            type itm = tuple(<(k, int), (pad, string)>);
            create h : tidrel(itm);
        "#,
        )
        .unwrap();
        let tuples: Vec<Value> = keys
            .iter()
            .map(|k| Value::tuple(vec![Value::Int(*k), Value::Str(format!("{k:0150}"))]))
            .collect();
        db.bulk_load("h", tuples).unwrap();
        let queries = [
            format!("h feed filter[k mod {m} = 0] count"),
            "h feed consume".to_string(),
            format!("h feed replace[k, fun (t: itm) t k mod {m}] consume"),
            "h feed sum[k]".to_string(),
        ];
        db.set_batch_size(1);
        let baseline: Vec<Result<Value, String>> =
            queries.iter().map(|q| run(&mut db, q)).collect();
        let multiples = keys.iter().filter(|k| *k % m == 0).count() as i64;
        prop_assert_eq!(&baseline[0], &Ok(Value::Int(multiples)));
        for &b in BATCHES {
            db.set_batch_size(b);
            for (q, expected) in queries.iter().zip(&baseline) {
                let got = run(&mut db, q);
                prop_assert!(&got == expected, "`{}` diverged at batch={}: {:?} vs {:?}", q, b, got, expected);
            }
        }
    }
}

/// Row `i` of the `wide` fixture: one field of every kind a pushed
/// predicate or a fused aggregate reads in place.
fn wide(i: usize) -> Value {
    Value::tuple(vec![
        Value::Int(i as i64),
        Value::Real((i % 200) as f64 * 0.25),
        Value::Bool(i.is_multiple_of(3)),
        Value::Str(format!("t{:04}{}", (i * 7) % 1000, "-".repeat(120))),
    ])
}

/// 1000 `wide` rows as a heap and as a B-tree on `k`, plus an int
/// object `limit` = 600 and a function object `early` (`k < 600`) for
/// predicates that read the store, the latter passing it the whole
/// tuple.
fn wide_db() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type witem = tuple(<(k, int), (x, real), (flag, bool), (tag, string)>);
        create wheap : tidrel(witem);
        create wtree : btree(witem, k, int);
        create limit : int;
        update limit := 600;
        create early : (witem -> bool);
        update early := fun (u: witem) u k < 600;
    "#,
    )
    .unwrap();
    let rows: Vec<Value> = (0..1000).map(wide).collect();
    db.bulk_load("wheap", rows.clone()).unwrap();
    db.bulk_load("wtree", rows).unwrap();
    db
}

/// A first filter that keeps every row but is never pushed into a scan
/// (it hands the whole tuple to `early`): every step after it runs on
/// decoded tuples.
const DECODE: &str = " filter[fun (t: witem) early(t) or true]";

fn fields(t: &Value) -> &[Value] {
    match t {
        Value::Tuple(fs) => fs,
        other => panic!("{other:?}"),
    }
}

fn real_of(v: &Value) -> f64 {
    match v {
        Value::Real(x) => *x,
        Value::Int(x) => *x as f64,
        other => panic!("{other:?}"),
    }
}

/// Plain-Rust result of `op` over field `attr` of `rows` (`count` reads
/// no field), error text included.
fn fold_rows(rows: &[Value], op: &str, attr: usize) -> Result<Value, String> {
    let vals: Vec<&Value> = rows.iter().map(|t| &fields(t)[attr]).collect();
    let total = || vals.iter().map(|v| real_of(v)).fold(0.0, |a, b| a + b);
    match op {
        "count" => Ok(Value::Int(rows.len() as i64)),
        "sum" => Ok(match vals.first() {
            // `x` (field 1) is the only real attribute.
            None if attr == 1 => Value::Real(0.0),
            Some(Value::Real(_)) => Value::Real(total()),
            _ => Value::Int(vals.iter().map(|v| real_of(v) as i64).sum()),
        }),
        _ if vals.is_empty() => Err(format!("`{op}` over an empty stream")),
        "avg" => Ok(Value::Real(total() / vals.len() as f64)),
        _ => {
            let mut best = vals[0];
            for v in &vals[1..] {
                let ord = sos_exec::compare(op, v, best).unwrap();
                if (op == "min" && ord.is_lt()) || (op == "max" && ord.is_gt()) {
                    best = v;
                }
            }
            Ok(best.clone())
        }
    }
}

#[test]
fn fused_aggregates_over_pushed_filters_match_the_decoding_plan() {
    // Every aggregate over zero, one and two filters on each kind of
    // field, over a heap, a B-tree feed and a B-tree halfrange. As
    // written, the filters run on records read in place and the
    // aggregate folds without decoding; behind a first `early(t) or
    // true` filter, every record is decoded and filtered as a tuple.
    // Both must equal plain Rust, at every width. `k < limit` reads the
    // store and `early(t)` hands the whole tuple to a function object,
    // so neither is pushed into a scan, and every filter after one runs
    // on decoded tuples.
    let mut db = wide_db();
    let all: Vec<Value> = (0..1000).map(wide).collect();
    let k = |t: &[Value]| match t[0] {
        Value::Int(k) => k,
        _ => unreachable!(),
    };
    let x = |t: &[Value]| real_of(&t[1]);
    let tag = |t: &[Value]| match &t[3] {
        Value::Str(s) => s.clone(),
        _ => unreachable!(),
    };
    type Keep = Box<dyn Fn(&[Value]) -> bool>;
    let sources: Vec<(&str, Keep)> = vec![
        ("wheap feed", Box::new(|_| true)),
        ("wtree feed", Box::new(|_| true)),
        ("wtree range_from[200]", Box::new(move |t| k(t) >= 200)),
    ];
    let filters: Vec<(&str, Vec<Keep>)> = vec![
        ("", vec![]),
        (" filter[x < 20.0]", vec![Box::new(move |t| x(t) < 20.0)]),
        (
            " filter[flag]",
            vec![Box::new(|t| t[2] == Value::Bool(true))],
        ),
        (
            " filter[tag < \"t0100\"]",
            vec![Box::new(move |t| tag(t).as_str() < "t0100")],
        ),
        (
            " filter[k mod 7 = 3] filter[flag]",
            vec![
                Box::new(move |t| k(t) % 7 == 3),
                Box::new(|t| t[2] == Value::Bool(true)),
            ],
        ),
        (
            " filter[tag != \"x\"] filter[x > 49.0]",
            vec![Box::new(|_| true), Box::new(move |t| x(t) > 49.0)],
        ),
        (" filter[k < limit]", vec![Box::new(move |t| k(t) < 600)]),
        (
            " filter[fun (t: witem) early(t)]",
            vec![Box::new(move |t| k(t) < 600)],
        ),
    ];
    let aggs = [
        ("count", 0),
        ("sum[k]", 0),
        ("sum[x]", 1),
        ("avg[k]", 0),
        ("avg[x]", 1),
        ("min[tag]", 3),
        ("max[x]", 1),
        ("max[k]", 0),
    ];
    for (src, in_src) in &sources {
        for (filter, preds) in &filters {
            let rows: Vec<Value> = all
                .iter()
                .filter(|t| in_src(fields(t)) && preds.iter().all(|p| p(fields(t))))
                .cloned()
                .collect();
            for (agg, attr) in aggs {
                let op = agg.split('[').next().unwrap();
                let expected = fold_rows(&rows, op, attr);
                for decode in ["", DECODE] {
                    let q = format!("{src}{decode}{filter} {agg}");
                    for &b in BATCHES {
                        db.set_batch_size(b);
                        let at = format!("`{q}` at batch={b}");
                        match (run(&mut db, &q), &expected) {
                            (Ok(got), Ok(want)) => assert_eq!(&got, want, "{at}"),
                            (Err(got), Err(want)) => assert!(got.contains(want), "{at}: {got}"),
                            (got, want) => panic!("{at}: {got:?} vs {want:?}"),
                        }
                    }
                }
            }
        }
    }

    // The fused plan decodes nothing; the decoding plan every record.
    for (decode, decoded) in [("", 0), (DECODE, 1000)] {
        db.reset_metrics();
        assert_eq!(
            run(&mut db, &format!("wheap feed{decode} filter[flag] count")),
            Ok(Value::Int(334))
        );
        assert_eq!(db.metrics().rows_decoded, decoded, "{decode}");
    }
}
