//! Differential serial-vs-parallel harness: every query must produce
//! the identical result (same tuples, same order, same errors) and
//! record the same rows per operator whether the engine runs with 1
//! worker (every drain on the calling thread) or N workers (N cursors
//! over disjoint unit slices of the source) — and that result must
//! equal the expected value computed in plain Rust from the fixture's
//! row formulas.
//!
//! The parallel executor is designed to be extensionally equal to the
//! serial engine by construction — the same cursor kernel, unit-ordered
//! concatenation — and these tests check that equality end to end
//! through the full parse/check/optimize/execute stack.

mod oracle;

use oracle::Expect::{Agree, Int, Rows};
use oracle::{ints, item, replaced, small, Expect};
use proptest::prelude::*;
use sos_exec::Value;
use sos_system::Database;
use std::sync::Arc;

/// The worker count held against the serial baseline: every count above
/// 1 runs the same driver, so one parallel point covers them.
const WORKERS: &[usize] = &[4];

/// ~35 tuples per page; 3000 tuples spread over ~85 heap pages.
fn heap_db(pool: Arc<sos_storage::BufferPool>, n: usize) -> Database {
    let mut db = Database::builder().pool(pool).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        type mate = tuple(<(j, int), (tag, string)>);
        create heap_rep : tidrel(item);
        create mate_rep : tidrel(mate);
        create items : rel(item);
        create mates : rel(mate);
    "#,
    )
    .unwrap();
    let items: Vec<Value> = (0..n).map(item).collect();
    db.bulk_insert("heap_rep", items).unwrap();
    // Model-level relations stay small: bulk model inserts are O(n^2),
    // and the chunked in-memory paths engage from 64 tuples anyway.
    db.bulk_insert("items", (0..300).map(small).collect())
        .unwrap();
    let mates: Vec<Value> = (0..90)
        .map(|i| {
            Value::tuple(vec![
                Value::Int((i * 3) as i64),
                Value::Str(format!("m{i}")),
            ])
        })
        .collect();
    db.bulk_insert("mate_rep", mates.clone()).unwrap();
    db.bulk_insert("mates", mates).unwrap();
    db
}

fn run(db: &mut Database, q: &str) -> Result<Value, String> {
    db.query(q).map_err(|e| e.to_string())
}

/// Per-operator `[tuples_in, tuples_out, batched_rows]`, all-zero rows
/// left out.
type OpRows = Vec<(String, [u64; 3])>;

/// Run `q` on reset counters: its outcome and the rows each operator
/// recorded for it.
fn run_counted(db: &mut Database, q: &str) -> (Result<Value, String>, OpRows) {
    db.reset_metrics();
    let got = run(db, q);
    let rows = db
        .metrics()
        .ops
        .into_iter()
        .map(|(op, s)| (op, [s.tuples_in, s.tuples_out, s.batched_rows]))
        .filter(|(_, rows)| *rows != [0; 3])
        .collect();
    (got, rows)
}

/// Run every query serially and hold it against its engine-independent
/// expectation, then run it under each parallel worker count and
/// require identical outcomes (values *and* errors) and identical
/// per-operator rows.
fn assert_differential(db: &mut Database, queries: &[(&str, Expect)]) {
    db.set_parallelism(1);
    let serial: Vec<_> = queries
        .iter()
        .map(|(q, expect)| {
            let got = run_counted(db, q);
            expect.check(q, &got.0);
            got
        })
        .collect();
    for &w in WORKERS {
        db.set_parallelism(w);
        for ((q, _), (expected, rows)) in queries.iter().zip(&serial) {
            let (got, got_rows) = run_counted(db, q);
            assert_eq!(&got, expected, "query `{q}` diverged at workers={w}");
            assert_eq!(
                &got_rows, rows,
                "query `{q}` recorded different operator rows at workers={w}"
            );
        }
    }
    db.set_parallelism(1);
}

#[test]
fn scans_filters_and_counts_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
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
fn projections_and_replacements_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
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
        ],
    );
}

#[test]
fn aggregates_and_blocking_operators_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    assert_differential(
        &mut db,
        &[
            ("heap_rep feed sum[k]", Int(2999 * 3000 / 2)),
            ("heap_rep feed min[k]", Int(0)),
            ("heap_rep feed max[k]", Int(2999)),
            ("heap_rep feed avg[k]", Agree),
            // 7 + 17 + .. + 2997
            (
                "heap_rep feed filter[grp = 7] sum[k]",
                Int(300 * (7 + 2997) / 2),
            ),
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
            ("heap_rep feed head[7] consume", Rows(7, item(0), item(6))),
        ],
    );
}

#[test]
fn model_select_and_joins_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    assert_differential(
        &mut db,
        &[
            ("items select[k mod 2 = 0] count", Int(150)),
            ("items select[grp > 5]", Rows(120, small(6), small(299))),
            // mates: j = 0, 3, .., 267 — all below 300.
            ("items mates join[k = j] count", Int(90)),
            // For j = 3m: the m * 3 items with k < j.
            ("items mates join[k < j] count", Int(3 * 89 * 90 / 2)),
            ("heap_rep feed mate_rep feed hashjoin[k, j] consume", Agree),
            ("heap_rep feed mate_rep feed hashjoin[k, j] count", Int(90)),
        ],
    );
}

#[test]
fn runtime_errors_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    // k = 0 divides by zero; the parallel path must surface the same
    // error the serial drain does.
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
fn parallel_paths_run_and_release_every_pin() {
    let pool = sos_storage::mem_pool(4096);
    let mut db = heap_db(pool.clone(), 3000);
    db.set_parallelism(4);

    // A drain at the statement boundary records under `materialize`, as
    // the serial drain does, plus its worker count.
    db.reset_metrics();
    db.query("heap_rep feed consume").unwrap();
    let drain = db.op_stats("materialize").expect("drain ran");
    assert!(drain.parallel_invocations >= 1, "drain stats: {drain:?}");
    assert_eq!(drain.max_workers, 4);
    assert_eq!(drain.batched_rows, 3000);

    // `count` takes in the rows that reach it, not the rows scanned.
    db.reset_metrics();
    db.query("heap_rep feed filter[grp = 3] count").unwrap();
    let count = db.op_stats("count").expect("count ran");
    assert!(count.parallel_invocations >= 1, "count stats: {count:?}");
    assert_eq!((count.tuples_in, count.batched_rows), (300, 300));

    db.reset_metrics();
    db.query("items select[k mod 2 = 0] count").unwrap();
    let select = db.op_stats("select").expect("select ran");
    assert!(select.parallel_invocations >= 1, "select stats: {select:?}");
    assert_eq!((select.tuples_in, select.tuples_out), (300, 150));

    // The buffer pool must come out quiescent and consistent.
    assert_eq!(pool.pinned_frames(), 0, "scans leaked page pins");
    let s = pool.stats();
    assert_eq!(s.logical_reads, s.cache_hits + s.physical_reads);
}

#[test]
fn impure_predicates_fall_back_to_serial() {
    // A predicate referencing a database object is not context-free, so
    // the parallel planner must refuse it — and the query still works.
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    db.run("create threshold : int; update threshold := 1500;")
        .unwrap();
    db.set_parallelism(1);
    let serial = run(&mut db, "heap_rep feed filter[k < threshold] count");
    db.set_parallelism(4);
    db.reset_metrics();
    let parallel = run(&mut db, "heap_rep feed filter[k < threshold] count");
    assert_eq!(serial, parallel);
    assert_eq!(
        db.op_stats("count").map_or(0, |s| s.parallel_invocations),
        0,
        "an object-referencing predicate must stay on the serial path"
    );
}

#[test]
fn parallel_speedup_on_multicore() {
    // The acceptance check for the parallel scan: >1.5x on a machine
    // with enough cores. On small machines it degenerates to a smoke
    // test (the differential suites above still verify correctness).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut db = heap_db(sos_storage::mem_pool(8192), 100_000);
    let time = |db: &mut Database, w: usize| {
        db.set_parallelism(w);
        let start = std::time::Instant::now();
        for _ in 0..3 {
            assert_eq!(
                db.query("heap_rep feed filter[k mod 7 = 0] count").unwrap(),
                Value::Int(14286)
            );
        }
        start.elapsed()
    };
    let serial = time(&mut db, 1);
    let parallel = time(&mut db, cores.min(8));
    if cores >= 4 {
        assert!(
            serial.as_secs_f64() > 1.5 * parallel.as_secs_f64(),
            "expected >1.5x speedup on {cores} cores: serial {serial:?} vs parallel {parallel:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary data, arbitrary filter modulus: 4 workers agree with 1
    /// worker on filtered counts, full drains, replacements, and sums.
    #[test]
    fn random_data_parallel_equals_serial(
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
        db.bulk_insert("h", tuples).unwrap();
        let queries = [
            format!("h feed filter[k mod {m} = 0] count"),
            "h feed consume".to_string(),
            format!("h feed replace[k, fun (t: itm) t k mod {m}] consume"),
            "h feed sum[k]".to_string(),
        ];
        db.set_parallelism(1);
        let serial: Vec<Result<Value, String>> =
            queries.iter().map(|q| run(&mut db, q)).collect();
        db.set_parallelism(4);
        for (q, expected) in queries.iter().zip(&serial) {
            let got = run(&mut db, q);
            prop_assert!(&got == expected, "query `{}` diverged: {:?} vs {:?}", q, got, expected);
        }
    }
}
