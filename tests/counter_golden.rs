//! Exact-counter golden: a fixed statement list per layer, driven
//! through `Database`, with the counters that repeat bit-for-bit pinned
//! in `tests/golden/counters.txt`.
//!
//! Timings drift from run to run; these counts do not. A change that
//! adds a rule attempt, a statement-cache miss, a page touch, a log
//! byte, a batch or an interpreter fallback to any of the statements
//! below fails this test with a diff, whatever the machine. Each layer runs on a fresh
//! database, and its counters are read as the delta over the statement
//! list only, setup excluded.
//!
//! Regenerate after an intentional counter change with
//! `UPDATE_GOLDEN=1 cargo test --test counter_golden`.

use sos_exec::Value;
use sos_geom::gen;
use sos_storage::{DiskManager, MemDisk};
use sos_system::{Database, DurabilityConfig, MetricsSnapshot, SyncPolicy};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/counters.txt")
}

const ITEMS_DDL: &str = r#"
    type item = tuple(<(k, int), (v, int), (pad, string)>);
    create items : rel(item);
    create items_rep : btree(item, k, int);
    create rep : catalog(<ident, ident>);
    update rep := insert(rep, items, items_rep);
"#;

fn items(n: i64) -> Vec<Value> {
    (0..n)
        .map(|k| {
            Value::tuple(vec![
                Value::Int(k),
                Value::Int(k * 37 % 100),
                Value::Str(format!("item{k:04}")),
            ])
        })
        .collect()
}

/// Heap tuples with a 180-byte pad: about 35 per page, so a scan spans
/// many pages.
fn hitems(n: i64) -> Vec<Value> {
    (0..n)
        .map(|k| Value::tuple(vec![Value::Int(k), Value::Str(format!("{k:0180}"))]))
        .collect()
}

/// Run `stmts` (each a `query` or `update` statement) after a metrics
/// reset and render the pinned counters of what they did.
fn layer(out: &mut String, name: &str, db: &mut Database, stmts: &[&str]) {
    db.reset_metrics();
    for s in stmts {
        db.run(s)
            .unwrap_or_else(|e| panic!("{name}: `{s}` failed: {e}"));
    }
    render(out, name, &db.metrics());
}

fn render(out: &mut String, name: &str, m: &MetricsSnapshot) {
    writeln!(out, "[{name}]").unwrap();
    writeln!(out, "optimizer.rule_attempts {}", m.optimizer.rule_attempts).unwrap();
    writeln!(out, "optimizer.rewrites {}", m.optimizer.rewrites).unwrap();
    writeln!(out, "planner.cache_hits {}", m.planner.cache_hits).unwrap();
    writeln!(out, "planner.cache_misses {}", m.planner.cache_misses).unwrap();
    writeln!(out, "pool.logical_reads {}", m.pool.logical_reads).unwrap();
    writeln!(out, "wal.bytes {}", m.wal.bytes).unwrap();
    writeln!(out, "compile.compiled {}", m.compile.compiled).unwrap();
    writeln!(out, "exec.rows_decoded {}", m.rows_decoded).unwrap();
    writeln!(out, "exec.columnar_batches {}", m.columnar_batches).unwrap();
    for (reason, n) in &m.compile.fallbacks {
        writeln!(out, "compile.fallback.{reason} {n}").unwrap();
    }
    for (op, s) in &m.ops {
        writeln!(
            out,
            "op.{op} tuples_in={} tuples_out={} batches={}",
            s.tuples_in, s.tuples_out, s.batches
        )
        .unwrap();
    }
    writeln!(out).unwrap();
}

/// Point selects through the B-tree rules.
fn point_layer(out: &mut String) {
    let mut db = Database::builder().build();
    db.run(ITEMS_DDL).unwrap();
    db.bulk_insert("items_rep", items(500)).unwrap();
    layer(
        out,
        "point",
        &mut db,
        &[
            "query items select[k = 17];",
            "query items select[k = 42] count;",
            "query items select[fun (t: item) t k = 250];",
            "query items select[k >= 100 and k < 120] count;",
            "query items select[k <= 30 and v < 50] count;",
            "query items_rep range[5, 9] count;",
        ],
    );
}

/// Exec-heavy shapes: a filtered heap scan, aggregates over a filtered
/// B-tree scan, and an equi-join that becomes a hash join.
fn scan_layer(out: &mut String) {
    let mut db = Database::builder().build();
    db.run(ITEMS_DDL).unwrap();
    db.run(
        r#"
        type hitem = tuple(<(k, int), (pad, string)>);
        create hitems : tidrel(hitem);
        type emp = tuple(<(eno, int), (dept, int), (sal, int)>);
        type dept = tuple(<(dno, int), (dname, string)>);
        create emps : rel(emp);
        create depts : rel(dept);
        create emps_rep : tidrel(emp);
        create depts_rep : tidrel(dept);
        update rep := insert(rep, emps, emps_rep);
        update rep := insert(rep, depts, depts_rep);
    "#,
    )
    .unwrap();
    db.bulk_insert("items_rep", items(2000)).unwrap();
    db.bulk_insert("hitems", hitems(700)).unwrap();
    let emps = (0..300)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Int(i % 20), Value::Int(i * 7)]))
        .collect();
    db.bulk_insert("emps_rep", emps).unwrap();
    let depts = (0..20)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("dept{i}"))]))
        .collect();
    db.bulk_insert("depts_rep", depts).unwrap();
    layer(
        out,
        "scan",
        &mut db,
        &[
            "query hitems feed filter[k mod 7 = 3] count;",
            "query hitems feed filter[pad != \"x\"] head[40] count;",
            "query items select[k >= 1000 and k < 1900] count;",
            "query items_rep feed filter[v < 50] sum[v];",
            "query items_rep feed filter[v < 50] avg[v];",
            "query items_rep feed project[(k2, k * 2), (v, v)] filter[k2 > 3000] count;",
            "query items_rep feed replace[v, v + 1] filter[v = 1] count;",
            "query emps depts join[dept = dno] count;",
        ],
    );
}

/// The paper's spatial join (`search_join` over LSD-tree point
/// searches) and a direct point search.
fn spatial_layer(out: &mut String) {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(cname, string), (center, point), (pop, int)>);
        type state = tuple(<(sname, string), (region, pgon)>);
        create cities : rel(city);
        create states : rel(state);
        create cities_rep : btree(city, pop, int);
        create states_rep : lsdtree(state, fun (s: state) bbox(s region));
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, cities, cities_rep);
        update rep := insert(rep, states, states_rep);
    "#,
    )
    .unwrap();
    let states = gen::state_grid(4, 11)
        .into_iter()
        .map(|(name, poly)| Value::tuple(vec![Value::Str(name), Value::Pgon(poly)]))
        .collect();
    db.bulk_insert("states_rep", states).unwrap();
    let cities = gen::uniform_points(120, 12)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Point(p),
                Value::Int(i as i64 * 1000),
            ])
        })
        .collect();
    db.bulk_insert("cities_rep", cities).unwrap();
    layer(
        out,
        "spatial",
        &mut db,
        &[
            "query cities states join[center inside region] count;",
            "query cities select[pop > 50000] states join[center inside region] count;",
            "query states_rep makepoint(500.0, 500.0) point_search count;",
            "query states_rep makepoint(125.0, 875.0) point_search count;",
        ],
    );
}

/// Single-row inserts, one WAL commit each, under `PerCommit`.
fn wal_layer(out: &mut String) {
    let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let wal: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let mut db = Database::builder()
        .durability(DurabilityConfig::disks(data, wal).sync_policy(SyncPolicy::PerCommit))
        .try_build()
        .unwrap();
    db.run(ITEMS_DDL).unwrap();
    db.bulk_insert("items_rep", items(200)).unwrap();
    let inserts: Vec<String> = (1000..1012)
        .map(|k| {
            format!(
                "update items := insert(items, mktuple[(k, {k}), (v, {}), (pad, \"p{k}\")]);",
                k % 10
            )
        })
        .collect();
    let mut stmts: Vec<&str> = inserts.iter().map(String::as_str).collect();
    stmts.push("query items select[k >= 1000] count;");
    layer(out, "wal", &mut db, &stmts);
}

/// A heap scan through a buffer pool much smaller than the heap.
fn cold_layer(out: &mut String) {
    let mut db = Database::builder().frame_capacity(16).build();
    db.run(
        r#"
        type hitem = tuple(<(k, int), (pad, string)>);
        create hitems : tidrel(hitem);
    "#,
    )
    .unwrap();
    db.bulk_insert("hitems", hitems(1400)).unwrap();
    layer(
        out,
        "cold",
        &mut db,
        &[
            "query hitems feed filter[k mod 7 = 3] count;",
            "query hitems feed filter[k < 100] count;",
        ],
    );
}

#[test]
fn counters_match_golden() {
    let mut out = String::new();
    point_layer(&mut out);
    scan_layer(&mut out);
    spatial_layer(&mut out);
    wal_layer(&mut out);
    cold_layer(&mut out);
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        out,
        expected,
        "exact counters diverged from {} (run with UPDATE_GOLDEN=1 to regenerate)",
        path.display()
    );
}
