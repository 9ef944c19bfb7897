//! E5 — Section 4/5 evaluation shape: the two physical plans for the
//! geometric join produce the same result, and the index-based plan
//! touches far fewer pages. Likewise for B-tree range vs full scan.
//! These are the correctness halves of benchmarks B1/B2.

use sos_exec::Value;
use sos_geom::{gen, Point, Polygon};
use sos_system::Database;

fn city_tuple(name: &str, center: Point, pop: i64) -> Value {
    Value::tuple(vec![
        Value::Str(name.to_string()),
        Value::Point(center),
        Value::Int(pop),
    ])
}

fn state_tuple(name: &str, region: Polygon) -> Value {
    Value::tuple(vec![Value::Str(name.to_string()), Value::Pgon(region)])
}

fn rep_db(n_cities: usize, grid: usize) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(cname, string), (center, point), (pop, int)>);
        type state = tuple(<(sname, string), (region, pgon)>);
        create cities_rep : btree(city, pop, int);
        create states_rep : lsdtree(state, fun (s: state) bbox(s region));
    "#,
    )
    .unwrap();
    let cities: Vec<Value> = gen::uniform_points(n_cities, 7)
        .into_iter()
        .enumerate()
        .map(|(i, p)| city_tuple(&format!("city{i}"), p, (i as i64 * 37) % 100_000))
        .collect();
    db.bulk_load("cities_rep", cities).unwrap();
    let states: Vec<Value> = gen::state_grid(grid, 8)
        .into_iter()
        .map(|(n, p)| state_tuple(&n, p))
        .collect();
    db.bulk_load("states_rep", states).unwrap();
    db
}

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        other => panic!("expected count, got {other:?}"),
    }
}

#[test]
fn index_join_touches_fewer_pages_than_scan_join() {
    let mut db = rep_db(300, 20);
    let scan_plan = "cities_rep feed \
        (fun (c: city) states_rep feed filter[fun (s: state) c center inside s region]) \
        search_join count";
    let index_plan = "cities_rep feed \
        (fun (c: city) states_rep (c center) point_search \
         filter[fun (s: state) c center inside s region]) \
        search_join count";

    db.reset_metrics();
    let scan_result = db.query(scan_plan).unwrap();
    let scan_reads = db.metrics().pool.logical_reads;

    db.reset_metrics();
    let index_result = db.query(index_plan).unwrap();
    let index_reads = db.metrics().pool.logical_reads;

    assert_eq!(scan_result, index_result, "plans must agree");
    assert!(as_count(&scan_result) > 200);
    assert!(
        index_reads * 3 < scan_reads,
        "index join should touch far fewer pages: index={index_reads}, scan={scan_reads}"
    );
}

#[test]
fn btree_range_touches_fewer_pages_than_scan() {
    let mut db = rep_db(5000, 2);
    // A ~1% selectivity range.
    db.reset_metrics();
    let via_scan = db
        .query("cities_rep feed filter[pop >= 0 and pop <= 1000] count")
        .unwrap();
    let scan_reads = db.metrics().pool.logical_reads;

    db.reset_metrics();
    let via_range = db.query("cities_rep range[0, 1000] count").unwrap();
    let range_reads = db.metrics().pool.logical_reads;

    assert_eq!(via_scan, via_range);
    assert!(
        range_reads * 5 < scan_reads,
        "range should touch far fewer pages: range={range_reads}, scan={scan_reads}"
    );
}

#[test]
fn full_range_equals_full_scan_cost_shape() {
    // At selectivity 1 the range query degenerates to the scan: both
    // read every leaf. (The crossover benchmark B1 sweeps between.)
    let mut db = rep_db(2000, 2);
    db.reset_metrics();
    let a = db.query("cities_rep feed count").unwrap();
    let scan_reads = db.metrics().pool.logical_reads;
    db.reset_metrics();
    let b = db.query("cities_rep range[0, 99999] count").unwrap();
    let range_reads = db.metrics().pool.logical_reads;
    assert_eq!(a, b);
    let ratio = range_reads as f64 / scan_reads as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "full-range and scan costs should be comparable: {range_reads} vs {scan_reads}"
    );
}

#[test]
fn collect_then_feed_preserves_results() {
    // Materializing an intermediate stream into an srel and feeding it
    // back is a no-op on contents (the paper's temporary relations).
    let mut db = rep_db(500, 2);
    let direct = db
        .query("cities_rep feed filter[pop > 50000] count")
        .unwrap();
    let via_srel = db
        .query("cities_rep feed filter[pop > 50000] collect feed count")
        .unwrap();
    assert_eq!(direct, via_srel);
}
