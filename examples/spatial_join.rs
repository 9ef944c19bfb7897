//! The running example of Sections 4–5: cities (points) joined with
//! states (polygons) by the `inside` predicate.
//!
//! The example builds the representation of Section 4 — a `btree` on the
//! cities and an `lsdtree` on the states' region bounding boxes — links
//! them through the `rep` catalog, and then shows:
//!
//! 1. the optimizer rewriting the model-level `join[center inside region]`
//!    into the paper's Section 5 plan (repeated LSD-tree `point_search`
//!    inside a `search_join`),
//! 2. the same query as the naive scan-based search join, and
//! 3. the page-touch counts of both plans.
//!
//! ```sh
//! cargo run --release --example spatial_join
//! ```

use sos_exec::Value;
use sos_geom::gen;
use sos_system::Database;

fn main() {
    let n_cities = 2000;
    let grid = 16; // 256 states

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
    .expect("schema");

    // Synthetic geography standing in for the paper's maps (DESIGN.md).
    let cities: Vec<Value> = gen::uniform_points(n_cities, 20260706)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Point(p),
                Value::Int((i as i64 * 13) % 1_000_000),
            ])
        })
        .collect();
    db.bulk_load("cities_rep", cities).expect("load cities");
    let states: Vec<Value> = gen::state_grid(grid, 7)
        .into_iter()
        .map(|(name, poly)| Value::tuple(vec![Value::Str(name), Value::Pgon(poly)]))
        .collect();
    db.bulk_load("states_rep", states).expect("load states");
    println!("loaded {n_cities} cities and {} states\n", grid * grid);

    // 1. What the optimizer does with the model-level join: the full
    //    structured report — the ordered rewrite trace (which rule fired,
    //    under which conditions, before/after terms), the plan tree, and
    //    the per-phase wall time.
    let query = "cities states join[center inside region]";
    let report = db.explain(query).expect("plan");
    println!("=== model query ===\n{query}\n");
    println!("=== explain (Section 5 rule) ===\n{report}");
    println!("applied rules: {}\n", report.applied_rules().join(", "));

    // 2. EXPLAIN ANALYZE: run the optimized plan and attach the actual
    //    per-operator tuple/page counts and pool traffic of that run.
    let analyzed = db
        .explain_analyze(&format!("{query} count"))
        .expect("analyze");
    println!("=== explain analyze ===\n{analyzed}");

    // 3. Run it, and the naive plan, and compare page touches.
    db.reset_metrics();
    let t0 = std::time::Instant::now();
    let optimized = db.query(&format!("{query} count")).expect("optimized run");
    let opt_time = t0.elapsed();
    let opt_stats = db.metrics().pool;

    let scan_plan = "cities_rep feed \
        (fun (c: city) states_rep feed filter[fun (s: state) c center inside s region]) \
        search_join count";
    db.reset_metrics();
    let t1 = std::time::Instant::now();
    let scanned = db.query(scan_plan).expect("scan run");
    let scan_time = t1.elapsed();
    let scan_stats = db.metrics().pool;

    assert_eq!(optimized, scanned, "both plans must agree");
    println!("=== results ===");
    println!("join pairs:           {optimized:?}");
    println!(
        "index plan:  {:>10} logical page reads, {opt_time:?}",
        opt_stats.logical_reads
    );
    println!(
        "scan plan:   {:>10} logical page reads, {scan_time:?}",
        scan_stats.logical_reads
    );
    println!(
        "page-touch ratio (scan / index): {:.1}x",
        scan_stats.logical_reads as f64 / opt_stats.logical_reads.max(1) as f64
    );
}
