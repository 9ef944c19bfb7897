//! Golden-file tests for the structured `Explain` rendering.
//!
//! `Explain::render(false)` omits the wall-clock line — the only
//! nondeterministic part of the report — so the full text (rewrite
//! trace with conditions, before/after terms, plan, plan tree) can be
//! compared byte-for-byte against checked-in golden files.
//!
//! Regenerate after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test --test explain_golden`.

use sos_exec::Value;
use sos_system::Database;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "explain output diverged from {} (run with UPDATE_GOLDEN=1 to regenerate)",
        path.display()
    );
}

/// The Section 4–5 running example: cities (B-tree on pop) and states
/// (LSD-tree on region bounding boxes), linked via the `rep` catalog.
fn spatial_db() -> Database {
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
    db
}

/// The Section 5 geometric join: `join[center inside region]` rewrites
/// through the spatial rule into repeated LSD-tree point searches
/// inside a `search_join`.
#[test]
fn geometric_join_explain_matches_golden() {
    let mut db = spatial_db();
    let report = db
        .explain("cities states join[center inside region]")
        .unwrap();
    // The rule trace is ordered: the spatial rule fires during index
    // selection, then the remaining model operators translate away.
    let rules = report.applied_rules();
    assert_eq!(
        rules.first(),
        Some(&"join-inside-lsdtree"),
        "trace: {rules:?}"
    );
    assert!(
        report.plan().contains("search_join"),
        "plan: {}",
        report.plan()
    );
    assert_golden("spatial_join_explain.txt", &report.render(false));
}

/// A keyed range selection: `select[pop >= c]` becomes a B-tree
/// `range_from` access.
#[test]
fn btree_range_explain_matches_golden() {
    let mut db = spatial_db();
    let report = db.explain("cities select[pop >= 50000]").unwrap();
    assert_eq!(
        report.applied_rules(),
        vec!["select-btree->="],
        "trace: {:?}",
        report.applied_rules()
    );
    assert_golden("btree_range_explain.txt", &report.render(false));
}

/// A keyed relation: `items` represented by a B-tree on `k`.
fn items_db() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (name, string)>);
        create items : rel(item);
        create items_rep : btree(item, k, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, items_rep);
    "#,
    )
    .unwrap();
    db
}

/// A conjunctive keyed selection: the index takes `k >= 1000` and the
/// residual conjunct is substituted into the filter's lambda — no
/// applied lambda is left in the plan.
#[test]
fn btree_residual_filter_explain_matches_golden() {
    let mut db = items_db();
    let report = db.explain("items select[k >= 1000 and k < 1900]").unwrap();
    assert_eq!(report.applied_rules(), vec!["select-btree-and->="]);
    assert_golden("btree_residual_filter_explain.txt", &report.render(false));
}

/// The Section 6 update translation as a stable report.
#[test]
fn update_translation_explain_matches_golden() {
    let mut db = items_db();
    let report = db
        .explain_update(r#"update items := insert(items, mktuple[(k, 7), (name, "x")]);"#)
        .unwrap();
    assert_eq!(
        report.kind,
        sos_system::ExplainKind::Update {
            target: "items_rep".into()
        }
    );
    assert_golden("update_insert_explain.txt", &report.render(false));
}

/// The items schema with 640 rows bulk-loaded into its B-tree.
fn loaded_items_db() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (name, string)>);
        create items : rel(item);
        create items_rep : btree(item, k, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, items_rep);
    "#,
    )
    .unwrap();
    db.bulk_load(
        "items_rep",
        (0..640)
            .map(|i| Value::tuple(vec![Value::Int(i as i64), Value::Str(format!("n{i}"))]))
            .collect(),
    )
    .unwrap();
    db
}

/// `EXPLAIN ANALYZE`: the plan, then what the run actually did
/// (result, pool traffic, per-operator batches, decoded rows), as a
/// stable report.
#[test]
fn explain_analyze_matches_golden() {
    let mut db = loaded_items_db();
    let report = db.explain_analyze("items select[k <= 100] count").unwrap();
    let text = report.render(false);
    assert!(!text.contains("est="), "report: {text}");
    assert!(text.contains("analyze:"), "report: {text}");
    assert_golden("select_explain_analyze.txt", &text);
}

/// The plan-cache line: before the statement runs, explain reports
/// `plan cache: miss`; once a statement of the same shape has run,
/// explain reports `plan cache: hit` with an empty rewrite trace (the
/// rewriter never ran) and this statement's literal in the plan.
#[test]
fn plan_cache_hit_explain_matches_golden() {
    let mut db = items_db();
    let miss = db.explain("items select[k <= 100]").unwrap();
    assert!(
        miss.render(false).contains("plan cache: miss"),
        "report: {}",
        miss.render(false)
    );
    db.query("items select[k <= 7]").unwrap();
    let hit = db.explain("items select[k <= 100]").unwrap();
    assert!(hit.rewrites.is_empty());
    assert_eq!(hit.plan(), miss.plan());
    assert_golden("plan_cache_hit_explain.txt", &hit.render(false));
}
