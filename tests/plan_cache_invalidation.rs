//! Statement-cache invalidation: every code path that changes what a
//! parsed statement checks or rewrites to must evict the affected cached
//! plans — DDL, type definitions, new specs and catalog-relation
//! updates. A bulk load changes none of these and keeps the cached
//! plans over the loaded object. One test is the seeded
//! negative: after a schema change that retypes a representation,
//! executing the same query text must re-optimize against the new
//! schema, never run the stale plan. The last pins real literals
//! rebinding position by position.

use sos_exec::Value;
use sos_system::Database;

fn item_tuple(i: usize) -> Value {
    Value::tuple(vec![Value::Int(i as i64), Value::Str(format!("n{i}"))])
}

/// Model relation `items` represented by a B-tree, plus an unrelated
/// heap `other_rep`.
fn db() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (name, string)>);
        create items : rel(item);
        create items_rep : btree(item, k, int);
        create other_rep : tidrel(item);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, items_rep);
    "#,
    )
    .unwrap();
    db.bulk_load("items_rep", (0..200).map(item_tuple).collect())
        .unwrap();
    db.bulk_load("other_rep", (0..50).map(item_tuple).collect())
        .unwrap();
    db
}

/// Warm one query shape into the cache by running it, and prove it
/// hits (EXPLAIN looks up without filling).
fn warm(db: &mut Database, q: &str) {
    assert_eq!(db.explain(q).unwrap().plan_cache, Some(false), "cold `{q}`");
    db.query(q).unwrap();
    assert_eq!(db.explain(q).unwrap().plan_cache, Some(true), "hit `{q}`");
}

#[test]
fn create_statement_invalidates_every_cached_plan() {
    let mut db = db();
    warm(&mut db, "items select[k = 5]");
    warm(&mut db, "other_rep feed count");
    assert_eq!(db.metrics().planner.cache_entries, 2);
    db.run("create late_rep : tidrel(item);").unwrap();
    let m = db.metrics().planner;
    assert_eq!(m.cache_entries, 0, "DDL must drop every entry");
    assert!(m.cache_invalidations >= 2);
    assert_eq!(
        db.explain("items select[k = 5]").unwrap().plan_cache,
        Some(false),
        "post-DDL optimize must be a miss"
    );
}

#[test]
fn catalog_relation_update_invalidates_every_cached_plan() {
    let mut db = db();
    warm(&mut db, "other_rep feed count");
    db.run("create items_rep2 : btree(item, k, int);").unwrap();
    // The create above already cleared the cache; re-warm, then insert a
    // rep link — which changes which rules fire for every shape.
    warm(&mut db, "other_rep feed count");
    db.run("update rep := insert(rep, items, items_rep2);")
        .unwrap();
    assert_eq!(db.metrics().planner.cache_entries, 0);
}

#[test]
fn type_definition_invalidates_every_cached_plan() {
    let mut db = db();
    warm(&mut db, "items select[k = 5]");
    warm(&mut db, "other_rep feed count");
    // A named type expands into every lambda parameter naming it.
    db.run("type pair = tuple(<(a, int), (b, int)>);").unwrap();
    assert_eq!(db.metrics().planner.cache_entries, 0);
    assert_eq!(
        db.explain("items select[k = 5]").unwrap().plan_cache,
        Some(false)
    );
}

#[test]
fn load_spec_invalidates_every_cached_plan() {
    let mut db = db();
    warm(&mut db, "items select[k = 5]");
    warm(&mut db, "other_rep feed count");
    // New operators and overloads change what statements check to.
    db.load_spec(r##"op triple : int -> int syntax "_ #""##)
        .unwrap();
    assert_eq!(db.metrics().planner.cache_entries, 0);
    assert_eq!(
        db.explain("other_rep feed count").unwrap().plan_cache,
        Some(false)
    );
}

#[test]
fn delete_evicts_only_plans_touching_the_object() {
    let mut db = db();
    warm(&mut db, "items select[k = 5]");
    warm(&mut db, "other_rep feed count");
    assert_eq!(db.metrics().planner.cache_entries, 2);
    db.run("delete other_rep;").unwrap();
    let m = db.metrics().planner;
    assert_eq!(m.cache_entries, 1, "only the other_rep plan evicts");
    // The surviving shape still hits.
    assert_eq!(
        db.explain("items select[k = 5]").unwrap().plan_cache,
        Some(true)
    );
}

#[test]
fn deleting_a_catalog_relation_invalidates_every_cached_plan() {
    let mut db = db();
    warm(&mut db, "items select[k = 5] count");
    db.run("delete rep;").unwrap();
    assert_eq!(db.metrics().planner.cache_entries, 0);
    // Without its rep link the model relation, which is empty, is
    // queried itself; a stale plan would still read `items_rep`.
    assert_eq!(
        db.query("items select[k = 5] count").unwrap(),
        Value::Int(0)
    );
}

/// A bulk load keeps the loaded object's handle and type, and plans
/// read no data: the cached plans over it stay and see the loaded rows.
#[test]
fn bulk_load_keeps_cached_plans() {
    let mut db = db();
    warm(&mut db, "items select[k = 5] count");
    warm(&mut db, "other_rep feed count");
    assert_eq!(
        db.query("items select[k = 300] count").unwrap(),
        Value::Int(0)
    );
    db.bulk_load("items_rep", (200..400).map(item_tuple).collect())
        .unwrap();
    for q in ["items select[k = 5] count", "other_rep feed count"] {
        assert_eq!(
            db.explain(q).unwrap().plan_cache,
            Some(true),
            "`{q}` after the load"
        );
    }
    let hits = db.metrics().planner.cache_hits;
    assert_eq!(
        db.query("items select[k = 5] count").unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        db.query("items select[k = 300] count").unwrap(),
        Value::Int(1),
        "the cached plan must read the loaded rows"
    );
    assert_eq!(db.metrics().planner.cache_hits, hits + 2);
}

/// The seeded negative: retype `items`' representation from a B-tree to
/// a heap under a cached index plan. Executing the same query text must
/// re-optimize against the new schema — a stale cached plan would probe
/// a B-tree that no longer exists.
#[test]
fn stale_plan_after_schema_change_is_impossible() {
    let mut db = db();
    warm(&mut db, "items select[k = 5]");
    let cached = db.explain("items select[k = 5]").unwrap();
    assert!(
        cached.plan().contains("exactmatch"),
        "plan: {}",
        cached.plan()
    );

    // Retype the representation: drop the B-tree, rebuild as a heap.
    db.run("delete items_rep;").unwrap();
    db.run("create items_rep : tidrel(item);").unwrap();
    db.bulk_load("items_rep", (0..10).map(item_tuple).collect())
        .unwrap();

    let fresh = db.explain("items select[k = 5]").unwrap();
    assert_eq!(
        fresh.plan_cache,
        Some(false),
        "stale plan served from cache"
    );
    assert!(
        !fresh.plan().contains("exactmatch"),
        "plan still probes the dropped B-tree: {}",
        fresh.plan()
    );
    assert_eq!(
        db.query("items select[k = 5] count").unwrap(),
        Value::Int(1),
        "wrong result after representation change"
    );
}

#[test]
fn counters_surface_in_metrics_and_reset() {
    let mut db = db();
    warm(&mut db, "items select[k = 5]");
    let text = db.metrics().to_string();
    assert!(text.contains("plan cache:"), "metrics: {text}");
    db.reset_metrics();
    let m = db.metrics().planner;
    assert_eq!(
        (m.cache_hits, m.cache_misses, m.cache_invalidations),
        (0, 0, 0)
    );
    // Entries survive a counter reset (it resets metrics, not state).
    assert_eq!(m.cache_entries, 1);
}

/// Two real literals in one shape rebind to their own positions: the
/// first statement caches the shape, the second is a hit with other
/// literals.
#[test]
fn real_literals_rebind_by_position() {
    let mut db = Database::builder().build();
    assert_eq!(db.query("1.5 - 2.5").unwrap(), Value::Real(-1.0));
    assert_eq!(db.explain("4.0 - 1.0").unwrap().plan_cache, Some(true));
    assert_eq!(db.query("4.0 - 1.0").unwrap(), Value::Real(3.0));
    assert_eq!(db.metrics().planner.cache_hits, 1);
}
