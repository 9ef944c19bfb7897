//! E7/E8 — Section 6: updates within the framework and the catalog.
//! Reproduces the paper's example trace: the `rep` catalog connects
//! `cities` to `cities_rep`; model-level `insert`, `delete` and `modify`
//! statements are translated by the optimizer into B-tree updates —
//! including the key-update case that must use `re_insert`.

use sos_core::Symbol;
use sos_exec::Value;
use sos_system::{Database, Output};

/// The Section 6 setup: model object + B-tree representation + catalog.
fn db6() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(cname, string), (pop, int), (country, string)>);
        create cities : rel(city);
        create cities_rep : btree(city, pop, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, cities, cities_rep);
    "#,
    )
    .unwrap();
    db
}

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

#[test]
fn catalog_links_are_recorded() {
    let db = db6();
    assert_eq!(
        db.catalog()
            .linked(&Symbol::new("rep"), &Symbol::new("cities")),
        vec![Symbol::new("cities_rep")]
    );
    // Idempotent: re-inserting the same link does not duplicate it.
    let mut db = db;
    db.run("update rep := insert(rep, cities, cities_rep);")
        .unwrap();
    assert_eq!(
        db.catalog()
            .relation(&Symbol::new("rep"))
            .unwrap()
            .rows
            .len(),
        1
    );
}

/// `update cities := insert(cities, c)` becomes
/// `update cities_rep := insert(cities_rep, c)` — the paper's trace.
#[test]
fn model_insert_translates_to_btree_insert() {
    let mut db = db6();
    let outs = db
        .run(r#"update cities := insert(cities, mktuple[(cname, "Hagen"), (pop, 190000), (country, "Germany")]);"#)
        .unwrap();
    // The statement's actual target is the representation object.
    let Output::Updated(target) = &outs[0] else {
        panic!()
    };
    assert_eq!(target.as_str(), "cities_rep");
    // The tuple is in the B-tree; the model object holds no value.
    assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 1);
    // And the model-level query over `cities` sees it (via translation).
    assert_eq!(
        as_count(&db.query("cities select[pop > 0] count").unwrap()),
        1
    );
}

fn fill(db: &mut Database, n: i64) {
    let tuples: Vec<Value> = (0..n)
        .map(|i| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Int(i * 1000),
                Value::Str(if i % 2 == 0 { "Germany" } else { "India" }.to_string()),
            ])
        })
        .collect();
    db.bulk_load("cities_rep", tuples).unwrap();
}

/// `update cities := delete(cities, pop <= 10000)` — the tuples to be
/// deleted are found by a search on the B-tree (the paper translates
/// this to a range search feeding the delete).
#[test]
fn model_delete_translates_and_deletes() {
    let mut db = db6();
    fill(&mut db, 50);
    let outs = db
        .run("update cities := delete(cities, fun (c: city) c pop <= 10000);")
        .unwrap();
    let Output::Updated(target) = &outs[0] else {
        panic!()
    };
    assert_eq!(target.as_str(), "cities_rep");
    // pops 0..=10000 are 11 tuples; 39 remain.
    assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 39);
}

/// The paper's final example: updating the key attribute translates to
/// `re_insert` (delete at the old key position, insert at the new one).
#[test]
fn key_update_translates_to_re_insert() {
    let mut db = db6();
    fill(&mut db, 20);
    let plan_stmt = r#"update cities := modify(cities, fun (c: city) c country = "India", pop, fun (c: city) c pop * 2);"#;
    db.run(plan_stmt).unwrap();
    // The 10 India cities had pops 1000,3000,...,19000 -> now doubled.
    assert_eq!(
        as_count(&db.query("cities_rep exactmatch[38000] count").unwrap()),
        1
    );
    assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 20);
    // Clustering order is maintained after the key update.
    let Value::Stream(ts) = db.query("cities_rep feed").unwrap() else {
        panic!()
    };
    let pops: Vec<i64> = ts
        .iter()
        .map(|t| match t {
            Value::Tuple(fs) => match fs[1] {
                Value::Int(p) => p,
                _ => panic!(),
            },
            _ => panic!(),
        })
        .collect();
    assert!(pops.windows(2).all(|w| w[0] <= w[1]));
}

/// Updating a non-key attribute translates to the in-situ `modify`.
#[test]
fn non_key_update_translates_to_in_situ_modify() {
    let mut db = db6();
    fill(&mut db, 10);
    db.run(r#"update cities := modify(cities, fun (c: city) c pop >= 0, country, fun (c: city) "Everywhere");"#)
        .unwrap();
    assert_eq!(
        as_count(
            &db.query(r#"cities_rep feed filter[country = "Everywhere"] count"#)
                .unwrap()
        ),
        10
    );
}

/// Representation-level updates can also be written directly (mixed
/// programs, Section 6): stream_insert, delete-by-stream, re_insert.
#[test]
fn direct_representation_updates() {
    let mut db = db6();
    fill(&mut db, 30);
    // Copy low-pop tuples into a temporary srel via collect, then delete
    // them from the B-tree by feeding the srel.
    db.run(
        r#"
        create tmp : srel(city);
        update tmp := stream_insert(tmp, cities_rep range_to[5000]);
        update cities_rep := delete(cities_rep, tmp feed);
    "#,
    )
    .unwrap();
    assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 24);
    // And put them back with stream_insert.
    db.run("update cities_rep := stream_insert(cities_rep, tmp feed);")
        .unwrap();
    assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 30);
}

/// The representation-level `modify` refuses key changes (that is what
/// `re_insert` is for) — the paper's distinction between the two.
#[test]
fn rep_modify_rejects_key_changes() {
    let mut db = db6();
    fill(&mut db, 5);
    let result = db.run(
        "update cities_rep := modify(cities_rep, cities_rep feed, \
         fun (s: stream(city)) s replace[pop, fun (c: city) c pop + 1]);",
    );
    assert!(result.is_err(), "in-situ modify must reject key changes");
    // The equivalent re_insert succeeds.
    db.run(
        "update cities_rep := re_insert(cities_rep, cities_rep feed, \
         fun (s: stream(city)) s replace[pop, fun (c: city) c pop + 1]);",
    )
    .unwrap();
    assert_eq!(
        as_count(&db.query("cities_rep exactmatch[1] count").unwrap()),
        1
    );
}

/// E8 — the catalog is an ordinary algebraic object: arity enforced,
/// deletable, usable by multiple links.
#[test]
fn catalog_is_an_algebraic_object() {
    let mut db = db6();
    // A second representation for the same model object.
    db.run(
        r#"
        create cities_tid : tidrel(city);
        update rep := insert(rep, cities, cities_tid);
    "#,
    )
    .unwrap();
    assert_eq!(
        db.catalog()
            .linked(&Symbol::new("rep"), &Symbol::new("cities"))
            .len(),
        2
    );
    // Wrong arity is rejected at the type level (ternary row into a
    // binary catalog has no matching spec).
    assert!(db
        .run("update rep := insert(rep, cities, cities_rep, cities_tid);")
        .is_err());
}

/// Section 6's range-driven delete: a delete whose predicate compares
/// the B-tree key is translated to an index search feeding the delete.
#[test]
fn key_predicate_delete_uses_the_index() {
    let mut db = db6();
    let tuples: Vec<Value> = (0..5000)
        .map(|i| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Int(i),
                Value::Str("X".to_string()),
            ])
        })
        .collect();
    db.bulk_load("cities_rep", tuples.clone()).unwrap();

    // The translated statement uses range_to on the representation.
    db.reset_metrics();
    db.run("update cities := delete(cities, fun (c: city) c pop <= 49);")
        .unwrap();
    let index_reads = db.metrics().pool.logical_reads;
    assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 4950);

    // The same deletion done by an explicit scan-based plan reads every
    // leaf page to find the 50 doomed tuples.
    let mut db2 = db6();
    db2.bulk_load("cities_rep", tuples).unwrap();
    // What a full leaf scan of this tree costs, and what a descent to
    // its first leaf costs (the one leaf page both plans read).
    let reads = |db: &mut Database, q: &str| {
        db.reset_metrics();
        db.query(q).unwrap();
        db.metrics().pool.logical_reads
    };
    let leaf_scan = reads(&mut db2, "cities_rep feed count");
    let first_leaf = reads(&mut db2, "cities_rep exactmatch[0] count");
    db2.reset_metrics();
    db2.run(
        "update cities_rep := delete(cities_rep, \
         cities_rep feed filter[fun (c: city) c pop <= 49]);",
    )
    .unwrap();
    let scan_reads = db2.metrics().pool.logical_reads;
    assert_eq!(as_count(&db2.query("cities_rep feed count").unwrap()), 4950);
    // Both plans pay the per-tuple B-tree descent on deletion (our
    // materialized streams do not retain leaf positions — see DESIGN.md);
    // the index plan saves the whole leaf scan but the first leaf.
    assert!(
        index_reads + leaf_scan - first_leaf <= scan_reads,
        "index-driven delete should save the leaf scan: index={index_reads}, \
         scan={scan_reads}, leaf scan={leaf_scan}, first leaf={first_leaf}"
    );
}

/// `vacuum` rebuilds a B-tree after mass deletion: contents unchanged,
/// full-scan page touches drop.
#[test]
fn vacuum_reclaims_pages_after_mass_deletion() {
    let mut db = db6();
    let tuples: Vec<Value> = (0..5000)
        .map(|i| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Int(i),
                Value::Str("X".into()),
            ])
        })
        .collect();
    db.bulk_load("cities_rep", tuples).unwrap();
    // Keep 1 in 100 tuples.
    db.run("update cities := delete(cities, fun (c: city) c pop mod 100 != 0);")
        .unwrap();
    let before = as_count(&db.query("cities_rep feed count").unwrap());
    db.reset_metrics();
    db.query("cities_rep feed count").unwrap();
    let reads_before = db.metrics().pool.logical_reads;

    db.run("update cities_rep := vacuum(cities_rep);").unwrap();

    let after = as_count(&db.query("cities_rep feed count").unwrap());
    assert_eq!(before, after, "vacuum must not change contents");
    db.reset_metrics();
    db.query("cities_rep feed count").unwrap();
    let reads_after = db.metrics().pool.logical_reads;
    assert!(
        reads_after * 4 < reads_before,
        "vacuum should shrink the scan: {reads_before} -> {reads_after}"
    );
}

/// `rel_insert` (bulk append) between represented relations becomes a
/// representation-level `stream_insert` over a feed.
#[test]
fn rel_insert_translates_to_stream_insert() {
    let mut db = db6();
    db.run(
        r#"
        create more : rel(city);
        create more_rep : btree(city, pop, int);
        update rep := insert(rep, more, more_rep);
    "#,
    )
    .unwrap();
    fill(&mut db, 10);
    db.bulk_load(
        "more_rep",
        (0..5)
            .map(|i| {
                Value::tuple(vec![
                    Value::Str(format!("extra{i}")),
                    Value::Int(100_000 + i),
                    Value::Str("X".into()),
                ])
            })
            .collect(),
    )
    .unwrap();
    let outs = db
        .run("update cities := rel_insert(cities, more);")
        .unwrap();
    let Output::Updated(target) = &outs[0] else {
        panic!()
    };
    assert_eq!(target.as_str(), "cities_rep");
    assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 15);
}

/// `explain_update` shows the Section 6 trace: the translated statement
/// with its representation-level target.
#[test]
fn explain_update_shows_the_translation() {
    let mut db = db6();
    let report = db
        .explain_update(
            r#"update cities := insert(cities, mktuple[(cname, "X"), (pop, 1), (country, "Y")]);"#,
        )
        .unwrap();
    let shown = report.statement();
    assert!(
        shown.starts_with("update cities_rep := insert(cities_rep,"),
        "{shown}"
    );
    assert_eq!(
        report.kind,
        sos_system::ExplainKind::Update {
            target: "cities_rep".into()
        }
    );
    let shown2 = db
        .explain_update("update cities := delete(cities, fun (c: city) c pop <= 10);")
        .unwrap()
        .statement();
    assert!(shown2.contains("range_to(cities_rep"), "{shown2}");
    // Non-update statements are rejected.
    assert!(db.explain_update("query cities count;").is_err());
}
