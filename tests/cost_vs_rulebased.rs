//! Differential cost-based-vs-rule-based harness.
//!
//! Cost-based optimization may only ever change *which* equivalent plan
//! runs, never what it computes: every query in the corpus must produce
//! the identical bag of tuples with costing on and off, at batch widths
//! 1 and 1024, over objects with collected statistics.
//!
//! On top of the bag-equality net, the suite pins the two plan choices
//! the cost model is expected to flip (a non-selective keyed selection
//! away from the index, a small-outer equi-join onto an index-probe
//! search join), checks that statement-cache hits rebind byte-identical
//! plans for queries and updates, and round-trips collected statistics through save/open and
//! WAL crash recovery.

use proptest::prelude::*;
use sos_core::Symbol;
use sos_exec::{render, Value};
use sos_geom::gen;
use sos_storage::{DiskManager, MemDisk};
use sos_system::{Database, DurabilityConfig};
use std::cell::RefCell;
use std::sync::Arc;

const N_ITEMS: usize = 2000;
const N_MATES: usize = 6400;
const N_PICKS: usize = 8;
const N_CITIES: usize = 600;

/// The 17-query corpus: rep-level scans, probes and joins (immune to
/// the model rules, so costing must leave them untouched) plus
/// model-level selections and joins where rule alternatives compete.
const QUERIES: &[&str] = &[
    "heap_rep feed count",
    "heap_rep feed filter[fun (t: item) (t k > 100) and (t k <= 400)] consume",
    "bt_rep feed count",
    "bt_rep exactmatch[777] consume",
    "bt_rep range[100, 400] consume",
    "items select[k = 777]",
    "items select[k >= 0] count",
    "items select[k >= 1900]",
    "items select[k < 250] count",
    "items select[k <= 55]",
    "items select[k > 1500] count",
    "items select[fun (t: item) t k >= 100 and t grp = 3] count",
    "picks mates join[k = j] count",
    "items mates join[k = j] count",
    "cities states join[center inside region] count",
    "cities select[pop >= 0] count",
    "states_rep feed count",
];

fn item_tuple(i: usize) -> Value {
    Value::tuple(vec![
        Value::Int(i as i64),
        Value::Int((i % 10) as i64),
        Value::Str(format!("pad{i:06}")),
    ])
}

fn mate_tuple(i: usize) -> Value {
    // Wide payload on purpose: the inner relation of the join-flip test
    // must occupy enough pages that reading it whole (hash join) costs
    // clearly more than a handful of index probes.
    Value::tuple(vec![Value::Int(i as i64), Value::Str(format!("m{i:0120}"))])
}

/// Model relations with representation links (the model rules need the
/// `rep` catalog), plus directly-queried storage objects. The model
/// relations stay empty: every corpus query over them matches a
/// translation rule, so only the representations are ever scanned.
fn build_db(batch: usize, cost: bool) -> Database {
    let mut db = Database::builder()
        .batch_size(batch)
        .cost_based(cost)
        .build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        type mate = tuple(<(j, int), (tag, string)>);
        type city = tuple(<(cname, string), (center, point), (pop, int)>);
        type state = tuple(<(sname, string), (region, pgon)>);
        create items : rel(item);
        create picks : rel(item);
        create mates : rel(mate);
        create cities : rel(city);
        create states : rel(state);
        create heap_rep : tidrel(item);
        create bt_rep : btree(item, k, int);
        create picks_heap : tidrel(item);
        create mate_bt : btree(mate, j, int);
        create cities_rep : btree(city, pop, int);
        create states_rep : lsdtree(state, fun (s: state) bbox(s region));
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, bt_rep);
        update rep := insert(rep, picks, picks_heap);
        update rep := insert(rep, mates, mate_bt);
        update rep := insert(rep, cities, cities_rep);
        update rep := insert(rep, states, states_rep);
    "#,
    )
    .unwrap();
    db
}

fn load_db(db: &mut Database) {
    let items: Vec<Value> = (0..N_ITEMS).map(item_tuple).collect();
    db.bulk_load("heap_rep", items.clone()).unwrap();
    db.bulk_load("bt_rep", items).unwrap();
    db.bulk_load("mate_bt", (0..N_MATES).map(mate_tuple).collect())
        .unwrap();
    db.bulk_load(
        "picks_heap",
        (0..N_PICKS).map(|i| item_tuple(i * 100)).collect(),
    )
    .unwrap();
    let cities: Vec<Value> = gen::uniform_points(N_CITIES, 42)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Point(p),
                Value::Int((i as i64 * 7919) % 1_000_000),
            ])
        })
        .collect();
    db.bulk_load("cities_rep", cities).unwrap();
    let states: Vec<Value> = gen::state_grid(3, 43)
        .into_iter()
        .map(|(n, p)| Value::tuple(vec![Value::Str(n), Value::Pgon(p)]))
        .collect();
    db.bulk_load("states_rep", states).unwrap();
}

/// A canonical rendering of a query result: collections become the
/// sorted multiset of rendered tuples, scalars render directly.
fn canon(v: &Value) -> String {
    match v {
        Value::Rel(ts) | Value::Stream(ts) => {
            let mut rows: Vec<String> = ts.iter().map(render).collect();
            rows.sort();
            format!("[{}]", rows.join(", "))
        }
        other => render(other),
    }
}

fn corpus_db(batch: usize, cost: bool) -> Database {
    let mut db = build_db(batch, cost);
    load_db(&mut db);
    db.analyze_all().unwrap();
    db
}

/// Whether a plan tree holds a beta-redex: an `apply` node (a function
/// value applied) whose function child is a lambda.
fn has_redex(plan_tree: &str) -> bool {
    let lines: Vec<&str> = plan_tree.lines().collect();
    lines
        .windows(2)
        .any(|w| w[0].trim() == "apply" && w[1].trim_start().starts_with("fun ("))
}

/// The tentpole net: cost-based planning must be bag-equal to the
/// historical rule-based planner on every query and batch width. Every
/// plan, with costing on and off, is beta-normal:
/// rule instantiation substitutes function variables instead of
/// applying lambdas.
#[test]
fn cost_based_plans_are_bag_equal_to_rule_based() {
    for batch in [1usize, 1024] {
        let mut off = corpus_db(batch, false);
        let mut on = corpus_db(batch, true);
        for q in QUERIES {
            for db in [&mut off, &mut on] {
                let e = db.explain(q).unwrap();
                assert!(
                    !has_redex(&e.plan_tree),
                    "plan of `{q}` applies a lambda: {}",
                    e.plan()
                );
            }
            let want = canon(&off.query(q).unwrap());
            let got = canon(&on.query(q).unwrap());
            assert_eq!(got, want, "cost-based diverged on `{q}` (batch={batch})");
        }
    }
}

/// Plan flip 1: with statistics showing a keyed range qualifies (nearly)
/// the whole relation, the scan alternative must beat the index range;
/// a selective probe must stay on the index.
#[test]
fn cost_model_flips_nonselective_select_to_a_scan() {
    let mut off = corpus_db(1024, false);
    let mut on = corpus_db(1024, true);

    // Rule-based: always the index, even when it qualifies every row.
    let e = off.explain("items select[k >= 0]").unwrap();
    assert_eq!(e.applied_rules(), vec!["select-btree->="]);
    assert!(e.plan().contains("range_from"), "plan: {}", e.plan());

    // Cost-based: the scan alternative wins for the full-range predicate…
    let e = on.explain("items select[k >= 0]").unwrap();
    assert_eq!(
        e.applied_rules(),
        vec!["select-btree->=-scan"],
        "trace: {:?}",
        e.applied_rules()
    );
    assert!(e.plan().contains("filter"), "plan: {}", e.plan());
    assert!(!e.plan().contains("range_from"), "plan: {}", e.plan());

    // …while a selective probe keeps the index.
    let e = on.explain("items select[k = 777]").unwrap();
    assert_eq!(e.applied_rules(), vec!["select-btree-="]);
    assert!(e.plan().contains("exactmatch"), "plan: {}", e.plan());
}

/// Plan flip 2: a small outer joined to a large indexed inner must move
/// from the hash join to the index-probe search join — and only there
/// (a large outer keeps the hash join).
#[test]
fn cost_model_flips_small_outer_join_to_index_probes() {
    let mut off = corpus_db(1024, false);
    let mut on = corpus_db(1024, true);

    let e = off.explain("picks mates join[k = j]").unwrap();
    assert_eq!(e.applied_rules(), vec!["join-equi-hashjoin"]);
    assert!(e.plan().contains("hashjoin"), "plan: {}", e.plan());

    let e = on.explain("picks mates join[k = j]").unwrap();
    assert_eq!(
        e.applied_rules(),
        vec!["join-equi-index-probe"],
        "trace: {:?}",
        e.applied_rules()
    );
    assert!(e.plan().contains("search_join"), "plan: {}", e.plan());
    assert!(e.plan().contains("exactmatch"), "plan: {}", e.plan());

    // Comparable cardinalities: the hash join stays.
    let e = on.explain("items mates join[k = j]").unwrap();
    assert_eq!(e.applied_rules(), vec!["join-equi-hashjoin"]);
}

/// A plan served from the statement cache must be byte-identical to a
/// fresh optimize of the same statement with its own literals, and its
/// execution must match the cost-based database, which bypasses the
/// cache.
#[test]
fn plan_cache_hits_are_byte_identical_and_result_equal() {
    let mut reference = corpus_db(1024, true);
    let mut cached = corpus_db(1024, false);
    for q in QUERIES {
        cached.clear_plan_cache();
        let fresh = cached.explain(q).unwrap();
        assert_eq!(fresh.plan_cache, Some(false), "cleared cache, `{q}`");
        // The first run fills the cache; the second is a hit.
        let filled = canon(&cached.query(q).unwrap());
        let hit = cached.explain(q).unwrap();
        assert_eq!(hit.plan_cache, Some(true), "`{q}` after it ran");
        assert_eq!(
            fresh.plan(),
            hit.plan(),
            "cache hit rebound a different plan for `{q}`"
        );
        assert!(hit.rewrites.is_empty(), "a hit must skip the rewriter");
        let again = canon(&cached.query(q).unwrap());
        let want = canon(&reference.query(q).unwrap());
        assert_eq!(filled, want, "cached execution diverged on `{q}`");
        assert_eq!(again, want, "cache-hit execution diverged on `{q}`");
    }
    let m = cached.metrics().planner;
    assert!(
        m.cache_hits >= QUERIES.len() as u64,
        "hits: {}",
        m.cache_hits
    );
    assert!(m.cache_entries > 0);
    assert_eq!(reference.metrics().planner.cache_entries, 0);
}

// ---- proptest: random literal rebindings through the cache ----

/// One shared pair of databases for the rebinding property: building
/// and loading per case would dominate the run. The cost-based one
/// optimizes every statement with its own literals; the rule-based one
/// serves repeated shapes from the statement cache. A `Database` stays
/// on its thread, so the pair is thread-local.
fn with_shared_dbs<R>(f: impl FnOnce(&mut Database, &mut Database) -> R) -> R {
    thread_local! {
        static DBS: RefCell<(Database, Database)> =
            RefCell::new((corpus_db(1024, true), corpus_db(1024, false)));
    }
    DBS.with_borrow_mut(|(cold, cached)| f(cold, cached))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every literal rebinding of a cached shape — queries and updates —
    /// must execute exactly like a cold optimize of the same statement.
    #[test]
    fn cached_rebindings_match_cold_optimize(a in -100i64..2200, b in -100i64..2200) {
        let (lo, hi) = (a.min(b), a.max(b));
        let queries = [
            format!("items select[k = {a}]"),
            format!("items select[k >= {a}] count"),
            format!("bt_rep range[{lo}, {hi}] consume"),
            format!("items select[fun (t: item) t k >= {lo} and t k <= {hi}] count"),
        ];
        let updates = [
            format!(
                "update items := insert(items, mktuple[(k, {a}), (grp, {}), (pad, \"ins{b}\")]);",
                b.rem_euclid(10)
            ),
            format!("update items := delete(items, fun (t: item) t k = {b});"),
        ];
        with_shared_dbs(|cold, cached| {
            for q in &queries {
                let want = canon(&cold.query(q).unwrap());
                let got = canon(&cached.query(q).unwrap());
                prop_assert!(got == want, "rebinding diverged on `{}`: {} != {}", q, got, want);
            }
            for u in &updates {
                cold.run(u).unwrap();
                cached.run(u).unwrap();
                let want = canon(&cold.query("bt_rep feed consume").unwrap());
                let got = canon(&cached.query("bt_rep feed consume").unwrap());
                prop_assert!(got == want, "bags diverged after `{}`", u);
            }
            Ok(())
        })?;
    }
}

// ---- statistics persistence ----

/// Collected statistics live in the catalog and must survive save/open.
#[test]
fn statistics_survive_save_and_open() {
    let dir = std::env::temp_dir().join(format!("sos_stats_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected;
    {
        let mut db = Database::open_dir(&dir).unwrap();
        db.run(
            r#"
            type item = tuple(<(k, int), (grp, int), (pad, string)>);
            create bt_rep : btree(item, k, int);
        "#,
        )
        .unwrap();
        db.bulk_load("bt_rep", (0..500).map(item_tuple).collect())
            .unwrap();
        expected = db.analyze("bt_rep").unwrap();
        assert_eq!(expected.rows, 500);
        assert!(expected.key_histogram.is_some());
        db.save(&dir).unwrap();
    }
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(
        db.catalog().stats(&Symbol::new("bt_rep")),
        Some(&expected),
        "statistics changed across save/open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Statistics committed before a crash are restored by WAL recovery.
#[test]
fn statistics_survive_crash_recovery() {
    let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let wal: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let expected;
    {
        let mut db = Database::builder()
            .durability(DurabilityConfig::disks(Arc::clone(&data), Arc::clone(&wal)))
            .try_build()
            .unwrap();
        db.run(
            r#"
            type item = tuple(<(k, int), (grp, int), (pad, string)>);
            create bt_rep : btree(item, k, int);
        "#,
        )
        .unwrap();
        db.bulk_load("bt_rep", (0..500).map(item_tuple).collect())
            .unwrap();
        expected = db.analyze("bt_rep").unwrap();
        // Dropped without save: recovery must replay the WAL.
    }
    let db = Database::builder()
        .durability(DurabilityConfig::disks(data, wal))
        .try_build()
        .unwrap();
    assert_eq!(
        db.catalog().stats(&Symbol::new("bt_rep")),
        Some(&expected),
        "statistics lost in crash recovery"
    );
}
