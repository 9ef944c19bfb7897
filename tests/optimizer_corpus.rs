//! Differential optimizer corpus: optimized plans vs the unoptimized
//! model-level reference.
//!
//! The optimizer may only ever change *how* a statement runs, never
//! what it computes: every query in the corpus must produce the
//! identical bag of tuples when optimized (at batch widths 1 and 1024,
//! planned through the statement cache) as when run unoptimized over
//! the model relations (`optimize(false)`).
//!
//! On top of the bag-equality net, the suite checks that a hand-written
//! index-probe join agrees with the optimizer's hash join, and that
//! statement-cache hits rebind byte-identical plans for queries and
//! updates.

use proptest::prelude::*;
use sos_exec::{render, Value};
use sos_geom::gen;
use sos_system::Database;
use std::cell::RefCell;
use std::sync::OnceLock;

const N_ITEMS: usize = 2000;
const N_MATES: usize = 6400;
const N_PICKS: usize = 8;
const N_CITIES: usize = 600;

/// The 17-query corpus: rep-level scans, probes and joins (immune to
/// the model rules, so the optimizer leaves them untouched) plus
/// model-level selections and joins the index and translation rules
/// rewrite.
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
    // Wide payload: the inner relation spans many B-tree pages.
    Value::tuple(vec![Value::Int(i as i64), Value::Str(format!("m{i:0120}"))])
}

/// Model relations with representation links (the model rules need the
/// `rep` catalog), plus directly-queried storage objects.
fn build_db(batch: usize, optimize: bool) -> Database {
    let mut db = Database::builder()
        .batch_size(batch)
        .optimize(optimize)
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

/// Load every representation, and — for the unoptimized reference,
/// which runs the model operators over the model relations themselves —
/// every model relation with the same tuples as its representation. An
/// optimized database keeps its model relations empty: every corpus
/// query over them matches a translation rule, so a plan that read a
/// model relation would come back empty and diverge.
fn load_db(db: &mut Database, model_too: bool) {
    let items: Vec<Value> = (0..N_ITEMS).map(item_tuple).collect();
    db.bulk_load("heap_rep", items.clone()).unwrap();
    // `rep` gets the tuples; so does `model` in the reference.
    let mut load = |rep: &str, model: &str, tuples: Vec<Value>| {
        if model_too {
            db.bulk_load(model, tuples.clone()).unwrap();
        }
        db.bulk_load(rep, tuples).unwrap();
    };
    load("bt_rep", "items", items);
    load("mate_bt", "mates", (0..N_MATES).map(mate_tuple).collect());
    load(
        "picks_heap",
        "picks",
        (0..N_PICKS).map(|i| item_tuple(i * 100)).collect(),
    );
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
    load("cities_rep", "cities", cities);
    let states: Vec<Value> = gen::state_grid(3, 43)
        .into_iter()
        .map(|(n, p)| Value::tuple(vec![Value::Str(n), Value::Pgon(p)]))
        .collect();
    load("states_rep", "states", states);
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

/// An optimized corpus database at batch width `batch`.
fn corpus_db(batch: usize) -> Database {
    let mut db = build_db(batch, true);
    load_db(&mut db, false);
    db
}

/// The unoptimized reference: model operators over loaded model
/// relations.
fn reference_db() -> Database {
    let mut db = build_db(1024, false);
    load_db(&mut db, true);
    db
}

/// The reference answer to every corpus query, computed once (the
/// model-level `items mates join` is a 2 000 × 6 400 nested loop).
fn reference_answers() -> &'static [String] {
    static ANSWERS: OnceLock<Vec<String>> = OnceLock::new();
    ANSWERS.get_or_init(|| {
        let mut db = reference_db();
        QUERIES
            .iter()
            .map(|q| canon(&db.query(q).unwrap()))
            .collect()
    })
}

/// Whether a plan tree holds a beta-redex: an `apply` node (a function
/// value applied) whose function child is a lambda.
fn has_redex(plan_tree: &str) -> bool {
    let lines: Vec<&str> = plan_tree.lines().collect();
    lines
        .windows(2)
        .any(|w| w[0].trim() == "apply" && w[1].trim_start().starts_with("fun ("))
}

/// The net: every optimized plan is bag-equal to the unoptimized
/// reference on every query and batch width. Every plan is beta-normal:
/// rule instantiation substitutes function variables instead of
/// applying lambdas.
#[test]
fn optimized_plans_are_bag_equal_to_unoptimized() {
    let want = reference_answers();
    for batch in [1usize, 1024] {
        let mut db = corpus_db(batch);
        for (q, want) in QUERIES.iter().zip(want) {
            let e = db.explain(q).unwrap();
            assert!(
                !has_redex(&e.plan_tree),
                "plan of `{q}` applies a lambda: {}",
                e.plan()
            );
            let got = canon(&db.query(q).unwrap());
            assert_eq!(
                &got, want,
                "optimized plan diverged on `{q}` (batch={batch})"
            );
        }
    }
}

/// The index-probe equi-join, written by hand at the representation
/// level (one `exactmatch` on the inner B-tree per outer tuple), counts
/// what the optimizer's hash join counts.
#[test]
fn hand_written_index_probe_join_matches_the_hash_join() {
    let mut db = corpus_db(1024);
    let e = db.explain("picks mates join[k = j] count").unwrap();
    assert_eq!(e.applied_rules(), vec!["join-equi-hashjoin"]);
    let probe = "picks_heap feed (fun (t1: item) mate_bt exactmatch[t1 k]) search_join count";
    let probes = db.explain(probe).unwrap();
    assert!(probes.rewrites.is_empty(), "{:?}", probes.applied_rules());
    assert!(
        probes.plan().contains("search_join"),
        "plan: {}",
        probes.plan()
    );
    let want = db.query("picks mates join[k = j] count").unwrap();
    assert_eq!(want, Value::Int(N_PICKS as i64));
    assert_eq!(db.query(probe).unwrap(), want);
}

/// A plan served from the statement cache must be byte-identical to a
/// fresh optimize of the same statement with its own literals, and its
/// execution must match the unoptimized reference.
#[test]
fn plan_cache_hits_are_byte_identical_and_result_equal() {
    let reference = reference_answers();
    let mut cached = corpus_db(1024);
    for (q, want) in QUERIES.iter().zip(reference) {
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
        assert_eq!(&filled, want, "cached execution diverged on `{q}`");
        assert_eq!(&again, want, "cache-hit execution diverged on `{q}`");
    }
    let m = cached.metrics().planner;
    assert!(
        m.cache_hits >= QUERIES.len() as u64,
        "hits: {}",
        m.cache_hits
    );
    assert!(m.cache_entries > 0);
}

// ---- proptest: random literal rebindings through the cache ----

/// One shared pair of databases for the rebinding property: building
/// and loading per case would dominate the run. The reference runs
/// every statement unoptimized over the model relations; the optimized
/// one serves repeated shapes from the statement cache. A `Database`
/// stays on its thread, so the pair is thread-local.
fn with_shared_dbs<R>(f: impl FnOnce(&mut Database, &mut Database) -> R) -> R {
    thread_local! {
        static DBS: RefCell<(Database, Database)> =
            RefCell::new((reference_db(), corpus_db(1024)));
    }
    DBS.with_borrow_mut(|(reference, cached)| f(reference, cached))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every literal rebinding of a cached shape — queries and updates —
    /// must execute exactly like the same statement run unoptimized.
    #[test]
    fn cached_rebindings_match_cold_optimize(a in -100i64..2200, b in -100i64..2200) {
        let (lo, hi) = (a.min(b), a.max(b));
        // (reference, optimized) pairs: the reference's `bt_rep` misses
        // the updates below, so the rep-level range reads the model
        // relation there.
        let range = format!("items select[fun (t: item) t k >= {lo} and t k <= {hi}]");
        let queries = [
            (format!("items select[k = {a}]"), None),
            (format!("items select[k >= {a}] count"), None),
            (range.clone(), Some(format!("bt_rep range[{lo}, {hi}] consume"))),
            (format!("{range} count"), None),
        ];
        let updates = [
            format!(
                "update items := insert(items, mktuple[(k, {a}), (grp, {}), (pad, \"ins{b}\")]);",
                b.rem_euclid(10)
            ),
            format!("update items := delete(items, fun (t: item) t k = {b});"),
        ];
        // Every item has `grp` in 0..10: the whole relation, read by a
        // predicate no index rule matches.
        let all = "items select[grp >= 0]";
        with_shared_dbs(|reference, cached| {
            for (r, q) in &queries {
                let q = q.as_ref().unwrap_or(r);
                let want = canon(&reference.query(r).unwrap());
                let got = canon(&cached.query(q).unwrap());
                prop_assert!(got == want, "rebinding diverged on `{}`: {} != {}", q, got, want);
            }
            for u in &updates {
                reference.run(u).unwrap();
                cached.run(u).unwrap();
                let want = canon(&reference.query(all).unwrap());
                let got = canon(&cached.query(all).unwrap());
                prop_assert!(got == want, "bags diverged after `{}`", u);
            }
            Ok(())
        })?;
    }
}
