//! E4 — Section 4: the representation model. Storage structures as type
//! constructors (`srel`, `tidrel`, `btree`, `kbtree`, `lsdtree`), the
//! `relrep` subtype hierarchy, the stream operators, and the index
//! search operators, all driven through the program language.

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

/// A database with the paper's Section 4 schema: a B-tree of cities by
/// population and an LSD-tree of states by region bounding box.
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
    let cities: Vec<Value> = gen::uniform_points(n_cities, 42)
        .into_iter()
        .enumerate()
        .map(|(i, p)| city_tuple(&format!("city{i}"), p, (i as i64 * 7919) % 1_000_000))
        .collect();
    db.bulk_load("cities_rep", cities).unwrap();
    let states: Vec<Value> = gen::state_grid(grid, 43)
        .into_iter()
        .map(|(n, p)| state_tuple(&n, p))
        .collect();
    db.bulk_load("states_rep", states).unwrap();
    db
}

fn count(v: &Value) -> usize {
    match v {
        Value::Rel(ts) | Value::Stream(ts) => ts.len(),
        Value::Int(n) => *n as usize,
        other => panic!("expected a collection, got {other:?}"),
    }
}

#[test]
fn feed_works_on_every_relrep_subtype() {
    let mut db = rep_db(100, 3);
    db.run(
        r#"
        create tmp_srel : srel(city);
        create tmp_tid : tidrel(city);
    "#,
    )
    .unwrap();
    db.bulk_load("tmp_srel", vec![city_tuple("a", Point::new(1.0, 1.0), 5)])
        .unwrap();
    db.bulk_load("tmp_tid", vec![city_tuple("b", Point::new(2.0, 2.0), 6)])
        .unwrap();
    // feed is specified once, on relrep(tuple); subtyping admits all four.
    assert_eq!(count(&db.query("cities_rep feed count").unwrap()), 100);
    assert_eq!(count(&db.query("states_rep feed count").unwrap()), 9);
    assert_eq!(count(&db.query("tmp_srel feed count").unwrap()), 1);
    assert_eq!(count(&db.query("tmp_tid feed count").unwrap()), 1);
}

#[test]
fn btree_feed_is_key_ordered() {
    let mut db = rep_db(500, 2);
    let v = db.query("cities_rep feed count").unwrap();
    assert_eq!(count(&v), 500);
    let Value::Stream(ts) = db.query("cities_rep feed").unwrap() else {
        panic!()
    };
    let pops: Vec<i64> = ts
        .iter()
        .map(|t| match t {
            Value::Tuple(fs) => match fs[2] {
                Value::Int(p) => p,
                _ => panic!(),
            },
            _ => panic!(),
        })
        .collect();
    assert!(pops.windows(2).all(|w| w[0] <= w[1]), "clustering order");
}

#[test]
fn range_queries_match_filter_scans() {
    let mut db = rep_db(1000, 2);
    let via_range = db.query("cities_rep range[100000, 500000] count").unwrap();
    let via_scan = db
        .query("cities_rep feed filter[pop >= 100000 and pop <= 500000] count")
        .unwrap();
    assert_eq!(via_range, via_scan);
    assert!(count(&via_range) > 0, "the range should be non-empty");
    // Halfranges (the paper's bottom/top).
    let lo = db.query("cities_rep range_to[100000] count").unwrap();
    let hi = db.query("cities_rep range_from[100001] count").unwrap();
    assert_eq!(count(&lo) + count(&hi), 1000);
}

#[test]
fn exactmatch_finds_duplicate_keys() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type t = tuple(<(k, int), (v, string)>);
        create idx : btree(t, k, int);
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = (0..30)
        .map(|i| Value::tuple(vec![Value::Int(i % 3), Value::Str(format!("v{i}"))]))
        .collect();
    db.bulk_load("idx", tuples).unwrap();
    assert_eq!(count(&db.query("idx exactmatch[1] count").unwrap()), 10);
    assert_eq!(count(&db.query("idx exactmatch[7] count").unwrap()), 0);
}

#[test]
fn kbtree_indexes_by_key_expression() {
    // The paper's derived-key B-tree: btree(city, fun (c) c pop div 1000).
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(cname, string), (center, point), (pop, int)>);
        create kidx : kbtree(city, fun (c: city) c pop div 1000);
    "#,
    )
    .unwrap();
    let cities: Vec<Value> = (0..100)
        .map(|i| city_tuple(&format!("c{i}"), Point::new(0.0, 0.0), i * 500))
        .collect();
    db.bulk_load("kidx", cities).unwrap();
    // keys are pop div 1000: values 0..=49, two cities per key.
    assert_eq!(count(&db.query("kidx range[10, 19] count").unwrap()), 20);
}

#[test]
fn lsdtree_point_and_overlap_search() {
    let mut db = rep_db(200, 4);
    // Every uniform city point lies in at most one state; most lie in
    // exactly one (the grid covers ~92% of the world).
    let v = db
        .query("states_rep (makepoint(125.0, 125.0)) point_search count")
        .unwrap();
    assert_eq!(count(&v), 1);
    // Overlap with the whole world finds every state.
    let all = db
        .query("states_rep (makerect(0.0, 0.0, 1000.0, 1000.0)) overlap_search count")
        .unwrap();
    assert_eq!(count(&all), 16);
}

/// The two query-processing plans of Section 4 — repeated scanning vs
/// repeated LSD-tree search inside `search_join` — produce identical
/// results.
#[test]
fn scan_join_and_index_join_agree() {
    let mut db = rep_db(150, 3);
    let scan_plan = "cities_rep feed \
        (fun (c: city) states_rep feed filter[fun (s: state) c center inside s region]) \
        search_join count";
    let index_plan = "cities_rep feed \
        (fun (c: city) states_rep (c center) point_search \
         filter[fun (s: state) c center inside s region]) \
        search_join count";
    let a = db.query(scan_plan).unwrap();
    let b = db.query(index_plan).unwrap();
    assert_eq!(a, b);
    assert!(count(&a) > 100, "most cities lie in some state");
}

#[test]
fn project_and_replace_and_collect() {
    let mut db = rep_db(50, 2);
    // Generalized projection with a computed attribute.
    let v = db
        .query(
            "cities_rep feed project[(cname, cname), (kpop, fun (c: city) c pop div 1000)] count",
        )
        .unwrap();
    assert_eq!(count(&v), 50);
    // replace increments pop per tuple; collect materializes to an srel.
    let v2 = db
        .query("cities_rep feed replace[pop, fun (c: city) c pop + 1] collect count")
        .unwrap();
    assert_eq!(count(&v2), 50);
    // sortby + head + rdup (practical stream extensions).
    let v3 = db
        .query("cities_rep feed sortby[cname] head[10] count")
        .unwrap();
    assert_eq!(count(&v3), 10);
}

#[test]
fn stream_operators_reject_wrong_levels() {
    let mut db = rep_db(10, 2);
    // filter on a btree (not a stream) is a type error.
    assert!(db.query("cities_rep filter[pop > 1] count").is_err());
    // range on an srel is a type error.
    db.run("create s : srel(city);").unwrap();
    assert!(db.query("s range[1, 2] count").is_err());
}

#[test]
fn aggregates_over_streams() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type t = tuple(<(k, int), (w, real), (label, string)>);
        create r : srel(t);
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = (1..=10)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i),
                Value::Real(i as f64 / 2.0),
                Value::Str(format!("l{i}")),
            ])
        })
        .collect();
    db.bulk_load("r", tuples).unwrap();
    assert_eq!(db.query("r feed sum[k]").unwrap(), Value::Int(55));
    assert_eq!(db.query("r feed min[k]").unwrap(), Value::Int(1));
    assert_eq!(db.query("r feed max[k]").unwrap(), Value::Int(10));
    assert_eq!(db.query("r feed avg[k]").unwrap(), Value::Real(5.5));
    assert_eq!(db.query("r feed sum[w]").unwrap(), Value::Real(27.5));
    // min/max also work on ORD strings...
    assert_eq!(
        db.query("r feed min[label]").unwrap(),
        Value::Str("l1".into())
    );
    // ...but sum over a string attribute is a type error (NUM kind).
    assert!(db.query("r feed sum[label]").is_err());
    // Aggregates compose with filters.
    assert_eq!(
        db.query("r feed filter[k > 5] sum[k]").unwrap(),
        Value::Int(40)
    );
}

#[test]
fn hashjoin_agrees_with_search_join_on_equijoins() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type emp = tuple(<(ename, string), (dept, int)>);
        type dpt = tuple(<(dno, int), (dname, string)>);
        create emps : srel(emp);
        create depts : srel(dpt);
    "#,
    )
    .unwrap();
    let emps: Vec<Value> = (0..200)
        .map(|i| Value::tuple(vec![Value::Str(format!("e{i}")), Value::Int(i % 10)]))
        .collect();
    let depts: Vec<Value> = (0..10)
        .map(|d| Value::tuple(vec![Value::Int(d), Value::Str(format!("d{d}"))]))
        .collect();
    db.bulk_load("emps", emps).unwrap();
    db.bulk_load("depts", depts).unwrap();

    let via_hash = db
        .query("emps feed depts feed hashjoin[dept, dno] count")
        .unwrap();
    let via_search = db
        .query(
            "emps feed (fun (e: emp) depts feed filter[fun (d: dpt) e dept = d dno]) \
             search_join count",
        )
        .unwrap();
    assert_eq!(via_hash, via_search);
    assert_eq!(count(&via_hash), 200);
    // Result schema is the concatenation (type operator).
    let Value::Stream(ts) = db
        .query("emps feed depts feed hashjoin[dept, dno] head[1]")
        .unwrap()
    else {
        panic!()
    };
    let Value::Tuple(fields) = &ts[0] else {
        panic!()
    };
    assert_eq!(fields.len(), 4);
    // Join attributes of different types are rejected at check time.
    assert!(
        db.query("emps feed depts feed hashjoin[ename, dno] count")
            .is_err()
            || {
                // ename: string vs dno: int — runtime key encode still tags
                // types apart, so zero matches rather than wrong matches.
                count(
                    &db.query("emps feed depts feed hashjoin[ename, dno] count")
                        .unwrap(),
                ) == 0
            }
    );
}

/// `bulk_load` keys and encodes every tuple before it writes, so a load
/// whose third tuple is bad fails and leaves its target as it was — an
/// empty and a non-empty B-tree, a heap and a model relation alike.
#[test]
fn a_failed_bulk_load_leaves_its_target_unchanged() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(name, string), (k, int)>);
        create empty_bt : btree(item, k, int);
        create bt : btree(item, k, int);
        create heap : tidrel(item);
        create r : rel(item);
        update bt := insert(bt, mktuple[(name, "old"), (k, 0)]);
        update heap := insert(heap, mktuple[(name, "old"), (k, 0)]);
        update r := insert(r, mktuple[(name, "old"), (k, 0)]);
    "#,
    )
    .unwrap();
    let item = |k: i64| Value::tuple(vec![Value::Str(format!("i{k}")), Value::Int(k)]);
    // The B-trees get a tuple without the key field, the heap and the
    // relation a value that is not a tuple.
    let keyless = Value::tuple(vec![Value::Str("keyless".into())]);
    for (object, bad, before) in [
        ("empty_bt", keyless.clone(), 0),
        ("bt", keyless, 1),
        ("heap", Value::Int(3), 1),
        ("r", Value::Int(3), 1),
    ] {
        let tuples = vec![item(1), item(2), bad, item(4)];
        assert!(db.bulk_load(object, tuples).is_err(), "{object}");
        let count = if object == "r" {
            format!("{object} count")
        } else {
            format!("{object} feed count")
        };
        assert_eq!(
            db.query(&count).unwrap(),
            Value::Int(before),
            "{object} changed"
        );
        // The same load without the bad tuple goes through.
        assert_eq!(
            db.bulk_load(object, vec![item(1), item(2), item(4)])
                .unwrap(),
            3
        );
        assert_eq!(db.query(&count).unwrap(), Value::Int(before + 3));
    }
}
