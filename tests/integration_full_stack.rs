//! Full-stack integration: one scenario touching every crate — a mixed
//! model/representation program with views, geometry, optimization and
//! updates, checked for global consistency at each step.

use sos_exec::Value;
use sos_geom::{gen, Point, Polygon};
use sos_system::Database;

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

#[test]
fn a_complete_session() {
    let mut db = Database::builder().build();

    // 1. Schema: model objects, representations, catalog links.
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

    // 2. Load synthetic geography.
    let n = 400;
    let cities: Vec<Value> = gen::uniform_points(n, 99)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Point(p),
                Value::Int((i as i64 * 257) % 50_000),
            ])
        })
        .collect();
    db.bulk_insert("cities_rep", cities).unwrap();
    let states: Vec<Value> = gen::state_grid(8, 100)
        .into_iter()
        .map(|(name, poly)| Value::tuple(vec![Value::Str(name), Value::Pgon(poly)]))
        .collect();
    db.bulk_insert("states_rep", states).unwrap();

    // 3. Model-level selection: optimized to the B-tree, same result as
    //    a manual scan.
    let a = as_count(&db.query("cities select[pop <= 10000] count").unwrap());
    let b = as_count(
        &db.query("cities_rep feed filter[pop <= 10000] count")
            .unwrap(),
    );
    assert_eq!(a, b);
    assert!(a > 0);

    // 4. The geometric join, optimized via the Section 5 rule, agrees
    //    with a model-side nested-loop over materialized relations.
    let joined = as_count(
        &db.query("cities states join[center inside region] count")
            .unwrap(),
    );
    let manual = as_count(
        &db.query(
            "cities_rep feed \
             (fun (c: city) states_rep feed filter[fun (s: state) c center inside s region]) \
             search_join count",
        )
        .unwrap(),
    );
    assert_eq!(joined, manual);

    // 5. A view over the model object composes with optimization.
    db.run(
        r#"
        create big_cities : ( -> rel(city));
        update big_cities := fun () cities select[pop >= 25000];
    "#,
    )
    .unwrap();
    let big = as_count(&db.query("big_cities count").unwrap());
    let direct = as_count(&db.query("cities select[pop >= 25000] count").unwrap());
    assert_eq!(big, direct);

    // 6. Updates through the model translate to the B-tree and are
    //    visible to subsequent queries.
    let before = as_count(&db.query("cities select[pop >= 0] count").unwrap());
    db.run(r#"update cities := insert(cities, mktuple[(cname, "Metropolis"), (center, makepoint(500.0, 500.0)), (pop, 999999)]);"#)
        .unwrap();
    let after = as_count(&db.query("cities select[pop >= 0] count").unwrap());
    assert_eq!(after, before + 1);
    assert_eq!(
        as_count(&db.query("cities select[pop = 999999] count").unwrap()),
        1
    );

    // 7. Page statistics are live and monotone.
    let stats = db.metrics().pool;
    assert!(stats.logical_reads > 0);

    // 8. Project + sort + head works over the optimized feed.
    let top = db
        .query("cities_rep feed sortby[pop] head[5] project[(cname, cname)] count")
        .unwrap();
    assert_eq!(as_count(&top), 5);
}

/// A second engine extension scenario: load a new operator spec, give it
/// an implementation, and use it in the concrete syntax.
#[test]
fn extension_with_new_operator() {
    let mut db = Database::builder().build();
    db.load_spec(
        r##"
        op double : int -> int syntax "_ #"
        "##,
    )
    .unwrap();
    db.add_op_impl("double", |_, _, args| {
        let v = args[0].as_int("double")?;
        Ok(Value::Int(v * 2))
    })
    .unwrap();
    assert_eq!(db.query("21 double").unwrap(), Value::Int(42));
    // It composes with existing operators in expressions.
    assert_eq!(db.query("3 double + 1").unwrap(), Value::Int(7));
}

/// An operator named like an attribute does not shadow the attribute.
/// The checker resolves `pop` on a city tuple to the field and `7 pop` to
/// the declared operator; the engine follows both resolutions, serial or
/// parallel, compiled or interpreted.
#[test]
fn operator_named_like_an_attribute_does_not_shadow_it() {
    let cities: Vec<Value> = (0..100)
        .map(|i| Value::tuple(vec![Value::Str(format!("c{i}")), Value::Int(i * 10)]))
        .collect();
    for workers in [1, 2] {
        for compile in [true, false] {
            let mut db = Database::builder()
                .workers(workers)
                .compile_exprs(compile)
                .build();
            db.run(
                r#"
                type city = tuple(<(cname, string), (pop, int)>);
                create cities : rel(city);
            "#,
            )
            .unwrap();
            db.bulk_insert("cities", cities.clone()).unwrap();
            db.load_spec(r##"op pop : int -> int syntax "_ #""##)
                .unwrap();
            db.add_op_impl("pop", |_, _, _| Ok(Value::Int(-1))).unwrap();
            let case = format!("workers {workers}, compile {compile}");
            assert_eq!(
                db.query("cities select[pop > 100] count").unwrap(),
                Value::Int(89),
                "{case}"
            );
            assert_eq!(db.query("7 pop").unwrap(), Value::Int(-1), "{case}");
            if workers > 1 {
                let select = db.op_stats("select").unwrap();
                assert!(select.parallel_invocations > 0, "{case}: {select:?}");
            }
        }
    }
    // Without the spec, `pop` names only an attribute: no implementation
    // could ever run, so registering one is an error.
    let mut db = Database::builder().build();
    let err = db
        .add_op_impl("pop", |_, _, _| Ok(Value::Int(-1)))
        .unwrap_err();
    assert_eq!(err.to_string(), "unknown operator `pop`");
}

/// Geometry substrate consistency check at the integration level: a
/// point inside a polygon is inside its bbox (used by the LSD plan).
#[test]
fn bbox_superset_property_holds_in_queries() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type state = tuple(<(sname, string), (region, pgon)>);
        create states_rep : lsdtree(state, fun (s: state) bbox(s region));
    "#,
    )
    .unwrap();
    let states: Vec<Value> = gen::state_grid(5, 5)
        .into_iter()
        .map(|(name, poly)| Value::tuple(vec![Value::Str(name), Value::Pgon(poly)]))
        .collect();
    db.bulk_insert("states_rep", states).unwrap();
    for p in gen::uniform_points(40, 6) {
        let via_index = as_count(
            &db.query(&format!(
                "states_rep (makepoint({:.6}, {:.6})) point_search \
                 filter[fun (s: state) makepoint({:.6}, {:.6}) inside s region] count",
                p.x, p.y, p.x, p.y
            ))
            .unwrap(),
        );
        let via_scan = as_count(
            &db.query(&format!(
                "states_rep feed filter[fun (s: state) makepoint({:.6}, {:.6}) inside s region] count",
                p.x, p.y
            ))
            .unwrap(),
        );
        assert_eq!(via_index, via_scan, "point {p:?}");
    }
    let _ = Point::new(0.0, 0.0);
    let _ = Polygon::from_rect(&sos_geom::Rect::new(0.0, 0.0, 1.0, 1.0));
}
