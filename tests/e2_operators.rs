//! E2 — Section 2.2: polymorphic operator specifications resolve
//! correctly — comparisons over DATA/ORD, `select`, attribute access,
//! `union` (schema equality enforced by the single quantified variable),
//! and `join` with its type operator.

use sos_exec::Value;
use sos_system::Database;

fn db_with_cities() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(name, string), (pop, int), (country, string)>);
        type city_rel = rel(city);
        create cities : city_rel;
        update cities := insert(cities, mktuple[(name, "Hagen"), (pop, 190000), (country, "Germany")]);
        update cities := insert(cities, mktuple[(name, "Paris"), (pop, 2100000), (country, "France")]);
        update cities := insert(cities, mktuple[(name, "Lyon"), (pop, 510000), (country, "France")]);
    "#,
    )
    .unwrap();
    db
}

fn count(v: &Value) -> usize {
    match v {
        Value::Rel(ts) | Value::Stream(ts) => ts.len(),
        other => panic!("expected relation, got {other:?}"),
    }
}

#[test]
fn comparisons_are_polymorphic_over_data() {
    let mut db = db_with_cities();
    assert_eq!(db.query("3 < 5").unwrap(), Value::Bool(true));
    assert_eq!(db.query(r#""abc" < "abd""#).unwrap(), Value::Bool(true));
    assert_eq!(db.query("3.5 >= 3.5").unwrap(), Value::Bool(true));
    assert_eq!(db.query("true = false").unwrap(), Value::Bool(false));
    // Mixed operand types are a type error, not a runtime error.
    assert!(db.query(r#"3 < "x""#).is_err());
}

#[test]
fn arithmetic_resolves_with_promotion() {
    let mut db = db_with_cities();
    assert_eq!(db.query("2 + 3 * 4").unwrap(), Value::Int(14));
    assert_eq!(db.query("7 div 2").unwrap(), Value::Int(3));
    assert_eq!(db.query("7 mod 2").unwrap(), Value::Int(1));
    assert_eq!(db.query("2 * 1.5").unwrap(), Value::Real(3.0));
    assert!(matches!(db.query("1 / 2").unwrap(), Value::Real(_)));
    assert!(db.query("1 div 0").is_err());
}

#[test]
fn select_filters_with_implicit_lambda() {
    let mut db = db_with_cities();
    let v = db.query("cities select[pop > 1000000]").unwrap();
    assert_eq!(count(&v), 1);
    let v2 = db.query(r#"cities select[country = "France"]"#).unwrap();
    assert_eq!(count(&v2), 2);
    // Explicit lambda form (abstract syntax of the paper).
    let v3 = db
        .query("cities select[fun (p: city) p pop > 100000]")
        .unwrap();
    assert_eq!(count(&v3), 3);
}

#[test]
fn attribute_access_is_typed_per_tuple_type() {
    let mut db = db_with_cities();
    // Unknown attribute is a check error.
    assert!(db.query("cities select[missing > 1]").is_err());
    // Attribute of the wrong type in a comparison fails.
    assert!(db.query("cities select[name > 1]").is_err());
}

#[test]
fn union_requires_equal_schemas() {
    let mut db = db_with_cities();
    db.run(
        r#"
        create more_cities : city_rel;
        update more_cities := insert(more_cities, mktuple[(name, "Rome"), (pop, 2800000), (country, "Italy")]);
        type other = rel(tuple(<(x, int)>));
        create others : other;
    "#,
    )
    .unwrap();
    let v = db.query("<cities, more_cities> union").unwrap();
    assert_eq!(count(&v), 4);
    // Different schemas: the quantified `rel` variable cannot bind both.
    assert!(db.query("<cities, others> union").is_err());
}

#[test]
fn join_computes_result_type_via_type_operator() {
    let mut db = db_with_cities();
    db.run(
        r#"
        type state = tuple(<(sname, string), (scountry, string)>);
        create states : rel(state);
        update states := insert(states, mktuple[(sname, "NRW"), (scountry, "Germany")]);
        update states := insert(states, mktuple[(sname, "IDF"), (scountry, "France")]);
    "#,
    )
    .unwrap();
    let v = db.query("cities states join[country = scountry]").unwrap();
    // Hagen x NRW, Paris x IDF, Lyon x IDF.
    assert_eq!(count(&v), 3);
    // Result tuples have the concatenated schema (5 attributes).
    if let Value::Rel(ts) = &v {
        let Value::Tuple(fields) = &ts[0] else {
            panic!()
        };
        assert_eq!(fields.len(), 5);
    }
    // Joining relations with a duplicate attribute name is rejected by
    // the type operator.
    assert!(db.query("cities cities join[pop = pop]").is_err());
}

#[test]
fn mktuple_type_operator_infers_schema() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type pair = tuple(<(a, int), (b, string)>);
        create p : pair;
        update p := mktuple[(a, 1), (b, "x")];
    "#,
    )
    .unwrap();
    // Wrong shape is a type mismatch against the object type.
    assert!(db.run(r#"update p := mktuple[(a, 1), (b, 2)];"#).is_err());
}

#[test]
fn count_works_on_relations() {
    let mut db = db_with_cities();
    assert_eq!(db.query("cities count").unwrap(), Value::Int(3));
}

#[test]
fn geometry_operators_resolve_and_evaluate() {
    let mut db = Database::builder().build();
    assert_eq!(
        db.query("makepoint(1, 2) inside makerect(0, 0, 5, 5)")
            .unwrap(),
        Value::Bool(true)
    );
    assert_eq!(
        db.query("makepoint(9, 9) inside makepgon[(0,0), (4,0), (4,4), (0,4)]")
            .unwrap(),
        Value::Bool(false)
    );
    assert_eq!(
        db.query("area(makerect(0, 0, 2, 3))").unwrap(),
        Value::Real(6.0)
    );
    assert_eq!(
        db.query("bbox(makepgon[(0,0), (4,0), (2,5)]) intersects makerect(3, 3, 9, 9)")
            .unwrap(),
        Value::Bool(true)
    );
}

#[test]
fn sum_of_no_rows_is_a_zero_of_the_attribute_type() {
    // `sum: stream(tuple) x attr -> dtype`: with no rows the result is
    // still of the attribute's type, on the fused and the decoding path.
    // `keep(t)` hands the whole tuple to a function object, so a filter
    // on it stays a step over the decoding scan.
    let mut db = Database::builder().build();
    db.run(
        r#"
        type x = tuple(<(a, real), (b, int)>);
        create xs_rep : tidrel(x);
        update xs_rep := insert(xs_rep, mktuple[(a, 1.5), (b, 2)]);
        create keep : (x -> bool);
        update keep := fun (u: x) true;
    "#,
    )
    .unwrap();
    for feed in ["xs_rep feed", "xs_rep feed filter[fun (t: x) keep(t)]"] {
        let mut q = |s: &str| db.query(&s.replace("FEED", feed)).unwrap();
        assert_eq!(q("FEED filter[b > 5] sum[a]"), Value::Real(0.0), "{feed}");
        assert_eq!(q("FEED filter[b > 5] sum[b]"), Value::Int(0), "{feed}");
        assert_eq!(
            q("(FEED filter[b > 5] sum[a]) = 0.0"),
            Value::Bool(true),
            "{feed}"
        );
        assert_eq!(q("FEED sum[a]"), Value::Real(1.5), "{feed}");
        assert_eq!(q("FEED sum[b]"), Value::Int(2), "{feed}");
    }
}
