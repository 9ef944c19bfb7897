//! The multi-attribute B-tree sketched at the end of Section 4: a
//! clustering structure "ordered first by one attribute, then for equal
//! values by a second attribute", with query operators specifying values
//! for a prefix of the indexed attributes.

use sos_exec::Value;
use sos_system::Database;

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

fn db_with_orders() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type order = tuple(<(country, string), (year, int), (amount, int)>);
        create orders : mbtree(order, <country, year>);
    "#,
    )
    .unwrap();
    let mut tuples = Vec::new();
    for (i, country) in ["DE", "FR", "IN", "US"].iter().enumerate() {
        for year in 2000..2020 {
            for k in 0..3 {
                tuples.push(Value::tuple(vec![
                    Value::Str(country.to_string()),
                    Value::Int(year),
                    Value::Int((i as i64 + 1) * 1000 + year * 10 + k),
                ]));
            }
        }
    }
    db.bulk_load("orders", tuples).unwrap();
    db
}

#[test]
fn mbtree_orders_by_composite_key() {
    let mut db = db_with_orders();
    assert_eq!(as_count(&db.query("orders feed count").unwrap()), 240);
    // The clustering order is (country, year).
    let Value::Stream(ts) = db.query("orders feed").unwrap() else {
        panic!()
    };
    let keys: Vec<(String, i64)> = ts
        .iter()
        .map(|t| match t {
            Value::Tuple(fs) => match (&fs[0], &fs[1]) {
                (Value::Str(c), Value::Int(y)) => (c.clone(), *y),
                _ => panic!(),
            },
            _ => panic!(),
        })
        .collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "composite order");
}

#[test]
fn prefixmatch_selects_by_first_attribute() {
    let mut db = db_with_orders();
    assert_eq!(
        as_count(&db.query(r#"orders prefixmatch["FR"] count"#).unwrap()),
        60
    );
    assert_eq!(
        as_count(&db.query(r#"orders prefixmatch["XX"] count"#).unwrap()),
        0
    );
    // Agreement with a filter scan.
    let scan = db
        .query(r#"orders feed filter[country = "FR"] count"#)
        .unwrap();
    assert_eq!(as_count(&scan), 60);
}

#[test]
fn prefixrange_selects_prefix_plus_range() {
    let mut db = db_with_orders();
    // country = "IN", 2005 <= year <= 2009: 5 years x 3 = 15.
    let v = db
        .query(r#"orders prefixrange["IN", 2005, 2009] count"#)
        .unwrap();
    assert_eq!(as_count(&v), 15);
    let scan = db
        .query(r#"orders feed filter[fun (o: order) o country = "IN" and o year >= 2005 and o year <= 2009] count"#)
        .unwrap();
    assert_eq!(as_count(&scan), 15);
}

#[test]
fn prefix_search_touches_fewer_pages_than_scan() {
    let mut db = db_with_orders();
    db.reset_metrics();
    db.query(r#"orders prefixmatch["DE"] count"#).unwrap();
    let prefix_reads = db.metrics().pool.logical_reads;
    db.reset_metrics();
    db.query(r#"orders feed filter[country = "DE"] count"#)
        .unwrap();
    let scan_reads = db.metrics().pool.logical_reads;
    assert!(
        prefix_reads <= scan_reads,
        "prefix={prefix_reads}, scan={scan_reads}"
    );
}

#[test]
fn mbtree_updates_work() {
    let mut db = db_with_orders();
    db.run(
        r#"update orders := insert(orders, mktuple[(country, "DE"), (year, 1999), (amount, 1)]);"#,
    )
    .unwrap();
    assert_eq!(
        as_count(&db.query(r#"orders prefixmatch["DE"] count"#).unwrap()),
        61
    );
    // Delete by stream.
    db.run(r#"update orders := delete(orders, orders prefixrange["DE", 1999, 1999]);"#)
        .unwrap();
    assert_eq!(
        as_count(&db.query(r#"orders prefixmatch["DE"] count"#).unwrap()),
        60
    );
}

#[test]
fn mbtree_rejects_unknown_attributes_at_create() {
    let mut db = Database::builder().build();
    db.run("type t = tuple(<(a, int)>);").unwrap();
    assert!(db.run("create m : mbtree(t, <a, nope>);").is_err());
}
