//! Property-based end-to-end tests: for arbitrary data and parameters,
//! the optimized/indexed plans agree with their naive counterparts, and
//! update sequences maintain engine invariants.

use proptest::prelude::*;
use sos_exec::Value;
use sos_system::Database;

fn item_db() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (label, string)>);
        create items : rel(item);
        create items_rep : btree(item, k, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, items_rep);
    "#,
    )
    .unwrap();
    db
}

fn load(db: &mut Database, keys: &[i64]) {
    let tuples: Vec<Value> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| Value::tuple(vec![Value::Int(*k), Value::Str(format!("t{i}"))]))
        .collect();
    db.bulk_load("items_rep", tuples).unwrap();
}

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Optimized B-tree range plans agree with naive counting for any
    /// data set and any bounds.
    #[test]
    fn optimized_range_equals_naive(
        keys in prop::collection::vec(-1000i64..1000, 0..120),
        lo in -1100i64..1100,
    ) {
        let mut db = item_db();
        load(&mut db, &keys);
        let expected_ge = keys.iter().filter(|k| **k >= lo).count() as i64;
        let expected_le = keys.iter().filter(|k| **k <= lo).count() as i64;
        let got_ge = as_count(&db.query(&format!("items select[k >= {lo}] count")).unwrap());
        let got_le = as_count(&db.query(&format!("items select[k <= {lo}] count")).unwrap());
        prop_assert_eq!(got_ge, expected_ge);
        prop_assert_eq!(got_le, expected_le);
        // The plans really used the index.
        let plan = db.explain(&format!("items select[k >= {lo}]")).unwrap().plan;
        prop_assert!(plan.contains("range_from"));
    }

    /// Exact-match equals naive equality counting (duplicates included).
    #[test]
    fn exactmatch_equals_naive(
        keys in prop::collection::vec(0i64..20, 0..80),
        probe in 0i64..20,
    ) {
        let mut db = item_db();
        load(&mut db, &keys);
        let expected = keys.iter().filter(|k| **k == probe).count() as i64;
        let got = as_count(&db.query(&format!("items select[k = {probe}] count")).unwrap());
        prop_assert_eq!(got, expected);
    }

    /// Inserting then deleting the same tuples is a no-op on the count,
    /// and a full scan stays sorted throughout.
    #[test]
    fn insert_delete_roundtrip(
        keys in prop::collection::vec(-500i64..500, 1..60),
    ) {
        let mut db = item_db();
        load(&mut db, &keys);
        let n0 = as_count(&db.query("items_rep feed count").unwrap());
        // Delete everything below the median via the model level, then
        // re-add the same number of fresh tuples.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let below = keys.iter().filter(|k| **k < median).count() as i64;
        db.run(&format!("update items := delete(items, fun (t: item) t k < {median});")).unwrap();
        let n1 = as_count(&db.query("items_rep feed count").unwrap());
        prop_assert_eq!(n1, n0 - below);
        // Scan remains key-ordered.
        let Value::Stream(ts) = db.query("items_rep feed").unwrap() else { panic!() };
        let ks: Vec<i64> = ts.iter().map(|t| match t {
            Value::Tuple(fs) => match fs[0] { Value::Int(k) => k, _ => panic!() },
            _ => panic!(),
        }).collect();
        prop_assert!(ks.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Key updates via the model `modify` preserve multiplicity and
    /// ordering for arbitrary data.
    #[test]
    fn key_update_preserves_count(
        keys in prop::collection::vec(0i64..300, 1..50),
    ) {
        let mut db = item_db();
        load(&mut db, &keys);
        db.run("update items := modify(items, fun (t: item) t k mod 2 = 0, k, fun (t: item) t k + 1000);")
            .unwrap();
        let n = as_count(&db.query("items_rep feed count").unwrap());
        prop_assert_eq!(n, keys.len() as i64);
        let evens = keys.iter().filter(|k| *k % 2 == 0).count() as i64;
        let moved = as_count(&db.query("items_rep range_from[1000] count").unwrap());
        // Some odd keys may already be >= 1000? No: keys < 300. So the
        // moved tuples are exactly the even ones.
        prop_assert_eq!(moved, evens);
    }
}
