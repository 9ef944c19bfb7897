//! Database-level persistence: save a populated database to a directory,
//! reopen it in a fresh process-equivalent, and verify catalogs, data,
//! indexes, optimization and updates all survive.

use sos_exec::Value;
use sos_geom::gen;
use sos_system::Database;
use std::path::PathBuf;

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sos_db_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn full_database_roundtrip() {
    let dir = temp_dir("roundtrip");
    {
        let mut db = Database::open_dir(&dir).unwrap();
        db.run(
            r#"
            type city = tuple(<(cname, string), (center, point), (pop, int)>);
            type state = tuple(<(sname, string), (region, pgon)>);
            create cities : rel(city);
            create states : rel(state);
            create cities_rep : btree(city, pop, int);
            create states_rep : lsdtree(state, fun (s: state) bbox(s region));
            create scratch : tidrel(city);
            create rep : catalog(<ident, ident>);
            update rep := insert(rep, cities, cities_rep);
            update rep := insert(rep, states, states_rep);
        "#,
        )
        .unwrap();
        let cities: Vec<Value> = gen::uniform_points(300, 5)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                Value::tuple(vec![
                    Value::Str(format!("city{i}")),
                    Value::Point(p),
                    Value::Int((i as i64 * 31) % 10_000),
                ])
            })
            .collect();
        db.bulk_insert("cities_rep", cities).unwrap();
        let states: Vec<Value> = gen::state_grid(6, 6)
            .into_iter()
            .map(|(n, poly)| Value::tuple(vec![Value::Str(n), Value::Pgon(poly)]))
            .collect();
        db.bulk_insert("states_rep", states).unwrap();
        let skipped = db.save(&dir).unwrap();
        assert!(skipped.is_empty());
    }
    // Reopen: everything is back.
    {
        let mut db = Database::open_dir(&dir).unwrap();
        assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 300);
        assert_eq!(as_count(&db.query("states_rep feed count").unwrap()), 36);
        // Named types survive (used in a lambda annotation).
        assert_eq!(
            as_count(
                &db.query("cities_rep feed filter[fun (c: city) c pop < 5000] count")
                    .unwrap()
            ),
            as_count(&db.query("cities_rep range_to[4999] count").unwrap())
        );
        // Catalog links survive: the optimizer still fires.
        let plan = db.explain("cities select[pop = 31]").unwrap().plan;
        assert!(plan.contains("exactmatch(cities_rep"), "plan: {plan}");
        // The LSD-tree directory survives: spatial plans still work.
        let joined = as_count(
            &db.query("cities states join[center inside region] count")
                .unwrap(),
        );
        assert!(joined > 200, "most cities are in some state: {joined}");
        // And the database remains writable after reopen.
        db.run(r#"update cities := insert(cities, mktuple[(cname, "New"), (center, makepoint(1.0, 1.0)), (pop, 1)]);"#)
            .unwrap();
        assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 301);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_values_and_catalog_rows_roundtrip() {
    let dir = temp_dir("model");
    {
        let mut db = Database::open_dir(&dir).unwrap();
        db.run(
            r#"
            type t = tuple(<(a, int), (b, string)>);
            create r : rel(t);
            update r := insert(r, mktuple[(a, 1), (b, "one")]);
            update r := insert(r, mktuple[(a, 2), (b, "two")]);
            create c : t;
            update c := mktuple[(a, 9), (b, "nine")];
        "#,
        )
        .unwrap();
        db.save(&dir).unwrap();
    }
    {
        let mut db = Database::open_dir(&dir).unwrap();
        assert_eq!(as_count(&db.query("r count").unwrap()), 2);
        let v = db.query("r select[a = 2]").unwrap();
        let Value::Rel(ts) = v else { panic!() };
        assert_eq!(
            ts[0],
            Value::tuple(vec![Value::Int(2), Value::Str("two".into())])
        );
        // The standalone tuple object too.
        db.run("update r := insert(r, c);").unwrap();
        assert_eq!(as_count(&db.query("r count").unwrap()), 3);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn views_are_reported_as_skipped() {
    let dir = temp_dir("views");
    {
        let mut db = Database::open_dir(&dir).unwrap();
        db.run(
            r#"
            type t = tuple(<(a, int)>);
            create r : rel(t);
            create v : ( -> rel(t));
            update v := fun () r select[a > 0];
        "#,
        )
        .unwrap();
        let skipped = db.save(&dir).unwrap();
        assert_eq!(skipped, vec![sos_core::Symbol::new("v")]);
    }
    {
        let mut db = Database::open_dir(&dir).unwrap();
        // The view's type survives; re-running its defining update
        // restores it.
        db.run("update v := fun () r select[a > 0];").unwrap();
        assert_eq!(as_count(&db.query("v count").unwrap()), 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_into_fresh_directory_and_double_save() {
    let dir = temp_dir("double");
    let mut db = Database::open_dir(&dir).unwrap();
    db.run("type t = tuple(<(a, int)>); create r : rel(t);")
        .unwrap();
    db.save(&dir).unwrap();
    db.run("update r := insert(r, mktuple[(a, 5)]);").unwrap();
    db.save(&dir).unwrap(); // overwrite with newer state
    let mut db2 = Database::open_dir(&dir).unwrap();
    assert_eq!(as_count(&db2.query("r count").unwrap()), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshots_error_cleanly() {
    let dir = temp_dir("corrupt");
    {
        let mut db = Database::open_dir(&dir).unwrap();
        db.run("type t = tuple(<(a, int)>); create r : rel(t);")
            .unwrap();
        db.save(&dir).unwrap();
    }
    std::fs::write(dir.join("snapshot.json"), b"{ not json !").unwrap();
    let Err(err) = Database::open_dir(&dir) else {
        panic!("opening a corrupt snapshot must fail");
    };
    assert!(err.to_string().contains("persistence error"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-written format-1 snapshot (no `format` field) with one B-tree
/// object. `PARTITIONS` and `IMAGE` are filled per case: versions that
/// stored objects partitioned named them in the catalog's `partitions`
/// map and imaged them as `Part`.
const FORMAT_1_SNAPSHOT: &str = r#"{"catalog":{"types":{},"objects":{"items_rep":{"name":"items_rep","ty":{"Cons":["btree",[{"Type":{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"k"}}},{"Type":{"Cons":["int",[]]}}]}]}]]}},{"Expr":{"Const":{"Ident":"k"}}},{"Type":{"Cons":["int",[]]}}]]},"level":"Representation"}},"relations":{},"partitions":PARTITIONS,"stats":{}},"store":[["items_rep",IMAGE]]}"#;
const HASH_2_SPEC: &str = r#"{"attr":"k","method":{"Hash":{"parts":2}}}"#;
const BTREE_IMAGE: &str = r#"{"BTree":{"root":0,"len":0}}"#;

fn format_1_snapshot(partitions: &str, image: &str) -> String {
    FORMAT_1_SNAPSHOT
        .replace("PARTITIONS", partitions)
        .replace("IMAGE", image)
}

/// A saved directory or a WAL whose catalog snapshot holds a partitioned
/// object is refused with a typed error — never opened with the spec
/// dropped and the object served wrong.
#[test]
fn partitioned_snapshots_are_refused_with_a_typed_error() {
    use sos_storage::{DiskManager, MemDisk, Wal};
    use sos_system::{DurabilityConfig, SystemError};
    use std::sync::Arc;

    let spec_map = format!(r#"{{"items_rep":{HASH_2_SPEC}}}"#);
    let part_image =
        format!(r#"{{"Part":{{"spec":{HASH_2_SPEC},"parts":[{BTREE_IMAGE},{BTREE_IMAGE}]}}}}"#);
    let refused = [
        ("spec and image", format_1_snapshot(&spec_map, &part_image)),
        ("spec only", format_1_snapshot(&spec_map, BTREE_IMAGE)),
        ("image only", format_1_snapshot("{}", &part_image)),
    ];
    for (case, snapshot) in &refused {
        let dir = temp_dir("partitioned");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.json"), snapshot).unwrap();
        match Database::open_dir(&dir) {
            Err(SystemError::PartitionedObject(name)) => assert_eq!(name.as_str(), "items_rep"),
            Err(e) => panic!("{case}: wrong error: {e}"),
            Ok(_) => panic!("{case}: a partitioned snapshot opened"),
        }
        std::fs::remove_dir_all(&dir).ok();

        // The same snapshot as the meta record of a committed WAL
        // transaction.
        let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let wal_disk: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        {
            let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
            wal.commit(wal.alloc_txid(), Some(snapshot.as_bytes()))
                .unwrap();
        }
        match Database::builder()
            .durability(DurabilityConfig::disks(data, wal_disk))
            .try_build()
        {
            Err(SystemError::PartitionedObject(name)) => assert_eq!(name.as_str(), "items_rep"),
            Err(e) => panic!("{case} (WAL): wrong error: {e}"),
            Ok(_) => panic!("{case} (WAL): a partitioned snapshot recovered"),
        }
    }
}

/// The `stats` key of a catalog as versions with `analyze` wrote it:
/// row and page counts and a key histogram for `items_rep`.
const OLD_STATS: &str = r#""stats":{"items_rep":{"rows":2,"pages":1,"key_attr":"k","key_histogram":{"lo":3.0,"hi":7.0,"buckets":[1,1]},"rect_histogram":null,"bbox":null}}"#;

const TWO_ITEMS: &str = r#"
    type item = tuple(<(k, int), (label, string)>);
    create items_rep : btree(item, k, int);
    update items_rep := insert(items_rep, mktuple[(k, 7), (label, "seven")]);
    update items_rep := insert(items_rep, mktuple[(k, 3), (label, "three")]);
"#;

fn with_old_stats(snapshot: &str) -> String {
    let old = snapshot.replacen(
        r#""relations":{}"#,
        &format!(r#""relations":{{}},{OLD_STATS}"#),
        1,
    );
    assert_ne!(old, snapshot, "unexpected snapshot layout: {snapshot}");
    old
}

fn answers_two_items(db: &mut Database) {
    assert_eq!(
        db.query("items_rep exactmatch[7] count").unwrap(),
        Value::Int(1)
    );
    assert_eq!(as_count(&db.query("items_rep feed count").unwrap()), 2);
}

/// A snapshot saved by this version, rewritten into format 1 (no
/// `format` field, an empty `partitions` map), opens with the same
/// contents.
#[test]
fn format_1_snapshots_without_partitions_still_open() {
    let dir = temp_dir("format1");
    {
        let mut db = Database::open_dir(&dir).unwrap();
        db.run(TWO_ITEMS).unwrap();
        db.save(&dir).unwrap();
    }
    let path = dir.join("snapshot.json");
    let current = std::fs::read_to_string(&path).unwrap();
    let format_1 = current.replacen(r#""format":2,"#, "", 1).replacen(
        r#""relations":{}"#,
        r#""relations":{},"partitions":{},"stats":{}"#,
        1,
    );
    assert!(
        !format_1.contains(r#""format""#) && format_1.contains(r#""partitions":{}"#),
        "unexpected snapshot layout: {current}"
    );
    std::fs::write(&path, format_1).unwrap();
    let mut db = Database::open_dir(&dir).unwrap();
    answers_two_items(&mut db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A saved directory whose catalog still holds a populated `stats` key
/// opens and answers as before, and the next save drops the key.
#[test]
fn snapshots_with_statistics_open_and_drop_them() {
    let dir = temp_dir("stats");
    {
        let mut db = Database::open_dir(&dir).unwrap();
        db.run(TWO_ITEMS).unwrap();
        db.save(&dir).unwrap();
    }
    let path = dir.join("snapshot.json");
    let current = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, with_old_stats(&current)).unwrap();
    let mut db = Database::open_dir(&dir).unwrap();
    answers_two_items(&mut db);
    db.save(&dir).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), current);
    std::fs::remove_dir_all(&dir).ok();
}

/// The same for the meta record of the last committed WAL transaction:
/// recovery installs it, and the next commit logs the catalog without
/// the key.
#[test]
fn wal_meta_records_with_statistics_recover() {
    use sos_storage::{DiskManager, MemDisk, Wal};
    use sos_system::DurabilityConfig;
    use std::sync::Arc;

    let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let wal_disk: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let open = || {
        Database::builder()
            .durability(DurabilityConfig::disks(
                Arc::clone(&data),
                Arc::clone(&wal_disk),
            ))
            .try_build()
            .unwrap()
    };
    // `save` writes the snapshot a durable commit logs as its meta record.
    let dir = temp_dir("stats_wal");
    {
        let mut db = open();
        db.run(TWO_ITEMS).unwrap();
        db.save(&dir).unwrap();
    }
    let current = std::fs::read_to_string(dir.join("snapshot.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    {
        let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        wal.commit(wal.alloc_txid(), Some(with_old_stats(&current).as_bytes()))
            .unwrap();
    }
    let mut db = open();
    answers_two_items(&mut db);
    db.run(r#"update items_rep := insert(items_rep, mktuple[(k, 5), (label, "five")]);"#)
        .unwrap();
    drop(db);
    let mut db = open();
    assert_eq!(as_count(&db.query("items_rep feed count").unwrap()), 3);
}
