//! Database-level persistence: populate a durable database, reopen it
//! in a fresh process-equivalent, and verify catalogs, data, indexes,
//! optimization and updates all survive. The catalog snapshot each
//! commit logs as its WAL meta record is read back with
//! [`Wal::recover`] and rewritten to test the formats recovery accepts
//! and refuses.

use sos_exec::{ExecError, Value};
use sos_geom::gen;
use sos_storage::{DiskManager, MemDisk, StorageError, Wal};
use sos_system::{Database, DurabilityConfig, SystemError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// Open (or reopen, running recovery) the durable database in `dir`.
fn open_durable(dir: &Path) -> Database {
    Database::builder()
        .durability(DurabilityConfig::dir(dir))
        .try_build()
        .unwrap()
}

/// The data and WAL disks of one durable database, kept across
/// process-equivalent lifetimes.
struct Disks {
    data: Arc<dyn DiskManager>,
    wal: Arc<dyn DiskManager>,
}

impl Disks {
    fn new() -> Disks {
        Disks {
            data: Arc::new(MemDisk::new()),
            wal: Arc::new(MemDisk::new()),
        }
    }

    fn open(&self) -> Result<Database, SystemError> {
        Database::builder()
            .durability(DurabilityConfig::disks(
                Arc::clone(&self.data),
                Arc::clone(&self.wal),
            ))
            .try_build()
    }

    /// The meta record of the last committed transaction: the snapshot
    /// text recovery installs.
    fn last_meta(&self) -> String {
        let (_, meta, _) = Wal::recover(Arc::clone(&self.wal), &self.data).unwrap();
        String::from_utf8(meta.expect("a committed meta record")).unwrap()
    }

    /// Commit one more transaction whose meta record is `meta`.
    fn commit_meta(&self, meta: &str) {
        let (wal, _, _) = Wal::recover(Arc::clone(&self.wal), &self.data).unwrap();
        wal.commit(wal.alloc_txid(), Some(meta.as_bytes())).unwrap();
    }
}

#[test]
fn full_database_roundtrip() {
    let dir = temp_dir("roundtrip");
    {
        let mut db = open_durable(&dir);
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
        db.bulk_load("cities_rep", cities).unwrap();
        let states: Vec<Value> = gen::state_grid(6, 6)
            .into_iter()
            .map(|(n, poly)| Value::tuple(vec![Value::Str(n), Value::Pgon(poly)]))
            .collect();
        db.bulk_load("states_rep", states).unwrap();
    }
    // Reopen: everything is back.
    {
        let mut db = open_durable(&dir);
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
        let mut db = open_durable(&dir);
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
    }
    {
        let mut db = open_durable(&dir);
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

/// Run `query`, which must fail on reading an undefined object, and
/// return the name that object's error carries.
fn undefined_object(db: &mut Database, query: &str) -> String {
    match db.query(query) {
        Err(SystemError::Exec(ExecError::UndefinedObject(name))) => name.to_string(),
        Err(e) => panic!("`{query}`: wrong error: {e}"),
        Ok(v) => panic!("`{query}` read an undefined object: {v:?}"),
    }
}

/// A view has no stored image, so the snapshot skips it: reading one
/// that has no value — fresh from `create`, or back from a durable
/// reopen — is a typed error that reports it by name, and re-running
/// its defining update restores it.
#[test]
fn views_are_reported_as_skipped() {
    const SCHEMA: &str = r#"
        type t = tuple(<(a, int)>);
        create r : rel(t);
        update r := insert(r, mktuple[(a, 1)]);
        create v : ( -> rel(t));
    "#;
    const DEFINE: &str = "update v := fun () r select[a > 0];";
    let dir = temp_dir("views");
    {
        let mut db = open_durable(&dir);
        db.run(SCHEMA).unwrap();
        assert_eq!(undefined_object(&mut db, "v count"), "v");
        let err = db.query("v count").unwrap_err().to_string();
        assert!(
            err.contains("object `v` has no value") && err.contains("re-run"),
            "{err}"
        );
        db.run(DEFINE).unwrap();
        assert_eq!(as_count(&db.query("v count").unwrap()), 1);
    }
    {
        let mut db = open_durable(&dir);
        // The view's type survives the reopen; its value does not.
        assert_eq!(undefined_object(&mut db, "v count"), "v");
        db.run(DEFINE).unwrap();
        assert_eq!(as_count(&db.query("v count").unwrap()), 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A committed meta record that is not a snapshot fails the open with a
/// persistence error.
#[test]
fn corrupt_snapshots_error_cleanly() {
    let disks = Disks::new();
    disks
        .open()
        .unwrap()
        .run("type t = tuple(<(a, int)>); create r : rel(t);")
        .unwrap();
    disks.commit_meta("{ not json !");
    let Err(err) = disks.open() else {
        panic!("opening a corrupt snapshot must fail");
    };
    assert!(err.to_string().contains("persistence error"), "{err}");
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

/// A WAL whose last catalog snapshot holds a partitioned object is
/// refused with a typed error — never opened with the spec dropped and
/// the object served wrong.
#[test]
fn partitioned_snapshots_are_refused_with_a_typed_error() {
    let spec_map = format!(r#"{{"items_rep":{HASH_2_SPEC}}}"#);
    let part_image =
        format!(r#"{{"Part":{{"spec":{HASH_2_SPEC},"parts":[{BTREE_IMAGE},{BTREE_IMAGE}]}}}}"#);
    let refused = [
        ("spec and image", format_1_snapshot(&spec_map, &part_image)),
        ("spec only", format_1_snapshot(&spec_map, BTREE_IMAGE)),
        ("image only", format_1_snapshot("{}", &part_image)),
    ];
    for (case, snapshot) in &refused {
        let disks = Disks::new();
        disks.commit_meta(snapshot);
        match disks.open() {
            Err(SystemError::PartitionedObject(name)) => assert_eq!(name.as_str(), "items_rep"),
            Err(e) => panic!("{case}: wrong error: {e}"),
            Ok(_) => panic!("{case}: a partitioned snapshot recovered"),
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

/// The meta record of a commit by this version, rewritten into format 1
/// (no `format` field, an empty `partitions` map), recovers with the
/// same contents.
#[test]
fn format_1_snapshots_without_partitions_still_open() {
    let disks = Disks::new();
    disks.open().unwrap().run(TWO_ITEMS).unwrap();
    let current = disks.last_meta();
    let format_1 = current.replacen(r#""format":2,"#, "", 1).replacen(
        r#""relations":{}"#,
        r#""relations":{},"partitions":{},"stats":{}"#,
        1,
    );
    assert!(
        !format_1.contains(r#""format""#) && format_1.contains(r#""partitions":{}"#),
        "unexpected snapshot layout: {current}"
    );
    disks.commit_meta(&format_1);
    answers_two_items(&mut disks.open().unwrap());
}

/// A meta record whose catalog still holds a populated `stats` key
/// recovers and answers as before, and the next snapshot logged (here
/// by a checkpoint) is the one this version wrote, without the key.
#[test]
fn snapshots_with_statistics_open_and_drop_them() {
    let disks = Disks::new();
    disks.open().unwrap().run(TWO_ITEMS).unwrap();
    let current = disks.last_meta();
    disks.commit_meta(&with_old_stats(&current));
    {
        let mut db = disks.open().unwrap();
        answers_two_items(&mut db);
        db.checkpoint().unwrap();
    }
    assert_eq!(disks.last_meta(), current);
}

/// The same for a statement committed after recovery: it logs the
/// catalog without the key, and the next recovery installs that.
#[test]
fn wal_meta_records_with_statistics_recover() {
    let disks = Disks::new();
    disks.open().unwrap().run(TWO_ITEMS).unwrap();
    let current = disks.last_meta();
    disks.commit_meta(&with_old_stats(&current));
    {
        let mut db = disks.open().unwrap();
        answers_two_items(&mut db);
        db.run(r#"update items_rep := insert(items_rep, mktuple[(k, 5), (label, "five")]);"#)
            .unwrap();
    }
    assert!(!disks.last_meta().contains(r#""stats""#));
    let mut db = disks.open().unwrap();
    assert_eq!(as_count(&db.query("items_rep feed count").unwrap()), 3);
}

/// A statement whose meta record would exceed the write-ahead log's
/// record limit fails with a typed error naming the size and the limit,
/// changes nothing, and every later commit survives a reopen. (A 20 MiB
/// string images as a record of about 70 MB, over the 64 MiB limit.)
#[test]
fn a_commit_over_the_log_record_limit_fails_and_later_commits_survive() {
    let disks = Disks::new();
    {
        let mut db = disks.open().unwrap();
        db.run("create k : int; update k := 1; create s : string;")
            .unwrap();
        let big = "x".repeat(20 << 20);
        let err = db.run(&format!("update s := \"{big}\";")).unwrap_err();
        let SystemError::Exec(ExecError::Storage(StorageError::LogRecordTooLarge { size, max })) =
            &err
        else {
            panic!("expected a log record limit error, got {err}");
        };
        assert!(size > max, "{size} <= {max}");
        let msg = err.to_string();
        assert!(
            msg.contains(&size.to_string()) && msg.contains(&max.to_string()),
            "{msg}"
        );
        assert_eq!(db.query("s").unwrap(), Value::Undefined);
        db.run("update k := 2;").unwrap();
        assert_eq!(db.query("k").unwrap(), Value::Int(2));
    }
    let mut db = disks.open().unwrap();
    assert_eq!(db.query("k").unwrap(), Value::Int(2));
    assert_eq!(db.query("s").unwrap(), Value::Undefined);
}

/// Every structure kind plus a model relation and the `rep` catalog.
const ALL_STRUCTURES: &str = r#"
    type city = tuple(<(cname, string), (center, point), (pop, int)>);
    type state = tuple(<(sname, string), (region, pgon)>);
    create cities : rel(city);
    create bt : btree(city, pop, int);
    create kb : kbtree(city, fun (c: city) c pop div 1000);
    create mb : mbtree(city, <cname, pop>);
    create states_rep : lsdtree(state, fun (s: state) bbox(s region));
    create sr : srel(city);
    create tr : tidrel(city);
    create rep : catalog(<ident, ident>);
    update rep := insert(rep, cities, bt);
"#;

fn structure_answers(db: &mut Database) -> Vec<String> {
    [
        "bt feed count",
        "bt exactmatch[310] count",
        "bt count",
        "cities select[pop > 5000] count",
        "kb range[2, 4] count",
        "mb feed count",
        "states_rep (makepoint(125.0, 125.0)) point_search count",
        "states_rep (makerect(0.0, 0.0, 1000.0, 1000.0)) overlap_search count",
        "sr feed count",
        "tr feed count",
    ]
    .iter()
    .map(|q| match db.query(q) {
        Ok(v) => format!("{q}: {}", as_count(&v)),
        Err(e) => format!("{q}: error: {e}"),
    })
    .collect()
}

/// A reopen attaches every stored structure to its pages and allocates
/// none: reopening three times leaves the data disk's page count as it
/// was, and every object answers the same queries each time.
#[test]
fn reopening_attaches_every_structure_and_allocates_no_page() {
    let disks = Disks::new();
    let want = {
        let mut db = disks.open().unwrap();
        db.run(ALL_STRUCTURES).unwrap();
        let cities: Vec<Value> = gen::uniform_points(200, 9)
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
        for name in ["bt", "kb", "mb", "sr", "tr"] {
            db.bulk_load(name, cities.clone()).unwrap();
        }
        let states: Vec<Value> = gen::state_grid(4, 4)
            .into_iter()
            .map(|(n, poly)| Value::tuple(vec![Value::Str(n), Value::Pgon(poly)]))
            .collect();
        db.bulk_load("states_rep", states).unwrap();
        structure_answers(&mut db)
    };
    assert!(want.iter().all(|a| !a.contains("error")), "{want:?}");
    let pages = disks.data.num_pages();
    for reopen in 1..=3 {
        let mut db = disks.open().unwrap();
        assert_eq!(structure_answers(&mut db), want, "reopen {reopen}");
        drop(db);
        assert_eq!(
            disks.data.num_pages(),
            pages,
            "reopen {reopen} grew the data disk"
        );
    }
}

/// Object images are bytes read from disk: an image that does not fit
/// its object's type is refused with a typed error naming the object,
/// and the database does not open.
#[test]
fn images_that_do_not_fit_their_type_are_refused() {
    let disks = Disks::new();
    disks
        .open()
        .unwrap()
        .run("type t = tuple(<(k, int)>); create sr : srel(t); create bt : btree(t, k, int);")
        .unwrap();
    let current = disks.last_meta();
    let cases = [
        (
            "sr",
            r#"{"SRel":[]}"#,
            r#"{"BTree":{"root":0,"len":0}}"#,
            "BTree",
        ),
        ("sr", r#"{"SRel":[]}"#, r#"{"TidRel":[]}"#, "TidRel"),
        (
            "bt",
            r#"{"BTree":{"root":0,"len":0}}"#,
            r#"{"Rel":[]}"#,
            "Rel",
        ),
    ];
    for (name, fits, misfit, kind) in cases {
        let meta = current.replacen(
            &format!(r#"["{name}",{fits}]"#),
            &format!(r#"["{name}",{misfit}]"#),
            1,
        );
        assert_ne!(meta, current, "unexpected snapshot layout: {current}");
        disks.commit_meta(&meta);
        match disks.open() {
            Err(SystemError::Exec(ExecError::ImageMismatch { object, image, .. })) => {
                assert_eq!((object.as_str(), image), (name, kind))
            }
            Err(e) => panic!("{name} as {kind}: wrong error: {e}"),
            Ok(_) => panic!("{name} as {kind}: a misfit image was installed"),
        }
    }
    disks.commit_meta(&current);
    disks.open().unwrap();
}
