//! Differential partitioned-vs-unpartitioned harness: every query must
//! produce the identical *bag* of tuples whether an object is stored in
//! one structure or partitioned across several — under every
//! combination of partitioning method (hash with 2 and 7 partitions,
//! range), worker count (1 and 4), and batch width (1 and 1024).
//!
//! Results are compared as canonicalized multisets: a partition scan
//! concatenates partitions in partition order, which is a different
//! (equally valid) bag order than the single-structure scan.
//!
//! The final test is a crash-matrix case: a durable database is killed
//! mid-`bulk_load` of a partitioned B-tree at sampled write indices,
//! reopened, and must recover to a statement boundary — never to a
//! partially loaded object.

use sos_catalog::{PartMethod, PartSpec};
use sos_core::{Const, Symbol};
use sos_exec::{render, Value};
use sos_geom::gen;
use sos_storage::{DiskManager, FaultClock, FaultDisk, FaultSchedule, MemDisk};
use sos_system::{Database, DurabilityConfig, SystemError};
use std::sync::Arc;

const N_ITEMS: usize = 2000;
const N_CITIES: usize = 600;

/// Queries over the shared schema, drawn from the e2 (operator) and e5
/// (plan) suites: scans, selections with prunable predicates, counts,
/// index probes, an equijoin, and a spatial search_join.
const QUERIES: &[&str] = &[
    "heap_rep feed count",
    "heap_rep feed consume",
    "heap_rep feed filter[fun (t: item) t k > 1500] count",
    "heap_rep feed filter[fun (t: item) (t k > 100) and (t k <= 400)] consume",
    "heap_rep feed filter[fun (t: item) t k = 777] consume",
    "heap_rep feed project[(g, fun (t: item) t grp)] count",
    "bt_rep feed count",
    "bt_rep exactmatch[777] consume",
    "bt_rep range[100, 400] consume",
    "bt_rep range_from[1900] consume",
    "bt_rep range_to[55] consume",
    "bt_rep feed filter[fun (t: item) t k < 250] consume",
    "heap_rep feed mate_rep feed hashjoin[k, j] count",
    "bt_rep feed mate_rep feed hashjoin[k, j] count",
    "cities_rep feed \
     (fun (c: city) states_rep (c center) point_search) \
     search_join count",
    "states_rep feed count",
];

fn item_tuple(i: usize) -> Value {
    Value::tuple(vec![
        Value::Int(i as i64),
        Value::Int((i % 10) as i64),
        Value::Str(format!("pad{i:06}")),
    ])
}

/// The shared schema: a heap (`tidrel`), a clustering B-tree keyed on
/// the same attribute the partitioning routes by, and the Section 4
/// spatial pair (B-tree of cities, LSD-tree of states).
fn build_db(workers: usize, batch: usize) -> Database {
    let mut db = Database::builder()
        .workers(workers)
        .batch_size(batch)
        .build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        type mate = tuple(<(j, int), (tag, string)>);
        type city = tuple(<(cname, string), (center, point), (pop, int)>);
        type state = tuple(<(sname, string), (region, pgon)>);
        create heap_rep : tidrel(item);
        create bt_rep : btree(item, k, int);
        create mate_rep : tidrel(mate);
        create cities_rep : btree(city, pop, int);
        create states_rep : lsdtree(state, fun (s: state) bbox(s region));
    "#,
    )
    .unwrap();
    db
}

/// Load every object through `bulk_load` (itself under test: it must be
/// equivalent to per-tuple inserts regardless of partitioning).
fn load_db(db: &mut Database) {
    let items: Vec<Value> = (0..N_ITEMS).map(item_tuple).collect();
    db.bulk_load("heap_rep", items.clone()).unwrap();
    db.bulk_load("bt_rep", items).unwrap();
    let mates: Vec<Value> = (0..N_ITEMS / 3)
        .map(|i| {
            Value::tuple(vec![
                Value::Int((i * 3) as i64),
                Value::Str(format!("m{i}")),
            ])
        })
        .collect();
    db.bulk_load("mate_rep", mates).unwrap();
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

fn spec(attr: &str, method: PartMethod) -> PartSpec {
    PartSpec {
        attr: Symbol::new(attr),
        method,
    }
}

/// The partitioning layouts under test. `k` runs 0..N_ITEMS, so the
/// range bounds split it unevenly on purpose.
fn layouts() -> Vec<(&'static str, Vec<(&'static str, PartSpec)>)> {
    let by_k = |m: PartMethod| {
        vec![
            ("heap_rep", spec("k", m.clone())),
            ("bt_rep", spec("k", m.clone())),
            // `mate_rep.j` shares `k`'s domain: under the same method the
            // equijoins meet two objects partitioned alike, which the
            // hashjoin drains like any other stream.
            ("mate_rep", spec("j", m.clone())),
            ("cities_rep", spec("pop", m.clone())),
            ("states_rep", spec("region", m)),
        ]
    };
    vec![
        ("hash2", by_k(PartMethod::Hash { parts: 2 })),
        ("hash7", by_k(PartMethod::Hash { parts: 7 })),
        (
            "range",
            by_k(PartMethod::Range {
                bounds: vec![Const::Int(300), Const::Int(1100)],
            }),
        ),
    ]
}

#[test]
fn partitioned_equals_unpartitioned_across_methods_workers_and_batches() {
    for workers in [1usize, 4] {
        for batch in [1usize, 1024] {
            let mut base = build_db(workers, batch);
            load_db(&mut base);
            let expected: Vec<String> = QUERIES
                .iter()
                .map(|q| canon(&base.query(q).unwrap()))
                .collect();
            for (layout_name, specs) in layouts() {
                let mut db = build_db(workers, batch);
                for (obj, s) in &specs {
                    db.partition_object(obj, s.clone()).unwrap();
                }
                load_db(&mut db);
                for (q, want) in QUERIES.iter().zip(&expected) {
                    let got = canon(&db.query(q).unwrap());
                    assert_eq!(
                        &got, want,
                        "{layout_name} (workers={workers}, batch={batch}) diverged on `{q}`"
                    );
                }
            }
        }
    }
}

/// Partitioning a *populated* object must preserve its contents (the
/// repartitioning path routes every existing tuple).
#[test]
fn partitioning_a_populated_object_preserves_contents() {
    let mut base = build_db(2, 1024);
    load_db(&mut base);
    let before = canon(&base.query("heap_rep feed consume").unwrap());
    let n = base.query("bt_rep feed count").unwrap();
    base.partition_object("heap_rep", spec("k", PartMethod::Hash { parts: 4 }))
        .unwrap();
    base.partition_object(
        "bt_rep",
        spec(
            "k",
            PartMethod::Range {
                bounds: vec![Const::Int(999)],
            },
        ),
    )
    .unwrap();
    assert_eq!(canon(&base.query("heap_rep feed consume").unwrap()), before);
    assert_eq!(base.query("bt_rep feed count").unwrap(), n);
    // And the spec is recorded.
    assert!(base
        .catalog()
        .partition_spec(&Symbol::new("heap_rep"))
        .is_some());
}

/// Partition specs survive save/open: the reopened database routes and
/// prunes exactly like the original.
#[test]
fn partition_spec_survives_save_and_open() {
    let dir = std::env::temp_dir().join(format!("sos_part_persist_{}", std::process::id()));
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
        db.partition_object("bt_rep", spec("k", PartMethod::Hash { parts: 3 }))
            .unwrap();
        db.bulk_load("bt_rep", (0..500).map(item_tuple).collect())
            .unwrap();
        expected = canon(&db.query("bt_rep exactmatch[123] consume").unwrap());
        db.save(&dir).unwrap();
    }
    let mut db = Database::open_dir(&dir).unwrap();
    assert_eq!(
        db.catalog()
            .partition_spec(&Symbol::new("bt_rep"))
            .unwrap()
            .method
            .parts(),
        3
    );
    assert_eq!(
        canon(&db.query("bt_rep exactmatch[123] consume").unwrap()),
        expected
    );
    assert_eq!(db.query("bt_rep feed count").unwrap(), Value::Int(500));
    // Pruning still engages after reopen: an exactmatch touches 1 of 3
    // partitions.
    let s = db.op_stats("exactmatch").unwrap();
    assert!(s.partitions > 0 && s.partitions_pruned > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- crash matrix: killed mid-bulk-load ----

const LOAD_N: usize = 300;

fn crash_observe(db: &mut Database) -> (bool, i64) {
    let exists = db.catalog().objects().any(|o| o.name.as_str() == "bt_rep");
    if !exists {
        // Crashed before the create committed.
        return (false, 0);
    }
    let has = db
        .catalog()
        .partition_spec(&Symbol::new("bt_rep"))
        .is_some();
    let n = match db.query("bt_rep feed count") {
        Ok(Value::Int(n)) => n,
        other => panic!("count query failed after recovery: {other:?}"),
    };
    (has, n)
}

/// Run create → partition → bulk_load against fault-injecting disks;
/// returns whether each step was acknowledged.
fn crash_run(
    data: &Arc<dyn DiskManager>,
    wal: &Arc<dyn DiskManager>,
    schedule: FaultSchedule,
) -> (bool, bool) {
    let clock = FaultClock::new(schedule);
    let fdata: Arc<dyn DiskManager> =
        Arc::new(FaultDisk::new(Arc::clone(data), Arc::clone(&clock)));
    let fwal: Arc<dyn DiskManager> = Arc::new(FaultDisk::new(Arc::clone(wal), Arc::clone(&clock)));
    let Ok(mut db) = Database::builder()
        .durability(DurabilityConfig::disks(fdata, fwal))
        .frame_capacity(256)
        .try_build()
    else {
        return (false, false);
    };
    let created = db
        .run(
            r#"
            type item = tuple(<(k, int), (grp, int), (pad, string)>);
            create bt_rep : btree(item, k, int);
        "#,
        )
        .is_ok()
        && db
            .partition_object("bt_rep", spec("k", PartMethod::Hash { parts: 3 }))
            .is_ok();
    if !created {
        return (false, false);
    }
    let loaded = db
        .bulk_load("bt_rep", (0..LOAD_N).map(item_tuple).collect())
        .is_ok();
    (true, loaded)
}

/// Crash the partition + bulk-load workload at every write index and
/// reopen: the recovered database must hold the partitioned object
/// either empty (load never committed) or complete — a partial load
/// would break the one-statement durability contract of `bulk_load`.
#[test]
fn crash_mid_bulk_load_recovers_partitioned_object_to_a_boundary() {
    // Fault-free reference run to size the write-index space.
    let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let wal: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    let clock = FaultClock::new(FaultSchedule::default());
    {
        let fdata: Arc<dyn DiskManager> =
            Arc::new(FaultDisk::new(Arc::clone(&data), Arc::clone(&clock)));
        let fwal: Arc<dyn DiskManager> =
            Arc::new(FaultDisk::new(Arc::clone(&wal), Arc::clone(&clock)));
        let mut db = Database::builder()
            .durability(DurabilityConfig::disks(fdata, fwal))
            .frame_capacity(256)
            .try_build()
            .unwrap();
        db.run(
            r#"
            type item = tuple(<(k, int), (grp, int), (pad, string)>);
            create bt_rep : btree(item, k, int);
        "#,
        )
        .unwrap();
        db.partition_object("bt_rep", spec("k", PartMethod::Hash { parts: 3 }))
            .unwrap();
        db.bulk_load("bt_rep", (0..LOAD_N).map(item_tuple).collect())
            .unwrap();
    }
    let total_writes = clock.writes();
    assert!(
        total_writes > 5,
        "workload too small ({total_writes} writes)"
    );
    for torn in [false, true] {
        let mut i = 0;
        while i < total_writes {
            let schedule = if torn {
                FaultSchedule::torn_at(i)
            } else {
                FaultSchedule::crash_at(i)
            };
            let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
            let wal: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
            let (parted, loaded) = crash_run(&data, &wal, schedule);
            let mut db = reopen(&data, &wal).unwrap_or_else(|e| {
                panic!("crash at write {i} (torn={torn}): clean reopen failed: {e}")
            });
            let (has_spec, n) = crash_observe(&mut db);
            assert!(
                n == 0 || n == LOAD_N as i64,
                "crash at write {i} (torn={torn}): partial bulk load survived \
                 ({n} of {LOAD_N} tuples)"
            );
            if loaded {
                assert_eq!(
                    n, LOAD_N as i64,
                    "crash at write {i} (torn={torn}): acknowledged bulk load lost"
                );
            }
            if parted && n > 0 {
                assert!(
                    has_spec,
                    "crash at write {i} (torn={torn}): loaded object lost its partition spec"
                );
            }
            i += 1;
        }
    }
}

fn reopen(
    data: &Arc<dyn DiskManager>,
    wal: &Arc<dyn DiskManager>,
) -> Result<Database, SystemError> {
    Database::builder()
        .durability(DurabilityConfig::disks(Arc::clone(data), Arc::clone(wal)))
        .frame_capacity(256)
        .try_build()
}
