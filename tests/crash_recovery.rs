//! Crash matrix: a durable database is killed at *every* write index of
//! an update workload (clean crashes and torn half-page writes), then
//! reopened, and its recovered state must equal exactly one of the
//! per-statement reference states — the state after the last
//! acknowledged statement, or (for a torn crash that durably landed an
//! unacknowledged commit) the state one statement later. Never a hybrid.
//!
//! The media (two `MemDisk`s for data pages and the WAL) survive the
//! simulated crash; only the `FaultDisk` overlay — writes the process
//! never synced — is lost, which is exactly the power-failure model.
//!
//! The bulk-load cases kill a durable `bulk_load` at every write index
//! (the recovered object holds none of the load or all of it) and fail
//! it with a transient write error at every write index (the database's
//! sync policy is unchanged).
//!
//! The failure matrix fails each kind of writing statement — `type`,
//! `create`, data updates, a catalog update, `delete` and `bulk_load` —
//! with a transient write error at every write index it performs: the
//! statement reports the error, the database is exactly as before it,
//! and the next statement commits and survives a reopen.

use sos_core::Symbol;
use sos_exec::{render, Value};
use sos_storage::{DiskManager, FaultClock, FaultDisk, FaultSchedule, MemDisk};
use sos_system::{Database, DurabilityConfig, SyncPolicy, SystemError};
use std::sync::Arc;

/// The durable backing media: survives crashes, shared across opens.
struct Media {
    data: Arc<dyn DiskManager>,
    wal: Arc<dyn DiskManager>,
}

/// Buffer-pool frames for the statement matrix and for the bulk-load
/// cases. Every case opens under the default `PerCommit` policy.
const MATRIX_FRAMES: usize = 64;
const LOAD_FRAMES: usize = 256;

impl Media {
    fn new() -> Media {
        Media {
            data: Arc::new(MemDisk::new()),
            wal: Arc::new(MemDisk::new()),
        }
    }

    /// Open the database over this media through fault-injecting disks.
    /// Both disks share one clock, so a crash index addresses a single
    /// interleaved sequence of data and WAL writes.
    fn open(&self, schedule: FaultSchedule) -> (Result<Database, SystemError>, Arc<FaultClock>) {
        self.open_frames(schedule, MATRIX_FRAMES)
    }

    fn open_frames(
        &self,
        schedule: FaultSchedule,
        frames: usize,
    ) -> (Result<Database, SystemError>, Arc<FaultClock>) {
        let clock = FaultClock::new(schedule);
        let data: Arc<dyn DiskManager> =
            Arc::new(FaultDisk::new(Arc::clone(&self.data), Arc::clone(&clock)));
        let wal: Arc<dyn DiskManager> =
            Arc::new(FaultDisk::new(Arc::clone(&self.wal), Arc::clone(&clock)));
        let db = Database::builder()
            .durability(DurabilityConfig::disks(data, wal))
            .frame_capacity(frames)
            .try_build();
        (db, clock)
    }
}

/// The update workload: model-level inserts and deletes translated onto
/// a B-tree representation (the Section 6 trace), exercising page
/// allocation, catalog changes, and multi-page commits.
const STMTS: &[&str] = &[
    "type item = tuple(<(k, int), (label, string)>);",
    "create items : rel(item);",
    "create items_rep : btree(item, k, int);",
    "create rep : catalog(<ident, ident>);",
    "update rep := insert(rep, items, items_rep);",
    r#"update items := insert(items, mktuple[(k, 5), (label, "five")]);"#,
    r#"update items := insert(items, mktuple[(k, 2), (label, "two")]);"#,
    r#"update items := insert(items, mktuple[(k, 8), (label, "eight")]);"#,
    "update items := delete(items, fun (t: item) t k <= 2);",
    r#"update items := insert(items, mktuple[(k, 3), (label, "three")]);"#,
];

/// A deterministic rendering of everything observable: which objects
/// exist and, when the representation B-tree exists, its full contents
/// in key order. Two runs in the same state render identically.
fn observe(db: &mut Database) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut names: Vec<String> = db.catalog().objects().map(|o| o.name.to_string()).collect();
    names.sort();
    parts.push(format!("objects:{}", names.join(",")));
    if names.iter().any(|n| n == "items_rep") {
        match db.query("items_rep feed") {
            Ok(v) => parts.push(format!("items_rep:{}", render(&v))),
            Err(e) => parts.push(format!("items_rep:error:{e}")),
        }
    }
    parts.join(" ")
}

/// Fault-free reference run on fresh media: the observable state after
/// every statement prefix, plus the total number of disk writes the
/// whole workload performs (the matrix's crash-index space).
fn reference() -> (Vec<String>, u64) {
    let media = Media::new();
    let (db, clock) = media.open(FaultSchedule::default());
    let mut db = db.expect("fault-free open");
    let mut states = vec![observe(&mut db)];
    for stmt in STMTS {
        db.run(stmt).expect("fault-free statement");
        states.push(observe(&mut db));
    }
    drop(db);
    (states, clock.writes())
}

/// Run the workload until the injected fault bites; returns how many
/// statements were acknowledged (`Ok`) before the first error.
fn run_until_crash(media: &Media, schedule: FaultSchedule) -> usize {
    let (db, _clock) = media.open(schedule);
    let Ok(mut db) = db else {
        // Crashed while opening the empty database: nothing acknowledged.
        return 0;
    };
    let mut acked = 0;
    for stmt in STMTS {
        match db.run(stmt) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    acked
}

/// The matrix: crash the run at every write index (clean and torn),
/// reopen cleanly, and require a statement-boundary state.
#[test]
fn crash_at_every_write_index_recovers_to_a_statement_boundary() {
    let (refs, total_writes) = reference();
    assert!(
        total_writes > 10,
        "workload too small to be a meaningful matrix ({total_writes} writes)"
    );
    for torn in [false, true] {
        for i in 0..total_writes {
            let schedule = if torn {
                FaultSchedule::torn_at(i)
            } else {
                FaultSchedule::crash_at(i)
            };
            let media = Media::new();
            let acked = run_until_crash(&media, schedule);
            let (db, _) = media.open(FaultSchedule::default());
            let mut db = db.unwrap_or_else(|e| {
                panic!("crash at write {i} (torn={torn}): clean reopen failed: {e}")
            });
            let got = observe(&mut db);
            drop(db);
            // Exactly the last acknowledged statement's state — or, when
            // the torn write durably landed a commit whose acknowledgement
            // the crash swallowed, the next statement's. Anything else is
            // a hybrid (atomicity violation) or lost data (durability
            // violation).
            let next_ok = acked + 1 < refs.len() && got == refs[acked + 1];
            assert!(
                got == refs[acked] || next_ok,
                "crash at write {i} (torn={torn}), {acked} statement(s) acknowledged:\n  \
                 recovered: {got}\n  expected:  {}\n  or:        {}",
                refs[acked],
                refs.get(acked + 1).map(String::as_str).unwrap_or("(none)")
            );
            // Recovery must be idempotent: reopening again (replaying the
            // same log) reaches the identical state. Sampled to keep the
            // matrix fast.
            if i % 5 == 0 {
                let (db2, _) = media.open(FaultSchedule::default());
                let mut db2 = db2.expect("second clean reopen");
                assert_eq!(
                    observe(&mut db2),
                    got,
                    "crash at write {i} (torn={torn}): recovery not idempotent"
                );
            }
        }
    }
}

/// A crash index past the workload's last write must leave the complete
/// final state — and the full matrix above then covers every prefix.
#[test]
fn crash_after_workload_preserves_everything() {
    let (refs, total_writes) = reference();
    let media = Media::new();
    let acked = run_until_crash(&media, FaultSchedule::crash_at(total_writes + 100));
    assert_eq!(acked, STMTS.len(), "no fault should bite");
    let (db, _) = media.open(FaultSchedule::default());
    let mut db = db.expect("clean reopen");
    assert_eq!(observe(&mut db), refs[STMTS.len()]);
}

/// Checkpointing mid-workload must not change what recovery produces —
/// it only bounds the redo scan.
#[test]
fn checkpoint_mid_workload_is_transparent_to_recovery() {
    let (refs, _) = reference();
    let media = Media::new();
    {
        let (db, _) = media.open(FaultSchedule::default());
        let mut db = db.expect("open");
        for (i, stmt) in STMTS.iter().enumerate() {
            db.run(stmt).expect("statement");
            if i == 5 {
                db.checkpoint().expect("checkpoint");
            }
        }
        // Simulated crash: drop without flushing.
    }
    let (db, _) = media.open(FaultSchedule::default());
    let mut db = db.expect("reopen");
    assert_eq!(observe(&mut db), refs[STMTS.len()]);
    let info = *db.recovery_info().expect("durable database");
    assert!(
        info.start_lsn > 0,
        "checkpoint should advance the recovery scan start"
    );
}

/// The same guarantee on real files: a database under `PerCommit` on a
/// directory commits single-row inserts one statement at a time, is
/// dropped with no checkpoint (only the log carries the rows), and the
/// reopened database replays the log and holds every committed row.
#[test]
fn unclean_shutdown_on_real_files_keeps_every_committed_row() {
    const N: usize = 100;
    let dir = std::env::temp_dir().join(format!("sos_crash_real_files_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        Database::builder()
            .durability(DurabilityConfig::dir(&dir).sync_policy(SyncPolicy::PerCommit))
            .try_build()
            .expect("durable open")
    };
    let mut reference = Database::builder().build();
    let mut db = open();
    for stmt in &STMTS[..5] {
        db.run(stmt).expect("schema");
        reference.run(stmt).expect("schema");
    }
    for k in 0..N {
        let stmt = format!(r#"update items := insert(items, mktuple[(k, {k}), (label, "l{k}")]);"#);
        db.run(&stmt).expect("insert");
        reference.run(&stmt).expect("insert");
    }
    drop(db);

    let mut db = open();
    let info = *db.recovery_info().expect("durable database");
    let got = observe(&mut db);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got, observe(&mut reference), "recovery lost committed rows");
    assert!(info.replayed_pages > 0, "recovery replayed no page images");
}

// ---- killed mid-bulk-load ----

const LOAD_N: usize = 300;

const LOAD_SCHEMA: &str = r#"
    type item = tuple(<(k, int), (grp, int), (pad, string)>);
    create bt_rep : btree(item, k, int);
"#;

fn load_tuples() -> Vec<Value> {
    (0..LOAD_N)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("pad{i:06}")),
            ])
        })
        .collect()
}

/// Run create → bulk_load against fault-injecting disks; returns whether
/// the load was acknowledged.
fn load_until_crash(media: &Media, schedule: FaultSchedule) -> bool {
    let (db, _clock) = media.open_frames(schedule, LOAD_FRAMES);
    let Ok(mut db) = db else {
        return false;
    };
    db.run(LOAD_SCHEMA).is_ok() && db.bulk_load("bt_rep", load_tuples()).is_ok()
}

/// Crash the create + bulk-load workload at every write index (clean and
/// torn) and reopen: the recovered B-tree must be empty (the load never
/// committed) or complete. A partial load would break the one-statement
/// durability contract of `bulk_load`, and an acknowledged load must
/// never be lost.
#[test]
fn crash_mid_bulk_load_recovers_to_a_boundary() {
    // Fault-free reference run to size the write-index space.
    let (total_writes, rows) = {
        let media = Media::new();
        let (db, clock) = media.open_frames(FaultSchedule::default(), LOAD_FRAMES);
        let mut db = db.expect("fault-free open");
        db.run(LOAD_SCHEMA).expect("schema");
        let rows = db.bulk_load("bt_rep", load_tuples()).expect("bulk load");
        (clock.writes(), rows)
    };
    assert_eq!(rows, LOAD_N);
    assert!(
        total_writes > 5,
        "workload too small ({total_writes} writes)"
    );
    for torn in [false, true] {
        for i in 0..total_writes {
            let schedule = if torn {
                FaultSchedule::torn_at(i)
            } else {
                FaultSchedule::crash_at(i)
            };
            let media = Media::new();
            let loaded = load_until_crash(&media, schedule);
            let (db, _) = media.open_frames(FaultSchedule::default(), LOAD_FRAMES);
            let mut db = db.unwrap_or_else(|e| {
                panic!("crash at write {i} (torn={torn}): clean reopen failed: {e}")
            });
            // Crashed before the create committed: no object, no rows.
            let n = if db.catalog().objects().any(|o| o.name.as_str() == "bt_rep") {
                match db.query("bt_rep feed count") {
                    Ok(Value::Int(n)) => n,
                    other => panic!("count query failed after recovery: {other:?}"),
                }
            } else {
                0
            };
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
        }
    }
}

/// Fail one write of a durable create + `bulk_load` with a transient
/// error, at every write index. Whenever the load returns `Err`, the
/// default `PerCommit` must still be in force, or every later commit on
/// this database would be acknowledged without an fsync.
#[test]
fn failed_bulk_load_restores_the_sync_policy() {
    let total_writes = {
        let media = Media::new();
        let (db, clock) = media.open_frames(FaultSchedule::default(), LOAD_FRAMES);
        let mut db = db.expect("fault-free open");
        db.run(LOAD_SCHEMA).expect("schema");
        db.bulk_load("bt_rep", load_tuples()).expect("bulk load");
        clock.writes()
    };
    let mut failed_loads = 0;
    for i in 0..total_writes {
        let schedule = FaultSchedule {
            transient_write_errors: vec![i],
            ..Default::default()
        };
        let media = Media::new();
        let (db, _) = media.open_frames(schedule, LOAD_FRAMES);
        let Ok(mut db) = db else { continue };
        if db.run(LOAD_SCHEMA).is_err() {
            continue;
        }
        if db.bulk_load("bt_rep", load_tuples()).is_err() {
            failed_loads += 1;
            assert_eq!(
                db.sync_policy(),
                Some(SyncPolicy::PerCommit),
                "transient error at write {i} left the load's policy in force"
            );
        }
    }
    assert!(failed_loads > 0, "no injected error reached bulk_load");
}

// ---- a failed statement leaves the database as it was ----

/// The failure matrix's database: a model relation translated onto a
/// B-tree, an empty heap, a second model relation and the `rep`
/// catalog.
const FAIL_SETUP: &str = r#"
    type item = tuple(<(k, int), (label, string)>);
    create items : rel(item);
    create items_rep : btree(item, k, int);
    create others : rel(item);
    create spare : tidrel(item);
    create rep : catalog(<ident, ident>);
    update rep := insert(rep, items, items_rep);
    update items := insert(items, mktuple[(k, 5), (label, "five")]);
"#;

/// The statement the failure matrix commits after the failed one.
const FOLLOW_UP: &str = r#"update items := insert(items, mktuple[(k, 1), (label, "one")]);"#;

/// One writing statement of every kind the failure matrix covers.
#[derive(Clone, Copy, Debug)]
enum Write {
    Stmt(&'static str),
    /// `bulk_load` of `FAIL_LOAD_N` tuples into the non-empty B-tree:
    /// enough to split its leaves and move its root.
    BulkLoad,
}

const FAIL_LOAD_N: i64 = 200;

const WRITES: &[(&str, Write)] = &[
    ("type", Write::Stmt("type t2 = int;")),
    ("create", Write::Stmt("create extra : btree(item, k, int);")),
    (
        "data update",
        Write::Stmt(r#"update items := insert(items, mktuple[(k, 9), (label, "nine")]);"#),
    ),
    (
        "heap update",
        Write::Stmt(r#"update spare := insert(spare, mktuple[(k, 3), (label, "three")]);"#),
    ),
    (
        "catalog update",
        Write::Stmt("update rep := insert(rep, others, spare);"),
    ),
    ("delete", Write::Stmt("delete spare;")),
    ("bulk_load", Write::BulkLoad),
];

fn apply(db: &mut Database, write: Write) -> Result<(), SystemError> {
    match write {
        Write::Stmt(stmt) => db.run(stmt).map(drop),
        Write::BulkLoad => {
            let tuples = (100..100 + FAIL_LOAD_N)
                .map(|k| Value::tuple(vec![Value::Int(k), Value::Str(format!("{k:0100}"))]))
                .collect();
            db.bulk_load("items_rep", tuples).map(drop)
        }
    }
}

/// Everything a failed statement could leave behind: the catalog's
/// objects, the named type and `rep` rows the statements add, and the
/// contents and counts of every object, `count` included (a B-tree's
/// count is its in-memory length, not a scan).
fn observe_all(db: &mut Database) -> String {
    let catalog = db.catalog();
    let mut objects: Vec<String> = catalog
        .objects()
        .map(|o| format!("{}: {}", o.name, o.ty))
        .collect();
    objects.sort();
    let t2 = catalog
        .named_type(&Symbol::new("t2"))
        .map(ToString::to_string);
    let rep = catalog
        .relation(&Symbol::new("rep"))
        .map(|r| format!("{:?}", r.rows));
    let mut out = format!("objects [{}] t2 {t2:?} rep {rep:?}", objects.join(", "));
    for q in [
        "items_rep feed",
        "items_rep count",
        "items select[k < 50] count",
        "spare feed",
        "extra feed count",
    ] {
        let v = db
            .query(q)
            .map(|v| render(&v))
            .unwrap_or_else(|e| format!("error: {e}"));
        out.push_str(&format!(" | {q}: {v}"));
    }
    out
}

/// Fail each kind of writing statement with a transient write error at
/// every write index it performs. The statement must report the error
/// and leave the database exactly as before it; the next statement must
/// commit, and a reopen must find what that commit left. The one
/// exception is `bulk_load`'s closing checkpoint: once the load has
/// committed, a failed checkpoint only keeps the old recovery scan
/// start, and the load counts (reported `Ok`, state after the load).
#[test]
fn a_failed_statement_leaves_the_database_as_it_was() {
    let mut faults = Vec::new();
    for &(kind, write) in WRITES {
        // Fault-free references: the write's index range, and the states
        // before it, after it, and after the follow-up either way.
        let media = Media::new();
        let (db, clock) = media.open(FaultSchedule::default());
        let mut db = db.expect("fault-free open");
        db.run(FAIL_SETUP).expect("setup");
        let first = clock.writes();
        let before = observe_all(&mut db);
        apply(&mut db, write).expect("fault-free write");
        let last = clock.writes();
        let after = observe_all(&mut db);
        db.run(FOLLOW_UP).expect("follow-up");
        let after_follow_up = observe_all(&mut db);
        drop(db);
        let before_follow_up = {
            let media = Media::new();
            let (db, _) = media.open(FaultSchedule::default());
            let mut db = db.expect("fault-free open");
            db.run(FAIL_SETUP).expect("setup");
            db.run(FOLLOW_UP).expect("follow-up");
            observe_all(&mut db)
        };
        assert!(last > first, "{kind}: the write performs no disk write");

        let mut failed = 0;
        let mut committed_at = None;
        for i in first..last {
            let media = Media::new();
            let schedule = FaultSchedule {
                transient_write_errors: vec![i],
                ..Default::default()
            };
            let (db, _) = media.open(schedule);
            let mut db = db.expect("open");
            db.run(FAIL_SETUP).expect("setup");
            let (state, next) = match apply(&mut db, write) {
                Err(_) => {
                    failed += 1;
                    if committed_at.is_some() {
                        faults.push(format!("{kind} @{i}: failed after a committed index"));
                    }
                    (&before, &before_follow_up)
                }
                Ok(()) => {
                    if !matches!(write, Write::BulkLoad) {
                        faults.push(format!("{kind} @{i}: the write error was not reported"));
                    }
                    committed_at.get_or_insert(i);
                    (&after, &after_follow_up)
                }
            };
            let got = observe_all(&mut db);
            if got != *state {
                faults.push(format!(
                    "{kind} @{i}: state\n  got:  {got}\n  want: {state}"
                ));
            }
            if let Err(e) = db.run(FOLLOW_UP) {
                faults.push(format!("{kind} @{i}: the follow-up failed: {e}"));
                continue;
            }
            let got = observe_all(&mut db);
            if got != *next {
                faults.push(format!(
                    "{kind} @{i}: after the follow-up\n  got:  {got}\n  want: {next}"
                ));
            }
            drop(db);
            let (db, _) = media.open(FaultSchedule::default());
            match db {
                Ok(mut db) => {
                    let reopened = observe_all(&mut db);
                    if reopened != got {
                        faults.push(format!(
                            "{kind} @{i}: reopened\n  got:  {reopened}\n  want: {got}"
                        ));
                    }
                }
                Err(e) => faults.push(format!("{kind} @{i}: reopen failed: {e}")),
            }
        }
        if failed == 0 {
            faults.push(format!("{kind}: no injected error failed the write"));
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
