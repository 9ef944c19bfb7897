//! Property-based crash recovery: for *arbitrary* insert/delete/update
//! programs and *arbitrary* crash schedules, recovery lands exactly on a
//! statement boundary (acknowledged-or-torn-commit), never a hybrid, and
//! recovering twice equals recovering once.
//!
//! The deterministic crash matrix (`crash_recovery.rs`) sweeps every
//! write index of one fixed workload; this sweeps random workloads at
//! random write indices.

use proptest::prelude::*;
use sos_exec::render;
use sos_storage::{DiskManager, FaultClock, FaultDisk, FaultSchedule, MemDisk};
use sos_system::{Database, DurabilityConfig, SystemError};
use std::sync::Arc;

struct Media {
    data: Arc<dyn DiskManager>,
    wal: Arc<dyn DiskManager>,
}

impl Media {
    fn new() -> Media {
        Media {
            data: Arc::new(MemDisk::new()),
            wal: Arc::new(MemDisk::new()),
        }
    }

    /// Open under the default `PerCommit` policy: every acknowledged
    /// statement is durable.
    fn open(&self, schedule: FaultSchedule) -> (Result<Database, SystemError>, Arc<FaultClock>) {
        let clock = FaultClock::new(schedule);
        let data: Arc<dyn DiskManager> =
            Arc::new(FaultDisk::new(Arc::clone(&self.data), Arc::clone(&clock)));
        let wal: Arc<dyn DiskManager> =
            Arc::new(FaultDisk::new(Arc::clone(&self.wal), Arc::clone(&clock)));
        let db = Database::builder()
            .durability(DurabilityConfig::disks(data, wal))
            .frame_capacity(64)
            .try_build();
        (db, clock)
    }
}

/// One random mutation, compiled to a statement of the update language.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(i64),
    Modify(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Inserts listed twice to weight them up (the vendored prop_oneof
    // has no weight syntax): more inserts means deeper trees to crash.
    prop_oneof![
        (-20i64..20).prop_map(Op::Insert),
        (-20i64..20).prop_map(Op::Insert),
        (-20i64..20).prop_map(Op::Delete),
        (-20i64..20).prop_map(Op::Modify),
    ]
}

fn statements(ops: &[Op]) -> Vec<String> {
    let mut stmts = vec![
        "type item = tuple(<(k, int), (label, string)>);".to_string(),
        "create items : rel(item);".to_string(),
        "create items_rep : btree(item, k, int);".to_string(),
        "create rep : catalog(<ident, ident>);".to_string(),
        "update rep := insert(rep, items, items_rep);".to_string(),
    ];
    for op in ops {
        stmts.push(match op {
            Op::Insert(k) => {
                format!(r#"update items := insert(items, mktuple[(k, {k}), (label, "v{k}")]);"#)
            }
            Op::Delete(k) => {
                format!("update items := delete(items, fun (t: item) t k = {k});")
            }
            Op::Modify(k) => format!(
                r#"update items := modify(items, fun (t: item) t k = {k}, label, fun (t: item) "m");"#
            ),
        });
    }
    stmts
}

fn observe(db: &mut Database) -> String {
    if db
        .catalog()
        .objects()
        .any(|o| o.name.as_str() == "items_rep")
    {
        match db.query("items_rep feed") {
            Ok(v) => render(&v),
            Err(e) => format!("error:{e}"),
        }
    } else {
        "absent".to_string()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash an arbitrary program at an arbitrary write; the recovered
    /// state is a statement-boundary state and recovery is idempotent.
    #[test]
    fn random_program_random_crash_recovers_to_a_boundary(
        ops in prop::collection::vec(op_strategy(), 1..15),
        crash_seed in 0u64..10_000,
        torn in any::<bool>(),
    ) {
        let stmts = statements(&ops);

        // Fault-free reference: per-prefix states + the write count.
        let media = Media::new();
        let (db, clock) = media.open(FaultSchedule::default());
        let mut db = db.expect("fault-free open");
        let mut refs = vec![observe(&mut db)];
        for s in &stmts {
            db.run(s).expect("fault-free statement");
            refs.push(observe(&mut db));
        }
        drop(db);
        let total_writes = clock.writes();

        // Crash somewhere inside (or just past) the write sequence.
        let crash_at = crash_seed % (total_writes + 3);
        let schedule = if torn {
            FaultSchedule::torn_at(crash_at)
        } else {
            FaultSchedule::crash_at(crash_at)
        };
        let media = Media::new();
        let (db, _) = media.open(schedule);
        let mut acked = 0usize;
        if let Ok(mut db) = db {
            for s in &stmts {
                match db.run(s) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
            }
        }

        // Recover on clean disks.
        let (db, _) = media.open(FaultSchedule::default());
        let mut db = db.expect("clean reopen after crash");
        let got = observe(&mut db);
        drop(db);
        let next_ok = acked + 1 < refs.len() && got == refs[acked + 1];
        prop_assert!(
            got == refs[acked] || next_ok,
            "crash at {crash_at} (torn={torn}), acked={acked}: got {got}, want {} or {}",
            refs[acked],
            refs.get(acked + 1).map(String::as_str).unwrap_or("(none)")
        );

        // Idempotence: a second recovery reads the same log to the same state.
        let (db2, _) = media.open(FaultSchedule::default());
        let mut db2 = db2.expect("second reopen");
        prop_assert_eq!(observe(&mut db2), got);
    }

    /// With no crash at all, a durable database reopened from its media
    /// always shows every committed statement (durability per se).
    #[test]
    fn committed_programs_survive_reopen(
        ops in prop::collection::vec(op_strategy(), 1..12),
    ) {
        let stmts = statements(&ops);
        let media = Media::new();
        let (db, _) = media.open(FaultSchedule::default());
        let mut db = db.expect("open");
        for s in &stmts {
            db.run(s).expect("statement");
        }
        let want = observe(&mut db);
        drop(db); // no flush, no checkpoint: the WAL alone must carry it
        let (db, _) = media.open(FaultSchedule::default());
        let mut db = db.expect("reopen");
        prop_assert_eq!(observe(&mut db), want);
    }
}
