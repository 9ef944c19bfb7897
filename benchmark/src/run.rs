//! Set-up, the measured pass, and the correctness checks around it.
//!
//! Everything goes through the engine's public API in its default
//! configuration: `Database::builder()` defaults plus, for the durable
//! workloads, `DurabilityConfig::dir` with its default
//! `SyncPolicy::PerCommit`. One closed-loop client on this thread.

use crate::gen::{Cell, Class, Expect, Generator, ItemsModel, Stmt, StmtHash};
use crate::trace::{Counters, StmtRecord, Trace};
use crate::workloads::{Storage, Workload};
use sos_exec::Value;
use sos_geom::{Point, Polygon};
use sos_obs::Phase;
use sos_storage::{
    CheckpointStats, DiskManager, FaultClock, FaultDisk, FaultSchedule, MemDisk, WalStats,
};
use sos_system::{Database, DurabilityConfig, MetricsSnapshot, Output};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Attempted and failed operations, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(m) = outcome {
            self.fail(1, m);
        }
    }

    pub fn fail(&mut self, n: u64, message: String) {
        self.failed += n;
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }
}

pub struct Setup {
    /// Everything before the measured phase: generator, schema, row
    /// construction, load, plan guard, reopen, warm-up.
    pub total_s: f64,
    pub loaded: Loaded,
}

pub struct Instance {
    pub db: Database,
    pub gen: Box<dyn Generator>,
    pub hash: StmtHash,
    pub setup: Setup,
}

fn to_value(row: &[Cell]) -> Value {
    Value::tuple(
        row.iter()
            .map(|c| match c {
                Cell::Int(i) => Value::Int(*i),
                Cell::Str(s) => Value::Str(s.clone()),
                Cell::Point(x, y) => Value::Point(Point::new(*x, *y)),
                Cell::Pgon(v) => Value::Pgon(Polygon::new(
                    v.iter().map(|&(x, y)| Point::new(x, y)).collect(),
                )),
            })
            .collect(),
    )
}

fn open(w: &Workload, dir: &Path, frames: Option<usize>) -> Result<Database, String> {
    let mut b = Database::builder();
    if w.storage != Storage::Memory {
        b = b.durability(DurabilityConfig::dir(dir));
    }
    if let Some(f) = frames {
        b = b.frame_capacity(f);
    }
    b.try_build().map_err(|e| format!("open: {e}"))
}

/// Compare one statement's outcome with the oracle's expectation.
fn check(s: &Stmt, out: &Result<Output, String>) -> Result<(), String> {
    let verdict = match (&s.expect, out) {
        (_, Err(e)) => Err(e.clone()),
        (Expect::Updated, Ok(Output::Updated(_))) => Ok(()),
        (Expect::Int(n), Ok(Output::Query(Value::Int(m)))) if n == m => Ok(()),
        (Expect::Real(x), Ok(Output::Query(Value::Real(y))))
            if (x - y).abs() <= 1e-9 * x.abs().max(1.0) =>
        {
            Ok(())
        }
        (Expect::Rows { n, vsum }, Ok(Output::Query(Value::Rel(ts) | Value::Stream(ts)))) => {
            let got: Option<i64> = ts
                .iter()
                .map(|t| t.as_tuple("row").ok()?.get(1)?.as_int("v").ok())
                .sum();
            if ts.len() == *n && got == Some(*vsum) {
                Ok(())
            } else {
                Err(format!(
                    "expected {n} rows with v summing to {vsum}, got {} rows summing to {got:?}",
                    ts.len()
                ))
            }
        }
        (e, Ok(o)) => Err(format!("expected {e:?}, got {o:?}")),
    };
    verdict.map_err(|m| format!("{}: {m}", s.text))
}

fn run_checked(db: &mut Database, s: &Stmt) -> Result<(), String> {
    let out = db.run(&s.text);
    check(s, &out.map(|mut o| o.remove(0)).map_err(|e| e.to_string()))
}

pub struct Loaded {
    /// Row construction plus `Database::bulk_load`.
    pub load_s: f64,
    /// Inside `Database::bulk_load` only.
    pub bulk_load_s: f64,
    pub rows: u64,
    /// Encoded bytes of one `items` row (0 without `items`).
    pub item_row_bytes: u64,
}

/// Run the generator's DDL and bulk-load its tables.
fn create_and_load(db: &mut Database, gen: &dyn Generator) -> Result<Loaded, String> {
    db.run(&gen.schema()).map_err(|e| format!("schema: {e}"))?;
    let mut l = Loaded {
        load_s: 0.0,
        bulk_load_s: 0.0,
        rows: 0,
        item_row_bytes: 0,
    };
    for table in gen.tables() {
        let t = Instant::now();
        let values: Vec<Value> = table.rows.iter().map(|r| to_value(r)).collect();
        if table.object == "items_rep" {
            let row = values[0].encode_tuple("row size");
            l.item_row_bytes = row.map_err(|e| e.to_string())?.len() as u64;
        }
        let b = Instant::now();
        l.rows += db
            .bulk_load(table.object, values)
            .map_err(|e| format!("bulk_load {}: {e}", table.object))? as u64;
        l.bulk_load_s += b.elapsed().as_secs_f64();
        l.load_s += t.elapsed().as_secs_f64();
    }
    Ok(l)
}

/// Build the workload's database from scratch. Durable workloads live in
/// `dir`, which is emptied first.
pub fn set_up(w: &Workload, seed: u64, dir: &Path, tally: &mut Tally) -> Result<Instance, String> {
    let started = Instant::now();
    if w.storage != Storage::Memory {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut gen = w.generator(seed);
    let mut db = open(w, dir, None)?;
    let loaded = create_and_load(&mut db, gen.as_ref())?;
    // Reject, before anything is timed, a read shape the optimizer
    // leaves at model level: it would time the wrong evaluator.
    for shape in gen.read_shapes() {
        let plan = db
            .explain(&shape)
            .map_err(|e| format!("explain {shape}: {e}"))?;
        let left = crate::gen::model_level_ops(plan.plan());
        if !left.is_empty() {
            return Err(format!(
                "`{shape}` stays at model level ({left:?} untranslated): {}",
                plan.plan()
            ));
        }
    }
    if let Storage::DurableSmallPool(frames) = w.storage {
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        drop(db);
        db = open(w, dir, Some(frames))?;
    }
    let mut hash = StmtHash::new();
    for _ in 0..w.warmup {
        let s = gen.next();
        hash.add(&s.text);
        tally.record(run_checked(&mut db, &s));
    }
    Ok(Instance {
        db,
        gen,
        hash,
        setup: Setup {
            total_s: started.elapsed().as_secs_f64(),
            loaded,
        },
    })
}

pub enum Stop {
    /// Stop after the first round that ends at or past this much measured
    /// wall time.
    Seconds(f64),
    /// Run exactly this many rounds (counts then repeat exactly).
    Rounds(usize),
}

pub struct Pass {
    pub rounds: usize,
    pub stmts: u64,
    /// Measured wall time: rounds (statements and their checks) plus the
    /// checkpoints between them; statement generation is outside.
    pub wall_s: f64,
    /// Per class, the latency of every statement in nanoseconds.
    pub lat_ns: BTreeMap<Class, Vec<u64>>,
    /// Result rows returned to the client.
    pub rows_out: u64,
    pub inserts: u64,
    pub checkpoints: Vec<CheckpointStats>,
    /// Engine counters over the pass (reset at its start).
    pub metrics: MetricsSnapshot,
    pub wal: WalStats,
    pub trace: Option<Trace>,
}

fn rows_returned(out: &Output) -> u64 {
    match out {
        Output::Query(Value::Rel(ts) | Value::Stream(ts)) => ts.len() as u64,
        Output::Query(_) => 1,
        _ => 0,
    }
}

/// One statement through separate public calls, with the harness's
/// instants around them and the engine's counters read afterwards;
/// `before` is the snapshot taken after the previous statement and is
/// advanced to this one's.
fn execute_traced(
    db: &mut Database,
    s: &Stmt,
    before: &mut MetricsSnapshot,
    origin: Instant,
) -> (Result<Output, String>, StmtRecord) {
    let t0 = Instant::now();
    let parsed = sos_parser::parse_program(&s.text, db.signature());
    let parse_end = Instant::now();
    let out = match parsed {
        Ok(stmts) => db.execute(&stmts[0]).map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    let execute_end = Instant::now();
    let after = db.metrics();
    let end = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let phase = |p| after.phases.phase(p).1 - before.phases.phase(p).1;
    let record = StmtRecord {
        class: s.class,
        start: at(t0),
        parse_end: at(parse_end),
        execute_end: at(execute_end),
        end: at(end),
        check_ns: phase(Phase::Check),
        optimize_ns: phase(Phase::Optimize),
        exec_ns: phase(Phase::Execute),
        counters: Counters {
            rule_attempts: (after.optimizer.rule_attempts - before.optimizer.rule_attempts) as u64,
            rewrites: (after.optimizer.rewrites - before.optimizer.rewrites) as u64,
            logical_reads: after.pool.logical_reads - before.pool.logical_reads,
            physical_reads: after.pool.physical_reads - before.pool.physical_reads,
            evictions: after.pool.evictions - before.pool.evictions,
            wal_bytes: after.wal.bytes - before.wal.bytes,
            wal_syncs: after.wal.syncs - before.wal.syncs,
        },
    };
    *before = after;
    (out, record)
}

/// The measured phase. With `traced`, each statement is parsed and
/// executed through separate public calls so the harness can put spans
/// around them, and engine tracing is on; otherwise it is one
/// `Database::run` per statement with tracing off.
pub fn run_pass(
    inst: &mut Instance,
    w: &Workload,
    stop: Stop,
    traced: bool,
    tally: &mut Tally,
) -> Pass {
    let db = &mut inst.db;
    db.set_tracing(traced);
    db.reset_metrics();
    let wal_before = db.metrics().wal;
    let mut pass = Pass {
        rounds: 0,
        stmts: 0,
        wall_s: 0.0,
        lat_ns: BTreeMap::new(),
        rows_out: 0,
        inserts: 0,
        checkpoints: Vec::new(),
        metrics: MetricsSnapshot::default(),
        wal: WalStats::default(),
        trace: traced.then(Trace::default),
    };
    let origin = Instant::now();
    loop {
        let round: Vec<Stmt> = (0..w.round).map(|_| inst.gen.next()).collect();
        round.iter().for_each(|s| inst.hash.add(&s.text));
        let mut before = traced.then(|| db.metrics());
        let round_started = Instant::now();
        for s in &round {
            let (outcome, ns) = match (&mut before, &mut pass.trace) {
                (Some(before), Some(trace)) => {
                    let (outcome, record) = execute_traced(db, s, before, origin);
                    trace.stmts.push(record);
                    (outcome, record.execute_end - record.start)
                }
                _ => {
                    let t0 = Instant::now();
                    let out = db.run(&s.text);
                    let ns = t0.elapsed().as_nanos() as u64;
                    (out.map(|mut o| o.remove(0)).map_err(|e| e.to_string()), ns)
                }
            };
            pass.lat_ns.entry(s.class).or_default().push(ns);
            pass.rows_out += outcome.as_ref().map_or(0, rows_returned);
            pass.inserts += (s.class == Class::Insert) as u64;
            tally.record(check(s, &outcome));
        }
        pass.wall_s += round_started.elapsed().as_secs_f64();
        pass.rounds += 1;
        pass.stmts += round.len() as u64;
        let done = match stop {
            Stop::Seconds(s) => pass.wall_s >= s,
            Stop::Rounds(n) => pass.rounds >= n,
        };
        if done {
            break;
        }
        if w.storage == Storage::Durable {
            let t = Instant::now();
            match db.checkpoint() {
                Ok(c) => pass.checkpoints.push(c),
                Err(e) => tally.fail(1, format!("checkpoint: {e}")),
            }
            pass.wall_s += t.elapsed().as_secs_f64();
        }
    }
    pass.metrics = db.metrics();
    pass.wal = pass.metrics.wal.delta(&wal_before);
    db.set_tracing(false);
    pass
}

/// Compare the database's `items` with the generator's model through
/// three aggregates; returns how many rows are missing or surplus (at
/// least 1 when only a sum differs).
fn items_mismatch(db: &mut Database, expect: (i64, i64, i64)) -> Result<u64, String> {
    let mut int = |q: &str| match db.query(q) {
        Ok(Value::Int(n)) => Ok(n),
        Ok(other) => Err(format!("{q}: unexpected {}", other.kind_name())),
        Err(e) => Err(format!("{q}: {e}")),
    };
    let got = (
        int("items_rep feed count")?,
        int("items_rep feed sum[k]")?,
        int("items_rep feed sum[v]")?,
    );
    Ok(if got == expect {
        0
    } else {
        got.0.abs_diff(expect.0).max(1)
    })
}

/// Count one comparison of `items` with the model into `tally`; every
/// differing row is a failed operation.
fn check_items(db: &mut Database, expect: (i64, i64, i64), what: &str, tally: &mut Tally) {
    tally.attempted += 1;
    match items_mismatch(db, expect) {
        Ok(0) => {}
        Ok(n) => tally.fail(n, format!("{what}: {n} row(s) lost or resurrected")),
        Err(e) => tally.fail(1, format!("{what}: {e}")),
    }
}

/// After the measured phase of a workload over `items`: the database
/// must hold exactly the model's rows.
pub fn check_final_state(inst: &mut Instance, tally: &mut Tally) {
    if let Some(model) = inst.gen.items_model() {
        check_items(&mut inst.db, model.totals(), "final state", tally);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Directory copies reopened after the checkpoint-cycling workload;
/// `reopen_s` is the median.
const REOPEN_COPIES: usize = 5;

pub struct DurableCheck {
    /// Wall time of each reopen (`try_build`: recovery + catalog).
    pub reopen_s: Vec<f64>,
    /// Log bytes each reopen scanned and replayed.
    pub replayed_log_bytes: u64,
    /// `pages.db` after a final checkpoint.
    pub stored_bytes: u64,
    pub live_rows: u64,
}

/// What a user of a durable database relies on: drop it without a
/// checkpoint, reopen, and every acknowledged write is there. The
/// directory of the checkpoint-cycling workload is copied
/// [`REOPEN_COPIES`] times and each copy reopened, so every reopen
/// replays the same log tail; then the original is reopened,
/// checkpointed and measured for size.
pub fn check_durability(
    inst: Instance,
    w: &Workload,
    dir: &Path,
    tally: &mut Tally,
) -> Result<DurableCheck, String> {
    let Instance { db, gen, .. } = inst;
    let model: &ItemsModel = gen.items_model().expect("durable workloads run over items");
    let expect = model.totals();
    let (frames, copies) = match w.storage {
        Storage::DurableSmallPool(frames) => (Some(frames), 0),
        _ => (None, REOPEN_COPIES),
    };
    drop(db);
    let copy = dir.with_extension("copy");
    let mut out = DurableCheck {
        reopen_s: Vec::new(),
        replayed_log_bytes: 0,
        stored_bytes: 0,
        live_rows: model.live_rows() as u64,
    };
    for i in 0..=copies {
        let last = i == copies;
        let at = if last { dir } else { &copy };
        if !last {
            copy_dir(dir, &copy).map_err(|e| format!("copy: {e}"))?;
        }
        let t = Instant::now();
        let mut db = open(w, at, frames)?;
        if !last {
            out.reopen_s.push(t.elapsed().as_secs_f64());
        }
        if let Some(info) = db.recovery_info() {
            out.replayed_log_bytes = info.valid_end - info.start_lsn;
        }
        check_items(&mut db, expect, &format!("reopen {i}"), tally);
        if last {
            db.checkpoint()
                .map_err(|e| format!("final checkpoint: {e}"))?;
            drop(db);
            let pages = std::fs::metadata(dir.join("pages.db"));
            out.stored_bytes = pages.map_err(|e| format!("pages.db: {e}"))?.len();
        }
    }
    let _ = std::fs::remove_dir_all(&copy);
    Ok(out)
}

/// Statements replayed by [`crash_pass`].
pub const CRASH_STMTS: usize = 2_000;

/// Crash-durability pass, outside any timed phase. Killing a process
/// leaves the OS cache intact, so the test discards unflushed writes
/// itself: the workload's first statements run over a `FaultDisk` pair
/// that loses everything unsynced at a seeded write index. After the
/// crash the surviving media are reopened; every acknowledged statement
/// must be there (the one in flight may or may not be). Returns the
/// number of statements acknowledged before the crash.
pub fn crash_pass(w: &Workload, seed: u64, tally: &mut Tally) -> Result<u64, String> {
    let media: [Arc<dyn DiskManager>; 2] = [Arc::new(MemDisk::new()), Arc::new(MemDisk::new())];
    let build = |data: Arc<dyn DiskManager>, wal: Arc<dyn DiskManager>| {
        Database::builder()
            .durability(DurabilityConfig::disks(data, wal))
            .try_build()
            .map_err(|e| format!("crash pass open: {e}"))
    };
    let mut gen = w.generator(seed);
    create_and_load(
        &mut build(Arc::clone(&media[0]), Arc::clone(&media[1]))?,
        gen.as_ref(),
    )?;
    // Every write statement syncs at least two log pages, so an index
    // below CRASH_STMTS is always reached.
    let crash_at = 100 + seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (CRASH_STMTS as u64 - 100);
    let clock = FaultClock::new(FaultSchedule::crash_at(crash_at));
    let [data, wal] = media
        .clone()
        .map(|m| -> Arc<dyn DiskManager> { Arc::new(FaultDisk::new(m, Arc::clone(&clock))) });
    let mut db = build(data, wal)?;
    let mut acknowledged = 0;
    for _ in 0..CRASH_STMTS {
        let outcome = run_checked(&mut db, &gen.next());
        if outcome.is_err() && clock.crashed() {
            break;
        }
        tally.record(outcome);
        acknowledged += 1;
    }
    drop(db);
    // The model with exactly the acknowledged statements applied, and
    // (already in `gen`) with the statement in flight applied as well.
    let mut acked = w.generator(seed);
    (0..acknowledged).for_each(|_| drop(acked.next()));
    let states = [
        acked.items_model().expect("items workload").totals(),
        gen.items_model().expect("items workload").totals(),
    ];
    let [data, wal] = media;
    let mut db = build(data, wal)?;
    let lost = states
        .iter()
        .map(|s| items_mismatch(&mut db, *s))
        .collect::<Result<Vec<u64>, String>>()?;
    tally.record(if lost.contains(&0) {
        Ok(())
    } else {
        Err(format!(
            "crash at write {crash_at} after {acknowledged} acknowledged statements: \
             {} row(s) lost or resurrected",
            lost[0]
        ))
    });
    Ok(acknowledged)
}
