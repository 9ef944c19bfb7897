//! Vectorized-batch speedup gate.
//!
//! Pulling the cursor pipeline (`Cursor::next_batch_into`) in wide
//! batches must beat pulling it one tuple per call: one closure
//! environment setup and one kernel dispatch per batch instead of per
//! tuple. This bench times
//! the same selection pipeline at batch widths 1 / 64 / 1024, each with
//! the expression compiler on and off, plus a compiled/interpreted
//! search-join pair. Two CI smokes gate regressions:
//!
//! * `BATCH_SPEEDUP_SMOKE=1` — the batched drain is no slower than the
//!   tuple-at-a-time drain;
//! * `COMPILE_SPEEDUP_SMOKE=1` — the compiled batched selection is
//!   faster than the interpreted batched selection.

use bench::{as_count, heap_db};
use criterion::{black_box, Criterion};
use sos_system::Database;
use std::time::Instant;

const QUERY: &str = "hitems feed filter[k mod 7 = 0] count";
const JOIN_QUERY: &str = "emps_rep feed (fun (e: emp) depts_rep feed \
     filter[fun (d: dpt) e dept = d dno]) search_join count";

/// The PR3 search-join workload: 8000 outer tuples probing a 50-row
/// inner relation per tuple.
fn join_db() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type emp = tuple(<(ename, string), (dept, int)>);
        type dpt = tuple(<(dno, int), (dname, string)>);
        create emps_rep : tidrel(emp);
        create depts_rep : tidrel(dpt);
    "#,
    )
    .unwrap();
    let emps: Vec<sos_exec::Value> = (0..8000)
        .map(|i| {
            sos_exec::Value::tuple(vec![
                sos_exec::Value::Str(format!("e{i}")),
                sos_exec::Value::Int((i % 50) as i64),
            ])
        })
        .collect();
    let depts: Vec<sos_exec::Value> = (0..50)
        .map(|d| {
            sos_exec::Value::tuple(vec![
                sos_exec::Value::Int(d as i64),
                sos_exec::Value::Str(format!("d{d}")),
            ])
        })
        .collect();
    db.bulk_insert("emps_rep", emps).unwrap();
    db.bulk_insert("depts_rep", depts).unwrap();
    db
}

fn bench_batch_speedup(c: &mut Criterion) {
    let mut db = heap_db(100_000);
    let mut group = c.benchmark_group("batch-speedup");
    for width in [1usize, 64, 1024] {
        db.set_batch_size(width);
        for compile in [false, true] {
            db.set_compile_exprs(compile);
            let mode = if compile { "compiled" } else { "interp" };
            group.bench_function(format!("selection-batch-{width}-{mode}"), |b| {
                b.iter(|| db.query(QUERY).unwrap());
            });
        }
    }
    group.finish();

    let mut db = join_db();
    db.set_batch_size(1024);
    let mut group = c.benchmark_group("compile-speedup");
    for compile in [false, true] {
        db.set_compile_exprs(compile);
        let mode = if compile { "compiled" } else { "interp" };
        group.bench_function(format!("search-join-{mode}"), |b| {
            b.iter(|| db.query(JOIN_QUERY).unwrap());
        });
    }
    group.finish();
}

/// Median per-iteration nanoseconds over `samples` batches.
fn median_nanos(db: &mut Database, query: &str, samples: usize, iters: usize) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(db.query(query).unwrap());
            }
            (start.elapsed().as_nanos() as u64) / iters as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn smoke() {
    let mut db = heap_db(20_000);
    // The batch gate predates the compiler; keep measuring what it
    // always measured — the interpreted batch path vs the tuple drain.
    db.set_compile_exprs(false);
    // Warm the pool and the plan path before timing anything.
    assert_eq!(as_count(&db.query(QUERY).unwrap()), 2858);

    db.set_batch_size(1);
    let tuple = median_nanos(&mut db, QUERY, 7, 3);
    db.set_batch_size(1024);
    let batched = median_nanos(&mut db, QUERY, 7, 3);

    println!("batch-speedup smoke: tuple {tuple}ns/iter, batched {batched}ns/iter");
    // The gate asserts "no slower" with a noise allowance; the full
    // bench (and BENCH_PR3.json) records the actual multiple.
    let limit = tuple + tuple / 10 + 200_000;
    assert!(
        batched <= limit,
        "batched selection {batched}ns exceeds the tuple-at-a-time gate {limit}ns (tuple: {tuple}ns)"
    );
}

fn compile_smoke() {
    let mut db = heap_db(20_000);
    db.set_batch_size(1024);
    assert_eq!(as_count(&db.query(QUERY).unwrap()), 2858);

    db.set_compile_exprs(false);
    let interp = median_nanos(&mut db, QUERY, 7, 3);
    db.set_compile_exprs(true);
    let compiled = median_nanos(&mut db, QUERY, 7, 3);

    println!("compile-speedup smoke: interp {interp}ns/iter, compiled {compiled}ns/iter");
    // BENCH_PR6.json records the full-size multiple (>= 2x); the CI
    // gate only asserts a conservative floor so shared runners with
    // noisy neighbours don't flake.
    let limit = interp - interp / 4 + 200_000;
    assert!(
        compiled <= limit,
        "compiled selection {compiled}ns exceeds the interpreted gate {limit}ns (interp: {interp}ns)"
    );
}

fn main() {
    if std::env::var("BATCH_SPEEDUP_SMOKE").is_ok() {
        smoke();
        return;
    }
    if std::env::var("COMPILE_SPEEDUP_SMOKE").is_ok() {
        compile_smoke();
        return;
    }
    let mut c = Criterion::default();
    bench_batch_speedup(&mut c);
}
