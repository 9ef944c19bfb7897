//! B7 — Join strategies on an equi-join: the optimizer's hash join vs
//! the scan-based search join, over growing outer sizes. The hash join
//! is linear; the scan-based nested loop is quadratic-ish.

use bench::as_count;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sos_exec::Value;
use sos_system::Database;

fn join_db(n_emps: usize, n_depts: usize) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type emp = tuple(<(ename, string), (dept, int)>);
        type dpt = tuple(<(dno, int), (dname, string)>);
        create emps : rel(emp);
        create depts : rel(dpt);
        create emps_rep : tidrel(emp);
        create depts_rep : tidrel(dpt);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, emps, emps_rep);
        update rep := insert(rep, depts, depts_rep);
    "#,
    )
    .unwrap();
    let emps: Vec<Value> = (0..n_emps)
        .map(|i| {
            Value::tuple(vec![
                Value::Str(format!("e{i}")),
                Value::Int((i % n_depts) as i64),
            ])
        })
        .collect();
    let depts: Vec<Value> = (0..n_depts)
        .map(|d| Value::tuple(vec![Value::Int(d as i64), Value::Str(format!("d{d}"))]))
        .collect();
    db.bulk_insert("emps_rep", emps).unwrap();
    db.bulk_insert("depts_rep", depts).unwrap();
    db
}

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("joins");
    group.sample_size(10);
    for n in [500usize, 2000, 8000] {
        let mut db = join_db(n, 50);
        // The optimized model join (hashjoin rule).
        let hash = as_count(&db.query("emps depts join[dept = dno] count").unwrap());
        let scan = as_count(
            &db.query(
                "emps_rep feed (fun (e: emp) depts_rep feed \
                 filter[fun (d: dpt) e dept = d dno]) search_join count",
            )
            .unwrap(),
        );
        assert_eq!(hash, scan);
        group.bench_with_input(BenchmarkId::new("hashjoin-optimized", n), &(), |b, _| {
            b.iter(|| as_count(&db.query("emps depts join[dept = dno] count").unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("scan-searchjoin", n), &(), |b, _| {
            b.iter(|| {
                as_count(
                    &db.query(
                        "emps_rep feed (fun (e: emp) depts_rep feed \
                         filter[fun (d: dpt) e dept = d dno]) search_join count",
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_joins);
criterion_main!(benches);
