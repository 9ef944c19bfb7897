//! B6 — Stream pipeline throughput (Section 4's query processing
//! algebra): feed, filter, project, replace, collect, sortby.

use bench::{as_count, keyed_db};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_streams(c: &mut Criterion) {
    let n = 20_000usize;
    let mut db = keyed_db(n);
    let mut group = c.benchmark_group("streams");
    group.sample_size(10);
    group.bench_function("feed-count", |b| {
        b.iter(|| as_count(&db.query("items_rep feed count").unwrap()))
    });
    group.bench_function("feed-filter", |b| {
        b.iter(|| {
            as_count(
                &db.query("items_rep feed filter[k mod 2 = 0] count")
                    .unwrap(),
            )
        })
    });
    group.bench_function("feed-project", |b| {
        b.iter(|| {
            as_count(
                &db.query("items_rep feed project[(k2, fun (t: item) t k * 2)] count")
                    .unwrap(),
            )
        })
    });
    group.bench_function("feed-replace-collect", |b| {
        b.iter(|| {
            as_count(
                &db.query("items_rep feed replace[k, fun (t: item) t k + 1] collect count")
                    .unwrap(),
            )
        })
    });
    group.bench_function("feed-sortby-head", |b| {
        b.iter(|| {
            as_count(
                &db.query("items_rep feed sortby[payload] head[100] count")
                    .unwrap(),
            )
        })
    });
    // Pipelined early termination: head[5] over 20k tuples.
    group.bench_function("feed-head5-pipelined", |b| {
        b.iter(|| as_count(&db.query("items_rep feed head[5] count").unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_streams);
criterion_main!(benches);
