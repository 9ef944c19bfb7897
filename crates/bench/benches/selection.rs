//! B1 — Selection: B-tree `range` vs full-scan `feed|filter` across
//! selectivities. The paper's premise for clustering indexes: the range
//! plan wins at low selectivity and converges to the scan at 100%.

use bench::{as_count, keyed_db};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_selection(c: &mut Criterion) {
    let n = 20_000usize;
    let mut db = keyed_db(n);
    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    for selectivity in [0.001, 0.01, 0.1, 0.5, 1.0] {
        let hi = ((n as f64) * selectivity) as i64 - 1;
        let range_q = format!("items_rep range[0, {hi}] count");
        let scan_q = format!("items_rep feed filter[k <= {hi}] count");
        // Sanity: identical answers.
        assert_eq!(
            as_count(&db.query(&range_q).unwrap()),
            as_count(&db.query(&scan_q).unwrap())
        );
        group.bench_with_input(
            BenchmarkId::new("btree-range", selectivity),
            &range_q,
            |b, q| b.iter(|| as_count(&db.query(q).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("scan-filter", selectivity),
            &scan_q,
            |b, q| b.iter(|| as_count(&db.query(q).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
