//! Shared workload builders for the benchmark harness and the
//! `experiments` binary (see EXPERIMENTS.md for the experiment index).

use sos_core::check::Checker;
use sos_exec::Value;
use sos_geom::gen;
use sos_optimizer::synth::{self, Scenario};
use sos_optimizer::Validation;
use sos_system::Database;

/// The spatial schema of Sections 4–6: model `cities`/`states`, a B-tree
/// and an LSD-tree representation, catalog links — loaded with `n_cities`
/// uniform city points and a `grid x grid` tiling of state polygons.
pub fn spatial_db(n_cities: usize, grid: usize, seed: u64) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(cname, string), (center, point), (pop, int)>);
        type state = tuple(<(sname, string), (region, pgon)>);
        create cities : rel(city);
        create states : rel(state);
        create cities_rep : btree(city, pop, int);
        create states_rep : lsdtree(state, fun (s: state) bbox(s region));
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, cities, cities_rep);
        update rep := insert(rep, states, states_rep);
    "#,
    )
    .expect("spatial schema");
    db.bulk_insert("cities_rep", city_tuples(n_cities, seed))
        .expect("load cities");
    let states: Vec<Value> = gen::state_grid(grid, seed + 1)
        .into_iter()
        .map(|(name, poly)| Value::tuple(vec![Value::Str(name), Value::Pgon(poly)]))
        .collect();
    db.bulk_insert("states_rep", states).expect("load states");
    db
}

/// City tuples with uniform centers and pops uniform in [0, 1_000_000).
pub fn city_tuples(n: usize, seed: u64) -> Vec<Value> {
    gen::uniform_points(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            Value::tuple(vec![
                Value::Str(format!("city{i}")),
                Value::Point(p),
                Value::Int(((i as i64).wrapping_mul(2654435761)).rem_euclid(1_000_000)),
            ])
        })
        .collect()
}

/// A keyed relation with a clustering B-tree: keys 0..n shuffled.
pub fn keyed_db(n: usize) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (payload, string)>);
        create items : rel(item);
        create items_rep : btree(item, k, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, items_rep);
    "#,
    )
    .expect("keyed schema");
    db.bulk_insert("items_rep", item_tuples(n))
        .expect("load items");
    db
}

/// Item tuples with keys 0..n in a scrambled insertion order.
pub fn item_tuples(n: usize) -> Vec<Value> {
    let mut order: Vec<i64> = (0..n as i64).collect();
    for i in 0..n {
        order.swap(i, (i.wrapping_mul(2654435761)) % n.max(1));
    }
    order
        .into_iter()
        .map(|k| {
            Value::tuple(vec![
                Value::Int(k),
                Value::Str(format!("payload for item {k}")),
            ])
        })
        .collect()
}

/// A heap-backed (tidrel) relation for scan benchmarks: `feed` over it
/// is a heap-scan cursor, and the padded payload keeps it at ~35 tuples
/// per page, so a scan spans many pages.
pub fn heap_db(n: usize) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type hitem = tuple(<(k, int), (pad, string)>);
        create hitems : tidrel(hitem);
    "#,
    )
    .expect("heap schema");
    let tuples: Vec<Value> = (0..n)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Str(format!("{:0180}", i)),
            ])
        })
        .collect();
    db.bulk_insert("hitems", tuples).expect("load heap");
    db
}

/// Extract an integer count from a query result.
pub fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

/// Build a long filter chain query for the type-checking benchmark:
/// `items_rep feed filter[k >= 0] filter[k >= 1] ... count`.
pub fn filter_chain(depth: usize) -> String {
    let mut q = String::from("items_rep feed");
    for i in 0..depth {
        q.push_str(&format!(" filter[k >= {i}]"));
    }
    q.push_str(" count");
    q
}

/// Measure the plan-validation overhead on the optimize path: every
/// synthesized witness of every builtin rule (deduplicated) is optimized
/// by the full builtin optimizer under `Validation::Off` and
/// `Validation::Count`, alternating per sample so clock drift cancels.
/// Returns `(off_ns, on_ns, plans)` — median nanoseconds for one full
/// pass over the witness set in each mode, and the witness count.
pub fn validate_overhead_ns(samples: usize) -> (u64, u64, usize) {
    use std::time::Instant;
    let sig = sos_system::builtin::builtin_signature();
    let scenario = Scenario::build(&sig);
    let opt = sos_system::rules::builtin_optimizer();
    let checker = Checker::new(&sig, &scenario.catalog);

    let mut seen = std::collections::HashSet::new();
    let mut plans = Vec::new();
    for step in &opt.steps {
        for rule in &step.rules {
            for w in synth::witnesses(&sig, &scenario, rule, synth::DEFAULT_WITNESSES) {
                if seen.insert(w.to_string()) {
                    plans.push(w);
                }
            }
        }
    }
    assert!(!plans.is_empty(), "the scenario yields witness plans");

    let run = |mode: Validation| -> u64 {
        let start = Instant::now();
        for p in &plans {
            let _ = std::hint::black_box(opt.optimize_with(p, &checker, &scenario.catalog, mode));
        }
        start.elapsed().as_nanos() as u64
    };
    // Warm both paths before timing anything.
    run(Validation::Off);
    run(Validation::Count);
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        offs.push(run(Validation::Off));
        ons.push(run(Validation::Count));
    }
    offs.sort_unstable();
    ons.sort_unstable();
    (offs[offs.len() / 2], ons[ons.len() / 2], plans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_usable_databases() {
        let mut db = spatial_db(50, 3, 1);
        assert_eq!(as_count(&db.query("cities_rep feed count").unwrap()), 50);
        assert_eq!(as_count(&db.query("states_rep feed count").unwrap()), 9);
        let mut kdb = keyed_db(100);
        assert_eq!(as_count(&kdb.query("items_rep feed count").unwrap()), 100);
        assert_eq!(
            as_count(&kdb.query("items select[k < 10] count").unwrap()),
            10
        );
    }

    #[test]
    fn filter_chain_is_well_formed() {
        let mut kdb = keyed_db(20);
        let q = filter_chain(5);
        assert_eq!(as_count(&kdb.query(&q).unwrap()), 16); // k >= 4 keeps 4..20
    }
}
