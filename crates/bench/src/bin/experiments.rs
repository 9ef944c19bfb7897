//! Regenerates every experiment row recorded in EXPERIMENTS.md:
//! correctness of each reproduced section, plus the cost-shape tables
//! (page touches and wall time) that the criterion benches measure as
//! wall time only.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments
//! ```

use bench::{as_count, heap_db, item_tuples, keyed_db, spatial_db};
use sos_system::{Database, DurabilityConfig};
use std::time::Instant;

fn main() {
    if std::env::args().any(|a| a == "--json") {
        println!("{}", pr10_json());
        return;
    }
    println!("Second-Order Signature — experiment harness");
    println!("===========================================\n");
    e1_e3();
    f1();
    e4_e5_b1();
    b2();
    e6();
    e7_b5();
    b3_b4();
    b7();
    b9();
    e9_extensions();
    println!("\nall experiments completed");
}

fn check(name: &str, ok: bool) {
    println!("  [{}] {name}", if ok { "ok" } else { "FAIL" });
    assert!(ok, "{name}");
}

/// E1–E3: type systems, operators, programs.
fn e1_e3() {
    println!("E1–E3: type systems, polymorphic operators, programs");
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(name, string), (pop, int), (country, string)>);
        type city_rel = rel(city);
        create cities : city_rel;
        update cities := insert(cities, mktuple[(name, "Hagen"), (pop, 190000), (country, "Germany")]);
        update cities := insert(cities, mktuple[(name, "Paris"), (pop, 2100000), (country, "France")]);
        create french_cities : ( -> city_rel);
        update french_cities := fun () cities select[country = "France"];
        create cities_in : (string -> city_rel);
        update cities_in := fun (c: string) cities select[country = c];
    "#,
    )
    .unwrap();
    check(
        "relational model types and program (Sec 2.4)",
        as_count(&db.query("cities select[pop > 1000000] count").unwrap()) == 1,
    );
    check(
        "views as function objects",
        as_count(&db.query("french_cities count").unwrap()) == 1,
    );
    check(
        "parameterized views",
        as_count(&db.query(r#"cities_in ("Germany") count"#).unwrap()) == 1,
    );
    let mut db2 = Database::builder().build();
    db2.load_spec("kinds NREL\nmodel cons nrel : (ident x (DATA | NREL))+ -> NREL")
        .unwrap();
    check(
        "nested-relational model loads as a specification (Sec 2.1)",
        db2.run("create books : nrel(<(title, string), (authors, nrel(<(name, string)>))>);")
            .is_ok(),
    );
    println!();
}

/// F1: Figure 1 pattern matching, via the replace operator.
fn f1() {
    println!("F1: Figure 1 term-tree pattern matching");
    let mut db = Database::builder().build();
    db.run(
        r#"
        type person = tuple(<(name, string), (age, int)>);
        create people : srel(person);
    "#,
    )
    .unwrap();
    let ok = db
        .explain("people feed replace[age, fun (p: person) p age + 1] count")
        .is_ok();
    let bad = db
        .explain("people feed replace[height, fun (p: person) 1] count")
        .is_err();
    check(
        "stream(tuple(list)) pattern binds and constrains",
        ok && bad,
    );
    println!();
}

/// E4/E5/B1: representation level; selection cost-shape table.
fn e4_e5_b1() {
    println!("E4/E5/B1: selection — B-tree range vs scan (N = 50k)");
    let n = 50_000usize;
    let mut db = keyed_db(n);
    println!(
        "  {:<12} {:>14} {:>14} {:>12} {:>12}",
        "selectivity", "range pages", "scan pages", "range ms", "scan ms"
    );
    for selectivity in [0.001f64, 0.01, 0.1, 0.5, 1.0] {
        let hi = ((n as f64) * selectivity) as i64 - 1;
        let range_q = format!("items_rep range[0, {hi}] count");
        let scan_q = format!("items_rep feed filter[k <= {hi}] count");

        db.reset_metrics();
        let t = Instant::now();
        let a = as_count(&db.query(&range_q).unwrap());
        let range_ms = t.elapsed().as_secs_f64() * 1000.0;
        let range_pages = db.metrics().pool.logical_reads;

        db.reset_metrics();
        let t = Instant::now();
        let b = as_count(&db.query(&scan_q).unwrap());
        let scan_ms = t.elapsed().as_secs_f64() * 1000.0;
        let scan_pages = db.metrics().pool.logical_reads;

        assert_eq!(a, b, "plans must agree at selectivity {selectivity}");
        println!(
            "  {selectivity:<12} {range_pages:>14} {scan_pages:>14} {range_ms:>12.2} {scan_ms:>12.2}"
        );
    }
    println!();
}

/// B2: spatial join sweep.
fn b2() {
    println!("B2: spatial join — LSD-tree search_join vs scan search_join (grid 12x12)");
    println!(
        "  {:<10} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "cities", "pairs", "index pages", "scan pages", "index ms", "scan ms"
    );
    for n_cities in [100usize, 400, 1000] {
        let mut db = spatial_db(n_cities, 12, 5);
        let index_plan = "cities states join[center inside region] count";
        let scan_plan = "cities_rep feed \
            (fun (c: city) states_rep feed filter[fun (s: state) c center inside s region]) \
            search_join count";

        db.reset_metrics();
        let t = Instant::now();
        let a = as_count(&db.query(index_plan).unwrap());
        let index_ms = t.elapsed().as_secs_f64() * 1000.0;
        let index_pages = db.metrics().pool.logical_reads;

        db.reset_metrics();
        let t = Instant::now();
        let b = as_count(&db.query(scan_plan).unwrap());
        let scan_ms = t.elapsed().as_secs_f64() * 1000.0;
        let scan_pages = db.metrics().pool.logical_reads;

        assert_eq!(a, b);
        println!(
            "  {n_cities:<10} {a:>8} {index_pages:>14} {scan_pages:>14} {index_ms:>12.2} {scan_ms:>12.2}"
        );
    }
    println!();
}

/// E6: the optimizer's plans.
fn e6() {
    println!("E6: optimization rules (Section 5)");
    let mut db = spatial_db(100, 4, 3);
    let plan = db.explain("cities select[pop = 500]").unwrap();
    check(
        "select on key -> exactmatch",
        plan.plan().contains("exactmatch(cities_rep"),
    );
    db.reset_metrics();
    let report = db
        .explain("cities states join[center inside region]")
        .unwrap();
    check(
        "geometric join -> point_search search_join (the Section 5 rule)",
        report.plan().contains("point_search(states_rep") && report.plan().contains("search_join"),
    );
    let stats = db.metrics().optimizer;
    println!(
        "  optimizer: {} rewrites ({} traced), {} rule attempts for the join plan",
        stats.rewrites,
        report.rewrites.len(),
        stats.rule_attempts
    );
    println!();
}

/// E7/B5: update translation and throughput.
fn e7_b5() {
    println!("E7/B5: update functions (Section 6), N = 20k");
    let n = 20_000usize;
    let time = |db: &mut Database, stmt: &str| {
        let t = Instant::now();
        db.run(stmt).unwrap();
        t.elapsed().as_secs_f64() * 1000.0
    };

    let mut db = keyed_db(0);
    let t = Instant::now();
    db.bulk_insert("items_rep", item_tuples(n)).unwrap();
    let insert_ms = t.elapsed().as_secs_f64() * 1000.0;

    let delete_ms = time(
        &mut db,
        &format!(
            "update items := delete(items, fun (t: item) t k < {});",
            n / 10
        ),
    );
    let reinsert_ms = time(
        &mut db,
        &format!(
            "update items := modify(items, fun (t: item) t k >= {}, k, fun (t: item) t k - {});",
            9 * n / 10,
            n
        ),
    );
    let modify_ms = time(
        &mut db,
        r#"update items := modify(items, fun (t: item) t k < 0, payload, fun (t: item) "neg");"#,
    );
    println!(
        "  {:<34} {:>10.1} ms",
        format!("insert {n} tuples"),
        insert_ms
    );
    println!(
        "  {:<34} {:>10.1} ms",
        "model delete 10% (translated)", delete_ms
    );
    println!(
        "  {:<34} {:>10.1} ms",
        "key update 10% (re_insert)", reinsert_ms
    );
    println!(
        "  {:<34} {:>10.1} ms",
        "non-key modify (in situ)", modify_ms
    );
    check(
        "count preserved through the update sequence",
        as_count(&db.query("items_rep feed count").unwrap()) == (n - n / 10) as i64,
    );
    println!();
}

/// B7: join strategies on an equi-join.
fn b7() {
    println!("B7: equi-join — optimizer's hashjoin vs scan search_join (50 depts)");
    println!(
        "  {:<8} {:>8} {:>12} {:>12}",
        "emps", "pairs", "hash ms", "scan ms"
    );
    for n in [500usize, 2000, 8000] {
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
        let emps: Vec<sos_exec::Value> = (0..n)
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

        let t = Instant::now();
        let pairs = as_count(&db.query("emps depts join[dept = dno] count").unwrap());
        let hash_ms = t.elapsed().as_secs_f64() * 1000.0;
        let t = Instant::now();
        let pairs2 = as_count(
            &db.query(
                "emps_rep feed (fun (e: emp) depts_rep feed \
                 filter[fun (d: dpt) e dept = d dno]) search_join count",
            )
            .unwrap(),
        );
        let scan_ms = t.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(pairs, pairs2);
        println!("  {n:<8} {pairs:>8} {hash_ms:>12.2} {scan_ms:>12.2}");
    }
    println!();
}

/// B9: durability — statements over a WAL-backed database survive an
/// unclean shutdown, and the commit fsync has a measured price.
fn b9() {
    println!("B9: durability (write-ahead logging, crash recovery)");
    let n = 100;
    let mut mem = Database::builder().build();
    mem.run(DURABLE_SCHEMA).unwrap();
    let mem_ms = timed_inserts(&mut mem, n);

    let dir = std::env::temp_dir().join(format!("sos-exp-b9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut dur = Database::builder()
        .durability(DurabilityConfig::dir(&dir))
        .try_build()
        .unwrap();
    dur.run(DURABLE_SCHEMA).unwrap();
    let dur_ms = timed_inserts(&mut dur, n);
    let wal = dur.metrics().wal;
    drop(dur); // unclean: no checkpoint, no save — only the log survives

    let mut reopened = Database::builder()
        .durability(DurabilityConfig::dir(&dir))
        .try_build()
        .unwrap();
    let recovered = as_count(&reopened.query("items_rep feed count").unwrap());
    let info = *reopened.recovery_info().unwrap();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    check(
        "all committed statements survive the unclean shutdown",
        recovered == n as i64,
    );
    check(
        "recovery replayed logged page images",
        info.replayed_pages > 0,
    );
    println!(
        "  {n} insert statements: memory {mem_ms:>8.2} ms, durable {dur_ms:>8.2} ms \
         ({:.1}x, {} sync(s), {} KiB logged)",
        dur_ms / mem_ms.max(f64::MIN_POSITIVE),
        wal.syncs,
        wal.bytes / 1024
    );
    println!();
}

/// E9: engineering extensions — multi-attribute B-tree prefix search
/// and vacuum (B-tree rebuild).
fn e9_extensions() {
    println!("E9: extensions (mbtree prefix search, vacuum)");
    // mbtree: composite-key clustering with prefix queries.
    let mut db = Database::builder().build();
    db.run(
        r#"
        type order = tuple(<(country, string), (year, int), (amount, int)>);
        create orders : mbtree(order, <country, year>);
    "#,
    )
    .unwrap();
    let mut tuples = Vec::new();
    for c in ["DE", "FR", "IN", "US", "JP", "BR", "CN", "GB"] {
        for year in 1980..2020 {
            for k in 0..8 {
                tuples.push(sos_exec::Value::tuple(vec![
                    sos_exec::Value::Str(c.to_string()),
                    sos_exec::Value::Int(year),
                    sos_exec::Value::Int(year * 100 + k),
                ]));
            }
        }
    }
    db.bulk_insert("orders", tuples).unwrap();
    db.reset_metrics();
    let n = as_count(&db.query(r#"orders prefixmatch["FR"] count"#).unwrap());
    let prefix_pages = db.metrics().pool.logical_reads;
    db.reset_metrics();
    let n2 = as_count(
        &db.query(r#"orders feed filter[country = "FR"] count"#)
            .unwrap(),
    );
    let scan_pages = db.metrics().pool.logical_reads;
    assert_eq!(n, n2);
    println!("  prefixmatch[FR]: {n} tuples, {prefix_pages} pages (scan: {scan_pages} pages)");

    // vacuum: page reclamation after mass deletion.
    let mut db = keyed_db(20_000);
    db.run("update items := delete(items, fun (t: item) t k mod 50 != 0);")
        .unwrap();
    db.reset_metrics();
    db.query("items_rep feed count").unwrap();
    let before = db.metrics().pool.logical_reads;
    db.run("update items_rep := vacuum(items_rep);").unwrap();
    db.reset_metrics();
    db.query("items_rep feed count").unwrap();
    let after = db.metrics().pool.logical_reads;
    println!("  vacuum after deleting 98%: scan pages {before} -> {after}");
    println!();
}

/// B3/B4: front-end costs.
fn b3_b4() {
    println!("B3/B4: parse+check and optimize costs");
    let mut db = keyed_db(10);
    for depth in [1usize, 4, 16, 64] {
        let q = bench::filter_chain(depth);
        let t = Instant::now();
        let iters = 50;
        for _ in 0..iters {
            db.explain(&q).unwrap();
        }
        let per = t.elapsed().as_secs_f64() * 1000.0 / iters as f64;
        println!("  parse+check+optimize, chain depth {depth:>3}: {per:>8.3} ms");
    }
    let mut db = spatial_db(20, 3, 2);
    let t = Instant::now();
    let iters = 50;
    for _ in 0..iters {
        db.explain("cities states join[center inside region]")
            .unwrap();
    }
    let per = t.elapsed().as_secs_f64() * 1000.0 / iters as f64;
    println!("  spatial-join rule application:        {per:>8.3} ms");
}

// ---- `--json` mode: the PR3 batch-execution comparison ----

/// One engine configuration of the serial / parallel / batched matrix.
/// The two serial configs run back-to-back so the headline
/// batched-vs-tuple comparison sees the same machine state (the
/// parallel configs heat every core and disturb turbo clocks).
const PR3_CONFIGS: &[(&str, usize, usize)] = &[
    ("tuple", 1, 1),
    ("batched", 1024, 1),
    ("parallel", 1, 4),
    ("batched-parallel", 1024, 4),
];

/// Best wall time (ms) for `query` over a few samples.
fn pr3_ms(db: &mut Database, query: &str, samples: usize, iters: usize) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            as_count(&db.query(query).unwrap());
        }
        best = best.min(t.elapsed().as_secs_f64() * 1000.0 / iters as f64);
    }
    best
}

fn pr3_workload(db: &mut Database, name: &str, query: &str, rows: usize) -> String {
    db.query(query).unwrap(); // warm the pool and plan path
    let mut configs = Vec::new();
    let mut by_name = std::collections::HashMap::new();
    for &(config, batch, workers) in PR3_CONFIGS {
        db.set_batch_size(batch);
        db.set_parallelism(workers);
        let ms = pr3_ms(db, query, 9, 3);
        by_name.insert(config, ms);
        configs.push(format!(
            r#"{{"config":"{config}","batch_size":{batch},"workers":{workers},"ms":{ms:.3},"rows_per_sec":{:.0}}}"#,
            rows as f64 / (ms / 1000.0)
        ));
    }
    db.set_batch_size(1);
    db.set_parallelism(1);
    let speedup = by_name["tuple"] / by_name["batched"];
    format!(
        r#"{{"workload":"{name}","query":"{}","rows":{rows},"configs":[{}],"batched_vs_tuple_speedup":{speedup:.2}}}"#,
        query.replace('"', "\\\""),
        configs.join(",")
    )
}

/// The JSON document committed as BENCH_PR3.json: selection, join and
/// stream workloads under every execution configuration.
fn pr3_json() -> String {
    let mut workloads = Vec::new();

    // Selection and full-scan count over the 100k-row heap relation.
    let mut db = heap_db(100_000);
    workloads.push(pr3_workload(&mut db, "count", "hitems feed count", 100_000));
    workloads.push(pr3_workload(
        &mut db,
        "selection",
        "hitems feed filter[k mod 7 = 0] count",
        100_000,
    ));
    workloads.push(pr3_workload(
        &mut db,
        "stream-materialize",
        "hitems feed consume",
        100_000,
    ));

    // Search join: 8000 outer tuples probing a 50-row inner per tuple.
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
    workloads.push(pr3_workload(
        &mut db,
        "search-join",
        "emps_rep feed (fun (e: emp) depts_rep feed \
         filter[fun (d: dpt) e dept = d dno]) search_join count",
        8000,
    ));

    format!(
        "{{\"bench\":\"PR3 vectorized batch execution\",\"workloads\":[\n{}\n]}}",
        workloads.join(",\n")
    )
}

/// Static-analysis overhead: the full sos-lint pass (L001..L005) over
/// the built-in signature and rule set, per iteration. This is the
/// cost `strict_lint(true)` adds to a `load_spec`/`load_rules` call,
/// and what the `.lint` shell command pays.
fn lint_overhead_json() -> String {
    let sig = sos_system::builtin::builtin_signature();
    let opt = sos_system::rules::builtin_optimizer();
    let specs = sig.specs().len();
    let rules: usize = opt.steps.iter().map(|s| s.rules.len()).sum();
    // Warm up, and pin the invariant the suite relies on: the builtin
    // corpus lints clean.
    assert!(sos_lint::lint_all(&sig, &opt).is_empty());
    let iters = 100;
    let t = Instant::now();
    let mut diags = 0usize;
    for _ in 0..iters {
        diags += sos_lint::lint_spec(&sig).len();
        diags += sos_lint::lint_rules(&opt, &sig).len();
    }
    let ms = t.elapsed().as_secs_f64() * 1000.0 / iters as f64;
    format!(
        r#"{{"specs":{specs},"rules":{rules},"iterations":{iters},"diagnostics":{diags},"ms_per_full_pass":{ms:.4}}}"#
    )
}

/// The JSON document committed as BENCH_PR4.json: the PR3 execution
/// matrix plus the sos-lint overhead entry.
fn pr4_json() -> String {
    let pr3 = pr3_json();
    // Splice the lint entry into the PR3 document rather than nesting
    // it, so every workload stays at the same path as in BENCH_PR3.json.
    let body = pr3
        .strip_prefix("{\"bench\":\"PR3 vectorized batch execution\",")
        .expect("pr3_json prefix")
        .strip_suffix('}')
        .expect("pr3_json suffix");
    format!(
        "{{\"bench\":\"PR4 static analysis + batch execution\",\"lint_overhead\":{},{body}}}",
        lint_overhead_json()
    )
}

// ---- PR5: durability — the WAL overhead entry ----

const DURABLE_SCHEMA: &str = r#"
    type item = tuple(<(k, int), (payload, string)>);
    create items : rel(item);
    create items_rep : btree(item, k, int);
    create rep : catalog(<ident, ident>);
    update rep := insert(rep, items, items_rep);
"#;

/// Wall milliseconds for `n` single-tuple insert statements — each one
/// a separate statement, so over a durable database each one is a
/// separate commit (log append + fsync).
fn timed_inserts(db: &mut Database, n: usize) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        db.run(&format!(
            r#"update items := insert(items, mktuple[(k, {i}), (payload, "p{i}")]);"#
        ))
        .expect("insert statement");
    }
    t.elapsed().as_secs_f64() * 1000.0
}

/// Durable vs in-memory update throughput on real files: the measured
/// price of the commit fsync and page-image logging, plus the WAL
/// traffic the workload generated and the cost of a checkpoint. The
/// number that matters is the *ratio*, so trials are paired — each one
/// times an in-memory run and a durable run back to back under the same
/// host conditions — and the pair with the lowest overhead factor is
/// reported (best of five, like [`pr3_ms`]; fsync latency spikes are
/// pure noise for a cost-shape table).
fn wal_overhead_json() -> String {
    let n = 200;
    let mut mem_ms = f64::MAX;
    let mut dur_ms = f64::MAX;
    let mut overhead = f64::MAX;
    let mut wal = Default::default();
    let mut checkpoint_ms = f64::MAX;
    for trial in 0..5 {
        let mut mem = Database::builder().build();
        mem.run(DURABLE_SCHEMA).expect("schema");
        let trial_mem_ms = timed_inserts(&mut mem, n);
        drop(mem);

        let dir =
            std::env::temp_dir().join(format!("sos-bench-wal-{}-{trial}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut dur = Database::builder()
            .durability(DurabilityConfig::dir(&dir))
            .try_build()
            .expect("durable open");
        dur.run(DURABLE_SCHEMA).expect("schema");
        let trial_dur_ms = timed_inserts(&mut dur, n);

        let trial_overhead = trial_dur_ms / trial_mem_ms.max(f64::MIN_POSITIVE);
        if trial_overhead < overhead {
            overhead = trial_overhead;
            mem_ms = trial_mem_ms;
            dur_ms = trial_dur_ms;
            wal = dur.metrics().wal;
        }
        let t = Instant::now();
        dur.checkpoint().expect("checkpoint");
        checkpoint_ms = checkpoint_ms.min(t.elapsed().as_secs_f64() * 1000.0);
        drop(dur);
        let _ = std::fs::remove_dir_all(&dir);
    }
    format!(
        r#"{{"statements":{n},"memory_ms":{mem_ms:.3},"durable_ms":{dur_ms:.3},"durable_ms_per_statement":{:.4},"overhead_factor":{overhead:.2},"wal_records":{},"wal_page_images":{},"wal_commits":{},"wal_bytes":{},"wal_syncs":{},"checkpoint_ms":{checkpoint_ms:.3}}}"#,
        dur_ms / n as f64,
        wal.records,
        wal.page_images,
        wal.commits,
        wal.bytes,
        wal.syncs
    )
}

/// The JSON document committed as BENCH_PR5.json: the PR4 document plus
/// the durability overhead entry.
fn pr5_json() -> String {
    let pr4 = pr4_json();
    let body = pr4
        .strip_prefix("{\"bench\":\"PR4 static analysis + batch execution\",")
        .expect("pr4_json prefix")
        .strip_suffix('}')
        .expect("pr4_json suffix");
    format!(
        "{{\"bench\":\"PR5 durability + static analysis + batch execution\",\"wal_overhead\":{},{body}}}",
        wal_overhead_json()
    )
}

// ---- PR6: expression compilation — compiled vs interpreted ----

/// One workload timed twice at the production batch width: expression
/// compiler off (every closure through the tree-walking interpreter)
/// then on (predicates and maps as batch bytecode).
fn compile_workload(db: &mut Database, name: &str, query: &str, rows: usize) -> String {
    db.query(query).unwrap(); // warm the pool and plan path
    db.set_batch_size(1024);
    db.set_parallelism(1);
    db.set_compile_exprs(false);
    let interp_ms = pr3_ms(db, query, 9, 3);
    db.set_compile_exprs(true);
    let compiled_ms = pr3_ms(db, query, 9, 3);
    db.set_batch_size(1);
    let speedup = interp_ms / compiled_ms.max(f64::MIN_POSITIVE);
    format!(
        r#"{{"workload":"{name}","query":"{}","rows":{rows},"batch_size":1024,"interpreted_ms":{interp_ms:.3},"compiled_ms":{compiled_ms:.3},"compiled_vs_interpreted_speedup":{speedup:.2}}}"#,
        query.replace('"', "\\\"")
    )
}

/// The two B10 workloads: the PR3 selection pipeline and the PR3
/// search join, compiled vs interpreted.
fn compile_speedup_json() -> String {
    let mut db = heap_db(100_000);
    let selection = compile_workload(
        &mut db,
        "selection",
        "hitems feed filter[k mod 7 = 0] count",
        100_000,
    );

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
    let search_join = compile_workload(
        &mut db,
        "search-join",
        "emps_rep feed (fun (e: emp) depts_rep feed \
         filter[fun (d: dpt) e dept = d dno]) search_join count",
        8000,
    );
    format!("[{selection},{search_join}]")
}

/// The JSON document committed as BENCH_PR6.json: the PR5 document plus
/// the compiled-vs-interpreted entry.
fn pr6_json() -> String {
    let pr5 = pr5_json();
    let body = pr5
        .strip_prefix("{\"bench\":\"PR5 durability + static analysis + batch execution\",")
        .expect("pr5_json prefix")
        .strip_suffix('}')
        .expect("pr5_json suffix");
    format!(
        "{{\"bench\":\"PR6 expression compilation + durability + static analysis + batch execution\",\"compile_speedup\":{},{body}}}",
        compile_speedup_json()
    )
}

/// The plan-validation overhead on the optimize path: one full pass over
/// the builtin witness-plan set per mode, median of 9 paired samples
/// (the `VALIDATE_OVERHEAD_SMOKE` CI gate asserts ratio < 1.05).
fn validate_overhead_json() -> String {
    let (off, on, plans) = bench::validate_overhead_ns(9);
    format!(
        "{{\"plans\":{plans},\"off_ns_per_pass\":{off},\"on_ns_per_pass\":{on},\"ratio\":{:.4}}}",
        on as f64 / off as f64
    )
}

/// The rule fuzzer's differential sweep over the builtin rule set at its
/// fixed seed: every rule's witnesses executed before and after rewrite
/// and bag-compared.
fn rule_fuzzer_json() -> String {
    let report = sos_system::fuzz::fuzz_builtin_rules(&sos_system::fuzz::FuzzConfig::default())
        .expect("the builtin rule fuzzer runs");
    format!(
        "{{\"rules\":{},\"rules_fired\":{},\"witnesses_run\":{},\"skipped_updates\":{},\"mismatches\":{}}}",
        report.rules,
        report.rules_fired,
        report.witnesses_run,
        report.skipped_updates,
        report.mismatches.len()
    )
}

/// The JSON document committed as BENCH_PR9.json: the PR6 document plus
/// the rule-soundness sections — plan-validation overhead and the rule
/// fuzzer's differential sweep. (The frozen file also holds the PR7
/// group-commit sweep and the PR8 partitioned-storage sections, retired
/// with group commit and partitioned storage.)
fn pr9_json() -> String {
    let pr6 = pr6_json();
    let body = pr6
        .strip_prefix("{\"bench\":\"PR6 expression compilation + durability + static analysis + batch execution\",")
        .expect("pr6_json prefix")
        .strip_suffix('}')
        .expect("pr6_json suffix");
    format!(
        "{{\"bench\":\"PR9 rule-soundness verification + expression compilation + durability + static analysis + batch execution\",\"validate_overhead\":{},\"rule_fuzzer\":{},{body}}}",
        validate_overhead_json(),
        rule_fuzzer_json()
    )
}

// ---- PR10: cost-based optimization — catalog statistics, the
// page-touch cost model, and the normalized-shape plan cache ----

/// The differential suite's schema with both plan flips in play: a keyed
/// relation whose clustering B-tree covers nearly every row of the
/// non-selective selection, and a small `picks` outer against a wide
/// indexed `mates` inner for the join flip.
fn cost_flip_db(cost: bool) -> Database {
    let mut db = Database::builder().cost_based(cost).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        type mate = tuple(<(j, int), (tag, string)>);
        create items : rel(item);
        create picks : rel(item);
        create mates : rel(mate);
        create bt_rep : btree(item, k, int);
        create picks_heap : tidrel(item);
        create mate_bt : btree(mate, j, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, bt_rep);
        update rep := insert(rep, picks, picks_heap);
        update rep := insert(rep, mates, mate_bt);
    "#,
    )
    .unwrap();
    let items: Vec<sos_exec::Value> = (0..2000)
        .map(|i| {
            sos_exec::Value::tuple(vec![
                sos_exec::Value::Int(i as i64),
                sos_exec::Value::Int((i % 10) as i64),
                sos_exec::Value::Str(format!("pad{i:06}")),
            ])
        })
        .collect();
    db.bulk_load("bt_rep", items).unwrap();
    db.bulk_load(
        "picks_heap",
        (0..8)
            .map(|i| {
                sos_exec::Value::tuple(vec![
                    sos_exec::Value::Int(i * 100),
                    sos_exec::Value::Int(0),
                    sos_exec::Value::Str(format!("pad{i:06}")),
                ])
            })
            .collect(),
    )
    .unwrap();
    // Wide payload so reading the inner whole (hash join) costs clearly
    // more than a handful of index probes.
    db.bulk_load(
        "mate_bt",
        (0..6400)
            .map(|i| {
                sos_exec::Value::tuple(vec![
                    sos_exec::Value::Int(i),
                    sos_exec::Value::Str(format!("m{i:0120}")),
                ])
            })
            .collect(),
    )
    .unwrap();
    db
}

/// Pages touched by one execution of `query` after a warm-up run.
fn pages_for(db: &mut Database, query: &str) -> (i64, u64) {
    db.query(query).unwrap();
    db.reset_metrics();
    let n = as_count(&db.query(query).unwrap());
    (n, db.metrics().pool.logical_reads)
}

/// The two statistics-driven plan flips, as page-touch rows: the
/// non-selective keyed selection moved off the index onto a scan, and
/// the small-outer equi-join moved from the hash join onto index
/// probes — each with the rule the planner picked and the pages both
/// choices actually touch. Plus the price of collecting the statistics
/// and a measured estimate-vs-actual factor from `explain_analyze`.
fn cost_model_json() -> String {
    let mut off = cost_flip_db(false);
    let mut on = cost_flip_db(true);
    let t = Instant::now();
    let analyzed = on.analyze_all().unwrap().len();
    let analyze_ms = t.elapsed().as_secs_f64() * 1000.0;

    let mut flips = Vec::new();
    for (name, query) in [
        ("nonselective-select", "items select[k >= 0] count"),
        ("small-outer-join", "picks mates join[k = j] count"),
    ] {
        let rule_based = off.explain(query).unwrap().applied_rules().join(",");
        let cost_based = on.explain(query).unwrap().applied_rules().join(",");
        let (a, off_pages) = pages_for(&mut off, query);
        let (b, on_pages) = pages_for(&mut on, query);
        assert_eq!(a, b, "plan flip changed the answer for `{query}`");
        flips.push(format!(
            r#"{{"flip":"{name}","query":"{}","rows_out":{a},"rule_based":"{rule_based}","rule_based_pages":{off_pages},"cost_based":"{cost_based}","cost_based_pages":{on_pages},"pages_saved_factor":{:.2}}}"#,
            query.replace('"', "\\\""),
            off_pages as f64 / (on_pages as f64).max(1.0)
        ));
    }

    let report = on.explain_analyze("items select[k < 250] count").unwrap();
    let mis = report
        .analysis
        .as_ref()
        .and_then(|a| a.misestimate_factor)
        .expect("cost-based explain analyze carries a misestimate factor");
    format!(
        r#"{{"objects_analyzed":{analyzed},"analyze_ms":{analyze_ms:.3},"flips":[{}],"sample_misestimate_factor":{mis:.2}}}"#,
        flips.join(",")
    )
}

/// The JSON document committed as BENCH_PR10.json: the PR9 document plus
/// the cost-based-optimization section — the statistics-driven plan
/// flips. (The frozen file also holds a `plan_cache` section from the
/// retired cache-on/off replay.)
fn pr10_json() -> String {
    let pr9 = pr9_json();
    let body = pr9
        .strip_prefix("{\"bench\":\"PR9 rule-soundness verification + expression compilation + durability + static analysis + batch execution\",")
        .expect("pr9_json prefix")
        .strip_suffix('}')
        .expect("pr9_json suffix");
    format!(
        "{{\"bench\":\"PR10 cost-based optimization + rule-soundness verification + expression compilation + durability + static analysis + batch execution\",\"cost_model\":{},{body}}}",
        cost_model_json()
    )
}
