//! Differential compiled-vs-interpreted harness: for *random well-typed
//! expressions* over *random relations*, a database with the expression
//! compiler on must produce exactly the same outcome — same tuples, same
//! order, same error text — as one with it off, at every batch width and
//! worker count.
//!
//! The generator leans on the edges where the two paths could plausibly
//! disagree: `i64::MAX`-adjacent constants (overflow in `+`/`-`/`*`),
//! zero-valued attributes (`div`/`mod` by zero), strict `and`/`or`, and
//! deep mixed arithmetic/comparison trees. Batch widths 1/7/1024 and
//! worker counts 1/4 mirror the batch-vs-tuple suite: width 7 never
//! divides a page, so every refill crosses a batch boundary.
//!
//! `bitems` is represented by a B-tree on `k`, so a conjunctive selection
//! `k >= c and pred` is rewritten by `select-btree-and->=` into a range
//! scan whose residual filter is the random `pred` — the differential
//! net covers rule-produced closures, not only hand-written ones.

use proptest::{run_property, ProptestConfig, TestRng};
use sos_exec::Value;
use sos_system::Database;

const BATCHES: &[usize] = &[1, 7, 1024];
const WORKERS: &[usize] = &[1, 4];

/// Constants the generator draws from: small values plus the overflow
/// and division edges. (`i64::MIN` itself is not a writable literal —
/// `-i64::MAX` covers the negative edge.)
const EDGE_INTS: &[i64] = &[
    0,
    1,
    -1,
    2,
    7,
    10,
    i64::MAX,
    i64::MAX - 1,
    -i64::MAX,
    3_037_000_500, // ~sqrt(i64::MAX): products of two of these overflow
    -3_037_000_499,
];

fn edge_int(rng: &mut TestRng) -> i64 {
    EDGE_INTS[rng.below(EDGE_INTS.len() as u64) as usize]
}

/// A literal at operand position: negative values need parentheses so
/// the `-` lands at the start of its own sequence (unary minus).
fn int_lit(v: i64) -> String {
    if v < 0 {
        format!("({v})")
    } else {
        format!("{v}")
    }
}

/// A random int-typed expression over `t : item`, fully parenthesized.
fn gen_int(rng: &mut TestRng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => "(t k)".into(),
            1 => "(t grp)".into(),
            _ => int_lit(edge_int(rng)),
        };
    }
    let a = gen_int(rng, depth - 1);
    let b = gen_int(rng, depth - 1);
    let op = ["+", "-", "*", "div", "mod"][rng.below(5) as usize];
    format!("({a} {op} {b})")
}

/// A random bool-typed expression over `t : item`, fully parenthesized.
fn gen_bool(rng: &mut TestRng, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 | 1 => "(t flag)".into(),
            2 => "true".into(),
            _ => "false".into(),
        };
    }
    match rng.below(9) {
        0..=5 => {
            let a = gen_int(rng, depth - 1);
            let b = gen_int(rng, depth - 1);
            let cmp = ["=", "!=", "<", "<=", ">", ">="][rng.below(6) as usize];
            format!("({a} {cmp} {b})")
        }
        6 => format!(
            "({} and {})",
            gen_bool(rng, depth - 1),
            gen_bool(rng, depth - 1)
        ),
        7 => format!(
            "({} or {})",
            gen_bool(rng, depth - 1),
            gen_bool(rng, depth - 1)
        ),
        _ => format!("not({})", gen_bool(rng, depth - 1)),
    }
}

/// A random relation: mostly small values (so filters keep and drop
/// rows, and `grp` hits zero), a sprinkling of overflow-edge rows.
fn gen_rows(rng: &mut TestRng) -> Vec<(i64, i64, bool)> {
    let n = rng.below(60) as usize + 3;
    (0..n)
        .map(|_| {
            let k = if rng.below(5) == 0 {
                edge_int(rng)
            } else {
                rng.below(20) as i64 - 10
            };
            let grp = rng.below(5) as i64; // 0 included: div/mod edges
            (k, grp, rng.below(2) == 0)
        })
        .collect()
}

fn build_db(rows: &[(i64, i64, bool)], compile: bool) -> Database {
    let mut db = Database::builder().compile_exprs(compile).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (flag, bool)>);
        create heap : tidrel(item);
        create items : rel(item);
        create bitems : rel(item);
        create bitems_rep : btree(item, k, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, bitems, bitems_rep);
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = rows
        .iter()
        .map(|(k, g, f)| Value::tuple(vec![Value::Int(*k), Value::Int(*g), Value::Bool(*f)]))
        .collect();
    db.bulk_insert("heap", tuples.clone()).unwrap();
    db.bulk_insert("bitems_rep", tuples.clone()).unwrap();
    db.bulk_insert("items", tuples).unwrap();
    db
}

/// A conjunctive selection on `bitems` whose residual conjunct is `pred`
/// (the index takes `k >= c`).
fn index_residual_query(c: i64, pred: &str) -> String {
    format!("bitems select[fun (t: item) (t k >= {c}) and {pred}] count")
}

fn run(db: &mut Database, q: &str) -> Result<Value, String> {
    db.query(q).map_err(|e| e.to_string())
}

/// The tentpole guarantee: at every (batch width, worker count), the
/// compiled engine's outcome — value *or* error text — is exactly the
/// interpreted engine's outcome at the same configuration.
///
/// Cross-width agreement is asserted only for successful queries: when
/// several rows of one batch error, the vectorized interpreter already
/// surfaces them in a documented different order than tuple-at-a-time
/// (project is column-major; a downstream operator only sees a batch
/// after the upstream scanned it whole), so failing queries pin
/// compiled == interpreted per configuration plus error-ness across
/// configurations.
fn assert_modes_agree(rows: &[(i64, i64, bool)], queries: &[String]) {
    let mut interp = build_db(rows, false);
    let mut compiled = build_db(rows, true);
    interp.set_batch_size(1);
    interp.set_parallelism(1);
    let baseline: Vec<Result<Value, String>> =
        queries.iter().map(|q| run(&mut interp, q)).collect();
    for &b in BATCHES {
        for &w in WORKERS {
            for db_mode in [&mut interp, &mut compiled] {
                db_mode.set_batch_size(b);
                db_mode.set_parallelism(w);
            }
            for (q, expected) in queries.iter().zip(&baseline) {
                let got_i = run(&mut interp, q);
                let got_c = run(&mut compiled, q);
                assert_eq!(
                    got_c, got_i,
                    "compiled diverged from interpreted: `{q}` at batch={b} workers={w}"
                );
                match expected {
                    Ok(_) => assert_eq!(
                        &got_i, expected,
                        "batch path diverged from tuple-at-a-time: `{q}` at batch={b} workers={w}"
                    ),
                    Err(_) => assert!(
                        got_i.is_err(),
                        "query `{q}` errored tuple-at-a-time but succeeded at batch={b} workers={w}"
                    ),
                }
            }
        }
    }
}

#[test]
fn random_expressions_agree_across_modes_widths_and_workers() {
    run_property(
        ProptestConfig::with_cases(20),
        "compiled_vs_interp",
        |rng| {
            let rows = gen_rows(rng);
            let pred = gen_bool(rng, 3);
            let pred2 = gen_bool(rng, 2);
            let proj = gen_int(rng, 3);
            let repl = gen_int(rng, 2);
            let c = edge_int(rng).max(0);
            let queries = vec![
                format!("heap feed filter[fun (t: item) {pred}] consume"),
                format!("heap feed filter[fun (t: item) {pred2}] count"),
                format!("heap feed replace[k, fun (t: item) {repl}] consume"),
                format!(
                    "heap feed project[(a, fun (t: item) {proj}), (b, fun (t: item) {pred})] consume"
                ),
                format!("items select[fun (t: item) {pred}] count"),
                index_residual_query(c, &pred2),
            ];
            assert_modes_agree(&rows, &queries);
            Ok(())
        },
    );
}

/// Chained pipelines stress the compiled-batch handoff between
/// operators (mask → column → rebuild) rather than single stages.
#[test]
fn random_operator_chains_agree_across_modes() {
    run_property(ProptestConfig::with_cases(12), "compiled_chains", |rng| {
        let rows = gen_rows(rng);
        let p1 = gen_bool(rng, 2);
        let p2 = gen_bool(rng, 2);
        let r1 = gen_int(rng, 2);
        let head = rng.below(12) + 1;
        let queries = vec![
            format!(
                "heap feed filter[fun (t: item) {p1}] replace[k, fun (t: item) {r1}] \
                 filter[fun (t: item) {p2}] consume"
            ),
            format!(
                "heap feed filter[fun (t: item) {p1}] head[{head}] \
                 project[(a, fun (t: item) {r1})] consume"
            ),
            format!("heap feed replace[grp, fun (t: item) {r1}] count"),
        ];
        assert_modes_agree(&rows, &queries);
        Ok(())
    });
}

/// The compiled database really is compiling: a compilable filter
/// records a compile event, and the interpreted database records none.
#[test]
fn compiled_mode_records_compile_events_and_interp_records_none() {
    let rows: Vec<(i64, i64, bool)> = (0..50).map(|i| (i, i % 5, i % 2 == 0)).collect();
    let mut compiled = build_db(&rows, true);
    let mut interp = build_db(&rows, false);
    let q = "heap feed filter[fun (t: item) (t k) mod 7 = 0] count";
    let a = run(&mut compiled, q).unwrap();
    let b = run(&mut interp, q).unwrap();
    assert_eq!(a, b);
    assert!(compiled.metrics().compile.compiled > 0, "no compile event");
    assert!(
        interp.metrics().compile.is_empty(),
        "knob off still compiled"
    );
}

/// The index rule really fires on `bitems`, and its residual filter
/// compiles: the plan is a range scan plus a filter whose lambda is the
/// residual conjunct itself, and the compiled database records no
/// interpreter fallback.
#[test]
fn index_residual_filters_are_rewritten_and_compiled() {
    let rows: Vec<(i64, i64, bool)> = (0..50).map(|i| (i, i % 5, i % 2 == 0)).collect();
    let q = index_residual_query(7, "((t grp) mod 2 = 0)");
    let mut compiled = build_db(&rows, true);
    let report = compiled.explain(&q).unwrap();
    assert_eq!(report.applied_rules()[0], "select-btree-and->=");
    assert!(
        report
            .plan()
            .contains("filter(range_from(bitems_rep, 7), fun (t: "),
        "plan: {}",
        report.plan()
    );
    let mut interp = build_db(&rows, false);
    assert_eq!(
        run(&mut compiled, &q).unwrap(),
        run(&mut interp, &q).unwrap()
    );
    let m = compiled.metrics().compile;
    assert!(
        m.compiled > 0 && m.total_fallbacks() == 0,
        "compile stats: {m:?}"
    );
}
