//! Differential suite for the expression compiler: for *random
//! well-typed expressions* over *random relations*, the engine must
//! produce exactly what a reference evaluator written in plain Rust
//! produces — same tuples, same order, same error text — at every batch
//! width. The two modes compared are the engine and that reference.
//!
//! The generator builds each expression as a tree of plain-Rust
//! closures ([`Gen`]) together with its query text: the tree evaluates
//! the expression with checked `i64` arithmetic, Euclidean `div`/`mod`
//! and strict `and`/`or`.
//! It leans on the edges where an evaluator could plausibly go wrong:
//! `i64::MAX`-adjacent constants (overflow in `+`/`-`/`*`), zero-valued
//! attributes (`div`/`mod` by zero), strict `and`/`or`, and deep mixed
//! arithmetic/comparison trees. Batch widths 1/7/1024 mirror the
//! batch-vs-tuple suite: width 7 never divides a page, so every refill
//! crosses a batch boundary.
//!
//! A query's first error depends on the width only where the pipeline
//! makes it so, and the reference models exactly that: a scan hands its
//! rows over in chunks of the width, each step runs over a whole chunk
//! before the next step sees it, and `project` evaluates column by
//! column (each function over the whole chunk).
//!
//! `bitems` is represented by a B-tree on `k`, so a conjunctive selection
//! `k >= c and pred` is rewritten by `select-btree-and->=` into a range
//! scan whose residual filter is the random `pred` — the net covers
//! rule-produced closures, not only hand-written ones.

use proptest::{run_property, ProptestConfig, TestRng};
use sos_exec::Value;
use sos_geom::Point;
use sos_system::Database;

const BATCHES: &[usize] = &[1, 7, 1024];

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

/// One row of `item`: `(k, grp, flag)`.
type Row = (i64, i64, bool);

/// A reference result: a value, or the engine's error text.
type Eval<T> = Result<T, String>;

/// A generated expression over `t : item`: its query text, fully
/// parenthesized, and its reference evaluation.
type Gen<T> = (String, Box<dyn Fn(&Row) -> Eval<T>>);

/// Checked `i64` arithmetic and Euclidean `div` / `mod`, with the
/// engine's error text.
fn int_op(op: &str, x: i64, y: i64) -> Eval<i64> {
    let overflow = || format!("arithmetic error: integer overflow in `{op}`");
    match op {
        "+" => x.checked_add(y).ok_or_else(overflow),
        "-" => x.checked_sub(y).ok_or_else(overflow),
        "*" => x.checked_mul(y).ok_or_else(overflow),
        "div" if y == 0 => Err("arithmetic error: division by zero".into()),
        "div" => x.checked_div_euclid(y).ok_or_else(overflow),
        _ if y == 0 => Err("arithmetic error: modulo by zero".into()),
        _ => Ok(x.wrapping_rem_euclid(y)),
    }
}

fn gen_int(rng: &mut TestRng, depth: u32) -> Gen<i64> {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => ("(t k)".into(), Box::new(|r| Ok(r.0))),
            1 => ("(t grp)".into(), Box::new(|r| Ok(r.1))),
            // A negative literal gets parentheses so its `-` starts a
            // sequence of its own (unary minus).
            _ => match edge_int(rng) {
                v if v < 0 => (format!("({v})"), Box::new(move |_| Ok(v))),
                v => (format!("{v}"), Box::new(move |_| Ok(v))),
            },
        };
    }
    let (a, fa) = gen_int(rng, depth - 1);
    let (b, fb) = gen_int(rng, depth - 1);
    let op = ["+", "-", "*", "div", "mod"][rng.below(5) as usize];
    (
        format!("({a} {op} {b})"),
        Box::new(move |r| int_op(op, fa(r)?, fb(r)?)),
    )
}

/// Strict: both operands of `and` / `or` evaluate, left first.
fn gen_bool(rng: &mut TestRng, depth: u32) -> Gen<bool> {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 | 1 => ("(t flag)".into(), Box::new(|r| Ok(r.2))),
            n => (format!("{}", n == 2), Box::new(move |_| Ok(n == 2))),
        };
    }
    if rng.below(9) <= 5 {
        let (a, fa) = gen_int(rng, depth - 1);
        let (b, fb) = gen_int(rng, depth - 1);
        let i = rng.below(6) as usize;
        let holds = move |o: std::cmp::Ordering| {
            [
                o.is_eq(),
                o.is_ne(),
                o.is_lt(),
                o.is_le(),
                o.is_gt(),
                o.is_ge(),
            ][i]
        };
        let op = ["=", "!=", "<", "<=", ">", ">="][i];
        return (
            format!("({a} {op} {b})"),
            Box::new(move |r| Ok(holds(fa(r)?.cmp(&fb(r)?)))),
        );
    }
    let (a, fa) = gen_bool(rng, depth - 1);
    match rng.below(3) {
        0 => (format!("not({a})"), Box::new(move |r| Ok(!fa(r)?))),
        n => {
            let (b, fb) = gen_bool(rng, depth - 1);
            let op = if n == 1 { "and" } else { "or" };
            let f = move |r: &Row| {
                let (x, y) = (fa(r)?, fb(r)?);
                Ok(if n == 1 { x && y } else { x || y })
            };
            (format!("({a} {op} {b})"), Box::new(f))
        }
    }
}

fn tuple((k, grp, flag): Row) -> Value {
    Value::tuple(vec![Value::Int(k), Value::Int(grp), Value::Bool(flag)])
}

fn rel(rows: Vec<Row>) -> Value {
    Value::Rel(rows.into_iter().map(tuple).collect())
}

fn count(rows: Eval<Vec<Row>>) -> Eval<Value> {
    rows.map(|rows| Value::Int(rows.len() as i64))
}

/// Keep the rows `pred` holds for; the first error in row order wins.
fn filter(rows: &[Row], pred: &Gen<bool>) -> Eval<Vec<Row>> {
    let mut out = Vec::new();
    for r in rows {
        if (pred.1)(r)? {
            out.push(*r);
        }
    }
    Ok(out)
}

/// Each row with `k` (`at` 0) or `grp` (`at` 1) replaced.
fn replace(rows: &[Row], at: usize, f: &Gen<i64>) -> Eval<Vec<Row>> {
    rows.iter()
        .map(|r| {
            let v = (f.1)(r)?;
            Ok(if at == 0 {
                (v, r.1, r.2)
            } else {
                (r.0, v, r.2)
            })
        })
        .collect()
}

/// `heap feed project[(a, proj), (b, pred)] consume` at `width`: each
/// chunk of `width` rows runs `proj` over the chunk, then `pred`.
fn project(rows: &[Row], proj: &Gen<i64>, pred: &Gen<bool>, width: usize) -> Eval<Value> {
    let mut out = Vec::new();
    for chunk in rows.chunks(width) {
        let a: Vec<i64> = chunk.iter().map(|r| (proj.1)(r)).collect::<Eval<_>>()?;
        let b: Vec<bool> = chunk.iter().map(|r| (pred.1)(r)).collect::<Eval<_>>()?;
        let pair = |(a, b)| Value::tuple(vec![Value::Int(a), Value::Bool(b)]);
        out.extend(a.into_iter().zip(b).map(pair));
    }
    Ok(Value::Rel(out))
}

/// `bitems select[(t k >= c) and pred] count`, rewritten to a B-tree
/// range from `c` with `pred` as the residual filter: the rows with
/// `k >= c` in key order, rows of one key in insertion order.
fn index_residual(rows: &[Row], c: i64, pred: &Gen<bool>) -> Eval<Value> {
    let mut in_range: Vec<Row> = rows.iter().copied().filter(|r| r.0 >= c).collect();
    in_range.sort_by_key(|r| r.0);
    count(filter(&in_range, pred))
}

/// A random relation: mostly small values (so filters keep and drop
/// rows, and `grp` hits zero), a sprinkling of overflow-edge rows.
fn gen_rows(rng: &mut TestRng) -> Vec<Row> {
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

fn build_db(rows: &[Row]) -> Database {
    let mut db = Database::builder().build();
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
    let tuples: Vec<Value> = rows.iter().copied().map(tuple).collect();
    db.bulk_load("heap", tuples.clone()).unwrap();
    db.bulk_load("bitems_rep", tuples.clone()).unwrap();
    db.bulk_load("items", tuples).unwrap();
    db
}

/// A conjunctive selection on `bitems` whose residual conjunct is `pred`
/// (the index takes `k >= c`).
fn index_residual_query(c: i64, pred: &str) -> String {
    format!("bitems select[fun (t: item) (t k >= {c}) and {pred}] count")
}

fn run(db: &mut Database, q: &str) -> Eval<Value> {
    db.query(q).map_err(|e| e.to_string())
}

/// The engine gives the reference's value or error text.
fn check(db: &mut Database, width: usize, q: &str, want: Eval<Value>) {
    assert_eq!(run(db, q), want, "`{q}` at batch={width}");
}

#[test]
fn random_expressions_agree_across_modes_and_widths() {
    run_property(
        ProptestConfig::with_cases(100),
        "compiled_vs_interp",
        |rng| {
            let rows = gen_rows(rng);
            let pred = gen_bool(rng, 3);
            let pred2 = gen_bool(rng, 2);
            let proj = gen_int(rng, 3);
            let repl = gen_int(rng, 2);
            let c = edge_int(rng).max(0);
            let (p, p2) = (&pred.0, &pred2.0);
            let mut db = build_db(&rows);
            for &b in BATCHES {
                db.set_batch_size(b);
                let db = &mut db;
                let q = format!("heap feed filter[fun (t: item) {p}] consume");
                check(db, b, &q, filter(&rows, &pred).map(rel));
                let q = format!("heap feed filter[fun (t: item) {p2}] count");
                check(db, b, &q, count(filter(&rows, &pred2)));
                let q = format!("heap feed replace[k, fun (t: item) {}] consume", repl.0);
                check(db, b, &q, replace(&rows, 0, &repl).map(rel));
                let q = format!(
                    "heap feed project[(a, fun (t: item) {}), (b, fun (t: item) {p})] consume",
                    proj.0
                );
                check(db, b, &q, project(&rows, &proj, &pred, b));
                let q = format!("items select[fun (t: item) {p}] count");
                check(db, b, &q, count(filter(&rows, &pred)));
                // A bool equality and a point have no columnar form, so
                // these run the register program alone.
                let q =
                    format!("heap feed filter[fun (t: item) {p} and ((t flag) = (t flag))] count");
                check(db, b, &q, count(filter(&rows, &pred)));
                let q = format!(
                    "heap feed project[(a, fun (t: item) makepoint({}, 0))] consume",
                    proj.0
                );
                let point = |r: &Row| {
                    Ok(Value::tuple(vec![Value::Point(Point::new(
                        (proj.1)(r)? as f64,
                        0.0,
                    ))]))
                };
                check(
                    db,
                    b,
                    &q,
                    rows.iter().map(point).collect::<Eval<_>>().map(Value::Rel),
                );
                let q = index_residual_query(c, p2);
                check(db, b, &q, index_residual(&rows, c, &pred2));
            }
            Ok(())
        },
    );
}

/// `heap feed filter[p1] replace[k, r1] filter[p2] consume` at `width`:
/// the scan hands over chunks of `width` rows, and each step runs over
/// what the step before it kept of a chunk before the next step does.
fn filter_replace_filter(
    rows: &[Row],
    [p1, p2]: &[Gen<bool>; 2],
    r1: &Gen<i64>,
    width: usize,
) -> Eval<Value> {
    let mut out = Vec::new();
    for chunk in rows.chunks(width) {
        out.extend(filter(&replace(&filter(chunk, p1)?, 0, r1)?, p2)?);
    }
    Ok(rel(out))
}

/// `heap feed filter[p1] head[h] project[(a, r1)] consume` at `width`:
/// `head` asks the scan for at most what it still needs, and the scan
/// reads chunks of that size until one has survivors.
fn filter_head_project(
    rows: &[Row],
    p1: &Gen<bool>,
    h: usize,
    r1: &Gen<i64>,
    width: usize,
) -> Eval<Value> {
    let (mut pos, mut remaining, mut out) = (0, h, Vec::new());
    while remaining > 0 && pos < rows.len() {
        let mut kept = Vec::new();
        while kept.is_empty() && pos < rows.len() {
            let end = rows.len().min(pos + width.min(remaining));
            kept = filter(&rows[pos..end], p1)?;
            pos = end;
        }
        remaining -= kept.len();
        for r in &kept {
            out.push(Value::tuple(vec![Value::Int((r1.1)(r)?)]));
        }
    }
    Ok(Value::Rel(out))
}

/// Chained pipelines stress the handoff between operators (mask →
/// column → rebuild) rather than single stages.
#[test]
fn random_operator_chains_agree_across_modes() {
    run_property(ProptestConfig::with_cases(100), "compiled_chains", |rng| {
        let rows = gen_rows(rng);
        let preds = [gen_bool(rng, 2), gen_bool(rng, 2)];
        let r1 = gen_int(rng, 2);
        let head = rng.below(12) as usize + 1;
        let (s1, s2, sr) = (&preds[0].0, &preds[1].0, &r1.0);
        let mut db = build_db(&rows);
        for &b in BATCHES {
            db.set_batch_size(b);
            let db = &mut db;
            let q = format!(
                "heap feed filter[fun (t: item) {s1}] replace[k, fun (t: item) {sr}] \
                 filter[fun (t: item) {s2}] consume"
            );
            check(db, b, &q, filter_replace_filter(&rows, &preds, &r1, b));
            let q = format!(
                "heap feed filter[fun (t: item) {s1}] head[{head}] \
                 project[(a, fun (t: item) {sr})] consume"
            );
            check(
                db,
                b,
                &q,
                filter_head_project(&rows, &preds[0], head, &r1, b),
            );
            let q = format!("heap feed replace[grp, fun (t: item) {sr}] count");
            check(db, b, &q, count(replace(&rows, 1, &r1)));
        }
        Ok(())
    });
}

/// A statement compiles each of its lambdas once, however many rows it
/// reads, and nothing falls back to an interpreter.
#[test]
fn each_lambda_of_a_statement_compiles_once() {
    for n in [50, 500] {
        let rows: Vec<Row> = (0..n).map(|i| (i, i % 5, i % 2 == 0)).collect();
        let mut db = build_db(&rows);
        db.reset_metrics();
        let q = "heap feed filter[fun (t: item) (t k) mod 7 = 0] \
                 project[(a, fun (t: item) t k), (b, fun (t: item) t grp)] count";
        assert_eq!(run(&mut db, q), Ok(Value::Int((n + 6) / 7)));
        let m = db.metrics().compile;
        assert_eq!((m.compiled, m.total_fallbacks()), (3, 0), "{n} rows");
    }
}

/// The index rule really fires on `bitems`, and its residual filter
/// is the residual conjunct itself, which gives the reference's count.
#[test]
fn index_residual_filters_are_rewritten_and_compiled() {
    let rows: Vec<Row> = (0..50).map(|i| (i, i % 5, i % 2 == 0)).collect();
    let q = index_residual_query(7, "((t grp) mod 2 = 0)");
    let mut db = build_db(&rows);
    let report = db.explain(&q).unwrap();
    assert_eq!(report.applied_rules()[0], "select-btree-and->=");
    assert!(
        report
            .plan()
            .contains("filter(range_from(bitems_rep, 7), fun (t: "),
        "plan: {}",
        report.plan()
    );
    db.reset_metrics();
    let residual: Gen<bool> = (String::new(), Box::new(|r| Ok(r.1 % 2 == 0)));
    check(&mut db, 1024, &q, index_residual(&rows, 7, &residual));
    let m = db.metrics().compile;
    assert!(
        m.compiled > 0 && m.total_fallbacks() == 0,
        "compile stats: {m:?}"
    );
}

/// Programs nest: a projection function drains a stream whose filter
/// runs another program (a closure over the outer tuple) while the
/// outer program's registers are live, at every width.
#[test]
fn a_closure_that_drains_another_closures_stream_runs_at_every_width() {
    let rows: Vec<Row> = (0..300).map(|i| (i, i % 7, i % 3 == 0)).collect();
    let mut db = build_db(&rows);
    let q = "heap feed project[(k, fun (t: item) t k), \
             (n, fun (t: item) heap feed filter[fun (u: item) (u grp) = (t grp)] count), \
             (m, fun (t: item) items select[fun (u: item) (u k) < (t k)] count)] consume";
    let want: Vec<Value> = rows
        .iter()
        .map(|&(k, grp, _)| {
            let n = rows.iter().filter(|r| r.1 == grp).count() as i64;
            Value::tuple(vec![Value::Int(k), Value::Int(n), Value::Int(k)])
        })
        .collect();
    for &b in BATCHES {
        db.set_batch_size(b);
        assert_eq!(run(&mut db, q), Ok(Value::Rel(want.clone())), "batch={b}");
    }
}
