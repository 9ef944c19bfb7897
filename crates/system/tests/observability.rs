//! The observability façade end to end: `DatabaseBuilder`, the unified
//! `metrics()` snapshot, phase tracing, and structured explain — the
//! surface that replaced the removed pre-builder shims.

use sos_system::{Database, Phase};

fn keyed_db() -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (name, string)>);
        create items : rel(item);
        create items_rep : btree(item, k, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, items_rep);
        update items := insert(items, mktuple[(k, 1), (name, "a")]);
        update items := insert(items, mktuple[(k, 2), (name, "b")]);
        update items := insert(items, mktuple[(k, 3), (name, "c")]);
    "#,
    )
    .unwrap();
    db
}

#[test]
fn builder_configures_every_knob() {
    let mut db = Database::builder()
        .memory_pool(256)
        .batch_size(7)
        .optimize(false)
        .trace(true)
        .build();
    assert_eq!(db.batch_size(), 7);
    assert!(!db.optimizer_enabled());
    assert!(db.tracing());
    // The knobs remain adjustable at runtime.
    db.set_batch_size(1);
    db.set_optimizer_enabled(true);
    db.set_tracing(false);
    assert_eq!(db.batch_size(), 1);
    assert!(db.optimizer_enabled());
    assert!(!db.tracing());
}

#[test]
fn tracing_is_off_by_default_and_records_when_enabled() {
    let mut db = keyed_db();
    db.query("items select[k >= 2] count").unwrap();
    assert!(!db.tracing());
    assert!(
        db.metrics().phases.is_empty(),
        "no spans while tracing is off"
    );

    // Another shape: the first one would be a cache hit, which skips
    // the check phase.
    db.set_tracing(true);
    db.query("items select[k = 2] count").unwrap();
    let phases = db.metrics().phases;
    for p in Phase::ALL {
        let (count, _) = phases.phase(p);
        assert_eq!(count, 1, "phase {p} recorded once");
    }
    assert!(phases.total_nanos() > 0);
}

#[test]
fn metrics_unifies_pool_optimizer_ops_and_accumulates() {
    let mut db = keyed_db();
    db.reset_metrics();
    db.query("items select[k >= 2] count").unwrap();
    db.query("items select[k = 1] count").unwrap();
    db.query("items_rep feed count").unwrap();
    let m = db.metrics();
    assert!(
        m.pool.logical_reads > 0,
        "pool traffic visible: {:?}",
        m.pool
    );
    // Two rewritten statements of distinct shapes (a repeated shape
    // would be a cache hit): the counters are cumulative, not last-run.
    assert!(m.optimizer.rewrites >= 2, "optimizer: {:?}", m.optimizer);
    assert!(m.op("count").is_some(), "ops: {:?}", m.ops);
    assert_eq!(m.op("count"), db.op_stats("count").as_ref());
    let json = m.to_json();
    assert!(json.contains(r#""pool""#) && json.contains(r#""optimizer""#));

    db.reset_metrics();
    let cleared = db.metrics();
    assert_eq!(cleared.pool.logical_reads, 0);
    assert_eq!(cleared.optimizer.rewrites, 0);
    assert!(cleared.ops.is_empty());
    assert!(cleared.phases.is_empty());
}

#[test]
fn op_stats_distinguishes_never_ran_from_zero() {
    let mut db = keyed_db();
    db.reset_metrics();
    assert_eq!(db.op_stats("count"), None);
    db.query("items_rep feed count").unwrap();
    let count = db.op_stats("count").expect("count ran");
    assert!(count.invocations >= 1);
    assert_eq!(count.tuples_in, 3);
    assert_eq!(db.op_stats("no_such_operator"), None);
}

#[test]
fn explain_analyze_reports_actual_counts() {
    let mut db = keyed_db();
    let report = db.explain_analyze("items_rep feed count").unwrap();
    let analysis = report.analysis.as_ref().expect("analyze ran the plan");
    assert_eq!(analysis.result, "int = 3");
    // The per-run rows agree with what the global registry accumulated
    // for the same operators.
    let count = analysis
        .ops
        .iter()
        .find(|(n, _)| n == "count")
        .expect("count row");
    assert_eq!(count.1.tuples_in, 3);
    assert!(db.op_stats("count").unwrap().invocations >= count.1.invocations);
    // All four phases were timed, execute included.
    assert_eq!(report.phases.len(), 4);
    assert_eq!(report.phases[3].0, Phase::Execute);
    // A second analyze reports only its own run, not the accumulated
    // totals.
    let again = db.explain_analyze("items_rep feed count").unwrap();
    let count_again = again
        .analysis
        .as_ref()
        .unwrap()
        .ops
        .iter()
        .find(|(n, _)| n == "count")
        .expect("count row");
    assert_eq!(count_again.1.tuples_in, 3);
    // Plain explain does not execute.
    let plain = db.explain("items select[k >= 2] count").unwrap();
    assert!(plain.analysis.is_none());
    assert_eq!(plain.phases.len(), 3);
}

#[test]
fn explain_is_structured_and_serializes() {
    let mut db = keyed_db();
    let report = db.explain("items select[k >= 2]").unwrap();
    assert_eq!(report.applied_rules(), vec!["select-btree->="]);
    let rewrite = &report.rewrites[0];
    assert_eq!(rewrite.step, "index-access");
    assert!(rewrite.before.contains("select("), "{rewrite:?}");
    assert!(rewrite.after.contains("range_from("), "{rewrite:?}");
    assert!(!rewrite.conditions.is_empty());
    assert!(report.plan_tree.contains("consume"));
    let json = report.to_json();
    assert!(json.contains(r#""rule":"select-btree->=""#), "{json}");
    // Display renders the timing line; render(false) drops it.
    assert!(report.to_string().contains("phases:"));
    assert!(!report.render(false).contains("phases:"));
}

/// The deprecated pre-builder shims (`new`, `with_pool`, `set_optimize`,
/// the stats getters) are gone: the builder façade and
/// the metrics registry cover every former shim use.
#[test]
fn builder_facade_covers_former_shims() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type t = tuple(<(a, int)>);
        create r : rel(t);
        update r := insert(r, mktuple[(a, 41)]);
    "#,
    )
    .unwrap();
    db.set_optimizer_enabled(false);
    assert!(!db.optimizer_enabled());
    db.set_optimizer_enabled(true);
    db.reset_metrics();
    db.query("r select[a > 0] count").unwrap();
    let m = db.metrics();
    assert!(m.op("select").is_some(), "ops: {:?}", m.ops);

    let db2 = Database::builder().pool(sos_storage::mem_pool(128)).build();
    assert!(db2.metrics().ops.is_empty());
}
