//! Stress: large generated programs through the full pipeline, many
//! objects, deep pipelines, interleaved updates and queries — the
//! sustained-use soak the statement processor must survive.

use sos_exec::Value;
use sos_system::Database;

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

#[test]
fn hundreds_of_statements_in_one_program() {
    let mut program = String::from(
        "type item = tuple(<(k, int), (tag, string)>);\n\
         create items : rel(item);\n\
         create items_rep : btree(item, k, int);\n\
         create rep : catalog(<ident, ident>);\n\
         update rep := insert(rep, items, items_rep);\n",
    );
    for i in 0..200 {
        program.push_str(&format!(
            "update items := insert(items, mktuple[(k, {i}), (tag, \"t{}\")]);\n",
            i % 5
        ));
    }
    for i in (0..200).step_by(40) {
        program.push_str(&format!("query items select[k = {i}] count;\n"));
    }
    let mut db = Database::builder().build();
    let outputs = db.run(&program).unwrap();
    assert_eq!(outputs.len(), 5 + 200 + 5);
    assert_eq!(as_count(&db.query("items_rep feed count").unwrap()), 200);
    // Every point query found its tuple.
    for out in &outputs[205..] {
        assert_eq!(as_count(out.value().unwrap()), 1);
    }
}

#[test]
fn many_objects_and_types() {
    let mut db = Database::builder().build();
    for i in 0..60 {
        db.run(&format!(
            "type t{i} = tuple(<(a{i}, int), (b{i}, string)>);\n\
             create r{i} : rel(t{i});\n\
             update r{i} := insert(r{i}, mktuple[(a{i}, {i}), (b{i}, \"x\")]);"
        ))
        .unwrap();
    }
    for i in 0..60 {
        assert_eq!(
            as_count(&db.query(&format!("r{i} select[a{i} = {i}] count")).unwrap()),
            1
        );
    }
    assert_eq!(db.catalog().objects().count(), 60);
}

#[test]
fn deep_pipelines_check_and_run() {
    let mut db = Database::builder().build();
    db.run(
        "type item = tuple(<(k, int), (tag, string)>);\n\
         create s : srel(item);",
    )
    .unwrap();
    let tuples: Vec<Value> = (0..500)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("t{}", i % 3))]))
        .collect();
    db.bulk_load("s", tuples).unwrap();
    // 24-stage pipeline.
    let mut q = String::from("s feed");
    for i in 0..24 {
        q.push_str(&format!(" filter[k >= {i}]"));
    }
    q.push_str(" count");
    assert_eq!(as_count(&db.query(&q).unwrap()), 500 - 23);
}

#[test]
fn repeated_create_delete_cycles() {
    let mut db = Database::builder().build();
    db.run("type t = tuple(<(a, int)>);").unwrap();
    for round in 0..50 {
        db.run(&format!(
            "create r : rel(t);\n\
             update r := insert(r, mktuple[(a, {round})]);\n\
             query r count;\n\
             delete r;"
        ))
        .unwrap();
    }
    // Name is free again after each cycle; nothing leaked into the
    // catalog.
    assert_eq!(db.catalog().objects().count(), 0);
}

#[test]
fn interleaved_model_and_rep_updates_stay_consistent() {
    let mut db = Database::builder().build();
    db.run(
        "type item = tuple(<(k, int), (tag, string)>);\n\
         create items : rel(item);\n\
         create items_rep : btree(item, k, int);\n\
         create rep : catalog(<ident, ident>);\n\
         update rep := insert(rep, items, items_rep);",
    )
    .unwrap();
    let mut expected = 0i64;
    for i in 0..40 {
        // Model-level insert (translated).
        db.run(&format!(
            "update items := insert(items, mktuple[(k, {i}), (tag, \"m\")]);"
        ))
        .unwrap();
        expected += 1;
        // Direct representation-level insert (mixed program, Section 6).
        db.run(&format!(
            "update items_rep := insert(items_rep, mktuple[(k, {}), (tag, \"r\")]);",
            1000 + i
        ))
        .unwrap();
        expected += 1;
        if i % 10 == 9 {
            db.run(&format!(
                "update items := delete(items, fun (t: item) t k = {i});"
            ))
            .unwrap();
            expected -= 1;
        }
    }
    assert_eq!(
        as_count(&db.query("items select[k >= 0] count").unwrap()),
        expected
    );
}

/// A sequence error quotes a bounded excerpt of the input, not the
/// whole of it, and still counts the operands it was left with.
#[test]
fn sequence_errors_quote_a_bounded_excerpt() {
    let mut db = Database::builder().build();
    let query = format!("{}true", "not ".repeat(50_000));
    let err = db.query(&query).unwrap_err().to_string();
    assert!(err.len() < 1024, "a {}-byte error", err.len());
    assert!(err.contains("leaves 50001 operands"), "{err}");
    assert!(err.contains("more bytes)"), "{err}");
}
