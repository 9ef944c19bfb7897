//! The textual rule language (Section 5's rules as data): user rules
//! loaded at runtime. The built-in rules are themselves parsed from rule
//! text (`crates/system/src/rules/*.rules`), so the builtin plans these
//! tests compare against are text plans by construction.

use sos_exec::Value;
use sos_optimizer::{parse_rules, Optimizer, RuleStep};
use sos_system::Database;

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

/// Build a database whose optimizer consists ONLY of rules parsed from
/// the textual language.
fn text_rule_db() -> Database {
    let mut db = Database::builder().build();
    // Replace the built-in optimizer with an empty one, then load rules
    // from text.
    db.set_optimizer_enabled(false);
    db.run(
        r#"
        type item = tuple(<(k, int), (label, string)>);
        create items : rel(item);
        create items_rep : btree(item, k, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, items, items_rep);
    "#,
    )
    .unwrap();
    db.bulk_load(
        "items_rep",
        (0..100)
            .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("l{i}"))]))
            .collect(),
    )
    .unwrap();
    db.set_optimizer_enabled(true);
    db
}

#[test]
fn textual_select_rules_fire() {
    let mut db = text_rule_db();
    db.load_rules(
        "text-index",
        r#"
        rule select-key-exact:
          vars rel1 obj, a op, c const;
          lhs select(rel1, fun (t) =(a(t), c));
          rhs consume(exactmatch(b1, c));
          where rep(rel1, b1), key(b1, a);

        rule select-scan:
          vars rel1 obj;
          lhs select(rel1, pred);
          rhs consume(filter(feed(rep1), pred));
          where rep(rel1, rep1);
        "#,
    )
    .unwrap();
    // The built-in rules fire first; verify the text rules standalone by
    // checking plans on a fresh optimizer-only pipeline below. Here the
    // combined system still answers correctly.
    assert_eq!(as_count(&db.query("items select[k = 7] count").unwrap()), 1);
}

#[test]
fn text_rules_standalone_produce_the_same_plans_as_builtin() {
    // Compare plans from a text-only optimizer with the builtin one.
    let src = r#"
        rule select-key-exact:
          vars rel1 obj, a op, c const;
          lhs select(rel1, fun (t) =(a(t), c));
          rhs consume(exactmatch(b1, c));
          where rep(rel1, b1), key(b1, a);
    "#;
    let rules = parse_rules(src).unwrap();
    let optimizer = Optimizer::new(vec![RuleStep::exhaustive("text", rules)]);

    let mut db = text_rule_db();
    // Plan from the built-in optimizer:
    let builtin_plan = db.explain("items select[k = 7]").unwrap().plan;
    assert!(builtin_plan.contains("exactmatch(items_rep"));

    // Plan from the text rules, applied manually through the public
    // optimizer API.
    use sos_core::check::Checker;
    let checker = Checker::new(db.signature(), db.catalog());
    db2_plan(&optimizer, &checker, &db, &builtin_plan);
}

fn db2_plan(
    optimizer: &Optimizer,
    checker: &sos_core::check::Checker,
    db: &Database,
    builtin_plan: &str,
) {
    let raw = sos_parser::parse_expr_str("items select[k = 7]", db.signature()).unwrap();
    let checked = checker.check_expr(&raw).unwrap();
    let (optimized, stats, _) = optimizer
        .optimize(&checked, checker, db.catalog(), false)
        .unwrap();
    assert_eq!(optimized.to_string(), builtin_plan);
    assert_eq!(stats.rewrites, 1);
}

#[test]
fn textual_funvar_rule_matches_spatial_join() {
    // The Section 5 rule, loaded from text, fires on the geometric join.
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
    .unwrap();
    let src = r#"
        rule join-inside-lsdtree-text:
          vars rel1 obj, rel2 obj;
          funvars pointf(t1), regionf(t2);
          lhs join(rel1, rel2, fun (t1, t2) inside(pointf(t1), regionf(t2)));
          rhs consume(search_join(feed(rep1),
                fun (t1: $t1) filter(point_search(lsd2, pointf(t1)),
                  fun (t2: $t2) inside(pointf(t1), regionf(t2)))));
          where rep(rel1, rep1), rep(rel2, lsd2),
                lsd2 : lsdtree(tuple2, f), lsdbbox(lsd2, regionf);
    "#;
    let rules = parse_rules(src).unwrap();
    let optimizer = Optimizer::new(vec![RuleStep::exhaustive("text", rules)]);
    // Reference plan from the builtin rules, via explain.
    let reference = db
        .explain("cities states join[center inside region]")
        .unwrap()
        .plan;
    use sos_core::check::Checker;
    let checker = Checker::new(db.signature(), db.catalog());
    let raw =
        sos_parser::parse_expr_str("cities states join[center inside region]", db.signature())
            .unwrap();
    let checked = checker.check_expr(&raw).unwrap();
    let (optimized, _, _) = optimizer
        .optimize(&checked, &checker, db.catalog(), false)
        .unwrap();
    assert_eq!(optimized.to_string(), reference);
}

#[test]
fn bad_rule_files_are_rejected() {
    let mut db = Database::builder().build();
    assert!(db.load_rules("x", "rule broken").is_err());
    assert!(db.load_rules("x", "rule r: lhs f(; rhs x;").is_err());
    assert!(db
        .load_rules("x", "rule r: vars v banana; lhs f(v); rhs v;")
        .is_err());
}

/// The rule language has one template per rule: an `or` clause after
/// it is a parse error at that token, not an ignored alternative.
#[test]
fn a_rule_with_an_or_clause_fails_to_load() {
    let mut db = Database::builder().build();
    let src = "rule r: lhs f(x); rhs x;\n  or alt: x;";
    let err = db.load_rules("x", src).unwrap_err().to_string();
    assert!(err.contains("found `or`"), "error: {err}");
}
