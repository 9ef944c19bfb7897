//! E6 — Section 5: rule-based optimization. The catalog-conditioned
//! rewrite rules translate model-level queries into representation
//! plans: selections into B-tree searches, the geometric join into the
//! LSD-tree `search_join` plan of the paper, with the generic scan rules
//! as fallback. Every rewrite is re-checked, so the optimizer cannot
//! produce ill-typed plans.

use sos_exec::Value;
use sos_geom::{gen, Point, Polygon};
use sos_system::Database;

fn city_tuple(name: &str, center: Point, pop: i64) -> Value {
    Value::tuple(vec![
        Value::Str(name.to_string()),
        Value::Point(center),
        Value::Int(pop),
    ])
}

fn state_tuple(name: &str, region: Polygon) -> Value {
    Value::tuple(vec![Value::Str(name.to_string()), Value::Pgon(region)])
}

/// Model-level objects `cities`/`states` with representation objects
/// linked through the `rep` catalog — the exact setup of Section 6's
/// example trace.
fn model_db(n_cities: usize, grid: usize) -> Database {
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
    let cities: Vec<Value> = gen::uniform_points(n_cities, 3)
        .into_iter()
        .enumerate()
        .map(|(i, p)| city_tuple(&format!("city{i}"), p, (i as i64 * 991) % 100_000))
        .collect();
    db.bulk_insert("cities_rep", cities).unwrap();
    let states: Vec<Value> = gen::state_grid(grid, 4)
        .into_iter()
        .map(|(n, p)| state_tuple(&n, p))
        .collect();
    db.bulk_insert("states_rep", states).unwrap();
    db
}

fn as_count(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Rel(ts) | Value::Stream(ts) => ts.len() as i64,
        other => panic!("expected count, got {other:?}"),
    }
}

#[test]
fn select_on_key_becomes_exactmatch() {
    let mut db = model_db(100, 2);
    let plan = db.explain("cities select[pop = 991]").unwrap().plan;
    assert!(
        plan.contains("exactmatch(cities_rep"),
        "expected exactmatch plan, got: {plan}"
    );
    assert!(!plan.contains("select("), "model op must be gone: {plan}");
    // And it executes correctly.
    assert_eq!(
        as_count(&db.query("cities select[pop = 991] count").unwrap()),
        1
    );
}

#[test]
fn select_range_comparisons_become_halfranges() {
    let mut db = model_db(100, 2);
    let ge = db.explain("cities select[pop >= 50000]").unwrap().plan;
    assert!(ge.contains("range_from(cities_rep"), "plan: {ge}");
    let le = db.explain("cities select[pop <= 50000]").unwrap().plan;
    assert!(le.contains("range_to(cities_rep"), "plan: {le}");
    // Strict comparisons keep the original predicate as a filter.
    let gt = db.explain("cities select[pop > 50000]").unwrap().plan;
    assert!(
        gt.contains("range_from(cities_rep") && gt.contains("filter"),
        "plan: {gt}"
    );
    // Results agree with the unoptimized evaluation over the rep scan.
    let optimized = as_count(&db.query("cities select[pop > 50000] count").unwrap());
    let manual = as_count(
        &db.query("cities_rep feed filter[pop > 50000] count")
            .unwrap(),
    );
    assert_eq!(optimized, manual);
}

#[test]
fn select_on_non_key_attribute_becomes_scan() {
    let mut db = model_db(100, 2);
    let plan = db
        .explain(r#"cities select[cname = "city7"]"#)
        .unwrap()
        .plan;
    assert!(
        plan.contains("filter(feed(cities_rep"),
        "expected scan plan, got: {plan}"
    );
    assert_eq!(
        as_count(&db.query(r#"cities select[cname = "city7"] count"#).unwrap()),
        1
    );
}

/// The rule of Section 5, end to end: the model-level geometric join is
/// rewritten into the repeated LSD-tree search plan.
#[test]
fn geometric_join_rewrites_to_lsdtree_search_join() {
    let mut db = model_db(150, 5);
    let plan = db
        .explain("cities states join[center inside region]")
        .unwrap()
        .plan;
    assert!(
        plan.contains("point_search(states_rep"),
        "expected the Section 5 plan, got: {plan}"
    );
    assert!(plan.contains("search_join"), "plan: {plan}");
    assert!(plan.contains("feed(cities_rep"), "plan: {plan}");
    assert!(
        !plan.contains("join(cities, states"),
        "model join must be gone: {plan}"
    );

    // The optimized query equals the hand-written index plan of E4/E5.
    let optimized = as_count(
        &db.query("cities states join[center inside region] count")
            .unwrap(),
    );
    let manual = as_count(
        &db.query(
            "cities_rep feed \
             (fun (c: city) states_rep (c center) point_search \
              filter[fun (s: state) c center inside s region]) \
             search_join count",
        )
        .unwrap(),
    );
    assert_eq!(optimized, manual);
    assert!(optimized > 100);
}

/// Without an LSD-tree on the inner relation the spatial rule does not
/// fire; the generic scan-based search join is produced instead.
#[test]
fn spatial_rule_requires_matching_lsdtree() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(cname, string), (center, point), (pop, int)>);
        type state = tuple(<(sname, string), (region, pgon)>);
        create cities : rel(city);
        create states : rel(state);
        create cities_rep : btree(city, pop, int);
        create states_rep : tidrel(state);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, cities, cities_rep);
        update rep := insert(rep, states, states_rep);
    "#,
    )
    .unwrap();
    let plan = db
        .explain("cities states join[center inside region]")
        .unwrap()
        .plan;
    assert!(!plan.contains("point_search"), "plan: {plan}");
    assert!(plan.contains("search_join"), "plan: {plan}");
    assert!(plan.contains("feed(states_rep"), "plan: {plan}");
}

/// Queries over objects without representations stay at the model level
/// (no rep catalog entry: no rule condition holds).
#[test]
fn no_representation_no_rewrite() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type t = tuple(<(a, int)>);
        create r : rel(t);
        update r := insert(r, mktuple[(a, 1)]);
    "#,
    )
    .unwrap();
    let plan = db.explain("r select[a > 0]").unwrap().plan;
    assert!(plan.contains("select("), "plan: {plan}");
    assert_eq!(as_count(&db.query("r select[a > 0]").unwrap()), 1);
}

/// Optimizer statistics are reported (rewrites and attempts) through
/// the unified metrics snapshot.
#[test]
fn optimizer_reports_stats() {
    let mut db = model_db(20, 2);
    db.reset_metrics();
    db.query("cities select[pop = 991] count").unwrap();
    let stats = db.metrics().optimizer;
    assert!(stats.rewrites >= 1);
    assert!(stats.rule_attempts >= 1);
}

/// Disabling the optimizer leaves the model-level term, which still
/// evaluates (over the unrepresented empty model value) — demonstrating
/// that translation, not execution, is what makes represented relations
/// usable.
#[test]
fn optimizer_toggle_changes_plans() {
    let mut db = model_db(50, 2);
    let on = db.explain("cities select[pop >= 0]").unwrap().plan;
    db.set_optimizer_enabled(false);
    let off = db.explain("cities select[pop >= 0]").unwrap().plan;
    assert_ne!(on, off);
    assert!(off.contains("select("));
}

/// Equi-joins between represented relations are rewritten to the hash
/// join (the extensible "special join algorithm" of the paper's intro).
#[test]
fn equi_join_rewrites_to_hashjoin() {
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
    let emps: Vec<Value> = (0..100)
        .map(|i| Value::tuple(vec![Value::Str(format!("e{i}")), Value::Int(i % 7)]))
        .collect();
    let depts: Vec<Value> = (0..7)
        .map(|d| Value::tuple(vec![Value::Int(d), Value::Str(format!("d{d}"))]))
        .collect();
    db.bulk_insert("emps_rep", emps).unwrap();
    db.bulk_insert("depts_rep", depts).unwrap();

    let plan = db.explain("emps depts join[dept = dno]").unwrap().plan;
    assert!(plan.contains("hashjoin"), "plan: {plan}");
    assert_eq!(
        as_count(&db.query("emps depts join[dept = dno] count").unwrap()),
        100
    );
    // A non-equi predicate falls through to the generic search join.
    let plan2 = db.explain("emps depts join[dept < dno]").unwrap().plan;
    assert!(!plan2.contains("hashjoin"), "plan: {plan2}");
    assert!(plan2.contains("search_join"), "plan: {plan2}");
}

/// A conjunctive predicate with an indexable conjunct splits into an
/// index search plus a residual filter.
#[test]
fn conjunctive_selection_uses_the_index() {
    let mut db = model_db(200, 2);
    // pop is the btree key; cname is the residue.
    let plan = db
        .explain(r#"cities select[fun (c: city) c pop >= 50000 and c cname = "city3"]"#)
        .unwrap()
        .plan;
    assert!(plan.contains("range_from(cities_rep"), "plan: {plan}");
    assert!(plan.contains("filter"), "plan: {plan}");
    // Equality conjunct.
    let plan2 = db
        .explain(r#"cities select[fun (c: city) c pop = 991 and c cname = "city1"]"#)
        .unwrap()
        .plan;
    assert!(plan2.contains("exactmatch(cities_rep"), "plan: {plan2}");
    // Strict comparison keeps the boundary check in the residue.
    let plan3 = db
        .explain(r#"cities select[fun (c: city) c pop > 50000 and c cname = "city9"]"#)
        .unwrap()
        .plan;
    assert!(plan3.contains("range_from(cities_rep"), "plan: {plan3}");
    assert!(plan3.contains(">("), "plan keeps the strict check: {plan3}");

    // And the results are right.
    let optimized = as_count(
        &db.query(r#"cities select[fun (c: city) c pop >= 50000 and c cname = "city73"] count"#)
            .unwrap(),
    );
    let manual = as_count(
        &db.query(
            r#"cities_rep feed filter[fun (c: city) c pop >= 50000 and c cname = "city73"] count"#,
        )
        .unwrap(),
    );
    assert_eq!(optimized, manual);
}

/// Section 6's level classification: the optimizer turns Model-level
/// terms into Representation-level terms whenever representations exist.
#[test]
fn optimization_lowers_the_term_level() {
    use sos_core::check::Checker;
    use sos_core::spec::Level;
    let mut db = model_db(20, 2);
    let raw = sos_parser::parse_expr_str("cities select[pop = 991]", db.signature()).unwrap();
    let checked = {
        let checker = Checker::new(db.signature(), db.catalog());
        checker.check_expr(&raw).unwrap()
    };
    assert_eq!(db.term_level(&checked), Level::Model);
    db.set_optimizer_enabled(true);
    // Go through explain to re-check and optimize, then classify.
    let plan_src = db.explain("cities select[pop = 991]").unwrap().plan;
    // The optimized plan must contain no model-level operator: re-check
    // the plan text and classify.
    let plan_raw = sos_parser::parse_expr_str(&plan_src, db.signature());
    // The printed plan is abstract syntax; parse as prefix applications.
    if let Ok(p) = plan_raw {
        let checker = Checker::new(db.signature(), db.catalog());
        if let Ok(t) = checker.check_expr(&p) {
            assert_ne!(db.term_level(&t), Level::Model, "plan: {plan_src}");
        }
    }
    // Whatever the round-trip, the plan string must not contain the
    // model operator.
    assert!(!plan_src.contains("select("), "plan: {plan_src}");
}

/// Rule instantiation avoids capture: `join-scan-searchjoin` introduces
/// its own `fun (t1: ..)` around the spliced join predicate, so a
/// predicate mentioning an *outer* `t1` must not be captured by it. The
/// query and its alpha-renamed twin must agree.
#[test]
fn rule_templates_do_not_capture_outer_variables() {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (g, int)>);
        type ct = tuple(<(ck, int), (cv, int)>);
        create a : rel(item);
        create b : rel(item);
        create c : rel(ct);
        create a_rep : btree(item, k, int);
        create b_rep : btree(item, k, int);
        create c_rep : btree(ct, ck, int);
        create rep : catalog(<ident, ident>);
        update rep := insert(rep, a, a_rep);
        update rep := insert(rep, b, b_rep);
        update rep := insert(rep, c, c_rep);
    "#,
    )
    .unwrap();
    let pair = |x: i64, y: i64| Value::tuple(vec![Value::Int(x), Value::Int(y)]);
    db.bulk_insert("a_rep", (1..=3).map(|k| pair(k, 0)).collect())
        .unwrap();
    db.bulk_insert("b_rep", vec![pair(1, 10), pair(2, 20)])
        .unwrap();
    db.bulk_insert("c_rep", vec![pair(10, 1), pair(20, 2)])
        .unwrap();
    let query = |outer: &str| {
        format!(
            "a select[fun ({outer}: item) (b c join[fun (x: item, y: ct) \
             x g = y ck and x k = {outer} k] count) > 0] count"
        )
    };
    assert_eq!(as_count(&db.query(&query("t1")).unwrap()), 2);
    assert_eq!(as_count(&db.query(&query("u")).unwrap()), 2);
}
