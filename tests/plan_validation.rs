//! Plan validation and the L006 type-preservation lint, end to end.
//!
//! A deliberately type-breaking rule — `select(rel1, pred) =>
//! count(rel1)`, well-typed but returning `int` where the plan produced
//! a relation — is (a) rejected at load time under strict lint via
//! L006, (b) accepted under the default mode but flagged: the rewrite
//! step is marked in the EXPLAIN trace and counted in
//! `plan_validation_failures`, and (c) rejected at optimize time under
//! `Validation::Strict`.

use sos_core::check::Checker;
use sos_core::{Expr, Symbol};
use sos_optimizer::synth::{self, Scenario};
use sos_optimizer::{OptError, OptimizeOpts, Optimizer, Rule, RuleStep, TermPattern, Validation};
use sos_system::{Database, SystemError};

/// `select(rel1, pred) => count(rel1)`: fires on any select over an
/// object, preserves well-typedness, breaks the result type.
fn type_breaking_rule() -> Rule {
    Rule {
        name: "select-to-count".into(),
        lhs: TermPattern::apply(
            "select",
            vec![
                TermPattern::ObjectVar(Symbol::new("rel1")),
                TermPattern::var("pred"),
            ],
        ),
        conditions: vec![],
        rhs: Expr::Apply {
            op: Symbol::new("count"),
            args: vec![Expr::Name(Symbol::new("rel1"))],
        },
    }
}

#[test]
fn strict_lint_rejects_type_breaking_rule_with_l006() {
    let mut db = Database::builder().strict_lint(true).build();
    let err = db
        .add_rule_step(RuleStep::exhaustive("bad", vec![type_breaking_rule()]))
        .unwrap_err();
    match &err {
        SystemError::Lint(diags) => {
            assert!(
                diags.iter().any(|d| d.code == "L006"),
                "expected an L006 finding, got: {diags:?}"
            );
            let d = diags.iter().find(|d| d.code == "L006").unwrap();
            assert!(
                d.message.contains("does not preserve plan types"),
                "{}",
                d.message
            );
        }
        other => panic!("expected SystemError::Lint, got {other}"),
    }
}

#[test]
fn default_mode_counts_and_marks_the_violation() {
    // Non-strict database: the rule loads, and a select over an object
    // with no representation links survives the builtin translation
    // steps so the bad rule is what fires.
    let mut db = Database::builder().build();
    db.run("type t = tuple(<(k, int)>); create r : rel(t);")
        .unwrap();
    db.add_rule_step(RuleStep::exhaustive("bad", vec![type_breaking_rule()]))
        .unwrap();

    let report = db.explain("r select[k > 0]").unwrap();
    let step = report
        .rewrites
        .iter()
        .find(|a| a.rule == "select-to-count")
        .expect("the bad rule fired");
    let failure = step
        .validation_failure
        .as_deref()
        .expect("the violating step is marked in the trace");
    assert!(failure.contains("result type changed"), "{failure}");
    assert!(
        report.render(false).contains("!! plan validation:"),
        "rendered EXPLAIN flags the step:\n{}",
        report.render(false)
    );
    assert!(db.metrics().optimizer.plan_validation_failures > 0);
    let shown = db.metrics().to_string();
    assert!(shown.contains("plan validation failure"), "{shown}");
}

#[test]
fn strict_validation_rejects_the_plan_at_optimize_time() {
    let sig = sos_system::builtin::builtin_signature();
    let scenario = Scenario::build(&sig);
    let rule = type_breaking_rule();
    let witness = synth::witnesses(&sig, &scenario, &rule, 1)
        .into_iter()
        .next()
        .expect("the scenario yields a select witness");
    let opt = Optimizer::new(vec![RuleStep::exhaustive("bad", vec![rule])]);
    let checker = Checker::new(&sig, &scenario.catalog);
    let opts = |validation| OptimizeOpts {
        validation,
        ..OptimizeOpts::default()
    };

    // Count mode: the rewrite goes through, the failure is counted.
    let (_, stats, _) = opt
        .optimize(
            &witness,
            &checker,
            &scenario.catalog,
            &opts(Validation::Count),
        )
        .unwrap();
    assert_eq!(stats.plan_validation_failures, 1);

    // Strict mode: the plan is rejected with the offending rule named.
    let err = opt
        .optimize(
            &witness,
            &checker,
            &scenario.catalog,
            &opts(Validation::Strict),
        )
        .unwrap_err();
    match &err {
        OptError::PlanTypeChanged {
            rule,
            before,
            after,
        } => {
            assert_eq!(rule, "select-to-count");
            assert!(before.starts_with("rel("), "{before}");
            assert_eq!(after, "int");
        }
        other => panic!("expected PlanTypeChanged, got {other}"),
    }
    assert!(err.to_string().contains("strict plan validation"));
}
