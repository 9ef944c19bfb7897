//! Plan validation and the L006 type-preservation lint, end to end.
//!
//! A deliberately type-breaking rule — `select(rel1, pred) =>
//! count(rel1)`, well-typed but returning `int` where the plan produced
//! a relation — is (a) rejected at registration on a default database
//! via L006, and (b) run directly through the optimizer, rejects the
//! plan with `PlanTypeChanged` naming the rule.

use sos_core::check::Checker;
use sos_core::{Expr, Symbol};
use sos_optimizer::synth::{self, Scenario};
use sos_optimizer::{OptError, Optimizer, Rule, RuleStep, TermPattern};
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
fn registration_rejects_type_breaking_rule_with_l006() {
    let mut db = Database::builder().build();
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

/// Validation is always strict: run directly through the optimizer,
/// traced or not, the rule's rewrite rejects the plan.
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
    for traced in [false, true] {
        let err = opt
            .optimize(&witness, &checker, &scenario.catalog, traced)
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
        assert!(err.to_string().contains("changed the plan's result type"));
    }

    // The rule verifier reports the same rewrite as a type change, with
    // the detail the L006 finding quotes.
    let verdict = synth::verify_rule(&sig, &scenario, "bad", &type_breaking_rule());
    match verdict {
        synth::Verdict::TypeChanged { detail, .. } => {
            assert!(
                detail.starts_with("result type changed from rel("),
                "{detail}"
            );
            assert!(detail.ends_with(" to int"), "{detail}");
        }
        other => panic!("expected TypeChanged, got {other:?}"),
    }
}
