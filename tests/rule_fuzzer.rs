//! The rule fuzzer (`sos_system::fuzz`): differential before/after
//! execution of every rewrite rule over seeded data.
//!
//! Two directions: the built-in rule set must survive the fuzzer with
//! zero mismatches, and a deliberately semantics-breaking rule — type
//! preserving, so the static verifier (L006) cannot see it — must be
//! caught. The seed is fixed; CI's `verify-rules` step runs this test.

use sos_core::{Expr, Symbol};
use sos_optimizer::{Condition, Optimizer, Rule, RuleStep, TermPattern};
use sos_system::fuzz::{fuzz_builtin_rules, fuzz_optimizer, FuzzConfig};

#[test]
fn builtin_rules_preserve_semantics() {
    let report = fuzz_builtin_rules(&FuzzConfig::default()).unwrap();
    assert!(
        report.ok(),
        "builtin rules changed results:\n{}",
        report
            .mismatches
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The run must be substantive, not vacuous: the query-shaped rules
    // (select/join translations and index accesses) all fire and
    // execute, and the update-shaped witnesses are accounted for.
    assert!(report.rules >= 20, "rules examined: {}", report.rules);
    assert!(
        report.rules_fired >= 8,
        "rules fired: {}",
        report.rules_fired
    );
    assert!(
        report.witnesses_run >= 20,
        "witnesses run: {}",
        report.witnesses_run
    );
    assert!(
        report.skipped_updates > 0,
        "update rules should be counted as skipped, not silently dropped"
    );
}

#[test]
fn seeded_semantics_breaking_rule_is_caught() {
    // select(rel1, pred) => consume(feed(rep1)): the rewrite quietly
    // drops the predicate. The result type is unchanged (rel of the
    // same tuple type), so type-level verification passes — only
    // executing the plan on data can expose it.
    let app = |op: &str, args: Vec<Expr>| Expr::Apply {
        op: Symbol::new(op),
        args,
    };
    let bad = Rule {
        name: "select-drop-pred".into(),
        lhs: TermPattern::apply(
            "select",
            vec![
                TermPattern::ObjectVar(Symbol::new("rel1")),
                TermPattern::var("pred"),
            ],
        ),
        conditions: vec![Condition::catalog_link("rep", "rel1", "rep1")],
        rhs: app(
            "consume",
            vec![app("feed", vec![Expr::Name(Symbol::new("rep1"))])],
        ),
    };
    let opt = Optimizer::new(vec![RuleStep::exhaustive("bad", vec![bad])]);
    let report = fuzz_optimizer(&opt, &FuzzConfig::default()).unwrap();
    assert!(!report.ok(), "the dropped predicate must change a result");
    let m = &report.mismatches[0];
    assert_eq!(m.rule, "select-drop-pred");
    assert!(
        m.actual.len() > m.expected.len(),
        "dropping a filter can only grow the bag: {} -> {}",
        m.expected.len(),
        m.actual.len()
    );
}
