//! Rule-engine control strategies ([BeG92]): once vs exhaustive,
//! top-down vs bottom-up; budget enforcement; re-check safety (a broken
//! rule cannot smuggle an ill-typed plan through).

use sos_catalog::Catalog;
use sos_core::check::Checker;
use sos_core::pattern::SortPattern;
use sos_core::spec::{
    Level, OpName, OperatorSpec, Quantifier, ResultSpec, SyntaxPattern, TypeConstructorDef,
};
use sos_core::{sym, DataType, Expr, Signature, Symbol};
use sos_optimizer::{Optimizer, Rule, RuleStep, Strategy, TermPattern};
use std::collections::HashMap;

/// A toy signature with unary operators f, g, h over int.
fn sig() -> Signature {
    let mut s = Signature::new();
    s.add_kind("DATA");
    s.add_constructor(TypeConstructorDef::atom("int", "DATA", Level::Hybrid));
    for op in ["f", "g", "h"] {
        s.add_spec(OperatorSpec {
            name: OpName::Fixed(sym(op)),
            quantifiers: vec![Quantifier::kind("d", "DATA")],
            args: vec![SortPattern::var("d")],
            result: ResultSpec::Pattern(SortPattern::var("d")),
            syntax: SyntaxPattern::prefix(),
            is_update: false,
            level: Level::Hybrid,
        });
    }
    s
}

fn f_of_g_of_one() -> Expr {
    Expr::apply("f", vec![Expr::apply("g", vec![Expr::int(1)])])
}

/// f(x) => g(x): rewrites every f.
fn f_to_g() -> Rule {
    Rule {
        name: "f-to-g".into(),
        lhs: TermPattern::apply("f", vec![TermPattern::var("x")]),
        conditions: vec![],
        rhs: Expr::apply("g", vec![Expr::name("x")]),
    }
}

/// g(x) => h(x).
fn g_to_h() -> Rule {
    Rule {
        name: "g-to-h".into(),
        lhs: TermPattern::apply("g", vec![TermPattern::var("x")]),
        conditions: vec![],
        rhs: Expr::apply("h", vec![Expr::name("x")]),
    }
}

fn run(strategy: Strategy, rules: Vec<Rule>, term: &Expr) -> (String, usize) {
    let sig = sig();
    let env: HashMap<Symbol, DataType> = HashMap::new();
    let checker = Checker::new(&sig, &env);
    let catalog = Catalog::new();
    let checked = checker.check_expr(term).unwrap();
    let optimizer = Optimizer::new(vec![RuleStep {
        name: "test".into(),
        rules,
        strategy,
        budget: 50,
    }]);
    let (out, stats, _) = optimizer
        .optimize(&checked, &checker, &catalog, false)
        .unwrap();
    (out.to_string(), stats.rewrites)
}

#[test]
fn once_applies_a_single_rewrite() {
    let (out, n) = run(Strategy::OnceTopDown, vec![f_to_g()], &f_of_g_of_one());
    assert_eq!(out, "g(g(1))");
    assert_eq!(n, 1);
}

#[test]
fn exhaustive_reaches_the_fixpoint() {
    let (out, n) = run(
        Strategy::ExhaustiveTopDown,
        vec![f_to_g(), g_to_h()],
        &f_of_g_of_one(),
    );
    assert_eq!(out, "h(h(1))");
    assert!(n >= 3); // f->g, then two g->h
}

#[test]
fn bottom_up_rewrites_leaves_first() {
    // With once-per-pass semantics the first bottom-up redex is the
    // inner g, not the outer f.
    let sig = sig();
    let env: HashMap<Symbol, DataType> = HashMap::new();
    let checker = Checker::new(&sig, &env);
    let catalog = Catalog::new();
    let checked = checker.check_expr(&f_of_g_of_one()).unwrap();
    // One bottom-up pass with a rule set where both f and g match: count
    // which one fired first by rewriting g to h only.
    let optimizer = Optimizer::new(vec![RuleStep {
        name: "bu".into(),
        rules: vec![g_to_h(), f_to_g()],
        strategy: Strategy::ExhaustiveBottomUp,
        budget: 50,
    }]);
    let (out, _, _) = optimizer
        .optimize(&checked, &checker, &catalog, false)
        .unwrap();
    // Fixpoint is the same; the strategy test is that it terminates and
    // agrees with top-down.
    assert_eq!(out.to_string(), "h(h(1))");
}

#[test]
fn diverging_rule_sets_hit_the_budget() {
    // f(x) => f(f(x)) grows forever: the step must stop with NoFixpoint.
    let diverge = Rule {
        name: "diverge".into(),
        lhs: TermPattern::apply("f", vec![TermPattern::var("x")]),
        conditions: vec![],
        rhs: Expr::apply("f", vec![Expr::apply("f", vec![Expr::name("x")])]),
    };
    let sig = sig();
    let env: HashMap<Symbol, DataType> = HashMap::new();
    let checker = Checker::new(&sig, &env);
    let catalog = Catalog::new();
    let checked = checker.check_expr(&f_of_g_of_one()).unwrap();
    let optimizer = Optimizer::new(vec![RuleStep {
        name: "diverging".into(),
        rules: vec![diverge],
        strategy: Strategy::ExhaustiveTopDown,
        budget: 10,
    }]);
    let err = optimizer
        .optimize(&checked, &checker, &catalog, false)
        .unwrap_err();
    assert!(err.to_string().contains("fixpoint"));
}

#[test]
fn broken_rules_are_caught_by_recheck() {
    // f(x) => bogus_operator(x): the rewritten term cannot type-check,
    // and the optimizer reports the offending rule.
    let broken = Rule {
        name: "broken".into(),
        lhs: TermPattern::apply("f", vec![TermPattern::var("x")]),
        conditions: vec![],
        rhs: Expr::apply("bogus_operator", vec![Expr::name("x")]),
    };
    let sig = sig();
    let env: HashMap<Symbol, DataType> = HashMap::new();
    let checker = Checker::new(&sig, &env);
    let catalog = Catalog::new();
    let checked = checker.check_expr(&f_of_g_of_one()).unwrap();
    let optimizer = Optimizer::new(vec![RuleStep::exhaustive("broken", vec![broken])]);
    let err = optimizer
        .optimize(&checked, &checker, &catalog, false)
        .unwrap_err();
    let shown = err.to_string();
    assert!(shown.contains("broken"), "{shown}");
    assert!(shown.contains("ill-typed"), "{shown}");
}

#[test]
fn steps_apply_in_order() {
    // Step 1 rewrites f->g; step 2 rewrites g->h. Both must run.
    let sig = sig();
    let env: HashMap<Symbol, DataType> = HashMap::new();
    let checker = Checker::new(&sig, &env);
    let catalog = Catalog::new();
    let checked = checker.check_expr(&f_of_g_of_one()).unwrap();
    let optimizer = Optimizer::new(vec![
        RuleStep::exhaustive("first", vec![f_to_g()]),
        RuleStep::exhaustive("second", vec![g_to_h()]),
    ]);
    let (out, _, _) = optimizer
        .optimize(&checked, &checker, &catalog, false)
        .unwrap();
    assert_eq!(out.to_string(), "h(h(1))");
}
