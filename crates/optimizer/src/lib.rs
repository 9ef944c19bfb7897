//! Rule-based optimization (Section 5).
//!
//! Optimization rules are rewrite rules on terms of the algebras:
//! a *term pattern* with variables on the left, conditions that consult
//! the catalog and the types of bound subterms (the paper's
//! `rep(rel1, rep1) and rep1: relrep(tuple1)`), and a template on the
//! right. An [`Optimizer`] is a sequence of steps, each with its own rule
//! collection and control strategy — the architecture of the Gral
//! optimizer (\[BeG92\]) the paper builds on.
//!
//! Rewriting works at the level of whole (closed) terms: when a rule
//! matches a subterm, the term is reconstructed in abstract syntax with
//! the instantiated template spliced in and the result is re-checked.
//! Type checking after every rewrite guarantees the optimizer can never
//! produce an ill-typed plan — the central safety property the SOS
//! framework gives an extensible optimizer.

mod condition;
mod pattern;
mod rewrite;
mod ruleparse;
pub mod synth;
mod validate;

pub use condition::Condition;
pub use pattern::{OpPat, TermPattern};
pub use rewrite::{Optimizer, OptimizerStats, Rule, RuleApplication, RuleStep, Strategy};
pub use ruleparse::{parse_rules, parse_rules_with_spans};
pub use validate::types_equivalent;

/// Errors raised during optimization.
#[derive(Debug)]
pub enum OptError {
    /// A rewritten term failed to re-check (a broken rule).
    Recheck {
        rule: String,
        error: sos_core::CheckError,
        term: String,
    },
    /// The rewrite loop failed to terminate within the step's budget.
    NoFixpoint { step: usize, budget: usize },
    /// A rewrite changed the plan's result type (modulo representation,
    /// see [`types_equivalent`]): a broken rule.
    PlanTypeChanged {
        rule: String,
        before: String,
        after: String,
    },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Recheck { rule, error, term } => write!(
                f,
                "rule `{rule}` produced an ill-typed term: {error}\n  term: {term}"
            ),
            OptError::NoFixpoint { step, budget } => write!(
                f,
                "optimization step {step} did not reach a fixpoint within {budget} rewrites"
            ),
            OptError::PlanTypeChanged {
                rule,
                before,
                after,
            } => write!(
                f,
                "rule `{rule}` changed the plan's result type from {before} to {after}"
            ),
        }
    }
}

impl std::error::Error for OptError {}
