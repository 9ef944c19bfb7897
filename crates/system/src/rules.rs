//! The built-in optimizer: translation of model-level queries and
//! updates into representation-level plans (Sections 5 and 6).
//!
//! The rules are written in the textual rule language that user rules
//! use too (`sos_optimizer::parse_rules`), in two files under `rules/`.
//! As in the Gral optimizer \[BeG92\], an early step applies the *index
//! access* rules (specific, profitable), a later step the generic
//! translation rules that are always applicable when a representation
//! exists. Each file is one exhaustive step named after its file stem,
//! the convention `sos lint <file>.rules` uses.

use sos_optimizer::{parse_rules, Optimizer, RuleStep};

/// The built-in optimizer.
pub fn builtin_optimizer() -> Optimizer {
    let step = |name: &str, src: &str| {
        let rules = parse_rules(src)
            .unwrap_or_else(|e| panic!("built-in rules `{name}.rules` must parse: {e}"));
        RuleStep::exhaustive(name, rules)
    };
    Optimizer::new(vec![
        step("index-access", include_str!("rules/index-access.rules")),
        step(
            "generic-translation",
            include_str!("rules/generic-translation.rules"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::builtin_optimizer;
    use crate::builtin::builtin_signature;
    use sos_optimizer::synth::{verify_optimizer, Verdict};

    /// Every builtin rule must fire on at least one synthesized witness
    /// and preserve the plan's (representation-equivalent) type — the
    /// soundness property L006 enforces for user rules.
    #[test]
    fn builtin_rules_fire_and_preserve_types() {
        let sig = builtin_signature();
        let opt = builtin_optimizer();
        let mut failures = Vec::new();
        for r in verify_optimizer(&sig, &opt) {
            match r.verdict {
                Verdict::Preserves { fired } if fired > 0 => {}
                other => failures.push(format!("{}/{}: {:?}", r.step, r.rule, other)),
            }
        }
        assert!(
            failures.is_empty(),
            "builtin rules failed verification:\n{}",
            failures.join("\n")
        );
    }
}
