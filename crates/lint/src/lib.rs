//! `sos-lint`: static analysis for second-order signatures and
//! optimizer rule sets.
//!
//! The paper treats an SOS specification as a formal object — kinds,
//! type constructors, kind-quantified operator patterns, and
//! optimization rules as typed term rewrites. That makes whole classes
//! of spec bugs statically decidable before anything executes. This
//! crate implements eight analyses (see DESIGN.md §7 and §11):
//!
//! * **L001** — pattern overlap: two alternatives of the same operator
//!   whose argument patterns unify, so dispatch order silently decides.
//! * **L002** — unreachable operators (argument pattern mentions an
//!   undeclared constructor, or quantifies over an uninhabited kind)
//!   and dead type constructors (reachable from no operator signature).
//! * **L003** — unbound/unused type variables in specs, and rule RHS
//!   references the LHS and conditions cannot bind.
//! * **L004** — rewrite-termination heuristic: cycles in the rule
//!   dependency graph not broken by a catalog condition or a strictly
//!   decreasing term measure.
//! * **L005** — condition sanity: conditions referencing variables no
//!   pattern variable binds.
//! * **L006** — rule type-preservation: synthesized well-typed plans
//!   matching the rule's LHS rewrite to an ill-typed term, or to a type
//!   that is not representation-equivalent to the original plan's.
//! * **L007** — unsuppliable conditions: a condition references a
//!   binding whose pattern position (constant, function, ...) can never
//!   produce the kind of value the condition needs, so it never holds.
//!
//! * **L009** — operators without an implementation: a fixed operator
//!   of the signature the engine's operator table does not implement
//!   ([`lint_impls`]; the system runs it in `Database::lint`).
//!
//! Entry points are [`lint_spec`] (over a [`Signature`]) and
//! [`lint_rules`] (over an [`Optimizer`] against a signature).
//! Diagnostics carry a stable code, a severity, a human location, and
//! an optional suggestion; they render both human-readable
//! ([`render_human`]) and as JSON ([`render_json`]) through `sos-obs`'s
//! writer.

use sos_core::Signature;
use sos_core::Symbol;
use sos_optimizer::Optimizer;

mod rules;
mod spec;

/// How bad a finding is. `Error` diagnostics are the ones spec and
/// rule registration (`Database::load_spec`, `Database::add_rule_step`)
/// is rejected on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// What a diagnostic is about, so callers with source maps (the `sos
/// lint` CLI keeps byte offsets per declaration) can attach lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// Operator spec by index into `Signature::specs()`.
    Spec(usize),
    /// Type constructor by name.
    Constructor(Symbol),
    /// Subtype rule by index into `Signature::subtypes()`.
    Subtype(usize),
    /// Optimizer rule by step and rule name.
    Rule { step: String, rule: String },
    /// Whole-signature findings (nothing to point at).
    Global,
}

/// One finding. The code (`L001`..`L009`) and rendered text are stable:
/// golden tests pin them byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: &'static str,
    pub severity: Severity,
    pub anchor: Anchor,
    /// Human-readable place, e.g. "op `count` (spec #12)" or
    /// "rule `index-access/select-btree-=`".
    pub location: String,
    /// 1-based source line, when the caller has a span table.
    pub line: Option<usize>,
    pub message: String,
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub(crate) fn new(
        code: &'static str,
        severity: Severity,
        anchor: Anchor,
        location: String,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            anchor,
            location,
            line: None,
            message,
            suggestion: None,
        }
    }

    pub(crate) fn suggest(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }

    /// JSON encoding via the `sos-obs` writer (deterministic key
    /// order; parses with the vendored `serde_json`).
    pub fn to_json(&self) -> String {
        let mut o = sos_obs::json::Obj::new();
        o.str("code", self.code)
            .str("severity", &self.severity.to_string())
            .str("location", &self.location);
        if let Some(line) = self.line {
            o.u64("line", line as u64);
        }
        o.str("message", &self.message);
        if let Some(s) = &self.suggestion {
            o.str("suggestion", s);
        }
        o.finish()
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, " {}: {}", self.location, self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    help: {s}")?;
        }
        Ok(())
    }
}

/// Lint a signature: analyses L001, L002, and the spec side of L003.
/// Output is sorted (code, then location, then message) so reports are
/// deterministic regardless of hash-map iteration order.
pub fn lint_spec(sig: &Signature) -> Vec<Diagnostic> {
    let mut diags = spec::lint_signature(sig);
    sort(&mut diags);
    diags
}

/// Lint a rule set against the signature its terms are written over:
/// the rule side of L003, plus L004, L005, L006 (type preservation on
/// synthesized witnesses) and L007 (unsuppliable conditions).
pub fn lint_rules(opt: &Optimizer, sig: &Signature) -> Vec<Diagnostic> {
    let mut diags = rules::lint_optimizer(opt, sig);
    sort(&mut diags);
    diags
}

/// L009: fixed operators of the signature that `has_impl` (the
/// engine's operator table) does not implement. Every application of
/// such an operator type-checks and then fails at run time. One warning
/// per operator name, anchored at its first spec.
pub fn lint_impls(sig: &Signature, has_impl: impl Fn(&Symbol) -> bool) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = sig
        .op_names()
        .into_iter()
        .filter(|op| !has_impl(op))
        .map(|op| {
            let idx = sig.candidates(&op)[0];
            Diagnostic::new(
                "L009",
                Severity::Warning,
                Anchor::Spec(idx),
                format!("op `{op}` (spec #{idx})"),
                "operator has no implementation".to_string(),
            )
            .suggest("register one with `Database::add_op_impl`")
        })
        .collect();
    sort(&mut diags);
    diags
}

/// Both passes, concatenated.
pub fn lint_all(sig: &Signature, opt: &Optimizer) -> Vec<Diagnostic> {
    let mut diags = lint_spec(sig);
    diags.extend(lint_rules(opt, sig));
    diags
}

fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.code, &a.location, &a.message).cmp(&(b.code, &b.location, &b.message)));
}

/// Any error-severity findings?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render a report the way `rustc` renders lints: one finding per
/// paragraph, then a summary line.
pub fn render_human(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "no diagnostics\n".to_string();
    }
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
    out
}

/// Render the findings as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    sos_obs::json::array(diags.iter().map(|d| d.to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_renders_human_and_json() {
        let d = Diagnostic::new(
            "L001",
            Severity::Warning,
            Anchor::Spec(3),
            "op `widen`".to_string(),
            "patterns overlap".to_string(),
        )
        .suggest("make the argument sorts disjoint");
        assert_eq!(
            d.to_string(),
            "warning[L001] op `widen`: patterns overlap\n    help: make the argument sorts disjoint"
        );
        assert_eq!(
            d.to_json(),
            r#"{"code":"L001","severity":"warning","location":"op `widen`","message":"patterns overlap","suggestion":"make the argument sorts disjoint"}"#
        );
    }

    #[test]
    fn empty_report_and_summary_line() {
        assert_eq!(render_human(&[]), "no diagnostics\n");
        let d = Diagnostic::new(
            "L005",
            Severity::Error,
            Anchor::Global,
            "rule `s/r`".to_string(),
            "m".to_string(),
        );
        let report = render_human(&[d]);
        assert!(report.ends_with("1 error(s), 0 warning(s)\n"));
        assert_eq!(render_json(&[]), "[]");
    }
}
