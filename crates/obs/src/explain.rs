//! Structured `EXPLAIN` / `EXPLAIN ANALYZE`.
//!
//! `Database::explain*` used to return a flat `String` of the optimized
//! term. An [`Explain`] keeps the whole pipeline story: per-phase wall
//! time, the ordered rewrite trace ([`RuleApplication`] per applied
//! rule), the final plan (both as a term and as an indented tree), and
//! — for `explain_analyze` — the actual per-operator tuple/page counts
//! of the run. It renders via `Display` and serializes to JSON.

use crate::json::{array, Obj};
use crate::metrics::{
    compile_json, compile_line, exec_json, exec_line, op_json, op_line, pool_json, wal_json,
    wal_line,
};
use crate::trace::{fmt_nanos, Phase};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_exec::{CompileStats, OpStats};
use sos_optimizer::RuleApplication;
use sos_storage::{PoolStats, WalStats};

/// What kind of statement was explained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainKind {
    Query,
    /// A translated update targets this (possibly representation-level)
    /// object — the paper's Section 6 trace.
    Update {
        target: String,
    },
}

/// Runtime section of `explain_analyze`: what actually happened when
/// the plan ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainAnalysis {
    /// Per-operator rows attributable to this run (reusing
    /// [`sos_exec::OpStats`]), sorted by operator name.
    pub ops: Vec<(String, OpStats)>,
    /// Buffer-pool traffic attributable to this run.
    pub pool: PoolStats,
    /// WAL traffic attributable to this run (zero for queries and for
    /// non-durable databases: only committed updates write the log).
    pub wal: WalStats,
    /// Expression-compiler events attributable to this run: lambdas
    /// lowered to bytecode.
    pub compile: CompileStats,
    /// Stored records this run decoded into tuples.
    pub rows_decoded: u64,
    /// A short summary of the produced value (kind and cardinality).
    pub result: String,
}

/// The structured result of `Database::explain` / `explain_update` /
/// `explain_analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// The source text that was explained.
    pub source: String,
    pub kind: ExplainKind,
    /// `(phase, nanoseconds)` in pipeline order for the phases that ran.
    pub phases: Vec<(Phase, u64)>,
    /// Every applied rewrite, in application order.
    pub rewrites: Vec<RuleApplication>,
    /// The final plan as a term (identical to the pre-redesign
    /// `explain()` string).
    pub plan: String,
    /// The final plan as an indented operator tree.
    pub plan_tree: String,
    /// Statement-cache outcome, looked up without counting or filling
    /// the cache: `Some(true)` when the cache holds the statement's shape
    /// (the plan is the cached template rebound to this statement's
    /// literals, and `rewrites` is empty), `Some(false)` when it does not
    /// (the plan is a fresh optimize of this statement's own literals),
    /// `None` when the cache is not consulted (optimizer off).
    pub plan_cache: Option<bool>,
    /// Present only for `explain_analyze`.
    pub analysis: Option<ExplainAnalysis>,
}

impl Explain {
    /// The final plan term — what `explain()` returned before the
    /// structured redesign.
    pub fn plan(&self) -> &str {
        &self.plan
    }

    /// The applied rule names, in application order.
    pub fn applied_rules(&self) -> Vec<&str> {
        self.rewrites.iter().map(|r| r.rule.as_str()).collect()
    }

    /// The one-line statement form: `update <target> := <plan>` for
    /// updates (the Section 6 trace line), the plan term for queries.
    pub fn statement(&self) -> String {
        match &self.kind {
            ExplainKind::Query => self.plan.clone(),
            ExplainKind::Update { target } => format!("update {target} := {}", self.plan),
        }
    }

    /// Render the report. Golden-file tests pass `with_timings: false`
    /// to drop the wall-clock line (the only nondeterministic part).
    pub fn render(&self, with_timings: bool) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let what = match &self.kind {
            ExplainKind::Query => "query",
            ExplainKind::Update { .. } => "update",
        };
        let _ = writeln!(out, "explain {what}: {}", self.source);
        if self.rewrites.is_empty() {
            let _ = writeln!(out, "rewrites: (none applied)");
        } else {
            let _ = writeln!(out, "rewrites ({} applied):", self.rewrites.len());
            for (i, r) in self.rewrites.iter().enumerate() {
                let _ = writeln!(out, "  {}. [{}] {}", i + 1, r.step, r.rule);
                if !r.conditions.is_empty() {
                    let _ = writeln!(out, "     when   {}", r.conditions.join(", "));
                }
                let _ = writeln!(out, "     before {}", r.before);
                let _ = writeln!(out, "     after  {}", r.after);
                if let Some(v) = &r.validation_failure {
                    let _ = writeln!(out, "     !! plan validation: {v}");
                }
            }
        }
        if let ExplainKind::Update { target } = &self.kind {
            let _ = writeln!(out, "target: {target}");
        }
        let _ = writeln!(out, "plan: {}", self.plan);
        for line in self.plan_tree.lines() {
            let _ = writeln!(out, "  {line}");
        }
        if let Some(hit) = self.plan_cache {
            let _ = writeln!(out, "plan cache: {}", if hit { "hit" } else { "miss" });
        }
        if with_timings && !self.phases.is_empty() {
            let rendered: Vec<String> = self
                .phases
                .iter()
                .map(|(p, n)| format!("{p} {}", fmt_nanos(*n)))
                .collect();
            let _ = writeln!(out, "phases: {}", rendered.join(", "));
        }
        if let Some(a) = &self.analysis {
            let _ = writeln!(out, "analyze:");
            let _ = writeln!(out, "  result: {}", a.result);
            let _ = writeln!(
                out,
                "  pool: {} logical reads ({} hits, {} physical), {} writes",
                a.pool.logical_reads,
                a.pool.cache_hits,
                a.pool.physical_reads,
                a.pool.physical_writes
            );
            for (name, s) in &a.ops {
                let _ = writeln!(out, "  op {name}: {}", op_line(s));
            }
            if !a.wal.is_empty() {
                let _ = writeln!(out, "  wal: {}", wal_line(&a.wal));
            }
            if !a.compile.is_empty() {
                let _ = writeln!(out, "  compile: {}", compile_line(&a.compile));
            }
            if a.rows_decoded > 0 {
                let _ = writeln!(out, "  exec: {}", exec_line(a.rows_decoded));
            }
        }
        out
    }

    /// JSON encoding (consumed by the bench harness).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.str("source", &self.source);
        match &self.kind {
            ExplainKind::Query => o.str("kind", "query"),
            ExplainKind::Update { target } => o.str("kind", "update").str("target", target),
        };
        o.raw(
            "phases",
            &array(
                self.phases
                    .iter()
                    .map(|(p, n)| Obj::new().str("phase", p.name()).u64("nanos", *n).finish()),
            ),
        );
        o.raw(
            "rewrites",
            &array(self.rewrites.iter().map(|r| {
                let mut o = Obj::new();
                o.str("step", &r.step).str("rule", &r.rule).raw(
                    "conditions",
                    &array(r.conditions.iter().map(|c| {
                        let mut s = String::new();
                        crate::json::write_json_str(&mut s, c);
                        s
                    })),
                );
                o.str("before", &r.before).str("after", &r.after);
                if let Some(v) = &r.validation_failure {
                    o.str("validation_failure", v);
                }
                o.finish()
            })),
        );
        o.str("plan", &self.plan);
        if let Some(hit) = self.plan_cache {
            o.str("plan_cache", if hit { "hit" } else { "miss" });
        }
        if let Some(a) = &self.analysis {
            let analysis = Obj::new()
                .str("result", &a.result)
                .raw("pool", &pool_json(&a.pool))
                .raw("wal", &wal_json(&a.wal))
                .raw("compile", &compile_json(&a.compile))
                .raw("exec", &exec_json(a.rows_decoded))
                .raw("ops", &array(a.ops.iter().map(|(n, s)| op_json(n, s))))
                .finish();
            o.raw("analysis", &analysis);
        }
        o.finish()
    }
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render(true))
    }
}

/// Render a typed plan term as an indented operator tree. Leaves print
/// on their operator's line; structural nodes (lambdas, lists) indent
/// their bodies.
pub fn plan_tree(t: &TypedExpr) -> String {
    let mut out = String::new();
    tree_node(t, 0, &mut out);
    // Drop the trailing newline so callers control final spacing.
    if out.ends_with('\n') {
        out.pop();
    }
    out
}

fn tree_node(t: &TypedExpr, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    if let Some((op, _, args)) = t.as_apply() {
        // Atomic applications (no operator/lambda children) render
        // inline to keep trees readable.
        if args.iter().all(is_leaf) {
            let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let _ = writeln!(out, "{pad}{op}({})", rendered.join(", "));
        } else {
            let _ = writeln!(out, "{pad}{op}");
            for a in args {
                tree_node(a, depth + 1, out);
            }
        }
        return;
    }
    match &t.node {
        TypedNode::ApplyFun { fun, args } => {
            let _ = writeln!(out, "{pad}apply");
            tree_node(fun, depth + 1, out);
            for a in args {
                tree_node(a, depth + 1, out);
            }
        }
        TypedNode::Lambda { params, body } => {
            let rendered: Vec<String> = params.iter().map(|(n, ty)| format!("{n}: {ty}")).collect();
            let _ = writeln!(out, "{pad}fun ({})", rendered.join(", "));
            tree_node(body, depth + 1, out);
        }
        TypedNode::List(items) | TypedNode::Tuple(items) => {
            if items.iter().all(is_leaf) {
                let _ = writeln!(out, "{pad}{t}");
            } else {
                let _ = writeln!(
                    out,
                    "{pad}{}",
                    if matches!(&t.node, TypedNode::List(_)) {
                        "list"
                    } else {
                        "tuple"
                    }
                );
                for i in items {
                    tree_node(i, depth + 1, out);
                }
            }
        }
        _ => {
            let _ = writeln!(out, "{pad}{t}");
        }
    }
}

/// A term that renders acceptably inline inside its parent's line.
fn is_leaf(t: &TypedExpr) -> bool {
    matches!(
        &t.node,
        TypedNode::Const(_) | TypedNode::Object(_) | TypedNode::Var(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::{Const, DataType, Symbol};

    fn obj(name: &str) -> TypedExpr {
        TypedExpr::new(TypedNode::Object(Symbol::new(name)), DataType::atom("int"))
    }

    fn apply(op: &str, args: Vec<TypedExpr>) -> TypedExpr {
        TypedExpr::new(
            TypedNode::Apply {
                op: Symbol::new(op),
                spec: 0,
                args,
            },
            DataType::atom("int"),
        )
    }

    #[test]
    fn plan_tree_indents_nested_operators() {
        let plan = apply(
            "consume",
            vec![apply(
                "filter",
                vec![
                    apply("feed", vec![obj("r")]),
                    TypedExpr::new(
                        TypedNode::Lambda {
                            params: [(Symbol::new("t"), DataType::atom("int"))].into(),
                            body: std::sync::Arc::new(TypedExpr::new(
                                TypedNode::Const(Const::Bool(true)),
                                DataType::atom("bool"),
                            )),
                        },
                        DataType::atom("bool"),
                    ),
                ],
            )],
        );
        let tree = plan_tree(&plan);
        assert_eq!(
            tree,
            "consume\n  filter\n    feed(r)\n    fun (t: int)\n      true"
        );
    }

    #[test]
    fn explain_renders_rewrites_in_order_and_serializes() {
        let e = Explain {
            source: "r select[k > 0]".into(),
            kind: ExplainKind::Query,
            phases: vec![(Phase::Parse, 1200), (Phase::Check, 3400)],
            rewrites: vec![RuleApplication {
                step: "generic-translation".into(),
                rule: "select-scan".into(),
                conditions: vec!["rep(rel1, rep1)".into()],
                before: "select(r, p)".into(),
                after: "consume(filter(feed(r_rep), p))".into(),
                validation_failure: None,
            }],
            plan: "consume(filter(feed(r_rep), p))".into(),
            plan_tree: "consume\n  filter".into(),
            plan_cache: None,
            analysis: None,
        };
        let stable = e.render(false);
        assert!(stable.contains("rewrites (1 applied):"));
        assert!(stable.contains("1. [generic-translation] select-scan"));
        assert!(stable.contains("when   rep(rel1, rep1)"));
        assert!(!stable.contains("phases:"));
        let full = e.to_string();
        assert!(full.contains("phases: parse 1.2µs, check 3.4µs"));
        assert_eq!(e.applied_rules(), vec!["select-scan"]);
        assert_eq!(e.statement(), e.plan);
        let json = e.to_json();
        assert!(json.contains(r#""rule":"select-scan""#));
        assert!(json.contains(r#""kind":"query""#));
    }

    #[test]
    fn update_explain_statement_matches_section6_trace() {
        let e = Explain {
            source: "update cities := insert(cities, c)".into(),
            kind: ExplainKind::Update {
                target: "cities_rep".into(),
            },
            phases: Vec::new(),
            rewrites: Vec::new(),
            plan: "insert(cities_rep, c)".into(),
            plan_tree: "insert(cities_rep, c)".into(),
            plan_cache: None,
            analysis: None,
        };
        assert_eq!(e.statement(), "update cities_rep := insert(cities_rep, c)");
        assert!(e.render(false).contains("target: cities_rep"));
        assert!(e.to_json().contains(r#""target":"cities_rep""#));
    }

    #[test]
    fn plan_cache_renders_and_serializes() {
        let mut e = Explain {
            source: "r select[k > 0]".into(),
            kind: ExplainKind::Query,
            phases: Vec::new(),
            rewrites: Vec::new(),
            plan: "consume(filter(feed(r_rep), p))".into(),
            plan_tree: "consume".into(),
            plan_cache: Some(false),
            analysis: Some(ExplainAnalysis {
                ops: vec![(
                    "filter".into(),
                    OpStats {
                        invocations: 1,
                        tuples_in: 1000,
                        tuples_out: 340,
                        ..OpStats::default()
                    },
                )],
                pool: PoolStats::default(),
                wal: WalStats::default(),
                compile: CompileStats::default(),
                rows_decoded: 0,
                result: "rel of 340 tuple(s)".into(),
            }),
        };
        let text = e.render(false);
        assert!(text.contains("plan cache: miss"));
        assert!(text.contains("op filter: "));
        let json = e.to_json();
        assert!(json.contains(r#""plan_cache":"miss""#));

        e.plan_cache = Some(true);
        assert!(e.render(false).contains("plan cache: hit"));
        e.plan_cache = None;
        assert!(!e.render(false).contains("plan cache:"));
    }
}
