//! A cardinality estimator over typed terms, fed by catalog statistics.
//!
//! The estimator walks a (typed) plan bottom-up and produces, per node,
//! an estimated output cardinality. `EXPLAIN ANALYZE` renders the
//! per-operator estimates next to the measured rows.
//!
//! Estimates are deliberately coarse: equi-width histograms on B-tree
//! key attributes (and rect center-x for `lsdtree`) give selectivities
//! for comparisons against known literals; everything else falls back to
//! the classic System-R default fractions.

use sos_catalog::{Catalog, ObjectStats};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{Const, DataType, Symbol, TypeArg};

/// Default row count assumed for objects without statistics.
const DEFAULT_ROWS: f64 = 1000.0;
/// Default selectivity of an equality predicate.
const SEL_EQ: f64 = 0.1;
/// Default selectivity of a range predicate.
const SEL_RANGE: f64 = 1.0 / 3.0;
/// Default selectivity of an unknown predicate.
const SEL_OTHER: f64 = 0.5;
/// Default fraction of an lsdtree touched by a spatial probe.
const SEL_SPATIAL: f64 = 0.1;

/// The cardinality estimator over a catalog's statistics.
pub struct CostModel<'a> {
    catalog: &'a Catalog,
}

/// Internal per-node result: the estimated rows plus the storage object
/// the stream (if any) originates from, so filters above a `feed` can
/// consult that object's histogram.
#[derive(Debug, Clone)]
struct Flow {
    rows: f64,
    /// The storage object whose tuples flow through this node.
    source: Option<Symbol>,
}

/// A key comparison `key cmp v` that a B-tree probe below a filter has
/// already applied to every row it yields.
#[derive(Debug, Clone, Copy)]
struct Probe<'s> {
    cmp: &'s str,
    v: f64,
}

impl<'a> CostModel<'a> {
    pub fn new(catalog: &'a Catalog) -> CostModel<'a> {
        CostModel { catalog }
    }

    /// Estimated output cardinality of a term.
    pub fn cardinality(&self, term: &TypedExpr) -> f64 {
        self.flow(term).rows
    }

    /// Per-operator estimated cardinalities in visit (top-down) order:
    /// `(operator, estimated rows)` for every plan-level `Apply` node.
    /// `EXPLAIN ANALYZE` joins these with the measured `ExecStats` rows.
    /// Lambda bodies are entered only when they produce a collection (a
    /// `search_join`'s inner stream function) — scalar predicate code is
    /// per-tuple arithmetic, not a plan operator.
    pub fn op_estimates(&self, term: &TypedExpr) -> Vec<(Symbol, f64)> {
        let mut out = Vec::new();
        self.collect_estimates(term, &mut out);
        out
    }

    fn collect_estimates(&self, t: &TypedExpr, out: &mut Vec<(Symbol, f64)>) {
        if let Some((op, _, args)) = t.as_apply() {
            out.push((op.clone(), self.flow(t).rows));
            for a in args {
                self.collect_estimates(a, out);
            }
            return;
        }
        match &t.node {
            TypedNode::Lambda { body, .. } => {
                if matches!(&body.ty, DataType::Cons(c, args) if !args.is_empty() && c.as_str() != "tuple")
                {
                    self.collect_estimates(body, out);
                }
            }
            TypedNode::List(items) | TypedNode::Tuple(items) => {
                for i in items {
                    self.collect_estimates(i, out);
                }
            }
            TypedNode::ApplyFun { fun, args } => {
                self.collect_estimates(fun, out);
                for a in args {
                    self.collect_estimates(a, out);
                }
            }
            _ => {}
        }
    }

    fn stats_of(&self, name: &Symbol) -> Option<&ObjectStats> {
        self.catalog.stats(name)
    }

    fn object_flow(&self, name: &Symbol) -> Flow {
        Flow {
            rows: self.stats_of(name).map_or(DEFAULT_ROWS, |s| s.rows as f64),
            source: Some(name.clone()),
        }
    }

    fn numeric(&self, t: &TypedExpr) -> Option<f64> {
        match &t.node {
            TypedNode::Const(Const::Int(v)) => Some(*v as f64),
            TypedNode::Const(Const::Real(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram selectivity of comparing the key attribute of `source`
    /// with a known literal; `None` when `source` has no key histogram.
    fn key_fraction(&self, source: Option<&Symbol>, cmp: &str, v: f64) -> Option<f64> {
        let h = self.stats_of(source?)?.key_histogram.as_ref()?;
        Some(match cmp {
            "=" => h.fraction_eq(v),
            "<=" => h.fraction_le(v),
            ">=" => h.fraction_ge(v),
            "<" => (h.fraction_le(v) - h.fraction_eq(v)).max(0.0),
            ">" => (h.fraction_ge(v) - h.fraction_eq(v)).max(0.0),
            _ => return None,
        })
    }

    /// Selectivity of `attr cmp v` over the rows of `source`, or over the
    /// rows a `probe` on the same key already qualified (the probe's own
    /// fraction divided out); `None` when no key histogram applies.
    fn histogram_fraction(
        &self,
        source: Option<&Symbol>,
        attr: &Symbol,
        cmp: &str,
        v: f64,
        probe: Option<Probe>,
    ) -> Option<f64> {
        if self.stats_of(source?)?.key_attr.as_ref() != Some(attr) {
            return None;
        }
        let fc = self.key_fraction(source, cmp, v)?;
        let Some(p) = probe else {
            return Some(fc);
        };
        let Some(fp) = self.key_fraction(source, p.cmp, p.v) else {
            return Some(fc);
        };
        // The fraction of the whole object satisfying both comparisons.
        let joint = if p.cmp == "=" {
            if holds(cmp, p.v, v) {
                fp
            } else {
                0.0
            }
        } else if cmp == "=" {
            if holds(p.cmp, v, p.v) {
                fc
            } else {
                0.0
            }
        } else if lower_bound(cmp) == lower_bound(p.cmp) {
            // Two bounds on the same side nest: the tighter one holds.
            fc.min(fp)
        } else {
            // Opposite sides overlap in what neither excludes.
            (fc + fp - 1.0).max(0.0)
        };
        Some(if fp > 0.0 { joint / fp } else { 0.0 })
    }

    /// Selectivity of a boolean predicate body over tuples of `source`.
    /// `param` is the lambda's tuple parameter; `probe` is the key
    /// comparison the input already applied.
    fn predicate_selectivity(
        &self,
        body: &TypedExpr,
        param: Option<&Symbol>,
        source: Option<&Symbol>,
        probe: Option<Probe>,
    ) -> f64 {
        if let Some((op, _, args)) = body.as_apply() {
            match op.as_str() {
                "and" if args.len() == 2 => {
                    return self.predicate_selectivity(&args[0], param, source, probe)
                        * self.predicate_selectivity(&args[1], param, source, probe);
                }
                "or" if args.len() == 2 => {
                    let a = self.predicate_selectivity(&args[0], param, source, probe);
                    let b = self.predicate_selectivity(&args[1], param, source, probe);
                    return (a + b - a * b).clamp(0.0, 1.0);
                }
                "not" if args.len() == 1 => {
                    return (1.0 - self.predicate_selectivity(&args[0], param, source, probe))
                        .clamp(0.0, 1.0);
                }
                "=" | "<=" | ">=" | "<" | ">" if args.len() == 2 => {
                    // `a(t) cmp const` (either side) with a histogram on a.
                    for (lhs, rhs, cmp) in [
                        (&args[0], &args[1], op.as_str()),
                        (&args[1], &args[0], flipped(op.as_str())),
                    ] {
                        let (Some(attr), Some(v)) =
                            (attr_projection(lhs, param), self.numeric(rhs))
                        else {
                            continue;
                        };
                        if let Some(fr) = self.histogram_fraction(source, &attr, cmp, v, probe) {
                            return fr.clamp(0.0, 1.0);
                        }
                    }
                    return if op.as_str() == "=" {
                        SEL_EQ
                    } else {
                        SEL_RANGE
                    };
                }
                _ => {}
            }
        }
        SEL_OTHER
    }

    /// The key comparison a one-sided B-tree probe applies, when `t` is
    /// one with a literal key.
    fn probe_of<'t>(&self, t: &'t TypedExpr) -> Option<Probe<'t>> {
        let (op, _, [_, key]) = t.as_apply()? else {
            return None;
        };
        let cmp = match op.as_str() {
            "exactmatch" => "=",
            "range_from" => ">=",
            "range_to" => "<=",
            _ => return None,
        };
        Some(Probe {
            cmp,
            v: self.numeric(key)?,
        })
    }

    fn flow(&self, term: &TypedExpr) -> Flow {
        if let Some((op, _, args)) = term.as_apply() {
            return self.apply_flow(op, args);
        }
        match &term.node {
            TypedNode::Object(name) => self.object_flow(name),
            TypedNode::Const(_) | TypedNode::Var(_) | TypedNode::List(_) | TypedNode::Tuple(_) => {
                Flow {
                    rows: 1.0,
                    source: None,
                }
            }
            TypedNode::Lambda { body, .. } => self.flow(body),
            // A view/lambda call: the body's estimate.
            TypedNode::ApplyFun { fun, .. } => self.flow(fun),
            TypedNode::Apply { .. } | TypedNode::Field { .. } => unreachable!("returned above"),
        }
    }

    fn apply_flow(&self, op: &Symbol, args: &[TypedExpr]) -> Flow {
        match (op.as_str(), args) {
            // Stream sources.
            ("feed", [rel]) => self.flow(rel),
            // Filter / select keep the source, scale rows by predicate
            // selectivity — given the key comparison a probe input
            // already applied.
            ("filter" | "select", [input, pred]) => {
                let inf = self.flow(input);
                let (param, body) = lambda_parts(pred);
                let sel = self.predicate_selectivity(
                    body.unwrap_or(pred),
                    param,
                    inf.source.as_ref(),
                    self.probe_of(input),
                );
                Flow {
                    rows: (inf.rows * sel).max(0.0),
                    source: inf.source,
                }
            }
            // B-tree probes: the qualifying fraction of the tree.
            ("exactmatch", [tree, key]) => self.btree_probe(tree, "=", self.numeric(key)),
            ("range_from", [tree, key]) => self.btree_probe(tree, ">=", self.numeric(key)),
            ("range_to", [tree, key]) => self.btree_probe(tree, "<=", self.numeric(key)),
            ("range", [tree, lo, hi]) => self.btree_range(tree, self.numeric(lo), self.numeric(hi)),
            // Spatial probes.
            ("point_search" | "overlap_search", [tree, _probe]) => {
                let tf = self.flow(tree);
                Flow {
                    rows: (tf.rows * SEL_SPATIAL).max(0.0),
                    source: tf.source,
                }
            }
            // Search join: the inner stream function runs once per outer
            // tuple.
            ("search_join", [outer, inner]) => Flow {
                rows: self.flow(outer).rows * self.flow(inner).rows,
                source: None,
            },
            // Joins: output via the classic containment assumption.
            ("hashjoin" | "join", [left, right, ..]) => Flow {
                rows: join_rows(self.flow(left).rows, self.flow(right).rows),
                source: None,
            },
            ("product", [left, right, ..]) => Flow {
                rows: self.flow(left).rows * self.flow(right).rows,
                source: None,
            },
            // Aggregates collapse to one row.
            ("count" | "sum" | "min" | "max" | "avg", _) => Flow {
                rows: 1.0,
                source: None,
            },
            ("head", [input, n]) => {
                let inf = self.flow(input);
                let rows = match self.numeric(n) {
                    Some(k) => inf.rows.min(k.max(0.0)),
                    None => inf.rows,
                };
                Flow {
                    rows,
                    source: inf.source,
                }
            }
            ("consume" | "project", [input, ..]) => self.flow(input),
            ("union", all) if !all.is_empty() => Flow {
                rows: all.iter().map(|a| self.flow(a).rows).sum(),
                source: None,
            },
            // Unknown operator: keep the widest child cardinality and
            // propagate a single source.
            _ => {
                let mut rows: f64 = 1.0;
                let mut source = None;
                for a in args {
                    let f = self.flow(a);
                    rows = rows.max(f.rows);
                    if source.is_none() {
                        source = f.source;
                    }
                }
                Flow { rows, source }
            }
        }
    }

    /// A one-sided B-tree probe (`exactmatch`, `range_from`, `range_to`).
    /// An equality probe whose key is not a literal uses the unique-key
    /// assumption (≈ one row) — B-tree probes are keyed access, not a
    /// generic predicate.
    fn btree_probe(&self, tree: &TypedExpr, cmp: &str, v: Option<f64>) -> Flow {
        let tf = self.flow(tree);
        let generic = if cmp == "=" {
            1.0 / tf.rows.max(1.0)
        } else {
            SEL_RANGE
        };
        let frac = v
            .and_then(|v| self.key_fraction(tf.source.as_ref(), cmp, v))
            .unwrap_or(generic);
        Flow {
            rows: (tf.rows * frac.clamp(0.0, 1.0)).max(0.0),
            source: tf.source,
        }
    }

    /// A two-sided B-tree `range` probe.
    fn btree_range(&self, tree: &TypedExpr, lo: Option<f64>, hi: Option<f64>) -> Flow {
        let tf = self.flow(tree);
        let frac = match (tf.source.as_ref(), lo, hi) {
            (Some(src), Some(lo), Some(hi)) => self
                .stats_of(src)
                .and_then(|s| Some(s.key_histogram.as_ref()?.fraction_range(lo, hi)))
                .unwrap_or(SEL_RANGE),
            _ => SEL_RANGE,
        };
        Flow {
            rows: (tf.rows * frac.clamp(0.0, 1.0)).max(0.0),
            source: tf.source,
        }
    }
}

/// Join output cardinality under the containment assumption: the join
/// key's distinct count is the larger side's cardinality.
fn join_rows(l: f64, r: f64) -> f64 {
    if l <= 0.0 || r <= 0.0 {
        return 0.0;
    }
    (l * r / l.max(r)).max(1.0)
}

/// Flip a comparison for `const cmp a(t)` written as `a(t) cmp' const`.
fn flipped(cmp: &str) -> &str {
    match cmp {
        "<=" => ">=",
        ">=" => "<=",
        "<" => ">",
        ">" => "<",
        other => other,
    }
}

/// Whether `cmp` bounds its attribute from below (`>`, `>=`).
fn lower_bound(cmp: &str) -> bool {
    matches!(cmp, ">" | ">=")
}

/// Whether `x cmp y` holds.
fn holds(cmp: &str, x: f64, y: f64) -> bool {
    match cmp {
        "=" => x == y,
        "<=" => x <= y,
        ">=" => x >= y,
        "<" => x < y,
        ">" => x > y,
        _ => true,
    }
}

/// Split a lambda into its first parameter name and body.
fn lambda_parts(t: &TypedExpr) -> (Option<&Symbol>, Option<&TypedExpr>) {
    match &t.node {
        TypedNode::Lambda { params, body } => (params.first().map(|(n, _)| n), Some(body)),
        _ => (None, None),
    }
}

/// `a(t)` for lambda parameter `t` → `Some(a)`.
fn attr_projection(e: &TypedExpr, param: Option<&Symbol>) -> Option<Symbol> {
    let (op, _, [arg]) = e.as_apply()? else {
        return None;
    };
    match (&arg.node, param) {
        (TypedNode::Var(v), Some(p)) if v == p => Some(op.clone()),
        (TypedNode::Var(_), None) => Some(op.clone()),
        _ => None,
    }
}

/// Extract the B-tree key attribute named in a `btree(tuple, attr, dt)`
/// object type — used by `analyze` to know which attribute to histogram.
pub fn btree_key_attr(ty: &DataType) -> Option<Symbol> {
    let DataType::Cons(cons, args) = ty else {
        return None;
    };
    if cons.as_str() != "btree" || args.len() != 3 {
        return None;
    }
    match &args[1] {
        TypeArg::Expr(sos_core::Expr::Const(Const::Ident(a))) => Some(a.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_catalog::{Histogram, ObjectStats};
    use sos_core::sym;

    fn obj(name: &str, ty: DataType) -> TypedExpr {
        TypedExpr::new(TypedNode::Object(sym(name)), ty)
    }

    fn rel_ty() -> DataType {
        DataType::rel(DataType::tuple(vec![(sym("k"), DataType::atom("int"))]))
    }

    fn catalog_with_stats(rows: u64, skew_low: bool) -> Catalog {
        let mut cat = Catalog::new();
        let values: Vec<f64> = if skew_low {
            (0..rows)
                .map(|i| if i % 10 == 0 { i as f64 } else { 1.0 })
                .collect()
        } else {
            (0..rows).map(|i| i as f64).collect()
        };
        cat.set_stats(
            sym("items_btree"),
            ObjectStats {
                rows,
                pages: (rows / 64).max(1),
                key_attr: Some(sym("k")),
                key_histogram: Histogram::build(&values, 32),
                ..ObjectStats::default()
            },
        );
        cat
    }

    #[test]
    fn object_estimates_use_stats_and_defaults() {
        let cat = catalog_with_stats(6400, false);
        let m = CostModel::new(&cat);
        assert_eq!(m.cardinality(&obj("items_btree", rel_ty())), 6400.0);
        // No stats → defaults.
        assert_eq!(m.cardinality(&obj("mystery", rel_ty())), DEFAULT_ROWS);
    }

    #[test]
    fn exactmatch_is_cheaper_than_scan() {
        let cat = catalog_with_stats(64000, false);
        let m = CostModel::new(&cat);
        let tree = obj("items_btree", rel_ty());
        let probe = TypedExpr::new(
            TypedNode::Apply {
                op: sym("exactmatch"),
                spec: 0,
                args: vec![
                    tree.clone(),
                    TypedExpr::new(TypedNode::Const(Const::Int(7)), DataType::atom("int")),
                ],
            },
            rel_ty(),
        );
        let scan = TypedExpr::new(
            TypedNode::Apply {
                op: sym("feed"),
                spec: 0,
                args: vec![tree],
            },
            rel_ty(),
        );
        assert!(m.cardinality(&probe) < m.cardinality(&scan) / 10.0);
    }

    #[test]
    fn skewed_eq_probe_estimates_heavy_value_high() {
        // 90% of the keys are the value 1.0: probing it must estimate
        // clearly more rows than the generic unique-key assumption
        // (equi-width buckets cap the resolution well below the true
        // 57600 — detecting heavy hitters exactly would need MCVs).
        let cat = catalog_with_stats(64000, true);
        let tree = obj("items_btree", rel_ty());
        let probe = |c: Const| {
            TypedExpr::new(
                TypedNode::Apply {
                    op: sym("exactmatch"),
                    spec: 0,
                    args: vec![
                        tree.clone(),
                        TypedExpr::new(TypedNode::Const(c), DataType::atom("int")),
                    ],
                },
                rel_ty(),
            )
        };
        let m = CostModel::new(&cat);
        let heavy = m.cardinality(&probe(Const::Int(1)));
        assert!(heavy > 10.0, "heavy value estimate {heavy}");
    }

    #[test]
    fn search_join_scales_with_outer_cardinality() {
        let cat = Catalog::new();
        let m = CostModel::new(&cat);
        let mk = |outer_rows: u64| {
            let mut cat = Catalog::new();
            cat.set_stats(
                sym("outer"),
                ObjectStats {
                    rows: outer_rows,
                    pages: (outer_rows / 64).max(1),
                    ..ObjectStats::default()
                },
            );
            cat
        };
        let term = |_: &CostModel| {
            TypedExpr::new(
                TypedNode::Apply {
                    op: sym("search_join"),
                    spec: 0,
                    args: vec![
                        TypedExpr::new(
                            TypedNode::Apply {
                                op: sym("feed"),
                                spec: 0,
                                args: vec![obj("outer", rel_ty())],
                            },
                            rel_ty(),
                        ),
                        TypedExpr::new(
                            TypedNode::Apply {
                                op: sym("exactmatch"),
                                spec: 0,
                                args: vec![
                                    obj("inner_btree", rel_ty()),
                                    TypedExpr::new(
                                        TypedNode::Const(Const::Int(1)),
                                        DataType::atom("int"),
                                    ),
                                ],
                            },
                            rel_ty(),
                        ),
                    ],
                },
                rel_ty(),
            )
        };
        let small_cat = mk(10);
        let big_cat = mk(100_000);
        let small = CostModel::new(&small_cat).cardinality(&term(&m));
        let big = CostModel::new(&big_cat).cardinality(&term(&m));
        assert!(big > small * 100.0, "big={big} small={small}");
    }

    #[test]
    fn op_estimates_cover_every_apply() {
        let cat = catalog_with_stats(640, false);
        let m = CostModel::new(&cat);
        let term = TypedExpr::new(
            TypedNode::Apply {
                op: sym("count"),
                spec: 0,
                args: vec![TypedExpr::new(
                    TypedNode::Apply {
                        op: sym("feed"),
                        spec: 0,
                        args: vec![obj("items_btree", rel_ty())],
                    },
                    rel_ty(),
                )],
            },
            DataType::atom("int"),
        );
        let ests = m.op_estimates(&term);
        assert_eq!(ests.len(), 2);
        assert_eq!(ests[0].0, sym("count"));
        assert_eq!(ests[0].1, 1.0);
        assert_eq!(ests[1].0, sym("feed"));
        assert_eq!(ests[1].1, 640.0);
    }
}
