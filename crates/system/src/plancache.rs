//! A plan cache in front of the rewriter, keyed by normalized query
//! shape.
//!
//! Two queries share a cache entry when their *checked* terms are
//! identical after (a) canonicalizing lambda-bound variable names
//! (alpha-renaming to `%p0`, `%p1`, …) and (b) stripping data literals
//! (`int`, `real`, `string` constants — identifier and boolean constants
//! are part of the shape). A miss optimizes the term with every stripped
//! literal replaced by a distinctive *sentinel* constant of the same
//! type and caches the optimized plan as a template; both a miss and a
//! later hit then re-bind the template's sentinels to the query's actual
//! literals and execute that.
//!
//! Soundness: rule *firing* never depends on literal values — every
//! rule condition is value-independent (enforced by the rule
//! verification suite), so the sentinel term takes exactly the rewrites
//! any same-shaped term takes. The cost model is told the sentinels are
//! unknown (`OptimizeOpts::unknown_consts`), so a cached plan is a
//! *generic* plan: selectivity defaults instead of histogram lookups.
//! Re-binding can therefore be suboptimal for an outlier literal, never
//! incorrect — all candidates a rule offers are semantically equivalent.

use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{Const, Symbol};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Cached plans kept before the oldest entry is evicted.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

/// One cached plan: the optimized sentinel template, the sentinel
/// constants to re-bind (position i ↔ the i-th stripped literal), and
/// every object the source term or the plan references (the eviction
/// footprint).
#[derive(Clone)]
pub struct CachedPlan {
    pub template: TypedExpr,
    pub sentinels: Vec<Const>,
    pub objects: Vec<Symbol>,
}

/// The cache proper, with its observability counters.
#[derive(Default)]
pub struct PlanCache {
    entries: HashMap<String, CachedPlan>,
    /// Insertion order, oldest first (capacity eviction).
    order: Vec<String>,
    pub hits: u64,
    pub misses: u64,
    /// Entries evicted by DDL, re-partitioning, bulk loads, or
    /// `analyze` (capacity evictions are not counted here).
    pub invalidations: u64,
}

impl PlanCache {
    /// Look a key up, counting the hit or miss.
    pub fn lookup(&mut self, key: &str) -> Option<&CachedPlan> {
        if self.entries.contains_key(key) {
            self.hits += 1;
            self.entries.get(key)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert a plan, evicting the oldest entry at capacity.
    pub fn insert(&mut self, key: String, plan: CachedPlan) {
        while self.entries.len() >= PLAN_CACHE_CAPACITY && !self.order.is_empty() {
            let oldest = self.order.remove(0);
            self.entries.remove(&oldest);
        }
        if self.entries.insert(key.clone(), plan).is_none() {
            self.order.push(key);
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry whose footprint contains `name` (DDL on one
    /// object, a re-partition, a bulk load, or fresh statistics).
    pub fn invalidate_object(&mut self, name: &Symbol) -> usize {
        let stale: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, p)| p.objects.contains(name))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &stale {
            self.entries.remove(k);
            self.order.retain(|o| o != k);
        }
        self.invalidations += stale.len() as u64;
        stale.len()
    }

    /// Drop everything (object creation, catalog-relation updates, rule
    /// set changes — anything that can enable new rewrites anywhere).
    pub fn invalidate_all(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.order.clear();
        self.invalidations += n as u64;
        n
    }

    /// Reset the counters (the entries stay).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.invalidations = 0;
    }
}

/// A term's normal form: the cache key and the stripped literals in
/// traversal order. The sentinel side ([`generalize`]) is built only on
/// a cache miss — hits never need it.
pub struct Normalized {
    pub key: String,
    pub literals: Vec<Const>,
}

/// Normalize a checked term. Total: every typed term has a normal form.
pub fn normalize(term: &TypedExpr) -> Normalized {
    let mut literals = Vec::new();
    let mut key = String::new();
    write_key(term, &mut key, &mut Vec::new(), &mut 0, &mut literals);
    let _ = write!(key, " :: {}", term.ty);
    Normalized { key, literals }
}

/// The generic side of a normal form: the sentinel constants (position i
/// ↔ the i-th stripped literal) and the term with sentinels in place of
/// the literals — what a cache miss optimizes and caches.
pub fn generalize(term: &TypedExpr, literals: &[Const]) -> (Vec<Const>, TypedExpr) {
    let sentinels: Vec<Const> = literals
        .iter()
        .enumerate()
        .map(|(i, c)| sentinel_for(i, c))
        .collect();
    // The i-th stripped literal (in `write_key`'s order) becomes the
    // i-th sentinel.
    let mut next = 0;
    let sentinel_term = map_consts(term, &mut |c| {
        if !is_literal(c) {
            return c.clone();
        }
        next += 1;
        sentinels[next - 1].clone()
    });
    (sentinels, sentinel_term)
}

/// Whether a constant is a strippable data literal.
fn is_literal(c: &Const) -> bool {
    matches!(c, Const::Int(_) | Const::Real(_) | Const::Str(_))
}

/// The sentinel constant for the i-th stripped literal: same type,
/// a value no plausible query or rewrite template contains.
fn sentinel_for(i: usize, c: &Const) -> Const {
    match c {
        Const::Int(_) => Const::Int(i64::MIN + 0x5EED + i as i64),
        Const::Real(_) => Const::Real(-8.75e307 - i as f64),
        Const::Str(_) => Const::Str(format!("\u{1}?p{i}")),
        other => other.clone(),
    }
}

/// Re-bind a cached template's sentinels to actual literals. Any
/// constant equal to the i-th sentinel — however often the rewrite
/// duplicated it — becomes the i-th literal.
pub fn rebind(template: &TypedExpr, sentinels: &[Const], literals: &[Const]) -> TypedExpr {
    map_consts(
        template,
        &mut |c| match sentinels.iter().position(|s| s == c) {
            Some(i) => literals[i].clone(),
            None => c.clone(),
        },
    )
}

/// Rebuild a term with every constant replaced by `f` of it, visiting
/// constants in [`write_key`]'s traversal order.
fn map_consts(term: &TypedExpr, f: &mut impl FnMut(&Const) -> Const) -> TypedExpr {
    let all = |items: &[TypedExpr], f: &mut _| items.iter().map(|a| map_consts(a, f)).collect();
    let node = match &term.node {
        TypedNode::Const(c) => TypedNode::Const(f(c)),
        TypedNode::Object(n) => TypedNode::Object(n.clone()),
        TypedNode::Var(v) => TypedNode::Var(v.clone()),
        TypedNode::Apply { op, spec, args } => TypedNode::Apply {
            op: op.clone(),
            spec: *spec,
            args: all(args, f),
        },
        TypedNode::Field {
            attr,
            spec,
            idx,
            arg,
        } => TypedNode::Field {
            attr: attr.clone(),
            spec: *spec,
            idx: *idx,
            arg: Box::new(map_consts(arg, f)),
        },
        TypedNode::ApplyFun { fun, args } => TypedNode::ApplyFun {
            fun: Box::new(map_consts(fun, f)),
            args: all(args, f),
        },
        TypedNode::Lambda { params, body } => TypedNode::Lambda {
            params: params.clone(),
            body: Arc::new(map_consts(body, f)),
        },
        TypedNode::List(items) => TypedNode::List(all(items, f)),
        TypedNode::Tuple(items) => TypedNode::Tuple(all(items, f)),
    };
    TypedExpr::new(node, term.ty.clone())
}

/// Every database object a term mentions (the eviction footprint).
pub fn referenced_objects(term: &TypedExpr, into: &mut Vec<Symbol>) {
    term.visit(&mut |n| {
        if let TypedNode::Object(name) = &n.node {
            if !into.contains(name) {
                into.push(name.clone());
            }
        }
    });
}

/// Write the shape key: operator applications (attribute accesses
/// included) verbatim as op + spec index, objects by name, lambda binders alpha-renamed to `%pN` in
/// binding order, data literals as `?int` / `?real` / `?str`
/// placeholders (collected into `literals`), identifier and boolean
/// constants verbatim.
fn write_key(
    term: &TypedExpr,
    out: &mut String,
    scopes: &mut Vec<(Symbol, String)>,
    binders: &mut usize,
    literals: &mut Vec<Const>,
) {
    match &term.node {
        TypedNode::Const(c) if is_literal(c) => {
            out.push_str(match c {
                Const::Int(_) => "?int",
                Const::Real(_) => "?real",
                _ => "?str",
            });
            literals.push(c.clone());
        }
        TypedNode::Const(c) => {
            let _ = write!(out, "{c}");
        }
        TypedNode::Object(n) => {
            let _ = write!(out, "obj:{n}");
        }
        TypedNode::Var(v) => {
            match scopes.iter().rev().find(|(orig, _)| orig == v) {
                Some((_, canon)) => out.push_str(canon),
                // Unbound variables cannot occur in a checked term; keep
                // the name so the key stays total anyway.
                None => {
                    let _ = write!(out, "{v}");
                }
            }
        }
        TypedNode::Apply { .. } | TypedNode::Field { .. } => {
            let (op, spec, args) = term.as_apply().expect("an application");
            let _ = write!(out, "{op}#{spec}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_key(a, out, scopes, binders, literals);
            }
            out.push(')');
        }
        TypedNode::ApplyFun { fun, args } => {
            out.push_str("%call(");
            write_key(fun, out, scopes, binders, literals);
            for a in args {
                out.push(',');
                write_key(a, out, scopes, binders, literals);
            }
            out.push(')');
        }
        TypedNode::Lambda { params, body } => {
            out.push_str("fun(");
            let depth = scopes.len();
            for (i, (name, ty)) in params.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let canon = format!("%p{}", *binders);
                *binders += 1;
                let _ = write!(out, "{canon}:{ty}");
                scopes.push((name.clone(), canon));
            }
            out.push(')');
            write_key(body, out, scopes, binders, literals);
            scopes.truncate(depth);
        }
        TypedNode::List(items) => {
            out.push('<');
            for (i, a) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_key(a, out, scopes, binders, literals);
            }
            out.push('>');
        }
        TypedNode::Tuple(items) => {
            out.push('(');
            for (i, a) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_key(a, out, scopes, binders, literals);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::DataType;

    fn int_const(v: i64) -> TypedExpr {
        TypedExpr::new(TypedNode::Const(Const::Int(v)), DataType::atom("int"))
    }

    fn apply(op: &str, args: Vec<TypedExpr>, ty: DataType) -> TypedExpr {
        TypedExpr::new(
            TypedNode::Apply {
                op: Symbol::new(op),
                spec: 0,
                args,
            },
            ty,
        )
    }

    #[test]
    fn same_shape_same_key_different_literals() {
        let a = apply(
            ">",
            vec![int_const(7), int_const(3)],
            DataType::atom("bool"),
        );
        let b = apply(
            ">",
            vec![int_const(100), int_const(-2)],
            DataType::atom("bool"),
        );
        let na = normalize(&a);
        let nb = normalize(&b);
        assert_eq!(na.key, nb.key);
        assert_eq!(na.literals, vec![Const::Int(7), Const::Int(3)]);
        assert_eq!(nb.literals, vec![Const::Int(100), Const::Int(-2)]);
        // Different shape (extra node) keys differently.
        let c = apply(">", vec![int_const(7)], DataType::atom("bool"));
        assert_ne!(normalize(&c).key, na.key);
    }

    #[test]
    fn alpha_renamed_lambdas_share_a_key() {
        let lam = |p: &str| {
            TypedExpr::new(
                TypedNode::Lambda {
                    params: [(Symbol::new(p), DataType::atom("int"))].into(),
                    body: Arc::new(TypedExpr::new(
                        TypedNode::Var(Symbol::new(p)),
                        DataType::atom("int"),
                    )),
                },
                DataType::Fun(vec![DataType::atom("int")], Box::new(DataType::atom("int"))),
            )
        };
        assert_eq!(normalize(&lam("x")).key, normalize(&lam("y")).key);
    }

    #[test]
    fn rebind_round_trips_sentinels() {
        let term = apply("+", vec![int_const(7), int_const(7)], DataType::atom("int"));
        let n = normalize(&term);
        let (sentinels, sentinel_term) = generalize(&term, &n.literals);
        // Both 7s strip independently and re-bind independently.
        assert_eq!(sentinels.len(), 2);
        assert_ne!(sentinels[0], sentinels[1]);
        let rebound = rebind(&sentinel_term, &sentinels, &n.literals);
        assert!(rebound == term);
    }

    #[test]
    fn cache_counts_and_evicts_by_object() {
        let mut cache = PlanCache::default();
        assert!(cache.lookup("k1").is_none());
        cache.insert(
            "k1".into(),
            CachedPlan {
                template: int_const(1),
                sentinels: vec![],
                objects: vec![Symbol::new("cities")],
            },
        );
        assert!(cache.lookup("k1").is_some());
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(cache.invalidate_object(&Symbol::new("rivers")), 0);
        assert_eq!(cache.invalidate_object(&Symbol::new("cities")), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations, 1);
    }
}
