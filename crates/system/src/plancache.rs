//! The statement cache: optimized plans keyed by the parsed statement.
//!
//! A query or update is keyed by its kind, the object an update assigns,
//! and its parsed expression with every data literal (`int`, `real`,
//! `string` constant) replaced by a *sentinel* for its position.
//! Identifier and boolean constants stay in the key. Two statements that
//! differ only in their literals share one entry.
//!
//! A miss checks the statement, checks its sentinel shape, and caches
//! the optimized shape as a template, but only if rebinding the checked
//! shape's sentinels gives exactly the checked statement. A shape whose
//! typing depends on a literal's value therefore never enters the cache.
//! A hit rebinds the template's sentinels to the statement's literals
//! and skips resolution, check and optimize.
//!
//! Soundness: rule *firing* never depends on literal values — every
//! rule condition is value-independent (enforced by the rule
//! verification suite), so the sentinel term takes exactly the rewrites
//! any same-shaped term takes, and no plan choice reads data or
//! literals, so every optimized statement goes through this cache.

use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{Const, Expr, SeqAtom, Symbol};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Cached plans kept before the oldest entry is evicted.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

/// A statement's cache key: structural, so two keys are equal exactly
/// when the statements are equal up to their data literals.
#[derive(Clone, PartialEq)]
pub struct StmtKey {
    /// `None` for a query; the assigned object for an update.
    target: Option<Symbol>,
    /// The parsed expression, each data literal replaced by the sentinel
    /// for its position.
    shape: Expr,
}

// Every data literal in `shape` is a sentinel, and a literal inside a
// lambda parameter's type comes from the parser, which has no NaN; so
// equality is reflexive.
impl Eq for StmtKey {}

impl Hash for StmtKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.target.hash(h);
        hash_expr(&self.shape, h);
    }
}

impl StmtKey {
    /// Key a statement. Returns the key and the data literals it
    /// replaced, in traversal order.
    pub fn new(target: Option<&Symbol>, expr: &Expr) -> (StmtKey, Vec<Const>) {
        let mut literals = Vec::new();
        let shape = strip(expr, &mut literals);
        let key = StmtKey {
            target: target.cloned(),
            shape,
        };
        (key, literals)
    }

    /// The statement with sentinels in place of its literals: what a
    /// miss checks and optimizes.
    pub fn shape(&self) -> &Expr {
        &self.shape
    }
}

/// One cached plan: the optimized sentinel template, the sentinel
/// constants to rebind (position i ↔ the i-th literal), and every object
/// the statement, the plan or the update target names (the eviction
/// footprint).
pub struct CachedPlan {
    pub template: TypedExpr,
    pub sentinels: Vec<Const>,
    pub objects: Vec<Symbol>,
}

/// The cache proper, with its observability counters.
#[derive(Default)]
pub struct PlanCache {
    entries: HashMap<StmtKey, CachedPlan>,
    /// Insertion order, oldest first (capacity eviction).
    order: VecDeque<StmtKey>,
    pub hits: u64,
    pub misses: u64,
    /// Entries evicted by DDL or a spec or rule load (capacity
    /// evictions are not counted here).
    pub invalidations: u64,
}

impl PlanCache {
    /// Look a key up, counting the hit or miss.
    pub fn lookup(&mut self, key: &StmtKey) -> Option<&CachedPlan> {
        let entry = self.entries.get(key);
        if entry.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        entry
    }

    /// Look a key up without counting (EXPLAIN).
    pub fn peek(&self, key: &StmtKey) -> Option<&CachedPlan> {
        self.entries.get(key)
    }

    /// Insert a plan, evicting the oldest entry at capacity.
    pub fn insert(&mut self, key: StmtKey, plan: CachedPlan) {
        while self.entries.len() >= PLAN_CACHE_CAPACITY {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
        }
        if self.entries.insert(key.clone(), plan).is_none() {
            self.order.push_back(key);
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry whose footprint contains `name` (deleting that
    /// object).
    pub fn invalidate_object(&mut self, name: &Symbol) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, p| !p.objects.contains(name));
        let entries = &self.entries;
        self.order.retain(|k| entries.contains_key(k));
        let dropped = before - self.entries.len();
        self.invalidations += dropped as u64;
        dropped
    }

    /// Drop everything (object creation, type definitions, new specs,
    /// catalog-relation updates, rule set changes — anything that can
    /// change what any statement checks or rewrites to).
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

/// Whether a constant is a data literal, replaced in the key.
fn is_literal(c: &Const) -> bool {
    matches!(c, Const::Int(_) | Const::Real(_) | Const::Str(_))
}

/// The first real sentinel; the i-th is the i-th double below it.
const REAL_SENTINEL: f64 = -8.75e307;

/// The sentinel constant for the i-th literal: same type, a value no
/// plausible statement or rewrite template contains, distinct for every
/// position.
fn sentinel_for(i: usize, c: &Const) -> Const {
    match c {
        Const::Int(_) => Const::Int(i64::MIN + 0x5EED + i as i64),
        // Adjacent doubles, not `REAL_SENTINEL - i`: at this magnitude
        // subtracting a small integer rounds back to the same value.
        Const::Real(_) => Const::Real(f64::from_bits(REAL_SENTINEL.to_bits() + i as u64)),
        Const::Str(_) => Const::Str(format!("\u{1}?p{i}")),
        other => other.clone(),
    }
}

/// The sentinels standing for `literals`, position by position.
pub fn sentinels(literals: &[Const]) -> Vec<Const> {
    literals
        .iter()
        .enumerate()
        .map(|(i, c)| sentinel_for(i, c))
        .collect()
}

/// Copy `e` with each data literal replaced by the sentinel for its
/// position, collecting the literals into `literals`.
fn strip(e: &Expr, literals: &mut Vec<Const>) -> Expr {
    fn all(items: &[Expr], literals: &mut Vec<Const>) -> Vec<Expr> {
        items.iter().map(|a| strip(a, literals)).collect()
    }
    match e {
        Expr::Const(c) if is_literal(c) => {
            let sentinel = sentinel_for(literals.len(), c);
            literals.push(c.clone());
            Expr::Const(sentinel)
        }
        Expr::Const(_) | Expr::Name(_) => e.clone(),
        Expr::Apply { op, args } => Expr::Apply {
            op: op.clone(),
            args: all(args, literals),
        },
        Expr::Lambda { params, body } => Expr::Lambda {
            params: params.clone(),
            body: Box::new(strip(body, literals)),
        },
        Expr::List(items) => Expr::List(all(items, literals)),
        Expr::Tuple(items) => Expr::Tuple(all(items, literals)),
        Expr::Seq(atoms) => Expr::Seq(
            atoms
                .iter()
                .map(|a| match a {
                    SeqAtom::Operand(e) => SeqAtom::Operand(strip(e, literals)),
                    SeqAtom::Word {
                        name,
                        brackets,
                        parens,
                    } => SeqAtom::Word {
                        name: name.clone(),
                        brackets: brackets.as_ref().map(|bs| all(bs, literals)),
                        parens: parens.as_ref().map(|ps| all(ps, literals)),
                    },
                })
                .collect(),
        ),
    }
}

/// Hash a key's shape. Data literals (all sentinels, fixed by position)
/// and lambda parameter types are left to equality; hashing less than
/// equality compares keeps equal keys hashing equally.
fn hash_expr<H: Hasher>(e: &Expr, h: &mut H) {
    fn all<H: Hasher>(items: &[Expr], h: &mut H) {
        items.len().hash(h);
        items.iter().for_each(|a| hash_expr(a, h));
    }
    std::mem::discriminant(e).hash(h);
    match e {
        Expr::Const(c) => {
            std::mem::discriminant(c).hash(h);
            match c {
                Const::Bool(b) => b.hash(h),
                Const::Ident(s) => s.hash(h),
                Const::Int(_) | Const::Real(_) | Const::Str(_) => {}
            }
        }
        Expr::Name(n) => n.hash(h),
        Expr::Apply { op, args } => {
            op.hash(h);
            all(args, h);
        }
        Expr::Lambda { params, body } => {
            params.iter().for_each(|(n, _)| n.hash(h));
            hash_expr(body, h);
        }
        Expr::List(items) | Expr::Tuple(items) => all(items, h),
        Expr::Seq(atoms) => {
            atoms.len().hash(h);
            for a in atoms {
                match a {
                    SeqAtom::Operand(e) => hash_expr(e, h),
                    SeqAtom::Word {
                        name,
                        brackets,
                        parens,
                    } => {
                        name.hash(h);
                        for args in [brackets, parens] {
                            args.is_some().hash(h);
                            if let Some(args) = args {
                                all(args, h);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Rebind a cached template's sentinels to actual literals. Any
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

/// Rebuild a term with every constant replaced by `f` of it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::DataType;

    fn typed_const(c: Const) -> TypedExpr {
        let ty = match &c {
            Const::Real(_) => "real",
            _ => "int",
        };
        TypedExpr::new(TypedNode::Const(c), DataType::atom(ty))
    }

    fn typed_apply(op: &str, args: Vec<TypedExpr>) -> TypedExpr {
        let ty = args[0].ty.clone();
        TypedExpr::new(
            TypedNode::Apply {
                op: Symbol::new(op),
                spec: 0,
                args,
            },
            ty,
        )
    }

    /// The checked form of a stripped binary application: its two
    /// sentinel arguments under `op`.
    fn checked_shape(key: &StmtKey, op: &str) -> TypedExpr {
        let Expr::Apply { args, .. } = key.shape() else {
            panic!("an application");
        };
        let args = args
            .iter()
            .map(|a| match a {
                Expr::Const(c) => typed_const(c.clone()),
                other => panic!("a constant, not {other}"),
            })
            .collect();
        typed_apply(op, args)
    }

    fn hash_of(key: &StmtKey) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn same_shape_same_key_different_literals() {
        let a = Expr::apply(">", vec![Expr::int(7), Expr::int(3)]);
        let b = Expr::apply(">", vec![Expr::int(100), Expr::int(-2)]);
        let (ka, la) = StmtKey::new(None, &a);
        let (kb, lb) = StmtKey::new(None, &b);
        assert!(ka == kb);
        assert_eq!(hash_of(&ka), hash_of(&kb));
        assert_eq!(la, vec![Const::Int(7), Const::Int(3)]);
        assert_eq!(lb, vec![Const::Int(100), Const::Int(-2)]);
        // A different shape (one argument fewer) keys differently.
        let c = Expr::apply(">", vec![Expr::int(7)]);
        assert!(StmtKey::new(None, &c).0 != ka);
        // Identifier constants are part of the shape.
        let attr = |a: &str| Expr::apply("attr", vec![Expr::ident(a), Expr::int(1)]);
        assert!(StmtKey::new(None, &attr("k")).0 != StmtKey::new(None, &attr("v")).0);
        // So are the statement kind and the update target.
        let target = Symbol::new("items");
        assert!(StmtKey::new(Some(&target), &a).0 != ka);
    }

    #[test]
    fn rebind_round_trips_sentinels() {
        let (key, literals) =
            StmtKey::new(None, &Expr::apply("+", vec![Expr::int(7), Expr::int(7)]));
        let sentinels = sentinels(&literals);
        // Both 7s strip independently and rebind independently.
        assert_eq!(sentinels.len(), 2);
        assert_ne!(sentinels[0], sentinels[1]);
        let rebound = rebind(&checked_shape(&key, "+"), &sentinels, &literals);
        let want = typed_apply(
            "+",
            vec![typed_const(Const::Int(7)), typed_const(Const::Int(7))],
        );
        assert!(rebound == want);
    }

    #[test]
    fn real_sentinels_differ_and_rebind_in_place() {
        let (key, literals) = StmtKey::new(
            None,
            &Expr::apply("-", vec![Expr::real(1.5), Expr::real(2.5)]),
        );
        let sentinels = sentinels(&literals);
        assert_ne!(sentinels[0], sentinels[1]);
        let rebound = rebind(&checked_shape(&key, "-"), &sentinels, &literals);
        let want = typed_apply(
            "-",
            vec![typed_const(Const::Real(1.5)), typed_const(Const::Real(2.5))],
        );
        assert!(rebound == want, "rebound to {rebound}");
    }

    #[test]
    fn cache_counts_and_evicts_by_object() {
        let mut cache = PlanCache::default();
        let key = |v| StmtKey::new(None, &Expr::apply("f", vec![Expr::int(v)])).0;
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(
            key(1),
            CachedPlan {
                template: typed_const(Const::Int(1)),
                sentinels: vec![],
                objects: vec![Symbol::new("cities")],
            },
        );
        // Another literal, the same entry; peeking does not count.
        assert!(cache.peek(&key(2)).is_some());
        assert!(cache.lookup(&key(2)).is_some());
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(cache.invalidate_object(&Symbol::new("rivers")), 0);
        assert_eq!(cache.invalidate_object(&Symbol::new("cities")), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations, 1);
    }
}
