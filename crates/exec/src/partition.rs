//! Partitioned storage objects: one logical relation or index spread
//! across multiple heap files / trees, routed by a key attribute.
//!
//! A partitioned object keeps its *declared* type — `srel(city)` or
//! `btree(city, pop, int)` — so the checker, signature, and optimizer
//! are untouched; only the runtime value changes: the store holds a
//! [`Value::Part`](crate::Value) wrapping a [`PartHandle`] whose
//! `parts` are the per-partition values of the declared shape. Routing
//! follows the catalog's [`PartSpec`]:
//!
//! * **hash** — FNV-1a over the key's order-preserving encoded bytes,
//!   modulo the partition count;
//! * **range** — the first partition whose inclusive upper bound admits
//!   the key; keys above every bound go to the last partition. For
//!   spatially keyed objects (lsdtree) the bounds are numeric and are
//!   compared against the indexed rectangle's center x.
//!
//! Partition *pruning* is the query-side payoff: an equality predicate
//! on the routing attribute touches one partition, a range predicate
//! touches a contiguous run (range partitioning), and a spatial probe
//! skips partitions whose cover cannot intersect the query. All pruning
//! here is conservative — a kept partition may still yield nothing, but
//! a pruned partition provably contributes nothing.

use crate::error::{ExecError, ExecResult};
use crate::handles::encode_key;
use crate::value::{compare, Closure, Value};
use sos_catalog::{PartMethod, PartSpec};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{DataType, Symbol};
use sos_geom::Rect;
use std::sync::Arc;

/// The runtime handle of a partitioned object.
pub struct PartHandle {
    pub spec: PartSpec,
    /// Index of the routing attribute within the stored tuple type.
    /// `None` for lsdtree partitions, which route by rect center.
    pub attr_idx: Option<usize>,
    /// Per-partition values, all of the object's declared shape
    /// (`SRel` / `TidRel` / `BTree` / `LsdTree`).
    pub parts: Vec<Value>,
}

impl PartHandle {
    /// Wrap per-partition values. `tuple_ty` is the stored tuple type,
    /// needed to resolve the routing attribute for heap partitions
    /// (B-trees carry their tuple type; lsdtrees route by rect and use
    /// no attribute index).
    pub fn new(
        spec: PartSpec,
        parts: Vec<Value>,
        tuple_ty: Option<&DataType>,
    ) -> ExecResult<PartHandle> {
        if parts.len() != spec.method.parts() {
            return Err(ExecError::Other(format!(
                "partition spec names {} partition(s) but {} were supplied",
                spec.method.parts(),
                parts.len()
            )));
        }
        let attr_idx = match parts.first() {
            Some(Value::LsdTree(_)) => None,
            Some(Value::BTree(h)) => Some(resolve_attr(&spec.attr, &h.tuple_type)?),
            Some(Value::SRel(_) | Value::TidRel(_)) => {
                let ty = tuple_ty.ok_or_else(|| {
                    ExecError::Other("heap partitions need their tuple type".into())
                })?;
                Some(resolve_attr(&spec.attr, ty)?)
            }
            other => {
                return Err(ExecError::Other(format!(
                    "cannot partition a {} object",
                    other.map(|v| v.kind_name()).unwrap_or("missing")
                )))
            }
        };
        Ok(PartHandle {
            spec,
            attr_idx,
            parts,
        })
    }

    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Total stored entries across partitions (heap partitions count
    /// records on their pages).
    pub fn len(&self) -> ExecResult<usize> {
        let mut n = 0;
        for p in &self.parts {
            n += match p {
                Value::SRel(h) | Value::TidRel(h) => h.count().map_err(ExecError::Storage)?,
                Value::BTree(h) => h.tree.len(),
                Value::LsdTree(h) => h.tree.len(),
                other => {
                    return Err(ExecError::Other(format!(
                        "unexpected {} partition",
                        other.kind_name()
                    )))
                }
            };
        }
        Ok(n)
    }

    pub fn is_empty(&self) -> ExecResult<bool> {
        Ok(self.len()? == 0)
    }

    // ---- routing ----

    /// The partition a key value routes to.
    pub fn route_key(&self, key: &Value) -> ExecResult<usize> {
        route_by_method(&self.spec.method, key)
    }

    /// The partition a stored tuple routes to (heap / B-tree objects).
    pub fn route_tuple(&self, tuple: &Value) -> ExecResult<usize> {
        let idx = self.attr_idx.ok_or_else(|| {
            ExecError::Other("rect-keyed partitions route by rectangle, not attribute".into())
        })?;
        let fields = tuple.as_tuple("partition")?;
        let key = fields.get(idx).ok_or_else(|| {
            ExecError::Other(format!(
                "tuple too short for partition attribute `{}`",
                self.spec.attr
            ))
        })?;
        self.route_key(key)
    }

    /// The partition an indexed rectangle routes to (lsdtree objects).
    pub fn route_rect(&self, rect: &Rect) -> ExecResult<usize> {
        let c = rect.center();
        match &self.spec.method {
            PartMethod::Hash { parts } => {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&c.x.to_bits().to_le_bytes());
                bytes[8..].copy_from_slice(&c.y.to_bits().to_le_bytes());
                Ok((fnv1a(&bytes) % *parts as u64) as usize)
            }
            PartMethod::Range { .. } => route_by_method(&self.spec.method, &Value::Real(c.x)),
        }
    }

    // ---- pruning ----

    /// Partition keep-mask for a conjunction of key conditions. Empty
    /// `conds` keeps everything; a condition that cannot be routed
    /// (e.g. a type-mismatched constant) prunes nothing — conservative
    /// in both directions.
    pub fn candidate_mask(&self, conds: &[KeyCond]) -> Vec<bool> {
        let n = self.parts.len();
        let mut keep = vec![true; n];
        for cond in conds {
            match cond {
                KeyCond::Eq(v) => {
                    if let Ok(i) = self.route_key(v) {
                        for (j, k) in keep.iter_mut().enumerate() {
                            *k &= j == i;
                        }
                    }
                }
                KeyCond::Upper(v) => {
                    // key <= v (or < v: same inclusive mask, still sound)
                    if let PartMethod::Range { .. } = self.spec.method {
                        if let Ok(i) = self.route_key(v) {
                            for (j, k) in keep.iter_mut().enumerate() {
                                *k &= j <= i;
                            }
                        }
                    }
                }
                KeyCond::Lower(v) => {
                    if let PartMethod::Range { .. } = self.spec.method {
                        if let Ok(i) = self.route_key(v) {
                            for (j, k) in keep.iter_mut().enumerate() {
                                *k &= j >= i;
                            }
                        }
                    }
                }
            }
        }
        keep
    }

    /// Keep-mask for a B-tree range query `[lo, hi]` (either bound
    /// optional: half-open queries).
    pub fn range_mask(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<bool> {
        let mut conds = Vec::new();
        if let Some(lo) = lo {
            conds.push(KeyCond::Lower(lo.clone()));
        }
        if let Some(hi) = hi {
            conds.push(KeyCond::Upper(hi.clone()));
        }
        self.candidate_mask(&conds)
    }

    /// Keep-mask for a spatial probe over lsdtree partitions: a
    /// partition survives iff its cover (the root bounding box of its
    /// tree) passes `probe`. Non-lsdtree partitions keep everything.
    pub fn cover_mask(&self, probe: impl Fn(&Rect) -> bool) -> Vec<bool> {
        self.parts
            .iter()
            .map(|p| match p {
                Value::LsdTree(h) => h.tree.cover().map(|c| probe(&c)).unwrap_or(false),
                _ => true,
            })
            .collect()
    }
}

fn resolve_attr(attr: &Symbol, tuple_ty: &DataType) -> ExecResult<usize> {
    crate::ops::relational::attr_position(tuple_ty, attr).map_err(|_| {
        ExecError::Other(format!(
            "partition attribute `{attr}` is not an attribute of {tuple_ty}"
        ))
    })
}

fn route_by_method(method: &PartMethod, key: &Value) -> ExecResult<usize> {
    match method {
        PartMethod::Hash { parts } => {
            let bytes = encode_key("partition", key)?;
            Ok((fnv1a(&bytes) % *parts as u64) as usize)
        }
        PartMethod::Range { bounds } => {
            for (i, b) in bounds.iter().enumerate() {
                let bound = Value::from_const(b);
                if compare("partition", key, &bound)? != std::cmp::Ordering::Greater {
                    return Ok(i);
                }
            }
            Ok(bounds.len())
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---- predicate analysis ----

/// A key condition extracted from a filter predicate: the routing
/// attribute compared against a constant. Strict bounds are folded into
/// their inclusive forms (`< v` prunes like `<= v`), which only ever
/// keeps extra partitions.
#[derive(Debug, Clone)]
pub enum KeyCond {
    Eq(Value),
    /// `attr <= v` (or `< v`).
    Upper(Value),
    /// `attr >= v` (or `> v`).
    Lower(Value),
}

/// Extract the key conditions a one-parameter filter predicate imposes
/// on `attr`: top-level `and`-conjuncts of the shape
/// `attr(%t) cmp const` (either operand order). Anything else in the
/// predicate is ignored — the extracted conditions are implied by the
/// predicate, which is all pruning needs.
pub fn key_conds(pred: &Arc<Closure>, attr: &Symbol) -> Vec<KeyCond> {
    let [(param, _)] = &pred.params[..] else {
        return Vec::new();
    };
    let mut out = Vec::new();
    collect_conds(&pred.body, param, attr, &mut out);
    out
}

fn collect_conds(te: &TypedExpr, param: &Symbol, attr: &Symbol, out: &mut Vec<KeyCond>) {
    let TypedNode::Apply { op, args, .. } = &te.node else {
        return;
    };
    if op.as_str() == "and" && args.len() == 2 {
        collect_conds(&args[0], param, attr, out);
        collect_conds(&args[1], param, attr, out);
        return;
    }
    let [a, b] = args.as_slice() else {
        return;
    };
    let (const_side, flipped) = if is_attr_access(a, param, attr) {
        (b, false)
    } else if is_attr_access(b, param, attr) {
        (a, true)
    } else {
        return;
    };
    let TypedNode::Const(c) = &const_side.node else {
        return;
    };
    let v = Value::from_const(c);
    // `v cmp attr` is `attr cmp' v` with the comparison mirrored.
    let cond = match (op.as_str(), flipped) {
        ("=", _) => KeyCond::Eq(v),
        ("<" | "<=", false) | (">" | ">=", true) => KeyCond::Upper(v),
        (">" | ">=", false) | ("<" | "<=", true) => KeyCond::Lower(v),
        _ => return,
    };
    out.push(cond);
}

/// Whether `te` is exactly `attr(param)` — a checked attribute access
/// of the predicate's own parameter.
fn is_attr_access(te: &TypedExpr, param: &Symbol, attr: &Symbol) -> bool {
    matches!(&te.node, TypedNode::Field { attr: a, arg, .. }
        if a == attr && matches!(&arg.node, TypedNode::Var(v) if v == param))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::sym;

    fn hash_spec(parts: usize) -> PartSpec {
        PartSpec {
            attr: sym("k"),
            method: PartMethod::Hash { parts },
        }
    }

    fn range_spec(bounds: Vec<sos_core::Const>) -> PartSpec {
        PartSpec {
            attr: sym("k"),
            method: PartMethod::Range { bounds },
        }
    }

    #[test]
    fn hash_routing_is_stable_and_in_range() {
        let m = PartMethod::Hash { parts: 7 };
        for i in 0..1000i64 {
            let a = route_by_method(&m, &Value::Int(i)).unwrap();
            let b = route_by_method(&m, &Value::Int(i)).unwrap();
            assert_eq!(a, b);
            assert!(a < 7);
        }
        // All partitions get some keys.
        let mut seen = [false; 7];
        for i in 0..1000i64 {
            seen[route_by_method(&m, &Value::Int(i)).unwrap()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn range_routing_respects_bounds() {
        use sos_core::Const;
        let m = PartMethod::Range {
            bounds: vec![Const::Int(10), Const::Int(20)],
        };
        assert_eq!(route_by_method(&m, &Value::Int(-5)).unwrap(), 0);
        assert_eq!(route_by_method(&m, &Value::Int(10)).unwrap(), 0);
        assert_eq!(route_by_method(&m, &Value::Int(11)).unwrap(), 1);
        assert_eq!(route_by_method(&m, &Value::Int(20)).unwrap(), 1);
        assert_eq!(route_by_method(&m, &Value::Int(21)).unwrap(), 2);
        assert_eq!(route_by_method(&m, &Value::Int(1000)).unwrap(), 2);
        // int/real promotion in bound comparison
        assert_eq!(route_by_method(&m, &Value::Real(10.5)).unwrap(), 1);
        // mismatched type errors rather than silently misrouting
        assert!(route_by_method(&m, &Value::Str("x".into())).is_err());
    }

    fn dummy_handle(spec: PartSpec) -> PartHandle {
        // Routing and masks only consult the spec and part count, so
        // a handle over empty heaps suffices.
        let pool = sos_storage::mem_pool(64);
        let n = spec.method.parts();
        let parts: Vec<Value> = (0..n)
            .map(|_| {
                Value::SRel(Arc::new(
                    sos_storage::heap::HeapFile::create(pool.clone()).unwrap(),
                ))
            })
            .collect();
        let ty = DataType::tuple(vec![(sym("k"), DataType::atom("int"))]);
        PartHandle::new(spec, parts, Some(&ty)).unwrap()
    }

    #[test]
    fn eq_cond_keeps_one_partition() {
        let h = dummy_handle(hash_spec(5));
        let mask = h.candidate_mask(&[KeyCond::Eq(Value::Int(42))]);
        assert_eq!(mask.iter().filter(|k| **k).count(), 1);
        let i = h.route_key(&Value::Int(42)).unwrap();
        assert!(mask[i]);
    }

    #[test]
    fn range_conds_keep_contiguous_run() {
        use sos_core::Const;
        let h = dummy_handle(range_spec(vec![
            Const::Int(10),
            Const::Int(20),
            Const::Int(30),
        ]));
        assert_eq!(
            h.candidate_mask(&[KeyCond::Upper(Value::Int(15))]),
            vec![true, true, false, false]
        );
        assert_eq!(
            h.candidate_mask(&[KeyCond::Lower(Value::Int(15))]),
            vec![false, true, true, true]
        );
        assert_eq!(
            h.candidate_mask(&[
                KeyCond::Lower(Value::Int(15)),
                KeyCond::Upper(Value::Int(25))
            ]),
            vec![false, true, true, false]
        );
        assert_eq!(h.range_mask(None, None), vec![true; 4]);
    }

    #[test]
    fn hash_ignores_inequalities_but_not_equality() {
        let h = dummy_handle(hash_spec(4));
        assert_eq!(
            h.candidate_mask(&[KeyCond::Upper(Value::Int(3))]),
            vec![true; 4]
        );
    }

    #[test]
    fn unroutable_cond_prunes_nothing() {
        use sos_core::Const;
        let h = dummy_handle(range_spec(vec![Const::Int(10)]));
        assert_eq!(
            h.candidate_mask(&[KeyCond::Eq(Value::Str("oops".into()))]),
            vec![true, true]
        );
    }

    #[test]
    fn tuple_routing_reads_the_spec_attr() {
        let h = dummy_handle(range_spec(vec![sos_core::Const::Int(10)]));
        let t = Value::tuple(vec![Value::Int(7)]);
        assert_eq!(h.route_tuple(&t).unwrap(), 0);
        let t = Value::tuple(vec![Value::Int(70)]);
        assert_eq!(h.route_tuple(&t).unwrap(), 1);
    }

    #[test]
    fn rect_routing_uses_center() {
        use sos_core::Const;
        let h = {
            let pool = sos_storage::mem_pool(64);
            let spec = PartSpec {
                attr: sym("box"),
                method: PartMethod::Range {
                    bounds: vec![Const::Real(500.0)],
                },
            };
            let parts: Vec<Value> = (0..2)
                .map(|_| {
                    let tree = sos_storage::lsdtree::LsdTree::create(pool.clone()).unwrap();
                    Value::LsdTree(Arc::new(crate::handles::LsdHandle {
                        tree,
                        tuple_type: DataType::tuple(vec![(sym("box"), DataType::atom("rect"))]),
                        // Never evaluated here: routing uses the rect.
                        keyfun: TypedExpr::new(TypedNode::Var(sym("r")), DataType::atom("rect")),
                    }))
                })
                .collect();
            PartHandle::new(spec, parts, None).unwrap()
        };
        assert_eq!(
            h.route_rect(&Rect::new(0.0, 0.0, 10.0, 10.0)).unwrap(),
            0usize
        );
        assert_eq!(
            h.route_rect(&Rect::new(900.0, 0.0, 950.0, 10.0)).unwrap(),
            1usize
        );
    }
}
