//! Index search operators (Section 4): B-tree range queries (with
//! halfrange variants standing in for the paper's `bottom`/`top`
//! constants) and LSD-tree point/overlap searches.
//!
//! Every operator also accepts a *partitioned* index (a `Value::Part`
//! whose partitions are per-partition trees): the probe fans out to the
//! partitions, pruning the ones the partitioning spec proves cannot
//! hold matches — equality and range conditions on the routing
//! attribute for B-trees, root-cover containment/overlap for LSD-trees.
//! Pruned counts land in `ExecStats` for EXPLAIN ANALYZE.

use crate::engine::ExecEngine;
use crate::error::{mismatch, ExecError, ExecResult};
use crate::handles::{encode_key, KeyExtractor};
use crate::partition::{KeyCond, PartHandle};
use crate::stream::Cursor;
use crate::value::Value;
use sos_storage::keys;
use std::sync::Arc;

/// A pipelined range cursor over a clustered B-tree.
fn range_cursor(
    h: &std::sync::Arc<crate::handles::BTreeHandle>,
    lo: Vec<u8>,
    hi: Vec<u8>,
) -> Value {
    Value::Cursor(std::sync::Arc::new(parking_lot::Mutex::new(
        Cursor::btree_range(h.clone(), lo, hi),
    )))
}

/// Whether key-level pruning is sound for a partitioned B-tree: the
/// routing attribute must be what the trees index. With `prefix_ok` the
/// probe fixes only the first key attribute, so a composite key whose
/// first attribute is the routing attribute also qualifies.
fn key_aligned(h: &PartHandle, prefix_ok: bool) -> bool {
    let Some(attr_idx) = h.attr_idx else {
        return false;
    };
    h.parts.iter().all(|p| match p {
        Value::BTree(bh) => match &bh.key {
            KeyExtractor::Attr(i) => *i == attr_idx,
            KeyExtractor::Attrs(is) => prefix_ok && is.first() == Some(&attr_idx),
            KeyExtractor::Fun(_) => false,
        },
        _ => false,
    })
}

/// The same range probe against every surviving partition of a
/// partitioned B-tree, as a partition scan over pipelined range
/// cursors (so downstream partition-parallel drains still apply).
fn part_range_cursor(
    op: &'static str,
    engine: &ExecEngine,
    h: &Arc<PartHandle>,
    mask: Vec<bool>,
    lo: Vec<u8>,
    hi: Vec<u8>,
) -> ExecResult<Value> {
    let total = h.part_count();
    let mut cursors = Vec::new();
    for (p, keep) in h.parts.iter().zip(&mask) {
        if !*keep {
            continue;
        }
        let Value::BTree(bh) = p else {
            return Err(mismatch(op, "btree", &p.kind_name()));
        };
        cursors.push(Cursor::btree_range(bh.clone(), lo.clone(), hi.clone()));
    }
    engine
        .stats
        .record_partitions(op, total as u64, (total - cursors.len()) as u64);
    Ok(Value::Cursor(Arc::new(parking_lot::Mutex::new(
        Cursor::PartScan {
            handle: h.clone(),
            cursors,
            idx: 0,
        },
    ))))
}

/// All-true mask (no pruning applies).
fn keep_all(h: &PartHandle) -> Vec<bool> {
    vec![true; h.part_count()]
}

pub fn register(e: &mut ExecEngine) {
    // range[lo, hi] — inclusive range query on a clustering B-tree.
    e.add_op("range", |ctx, _, args| {
        let lo = encode_key("range", &args[1])?;
        let hi = encode_key("range", &args[2])?;
        match &args[0] {
            Value::BTree(h) => Ok(range_cursor(h, lo, hi)),
            Value::Part(h) => {
                let mask = if key_aligned(h, false) {
                    h.range_mask(Some(&args[1]), Some(&args[2]))
                } else {
                    keep_all(h)
                };
                part_range_cursor("range", ctx.engine, h, mask, lo, hi)
            }
            other => Err(mismatch("range", "btree", &other.kind_name())),
        }
    });

    // range_from[lo] — halfrange `lo..top` (the paper's `top` constant).
    e.add_op("range_from", |ctx, _, args| {
        let lo = encode_key("range_from", &args[1])?;
        match &args[0] {
            Value::BTree(h) => Ok(range_cursor(h, lo, keys::top())),
            Value::Part(h) => {
                let mask = if key_aligned(h, false) {
                    h.range_mask(Some(&args[1]), None)
                } else {
                    keep_all(h)
                };
                part_range_cursor("range_from", ctx.engine, h, mask, lo, keys::top())
            }
            other => Err(mismatch("range_from", "btree", &other.kind_name())),
        }
    });

    // range_to[hi] — halfrange `bottom..hi` (the paper's `bottom`).
    e.add_op("range_to", |ctx, _, args| {
        let hi = encode_key("range_to", &args[1])?;
        match &args[0] {
            Value::BTree(h) => Ok(range_cursor(h, keys::bottom(), hi)),
            Value::Part(h) => {
                let mask = if key_aligned(h, false) {
                    h.range_mask(None, Some(&args[1]))
                } else {
                    keep_all(h)
                };
                part_range_cursor("range_to", ctx.engine, h, mask, keys::bottom(), hi)
            }
            other => Err(mismatch("range_to", "btree", &other.kind_name())),
        }
    });

    // prefixmatch[v] — multi-attribute B-tree: all tuples whose first
    // key attribute equals v (Section 4's "query operator specifying
    // values for a prefix of the attributes used for indexing").
    e.add_op("prefixmatch", |ctx, _, args| {
        let prefix = encode_key("prefixmatch", &args[1])?;
        let mut hi = prefix.clone();
        hi.extend_from_slice(&keys::top());
        match &args[0] {
            Value::BTree(h) => Ok(range_cursor(h, prefix, hi)),
            Value::Part(h) => {
                // The probe fixes the first key attribute, so equality
                // pruning applies when that attribute routes.
                let mask = if key_aligned(h, true) {
                    h.candidate_mask(&[KeyCond::Eq(args[1].clone())])
                } else {
                    keep_all(h)
                };
                part_range_cursor("prefixmatch", ctx.engine, h, mask, prefix, hi)
            }
            other => Err(mismatch("prefixmatch", "mbtree", &other.kind_name())),
        }
    });

    // prefixrange[v, lo, hi] — first attribute fixed, second attribute
    // in an inclusive range.
    e.add_op("prefixrange", |ctx, _, args| {
        let prefix = encode_key("prefixrange", &args[1])?;
        let mut lo = prefix.clone();
        lo.extend_from_slice(&encode_key("prefixrange", &args[2])?);
        let mut hi = prefix;
        hi.extend_from_slice(&encode_key("prefixrange", &args[3])?);
        hi.extend_from_slice(&keys::top());
        match &args[0] {
            Value::BTree(h) => Ok(range_cursor(h, lo, hi)),
            Value::Part(h) => {
                let mask = if key_aligned(h, true) {
                    h.candidate_mask(&[KeyCond::Eq(args[1].clone())])
                } else {
                    keep_all(h)
                };
                part_range_cursor("prefixrange", ctx.engine, h, mask, lo, hi)
            }
            other => Err(mismatch("prefixrange", "mbtree", &other.kind_name())),
        }
    });

    // exactmatch[k], point_search[p], overlap_search[r] — the key
    // probes: an index, or (pruning first) a partitioned index, probed
    // with one key value.
    e.add_op("exactmatch", |ctx, _, args| {
        exactmatch(ctx.engine, &args[0], &args[1])
    });
    e.add_op("point_search", |ctx, _, args| {
        point_search(ctx.engine, &args[0], &args[1])
    });
    e.add_op("overlap_search", |ctx, _, args| {
        overlap_search(ctx.engine, &args[0], &args[1])
    });
}

/// exactmatch[k] — all tuples with key exactly k (a pipelined B-tree
/// range cursor).
fn exactmatch(engine: &ExecEngine, target: &Value, key: &Value) -> ExecResult<Value> {
    let k = encode_key("exactmatch", key)?;
    match target {
        Value::BTree(h) => Ok(range_cursor(h, k.clone(), k)),
        Value::Part(h) => {
            let mask = if key_aligned(h, false) {
                h.candidate_mask(&[KeyCond::Eq(key.clone())])
            } else {
                keep_all(h)
            };
            part_range_cursor("exactmatch", engine, h, mask, k.clone(), k)
        }
        other => Err(mismatch("exactmatch", "btree", &other.kind_name())),
    }
}

/// point_search — all tuples whose indexed rectangle contains the point.
fn point_search(engine: &ExecEngine, target: &Value, key: &Value) -> ExecResult<Value> {
    let Value::Point(p) = key else {
        return Err(mismatch("point_search", "point", &key.kind_name()));
    };
    spatial_search(
        "point_search",
        engine,
        target,
        |c| c.contains_point(p),
        |t| t.point_search(*p),
    )
}

/// overlap_search — all tuples whose rectangle overlaps the query rect.
fn overlap_search(engine: &ExecEngine, target: &Value, key: &Value) -> ExecResult<Value> {
    let Value::Rect(r) = key else {
        return Err(mismatch("overlap_search", "rect", &key.kind_name()));
    };
    spatial_search(
        "overlap_search",
        engine,
        target,
        |c| c.intersects(r),
        |t| t.overlap_search(*r),
    )
}

/// One spatial probe against an LSD-tree, or against every partition of
/// a partitioned one whose root cover passes `covers`, concatenated in
/// partition order.
fn spatial_search(
    op: &'static str,
    engine: &ExecEngine,
    target: &Value,
    covers: impl Fn(&sos_geom::Rect) -> bool,
    search: impl Fn(
        &sos_storage::lsdtree::LsdTree,
    ) -> sos_storage::StorageResult<Vec<sos_storage::lsdtree::Entry>>,
) -> ExecResult<Value> {
    let mut out = Vec::new();
    let mut probe_tree = |p: &Value| -> ExecResult<()> {
        let Value::LsdTree(h) = p else {
            return Err(mismatch(op, "lsdtree", &p.kind_name()));
        };
        for entry in search(&h.tree).map_err(ExecError::Storage)? {
            out.push(Value::decode_tuple(&entry.payload)?);
        }
        Ok(())
    };
    match target {
        Value::Part(h) => {
            let mask = h.cover_mask(covers);
            for (p, _) in h.parts.iter().zip(&mask).filter(|(_, keep)| **keep) {
                probe_tree(p)?;
            }
            let pruned = mask.iter().filter(|keep| !**keep).count();
            engine
                .stats
                .record_partitions(op, h.part_count() as u64, pruned as u64);
        }
        single => probe_tree(single)?,
    }
    Ok(Value::Stream(out))
}
